//! Integration tests for the pluggable execution backends against real
//! registered scenarios: `RunSummary` byte-equality local-vs-process at
//! several worker counts, worker-kill recovery with identical output,
//! retry exhaustion for an item that keeps killing workers, a clean
//! failure on a worker that streams an endless line, a panicking part
//! that fails a process run once instead of being retried, and cache
//! sharing across backends (parts computed by worker subprocesses replay
//! as hits in a local run, byte-identically).
//!
//! The worker subprocess is this package's own `run_experiments` binary
//! in its hidden `worker` mode; Cargo points the tests at it via
//! `CARGO_BIN_EXE_run_experiments`.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use onionbots_bench::scenarios;
use sim::scenario_api::ScenarioParams;
use sim::{Backend, ResultCache, Runner, Scenario, ThreadsPerItem, WorkerCommand};

fn worker_command() -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_run_experiments")).arg("worker")
}

/// The ISSUE's target parameterization: fig6 plus scale pinned to one
/// 2000-node part, with sweeps shortened so debug-profile test runs stay
/// quick. Overrides are declared by both scenarios, so they flow through
/// work-item scoping.
fn params(seed: u64) -> ScenarioParams {
    ScenarioParams::with_seed(seed)
        .with_override("steps", "4")
        .with_override("n", "2000")
        .with_override("waves", "3")
}

fn selected() -> Vec<Arc<dyn Scenario>> {
    scenarios::registry()
        .select(&["fig6".to_string(), "scale".to_string()])
        .unwrap()
}

const PARTS: usize = 4 + 1; // fig6 steps=4 + scale collapsed to n=2000

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "onionbots-exec-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn process_backend_is_byte_identical_to_local_at_jobs_1_4_8() {
    let reference = Runner::new(params(2015))
        .try_run_observed(&selected(), &())
        .unwrap()
        .0;
    for jobs in [1, 4, 8] {
        let local = Runner::new(params(2015))
            .jobs(jobs)
            .try_run_observed(&selected(), &())
            .unwrap()
            .0;
        assert_eq!(
            local.to_json(),
            reference.to_json(),
            "local backend, jobs={jobs}"
        );
        let process = Runner::new(params(2015))
            .jobs(jobs)
            .backend(Backend::Process(worker_command()))
            .try_run_observed(&selected(), &())
            .unwrap()
            .0;
        assert_eq!(
            process.to_json(),
            reference.to_json(),
            "process backend, jobs={jobs}"
        );
    }
}

#[test]
fn threads_per_item_is_byte_invariant_across_backends_and_budgets() {
    // The ISSUE's target parameterization: the scale scenario pinned to
    // one 2000-node part (waves shortened for debug-profile runtime).
    // Intra-item parallelism is a pure throughput knob: any thread budget
    // on any backend must produce the reference bytes — on the process
    // backend the budget reaches worker subprocesses inside each work
    // item.
    let scale_only = || {
        scenarios::registry()
            .select(&["scale".to_string()])
            .unwrap()
    };
    let params = ScenarioParams::with_seed(2015)
        .with_override("n", "2000")
        .with_override("waves", "3");
    let reference = Runner::new(params.clone())
        .try_run_observed(&scale_only(), &())
        .unwrap()
        .0;
    for threads in [1usize, 4] {
        for process in [false, true] {
            let mut runner = Runner::new(params.clone())
                .jobs(2)
                .threads_per_item(ThreadsPerItem::Fixed(threads));
            if process {
                runner = runner.backend(Backend::Process(worker_command()));
            }
            let summary = runner.try_run_observed(&scale_only(), &()).unwrap().0;
            assert_eq!(
                summary.to_json(),
                reference.to_json(),
                "threads-per-item={threads}, backend={}",
                if process { "process" } else { "local" }
            );
        }
    }
    // Auto resolves against this machine's core count; whatever it picks
    // must also be byte-identical.
    let auto = Runner::new(params)
        .jobs(2)
        .threads_per_item(ThreadsPerItem::Auto)
        .try_run_observed(&scale_only(), &())
        .unwrap()
        .0;
    assert_eq!(auto.to_json(), reference.to_json(), "threads-per-item=auto");
}

#[test]
fn killed_workers_are_respawned_and_the_output_is_unchanged() {
    let reference = Runner::new(params(7))
        .try_run_observed(&selected(), &())
        .unwrap()
        .0;
    // Every worker incarnation abruptly exits while holding its second
    // item (read, never answered), so the run survives a worker death for
    // nearly every part and still converges to the same bytes.
    let flaky = worker_command().env(sim::FAULTS_ENV, "worker.item=crash@2");
    let summary = Runner::new(params(7))
        .jobs(2)
        .backend(Backend::Process(flaky))
        .try_run_observed(&selected(), &())
        .unwrap()
        .0;
    assert_eq!(summary.to_json(), reference.to_json());
}

#[test]
fn an_item_that_keeps_killing_workers_fails_the_run_instead_of_looping() {
    // Every incarnation dies on its very first item, so no item can ever
    // complete and the retry bound must trip.
    let hopeless = worker_command().env(sim::FAULTS_ENV, "worker.item=crash@1");
    let error = Runner::new(params(3))
        .jobs(2)
        .backend(Backend::Process(hopeless))
        .try_run_observed(&selected(), &())
        .unwrap_err();
    let message = error.to_string();
    assert!(
        message.contains("worker") && message.contains("giving up"),
        "unexpected error: {message}"
    );
}

#[test]
fn parts_computed_by_workers_replay_as_local_cache_hits_byte_identically() {
    let dir = temp_dir("cross-backend-cache");
    let cache = ResultCache::open(&dir).unwrap();
    // Cold run on the process backend: every part misses, executes in a
    // worker subprocess, and is stored by the parent.
    let (cold, stats) = Runner::new(params(11))
        .jobs(4)
        .backend(Backend::Process(worker_command()))
        .with_cache(cache.clone())
        .try_run_observed(&selected(), &())
        .unwrap();
    let stats = stats.unwrap();
    assert_eq!(stats.misses, PARTS);
    assert_eq!(stats.stored, PARTS);
    assert_eq!(stats.hits, 0);
    // Warm run on the *local* backend against the same cache: identity is
    // the fingerprint, which knows nothing about backends.
    let (warm, stats) = Runner::new(params(11))
        .jobs(4)
        .with_cache(cache)
        .try_run_observed(&selected(), &())
        .unwrap();
    let stats = stats.unwrap();
    assert!(stats.all_hits(), "{stats:?}");
    assert_eq!(stats.hits, PARTS);
    assert_eq!(warm.to_json(), cold.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_worker_streaming_an_endless_line_fails_the_run_naming_the_line_limit() {
    // A "worker" that answers the handshake with more than MAX_FRAME_BYTES
    // bytes and no newline: the bounded reader must refuse it cleanly.
    let endless = WorkerCommand::new("sh")
        .arg("-c")
        .arg("head -c 17000000 /dev/zero");
    let error = Runner::new(params(3))
        .backend(Backend::Process(endless))
        .try_run_observed(&selected(), &())
        .unwrap_err();
    let message = error.to_string();
    assert!(
        message.contains("line limit"),
        "unexpected error: {message}"
    );
}

#[test]
fn a_panicking_part_fails_a_process_run_once_naming_the_part_and_the_panic() {
    // `k >= n`: the scale part panics in every worker that runs it. The
    // worker answers the panic as a failed result, so the run fails on
    // the first attempt instead of re-queueing the part onto fresh
    // workers until the retry bound trips.
    let out = temp_dir("infeasible-process");
    let output = Command::new(env!("CARGO_BIN_EXE_run_experiments"))
        .args(["--only", "scale", "--set", "n=5", "--no-cache"])
        .args(["--backend", "process", "--out"])
        .arg(&out)
        .env_remove(sim::FAULTS_ENV)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "the run must fail:\n{stderr}");
    assert_ne!(
        output.status.code(),
        Some(101),
        "a crash, not a clean error"
    );
    assert!(
        stderr.contains("failed on scale#0: panicked: degree must be smaller than the node count"),
        "{stderr}"
    );
    assert_eq!(
        stderr.matches("panicked at").count(),
        1,
        "one run: {stderr}"
    );
    assert!(!stderr.contains("re-queueing"), "{stderr}");
    let _ = std::fs::remove_dir_all(&out);
}
