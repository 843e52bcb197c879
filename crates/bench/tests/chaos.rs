//! Chaos integration suite: the fig6+scale workload under seeded,
//! deterministic fault schedules on all three backends, driven through
//! the real `run_experiments` CLI in subprocesses.
//!
//! Every schedule pins one of exactly two acceptable outcomes — the run
//! absorbs the faults and its `summary.json` is **byte-identical** to
//! the fault-free reference, or it fails with a **clean typed error**
//! (non-zero exit, a recognizable message on stderr, no summary) — and
//! every run must finish within a watchdog: a hang is itself a failure.
//! Each backend's runs share one result cache, and after the schedules
//! a warm verification pass proves no faulted or failed run poisoned
//! it: run #1 replays byte-identically, run #2 is all hits.
//!
//! Crash-action schedules never target `local.item`: a crash failpoint
//! exits the *process* that hits it, and the local backend's worker
//! threads run inside the dispatcher's own process — the worker/host
//! points rehearse crashes instead. An injected `local.item` error ends
//! one worker thread's channel, which the dispatcher re-queues like a
//! dead worker subprocess.

mod common;

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use common::WorkerHost;

/// Per-run watchdog: generous against a loaded CI core, tiny against
/// the 600 s a `hang` action would otherwise cost.
const WATCHDOG: Duration = Duration::from_secs(120);

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_run_experiments")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("onionbots-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The chaos workload: both registered multi-part scenarios, shortened
/// for debug-profile runtime, on a fixed seed.
fn workload_args() -> Vec<String> {
    [
        "--only",
        "fig6,scale",
        "--seed",
        "2015",
        "--set",
        "steps=4",
        "--set",
        "n=2000",
        "--set",
        "waves=3",
        "--jobs",
        "2",
        "--format",
        "json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

struct CliOutcome {
    success: bool,
    stderr: String,
}

/// Runs the CLI under the watchdog, capturing stderr. A run that
/// overshoots the watchdog is killed and fails the test: no fault
/// schedule is allowed to produce a hang.
fn run_cli(args: &[String], envs: &[(&str, &str)], what: &str) -> CliOutcome {
    let mut command = Command::new(bin());
    command
        .args(args)
        .env_remove("ONIONBOTS_CACHE_DIR")
        .env_remove("ONIONBOTS_FAULTS")
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    for (key, value) in envs {
        command.env(key, value);
    }
    let mut child = command.spawn().unwrap();
    let mut stderr_pipe = child.stderr.take().unwrap();
    // Drain stderr from a thread so a chatty child can never block on a
    // full pipe while the watchdog thinks it hung.
    let drain = std::thread::spawn(move || {
        let mut buffer = String::new();
        let _ = stderr_pipe.read_to_string(&mut buffer);
        buffer
    });
    let deadline = Instant::now() + WATCHDOG;
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            let stderr = drain.join().unwrap();
            panic!("{what}: run hung past the {WATCHDOG:?} watchdog\nstderr:\n{stderr}");
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    CliOutcome {
        success: status.success(),
        stderr: drain.join().unwrap(),
    }
}

/// What one seeded schedule must produce.
enum Expect {
    /// The faults are absorbed; `summary.json` matches the reference.
    Identical,
    /// The run fails cleanly: non-zero exit, this substring on stderr,
    /// and no summary written.
    CleanError(&'static str),
}

struct Schedule {
    name: &'static str,
    /// `--faults` entries armed in the dispatcher process (exported to
    /// process-backend workers automatically).
    faults: &'static [&'static str],
    /// Fault schedule armed on the second remote host only.
    host_faults: Option<&'static str>,
    /// Extra CLI flags (e.g. a tightened item deadline).
    extra: &'static [&'static str],
    /// Re-execute cached parts (`--refresh`) so the faults actually
    /// fire instead of being swallowed by warm hits from the previous
    /// schedule. Off only for schedules that target the lookup path
    /// itself — those *need* the warm hits to exercise `cache.load`.
    refresh: bool,
    expect: Expect,
}

const fn schedule(name: &'static str, faults: &'static [&'static str], expect: Expect) -> Schedule {
    Schedule {
        name,
        faults,
        host_faults: None,
        extra: &[],
        refresh: true,
        expect,
    }
}

/// Computes the fault-free reference `summary.json` once per suite run.
fn reference_summary(dir: &Path) -> Vec<u8> {
    let out = dir.join("reference");
    let mut args = workload_args();
    args.extend([
        "--no-cache".into(),
        "--out".into(),
        out.display().to_string(),
    ]);
    let outcome = run_cli(&args, &[], "reference run");
    assert!(outcome.success, "reference run failed:\n{}", outcome.stderr);
    std::fs::read(out.join("summary.json")).unwrap()
}

/// Drives `schedules` on one backend: every run under the watchdog, a
/// shared cache across the whole sequence, byte-identity or clean error
/// per schedule, then the two-pass warm verification.
fn run_backend_suite(
    tag: &str,
    backend_args: &dyn Fn(&Path, usize) -> Vec<String>,
    schedules: &[Schedule],
) {
    let dir = scratch(tag);
    let reference = reference_summary(&dir);
    let cache = dir.join("cache");
    for (index, schedule) in schedules.iter().enumerate() {
        let out = dir.join(format!("run-{}", schedule.name));
        let mut args = workload_args();
        args.extend(backend_args(&dir, index));
        args.extend([
            "--cache-dir".into(),
            cache.display().to_string(),
            "--out".into(),
            out.display().to_string(),
        ]);
        for entry in schedule.faults {
            args.extend(["--faults".into(), (*entry).into()]);
        }
        if schedule.refresh {
            args.push("--refresh".into());
        }
        args.extend(schedule.extra.iter().map(|s| s.to_string()));
        // Remote schedules get a fleet of one clean and one (optionally
        // rigged) host; the hosts live exactly as long as the run.
        let hosts: Vec<WorkerHost> = if tag == "remote" {
            vec![
                WorkerHost::spawn(None),
                WorkerHost::spawn(schedule.host_faults),
            ]
        } else {
            assert!(
                schedule.host_faults.is_none(),
                "{}: host faults need the remote backend",
                schedule.name
            );
            Vec::new()
        };
        for host in &hosts {
            args.extend(["--worker".into(), host.addr.clone()]);
        }
        let what = format!("{tag}/{}", schedule.name);
        let outcome = run_cli(&args, &[], &what);
        match &schedule.expect {
            Expect::Identical => {
                assert!(
                    outcome.success,
                    "{what}: expected the faults to be absorbed, run failed:\n{}",
                    outcome.stderr
                );
                let summary = std::fs::read(out.join("summary.json")).unwrap();
                assert_eq!(
                    summary, reference,
                    "{what}: summary.json diverged from the fault-free reference"
                );
            }
            Expect::CleanError(needle) => {
                assert!(
                    !outcome.success,
                    "{what}: expected a clean failure, run succeeded"
                );
                assert!(
                    outcome.stderr.contains(needle),
                    "{what}: stderr lacks '{needle}':\n{}",
                    outcome.stderr
                );
                assert!(
                    !out.join("summary.json").exists(),
                    "{what}: a failed run wrote a summary"
                );
            }
        }
    }
    // Warm verification against the cache every schedule shared. Pass 1
    // replays byte-identically (quarantining any entry a torn write left
    // behind); pass 2 must be pure hits — if a faulted or failed run
    // had poisoned the cache, the bytes or the stats would betray it.
    for (pass, expect_all_hits) in [(1, false), (2, true)] {
        let out = dir.join(format!("verify-{pass}"));
        let mut args = workload_args();
        args.extend([
            "--cache-dir".into(),
            cache.display().to_string(),
            "--out".into(),
            out.display().to_string(),
        ]);
        let what = format!("{tag}/verify-{pass}");
        let outcome = run_cli(&args, &[], &what);
        assert!(outcome.success, "{what} failed:\n{}", outcome.stderr);
        let summary = std::fs::read(out.join("summary.json")).unwrap();
        assert_eq!(summary, reference, "{what}: warm replay diverged");
        if expect_all_hits {
            assert!(
                outcome.stderr.contains("0 miss(es), 0 invalidated"),
                "{what}: expected a pure-hit replay, stderr:\n{}",
                outcome.stderr
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn local_backend_absorbs_or_cleanly_fails_every_seeded_schedule() {
    run_backend_suite(
        "local",
        &|_, _| vec!["--backend".into(), "local".into()],
        &[
            schedule(
                "delay-two-items",
                &["local.item=delay:50@1,3"],
                Expect::Identical,
            ),
            schedule(
                "inject-item-error",
                &["local.item=err@2"],
                Expect::Identical,
            ),
            // Every item from the second on ends its thread's channel:
            // fresh channels keep dying until one item's retry budget
            // runs out.
            schedule(
                "every-later-item-errors",
                &["local.item=err@2.."],
                Expect::CleanError("giving up"),
            ),
            Schedule {
                name: "cache-load-errors",
                faults: &["cache.load=err@1.."],
                host_faults: None,
                extra: &[],
                refresh: false,
                expect: Expect::Identical,
            },
            schedule(
                "delay-every-item",
                &["local.item=delay:20@1.."],
                Expect::Identical,
            ),
            // Last on purpose: the torn entry it leaves behind must be
            // quarantined by the verify pass, not papered over by a
            // later refresh run.
            schedule(
                "torn-cache-store",
                &["cache.store=partial@2"],
                Expect::Identical,
            ),
        ],
    );
}

#[test]
fn process_backend_absorbs_or_cleanly_fails_every_seeded_schedule() {
    run_backend_suite(
        "process",
        &|_, _| vec!["--backend".into(), "process".into()],
        &[
            schedule(
                "worker-crash-after-one",
                &["worker.item=crash@2"],
                Expect::Identical,
            ),
            schedule(
                "toxic-first-item",
                &["worker.item=err@1"],
                Expect::CleanError("giving up"),
            ),
            schedule(
                "worker-delay",
                &["worker.item=delay:100@3"],
                Expect::Identical,
            ),
            schedule("store-error", &["cache.store=err@1"], Expect::Identical),
            // Each worker hangs on its second item: the per-item deadline
            // must kill both and fail the run with a named cause, where a
            // deadline-less dispatcher would wait on them forever.
            Schedule {
                name: "hung-worker",
                faults: &["worker.item=hang@2"],
                host_faults: None,
                extra: &["--item-deadline-ms", "2000"],
                refresh: true,
                expect: Expect::CleanError("deadline"),
            },
            schedule(
                "worker-crash-loop",
                &["worker.item=crash@1"],
                Expect::CleanError("giving up"),
            ),
        ],
    );
}

#[test]
fn remote_backend_absorbs_or_cleanly_fails_every_seeded_schedule() {
    run_backend_suite(
        "remote",
        &|_, _| vec!["--backend".into(), "remote".into()],
        &[
            Schedule {
                name: "host-crash",
                faults: &[],
                host_faults: Some("remote.host.item=crash@2"),
                extra: &[],
                refresh: true,
                expect: Expect::Identical,
            },
            schedule(
                "dispatcher-read-error",
                &["remote.read=err@2"],
                Expect::Identical,
            ),
            schedule(
                "dispatcher-connect-error",
                &["remote.connect=err@1"],
                Expect::CleanError("cannot connect"),
            ),
            Schedule {
                name: "hung-host",
                faults: &[],
                host_faults: Some("remote.host.item=hang@2"),
                extra: &["--item-deadline-ms", "2000"],
                refresh: true,
                expect: Expect::Identical,
            },
            schedule(
                "read-delays",
                &["remote.read=delay:150@1.."],
                Expect::Identical,
            ),
        ],
    );
}
