//! Golden digests: the SHA-256 of `RunSummary::to_json` (the bytes
//! `run_experiments --out DIR` writes to `DIR/summary.json`) for pinned
//! runs, committed as constants. The quick-registry digest is checked
//! through every front end: the `Runner` itself, the built one-shot
//! binary on the local (one and two jobs), process and remote backends,
//! and a simulation-service job.
//!
//! Every performance change to a hot path promises "byte-identical for a
//! fixed seed"; these tests turn that promise into a tier-1 check. A
//! drifted digest means the change moved an RNG stream or a report value.
//! If that was intended, it also needs a `CACHE_FORMAT_VERSION` bump in
//! the same diff (see `sim::cache`). The digests below were recorded at
//! format version 3.
//!
//! Regenerate a digest with the release binary and `sha256sum`:
//!
//! ```text
//! run_experiments --jobs 2 --seed 2015 --no-cache --out q && sha256sum q/summary.json
//! run_experiments --only scale --set n=2000 --set shards=8 --threads-per-item 1 \
//!     --seed 2015 --no-cache --out s && sha256sum s/summary.json
//! run_experiments --only scale --set n=50000 --threads-per-item 1 \
//!     --seed 2015 --no-cache --out s && sha256sum s/summary.json
//! run_experiments --only fig6 --scale full --seed 2015 --no-cache --out f \
//!     && sha256sum f/summary.json
//! ```

mod common;

use std::process::{Command, Stdio};

use onion_crypto::sha256::Sha256;
use onionbots_bench::scenarios;
use sim::runner::ThreadsPerItem;
use sim::scenario_api::ScenarioParams;
use sim::service::{Event, Request};
use sim::{JobSpec, Runner, Service, ServiceConfig};

use common::WorkerHost;

/// The whole quick registry at seed 2015.
const QUICK_REGISTRY: &str = "fc99b29c86680e38f6d0604977910327d862f90377f2d48565911e8047796224";

/// `scale` at `n=2000`, seed 2015, by `shards` override. The thread
/// budget must not matter, so each digest holds at budgets 1 and 2.
const SCALE_N2000: [(&str, &str); 2] = [
    (
        "1",
        "89bddd6c68bb23ba4f9d1071ee35b45ae24ae41715adbf8907f3002acc60b578",
    ),
    (
        "8",
        "542bb434aeb6cac396de340556a5228dec30c39c50dcdefe4d7c75b54d78841c",
    ),
];

/// `scale` at `n=50000`, seed 2015: the smallest population on the
/// default 64-shard grid, so every wave runs the multi-shard repair. It
/// holds at thread budgets 1 and 2.
const SCALE_N50000: &str = "16e7f9c7902be05d1867ebbfbe70c1729b5431bf1facb8547cc124198ddab2d9";

/// `fig6 --scale full` at seed 2015: the paper's sweep, n = 1000..15000
/// with a connectivity check every n/100 deletions.
const FIG6_FULL: &str = "8d4d736ac572f7f198e316dce67d50d1109dffa7ab42cbe688bc7d67694961b9";

fn sha256_hex(text: &str) -> String {
    Sha256::digest_array(text.as_bytes())
        .iter()
        .map(|byte| format!("{byte:02x}"))
        .collect()
}

#[test]
fn quick_registry_summary_matches_its_golden_digest() {
    let registry = scenarios::registry();
    let all = registry.select(&[]).unwrap();
    let summary = Runner::new(ScenarioParams::with_seed(2015))
        .jobs(2)
        .try_run_observed(&all, &())
        .unwrap()
        .0;
    assert_eq!(sha256_hex(&summary.to_json()), QUICK_REGISTRY);
}

#[test]
fn quick_registry_digest_holds_through_the_one_shot_binary() {
    // One host listed twice: two channels to the same host.
    let host = WorkerHost::spawn(None);
    let runs: [(&str, Vec<&str>); 4] = [
        ("local-jobs-2", vec!["--jobs", "2", "--backend", "local"]),
        ("local-jobs-1", vec!["--jobs", "1", "--backend", "local"]),
        (
            "process-jobs-2",
            vec!["--jobs", "2", "--backend", "process"],
        ),
        (
            "remote",
            vec![
                "--backend",
                "remote",
                "--worker",
                &host.addr,
                "--worker",
                &host.addr,
            ],
        ),
    ];
    for (label, args) in runs {
        let out =
            std::env::temp_dir().join(format!("golden-digests-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let status = Command::new(env!("CARGO_BIN_EXE_run_experiments"))
            .args(["--seed", "2015", "--no-cache"])
            .args(&args)
            .arg("--out")
            .arg(&out)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .unwrap();
        assert!(status.success(), "{label}: {status}");
        let summary = std::fs::read_to_string(out.join("summary.json")).unwrap();
        let _ = std::fs::remove_dir_all(&out);
        assert_eq!(sha256_hex(&summary), QUICK_REGISTRY, "{label}");
    }
}

#[test]
fn quick_registry_digest_holds_through_a_service_job() {
    let service = Service::new(scenarios::registry(), ServiceConfig::default());
    let spec = JobSpec {
        seed: Some(2015),
        jobs: Some(2),
        ..JobSpec::default()
    };
    let request = format!(
        "{}\n",
        serde_json::to_string(&Request::Submit(spec)).unwrap()
    );
    let mut output = Vec::new();
    service
        .handle_connection(request.as_bytes(), &mut output)
        .unwrap();
    let frames = String::from_utf8(output).unwrap();
    let last = frames.lines().last().expect("the job answers");
    match serde_json::from_str::<Event>(last).unwrap() {
        Event::Done { summary, .. } => assert_eq!(sha256_hex(&summary.to_json()), QUICK_REGISTRY),
        other => panic!("expected a Done frame, got {other:?}"),
    }
}

/// The `summary.json` digest of one uncached `scale` run at seed 2015.
fn scale_digest(params: ScenarioParams, threads: usize) -> String {
    let scale = scenarios::registry()
        .select(&["scale".to_string()])
        .unwrap();
    let summary = Runner::new(params)
        .threads_per_item(ThreadsPerItem::Fixed(threads))
        .try_run_observed(&scale, &())
        .unwrap()
        .0;
    sha256_hex(&summary.to_json())
}

#[test]
fn scale_n2000_summaries_match_their_golden_digests() {
    for (shards, golden) in SCALE_N2000 {
        for threads in [1usize, 2] {
            let params = ScenarioParams::with_seed(2015)
                .with_override("n", "2000")
                .with_override("shards", shards);
            assert_eq!(
                scale_digest(params, threads),
                golden,
                "scale n=2000 shards={shards} threads={threads}"
            );
        }
    }
}

#[test]
fn scale_n50000_summary_on_the_default_grid_matches_its_golden_digest() {
    for threads in [1usize, 2] {
        let params = ScenarioParams::with_seed(2015).with_override("n", "50000");
        assert_eq!(
            scale_digest(params, threads),
            SCALE_N50000,
            "scale n=50000 threads={threads}"
        );
    }
}

#[test]
fn fig6_full_scale_summary_matches_its_golden_digest() {
    let fig6 = scenarios::registry().select(&["fig6".to_string()]).unwrap();
    let params = ScenarioParams {
        full_scale: true,
        ..ScenarioParams::with_seed(2015)
    };
    let summary = Runner::new(params)
        .jobs(2)
        .try_run_observed(&fig6, &())
        .unwrap()
        .0;
    assert_eq!(sha256_hex(&summary.to_json()), FIG6_FULL);
}
