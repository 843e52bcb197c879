//! Golden digests: the SHA-256 of `RunSummary::to_json` (the bytes
//! `run_experiments --out DIR` writes to `DIR/summary.json`) for pinned
//! runs, committed as constants.
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
//! ```

use onion_crypto::sha256::Sha256;
use onionbots_bench::scenarios;
use sim::runner::ThreadsPerItem;
use sim::scenario_api::ScenarioParams;
use sim::Runner;

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
        .run(&all);
    assert_eq!(sha256_hex(&summary.to_json()), QUICK_REGISTRY);
}

#[test]
fn scale_n2000_summaries_match_their_golden_digests() {
    let scale = scenarios::registry()
        .select(&["scale".to_string()])
        .unwrap();
    for (shards, golden) in SCALE_N2000 {
        for threads in [1usize, 2] {
            let params = ScenarioParams::with_seed(2015)
                .with_override("n", "2000")
                .with_override("shards", shards);
            let summary = Runner::new(params)
                .threads_per_item(ThreadsPerItem::Fixed(threads))
                .run(&scale);
            assert_eq!(
                sha256_hex(&summary.to_json()),
                golden,
                "scale n=2000 shards={shards} threads={threads}"
            );
        }
    }
}
