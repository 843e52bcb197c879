//! Byte-identity of the sharded `scale` scenario across worker-thread
//! counts — the PR 8 tentpole contract.
//!
//! Sharded construction and partitioned wave repair fan out over worker
//! threads that *steal shards*; the fixed [`ShardGrid`] defines the
//! per-shard RNG streams, so the `--threads-per-item` budget (and the
//! `--jobs` fan-out around it) must never reach the bytes. These tests
//! pin exactly that: the same seeded `scale` run, serialized, at shard
//! worker counts 1, 2 and 8 and at different job counts, must be one
//! byte string.

use onionbots_bench::scenarios;
use sim::runner::ThreadsPerItem;
use sim::scenario_api::ScenarioParams;
use sim::Runner;

fn scale_params() -> ScenarioParams {
    ScenarioParams::with_seed(2015)
        .with_override("n", "4000")
        .with_override("waves", "4")
}

fn scale_only() -> Vec<std::sync::Arc<dyn sim::Scenario>> {
    scenarios::registry()
        .select(&["scale".to_string()])
        .unwrap()
}

#[test]
fn scale_summary_is_byte_identical_at_shard_worker_counts_1_2_8() {
    let run = |threads: usize| {
        Runner::new(scale_params())
            .threads_per_item(ThreadsPerItem::Fixed(threads))
            .try_run_observed(&scale_only(), &())
            .unwrap()
            .0
            .to_json()
    };
    let reference = run(1);
    for threads in [2usize, 8] {
        assert_eq!(
            run(threads),
            reference,
            "shard workers must steal work, not shape output (threads={threads})"
        );
    }
}

#[test]
fn scale_summary_does_not_depend_on_job_fan_out() {
    // Full quick sweep (two parts) so jobs > 1 actually runs parts
    // concurrently, each under its own thread budget.
    let params = ScenarioParams::with_seed(2015).with_override("waves", "3");
    let run = |jobs: usize, threads: ThreadsPerItem| {
        Runner::new(params.clone())
            .jobs(jobs)
            .threads_per_item(threads)
            .try_run_observed(&scale_only(), &())
            .unwrap()
            .0
            .to_json()
    };
    let reference = run(1, ThreadsPerItem::Fixed(1));
    assert_eq!(run(2, ThreadsPerItem::Fixed(4)), reference);
    assert_eq!(run(8, ThreadsPerItem::Auto), reference);
}

#[test]
fn coarser_shard_grids_change_the_stream_but_stay_deterministic() {
    let with_shards = |shards: &str| {
        Runner::new(scale_params().with_override("shards", shards))
            .try_run_observed(&scale_only(), &())
            .unwrap()
            .0
            .to_json()
    };
    // A different grid is a different logical experiment: the per-shard
    // streams differ, so the bytes may differ — but each grid replays.
    assert_eq!(with_shards("8"), with_shards("8"));
    assert_eq!(with_shards("64"), with_shards("64"));
}
