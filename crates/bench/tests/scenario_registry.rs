//! Integration tests for the scenario registry and the parallel runner:
//! registration invariants, `--only`-style selection errors, and the
//! determinism guarantee that `--jobs 1` and `--jobs 8` produce identical
//! `RunSummary` JSON.

use onionbots_bench::scenarios;
use sim::scenario_api::ScenarioParams;
use sim::Runner;

/// Every seed scenario is registered exactly once under its expected id.
#[test]
fn registry_lists_every_seed_scenario_exactly_once() {
    let registry = scenarios::registry();
    let ids = registry.ids();
    assert!(ids.len() >= 9, "expected at least 9 scenarios, got {ids:?}");
    let mut sorted: Vec<&str> = ids.clone();
    sorted.sort_unstable();
    let mut dedup = sorted.clone();
    dedup.dedup();
    assert_eq!(sorted, dedup, "duplicate scenario ids in {ids:?}");
    for expected in [
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "table1",
        "ablation-non",
        "ablation-soap-defenses",
    ] {
        assert!(ids.contains(&expected), "missing scenario '{expected}'");
    }
}

/// Selection resolves ids in the requested order and rejects unknown ids
/// with an error that names the known scenarios.
#[test]
fn selection_resolves_ids_and_rejects_unknown_ones() {
    let registry = scenarios::registry();
    let picked = registry
        .select(&["fig6".to_string(), "table1".to_string()])
        .expect("known ids resolve");
    let picked_ids: Vec<&str> = picked.iter().map(|s| s.id()).collect();
    assert_eq!(picked_ids, ["fig6", "table1"]);

    let Err(error) = registry.select(&["fig6".to_string(), "fig99".to_string()]) else {
        panic!("unknown id must be rejected");
    };
    assert_eq!(error.requested, "fig99");
    let message = error.to_string();
    assert!(message.contains("unknown scenario 'fig99'"), "{message}");
    assert!(message.contains("fig4"), "error names known ids: {message}");
}

/// The determinism guarantee behind `--jobs`: the same seed produces the
/// same `RunSummary` JSON no matter how many workers run the parts. The
/// subset includes fig6 (15 parts) so cross-part merge order is exercised.
#[test]
fn run_summary_json_is_identical_for_any_worker_count() {
    let registry = scenarios::registry();
    let selected = registry
        .select(&["fig6".to_string(), "fig8".to_string(), "table1".to_string()])
        .unwrap();
    let params = ScenarioParams::with_seed(77);
    let sequential = Runner::new(params.clone())
        .try_run_observed(&selected, &())
        .unwrap()
        .0;
    let parallel = Runner::new(params)
        .jobs(8)
        .try_run_observed(&selected, &())
        .unwrap()
        .0;
    assert_eq!(
        sequential.to_json(),
        parallel.to_json(),
        "jobs=1 and jobs=8 summaries must serialize identically"
    );
    assert_eq!(sequential.outcomes.len(), 3);
    assert_eq!(sequential.outcomes[0].parts, 15);
}

/// The sequential trait entry point (`Scenario::run`, used by the thin
/// figure binaries) produces exactly the reports the parallel runner
/// collects for that scenario.
#[test]
fn sequential_run_matches_runner_output() {
    let registry = scenarios::registry();
    let scenario = registry.get("fig6").unwrap();
    let params = ScenarioParams::with_seed(5);
    let direct = scenario.run(&params);
    let summary = Runner::new(params)
        .jobs(4)
        .try_run_observed(&[scenario], &())
        .unwrap()
        .0;
    assert_eq!(summary.outcomes[0].reports, direct);
}

/// Different seeds actually change stochastic scenario results.
#[test]
fn seeds_flow_into_scenario_results() {
    let registry = scenarios::registry();
    let selected = registry.select(&["fig6".to_string()]).unwrap();
    let a = Runner::new(ScenarioParams::with_seed(1))
        .try_run_observed(&selected, &())
        .unwrap()
        .0;
    let b = Runner::new(ScenarioParams::with_seed(2))
        .try_run_observed(&selected, &())
        .unwrap()
        .0;
    assert_ne!(a.outcomes[0].reports, b.outcomes[0].reports);
}
