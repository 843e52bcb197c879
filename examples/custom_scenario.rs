//! Registering a custom workload with the scenario API and running it
//! through the parallel experiment runner.
//!
//! The scenario measures how the DDSR partition threshold moves with the
//! overlay degree — a workload the paper does not plot, expressed in a few
//! dozen lines: one part per degree, merged point-wise into a single
//! report, deterministic for any worker count.
//!
//! Run with: `cargo run --release --example custom_scenario`

use onionbots::sim::experiment::{ExperimentReport, Series};
use onionbots::sim::scenario::partition_threshold;
use onionbots::sim::scenario_api::{Scenario, ScenarioParams, ScenarioRegistry};
use onionbots::sim::Runner;
use rand::rngs::StdRng;

const DEGREES: [usize; 4] = [4, 8, 12, 16];

struct ThresholdByDegree;

impl Scenario for ThresholdByDegree {
    fn id(&self) -> &str {
        "threshold-by-degree"
    }

    fn title(&self) -> &str {
        "Partition threshold as a function of overlay degree"
    }

    fn parts(&self, _params: &ScenarioParams) -> usize {
        DEGREES.len()
    }

    fn run_part(
        &self,
        part: usize,
        _params: &ScenarioParams,
        rng: &mut StdRng,
    ) -> Vec<ExperimentReport> {
        let k = DEGREES[part];
        let n = 600;
        let threshold = partition_threshold(n, k, 10, rng);
        let mut report = ExperimentReport::new(
            "threshold-by-degree",
            format!("Simultaneous deletions needed to partition, n = {n}"),
            "degree",
            "deletions to partition",
        );
        report.push_series(Series::new(
            "threshold",
            vec![k as f64],
            vec![threshold.deletions_to_partition as f64],
        ));
        report.push_note(format!(
            "k = {k:>2}: partitioned after {} deletions ({:.1}%)",
            threshold.deletions_to_partition,
            threshold.fraction() * 100.0
        ));
        vec![report]
    }
}

fn main() {
    let mut registry = ScenarioRegistry::new();
    registry.register(ThresholdByDegree);

    let selected = registry.select(&[]).expect("empty selection = everything");
    let (summary, _) = Runner::new(ScenarioParams::with_seed(7))
        .jobs(4)
        .try_run_observed(&selected, &())
        .expect("the local backend runs every part");

    for outcome in &summary.outcomes {
        for report in &outcome.reports {
            println!("{}", report.to_table());
        }
    }
    println!(
        "degree raises the threshold monotonically: {}",
        summary.outcomes[0].reports[0].series[0]
            .y
            .windows(2)
            .all(|w| w[0] <= w[1])
    );
}
