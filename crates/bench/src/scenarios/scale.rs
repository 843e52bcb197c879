//! `scale` — churn sweeps at 10^4–10^7 nodes on the slab graph core.
//!
//! Not a paper figure: this scenario is the million-node proving ground the
//! ROADMAP's north star asks for. Each part builds a k-regular overlay at
//! one population size over a fixed [`ShardGrid`]
//! ([`DdsrOverlay::new_regular_sharded`]: per-shard pairing-model streams
//! split from the part seed, deterministic ascending-shard merge) and then
//! drives it through takedown *waves*: every wave removes a fixed fraction
//! of the surviving population in one
//! [`DdsrOverlay::remove_nodes_sharded`] batch (each shard rebuilds its
//! affected survivors' repaired lists into a frozen arena, plans their
//! prunes against that frozen view, marks both halves of each drop with
//! set-only flags and writes every affected list back once), the
//! fig4/fig5-style churn pattern at populations the per-victim path could
//! not sustain. Worker threads steal shards under the ambient thread
//! budget — `--threads-per-item` governs construction, repair and the
//! robustness count's fan-out, and output stays byte-identical at any
//! thread count because the grid, not the machine, defines the RNG
//! streams and the count does not depend on the order of its unions.
//! Robustness (largest-component fraction), degree discipline and cumulative repair
//! work are sampled after every wave; a sampled diameter estimate closes
//! each part.
//!
//! Like every registered scenario its parts are cache-eligible: reports
//! are deterministic for a fixed `(seed, scale, overrides)` triple, and
//! the consumed override keys are declared so unrelated `--set` flags do
//! not invalidate cached entries.
//!
//! ```text
//! run_experiments --only scale                      # 10^4 and 3·10^4 nodes
//! run_experiments --only scale --scale full         # 10^4 .. 10^7
//! run_experiments --only scale --set n=2000 --set waves=4   # custom sweep
//! run_experiments --only scale --set shards=8       # coarser shard grid
//! ```

use onion_graph::components::largest_component_fraction;
use onion_graph::graph::NodeId;
use onion_graph::metrics::sampled_diameter;
use onionbots_core::shard::{default_shards_for, ShardGrid};
use onionbots_core::{DdsrConfig, DdsrOverlay};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use sim::experiment::{ExperimentReport, Series};
use sim::scenario_api::{Scenario, ScenarioParams};

use crate::Scale;

/// Population sizes per part at quick scale.
const QUICK_SIZES: [usize; 2] = [10_000, 30_000];
/// Population sizes per part at full scale — the 10^6 row is the run the
/// slab core exists for; the 10^7 row is the stretch row sharded
/// construction opened up (expect minutes, not hours).
const FULL_SIZES: [usize; 4] = [10_000, 100_000, 1_000_000, 10_000_000];

/// The registered `scale` scenario.
pub struct ScaleChurn;

impl ScaleChurn {
    fn sizes(params: &ScenarioParams) -> Vec<usize> {
        if let Some(n) = params.override_usize_opt("n") {
            // An explicit population collapses the sweep to one part.
            vec![n]
        } else if Scale::from_params(params).is_full() {
            FULL_SIZES.to_vec()
        } else {
            QUICK_SIZES.to_vec()
        }
    }
}

impl Scenario for ScaleChurn {
    fn id(&self) -> &str {
        "scale"
    }

    fn title(&self) -> &str {
        "Scale — batched takedown waves at 10^4-10^7 nodes (sharded slab graph core)"
    }

    fn override_keys(&self) -> Option<Vec<&str>> {
        Some(vec![
            "n",
            "k",
            "waves",
            "wave-frac",
            "diameter-samples",
            "shards",
        ])
    }

    fn parts(&self, params: &ScenarioParams) -> usize {
        Self::sizes(params).len()
    }

    fn run_part(
        &self,
        part: usize,
        params: &ScenarioParams,
        rng: &mut StdRng,
    ) -> Vec<ExperimentReport> {
        let n = Self::sizes(params)[part];
        let k = params.override_usize("k", 10);
        let waves = params.override_usize("waves", 10);
        let wave_frac = params.override_f64("wave-frac", 0.05);
        let diameter_samples = params.override_usize("diameter-samples", 16);
        // An explicit `shards` override always wins; otherwise the grid
        // is gated on n so small (quick-scale) parts skip the sequential
        // mixing-swap merge that dominates them (see
        // `shard::default_shards_for`).
        let shards = params
            .override_usize_opt("shards")
            .unwrap_or_else(|| default_shards_for(n));
        let label = format!("n={n}");

        // The fixed logical grid defines the per-shard RNG streams; worker
        // threads (the `--threads-per-item` budget) merely steal shards,
        // so reports are byte-identical at any thread count.
        let grid = ShardGrid::new(n, k, shards);
        let (mut overlay, _ids) =
            DdsrOverlay::new_regular_sharded(n, k, DdsrConfig::for_degree(k), &grid, rng);

        let mut x = vec![0.0f64];
        let mut robustness = vec![largest_component_fraction(overlay.graph())];
        let mut max_degree = vec![overlay.graph().max_degree() as f64];
        let mut repair_edges = vec![0.0f64];
        for wave in 1..=waves {
            let live = overlay.graph().nodes();
            if live.len() <= 1 {
                break;
            }
            let wave_size = ((live.len() as f64 * wave_frac) as usize)
                .max(1)
                .min(live.len() - 1);
            let victims: Vec<NodeId> = live.choose_multiple(rng, wave_size).copied().collect();
            overlay.remove_nodes_sharded(&victims, &grid, rng);
            x.push(wave as f64);
            robustness.push(largest_component_fraction(overlay.graph()));
            max_degree.push(overlay.graph().max_degree() as f64);
            repair_edges.push(overlay.stats().edges_added as f64);
        }

        let mut robustness_report = ExperimentReport::new(
            "scale-robustness",
            "Largest-component fraction under batched takedown waves",
            "wave",
            "largest component fraction",
        );
        robustness_report.push_series(Series::new(label.clone(), x.clone(), robustness));

        let mut degree_report = ExperimentReport::new(
            "scale-degree",
            "Maximum degree under batched takedown waves (pruning discipline)",
            "wave",
            "max degree",
        );
        degree_report.push_series(Series::new(label.clone(), x.clone(), max_degree));

        let mut repair_report = ExperimentReport::new(
            "scale-repair",
            "Cumulative repair edges added by batched waves",
            "wave",
            "edges added",
        );
        repair_report.push_series(Series::new(label.clone(), x, repair_edges));
        let diameter = sampled_diameter(overlay.graph(), diameter_samples, rng);
        repair_report.push_note(format!(
            "{label}: after {waves} waves of {:.0}% churn: {} nodes live, sampled diameter {:?}, {} edges added, {} pruned",
            wave_frac * 100.0,
            overlay.node_count(),
            diameter,
            overlay.stats().edges_added,
            overlay.stats().edges_pruned,
        ));

        vec![robustness_report, degree_report, repair_report]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sim::scenario_api::part_seed;

    #[test]
    fn parts_follow_scale_and_overrides() {
        let scenario = ScaleChurn;
        let quick = ScenarioParams::default();
        assert_eq!(scenario.parts(&quick), QUICK_SIZES.len());
        let full = ScenarioParams {
            full_scale: true,
            ..ScenarioParams::default()
        };
        assert_eq!(scenario.parts(&full), FULL_SIZES.len());
        let pinned = ScenarioParams::default().with_override("n", "2000");
        assert_eq!(scenario.parts(&pinned), 1, "explicit n collapses the sweep");
    }

    #[test]
    fn churn_waves_keep_the_overlay_whole_and_pruned() {
        let scenario = ScaleChurn;
        let params = ScenarioParams::default()
            .with_override("n", "2000")
            .with_override("waves", "6");
        let mut rng = StdRng::seed_from_u64(part_seed(params.seed, scenario.id(), 0));
        let reports = scenario.run_part(0, &params, &mut rng);
        assert_eq!(reports.len(), 3);
        let robustness = &reports[0].series[0];
        assert_eq!(robustness.label, "n=2000");
        assert_eq!(robustness.x.len(), 7, "initial sample plus 6 waves");
        assert!(
            robustness.y.iter().all(|&frac| frac > 0.99),
            "DDSR repair must keep the overlay essentially whole: {:?}",
            robustness.y
        );
        let max_degree = &reports[1].series[0];
        assert!(
            max_degree.y.iter().all(|&d| d <= 15.0),
            "pruning must bound the degree at every wave: {:?}",
            max_degree.y
        );
        let repair = &reports[2].series[0];
        assert!(
            repair.y.windows(2).all(|w| w[0] <= w[1]),
            "cumulative repair work is monotone"
        );
        assert!(*repair.y.last().unwrap() > 0.0);
    }

    #[test]
    fn small_populations_default_to_one_shard_and_overrides_still_win() {
        let scenario = ScaleChurn;
        let run = |extra: Option<(&str, &str)>| {
            let mut params = ScenarioParams::default()
                .with_override("n", "2000")
                .with_override("waves", "3");
            if let Some((key, value)) = extra {
                params = params.with_override(key, value);
            }
            let mut rng = StdRng::seed_from_u64(part_seed(params.seed, scenario.id(), 0));
            scenario.run_part(0, &params, &mut rng)
        };
        let gated = run(None);
        assert_eq!(
            gated,
            run(Some(("shards", "1"))),
            "below the gate the default grid is a single shard"
        );
        assert_ne!(
            gated,
            run(Some(("shards", "8"))),
            "an explicit shards override beats the gate (different grid, different streams)"
        );
    }

    #[test]
    fn reports_are_deterministic_for_a_fixed_seed() {
        let scenario = ScaleChurn;
        let params = ScenarioParams::default()
            .with_override("n", "1500")
            .with_override("waves", "4");
        let run = |_: ()| {
            let mut rng = StdRng::seed_from_u64(part_seed(params.seed, scenario.id(), 0));
            scenario.run_part(0, &params, &mut rng)
        };
        assert_eq!(run(()), run(()), "same seed, same reports (cache contract)");
    }
}
