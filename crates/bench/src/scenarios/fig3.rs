//! Figure 3: step-by-step trace of the self-repair process on a 3-regular
//! 12-node graph (the paper's worked example).

use onion_graph::components::component_count;
use onion_graph::graph::Graph;
use onionbots_core::{DdsrConfig, DdsrOverlay};
use rand::rngs::StdRng;
use sim::experiment::{ExperimentReport, Series};
use sim::scenario_api::{Scenario, ScenarioParams};

/// The Figure 3 scenario: repair trace on the worked example graph.
pub struct RepairTrace;

impl Scenario for RepairTrace {
    fn id(&self) -> &str {
        "fig3"
    }

    fn title(&self) -> &str {
        "Figure 3 — self-repair trace on a 3-regular graph with 12 nodes"
    }

    fn run_part(
        &self,
        _part: usize,
        _params: &ScenarioParams,
        rng: &mut StdRng,
    ) -> Vec<ExperimentReport> {
        // A 3-regular circulant graph on 12 nodes: i ~ i±1 and i ~ i+6.
        let (mut g, ids) = Graph::with_nodes(12);
        for i in 0..12usize {
            g.add_edge(ids[i], ids[(i + 1) % 12]);
            g.add_edge(ids[i], ids[(i + 6) % 12]);
        }
        let mut overlay = DdsrOverlay::from_graph(g, DdsrConfig::without_pruning(3));

        let mut report = ExperimentReport::new(self.id(), self.title(), "step", "count");
        let mut steps = vec![1.0];
        let mut edges = vec![overlay.graph().edge_count() as f64];
        let mut components = vec![component_count(overlay.graph()) as f64];
        report.push_note(format!(
            "step 1: {} nodes, {} edges, {} component(s)",
            overlay.node_count(),
            overlay.graph().edge_count(),
            component_count(overlay.graph())
        ));

        // Delete the same kind of sequence the figure shows (eight steps).
        let deletions = [7usize, 11, 8, 10, 9, 1, 4, 5];
        for (step, &victim) in deletions.iter().enumerate() {
            let neighbors = overlay.peers(ids[victim]).unwrap_or_default();
            let edges_before = overlay.graph().edge_count();
            overlay.remove_node_with_repair(ids[victim], rng);
            let mut new_edges: Vec<String> = Vec::new();
            for (i, &a) in neighbors.iter().enumerate() {
                for &b in neighbors.iter().skip(i + 1) {
                    if overlay.graph().has_edge(a, b) {
                        new_edges.push(format!("({}, {})", a.index(), b.index()));
                    }
                }
            }
            report.push_note(format!(
                "step {}: delete node {:>2} -> repair links among {:?}: {} | nodes={} edges={} (was {}) components={}",
                step + 2,
                victim,
                neighbors.iter().map(|n| n.index()).collect::<Vec<_>>(),
                if new_edges.is_empty() {
                    "none needed".to_string()
                } else {
                    new_edges.join(" ")
                },
                overlay.node_count(),
                overlay.graph().edge_count(),
                edges_before,
                component_count(overlay.graph())
            ));
            steps.push(step as f64 + 2.0);
            edges.push(overlay.graph().edge_count() as f64);
            components.push(component_count(overlay.graph()) as f64);
        }
        report.push_note(format!(
            "final graph remains a single component: {}",
            component_count(overlay.graph()) == 1
        ));
        report.push_series(Series::new("edges", steps.clone(), edges));
        report.push_series(Series::new("components", steps, components));
        vec![report]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_stays_connected_through_all_eight_deletions() {
        let reports = RepairTrace.run(&ScenarioParams::default());
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        let components = report
            .series
            .iter()
            .find(|s| s.label == "components")
            .unwrap();
        assert_eq!(components.len(), 9, "initial state + eight deletions");
        assert!(components.y.iter().all(|&c| c == 1.0), "never partitions");
        assert!(report.notes.len() >= 10);
    }
}
