//! Takedown scenarios: the experiments behind Figures 4, 5 and 6.
//!
//! * [`gradual_takedown`] removes nodes one at a time (giving the overlay
//!   time to self-repair between removals) and samples graph metrics along
//!   the way — Figures 4 and 5.
//! * [`partition_threshold`] removes nodes *simultaneously* (no repair in
//!   between) until the graph partitions — Figure 6, which finds the
//!   threshold around 40% for 10-regular graphs.

use onion_graph::components::component_count;
use onion_graph::csr::CsrSnapshot;
use onion_graph::graph::NodeId;
use onion_graph::metrics::{
    average_degree_centrality, sampled_average_closeness_centrality, sampled_diameter,
};
use onionbots_core::overlay::DdsrOverlay;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Whether the overlay repairs itself after each removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TakedownMode {
    /// DDSR: repair (and prune, per the overlay config) after every removal.
    SelfRepairing,
    /// Normal graph: removals only.
    Normal,
}

/// One sampled point of a takedown experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TakedownSample {
    /// Nodes deleted so far.
    pub nodes_deleted: usize,
    /// Live nodes remaining.
    pub nodes_remaining: usize,
    /// Number of connected components.
    pub connected_components: usize,
    /// Average degree centrality.
    pub degree_centrality: f64,
    /// Average closeness centrality (sampled estimate).
    pub closeness_centrality: f64,
    /// Largest sampled eccentricity over all components (a lower bound on
    /// the diameter; sources are drawn from the whole graph); `None` when
    /// the graph is empty.
    pub diameter: Option<usize>,
}

/// Parameters controlling how a gradual takedown is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TakedownParams {
    /// Total nodes to delete.
    pub deletions: usize,
    /// Take a metric sample every `sample_every` deletions (and at the end).
    pub sample_every: usize,
    /// BFS sources used for the sampled closeness/diameter estimates.
    pub metric_samples: usize,
}

/// Runs a gradual takedown: nodes are removed one at a time in random order,
/// with (or without) self-repair, sampling metrics along the way.
pub fn gradual_takedown<R: Rng + ?Sized>(
    overlay: &mut DdsrOverlay,
    ids: &[NodeId],
    mode: TakedownMode,
    params: TakedownParams,
    rng: &mut R,
) -> Vec<TakedownSample> {
    let mut order: Vec<NodeId> = ids.to_vec();
    order.shuffle(rng);
    let deletions = params.deletions.min(order.len());
    let mut samples = Vec::new();
    samples.push(sample(overlay, 0, params.metric_samples, rng));
    for (i, node) in order.into_iter().take(deletions).enumerate() {
        match mode {
            TakedownMode::SelfRepairing => {
                overlay.remove_node_with_repair(node, rng);
            }
            TakedownMode::Normal => {
                overlay.remove_node_without_repair(node);
            }
        }
        let deleted = i + 1;
        if deleted % params.sample_every.max(1) == 0 || deleted == deletions {
            samples.push(sample(overlay, deleted, params.metric_samples, rng));
        }
    }
    samples
}

fn sample<R: Rng + ?Sized>(
    overlay: &DdsrOverlay,
    nodes_deleted: usize,
    metric_samples: usize,
    rng: &mut R,
) -> TakedownSample {
    let graph = overlay.graph();
    // One frozen snapshot serves the component scan and both sampled
    // sweeps — the graph does not change between them, so freezing it
    // more than once would be pure overhead.
    let csr = CsrSnapshot::build(graph);
    TakedownSample {
        nodes_deleted,
        nodes_remaining: graph.node_count(),
        connected_components: component_count(&csr),
        degree_centrality: average_degree_centrality(graph),
        closeness_centrality: sampled_average_closeness_centrality(&csr, metric_samples, rng),
        diameter: sampled_diameter(&csr, metric_samples, rng),
    }
}

/// Result of a partition-threshold experiment (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionThreshold {
    /// Graph size the experiment started from.
    pub initial_nodes: usize,
    /// Node degree of the initial k-regular graph.
    pub degree: usize,
    /// Number of simultaneous deletions at which the surviving graph first
    /// split into more than one component.
    pub deletions_to_partition: usize,
}

impl PartitionThreshold {
    /// Deletions needed as a fraction of the initial size.
    pub fn fraction(&self) -> f64 {
        self.deletions_to_partition as f64 / self.initial_nodes as f64
    }
}

/// Finds how many *simultaneous* deletions are needed to partition a fresh
/// `k`-regular graph of `n` nodes: nodes are removed in random order without
/// giving the overlay a chance to repair, checking connectivity every
/// `check_every` removals.
pub fn partition_threshold<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    check_every: usize,
    rng: &mut R,
) -> PartitionThreshold {
    let (graph, mut ids) = onion_graph::generators::random_regular(n, k, rng);
    let mut graph = graph;
    ids.shuffle(rng);
    let mut deleted = 0usize;
    for node in ids {
        graph.remove_node(node);
        deleted += 1;
        if graph.node_count() == 0 {
            break;
        }
        if deleted.is_multiple_of(check_every.max(1)) && component_count(&graph) > 1 {
            break;
        }
    }
    PartitionThreshold {
        initial_nodes: n,
        degree: k,
        deletions_to_partition: deleted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onionbots_core::DdsrConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(deletions: usize) -> TakedownParams {
        TakedownParams {
            deletions,
            sample_every: 20,
            metric_samples: 40,
        }
    }

    #[test]
    fn gradual_takedown_keeps_ddsr_connected_and_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let (mut overlay, ids) =
            DdsrOverlay::new_regular(300, 10, DdsrConfig::for_degree(10), &mut rng);
        let samples = gradual_takedown(
            &mut overlay,
            &ids,
            TakedownMode::SelfRepairing,
            params(200),
            &mut rng,
        );
        assert!(samples.len() >= 2);
        let last = samples.last().unwrap();
        assert_eq!(last.nodes_deleted, 200);
        assert_eq!(last.nodes_remaining, 100);
        assert_eq!(last.connected_components, 1, "DDSR stays connected");
        // Degree centrality stays bounded by d_max/(n-1).
        assert!(last.degree_centrality <= 10.0 / 99.0 + 1e-9);
        // Closeness does not collapse (paper: it stays stable or grows).
        assert!(last.closeness_centrality >= samples[0].closeness_centrality * 0.8);
    }

    #[test]
    fn gradual_takedown_without_repair_fragments() {
        let mut rng = StdRng::seed_from_u64(2);
        let (mut overlay, ids) =
            DdsrOverlay::new_regular(300, 10, DdsrConfig::for_degree(10), &mut rng);
        let samples = gradual_takedown(
            &mut overlay,
            &ids,
            TakedownMode::Normal,
            params(240),
            &mut rng,
        );
        let last = samples.last().unwrap();
        assert!(
            last.connected_components > 1,
            "a normal 10-regular graph shatters after 80% deletions (got {} components)",
            last.connected_components
        );
    }

    #[test]
    fn samples_are_taken_at_the_requested_cadence() {
        let mut rng = StdRng::seed_from_u64(3);
        let (mut overlay, ids) =
            DdsrOverlay::new_regular(100, 6, DdsrConfig::for_degree(6), &mut rng);
        let samples = gradual_takedown(
            &mut overlay,
            &ids,
            TakedownMode::SelfRepairing,
            TakedownParams {
                deletions: 50,
                sample_every: 10,
                metric_samples: 20,
            },
            &mut rng,
        );
        // Initial sample + one every 10 deletions.
        assert_eq!(samples.len(), 6);
        assert_eq!(samples[1].nodes_deleted, 10);
        assert_eq!(samples[5].nodes_deleted, 50);
    }

    #[test]
    fn partition_threshold_is_around_forty_percent_for_ten_regular() {
        let mut rng = StdRng::seed_from_u64(4);
        let threshold = partition_threshold(600, 10, 10, &mut rng);
        let fraction = threshold.fraction();
        assert!(
            (0.2..0.95).contains(&fraction),
            "partition fraction {fraction} outside plausible range"
        );
        assert!(threshold.deletions_to_partition > 0);
        assert_eq!(threshold.initial_nodes, 600);
    }

    #[test]
    fn partition_threshold_grows_with_degree() {
        let mut rng = StdRng::seed_from_u64(5);
        let sparse = partition_threshold(400, 4, 5, &mut rng);
        let dense = partition_threshold(400, 12, 5, &mut rng);
        assert!(
            dense.deletions_to_partition >= sparse.deletions_to_partition,
            "denser graphs need more deletions to partition ({} vs {})",
            dense.deletions_to_partition,
            sparse.deletions_to_partition
        );
    }
}
