//! The Dynamic Distributed Self-Repairing (DDSR) overlay — the paper's
//! primary contribution (§IV-C).
//!
//! The overlay is a peer-to-peer graph in which every node knows its
//! neighbors *and its neighbors' neighbors* (NoN). Three mechanisms keep it
//! low-degree, low-diameter and partition-resistant under takedowns:
//!
//! * **Repairing** — when node `u` is deleted, every pair of its neighbors
//!   `(u_j, u_k)` forms an edge if one does not already exist. Because each
//!   neighbor already knows `u`'s other neighbors (NoN knowledge), this needs
//!   no lookup or coordinator.
//! * **Pruning** — repairs increase degrees, so each former neighbor of the
//!   deleted node drops its highest-degree peers (random tie-break) until its
//!   degree is back inside `[d_min, d_max]`.
//! * **Forgetting** — pruned peers' addresses are forgotten, and nodes
//!   periodically rotate their `.onion` addresses (see [`crate::rotation`]).

use onion_graph::graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::config::DdsrConfig;

/// Counters describing the maintenance work the overlay has performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairStats {
    /// Nodes removed with the self-repair protocol active.
    pub nodes_repaired: u64,
    /// Nodes removed without repair (baseline comparisons).
    pub nodes_removed_without_repair: u64,
    /// Edges added by the repair step.
    pub edges_added: u64,
    /// Edges removed by the pruning step.
    pub edges_pruned: u64,
}

/// The DDSR overlay: a ground-truth adjacency graph plus the maintenance
/// protocol that reacts to node removals.
#[derive(Debug, Clone)]
pub struct DdsrOverlay {
    graph: Graph,
    config: DdsrConfig,
    stats: RepairStats,
}

impl DdsrOverlay {
    /// Wraps an existing graph in the DDSR maintenance protocol.
    pub fn from_graph(graph: Graph, config: DdsrConfig) -> Self {
        DdsrOverlay {
            graph,
            config,
            stats: RepairStats::default(),
        }
    }

    /// Builds a fresh overlay as a random `k`-regular graph on `n` nodes —
    /// the starting point of every experiment in §V.
    pub fn new_regular<R: Rng + ?Sized>(
        n: usize,
        k: usize,
        config: DdsrConfig,
        rng: &mut R,
    ) -> (Self, Vec<NodeId>) {
        let (graph, ids) = onion_graph::generators::random_regular(n, k, rng);
        (Self::from_graph(graph, config), ids)
    }

    /// Builds a fresh overlay with [`sharded construction`](crate::shard):
    /// the pairing model runs per shard on streams split from `rng` (one
    /// draw), shards assemble in ascending order, and a deterministic
    /// merge pass stitches them — byte-identical at any worker-thread
    /// count, fanned out up to the ambient
    /// [`thread_budget`](onion_graph::budget::thread_budget).
    pub fn new_regular_sharded<R: Rng + ?Sized>(
        n: usize,
        k: usize,
        config: DdsrConfig,
        grid: &crate::shard::ShardGrid,
        rng: &mut R,
    ) -> (Self, Vec<NodeId>) {
        let (graph, ids) = crate::shard::build_sharded_regular(n, k, grid, rng);
        (Self::from_graph(graph, config), ids)
    }

    /// The overlay configuration.
    pub fn config(&self) -> DdsrConfig {
        self.config
    }

    /// Read access to the underlying graph (for metrics).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Maintenance counters accumulated so far.
    pub fn stats(&self) -> RepairStats {
        self.stats
    }

    /// The peer list of a node (its one-hop neighbors), if it is alive.
    pub fn peers(&self, node: NodeId) -> Option<Vec<NodeId>> {
        self.graph.neighbors(node).map(<[NodeId]>::to_vec)
    }

    /// Removes a node *with* the self-healing protocol: repair then
    /// (optionally) prune. Returns `false` if the node was already gone.
    pub fn remove_node_with_repair<R: Rng + ?Sized>(&mut self, node: NodeId, rng: &mut R) -> bool {
        let Some(former_neighbors) = self.graph.remove_node(node) else {
            return false;
        };
        self.stats.nodes_repaired += 1;

        // Repairing: every pair of former neighbors peers up unless the edge
        // already exists. Each of them knew the others through NoN knowledge.
        for i in 0..former_neighbors.len() {
            for j in i + 1..former_neighbors.len() {
                if self
                    .graph
                    .add_edge(former_neighbors[i], former_neighbors[j])
                {
                    self.stats.edges_added += 1;
                }
            }
        }

        // Pruning: each former neighbor sheds highest-degree peers until it
        // is back within [d_min, d_max].
        if self.config.pruning {
            for &u in &former_neighbors {
                self.prune_node(u, rng);
            }
        }
        true
    }

    /// Removes a whole takedown wave — the overlay's one wave API. All
    /// victims go down first; then the repair edges among each victim's
    /// surviving former neighbors go through one
    /// [shard-partitioned](crate::shard) bulk insertion; then a single prune
    /// pass plans per owning shard against frozen degrees, reconciled
    /// sequentially in ascending shard order. Returns the number of nodes
    /// actually removed. The caller's RNG advances by exactly one draw, and
    /// the output is byte-identical at any worker-thread count.
    ///
    /// This models a coordinated takedown (*Master of Puppets*-style
    /// campaigns, the `scale` scenario's churn waves) and does `O(wave)`
    /// less pruning work than calling [`Self::remove_node_with_repair`] per
    /// victim.
    ///
    /// **Semantics versus sequential removal.** With pruning off and
    /// victims that are not adjacent, the result is identical to sequential
    /// [`Self::remove_node_with_repair`] calls. The two diverge when victims
    /// are adjacent: sequentially, removing `a` first grafts repair edges
    /// onto its neighbor `b`, and `b`'s own later removal then spreads those
    /// second-hand edges further; in the wave, `a`–`b` knowledge dies with
    /// both (a dead neighbor cannot accept repair edges), which matches
    /// simultaneous takedowns. Pruning differs too: each affected survivor
    /// is pruned once, against frozen post-repair degrees (see
    /// [`sharded_wave_repair`](crate::shard::sharded_wave_repair)), rather
    /// than once per incident victim.
    pub fn remove_nodes_sharded<R: Rng + ?Sized>(
        &mut self,
        victims: &[NodeId],
        grid: &crate::shard::ShardGrid,
        rng: &mut R,
    ) -> usize {
        let outcome =
            crate::shard::sharded_wave_repair(&mut self.graph, &self.config, victims, grid, rng);
        self.stats.nodes_repaired += outcome.removed as u64;
        self.stats.edges_added += outcome.edges_added;
        self.stats.edges_pruned += outcome.edges_pruned;
        outcome.removed
    }

    /// Removes a node *without* any repair — the "normal graph" baseline the
    /// paper compares against in Figure 5.
    pub fn remove_node_without_repair(&mut self, node: NodeId) -> bool {
        let removed = self.graph.remove_node(node).is_some();
        if removed {
            self.stats.nodes_removed_without_repair += 1;
        }
        removed
    }

    /// Applies the pruning rule to one node: while its degree exceeds
    /// `d_max`, drop the neighbor with the highest degree (ties broken at
    /// random). That neighbor has the most alternative paths, so removing
    /// it "maintains the reachability of all nodes". The rule also spares
    /// neighbors at or below `d_min` while one above `d_min` remains: the
    /// highest degree is above `d_min` then, so no separate filter is
    /// needed. When every neighbor is at or below `d_min`, the rule still
    /// drops down to `d_max` (the paper's fallback).
    ///
    /// A drop lowers only the dropped neighbor's degree, and that neighbor
    /// leaves the list, so all drops are planned up front by
    /// [`prune_victims`](crate::maintenance::prune_victims) and then
    /// applied.
    fn prune_node<R: Rng + ?Sized>(&mut self, node: NodeId, rng: &mut R) {
        let Some(neighbors) = self.graph.neighbors(node) else {
            return;
        };
        if neighbors.len() <= self.config.d_max {
            return;
        }
        let drops = neighbors.len() - self.config.d_max;
        let mut peers: Vec<(NodeId, usize)> = neighbors
            .iter()
            .filter_map(|&n| self.graph.degree(n).map(|d| (n, d)))
            .collect();
        let mut victims = Vec::with_capacity(drops);
        crate::maintenance::prune_victims(&mut peers, drops, rng, |victim| victims.push(victim));
        for victim in victims {
            self.graph.remove_edge(node, victim);
            self.stats.edges_pruned += 1;
        }
    }

    /// Adds a brand-new node with no peers. Callers peer it explicitly via
    /// [`Self::request_peering`]; the SOAP mitigation uses this to spawn
    /// clone hidden services.
    pub fn add_isolated_node(&mut self) -> NodeId {
        self.graph.add_node()
    }

    /// Adds a brand-new node and peers it with up to `d_max` random live
    /// nodes (bootstrap of a newly infected bot into the overlay).
    pub fn add_node<R: Rng + ?Sized>(&mut self, rng: &mut R) -> NodeId {
        let new = self.graph.add_node();
        let mut candidates = self.graph.nodes();
        candidates.retain(|&n| n != new);
        candidates.shuffle(rng);
        for peer in candidates.into_iter().take(self.config.d_max) {
            self.graph.add_edge(new, peer);
        }
        new
    }

    /// Handles an explicit peering request from `requester` to `target`
    /// using the acceptance policy from [`crate::maintenance`]. Returns
    /// `true` if the edge now exists.
    pub fn request_peering<R: Rng + ?Sized>(
        &mut self,
        requester: NodeId,
        target: NodeId,
        declared_degree: usize,
        rng: &mut R,
    ) -> bool {
        use crate::maintenance::{decide_peering, PeeringDecision};
        if !self.graph.contains(requester) || !self.graph.contains(target) || requester == target {
            return false;
        }
        if self.graph.has_edge(requester, target) {
            return true;
        }
        let peer_degrees: Vec<(NodeId, usize)> = self
            .graph
            .neighbors(target)
            .map(|set| {
                set.iter()
                    .map(|&p| (p, self.graph.degree(p).unwrap_or(0)))
                    .collect()
            })
            .unwrap_or_default();
        match decide_peering(&peer_degrees, declared_degree, self.config.d_max, rng) {
            PeeringDecision::Accept => self.graph.add_edge(requester, target),
            PeeringDecision::Replace(victim) => {
                self.graph.remove_edge(target, victim);
                self.stats.edges_pruned += 1;
                self.graph.add_edge(requester, target)
            }
            PeeringDecision::Reject => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardGrid;
    use onion_graph::components::is_connected;
    use onion_graph::metrics::average_degree_centrality;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn overlay(n: usize, k: usize, pruning: bool, seed: u64) -> (DdsrOverlay, Vec<NodeId>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = if pruning {
            DdsrConfig::for_degree(k)
        } else {
            DdsrConfig::without_pruning(k)
        };
        let (ov, ids) = DdsrOverlay::new_regular(n, k, config, &mut rng);
        (ov, ids, rng)
    }

    #[test]
    fn paper_figure3_example_three_regular_graph() {
        // Figure 3: deleting node 7 from a 3-regular 12-node graph makes its
        // neighbors (0, 1, 4) pairwise connected.
        let mut rng = StdRng::seed_from_u64(1);
        let (mut g, ids) = onion_graph::graph::Graph::with_nodes(12);
        // Build a 3-regular circulant graph: i ~ i±1, i ~ i+6.
        for i in 0..12usize {
            g.add_edge(ids[i], ids[(i + 1) % 12]);
            g.add_edge(ids[i], ids[(i + 6) % 12]);
        }
        let mut overlay = DdsrOverlay::from_graph(g, DdsrConfig::without_pruning(3));
        let victim = ids[7];
        let neighbors = overlay.peers(victim).unwrap();
        assert_eq!(neighbors.len(), 3);
        overlay.remove_node_with_repair(victim, &mut rng);
        for i in 0..neighbors.len() {
            for j in i + 1..neighbors.len() {
                assert!(
                    overlay.graph().has_edge(neighbors[i], neighbors[j]),
                    "former neighbors must be pairwise connected after repair"
                );
            }
        }
    }

    #[test]
    fn repair_keeps_overlay_connected_under_heavy_deletion() {
        let (mut ov, ids, mut rng) = overlay(300, 10, true, 2);
        // Delete 60% of nodes one by one (gradual takedown).
        for &id in ids.iter().take(180) {
            ov.remove_node_with_repair(id, &mut rng);
            ov.graph().check_invariants().unwrap();
        }
        assert_eq!(ov.node_count(), 120);
        assert!(is_connected(ov.graph()), "DDSR must stay connected");
    }

    #[test]
    fn no_repair_baseline_fragments_much_earlier() {
        let (mut ddsr, ids, mut rng) = overlay(300, 10, true, 3);
        let (mut normal, ids_n, _) = overlay(300, 10, true, 3);
        for (&a, &b) in ids.iter().zip(ids_n.iter()).take(240) {
            ddsr.remove_node_with_repair(a, &mut rng);
            normal.remove_node_without_repair(b);
        }
        let ddsr_components = onion_graph::components::component_count(ddsr.graph());
        let normal_components = onion_graph::components::component_count(normal.graph());
        assert_eq!(ddsr_components, 1);
        assert!(
            normal_components > ddsr_components,
            "normal graph should fragment (got {normal_components})"
        );
    }

    #[test]
    fn pruning_bounds_degree_growth() {
        let (mut with, ids_w, mut rng_w) = overlay(400, 10, true, 4);
        let (mut without, ids_wo, mut rng_wo) = overlay(400, 10, false, 4);
        for (&a, &b) in ids_w.iter().zip(ids_wo.iter()).take(120) {
            with.remove_node_with_repair(a, &mut rng_w);
            without.remove_node_with_repair(b, &mut rng_wo);
        }
        assert!(
            with.graph().max_degree() <= with.config().d_max,
            "pruned overlay must respect d_max (got {})",
            with.graph().max_degree()
        );
        assert!(
            without.graph().max_degree() > with.graph().max_degree(),
            "unpruned overlay should grow larger degrees"
        );
        // Degree centrality comparison mirrors Figures 4c/4d.
        assert!(
            average_degree_centrality(without.graph()) > average_degree_centrality(with.graph())
        );
    }

    #[test]
    fn batched_removal_equals_sequential_for_non_adjacent_victims() {
        // Two victims far apart in a 10-regular graph, with pruning off so
        // the comparison isolates the repair coalescing: the wave must
        // produce exactly the graph and counters sequential removal
        // produces, on a one-shard and a multi-shard grid.
        for shards in [1, 8] {
            let (mut batched, ids, mut rng_a) = overlay(200, 10, false, 21);
            let (mut sequential, ids_s, mut rng_b) = overlay(200, 10, false, 21);
            assert_eq!(ids, ids_s);
            let grid = ShardGrid::new(200, 10, shards);
            assert_eq!(grid.shards(), shards);
            let (a, b) = (ids[0], ids[100]);
            assert!(
                !batched.graph().has_edge(a, b),
                "victims must be non-adjacent for this comparison"
            );
            assert_eq!(batched.remove_nodes_sharded(&[a, b], &grid, &mut rng_a), 2);
            sequential.remove_node_with_repair(a, &mut rng_b);
            sequential.remove_node_with_repair(b, &mut rng_b);
            assert_eq!(batched.graph(), sequential.graph(), "shards={shards}");
            assert_eq!(batched.stats(), sequential.stats(), "shards={shards}");
        }
    }

    #[test]
    fn batched_removal_of_adjacent_victims_drops_edges_through_the_dead() {
        // Documented divergence: in a path p - a - b - q, sequentially
        // removing a repairs p–b, and then removing b repairs p–q through
        // that grafted edge. In one wave both a and b die before any
        // repair runs, so b (dead) cannot relay p's knowledge: p and q end
        // up disconnected — the simultaneous-takedown semantics.
        let make = || {
            let (mut g, ids) = onion_graph::graph::Graph::with_nodes(4);
            let (p, a, b, q) = (ids[0], ids[1], ids[2], ids[3]);
            for (s, t) in [(p, a), (a, b), (b, q)] {
                g.add_edge(s, t);
            }
            (
                DdsrOverlay::from_graph(g, DdsrConfig::without_pruning(2)),
                (p, a, b, q),
            )
        };
        let mut rng = StdRng::seed_from_u64(23);

        let (mut sequential, (p, a, b, q)) = make();
        sequential.remove_node_with_repair(a, &mut rng);
        sequential.remove_node_with_repair(b, &mut rng);
        assert!(
            sequential.graph().has_edge(p, q),
            "sequential removal relays repair knowledge through b"
        );

        // The grid's degree argument only sizes its shards: with k = 1 two
        // shards of two nodes fit, so a and b land in different shards.
        for shards in [1, 2] {
            let grid = ShardGrid::new(4, 1, shards);
            assert_eq!(grid.shards(), shards);
            let (mut batched, (p, a, b, q)) = make();
            assert_eq!(batched.remove_nodes_sharded(&[a, b], &grid, &mut rng), 2);
            assert!(
                !batched.graph().has_edge(p, q),
                "a wave must not create edges through dead victims (shards={shards})"
            );
            batched.graph().check_invariants().unwrap();
        }
    }

    #[test]
    fn removing_unknown_node_is_a_noop() {
        let (mut ov, _, mut rng) = overlay(20, 4, true, 5);
        assert!(!ov.remove_node_with_repair(NodeId(10_000), &mut rng));
        assert!(!ov.remove_node_without_repair(NodeId(10_000)));
        assert_eq!(ov.stats().nodes_repaired, 0);
    }

    #[test]
    fn stats_account_for_maintenance_work() {
        let (mut ov, ids, mut rng) = overlay(100, 10, true, 6);
        for &id in ids.iter().take(30) {
            ov.remove_node_with_repair(id, &mut rng);
        }
        let stats = ov.stats();
        assert_eq!(stats.nodes_repaired, 30);
        assert!(stats.edges_added > 0);
        assert!(stats.edges_pruned > 0);
    }

    #[test]
    fn add_node_bootstraps_with_bounded_degree() {
        let (mut ov, _, mut rng) = overlay(50, 6, true, 7);
        let new = ov.add_node(&mut rng);
        let deg = ov.graph().degree(new).unwrap();
        assert!(deg >= 1);
        assert!(deg <= ov.config().d_max);
    }

    #[test]
    fn add_node_peers_with_up_to_d_max_candidates() {
        // Regression: the old expression `d_max.min(d_min.max(1))` collapsed
        // to `d_min`, so a bootstrapping bot joined with only d_min peers
        // despite the documented "up to d_max".
        let (mut ov, _, mut rng) = overlay(50, 6, true, 7);
        assert!(ov.config().d_min < ov.config().d_max);
        let new = ov.add_node(&mut rng);
        assert_eq!(
            ov.graph().degree(new),
            Some(ov.config().d_max),
            "with plenty of candidates the bootstrap must reach d_max, not stop at d_min"
        );
    }

    #[test]
    fn pruning_spares_d_min_degree_neighbors_when_alternatives_exist() {
        // Build the neighborhood by hand: removing v repairs u up to
        // d_max + 1, and u's peers then include `a` at exactly d_min plus a
        // higher-degree alternative `b`. The prune step must shed `b` (the
        // alternative) and leave `a` at d_min.
        let config = DdsrConfig {
            d_min: 2,
            d_max: 3,
            pruning: true,
        };
        let (mut g, ids) = onion_graph::graph::Graph::with_nodes(9);
        let (v, u, p, q, a, b, x, y, z) = (
            ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6], ids[7], ids[8],
        );
        for (s, t) in [
            (v, u),
            (v, p),
            (v, q),
            (u, a),
            (u, b),
            (a, x),
            (b, y),
            (b, z),
        ] {
            g.add_edge(s, t);
        }
        let mut overlay = DdsrOverlay::from_graph(g, config);
        assert_eq!(overlay.graph().degree(a), Some(config.d_min));
        let mut rng = StdRng::seed_from_u64(11);
        overlay.remove_node_with_repair(v, &mut rng);
        // Repair linked u with p and q, pushing u to d_max + 1; pruning must
        // pick the alternative victim b (degree 3 > d_min), never a.
        assert!(
            overlay.graph().has_edge(u, a),
            "a d_min-degree neighbor must survive pruning while an alternative victim exists"
        );
        assert!(
            !overlay.graph().has_edge(u, b),
            "the higher-degree alternative is the pruning victim"
        );
        assert!(overlay.graph().degree(a).unwrap() >= config.d_min);
        assert!(overlay.graph().degree(u).unwrap() <= config.d_max);
    }

    #[test]
    fn pruning_falls_back_to_unconditional_rule_without_alternatives() {
        // When every peer already sits at or below d_min the paper's bound
        // is "only applicable as long as there are enough surviving nodes":
        // pruning still has to bring the node back under d_max.
        let config = DdsrConfig {
            d_min: 2,
            d_max: 2,
            pruning: true,
        };
        let (mut g, ids) = onion_graph::graph::Graph::with_nodes(6);
        let (v, u, p, q, a, x) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        for (s, t) in [(v, u), (v, p), (v, q), (u, a), (a, x)] {
            g.add_edge(s, t);
        }
        let mut overlay = DdsrOverlay::from_graph(g, config);
        let mut rng = StdRng::seed_from_u64(13);
        overlay.remove_node_with_repair(v, &mut rng);
        assert!(
            overlay.graph().degree(u).unwrap() <= config.d_max,
            "pruning must still enforce d_max when no peer exceeds d_min"
        );
    }

    #[test]
    fn peering_request_with_low_declared_degree_displaces_high_degree_peer() {
        // This is the mechanism SOAP exploits (§VI-B).
        let (mut ov, ids, mut rng) = overlay(30, 6, true, 8);
        let target = ids[0];
        let requester = ids[29];
        // Saturate the target at d_max first.
        let before: Vec<NodeId> = ov.peers(target).unwrap();
        assert!(before.len() >= ov.config().d_min);
        let accepted = ov.request_peering(requester, target, 2, &mut rng);
        assert!(accepted);
        assert!(ov.graph().has_edge(requester, target));
    }
}
