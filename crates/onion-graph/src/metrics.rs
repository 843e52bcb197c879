//! Graph metrics used in the paper's evaluation (§V-B).
//!
//! * **Closeness centrality** `C(u) = (n - 1) / Σ_v d(u, v)` — "an indication
//!   of how fast messages can propagate in the network".
//! * **Degree centrality** — the fraction of nodes a node is connected to,
//!   "an indication of immediate chance of receiving whatever is flowing
//!   through the network".
//! * **Diameter** — the longest shortest path, "a lower bound on worst case
//!   delay".
//!
//! Exact metrics run an all-pairs BFS (`O(n·(n+m))`), which is fine up to a
//! few thousand nodes. For the paper's 15000-node runs the `sampled_*`
//! variants estimate the same quantities from a random subset of BFS sources;
//! the figure harness uses them with a few hundred sources, which keeps the
//! curve shapes intact.
//!
//! Every single-source walk in the graph core is one [`BfsScratch::run`]:
//! distances live in a flat `Vec<u32>` indexed by node id (the graph is an
//! index-addressed slab, see [`Graph::id_bound`]) with a sentinel for
//! "unreached", and the BFS queue doubles as the visit-order record. No
//! hash maps or hash sets are involved, so the traversal order is
//! deterministic by construction. The other kernel, the whole-graph
//! component sweep, lives in [`crate::components`].
//!
//! The BFS-sweep metrics ([`diameter`], [`sampled_diameter`],
//! [`average_closeness_centrality`] and
//! [`sampled_average_closeness_centrality`]) are one function each, generic
//! over [`Adjacency`]. Each sweeps the [`CsrSnapshot`] that
//! [`Adjacency::snapshot`] yields: a `&Graph` is frozen once per call and a
//! `&CsrSnapshot` is swept as it is, so a caller measuring several metrics
//! on one unchanged graph freezes it once and passes the snapshot. Sources
//! fan across the [`parallel_bfs_from_sources`] kernel. Source selection
//! stays sequential and up front (the RNG stream is untouched by the
//! rewrite) and every source's result lands in its slot by source index,
//! so the output is byte-identical to the sequential path at any thread
//! budget — see [`crate::budget`] for how many threads a sweep may use.

use std::borrow::Cow;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::budget::{map_in_order, thread_budget};
use crate::csr::CsrSnapshot;
use crate::graph::{Graph, NodeId};

/// Sentinel distance for nodes a BFS did not reach.
const UNREACHED: u32 = u32::MAX;

/// Read-only adjacency shared by the slab [`Graph`] and its frozen
/// [`CsrSnapshot`]. The graph core walks it with two kernels, each written
/// once: [`BfsScratch::run`] for single-source distances and the component
/// scan behind [`crate::components`] for the whole-graph sweep. Both
/// produce the identical visit order over either representation.
pub trait Adjacency {
    /// One past the largest node id, for sizing flat per-node arrays.
    fn id_bound(&self) -> usize;
    /// Whether `node` is live.
    fn contains(&self, node: NodeId) -> bool;
    /// The neighbors of `node`, sorted ascending; empty for dead nodes.
    fn neighbors_of(&self, node: NodeId) -> &[NodeId];
    /// A [`CsrSnapshot`] for the BFS-sweep metrics: a [`Graph`] freezes
    /// itself (one `O(n + m)` pass per call), a snapshot borrows itself.
    fn snapshot(&self) -> Cow<'_, CsrSnapshot>;
}

impl Adjacency for Graph {
    fn id_bound(&self) -> usize {
        Graph::id_bound(self)
    }
    fn contains(&self, node: NodeId) -> bool {
        Graph::contains(self, node)
    }
    fn neighbors_of(&self, node: NodeId) -> &[NodeId] {
        self.neighbors(node).unwrap_or(&[])
    }
    fn snapshot(&self) -> Cow<'_, CsrSnapshot> {
        Cow::Owned(CsrSnapshot::build(self))
    }
}

impl Adjacency for CsrSnapshot {
    fn id_bound(&self) -> usize {
        CsrSnapshot::id_bound(self)
    }
    fn contains(&self, node: NodeId) -> bool {
        CsrSnapshot::contains(self, node)
    }
    fn neighbors_of(&self, node: NodeId) -> &[NodeId] {
        self.neighbors(node)
    }
    fn snapshot(&self) -> Cow<'_, CsrSnapshot> {
        Cow::Borrowed(self)
    }
}

/// The aggregate result of one BFS: the source's eccentricity within its
/// component, the sum of distances to every reached node, and the reached
/// count (including the source). All zero for a missing source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BfsStats {
    /// Greatest distance to any reached node.
    pub eccentricity: usize,
    /// Sum of distances over reached nodes (the source contributes 0).
    pub total_distance: u64,
    /// Number of reached nodes, including the source.
    pub reached: usize,
}

/// Reusable BFS state: one distance array plus one queue, reset lazily so
/// a sweep over many sources allocates `O(id_bound)` once instead of per
/// source.
///
/// After [`run`](BfsScratch::run) returns, the distances of the *last*
/// BFS stay readable ([`get`](BfsScratch::get),
/// [`contains`](BfsScratch::contains), [`reached`](BfsScratch::reached))
/// until the next `run`, which un-marks exactly the previously touched
/// entries — the reset is `O(reached)`, not `O(id_bound)`.
#[derive(Debug, Clone, Default)]
pub struct BfsScratch {
    dist: Vec<u32>,
    queue: Vec<NodeId>,
}

impl BfsScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        BfsScratch::default()
    }

    /// Runs one BFS from `source` over `adj`, returning its aggregate
    /// stats. A dead or out-of-range source yields all-zero stats and an
    /// empty reached set.
    pub fn run<A: Adjacency + ?Sized>(&mut self, adj: &A, source: NodeId) -> BfsStats {
        // Lazy reset: un-mark what the previous run touched, then grow the
        // distance array if the graph gained ids since.
        for &n in &self.queue {
            self.dist[n.index()] = UNREACHED;
        }
        self.queue.clear();
        if self.dist.len() < adj.id_bound() {
            self.dist.resize(adj.id_bound(), UNREACHED);
        }
        if !adj.contains(source) {
            return BfsStats::default();
        }
        self.dist[source.index()] = 0;
        self.queue.push(source);
        let mut head = 0usize;
        let mut total = 0u64;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let d = self.dist[u.index()] + 1;
            for &v in adj.neighbors_of(u) {
                if self.dist[v.index()] == UNREACHED {
                    self.dist[v.index()] = d;
                    total += u64::from(d);
                    self.queue.push(v);
                }
            }
        }
        BfsStats {
            eccentricity: self
                .queue
                .last()
                .map_or(0, |&n| self.dist[n.index()] as usize),
            total_distance: total,
            reached: self.queue.len(),
        }
    }

    /// The distance from the last run's source to `node`, if reached.
    pub fn get(&self, node: NodeId) -> Option<usize> {
        match self.dist.get(node.index()).copied() {
            None | Some(UNREACHED) => None,
            Some(d) => Some(d as usize),
        }
    }

    /// Whether the last run reached `node`.
    pub fn contains(&self, node: NodeId) -> bool {
        self.get(node).is_some()
    }

    /// The nodes the last run reached, in BFS discovery order.
    pub fn reached(&self) -> &[NodeId] {
        &self.queue
    }
}

/// Deterministic multi-source BFS kernel: runs one BFS per source over a
/// shared read-only adjacency, fanning sources across at most `threads`
/// workers through [`map_in_order`].
///
/// Each worker owns one reusable [`BfsScratch`], and every result lands
/// in the output slot of its *source index*, so the returned vector is
/// **byte-identical to the sequential path regardless of thread count or
/// scheduling**. Callers that sample sources with an RNG must draw them
/// before calling (as [`sampled_diameter`] does), keeping RNG streams
/// independent of the thread budget.
pub fn parallel_bfs_from_sources<A: Adjacency + Sync + ?Sized>(
    adj: &A,
    sources: &[NodeId],
    threads: usize,
) -> Vec<BfsStats> {
    map_in_order(sources.to_vec(), threads, BfsScratch::new, |s, src| {
        s.run(adj, src)
    })
}

/// Closeness centrality of one BFS source from its aggregate stats,
/// normalized by `n - 1` over the whole graph (matching the paper's
/// formula). Unreachable nodes contribute nothing: the sum only ranges over
/// the source's connected component, scaled by the fraction of the graph
/// that is reachable (the standard Wasserman–Faust correction), so values
/// remain comparable when the graph partitions. Zero for an isolated or
/// missing source.
fn closeness_from_stats(stats: &BfsStats, n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let reachable = stats.reached.saturating_sub(1); // excluding the source
    if reachable == 0 {
        return 0.0;
    }
    // (reachable / (n-1)) * (reachable / total): closeness within the
    // component scaled by component coverage.
    (reachable as f64 / (n - 1) as f64) * (reachable as f64 / stats.total_distance as f64)
}

/// Up to `samples` (at least one) distinct live nodes, drawn by one
/// shuffle of the ascending live-node list. The draw is sequential and up
/// front, so the RNG stream never depends on the thread budget.
fn sample_sources<R: Rng + ?Sized>(csr: &CsrSnapshot, samples: usize, rng: &mut R) -> Vec<NodeId> {
    let mut nodes = csr.live_nodes();
    nodes.shuffle(rng);
    nodes.truncate(samples.max(1).min(nodes.len()));
    nodes
}

/// Mean closeness over a non-empty `sources` list, swept by the kernel.
fn mean_closeness(csr: &CsrSnapshot, sources: &[NodeId]) -> f64 {
    let n = csr.node_count();
    let stats = parallel_bfs_from_sources(csr, sources, thread_budget());
    let sum: f64 = stats.iter().map(|s| closeness_from_stats(s, n)).sum();
    sum / sources.len() as f64
}

/// The largest eccentricity over `sources`, swept by the kernel.
fn max_eccentricity(csr: &CsrSnapshot, sources: &[NodeId]) -> usize {
    parallel_bfs_from_sources(csr, sources, thread_budget())
        .iter()
        .map(|s| s.eccentricity)
        .max()
        .unwrap_or(0)
}

/// Average closeness centrality over all nodes (exact, all-pairs BFS over
/// a frozen snapshot, sources fanned across the thread budget).
pub fn average_closeness_centrality<A: Adjacency + ?Sized>(adj: &A) -> f64 {
    let csr = adj.snapshot();
    let nodes = csr.live_nodes();
    if nodes.is_empty() {
        return 0.0;
    }
    mean_closeness(&csr, &nodes)
}

/// Average closeness centrality estimated from `samples` random BFS
/// sources (drawn sequentially up front, swept by the kernel — the RNG
/// stream and the resulting sum are byte-identical to the sequential
/// per-source path).
pub fn sampled_average_closeness_centrality<A: Adjacency + ?Sized, R: Rng + ?Sized>(
    adj: &A,
    samples: usize,
    rng: &mut R,
) -> f64 {
    let csr = adj.snapshot();
    let sources = sample_sources(&csr, samples, rng);
    if sources.is_empty() {
        return 0.0;
    }
    mean_closeness(&csr, &sources)
}

/// Degree centrality of a node: `deg(u) / (n - 1)`.
pub fn degree_centrality(graph: &Graph, node: NodeId) -> f64 {
    let n = graph.node_count();
    if n <= 1 {
        return 0.0;
    }
    graph.degree(node).unwrap_or(0) as f64 / (n - 1) as f64
}

/// Average degree centrality over all nodes.
pub fn average_degree_centrality(graph: &Graph) -> f64 {
    let nodes = graph.nodes();
    if nodes.is_empty() {
        return 0.0;
    }
    let sum: f64 = nodes.iter().map(|&u| degree_centrality(graph, u)).sum();
    sum / nodes.len() as f64
}

/// Exact diameter of the largest connected component (all-pairs BFS over
/// a frozen [`CsrSnapshot`], sources fanned across the thread budget).
///
/// Returns `None` for an empty graph. When the graph is partitioned the
/// diameter of the *largest* component (by node count, ties broken by
/// smallest node id) is reported, mirroring how the paper plots a finite
/// diameter for DDSR while a shattered normal graph's diameter "is
/// infinite". A long thin minority component therefore cannot inflate the
/// reported value.
pub fn diameter<A: Adjacency + ?Sized>(adj: &A) -> Option<usize> {
    let csr = adj.snapshot();
    // Sweep only the largest component's span of the scan queue: a
    // partitioned graph never pays for sources outside the component whose
    // diameter is being reported.
    let (_, queue, largest) = crate::components::scan_components(&*csr);
    if largest.is_empty() {
        return None;
    }
    Some(max_eccentricity(&csr, &queue[largest]))
}

/// Diameter lower bound estimated from `samples` random BFS sources.
///
/// Sources are drawn from the whole graph, so on a partitioned graph this
/// estimates the largest eccentricity over all components — use
/// [`diameter`] when the largest-component semantics matter exactly.
///
/// The sources are drawn sequentially up front (the RNG stream is
/// identical to the pre-parallel implementation), then swept over a CSR
/// snapshot by the multi-source kernel under the current thread budget.
pub fn sampled_diameter<A: Adjacency + ?Sized, R: Rng + ?Sized>(
    adj: &A,
    samples: usize,
    rng: &mut R,
) -> Option<usize> {
    let csr = adj.snapshot();
    let sources = sample_sources(&csr, samples, rng);
    if sources.is_empty() {
        return None;
    }
    Some(max_eccentricity(&csr, &sources))
}

/// An independent single-source BFS that allocates its own distance map
/// per call: the reference the tests hold [`BfsScratch`] and the
/// multi-source kernel to.
#[cfg(test)]
pub(crate) mod oracle {
    use super::UNREACHED;
    use crate::graph::{Graph, NodeId};

    /// Distances from one BFS source, stored as a flat array indexed by node id.
    ///
    /// Produced by [`bfs_distances`]. Membership checks and lookups are array
    /// indexing; [`reached`](DistanceMap::reached) lists the visited nodes in
    /// BFS discovery order (source first, then distance-1 nodes in neighbor
    /// order, ...).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct DistanceMap {
        /// `dist[id] == UNREACHED` marks unreached (or deleted) nodes.
        dist: Vec<u32>,
        /// Visited nodes in discovery order; doubles as the BFS queue.
        reached: Vec<NodeId>,
    }

    impl DistanceMap {
        /// The distance from the source to `node`, if it was reached.
        pub fn get(&self, node: NodeId) -> Option<usize> {
            match self.dist.get(node.index()).copied() {
                None | Some(UNREACHED) => None,
                Some(d) => Some(d as usize),
            }
        }

        /// Whether the BFS reached `node` (the source counts as reached).
        pub fn contains(&self, node: NodeId) -> bool {
            self.get(node).is_some()
        }

        /// Number of reached nodes, including the source. `0` when the BFS
        /// started from a missing node.
        pub fn reached_count(&self) -> usize {
            self.reached.len()
        }

        /// `true` when nothing was reached (missing source).
        pub fn is_empty(&self) -> bool {
            self.reached.is_empty()
        }

        /// The reached nodes in BFS discovery order (source first).
        pub fn reached(&self) -> &[NodeId] {
            &self.reached
        }

        /// Iterates `(node, distance)` pairs in BFS discovery order.
        pub fn iter(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
            self.reached
                .iter()
                .map(move |&n| (n, self.dist[n.index()] as usize))
        }

        /// Sum of distances over all reached nodes (the source contributes 0).
        pub fn total(&self) -> usize {
            self.reached
                .iter()
                .map(|&n| self.dist[n.index()] as usize)
                .sum()
        }

        /// Greatest distance to any reached node — the source's eccentricity
        /// within its component. `None` when the source was missing.
        pub fn max(&self) -> Option<usize> {
            // The queue is filled in non-decreasing distance order, so the last
            // reached node carries the maximum distance.
            self.reached.last().map(|&n| self.dist[n.index()] as usize)
        }
    }

    /// Breadth-first search distances from `source` to every reachable node
    /// (including `source` itself at distance 0).
    pub(crate) fn bfs_distances(graph: &Graph, source: NodeId) -> DistanceMap {
        let mut map = DistanceMap {
            dist: vec![UNREACHED; graph.id_bound()],
            reached: Vec::new(),
        };
        if !graph.contains(source) {
            return map;
        }
        map.dist[source.index()] = 0;
        map.reached.push(source);
        let mut head = 0usize;
        while head < map.reached.len() {
            let u = map.reached[head];
            head += 1;
            let d = map.dist[u.index()] + 1;
            if let Some(neighbors) = graph.neighbors(u) {
                for &v in neighbors {
                    if map.dist[v.index()] == UNREACHED {
                        map.dist[v.index()] = d;
                        map.reached.push(v);
                    }
                }
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::bfs_distances;
    use super::*;
    use crate::generators::{random_regular, ring_lattice};
    use crate::graph::Graph;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Builds a path graph a-b-c-d and returns (graph, ids).
    fn path_graph(n: usize) -> (Graph, Vec<NodeId>) {
        let (mut g, ids) = Graph::with_nodes(n);
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        (g, ids)
    }

    #[test]
    fn bfs_distances_on_path() {
        let (g, ids) = path_graph(5);
        let dist = bfs_distances(&g, ids[0]);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(dist.get(*id), Some(i));
        }
        assert_eq!(dist.reached_count(), 5);
        assert_eq!(dist.max(), Some(4));
        assert_eq!(dist.total(), 10, "1 + 2 + 3 + 4");
    }

    #[test]
    fn bfs_from_missing_node_is_empty() {
        let (mut g, ids) = path_graph(3);
        g.remove_node(ids[0]);
        let dist = bfs_distances(&g, ids[0]);
        assert!(dist.is_empty());
        assert_eq!(dist.reached_count(), 0);
        assert_eq!(dist.max(), None);
        assert!(!dist.contains(ids[0]));
    }

    #[test]
    fn bfs_discovery_order_is_source_then_sorted_frontiers() {
        // Star with center ids[0]: discovery order is the center followed
        // by the leaves in ascending id order (neighbor lists are sorted).
        let (mut g, ids) = Graph::with_nodes(4);
        for &leaf in &ids[1..] {
            g.add_edge(ids[0], leaf);
        }
        let dist = bfs_distances(&g, ids[0]);
        assert_eq!(dist.reached(), &[ids[0], ids[1], ids[2], ids[3]]);
        let collected: Vec<(NodeId, usize)> = dist.iter().collect();
        assert_eq!(collected[0], (ids[0], 0));
        assert_eq!(collected[3], (ids[3], 1));
    }

    #[test]
    fn distance_map_ignores_out_of_range_ids() {
        let (g, ids) = path_graph(2);
        let dist = bfs_distances(&g, ids[0]);
        assert_eq!(dist.get(NodeId::new(999)), None);
        assert!(!dist.contains(NodeId::new(999)));
    }

    #[test]
    fn scratch_runs_match_bfs_distances_and_reset_lazily() {
        let (g, ids) = path_graph(5);
        let mut scratch = BfsScratch::new();
        for &source in &ids {
            let stats = scratch.run(&g, source);
            let reference = bfs_distances(&g, source);
            assert_eq!(stats.eccentricity, reference.max().unwrap());
            assert_eq!(stats.total_distance, reference.total() as u64);
            assert_eq!(stats.reached, reference.reached_count());
            assert_eq!(scratch.reached(), reference.reached());
            for &n in &ids {
                assert_eq!(scratch.get(n), reference.get(n));
                assert_eq!(scratch.contains(n), reference.contains(n));
            }
        }
    }

    #[test]
    fn scratch_handles_missing_sources_and_growing_graphs() {
        let (mut g, ids) = path_graph(2);
        let mut scratch = BfsScratch::new();
        assert_eq!(scratch.run(&g, ids[0]).reached, 2);
        g.remove_node(ids[1]);
        let dead = scratch.run(&g, ids[1]);
        assert_eq!(dead, BfsStats::default());
        assert!(scratch.reached().is_empty());
        assert!(!scratch.contains(ids[0]), "previous run was un-marked");
        // The graph grows after the scratch was sized: the scratch must
        // grow with it.
        let fresh = g.add_node();
        g.add_edge(ids[0], fresh);
        let stats = scratch.run(&g, fresh);
        assert_eq!(stats.reached, 2);
        assert_eq!(scratch.get(ids[0]), Some(1));
    }

    #[test]
    fn parallel_kernel_is_identical_to_sequential_at_any_thread_count() {
        let mut rng = StdRng::seed_from_u64(9);
        let (g, ids) = random_regular(120, 4, &mut rng);
        let csr = CsrSnapshot::build(&g);
        let sequential = parallel_bfs_from_sources(&csr, &ids, 1);
        assert_eq!(sequential.len(), ids.len());
        for threads in [2, 3, 8, 64] {
            let parallel = parallel_bfs_from_sources(&csr, &ids, threads);
            assert_eq!(parallel, sequential, "threads={threads}");
        }
        // And the sequential kernel equals per-source bfs_distances.
        for (source, stats) in ids.iter().zip(&sequential) {
            let reference = bfs_distances(&g, *source);
            assert_eq!(stats.reached, reference.reached_count());
            assert_eq!(stats.eccentricity, reference.max().unwrap());
            assert_eq!(stats.total_distance, reference.total() as u64);
        }
    }

    #[test]
    fn parallel_kernel_handles_empty_sources_and_dead_sources() {
        let (mut g, ids) = path_graph(3);
        g.remove_node(ids[1]);
        let csr = CsrSnapshot::build(&g);
        assert!(parallel_bfs_from_sources(&csr, &[], 8).is_empty());
        let stats = parallel_bfs_from_sources(&csr, &[ids[0], ids[1]], 8);
        assert_eq!(stats[0].reached, 1, "ids[0] is isolated after removal");
        assert_eq!(stats[1], BfsStats::default(), "dead source yields zeros");
    }

    /// One node's closeness, through the formula the sweeps apply.
    fn closeness(g: &Graph, node: NodeId) -> f64 {
        closeness_from_stats(&BfsScratch::new().run(g, node), g.node_count())
    }

    #[test]
    fn closeness_on_star_graph() {
        // Star with center c and 4 leaves: C(center) = 1.0, C(leaf) = 4/7.
        let (mut g, ids) = Graph::with_nodes(5);
        for &leaf in &ids[1..] {
            g.add_edge(ids[0], leaf);
        }
        assert!((closeness(&g, ids[0]) - 1.0).abs() < 1e-12);
        assert!((closeness(&g, ids[1]) - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn closeness_of_isolated_node_is_zero() {
        let (mut g, ids) = path_graph(3);
        let isolated = g.add_node();
        assert_eq!(closeness(&g, isolated), 0.0);
        // Other nodes lose closeness because of the unreachable node.
        assert!(closeness(&g, ids[1]) < 1.0);
    }

    #[test]
    fn degree_centrality_on_complete_graph() {
        let (mut g, ids) = Graph::with_nodes(6);
        for i in 0..6 {
            for j in i + 1..6 {
                g.add_edge(ids[i], ids[j]);
            }
        }
        for &u in &ids {
            assert!((degree_centrality(&g, u) - 1.0).abs() < 1e-12);
        }
        assert!((average_degree_centrality(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degree_centrality_in_k_regular_graph_is_k_over_n_minus_1() {
        let mut rng = StdRng::seed_from_u64(1);
        let (g, _) = random_regular(100, 10, &mut rng);
        let expected = 10.0 / 99.0;
        assert!((average_degree_centrality(&g) - expected).abs() < 1e-12);
    }

    #[test]
    fn diameter_of_path_and_ring() {
        let (g, _) = path_graph(6);
        assert_eq!(diameter(&g), Some(5));
        let (ring, _) = ring_lattice(10, 2);
        assert_eq!(diameter(&ring), Some(5));
    }

    #[test]
    fn diameter_of_empty_and_singleton() {
        assert_eq!(diameter(&Graph::new()), None);
        let (g, _) = Graph::with_nodes(1);
        assert_eq!(diameter(&g), Some(0));
    }

    #[test]
    fn diameter_of_partitioned_graph_is_the_largest_components() {
        // Regression: the diameter used to be the max eccentricity over
        // *all* components, so a long thin minority component (the 4-node
        // path, diameter 3) overrode the largest component (the 5-node
        // star, diameter 2).
        let (mut g, ids) = Graph::with_nodes(9);
        for &leaf in &ids[1..5] {
            g.add_edge(ids[0], leaf);
        }
        for w in ids[5..9].windows(2) {
            g.add_edge(w[0], w[1]);
        }
        assert_eq!(
            diameter(&g),
            Some(2),
            "the 5-node star is the largest component"
        );
    }

    #[test]
    fn sampled_metrics_match_exact_when_fully_sampled() {
        let mut rng = StdRng::seed_from_u64(2);
        let (g, _) = random_regular(60, 4, &mut rng);
        let exact = average_closeness_centrality(&g);
        let sampled = sampled_average_closeness_centrality(&g, 60, &mut rng);
        assert!((exact - sampled).abs() < 1e-9);
        assert_eq!(diameter(&g), sampled_diameter(&g, 60, &mut rng));
    }

    #[test]
    fn sampled_metrics_are_reasonable_estimates() {
        let mut rng = StdRng::seed_from_u64(3);
        let (g, _) = random_regular(300, 8, &mut rng);
        let exact = average_closeness_centrality(&g);
        let sampled = sampled_average_closeness_centrality(&g, 60, &mut rng);
        assert!(
            (exact - sampled).abs() < 0.05,
            "exact {exact}, sampled {sampled}"
        );
    }

    #[test]
    fn sweep_metrics_are_budget_invariant() {
        // The same sweep under different thread budgets must agree to the
        // bit — this is the determinism contract the cache relies on.
        let mut rng = StdRng::seed_from_u64(12);
        let (g, _) = random_regular(200, 6, &mut rng);
        let sweep = || {
            (
                diameter(&g),
                average_closeness_centrality(&g),
                sampled_diameter(&g, 20, &mut StdRng::seed_from_u64(4)),
                sampled_average_closeness_centrality(&g, 20, &mut StdRng::seed_from_u64(4)),
            )
        };
        let reference = sweep();
        for budget in [2, 8] {
            let under_budget = crate::budget::with_thread_budget(budget, sweep);
            assert_eq!(under_budget, reference, "budget={budget}");
        }
    }

    #[test]
    fn graph_and_snapshot_calls_agree() {
        // A `&Graph` call freezes the graph itself; a `&CsrSnapshot` call
        // sweeps the caller's freeze. Same sources, same bits, same RNG
        // stream afterwards — on a graph with tombstones and two
        // components.
        let mut rng = StdRng::seed_from_u64(13);
        let (mut g, ids) = random_regular(120, 4, &mut rng);
        for &victim in ids.iter().step_by(3) {
            g.remove_node(victim);
        }
        let csr = CsrSnapshot::build(&g);
        assert_eq!(diameter(&g), diameter(&csr));
        assert_eq!(
            average_closeness_centrality(&g),
            average_closeness_centrality(&csr)
        );
        let (mut via_graph, mut via_csr) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        assert_eq!(
            sampled_diameter(&g, 16, &mut via_graph),
            sampled_diameter(&csr, 16, &mut via_csr)
        );
        assert_eq!(
            sampled_average_closeness_centrality(&g, 16, &mut via_graph),
            sampled_average_closeness_centrality(&csr, 16, &mut via_csr)
        );
        assert_eq!(via_graph.next_u64(), via_csr.next_u64());
        assert_eq!(sampled_diameter(&Graph::new(), 4, &mut via_graph), None);
        assert_eq!(
            sampled_average_closeness_centrality(&Graph::new(), 4, &mut via_graph),
            0.0
        );
    }
}
