//! # onion-graph
//!
//! Graph substrate for the OnionBots (DSN 2015) reproduction: the undirected
//! [`graph::Graph`] structure the overlay simulations mutate, the k-regular
//! [`generators`] the paper's evaluation starts from, the centrality and
//! diameter [`metrics`] it reports, and the connected-component analysis
//! ([`components`]) behind the partitioning experiments. Every traversal is
//! one of two kernels: [`metrics::BfsScratch::run`] for single-source
//! distances and one component scan behind [`components`] for the
//! whole-graph component sweep; component counts and sizes come from a
//! union-find there. Measurement-phase sweeps freeze the slab
//! into a read-only [`csr::CsrSnapshot`] and fan BFS sources across the
//! deterministic multi-source kernel
//! ([`metrics::parallel_bfs_from_sources`]) under the [`budget`]-governed
//! thread budget.
//!
//! ```
//! use onion_graph::generators::random_regular;
//! use onion_graph::metrics::average_degree_centrality;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let (graph, _ids) = random_regular(100, 10, &mut rng);
//! let centrality = average_degree_centrality(&graph);
//! assert!((centrality - 10.0 / 99.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod components;
pub mod csr;
pub mod generators;
pub mod graph;
pub mod metrics;

pub use csr::CsrSnapshot;
pub use graph::{Graph, NodeId};

#[cfg(test)]
mod property_tests {
    //! Property-based tests of the core graph invariants.

    use crate::components::{component_count, largest_component_size};
    use crate::csr::CsrSnapshot;
    use crate::generators::random_regular;
    use crate::graph::{Graph, NodeId};
    use crate::metrics::oracle::bfs_distances;
    use crate::metrics::{
        average_degree_centrality, diameter, parallel_bfs_from_sources, BfsStats,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Applies a random churn trace (node adds, edge adds/removes, node
    /// removals — i.e. tombstones) to a small seed graph.
    pub(crate) fn churned_graph(ops: &[(usize, usize, u8)]) -> Graph {
        let (mut g, mut ids) = Graph::with_nodes(8);
        for &(a, b, op) in ops {
            match op {
                0 => ids.push(g.add_node()),
                1 | 2 => {
                    g.add_edge(ids[a % ids.len()], ids[b % ids.len()]);
                }
                3 => {
                    g.remove_edge(ids[a % ids.len()], ids[b % ids.len()]);
                }
                _ => {
                    g.remove_node(ids[a % ids.len()]);
                }
            }
        }
        g
    }

    /// A churned base graph, a victim list and range bounds for a wave.
    /// A pick either names an id (possibly dead or past the slab) or, when
    /// flagged, a neighbor of the previous victim; the cuts, plus `0`,
    /// sorted, are the bounds.
    fn wave_case(
        ops: &[(usize, usize, u8)],
        picks: &[(usize, bool)],
        cuts: &[usize],
    ) -> (Graph, Vec<NodeId>, Vec<usize>) {
        let base = churned_graph(ops);
        let mut victims: Vec<NodeId> = Vec::new();
        for &(pick, adjacent) in picks {
            let near = victims
                .last()
                .and_then(|&v| base.neighbors(v))
                .filter(|list| adjacent && !list.is_empty());
            victims.push(match near {
                Some(list) => list[pick % list.len()],
                None => NodeId::new(pick % (base.id_bound() + 8)),
            });
        }
        let mut bounds = cuts.to_vec();
        bounds.push(0);
        bounds.sort_unstable();
        (base, victims, bounds)
    }

    /// The repair a wave must build, edge by edge: `remove_node` on each
    /// victim, then `add_edge` on every pair of each removed victim's
    /// former neighbors. Returns that graph, the victims removed, the
    /// edges added and each range's surviving former neighbors,
    /// ascending.
    fn clique_oracle(
        base: &Graph,
        victims: &[NodeId],
        bounds: &[usize],
    ) -> (Graph, usize, u64, Vec<Vec<NodeId>>) {
        let mut oracle = base.clone();
        let neighborhoods: Vec<Vec<NodeId>> = victims
            .iter()
            .filter_map(|&v| oracle.remove_node(v))
            .collect();
        let mut added = 0u64;
        for former in &neighborhoods {
            for (i, &a) in former.iter().enumerate() {
                for &b in &former[i + 1..] {
                    added += u64::from(oracle.add_edge(a, b));
                }
            }
        }
        let mut survivors: Vec<NodeId> = neighborhoods
            .iter()
            .flatten()
            .copied()
            .filter(|&u| oracle.contains(u))
            .collect();
        survivors.sort_unstable();
        survivors.dedup();
        let mut by_range = vec![Vec::new(); bounds.len() - 1];
        for u in survivors {
            by_range[bounds[1..bounds.len() - 1].partition_point(|&c| c <= u.index())].push(u);
        }
        (oracle, neighborhoods.len(), added, by_range)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Randomly interleaved edge insertions/removals never violate the
        /// graph's structural invariants.
        #[test]
        fn random_mutations_preserve_invariants(ops in prop::collection::vec((0usize..20, 0usize..20, prop::bool::ANY), 1..200)) {
            let (mut g, ids) = Graph::with_nodes(20);
            for (a, b, add) in ops {
                if add {
                    g.add_edge(ids[a], ids[b]);
                } else {
                    g.remove_edge(ids[a], ids[b]);
                }
                prop_assert!(g.check_invariants().is_ok());
            }
        }

        /// Deleting nodes never increases the number of edges and keeps
        /// invariants intact.
        #[test]
        fn node_deletions_preserve_invariants(seed in 0u64..1000, deletions in 1usize..30) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut g, ids) = random_regular(40, 4, &mut rng);
            let mut prev_edges = g.edge_count();
            for id in ids.iter().take(deletions) {
                g.remove_node(*id);
                prop_assert!(g.edge_count() <= prev_edges);
                prev_edges = g.edge_count();
                prop_assert!(g.check_invariants().is_ok());
            }
        }

        /// BFS distances satisfy the triangle property along edges: adjacent
        /// nodes' distances from any source differ by at most 1.
        #[test]
        fn bfs_distance_is_lipschitz_along_edges(seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, ids) = random_regular(30, 4, &mut rng);
            let dist = bfs_distances(&g, ids[0]);
            for (a, b) in g.edges() {
                if let (Some(da), Some(db)) = (dist.get(a), dist.get(b)) {
                    prop_assert!(da.abs_diff(db) <= 1);
                }
            }
        }

        /// Slab-core invariants under arbitrary interleaved mutations:
        /// the degree sum is exactly twice the edge count, neighbor lists
        /// stay strictly sorted (no self loops, no parallel edges), and
        /// deleted ids are never handed out again.
        #[test]
        fn slab_invariants_under_churn(ops in prop::collection::vec((0usize..24, 0usize..24, 0u8..5), 1..250)) {
            let (mut g, mut ids) = Graph::with_nodes(8);
            let mut deleted: Vec<crate::graph::NodeId> = Vec::new();
            for (a, b, op) in ops {
                match op {
                    0 => {
                        let id = g.add_node();
                        prop_assert!(!ids.contains(&id), "fresh id must be new");
                        prop_assert!(!deleted.contains(&id), "deleted ids are never reused");
                        ids.push(id);
                    }
                    1 | 2 => { g.add_edge(ids[a % ids.len()], ids[b % ids.len()]); }
                    3 => { g.remove_edge(ids[a % ids.len()], ids[b % ids.len()]); }
                    _ => {
                        let victim = ids[a % ids.len()];
                        if g.remove_node(victim).is_some() {
                            deleted.push(victim);
                        }
                    }
                }
                // check_invariants covers symmetry, sortedness (hence no
                // parallel edges), self loops and the half-edge count.
                prop_assert!(g.check_invariants().is_ok());
                let degree_sum: usize = g.nodes().iter().map(|&n| g.degree(n).unwrap()).sum();
                prop_assert_eq!(degree_sum, 2 * g.edge_count());
                for &n in &g.nodes() {
                    let list = g.neighbors(n).unwrap();
                    prop_assert!(list.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
                }
            }
        }

        /// A `CsrSnapshot` round-trips the slab graph under random churn:
        /// live nodes, neighbor slices (order included) and the
        /// tombstone/isolated distinction all survive the freeze.
        #[test]
        fn csr_snapshot_roundtrips_the_slab_under_churn(ops in prop::collection::vec((0usize..32, 0usize..32, 0u8..5), 1..250)) {
            let g = churned_graph(&ops);
            let csr = CsrSnapshot::build(&g);
            prop_assert_eq!(csr.id_bound(), g.id_bound());
            prop_assert_eq!(csr.node_count(), g.node_count());
            prop_assert_eq!(csr.edge_count(), g.edge_count());
            prop_assert_eq!(csr.live_nodes(), g.nodes());
            for i in 0..g.id_bound() {
                let node = crate::graph::NodeId::new(i);
                prop_assert_eq!(csr.contains(node), g.contains(node));
                match g.neighbors(node) {
                    Some(neighbors) => prop_assert_eq!(csr.neighbors(node), neighbors),
                    None => prop_assert_eq!(csr.neighbors(node), &[] as &[crate::graph::NodeId]),
                }
            }
        }

        /// The multi-source kernel is byte-identical to sequential
        /// per-source `bfs_distances` at every thread count, on churned
        /// graphs whose id space contains tombstones.
        #[test]
        fn parallel_kernel_equals_sequential_bfs_at_any_thread_count(ops in prop::collection::vec((0usize..32, 0usize..32, 0u8..5), 1..120)) {
            let g = churned_graph(&ops);
            // Sweep every id ever allocated: live sources and tombstoned
            // sources must both behave identically at any thread count.
            let sources: Vec<crate::graph::NodeId> =
                (0..g.id_bound()).map(crate::graph::NodeId::new).collect();
            let csr = CsrSnapshot::build(&g);
            let reference: Vec<BfsStats> = sources
                .iter()
                .map(|&s| {
                    let map = bfs_distances(&g, s);
                    BfsStats {
                        eccentricity: map.max().unwrap_or(0),
                        total_distance: map.total() as u64,
                        reached: map.reached_count(),
                    }
                })
                .collect();
            for threads in [1usize, 2, 8] {
                let kernel = parallel_bfs_from_sources(&csr, &sources, threads);
                prop_assert_eq!(&kernel, &reference, "threads={}", threads);
            }
        }

        /// The wave kernel without drops builds the graph that removing
        /// each victim with `remove_node` and then `add_edge`-ing every
        /// pair of each victim's surviving former neighbors builds — same
        /// graph, same removed and added counts — against arbitrary
        /// churned base graphs, victim lists full of duplicates,
        /// tombstones, ids past the slab and adjacent victims, arbitrary
        /// (also empty or past-the-slab) ranges and every thread count.
        /// Each range's survivors are the oracle's surviving former
        /// neighbors it owns, ascending.
        #[test]
        fn wave_repair_equals_sequential_removal_then_insertion(
            ops in prop::collection::vec((0usize..24, 0usize..24, 0u8..5), 0..120),
            picks in prop::collection::vec((0usize..48, prop::bool::ANY), 0..16),
            cuts in prop::collection::vec(0usize..40, 1..6),
        ) {
            let (base, victims, bounds) = wave_case(&ops, &picks, &cuts);
            let (oracle, removed, oracle_added, oracle_by_range) =
                clique_oracle(&base, &victims, &bounds);
            for threads in [1usize, 3, 8] {
                let mut repaired = base.clone();
                let (outcome, by_range) =
                    repaired.repair_wave_unpruned(&victims, &bounds, threads);
                prop_assert_eq!(outcome.removed, removed, "threads={}", threads);
                prop_assert_eq!(outcome.edges_added, oracle_added, "threads={}", threads);
                prop_assert_eq!(outcome.edges_pruned, 0);
                prop_assert_eq!(&repaired, &oracle, "threads={}", threads);
                prop_assert!(repaired.check_invariants().is_ok());
                prop_assert_eq!(&by_range, &oracle_by_range, "threads={}", threads);
            }
        }

        /// With drops, the wave kernel equals the pipeline it replaced:
        /// the repaired graph, then every range's plans made in ascending
        /// range and survivor order against that graph frozen, then each
        /// drop applied by one `remove_edge` in plan order. The planner
        /// drops by a salted rule over ids and frozen degrees, so drops
        /// hit unaffected far ends and both ends of one edge alike.
        #[test]
        fn wave_kernel_equals_repair_then_frozen_plan_then_ascending_apply(
            ops in prop::collection::vec((0usize..24, 0usize..24, 0u8..5), 0..120),
            picks in prop::collection::vec((0usize..48, prop::bool::ANY), 0..16),
            cuts in prop::collection::vec(0usize..40, 1..6),
            salt in 0usize..64,
            every in 1usize..4,
        ) {
            let (base, victims, bounds) = wave_case(&ops, &picks, &cuts);
            let plan_of = |u: NodeId, neighbors: &[NodeId], degree: &dyn Fn(NodeId) -> usize| {
                neighbors
                    .iter()
                    .copied()
                    .filter(|&v| (u.index() * 7 + v.index() * 3 + degree(v) + salt).is_multiple_of(every))
                    .collect::<Vec<_>>()
            };
            let (mut oracle, removed, added, by_range) = clique_oracle(&base, &victims, &bounds);
            let frozen = oracle.clone();
            let mut drops = Vec::new();
            for &u in by_range.iter().flatten() {
                let degree = |p: NodeId| frozen.degree(p).unwrap_or(0);
                for v in plan_of(u, frozen.neighbors(u).unwrap(), &degree) {
                    drops.push((u, v));
                }
            }
            let pruned = drops.iter().filter(|&&(u, v)| oracle.remove_edge(u, v)).count();
            for threads in [1usize, 3, 8] {
                let mut kernel = base.clone();
                let outcome = kernel.repair_wave(
                    &victims,
                    &bounds,
                    threads,
                    || (),
                    |_, range, frozen, drop| {
                        for &u in frozen.survivors(range) {
                            let degree = |p: NodeId| frozen.degree(p);
                            for v in plan_of(u, frozen.neighbors(u), &degree) {
                                drop(u, v);
                            }
                        }
                    },
                );
                prop_assert_eq!(outcome.removed, removed, "threads={}", threads);
                prop_assert_eq!(outcome.edges_added, added, "threads={}", threads);
                prop_assert_eq!(outcome.edges_pruned, pruned as u64, "threads={}", threads);
                prop_assert_eq!(&kernel, &oracle, "threads={}", threads);
                prop_assert!(kernel.check_invariants().is_ok());
            }
        }

        /// Degree centrality of a k-regular graph is exactly k/(n-1) and the
        /// diameter of a connected instance is sane.
        #[test]
        fn regular_graph_metrics_are_consistent(seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 40usize;
            let k = 6usize;
            let (g, _) = random_regular(n, k, &mut rng);
            prop_assert!((average_degree_centrality(&g) - k as f64 / (n - 1) as f64).abs() < 1e-12);
            if component_count(&g) == 1 {
                let d = diameter(&g).unwrap();
                prop_assert!(d >= 2);
                prop_assert!(d < n);
            }
            prop_assert!(largest_component_size(&g) <= n);
        }
    }
}
