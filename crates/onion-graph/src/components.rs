//! Connected-component analysis.
//!
//! The paper's Figures 5a/5b plot the number of connected components of DDSR
//! versus a normal graph as nodes are deleted; these helpers provide that
//! measurement. (Figure 6's partition threshold does not call them: it
//! counts components for every deletion count in one offline union-find
//! pass, see `sim::scenario::partition_threshold`.)
//!
//! Two crate-private kernels answer every question here, both generic
//! over [`Adjacency`], so they run identically on the mutable slab
//! [`Graph`] and on a frozen [`CsrSnapshot`](crate::csr::CsrSnapshot):
//!
//! * `count_components`, a union-find, answers the questions that need
//!   numbers only: [`component_count`], [`largest_component_size`] and
//!   [`largest_component_fraction`] (the `scale` scenario's per-wave
//!   robustness sample). It unions inside contiguous id chunks in
//!   parallel under the [`thread_budget`] and then merges the edges
//!   between chunks sequentially. A component's size does not depend on
//!   the order of the unions, so the answers do not depend on the thread
//!   count.
//! * `scan_components`, a sequential sweep, answers the question that
//!   needs members: which nodes form the largest component.
//!   [`diameter`](crate::metrics::diameter) sweeps that span.
//!
//! Neither materializes per-component vectors: a per-wave robustness
//! sample over a million-node overlay needs one number, not a million
//! sorted node ids. The scan's visited flags are one byte per id, not the
//! four of a [`BfsScratch`](crate::metrics::BfsScratch) distance, because
//! the scan only needs to know whether a node was seen.

use std::ops::Range;

use crate::budget::{map_in_order, thread_budget};
use crate::graph::{Graph, NodeId};
use crate::metrics::Adjacency;

/// One sweep over every component: `(component count, queue, largest)`.
///
/// Seeds are taken in ascending id order and every component is walked
/// breadth-first into one shared queue, so each component is a contiguous
/// span of `queue` starting at its smallest id, and `queue` ends up holding
/// every live node once. `largest` is the span of the largest component;
/// the maximum is updated strictly, so ties go to the component with the
/// smallest id; [`diameter`](crate::metrics::diameter) sweeps
/// `&queue[largest]`. An empty graph yields `(0, [], 0..0)`.
pub(crate) fn scan_components<A: Adjacency + ?Sized>(
    adj: &A,
) -> (usize, Vec<NodeId>, Range<usize>) {
    let mut visited = vec![false; adj.id_bound()];
    let mut queue = Vec::new();
    let mut count = 0usize;
    let mut largest = 0..0;
    for seed in (0..adj.id_bound()).map(NodeId::new) {
        if visited[seed.index()] || !adj.contains(seed) {
            continue;
        }
        count += 1;
        let start = queue.len();
        visited[seed.index()] = true;
        queue.push(seed);
        let mut head = start;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in adj.neighbors_of(u) {
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    queue.push(v);
                }
            }
        }
        if queue.len() - start > largest.len() {
            largest = start..queue.len();
        }
    }
    (count, queue, largest)
}

/// `(component count, largest component size)` from a union-find over
/// `adj`.
///
/// The id space is cut into one contiguous chunk per worker of the
/// [`thread_budget`]. Each chunk unions the edges inside it on its own
/// view of the forest through [`map_in_order`] and keeps the edges that
/// leave it; those are then unioned sequentially on the whole forest.
/// Every edge is seen once, from its smaller end. Component sizes do not
/// depend on the order of the unions, so neither answer depends on the
/// thread count.
fn count_components<A: Adjacency + Sync + ?Sized>(adj: &A) -> (usize, usize) {
    let bound = adj.id_bound();
    assert!(
        i32::try_from(bound).is_ok(),
        "the union-find addresses ids as i32"
    );
    let threads = thread_budget();
    let chunk = bound.div_ceil(threads.max(1)).max(1);
    let mut parent = vec![-1i32; bound];
    let views: Vec<Forest<'_>> = parent
        .chunks_mut(chunk)
        .enumerate()
        .map(|(c, parent)| Forest {
            base: c * chunk,
            parent,
        })
        .collect();
    let leaving = map_in_order(
        views,
        threads,
        || (),
        |_, mut forest| {
            let end = forest.base + forest.parent.len();
            let mut leaving = Vec::new();
            for u in (forest.base..end).map(NodeId::new) {
                for &v in adj.neighbors_of(u) {
                    if v <= u {
                        continue;
                    }
                    if v.index() < end {
                        forest.union(u.index(), v.index());
                    } else {
                        leaving.push((u, v));
                    }
                }
            }
            leaving
        },
    );
    let mut forest = Forest {
        base: 0,
        parent: &mut parent,
    };
    for (u, v) in leaving.into_iter().flatten() {
        forest.union(u.index(), v.index());
    }
    let (mut count, mut largest) = (0usize, 0usize);
    for (i, &p) in parent.iter().enumerate() {
        if p < 0 && adj.contains(NodeId::new(i)) {
            count += 1;
            largest = largest.max(p.unsigned_abs() as usize);
        }
    }
    (count, largest)
}

/// A union-find (by size, with path halving) over the ids
/// `base..base + parent.len()`: a root's entry is its component's size,
/// negated; any other entry is its parent's absolute id.
struct Forest<'a> {
    base: usize,
    parent: &'a mut [i32],
}

impl Forest<'_> {
    fn find(&mut self, mut x: usize) -> usize {
        loop {
            let p = self.parent[x - self.base];
            if p < 0 {
                return x;
            }
            let grand = self.parent[p as usize - self.base];
            if grand < 0 {
                return p as usize;
            }
            self.parent[x - self.base] = grand;
            x = grand as usize;
        }
    }

    fn union(&mut self, a: usize, b: usize) {
        let (a, b) = (self.find(a), self.find(b));
        if a == b {
            return;
        }
        // Sizes are negated: the larger component has the smaller entry.
        let (small, big) = if self.parent[a - self.base] > self.parent[b - self.base] {
            (a, b)
        } else {
            (b, a)
        };
        self.parent[big - self.base] += self.parent[small - self.base];
        self.parent[small - self.base] = big as i32;
    }
}

/// Number of connected components (`0` for an empty graph). Generic over
/// [`Adjacency`], so it counts a [`CsrSnapshot`](crate::csr::CsrSnapshot)
/// as well as the slab.
///
/// # Panics
/// Panics if the id space is larger than `i32::MAX`, the union-find's
/// id width.
pub fn component_count<A: Adjacency + Sync + ?Sized>(adj: &A) -> usize {
    count_components(adj).0
}

/// Size of the largest connected component (`0` for an empty graph).
/// Generic over [`Adjacency`]; panics like [`component_count`].
pub fn largest_component_size<A: Adjacency + Sync + ?Sized>(adj: &A) -> usize {
    count_components(adj).1
}

/// Returns `true` if the graph has at most one connected component.
///
/// The empty graph is considered connected (there is nothing to partition),
/// matching how the partition-threshold experiment treats a fully deleted
/// botnet.
pub fn is_connected(graph: &Graph) -> bool {
    component_count(graph) <= 1
}

/// Fraction of live nodes contained in the largest component (`1.0` for the
/// empty graph by the same convention as [`is_connected`]).
pub fn largest_component_fraction(graph: &Graph) -> f64 {
    let n = graph.node_count();
    if n == 0 {
        return 1.0;
    }
    largest_component_size(graph) as f64 / n as f64
}

/// The connected components as sorted lists of node ids (largest first,
/// ties broken by smallest node id), one vector per component: the
/// reference the tests hold [`scan_components`] to.
#[cfg(test)]
pub(crate) fn connected_components<A: Adjacency + ?Sized>(adj: &A) -> Vec<Vec<NodeId>> {
    let mut visited = vec![false; adj.id_bound()];
    let mut components = Vec::new();
    for node in (0..adj.id_bound())
        .map(NodeId::new)
        .filter(|&n| adj.contains(n))
    {
        if visited[node.index()] {
            continue;
        }
        visited[node.index()] = true;
        let mut component = vec![node];
        let mut head = 0usize;
        while head < component.len() {
            let u = component[head];
            head += 1;
            for &v in adj.neighbors_of(u) {
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    component.push(v);
                }
            }
        }
        component.sort_unstable();
        components.push(component);
    }
    components.sort_by(|a, b| {
        b.len()
            .cmp(&a.len())
            .then_with(|| a.first().cmp(&b.first()))
    });
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::with_thread_budget;
    use crate::csr::CsrSnapshot;
    use crate::generators::random_regular;
    use crate::graph::Graph;
    use crate::property_tests::churned_graph;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_graph_is_connected_with_zero_components() {
        let g = Graph::new();
        assert_eq!(component_count(&g), 0);
        assert!(is_connected(&g));
        assert_eq!(largest_component_size(&g), 0);
        assert_eq!(largest_component_fraction(&g), 1.0);
    }

    #[test]
    fn isolated_nodes_each_form_a_component() {
        let (g, _) = Graph::with_nodes(4);
        assert_eq!(component_count(&g), 4);
        assert!(!is_connected(&g));
        assert_eq!(largest_component_size(&g), 1);
    }

    #[test]
    fn two_triangles_are_two_components() {
        let (mut g, ids) = Graph::with_nodes(6);
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            g.add_edge(ids[a], ids[b]);
        }
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 3);
        assert_eq!(comps[1].len(), 3);
        assert!((largest_component_fraction(&g) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn components_sorted_largest_first() {
        let (mut g, ids) = Graph::with_nodes(5);
        g.add_edge(ids[0], ids[1]);
        g.add_edge(ids[1], ids[2]);
        g.add_edge(ids[3], ids[4]);
        let comps = connected_components(&g);
        assert_eq!(comps[0], vec![ids[0], ids[1], ids[2]]);
        assert_eq!(comps[1], vec![ids[3], ids[4]]);
    }

    #[test]
    fn random_regular_graph_is_connected() {
        // A random 10-regular graph on 500 nodes is connected with
        // overwhelming probability.
        let mut rng = StdRng::seed_from_u64(1);
        let (g, _) = random_regular(500, 10, &mut rng);
        assert!(is_connected(&g));
        assert_eq!(largest_component_size(&g), 500);
    }

    #[test]
    fn removing_a_cut_vertex_partitions() {
        // Barbell: two triangles joined through a single bridge node.
        let (mut g, ids) = Graph::with_nodes(7);
        for (a, b) in [
            (0, 1),
            (1, 2),
            (2, 0),
            (4, 5),
            (5, 6),
            (6, 4),
            (2, 3),
            (3, 4),
        ] {
            g.add_edge(ids[a], ids[b]);
        }
        assert!(is_connected(&g));
        g.remove_node(ids[3]);
        assert_eq!(component_count(&g), 2);
    }

    #[test]
    fn csr_components_match_slab_components_with_tombstones() {
        let (mut g, ids) = Graph::with_nodes(10);
        for (a, b) in [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (8, 9)] {
            g.add_edge(ids[a], ids[b]);
        }
        g.remove_node(ids[6]);
        g.remove_node(ids[9]);
        let csr = CsrSnapshot::build(&g);
        assert_eq!(connected_components(&csr), connected_components(&g));
        let (count, largest) = (component_count(&g), largest_component_size(&g));
        let via_vectors = connected_components(&g);
        assert_eq!(count, via_vectors.len());
        assert_eq!(largest, via_vectors.first().map_or(0, Vec::len));
    }

    /// The scan's count, largest size and largest span against the
    /// materialized oracle, on the slab and on its snapshot.
    fn assert_scan_matches_oracle(g: &Graph) {
        let comps = connected_components(g);
        for (count, queue, largest) in [scan_components(g), scan_components(&CsrSnapshot::build(g))]
        {
            assert_eq!(count, comps.len());
            assert_eq!(queue.len(), g.node_count());
            let mut span = queue[largest].to_vec();
            span.sort_unstable();
            assert_eq!(&span, comps.first().map_or(&[][..], Vec::as_slice));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The largest span ties like the oracle orders components (by
        /// size, then smallest member id), because `diameter` sweeps that
        /// span: first on two equal-size components, then on churned
        /// graphs with tombstones and isolated nodes.
        #[test]
        fn seed_scan_tie_breaks_like_materialized_components(
            ops in prop::collection::vec((0usize..32, 0usize..32, 0u8..5), 0..160),
        ) {
            let (mut g, ids) = Graph::with_nodes(6);
            for (a, b) in [(0, 2), (2, 4), (1, 3), (3, 5)] {
                g.add_edge(ids[a], ids[b]);
            }
            let (count, queue, largest) = scan_components(&g);
            prop_assert_eq!((count, largest.clone()), (2, 0..3));
            prop_assert_eq!(&queue[largest], &[ids[0], ids[2], ids[4]]);
            prop_assert_eq!(scan_components(&Graph::new()), (0, Vec::new(), 0..0));
            assert_scan_matches_oracle(&g);
            assert_scan_matches_oracle(&churned_graph(&ops));
        }

        /// The union-find answers what the scan answers — the component
        /// count and the largest size — at every thread budget, on churned
        /// slabs (dead ids included) and their snapshots, and on the empty
        /// graph. Larger graphs give every worker a chunk with edges
        /// leaving it.
        #[test]
        fn union_find_counts_like_the_scan(
            ops in prop::collection::vec((0usize..48, 0usize..48, 0u8..5), 0..240),
        ) {
            let churned = churned_graph(&ops);
            for g in [Graph::new(), churned] {
                let csr = CsrSnapshot::build(&g);
                let (count, queue, largest) = scan_components(&g);
                for budget in [1usize, 2, 3, 8] {
                    with_thread_budget(budget, || {
                        assert_eq!(count_components(&g), (count, queue[largest.clone()].len()));
                        assert_eq!(count_components(&csr), (count, largest.len()));
                    });
                }
            }
        }
    }

    #[test]
    fn counting_scan_matches_materialized_components() {
        let mut rng = StdRng::seed_from_u64(5);
        let (mut g, ids) = random_regular(60, 3, &mut rng);
        for &victim in ids.iter().take(25) {
            g.remove_node(victim);
        }
        let comps = connected_components(&g);
        assert_eq!(component_count(&g), comps.len());
        assert_eq!(
            largest_component_size(&g),
            comps.first().map_or(0, Vec::len)
        );
    }
}
