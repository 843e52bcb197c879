//! Connected-component analysis.
//!
//! The paper's Figures 5a/5b plot the number of connected components of DDSR
//! versus a normal graph as nodes are deleted, and Figure 6 measures how many
//! simultaneous deletions are needed before the graph partitions (~40% for
//! 10-regular graphs). These helpers provide the underlying measurements.
//!
//! Every sweep is generic over [`Adjacency`], so it runs identically on the
//! mutable slab [`Graph`] and on a frozen
//! [`CsrSnapshot`](crate::csr::CsrSnapshot). A measurement phase that
//! already holds a snapshot (a takedown sample measuring components,
//! closeness and diameter together) reuses it; one that does not scans
//! the slab directly, because a single scan runs about as fast over the
//! slab as over a snapshot and a freeze would not pay for itself. The
//! counting helpers ([`component_count`], [`largest_component_size`],
//! [`largest_component_fraction`]) deliberately do **not** materialize the
//! component vectors: a per-wave robustness sample over a million-node
//! overlay needs one number, not a million sorted node ids.

use crate::graph::{Graph, NodeId};
use crate::metrics::Adjacency;

/// Returns the connected components as sorted lists of node ids (largest
/// component first, ties broken by smallest node id).
///
/// One flat-array BFS sweep: a `Vec<bool>` indexed by node id tracks
/// visitation and each component vector doubles as its own BFS queue, so
/// the whole pass is `O(n + m)` with no hashing. A
/// [`CsrSnapshot`](crate::csr::CsrSnapshot) yields the same output as the
/// graph it froze (the snapshot preserves slot and neighbor order).
pub fn connected_components<A: Adjacency + ?Sized>(adj: &A) -> Vec<Vec<NodeId>> {
    let mut visited = vec![false; adj.id_bound()];
    let mut components = Vec::new();
    for node in adj.live_nodes() {
        if visited[node.0] {
            continue;
        }
        visited[node.0] = true;
        let mut component = vec![node];
        let mut head = 0usize;
        while head < component.len() {
            let u = component[head];
            head += 1;
            for &v in adj.neighbors_of(u) {
                if !visited[v.0] {
                    visited[v.0] = true;
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

/// One counting sweep: `(component count, largest component size, a seed
/// node of the largest component)` without materializing any component
/// vector — the queue is reused across components and nothing is sorted.
/// Returns `None` for an empty graph.
///
/// Seeds are visited in ascending id order and the maximum is updated
/// strictly, so the reported largest component ties exactly like
/// [`connected_components`] orders them: by size, then by smallest
/// member id. A BFS from the seed re-derives the largest component's
/// membership in `O(largest)` when a caller needs it (see
/// [`diameter`](crate::metrics::diameter)).
pub(crate) fn component_seed_scan<A: Adjacency + ?Sized>(
    adj: &A,
) -> Option<(usize, usize, NodeId)> {
    let mut visited = vec![false; adj.id_bound()];
    let mut queue: Vec<NodeId> = Vec::new();
    let mut count = 0usize;
    let mut largest = 0usize;
    let mut largest_seed = None;
    for node in adj.live_nodes() {
        if visited[node.0] {
            continue;
        }
        count += 1;
        visited[node.0] = true;
        queue.clear();
        queue.push(node);
        let mut head = 0usize;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in adj.neighbors_of(u) {
                if !visited[v.0] {
                    visited[v.0] = true;
                    queue.push(v);
                }
            }
        }
        if queue.len() > largest {
            largest = queue.len();
            largest_seed = Some(node);
        }
    }
    largest_seed.map(|seed| (count, largest, seed))
}

/// Number of connected components (`0` for an empty graph). Generic over
/// [`Adjacency`]: pass a [`CsrSnapshot`](crate::csr::CsrSnapshot) to count
/// over an existing freeze instead of re-walking the slab.
pub fn component_count<A: Adjacency + ?Sized>(adj: &A) -> usize {
    component_seed_scan(adj).map_or(0, |(count, _, _)| count)
}

/// Size of the largest connected component (`0` for an empty graph).
/// Generic over [`Adjacency`], like [`component_count`].
pub fn largest_component_size<A: Adjacency + ?Sized>(adj: &A) -> usize {
    component_seed_scan(adj).map_or(0, |(_, largest, _)| largest)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrSnapshot;
    use crate::generators::random_regular;
    use crate::graph::Graph;
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

    #[test]
    fn seed_scan_tie_breaks_like_materialized_components() {
        // Two equal-size components: the seed scan must report the seed
        // of the one connected_components orders first (smallest member
        // id), because diameter() derives its component from that seed.
        let (mut g, ids) = Graph::with_nodes(6);
        for (a, b) in [(0, 2), (2, 4), (1, 3), (3, 5)] {
            g.add_edge(ids[a], ids[b]);
        }
        let (count, largest, seed) = component_seed_scan(&g).unwrap();
        assert_eq!(count, 2);
        assert_eq!(largest, 3);
        assert_eq!(seed, ids[0]);
        assert_eq!(connected_components(&g)[0][0], seed);
        assert_eq!(component_seed_scan(&Graph::new()), None);
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
