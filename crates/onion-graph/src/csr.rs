//! Frozen compressed-sparse-row (CSR) traversal snapshots of a [`Graph`].
//!
//! The slab [`Graph`] is the *mutation* structure: per-node `Vec` neighbor
//! lists behind `Option`s, tuned for takedowns and repairs. Measurement
//! phases (BFS sweeps, component analysis) never mutate, so they can pay
//! one `O(n + m)` pass to freeze the adjacency into two dense arrays —
//! `offsets` and `targets` — and then traverse a read-only structure with
//! no per-node indirection, no `Option` checks and perfect sharing across
//! threads (a `&CsrSnapshot` is `Sync` by construction).
//!
//! The snapshot preserves the slab's deterministic order exactly: slot `i`
//! of the graph is slot `i` of the snapshot, and each neighbor run is the
//! same sorted slice the slab held, so any traversal produces the same
//! visit order over either representation.
//!
//! ```
//! use onion_graph::csr::CsrSnapshot;
//! use onion_graph::graph::Graph;
//!
//! let (mut g, ids) = Graph::with_nodes(3);
//! g.add_edge(ids[0], ids[1]);
//! g.remove_node(ids[2]);
//! let csr = CsrSnapshot::build(&g);
//! assert_eq!(csr.node_count(), 2);
//! assert_eq!(csr.neighbors(ids[0]), &[ids[1]]);
//! assert!(!csr.contains(ids[2]), "tombstones stay dead in the snapshot");
//! ```

use crate::graph::{Graph, NodeId};

/// A frozen compressed-sparse-row view of a [`Graph`], for read-only
/// traversals.
///
/// Build one with [`CsrSnapshot::build`]; it does not track later graph
/// mutations. Node ids are the same slab indices the source graph uses,
/// so flat per-node arrays sized [`id_bound`](CsrSnapshot::id_bound) work
/// unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrSnapshot {
    /// `offsets[i]..offsets[i + 1]` indexes `targets` with node `i`'s
    /// neighbor run; deleted slots hold an empty run. Length is
    /// `id_bound + 1`.
    offsets: Vec<u32>,
    /// All neighbor lists concatenated in slot order, each run sorted
    /// ascending (inherited from the slab).
    targets: Vec<NodeId>,
    /// `live[i]` marks slot `i` as a live node (an empty neighbor run can
    /// be either an isolated live node or a tombstone; this disambiguates
    /// without touching the source graph).
    live: Vec<bool>,
    /// Number of live nodes at snapshot time.
    live_count: usize,
}

impl CsrSnapshot {
    /// Freezes `graph` into a CSR snapshot in one ordered pass over the
    /// slab.
    ///
    /// # Panics
    /// Panics if the graph holds ≥ `u32::MAX` half-edges (the offset
    /// array is deliberately `u32` to halve its cache footprint; degree
    /// is pruned to `d_max` in every workload, so this bound is ~400
    /// million edges).
    pub fn build(graph: &Graph) -> Self {
        let bound = graph.id_bound();
        let half_edges = graph.edge_count() * 2;
        assert!(
            u32::try_from(half_edges).is_ok(),
            "graph has too many half-edges ({half_edges}) for u32 CSR offsets"
        );
        let mut offsets = Vec::with_capacity(bound + 1);
        let mut targets = Vec::with_capacity(half_edges);
        let mut live = vec![false; bound];
        offsets.push(0);
        for (i, alive) in live.iter_mut().enumerate() {
            if let Some(neighbors) = graph.neighbors(NodeId::new(i)) {
                *alive = true;
                targets.extend_from_slice(neighbors);
            }
            offsets.push(targets.len() as u32);
        }
        CsrSnapshot {
            offsets,
            targets,
            live,
            live_count: graph.node_count(),
        }
    }

    /// One past the largest id the snapshot covers (equals the source
    /// graph's [`Graph::id_bound`] at build time).
    pub fn id_bound(&self) -> usize {
        self.live.len()
    }

    /// Number of live nodes at snapshot time.
    pub fn node_count(&self) -> usize {
        self.live_count
    }

    /// Number of undirected edges at snapshot time.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Whether `node` was live at snapshot time.
    pub fn contains(&self, node: NodeId) -> bool {
        self.live.get(node.index()).copied().unwrap_or(false)
    }

    /// The neighbors of `node` as the same sorted slice the slab held;
    /// empty for tombstoned, isolated or out-of-range nodes (use
    /// [`contains`](CsrSnapshot::contains) to tell the first two apart).
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        if node.index() >= self.live.len() {
            return &[];
        }
        let start = self.offsets[node.index()] as usize;
        let end = self.offsets[node.index() + 1] as usize;
        &self.targets[start..end]
    }

    /// The degree of `node` (`0` for dead or out-of-range nodes).
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// The live node ids in ascending order.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.live
            .iter()
            .enumerate()
            .filter_map(|(i, &alive)| alive.then_some(NodeId::new(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_of_empty_graph() {
        let csr = CsrSnapshot::build(&Graph::new());
        assert_eq!(csr.id_bound(), 0);
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert!(csr.live_nodes().is_empty());
        assert!(!csr.contains(NodeId::new(0)));
        assert_eq!(csr.neighbors(NodeId::new(0)), &[]);
    }

    #[test]
    fn snapshot_mirrors_slab_adjacency_and_tombstones() {
        let (mut g, ids) = Graph::with_nodes(5);
        g.add_edge(ids[0], ids[1]);
        g.add_edge(ids[0], ids[3]);
        g.add_edge(ids[1], ids[3]);
        g.remove_node(ids[2]);
        let csr = CsrSnapshot::build(&g);
        assert_eq!(csr.id_bound(), g.id_bound());
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 3);
        assert_eq!(csr.live_nodes(), g.nodes());
        for node in g.nodes() {
            assert!(csr.contains(node));
            assert_eq!(csr.neighbors(node), g.neighbors(node).unwrap());
            assert_eq!(csr.degree(node), g.degree(node).unwrap());
        }
        assert!(!csr.contains(ids[2]), "tombstone stays dead");
        assert_eq!(csr.neighbors(ids[2]), &[]);
        assert_eq!(csr.degree(ids[2]), 0);
    }

    #[test]
    fn snapshot_is_frozen_against_later_mutation() {
        let (mut g, ids) = Graph::with_nodes(2);
        g.add_edge(ids[0], ids[1]);
        let csr = CsrSnapshot::build(&g);
        g.remove_node(ids[1]);
        assert_eq!(csr.neighbors(ids[0]), &[ids[1]], "snapshot is a freeze");
        assert!(csr.contains(ids[1]));
        assert!(!g.contains(ids[1]));
    }

    #[test]
    fn out_of_range_ids_are_dead_not_panics() {
        let (g, _) = Graph::with_nodes(2);
        let csr = CsrSnapshot::build(&g);
        let ghost = NodeId::new(10_000);
        assert!(!csr.contains(ghost));
        assert_eq!(csr.neighbors(ghost), &[]);
        assert_eq!(csr.degree(ghost), 0);
    }

    #[test]
    fn isolated_live_node_differs_from_tombstone() {
        let (mut g, ids) = Graph::with_nodes(2);
        g.remove_node(ids[1]);
        let csr = CsrSnapshot::build(&g);
        assert!(csr.contains(ids[0]), "isolated but live");
        assert!(!csr.contains(ids[1]), "tombstoned");
        assert_eq!(csr.neighbors(ids[0]), &[]);
        assert_eq!(csr.neighbors(ids[1]), &[]);
    }
}
