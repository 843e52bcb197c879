//! Undirected graph data structure used by the overlay simulations.
//!
//! Nodes are identified by [`NodeId`]s handed out by the graph. The
//! representation is an **index-addressed slab**: `NodeId(i)` is a direct
//! index into a `Vec` of node slots, and each live slot holds its neighbor
//! list as a **sorted `Vec<NodeId>`**. Deletions (the whole evaluation of
//! the paper is about node takedowns) tombstone the slot; identifiers are
//! never reused, so a `NodeId` remains a valid "name" for a deleted node
//! (useful when replaying takedown traces).
//!
//! Compared to the previous `HashMap<NodeId, BTreeSet<NodeId>>` adjacency,
//! every lookup is an array index, neighbor iteration is a cache-friendly
//! slice walk, and iteration order is ascending **by construction** — no
//! hash-randomized order can ever leak into an RNG stream or a report
//! (the bug class that bit `SoapAttack` before it switched to `BTreeSet`s).
//! Degree stays small (the overlay prunes to `d_max`), so sorted-`Vec`
//! membership/insertion beats tree or hash nodes by a wide margin.
//!
//! ```
//! use onion_graph::graph::Graph;
//!
//! let mut g = Graph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! g.add_edge(a, b);
//! assert_eq!(g.degree(a), Some(1));
//! g.remove_node(a);
//! assert_eq!(g.degree(b), Some(0));
//! ```

use serde::{Deserialize, Serialize};

use crate::budget::map_in_order;

/// Identifier of a node inside a [`Graph`]: a direct index into the slab.
///
/// Identifiers are never reused within one graph, so a `NodeId` remains a
/// valid "name" for a deleted node (useful when replaying takedown traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An undirected simple graph (no self loops, no parallel edges) backed by
/// an index-addressed slab.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    /// Node slots indexed by `NodeId.0`; `None` marks a deleted node.
    /// Live slots hold the neighbor list sorted ascending.
    slots: Vec<Option<Vec<NodeId>>>,
    live_count: usize,
    edge_count: usize,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty graph with `n` fresh nodes, returning their ids.
    pub fn with_nodes(n: usize) -> (Self, Vec<NodeId>) {
        let mut g = Graph::new();
        g.slots.reserve(n);
        let ids = (0..n).map(|_| g.add_node()).collect();
        (g, ids)
    }

    /// Adds a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.slots.len());
        self.slots.push(Some(Vec::new()));
        self.live_count += 1;
        id
    }

    /// Returns `true` if `node` is present (i.e. not deleted).
    pub fn contains(&self, node: NodeId) -> bool {
        self.slots.get(node.0).is_some_and(Option::is_some)
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.live_count
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// One past the largest id ever allocated. Every live (or deleted)
    /// `NodeId` in this graph is strictly below this bound, so flat
    /// per-node arrays for traversals (`vec![u32::MAX; g.id_bound()]`) can
    /// be indexed by `NodeId.0` without bounds surprises.
    pub fn id_bound(&self) -> usize {
        self.slots.len()
    }

    /// Iterates over the live node ids in ascending order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|_| NodeId(i)))
            .collect()
    }

    /// Adds an undirected edge. Returns `true` if the edge was newly added,
    /// `false` if it already existed or was a self loop / referenced a
    /// missing node.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if a == b || !self.contains(a) || !self.contains(b) {
            return false;
        }
        let list_a = self.slots[a.0].as_mut().expect("checked present");
        let Err(pos_a) = list_a.binary_search(&b) else {
            return false;
        };
        list_a.insert(pos_a, b);
        let list_b = self.slots[b.0].as_mut().expect("checked present");
        let pos_b = list_b
            .binary_search(&a)
            .expect_err("edge must be symmetric");
        list_b.insert(pos_b, a);
        self.edge_count += 1;
        true
    }

    /// Removes an undirected edge. Returns `true` if it existed.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let Some(Some(list_a)) = self.slots.get_mut(a.0) else {
            return false;
        };
        let Ok(pos_a) = list_a.binary_search(&b) else {
            return false;
        };
        list_a.remove(pos_a);
        if let Some(Some(list_b)) = self.slots.get_mut(b.0) {
            if let Ok(pos_b) = list_b.binary_search(&a) {
                list_b.remove(pos_b);
            }
        }
        self.edge_count -= 1;
        true
    }

    /// Returns `true` if the edge `(a, b)` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a)
            .is_some_and(|list| list.binary_search(&b).is_ok())
    }

    /// The neighbors of `node` as a sorted slice, or `None` if the node is
    /// absent.
    pub fn neighbors(&self, node: NodeId) -> Option<&[NodeId]> {
        self.slots.get(node.0)?.as_deref()
    }

    /// The degree of `node`, or `None` if the node is absent.
    pub fn degree(&self, node: NodeId) -> Option<usize> {
        self.neighbors(node).map(<[NodeId]>::len)
    }

    /// Removes a node and all incident edges, returning its former
    /// neighbors in ascending order.
    ///
    /// Returns `None` if the node was not present.
    pub fn remove_node(&mut self, node: NodeId) -> Option<Vec<NodeId>> {
        let neighbors = self.slots.get_mut(node.0)?.take()?;
        self.live_count -= 1;
        self.edge_count -= neighbors.len();
        for &n in &neighbors {
            if let Some(Some(other)) = self.slots.get_mut(n.0) {
                if let Ok(pos) = other.binary_search(&node) {
                    other.remove(pos);
                }
            }
        }
        Some(neighbors)
    }

    /// Removes one takedown wave and repairs it in place: every live node
    /// in `victims` is removed (duplicates and absent ids are skipped) and
    /// every pair of a victim's surviving former neighbors becomes
    /// adjacent. The result is exactly the graph that
    /// [`remove_node`](Self::remove_node) on each victim followed by
    /// [`add_edge`](Self::add_edge) on every such pair builds, but each
    /// affected survivor's list is rebuilt once — (its old list − victims)
    /// ∪ (each adjacent victim's list − victims − itself), sorted and
    /// deduplicated — instead of paying a shift per inserted edge.
    ///
    /// The rebuild is partitioned across the id ranges delimited by
    /// `bounds` (e.g. a shard grid's boundaries: range `r` owns
    /// `bounds[r]..bounds[r + 1]`, and the last range also owns every id
    /// past its end) and fanned over up to `threads` workers through
    /// [`map_in_order`]. Each range is rebuilt by exactly one worker on a
    /// `split_at_mut` view of the slab and reads only its own lists plus
    /// the victims' removed lists, so the result is **byte-identical at
    /// any thread count**.
    ///
    /// Returns the number of victims removed, the number of edges added,
    /// and, per range, its surviving former neighbors of the victims in
    /// ascending order.
    ///
    /// # Panics
    /// Panics if `bounds` has fewer than two entries or is not ascending.
    pub fn remove_nodes_with_clique_repair(
        &mut self,
        victims: &[NodeId],
        bounds: &[usize],
        threads: usize,
    ) -> (usize, usize, Vec<Vec<NodeId>>) {
        assert!(
            bounds.len() >= 2 && bounds.windows(2).all(|w| w[0] <= w[1]),
            "range bounds must be ascending with at least two entries"
        );
        let ranges = bounds.len() - 1;
        let cuts = &bounds[1..ranges];
        // Take the victims out, as `remove_node` does, but leave their ids
        // in the survivors' lists until the rebuild drops them.
        let mut is_victim = vec![false; self.slots.len()];
        let mut taken: Vec<Vec<NodeId>> = Vec::new();
        for &v in victims {
            if let Some(list) = self.slots.get_mut(v.0).and_then(Option::take) {
                is_victim[v.0] = true;
                taken.push(list);
            }
        }
        self.live_count -= taken.len();
        // One `(survivor, victim index)` pair per survivor-victim edge,
        // bucketed by the range owning the survivor's list.
        let mut buckets: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); ranges];
        let mut victim_halves = 0usize;
        for (i, list) in taken.iter().enumerate() {
            victim_halves += list.len();
            for &w in list.iter().filter(|w| !is_victim[w.0]) {
                buckets[cuts.partition_point(|&c| c <= w.0)].push((w, i));
            }
        }
        let dropped_halves = victim_halves + buckets.iter().map(Vec::len).sum::<usize>();
        // One task per range, in range order, each on its own slab view.
        let len = self.slots.len();
        let mut tasks = Vec::with_capacity(ranges);
        let mut rest: &mut [Option<Vec<NodeId>>] = &mut self.slots;
        let mut start = 0usize;
        for (range, bucket) in buckets.into_iter().enumerate() {
            let end = if range + 1 < ranges {
                bounds[range + 1].min(len)
            } else {
                len
            };
            let (chunk, tail) = rest.split_at_mut(end - start);
            tasks.push(RangeTask {
                start,
                chunk,
                bucket,
            });
            rest = tail;
            start = end;
        }
        let (affected, added): (Vec<Vec<NodeId>>, Vec<usize>) = map_in_order(
            tasks,
            threads,
            || (),
            |_, task| task.rebuild(&taken, &is_victim),
        )
        .into_iter()
        .unzip();
        let added_halves: usize = added.iter().sum();
        debug_assert!(
            added_halves.is_multiple_of(2) && dropped_halves.is_multiple_of(2),
            "wave repair must stay symmetric"
        );
        self.edge_count = self.edge_count + added_halves / 2 - dropped_halves / 2;
        (taken.len(), added_halves / 2, affected)
    }

    /// Builds a graph whose node `i` has the neighbor list `lists[i]`.
    /// Every list must already be sorted ascending, deduplicated and
    /// symmetric with the others; the lists become the slots as they are,
    /// so their capacity is kept.
    pub(crate) fn from_sorted_lists(lists: Vec<Vec<NodeId>>) -> Graph {
        let half_edges: usize = lists.iter().map(Vec::len).sum();
        let graph = Graph {
            live_count: lists.len(),
            edge_count: half_edges / 2,
            slots: lists.into_iter().map(Some).collect(),
        };
        debug_assert_eq!(graph.check_invariants(), Ok(()));
        graph
    }

    /// Concatenates per-range graphs into one slab: part `p`'s node `i`
    /// becomes `NodeId(offset_p + i)` where `offset_p` is the sum of the
    /// preceding parts' [`id_bound`](Self::id_bound)s, and every neighbor
    /// id is shifted accordingly. Tombstones and edge counts carry over.
    /// This is the deterministic ascending merge of a sharded
    /// construction: each part is built independently, then spliced in
    /// part order.
    pub fn assemble(parts: impl IntoIterator<Item = Graph>) -> Graph {
        let mut assembled = Graph::new();
        for part in parts {
            let offset = assembled.slots.len();
            assembled.live_count += part.live_count;
            assembled.edge_count += part.edge_count;
            assembled.slots.reserve(part.slots.len());
            for slot in part.slots {
                assembled.slots.push(slot.map(|mut list| {
                    for id in &mut list {
                        id.0 += offset;
                    }
                    list
                }));
            }
        }
        assembled
    }

    /// Maximum degree over live nodes (`0` for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.slots
            .iter()
            .filter_map(|slot| slot.as_ref().map(Vec::len))
            .max()
            .unwrap_or(0)
    }

    /// Minimum degree over live nodes (`0` for an empty graph).
    pub fn min_degree(&self) -> usize {
        self.slots
            .iter()
            .filter_map(|slot| slot.as_ref().map(Vec::len))
            .min()
            .unwrap_or(0)
    }

    /// Lists all edges as `(smaller id, larger id)` pairs, sorted.
    ///
    /// The slab walk visits slots ascending and each neighbor list is
    /// sorted, so the output is sorted by construction.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.edge_count);
        for (i, slot) in self.slots.iter().enumerate() {
            let a = NodeId(i);
            if let Some(neighbors) = slot {
                for &b in neighbors {
                    if a < b {
                        out.push((a, b));
                    }
                }
            }
        }
        out
    }

    /// Checks internal invariants (symmetry, no self loops, sorted and
    /// deduplicated neighbor lists, live/edge counts). Intended for tests
    /// and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut counted = 0usize;
        let mut live = 0usize;
        for (i, slot) in self.slots.iter().enumerate() {
            let a = NodeId(i);
            let Some(neighbors) = slot else { continue };
            live += 1;
            for pair in neighbors.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(format!(
                        "neighbor list of {a} not strictly sorted: {} then {}",
                        pair[0], pair[1]
                    ));
                }
            }
            for &b in neighbors {
                if a == b {
                    return Err(format!("self loop at {a}"));
                }
                if !self.has_edge(b, a) {
                    return Err(format!("asymmetric edge {a} -> {b}"));
                }
                counted += 1;
            }
        }
        if live != self.live_count {
            return Err(format!(
                "live count mismatch: counted {live}, recorded {}",
                self.live_count
            ));
        }
        if counted != self.edge_count * 2 {
            return Err(format!(
                "edge count mismatch: counted {} half-edges, recorded {} edges",
                counted, self.edge_count
            ));
        }
        Ok(())
    }
}

/// One range's share of a wave rebuild: its first slot index, its slab
/// chunk, and one `(survivor, victim index)` pair per edge between a
/// survivor it owns and a victim.
struct RangeTask<'a> {
    start: usize,
    chunk: &'a mut [Option<Vec<NodeId>>],
    bucket: Vec<(NodeId, usize)>,
}

impl RangeTask<'_> {
    /// Rebuilds every survivor of the range once, in its own list. Returns
    /// its ascending survivors and the number of half-edges it added.
    fn rebuild(mut self, taken: &[Vec<NodeId>], is_victim: &[bool]) -> (Vec<NodeId>, usize) {
        self.bucket.sort_unstable();
        let mut survivors = Vec::new();
        let mut added = 0usize;
        for group in self.bucket.chunk_by(|a, b| a.0 == b.0) {
            let u = group[0].0;
            let list = self.chunk[u.0 - self.start]
                .as_mut()
                .expect("a victim's neighbor outside the wave is live");
            list.retain(|w| !is_victim[w.0]);
            let kept = list.len();
            for &(_, v) in group {
                list.extend(taken[v].iter().filter(|&&w| w != u && !is_victim[w.0]));
            }
            list.sort_unstable();
            list.dedup();
            added += list.len() - kept;
            survivors.push(u);
        }
        (survivors, added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_nodes() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert_eq!(g.node_count(), 2);
        assert!(g.contains(a));
        assert!(g.contains(b));
        assert_eq!(g.degree(a), Some(0));
        assert_eq!(g.nodes(), vec![a, b]);
        assert_eq!(g.id_bound(), 2);
    }

    #[test]
    fn edges_are_undirected_and_deduplicated() {
        let (mut g, ids) = Graph::with_nodes(3);
        assert!(g.add_edge(ids[0], ids[1]));
        assert!(
            !g.add_edge(ids[1], ids[0]),
            "duplicate edge must be rejected"
        );
        assert!(g.has_edge(ids[1], ids[0]));
        assert_eq!(g.edge_count(), 1);
        assert!(!g.add_edge(ids[0], ids[0]), "self loops rejected");
        g.check_invariants().unwrap();
    }

    #[test]
    fn edge_to_missing_node_is_rejected() {
        let (mut g, ids) = Graph::with_nodes(2);
        g.remove_node(ids[1]);
        assert!(!g.add_edge(ids[0], ids[1]));
        assert!(!g.add_edge(ids[1], ids[0]));
    }

    #[test]
    fn remove_node_returns_neighbors_and_cleans_edges() {
        let (mut g, ids) = Graph::with_nodes(4);
        g.add_edge(ids[0], ids[1]);
        g.add_edge(ids[0], ids[2]);
        g.add_edge(ids[1], ids[2]);
        let neighbors = g.remove_node(ids[0]).unwrap();
        assert_eq!(neighbors, vec![ids[1], ids[2]]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(ids[1], ids[0]));
        assert_eq!(g.remove_node(ids[0]), None, "double removal returns None");
        g.check_invariants().unwrap();
    }

    #[test]
    fn remove_edge_behaviour() {
        let (mut g, ids) = Graph::with_nodes(2);
        g.add_edge(ids[0], ids[1]);
        assert!(g.remove_edge(ids[1], ids[0]));
        assert!(!g.remove_edge(ids[0], ids[1]));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn node_ids_are_never_reused() {
        let mut g = Graph::new();
        let a = g.add_node();
        g.remove_node(a);
        let b = g.add_node();
        assert_ne!(a, b);
        assert!(!g.contains(a));
        assert!(g.contains(b));
        assert_eq!(g.id_bound(), 2);
    }

    #[test]
    fn deleted_slot_stays_a_tombstone() {
        let (mut g, ids) = Graph::with_nodes(3);
        g.add_edge(ids[0], ids[1]);
        g.remove_node(ids[1]);
        assert_eq!(g.neighbors(ids[1]), None);
        assert_eq!(g.degree(ids[1]), None);
        assert!(!g.has_edge(ids[0], ids[1]));
        assert_eq!(g.nodes(), vec![ids[0], ids[2]]);
        // Operations on the tombstone are inert, not panics.
        assert!(!g.remove_edge(ids[1], ids[0]));
        assert_eq!(g.remove_node(ids[1]), None);
    }

    #[test]
    fn out_of_range_ids_are_absent_not_panics() {
        let (g, _) = Graph::with_nodes(2);
        let ghost = NodeId(10_000);
        assert!(!g.contains(ghost));
        assert_eq!(g.neighbors(ghost), None);
        assert_eq!(g.degree(ghost), None);
        assert!(!g.has_edge(ghost, NodeId(0)));
        assert!(!g.has_edge(NodeId(0), ghost));
    }

    #[test]
    fn neighbor_lists_stay_sorted_under_mutation() {
        let (mut g, ids) = Graph::with_nodes(6);
        // Insert in descending order; the list must still come out sorted.
        for &peer in ids[1..].iter().rev() {
            g.add_edge(ids[0], peer);
        }
        assert_eq!(g.neighbors(ids[0]).unwrap(), &ids[1..]);
        g.remove_edge(ids[0], ids[3]);
        let expected: Vec<NodeId> = ids[1..].iter().copied().filter(|&n| n != ids[3]).collect();
        assert_eq!(g.neighbors(ids[0]).unwrap(), &expected[..]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn degree_statistics() {
        let (mut g, ids) = Graph::with_nodes(4);
        g.add_edge(ids[0], ids[1]);
        g.add_edge(ids[0], ids[2]);
        g.add_edge(ids[0], ids[3]);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
    }

    #[test]
    fn edges_listing_is_sorted_and_complete() {
        let (mut g, ids) = Graph::with_nodes(3);
        g.add_edge(ids[2], ids[0]);
        g.add_edge(ids[1], ids[2]);
        assert_eq!(g.edges(), vec![(ids[0], ids[2]), (ids[1], ids[2])]);
    }

    #[test]
    fn empty_graph_statistics() {
        let g = Graph::new();
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree(), 0);
        assert!(g.edges().is_empty());
        assert_eq!(g.id_bound(), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn wave_repair_joins_surviving_neighbors_and_skips_dead_victims() {
        // Path 0-1-2-3 plus a triangle 4-5-6 hanging off 1 via 1-4.
        let (mut g, ids) = Graph::with_nodes(7);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6), (1, 4)] {
            g.add_edge(ids[a], ids[b]);
        }
        g.remove_node(ids[6]);
        // Victim 1 twice, the tombstone 6 and a ghost past the slab: only 1
        // goes, and 0, 2 and 4 become a triangle.
        let victims = [ids[1], ids[1], ids[6], NodeId(99)];
        let (removed, added, by_range) = g.remove_nodes_with_clique_repair(&victims, &[0, 3, 7], 2);
        assert_eq!((removed, added), (1, 3));
        assert_eq!(by_range, vec![vec![ids[0], ids[2]], vec![ids[4]]]);
        assert_eq!(g.neighbors(ids[0]).unwrap(), &[ids[2], ids[4]]);
        assert_eq!(g.neighbors(ids[4]).unwrap(), &[ids[0], ids[2], ids[5]]);
        assert_eq!((g.node_count(), g.edge_count()), (5, 5));
        g.check_invariants().unwrap();
        // Adjacent victims 2 and 4: 3 and 5 knew each other only through
        // the two of them, so that knowledge dies with both.
        let (removed, added, _) = g.remove_nodes_with_clique_repair(&[ids[2], ids[4]], &[0, 7], 1);
        assert_eq!((removed, added), (2, 2));
        assert_eq!(g.edges(), vec![(ids[0], ids[3]), (ids[0], ids[5])]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn assemble_concatenates_parts_with_offsets() {
        let (mut a, ids_a) = Graph::with_nodes(3);
        a.add_edge(ids_a[0], ids_a[2]);
        a.remove_node(ids_a[1]); // tombstone carries over
        let (mut b, ids_b) = Graph::with_nodes(2);
        b.add_edge(ids_b[0], ids_b[1]);
        let g = Graph::assemble([a, b]);
        assert_eq!(g.id_bound(), 5);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(g.has_edge(NodeId(3), NodeId(4)), "part-1 ids shifted by 3");
        assert!(!g.contains(NodeId(1)), "tombstone preserved");
        g.check_invariants().unwrap();
        // Assembling one part is the identity on content.
        let (mut solo, ids) = Graph::with_nodes(4);
        solo.add_edge(ids[1], ids[3]);
        assert_eq!(Graph::assemble([solo.clone()]), solo);
        // Assembling nothing is the empty graph.
        assert_eq!(Graph::assemble([]), Graph::new());
    }

    #[test]
    fn equality_ignores_deletion_history() {
        let (mut a, ids_a) = Graph::with_nodes(3);
        let (mut b, ids_b) = Graph::with_nodes(3);
        a.add_edge(ids_a[0], ids_a[1]);
        b.add_edge(ids_b[0], ids_b[1]);
        // Give `a` a connected extra node and `b` an isolated one before
        // deleting both: the surviving content is identical, but a's first
        // list grew and shrank back (list capacity does not count).
        let extra_a = a.add_node();
        a.add_edge(extra_a, ids_a[0]);
        a.remove_node(extra_a);
        let extra_b = b.add_node();
        b.remove_node(extra_b);
        assert_eq!(a, b);
    }
}
