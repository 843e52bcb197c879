//! Undirected graph data structure used by the overlay simulations.
//!
//! Nodes are identified by [`NodeId`]s handed out by the graph. The
//! representation is an **index-addressed slab**: `NodeId(i)` is a direct
//! index into a `Vec` of node slots, and each live slot holds its neighbor
//! list as a **sorted `Vec<NodeId>`**. Deletions (the whole evaluation of
//! the paper is about node takedowns) tombstone the slot; identifiers are
//! never reused, so a `NodeId` remains a valid "name" for a deleted node
//! (useful when replaying takedown traces), while the emptied neighbor-list
//! allocations go on a free-list that [`Graph::add_node`] recycles.
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

/// Upper bound on pooled neighbor-list allocations kept for reuse; churny
/// workloads (SOAP clone spawning, the `scale` scenario's waves) recycle
/// them instead of hitting the allocator, but an unbounded pool would pin
/// memory proportional to the deletion count.
const FREE_POOL_LIMIT: usize = 1024;

/// An undirected simple graph (no self loops, no parallel edges) backed by
/// an index-addressed slab.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    /// Node slots indexed by `NodeId.0`; `None` marks a deleted node.
    /// Live slots hold the neighbor list sorted ascending.
    slots: Vec<Option<Vec<NodeId>>>,
    /// Recycled neighbor-list allocations from deleted nodes (always
    /// empty vectors; only their capacity is reused).
    free_pool: Vec<Vec<NodeId>>,
    live_count: usize,
    edge_count: usize,
}

impl PartialEq for Graph {
    /// Equality over graph *content* (slots and edge count); the allocation
    /// free-list is an implementation detail and does not participate.
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots && self.edge_count == other.edge_count
    }
}

impl Eq for Graph {}

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
        let mut list = self.free_pool.pop().unwrap_or_default();
        // Pooled lists are pushed empty, but clear defensively: a
        // deserialized graph could carry a non-empty pool (the offline
        // serde derive cannot skip the field), and a fresh node must never
        // start with phantom neighbors.
        list.clear();
        self.slots.push(Some(list));
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
        let mut list = self.slots.get_mut(node.0)?.take()?;
        self.live_count -= 1;
        self.edge_count -= list.len();
        // Degree is bounded (the overlay prunes to d_max), so copying the
        // tiny neighbor list out lets the allocation itself go back on the
        // free-list for the next add_node.
        let neighbors = list.clone();
        for &n in &neighbors {
            if let Some(Some(other)) = self.slots.get_mut(n.0) {
                if let Ok(pos) = other.binary_search(&node) {
                    other.remove(pos);
                }
            }
        }
        if self.free_pool.len() < FREE_POOL_LIMIT {
            list.clear();
            self.free_pool.push(list);
        }
        Some(neighbors)
    }

    /// Inserts a batch of undirected edges with **deferred sorting**:
    /// every half-edge is appended first and each touched neighbor list is
    /// sorted and merged exactly once, instead of paying a binary search
    /// plus `Vec::insert` shift per edge the way [`add_edge`](Self::add_edge)
    /// does. Self loops, edges touching absent nodes, duplicates within the
    /// batch and edges that already exist are all skipped, so the resulting
    /// graph is exactly the one a sequential `add_edge` loop over `edges`
    /// produces. Returns the number of edges actually added (the number of
    /// `true`s that loop would have returned).
    pub fn add_edges_bulk(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        let mut half: Vec<(NodeId, NodeId)> = Vec::with_capacity(edges.len() * 2);
        for &(a, b) in edges {
            if a == b || !self.contains(a) || !self.contains(b) {
                continue;
            }
            half.push((a, b));
            half.push((b, a));
        }
        half.sort_unstable();
        let mut added_half = 0usize;
        let mut i = 0;
        while i < half.len() {
            let node = half[i].0;
            let mut j = i;
            while j < half.len() && half[j].0 == node {
                j += 1;
            }
            let list = self.slots[node.0].as_mut().expect("validated present");
            added_half += merge_sorted_candidates(list, &half[i..j]);
            i = j;
        }
        debug_assert!(
            added_half.is_multiple_of(2),
            "half-edge insertion must be symmetric"
        );
        self.edge_count += added_half / 2;
        added_half / 2
    }

    /// [`add_edges_bulk`](Self::add_edges_bulk), partitioned across the
    /// disjoint id ranges delimited by `bounds` and fanned over up to
    /// `threads` workers. `bounds` lists the range cut points ascending
    /// (e.g. a [shard grid's] boundaries); every neighbor list belongs to
    /// exactly one range, each range is handled by exactly one worker on a
    /// `split_at_mut` view of the slab, and a range's insertions depend
    /// only on the batch and the prior graph — so the result is
    /// **byte-identical at any thread count** and equal to the sequential
    /// [`add_edges_bulk`](Self::add_edges_bulk). Ids at or past the last
    /// cut point fall into the final range.
    ///
    /// [shard grid's]: Self::add_edges_bulk_partitioned
    pub fn add_edges_bulk_partitioned(
        &mut self,
        edges: &[(NodeId, NodeId)],
        bounds: &[usize],
        threads: usize,
    ) -> usize {
        // Interior cut points, clamped to the slab and deduplicated; the
        // implicit outer bounds are 0 and id_bound.
        let mut cuts: Vec<usize> = bounds
            .iter()
            .copied()
            .filter(|&b| b > 0 && b < self.slots.len())
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let ranges = cuts.len() + 1;
        let threads = threads.clamp(1, ranges);
        if ranges == 1 || threads == 1 {
            return self.add_edges_bulk(edges);
        }
        let owner = |id: usize| cuts.partition_point(|&c| c <= id);
        // Bucket each valid half-edge by the range owning its list.
        let mut buckets: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); ranges];
        for &(a, b) in edges {
            if a == b || !self.contains(a) || !self.contains(b) {
                continue;
            }
            buckets[owner(a.0)].push((a, b));
            buckets[owner(b.0)].push((b, a));
        }
        // Split the slab at the cut points and hand each worker its
        // statically assigned ranges (round-robin by range index, so the
        // work distribution — and the output — never depends on timing).
        // One range's task: its first slot index, its slab chunk, and
        // the half-edges destined for lists it owns.
        type RangeTask<'a> = (usize, &'a mut [Option<Vec<NodeId>>], Vec<(NodeId, NodeId)>);
        let mut tasks: Vec<Vec<RangeTask<'_>>> = Vec::with_capacity(threads);
        tasks.resize_with(threads, Vec::new);
        let mut rest: &mut [Option<Vec<NodeId>>] = &mut self.slots;
        let mut start = 0usize;
        for (range, bucket) in buckets.into_iter().enumerate() {
            let end = cuts.get(range).copied().unwrap_or(start + rest.len());
            let (chunk, tail) = rest.split_at_mut(end - start);
            tasks[range % threads].push((start, chunk, bucket));
            rest = tail;
            start = end;
        }
        let added_half: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = tasks
                .into_iter()
                .map(|assigned| {
                    scope.spawn(move || {
                        let mut added = 0usize;
                        for (start, chunk, mut bucket) in assigned {
                            bucket.sort_unstable();
                            let mut i = 0;
                            while i < bucket.len() {
                                let node = bucket[i].0;
                                let mut j = i;
                                while j < bucket.len() && bucket[j].0 == node {
                                    j += 1;
                                }
                                let list =
                                    chunk[node.0 - start].as_mut().expect("validated present");
                                added += merge_sorted_candidates(list, &bucket[i..j]);
                                i = j;
                            }
                        }
                        added
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("bulk-insert worker panicked"))
                .sum()
        });
        debug_assert!(
            added_half.is_multiple_of(2),
            "half-edge insertion must be symmetric"
        );
        self.edge_count += added_half / 2;
        added_half / 2
    }

    /// Concatenates per-range graphs into one slab: part `p`'s node `i`
    /// becomes `NodeId(offset_p + i)` where `offset_p` is the sum of the
    /// preceding parts' [`id_bound`](Self::id_bound)s, and every neighbor
    /// id is shifted accordingly. Tombstones and edge counts carry over;
    /// allocation free-pools do not (they are a reuse detail, invisible to
    /// equality). This is the deterministic ascending merge of a sharded
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

/// Merges the peer halves of a sorted half-edge run `(node, peer)*` into
/// `node`'s sorted neighbor list, skipping peers already present and
/// duplicates within the run, and returns how many were appended. The one
/// deferred sort per touched list happens here — candidates arrive sorted,
/// so existing membership is a binary search over the original prefix and
/// the final sort sees an almost-sorted vector.
fn merge_sorted_candidates(list: &mut Vec<NodeId>, run: &[(NodeId, NodeId)]) -> usize {
    let old_len = list.len();
    let mut appended = 0usize;
    let mut prev: Option<NodeId> = None;
    for &(_, peer) in run {
        if prev == Some(peer) {
            continue;
        }
        prev = Some(peer);
        if list[..old_len].binary_search(&peer).is_err() {
            list.push(peer);
            appended += 1;
        }
    }
    if appended > 0 {
        list.sort_unstable();
    }
    appended
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
    fn bulk_insertion_equals_sequential_insertion() {
        let (mut bulk, ids) = Graph::with_nodes(8);
        let (mut sequential, _) = Graph::with_nodes(8);
        bulk.remove_node(ids[7]);
        sequential.remove_node(ids[7]);
        let batch = vec![
            (ids[0], ids[1]),
            (ids[1], ids[0]), // duplicate in reverse orientation
            (ids[2], ids[2]), // self loop
            (ids[3], ids[7]), // dead endpoint
            (ids[4], ids[5]),
            (ids[0], ids[1]), // duplicate verbatim
            (ids[5], ids[4]), // another reverse duplicate
            (ids[1], ids[6]),
        ];
        let added = bulk.add_edges_bulk(&batch);
        let sequential_added = batch
            .iter()
            .filter(|&&(a, b)| sequential.add_edge(a, b))
            .count();
        assert_eq!(added, sequential_added);
        assert_eq!(added, 3);
        assert_eq!(bulk, sequential);
        bulk.check_invariants().unwrap();
        // A second identical batch is a full no-op.
        assert_eq!(bulk.add_edges_bulk(&batch), 0);
        assert_eq!(bulk, sequential);
    }

    #[test]
    fn bulk_insertion_merges_into_existing_lists() {
        let (mut g, ids) = Graph::with_nodes(5);
        g.add_edge(ids[0], ids[2]);
        g.add_edge(ids[0], ids[4]);
        let added = g.add_edges_bulk(&[(ids[0], ids[1]), (ids[0], ids[2]), (ids[3], ids[0])]);
        assert_eq!(added, 2, "one of the three already existed");
        assert_eq!(
            g.neighbors(ids[0]).unwrap(),
            &[ids[1], ids[2], ids[3], ids[4]]
        );
        g.check_invariants().unwrap();
    }

    #[test]
    fn partitioned_bulk_insertion_matches_sequential_at_any_thread_count() {
        let batch: Vec<(NodeId, NodeId)> = (0..40)
            .flat_map(|i| {
                [
                    (NodeId(i), NodeId((i * 7 + 3) % 40)),
                    (NodeId((i * 13 + 5) % 40), NodeId(i)),
                ]
            })
            .collect();
        let (mut reference, _) = Graph::with_nodes(40);
        let reference_added = reference.add_edges_bulk(&batch);
        for threads in [1usize, 2, 3, 8] {
            let (mut g, _) = Graph::with_nodes(40);
            let added = g.add_edges_bulk_partitioned(&batch, &[10, 20, 30], threads);
            assert_eq!(added, reference_added, "threads={threads}");
            assert_eq!(g, reference, "threads={threads}");
            g.check_invariants().unwrap();
        }
        // Degenerate grids: no interior cuts, cuts past the slab, unsorted
        // and duplicated cuts all degrade to the sequential path or to a
        // smaller effective grid — never to a wrong graph.
        for bounds in [vec![], vec![0, 40, 500], vec![30, 10, 10]] {
            let (mut g, _) = Graph::with_nodes(40);
            assert_eq!(
                g.add_edges_bulk_partitioned(&batch, &bounds, 4),
                reference_added
            );
            assert_eq!(g, reference, "bounds={bounds:?}");
        }
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
    fn equality_ignores_the_allocation_pool() {
        let (mut a, ids_a) = Graph::with_nodes(3);
        let (mut b, ids_b) = Graph::with_nodes(3);
        a.add_edge(ids_a[0], ids_a[1]);
        b.add_edge(ids_b[0], ids_b[1]);
        // Give `a` a connected extra node and `b` an isolated one before
        // deleting both: the surviving content is identical but the pooled
        // allocations differ (a's recycled list had capacity, b's did not).
        let extra_a = a.add_node();
        a.add_edge(extra_a, ids_a[0]);
        a.remove_node(extra_a);
        let extra_b = b.add_node();
        b.remove_node(extra_b);
        assert_eq!(a, b);
    }
}
