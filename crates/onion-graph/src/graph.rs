//! Undirected graph data structure used by the overlay simulations.
//!
//! Nodes are identified by [`NodeId`]s handed out by the graph. The
//! representation is an **index-addressed slab**: the id of slot `i` is a
//! direct index into a `Vec` of node slots, and each live slot holds its
//! neighbor list as a **sorted `Vec<NodeId>`** of 32-bit ids. Deletions
//! (the whole evaluation of the paper is about node takedowns) tombstone
//! the slot; identifiers are never reused, so a `NodeId` remains a valid
//! "name" for a deleted node (useful when replaying takedown traces).
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

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::budget::map_in_order;

/// Identifier of a node inside a [`Graph`]: a direct index into the slab,
/// stored in 32 bits.
///
/// Identifiers are never reused within one graph, so a `NodeId` remains a
/// valid "name" for a deleted node (useful when replaying takedown traces).
///
/// An id is a `u32`, so every neighbor list, wave arena, BFS queue and CSR
/// row holds four bytes per entry, not eight. Ids are made from slab
/// positions by the one checked constructor [`NodeId::new`], which panics
/// past `u32::MAX`; [`Graph::add_node`], [`Graph::with_nodes`],
/// [`Graph::assemble`] and the generators' list builders all go through
/// it, so a graph too large for 32-bit ids fails where its ids are made.
/// [`NodeId::index`] turns an id back into the slab position.
///
/// A random draw that picks an id keeps drawing a `usize` from the same
/// range and converts afterwards (`NodeId::new(rng.gen_range(0..n))`): the
/// draw's integer type is part of a seeded stream's contract, so the
/// narrower id changes no stream and no output byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The id of slab position `index`.
    ///
    /// # Panics
    /// Panics if `index` exceeds `u32::MAX`.
    pub fn new(index: usize) -> NodeId {
        NodeId(u32::try_from(index).expect("node ids must fit in u32"))
    }

    /// The slab position this id names.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An undirected simple graph (no self loops, no parallel edges) backed by
/// an index-addressed slab.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    /// Node slots indexed by [`NodeId::index`]; `None` marks a deleted node.
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
        let id = NodeId::new(self.slots.len());
        self.slots.push(Some(Vec::new()));
        self.live_count += 1;
        id
    }

    /// Returns `true` if `node` is present (i.e. not deleted).
    pub fn contains(&self, node: NodeId) -> bool {
        self.slots.get(node.index()).is_some_and(Option::is_some)
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
    /// be indexed by [`NodeId::index`] without bounds surprises.
    pub fn id_bound(&self) -> usize {
        self.slots.len()
    }

    /// Iterates over the live node ids in ascending order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|_| NodeId::new(i)))
            .collect()
    }

    /// Adds an undirected edge. Returns `true` if the edge was newly added,
    /// `false` if it already existed or was a self loop / referenced a
    /// missing node.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if a == b || !self.contains(a) || !self.contains(b) {
            return false;
        }
        let list_a = self.slots[a.index()].as_mut().expect("checked present");
        let Err(pos_a) = list_a.binary_search(&b) else {
            return false;
        };
        list_a.insert(pos_a, b);
        let list_b = self.slots[b.index()].as_mut().expect("checked present");
        let pos_b = list_b
            .binary_search(&a)
            .expect_err("edge must be symmetric");
        list_b.insert(pos_b, a);
        self.edge_count += 1;
        true
    }

    /// Removes an undirected edge. Returns `true` if it existed.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let Some(Some(list_a)) = self.slots.get_mut(a.index()) else {
            return false;
        };
        let Ok(pos_a) = list_a.binary_search(&b) else {
            return false;
        };
        list_a.remove(pos_a);
        if let Some(Some(list_b)) = self.slots.get_mut(b.index()) {
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
        self.slots.get(node.index())?.as_deref()
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
        let neighbors = self.slots.get_mut(node.index())?.take()?;
        self.live_count -= 1;
        self.edge_count -= neighbors.len();
        for &n in &neighbors {
            if let Some(Some(other)) = self.slots.get_mut(n.index()) {
                if let Ok(pos) = other.binary_search(&node) {
                    other.remove(pos);
                }
            }
        }
        Some(neighbors)
    }

    /// Removes one takedown wave, repairs it, prunes it and writes every
    /// affected list once.
    ///
    /// Every live node in `victims` is removed (duplicates and absent ids
    /// are skipped), every pair of a victim's surviving former neighbors
    /// becomes adjacent, and then the drops `plan` asks for are removed.
    /// Without drops the result is exactly the graph that
    /// [`remove_node`](Self::remove_node) on each victim followed by
    /// [`add_edge`](Self::add_edge) on every such pair builds; with drops
    /// it is that graph minus every dropped pair.
    ///
    /// The work is partitioned across the id ranges delimited by `bounds`
    /// (e.g. a shard grid's boundaries: range `r` owns
    /// `bounds[r]..bounds[r + 1]`, and the last range also owns every id
    /// past its end), and each parallel phase fans the ranges over up to
    /// `threads` workers through [`map_in_order`]:
    ///
    /// 1. **Takedown** (sequential): the victims' lists come out of the
    ///    slab, and each survivor-victim edge is bucketed by the range
    ///    owning the survivor.
    /// 2. **Frozen rebuild** (parallel, slab read-only): each range writes
    ///    the repaired list of every affected survivor it owns — its old
    ///    list minus the victims, joined with each adjacent victim's list
    ///    minus the victims and itself — into its own arena, and records
    ///    where it lies there in a dense per-wave index that also holds
    ///    every node's frozen degree.
    /// 3. **Plan and mark** (parallel): `plan(scratch, range, frozen,
    ///    drop)` runs once per range against the [`FrozenWave`] view and
    ///    calls `drop(u, v)` for each edge it drops; what it drops must
    ///    depend only on its range and that view (`scratch` is reusable
    ///    space, built once per worker). Both halves of a drop
    ///    are marked in the arenas by flags that are only ever set, so the
    ///    marks do not depend on which range marks first; a half whose
    ///    node was not affected is kept for phase 5.
    /// 4. **Write once** (parallel, on `split_at_mut` range views of the
    ///    slab): each affected list becomes its frozen list minus its
    ///    marked entries, in the list's own allocation.
    /// 5. **Fix-up** (sequential): the kept halves are removed from the
    ///    unaffected lists, and the counters are settled.
    ///
    /// The rebuild and the write touch only their own range's arena and
    /// slab view, and the plans read only the frozen view and set marks,
    /// which no order of setting can change, so the result is
    /// **byte-identical at any thread count**. A drop of a pair that is
    /// not an edge of the frozen view is ignored. `edges_pruned` counts
    /// each dropped pair once, also when both ends dropped it.
    ///
    /// # Panics
    /// Panics if `bounds` has fewer than two entries or is not ascending.
    pub fn repair_wave<S>(
        &mut self,
        victims: &[NodeId],
        bounds: &[usize],
        threads: usize,
        scratch: impl Fn() -> S + Sync,
        plan: impl Fn(&mut S, usize, &FrozenWave<'_>, &mut dyn FnMut(NodeId, NodeId)) + Sync,
    ) -> WaveOutcome {
        let (wave, buckets) = self.take_wave(victims, bounds);
        let ranges = bounds.len() - 1;
        let mut index: Vec<FrozenSlot> = self
            .slots
            .iter()
            .map(|slot| FrozenSlot {
                range: IN_SLAB,
                offset: 0,
                degree: slot.as_ref().map_or(0, |list| list.len() as u32),
            })
            .collect();
        let slots = &self.slots;
        let arenas: Vec<WaveArena> = map_in_order(
            split_ranges(&mut index, bounds)
                .into_iter()
                .zip(buckets)
                .enumerate()
                .collect(),
            threads,
            Vec::new,
            |buf, (range, ((start, index), bucket))| {
                WaveArena::rebuild(slots, &wave, range, start, index, bucket, buf)
            },
        );
        let added: usize = arenas.iter().map(|arena| arena.added).sum();
        let frozen = FrozenWave {
            slots,
            index: &index,
            arenas: &arenas,
        };
        let far_halves = map_in_order((0..ranges).collect(), threads, scratch, |s, range| {
            let mut far = Vec::new();
            plan(s, range, &frozen, &mut |u, v| {
                frozen.mark(u, v, &mut far);
                frozen.mark(v, u, &mut far);
            });
            far
        });
        let marked = map_in_order(
            split_ranges(&mut self.slots, bounds)
                .into_iter()
                .zip(arenas)
                .collect(),
            threads,
            || (),
            |_, ((start, view), arena)| arena.write(start, view, &index),
        );
        let mut pruned: usize = marked.iter().sum();
        for (a, b) in far_halves.into_iter().flatten() {
            if let Some(Some(list)) = self.slots.get_mut(a.index()) {
                if let Ok(pos) = list.binary_search(&b) {
                    list.remove(pos);
                    pruned += 1;
                }
            }
        }
        debug_assert!(
            added.is_multiple_of(2) && wave.dropped.is_multiple_of(2) && pruned.is_multiple_of(2),
            "wave repair must stay symmetric"
        );
        self.edge_count = self.edge_count + added / 2 - wave.dropped / 2 - pruned / 2;
        WaveOutcome {
            removed: wave.taken.len(),
            edges_added: (added / 2) as u64,
            edges_pruned: (pruned / 2) as u64,
        }
    }

    /// Phase 1 of a wave: takes every live victim's list out of the slab,
    /// as `remove_node` does, but leaves the victims' ids in the
    /// survivors' lists for the rebuild to drop. Returns the takedown and
    /// one `(survivor, victim index)` pair per survivor-victim edge,
    /// bucketed by the range owning the survivor.
    ///
    /// # Panics
    /// Panics if `bounds` has fewer than two entries or is not ascending.
    fn take_wave(
        &mut self,
        victims: &[NodeId],
        bounds: &[usize],
    ) -> (Takedown, Vec<Vec<(NodeId, u32)>>) {
        assert!(
            bounds.len() >= 2 && bounds.windows(2).all(|w| w[0] <= w[1]),
            "range bounds must be ascending with at least two entries"
        );
        let cuts = &bounds[1..bounds.len() - 1];
        let mut is_victim = vec![false; self.slots.len()];
        let mut taken: Vec<Vec<NodeId>> = Vec::new();
        for &v in victims {
            if let Some(list) = self.slots.get_mut(v.index()).and_then(Option::take) {
                is_victim[v.index()] = true;
                taken.push(list);
            }
        }
        self.live_count -= taken.len();
        let mut buckets: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); bounds.len() - 1];
        let mut dropped = 0usize;
        // Each victim is a distinct id, so its index in `taken` fits an id.
        for (i, list) in (0u32..).zip(&taken) {
            dropped += list.len();
            for &w in list.iter().filter(|w| !is_victim[w.index()]) {
                buckets[cuts.partition_point(|&c| c <= w.index())].push((w, i));
                dropped += 1;
            }
        }
        let wave = Takedown {
            is_victim,
            taken,
            dropped,
        };
        (wave, buckets)
    }

    /// Builds a graph whose node `i` has the neighbor list `lists[i]`.
    /// Every list must already be sorted ascending, deduplicated and
    /// symmetric with the others; the lists become the slots as they are,
    /// so their capacity is kept.
    ///
    /// # Panics
    /// Panics if the last node's position passes `u32::MAX` (see
    /// [`NodeId::new`]).
    pub(crate) fn from_sorted_lists(lists: Vec<Vec<NodeId>>) -> Graph {
        if let Some(last) = lists.len().checked_sub(1) {
            NodeId::new(last);
        }
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
    /// gets the id `offset_p + i`, where `offset_p` is the sum of the
    /// preceding parts' [`id_bound`](Self::id_bound)s, and every neighbor
    /// id is shifted accordingly. Tombstones and edge counts carry over.
    /// This is the deterministic ascending merge of a sharded
    /// construction: each part is built independently, then spliced in
    /// part order.
    ///
    /// # Panics
    /// Panics if a shifted id would pass `u32::MAX` (see [`NodeId::new`]).
    pub fn assemble(parts: impl IntoIterator<Item = Graph>) -> Graph {
        let mut assembled = Graph::new();
        for part in parts {
            let offset = assembled.slots.len();
            // The part's last slot, shifted, is its largest id; once that
            // one fits, every shift below does.
            let Some(last) = part.slots.len().checked_sub(1) else {
                continue;
            };
            NodeId::new(offset + last);
            let shift = NodeId::new(offset).0;
            assembled.live_count += part.live_count;
            assembled.edge_count += part.edge_count;
            assembled.slots.reserve(part.slots.len());
            for slot in part.slots {
                assembled.slots.push(slot.map(|mut list| {
                    for id in &mut list {
                        id.0 += shift;
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
            let a = NodeId::new(i);
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
            let a = NodeId::new(i);
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

/// Everything one takedown wave changed, for the overlay's stats counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaveOutcome {
    /// Victims actually removed (present before the wave).
    pub removed: usize,
    /// Repair edges added between the victims' surviving former neighbors.
    pub edges_added: u64,
    /// Edges the prune plans dropped, each pair counted once.
    pub edges_pruned: u64,
}

/// One entry of a wave's dense index: a node's frozen degree and, for an
/// affected survivor, the range whose arena holds its frozen list and
/// where the list starts there. Every node has its degree here, so a
/// degree lookup is one read.
#[derive(Clone, Copy)]
struct FrozenSlot {
    range: u32,
    offset: u32,
    degree: u32,
}

/// The `range` of a node the wave did not affect: its frozen list is the
/// slab's.
const IN_SLAB: u32 = u32::MAX;

/// The read-only graph a wave's prune plans see: the repaired lists of
/// the affected survivors, the slab's lists for every other live node.
/// Built by [`Graph::repair_wave`] between its rebuild and its writes.
pub struct FrozenWave<'a> {
    slots: &'a [Option<Vec<NodeId>>],
    index: &'a [FrozenSlot],
    arenas: &'a [WaveArena],
}

impl FrozenWave<'_> {
    /// The affected survivors range `range` owns, ascending.
    pub fn survivors(&self, range: usize) -> &[NodeId] {
        &self.arenas[range].survivors
    }

    /// The frozen neighbors of `node`, sorted ascending; empty for a dead
    /// or absent node.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        match self.locate(node) {
            Some((arena, entries)) => &arena.lists[entries],
            None => self
                .slots
                .get(node.index())
                .and_then(Option::as_deref)
                .unwrap_or(&[]),
        }
    }

    /// The frozen degree of `node` (`0` for a dead or absent node).
    pub fn degree(&self, node: NodeId) -> usize {
        self.index
            .get(node.index())
            .map_or(0, |slot| slot.degree as usize)
    }

    /// The arena holding `node`'s frozen list and the list's entries
    /// there, or `None` if the wave did not affect `node`.
    fn locate(&self, node: NodeId) -> Option<(&WaveArena, Range<usize>)> {
        let slot = *self.index.get(node.index())?;
        if slot.range == IN_SLAB {
            return None;
        }
        Some((&self.arenas[slot.range as usize], slot.entries()))
    }

    /// Marks `b` in `a`'s frozen list for removal, or keeps the half
    /// `(a, b)` in `far` when `a`'s list is still the slab's.
    fn mark(&self, a: NodeId, b: NodeId, far: &mut Vec<(NodeId, NodeId)>) {
        match self.locate(a) {
            Some((arena, entries)) => {
                let start = entries.start;
                if let Ok(pos) = arena.lists[entries].binary_search(&b) {
                    // A mark publishes no other data, and the write phase
                    // reads it only after the plan phase's workers joined.
                    arena.marks[start + pos].store(true, Ordering::Relaxed);
                }
            }
            None => far.push((a, b)),
        }
    }
}

impl FrozenSlot {
    /// The slot's entries in its arena.
    fn entries(self) -> Range<usize> {
        let start = self.offset as usize;
        start..start + self.degree as usize
    }
}

/// One range's frozen lists, concatenated in ascending survivor order,
/// with one drop mark per entry.
#[derive(Default)]
struct WaveArena {
    survivors: Vec<NodeId>,
    lists: Vec<NodeId>,
    marks: Vec<AtomicBool>,
    /// Half-edges the rebuild added.
    added: usize,
}

impl WaveArena {
    /// Rebuilds every affected survivor of range `range`, whose ids start
    /// at `start`, into a fresh arena, reading the slab and the taken
    /// victim lists only, and records each survivor's list in `index`,
    /// the range's view of the dense wave index.
    fn rebuild(
        slots: &[Option<Vec<NodeId>>],
        wave: &Takedown,
        range: usize,
        start: usize,
        index: &mut [FrozenSlot],
        mut bucket: Vec<(NodeId, u32)>,
        buf: &mut Vec<NodeId>,
    ) -> WaveArena {
        let Takedown {
            is_victim, taken, ..
        } = wave;
        bucket.sort_unstable();
        let mut arena = WaveArena::default();
        for group in bucket.chunk_by(|a, b| a.0 == b.0) {
            let u = group[0].0;
            let old = slots[u.index()]
                .as_deref()
                .expect("a victim's neighbor outside the wave is live");
            buf.clear();
            buf.extend(old.iter().filter(|w| !is_victim[w.index()]));
            let kept = buf.len();
            for &(_, v) in group {
                let former = &taken[v as usize];
                buf.extend(former.iter().filter(|&&w| w != u && !is_victim[w.index()]));
            }
            buf.sort_unstable();
            buf.dedup();
            arena.added += buf.len() - kept;
            index[u.index() - start] = FrozenSlot {
                range: range as u32,
                offset: u32::try_from(arena.lists.len()).expect("arena offsets fit u32"),
                degree: buf.len() as u32,
            };
            arena.survivors.push(u);
            arena.lists.extend_from_slice(buf);
        }
        arena.marks = arena.lists.iter().map(|_| AtomicBool::new(false)).collect();
        arena
    }

    /// Writes each survivor's frozen list minus its marked entries into
    /// its slot of `view` (the slab from id `start` on), in the slot's own
    /// allocation. Returns the number of marked entries.
    fn write(self, start: usize, view: &mut [Option<Vec<NodeId>>], index: &[FrozenSlot]) -> usize {
        let mut marked = 0usize;
        for &u in &self.survivors {
            let list = view[u.index() - start]
                .as_mut()
                .expect("an affected survivor is live");
            list.clear();
            let entries = index[u.index()].entries();
            for (&w, mark) in self.lists[entries.clone()].iter().zip(&self.marks[entries]) {
                if mark.load(Ordering::Relaxed) {
                    marked += 1;
                } else {
                    list.push(w);
                }
            }
        }
        marked
    }
}

/// A wave's takedown: the victim flags, the victims' taken lists and the
/// half-edges the takedown dropped.
struct Takedown {
    is_victim: Vec<bool>,
    taken: Vec<Vec<NodeId>>,
    dropped: usize,
}

/// Splits the per-id `items` into one `(first id, view)` per range of
/// `bounds`; the last range also takes every id past its end.
fn split_ranges<'a, T>(mut rest: &'a mut [T], bounds: &[usize]) -> Vec<(usize, &'a mut [T])> {
    let ranges = bounds.len() - 1;
    let len = rest.len();
    let mut views = Vec::with_capacity(ranges);
    let mut start = 0usize;
    for range in 0..ranges {
        let end = if range + 1 < ranges {
            bounds[range + 1].min(len)
        } else {
            len
        };
        let (view, tail) = rest.split_at_mut(end - start);
        views.push((start, view));
        rest = tail;
        start = end;
    }
    views
}

#[cfg(test)]
impl Graph {
    /// [`Graph::repair_wave`] without drops. Returns its outcome and each
    /// range's affected survivors, ascending.
    pub(crate) fn repair_wave_unpruned(
        &mut self,
        victims: &[NodeId],
        bounds: &[usize],
        threads: usize,
    ) -> (WaveOutcome, Vec<Vec<NodeId>>) {
        let seen = std::sync::Mutex::new(vec![Vec::new(); bounds.len() - 1]);
        let outcome = self.repair_wave(
            victims,
            bounds,
            threads,
            || (),
            |_, range, frozen, _| {
                seen.lock().expect("survivor lock")[range] = frozen.survivors(range).to_vec();
            },
        );
        (outcome, seen.into_inner().expect("survivor lock"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_index_round_trips() {
        for index in [0usize, 1, 4_096, 1_000_000, u32::MAX as usize] {
            assert_eq!(NodeId::new(index).index(), index);
        }
        assert!(NodeId::new(3) < NodeId::new(10), "ids order as indices");
    }

    #[test]
    #[should_panic(expected = "node ids must fit in u32")]
    fn node_id_past_u32_panics() {
        NodeId::new(u32::MAX as usize + 1);
    }

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
        let (outcome, by_range) = g.repair_wave_unpruned(&victims, &[0, 3, 7], 2);
        assert_eq!((outcome.removed, outcome.edges_added), (1, 3));
        assert_eq!(by_range, vec![vec![ids[0], ids[2]], vec![ids[4]]]);
        assert_eq!(g.neighbors(ids[0]).unwrap(), &[ids[2], ids[4]]);
        assert_eq!(g.neighbors(ids[4]).unwrap(), &[ids[0], ids[2], ids[5]]);
        assert_eq!((g.node_count(), g.edge_count()), (5, 5));
        g.check_invariants().unwrap();
        // Adjacent victims 2 and 4: 3 and 5 knew each other only through
        // the two of them, so that knowledge dies with both.
        let (outcome, _) = g.repair_wave_unpruned(&[ids[2], ids[4]], &[0, 7], 1);
        assert_eq!((outcome.removed, outcome.edges_added), (2, 2));
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
