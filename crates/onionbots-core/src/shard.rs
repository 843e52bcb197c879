//! Sharded overlay construction and partitioned wave repair.
//!
//! The 10⁶-node `scale` part is dominated by DDSR overlay *construction*
//! and *batched takedown repair*, not by metric sweeps — so this module
//! parallelizes both across a **fixed logical shard grid**: a
//! [`ShardGrid`] cuts the NodeId space into disjoint contiguous ranges,
//! and every parallel phase assigns work to shards, never to threads.
//! Each phase hands its shard indices to [`map_in_order`] on at most
//! [`thread_budget`] workers, which returns the results by shard index;
//! each shard's work is a pure function of the grid, the frozen graph
//! state and the shard's own RNG stream, and cross-shard effects are
//! either applied by one sequential pass in a fixed order (the build's
//! merge) or made order-free (the wave's drop marks) — so the result is
//! **byte-identical at any worker-thread count**.
//!
//! # The sanctioned RNG-splitting idiom
//!
//! Per-shard streams are split from the part RNG the same way part seeds
//! are split from the base seed (see `sim::scenario_api::part_seed`):
//! draw **one** `u64` from the sequential part stream, then derive one
//! independent seed per shard with [`shard_stream_seed`] —
//!
//! ```
//! use onionbots_core::shard::shard_stream_seed;
//! use rand::rngs::StdRng;
//! use rand::{RngCore, SeedableRng};
//!
//! let mut part_rng = StdRng::seed_from_u64(2015);
//! let base = part_rng.next_u64(); // ONE draw on the sequential stream
//! let mut shard_rngs: Vec<StdRng> = (0..4)
//!     .map(|s| StdRng::seed_from_u64(shard_stream_seed(base, s)))
//!     .collect();
//! # let _ = &mut shard_rngs;
//! ```
//!
//! Never hand the part RNG itself to a parallel phase (which thread
//! advances it first would leak into the stream), and never seed a shard
//! from wall-clock or OS entropy (detlint rule D002 rejects both on this
//! path). The shard index — not the worker index — keys the derived
//! stream, which is exactly why the thread count cannot change output.
//!
//! Construction runs the same pairing model as
//! [`random_regular`]
//! independently per shard (a single shard degenerates to it exactly),
//! assembles the per-shard blocks in ascending shard order, and then
//! stitches shards together with degree-preserving edge swaps from a
//! dedicated merge stream — the assembled overlay is still exactly
//! `k`-regular. Wave repair ([`sharded_wave_repair`]) rebuilds each
//! affected survivor's list into a frozen per-shard arena, plans every
//! shard's prune against that frozen view, marks both halves of each drop
//! and then writes each affected list into the slab once (through
//! [`Graph::repair_wave`]). A shard marks halves in other shards' arenas
//! too, so the marks are flags that are only ever set: whichever shard
//! sets a flag first, it ends set, and a drop planned by both of its
//! ends sets the same two flags. Only the few drops whose far end the
//! wave did not touch are removed sequentially, and their order cannot
//! matter: each removes one entry from a list no other step writes.

use onion_graph::budget::{map_in_order, thread_budget};
use onion_graph::generators::random_regular;
pub use onion_graph::graph::WaveOutcome;
use onion_graph::graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::config::DdsrConfig;
use crate::maintenance::plan_prune;

/// Default number of logical shards. The grid — not the machine — defines
/// the RNG streams, so this stays fixed across hosts; 64 shards keep
/// every plausible thread budget saturated while leaving shards at
/// 10⁶ nodes large enough (~15.6k nodes) for good pairing-model locality.
pub const DEFAULT_SHARDS: usize = 64;

/// Populations below this threshold default to a **single shard**: the
/// sequential mixing-swap merge pass dominates small graphs (measured
/// 0.79× at n=10⁴ single-core, `BENCH_overlay_shard.json`) while the
/// grid's cache-locality win only shows from ~10⁵ up (1.76× at n=10⁵) —
/// so quick-scale parts never pay for a merge they cannot amortize. An
/// explicit `shards` override always wins over the gate.
pub const SHARD_GATE_MIN_NODES: usize = 50_000;

/// The default shard count for an `n`-node overlay: [`DEFAULT_SHARDS`]
/// at and above [`SHARD_GATE_MIN_NODES`], one shard below it. With one
/// shard the grid degenerates to the plain sequential pairing model —
/// no merge pass, no per-shard stream split overhead.
pub fn default_shards_for(n: usize) -> usize {
    if n < SHARD_GATE_MIN_NODES {
        1
    } else {
        DEFAULT_SHARDS
    }
}

/// A fixed partition of the id space `0..n` into disjoint contiguous
/// NodeId ranges — the unit of parallel construction, repair partitioning
/// and (eventually) multi-host distribution.
///
/// The grid guarantees every shard can host the pairing model on its own:
/// each range holds strictly more than `k` nodes and, when `k` is odd, an
/// even node count (so `len * k` is even per shard). A requested shard
/// count that would violate either constraint is clamped down; `new`
/// never fails for inputs `random_regular` itself accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardGrid {
    /// Range cut points: shard `s` owns ids `bounds[s]..bounds[s + 1]`.
    /// Always ascending with `bounds[0] == 0`.
    bounds: Vec<usize>,
}

impl ShardGrid {
    /// Builds the grid for `n` nodes of target degree `k`, aiming for
    /// `requested` shards (clamped as documented on the type).
    ///
    /// # Panics
    /// Panics if `n * k` is odd or `k >= n` — the same preconditions as
    /// [`random_regular`], checked here so a bad grid fails before any
    /// shard does.
    pub fn new(n: usize, k: usize, requested: usize) -> ShardGrid {
        assert!(k < n, "degree must be smaller than the node count");
        assert!(
            (n * k).is_multiple_of(2),
            "n * k must be even for a k-regular graph"
        );
        // Work in indivisible "units": single nodes when k is even, node
        // *pairs* when k is odd (so every shard size times k stays even).
        let unit = if k.is_multiple_of(2) { 1 } else { 2 };
        let units = n / unit;
        // Each shard needs > k nodes, i.e. at least k + 1 (rounded up to
        // whole units).
        let min_units = (k + unit) / unit; // ceil((k + 1) / unit)
        let max_shards = (units / min_units).max(1);
        let shards = requested.clamp(1, max_shards);
        let per_shard = units / shards;
        let remainder = units % shards;
        let mut bounds = Vec::with_capacity(shards + 1);
        let mut cursor = 0usize;
        bounds.push(0);
        for s in 0..shards {
            cursor += (per_shard + usize::from(s < remainder)) * unit;
            bounds.push(cursor);
        }
        // `units * unit` can undershoot n by one node when k is odd and n
        // is odd — impossible here because n * k even with k odd forces n
        // even — but fold any rounding into the last shard defensively.
        *bounds.last_mut().expect("at least one shard") = n;
        ShardGrid { bounds }
    }

    /// Number of shards in the grid.
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The ascending range cut points (`shards() + 1` entries, first `0`,
    /// last `n`) — the partition handed to [`Graph::repair_wave`].
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// The id range shard `s` owns.
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }

    /// The shard owning `id`. Ids at or past the grid's end clamp into
    /// the last shard, so nodes added after construction still have a
    /// deterministic owner.
    pub fn owner(&self, id: NodeId) -> usize {
        self.bounds[1..self.bounds.len() - 1].partition_point(|&cut| cut <= id.index())
    }
}

/// Splits one drawn base value into the seed of shard `s`'s stream —
/// SplitMix64-style finalization over `(base, s)`, the same mixing
/// discipline `sim::scenario_api::part_seed` uses to split part streams
/// from the base seed. Shard index `shards()` (one past the last shard) is
/// reserved for the construction merge stream.
pub fn shard_stream_seed(base: u64, shard: usize) -> u64 {
    let mut z = base ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a random `k`-regular graph on `n` nodes across `grid`, fanned
/// over at most [`thread_budget`] worker threads.
///
/// Each shard runs the pairing model on its own range with its own
/// stream; the per-shard blocks are assembled in ascending shard order;
/// and a sequential merge pass stitches shards with degree-preserving
/// edge swaps (ring stitching between consecutive shards first, then
/// global mixing swaps), so the result is exactly `k`-regular and
/// byte-identical at any thread count. With a single-shard grid the merge
/// pass is empty and the result equals `random_regular` run on the
/// derived shard-0 stream.
///
/// # Panics
/// Panics if the grid does not cover exactly `0..n`.
pub fn build_sharded_regular<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    grid: &ShardGrid,
    rng: &mut R,
) -> (Graph, Vec<NodeId>) {
    assert_eq!(
        grid.bounds().last().copied(),
        Some(n),
        "grid must cover exactly 0..n"
    );
    let base = rng.next_u64(); // the ONE draw on the caller's stream
    let shards = grid.shards();
    let blocks = map_in_order(
        (0..shards).collect(),
        thread_budget(),
        || (),
        |_, s| {
            let len = grid.range(s).len();
            let mut shard_rng = StdRng::seed_from_u64(shard_stream_seed(base, s));
            random_regular(len, k, &mut shard_rng).0
        },
    );
    let mut graph = Graph::assemble(blocks);
    if shards > 1 {
        let mut merge_rng = StdRng::seed_from_u64(shard_stream_seed(base, shards));
        stitch_shards(&mut graph, grid, k, &mut merge_rng);
    }
    let ids = (0..n).map(NodeId::new).collect();
    (graph, ids)
}

/// Degree-preserving cross-shard stitching: ring swaps between each pair
/// of consecutive shards guarantee the shard chain is connected whenever
/// every shard block is, then `n / 4` global mixing swaps spread
/// cross-shard edges everywhere. Every swap removes edges `(u, x)` and
/// `(v, y)` and adds `(u, v)` and `(x, y)` — degrees never change, so the
/// graph stays exactly `k`-regular. Attempts that would create a self
/// loop or a parallel edge are skipped deterministically.
fn stitch_shards(graph: &mut Graph, grid: &ShardGrid, k: usize, rng: &mut StdRng) {
    let shards = grid.shards();
    let n = grid.bounds()[shards];
    // Ring stitching: aim for k successful swaps between shards s and
    // s + 1 (wrapping), bounded retries so a pathological shard cannot
    // loop forever.
    for s in 0..shards {
        let next = (s + 1) % shards;
        if next == s {
            break;
        }
        let mut done = 0usize;
        let mut attempts = 0usize;
        while done < k && attempts < 8 * k {
            attempts += 1;
            if try_swap(
                graph,
                pick_in(grid.range(s), rng),
                pick_in(grid.range(next), rng),
                rng,
            ) {
                done += 1;
            }
        }
    }
    // Global mixing: each swap picks two uniform nodes anywhere. Half a
    // swap attempt per node relocates roughly one incident edge endpoint
    // per node in expectation — enough to pull the shard-local blocks
    // toward random-regular expansion (the §V wholeness bar) while
    // keeping the sequential merge pass a small fraction of build time.
    let mixing = n / 2;
    for _ in 0..mixing {
        let u = NodeId::new(rng.gen_range(0..n));
        let v = NodeId::new(rng.gen_range(0..n));
        try_swap(graph, u, v, rng);
    }
}

/// A uniformly random node inside `range` (all construction-time ids are
/// live, so a plain index draw suffices).
fn pick_in(range: std::ops::Range<usize>, rng: &mut StdRng) -> NodeId {
    NodeId::new(rng.gen_range(range))
}

/// Attempts one degree-preserving swap rooted at `u` and `v`: picks a
/// random neighbor of each and rewires `(u, x), (v, y)` into
/// `(u, v), (x, y)`. Returns `false` (leaving the graph untouched) when
/// the four endpoints are not distinct or either new edge already exists.
fn try_swap(graph: &mut Graph, u: NodeId, v: NodeId, rng: &mut StdRng) -> bool {
    if u == v {
        return false;
    }
    let Some(&x) = graph.neighbors(u).and_then(|list| list.choose(rng)) else {
        return false;
    };
    let Some(&y) = graph.neighbors(v).and_then(|list| list.choose(rng)) else {
        return false;
    };
    if x == y || x == v || y == u {
        return false;
    }
    if graph.has_edge(u, v) || graph.has_edge(x, y) {
        return false;
    }
    graph.remove_edge(u, x);
    graph.remove_edge(v, y);
    graph.add_edge(u, v);
    graph.add_edge(x, y);
    true
}

/// Removes one takedown wave with shard-partitioned repair and pruning.
///
/// All victims die before any repair runs, and each affected survivor is
/// pruned once; with pruning off and no two victims adjacent, the result
/// equals sequential
/// [`remove_node_with_repair`](crate::overlay::DdsrOverlay::remove_node_with_repair)
/// calls. The wave is one [`Graph::repair_wave`] call over the grid's
/// ranges, which writes every affected list once in five phases:
///
/// 1. **Takedown** (sequential): the victims' lists come out of the slab,
///    and each survivor-victim edge is bucketed by the survivor's shard.
/// 2. **Frozen rebuild** (parallel by shard, slab read-only): each shard
///    writes the repaired list of every affected survivor it owns — its
///    old list minus the victims, joined with each adjacent victim's
///    former list — into its own arena, so every pair of a victim's
///    surviving former neighbors ends up adjacent.
/// 3. **Plan and mark** (parallel by shard): each shard walks its affected
///    survivors in ascending id order with its own stream split from the
///    wave base via [`shard_stream_seed`], planning each one's drops with
///    the per-victim pass's planner (`maintenance::plan_prune`) against
///    the **frozen** repaired degrees. Unlike the per-victim pass, one
///    survivor's drops do not lower the degree another survivor sees — a
///    documented divergence that keeps shards independent; each node
///    still sheds enough edges on its own to return to `d_max`. Both
///    halves of every drop are marked by flags that are only ever set, so
///    the marks, and the graph, do not depend on which shard marks first.
/// 4. **Write once** (parallel by shard): each affected list becomes its
///    frozen list minus its marked entries. With pruning on, that list is
///    at most `d_max` long.
/// 5. **Fix-up** (sequential): the halves that belong to nodes the wave
///    did not affect are removed; a drop both endpoints planned is
///    counted once.
///
/// With pruning off nothing is planned, and phase 4 writes the frozen
/// lists as they are.
///
/// The wave advances the caller's RNG by exactly one `u64` draw, and all
/// parallel work is keyed by shard — output is byte-identical at any
/// thread count.
pub fn sharded_wave_repair<R: Rng + ?Sized>(
    graph: &mut Graph,
    config: &DdsrConfig,
    victims: &[NodeId],
    grid: &ShardGrid,
    rng: &mut R,
) -> WaveOutcome {
    let wave_base = rng.next_u64(); // the ONE draw on the caller's stream
    graph.repair_wave(
        victims,
        grid.bounds(),
        thread_budget(),
        Vec::new,
        |peers, s, frozen, drop| {
            if !config.pruning {
                return;
            }
            let mut shard_rng = StdRng::seed_from_u64(shard_stream_seed(wave_base, s));
            for &u in frozen.survivors(s) {
                plan_prune(
                    frozen.neighbors(u),
                    |p| frozen.degree(p),
                    config.d_max,
                    peers,
                    &mut shard_rng,
                    |v| drop(u, v),
                );
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::DdsrOverlay;
    use onion_graph::budget::with_thread_budget;
    use onion_graph::components::{is_connected, largest_component_size};
    use rand::RngCore;

    #[test]
    fn grid_covers_the_id_space_with_feasible_shards() {
        for (n, k, requested) in [
            (1_000usize, 10usize, 16usize),
            (1_000, 10, 64),
            (1_000, 9, 64), // odd degree forces even shard sizes
            (64, 10, 64),   // clamped hard: shards need > k nodes
            (20, 3, 7),
            (1_000, 10, 1),
        ] {
            let grid = ShardGrid::new(n, k, requested);
            let bounds = grid.bounds();
            assert_eq!(bounds[0], 0, "n={n} k={k}");
            assert_eq!(*bounds.last().unwrap(), n);
            assert!(grid.shards() <= requested.max(1));
            for s in 0..grid.shards() {
                let range = grid.range(s);
                assert!(range.len() > k, "shard {s} too small for k={k}");
                assert!(
                    (range.len() * k).is_multiple_of(2),
                    "shard {s} breaks pairing-model parity at k={k}"
                );
                for id in range.clone() {
                    assert_eq!(grid.owner(NodeId::new(id)), s);
                }
            }
        }
    }

    #[test]
    fn default_shard_count_is_gated_on_the_population() {
        // Below the gate the sharded build's sequential merge pass costs
        // more than it saves (0.79x at n=10^4, BENCH_overlay_shard.json),
        // so small overlays default to the plain pairing model.
        assert_eq!(default_shards_for(10_000), 1);
        assert_eq!(default_shards_for(30_000), 1);
        assert_eq!(default_shards_for(SHARD_GATE_MIN_NODES - 1), 1);
        assert_eq!(default_shards_for(SHARD_GATE_MIN_NODES), DEFAULT_SHARDS);
        assert_eq!(default_shards_for(100_000), DEFAULT_SHARDS);
        assert_eq!(default_shards_for(1_000_000), DEFAULT_SHARDS);
    }

    #[test]
    fn owner_clamps_ids_past_the_grid() {
        let grid = ShardGrid::new(100, 4, 5);
        assert_eq!(grid.owner(NodeId::new(99)), grid.shards() - 1);
        assert_eq!(
            grid.owner(NodeId::new(10_000)),
            grid.shards() - 1,
            "post-construction ids fall into the last shard"
        );
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn grid_rejects_odd_total_degree() {
        ShardGrid::new(5, 3, 2);
    }

    #[test]
    fn shard_stream_seeds_are_distinct_and_stable() {
        let a = shard_stream_seed(7, 0);
        assert_eq!(a, shard_stream_seed(7, 0));
        assert_ne!(a, shard_stream_seed(7, 1));
        assert_ne!(a, shard_stream_seed(8, 0));
    }

    #[test]
    fn single_shard_construction_equals_the_sequential_pairing_model() {
        use rand::rngs::StdRng;
        let grid = ShardGrid::new(300, 8, 1);
        let mut rng = StdRng::seed_from_u64(99);
        let base_probe = {
            let mut clone = StdRng::seed_from_u64(99);
            clone.next_u64()
        };
        let (sharded, ids) = build_sharded_regular(300, 8, &grid, &mut rng);
        let mut derived = StdRng::seed_from_u64(shard_stream_seed(base_probe, 0));
        let (sequential, _) = random_regular(300, 8, &mut derived);
        assert_eq!(sharded, sequential, "one shard must be the pairing model");
        assert_eq!(ids.len(), 300);
    }

    #[test]
    fn sharded_construction_is_regular_connected_and_thread_invariant() {
        use rand::rngs::StdRng;
        let grid = ShardGrid::new(2_000, 10, 64);
        let build = |budget: usize| {
            with_thread_budget(budget, || {
                let mut rng = StdRng::seed_from_u64(5);
                build_sharded_regular(2_000, 10, &grid, &mut rng).0
            })
        };
        let reference = build(1);
        reference.check_invariants().unwrap();
        assert_eq!(reference.node_count(), 2_000);
        for id in 0..2_000 {
            assert_eq!(
                reference.degree(NodeId::new(id)),
                Some(10),
                "exactly k-regular"
            );
        }
        assert!(is_connected(&reference), "stitching connects the shards");
        for budget in [2usize, 8, 64] {
            assert_eq!(build(budget), reference, "budget={budget}");
        }
    }

    #[test]
    fn sharded_wave_repair_is_thread_invariant_and_respects_d_max() {
        use rand::rngs::StdRng;
        let k = 10usize;
        let grid = ShardGrid::new(1_500, k, 32);
        let config = DdsrConfig::for_degree(k);
        let run = |budget: usize| {
            with_thread_budget(budget, || {
                let mut rng = StdRng::seed_from_u64(17);
                let (mut graph, ids) = build_sharded_regular(1_500, k, &grid, &mut rng);
                let victims: Vec<NodeId> = ids.choose_multiple(&mut rng, 150).copied().collect();
                let outcome = sharded_wave_repair(&mut graph, &config, &victims, &grid, &mut rng);
                (graph, outcome)
            })
        };
        let (reference, outcome) = run(1);
        reference.check_invariants().unwrap();
        assert_eq!(outcome.removed, 150);
        assert!(outcome.edges_added > 0);
        assert!(
            reference.max_degree() <= config.d_max,
            "reconciled pruning must enforce d_max (got {})",
            reference.max_degree()
        );
        // The §V bar: self-healing holds the overlay essentially whole
        // (pruning may orphan a handful of nodes, exactly as in the
        // sequential protocol).
        let frac = largest_component_size(&reference) as f64 / reference.node_count() as f64;
        assert!(frac > 0.99, "wave repair keeps DDSR whole (frac={frac})");
        for budget in [2usize, 8] {
            let (graph, o) = run(budget);
            assert_eq!(graph, reference, "budget={budget}");
            assert_eq!(o, outcome, "budget={budget}");
        }
    }

    #[test]
    fn sharded_wave_repair_skips_dead_victims_and_advances_one_draw() {
        use rand::rngs::StdRng;
        let grid = ShardGrid::new(400, 6, 8);
        let config = DdsrConfig::for_degree(6);
        let mut rng = StdRng::seed_from_u64(3);
        let (mut graph, ids) = build_sharded_regular(400, 6, &grid, &mut rng);
        let victims = [ids[0], ids[0], NodeId::new(9_999), ids[1]];
        let before = rng.clone().next_u64();
        let outcome = sharded_wave_repair(&mut graph, &config, &victims, &grid, &mut rng);
        assert_eq!(outcome.removed, 2, "duplicates and ghosts are no-ops");
        // Exactly one u64 was consumed from the caller's stream.
        let mut replay = rng.clone();
        assert_ne!(before, replay.next_u64());
        graph.check_invariants().unwrap();
    }

    #[test]
    fn overlay_fronts_construction_and_wave_repair() {
        use rand::rngs::StdRng;
        let k = 10usize;
        let grid = ShardGrid::new(1_000, k, 16);
        let mut rng = StdRng::seed_from_u64(8);
        let (mut overlay, ids) =
            DdsrOverlay::new_regular_sharded(1_000, k, DdsrConfig::for_degree(k), &grid, &mut rng);
        assert_eq!(overlay.node_count(), 1_000);
        let victims: Vec<NodeId> = ids.iter().copied().take(100).collect();
        assert_eq!(overlay.remove_nodes_sharded(&victims, &grid, &mut rng), 100);
        let stats = overlay.stats();
        assert_eq!(stats.nodes_repaired, 100);
        assert!(stats.edges_added > 0);
        assert!(stats.edges_pruned > 0);
        assert!(overlay.graph().max_degree() <= k);
        let frac = largest_component_size(overlay.graph()) as f64 / overlay.node_count() as f64;
        assert!(frac > 0.99, "overlay stays whole (frac={frac})");
        // Re-removing the same wave is a no-op.
        assert_eq!(overlay.remove_nodes_sharded(&victims, &grid, &mut rng), 0);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;

        /// The wave pipeline [`sharded_wave_repair`] replaced, kept as its
        /// oracle: the repair built edge by edge (`remove_node` on each
        /// victim, then `add_edge` on every pair of each one's former
        /// neighbors — the graph the old rebuild was pinned to), each
        /// shard's affected survivors planned in ascending order on the
        /// shard's stream against that graph frozen, and every drop
        /// applied by one `remove_edge` in ascending shard order.
        fn sequential_wave(
            graph: &mut Graph,
            config: &DdsrConfig,
            victims: &[NodeId],
            grid: &ShardGrid,
            rng: &mut StdRng,
        ) -> WaveOutcome {
            let wave_base = rng.next_u64();
            let neighborhoods: Vec<Vec<NodeId>> = victims
                .iter()
                .filter_map(|&v| graph.remove_node(v))
                .collect();
            let mut outcome = WaveOutcome {
                removed: neighborhoods.len(),
                ..WaveOutcome::default()
            };
            for former in &neighborhoods {
                for (i, &a) in former.iter().enumerate() {
                    for &b in &former[i + 1..] {
                        outcome.edges_added += u64::from(graph.add_edge(a, b));
                    }
                }
            }
            if !config.pruning {
                return outcome;
            }
            let mut survivors: Vec<NodeId> = neighborhoods
                .into_iter()
                .flatten()
                .filter(|&u| graph.contains(u))
                .collect();
            survivors.sort_unstable();
            survivors.dedup();
            let frozen = graph.clone();
            let (mut peers, mut drops) = (Vec::new(), Vec::new());
            for s in 0..grid.shards() {
                let mut shard_rng = StdRng::seed_from_u64(shard_stream_seed(wave_base, s));
                for &u in survivors.iter().filter(|&&u| grid.owner(u) == s) {
                    let neighbors = frozen.neighbors(u).unwrap();
                    let degree = |p| frozen.degree(p).unwrap_or(0);
                    plan_prune(
                        neighbors,
                        degree,
                        config.d_max,
                        &mut peers,
                        &mut shard_rng,
                        |v| drops.push((u, v)),
                    );
                }
            }
            for (u, v) in drops {
                outcome.edges_pruned += u64::from(graph.remove_edge(u, v));
            }
            outcome
        }

        /// The id-width oracle: the adjacency as sorted `usize` lists
        /// (`None` for a removed node), the width ids had before they
        /// became `u32`. Its builders and wave repeat the graph core's
        /// draws with every drawn index a `usize`, so a draw whose integer
        /// type followed the id type would show as a different list or a
        /// different next `u64`.
        #[derive(Debug, PartialEq)]
        struct Wide(Vec<Option<Vec<usize>>>);

        impl Wide {
            fn of(graph: &Graph) -> Wide {
                Wide(
                    (0..graph.id_bound())
                        .map(|i| {
                            let list = graph.neighbors(NodeId::new(i))?;
                            Some(list.iter().map(|v| v.index()).collect())
                        })
                        .collect(),
                )
            }

            fn list(&self, a: usize) -> Option<&Vec<usize>> {
                self.0.get(a)?.as_ref()
            }

            fn has_edge(&self, a: usize, b: usize) -> bool {
                self.list(a).is_some_and(|l| l.binary_search(&b).is_ok())
            }

            fn add_edge(&mut self, a: usize, b: usize) -> bool {
                if a == b || self.list(a).is_none() || self.list(b).is_none() || self.has_edge(a, b)
                {
                    return false;
                }
                for (x, y) in [(a, b), (b, a)] {
                    let list = self.0[x].as_mut().unwrap();
                    let pos = list.binary_search(&y).unwrap_err();
                    list.insert(pos, y);
                }
                true
            }

            fn remove_edge(&mut self, a: usize, b: usize) -> bool {
                if !self.has_edge(a, b) {
                    return false;
                }
                for (x, y) in [(a, b), (b, a)] {
                    let list = self.0[x].as_mut().unwrap();
                    let pos = list.binary_search(&y).unwrap();
                    list.remove(pos);
                }
                true
            }

            fn remove_node(&mut self, a: usize) -> Option<Vec<usize>> {
                let list = self.0.get_mut(a)?.take()?;
                for &b in &list {
                    let other = self.0[b].as_mut().unwrap();
                    let pos = other.binary_search(&a).unwrap();
                    other.remove(pos);
                }
                Some(list)
            }

            /// `random_regular`'s pairing model on `offset..offset + n`.
            fn regular_block(&mut self, offset: usize, n: usize, k: usize, rng: &mut StdRng) {
                let base = self.0.len();
                'restart: loop {
                    self.0.truncate(base);
                    self.0.resize(base + n, Some(Vec::new()));
                    let mut stubs: Vec<usize> = (0..n)
                        .flat_map(|i| std::iter::repeat_n(offset + i, k))
                        .collect();
                    stubs.shuffle(rng);
                    let mut stalled = 0usize;
                    while !stubs.is_empty() {
                        if stalled > 200 {
                            continue 'restart;
                        }
                        let i = rng.gen_range(0..stubs.len());
                        let j = rng.gen_range(0..stubs.len());
                        if i == j || !self.add_edge(stubs[i], stubs[j]) {
                            stalled += 1;
                            continue;
                        }
                        stalled = 0;
                        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
                        stubs.swap_remove(hi);
                        stubs.swap_remove(lo);
                    }
                    return;
                }
            }

            /// `build_sharded_regular`, stitching included.
            fn sharded(n: usize, k: usize, grid: &ShardGrid, rng: &mut StdRng) -> Wide {
                let base = rng.next_u64();
                let mut wide = Wide(Vec::new());
                for s in 0..grid.shards() {
                    let mut shard_rng = StdRng::seed_from_u64(shard_stream_seed(base, s));
                    wide.regular_block(grid.range(s).start, grid.range(s).len(), k, &mut shard_rng);
                }
                if grid.shards() == 1 {
                    return wide;
                }
                let mut merge = StdRng::seed_from_u64(shard_stream_seed(base, grid.shards()));
                for s in 0..grid.shards() {
                    let next = (s + 1) % grid.shards();
                    let (mut done, mut attempts) = (0usize, 0usize);
                    while done < k && attempts < 8 * k {
                        attempts += 1;
                        let u = merge.gen_range(grid.range(s));
                        let v = merge.gen_range(grid.range(next));
                        done += usize::from(wide.swap(u, v, &mut merge));
                    }
                }
                for _ in 0..n / 2 {
                    let u = merge.gen_range(0..n);
                    let v = merge.gen_range(0..n);
                    wide.swap(u, v, &mut merge);
                }
                wide
            }

            /// `try_swap`.
            fn swap(&mut self, u: usize, v: usize, rng: &mut StdRng) -> bool {
                if u == v {
                    return false;
                }
                let Some(&x) = self.list(u).and_then(|l| l.choose(rng)) else {
                    return false;
                };
                let Some(&y) = self.list(v).and_then(|l| l.choose(rng)) else {
                    return false;
                };
                if x == y || x == v || y == u || self.has_edge(u, v) || self.has_edge(x, y) {
                    return false;
                }
                self.remove_edge(u, x);
                self.remove_edge(v, y);
                self.add_edge(u, v);
                self.add_edge(x, y);
                true
            }

            /// [`sequential_wave`] on the wide lists; the planner sees
            /// each frozen list as ids, and draws only by its length.
            fn wave(
                &mut self,
                config: &DdsrConfig,
                victims: &[usize],
                grid: &ShardGrid,
                rng: &mut StdRng,
            ) {
                let wave_base = rng.next_u64();
                let former: Vec<Vec<usize>> = victims
                    .iter()
                    .filter_map(|&v| self.remove_node(v))
                    .collect();
                for list in &former {
                    for (i, &a) in list.iter().enumerate() {
                        for &b in &list[i + 1..] {
                            self.add_edge(a, b);
                        }
                    }
                }
                if !config.pruning {
                    return;
                }
                let mut survivors: Vec<usize> = former
                    .into_iter()
                    .flatten()
                    .filter(|&u| self.list(u).is_some())
                    .collect();
                survivors.sort_unstable();
                survivors.dedup();
                let frozen: Vec<Option<Vec<NodeId>>> = self
                    .0
                    .iter()
                    .map(|l| Some(l.as_ref()?.iter().map(|&v| NodeId::new(v)).collect()))
                    .collect();
                let (mut peers, mut drops) = (Vec::new(), Vec::new());
                for s in 0..grid.shards() {
                    let mut shard_rng = StdRng::seed_from_u64(shard_stream_seed(wave_base, s));
                    for &u in survivors
                        .iter()
                        .filter(|&&u| grid.owner(NodeId::new(u)) == s)
                    {
                        plan_prune(
                            frozen[u].as_deref().unwrap(),
                            |p| frozen[p.index()].as_ref().map_or(0, Vec::len),
                            config.d_max,
                            &mut peers,
                            &mut shard_rng,
                            |v| drops.push((u, v.index())),
                        );
                    }
                }
                for (u, v) in drops {
                    self.remove_edge(u, v);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// The shards=1 pin, property-tested: for any feasible (n, k,
            /// seed) the single-shard sharded build equals `random_regular`
            /// on the derived shard-0 stream — today's sequential
            /// construction, addressed through the splitting discipline.
            #[test]
            fn single_shard_equals_sequential_stream(
                seed in 0u64..10_000,
                n in 20usize..200,
                k in 3usize..8,
            ) {
                prop_assume!((n * k).is_multiple_of(2));
                let grid = ShardGrid::new(n, k, 1);
                let mut rng = StdRng::seed_from_u64(seed);
                let base = {
                    let mut clone = StdRng::seed_from_u64(seed);
                    clone.next_u64()
                };
                let (sharded, _) = build_sharded_regular(n, k, &grid, &mut rng);
                let (sequential, _) =
                    random_regular(n, k, &mut StdRng::seed_from_u64(shard_stream_seed(base, 0)));
                prop_assert_eq!(sharded, sequential);
            }

            /// 32-bit ids change no draw: `random_regular`, the sharded
            /// build and one wave, pruning on and off, build the same
            /// lists as the [`Wide`] oracle and leave the RNG at the same
            /// next `u64`.
            #[test]
            fn generators_and_wave_match_the_usize_oracle(
                seed in 0u64..10_000,
                n in 20usize..160,
                k in 3usize..8,
                shards in 1usize..6,
                wave in 1usize..30,
            ) {
                prop_assume!((n * k).is_multiple_of(2));
                let mut rng = StdRng::seed_from_u64(seed);
                let mut oracle_rng = rng.clone();
                let (graph, _) = random_regular(n, k, &mut rng);
                let mut wide = Wide(Vec::new());
                wide.regular_block(0, n, k, &mut oracle_rng);
                prop_assert_eq!(Wide::of(&graph), wide);
                prop_assert_eq!(rng.clone().next_u64(), oracle_rng.clone().next_u64());

                let grid = ShardGrid::new(n, k, shards);
                let (mut graph, ids) = build_sharded_regular(n, k, &grid, &mut rng);
                let mut wide = Wide::sharded(n, k, &grid, &mut oracle_rng);
                prop_assert_eq!(Wide::of(&graph), Wide(wide.0.clone()));
                prop_assert_eq!(rng.clone().next_u64(), oracle_rng.clone().next_u64());

                let victims: Vec<NodeId> = ids.choose_multiple(&mut rng, wave.min(n)).copied().collect();
                let wide_victims: Vec<usize> = victims.iter().map(|v| v.index()).collect();
                oracle_rng = rng.clone();
                let config = DdsrConfig { d_max: k, pruning: seed % 2 == 0 };
                sharded_wave_repair(&mut graph, &config, &victims, &grid, &mut rng);
                wide.wave(&config, &wide_victims, &grid, &mut oracle_rng);
                prop_assert_eq!(Wide::of(&graph), wide);
                prop_assert_eq!(rng.next_u64(), oracle_rng.next_u64());
            }

            /// Any grid yields an exactly k-regular graph whose bytes do
            /// not depend on the worker-thread budget.
            #[test]
            fn construction_is_regular_at_any_budget(
                seed in 0u64..1_000,
                shards in 1usize..12,
            ) {
                let (n, k) = (240usize, 6usize);
                let grid = ShardGrid::new(n, k, shards);
                let build = |budget: usize| {
                    with_thread_budget(budget, || {
                        let mut rng = StdRng::seed_from_u64(seed);
                        build_sharded_regular(n, k, &grid, &mut rng).0
                    })
                };
                let graph = build(1);
                graph.check_invariants().unwrap();
                for id in 0..n {
                    prop_assert_eq!(graph.degree(NodeId::new(id)), Some(k));
                }
                prop_assert_eq!(build(4), graph);
            }

            /// The wave kernel equals the [`sequential_wave`] oracle — the
            /// same graph, the same outcome and the caller's RNG at the
            /// same position — with pruning on and off, on 1 to 8 shards
            /// and thread budgets 1 to 4. The base graphs are churned
            /// first: extra edges push some nodes above `d_max` going in,
            /// tombstones leave dead ids, and the victim list repeats ids
            /// and names dead ones.
            #[test]
            fn wave_kernel_equals_the_sequential_pipeline(
                seed in 0u64..10_000,
                shards in 1usize..9,
                extra in 0usize..60,
                dead in 0usize..12,
                wave in 1usize..40,
            ) {
                let (n, k) = (160usize, 6usize);
                let grid = ShardGrid::new(n, k, shards);
                let mut rng = StdRng::seed_from_u64(seed);
                let (mut base, ids) = build_sharded_regular(n, k, &grid, &mut rng);
                for _ in 0..extra {
                    base.add_edge(*ids.choose(&mut rng).unwrap(), *ids.choose(&mut rng).unwrap());
                }
                for _ in 0..dead {
                    base.remove_node(*ids.choose(&mut rng).unwrap());
                }
                let mut victims: Vec<NodeId> = (0..wave).map(|_| *ids.choose(&mut rng).unwrap()).collect();
                victims.push(NodeId::new(n + 5));
                for pruning in [true, false] {
                    let config = DdsrConfig { d_max: k, pruning };
                    let mut oracle = base.clone();
                    let mut oracle_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
                    let expected = sequential_wave(&mut oracle, &config, &victims, &grid, &mut oracle_rng);
                    for budget in 1usize..=4 {
                        let mut graph = base.clone();
                        let mut wave_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
                        let outcome = with_thread_budget(budget, || {
                            sharded_wave_repair(&mut graph, &config, &victims, &grid, &mut wave_rng)
                        });
                        prop_assert_eq!(outcome, expected, "pruning={} budget={}", pruning, budget);
                        prop_assert_eq!(&graph, &oracle, "pruning={} budget={}", pruning, budget);
                        prop_assert_eq!(wave_rng.next_u64(), oracle_rng.clone().next_u64());
                        prop_assert!(graph.check_invariants().is_ok());
                    }
                }
            }
        }
    }
}
