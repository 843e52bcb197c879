//! Sharded overlay construction and partitioned wave repair.
//!
//! The 10⁶-node `scale` part is dominated by DDSR overlay *construction*
//! and *batched takedown repair*, not by metric sweeps — so this module
//! parallelizes both across a **fixed logical shard grid**: a
//! [`ShardGrid`] cuts the NodeId space into disjoint contiguous ranges,
//! and every parallel phase assigns work to shards, never to threads.
//! Worker threads (bounded by [`thread_budget`]) merely *steal shards*;
//! each shard's work is a pure function of the grid, the frozen graph
//! state and the shard's own RNG stream, and cross-shard effects are
//! applied in one sequential ascending-shard reconciliation pass — so the
//! result is **byte-identical at any worker-thread count**.
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
//! `k`-regular. Wave repair partitions the coalesced repair-edge
//! insertions by owning shard (through
//! [`Graph::add_edges_bulk_partitioned`]) and the prune pass by owning
//! shard against frozen degrees, with the actual cross-shard edge
//! removals replayed sequentially in ascending shard/id order.

use onion_graph::budget::thread_budget;
use onion_graph::generators::random_regular;
use onion_graph::graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::config::DdsrConfig;

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

/// Hard ceiling on shard workers, mirroring the BFS kernel's bound: an
/// absurd caller-supplied budget must degrade to "merely pointless", not
/// to a failed thread spawn.
const MAX_SHARD_THREADS: usize = 64;

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
    /// last `n`) — the partition handed to
    /// [`Graph::add_edges_bulk_partitioned`].
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
        self.bounds[1..self.bounds.len() - 1].partition_point(|&cut| cut <= id.0)
    }
}

/// Splits one drawn base value into the seed of shard `s`'s stream —
/// SplitMix64-style finalization over `(base, s)`, the same mixing
/// discipline [`part_seed`](sim-crate) uses to split part streams from
/// the base seed. Shard index `shards()` (one past the last shard) is
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
    let blocks = run_on_shards(shards, |s| {
        let len = grid.range(s).len();
        let mut shard_rng = StdRng::seed_from_u64(shard_stream_seed(base, s));
        random_regular(len, k, &mut shard_rng).0
    });
    let mut graph = Graph::assemble(
        blocks
            .into_iter()
            .map(|block| block.expect("every shard slot is filled")),
    );
    if shards > 1 {
        let mut merge_rng = StdRng::seed_from_u64(shard_stream_seed(base, shards));
        stitch_shards(&mut graph, grid, k, &mut merge_rng);
    }
    let ids = (0..n).map(NodeId).collect();
    (graph, ids)
}

/// Runs `f(shard)` for every shard, stealing shard indices across up to
/// [`thread_budget`] scoped workers, and returns the results in shard
/// order. Output never depends on the worker count: each shard's result
/// lands in its slot by shard index.
fn run_on_shards<T: Send>(shards: usize, f: impl Fn(usize) -> T + Sync) -> Vec<Option<T>> {
    let threads = thread_budget().clamp(1, MAX_SHARD_THREADS).min(shards);
    if threads <= 1 {
        return (0..shards).map(|s| Some(f(s))).collect();
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let s = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if s >= shards {
                            break;
                        }
                        local.push((s, f(s)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(shards).collect();
    for (s, value) in per_worker.into_iter().flatten() {
        out[s] = Some(value);
    }
    out
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
        let u = NodeId(rng.gen_range(0..n));
        let v = NodeId(rng.gen_range(0..n));
        try_swap(graph, u, v, rng);
    }
}

/// A uniformly random node inside `range` (all construction-time ids are
/// live, so a plain index draw suffices).
fn pick_in(range: std::ops::Range<usize>, rng: &mut StdRng) -> NodeId {
    NodeId(rng.gen_range(range))
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

/// Everything one sharded wave changed, for the overlay's stats counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaveOutcome {
    /// Victims actually removed (present before the wave).
    pub removed: usize,
    /// Repair edges inserted by the partitioned bulk pass.
    pub edges_added: u64,
    /// Edges dropped by the reconciled prune pass.
    pub edges_pruned: u64,
}

/// Removes one takedown wave with shard-partitioned repair and pruning.
///
/// All victims die before any repair runs, and each affected survivor is
/// pruned once; with pruning off and no two victims adjacent, the result
/// equals sequential
/// [`remove_node_with_repair`](crate::overlay::DdsrOverlay::remove_node_with_repair)
/// calls. Four phases:
///
/// 1. **Takedown** (sequential): victims are removed and their former
///    neighborhoods collected.
/// 2. **Coalesced repair** (parallel by shard): every pair of a victim's
///    surviving former neighbors becomes a candidate edge; the whole
///    wave's candidates go through one
///    [`Graph::add_edges_bulk_partitioned`] call — per-shard half-edge
///    insertion with one deferred sort per touched list.
/// 3. **Prune planning** (parallel by shard): affected survivors are
///    partitioned by owning shard; each shard walks its nodes in
///    ascending id order with its own stream split from the wave base via
///    [`shard_stream_seed`], choosing victims with
///    `maintenance::prune_victims` against **frozen** post-repair degrees
///    (the graph is read-only during this phase). Highest-degree
///    selection already spares neighbors at or below `d_min` while
///    others remain; there is no separate filter.
///    Unlike the sequential pass, one survivor's drops do not lower the
///    degree another survivor sees — a documented divergence that keeps
///    shards independent; each node still sheds enough edges on its own
///    to return to `d_max`.
/// 4. **Reconciliation** (sequential): planned removals are applied in
///    ascending shard-then-id order; a drop both endpoints planned is
///    applied (and counted) once.
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
    let mut outcome = WaveOutcome::default();

    // Phase 1: takedown.
    let mut neighborhoods: Vec<Vec<NodeId>> = Vec::with_capacity(victims.len());
    for &v in victims {
        if let Some(former) = graph.remove_node(v) {
            outcome.removed += 1;
            neighborhoods.push(former);
        }
    }

    // Phase 2: coalesced repair. Candidate generation is sequential and
    // cheap (the insertions were the hot path); liveness is checked here
    // so the bulk pass sees only valid pairs, and the bulk pass dedupes
    // against both the batch and the existing lists.
    let mut candidates: Vec<(NodeId, NodeId)> = Vec::new();
    for former in &neighborhoods {
        for i in 0..former.len() {
            if !graph.contains(former[i]) {
                continue;
            }
            for j in i + 1..former.len() {
                if graph.contains(former[j]) {
                    candidates.push((former[i], former[j]));
                }
            }
        }
    }
    let threads = thread_budget().clamp(1, MAX_SHARD_THREADS);
    outcome.edges_added =
        graph.add_edges_bulk_partitioned(&candidates, grid.bounds(), threads) as u64;

    // Phases 3 and 4: pruning.
    if config.pruning {
        let mut affected: Vec<NodeId> = neighborhoods
            .into_iter()
            .flatten()
            .filter(|&u| graph.contains(u))
            .collect();
        affected.sort_unstable();
        affected.dedup();
        // Partition the (already ascending) survivors by owning shard.
        let mut by_shard: Vec<Vec<NodeId>> = vec![Vec::new(); grid.shards()];
        for u in affected {
            by_shard[grid.owner(u)].push(u);
        }
        // Phase 3: plan drops per shard against the frozen graph.
        let frozen: &Graph = graph;
        let planned = run_on_shards(grid.shards(), |s| {
            let mut shard_rng = StdRng::seed_from_u64(shard_stream_seed(wave_base, s));
            let mut peers: Vec<(NodeId, usize)> = Vec::new();
            let mut drops: Vec<(NodeId, NodeId)> = Vec::new();
            for &u in &by_shard[s] {
                plan_prune(frozen, config, u, &mut shard_rng, &mut peers, &mut drops);
            }
            drops
        });
        // Phase 4: apply in ascending shard order (plans within a shard
        // are already in ascending node order).
        for drops in planned.into_iter().flatten() {
            for (u, victim) in drops {
                if graph.remove_edge(u, victim) {
                    outcome.edges_pruned += 1;
                }
            }
        }
    }
    outcome
}

/// Plans the prune drops for one survivor against frozen degrees: it
/// sheds its highest-degree neighbors until it is back at `d_max`, with
/// random tie-breaks from the shard stream, through the same
/// [`prune_victims`](crate::maintenance::prune_victims) rule as the
/// sequential pass, except that neighbor degrees are the frozen
/// post-repair ones. Sparing neighbors at or below `d_min` while
/// higher-degree alternatives remain is implied by that rule, not a
/// separate filter. `peers` is scratch space reused across survivors.
fn plan_prune(
    graph: &Graph,
    config: &DdsrConfig,
    u: NodeId,
    rng: &mut StdRng,
    peers: &mut Vec<(NodeId, usize)>,
    out: &mut Vec<(NodeId, NodeId)>,
) {
    let Some(neighbors) = graph.neighbors(u) else {
        return;
    };
    if neighbors.len() <= config.d_max {
        return;
    }
    let drops = neighbors.len() - config.d_max;
    peers.clear();
    peers.extend(neighbors.iter().map(|&v| (v, graph.degree(v).unwrap_or(0))));
    crate::maintenance::prune_victims(peers, drops, rng, |victim| out.push((u, victim)));
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
                    assert_eq!(grid.owner(NodeId(id)), s);
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
        assert_eq!(grid.owner(NodeId(99)), grid.shards() - 1);
        assert_eq!(
            grid.owner(NodeId(10_000)),
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
            assert_eq!(reference.degree(NodeId(id)), Some(10), "exactly k-regular");
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
        let victims = [ids[0], ids[0], NodeId(9_999), ids[1]];
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
                    prop_assert_eq!(graph.degree(NodeId(id)), Some(k));
                }
                prop_assert_eq!(build(4), graph);
            }
        }
    }
}
