//! Benchmarks of sharded overlay construction and partitioned wave repair
//! — the build-bound hot path of the `scale` scenario at 10^4–10^6 nodes.
//!
//! `sequential_build_n*` runs the global pairing model
//! (`DdsrOverlay::new_regular`); `sharded_build_n*` runs the per-shard
//! pairing model over a 64-shard grid with the deterministic
//! ascending-shard merge (`new_regular_sharded`). `sharded_wave_n*`
//! removes a 5% wave through `remove_nodes_sharded`, the overlay's one
//! wave API (each shard rebuilds its affected survivors' lists into a
//! frozen arena, plans their prunes against it and writes each list back
//! once). Both sharded paths honor the ambient thread budget,
//! which defaults to 1 — on a single-core host the comparison shows the
//! batched-repair and shard-locality win alone. Medians
//! for n ∈ {10^4, 10^5} are recorded in `BENCH_overlay_shard.json` at the
//! repository root; the 10^6 row is measured end-to-end through the
//! `scale` scenario wall time recorded there too.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use onion_graph::graph::NodeId;
use onionbots_core::shard::{ShardGrid, DEFAULT_SHARDS};
use onionbots_core::{DdsrConfig, DdsrOverlay};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIZES: [usize; 2] = [10_000, 100_000];
const DEGREE: usize = 10;
const WAVE_FRAC: f64 = 0.05;

fn bench_overlay_shard(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlay_shard");
    for &n in &SIZES {
        let grid = ShardGrid::new(n, DEGREE, DEFAULT_SHARDS);
        group.bench_function(format!("sequential_build_n{n}"), |b| {
            b.iter_batched(
                || StdRng::seed_from_u64(42),
                |mut rng| {
                    DdsrOverlay::new_regular(n, DEGREE, DdsrConfig::for_degree(DEGREE), &mut rng)
                },
                BatchSize::LargeInput,
            );
        });
        group.bench_function(format!("sharded_build_n{n}"), |b| {
            b.iter_batched(
                || StdRng::seed_from_u64(42),
                |mut rng| {
                    DdsrOverlay::new_regular_sharded(
                        n,
                        DEGREE,
                        DdsrConfig::for_degree(DEGREE),
                        &grid,
                        &mut rng,
                    )
                },
                BatchSize::LargeInput,
            );
        });

        let mut rng = StdRng::seed_from_u64(42);
        let (base, ids) = DdsrOverlay::new_regular_sharded(
            n,
            DEGREE,
            DdsrConfig::for_degree(DEGREE),
            &grid,
            &mut rng,
        );
        let wave = ((n as f64 * WAVE_FRAC) as usize).max(1);
        let victims: Vec<NodeId> = ids.iter().copied().take(wave).collect();
        group.bench_function(format!("sharded_wave_n{n}"), |b| {
            b.iter_batched(
                || (base.clone(), StdRng::seed_from_u64(7)),
                |(mut overlay, mut rng)| {
                    overlay.remove_nodes_sharded(&victims, &grid, &mut rng);
                    overlay
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_overlay_shard);
criterion_main!(benches);
