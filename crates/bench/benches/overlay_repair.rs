//! Benchmarks of DDSR takedown repair on large overlays — the hot path of
//! every churn experiment (Figures 4–6 and the `scale` scenario).
//!
//! `sequential_takedown_n*` removes 1% of the population one victim at a
//! time (repair + prune after each), the mode the gradual-takedown
//! experiments use. The wave mode the `scale` scenario uses
//! (`remove_nodes_sharded`) is measured by the `overlay_shard` bench.
//! Results for n ∈ {10^4, 10^5} are recorded in `BENCH_graph_core.json` at
//! the repository root as the perf trajectory of the graph core.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use onion_graph::graph::NodeId;
use onionbots_core::{DdsrConfig, DdsrOverlay};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIZES: [usize; 2] = [10_000, 100_000];
const DEGREE: usize = 10;

fn bench_overlay_repair(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlay_repair");
    for &n in &SIZES {
        let mut rng = StdRng::seed_from_u64(42);
        let (base, ids) =
            DdsrOverlay::new_regular(n, DEGREE, DdsrConfig::for_degree(DEGREE), &mut rng);
        let victims: Vec<NodeId> = ids.iter().copied().take(n / 100).collect();
        group.bench_function(format!("sequential_takedown_n{n}"), |b| {
            b.iter_batched(
                || (base.clone(), StdRng::seed_from_u64(7)),
                |(mut overlay, mut rng)| {
                    for &v in &victims {
                        overlay.remove_node_with_repair(v, &mut rng);
                    }
                    overlay
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_overlay_repair);
criterion_main!(benches);
