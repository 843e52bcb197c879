//! Benchmarks of the intra-part parallel traversal layer: freezing the
//! slab into a [`CsrSnapshot`] and fanning multi-source BFS across the
//! deterministic kernel at several thread counts. Complements
//! `bfs_metrics` (which measures the public metric entry points at their
//! default sequential budget); medians are recorded in
//! `BENCH_parallel_metrics.json` at the repository root.

use criterion::{criterion_group, criterion_main, Criterion};
use onion_graph::budget::with_thread_budget;
use onion_graph::csr::CsrSnapshot;
use onion_graph::generators::random_regular;
use onion_graph::graph::NodeId;
use onion_graph::metrics::{parallel_bfs_from_sources, sampled_diameter};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const SIZES: [usize; 2] = [10_000, 100_000];
const DEGREE: usize = 10;
const SOURCES: usize = 64;
const THREADS: [usize; 3] = [1, 4, 8];

fn bench_parallel_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_metrics");
    for &n in &SIZES {
        let mut rng = StdRng::seed_from_u64(3);
        let (graph, _) = random_regular(n, DEGREE, &mut rng);
        group.bench_function(format!("csr_build_n{n}"), |b| {
            b.iter(|| CsrSnapshot::build(&graph));
        });
        let csr = CsrSnapshot::build(&graph);
        let sources: Vec<NodeId> = {
            let mut nodes = graph.nodes();
            let mut rng = StdRng::seed_from_u64(5);
            nodes.shuffle(&mut rng);
            nodes.truncate(SOURCES);
            nodes
        };
        for &threads in &THREADS {
            group.bench_function(
                format!("multi_source_bfs_s{SOURCES}_t{threads}_n{n}"),
                |b| {
                    b.iter(|| parallel_bfs_from_sources(&csr, &sources, threads));
                },
            );
        }
        // The acceptance metric: the public sampled-diameter entry point
        // under an 8-thread budget (equals `bfs_metrics/
        // sampled_diameter_s8_n{n}` except for the budget).
        group.bench_function(format!("sampled_diameter_s8_t8_n{n}"), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(5);
                with_thread_budget(8, || sampled_diameter(&graph, 8, &mut rng))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_metrics);
criterion_main!(benches);
