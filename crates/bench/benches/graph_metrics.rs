//! Benchmarks of the evaluation metrics (closeness, degree centrality,
//! diameter, connected components) used in Figures 4-6, and of the two
//! kernels behind Figure 6 at its largest size: the k-regular generator
//! and the partition threshold.

use criterion::{criterion_group, criterion_main, Criterion};
use onion_graph::components::component_count;
use onion_graph::generators::random_regular;
use onion_graph::metrics::{
    average_degree_centrality, sampled_average_closeness_centrality, sampled_diameter,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::scenario::partition_threshold;

fn bench_metrics(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let (graph, _) = random_regular(1000, 10, &mut rng);
    let mut group = c.benchmark_group("graph_metrics");
    group.bench_function("degree_centrality_n1000", |b| {
        b.iter(|| average_degree_centrality(&graph));
    });
    group.bench_function("sampled_closeness_n1000_s50", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(4);
            sampled_average_closeness_centrality(&graph, 50, &mut rng)
        });
    });
    group.bench_function("sampled_diameter_n1000_s50", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(5);
            sampled_diameter(&graph, 50, &mut rng)
        });
    });
    group.bench_function("component_count_n1000", |b| {
        b.iter(|| component_count(&graph));
    });
    group.bench_function("random_regular_n15000_k10", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(6);
            random_regular(15_000, 10, &mut rng)
        });
    });
    group.bench_function("partition_threshold_n15000_k10", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            partition_threshold(15_000, 10, 150, &mut rng)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
