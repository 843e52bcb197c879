//! Benchmarks of the simulated Tor directory operations: descriptor-id
//! computation, responsible-HSDir selection, and resolving an announced
//! service to deliver to it.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tor_sim::hsdir::{descriptor_ids, responsible_hsdirs};
use tor_sim::network::TorNetwork;
use tor_sim::onion::OnionAddress;

fn bench_descriptors(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let mut network = TorNetwork::new(200, &mut rng);
    let onion = OnionAddress::from_identifier([0x5a; 10]);
    network.register_hidden_service(onion);
    network.announce_service(onion).unwrap();
    let ring = network.consensus().hsdir_ring();

    let mut group = c.benchmark_group("tor_descriptors");
    group.bench_function("descriptor_ids", |b| {
        b.iter(|| descriptor_ids([0x5a; 10], 123_456));
    });
    group.bench_function("responsible_hsdirs_ring200", |b| {
        let ids = descriptor_ids([0x5a; 10], 123_456);
        b.iter(|| responsible_hsdirs(ids[0], &ring));
    });
    group.bench_function("resolve_and_deliver", |b| {
        b.iter(|| {
            network
                .send_to_onion(onion, vec![0u8; 400])
                .expect("announced service is reachable");
            network.drain_mailbox(onion)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_descriptors);
criterion_main!(benches);
