//! Random graph generators used to build the initial OnionBot overlays.
//!
//! The paper's evaluation (§V-B) starts from *k-regular* graphs of 5000 and
//! 15000 nodes with k ∈ {5, 10, 15}; [`random_regular`] reproduces that
//! setup. A deterministic [`ring_lattice`] (circulant graph) gives tests a
//! graph whose distances are known in closed form.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::{Graph, NodeId};

/// Generates a random k-regular simple graph on `n` nodes using the
/// configuration (pairing) model with restarts.
///
/// The pairing runs over a flat `n * k` array of neighbor rows with a
/// degree count per node: a node never holds more than `k` neighbors
/// while pairing, so the "already adjacent" test scans at most `k` slots
/// and adding an edge is two writes. Each row is sorted once at the end
/// into an exact-capacity neighbor list.
///
/// # Panics
/// Panics if `n * k` is odd or `k >= n` (no simple k-regular graph
/// exists), or if `n` exceeds `u32::MAX`.
pub fn random_regular<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> (Graph, Vec<NodeId>) {
    assert!(k < n, "degree must be smaller than the node count");
    assert!(
        (n * k).is_multiple_of(2),
        "n * k must be even for a k-regular graph"
    );
    let nodes = u32::try_from(n).expect("node ids must fit in u32");
    let mut stubs: Vec<u32> = Vec::with_capacity(n * k);
    let mut rows = vec![0u32; n * k];
    let mut degree = vec![0usize; n];
    'restart: loop {
        // Stub list: each node appears k times.
        stubs.clear();
        stubs.extend((0..nodes).flat_map(|i| std::iter::repeat_n(i, k)));
        degree.fill(0);
        stubs.shuffle(rng);
        // Repeatedly draw random stub pairs; after more than 200 draws
        // without progress, restart from scratch.
        let mut attempts_without_progress = 0usize;
        while !stubs.is_empty() {
            if attempts_without_progress > 200 {
                continue 'restart;
            }
            let i = rng.gen_range(0..stubs.len());
            let j = rng.gen_range(0..stubs.len());
            if i == j {
                attempts_without_progress += 1;
                continue;
            }
            let (a, b) = (stubs[i] as usize, stubs[j] as usize);
            if a == b || rows[a * k..a * k + degree[a]].contains(&stubs[j]) {
                attempts_without_progress += 1;
                continue;
            }
            rows[a * k + degree[a]] = stubs[j];
            rows[b * k + degree[b]] = stubs[i];
            degree[a] += 1;
            degree[b] += 1;
            attempts_without_progress = 0;
            // Remove the two consumed stubs (larger index first).
            let (hi, lo) = if i > j { (i, j) } else { (j, i) };
            stubs.swap_remove(hi);
            stubs.swap_remove(lo);
        }
        break;
    }
    let lists = (0..n)
        .map(|v| {
            let row = &mut rows[v * k..(v + 1) * k];
            row.sort_unstable();
            row.iter().map(|&u| NodeId::new(u as usize)).collect()
        })
        .collect();
    (
        Graph::from_sorted_lists(lists),
        (0..n).map(NodeId::new).collect(),
    )
}

/// Generates a deterministic k-regular ring lattice (circulant graph): node
/// `i` is connected to the `k/2` nodes on each side.
///
/// # Panics
/// Panics if `k` is odd, `k >= n`, or `n == 0`.
pub fn ring_lattice(n: usize, k: usize) -> (Graph, Vec<NodeId>) {
    assert!(n > 0, "ring lattice needs at least one node");
    assert!(k.is_multiple_of(2), "ring lattice degree must be even");
    assert!(k < n, "degree must be smaller than the node count");
    let (mut graph, ids) = Graph::with_nodes(n);
    for i in 0..n {
        for offset in 1..=(k / 2) {
            let j = (i + offset) % n;
            graph.add_edge(ids[i], ids[j]);
        }
    }
    (graph, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The pairing loop `random_regular` replaced, kept as its oracle: the
    /// same draws, with edges inserted into the slab's sorted lists one
    /// at a time.
    fn random_regular_oracle<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Graph {
        'restart: loop {
            let (mut graph, ids) = Graph::with_nodes(n);
            let mut stubs: Vec<usize> = (0..n).flat_map(|i| std::iter::repeat_n(i, k)).collect();
            stubs.shuffle(rng);
            let mut attempts_without_progress = 0usize;
            while !stubs.is_empty() {
                if attempts_without_progress > 200 {
                    continue 'restart;
                }
                let i = rng.gen_range(0..stubs.len());
                let j = rng.gen_range(0..stubs.len());
                if i == j {
                    attempts_without_progress += 1;
                    continue;
                }
                let (a, b) = (stubs[i], stubs[j]);
                if a == b || graph.has_edge(ids[a], ids[b]) {
                    attempts_without_progress += 1;
                    continue;
                }
                graph.add_edge(ids[a], ids[b]);
                attempts_without_progress = 0;
                let (hi, lo) = if i > j { (i, j) } else { (j, i) };
                stubs.swap_remove(hi);
                stubs.swap_remove(lo);
            }
            return graph;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn random_regular_matches_the_sorted_list_oracle(
            seed in any::<u64>(),
            n in 2usize..48,
            k_raw in 0usize..48,
            complete in any::<bool>(),
        ) {
            // `complete` covers k = n - 1, where restarts are frequent;
            // otherwise an odd n * k drops k by one to make it even.
            let k = if complete { n - 1 } else { k_raw % n };
            let k = if (n * k).is_multiple_of(2) { k } else { k - 1 };
            let mut fast_rng = StdRng::seed_from_u64(seed);
            let mut oracle_rng = StdRng::seed_from_u64(seed);
            let (graph, ids) = random_regular(n, k, &mut fast_rng);
            let oracle = random_regular_oracle(n, k, &mut oracle_rng);
            graph.check_invariants().unwrap();
            prop_assert_eq!(ids, (0..n).map(NodeId::new).collect::<Vec<_>>());
            prop_assert_eq!(graph.node_count(), oracle.node_count());
            prop_assert_eq!(&graph, &oracle, "n={} k={}", n, k);
            prop_assert_eq!(fast_rng.next_u64(), oracle_rng.next_u64(), "n={} k={}", n, k);
        }
    }

    #[test]
    fn random_regular_produces_exact_degrees() {
        let mut rng = StdRng::seed_from_u64(1);
        for (n, k) in [(50usize, 3usize), (100, 5), (200, 10), (61, 4)] {
            let (g, ids) = random_regular(n, k, &mut rng);
            assert_eq!(g.node_count(), n);
            assert_eq!(g.edge_count(), n * k / 2);
            for id in &ids {
                assert_eq!(g.degree(*id), Some(k), "n={n} k={k}");
            }
            g.check_invariants().unwrap();
        }
    }

    #[test]
    fn random_regular_is_seed_deterministic() {
        let (g1, _) = random_regular(80, 6, &mut StdRng::seed_from_u64(7));
        let (g2, _) = random_regular(80, 6, &mut StdRng::seed_from_u64(7));
        assert_eq!(g1.edges(), g2.edges());
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn random_regular_rejects_odd_total_degree() {
        let mut rng = StdRng::seed_from_u64(2);
        random_regular(5, 3, &mut rng);
    }

    #[test]
    #[should_panic(expected = "smaller than the node count")]
    fn random_regular_rejects_excessive_degree() {
        let mut rng = StdRng::seed_from_u64(3);
        random_regular(4, 4, &mut rng);
    }

    #[test]
    fn ring_lattice_structure() {
        let (g, ids) = ring_lattice(10, 4);
        for id in &ids {
            assert_eq!(g.degree(*id), Some(4));
        }
        assert!(g.has_edge(ids[0], ids[1]));
        assert!(g.has_edge(ids[0], ids[2]));
        assert!(!g.has_edge(ids[0], ids[3]));
        assert!(g.has_edge(ids[0], ids[9]));
        g.check_invariants().unwrap();
    }
}
