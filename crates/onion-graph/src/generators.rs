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
/// # Panics
/// Panics if `n * k` is odd or `k >= n` (no simple k-regular graph exists).
pub fn random_regular<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> (Graph, Vec<NodeId>) {
    assert!(k < n, "degree must be smaller than the node count");
    assert!(
        (n * k).is_multiple_of(2),
        "n * k must be even for a k-regular graph"
    );
    'restart: loop {
        let (mut graph, ids) = Graph::with_nodes(n);
        // Stub list: each node appears k times.
        let mut stubs: Vec<usize> = (0..n).flat_map(|i| std::iter::repeat_n(i, k)).collect();
        stubs.shuffle(rng);
        // Repeatedly draw random stub pairs; on conflict re-shuffle the tail a
        // bounded number of times, otherwise restart from scratch.
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
            // Remove the two consumed stubs (larger index first).
            let (hi, lo) = if i > j { (i, j) } else { (j, i) };
            stubs.swap_remove(hi);
            stubs.swap_remove(lo);
        }
        return (graph, ids);
    }
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
