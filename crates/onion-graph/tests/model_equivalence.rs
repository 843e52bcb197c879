//! Equivalence of the slab-backed `Graph` against a naive ordered-map
//! reference model, replaying randomized add-node / add-edge / remove-edge /
//! remove-node traces.
//!
//! The reference model is the "obviously correct" structure the slab
//! replaced: a `BTreeMap<NodeId, BTreeSet<NodeId>>`. After every operation
//! both structures must agree on node sets, adjacency, degrees, edge count
//! and the full sorted edge list, and every mutating call must return the
//! same answer.

use std::collections::{BTreeMap, BTreeSet};

use onion_graph::graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The naive reference: ordered adjacency map with the same simple-graph
/// semantics (no self loops, no parallel edges, ids never reused).
#[derive(Default)]
struct ModelGraph {
    adjacency: BTreeMap<NodeId, BTreeSet<NodeId>>,
    next_id: usize,
    edge_count: usize,
}

impl ModelGraph {
    fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.next_id);
        self.next_id += 1;
        self.adjacency.insert(id, BTreeSet::new());
        id
    }

    fn contains(&self, node: NodeId) -> bool {
        self.adjacency.contains_key(&node)
    }

    fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if a == b || !self.contains(a) || !self.contains(b) {
            return false;
        }
        if !self.adjacency.get_mut(&a).unwrap().insert(b) {
            return false;
        }
        self.adjacency.get_mut(&b).unwrap().insert(a);
        self.edge_count += 1;
        true
    }

    fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let removed = self.adjacency.get_mut(&a).is_some_and(|s| s.remove(&b));
        if removed {
            if let Some(s) = self.adjacency.get_mut(&b) {
                s.remove(&a);
            }
            self.edge_count -= 1;
        }
        removed
    }

    fn remove_node(&mut self, node: NodeId) -> Option<Vec<NodeId>> {
        let neighbors = self.adjacency.remove(&node)?;
        for n in &neighbors {
            if let Some(s) = self.adjacency.get_mut(n) {
                s.remove(&node);
            }
        }
        self.edge_count -= neighbors.len();
        Some(neighbors.into_iter().collect())
    }

    fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for (&a, neighbors) in &self.adjacency {
            for &b in neighbors {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }
}

fn assert_equivalent(graph: &Graph, model: &ModelGraph, step: usize) {
    assert_eq!(
        graph.node_count(),
        model.adjacency.len(),
        "node count diverged at step {step}"
    );
    assert_eq!(
        graph.edge_count(),
        model.edge_count,
        "edge count diverged at step {step}"
    );
    let model_nodes: Vec<NodeId> = model.adjacency.keys().copied().collect();
    assert_eq!(
        graph.nodes(),
        model_nodes,
        "node set diverged at step {step}"
    );
    for (&n, neighbors) in &model.adjacency {
        let expected: Vec<NodeId> = neighbors.iter().copied().collect();
        assert_eq!(
            graph.neighbors(n).unwrap(),
            &expected[..],
            "adjacency of {n} diverged at step {step}"
        );
        assert_eq!(graph.degree(n), Some(expected.len()));
    }
    assert_eq!(
        graph.edges(),
        model.edges(),
        "edge list diverged at step {step}"
    );
    graph.check_invariants().unwrap();
}

/// Replays one random trace with the given seed and mutation mix.
fn replay_trace(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = Graph::new();
    let mut model = ModelGraph::default();
    // `known` holds every id ever allocated (live or deleted) so the trace
    // also exercises operations on tombstones and out-of-range ids.
    let mut known: Vec<NodeId> = Vec::new();
    for _ in 0..6 {
        let a = graph.add_node();
        let b = model.add_node();
        assert_eq!(a, b, "id allocation must match the reference model");
        known.push(a);
    }
    for step in 0..steps {
        let pick = |rng: &mut StdRng, known: &[NodeId]| {
            // Occasionally aim past the allocated range.
            if rng.gen_bool(0.05) {
                NodeId::new(rng.gen_range(0..known.len() + 8))
            } else {
                known[rng.gen_range(0..known.len())]
            }
        };
        match rng.gen_range(0..10u32) {
            0 => {
                let a = graph.add_node();
                let b = model.add_node();
                assert_eq!(a, b, "step {step}: fresh ids diverged");
                known.push(a);
            }
            1..=4 => {
                let a = pick(&mut rng, &known);
                let b = pick(&mut rng, &known);
                assert_eq!(
                    graph.add_edge(a, b),
                    model.add_edge(a, b),
                    "step {step}: add_edge({a}, {b}) answers diverged"
                );
            }
            5..=6 => {
                let a = pick(&mut rng, &known);
                let b = pick(&mut rng, &known);
                assert_eq!(
                    graph.remove_edge(a, b),
                    model.remove_edge(a, b),
                    "step {step}: remove_edge({a}, {b}) answers diverged"
                );
            }
            _ => {
                let a = pick(&mut rng, &known);
                assert_eq!(
                    graph.remove_node(a),
                    model.remove_node(a),
                    "step {step}: remove_node({a}) answers diverged"
                );
            }
        }
        assert_equivalent(&graph, &model, step);
    }
}

#[test]
fn random_traces_match_the_reference_model() {
    for seed in 0..12u64 {
        replay_trace(seed, 400);
    }
}

#[test]
fn dense_small_world_trace_matches() {
    // A tiny id space forces heavy tombstone traffic and duplicate-edge
    // attempts, the cases where a slab implementation would drift.
    for seed in 100..106u64 {
        replay_trace(seed, 800);
    }
}
