//! Message propagation over the overlay: flooding broadcast and greedy
//! routing with Neighbors-of-Neighbor lookahead.
//!
//! The paper motivates the NoN construction with Manku et al.'s result that
//! NoN greedy routing is asymptotically optimal (§IV-C) and requires the C&C
//! to "reach each bot within reasonable steps" (§IV-A). Two propagation
//! modes are provided:
//!
//! * [`flood_broadcast`] — the push-based broadcast used for C&C commands:
//!   every node forwards to all peers; the result reports per-round coverage
//!   and total message count.
//! * [`greedy_route`] / [`non_greedy_route`] — identifier-based greedy
//!   routing with one-hop versus two-hop (NoN) knowledge, used by the
//!   ablation bench to show the lookahead benefit.

use onion_graph::graph::{Graph, NodeId};
use onion_graph::metrics::BfsScratch;

/// Result of a flooding broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastReport {
    /// Nodes reached (including the source).
    pub reached: usize,
    /// Number of live nodes at broadcast time.
    pub population: usize,
    /// Number of rounds (graph eccentricity of the source within its
    /// component).
    pub rounds: usize,
    /// Total point-to-point messages sent.
    pub messages: usize,
    /// Nodes reached after each round (cumulative), starting with round 0 =
    /// just the source.
    pub coverage_per_round: Vec<usize>,
}

impl BroadcastReport {
    /// Fraction of the live population reached.
    pub fn coverage(&self) -> f64 {
        if self.population == 0 {
            return 0.0;
        }
        self.reached as f64 / self.population as f64
    }
}

/// Simulates a flooding (gossip-to-all-peers) broadcast from `source`.
///
/// Round `d` informs the nodes at BFS distance `d`, so one [`BfsScratch`]
/// run answers it: every informed node forwards once to each of its peers
/// (messages are the degree sum over the reached set), and the discovery
/// order is non-decreasing in distance, so the coverage after round `d` is
/// the position of the last node reached at distance `d`, plus one.
pub fn flood_broadcast(graph: &Graph, source: NodeId) -> BroadcastReport {
    let mut scratch = BfsScratch::new();
    let stats = scratch.run(graph, source);
    let mut coverage_per_round = Vec::new();
    let mut messages = 0;
    for (informed, &v) in scratch.reached().iter().enumerate() {
        let round = scratch.get(v).expect("a reached node has a distance");
        if round == coverage_per_round.len() {
            coverage_per_round.push(0);
        }
        coverage_per_round[round] = informed + 1;
        messages += graph.degree(v).unwrap_or(0);
    }
    BroadcastReport {
        reached: stats.reached,
        population: graph.node_count(),
        rounds: stats.eccentricity,
        messages,
        coverage_per_round,
    }
}

/// Outcome of a greedy routing attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteReport {
    /// Whether the destination was reached.
    pub delivered: bool,
    /// The sequence of hops taken (starting at the source).
    pub path: Vec<NodeId>,
}

impl RouteReport {
    /// Number of hops taken (path length minus one, 0 for failed routes of
    /// length <= 1).
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// Identifier distance used by greedy routing: XOR of node indices
/// (a Kademlia-style metric on the overlay identifier space).
fn id_distance(a: NodeId, b: NodeId) -> u64 {
    (a.index() as u64) ^ (b.index() as u64)
}

/// Greedy routing with one-hop knowledge: at each step move to the neighbor
/// closest to the destination; stop when no neighbor improves the distance.
pub fn greedy_route(
    graph: &Graph,
    source: NodeId,
    destination: NodeId,
    max_hops: usize,
) -> RouteReport {
    route_with_lookahead(graph, source, destination, max_hops, false)
}

/// Greedy routing with Neighbors-of-Neighbor lookahead: at each step consider
/// the best distance achievable *through* each neighbor (its own neighbors
/// included), as in the NoN routing the paper cites.
pub fn non_greedy_route(
    graph: &Graph,
    source: NodeId,
    destination: NodeId,
    max_hops: usize,
) -> RouteReport {
    route_with_lookahead(graph, source, destination, max_hops, true)
}

fn route_with_lookahead(
    graph: &Graph,
    source: NodeId,
    destination: NodeId,
    max_hops: usize,
    lookahead: bool,
) -> RouteReport {
    let mut path = vec![source];
    if !graph.contains(source) || !graph.contains(destination) {
        return RouteReport {
            delivered: false,
            path,
        };
    }
    let mut current = source;
    let mut visited = vec![false; graph.id_bound()];
    visited[source.index()] = true;
    while current != destination && path.len() <= max_hops {
        let Some(neighbors) = graph.neighbors(current) else {
            break;
        };
        // Score each candidate neighbor.
        let mut best: Option<(u64, NodeId)> = None;
        for &n in neighbors {
            if visited[n.index()] {
                continue;
            }
            let score = if n == destination {
                0
            } else if lookahead {
                // Best distance achievable through n (NoN knowledge).
                let through = graph
                    .neighbors(n)
                    .map(|nn| {
                        nn.iter()
                            .map(|&m| id_distance(m, destination))
                            .min()
                            .unwrap_or(u64::MAX)
                    })
                    .unwrap_or(u64::MAX);
                through.min(id_distance(n, destination))
            } else {
                id_distance(n, destination)
            };
            if best.is_none_or(|(s, _)| score < s) {
                best = Some((score, n));
            }
        }
        match best {
            Some((_, next)) => {
                visited[next.index()] = true;
                path.push(next);
                current = next;
            }
            None => break,
        }
    }
    RouteReport {
        delivered: current == destination,
        path,
    }
}

/// Shortest-path hop count between two nodes (BFS ground truth used to
/// validate the greedy routes); `None` when either is dead or they are
/// disconnected.
pub fn shortest_path_hops(graph: &Graph, source: NodeId, destination: NodeId) -> Option<usize> {
    let mut scratch = BfsScratch::new();
    scratch.run(graph, source);
    scratch.get(destination)
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_graph::generators::{random_regular, ring_lattice};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A small graph after a random churn trace: node adds, edge adds and
    /// removes, and node removals (tombstones, isolated nodes).
    fn churned_graph(ops: &[(usize, usize, u8)]) -> Graph {
        let (mut g, mut ids) = Graph::with_nodes(8);
        for &(a, b, op) in ops {
            let (a, b) = (ids[a % ids.len()], ids[b % ids.len()]);
            match op {
                0 => ids.push(g.add_node()),
                1 | 2 => {
                    g.add_edge(a, b);
                }
                3 => {
                    g.remove_edge(a, b);
                }
                _ => {
                    g.remove_node(a);
                }
            }
        }
        g
    }

    /// The frontier-by-frontier flood [`flood_broadcast`] must equal.
    fn flood_oracle(graph: &Graph, source: NodeId) -> BroadcastReport {
        let population = graph.node_count();
        if !graph.contains(source) {
            return BroadcastReport {
                reached: 0,
                population,
                rounds: 0,
                messages: 0,
                coverage_per_round: Vec::new(),
            };
        }
        // Flat informed-flags indexed by node id: deterministic, allocation-light
        // and cache-friendly at million-node populations.
        let mut informed = vec![false; graph.id_bound()];
        informed[source.index()] = true;
        let mut reached = 1usize;
        let mut frontier = vec![source];
        let mut messages = 0usize;
        let mut coverage_per_round = vec![1usize];
        let mut rounds = 0usize;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                if let Some(neighbors) = graph.neighbors(u) {
                    for &v in neighbors {
                        messages += 1;
                        if !informed[v.index()] {
                            informed[v.index()] = true;
                            reached += 1;
                            next.push(v);
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            rounds += 1;
            coverage_per_round.push(reached);
            frontier = next;
        }
        BroadcastReport {
            reached,
            population,
            rounds,
            messages,
            coverage_per_round,
        }
    }

    /// Shortest-path hops by a fresh BFS that stops at the destination,
    /// which [`shortest_path_hops`] must equal.
    fn hops_oracle(graph: &Graph, source: NodeId, destination: NodeId) -> Option<usize> {
        if !graph.contains(source) || !graph.contains(destination) {
            return None;
        }
        // Flat BFS with early exit at the destination.
        const UNREACHED: u32 = u32::MAX;
        let mut dist = vec![UNREACHED; graph.id_bound()];
        dist[source.index()] = 0;
        let mut queue = vec![source];
        let mut head = 0usize;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            if u == destination {
                return Some(dist[u.index()] as usize);
            }
            let d = dist[u.index()] + 1;
            if let Some(neighbors) = graph.neighbors(u) {
                for &v in neighbors {
                    if dist[v.index()] == UNREACHED {
                        dist[v.index()] = d;
                        queue.push(v);
                    }
                }
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On churned graphs, from every id below `id_bound` and one past
        /// it (dead ones included) to every such id, the scratch-based
        /// flood and hop count equal the frontier loop and the early-exit
        /// BFS.
        #[test]
        fn flood_and_hops_equal_their_oracles_on_churned_graphs(
            ops in prop::collection::vec((0usize..24, 0usize..24, 0u8..5), 0..120),
        ) {
            let g = churned_graph(&ops);
            let ids: Vec<NodeId> = (0..=g.id_bound()).map(NodeId::new).collect();
            for &source in &ids {
                prop_assert_eq!(flood_broadcast(&g, source), flood_oracle(&g, source));
                for &destination in &ids {
                    prop_assert_eq!(
                        shortest_path_hops(&g, source, destination),
                        hops_oracle(&g, source, destination)
                    );
                }
            }
        }
    }

    #[test]
    fn broadcast_reaches_every_node_in_a_connected_graph() {
        let mut rng = StdRng::seed_from_u64(1);
        let (g, ids) = random_regular(200, 8, &mut rng);
        let report = flood_broadcast(&g, ids[0]);
        assert_eq!(report.reached, 200);
        assert!((report.coverage() - 1.0).abs() < 1e-12);
        assert!(
            report.rounds <= 6,
            "8-regular 200-node graph has tiny diameter"
        );
        assert_eq!(
            report.messages,
            200 * 8,
            "every node forwards to all peers once"
        );
        assert_eq!(*report.coverage_per_round.last().unwrap(), 200);
    }

    #[test]
    fn broadcast_is_limited_to_the_source_component() {
        let (mut g, ids) = onion_graph::graph::Graph::with_nodes(6);
        g.add_edge(ids[0], ids[1]);
        g.add_edge(ids[1], ids[2]);
        g.add_edge(ids[3], ids[4]);
        let report = flood_broadcast(&g, ids[0]);
        assert_eq!(report.reached, 3);
        assert!(report.coverage() < 1.0);
    }

    #[test]
    fn broadcast_from_missing_node_reaches_nothing() {
        let (g, ids) = onion_graph::graph::Graph::with_nodes(3);
        let mut g = g;
        g.remove_node(ids[0]);
        let report = flood_broadcast(&g, ids[0]);
        assert_eq!(report.reached, 0);
    }

    #[test]
    fn greedy_routing_succeeds_on_ring_lattices() {
        let (g, ids) = ring_lattice(64, 4);
        let report = non_greedy_route(&g, ids[0], ids[20], 64);
        assert!(report.delivered);
        assert!(report.hops() >= shortest_path_hops(&g, ids[0], ids[20]).unwrap());
    }

    #[test]
    fn non_lookahead_is_at_least_as_successful_as_plain_greedy() {
        let mut rng = StdRng::seed_from_u64(2);
        let (g, ids) = random_regular(200, 8, &mut rng);
        let mut greedy_ok = 0usize;
        let mut non_ok = 0usize;
        for i in 0..50 {
            let src = ids[i];
            let dst = ids[199 - i];
            if greedy_route(&g, src, dst, 200).delivered {
                greedy_ok += 1;
            }
            if non_greedy_route(&g, src, dst, 200).delivered {
                non_ok += 1;
            }
        }
        assert!(non_ok >= greedy_ok);
        assert!(non_ok > 0);
    }

    #[test]
    fn routes_to_self_are_trivial() {
        let (g, ids) = ring_lattice(10, 2);
        let report = greedy_route(&g, ids[3], ids[3], 10);
        assert!(report.delivered);
        assert_eq!(report.hops(), 0);
    }

    #[test]
    fn routing_to_missing_destination_fails_cleanly() {
        let (mut g, ids) = ring_lattice(10, 2);
        g.remove_node(ids[5]);
        let report = non_greedy_route(&g, ids[0], ids[5], 10);
        assert!(!report.delivered);
        assert!(shortest_path_hops(&g, ids[0], ids[5]).is_none());
    }

    #[test]
    fn hop_budget_is_respected() {
        let (g, ids) = ring_lattice(100, 2);
        let report = greedy_route(&g, ids[0], ids[50], 5);
        assert!(!report.delivered);
        assert!(report.path.len() <= 6);
    }
}
