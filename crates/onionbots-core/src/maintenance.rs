//! The DDSR maintenance rule (§IV-C): which peers a node drops.
//!
//! A node over `d_max` drops its highest-degree peers, ties broken at
//! random. Such a peer has the most alternative paths, so dropping it
//! "maintains the reachability of all nodes". One function states that
//! rule, `prune_victims`. One planner, `plan_prune`, feeds it a node's
//! peers for both prune passes: the per-victim pass of
//! [`DdsrOverlay::remove_node_with_repair`](crate::overlay::DdsrOverlay::remove_node_with_repair)
//! and the wave pass of [`sharded_wave_repair`](crate::shard::sharded_wave_repair).
//! The peering acceptance policy, [`decide_peering`], picks the one peer it
//! displaces through the same rule. It is the policy SOAP (§VI-B)
//! exploits: a node prefers low-degree peers, and when it is already full
//! it replaces its highest-degree peer with a lower-degree requester.

use onion_graph::graph::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

/// Outcome of evaluating a peering request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeeringDecision {
    /// Accept the new peer outright (the node is below `d_max`).
    Accept,
    /// Accept the new peer and drop this existing peer to make room.
    Replace(NodeId),
    /// Reject the request.
    Reject,
}

/// The one victim rule: sheds `drops` peers (at most `peers.len()`),
/// highest degree first, emitting each victim in selection order.
/// `peers` holds `(neighbor, degree)` pairs and is reordered in place.
///
/// The list is sorted once by (degree desc, id asc); each victim is then
/// one `choose` draw over the remaining members of the current top degree
/// class, in ascending id order. For a list in ascending id order (every
/// neighbor list is) this emits the same victims, in the same order and
/// from the same draws, as picking one highest-degree victim at a time
/// from the shrinking list.
pub(crate) fn prune_victims<R: Rng + ?Sized>(
    peers: &mut [(NodeId, usize)],
    drops: usize,
    rng: &mut R,
    mut emit: impl FnMut(NodeId),
) {
    peers.sort_unstable_by_key(|&(id, degree)| (std::cmp::Reverse(degree), id));
    // `peers[..start]` are already dropped; `peers[start..end]` is the
    // rest of the current top class, still in ascending id order.
    let (mut start, mut end) = (0, 0);
    for _ in 0..drops.min(peers.len()) {
        if start == end {
            let degree = peers[start].1;
            end = start + peers[start..].partition_point(|&(_, d)| d == degree);
        }
        let class = &peers[start..end];
        let Some(&(victim, _)) = class.choose(rng) else {
            return;
        };
        let picked = start
            + class
                .iter()
                .position(|&(id, _)| id == victim)
                .expect("the victim is a member of its class");
        // Move the victim to the front of the class; the others keep
        // their order.
        peers[start..=picked].rotate_right(1);
        start += 1;
        emit(victim);
    }
}

/// The one prune planner: emits the peers a node with the given
/// `neighbors` drops to get back to `d_max`, chosen by [`prune_victims`]
/// from the degrees `degree` reports. A node at or under `d_max` drops
/// nothing and draws nothing. `peers` is scratch space reused across
/// calls.
///
/// The per-victim pass reads the live graph and applies each plan before
/// it makes the next; the wave pass reads one frozen view for every plan
/// (see [`sharded_wave_repair`](crate::shard::sharded_wave_repair)).
pub(crate) fn plan_prune<R: Rng + ?Sized>(
    neighbors: &[NodeId],
    degree: impl Fn(NodeId) -> usize,
    d_max: usize,
    peers: &mut Vec<(NodeId, usize)>,
    rng: &mut R,
    emit: impl FnMut(NodeId),
) {
    let drops = neighbors.len().saturating_sub(d_max);
    if drops > 0 {
        peer_degrees(neighbors, degree, peers);
        prune_victims(peers, drops, rng, emit);
    }
}

/// Loads the `(neighbor, degree)` pairs of `neighbors` into `peers`, in
/// the list's order.
pub(crate) fn peer_degrees(
    neighbors: &[NodeId],
    degree: impl Fn(NodeId) -> usize,
    peers: &mut Vec<(NodeId, usize)>,
) {
    peers.clear();
    peers.extend(neighbors.iter().map(|&p| (p, degree(p))));
}

/// Decides how a node with the given peers responds to a peering request.
/// `current_peers` holds `(peer, degree)` pairs and is reordered in place.
///
/// * Below `d_max`: accept.
/// * At or above `d_max`: if the requester's declared degree is strictly
///   lower than the highest degree among current peers, replace one peer
///   of that degree, picked by one `choose` draw over them in ascending id
///   order (the draw the prune passes make for one drop); otherwise
///   reject.
pub fn decide_peering<R: Rng + ?Sized>(
    current_peers: &mut [(NodeId, usize)],
    declared_degree: usize,
    d_max: usize,
    rng: &mut R,
) -> PeeringDecision {
    if current_peers.len() < d_max {
        return PeeringDecision::Accept;
    }
    let Some(max_degree) = current_peers.iter().map(|&(_, d)| d).max() else {
        return PeeringDecision::Accept;
    };
    if declared_degree >= max_degree {
        return PeeringDecision::Reject;
    }
    let mut decision = PeeringDecision::Reject;
    prune_victims(current_peers, 1, rng, |victim| {
        decision = PeeringDecision::Replace(victim);
    });
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_graph::graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn peers(degrees: &[usize]) -> Vec<(NodeId, usize)> {
        degrees
            .iter()
            .enumerate()
            .map(|(i, &d)| (NodeId::new(i), d))
            .collect()
    }

    /// The one-victim rule `prune_victims` replaced: the highest-degree
    /// entry of `peers`, ties broken by one `choose` draw over the tied
    /// entries in list order.
    fn highest_degree_victim<R: Rng + ?Sized>(
        peers: &[(NodeId, usize)],
        rng: &mut R,
    ) -> Option<NodeId> {
        let max_degree = peers.iter().map(|&(_, d)| d).max()?;
        let candidates: Vec<NodeId> = peers
            .iter()
            .filter(|&&(_, d)| d == max_degree)
            .map(|&(id, _)| id)
            .collect();
        candidates.choose(rng).copied()
    }

    #[test]
    fn below_capacity_always_accepts() {
        let mut rng = StdRng::seed_from_u64(1);
        let decision = decide_peering(&mut peers(&[5, 5]), 100, 5, &mut rng);
        assert_eq!(decision, PeeringDecision::Accept);
    }

    #[test]
    fn at_capacity_low_degree_requester_displaces_highest_peer() {
        let mut rng = StdRng::seed_from_u64(2);
        let decision = decide_peering(&mut peers(&[4, 9, 6]), 2, 3, &mut rng);
        assert_eq!(decision, PeeringDecision::Replace(NodeId::new(1)));
    }

    #[test]
    fn at_capacity_high_degree_requester_is_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let decision = decide_peering(&mut peers(&[4, 9, 6]), 9, 3, &mut rng);
        assert_eq!(decision, PeeringDecision::Reject);
        let decision2 = decide_peering(&mut peers(&[4, 9, 6]), 20, 3, &mut rng);
        assert_eq!(decision2, PeeringDecision::Reject);
    }

    #[test]
    fn ties_are_broken_among_highest_degree_peers_only() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            match decide_peering(&mut peers(&[7, 3, 7]), 1, 3, &mut rng) {
                PeeringDecision::Replace(victim) => {
                    assert!(victim == NodeId::new(0) || victim == NodeId::new(2));
                }
                other => panic!("expected replacement, got {other:?}"),
            }
        }
    }

    #[test]
    fn victim_selection_is_shared_and_uniform_over_ties() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut first_victim = |degrees: &[usize]| {
            let mut victim = None;
            prune_victims(&mut peers(degrees), 1, &mut rng, |v| victim = Some(v));
            victim
        };
        assert_eq!(first_victim(&[]), None);
        assert_eq!(first_victim(&[3, 9, 5]), Some(NodeId::new(1)));
        let mut seen = [false; 3];
        for _ in 0..40 {
            match first_victim(&[7, 7, 7]) {
                Some(v) => seen[v.index()] = true,
                None => panic!("non-empty list must yield a victim"),
            }
        }
        assert!(seen.iter().all(|&s| s), "all tied peers must be reachable");
    }

    /// The per-drop prune loop `prune_victims` replaced: rebuild the
    /// `d_min` eligibility filter and select one highest-degree victim
    /// from the shrinking list on every drop.
    fn oracle_victims<R: Rng + ?Sized>(
        peers: &[(NodeId, usize)],
        d_min: usize,
        drops: usize,
        rng: &mut R,
    ) -> Vec<NodeId> {
        let mut remaining = peers.to_vec();
        let mut victims = Vec::new();
        while victims.len() < drops {
            let above_min: Vec<(NodeId, usize)> = remaining
                .iter()
                .copied()
                .filter(|&(_, d)| d > d_min)
                .collect();
            let eligible = if above_min.is_empty() {
                remaining.clone()
            } else {
                above_min
            };
            let Some(victim) = highest_degree_victim(&eligible, rng) else {
                break;
            };
            victims.push(victim);
            remaining.retain(|&(id, _)| id != victim);
        }
        victims
    }

    /// The peering policy before it selected through `prune_victims`.
    fn oracle_decision<R: Rng + ?Sized>(
        current_peers: &[(NodeId, usize)],
        declared_degree: usize,
        d_max: usize,
        rng: &mut R,
    ) -> PeeringDecision {
        if current_peers.len() < d_max {
            return PeeringDecision::Accept;
        }
        let Some(&max_degree) = current_peers.iter().map(|(_, d)| d).max() else {
            return PeeringDecision::Accept;
        };
        if declared_degree < max_degree {
            match highest_degree_victim(current_peers, rng) {
                Some(victim) => PeeringDecision::Replace(victim),
                None => PeeringDecision::Reject,
            }
        } else {
            PeeringDecision::Reject
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use rand::RngCore;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Sort-once selection is the per-drop loop: same victims, same
            /// order, and the RNG ends at the same stream position. Degrees
            /// come from a narrow range so ties are heavy; `d_min` often
            /// exceeds every degree; `d_max` 0 drops the whole list.
            #[test]
            fn prune_victims_matches_the_per_drop_loop(
                ids in prop::collection::btree_set(0usize..1_000, 0..24),
                degrees in prop::collection::vec(0usize..6, 24..25),
                d_min in 0usize..8,
                d_max in 0usize..24,
                seed in any::<u64>(),
            ) {
                let peers: Vec<(NodeId, usize)> = ids
                    .iter()
                    .zip(&degrees)
                    .map(|(&id, &d)| (NodeId::new(id), d))
                    .collect();
                let drops = peers.len().saturating_sub(d_max);
                let mut oracle_rng = StdRng::seed_from_u64(seed);
                let expected = oracle_victims(&peers, d_min, drops, &mut oracle_rng);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut got = Vec::new();
                prune_victims(&mut peers.clone(), drops, &mut rng, |v| got.push(v));
                prop_assert_eq!(got, expected);
                prop_assert_eq!(rng.next_u64(), oracle_rng.next_u64());
            }

            /// On ascending-id peer lists the peering policy decides as it
            /// did through `highest_degree_victim`, and leaves the RNG at
            /// the same stream position. `d_max` lands from three below
            /// the list length (at or over capacity) to two above it
            /// (below capacity); the declared degree lands from two below
            /// the highest peer degree to two above it; degrees come from
            /// a narrow range so the top class is often tied.
            #[test]
            fn decide_peering_matches_the_highest_degree_oracle(
                ids in prop::collection::btree_set(0usize..1_000, 0..12),
                degrees in prop::collection::vec(0usize..4, 12..13),
                capacity_offset in -3isize..=2,
                declared_offset in -2isize..=2,
                seed in any::<u64>(),
            ) {
                let peers: Vec<(NodeId, usize)> = ids
                    .iter()
                    .zip(&degrees)
                    .map(|(&id, &d)| (NodeId::new(id), d))
                    .collect();
                let d_max = peers.len().saturating_add_signed(capacity_offset);
                let max_degree = peers.iter().map(|&(_, d)| d).max().unwrap_or(0);
                let declared = max_degree.saturating_add_signed(declared_offset);
                let mut oracle_rng = StdRng::seed_from_u64(seed);
                let expected = oracle_decision(&peers, declared, d_max, &mut oracle_rng);
                let mut rng = StdRng::seed_from_u64(seed);
                let got = decide_peering(&mut peers.clone(), declared, d_max, &mut rng);
                prop_assert_eq!(got, expected);
                prop_assert_eq!(rng.next_u64(), oracle_rng.next_u64());
            }
        }
    }

    #[test]
    fn plan_prune_sheds_down_to_d_max_and_draws_nothing_at_or_under_it() {
        use rand::RngCore;
        // A star: hub 0 with five leaves; leaf 5 also has two more peers.
        let (mut graph, ids) = Graph::with_nodes(8);
        for leaf in 1..=5 {
            graph.add_edge(ids[0], ids[leaf]);
        }
        graph.add_edge(ids[5], ids[6]);
        graph.add_edge(ids[5], ids[7]);
        let mut peers = Vec::new();
        let plan = |node: NodeId, d_max: usize, seed: u64, peers: &mut Vec<_>| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut victims = Vec::new();
            let neighbors = graph.neighbors(node).unwrap_or_default();
            let degree = |p| graph.degree(p).unwrap_or(0);
            plan_prune(neighbors, degree, d_max, peers, &mut rng, |v| {
                victims.push(v)
            });
            (victims, rng.next_u64())
        };
        let untouched = StdRng::seed_from_u64(9).next_u64();
        for (node, d_max) in [(ids[0], 5), (ids[0], 9), (ids[1], 1), (NodeId::new(99), 0)] {
            assert_eq!(plan(node, d_max, 9, &mut peers), (vec![], untouched));
        }
        // Over d_max by two: the degree-3 leaf goes first, then one of the
        // degree-1 leaves.
        let (victims, _) = plan(ids[0], 3, 9, &mut peers);
        assert_eq!(victims.len(), 2);
        assert_eq!(victims[0], ids[5]);
        assert!((1..=4).any(|leaf| victims[1] == ids[leaf]));
    }

    #[test]
    fn empty_peer_list_accepts() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(
            decide_peering(&mut [], 50, 0, &mut rng),
            PeeringDecision::Accept
        );
    }
}
