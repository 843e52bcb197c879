//! Peering / maintenance protocol primitives.
//!
//! The overlay's self-healing behaviour is driven by small maintenance
//! messages exchanged between peers: peering requests (with a declared
//! degree), address announcements after rotation, and keep-alives. The
//! acceptance policy implemented here is the one the paper describes and the
//! one SOAP (§VI-B) exploits: a node prefers low-degree peers, and when it is
//! already full it replaces its highest-degree peer with a lower-degree
//! requester.

use onion_graph::graph::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use tor_sim::onion::OnionAddress;

/// Maintenance messages exchanged between overlay peers.
///
/// On the wire every variant is serialized and wrapped in a fixed-size
/// uniform cell, so observers cannot distinguish a peering request from a
/// keep-alive or an attack command.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaintenanceMessage {
    /// Ask to become a peer, declaring the sender's (claimed) degree.
    PeeringRequest {
        /// The requester's current onion address.
        from: OnionAddress,
        /// The degree the requester claims to have (unverifiable).
        declared_degree: usize,
    },
    /// Positive answer to a peering request.
    PeeringAccept {
        /// The acceptor's onion address.
        from: OnionAddress,
    },
    /// Negative answer to a peering request.
    PeeringReject {
        /// The rejecting node's onion address.
        from: OnionAddress,
    },
    /// Announce a rotated onion address to current peers (the "forgetting"
    /// mechanism's counterpart: peers must learn the new address before the
    /// old one disappears).
    AddressAnnounce {
        /// The address being replaced.
        old: OnionAddress,
        /// The address valid for the next period.
        new: OnionAddress,
        /// Period index the new address belongs to.
        period: u64,
    },
    /// Liveness probe.
    KeepAlive {
        /// Sender address.
        from: OnionAddress,
    },
}

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

/// Picks the peer to displace under the paper's "replace the
/// highest-degree peer" rule: the highest-degree entry of `peers`, ties
/// broken by one `choose` draw over the tied entries in list order. That
/// peer has the most alternative paths, so dropping it "maintains the
/// reachability of all nodes" (§IV-C).
///
/// The peering acceptance policy below selects through it. The prune
/// loops, which drop several peers at once, use `prune_victims`.
pub fn highest_degree_victim<R: Rng + ?Sized>(
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

/// Sheds `drops` peers (at most `peers.len()`) under the highest-degree
/// rule, emitting each victim in selection order. `peers` holds
/// `(neighbor, degree)` pairs and is reordered in place.
///
/// The list is sorted once by (degree desc, id asc); each victim is then
/// one `choose` draw over the remaining members of the current top degree
/// class, in ascending id order. For a list in ascending id order (every
/// neighbor list is) this emits the same victims, in the same order and
/// from the same draws, as repeated [`highest_degree_victim`] calls on the
/// shrinking list.
///
/// There is no separate `d_min` filter: sparing peers at or below `d_min`
/// while one above it remains is implied by highest-degree selection. If
/// any peer is above `d_min`, the whole top class is, so the top class of
/// the filtered list is the top class of the whole list.
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

/// Decides how a node with the given peers responds to a peering request.
///
/// * Below `d_max`: accept.
/// * At or above `d_max`: if the requester's declared degree is strictly
///   lower than the highest degree among current peers, replace that peer
///   (ties broken at random); otherwise reject.
pub fn decide_peering<R: Rng + ?Sized>(
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn peers(degrees: &[usize]) -> Vec<(NodeId, usize)> {
        degrees
            .iter()
            .enumerate()
            .map(|(i, &d)| (NodeId(i), d))
            .collect()
    }

    #[test]
    fn below_capacity_always_accepts() {
        let mut rng = StdRng::seed_from_u64(1);
        let decision = decide_peering(&peers(&[5, 5]), 100, 5, &mut rng);
        assert_eq!(decision, PeeringDecision::Accept);
    }

    #[test]
    fn at_capacity_low_degree_requester_displaces_highest_peer() {
        let mut rng = StdRng::seed_from_u64(2);
        let decision = decide_peering(&peers(&[4, 9, 6]), 2, 3, &mut rng);
        assert_eq!(decision, PeeringDecision::Replace(NodeId(1)));
    }

    #[test]
    fn at_capacity_high_degree_requester_is_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let decision = decide_peering(&peers(&[4, 9, 6]), 9, 3, &mut rng);
        assert_eq!(decision, PeeringDecision::Reject);
        let decision2 = decide_peering(&peers(&[4, 9, 6]), 20, 3, &mut rng);
        assert_eq!(decision2, PeeringDecision::Reject);
    }

    #[test]
    fn ties_are_broken_among_highest_degree_peers_only() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            match decide_peering(&peers(&[7, 3, 7]), 1, 3, &mut rng) {
                PeeringDecision::Replace(victim) => {
                    assert!(victim == NodeId(0) || victim == NodeId(2));
                }
                other => panic!("expected replacement, got {other:?}"),
            }
        }
    }

    #[test]
    fn victim_selection_is_shared_and_uniform_over_ties() {
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(highest_degree_victim(&[], &mut rng), None);
        assert_eq!(
            highest_degree_victim(&peers(&[3, 9, 5]), &mut rng),
            Some(NodeId(1))
        );
        let mut seen = [false; 3];
        for _ in 0..40 {
            match highest_degree_victim(&peers(&[7, 7, 7]), &mut rng) {
                Some(NodeId(i)) => seen[i] = true,
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
                    .map(|(&id, &d)| (NodeId(id), d))
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
        }
    }

    #[test]
    fn empty_peer_list_accepts() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(
            decide_peering(&[], 50, 0, &mut rng),
            PeeringDecision::Accept
        );
    }

    #[test]
    fn maintenance_messages_serialize() {
        let msg = MaintenanceMessage::PeeringRequest {
            from: OnionAddress::from_identifier([1u8; 10]),
            declared_degree: 2,
        };
        let json = serde_json::to_string(&msg).unwrap();
        let back: MaintenanceMessage = serde_json::from_str(&json).unwrap();
        assert_eq!(back, msg);
        let rotate = MaintenanceMessage::AddressAnnounce {
            old: OnionAddress::from_identifier([1u8; 10]),
            new: OnionAddress::from_identifier([2u8; 10]),
            period: 9,
        };
        assert_ne!(serde_json::to_string(&rotate).unwrap(), json);
    }
}
