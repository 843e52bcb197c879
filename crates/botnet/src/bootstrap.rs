//! Bootstrap (rally) strategies (§IV-B).
//!
//! The paper analyses four ways a newly infected bot can find existing
//! members — hardcoded peer lists, hotlists (webcaches), random probing and
//! out-of-band channels — and concludes that OnionBots would combine
//! hardcoded peer lists with hotlists (random probing of the 32^16 onion
//! address space is infeasible). The strategies are modelled here so that
//! experiments can compare exposure (how many addresses a defender learns
//! from one captured bot).

use rand::seq::SliceRandom;
use rand::Rng;
use tor_sim::onion::OnionAddress;

/// The size of the v2 onion address space (32^16); random probing is
/// intractable, which is why the strategy is modelled but always fails.
pub const ONION_ADDRESS_SPACE_LOG2: u32 = 80;

/// A bootstrap strategy with its configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum BootstrapStrategy {
    /// A peer list embedded in the sample. `inclusion_probability` is the
    /// per-entry probability `p` with which an infecting bot shares each of
    /// its own peers with the new victim.
    HardcodedPeerList {
        /// Addresses embedded in the sample.
        peers: Vec<OnionAddress>,
        /// Probability that each known peer was included.
        inclusion_probability: f64,
    },
    /// A list of hotlist (webcache) services to query; each returns a subset
    /// of currently known members.
    Hotlist {
        /// Addresses of hotlist services.
        caches: Vec<OnionAddress>,
        /// Peers returned per query.
        peers_per_query: usize,
    },
    /// Peer list delivered through another infrastructure (DHT, social
    /// network post, ...). Modelled as an opaque channel holding addresses.
    OutOfBand {
        /// Addresses retrieved from the out-of-band channel.
        peers: Vec<OnionAddress>,
        /// Label of the channel (e.g. "bittorrent-dht", "social-media").
        channel: String,
    },
    /// Random probing of the onion address space — kept for completeness;
    /// always yields nothing in any realistic budget.
    RandomProbing {
        /// Number of addresses the bot is willing to probe.
        probe_budget: u64,
    },
}

impl BootstrapStrategy {
    /// The peers a new bot obtains from this strategy, given the set of
    /// currently live members (used by hotlists) and an RNG.
    pub fn initial_peers<R: Rng + ?Sized>(
        &self,
        live_members: &[OnionAddress],
        rng: &mut R,
    ) -> Vec<OnionAddress> {
        match self {
            BootstrapStrategy::HardcodedPeerList {
                peers,
                inclusion_probability,
            } => peers
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(inclusion_probability.clamp(0.0, 1.0)))
                .collect(),
            BootstrapStrategy::Hotlist {
                caches,
                peers_per_query,
            } => {
                if caches.is_empty() {
                    return Vec::new();
                }
                live_members
                    .choose_multiple(rng, (*peers_per_query).min(live_members.len()))
                    .copied()
                    .collect()
            }
            BootstrapStrategy::OutOfBand { peers, .. } => peers.clone(),
            BootstrapStrategy::RandomProbing { probe_budget } => {
                // Probability of hitting any live member is
                // |members| / 2^80 per probe — effectively zero. We model the
                // expected number of hits and round down.
                let hit_probability =
                    live_members.len() as f64 / 2f64.powi(ONION_ADDRESS_SPACE_LOG2 as i32);
                let expected_hits = hit_probability * *probe_budget as f64;
                if expected_hits >= 1.0 {
                    live_members.choose(rng).into_iter().copied().collect()
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// How many member addresses an adversary learns by fully reverse
    /// engineering one bot bootstrapped with this strategy (the "exposure"
    /// the paper argues stays small).
    pub fn exposure(&self) -> usize {
        match self {
            BootstrapStrategy::HardcodedPeerList { peers, .. } => peers.len(),
            BootstrapStrategy::Hotlist { caches, .. } => caches.len(),
            BootstrapStrategy::OutOfBand { peers, .. } => peers.len(),
            BootstrapStrategy::RandomProbing { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn addresses(n: usize) -> Vec<OnionAddress> {
        (0..n)
            .map(|i| {
                let mut id = [0u8; 10];
                id[0] = (i % 256) as u8;
                id[1] = (i / 256) as u8;
                OnionAddress::from_identifier(id)
            })
            .collect()
    }

    #[test]
    fn hardcoded_list_includes_each_peer_with_probability_p() {
        let mut rng = StdRng::seed_from_u64(1);
        let peers = addresses(1000);
        let strategy = BootstrapStrategy::HardcodedPeerList {
            peers: peers.clone(),
            inclusion_probability: 0.3,
        };
        let selected = strategy.initial_peers(&peers, &mut rng);
        assert!(
            (200..400).contains(&selected.len()),
            "got {}",
            selected.len()
        );
        for p in &selected {
            assert!(peers.contains(p));
        }
    }

    #[test]
    fn hotlist_returns_requested_number_of_live_members() {
        let mut rng = StdRng::seed_from_u64(2);
        let members = addresses(50);
        let strategy = BootstrapStrategy::Hotlist {
            caches: addresses(3),
            peers_per_query: 5,
        };
        let selected = strategy.initial_peers(&members, &mut rng);
        assert_eq!(selected.len(), 5);
        // Hotlist with no caches yields nothing.
        let empty = BootstrapStrategy::Hotlist {
            caches: Vec::new(),
            peers_per_query: 5,
        };
        assert!(empty.initial_peers(&members, &mut rng).is_empty());
    }

    #[test]
    fn out_of_band_returns_the_delivered_list() {
        let mut rng = StdRng::seed_from_u64(3);
        let delivered = addresses(4);
        let strategy = BootstrapStrategy::OutOfBand {
            peers: delivered.clone(),
            channel: "bittorrent-dht".to_string(),
        };
        assert_eq!(strategy.initial_peers(&addresses(100), &mut rng), delivered);
    }

    #[test]
    fn random_probing_is_hopeless_at_any_realistic_budget() {
        let mut rng = StdRng::seed_from_u64(4);
        let members = addresses(100_000);
        let strategy = BootstrapStrategy::RandomProbing {
            probe_budget: 1_000_000_000,
        };
        assert!(strategy.initial_peers(&members, &mut rng).is_empty());
        assert_eq!(strategy.exposure(), 0);
    }

    #[test]
    fn exposure_reflects_what_a_captured_bot_reveals() {
        assert_eq!(
            BootstrapStrategy::HardcodedPeerList {
                peers: addresses(7),
                inclusion_probability: 0.5
            }
            .exposure(),
            7
        );
        assert_eq!(
            BootstrapStrategy::Hotlist {
                caches: addresses(2),
                peers_per_query: 10
            }
            .exposure(),
            2
        );
    }
}
