//! Attacker-side countermeasures against SOAP (§VII-A): proof of work and
//! rate limiting on new peering requests.
//!
//! "In the proof of work scheme each new node needs to do some work before
//! being accepted as a peer of an already existing node. As more nodes
//! request peering with a node, the complexity of the task is increased to
//! give preference to the older nodes. The same approach can be used in the
//! rate limiting, where the delay of accepting new nodes is increased
//! proportional to the size of peer list." These defenses raise the cost of
//! flooding a node with clones, at the price of slower legitimate repair —
//! the trade-off the paper leaves as an open question and which the ablation
//! bench explores.

use onion_crypto::digest::Digest;
use onion_crypto::sha256::Sha256;

/// A proof-of-work challenge for one peering request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowChallenge {
    /// Random challenge bytes chosen by the accepting node.
    pub challenge: Vec<u8>,
    /// Required number of leading zero bits in `SHA-256(challenge || nonce)`.
    pub difficulty_bits: u32,
}

impl PowChallenge {
    /// Creates a challenge with difficulty scaled to how many peering
    /// requests the node has recently received: `base + log2(1 + requests)`.
    pub fn for_request_load(
        challenge: Vec<u8>,
        base_difficulty: u32,
        recent_requests: u64,
    ) -> Self {
        let scaled =
            base_difficulty + (64 - (recent_requests + 1).leading_zeros()).saturating_sub(1);
        PowChallenge {
            challenge,
            difficulty_bits: scaled,
        }
    }

    /// Checks whether `nonce` solves the challenge.
    pub fn verify(&self, nonce: u64) -> bool {
        let mut data = self.challenge.clone();
        data.extend_from_slice(&nonce.to_be_bytes());
        let digest = Sha256::digest(&data);
        leading_zero_bits(&digest) >= self.difficulty_bits
    }

    /// Solves the challenge by brute force, returning the nonce and the
    /// number of hash evaluations spent (the attacker's cost).
    pub fn solve(&self, max_attempts: u64) -> Option<(u64, u64)> {
        for nonce in 0..max_attempts {
            if self.verify(nonce) {
                return Some((nonce, nonce + 1));
            }
        }
        None
    }
}

fn leading_zero_bits(digest: &[u8]) -> u32 {
    let mut bits = 0u32;
    for &byte in digest {
        if byte == 0 {
            bits += 8;
        } else {
            bits += byte.leading_zeros();
            break;
        }
    }
    bits
}

/// Rate limiter for peering acceptance: the waiting period grows linearly
/// with the current peer-list size, so an attacker who has already displaced
/// some peers pays more and more simulated time per additional clone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeeringRateLimiter {
    /// Base delay (in simulated seconds) applied to every request.
    pub base_delay_secs: u64,
    /// Additional delay per existing peer.
    pub per_peer_delay_secs: u64,
}

impl PeeringRateLimiter {
    /// Delay before a request is even evaluated, for a node that currently
    /// has `current_peer_count` peers.
    pub fn delay_for(&self, current_peer_count: usize) -> u64 {
        self.base_delay_secs + self.per_peer_delay_secs * current_peer_count as u64
    }

    /// Total simulated time needed to accept `requests` sequential peering
    /// requests starting from `initial_peers` peers.
    pub fn total_delay(&self, initial_peers: usize, requests: usize) -> u64 {
        (0..requests)
            .map(|i| self.delay_for(initial_peers + i))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difficulty_scales_with_request_load() {
        let quiet = PowChallenge::for_request_load(vec![1, 2, 3], 8, 0);
        let busy = PowChallenge::for_request_load(vec![1, 2, 3], 8, 1024);
        assert_eq!(quiet.difficulty_bits, 8);
        assert_eq!(busy.difficulty_bits, 8 + 10);
    }

    #[test]
    fn solving_and_verifying_work() {
        let challenge = PowChallenge {
            challenge: b"peer-with-me".to_vec(),
            difficulty_bits: 8,
        };
        let (nonce, cost) = challenge.solve(1_000_000).expect("8 bits is easy");
        assert!(challenge.verify(nonce));
        assert!(cost >= 1);
        assert!(
            !challenge.verify(nonce.wrapping_add(1)) || challenge.verify(nonce.wrapping_add(1))
        );
    }

    #[test]
    fn higher_difficulty_costs_more_on_average() {
        // Average solving cost over a few challenges should grow with
        // difficulty (8 bits ≈ 256 hashes, 12 bits ≈ 4096 hashes).
        let mut easy_total = 0u64;
        let mut hard_total = 0u64;
        for i in 0..5u8 {
            let easy = PowChallenge {
                challenge: vec![i, 1],
                difficulty_bits: 6,
            };
            let hard = PowChallenge {
                challenge: vec![i, 2],
                difficulty_bits: 12,
            };
            easy_total += easy.solve(1 << 22).unwrap().1;
            hard_total += hard.solve(1 << 22).unwrap().1;
        }
        assert!(
            hard_total > easy_total,
            "easy {easy_total}, hard {hard_total}"
        );
    }

    #[test]
    fn unsolvable_budget_returns_none() {
        let challenge = PowChallenge {
            challenge: b"x".to_vec(),
            difficulty_bits: 64,
        };
        assert!(challenge.solve(1000).is_none());
    }

    #[test]
    fn rate_limiter_grows_with_peer_count() {
        let limiter = PeeringRateLimiter {
            base_delay_secs: 10,
            per_peer_delay_secs: 5,
        };
        assert_eq!(limiter.delay_for(0), 10);
        assert_eq!(limiter.delay_for(10), 60);
        // Soaping a node from 10 peers with 10 clones takes much longer than
        // the first 10 legitimate rallies did.
        let attack_cost = limiter.total_delay(10, 10);
        let rally_cost = limiter.total_delay(0, 10);
        assert!(attack_cost > rally_cost);
    }

    #[test]
    fn leading_zero_bits_counts_correctly() {
        assert_eq!(leading_zero_bits(&[0, 0, 0xff]), 16);
        assert_eq!(leading_zero_bits(&[0x0f]), 4);
        assert_eq!(leading_zero_bits(&[0x80]), 0);
        assert_eq!(leading_zero_bits(&[0x01]), 7);
    }
}
