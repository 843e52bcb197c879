//! SOAP against a *defended* OnionBot (§VII-A): quantifying the trade-off
//! between adversarial resilience and recoverability.
//!
//! The paper anticipates that attackers will respond to SOAP with proof of
//! work and rate limiting on peering acceptance, and leaves "finding the
//! right balance between the recoverability and adversarial resilience" as
//! an open question. This module runs the same SOAP campaign against an
//! overlay whose peering path is gated by those defenses and reports the
//! cost on both sides:
//!
//! * defender cost — hash evaluations and simulated wall-clock time spent
//!   getting clones accepted;
//! * attacker (botnet) cost — the same gates delay legitimate repair after
//!   takedowns, measured as extra time per repaired edge.

use onion_graph::graph::NodeId;
use onionbots_core::overlay::DdsrOverlay;
use rand::Rng;

use crate::defenses::{PeeringRateLimiter, PowChallenge};
use crate::soap::{SoapAttack, SoapConfig, SoapOutcome};

/// Defense configuration applied to every peering acceptance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenseConfig {
    /// Base proof-of-work difficulty in bits (0 disables PoW).
    pub pow_base_bits: u32,
    /// Rate limiter applied per accepting node (delays in simulated
    /// seconds).
    pub rate_limiter: PeeringRateLimiter,
}

impl DefenseConfig {
    /// No defenses: the basic OnionBot of §IV.
    pub fn none() -> Self {
        DefenseConfig {
            pow_base_bits: 0,
            rate_limiter: PeeringRateLimiter {
                base_delay_secs: 0,
                per_peer_delay_secs: 0,
            },
        }
    }

    /// The defended configuration the ablation bench uses.
    pub fn standard() -> Self {
        DefenseConfig {
            pow_base_bits: 10,
            rate_limiter: PeeringRateLimiter {
                base_delay_secs: 60,
                per_peer_delay_secs: 300,
            },
        }
    }
}

/// Outcome of a SOAP campaign against a defended overlay.
#[derive(Debug, Clone, PartialEq)]
pub struct DefendedSoapOutcome {
    /// The underlying SOAP result (containment trace, clone count, ...).
    pub soap: SoapOutcome,
    /// Total hash evaluations the defender spent solving PoW challenges.
    pub defender_hash_evaluations: u64,
    /// Total simulated seconds the defender waited on rate limits.
    pub defender_wait_secs: u64,
    /// Simulated seconds of rate-limit delay a *legitimate* repair of one
    /// average takedown would incur under the same defenses (the
    /// recoverability cost).
    pub repair_delay_secs_per_takedown: u64,
}

/// Runs SOAP against an overlay whose peering acceptance is gated by the
/// given defenses, and accounts for both sides' costs.
pub fn run_defended_soap<R: Rng + ?Sized>(
    overlay: &mut DdsrOverlay,
    compromised: NodeId,
    soap_config: SoapConfig,
    defenses: DefenseConfig,
    rng: &mut R,
) -> DefendedSoapOutcome {
    // Account defender-side costs for each clone acceptance the campaign
    // will make. The SOAP campaign itself is unchanged — the defenses do not
    // stop it, they only make it more expensive — which is exactly the
    // paper's conclusion about basic PoW/rate limiting.
    let mut attack = SoapAttack::new(soap_config, compromised);
    let soap = attack.run(overlay, rng);

    let mut defender_hash_evaluations = 0u64;
    let mut defender_wait_secs = 0u64;
    if defenses.pow_base_bits > 0 {
        for i in 0..soap.clones_created {
            // Difficulty grows with how many requests the victim node has
            // already served; clones arrive in bursts, so scale by the index
            // within the campaign.
            let challenge = PowChallenge::for_request_load(
                i.to_be_bytes().to_vec(),
                defenses.pow_base_bits,
                (i % 64) as u64,
            );
            // Expected work for a d-bit challenge is 2^d hashes; use the
            // expectation rather than solving every instance so large
            // campaigns stay cheap to simulate.
            defender_hash_evaluations += 1u64 << challenge.difficulty_bits.min(40);
        }
    }
    let avg_degree = overlay.config().d_max;
    for i in 0..soap.clones_created {
        defender_wait_secs += defenses
            .rate_limiter
            .delay_for(avg_degree + (i % avg_degree.max(1)));
    }

    // Recoverability cost: repairing one takedown re-establishes on the
    // order of d_max edges, each gated by the same defenses.
    let repair_delay_secs_per_takedown = defenses.rate_limiter.total_delay(0, avg_degree)
        + if defenses.pow_base_bits > 0 {
            avg_degree as u64 // one challenge solve per edge, amortized to 1s each
        } else {
            0
        };

    DefendedSoapOutcome {
        soap,
        defender_hash_evaluations,
        defender_wait_secs,
        repair_delay_secs_per_takedown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onionbots_core::DdsrConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn overlay(seed: u64) -> (DdsrOverlay, Vec<NodeId>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (ov, ids) = DdsrOverlay::new_regular(40, 6, DdsrConfig::for_degree(6), &mut rng);
        (ov, ids, rng)
    }

    #[test]
    fn defenses_do_not_prevent_neutralization_of_the_basic_design() {
        let (mut ov, ids, mut rng) = overlay(1);
        let outcome = run_defended_soap(
            &mut ov,
            ids[0],
            SoapConfig::default(),
            DefenseConfig::standard(),
            &mut rng,
        );
        assert!(outcome.soap.neutralized);
    }

    #[test]
    fn defended_campaign_is_strictly_more_expensive_for_the_defender() {
        let (mut ov_a, ids_a, mut rng_a) = overlay(2);
        let undefended = run_defended_soap(
            &mut ov_a,
            ids_a[0],
            SoapConfig::default(),
            DefenseConfig::none(),
            &mut rng_a,
        );
        let (mut ov_b, ids_b, mut rng_b) = overlay(2);
        let defended = run_defended_soap(
            &mut ov_b,
            ids_b[0],
            SoapConfig::default(),
            DefenseConfig::standard(),
            &mut rng_b,
        );
        assert_eq!(undefended.defender_hash_evaluations, 0);
        assert_eq!(undefended.defender_wait_secs, 0);
        assert!(defended.defender_hash_evaluations > 0);
        assert!(defended.defender_wait_secs > 0);
    }

    #[test]
    fn defenses_also_slow_legitimate_repair() {
        let (mut ov, ids, mut rng) = overlay(3);
        let defended = run_defended_soap(
            &mut ov,
            ids[0],
            SoapConfig::default(),
            DefenseConfig::standard(),
            &mut rng,
        );
        assert!(
            defended.repair_delay_secs_per_takedown > 0,
            "the recoverability cost of the defenses must be visible"
        );
        let (mut ov2, ids2, mut rng2) = overlay(3);
        let undefended = run_defended_soap(
            &mut ov2,
            ids2[0],
            SoapConfig::default(),
            DefenseConfig::none(),
            &mut rng2,
        );
        assert_eq!(undefended.repair_delay_secs_per_takedown, 0);
    }

    #[test]
    fn stronger_pow_increases_cost_superlinearly() {
        let weak = DefenseConfig {
            pow_base_bits: 8,
            ..DefenseConfig::standard()
        };
        let strong = DefenseConfig {
            pow_base_bits: 16,
            ..DefenseConfig::standard()
        };
        let (mut ov_a, ids_a, mut rng_a) = overlay(4);
        let weak_outcome =
            run_defended_soap(&mut ov_a, ids_a[0], SoapConfig::default(), weak, &mut rng_a);
        let (mut ov_b, ids_b, mut rng_b) = overlay(4);
        let strong_outcome = run_defended_soap(
            &mut ov_b,
            ids_b[0],
            SoapConfig::default(),
            strong,
            &mut rng_b,
        );
        assert!(
            strong_outcome.defender_hash_evaluations > weak_outcome.defender_hash_evaluations * 10
        );
    }
}
