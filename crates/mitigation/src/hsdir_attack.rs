//! HSDir positioning (the generic, Tor-level mitigation of §VI-A).
//!
//! "an adversary can inject her relay into the Tor network such that it
//! becomes the relay responsible for storing the bot's descriptors. Since the
//! fingerprint of relays is calculated from their public keys, this
//! translates into finding the right public key. [...] an adversary needs to
//! position herself at the right position in the ring at least 25 hours
//! before." Once the adversary controls the responsible HSDirs it can deny
//! the descriptor and make a specific `.onion` unreachable — but the cost
//! scales with the number of bot addresses and the addresses rotate, which is
//! why the paper judges this mitigation weak against OnionBots.

use tor_sim::hsdir::{descriptor_ids, responsible_hsdirs, HSDIRS_PER_REPLICA};
use tor_sim::network::TorNetwork;
use tor_sim::onion::OnionAddress;
use tor_sim::relay::{Fingerprint, Relay};

/// Result of planting adversarial HSDirs for one target address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HsdirTakeoverPlan {
    /// The onion address being targeted.
    pub target: OnionAddress,
    /// Fingerprints the adversary crafted (one set per replica).
    pub planted_fingerprints: Vec<Fingerprint>,
    /// Brute-force attempts charged for crafting the fingerprints: the
    /// caller's per-position cost times the number of replicas (each
    /// attempt stands for generating and hashing one RSA identity key).
    pub keygen_attempts: u64,
}

/// Crafts relay fingerprints that sort immediately at/after each of the
/// target's descriptor IDs, so the planted relays become the first
/// responsible HSDirs once they obtain the HSDir flag.
///
/// The brute-force key search is not run: the fingerprints are
/// constructed directly (the success is what a real adversary buys with
/// compute, per Biryukov et al.), and `keygen_attempts` charges
/// `simulated_attempts_per_position` once per descriptor replica.
pub fn plan_takeover(
    target: OnionAddress,
    attack_time_secs: u64,
    simulated_attempts_per_position: u64,
) -> HsdirTakeoverPlan {
    let mut planted = Vec::new();
    let mut attempts = 0u64;
    for id in descriptor_ids(target.identifier(), attack_time_secs) {
        attempts += simulated_attempts_per_position;
        for offset in 0..HSDIRS_PER_REPLICA as u8 {
            // A fingerprint equal to the descriptor id plus a tiny positive
            // offset sorts immediately at/after it on the ring, so the
            // planted relay wins the responsible position from any honest
            // relay further along.
            planted.push(Fingerprint(add_offset(id.0, u64::from(offset) + 1)));
        }
    }
    HsdirTakeoverPlan {
        target,
        planted_fingerprints: planted,
        keygen_attempts: attempts,
    }
}

/// Adds a small offset to a 20-byte big-endian value with carry propagation.
fn add_offset(mut bytes: [u8; 20], offset: u64) -> [u8; 20] {
    let mut carry = offset;
    for i in (0..20).rev() {
        if carry == 0 {
            break;
        }
        let sum = u64::from(bytes[i]) + (carry & 0xff);
        bytes[i] = (sum & 0xff) as u8;
        carry = (carry >> 8) + (sum >> 8);
    }
    bytes
}

/// Executes a takeover plan against a simulated Tor network: injects the
/// planted relays, waits the 25 hours needed for the HSDir flag, and then
/// verifies whether the planted relays are now among the responsible HSDirs.
///
/// Returns the number of planted relays that are responsible for the target
/// after the wait.
pub fn execute_takeover(network: &mut TorNetwork, plan: &HsdirTakeoverPlan) -> usize {
    for fp in &plan.planted_fingerprints {
        network
            .consensus_mut()
            .add_relay(Relay::with_fingerprint(*fp, 5000));
    }
    // The HSDir flag requires 25 hours of uptime.
    network.advance_time(26 * 3600);
    let ring = network.consensus().hsdir_ring();
    let mut responsible_planted = 0usize;
    for id in descriptor_ids(plan.target.identifier(), network.time_secs()) {
        for fp in responsible_hsdirs(id, &ring) {
            if plan.planted_fingerprints.contains(&fp) {
                responsible_planted += 1;
            }
        }
    }
    responsible_planted
}

/// After a successful takeover the adversary denies the descriptor: wipe the
/// planted HSDirs (they refuse to serve) and report whether the target is
/// still resolvable.
pub fn deny_service(network: &mut TorNetwork, plan: &HsdirTakeoverPlan) -> bool {
    for fp in &plan.planted_fingerprints {
        network.wipe_hsdir(*fp);
    }
    !network.is_resolvable(plan.target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn planted_relays_become_responsible_after_25_hours() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut network = TorNetwork::new(50, &mut rng);
        let target = OnionAddress::from_identifier([0x42; 10]);
        network.register_hidden_service(target);

        // Plan against the time at which the check will happen (the
        // adversary knows descriptor IDs rotate daily and positions for the
        // upcoming period).
        let future = network.time_secs() + 26 * 3600;
        let plan = plan_takeover(target, future, 1_000_000);
        assert_eq!(
            plan.planted_fingerprints.len(),
            6,
            "3 HSDirs per replica, 2 replicas"
        );

        let responsible = execute_takeover(&mut network, &plan);
        assert!(
            responsible >= 4,
            "most planted relays should take responsible positions, got {responsible}"
        );
    }

    #[test]
    fn takeover_denies_a_single_onion_address() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut network = TorNetwork::new(40, &mut rng);
        let target = OnionAddress::from_identifier([0x99; 10]);
        network.register_hidden_service(target);

        let future = network.time_secs() + 26 * 3600;
        let plan = plan_takeover(target, future, 0);
        execute_takeover(&mut network, &plan);

        // The bot (re-)announces its service for the new period; the
        // announcement lands on the adversary's relays, which then refuse to
        // serve it.
        network.announce_service(target).unwrap();
        assert!(network.is_resolvable(target));
        let denied = deny_service(&mut network, &plan);
        assert!(denied, "target should be unreachable after the denial");
    }

    #[test]
    fn rotating_addresses_escape_a_static_takeover() {
        // The paper's point: blocking one .onion does not help because bots
        // rotate. A plan for address A does not affect address B.
        let mut rng = StdRng::seed_from_u64(3);
        let mut network = TorNetwork::new(40, &mut rng);
        let today = OnionAddress::from_identifier([0x10; 10]);
        let tomorrow = OnionAddress::from_identifier([0x77; 10]);
        network.register_hidden_service(today);
        network.register_hidden_service(tomorrow);

        let future = network.time_secs() + 26 * 3600;
        let plan = plan_takeover(today, future, 0);
        execute_takeover(&mut network, &plan);
        network.announce_service(tomorrow).unwrap();
        deny_service(&mut network, &plan);
        assert!(
            network.is_resolvable(tomorrow),
            "an address the adversary did not plan for stays reachable"
        );
    }

    #[test]
    fn plan_reports_simulated_keygen_cost() {
        let target = OnionAddress::from_identifier([5; 10]);
        let plan = plan_takeover(target, 1000, 500_000);
        assert_eq!(plan.keygen_attempts, 1_000_000, "cost scales with replicas");
    }
}
