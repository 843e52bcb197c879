//! The simulated consensus document.
//!
//! "The list of Tor relays, which is called the consensus document, is
//! published and updated every hour by the Tor authorities" (§III). The
//! simulator keeps one mutable [`Consensus`] that the network advances one
//! hour at a time; HSDir eligibility follows relay uptime.

use std::collections::BTreeMap;

use rand::Rng;

use crate::relay::{Fingerprint, Relay};

/// The hourly consensus: every known relay keyed (and ordered) by
/// fingerprint.
#[derive(Debug, Clone, Default)]
pub struct Consensus {
    relays: BTreeMap<Fingerprint, Relay>,
}

impl Consensus {
    /// Creates an empty consensus.
    pub fn new() -> Self {
        Consensus::default()
    }

    /// Bootstraps a consensus with `n` random relays that have already been
    /// up long enough to carry the HSDir flag (a steady-state Tor network).
    pub fn bootstrap<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut consensus = Consensus::new();
        for _ in 0..n {
            let mut relay = Relay::new(rng.gen_range(1000..20_000), rng);
            relay.tick_hours(26 + rng.gen_range(0..1000));
            consensus.add_relay(relay);
        }
        consensus
    }

    /// Adds (or replaces) a relay.
    pub fn add_relay(&mut self, relay: Relay) {
        self.relays.insert(relay.fingerprint(), relay);
    }

    /// The HSDir ring: fingerprints of all relays carrying the HSDir flag,
    /// in ascending fingerprint order (the "circle of the fingerprint of Tor
    /// relays" from Figure 2 of the paper).
    pub fn hsdir_ring(&self) -> Vec<Fingerprint> {
        self.relays
            .values()
            .filter(|r| r.flags().hsdir)
            .map(Relay::fingerprint)
            .collect()
    }

    /// Advances the consensus clock by `hours`, aging every relay and
    /// re-deriving its flags.
    pub fn advance_hours(&mut self, hours: u64) {
        for relay in self.relays.values_mut() {
            relay.tick_hours(hours);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bootstrap_produces_hsdir_capable_network() {
        let mut rng = StdRng::seed_from_u64(1);
        let consensus = Consensus::bootstrap(50, &mut rng);
        assert_eq!(consensus.relays.len(), 50);
        assert_eq!(consensus.hsdir_ring().len(), 50);
    }

    #[test]
    fn hsdir_ring_is_sorted_by_fingerprint() {
        let mut rng = StdRng::seed_from_u64(2);
        let consensus = Consensus::bootstrap(30, &mut rng);
        let ring = consensus.hsdir_ring();
        let mut sorted = ring.clone();
        sorted.sort_unstable();
        assert_eq!(ring, sorted);
    }

    #[test]
    fn new_relays_join_the_ring_only_after_25_hours() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut consensus = Consensus::bootstrap(10, &mut rng);
        let newcomer = Relay::new(5000, &mut rng);
        let fp = newcomer.fingerprint();
        consensus.add_relay(newcomer);
        assert_eq!(consensus.relays.len(), 11);
        assert_eq!(consensus.hsdir_ring().len(), 10, "newcomer lacks uptime");
        consensus.advance_hours(24);
        assert_eq!(consensus.hsdir_ring().len(), 10);
        consensus.advance_hours(1);
        assert_eq!(consensus.hsdir_ring().len(), 11);
        assert!(consensus.hsdir_ring().contains(&fp));
    }

    #[test]
    fn clock_advances() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut consensus = Consensus::new();
        let relay = Relay::new(5000, &mut rng);
        let fp = relay.fingerprint();
        consensus.add_relay(relay);
        consensus.advance_hours(5);
        assert!(!consensus.relays[&fp].flags().hsdir);
        consensus.advance_hours(20);
        assert!(
            consensus.relays[&fp].flags().hsdir,
            "advances add up to the 25 hours of uptime the flag needs"
        );
    }
}
