//! Simulated Tor relays (Onion Routers).
//!
//! A relay is identified by the 20-byte fingerprint of its identity key. The
//! paper's HSDir mitigation discussion (§VI-A) hinges on two properties that
//! are modelled here: the HSDir flag is only granted to relays that have been
//! up for at least 25 hours, and an adversary who can choose its identity key
//! can choose its position on the fingerprint ring.

use onion_crypto::hex;
use rand::Rng;

/// Minimum uptime (in hours) before a relay receives the HSDir flag,
/// as described in §III of the paper.
pub const HSDIR_MIN_UPTIME_HOURS: u64 = 25;

/// A 20-byte relay identity fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub [u8; 20]);

impl Fingerprint {
    /// Generates a random fingerprint, modelling a relay that generated a
    /// fresh identity key (the fingerprint of a fresh RSA key is
    /// computationally indistinguishable from uniform).
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 20];
        rng.fill(&mut bytes);
        Fingerprint(bytes)
    }

    /// Hex rendering (lowercase, 40 characters).
    pub fn to_hex(&self) -> String {
        hex::encode(&self.0)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", &self.to_hex()[..16])
    }
}

/// Flags a relay can carry in the consensus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RelayFlags {
    /// Eligible to store hidden-service descriptors.
    pub hsdir: bool,
    /// Suitable as an entry guard.
    pub guard: bool,
    /// Long-running and stable.
    pub stable: bool,
}

/// A simulated Tor relay.
#[derive(Debug, Clone, PartialEq)]
pub struct Relay {
    fingerprint: Fingerprint,
    bandwidth_kbps: u64,
    uptime_hours: u64,
    flags: RelayFlags,
}

impl Relay {
    /// Creates a relay with a random identity.
    pub fn new<R: Rng + ?Sized>(bandwidth_kbps: u64, rng: &mut R) -> Self {
        Relay::with_fingerprint(Fingerprint::random(rng), bandwidth_kbps)
    }

    /// Creates a relay with a chosen fingerprint — the primitive behind the
    /// HSDir positioning attack, where an adversary brute-forces identity
    /// keys until the fingerprint lands at a target ring position.
    pub fn with_fingerprint(fingerprint: Fingerprint, bandwidth_kbps: u64) -> Self {
        Relay {
            fingerprint,
            bandwidth_kbps,
            uptime_hours: 0,
            flags: RelayFlags::default(),
        }
    }

    /// The relay's fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Current consensus flags.
    pub fn flags(&self) -> RelayFlags {
        self.flags
    }

    /// Advances the relay's uptime and refreshes the flags the directory
    /// authorities would assign: HSDir after 25 hours, Guard/Stable after a
    /// week of uptime with adequate bandwidth.
    pub fn tick_hours(&mut self, hours: u64) {
        self.uptime_hours += hours;
        self.refresh_flags();
    }

    fn refresh_flags(&mut self) {
        self.flags.hsdir = self.uptime_hours >= HSDIR_MIN_UPTIME_HOURS;
        self.flags.stable = self.uptime_hours >= 24 * 7;
        self.flags.guard = self.flags.stable && self.bandwidth_kbps >= 2000;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fresh_relays_have_no_hsdir_flag() {
        let mut rng = StdRng::seed_from_u64(1);
        let relay = Relay::new(5000, &mut rng);
        assert!(!relay.flags().hsdir);
        assert_eq!(relay.uptime_hours, 0);
    }

    #[test]
    fn hsdir_flag_granted_after_25_hours() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut relay = Relay::new(5000, &mut rng);
        relay.tick_hours(24);
        assert!(!relay.flags().hsdir, "24 hours is not enough");
        relay.tick_hours(1);
        assert!(relay.flags().hsdir, "25 hours grants the flag");
    }

    #[test]
    fn guard_requires_bandwidth_and_stability() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut slow = Relay::new(100, &mut rng);
        slow.tick_hours(24 * 8);
        assert!(slow.flags().stable);
        assert!(!slow.flags().guard);
        let mut fast = Relay::new(10_000, &mut rng);
        fast.tick_hours(24 * 8);
        assert!(fast.flags().guard);
    }

    #[test]
    fn fingerprints_are_distinct_and_hex_renderable() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Fingerprint::random(&mut rng);
        let b = Fingerprint::random(&mut rng);
        assert_ne!(a, b);
        assert_eq!(a.to_hex().len(), 40);
        assert_eq!(format!("{a}").len(), 16);
    }

    #[test]
    fn chosen_fingerprint_is_preserved() {
        let fp = Fingerprint([7u8; 20]);
        let relay = Relay::with_fingerprint(fp, 1000);
        assert_eq!(relay.fingerprint(), fp);
    }
}
