//! Periodic `.onion` address rotation ("forgetting", §IV-C / §IV-D).
//!
//! "each bot can periodically change his `.onion` address and announce the
//! new address to his current peer list. The new `.onion` address is
//! generated based on a secret key and time." Both the bot and the botmaster
//! derive the same address sequence from the shared key `K_B`, so the C&C can
//! always reach a bot even though every externally observed address is
//! short-lived.
//!
//! For scale, the rotation used by the overlay derives the 80-bit onion
//! identifier directly from the period secret instead of generating a fresh
//! RSA key per period per bot; the *sequence structure* (deterministic from
//! `(PK_CC, K_B, period)`, unlinkable without `K_B`) is what the experiments
//! rely on, and [`AddressSchedule::rotated_service_key_seed`] exposes the
//! seed a full RSA-backed rotation would use.

use onion_crypto::kdf::{derive_period_secret, derive_period_seed};
use onion_crypto::rsa::RsaPublicKey;
use serde::{Deserialize, Serialize};
use tor_sim::onion::OnionAddress;

/// The address schedule of a single bot: everything needed to compute its
/// onion address for any period.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressSchedule {
    k_b: [u8; 32],
    pk_cc_bytes: Vec<u8>,
}

impl AddressSchedule {
    /// Creates a schedule from the bot's symmetric key and the botmaster's
    /// public key.
    pub fn new(pk_cc: &RsaPublicKey, k_b: [u8; 32]) -> Self {
        AddressSchedule {
            k_b,
            pk_cc_bytes: pk_cc.to_bytes(),
        }
    }

    /// The bot's onion address during `period`.
    pub fn address_for_period(&self, period: u64) -> OnionAddress {
        let pk_cc = RsaPublicKey::from_bytes(&self.pk_cc_bytes)
            .expect("schedule always stores a valid key encoding");
        let secret = derive_period_secret(&pk_cc, &self.k_b, period);
        let mut identifier = [0u8; 10];
        identifier.copy_from_slice(&secret[..10]);
        OnionAddress::from_identifier(identifier)
    }

    /// Seed for the RSA key a fully faithful implementation would generate
    /// for `period` (exposed so tests can demonstrate the equivalence).
    pub fn rotated_service_key_seed(&self, period: u64) -> u64 {
        let pk_cc = RsaPublicKey::from_bytes(&self.pk_cc_bytes)
            .expect("schedule always stores a valid key encoding");
        derive_period_seed(&pk_cc, &self.k_b, period)
    }

    /// The addresses for a consecutive range of periods.
    pub fn addresses(&self, periods: std::ops::Range<u64>) -> Vec<OnionAddress> {
        periods.map(|p| self.address_for_period(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_crypto::rsa::RsaKeyPair;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn schedule(seed: u64) -> (AddressSchedule, AddressSchedule) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cc = RsaKeyPair::generate(512, &mut rng);
        let k_b: [u8; 32] = rng.gen();
        // Bot side and botmaster side build the schedule independently from
        // the same inputs.
        let bot = AddressSchedule::new(cc.public(), k_b);
        let master = AddressSchedule::new(cc.public(), k_b);
        (bot, master)
    }

    #[test]
    fn bot_and_botmaster_derive_identical_addresses() {
        let (bot, master) = schedule(1);
        for period in 0..20 {
            assert_eq!(
                bot.address_for_period(period),
                master.address_for_period(period)
            );
        }
    }

    #[test]
    fn addresses_change_every_period() {
        let (bot, _) = schedule(2);
        let addresses = bot.addresses(0..50);
        for i in 0..addresses.len() {
            for j in i + 1..addresses.len() {
                assert_ne!(addresses[i], addresses[j], "periods {i} and {j} collided");
            }
        }
    }

    #[test]
    fn different_bots_never_collide() {
        let mut rng = StdRng::seed_from_u64(3);
        let cc = RsaKeyPair::generate(512, &mut rng);
        let a = AddressSchedule::new(cc.public(), rng.gen());
        let b = AddressSchedule::new(cc.public(), rng.gen());
        for period in 0..20 {
            assert_ne!(a.address_for_period(period), b.address_for_period(period));
        }
    }

    #[test]
    fn schedule_is_deterministic_across_serialization() {
        let (bot, _) = schedule(4);
        let json = serde_json::to_string(&bot).unwrap();
        let restored: AddressSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.address_for_period(7), bot.address_for_period(7));
        assert_eq!(
            restored.rotated_service_key_seed(7),
            bot.rotated_service_key_seed(7)
        );
    }
}
