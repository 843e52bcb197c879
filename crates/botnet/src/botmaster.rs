//! The botmaster (C&C operator) side of the protocol.
//!
//! The botmaster owns `SK_CC`, learns each bot's `K_B` from its encrypted
//! key report, can therefore compute every bot's current `.onion` address
//! without any communication, signs commands, and issues rental tokens
//! (§IV-D, §IV-E).

use std::collections::BTreeMap;

use onion_crypto::error::CryptoError;
use onion_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use onionbots_core::rotation::AddressSchedule;
use rand::Rng;
use tor_sim::onion::OnionAddress;

use crate::bot::BotId;
use crate::messages::{Audience, CommandKind, SignedCommand};
use crate::rental::RentalToken;

/// The botmaster: key material plus the registry of bots that reported their
/// shared keys.
#[derive(Debug)]
pub struct Botmaster {
    keypair: RsaKeyPair,
    /// Ordered (detlint D001): a future "enumerate every bot" campaign
    /// scenario will iterate this registry, and that sweep must happen in
    /// id order for seed replay to hold.
    bots: BTreeMap<BotId, AddressSchedule>,
    next_sequence: u64,
}

impl Botmaster {
    /// Creates a botmaster with a fresh key pair of `modulus_bits` bits.
    pub fn new<R: Rng + ?Sized>(modulus_bits: usize, rng: &mut R) -> Self {
        Botmaster {
            keypair: RsaKeyPair::generate(modulus_bits, rng),
            bots: BTreeMap::new(),
            next_sequence: 1,
        }
    }

    /// The public key hard-coded into every bot sample.
    pub fn public_key(&self) -> &RsaPublicKey {
        self.keypair.public()
    }

    /// Number of bots that have reported their keys.
    pub fn known_bot_count(&self) -> usize {
        self.bots.len()
    }

    /// Processes an encrypted key report `{K_B}_{PK_CC}` from a bot.
    ///
    /// # Errors
    /// Returns the decryption error for malformed reports, or
    /// [`CryptoError::InvalidLength`] when the recovered key is not 32 bytes.
    pub fn register_key_report(&mut self, bot: BotId, report: &[u8]) -> Result<(), CryptoError> {
        let recovered = self.keypair.decrypt(report)?;
        if recovered.len() != 32 {
            return Err(CryptoError::InvalidLength {
                expected: "32-byte K_B".to_string(),
                actual: recovered.len(),
            });
        }
        let mut k_b = [0u8; 32];
        k_b.copy_from_slice(&recovered);
        self.bots
            .insert(bot, AddressSchedule::new(self.keypair.public(), k_b));
        Ok(())
    }

    /// The `.onion` address of a registered bot during `period` — the
    /// property that lets the C&C "access and control any bot, anytime"
    /// even after address rotation.
    pub fn address_of(&self, bot: BotId, period: u64) -> Option<OnionAddress> {
        self.bots.get(&bot).map(|s| s.address_for_period(period))
    }

    /// Signs a command as the botmaster (no rental token).
    pub fn issue(
        &mut self,
        command: CommandKind,
        audience: Audience,
        now_secs: u64,
    ) -> SignedCommand {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        SignedCommand::sign(&self.keypair, command, audience, sequence, now_secs, None)
    }

    /// Issues a rental token certifying `renter_key` until `expires_at_secs`
    /// for the whitelisted command names.
    pub fn issue_rental_token(
        &self,
        renter_key: &RsaPublicKey,
        expires_at_secs: u64,
        whitelisted_commands: Vec<String>,
    ) -> RentalToken {
        RentalToken::issue(
            &self.keypair,
            renter_key,
            expires_at_secs,
            whitelisted_commands,
        )
    }

    /// Reserves the next command sequence number for a renter-issued
    /// command, keeping the global replay-protection ordering intact.
    pub fn next_sequence_for_renter(&mut self) -> u64 {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        sequence
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bot::Bot;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn key_report_registration_and_address_prediction() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut master = Botmaster::new(768, &mut rng);
        let mut bot = Bot::infect(BotId(1), master.public_key(), &mut rng);
        bot.rally();
        let report = bot.key_report(master.public_key(), &mut rng).unwrap();
        master.register_key_report(BotId(1), &report).unwrap();
        assert_eq!(master.known_bot_count(), 1);
        // Without talking to the bot again, the master predicts its address
        // after rotation.
        bot.rotate_to(9);
        assert_eq!(master.address_of(BotId(1), 9), Some(bot.current_address()));
        assert_eq!(master.address_of(BotId(2), 9), None);
    }

    #[test]
    fn malformed_key_reports_are_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut master = Botmaster::new(512, &mut rng);
        assert!(master.register_key_report(BotId(1), &[0u8; 16]).is_err());
        // A correctly encrypted but wrongly sized payload is also rejected.
        let short = master.public_key().encrypt(b"too short", &mut rng).unwrap();
        assert!(matches!(
            master.register_key_report(BotId(1), &short),
            Err(CryptoError::InvalidLength { .. })
        ));
        assert_eq!(master.known_bot_count(), 0);
    }

    #[test]
    fn issued_commands_have_increasing_sequence_numbers() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut master = Botmaster::new(512, &mut rng);
        let c1 = master.issue(CommandKind::Maintenance, Audience::Broadcast, 10);
        let c2 = master.issue(CommandKind::Maintenance, Audience::Broadcast, 11);
        assert!(c2.sequence > c1.sequence);
        assert!(c1.verify(master.public_key(), 10));
        assert!(c2.verify(master.public_key(), 11));
    }

    #[test]
    fn rental_tokens_bind_renter_and_whitelist() {
        let mut rng = StdRng::seed_from_u64(4);
        let master = Botmaster::new(512, &mut rng);
        let renter = RsaKeyPair::generate(512, &mut rng);
        let token = master.issue_rental_token(
            renter.public(),
            1_000,
            vec!["simulated-compute".to_string()],
        );
        assert!(token.verify(master.public_key(), 500));
        assert!(!token.verify(master.public_key(), 2_000));
    }
}
