//! # botnet
//!
//! The bot life-cycle and C&C layer of the OnionBots (DSN 2015) defensive
//! research simulator (§IV of the paper).
//!
//! * [`lifecycle`] — infection / rally / waiting / execution states.
//! * [`bot`] — a single bot: `K_B`, rotating addresses, command
//!   verification, inert execution counters.
//! * [`botmaster`] — the C&C side: key reports, address prediction, command
//!   signing, rental-token issuance.
//! * [`messages`] — signed commands, broadcast/directed audiences, uniform
//!   cell framing.
//! * [`bootstrap`] — rally strategies (hardcoded lists, hotlists,
//!   out-of-band, random probing) and their exposure.
//! * [`rental`] — botnet-for-rent tokens (§IV-E).
//! * [`crypto_catalog`] — Table I of the paper.
//! * [`simulation`] — the end-to-end [`simulation::BotnetSimulation`] over
//!   the simulated Tor network. Its bots peer in one DDSR overlay
//!   ([`onionbots_core::DdsrOverlay`]), which repairs and prunes around
//!   every takedown.
//!
//! **Scope note.** Everything here is a single-process simulation for
//! defensive research, mirroring the paper's preemptive-analysis goal.
//! Commands are inert data; no code for infection, network attacks or
//! persistence exists in this crate.
//!
//! ```
//! use botnet::simulation::BotnetSimulation;
//! use botnet::messages::CommandKind;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut sim = BotnetSimulation::new(20, &mut rng);
//! sim.infect(10, &mut rng);
//! sim.rally(3, &mut rng);
//! let report = sim.broadcast_command(CommandKind::Maintenance, 2, &mut rng);
//! assert_eq!(report.bots_reached, 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bootstrap;
pub mod bot;
pub mod botmaster;
pub mod crypto_catalog;
pub mod lifecycle;
pub mod messages;
pub mod observer;
pub mod rental;
pub mod simulation;

pub use bot::{Bot, BotId};
pub use botmaster::Botmaster;
pub use simulation::BotnetSimulation;

#[cfg(test)]
mod rental_flow_tests {
    //! The full botnet-for-rent flow from §IV-E: Mallory (botmaster) signs
    //! Trudy's (renter) key into a token, Trudy signs commands, bots accept
    //! whitelisted commands and reject everything else.

    use crate::bot::{Bot, BotId};
    use crate::botmaster::Botmaster;
    use crate::messages::{Audience, CommandKind, SignedCommand};
    use onion_crypto::rsa::RsaKeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn renter_can_issue_whitelisted_commands_only() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mallory = Botmaster::new(768, &mut rng);
        let trudy = RsaKeyPair::generate(512, &mut rng);
        let mut bot = Bot::infect(BotId(1), mallory.public_key(), &mut rng);
        bot.rally();

        let token = mallory.issue_rental_token(
            trudy.public(),
            10_000,
            vec!["simulated-compute".to_string()],
        );

        // Whitelisted command signed by Trudy: accepted.
        let allowed = SignedCommand::sign(
            &trudy,
            CommandKind::SimulatedCompute { work_units: 11 },
            Audience::Broadcast,
            mallory.next_sequence_for_renter(),
            100,
            Some(token.clone()),
        );
        assert!(bot.handle_command(&allowed, mallory.public_key(), 100));
        assert_eq!(bot.log().simulated_compute_units, 11);

        // Non-whitelisted command signed by Trudy: rejected.
        let forbidden = SignedCommand::sign(
            &trudy,
            CommandKind::SimulatedDdos {
                target: "example.org".to_string(),
            },
            Audience::Broadcast,
            mallory.next_sequence_for_renter(),
            101,
            Some(token.clone()),
        );
        assert!(!bot.handle_command(&forbidden, mallory.public_key(), 101));

        // Whitelisted command after token expiry: rejected.
        let expired = SignedCommand::sign(
            &trudy,
            CommandKind::SimulatedCompute { work_units: 1 },
            Audience::Broadcast,
            mallory.next_sequence_for_renter(),
            20_000,
            Some(token),
        );
        assert!(!bot.handle_command(&expired, mallory.public_key(), 20_000));
        assert_eq!(bot.log().simulated_compute_units, 11);
    }

    #[test]
    fn renter_cannot_forge_a_token_for_herself() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mallory = Botmaster::new(768, &mut rng);
        let trudy = RsaKeyPair::generate(512, &mut rng);
        let mut bot = Bot::infect(BotId(1), mallory.public_key(), &mut rng);
        bot.rally();

        // Trudy signs a token with her own key instead of Mallory's.
        let forged = crate::rental::RentalToken::issue(
            &trudy,
            trudy.public(),
            10_000,
            vec!["simulated-ddos".to_string()],
        );
        let cmd = SignedCommand::sign(
            &trudy,
            CommandKind::SimulatedDdos {
                target: "example.org".to_string(),
            },
            Audience::Broadcast,
            mallory.next_sequence_for_renter(),
            100,
            Some(forged),
        );
        assert!(!bot.handle_command(&cmd, mallory.public_key(), 100));
        assert_eq!(bot.log().simulated_ddos, 0);
    }
}
