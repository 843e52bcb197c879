//! A single simulated bot.
//!
//! A bot owns the shared key `K_B` it establishes with the botmaster at
//! infection time, derives its rotating `.onion` addresses from it and
//! verifies every command it acts on. Its peers are edges of the
//! simulation's overlay, where its [`BotId`] is its node. All command
//! "execution" is an inert counter update.

use onion_crypto::error::CryptoError;
use onion_crypto::rsa::RsaPublicKey;
use onion_graph::graph::NodeId;
use onionbots_core::rotation::AddressSchedule;
use rand::Rng;
use tor_sim::onion::OnionAddress;

use crate::lifecycle::BotState;
use crate::messages::{CommandKind, SignedCommand};

/// Identifier of a bot inside the simulation: `BotId(i)` is node
/// `NodeId::new(i)` of the simulation's overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BotId(pub u64);

impl BotId {
    /// The bot's node in the simulation's overlay.
    ///
    /// # Panics
    /// If the id is past `u32::MAX`, as [`NodeId::new`] does.
    pub fn node(self) -> NodeId {
        NodeId::new(self.0 as usize)
    }
}

impl From<NodeId> for BotId {
    fn from(node: NodeId) -> Self {
        BotId(node.index() as u64)
    }
}

impl std::fmt::Display for BotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bot{}", self.0)
    }
}

/// Counters of (inert) command executions, used by experiments to check
/// which bots acted on which commands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionLog {
    /// Maintenance / keep-alive commands processed.
    pub maintenance: u64,
    /// Address rotation commands processed.
    pub rotations: u64,
    /// Simulated DDoS tasks acknowledged (never executed).
    pub simulated_ddos: u64,
    /// Simulated spam tasks acknowledged (never executed).
    pub simulated_spam: u64,
    /// Abstract compute work units acknowledged.
    pub simulated_compute_units: u64,
    /// Peer replacement instructions applied.
    pub peer_replacements: u64,
    /// Commands rejected (bad signature, replay, expired token, ...).
    pub rejected: u64,
}

/// A simulated bot.
#[derive(Debug, Clone)]
pub struct Bot {
    id: BotId,
    state: BotState,
    k_b: [u8; 32],
    schedule: AddressSchedule,
    current_period: u64,
    log: ExecutionLog,
    last_sequence: Option<u64>,
}

impl Bot {
    /// Infects a new host: generates `K_B` and the address schedule bound to
    /// the botmaster's public key (which is hard-coded in the sample).
    pub fn infect<R: Rng + ?Sized>(id: BotId, botmaster_key: &RsaPublicKey, rng: &mut R) -> Self {
        let k_b: [u8; 32] = rng.gen();
        Bot {
            id,
            state: BotState::Infection,
            k_b,
            schedule: AddressSchedule::new(botmaster_key, k_b),
            current_period: 0,
            log: ExecutionLog::default(),
            last_sequence: None,
        }
    }

    /// The bot's identifier.
    pub fn id(&self) -> BotId {
        self.id
    }

    /// Current life-cycle state.
    pub fn state(&self) -> BotState {
        self.state
    }

    /// The shared key `K_B` (test/experiment access; the botmaster learns it
    /// through [`Self::key_report`]).
    pub fn k_b(&self) -> [u8; 32] {
        self.k_b
    }

    /// Execution counters so far.
    pub fn log(&self) -> ExecutionLog {
        self.log
    }

    /// The bot's `.onion` address for the current period.
    pub fn current_address(&self) -> OnionAddress {
        self.schedule.address_for_period(self.current_period)
    }

    /// Encrypts `K_B` to the botmaster ({K_B}_{PK_CC}), the report sent
    /// during the rally stage.
    ///
    /// # Errors
    /// Propagates RSA encryption failures.
    pub fn key_report<R: Rng + ?Sized>(
        &self,
        botmaster_key: &RsaPublicKey,
        rng: &mut R,
    ) -> Result<Vec<u8>, CryptoError> {
        botmaster_key.encrypt(&self.k_b, rng)
    }

    /// Rally: the bot has joined the overlay and settles into the waiting
    /// state.
    pub fn rally(&mut self) {
        if self.state == BotState::Infection {
            self.state = BotState::Rally;
        }
        if self.state == BotState::Rally {
            self.state = BotState::Waiting;
        }
    }

    /// The bot's last overlay peer is gone: a waiting bot falls back to the
    /// rally state.
    pub fn lose_last_peer(&mut self) {
        if self.state == BotState::Waiting {
            self.state = BotState::Rally;
        }
    }

    /// Rotates to a new period: the old address is forgotten and a new one
    /// becomes current. Returns `(old, new)` so callers can announce the
    /// change to peers and re-register the hidden service.
    pub fn rotate_to(&mut self, period: u64) -> (OnionAddress, OnionAddress) {
        let old = self.current_address();
        self.current_period = period;
        (old, self.current_address())
    }

    /// Verifies and (if applicable) acts on a command. Returns `true` when
    /// the bot acted on the command, `false` when it only relays it.
    ///
    /// Rejection reasons (bad signature, replayed sequence number, token
    /// problems) are counted in the execution log.
    pub fn handle_command(
        &mut self,
        command: &SignedCommand,
        botmaster_key: &RsaPublicKey,
        now_secs: u64,
    ) -> bool {
        if !command.verify(botmaster_key, now_secs) {
            self.log.rejected += 1;
            return false;
        }
        if let Some(last) = self.last_sequence {
            if command.sequence <= last {
                // Replay or out-of-order duplicate.
                self.log.rejected += 1;
                return false;
            }
        }
        if !command.applies_to(self.current_address()) {
            // Relay-only: remember the sequence so a later replay directed at
            // us is still rejected.
            self.last_sequence = Some(command.sequence);
            return false;
        }
        self.last_sequence = Some(command.sequence);
        self.state = BotState::Execution;
        match &command.command {
            CommandKind::Maintenance => self.log.maintenance += 1,
            CommandKind::RotateAddresses { period } => {
                self.rotate_to(*period);
                self.log.rotations += 1;
            }
            CommandKind::SimulatedDdos { .. } => self.log.simulated_ddos += 1,
            CommandKind::SimulatedSpam { .. } => self.log.simulated_spam += 1,
            CommandKind::SimulatedCompute { work_units } => {
                self.log.simulated_compute_units += work_units;
            }
            // The simulation rewires the overlay.
            CommandKind::ReplacePeer { .. } => self.log.peer_replacements += 1,
        }
        self.state = BotState::Waiting;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Audience;
    use crate::simulation::BotnetSimulation;
    use onion_crypto::rsa::RsaKeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn master(seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(512, &mut rng)
    }

    #[test]
    fn infection_to_waiting_life_cycle() {
        let mut rng = StdRng::seed_from_u64(1);
        let cc = master(1);
        let mut bot = Bot::infect(BotId(1), cc.public(), &mut rng);
        assert_eq!(bot.state(), BotState::Infection);
        bot.rally();
        assert_eq!(bot.state(), BotState::Waiting);
    }

    #[test]
    fn key_report_lets_the_botmaster_recover_k_b() {
        let mut rng = StdRng::seed_from_u64(2);
        let cc = master(2);
        let bot = Bot::infect(BotId(2), cc.public(), &mut rng);
        let report = bot.key_report(cc.public(), &mut rng).unwrap();
        assert_eq!(cc.decrypt(&report).unwrap(), bot.k_b().to_vec());
    }

    #[test]
    fn address_rotation_changes_the_address_deterministically() {
        let mut rng = StdRng::seed_from_u64(3);
        let cc = master(3);
        let mut bot = Bot::infect(BotId(3), cc.public(), &mut rng);
        let original = bot.current_address();
        let (old, new) = bot.rotate_to(5);
        assert_eq!(old, original);
        assert_ne!(new, original);
        assert_eq!(bot.current_period, 5);
        // The botmaster can derive the same new address from K_B.
        let schedule = AddressSchedule::new(cc.public(), bot.k_b());
        assert_eq!(schedule.address_for_period(5), new);
    }

    #[test]
    fn valid_broadcast_commands_are_executed_once() {
        let mut rng = StdRng::seed_from_u64(4);
        let cc = master(4);
        let mut bot = Bot::infect(BotId(4), cc.public(), &mut rng);
        bot.rally();
        let cmd = SignedCommand::sign(
            &cc,
            CommandKind::SimulatedCompute { work_units: 7 },
            Audience::Broadcast,
            1,
            100,
            None,
        );
        assert!(bot.handle_command(&cmd, cc.public(), 100));
        assert_eq!(bot.log().simulated_compute_units, 7);
        // Replay of the same sequence number is rejected.
        assert!(!bot.handle_command(&cmd, cc.public(), 100));
        assert_eq!(bot.log().rejected, 1);
        assert_eq!(bot.log().simulated_compute_units, 7);
    }

    #[test]
    fn forged_commands_are_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let cc = master(5);
        let impostor = master(6);
        let mut bot = Bot::infect(BotId(5), cc.public(), &mut rng);
        let cmd = SignedCommand::sign(
            &impostor,
            CommandKind::Maintenance,
            Audience::Broadcast,
            1,
            10,
            None,
        );
        assert!(!bot.handle_command(&cmd, cc.public(), 10));
        assert_eq!(bot.log().rejected, 1);
        assert_eq!(bot.log().maintenance, 0);
    }

    #[test]
    fn directed_commands_are_relayed_but_not_executed_by_others() {
        let mut rng = StdRng::seed_from_u64(6);
        let cc = master(7);
        let mut bot = Bot::infect(BotId(6), cc.public(), &mut rng);
        let other_addr = OnionAddress::from_identifier([0xaa; 10]);
        let cmd = SignedCommand::sign(
            &cc,
            CommandKind::Maintenance,
            Audience::Directed(vec![other_addr]),
            1,
            10,
            None,
        );
        assert!(!bot.handle_command(&cmd, cc.public(), 10));
        assert_eq!(bot.log().maintenance, 0);
        assert_eq!(bot.log().rejected, 0, "relaying is not a rejection");
    }

    #[test]
    fn replace_peer_command_updates_the_peer_list() {
        // The bot counts the instruction...
        let mut rng = StdRng::seed_from_u64(7);
        let cc = master(8);
        let mut bot = Bot::infect(BotId(7), cc.public(), &mut rng);
        let cmd = SignedCommand::sign(
            &cc,
            CommandKind::ReplacePeer {
                drop: OnionAddress::from_identifier([1; 10]),
                adopt: OnionAddress::from_identifier([2; 10]),
            },
            Audience::Directed(vec![bot.current_address()]),
            1,
            10,
            None,
        );
        assert!(bot.handle_command(&cmd, cc.public(), 10));
        assert_eq!(bot.log().peer_replacements, 1);

        // ...and the simulation applies it to the overlay, which holds the
        // bot's peer list.
        let mut sim = BotnetSimulation::new(20, &mut rng);
        sim.infect(10, &mut rng);
        sim.rally(3, &mut rng);
        let target = BotId(0);
        let peers = sim.overlay().peers(target.node()).unwrap();
        let drop = peers[0];
        let adopt = (1..10)
            .map(NodeId::new)
            .find(|node| !peers.contains(node))
            .unwrap();
        let addresses = [target.node(), drop, adopt].map(|n| sim.address_of(n.into()).unwrap());
        let cmd = {
            let now = sim.clock_secs();
            sim.botmaster_mut().issue(
                CommandKind::ReplacePeer {
                    drop: addresses[1],
                    adopt: addresses[2],
                },
                Audience::Directed(vec![addresses[0]]),
                now,
            )
        };
        assert_eq!(sim.propagate(&cmd, 1, &mut rng).bots_executed, 1);
        let after = sim.overlay().peers(target.node()).unwrap();
        assert!(!after.contains(&drop));
        assert!(after.contains(&adopt));
        assert!(
            sim.overlay().graph().max_degree() <= 3,
            "adopting stays within d_max"
        );
    }

    #[test]
    fn losing_every_peer_returns_the_bot_to_rally() {
        let mut rng = StdRng::seed_from_u64(8);
        let cc = master(9);
        let mut bot = Bot::infect(BotId(8), cc.public(), &mut rng);
        bot.rally();
        assert_eq!(bot.state(), BotState::Waiting);
        bot.lose_last_peer();
        assert_eq!(bot.state(), BotState::Rally);
    }
}
