//! End-to-end botnet simulation over the simulated Tor network.
//!
//! [`BotnetSimulation`] wires the pieces together: bots register hidden
//! services in [`tor_sim::TorNetwork`], report their keys to the
//! [`Botmaster`], form one DDSR overlay ([`DdsrOverlay`], §IV-C) in the
//! rally stage, and propagate signed commands by gossip along it — every
//! hop delivered through Tor by onion address and wrapped in a fixed-size
//! uniform cell under a per-link key.
//!
//! The overlay holds the peer relation by id: `BotId(i)` is its node
//! `NodeId::new(i)`, allocated from the graph's slab at infection and
//! never reused. A hop reads the peer's current `.onion` address from the
//! bot, so address rotation leaves the overlay untouched. A takedown goes
//! through the overlay's repair and prune, so the survivors' degrees stay
//! within `d_max`.
//!
//! Experiments use it to measure command coverage before and after
//! takedowns and address rotation.

use std::collections::{BTreeMap, VecDeque};

use onion_crypto::elligator::UniformEncoder;
use onion_crypto::kdf::derive_link_key;
use onion_graph::graph::{Graph, NodeId};
use onionbots_core::{DdsrConfig, DdsrOverlay};
use rand::seq::SliceRandom;
use rand::Rng;
use tor_sim::network::TorNetwork;
use tor_sim::onion::OnionAddress;

use crate::bot::{Bot, BotId};
use crate::botmaster::Botmaster;
use crate::messages::{Audience, CommandKind, SignedCommand};

/// Outcome of propagating one command through the botnet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropagationReport {
    /// Bots that received the command (acted or relayed).
    pub bots_reached: usize,
    /// Bots that acted on the command.
    pub bots_executed: usize,
    /// Live bots at propagation time.
    pub population: usize,
    /// Gossip rounds needed.
    pub rounds: usize,
    /// Point-to-point Tor deliveries attempted.
    pub messages_sent: usize,
    /// Deliveries Tor failed: the address had no current descriptor or
    /// its service was down. A taken-down bot is no bot's peer, so gossip
    /// never sends to it.
    pub messages_failed: usize,
}

impl PropagationReport {
    /// Fraction of the live population reached.
    pub fn coverage(&self) -> f64 {
        if self.population == 0 {
            return 0.0;
        }
        self.bots_reached as f64 / self.population as f64
    }
}

/// The complete simulated botnet: Tor substrate, botmaster, bot
/// population and their overlay.
#[derive(Debug)]
pub struct BotnetSimulation {
    tor: TorNetwork,
    botmaster: Botmaster,
    /// Ordered (detlint D001): `publish_all_descriptors` and `rotate_all`
    /// iterate the population, so bot order must be id order, not hash
    /// order, for seed replay to hold.
    bots: BTreeMap<BotId, Bot>,
    /// The peer relation; node `NodeId::new(i)` is `BotId(i)`.
    overlay: DdsrOverlay,
    link_secret: Vec<u8>,
    clock_secs: u64,
}

impl BotnetSimulation {
    /// Creates a simulation with `relay_count` Tor relays and a fresh
    /// botmaster.
    pub fn new<R: Rng + ?Sized>(relay_count: usize, rng: &mut R) -> Self {
        let botmaster = Botmaster::new(768, rng);
        let link_secret = botmaster.public_key().to_bytes();
        BotnetSimulation {
            tor: TorNetwork::new(relay_count, rng),
            botmaster,
            bots: BTreeMap::new(),
            overlay: DdsrOverlay::from_graph(Graph::new(), DdsrConfig::default()),
            link_secret,
            clock_secs: 0,
        }
    }

    /// Read access to the Tor network (statistics, consensus manipulation).
    pub fn tor(&self) -> &TorNetwork {
        &self.tor
    }

    /// Read access to the botmaster.
    pub fn botmaster(&self) -> &Botmaster {
        &self.botmaster
    }

    /// Mutable access to the botmaster (issuing commands / tokens).
    pub fn botmaster_mut(&mut self) -> &mut Botmaster {
        &mut self.botmaster
    }

    /// The bots' overlay, whose node `NodeId::new(i)` is `BotId(i)`
    /// (see [`BotId::node`]). A bot's peers are its neighbors.
    pub fn overlay(&self) -> &DdsrOverlay {
        &self.overlay
    }

    /// The live bots' identifiers, in ascending order.
    pub fn bot_ids(&self) -> Vec<BotId> {
        self.bots.keys().copied().collect()
    }

    /// Current onion address of a bot.
    pub fn address_of(&self, bot: BotId) -> Option<OnionAddress> {
        self.bots.get(&bot).map(Bot::current_address)
    }

    /// Current simulation clock in seconds.
    pub fn clock_secs(&self) -> u64 {
        self.clock_secs
    }

    /// Advances the clock (and the Tor consensus).
    pub fn advance_time(&mut self, secs: u64) {
        self.clock_secs += secs;
        self.tor.advance_time(secs);
    }

    /// Infects `count` new bots: each takes the next node id of the
    /// overlay (no peers yet), generates its identity, registers its
    /// hidden service, and reports `K_B` to the botmaster.
    pub fn infect<R: Rng + ?Sized>(&mut self, count: usize, rng: &mut R) -> Vec<BotId> {
        let mut new_ids = Vec::with_capacity(count);
        for _ in 0..count {
            let id = BotId::from(self.overlay.add_isolated_node());
            let bot = Bot::infect(id, self.botmaster.public_key(), rng);
            let addr = bot.current_address();
            self.tor.register_hidden_service(addr);
            self.tor
                .announce_service(addr)
                .expect("freshly registered services can announce");
            let report = bot
                .key_report(self.botmaster.public_key(), rng)
                .expect("32-byte key always fits under a 768-bit modulus");
            self.botmaster
                .register_key_report(id, &report)
                .expect("self-produced reports decrypt");
            self.bots.insert(id, bot);
            new_ids.push(id);
        }
        new_ids
    }

    /// Rally: the `n` bots infected so far form a fresh overlay, a random
    /// `k`-regular graph under DDSR maintenance with
    /// [`DdsrConfig::for_degree`]`(k)`, and settle into the waiting state.
    ///
    /// # Panics
    /// If `k >= n` or `n * k` is odd, which rule out a `k`-regular graph,
    /// or if a bot has been taken down before the rally.
    pub fn rally<R: Rng + ?Sized>(&mut self, k: usize, rng: &mut R) {
        let n = self.overlay.graph().id_bound();
        assert_eq!(self.bots.len(), n, "the rally precedes every takedown");
        (self.overlay, _) = DdsrOverlay::new_regular(n, k, DdsrConfig::for_degree(k), rng);
        for bot in self.bots.values_mut() {
            bot.rally();
        }
    }

    /// Takes a bot down (defender cleanup): its hidden service is
    /// deregistered and the overlay repairs around it — its former peers
    /// pair up, then each prunes back to `d_max`. Returns `false` if the
    /// bot was not alive.
    pub fn take_down<R: Rng + ?Sized>(&mut self, bot: BotId, rng: &mut R) -> bool {
        let Some(b) = self.bots.remove(&bot) else {
            return false;
        };
        self.tor.deregister_hidden_service(b.current_address());
        self.overlay.remove_node_with_repair(bot.node(), rng);
        self.rally_isolated_bots();
        true
    }

    /// Sends every waiting bot that the overlay left without a peer back
    /// to the rally state.
    fn rally_isolated_bots(&mut self) {
        let graph = self.overlay.graph();
        for (id, bot) in &mut self.bots {
            if graph.degree(id.node()) == Some(0) {
                bot.lose_last_peer();
            }
        }
    }

    /// Applies a `ReplacePeer` the bot at `node` acted on: it forgets the
    /// bot at `drop`, then asks the bot at `adopt` to peer, which that bot
    /// accepts, rejects or makes room for by the maintenance policy.
    fn replace_peer<R: Rng + ?Sized>(
        &mut self,
        node: NodeId,
        drop: OnionAddress,
        adopt: OnionAddress,
        rng: &mut R,
    ) {
        let node_at = |addr| {
            self.bots
                .iter()
                .find(|(_, bot)| bot.current_address() == addr)
                .map(|(id, _)| id.node())
        };
        let (drop, adopt) = (node_at(drop), node_at(adopt));
        if let Some(peer) = drop {
            self.overlay.forget_peer(node, peer);
        }
        if let Some(target) = adopt {
            let degree = self.overlay.graph().degree(node).unwrap_or(0);
            self.overlay.request_peering(node, target, degree, rng);
        }
        self.rally_isolated_bots();
    }

    fn encoder_for(&self, a: OnionAddress, b: OnionAddress) -> UniformEncoder {
        let key = derive_link_key(&self.link_secret, &a.identifier(), &b.identifier());
        UniformEncoder::new(key)
    }

    /// Issues a command as the botmaster and propagates it by gossip from
    /// `seeds` randomly chosen bots.
    pub fn broadcast_command<R: Rng + ?Sized>(
        &mut self,
        command: CommandKind,
        seeds: usize,
        rng: &mut R,
    ) -> PropagationReport {
        let signed = self
            .botmaster
            .issue(command, Audience::Broadcast, self.clock_secs);
        self.propagate(&signed, seeds, rng)
    }

    /// Propagates an already-signed command (used for renter-issued
    /// commands) by gossip from `seeds` random entry bots. Each bot
    /// forwards it to its overlay peers in ascending id order.
    pub fn propagate<R: Rng + ?Sized>(
        &mut self,
        command: &SignedCommand,
        seeds: usize,
        rng: &mut R,
    ) -> PropagationReport {
        let mut report = PropagationReport {
            population: self.bots.len(),
            ..PropagationReport::default()
        };
        if self.bots.is_empty() {
            return report;
        }
        let botmaster_key = self.botmaster.public_key().clone();
        let mut seed_ids = self.bot_ids();
        seed_ids.shuffle(rng);
        seed_ids.truncate(seeds.max(1));

        let mut reached = vec![false; self.overlay.graph().id_bound()];
        let mut queue: VecDeque<(NodeId, usize)> = VecDeque::new();

        // The botmaster delivers the command to the seed bots through Tor
        // (it knows their addresses from the key reports).
        for id in seed_ids {
            let addr = self.bots[&id].current_address();
            let encoder = self.encoder_for(addr, addr);
            let cell = command
                .to_cell(&encoder, rng)
                .expect("commands fit in one uniform cell");
            report.messages_sent += 1;
            if self.tor.send_to_onion(addr, cell).is_ok() {
                let node = id.node();
                if !reached[node.index()] {
                    reached[node.index()] = true;
                    queue.push_back((node, 0));
                }
            } else {
                report.messages_failed += 1;
            }
        }

        let mut max_round = 0usize;
        while let Some((node, round)) = queue.pop_front() {
            max_round = max_round.max(round);
            // The bot drains its Tor mailbox, decodes, verifies and acts.
            let bot = self
                .bots
                .get_mut(&node.into())
                .expect("overlay nodes are live bots");
            let addr = bot.current_address();
            let _delivered = self.tor.drain_mailbox(addr);
            if bot.handle_command(command, &botmaster_key, self.clock_secs) {
                report.bots_executed += 1;
                if let CommandKind::ReplacePeer { drop, adopt } = command.command {
                    self.replace_peer(node, drop, adopt, rng);
                }
            }
            // Forward to every peer that has not been reached yet.
            for &peer in self.overlay.graph().neighbors(node).unwrap_or_default() {
                if reached[peer.index()] {
                    continue;
                }
                let peer_addr = self.bots[&peer.into()].current_address();
                let encoder = self.encoder_for(addr, peer_addr);
                let cell = command
                    .to_cell(&encoder, rng)
                    .expect("commands fit in one uniform cell");
                report.messages_sent += 1;
                match self.tor.send_to_onion(peer_addr, cell) {
                    Ok(()) => {
                        reached[peer.index()] = true;
                        queue.push_back((peer, round + 1));
                    }
                    Err(_) => report.messages_failed += 1,
                }
            }
        }

        report.bots_reached = reached.iter().filter(|&&r| r).count();
        report.rounds = max_round;
        report
    }

    /// Re-announces descriptors for every live bot (needed after address
    /// rotation or the daily descriptor-id rollover). Returns the number of
    /// bots announced.
    pub fn publish_all_descriptors(&mut self) -> usize {
        let mut published = 0usize;
        let addrs: Vec<OnionAddress> = self.bots.values().map(Bot::current_address).collect();
        for addr in addrs {
            self.tor.register_hidden_service(addr);
            if self.tor.announce_service(addr).is_ok() {
                published += 1;
            }
        }
        published
    }

    /// Rotates every bot to a new period: addresses change, old services
    /// are deregistered, new ones registered and announced. Models the
    /// network-wide "forgetting" step. Peers are node ids, so the overlay
    /// is untouched: each hop reads the peer's new address from the bot.
    pub fn rotate_all(&mut self, period: u64) {
        for bot in self.bots.values_mut() {
            let (old, new) = bot.rotate_to(period);
            self.tor.deregister_hidden_service(old);
            self.tor.register_hidden_service(new);
            let _ = self.tor.announce_service(new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::BotState;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_botnet(seed: u64, bots: usize, k: usize) -> (BotnetSimulation, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sim = BotnetSimulation::new(30, &mut rng);
        sim.infect(bots, &mut rng);
        sim.rally(k, &mut rng);
        (sim, rng)
    }

    #[test]
    fn infection_registers_bots_with_master_and_tor() {
        let (sim, _) = small_botnet(1, 12, 3);
        assert_eq!(sim.bots.len(), 12);
        assert_eq!(sim.botmaster().known_bot_count(), 12);
        assert_eq!(sim.tor().registered_service_count(), 12);
        for id in sim.bot_ids() {
            assert_eq!(sim.overlay().graph().degree(id.node()), Some(3));
        }
    }

    #[test]
    fn bots_infected_after_a_takedown_get_fresh_ids() {
        let (mut sim, mut rng) = small_botnet(9, 10, 3);
        assert!(sim.take_down(BotId(0), &mut rng));
        let fresh = sim.infect(1, &mut rng);
        assert_eq!(fresh, vec![BotId(10)], "ids are never reused");
        assert_eq!(sim.bot_ids().len(), 10);
        assert_eq!(sim.tor().registered_service_count(), 10);
        assert_eq!(sim.overlay().node_count(), 10);
    }

    #[test]
    fn broadcast_reaches_every_bot() {
        let (mut sim, mut rng) = small_botnet(2, 15, 4);
        let report = sim.broadcast_command(CommandKind::Maintenance, 2, &mut rng);
        assert_eq!(report.bots_reached, 15);
        assert_eq!(report.bots_executed, 15);
        assert!((report.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(report.messages_failed, 0);
        for id in sim.bot_ids() {
            assert_eq!(sim.bots[&id].log().maintenance, 1);
        }
    }

    #[test]
    fn takedowns_reduce_coverage_but_do_not_break_verification() {
        let (mut sim, mut rng) = small_botnet(3, 20, 3);
        for id in sim.bot_ids().into_iter().take(8) {
            assert!(sim.take_down(id, &mut rng));
        }
        assert!(!sim.take_down(BotId(0), &mut rng), "already down");
        assert_eq!(sim.bots.len(), 12);
        let report = sim.broadcast_command(CommandKind::Maintenance, 2, &mut rng);
        assert_eq!(
            report.bots_reached, 12,
            "the repaired overlay reaches every survivor"
        );
        assert_eq!(report.bots_executed, 12);
        assert_eq!(
            report.messages_failed, 0,
            "taken-down bots are no survivor's peers"
        );
    }

    #[test]
    fn repair_keeps_degrees_within_d_max_after_a_one_third_takedown() {
        let (mut sim, mut rng) = small_botnet(10, 30, 4);
        let d_max = sim.overlay().config().d_max;
        for id in sim.bot_ids().into_iter().step_by(3) {
            assert!(sim.take_down(id, &mut rng));
        }
        assert_eq!(sim.overlay().node_count(), 20);
        let graph = sim.overlay().graph();
        graph.check_invariants().unwrap();
        for id in sim.bot_ids() {
            assert!(graph.degree(id.node()).unwrap() <= d_max);
        }
        assert!(
            sim.overlay().stats().edges_added > 0,
            "takedowns were repaired"
        );
    }

    #[test]
    fn a_bot_left_without_peers_falls_back_to_rally() {
        let (mut sim, mut rng) = small_botnet(11, 4, 3);
        for id in [BotId(0), BotId(1), BotId(2)] {
            assert!(sim.take_down(id, &mut rng));
        }
        assert_eq!(sim.bots[&BotId(3)].state(), BotState::Rally);
    }

    #[test]
    fn sequence_numbers_prevent_replaying_old_commands() {
        let (mut sim, mut rng) = small_botnet(4, 8, 3);
        let first =
            sim.broadcast_command(CommandKind::SimulatedCompute { work_units: 3 }, 1, &mut rng);
        assert_eq!(first.bots_executed, 8);
        // Replay the same signed command object: every bot rejects it.
        let replay = sim
            .botmaster_mut()
            .issue(CommandKind::Maintenance, Audience::Broadcast, 0);
        let _ = sim.propagate(&replay, 1, &mut rng);
        let second = sim.propagate(&replay, 1, &mut rng);
        assert_eq!(
            second.bots_executed, 0,
            "replayed sequence numbers are rejected"
        );
    }

    #[test]
    fn directed_commands_execute_only_on_target_bots() {
        let (mut sim, mut rng) = small_botnet(5, 10, 3);
        let target = sim.bot_ids()[0];
        let target_addr = sim.address_of(target).unwrap();
        let cmd = {
            let now = sim.clock_secs();
            sim.botmaster_mut().issue(
                CommandKind::Maintenance,
                Audience::Directed(vec![target_addr]),
                now,
            )
        };
        let report = sim.propagate(&cmd, 2, &mut rng);
        assert_eq!(report.bots_executed, 1);
        assert!(report.bots_reached > 1, "non-targets still relay");
        assert_eq!(sim.bots[&target].log().maintenance, 1);
    }

    #[test]
    fn overlay_reflects_peer_relations() {
        let (sim, _) = small_botnet(7, 10, 3);
        let overlay = sim.overlay();
        assert_eq!(overlay.node_count(), 10);
        assert_eq!(overlay.config(), DdsrConfig::for_degree(3));
        for id in sim.bot_ids() {
            let peers = overlay.peers(id.node()).unwrap();
            assert_eq!(peers.len(), 3, "{id} has its k rally peers");
            assert!(peers.iter().all(|&p| sim.address_of(p.into()).is_some()));
        }
        overlay.graph().check_invariants().unwrap();
    }

    #[test]
    fn overlay_drops_taken_down_bots() {
        let (mut sim, mut rng) = small_botnet(8, 10, 3);
        let victim = sim.bot_ids()[0];
        sim.take_down(victim, &mut rng);
        assert_eq!(sim.overlay().node_count(), 9);
        assert!(!sim.overlay().graph().contains(victim.node()));
    }

    #[test]
    fn empty_botnet_propagation_is_a_noop() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut sim = BotnetSimulation::new(10, &mut rng);
        let report = sim.broadcast_command(CommandKind::Maintenance, 3, &mut rng);
        assert_eq!(report.bots_reached, 0);
        assert_eq!(report.coverage(), 0.0);
    }
}
