//! End-to-end botnet simulation over the simulated Tor network.
//!
//! [`BotnetSimulation`] wires the pieces together: bots register hidden
//! services in [`tor_sim::TorNetwork`], report their keys to the
//! [`Botmaster`], peer with each other to form the overlay, and propagate
//! signed commands by gossip — every hop delivered through Tor by onion
//! address and wrapped in a fixed-size uniform cell under a per-link key.
//!
//! Experiments use it to measure command coverage before and after
//! takedowns, and the mitigation crate reuses its bot population for SOAP.

#[allow(clippy::disallowed_types)]
// detlint: allow(D001) reason="imported only for the membership-only `reached` set in propagate()"
use std::collections::HashSet;
use std::collections::{BTreeMap, VecDeque};

use onion_crypto::elligator::UniformEncoder;
use onion_crypto::kdf::derive_link_key;
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
    /// Deliveries that failed (descriptor missing or service down).
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

/// The complete simulated botnet: Tor substrate, botmaster and bot
/// population.
#[derive(Debug)]
pub struct BotnetSimulation {
    tor: TorNetwork,
    botmaster: Botmaster,
    /// Ordered (detlint D001): `publish_all_descriptors` and `rotate_all`
    /// iterate the population, so bot order must be id order, not hash
    /// order, for seed replay to hold.
    bots: BTreeMap<BotId, Bot>,
    /// Ordered (detlint D001): point lookups today, but rebuilt during
    /// rotation and one `keys()` sweep away from leaking into gossip.
    address_index: BTreeMap<OnionAddress, BotId>,
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
            address_index: BTreeMap::new(),
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

    /// Infects `count` new bots: each generates its identity, registers its
    /// hidden service, and reports `K_B` to the botmaster.
    pub fn infect<R: Rng + ?Sized>(&mut self, count: usize, rng: &mut R) -> Vec<BotId> {
        let mut new_ids = Vec::with_capacity(count);
        let start = self.bots.len() as u64;
        for i in 0..count {
            let id = BotId(start + i as u64);
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
            self.address_index.insert(addr, id);
            self.bots.insert(id, bot);
            new_ids.push(id);
        }
        new_ids
    }

    /// Rally: every bot peers with `k` random other bots (mutual edges),
    /// forming the initial overlay.
    pub fn rally<R: Rng + ?Sized>(&mut self, k: usize, rng: &mut R) {
        let ids = self.bot_ids();
        let addresses: BTreeMap<BotId, OnionAddress> = ids
            .iter()
            .map(|&id| (id, self.bots[&id].current_address()))
            .collect();
        for &id in &ids {
            let mut others: Vec<BotId> = ids.iter().copied().filter(|&o| o != id).collect();
            others.shuffle(rng);
            let chosen: Vec<BotId> = others.into_iter().take(k).collect();
            let peer_addrs: Vec<OnionAddress> = chosen.iter().map(|o| addresses[o]).collect();
            if let Some(bot) = self.bots.get_mut(&id) {
                bot.rally(peer_addrs);
            }
            let my_addr = addresses[&id];
            for other in chosen {
                if let Some(other_bot) = self.bots.get_mut(&other) {
                    other_bot.add_peer(my_addr);
                }
            }
        }
    }

    /// Takes a bot down (defender cleanup): its hidden service is
    /// deregistered and it stops processing messages. Peers are *not*
    /// notified — they discover the loss when deliveries fail.
    pub fn take_down(&mut self, bot: BotId) -> bool {
        if let Some(b) = self.bots.remove(&bot) {
            let addr = b.current_address();
            self.tor.deregister_hidden_service(addr);
            self.address_index.remove(&addr);
            true
        } else {
            false
        }
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
    /// commands) by gossip from `seeds` random entry bots.
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

        #[allow(clippy::disallowed_types)]
        // detlint: allow(D001) reason="membership-only: insert/contains/len; iteration never happens, so hash order cannot leak into the RNG stream or the report"
        let mut reached: HashSet<BotId> = HashSet::new();
        let mut queue: VecDeque<(BotId, usize)> = VecDeque::new();

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
                if reached.insert(id) {
                    queue.push_back((id, 0));
                }
            } else {
                report.messages_failed += 1;
            }
        }

        let mut max_round = 0usize;
        while let Some((id, round)) = queue.pop_front() {
            max_round = max_round.max(round);
            // The bot drains its Tor mailbox, decodes, verifies and acts.
            let addr = match self.bots.get(&id) {
                Some(b) => b.current_address(),
                None => continue,
            };
            let _delivered = self.tor.drain_mailbox(addr);
            let acted = match self.bots.get_mut(&id) {
                Some(bot) => bot.handle_command(command, &botmaster_key, self.clock_secs),
                None => false,
            };
            if acted {
                report.bots_executed += 1;
            }
            // Forward to every peer that has not been reached yet.
            let peers = self.bots.get(&id).map(Bot::peers).unwrap_or_default();
            for peer_addr in peers {
                let Some(&peer_id) = self.address_index.get(&peer_addr) else {
                    // Peer was taken down; delivery would fail.
                    report.messages_sent += 1;
                    report.messages_failed += 1;
                    continue;
                };
                if reached.contains(&peer_id) {
                    continue;
                }
                let encoder = self.encoder_for(addr, peer_addr);
                let cell = command
                    .to_cell(&encoder, rng)
                    .expect("commands fit in one uniform cell");
                report.messages_sent += 1;
                match self.tor.send_to_onion(peer_addr, cell) {
                    Ok(()) => {
                        reached.insert(peer_id);
                        queue.push_back((peer_id, round + 1));
                    }
                    Err(_) => report.messages_failed += 1,
                }
            }
        }

        report.bots_reached = reached.len();
        report.rounds = max_round;
        report
    }

    /// Exports the current peer topology as a graph snapshot: one graph node
    /// per live bot, one edge per (mutual or one-sided) peer relation.
    /// Mitigation experiments (SOAP) operate on this snapshot, and the
    /// returned map translates graph nodes back to bot identifiers.
    pub fn overlay_snapshot(&self) -> (onion_graph::Graph, BTreeMap<onion_graph::NodeId, BotId>) {
        let mut graph = onion_graph::Graph::new();
        let mut by_bot: BTreeMap<BotId, onion_graph::NodeId> = BTreeMap::new();
        let mut by_node: BTreeMap<onion_graph::NodeId, BotId> = BTreeMap::new();
        for id in self.bot_ids() {
            let node = graph.add_node();
            by_bot.insert(id, node);
            by_node.insert(node, id);
        }
        for id in self.bot_ids() {
            let Some(bot) = self.bots.get(&id) else {
                continue;
            };
            for peer_addr in bot.peers() {
                if let Some(peer_id) = self.address_index.get(&peer_addr) {
                    if let (Some(&a), Some(&b)) = (by_bot.get(&id), by_bot.get(peer_id)) {
                        graph.add_edge(a, b);
                    }
                }
            }
        }
        (graph, by_node)
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

    /// Rotates every bot to a new period: addresses change, old ones are
    /// forgotten, new services are registered and announced, and the address
    /// index is rebuilt. Models the network-wide "forgetting" step.
    pub fn rotate_all(&mut self, period: u64) {
        let ids = self.bot_ids();
        let mut renames: Vec<(OnionAddress, OnionAddress, BotId)> = Vec::with_capacity(ids.len());
        for &id in &ids {
            if let Some(bot) = self.bots.get_mut(&id) {
                let (old, new) = bot.rotate_to(period);
                renames.push((old, new, id));
            }
        }
        for (old, new, id) in &renames {
            self.tor.deregister_hidden_service(*old);
            self.address_index.remove(old);
            self.tor.register_hidden_service(*new);
            let _ = self.tor.announce_service(*new);
            self.address_index.insert(*new, *id);
        }
        // Peers learn the new addresses through AddressAnnounce maintenance
        // messages; the simulation applies the renames directly.
        let rename_map: BTreeMap<OnionAddress, OnionAddress> =
            renames.iter().map(|(old, new, _)| (*old, *new)).collect();
        for bot in self.bots.values_mut() {
            let old_peers = bot.peers();
            for old in old_peers {
                if let Some(new) = rename_map.get(&old) {
                    bot.remove_peer(old);
                    bot.add_peer(*new);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            assert!(sim.bots[&id].peers().len() >= 3);
        }
    }

    #[test]
    fn broadcast_reaches_every_bot() {
        let (mut sim, mut rng) = small_botnet(2, 15, 3);
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
            assert!(sim.take_down(id));
        }
        assert_eq!(sim.bots.len(), 12);
        let report = sim.broadcast_command(CommandKind::Maintenance, 2, &mut rng);
        assert!(report.bots_reached <= 12);
        assert!(
            report.messages_failed > 0,
            "deliveries to removed peers fail"
        );
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
    fn overlay_snapshot_reflects_peer_relations() {
        let (sim, _) = small_botnet(7, 10, 3);
        let (graph, by_node) = sim.overlay_snapshot();
        assert_eq!(graph.node_count(), 10);
        assert_eq!(by_node.len(), 10);
        // Every bot has at least its k rally peers reflected as edges.
        for node in graph.nodes() {
            assert!(
                graph.degree(node).unwrap() >= 3,
                "bot {:?} under-connected",
                by_node[&node]
            );
        }
        graph.check_invariants().unwrap();
    }

    #[test]
    fn overlay_snapshot_drops_taken_down_bots() {
        let (mut sim, _) = small_botnet(8, 10, 3);
        let victim = sim.bot_ids()[0];
        sim.take_down(victim);
        let (graph, by_node) = sim.overlay_snapshot();
        assert_eq!(graph.node_count(), 9);
        assert!(by_node.values().all(|&b| b != victim));
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
