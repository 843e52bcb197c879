//! SOAP — the Sybil Onion Attack Protocol (§VI-B), the paper's proposed
//! mitigation against basic OnionBots.
//!
//! The defender first obtains the `.onion` address of some bot (honeypot or
//! reverse engineering), then "runs many hidden services, disclosing a subset
//! of these as neighbors to each peer we encounter, so gradually over time
//! our clone nodes dominate the neighborhood of each bot and contain it."
//! Clones declare a small random degree (e.g. 2) so the target's peering
//! policy keeps replacing real peers with clones, until the bot is entirely
//! surrounded (Figure 7) and eventually the whole botnet is partitioned into
//! contained nodes.
//!
//! Because Tor decouples addresses from hosts, all clones can run on one
//! machine — the attack is cheap for the defender.

use std::collections::{BTreeSet, VecDeque};

use onion_graph::graph::NodeId;
use onionbots_core::overlay::DdsrOverlay;
use rand::Rng;

/// Configuration of a SOAP campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoapConfig {
    /// Upper bound (exclusive) of the small random degree clones declare.
    pub max_declared_degree: usize,
    /// Maximum peering attempts per target per iteration.
    pub attempts_per_iteration: usize,
    /// Safety cap on campaign iterations.
    pub max_iterations: usize,
}

impl Default for SoapConfig {
    fn default() -> Self {
        SoapConfig {
            max_declared_degree: 3,
            attempts_per_iteration: 4,
            max_iterations: 10_000,
        }
    }
}

/// One sample of campaign progress (a row of the Figure-7 style trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoapProgress {
    /// Campaign iteration index.
    pub iteration: usize,
    /// Bots whose entire neighborhood is clones.
    pub contained_bots: usize,
    /// Bots discovered so far (via traversal from the initially compromised
    /// bot).
    pub discovered_bots: usize,
    /// Total live bots in the overlay.
    pub total_bots: usize,
    /// Clone nodes created so far.
    pub clones_created: usize,
}

/// Result of a full SOAP campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SoapOutcome {
    /// Progress trace, one entry per iteration (plus the initial state).
    pub trace: Vec<SoapProgress>,
    /// Whether every discovered bot ended up contained.
    pub neutralized: bool,
    /// Iterations executed.
    pub iterations: usize,
    /// Clones created in total.
    pub clones_created: usize,
}

/// The state of a SOAP campaign against a [`DdsrOverlay`].
///
/// Both sets are ordered: the campaign iterates `discovered` to pick
/// peering targets while drawing from the seeded RNG, so hash-randomized
/// iteration order would make two same-seed campaigns diverge (and break
/// the result cache's byte-identical-replay contract).
#[derive(Debug)]
pub struct SoapAttack {
    config: SoapConfig,
    clones: BTreeSet<NodeId>,
    discovered: BTreeSet<NodeId>,
}

impl SoapAttack {
    /// Starts a campaign from one compromised bot whose peer list the
    /// defender has recovered.
    pub fn new(config: SoapConfig, initially_compromised: NodeId) -> Self {
        let mut discovered = BTreeSet::new();
        discovered.insert(initially_compromised);
        SoapAttack {
            config,
            clones: BTreeSet::new(),
            discovered,
        }
    }

    /// Nodes known to be defender clones.
    pub fn clones(&self) -> &BTreeSet<NodeId> {
        &self.clones
    }

    /// Real bots discovered so far.
    pub fn discovered_bots(&self) -> usize {
        self.discovered.len()
    }

    /// Returns `true` if the given bot is fully surrounded by clones (or has
    /// lost all of its peers).
    fn is_contained(&self, overlay: &DdsrOverlay, bot: NodeId) -> bool {
        match overlay.peers(bot) {
            Some(peers) => peers.iter().all(|p| self.clones.contains(p)),
            None => true,
        }
    }

    /// Number of discovered, still-alive bots that are fully contained.
    fn contained_count(&self, overlay: &DdsrOverlay) -> usize {
        self.discovered
            .iter()
            .filter(|&&b| overlay.graph().contains(b) && self.is_contained(overlay, b))
            .count()
    }

    /// Expands the defender's knowledge: every peer of a discovered,
    /// non-contained bot is discovered too (the defender's clones learn peer
    /// lists as they are accepted).
    fn expand_discovery(&mut self, overlay: &DdsrOverlay) {
        let mut queue: VecDeque<NodeId> = self.discovered.iter().copied().collect();
        while let Some(bot) = queue.pop_front() {
            let Some(peers) = overlay.peers(bot) else {
                continue;
            };
            for p in peers {
                if !self.clones.contains(&p) && self.discovered.insert(p) {
                    queue.push_back(p);
                }
            }
        }
    }

    /// Runs a single campaign iteration: for every discovered, not-yet
    /// contained bot, spawn clones and request peering with a small declared
    /// degree. Returns the progress sample after the iteration.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        overlay: &mut DdsrOverlay,
        iteration: usize,
        rng: &mut R,
    ) -> SoapProgress {
        self.expand_discovery(overlay);
        let targets: Vec<NodeId> = self
            .discovered
            .iter()
            .copied()
            .filter(|&b| overlay.graph().contains(b) && !self.is_contained(overlay, b))
            .collect();
        for target in targets {
            for _ in 0..self.config.attempts_per_iteration {
                if self.is_contained(overlay, target) {
                    break;
                }
                // Spawn a fresh clone hidden service (free thanks to the
                // address/host decoupling) and request peering, declaring a
                // small random degree.
                let clone = overlay.add_isolated_node();
                self.clones.insert(clone);
                let declared = rng.gen_range(1..self.config.max_declared_degree.max(2));
                overlay.request_peering(clone, target, declared, rng);
            }
        }
        SoapProgress {
            iteration,
            contained_bots: self.contained_count(overlay),
            discovered_bots: self.discovered.len(),
            total_bots: overlay
                .graph()
                .nodes()
                .iter()
                .filter(|n| !self.clones.contains(n))
                .count(),
            clones_created: self.clones.len(),
        }
    }

    /// Runs the campaign until every discovered bot is contained or the
    /// iteration cap is reached.
    pub fn run<R: Rng + ?Sized>(&mut self, overlay: &mut DdsrOverlay, rng: &mut R) -> SoapOutcome {
        let mut trace = Vec::new();
        trace.push(SoapProgress {
            iteration: 0,
            contained_bots: self.contained_count(overlay),
            discovered_bots: self.discovered.len(),
            total_bots: overlay.node_count(),
            clones_created: 0,
        });
        let mut iterations = 0usize;
        for i in 1..=self.config.max_iterations {
            iterations = i;
            let progress = self.step(overlay, i, rng);
            let done = progress.contained_bots >= progress.discovered_bots
                || progress.discovered_bots == 0;
            trace.push(progress);
            if done {
                break;
            }
        }
        let neutralized = self
            .discovered
            .iter()
            .all(|&b| !overlay.graph().contains(b) || self.is_contained(overlay, b));
        SoapOutcome {
            neutralized,
            iterations,
            clones_created: self.clones.len(),
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onionbots_core::config::DdsrConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn overlay(n: usize, k: usize, seed: u64) -> (DdsrOverlay, Vec<NodeId>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (ov, ids) = DdsrOverlay::new_regular(n, k, DdsrConfig::for_degree(k), &mut rng);
        (ov, ids, rng)
    }

    #[test]
    fn single_target_is_fully_surrounded() {
        let (mut ov, ids, mut rng) = overlay(30, 6, 1);
        let mut attack = SoapAttack::new(SoapConfig::default(), ids[0]);
        // Run a handful of iterations focused on the whole botnet; the first
        // target must become contained quickly.
        for i in 1..=50 {
            attack.step(&mut ov, i, &mut rng);
            if attack.is_contained(&ov, ids[0]) {
                break;
            }
        }
        assert!(attack.is_contained(&ov, ids[0]), "target never contained");
        let peers = ov.peers(ids[0]).unwrap();
        assert!(!peers.is_empty());
        assert!(peers.iter().all(|p| attack.clones().contains(p)));
    }

    #[test]
    fn full_campaign_neutralizes_a_basic_onionbot() {
        let (mut ov, ids, mut rng) = overlay(40, 6, 2);
        let mut attack = SoapAttack::new(SoapConfig::default(), ids[0]);
        let outcome = attack.run(&mut ov, &mut rng);
        assert!(outcome.neutralized, "basic OnionBot must be soapable");
        assert!(outcome.clones_created > 0);
        assert_eq!(
            outcome.trace.last().unwrap().contained_bots,
            outcome.trace.last().unwrap().discovered_bots
        );
        // Containment is monotonically non-decreasing in the trace tail.
        let contained: Vec<usize> = outcome.trace.iter().map(|p| p.contained_bots).collect();
        assert!(*contained.last().unwrap() >= contained[0]);
    }

    #[test]
    fn discovery_spreads_through_the_peer_graph() {
        let (mut ov, ids, mut rng) = overlay(25, 4, 3);
        let mut attack = SoapAttack::new(SoapConfig::default(), ids[0]);
        attack.step(&mut ov, 1, &mut rng);
        assert!(
            attack.discovered_bots() > 1,
            "peers of the compromised bot must be discovered"
        );
    }

    #[test]
    fn contained_bots_cannot_receive_benign_peers_back() {
        let (mut ov, ids, mut rng) = overlay(20, 4, 4);
        let mut attack = SoapAttack::new(SoapConfig::default(), ids[0]);
        let outcome = attack.run(&mut ov, &mut rng);
        assert!(outcome.neutralized);
        // Every surviving discovered bot's neighborhood is clones only, so a
        // broadcast starting from any real bot reaches no other real bot.
        for &bot in &ids {
            if !ov.graph().contains(bot) {
                continue;
            }
            let report = onionbots_core::routing::flood_broadcast(ov.graph(), bot);
            let real_reached = report.reached
                - ov.graph()
                    .nodes()
                    .iter()
                    .filter(|n| attack.clones().contains(n))
                    .count()
                    .min(report.reached - 1);
            // The bot itself plus possibly clones; no other real bot.
            assert!(real_reached <= 1 || report.reached <= 1 + attack.clones().len());
        }
    }

    #[test]
    fn missing_target_is_trivially_contained() {
        let (ov, _, _) = overlay(10, 4, 5);
        let attack = SoapAttack::new(SoapConfig::default(), NodeId::new(99_999));
        assert!(attack.is_contained(&ov, NodeId::new(99_999)));
    }
}
