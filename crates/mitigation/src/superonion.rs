//! SuperOnionBots (§VII-B): the paper's sketch of a next-generation design
//! that resists SOAP by fully exploiting the host / IP / `.onion`
//! decoupling.
//!
//! Each physical host runs `m` virtual nodes, each virtual node keeps `i`
//! peers, for `n` hosts in total (Figure 8 uses n = 5, m = 3, i = 2). The
//! host periodically runs a connectivity probe: a gossip message injected at
//! one of its virtual nodes must reach its other `m - 1` virtual nodes
//! through the overlay. Virtual nodes that the probe cannot reach are
//! presumed soaped; the host discards them and bootstraps replacements using
//! peers of its still-healthy virtual nodes.

use std::cell::RefCell;
use std::collections::BTreeMap;

use onion_graph::graph::{Graph, NodeId};
use onion_graph::metrics::BfsScratch;
use rand::seq::SliceRandom;
use rand::Rng;

/// Identifier of a physical host in the SuperOnion construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub usize);

/// Parameters of a SuperOnion construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperOnionConfig {
    /// Number of physical hosts `n`.
    pub hosts: usize,
    /// Virtual nodes per host `m`.
    pub virtual_per_host: usize,
    /// Peers per virtual node `i`.
    pub peers_per_virtual: usize,
}

impl SuperOnionConfig {
    /// The construction shown in Figure 8 of the paper: n = 5, m = 3, i = 2.
    pub fn figure8() -> Self {
        SuperOnionConfig {
            hosts: 5,
            virtual_per_host: 3,
            peers_per_virtual: 2,
        }
    }
}

/// Result of one host's connectivity probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeReport {
    /// The probing host.
    pub host: HostId,
    /// Virtual nodes of this host reached by the gossip probe.
    pub reachable: Vec<NodeId>,
    /// Virtual nodes of this host the probe could not reach (presumed
    /// soaped or taken down).
    pub unreachable: Vec<NodeId>,
    /// Gossip messages used by the probe.
    pub messages: usize,
}

/// The SuperOnion overlay: the virtual-node graph plus the host ownership
/// map.
///
/// Both maps are ordered (`BTreeMap`): host recovery and probing draw from
/// seeded RNG streams while walking these structures, so hash-randomized
/// iteration order could leak into the RNG stream and break same-seed
/// reproducibility (the bug class fixed in `SoapAttack`).
#[derive(Debug, Clone)]
pub struct SuperOnion {
    config: SuperOnionConfig,
    graph: Graph,
    owner: BTreeMap<NodeId, HostId>,
    virtuals: BTreeMap<HostId, Vec<NodeId>>,
    /// Reusable BFS state shared by every [`probe`](SuperOnion::probe):
    /// one probe per host per round reuses one `O(id_bound)` distance
    /// array and queue for the overlay's lifetime. `RefCell` because
    /// probing is logically `&self` (it only reads the graph).
    scratch: RefCell<BfsScratch>,
}

impl SuperOnion {
    /// Builds a SuperOnion overlay: virtual nodes are created per host and
    /// each peers with `i` virtual nodes of *other* hosts chosen at random.
    pub fn build<R: Rng + ?Sized>(config: SuperOnionConfig, rng: &mut R) -> Self {
        let mut graph = Graph::new();
        let mut owner = BTreeMap::new();
        let mut virtuals: BTreeMap<HostId, Vec<NodeId>> = BTreeMap::new();
        for h in 0..config.hosts {
            let host = HostId(h);
            for _ in 0..config.virtual_per_host {
                let v = graph.add_node();
                owner.insert(v, host);
                virtuals.entry(host).or_default().push(v);
            }
        }
        let mut overlay = SuperOnion {
            config,
            graph,
            owner,
            virtuals,
            scratch: RefCell::new(BfsScratch::new()),
        };
        let all: Vec<NodeId> = overlay.graph.nodes();
        for &v in &all {
            overlay.peer_virtual_node(v, &all, rng);
        }
        overlay
    }

    fn peer_virtual_node<R: Rng + ?Sized>(
        &mut self,
        v: NodeId,
        candidates: &[NodeId],
        rng: &mut R,
    ) {
        let my_host = self.owner[&v];
        let mut foreign: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|c| *c != v && self.owner.get(c) != Some(&my_host) && self.graph.contains(*c))
            .collect();
        foreign.shuffle(rng);
        for peer in foreign {
            if self.graph.degree(v).unwrap_or(0) >= self.config.peers_per_virtual {
                break;
            }
            self.graph.add_edge(v, peer);
        }
    }

    /// The construction parameters.
    pub fn config(&self) -> SuperOnionConfig {
        self.config
    }

    /// The underlying virtual-node graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The virtual nodes currently owned by a host.
    pub fn virtual_nodes(&self, host: HostId) -> Vec<NodeId> {
        self.virtuals.get(&host).cloned().unwrap_or_default()
    }

    /// Total number of live virtual nodes.
    pub fn virtual_node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Simulates soaping a virtual node: the adversary's clones displace all
    /// of its real peers, which in the graph model means cutting its edges to
    /// every other real node (the clones themselves relay nothing useful).
    pub fn soap_virtual_node(&mut self, node: NodeId) -> bool {
        if !self.graph.contains(node) {
            return false;
        }
        let peers: Vec<NodeId> = self
            .graph
            .neighbors(node)
            .map(<[NodeId]>::to_vec)
            .unwrap_or_default();
        for p in peers {
            self.graph.remove_edge(node, p);
        }
        true
    }

    /// Runs a host's connectivity probe: gossip injected at one of its
    /// virtual nodes (flooding across the whole overlay, since messages are
    /// indistinguishable and every node relays) must reach its other virtual
    /// nodes.
    pub fn probe(&self, host: HostId) -> ProbeReport {
        let virtuals = self.virtual_nodes(host);
        // Inject the probe at a virtual node that still has live peers; a
        // soaped source would make every sibling look unreachable even when
        // the rest of the host is healthy.
        let source = virtuals
            .iter()
            .copied()
            .find(|&v| self.graph.degree(v).unwrap_or(0) > 0)
            .or_else(|| virtuals.first().copied());
        let Some(source) = source else {
            return ProbeReport {
                host,
                reachable: Vec::new(),
                unreachable: Vec::new(),
                messages: 0,
            };
        };
        // One scratch BFS yields both answers a probe needs: membership
        // (which siblings the gossip reached) and the message count. In a
        // flood every informed node forwards to all of its peers exactly
        // once, so messages are the degree sum over the reached set, as in
        // `flood_broadcast`.
        let mut scratch = self.scratch.borrow_mut();
        scratch.run(&self.graph, source);
        let messages: usize = scratch
            .reached()
            .iter()
            .map(|&v| self.graph.degree(v).unwrap_or(0))
            .sum();
        let mut reachable = Vec::new();
        let mut unreachable = Vec::new();
        for &v in &virtuals {
            if scratch.contains(v) {
                reachable.push(v);
            } else {
                unreachable.push(v);
            }
        }
        ProbeReport {
            host,
            reachable,
            unreachable,
            messages,
        }
    }

    /// Recovery step after a probe: every unreachable virtual node is
    /// discarded and replaced by a fresh virtual node bootstrapped from the
    /// peers of the host's healthy virtual nodes (and, failing that, any
    /// other live foreign virtual node).
    pub fn recover<R: Rng + ?Sized>(&mut self, host: HostId, rng: &mut R) -> usize {
        let probe = self.probe(host);
        let mut replaced = 0usize;
        for dead in probe.unreachable {
            // Discard the soaped virtual node.
            self.graph.remove_node(dead);
            self.owner.remove(&dead);
            if let Some(list) = self.virtuals.get_mut(&host) {
                list.retain(|&v| v != dead);
            }
            // Bootstrap a replacement.
            let fresh = self.graph.add_node();
            self.owner.insert(fresh, host);
            self.virtuals.entry(host).or_default().push(fresh);
            let candidates: Vec<NodeId> = self.graph.nodes();
            self.peer_virtual_node(fresh, &candidates, rng);
            replaced += 1;
        }
        replaced
    }

    /// A host is operational while at least one of its virtual nodes can
    /// still reach the rest of the overlay (i.e. has at least one live,
    /// un-soaped peer).
    pub fn host_operational(&self, host: HostId) -> bool {
        let probe = self.probe(host);
        probe
            .reachable
            .iter()
            .any(|&v| self.graph.degree(v).unwrap_or(0) > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn figure8(seed: u64) -> (SuperOnion, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let so = SuperOnion::build(SuperOnionConfig::figure8(), &mut rng);
        (so, rng)
    }

    #[test]
    fn figure8_construction_shape() {
        let (so, _) = figure8(1);
        assert_eq!(so.virtual_node_count(), 15, "n * m = 5 * 3 virtual nodes");
        for h in 0..5 {
            assert_eq!(so.virtual_nodes(HostId(h)).len(), 3);
        }
        // Virtual nodes never peer with siblings on the same host.
        for (a, b) in so.graph().edges() {
            assert_ne!(so.owner.get(&a), so.owner.get(&b));
        }
        // Each virtual node has at most i = 2 outgoing peer choices, but may
        // have a higher total degree because other nodes also chose it.
        assert!(so.graph().min_degree() >= 1);
    }

    #[test]
    fn probes_pass_on_a_healthy_overlay() {
        let (so, _) = figure8(2);
        for h in 0..5 {
            let probe = so.probe(HostId(h));
            assert!(probe.unreachable.is_empty(), "host {h} probe failed");
            assert_eq!(probe.reachable.len(), 3);
            assert!(probe.messages > 0);
        }
    }

    #[test]
    fn soaped_virtual_node_is_detected_and_replaced() {
        let (mut so, mut rng) = figure8(3);
        let host = HostId(0);
        let victim = so.virtual_nodes(host)[1];
        assert!(so.soap_virtual_node(victim));
        let probe = so.probe(host);
        assert!(probe.unreachable.contains(&victim));
        let replaced = so.recover(host, &mut rng);
        assert_eq!(replaced, 1);
        assert_eq!(so.virtual_nodes(host).len(), 3);
        assert!(
            so.probe(host).unreachable.is_empty(),
            "recovered host is healthy again"
        );
    }

    #[test]
    fn host_survives_soaping_of_a_strict_subset_of_virtual_nodes() {
        let (mut so, _) = figure8(4);
        let host = HostId(2);
        let virtuals = so.virtual_nodes(host);
        so.soap_virtual_node(virtuals[0]);
        so.soap_virtual_node(virtuals[1]);
        assert!(
            so.host_operational(host),
            "one healthy virtual node keeps the host in the botnet"
        );
        so.soap_virtual_node(virtuals[2]);
        assert!(
            !so.host_operational(host),
            "soaping all m virtual nodes isolates the host"
        );
    }

    #[test]
    fn soaping_missing_node_is_rejected() {
        let (mut so, _) = figure8(5);
        assert!(!so.soap_virtual_node(NodeId::new(10_000)));
    }

    #[test]
    fn probe_message_count_equals_flood_broadcast() {
        // The scratch-based probe counts messages as the degree sum over
        // the reached set; that must stay equal to what an actual flood
        // simulation reports, healthy or soaped.
        let (mut so, _) = figure8(7);
        for round in 0..2 {
            for h in 0..5 {
                let host = HostId(h);
                let probe = so.probe(host);
                let source = so
                    .virtual_nodes(host)
                    .iter()
                    .copied()
                    .find(|&v| so.graph().degree(v).unwrap_or(0) > 0)
                    .or_else(|| so.virtual_nodes(host).first().copied())
                    .unwrap();
                let flood = onionbots_core::routing::flood_broadcast(so.graph(), source);
                assert_eq!(probe.messages, flood.messages, "host {h} round {round}");
            }
            // Second round probes a soaped overlay.
            let victim = so.virtual_nodes(HostId(0))[0];
            so.soap_virtual_node(victim);
        }
    }

    #[test]
    fn recovery_is_idempotent_on_healthy_hosts() {
        let (mut so, mut rng) = figure8(6);
        assert_eq!(so.recover(HostId(1), &mut rng), 0);
        assert_eq!(so.virtual_node_count(), 15);
    }
}
