//! The simulated Tor network.
//!
//! [`TorNetwork`] ties the pieces together: a consensus of relays, the
//! descriptor announcements stored on HSDirs, hidden-service registration
//! and message delivery by `.onion` address. It deliberately models only the
//! properties the OnionBots design and its mitigations interact with:
//!
//! * a service is reachable **only** through its onion address — the network
//!   never exposes "IP addresses" of services to clients (the decoupling the
//!   paper exploits);
//! * reaching a service requires a current announcement on a responsible
//!   HSDir plus a live registration (so HSDir takeovers and service
//!   takedowns both break reachability);
//! * every payload is counted in fixed-size cells, so experiments can report
//!   traffic volumes without ever inspecting contents. The cells are counted,
//!   not built: no circuit carries them.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rand::Rng;

use crate::consensus::Consensus;
use crate::error::TorError;
use crate::hsdir::{descriptor_ids, responsible_hsdirs, DescriptorId};
use crate::onion::OnionAddress;
use crate::relay::Fingerprint;

/// Payload bytes of one fixed-size 512-byte Tor cell (a 7-byte header
/// aside).
const CELL_PAYLOAD_LEN: usize = 505;

/// Hops on each of the two circuits a message crosses (the client's
/// rendezvous circuit and the service's), Tor's 3.
const CIRCUIT_HOPS: u64 = 3;

/// Aggregate traffic and directory statistics, used by the experiment
/// harness for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Total fixed-size cells moved through the network.
    pub cells_relayed: u64,
    /// Descriptor announcements accepted by HSDirs.
    pub descriptors_published: u64,
    /// Messages delivered end to end.
    pub messages_delivered: u64,
    /// Messages that could not be delivered.
    pub messages_failed: u64,
}

/// A descriptor announcement: proof that a descriptor for the onion address
/// is stored at an HSDir position. The signed descriptor itself is not
/// modelled; only where it lands on the ring matters to reachability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Announcement {
    onion: OnionAddress,
    descriptor: DescriptorId,
}

/// The in-process simulated Tor network.
///
/// Directory and service state live in ordered maps (detlint rule D001):
/// today every access is a point lookup, but the moment someone iterates
/// one of these — say to sweep expired descriptors — hash order would
/// leak into delivery order and break seed replay, so the ordering is
/// pinned at the type.
#[derive(Debug)]
pub struct TorNetwork {
    consensus: Consensus,
    time_secs: u64,
    announcements: BTreeMap<Fingerprint, BTreeSet<Announcement>>,
    /// Each registered hidden service's mailbox.
    services: BTreeMap<OnionAddress, VecDeque<Vec<u8>>>,
    stats: NetworkStats,
}

impl TorNetwork {
    /// Creates a network with `relay_count` steady-state relays.
    pub fn new<R: Rng + ?Sized>(relay_count: usize, rng: &mut R) -> Self {
        TorNetwork {
            consensus: Consensus::bootstrap(relay_count, rng),
            time_secs: 0,
            announcements: BTreeMap::new(),
            services: BTreeMap::new(),
            stats: NetworkStats::default(),
        }
    }

    /// Current simulated time in seconds.
    pub fn time_secs(&self) -> u64 {
        self.time_secs
    }

    /// Advances simulated time; the consensus ages in whole hours.
    pub fn advance_time(&mut self, secs: u64) {
        let before_hours = self.time_secs / 3600;
        self.time_secs += secs;
        let after_hours = self.time_secs / 3600;
        if after_hours > before_hours {
            self.consensus.advance_hours(after_hours - before_hours);
        }
    }

    /// Read access to the consensus.
    pub fn consensus(&self) -> &Consensus {
        &self.consensus
    }

    /// Mutable access to the consensus (relay injection / takedown in
    /// mitigation experiments).
    pub fn consensus_mut(&mut self) -> &mut Consensus {
        &mut self.consensus
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Registers a hidden service, making it reachable once it is
    /// announced. Re-registration resets the mailbox.
    pub fn register_hidden_service(&mut self, onion: OnionAddress) {
        self.services.insert(onion, VecDeque::new());
    }

    /// Deregisters (takes down) a hidden service. Returns `true` if it was
    /// registered.
    pub fn deregister_hidden_service(&mut self, onion: OnionAddress) -> bool {
        self.services.remove(&onion).is_some()
    }

    /// Number of currently registered hidden services.
    pub fn registered_service_count(&self) -> usize {
        self.services.len()
    }

    /// Announces a registered service's descriptor: the onion address
    /// becomes resolvable on its responsible HSDirs for the current period.
    ///
    /// # Errors
    /// Returns [`TorError::ServiceUnreachable`] when the service is not
    /// registered and [`TorError::NoHsdirs`] when the consensus has no
    /// HSDirs.
    pub fn announce_service(&mut self, onion: OnionAddress) -> Result<(), TorError> {
        if !self.services.contains_key(&onion) {
            return Err(TorError::ServiceUnreachable(onion.to_string()));
        }
        let ring = self.consensus.hsdir_ring();
        if ring.is_empty() {
            return Err(TorError::NoHsdirs);
        }
        for id in descriptor_ids(onion.identifier(), self.time_secs) {
            for hsdir in responsible_hsdirs(id, &ring) {
                self.announcements
                    .entry(hsdir)
                    .or_default()
                    .insert(Announcement {
                        onion,
                        descriptor: id,
                    });
                self.stats.descriptors_published += 1;
            }
        }
        Ok(())
    }

    /// Returns `true` when a client knowing the onion address can currently
    /// resolve the service: an announcement for one of its current
    /// descriptor IDs is stored on a responsible HSDir.
    pub fn is_resolvable(&self, onion: OnionAddress) -> bool {
        let ring = self.consensus.hsdir_ring();
        descriptor_ids(onion.identifier(), self.time_secs)
            .into_iter()
            .any(|id| {
                let announcement = Announcement {
                    onion,
                    descriptor: id,
                };
                responsible_hsdirs(id, &ring).into_iter().any(|hsdir| {
                    self.announcements
                        .get(&hsdir)
                        .is_some_and(|set| set.contains(&announcement))
                })
            })
    }

    /// Removes every announcement stored on a given HSDir (models an HSDir
    /// takeover / denial attack from §VI-A). Returns how many it removed.
    pub fn wipe_hsdir(&mut self, hsdir: Fingerprint) -> usize {
        self.announcements.remove(&hsdir).map_or(0, |s| s.len())
    }

    /// Sends an opaque payload to a hidden service: resolves the address,
    /// checks the service is up, accounts for the relayed cells and
    /// enqueues the payload in the service's mailbox.
    ///
    /// # Errors
    /// Returns [`TorError::DescriptorNotFound`] when the address does not
    /// resolve and [`TorError::ServiceUnreachable`] for services that are
    /// not registered (taken down) even though a stale announcement may
    /// still be stored.
    pub fn send_to_onion(&mut self, onion: OnionAddress, payload: Vec<u8>) -> Result<(), TorError> {
        if !self.is_resolvable(onion) {
            self.stats.messages_failed += 1;
            return Err(TorError::DescriptorNotFound(onion.to_string()));
        }
        // Client rendezvous circuit + service circuit: count the cells on
        // both, matching Tor's 6-hop end-to-end path.
        let cells = payload.len().div_ceil(CELL_PAYLOAD_LEN).max(1) as u64;
        self.stats.cells_relayed += cells * (2 * CIRCUIT_HOPS);
        match self.services.get_mut(&onion) {
            Some(mailbox) => {
                mailbox.push_back(payload);
                self.stats.messages_delivered += 1;
                Ok(())
            }
            None => {
                self.stats.messages_failed += 1;
                Err(TorError::ServiceUnreachable(onion.to_string()))
            }
        }
    }

    /// Drains all pending messages for a hidden service (what the service's
    /// onion proxy would deliver to the application).
    pub fn drain_mailbox(&mut self, onion: OnionAddress) -> Vec<Vec<u8>> {
        self.services
            .get_mut(&onion)
            .map(|mailbox| mailbox.drain(..).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relay::Relay;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 40-relay network and one registered service address.
    fn fixture(seed: u64) -> (TorNetwork, OnionAddress) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut network = TorNetwork::new(40, &mut rng);
        let onion = OnionAddress::from_identifier([seed as u8; 10]);
        network.register_hidden_service(onion);
        (network, onion)
    }

    #[test]
    fn full_hidden_service_message_flow() {
        let (mut network, onion) = fixture(1);
        network.announce_service(onion).unwrap();
        network.send_to_onion(onion, b"hello bot".to_vec()).unwrap();
        assert_eq!(network.drain_mailbox(onion), vec![b"hello bot".to_vec()]);
        assert!(network.drain_mailbox(onion).is_empty());
        let stats = network.stats();
        assert_eq!(stats.messages_delivered, 1);
        assert_eq!(stats.cells_relayed, 6);
        assert_eq!(stats.descriptors_published, 6, "3 HSDirs x 2 replicas");
    }

    #[test]
    fn sending_without_descriptor_fails() {
        let (mut network, onion) = fixture(2);
        let err = network.send_to_onion(onion, b"x".to_vec()).unwrap_err();
        assert!(matches!(err, TorError::DescriptorNotFound(_)));
        assert_eq!(network.stats().messages_failed, 1);
    }

    #[test]
    fn taken_down_service_is_unreachable_despite_descriptor() {
        let (mut network, onion) = fixture(3);
        network.announce_service(onion).unwrap();
        assert!(network.deregister_hidden_service(onion));
        let err = network.send_to_onion(onion, b"x".to_vec()).unwrap_err();
        assert!(matches!(err, TorError::ServiceUnreachable(_)));
        assert!(matches!(
            network.announce_service(onion),
            Err(TorError::ServiceUnreachable(_))
        ));
    }

    #[test]
    fn announcing_without_hsdirs_fails() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut network = TorNetwork::new(0, &mut rng);
        let onion = OnionAddress::from_identifier([11; 10]);
        network.register_hidden_service(onion);
        assert_eq!(network.announce_service(onion), Err(TorError::NoHsdirs));
    }

    #[test]
    fn wiping_responsible_hsdirs_denies_lookup() {
        let (mut network, onion) = fixture(4);
        network.announce_service(onion).unwrap();
        assert!(network.is_resolvable(onion));
        // Wipe every HSDir (an over-approximation of targeting the 6
        // responsible ones).
        let wiped: usize = network
            .consensus()
            .hsdir_ring()
            .into_iter()
            .map(|fp| network.wipe_hsdir(fp))
            .sum();
        assert_eq!(wiped, 6);
        assert!(!network.is_resolvable(onion));
    }

    #[test]
    fn descriptor_expires_with_the_time_period() {
        let (mut network, onion) = fixture(7);
        network.announce_service(onion).unwrap();
        assert!(network.is_resolvable(onion));
        // A day later the descriptor IDs rotate and the stale announcements
        // no longer match -> the service must re-announce.
        network.advance_time(86_400 + 3600);
        assert!(!network.is_resolvable(onion));
        network.announce_service(onion).unwrap();
        assert!(network.is_resolvable(onion));
    }

    #[test]
    fn sends_count_cells_on_both_three_hop_circuits() {
        let (mut network, onion) = fixture(9);
        network.announce_service(onion).unwrap();
        network.send_to_onion(onion, vec![7u8; 1200]).unwrap();
        assert_eq!(network.stats().cells_relayed, 18, "3 cells x 6 hops");
        network.send_to_onion(onion, Vec::new()).unwrap();
        assert_eq!(network.stats().cells_relayed, 18 + 6, "one cell minimum");
    }

    #[test]
    fn advancing_time_ages_the_consensus() {
        let (mut network, _) = fixture(10);
        let mut rng = StdRng::seed_from_u64(10);
        let newcomer = Relay::new(5000, &mut rng);
        let fp = newcomer.fingerprint();
        network.consensus_mut().add_relay(newcomer);
        network.advance_time(25 * 3600 - 1);
        assert!(
            !network.consensus().hsdir_ring().contains(&fp),
            "the consensus ages in whole hours"
        );
        network.advance_time(1);
        assert!(network.consensus().hsdir_ring().contains(&fp));
    }
}
