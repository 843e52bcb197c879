//! # tor-sim
//!
//! An in-process simulated Tor privacy infrastructure for the OnionBots
//! (DSN 2015) reproduction.
//!
//! The paper's botnet lives entirely inside Tor hidden services; its
//! evaluation and the proposed mitigations depend on where a service's
//! descriptors land on the HSDir ring, not on live network measurements or
//! on how Tor moves bytes. This crate provides exactly that one directory
//! path:
//!
//! * [`relay`] / [`consensus`] — Onion Routers, consensus flags (including
//!   the 25-hour HSDir eligibility rule) and the hourly consensus.
//! * [`onion`] — `.onion` addresses: base32 of an 80-bit identifier.
//! * [`hsdir`] — descriptor-ID computation and responsible-HSDir selection
//!   on the fingerprint ring (Figure 2 of the paper).
//! * [`network`] — the [`network::TorNetwork`] façade: registration,
//!   descriptor announcement and resolution, message delivery by onion
//!   address, and traffic accounting.
//!
//! Cells, circuits and signed descriptors are not modelled: a delivery
//! counts the cells it would take without building them.
//!
//! ```
//! use tor_sim::network::TorNetwork;
//! use tor_sim::onion::OnionAddress;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), tor_sim::error::TorError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut tor = TorNetwork::new(30, &mut rng);
//! let onion = OnionAddress::from_identifier([0x42; 10]);
//!
//! tor.register_hidden_service(onion);
//! tor.announce_service(onion)?;
//! assert!(tor.is_resolvable(onion));
//! tor.send_to_onion(onion, b"hello hidden service".to_vec())?;
//! assert_eq!(tor.drain_mailbox(onion).len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod consensus;
pub mod error;
pub mod hsdir;
pub mod network;
pub mod onion;
pub mod relay;

pub use error::TorError;
pub use network::TorNetwork;
pub use onion::OnionAddress;
pub use relay::Fingerprint;

#[cfg(test)]
mod property_tests {
    use crate::hsdir::{descriptor_id, responsible_hsdirs, DescriptorId};
    use crate::onion::OnionAddress;
    use crate::relay::Fingerprint;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Onion addresses roundtrip through their textual form for any
        /// identifier.
        #[test]
        fn onion_address_roundtrip(identifier in prop::array::uniform10(any::<u8>())) {
            let addr = OnionAddress::from_identifier(identifier);
            let parsed = OnionAddress::parse(&addr.to_string()).unwrap();
            prop_assert_eq!(parsed, addr);
        }

        /// Responsible HSDirs are always drawn from the ring, unique, and at
        /// most three.
        #[test]
        fn responsible_hsdirs_are_valid(
            desc in prop::array::uniform20(any::<u8>()),
            ring_seeds in prop::collection::btree_set(any::<u8>(), 1..40)
        ) {
            let ring: Vec<Fingerprint> = ring_seeds.iter().map(|&b| {
                let mut fp = [0u8; 20];
                fp[0] = b;
                fp[1] = b.wrapping_mul(31);
                Fingerprint(fp)
            }).collect();
            let responsible = responsible_hsdirs(DescriptorId(desc), &ring);
            prop_assert!(responsible.len() <= 3);
            prop_assert!(!responsible.is_empty());
            for fp in &responsible {
                prop_assert!(ring.contains(fp));
            }
            let mut dedup = responsible.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), responsible.len());
        }

        /// Descriptor IDs depend on the identifier and replica: two services
        /// never share a descriptor ID, and the two replicas of one service
        /// differ.
        #[test]
        fn descriptor_ids_are_distinct(
            id_a in prop::array::uniform10(any::<u8>()),
            id_b in prop::array::uniform10(any::<u8>()),
            time in 0u64..10_000_000
        ) {
            let a0 = descriptor_id(id_a, time, 0);
            let a1 = descriptor_id(id_a, time, 1);
            prop_assert_ne!(a0, a1);
            if id_a != id_b {
                let b0 = descriptor_id(id_b, time, 0);
                prop_assert_ne!(a0, b0);
            }
        }
    }
}
