//! # onionbots-core
//!
//! The paper's primary contribution: the **Dynamic Distributed
//! Self-Repairing (DDSR)** Neighbors-of-Neighbor overlay (§IV-C of
//! *OnionBots: Subverting Privacy Infrastructure for Cyber Attacks*,
//! DSN 2015), implemented as a defensive research simulator.
//!
//! * [`overlay`] — the self-healing graph: repair on deletion, degree
//!   pruning to `d_max`, peering requests.
//! * [`maintenance`] — the one rule for which peers a node drops: the
//!   prune planner both prune passes share, and the peering acceptance
//!   policy the SOAP mitigation later exploits.
//! * [`rotation`] — periodic `.onion` address rotation derived from the
//!   shared key `K_B` and the botmaster public key.
//! * [`routing`] — flooding broadcast and greedy routing with NoN lookahead.
//! * [`config`] — degree-range configuration.
//!
//! ```
//! use onionbots_core::config::DdsrConfig;
//! use onionbots_core::overlay::DdsrOverlay;
//! use onion_graph::components::is_connected;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let (mut overlay, ids) = DdsrOverlay::new_regular(200, 10, DdsrConfig::for_degree(10), &mut rng);
//! // Take down half of the botnet, one node at a time.
//! for id in ids.iter().take(100) {
//!     overlay.remove_node_with_repair(*id, &mut rng);
//! }
//! assert!(is_connected(overlay.graph()));
//! assert!(overlay.graph().max_degree() <= 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod maintenance;
pub mod overlay;
pub mod rotation;
pub mod routing;
pub mod shard;

pub use config::DdsrConfig;
pub use overlay::DdsrOverlay;

#[cfg(test)]
mod property_tests {
    use crate::config::DdsrConfig;
    use crate::overlay::DdsrOverlay;
    use onion_graph::components::is_connected;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Whatever sequence of deletions is applied, the pruned overlay
        /// never exceeds d_max and its graph invariants hold.
        #[test]
        fn degree_bound_is_invariant_under_random_deletions(
            seed in 0u64..1000,
            delete_fraction in 0.05f64..0.6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = 8usize;
            let n = 120usize;
            let (mut overlay, mut ids) = DdsrOverlay::new_regular(n, k, DdsrConfig::for_degree(k), &mut rng);
            use rand::seq::SliceRandom;
            ids.shuffle(&mut rng);
            let deletions = (n as f64 * delete_fraction) as usize;
            for id in ids.into_iter().take(deletions) {
                overlay.remove_node_with_repair(id, &mut rng);
                prop_assert!(overlay.graph().max_degree() <= k);
                prop_assert!(overlay.graph().check_invariants().is_ok());
            }
        }

        /// Gradual takedowns of up to 70% of the nodes never partition a
        /// 10-regular DDSR overlay of this size.
        #[test]
        fn gradual_takedown_preserves_connectivity(seed in 0u64..200) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut overlay, mut ids) = DdsrOverlay::new_regular(150, 10, DdsrConfig::for_degree(10), &mut rng);
            use rand::seq::SliceRandom;
            ids.shuffle(&mut rng);
            for id in ids.into_iter().take(105) {
                overlay.remove_node_with_repair(id, &mut rng);
            }
            prop_assert!(is_connected(overlay.graph()));
        }
    }
}
