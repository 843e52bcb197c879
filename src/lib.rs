//! # onionbots
//!
//! Umbrella crate for the **OnionBots (DSN 2015)** defensive research
//! simulator — a from-scratch Rust reproduction of *OnionBots: Subverting
//! Privacy Infrastructure for Cyber Attacks* (Sanatinia & Noubir).
//!
//! The workspace is split into focused crates, all re-exported here:
//!
//! * [`crypto`] (`onion-crypto`) — bignum, RSA, SHA-1/256, HMAC, ChaCha20,
//!   base32, the `generateKey(PK_CC, H(K_B, i_p))` KDF and uniform message
//!   encoding.
//! * [`graph`] (`onion-graph`) — graphs, k-regular generators, centrality
//!   and component metrics.
//! * [`tor`] (`tor-sim`) — the simulated Tor substrate: relays, consensus,
//!   the HSDir ring, and the [`tor::TorNetwork`] that announces, resolves
//!   and delivers to hidden services by onion address.
//! * [`core`] (`onionbots-core`) — the DDSR self-healing overlay (the
//!   paper's contribution), maintenance protocol, address rotation and
//!   routing.
//! * [`botnet`] — bot life cycle, botmaster, signed commands, bootstrap
//!   strategies, rental tokens and the end-to-end
//!   [`botnet::BotnetSimulation`], which runs the C&C protocol over
//!   [`tor`] on one [`core`] DDSR overlay.
//! * [`mitigation`] — SOAP, HSDir positioning, proof-of-work / rate-limit
//!   defenses and the SuperOnion extension.
//! * [`sim`] — the experiment layer: takedown primitives, the
//!   [`sim::scenario_api::Scenario`] trait + registry, the parallel
//!   [`sim::Runner`], and report rendering.
//!
//! ## Reproducing the evaluation
//!
//! Every paper figure/table/ablation is a registered scenario in
//! `onionbots-bench`; the `run_experiments` binary lists and executes
//! them:
//!
//! ```text
//! run_experiments --list
//! run_experiments --only fig4,fig7 --scale full --jobs 8 --out results/
//! ```
//!
//! Scenarios split into independent parts that fan out across worker
//! threads with per-part deterministic seeds, so reports (and their JSON)
//! are byte-identical for any `--jobs` value. `run_experiments --only ID`
//! is the one way to run a single figure or table. See
//! `examples/custom_scenario.rs` for registering your own workload.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for how
//! to regenerate every table and figure: the CLI flags, the execution
//! backends, the result cache and the simulation service.
//!
//! ```
//! use onionbots::core::{DdsrConfig, DdsrOverlay};
//! use onionbots::graph::components::is_connected;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2015);
//! let (mut overlay, ids) = DdsrOverlay::new_regular(100, 10, DdsrConfig::for_degree(10), &mut rng);
//! for id in ids.iter().take(60) {
//!     overlay.remove_node_with_repair(*id, &mut rng);
//! }
//! assert!(is_connected(overlay.graph()));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Re-export of the `botnet` crate (bot life cycle and C&C layer).
pub use botnet;
/// Re-export of the `mitigation` crate (SOAP, defenses, SuperOnion).
pub use mitigation;
/// Re-export of the `sim` crate (scenarios and experiment reports).
pub use sim;

/// Re-export of the `onion-crypto` crate.
pub use onion_crypto as crypto;
/// Re-export of the `onion-graph` crate.
pub use onion_graph as graph;
/// Re-export of the `onionbots-core` crate (the DDSR overlay).
pub use onionbots_core as core;
/// Re-export of the `tor-sim` crate (simulated Tor).
pub use tor_sim as tor;
