//! Seed-replay regression tests pinning the determinism audit.
//!
//! The workspace invariant — one seed, one byte-identical result — is
//! what the content-addressed cache, the executor backends and the
//! daemon all assume. These tests pin the three layers the audit
//! touched (see detlint rule D001 and DESIGN.md "Determinism lint"):
//!
//! * the scenario pipeline end to end: two in-process [`Runner`] runs
//!   with the same seed must produce byte-identical summaries, serial
//!   or parallel;
//! * [`BotnetSimulation`], whose bot table and the
//!   [`tor_sim::network::TorNetwork`] HSDir/announcement storage it
//!   drives are now ordered containers, and whose overlay is a slab;
//! * [`WireObserver::summarize`], whose size-entropy fold sums floats
//!   over aggregated counts — the fold order must not depend on the
//!   order cells happened to arrive in.

use botnet::messages::CommandKind;
use botnet::observer::WireObserver;
use botnet::BotnetSimulation;
use onion_graph::budget::with_thread_budget;
use onion_graph::graph::NodeId;
use onionbots_bench::scenarios;
use onionbots_core::shard::ShardGrid;
use onionbots_core::{DdsrConfig, DdsrOverlay};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::scenario_api::ScenarioParams;
use sim::Runner;

fn params(seed: u64) -> ScenarioParams {
    ScenarioParams::with_seed(seed)
        .with_override("steps", "2")
        .with_override("n", "500")
}

/// The scenarios whose code paths the ordering audit touched most:
/// fig7 drives `SoapAttack`, the SOAP ablation drives the defended
/// variant, and fig6 covers the partition sweep; all three flow through
/// the runner/executor bookkeeping that moved to ordered maps.
fn selected() -> Vec<std::sync::Arc<dyn sim::Scenario>> {
    scenarios::registry()
        .select(&[
            "fig6".to_string(),
            "fig7".to_string(),
            "ablation-soap-defenses".to_string(),
        ])
        .unwrap()
}

#[test]
fn runner_replays_byte_identically_for_a_fixed_seed() {
    let first = Runner::new(params(11))
        .jobs(4)
        .try_run_observed(&selected(), &())
        .unwrap()
        .0;
    let second = Runner::new(params(11))
        .jobs(4)
        .try_run_observed(&selected(), &())
        .unwrap()
        .0;
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "two runs with the same seed must be byte-identical"
    );
    let serial = Runner::new(params(11))
        .try_run_observed(&selected(), &())
        .unwrap()
        .0;
    assert_eq!(
        serial.to_json(),
        first.to_json(),
        "worker count must not influence results"
    );
}

/// Drives a full botnet lifecycle — infection, rally, descriptor
/// publication, broadcast, address rotation, takedowns, re-broadcast —
/// and flattens everything observable into one string.
fn drive_botnet(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = BotnetSimulation::new(40, &mut rng);
    sim.infect(24, &mut rng);
    sim.rally(3, &mut rng);
    sim.publish_all_descriptors();
    let first = sim.broadcast_command(CommandKind::Maintenance, 2, &mut rng);
    sim.advance_time(3600);
    sim.rotate_all(900);
    sim.publish_all_descriptors();
    for id in sim.bot_ids().into_iter().take(5) {
        assert!(sim.take_down(id, &mut rng));
    }
    let second = sim.broadcast_command(CommandKind::RotateAddresses { period: 900 }, 2, &mut rng);
    let addresses: Vec<_> = sim
        .bot_ids()
        .into_iter()
        .map(|id| (id, sim.address_of(id)))
        .collect();
    format!(
        "{first:?}|{second:?}|bots={:?}|addresses={addresses:?}|overlay={:?}|clock={}",
        sim.bot_ids(),
        sim.overlay(),
        sim.clock_secs()
    )
}

#[test]
fn botnet_simulation_replays_byte_identically_for_a_fixed_seed() {
    assert_eq!(
        drive_botnet(7),
        drive_botnet(7),
        "same seed must reproduce the entire observable lifecycle"
    );
    assert_ne!(
        drive_botnet(7),
        drive_botnet(8),
        "different seeds must actually exercise the RNG"
    );
}

/// Drives the PR 8 sharded overlay lifecycle — sharded k-regular
/// construction over a fixed grid, then two takedown waves through the
/// partitioned repair path — under a given worker-thread budget, and
/// flattens everything observable into one string.
fn drive_sharded_overlay(seed: u64, budget: usize) -> String {
    with_thread_budget(budget, || {
        let (n, k) = (3_000usize, 10usize);
        let grid = ShardGrid::new(n, k, 64);
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut overlay, ids) =
            DdsrOverlay::new_regular_sharded(n, k, DdsrConfig::for_degree(k), &grid, &mut rng);
        let mut waves = Vec::new();
        for wave in 0..2 {
            let victims: Vec<NodeId> = ids.iter().copied().skip(wave * 150).take(150).collect();
            waves.push(overlay.remove_nodes_sharded(&victims, &grid, &mut rng));
        }
        format!(
            "waves={waves:?}|stats={:?}|graph={:?}",
            overlay.stats(),
            overlay.graph()
        )
    })
}

#[test]
fn sharded_overlay_replays_byte_identically_for_a_fixed_seed() {
    assert_eq!(
        drive_sharded_overlay(2015, 1),
        drive_sharded_overlay(2015, 1),
        "same seed must reproduce the sharded build and both waves"
    );
    assert_ne!(
        drive_sharded_overlay(2015, 1),
        drive_sharded_overlay(2016, 1),
        "different seeds must actually exercise the shard streams"
    );
}

#[test]
fn sharded_overlay_is_invariant_to_the_worker_thread_budget() {
    let reference = drive_sharded_overlay(2015, 1);
    for budget in [2usize, 4, 8] {
        assert_eq!(
            drive_sharded_overlay(2015, budget),
            reference,
            "shard workers must steal work, not shape output (budget={budget})"
        );
    }
}

#[test]
fn observer_summary_does_not_depend_on_observation_order() {
    let cells = [
        (512, 0),
        (514, 0),
        (512, 1),
        (600, 1),
        (514, 2),
        (512, 2),
        (700, 0),
        (512, 3),
    ];
    let mut forward = WireObserver::new();
    let mut reverse = WireObserver::new();
    for &(size, window) in &cells {
        forward.observe(size, window);
    }
    for &(size, window) in cells.iter().rev() {
        reverse.observe(size, window);
    }
    let (a, b) = (forward.summarize(), reverse.summarize());
    assert_eq!(a, b, "summary must be a pure function of the multiset");
    // Bit equality of the floats pins the entropy fold: float addition is
    // not associative, so a hash-ordered fold could make these drift in
    // the last bits.
    for (x, y) in [
        (a.size_entropy_bits, b.size_entropy_bits),
        (a.mean_cells_per_window, b.mean_cells_per_window),
    ] {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}
