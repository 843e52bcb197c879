//! Cross-crate integration tests: the full OnionBot protocol stack (crypto →
//! Tor substrate → overlay → botnet) and the headline claims of the paper's
//! evaluation, exercised through the umbrella crate's public API exactly as
//! the examples use it.

use onionbots::botnet::messages::{Audience, CommandKind, SignedCommand};
use onionbots::botnet::BotnetSimulation;
use onionbots::core::{DdsrConfig, DdsrOverlay};
use onionbots::crypto::rsa::RsaKeyPair;
use onionbots::graph::components::{component_count, is_connected};
use onionbots::mitigation::soap::{SoapAttack, SoapConfig};
use onionbots::sim::scenario::{
    gradual_takedown, partition_threshold, TakedownMode, TakedownParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn command_broadcast_survives_address_rotation_and_partial_takedown() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut sim = BotnetSimulation::new(40, &mut rng);
    sim.infect(24, &mut rng);
    sim.rally(4, &mut rng);

    // Full coverage on the fresh botnet.
    let before = sim.broadcast_command(CommandKind::Maintenance, 2, &mut rng);
    assert_eq!(before.bots_reached, 24);
    assert_eq!(before.bots_executed, 24);

    // Rotate addresses (daily forgetting) — the C&C still reaches everyone.
    sim.rotate_all(1);
    let rotated =
        sim.broadcast_command(CommandKind::SimulatedCompute { work_units: 2 }, 2, &mut rng);
    assert_eq!(rotated.bots_reached, 24, "rotation must not orphan any bot");

    // Take a third of the botnet down; the rest remains commandable.
    let victims: Vec<_> = sim.bot_ids().into_iter().take(8).collect();
    for v in victims {
        assert!(sim.take_down(v, &mut rng));
    }
    let after = sim.broadcast_command(CommandKind::Maintenance, 3, &mut rng);
    assert_eq!(after.population, 16);
    assert!(
        after.bots_reached >= 12,
        "most surviving bots stay reachable, got {}",
        after.bots_reached
    );
}

#[test]
fn ddsr_overlay_resilience_matches_paper_claims() {
    let mut rng = StdRng::seed_from_u64(2);
    let n = 1000usize;
    let k = 10usize;

    // Gradual takedown of 90%: DDSR stays a single component with bounded
    // degree; the normal graph fragments.
    let params = TakedownParams {
        deletions: n * 9 / 10,
        sample_every: n / 10,
        metric_samples: 60,
    };
    let (mut ddsr, ids) = DdsrOverlay::new_regular(n, k, DdsrConfig::for_degree(k), &mut rng);
    let ddsr_trace = gradual_takedown(
        &mut ddsr,
        &ids,
        TakedownMode::SelfRepairing,
        params,
        &mut rng,
    );
    let (mut normal, ids_n) = DdsrOverlay::new_regular(n, k, DdsrConfig::for_degree(k), &mut rng);
    let normal_trace =
        gradual_takedown(&mut normal, &ids_n, TakedownMode::Normal, params, &mut rng);

    let ddsr_last = ddsr_trace.last().unwrap();
    let normal_last = normal_trace.last().unwrap();
    assert_eq!(
        ddsr_last.connected_components, 1,
        "DDSR survives 90% gradual takedown"
    );
    assert!(ddsr.graph().max_degree() <= k, "pruning bounds the degree");
    assert!(
        normal_last.connected_components > 5,
        "normal graph shatters (got {} components)",
        normal_last.connected_components
    );
    // Diameter of DDSR stays small (paper: it *decreases* as the botnet shrinks).
    assert!(ddsr_last.diameter.unwrap_or(usize::MAX) <= ddsr_trace[0].diameter.unwrap_or(0) + 2);

    // Simultaneous partition threshold sits in the ~40% region.
    let threshold = partition_threshold(n, k, 10, &mut rng);
    let fraction = threshold.fraction();
    assert!(
        (0.25..0.9).contains(&fraction),
        "partition threshold fraction {fraction} far from the paper's ~40%"
    );
}

#[test]
fn soap_neutralizes_the_basic_design_but_not_every_renter_command_path() {
    let mut rng = StdRng::seed_from_u64(3);
    let (mut overlay, ids) = DdsrOverlay::new_regular(120, 8, DdsrConfig::for_degree(8), &mut rng);
    assert!(is_connected(overlay.graph()));
    let mut soap = SoapAttack::new(SoapConfig::default(), ids[0]);
    let outcome = soap.run(&mut overlay, &mut rng);
    assert!(outcome.neutralized);
    // After neutralization, no real bot can flood-reach more than itself
    // plus defender clones.
    let clones = soap.clones();
    for &bot in ids.iter().filter(|b| overlay.graph().contains(**b)) {
        let report = onionbots::core::routing::flood_broadcast(overlay.graph(), bot);
        let reached_real = report.reached
            - overlay
                .graph()
                .nodes()
                .iter()
                .filter(|n| clones.contains(n))
                .count()
                .min(report.reached.saturating_sub(1));
        assert!(reached_real <= 1, "contained bot reached other real bots");
    }
    // The graph as a whole is partitioned from the bots' perspective.
    assert!(component_count(overlay.graph()) >= 1);
}

#[test]
fn rental_tokens_bound_what_a_renter_can_do_end_to_end() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut sim = BotnetSimulation::new(30, &mut rng);
    sim.infect(12, &mut rng);
    sim.rally(3, &mut rng);

    let renter = RsaKeyPair::generate(512, &mut rng);
    let token = sim.botmaster().issue_rental_token(
        renter.public(),
        5_000,
        vec!["simulated-spam".to_string()],
    );

    let seq = sim.botmaster_mut().next_sequence_for_renter();
    let allowed = SignedCommand::sign(
        &renter,
        CommandKind::SimulatedSpam {
            campaign: "test".into(),
        },
        Audience::Broadcast,
        seq,
        0,
        Some(token.clone()),
    );
    let allowed_report = sim.propagate(&allowed, 2, &mut rng);
    assert_eq!(allowed_report.bots_executed, 12);

    let seq = sim.botmaster_mut().next_sequence_for_renter();
    let forbidden = SignedCommand::sign(
        &renter,
        CommandKind::SimulatedDdos { target: "x".into() },
        Audience::Broadcast,
        seq,
        0,
        Some(token),
    );
    let forbidden_report = sim.propagate(&forbidden, 2, &mut rng);
    assert_eq!(forbidden_report.bots_executed, 0);
    assert!(
        forbidden_report.bots_reached > 0,
        "bots still relay what they reject"
    );
}
