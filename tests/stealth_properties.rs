//! Integration tests of the stealth properties the paper claims for
//! OnionBots (§IV-D, §V-A): fixed-size indistinguishable messages, no
//! linkability between rotated addresses without `K_B`, and the limits of
//! what a defender learns from a captured bot.

use onionbots::botnet::messages::{Audience, CommandKind, SignedCommand};
use onionbots::botnet::{Botmaster, BotnetSimulation};
use onionbots::core::rotation::AddressSchedule;
use onionbots::crypto::elligator::{UniformEncoder, UNIFORM_CELL_LEN};
use onionbots::crypto::kdf::derive_link_key;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

#[test]
fn every_wire_message_has_the_same_size_regardless_of_content() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut master = Botmaster::new(768, &mut rng);
    let encoder = UniformEncoder::new(derive_link_key(b"net", b"a", b"b"));

    let commands = vec![
        master.issue(CommandKind::Maintenance, Audience::Broadcast, 0),
        master.issue(
            CommandKind::SimulatedDdos {
                target: "a-very-long-target-name.example.invalid".repeat(2),
            },
            Audience::Broadcast,
            0,
        ),
        master.issue(
            CommandKind::RotateAddresses { period: 9 },
            Audience::Broadcast,
            0,
        ),
    ];
    let mut sizes = BTreeSet::new();
    for cmd in &commands {
        let cell = cmd.to_cell(&encoder, &mut rng).unwrap();
        sizes.insert(cell.len());
        assert_eq!(cell.len(), UNIFORM_CELL_LEN);
    }
    assert_eq!(sizes.len(), 1, "all commands are indistinguishable by size");
}

#[test]
fn relaying_bots_cannot_read_messages_for_other_links() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut master = Botmaster::new(768, &mut rng);
    let cmd = master.issue(CommandKind::Maintenance, Audience::Broadcast, 0);

    let link_ab = UniformEncoder::new(derive_link_key(b"net", b"bot-a", b"bot-b"));
    let link_bc = UniformEncoder::new(derive_link_key(b"net", b"bot-b", b"bot-c"));
    let cell = cmd.to_cell(&link_ab, &mut rng).unwrap();
    // A node holding a different link key either fails to decode or recovers
    // garbage that is not the command.
    match SignedCommand::from_cell(&link_bc, &cell) {
        Err(_) => {}
        Ok(decoded) => assert_ne!(decoded, cmd),
    }
}

#[test]
fn rotated_addresses_are_unlinkable_without_k_b() {
    let mut rng = StdRng::seed_from_u64(3);
    let master = Botmaster::new(768, &mut rng);
    let k_b: [u8; 32] = rng.gen();
    let schedule = AddressSchedule::new(master.public_key(), k_b);

    // The adversary observes one address; the next-period address shares no
    // structure with it (different identifiers, no common prefix beyond
    // chance).
    let today = schedule.address_for_period(10);
    let tomorrow = schedule.address_for_period(11);
    assert_ne!(today, tomorrow);
    let same_prefix = today
        .identifier()
        .iter()
        .zip(tomorrow.identifier().iter())
        .take_while(|(a, b)| a == b)
        .count();
    assert!(same_prefix < 4, "long shared prefixes would allow linking");

    // An adversary guessing K_B values essentially never reproduces the
    // real schedule.
    for _ in 0..50 {
        let guess: [u8; 32] = rng.gen();
        if guess == k_b {
            continue;
        }
        let wrong = AddressSchedule::new(master.public_key(), guess);
        assert_ne!(wrong.address_for_period(11), tomorrow);
    }
}

#[test]
fn a_captured_bot_reveals_only_its_own_peers_and_no_ips() {
    let mut rng = StdRng::seed_from_u64(4);
    let (n, k) = (10, 2);
    let mut sim = BotnetSimulation::new(20, &mut rng);
    sim.infect(n, &mut rng);
    sim.rally(k, &mut rng);
    let addresses: Vec<_> = sim
        .bot_ids()
        .into_iter()
        .map(|id| sim.address_of(id).unwrap())
        .collect();
    // Capturing a bot exposes the onion addresses of its k overlay peers —
    // not the rest of the botnet and nothing IP-like.
    let captured = sim.bot_ids()[0];
    let exposed: Vec<_> = sim
        .overlay()
        .peers(captured.node())
        .unwrap()
        .into_iter()
        .map(|peer| sim.address_of(peer.into()).unwrap())
        .collect();
    assert_eq!(exposed.len(), k);
    for addr in &exposed {
        assert!(addresses.contains(addr));
        assert!(addr.to_string().ends_with(".onion"));
    }
    let own = sim.address_of(captured).unwrap();
    let unexposed = addresses
        .iter()
        .filter(|a| !exposed.contains(a) && **a != own)
        .count();
    assert_eq!(unexposed, n - 1 - k, "the other bots stay hidden");
}
