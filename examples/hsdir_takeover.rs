//! HSDir positioning mitigation (§VI-A): an adversary plants relays whose
//! fingerprints sort immediately after a bot's descriptor IDs, waits out the
//! 25-hour HSDir eligibility period, and then denies the bot's descriptor —
//! and why periodic address rotation makes this a losing race.
//!
//! Run with: `cargo run --example hsdir_takeover`

use onionbots::mitigation::hsdir_attack::{deny_service, execute_takeover, plan_takeover};
use onionbots::tor::network::TorNetwork;
use onionbots::tor::onion::OnionAddress;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let mut tor = TorNetwork::new(60, &mut rng);

    let bot_today = OnionAddress::from_identifier([0x21; 10]);
    let bot_tomorrow = OnionAddress::from_identifier([0xc4; 10]);
    tor.register_hidden_service(bot_today);
    tor.register_hidden_service(bot_tomorrow);

    // Plan against the period that will be current once the planted relays
    // have earned the HSDir flag (25 hours from now).
    let attack_time = tor.time_secs() + 26 * 3600;
    let plan = plan_takeover(bot_today, attack_time, 1_000_000);
    println!(
        "planted {} relay fingerprints targeting {} (simulated keygen attempts: {})",
        plan.planted_fingerprints.len(),
        plan.target,
        plan.keygen_attempts
    );

    let responsible = execute_takeover(&mut tor, &plan);
    println!(
        "after 26 hours, {responsible}/6 responsible HSDir positions are adversary-controlled"
    );

    tor.announce_service(bot_today).unwrap();
    tor.announce_service(bot_tomorrow).unwrap();
    println!(
        "before denial: today's address resolvable = {}",
        tor.is_resolvable(bot_today)
    );
    let denied = deny_service(&mut tor, &plan);
    println!("after denial: today's address blocked = {denied}");
    println!(
        "but the rotated address the adversary did not plan for is still reachable = {}",
        tor.is_resolvable(bot_tomorrow)
    );
    println!("\nconclusion (matching §VI-A): per-address HSDir takeovers cannot keep up with rotating OnionBots.");
}
