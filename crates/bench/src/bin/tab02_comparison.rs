//! Table 2: comparison of Tor load-balancing systems — added server
//! bandwidth, demonstrated attack advantage, capacity availability, and
//! whole-network measurement speed.

use flashflow_balance::attacks::{
    eigenspeed_drift_attack, peerflow_advantage_bound, torflow_attack,
};
use flashflow_bench::{compare, gbit_team, header, packed_slots};
use flashflow_core::params::Params;
use flashflow_core::security::max_inflation_factor;
use flashflow_simnet::rng::SimRng;
use flashflow_simnet::units::Rate;

fn july_2019_network(seed: u64) -> Vec<Rate> {
    // 6,500 relays, log-normal capacities clamped at 998 Mbit/s,
    // calibrated to the paper's ≈608 Gbit/s total.
    let mut rng = SimRng::seed_from_u64(seed);
    (0..6500).map(|_| Rate::from_mbit((36.0 * rng.gen_lognormal(0.0, 1.45)).min(998.0))).collect()
}

fn main() {
    header("tab02", "Comparison of Tor load-balancing systems", 42);
    let params = Params::paper();

    // FlashFlow speed: the July-2019-like network packed largest prior
    // first on a 3 × 1 Gbit/s team.
    let relays = july_2019_network(42);
    let total: f64 = relays.iter().map(|c| c.as_gbit()).sum();
    let slots = packed_slots(&gbit_team(3), &params, relays.iter().map(|c| c.bytes_per_sec()));
    let hours = slots as f64 * params.slot.as_secs_f64() / 3600.0;

    let tf = torflow_attack(10_000, 177.0);
    let es = eigenspeed_drift_attack(100, 3, 7, 2.0, 7);
    let pf_bound = peerflow_advantage_bound(0.2);
    let ff_bound = max_inflation_factor(params.ratio);

    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>10}",
        "system", "server BW", "attack adv", "capacity?", "speed"
    );
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>10}",
        "TorFlow",
        "1 Gbit/s",
        format!("{:.0}x", tf.advantage()),
        "partial",
        "2 days"
    );
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>10}",
        "EigenSpeed",
        "0",
        format!("{:.1}x", es.advantage()),
        "no",
        "1 day"
    );
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>10}",
        "PeerFlow",
        "0",
        format!("{:.0}x", pf_bound),
        "partial",
        "14 days+"
    );
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>10}",
        "FlashFlow",
        "3 Gbit/s",
        format!("{:.2}x", ff_bound),
        "yes",
        format!("{hours:.1} h")
    );

    compare("TorFlow attack advantage", "177x", &format!("{:.0}x", tf.advantage()));
    compare("EigenSpeed attack advantage", "21.5x", &format!("{:.1}x", es.advantage()));
    compare("PeerFlow attack advantage (2/tau)", "10x", &format!("{pf_bound:.0}x"));
    compare("FlashFlow attack advantage (1/(1-r))", "1.33x", &format!("{ff_bound:.2}x"));
    compare("FlashFlow network measurement time", "5 hours", &format!("{hours:.1} h"));
    println!("modelled July-2019 network: {} relays, {total:.0} Gbit/s total (paper: 6419 relays, 608 Gbit/s)", relays.len());
}
