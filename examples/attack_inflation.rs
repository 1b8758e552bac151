//! Security demo: a malicious relay that lies about its background
//! traffic gains at most 1/(1-r) = 1.33x — while the same relay attacking
//! TorFlow gains 177x.
//!
//! Run with: `cargo run --example attack_inflation`

use flashflow_repro::balance::attacks::torflow_attack;
use flashflow_repro::core::prelude::*;
use flashflow_repro::simnet::prelude::*;
use flashflow_repro::tornet::prelude::*;

fn main() {
    let params = Params::paper();

    // --- FlashFlow: the §5 bounded-inflation attack ---
    let mut tor = TorNet::new();
    let us_e = tor.add_host(HostProfile::us_e());
    let nl = tor.add_host(HostProfile::host_nl());
    let host = tor.add_host(HostProfile::us_sw());
    let true_capacity = Rate::from_mbit(200.0);
    // The liar forwards no client traffic during its measurement but
    // reports the maximum the ratio allows.
    let liar = tor.add_relay(
        host,
        RelayConfig::new("liar").with_rate_limit(true_capacity).with_inflated_reporting(),
    );
    let team =
        Team::with_capacities(&[(us_e, Rate::from_mbit(941.0)), (nl, Rate::from_mbit(1611.0))]);
    let mut rng = SimRng::seed_from_u64(2);
    let honesty = TargetBehavior::Honest;
    let out = measure_relay(&mut tor, liar, &team, true_capacity, &params, honesty, &mut rng, 1)
        .expect("allocatable");
    let m = &out.rounds[0];
    let gained = m.estimate.as_mbit() / true_capacity.as_mbit();
    println!(
        "FlashFlow: liar with true capacity {} measured at {} => {:.2}x \
         (analytical bound {:.2}x)",
        true_capacity,
        m.estimate,
        gained,
        max_inflation_factor(params.ratio)
    );
    assert!(gained <= max_inflation_factor(params.ratio) * 1.02);

    // --- TorFlow: the same adversary simply lies in its descriptor ---
    let outcome = torflow_attack(10_000, 177.0);
    println!(
        "TorFlow:   false advertised-bandwidth report => {:.0}x advantage",
        outcome.advantage()
    );

    // --- and forging echoes instead gets the relay caught ---
    let mut rng = SimRng::seed_from_u64(3);
    let outcome = spot_check(
        125e6 * 30.0, // a 30-second gigabit measurement
        params.check_probability,
        TargetBehavior::Forging { fraction: 1.0 },
        &mut rng,
    );
    println!(
        "forging every echo: {} of {} spot-checked cells mismatched -> measurement voided",
        outcome.mismatches, outcome.cells_checked
    );
    assert!(!outcome.passed());
}
