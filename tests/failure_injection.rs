//! Failure-injection tests: FlashFlow under misbehaving and failing
//! components.

use flashflow_repro::core::prelude::*;
use flashflow_repro::simnet::prelude::*;
use flashflow_repro::tornet::prelude::*;

/// One round of `relay`'s §4.2 sequence from `prior`, honest.
fn one_round(
    tor: &mut TorNet,
    relay: RelayId,
    team: &Team,
    prior: Rate,
    params: &Params,
    rng: &mut SimRng,
) -> SequenceOutcome {
    measure_relay(tor, relay, team, prior, params, TargetBehavior::Honest, rng, 1).unwrap()
}

fn base() -> (TorNet, Team, Vec<HostId>) {
    let (net, ids) = Net::table1();
    let tor = TorNet::from_net(net);
    let team = Team::with_capacities(&[
        (ids[2], Rate::from_mbit(941.0)),
        (ids[4], Rate::from_mbit(1611.0)),
    ]);
    (tor, team, ids)
}

#[test]
fn measurer_capacity_loss_mid_measurement_underestimates_safely() {
    // A measurer whose NIC collapses mid-slot: the estimate drops (the
    // median sees the loss) but never *over*-estimates — failures are
    // conservative.
    let (mut tor, _, ids) = base();
    let relay =
        tor.add_relay(ids[0], RelayConfig::new("t").with_rate_limit(Rate::from_mbit(500.0)));
    let params = Params::paper();
    let flow = tor.start_measurement_flow(ids[4], relay, 160, Some(Rate::from_mbit(1475.0)));
    tor.begin_measurement(relay, vec![flow]);
    let mut acc = SecondsAccumulator::new();
    let dt = tor.net.engine().tick_duration().as_secs_f64();
    for tick in 0..300 {
        tor.tick();
        acc.push(tor.net.engine().flow_bytes_last_tick(flow), dt);
        if tick == 150 {
            // NL's uplink collapses to 100 Mbit/s.
            let tx = tor.net.tx(ids[4]);
            tor.net.engine_mut().resource_mut(tx).set_capacity(Rate::from_mbit(100.0));
        }
    }
    tor.end_measurement(relay);
    // No background is reported, so the ratio does not matter.
    let (seconds, estimate) = estimate(acc.seconds(), &[], 0.25);
    assert!(!seconds.is_empty(), "no seconds measured");
    assert!(estimate.as_mbit() <= 500.0 * 1.05, "never overestimates: {estimate}");
    let _ = params;
}

#[test]
fn relay_rate_limit_change_mid_period_tracked_next_measurement() {
    // A relay that halves its rate limit between measurements gets the
    // new, lower estimate next period — capacity cannot be banked.
    let (mut tor, team, ids) = base();
    let relay =
        tor.add_relay(ids[0], RelayConfig::new("t").with_rate_limit(Rate::from_mbit(400.0)));
    let params = Params::paper();
    let mut rng = SimRng::seed_from_u64(1);
    let m1 =
        &one_round(&mut tor, relay, &team, Rate::from_mbit(400.0), &params, &mut rng).rounds[0];
    assert!((m1.estimate.as_mbit() - 400.0).abs() < 60.0);

    // Operator reconfigures the limit downward.
    let limiter = tor.relay(relay).limiter;
    tor.net.engine_mut().resource_mut(limiter).set_capacity(Rate::from_mbit(150.0));
    let m2 = &one_round(&mut tor, relay, &team, m1.estimate, &params, &mut rng).rounds[0];
    assert!(
        m2.estimate.as_mbit() < 200.0,
        "second measurement must see the new limit: {}",
        m2.estimate
    );
}

#[test]
fn partial_forger_caught_with_overwhelming_probability() {
    // Forging even 5% of a full slot's echoes is caught essentially
    // always at p = 1e-5 over ≈9M cells.
    let mut rng = SimRng::seed_from_u64(5);
    let mut caught = 0;
    const TRIALS: usize = 20;
    for _ in 0..TRIALS {
        let outcome =
            spot_check(125e6 * 30.0, 1e-5, TargetBehavior::Forging { fraction: 0.05 }, &mut rng);
        if !outcome.passed() {
            caught += 1;
        }
    }
    assert!(caught >= TRIALS - 2, "caught only {caught}/{TRIALS}");
}

#[test]
fn zero_capacity_relay_yields_zero_not_panic() {
    let (mut tor, team, ids) = base();
    let relay = tor
        .add_relay(ids[0], RelayConfig::new("dead").with_rate_limit(Rate::from_bytes_per_sec(1.0)));
    let params = Params::paper();
    let mut rng = SimRng::seed_from_u64(9);
    let out = one_round(&mut tor, relay, &team, Rate::from_mbit(10.0), &params, &mut rng);
    assert!(out.rounds[0].estimate.as_mbit() < 0.1);
    assert_eq!(out.end, SequenceEnd::Converged, "a dead relay is conclusively dead");
}

#[test]
fn schedule_survives_relay_churn() {
    // Ten new relays arrive at slot 100 of a period whose forty old
    // relays drew their slots in secret: each lands in the earliest slot
    // from 100 on that still has room, and no slot over-reserves.
    let params = Params::paper();
    let (_, ids) = Net::table1();
    let team = Team::with_capacities(
        &ids[..3].iter().map(|h| (*h, Rate::from_gbit(1.0))).collect::<Vec<_>>(),
    );
    let old = (0..40).map(|i| (i, Rate::from_mbit(100.0).bytes_per_sec()).into());
    let new = (40..50).map(|i| ToMeasure {
        key: i,
        z0: Rate::from_mbit(51.0).bytes_per_sec(),
        arrives: Some(100),
    });
    // (slot, relay, reserved Mbit/s) for every measurement taken.
    let mut placed: Vec<(usize, usize, f64)> = Vec::new();
    let order = Order::Secret { seed: 3 };
    measure_period(&team, &params, order, old.chain(new), 1, |index, slot| {
        for m in 0..3 {
            let reserved: f64 = slot.iter().map(|item| item.allocation[m].as_mbit()).sum();
            assert!(reserved <= 1000.0 + 1e-6, "slot {index} measurer {m}: {reserved}");
        }
        for item in slot {
            placed.push((index, item.key, item.allocation.iter().map(|a| a.as_mbit()).sum()));
        }
        perfect_slot(index, slot)
    });

    assert_eq!(placed.len(), 50);
    for key in 0..50 {
        assert_eq!(placed.iter().filter(|p| p.1 == key).count(), 1, "relay {key}");
    }
    for &(landed, key, need) in placed.iter().filter(|p| p.1 >= 40) {
        assert!(landed >= 100, "relay {key} measured at {landed}, before it arrived");
        // First fit: each slot it passed over was too full for it, given
        // the relays placed there before it.
        for index in 100..landed {
            let load: f64 = placed.iter().filter(|p| p.0 == index && p.1 < key).map(|p| p.2).sum();
            assert!(load + need > 3000.0 + 1e-6, "relay {key} skipped slot {index}");
        }
    }
}
