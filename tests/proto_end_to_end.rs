//! End-to-end tests of the `flashflow-proto` measurement path: complete
//! multi-measurer measurements executed entirely through protocol
//! sessions pumped by the `MeasurementEngine` (the blast loop starts
//! only in response to session actions), checked against the direct
//! path, plus the failure modes that motivate the protocol — stalls
//! must abort, not hang.

use flashflow_repro::core::prelude::*;
use flashflow_repro::proto::msg::{AbortReason, PeerRole};
use flashflow_repro::simnet::prelude::*;
use flashflow_repro::tornet::prelude::*;

/// A fresh seeded network: two Table 1 measurers and one rate-limited
/// relay. Deterministic, so two calls give identical networks.
fn testbed(limit_mbit: f64) -> (TorNet, Team, RelayId) {
    let mut tor = TorNet::new();
    let us_e = tor.add_host(HostProfile::us_e());
    let nl = tor.add_host(HostProfile::host_nl());
    let target_host = tor.add_host(HostProfile::us_sw());
    tor.net.set_rtt(us_e, target_host, SimDuration::from_millis(62));
    tor.net.set_rtt(nl, target_host, SimDuration::from_millis(137));
    let relay = tor.add_relay(
        target_host,
        RelayConfig::new("target").with_rate_limit(Rate::from_mbit(limit_mbit)),
    );
    let team =
        Team::with_capacities(&[(us_e, Rate::from_mbit(941.0)), (nl, Rate::from_mbit(1611.0))]);
    (tor, team, relay)
}

#[test]
fn protocol_measurement_agrees_with_direct_path() {
    // A 600 Mbit/s relay needs f·600 ≈ 1772 Mbit/s of allocation — more
    // than the larger measurer alone — so this is a genuine
    // multi-measurer measurement over the protocol.
    let params = Params::paper();
    let prior = Rate::from_mbit(600.0);

    let (mut tor_a, team_a, relay_a) = testbed(600.0);
    let mut rng_a = SimRng::seed_from_u64(1);
    let direct = measure_once(&mut tor_a, relay_a, &team_a, prior, &params, &mut rng_a).unwrap();

    let (mut tor_b, team_b, relay_b) = testbed(600.0);
    let mut rng_b = SimRng::seed_from_u64(1);
    let proto =
        SlotRunner::new(&params).measure(&mut tor_b, relay_b, &team_b, prior, &mut rng_b).unwrap();

    assert!(proto.clean(), "failures: {:?}", proto.failures);
    assert_eq!(proto.measurement.seconds.len(), 30);
    assert!(proto.measurement.verified());

    // Multi-measurer: two measurer sessions + the target session each
    // exchanged a full conversation.
    assert_eq!(proto.frames_tx, 3 * 3, "expected 3 sessions (2 measurers + target)");
    assert_eq!(proto.frames_rx, 3 * 33);

    let d = direct.estimate.as_mbit();
    let p = proto.measurement.estimate.as_mbit();
    let rel = (d - p).abs() / d;
    assert!(
        rel < 0.05,
        "direct {d:.1} Mbit/s vs protocol {p:.1} Mbit/s differ by {:.1}%",
        rel * 100.0
    );
    // And both are accurate in absolute terms.
    assert!((480.0..=660.0).contains(&p), "protocol estimate {p} Mbit/s");
}

#[test]
fn stalled_measurer_triggers_abort_not_hang() {
    let params = Params::paper();
    let (mut tor, team, relay) = testbed(250.0);
    let mut rng = SimRng::seed_from_u64(9);

    // Force a two-measurer slot, then crash the US-E measurer (the one
    // the greedy allocator gave the *smaller* share — the NL survivor
    // can still saturate the relay) after it has reported 5 seconds.
    let prior = Rate::from_mbit(600.0);
    let reserved = vec![Rate::ZERO; team.len()];
    let allocations = team.allocate(prior, &params, &reserved).unwrap();
    assert!(allocations[0] < allocations[1], "greedy fills the larger measurer first");
    let assignments = assignments_for(&team, &allocations, &params);
    let stall_host = team.measurers[0].host;
    let faults =
        vec![FaultSpec { item: 0, host: stall_host, fault: PeerFault::StallAfterSeconds(5) }];

    let start = tor.now();
    let proto = SlotRunner::new(&params).with_faults(faults).run_one(
        &mut tor,
        relay,
        &assignments,
        TargetBehavior::Honest,
        &mut rng,
    );

    // The slot terminated in bounded simulated time (slot + handshake +
    // report-timeout drain), i.e. it did not wedge.
    let elapsed = tor.now().duration_since(start);
    assert!(elapsed < SimDuration::from_secs(60), "slot took {elapsed} of simulated time");

    // The stalled peer was aborted with the report timeout...
    let stalled: Vec<_> = proto.failures.iter().filter(|f| f.host == Some(stall_host)).collect();
    assert_eq!(stalled.len(), 1, "failures: {:?}", proto.failures);
    assert_eq!(stalled[0].reason, AbortReason::ReportTimeout);
    assert_eq!(stalled[0].role, PeerRole::Measurer);

    // ...and the measurement degraded instead of disappearing: the
    // surviving measurer still saturated the 250 Mbit/s relay.
    let est = proto.measurement.estimate.as_mbit();
    assert!((200.0..=270.0).contains(&est), "degraded estimate {est} Mbit/s");
    assert_eq!(proto.measurement.seconds.len(), 30);
}

#[test]
fn bwauth_period_runs_over_protocol_backend() {
    // The period driver `BwAuth::measure_network` runs produces an
    // accurate bandwidth file with every slot executed through protocol
    // sessions instead: the executor is the only thing that differs.
    let mut tor = TorNet::new();
    let m1 = tor.add_host(HostProfile::us_e());
    let m2 = tor.add_host(HostProfile::host_nl());
    let mut relays = Vec::new();
    for (i, limit) in [150.0, 80.0].iter().enumerate() {
        let h = tor.add_host(HostProfile::new(format!("rh{i}"), Rate::from_gbit(1.0)));
        tor.net.set_rtt(m1, h, SimDuration::from_millis(60));
        tor.net.set_rtt(m2, h, SimDuration::from_millis(120));
        let r = tor.add_relay(
            h,
            RelayConfig::new(format!("r{i}")).with_rate_limit(Rate::from_mbit(*limit)),
        );
        relays.push((r, Rate::from_mbit(*limit)));
    }
    let team =
        Team::with_capacities(&[(m1, Rate::from_mbit(941.0)), (m2, Rate::from_mbit(1611.0))]);
    let params = Params::paper();
    let mut rng = SimRng::seed_from_u64(11);
    let priors = relays.iter().map(|(relay, z0)| (*relay, z0.bytes_per_sec()));
    let settled =
        measure_period(&team, &params, Order::Packed, priors, BwAuth::MAX_ROUNDS, |_, slot| {
            let batch = batch_for(&team, &params, slot, &|_| TargetBehavior::Honest);
            let measured = SlotRunner::new(&params).run(&mut tor, &batch, &mut rng);
            measured.iter().map(|p| p.measurement.slot_result()).collect()
        });
    let file = BandwidthFile::from_settled(&settled);
    assert_eq!(file.entries.len(), 2);
    for (relay, truth) in &relays {
        let entry = &file.entries[relay];
        let err = (entry.capacity.as_mbit() - truth.as_mbit()).abs() / truth.as_mbit();
        assert!(err < 0.25, "relay {relay:?}: {} vs {truth}", entry.capacity);
    }
}
