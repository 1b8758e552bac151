//! Cross-crate integration tests: the full FlashFlow pipeline against a
//! simulated network, exercising simnet + tornet + core together.

use std::collections::BTreeMap;

use flashflow_repro::core::prelude::*;
use flashflow_repro::simnet::prelude::*;
use flashflow_repro::tornet::prelude::*;

fn table1_team(tor: &mut TorNet) -> (Team, Vec<HostId>) {
    let (net, ids) = Net::table1();
    *tor = TorNet::from_net(net);
    let team = Team::with_capacities(&[
        (ids[1], Rate::from_mbit(946.0)),
        (ids[2], Rate::from_mbit(941.0)),
        (ids[3], Rate::from_mbit(1076.0)),
        (ids[4], Rate::from_mbit(1611.0)),
    ]);
    (team, ids)
}

/// US-SW's CPU bound in Mbit/s: the lab's calibrated truth for a 750
/// Mbit/s limit and for no limit alike (92,094,370.86 B/s from
/// `flashflow_bench::ground_truth`, the jitter-free run figs 6, 15 and
/// 16 divide by).
const US_SW_CPU_BOUND_MBIT: f64 = 736.755;

#[test]
fn measures_every_paper_capacity_accurately() {
    // The Fig. 6 capacities: 10/250/500/750/unlimited Mbit/s targets on
    // US-SW, measured by the full Table 1 team.
    for (limit, expected) in [
        (Some(10.0), 10.0),
        (Some(250.0), 250.0),
        (Some(500.0), 500.0),
        (Some(750.0), US_SW_CPU_BOUND_MBIT),
        (None, US_SW_CPU_BOUND_MBIT),
    ] {
        let mut tor = TorNet::new();
        let (team, ids) = table1_team(&mut tor);
        let mut config = RelayConfig::new("target");
        if let Some(l) = limit {
            config = config.with_rate_limit(Rate::from_mbit(l));
        }
        let relay = tor.add_relay(ids[0], config);
        let params = Params::paper();
        let mut rng = SimRng::seed_from_u64(500 + limit.unwrap_or(0.0) as u64);
        let prior = Rate::from_mbit(expected);
        let honesty = TargetBehavior::Honest;
        let out = measure_relay(&mut tor, relay, &team, prior, &params, honesty, &mut rng, 1)
            .expect("team capacity suffices");
        let m = &out.rounds[0];
        let err = (m.estimate.as_mbit() - expected).abs() / expected;
        assert!(err < 0.20, "limit {limit:?}: estimate {} vs {expected} Mbit/s", m.estimate);
        assert!(m.verified());
    }
}

#[test]
fn adaptive_sequence_converges_from_bad_priors() {
    for prior_mbit in [10.0, 50.0, 2000.0] {
        let mut tor = TorNet::new();
        let (team, ids) = table1_team(&mut tor);
        let relay =
            tor.add_relay(ids[0], RelayConfig::new("t").with_rate_limit(Rate::from_mbit(400.0)));
        let params = Params::paper();
        let mut rng = SimRng::seed_from_u64(600);
        let prior = Rate::from_mbit(prior_mbit).min(Rate::from_bytes_per_sec(
            team.total_capacity().bytes_per_sec() / params.excess_factor(),
        ));
        let out = measure_relay(
            &mut tor,
            relay,
            &team,
            prior,
            &params,
            TargetBehavior::Honest,
            &mut rng,
            8,
        )
        .expect("allocatable");
        assert!(out.converged(), "prior {prior_mbit}: ended {:?}", out.end);
        let est = out.estimate.as_mbit();
        assert!((320.0..=440.0).contains(&est), "prior {prior_mbit}: estimate {est}");
    }
}

#[test]
fn inflation_bound_holds_across_ratios() {
    // §5: a relay lying about background traffic gains exactly up to
    // 1/(1−r), never more — for every ratio we deploy with.
    for r in [0.1, 0.25, 0.4] {
        let mut tor = TorNet::new();
        let (team, ids) = table1_team(&mut tor);
        let truth = Rate::from_mbit(300.0);
        let relay = tor.add_relay(
            ids[0],
            RelayConfig::new("liar").with_rate_limit(truth).with_ratio(r).with_inflated_reporting(),
        );
        let mut params = Params::paper();
        params.ratio = r;
        let mut rng = SimRng::seed_from_u64(700);
        let honesty = TargetBehavior::Honest;
        let out =
            measure_relay(&mut tor, relay, &team, truth, &params, honesty, &mut rng, 1).unwrap();
        let m = &out.rounds[0];
        let inflation = m.estimate.as_mbit() / truth.as_mbit();
        let bound = 1.0 / (1.0 - r);
        assert!(
            inflation <= bound * 1.02,
            "r={r}: inflation {inflation:.3} exceeds bound {bound:.3}"
        );
        assert!(inflation > 0.95, "r={r}: liar should still get ≈ its capacity");
    }
}

#[test]
fn multi_bwauth_median_defeats_one_liar_authority() {
    // Three BWAuths measure a small network; one is malicious and
    // reports 100× for a pet relay. The DirAuth median is unmoved.
    let mut tor = TorNet::new();
    let m1 = tor.add_host(HostProfile::us_e());
    let m2 = tor.add_host(HostProfile::host_nl());
    let relays: Vec<(RelayId, Rate)> = (0..3)
        .map(|i| {
            let cap = Rate::from_mbit(100.0 + 50.0 * i as f64);
            let h = tor.add_host(HostProfile::new(format!("rh{i}"), Rate::from_gbit(1.0)));
            (tor.add_relay(h, RelayConfig::new(format!("r{i}")).with_rate_limit(cap)), cap)
        })
        .collect();
    let team =
        Team::with_capacities(&[(m1, Rate::from_mbit(941.0)), (m2, Rate::from_mbit(1611.0))]);
    let params = Params::paper();

    let mut files = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut auth = BwAuth::new(format!("auth-{seed}"), team.clone(), params, seed);
        files.push(auth.measure_network(&mut tor, &relays, &|_| TargetBehavior::Honest));
    }
    // Corrupt the third authority's report for relay 0.
    let pet = relays[0].0;
    if let Some(entry) = files[2].entries.get_mut(&pet) {
        entry.capacity = Rate::from_bytes_per_sec(entry.capacity.bytes_per_sec() * 100.0);
    }
    let votes: Vec<_> = files.iter().map(BandwidthFile::weights).collect();
    let consensus = DirAuths::new(votes.len()).vote(SimTime::ZERO, &votes, &BTreeMap::new());
    let weight = consensus.entries.iter().find(|e| e.relay == pet).expect("pet is voted").weight;
    let est = Rate::from_bytes_per_sec(weight).as_mbit();
    assert!((80.0..140.0).contains(&est), "median should resist the liar: {est}");
}

#[test]
fn forging_relay_gets_no_estimate_and_honest_relays_do() {
    let mut tor = TorNet::new();
    let m1 = tor.add_host(HostProfile::us_e());
    let m2 = tor.add_host(HostProfile::host_nl());
    let h1 = tor.add_host(HostProfile::new("h1", Rate::from_gbit(1.0)));
    let h2 = tor.add_host(HostProfile::new("h2", Rate::from_gbit(1.0)));
    let honest =
        tor.add_relay(h1, RelayConfig::new("honest").with_rate_limit(Rate::from_mbit(100.0)));
    let forger =
        tor.add_relay(h2, RelayConfig::new("forger").with_rate_limit(Rate::from_mbit(100.0)));
    let team =
        Team::with_capacities(&[(m1, Rate::from_mbit(941.0)), (m2, Rate::from_mbit(1611.0))]);
    let params = Params::paper();
    let mut auth = BwAuth::new("auth", team, params, 9);
    let relays = vec![(honest, Rate::from_mbit(100.0)), (forger, Rate::from_mbit(100.0))];
    let file = auth.measure_network(&mut tor, &relays, &|r| {
        if r == forger {
            TargetBehavior::Forging { fraction: 1.0 }
        } else {
            TargetBehavior::Honest
        }
    });
    assert_eq!(file.entries[&forger].end, SequenceEnd::VerificationFailed);
    assert_eq!(file.entries[&forger].capacity, Rate::ZERO);
    assert_eq!(file.entries[&honest].end, SequenceEnd::Converged);
    assert!(file.entries[&honest].capacity.as_mbit() > 80.0);
    // The weights map excludes the forger entirely.
    assert!(!file.weights().contains_key(&forger));
}

#[test]
fn speed_test_experiment_shifts_observed_bandwidth() {
    // §3.4 end to end at the fluid layer: an underutilised relay reports
    // low observed bandwidth; a 20-second flood fixes that.
    let mut tor = TorNet::new();
    let measurer = tor.add_host(HostProfile::host_nl());
    let client = tor.add_host(HostProfile::new("c", Rate::from_gbit(1.0)));
    let server = tor.add_host(HostProfile::new("s", Rate::from_gbit(10.0)));
    let h = tor.add_host(HostProfile::us_sw());
    let relay = tor.add_relay(h, RelayConfig::new("under-utilised"));

    // Light client load: ~40 Mbit/s through a ~890 Mbit/s relay.
    let bg = tor.start_client_traffic(server, &[relay], client, 20, Scheduler::Kist);
    tor.net.engine_mut().set_flow_cap(bg, Some(Rate::from_mbit(40.0).bytes_per_sec()));
    tor.run_for(SimDuration::from_secs(30));
    let before = tor.relay(relay).observed.observed();
    assert!(before.as_mbit() < 60.0, "before {before}");

    // The SPEEDTEST flood.
    let flood = tor.start_measurement_flow(measurer, relay, 160, None);
    tor.run_for(SimDuration::from_secs(20));
    tor.net.engine_mut().stop_flow(flood);
    let after = tor.relay(relay).observed.observed();
    assert!(
        after.as_mbit() > before.as_mbit() * 5.0,
        "flood should raise observed bandwidth: {before} -> {after}"
    );
}
