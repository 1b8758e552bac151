//! Whole-network measurement: schedule and measure a 60-relay network
//! with one BWAuth and its 3-measurer team, then aggregate three BWAuths'
//! files with the DirAuth median.
//!
//! Run with: `cargo run --example measure_network`

use std::collections::BTreeMap;

use flashflow_repro::core::prelude::*;
use flashflow_repro::simnet::prelude::*;
use flashflow_repro::tornet::prelude::*;

fn main() {
    let params = Params::paper();

    // A network of 60 relays with log-normal capacities.
    let mut tor = TorNet::new();
    let mut rng = SimRng::seed_from_u64(7);
    let mut relays = Vec::new();
    for i in 0..60 {
        let cap = Rate::from_mbit((20.0 * rng.gen_lognormal(0.0, 1.0)).min(400.0));
        let host = tor.add_host(HostProfile::new(format!("host-{i}"), cap));
        let relay = tor.add_relay(host, RelayConfig::new(format!("relay-{i}")));
        relays.push((relay, cap));
    }

    // Three measurers with 1 Gbit/s each.
    let m_hosts: Vec<_> = (0..3)
        .map(|i| tor.add_host(HostProfile::new(format!("measurer-{i}"), Rate::from_gbit(1.0))))
        .collect();
    let team = Team::with_capacities(
        &m_hosts.iter().map(|h| (*h, Rate::from_gbit(1.0))).collect::<Vec<_>>(),
    );

    // The period's slots in §4.3's secret order: each relay draws one
    // uniformly among those with room, from a seed the BWAuths share.
    let (mut measured, mut last_busy) = (0, 0);
    let priors = relays.iter().map(|(relay, cap)| (*relay, cap.bytes_per_sec()));
    measure_period(&team, &params, Order::Secret { seed: 99 }, priors, 1, |index, slot| {
        measured += slot.len();
        last_busy = index;
        perfect_slot(index, slot)
    });
    let slots = params.slots_per_period();
    println!("scheduled {measured} measurements across {slots} slots (last busy slot {last_busy})");

    // Three independent BWAuths measure; the DirAuths take the median.
    let mut files = Vec::new();
    for (i, seed) in [(0u64, 11u64), (1, 22), (2, 33)] {
        let mut auth = BwAuth::new(format!("bwauth-{i}"), team.clone(), params, seed);
        let file = auth.measure_network(&mut tor, &relays, &|_| TargetBehavior::Honest);
        println!("bwauth-{i}: measured {} relays", file.entries.len());
        files.push(file);
    }
    let votes: Vec<_> = files.iter().map(BandwidthFile::weights).collect();
    let consensus = DirAuths::new(votes.len()).vote(SimTime::ZERO, &votes, &BTreeMap::new());
    let consensus_caps: BTreeMap<_, _> =
        consensus.entries.iter().map(|e| (e.relay, e.weight)).collect();

    // Compare against ground truth.
    let mut errors: Vec<f64> = Vec::new();
    for (relay, true_cap) in &relays {
        errors.push((1.0 - consensus_caps[relay] / true_cap.bytes_per_sec()).abs());
    }
    let med = median(&errors).unwrap();
    println!("median capacity error vs ground truth: {:.1}%", med * 100.0);
    assert!(med < 0.25, "median error too high: {med}");
}
