//! TorFlow: Tor's deployed load-balancing scanner (§2, Perry 2009).
//!
//! Each Bandwidth Authority runs TorFlow, which measures the *relative*
//! performance of relays: it builds 2-hop circuits through each relay,
//! downloads one of 13 fixed-size files (`2^i` KiB for `i ∈ 4..=16`) from
//! a known server, and every hour computes per-relay weights as
//!
//! ```text
//! weight(r) = advertised_bandwidth(r) × speed(r) / mean_speed
//! ```
//!
//! Both inputs are problematic (§3): the advertised bandwidth is a
//! falsifiable self-report, and the measured speed depends on background
//! traffic and on the second relay chosen for the circuit. This module
//! implements the pipeline against the fluid substrate so those error
//! mechanisms arise naturally.

use std::collections::BTreeMap;

use flashflow_simnet::rng::SimRng;
use flashflow_simnet::time::SimDuration;
use flashflow_simnet::units::Rate;
use flashflow_tornet::netbuild::TorNet;
use flashflow_tornet::relay::RelayId;
use flashflow_tornet::sched::Scheduler;

use flashflow_simnet::host::HostId;

/// The 13 TorFlow file sizes: `2^i` KiB for `i ∈ 4..=16` (16 KiB … 64 MiB).
pub fn file_sizes() -> Vec<f64> {
    (4..=16).map(|i| f64::from(1u32 << i) * 1024.0).collect()
}

/// Picks the measurement file size for a relay: TorFlow slices relays by
/// bandwidth and uses larger files for faster slices. We map the
/// advertised bandwidth to the file that takes roughly ten seconds at
/// that speed, clamped to the legal set.
pub fn file_size_for(advertised: Rate) -> f64 {
    let target_bytes = advertised.bytes_per_sec() * 10.0;
    let sizes = file_sizes();
    let mut best = sizes[0];
    for s in sizes {
        if s <= target_bytes {
            best = s;
        }
    }
    best
}

/// One TorFlow speed measurement result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanResult {
    /// The relay measured.
    pub relay: RelayId,
    /// Download speed achieved (bytes/s).
    pub speed: f64,
    /// File size used (bytes).
    pub file_size: f64,
    /// Whether the download timed out.
    pub timed_out: bool,
}

/// Configuration for a TorFlow scanner.
#[derive(Debug, Clone)]
pub struct TorFlowConfig {
    /// Scanner (client) host.
    pub scanner: HostId,
    /// Destination server host.
    pub server: HostId,
    /// Measurements averaged per relay.
    pub probes_per_relay: u32,
    /// Per-download timeout.
    pub timeout: SimDuration,
}

impl TorFlowConfig {
    /// A scanner with the defaults TorFlow uses in practice.
    pub fn new(scanner: HostId, server: HostId) -> Self {
        TorFlowConfig { scanner, server, probes_per_relay: 3, timeout: SimDuration::from_secs(60) }
    }
}

/// Runs one 2-hop download through `target` and a random `partner`,
/// returning the achieved speed. The measurement inherits whatever
/// background congestion the two relays currently carry — TorFlow's
/// central accuracy problem.
pub fn scan_once(
    tor: &mut TorNet,
    cfg: &TorFlowConfig,
    target: RelayId,
    partner: RelayId,
    file_size: f64,
) -> ScanResult {
    let path = [target, partner];
    let flow = tor.start_client_traffic(cfg.server, &path, cfg.scanner, 1, Scheduler::Kist);
    tor.net.engine_mut().set_flow_budget(flow, file_size);
    let deadline = tor.now() + cfg.timeout;
    let mut finished = false;
    while tor.now() < deadline {
        tor.tick();
        if tor.net.engine().flow_finished_at(flow).is_some() {
            finished = true;
            break;
        }
    }
    let started = tor.net.engine().flow_started_at(flow);
    let result = if finished {
        let elapsed = tor
            .net
            .engine()
            .flow_finished_at(flow)
            .expect("finished")
            .duration_since(started)
            .as_secs_f64()
            .max(1e-3);
        ScanResult { relay: target, speed: file_size / elapsed, file_size, timed_out: false }
    } else {
        tor.net.engine_mut().stop_flow(flow);
        let got = tor.net.engine().flow_bytes(flow);
        ScanResult {
            relay: target,
            speed: got / cfg.timeout.as_secs_f64(),
            file_size,
            timed_out: true,
        }
    };
    result
}

/// The hourly weight computation: `weight = advertised × speed/mean_speed`.
pub fn compute_weights<K: Ord + Copy>(
    advertised: &BTreeMap<K, Rate>,
    speeds: &BTreeMap<K, f64>,
) -> BTreeMap<K, f64> {
    let mean_speed =
        if speeds.is_empty() { 1.0 } else { speeds.values().sum::<f64>() / speeds.len() as f64 };
    let mean_speed = mean_speed.max(1.0);
    advertised
        .iter()
        .map(|(relay, adv)| {
            let speed = speeds.get(relay).copied().unwrap_or(mean_speed);
            (*relay, adv.bytes_per_sec() * (speed / mean_speed))
        })
        .collect()
}

/// Runs the full TorFlow pipeline: probe every relay
/// `cfg.probes_per_relay` times through random partners, average the
/// speeds, and combine with the advertised bandwidths.
pub fn run_torflow(
    tor: &mut TorNet,
    cfg: &TorFlowConfig,
    relays: &[RelayId],
    advertised: &BTreeMap<RelayId, Rate>,
    rng: &mut SimRng,
) -> BTreeMap<RelayId, f64> {
    assert!(relays.len() >= 2, "TorFlow needs at least two relays for 2-hop circuits");
    let mut speeds: BTreeMap<RelayId, f64> = BTreeMap::new();
    for &target in relays {
        let mut samples = Vec::new();
        for _ in 0..cfg.probes_per_relay {
            let partner = loop {
                let p = *rng.choose(relays);
                if p != target {
                    break p;
                }
            };
            let adv = advertised.get(&target).copied().unwrap_or(Rate::from_mbit(10.0));
            let size = file_size_for(adv);
            let result = scan_once(tor, cfg, target, partner, size);
            samples.push(result.speed);
        }
        let avg = samples.iter().sum::<f64>() / samples.len() as f64;
        speeds.insert(target, avg);
    }
    compute_weights(advertised, &speeds)
}

/// TorFlow measurement time for the whole network: sequential downloads
/// through every relay (the paper: a single 1 Gbit/s scanner takes at
/// least 2 days). Returns the estimated total scan time given per-relay
/// expected download durations.
pub fn estimated_scan_time(
    advertised: &BTreeMap<RelayId, Rate>,
    probes_per_relay: u32,
    circuit_build_overhead: SimDuration,
) -> SimDuration {
    let mut total = SimDuration::ZERO;
    for adv in advertised.values() {
        let size = file_size_for(*adv);
        // Expected download time at roughly the advertised speed (in
        // practice slower; this is a lower bound, like the paper's
        // "at least 2 days").
        let secs = size / adv.bytes_per_sec().max(1.0);
        total += (SimDuration::from_secs_f64(secs) + circuit_build_overhead)
            * u64::from(probes_per_relay);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_simnet::host::HostProfile;
    use flashflow_tornet::relay::RelayConfig;

    fn testbed(n: usize) -> (TorNet, TorFlowConfig, Vec<RelayId>) {
        let mut tor = TorNet::new();
        // Short RTTs so single-circuit downloads are not window-limited
        // and the relays' capacities are what discriminates.
        tor.net.set_default_rtt(flashflow_simnet::time::SimDuration::from_millis(10));
        let scanner = tor.add_host(HostProfile::new("scanner", Rate::from_gbit(1.0)));
        let server = tor.add_host(HostProfile::new("server", Rate::from_gbit(10.0)));
        let mut relays = Vec::new();
        for i in 0..n {
            let h = tor.add_host(HostProfile::new(format!("rh{i}"), Rate::from_gbit(1.0)));
            let limit = Rate::from_mbit(10.0 + 30.0 * i as f64);
            let r = tor.add_relay(h, RelayConfig::new(format!("r{i}")).with_rate_limit(limit));
            relays.push(r);
        }
        let cfg = TorFlowConfig::new(scanner, server);
        (tor, cfg, relays)
    }

    #[test]
    fn thirteen_file_sizes() {
        let sizes = file_sizes();
        assert_eq!(sizes.len(), 13);
        assert_eq!(sizes[0], 16.0 * 1024.0);
        assert_eq!(sizes[12], 64.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn file_size_scales_with_bandwidth() {
        let small = file_size_for(Rate::from_kbit(10.0));
        let big = file_size_for(Rate::from_gbit(1.0));
        assert_eq!(small, 16.0 * 1024.0);
        assert_eq!(big, 64.0 * 1024.0 * 1024.0);
        assert!(file_size_for(Rate::from_mbit(10.0)) > small);
    }

    #[test]
    fn scan_reflects_relay_capacity_ordering() {
        let (mut tor, cfg, relays) = testbed(3);
        // Probe the slowest (10 Mbit/s) and fastest (70 Mbit/s) relays
        // through the same fast partner.
        let slow = scan_once(&mut tor, &cfg, relays[0], relays[2], 4.0 * 1024.0 * 1024.0);
        let fast = scan_once(&mut tor, &cfg, relays[2], relays[1], 4.0 * 1024.0 * 1024.0);
        assert!(!slow.timed_out && !fast.timed_out);
        assert!(fast.speed > slow.speed * 1.5, "fast {} vs slow {}", fast.speed, slow.speed);
    }

    #[test]
    fn weights_proportional_to_advertised_at_equal_speed() {
        let r0 = fake_relay(0);
        let r1 = fake_relay(1);
        let advertised =
            BTreeMap::from([(r0, Rate::from_mbit(100.0)), (r1, Rate::from_mbit(300.0))]);
        let speeds = BTreeMap::from([(r0, 5e6), (r1, 5e6)]);
        let w = compute_weights(&advertised, &speeds);
        assert!((w[&r1] / w[&r0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn false_advertised_bandwidth_inflates_weight() {
        // The §8 attack: a malicious relay reports a huge advertised
        // bandwidth; its weight scales with the lie.
        let honest = fake_relay(0);
        let liar = fake_relay(1);
        let truth = Rate::from_mbit(10.0);
        let advertised = BTreeMap::from([
            (honest, truth),
            (liar, Rate::from_bytes_per_sec(truth.bytes_per_sec() * 177.0)),
        ]);
        let speeds = BTreeMap::from([(honest, 1e6), (liar, 1e6)]);
        let w = compute_weights(&advertised, &speeds);
        assert!((w[&liar] / w[&honest] - 177.0).abs() < 1e-6);
    }

    #[test]
    fn full_pipeline_orders_relays() {
        let (mut tor, cfg, relays) = testbed(4);
        let advertised: BTreeMap<RelayId, Rate> = relays
            .iter()
            .enumerate()
            .map(|(i, r)| (*r, Rate::from_mbit(10.0 + 30.0 * i as f64)))
            .collect();
        let mut rng = SimRng::seed_from_u64(3);
        let weights = run_torflow(&mut tor, &cfg, &relays, &advertised, &mut rng);
        assert!(weights[&relays[3]] > weights[&relays[0]]);
    }

    #[test]
    fn scan_time_scales_with_network_size() {
        let advertised: BTreeMap<RelayId, Rate> =
            (0..100).map(|i| (fake_relay(i), Rate::from_mbit(10.0))).collect();
        let t = estimated_scan_time(&advertised, 3, SimDuration::from_secs(5));
        assert!(t > SimDuration::from_secs(100 * 3 * 5));
    }

    fn fake_relay(i: usize) -> RelayId {
        let mut tor = TorNet::new();
        let h = tor.add_host(HostProfile::new("h", Rate::from_gbit(1.0)));
        let mut last = None;
        for k in 0..=i {
            last = Some(tor.add_relay(h, RelayConfig::new(format!("r{k}"))));
        }
        last.unwrap()
    }
}
