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
//! holds the file-size choice and the weight formula; the scanner's
//! downloads run against the fluid substrate in `flashflow-shadow`'s
//! `run`, so those error mechanisms arise naturally.

use std::collections::BTreeMap;

use flashflow_simnet::units::Rate;

/// The 13 TorFlow file sizes: `2^i` KiB for `i ∈ 4..=16` (16 KiB … 64 MiB).
fn file_sizes() -> Vec<f64> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_simnet::host::HostProfile;
    use flashflow_tornet::netbuild::TorNet;
    use flashflow_tornet::relay::{RelayConfig, RelayId};

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
