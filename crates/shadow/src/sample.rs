//! Building the private Tor network: sampling relays and laying out
//! hosts (§7 "The relays were sampled from Tor's consensus files from
//! January 2019 and placed in the closest city in Shadow's Internet
//! map").
//!
//! Relay capacities are drawn from a log-normal calibrated to the
//! consensus advertised-bandwidth distribution; every relay runs on its
//! own host whose NIC equals its capacity (Shadow's per-host bandwidth
//! configuration), with pairwise RTTs drawn from a city-to-city-like
//! spread.

use flashflow_simnet::host::{HostId, HostProfile};
use flashflow_simnet::rng::SimRng;
use flashflow_simnet::time::SimDuration;
use flashflow_simnet::units::Rate;
use flashflow_tornet::netbuild::TorNet;
use flashflow_tornet::relay::{RelayConfig, RelayId};

use crate::config::ShadowConfig;

/// The assembled private network.
#[derive(Debug)]
pub struct PrivateNetwork {
    /// The Tor network (owns the engine).
    pub tor: TorNet,
    /// All relays.
    pub relays: Vec<RelayId>,
    /// Ground-truth capacity per relay (bytes/s), indexed like `relays`.
    pub capacities: Vec<f64>,
    /// Client-pool hosts.
    pub client_hosts: Vec<HostId>,
    /// Destination-server hosts.
    pub server_hosts: Vec<HostId>,
    /// Measurement-team hosts.
    pub measurer_hosts: Vec<HostId>,
}

impl PrivateNetwork {
    /// Total ground-truth network capacity (bytes/s).
    pub fn total_capacity(&self) -> f64 {
        self.capacities.iter().sum()
    }
}

/// Samples and assembles the network.
pub fn build_network(cfg: &ShadowConfig) -> PrivateNetwork {
    cfg.validate();
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x5348_4144_4f57);
    let mut tor = TorNet::new();
    // Pairwise RTTs: draw per-pair from a 10–120 ms spread via default +
    // per-host offsets (cheap approximation of the city map).
    tor.net.set_default_rtt(SimDuration::from_millis(60));
    // Hosts carry capacity jitter so measurement error has realistic
    // spread (Fig. 8a's interquartile range).
    tor.net.enable_jitter(cfg.seed ^ 0x4A49_5454);

    // Relay hosts: NIC = capacity (Shadow's bandwidth config), CPU just
    // above so the NIC is the binding constraint, as in Shadow.
    let mut relays = Vec::with_capacity(cfg.relays);
    let mut capacities = Vec::with_capacity(cfg.relays);
    for i in 0..cfg.relays {
        let capacity = cfg.median_capacity * rng.gen_lognormal(0.0, cfg.capacity_sigma);
        // Cap at 1 Gbit/s like the fastest observed relay (§7: the
        // largest capacity seen is 998 Mbit/s).
        let capacity = capacity.min(Rate::from_mbit(998.0).bytes_per_sec());
        let rate = Rate::from_bytes_per_sec(capacity);
        let host = tor.add_host(
            HostProfile::new(format!("relay-host-{i}"), rate)
                .with_tor_cpu(Rate::from_bytes_per_sec(capacity * 1.02)),
        );
        let relay = tor.add_relay(host, RelayConfig::new(format!("relay-{i}")));
        relays.push(relay);
        capacities.push(capacity);
    }

    // Client pool: fat access links so clients are never the bottleneck.
    let client_hosts: Vec<HostId> = (0..cfg.client_hosts)
        .map(|i| tor.add_host(HostProfile::new(format!("client-pool-{i}"), Rate::from_gbit(2.0))))
        .collect();
    let server_hosts: Vec<HostId> = (0..cfg.server_hosts)
        .map(|i| tor.add_host(HostProfile::new(format!("server-{i}"), Rate::from_gbit(10.0))))
        .collect();
    let measurer_hosts: Vec<HostId> = (0..cfg.team_measurers)
        .map(|i| tor.add_host(HostProfile::new(format!("measurer-{i}"), cfg.team_capacity_each)))
        .collect();

    // Randomise some pairwise RTTs for diversity (a subset suffices; the
    // default covers the rest).
    let all_hosts: Vec<HostId> = relays
        .iter()
        .map(|r| tor.relay(*r).host)
        .chain(client_hosts.iter().copied())
        .chain(server_hosts.iter().copied())
        .collect();
    for _ in 0..all_hosts.len() * 2 {
        let a = *rng.choose(&all_hosts);
        let b = *rng.choose(&all_hosts);
        if a != b {
            let rtt = SimDuration::from_millis(rng.gen_range_u64(10, 120));
            tor.net.set_rtt(a, b, rtt);
        }
    }

    PrivateNetwork { tor, relays, capacities, client_hosts, server_hosts, measurer_hosts }
}

/// Samples a circuit of three distinct relays with probability
/// proportional to `weights` (§2: clients select relays for circuits
/// with probabilities proportional to consensus weights).
///
/// # Panics
/// Panics if fewer than three relays have positive weight.
pub fn sample_circuit(relays: &[RelayId], weights: &[f64], rng: &mut SimRng) -> [RelayId; 3] {
    assert_eq!(relays.len(), weights.len(), "weights length mismatch");
    assert!(
        weights.iter().filter(|w| **w > 0.0).count() >= 3,
        "need at least three positively weighted relays"
    );
    let mut picked: Vec<usize> = Vec::with_capacity(3);
    let mut w = weights.to_vec();
    for _ in 0..3 {
        let idx = rng.choose_weighted_index(&w);
        picked.push(idx);
        w[idx] = 0.0; // without replacement
    }
    [relays[picked[0]], relays[picked[1]], relays[picked[2]]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_has_expected_shape() {
        let cfg = ShadowConfig::test_scale(3);
        let net = build_network(&cfg);
        assert_eq!(net.relays.len(), cfg.relays);
        assert_eq!(net.capacities.len(), cfg.relays);
        assert_eq!(net.client_hosts.len(), cfg.client_hosts);
        assert_eq!(net.measurer_hosts.len(), cfg.team_measurers);
        assert!(net.total_capacity() > 0.0);
    }

    #[test]
    fn capacities_are_lognormal_spread() {
        let net = build_network(&ShadowConfig::test_scale(4));
        let (lo, hi) = flashflow_simnet::stats::min_max(&net.capacities).unwrap();
        assert!(hi / lo > 3.0, "expect heavy spread: {lo} … {hi}");
        assert!(hi <= Rate::from_mbit(998.0).bytes_per_sec() + 1.0);
    }

    #[test]
    fn build_is_deterministic() {
        let a = build_network(&ShadowConfig::test_scale(5));
        let b = build_network(&ShadowConfig::test_scale(5));
        assert_eq!(a.capacities, b.capacities);
    }

    #[test]
    fn sample_circuit_distinct_and_weighted() {
        let net = build_network(&ShadowConfig::test_scale(6));
        let mut rng = SimRng::seed_from_u64(1);
        let weights: Vec<f64> = net.capacities.clone();
        let mut counts = vec![0usize; net.relays.len()];
        for _ in 0..2000 {
            let circuit = sample_circuit(&net.relays, &weights, &mut rng);
            assert_ne!(circuit[0], circuit[1]);
            assert_ne!(circuit[1], circuit[2]);
            assert_ne!(circuit[0], circuit[2]);
            for r in circuit {
                counts[net.relays.iter().position(|x| *x == r).unwrap()] += 1;
            }
        }
        // The highest-capacity relay should be picked more often than the
        // lowest.
        let hi = net.capacities.iter().cloned().fold(f64::MIN, f64::max);
        let lo = net.capacities.iter().cloned().fold(f64::MAX, f64::min);
        let hi_idx = net.capacities.iter().position(|c| *c == hi).unwrap();
        let lo_idx = net.capacities.iter().position(|c| *c == lo).unwrap();
        assert!(counts[hi_idx] > counts[lo_idx]);
    }
}
