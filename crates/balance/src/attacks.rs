//! Weight-inflation attacks against each load-balancing system, yielding
//! the "Attack Advantage" column of Table 2.
//!
//! | system | demonstrated advantage | mechanism |
//! |---|---|---|
//! | TorFlow | 177× | false advertised-bandwidth self-report \[25\] |
//! | EigenSpeed | 21.5× | targeted liar clique \[25\] |
//! | PeerFlow | 10× (`2/τ`) | claims confirmed only by trusted peers |
//! | FlashFlow | 1.33× (`1/(1−r)`) | lying about background traffic |
//!
//! The TorFlow/EigenSpeed numbers are *demonstrated* factors from prior
//! work, reproduced here as executable scenarios; the PeerFlow and
//! FlashFlow numbers are analytical bounds (FlashFlow's is
//! `flashflow_core::security::max_inflation_factor`).

use std::collections::BTreeMap;

use flashflow_simnet::units::Rate;

use crate::torflow::compute_weights;

/// Result of one attack scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackOutcome {
    /// Normalized weight fraction the adversary deserved (by capacity).
    pub deserved_fraction: f64,
    /// Normalized weight fraction the adversary obtained.
    pub obtained_fraction: f64,
}

impl AttackOutcome {
    /// The advantage factor: obtained / deserved.
    pub fn advantage(&self) -> f64 {
        if self.deserved_fraction <= 0.0 {
            return f64::INFINITY;
        }
        self.obtained_fraction / self.deserved_fraction
    }
}

/// The TorFlow false-report attack: among `n` honest relays of equal
/// capacity, one malicious relay reports `inflation ×` its true
/// advertised bandwidth. The measured speed ratio stays ≈1 (the relay
/// prioritises measurement circuits), so the weight scales with the lie —
/// the full `inflation` factor, 177× as demonstrated in prior work.
pub fn torflow_attack(n_honest: usize, inflation: f64) -> AttackOutcome {
    assert!(n_honest >= 1, "need honest relays");
    let true_capacity = Rate::from_mbit(10.0);
    let mut advertised = BTreeMap::new();
    let mut speeds = BTreeMap::new();
    let ids = fake_relays(n_honest + 1);
    for (i, id) in ids.iter().enumerate() {
        let adv = if i == n_honest {
            Rate::from_bytes_per_sec(true_capacity.bytes_per_sec() * inflation)
        } else {
            true_capacity
        };
        advertised.insert(*id, adv);
        speeds.insert(*id, 1e6); // equal measured speed
    }
    let weights = compute_weights(&advertised, &speeds);
    let total: f64 = weights.values().sum();
    AttackOutcome {
        deserved_fraction: 1.0 / (n_honest + 1) as f64,
        obtained_fraction: weights[&ids[n_honest]] / total,
    }
}

/// The EigenSpeed drift attack (prior work's demonstrated 7.4–28.1×,
/// Table 2 cites 21.5×): inflate gradually across periods so each step
/// resembles the previously accepted baseline. Returns the final-period
/// outcome.
pub fn eigenspeed_drift_attack(
    n: usize,
    clique_size: usize,
    periods: u32,
    growth: f64,
    seed: u64,
) -> AttackOutcome {
    let res = crate::eigenspeed::drift_attack(n, clique_size, periods, growth, seed);
    AttackOutcome {
        deserved_fraction: res.deserved_share,
        obtained_fraction: res.clique_share_per_period.last().copied().unwrap_or(0.0),
    }
}

/// The PeerFlow collusion attack: the clique inflates every claim it
/// makes, but only trusted-confirmed traffic counts, so the advantage is
/// bounded by `2/τ` (each of the two directions of a trusted link can be
/// pushed to its limit). This returns the analytical bound.
pub fn peerflow_advantage_bound(tau: f64) -> f64 {
    assert!(tau > 0.0 && tau <= 1.0, "tau out of range");
    2.0 / tau
}

fn fake_relays(n: usize) -> Vec<flashflow_tornet::relay::RelayId> {
    use flashflow_simnet::host::HostProfile;
    let mut tor = flashflow_tornet::netbuild::TorNet::new();
    let h = tor.add_host(HostProfile::new("h", Rate::from_gbit(1.0)));
    (0..n)
        .map(|k| tor.add_relay(h, flashflow_tornet::relay::RelayConfig::new(format!("r{k}"))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torflow_attack_matches_demonstrated_factor() {
        let outcome = torflow_attack(99, 177.0);
        // With 99 honest relays the liar's obtained fraction ≈
        // 177/(99+177); advantage ≈ 177 × 100/276 ≈ 64 in *fraction*
        // terms; in the small-adversary limit it approaches 177.
        assert!(outcome.advantage() > 60.0, "advantage {}", outcome.advantage());
        let outcome_large_net = torflow_attack(10_000, 177.0);
        assert!(
            (outcome_large_net.advantage() - 177.0).abs() < 5.0,
            "advantage {}",
            outcome_large_net.advantage()
        );
    }

    #[test]
    fn eigenspeed_drift_attack_reaches_table2_scale() {
        let outcome = eigenspeed_drift_attack(100, 3, 7, 2.0, 7);
        let adv = outcome.advantage();
        assert!((12.0..35.0).contains(&adv), "advantage {adv}");
    }

    #[test]
    fn bounds_match_table2() {
        assert!((peerflow_advantage_bound(0.2) - 10.0).abs() < 1e-12);
    }
}
