//! MyFamily / Sybil mitigation: simultaneous measurement of co-located
//! relays (§5 "Limitations").
//!
//! An adversary with multiple IP addresses on one machine can run
//! multiple relays that FlashFlow would measure at *separate* times, each
//! obtaining an estimate equal to the whole machine's capacity. The paper
//! proposes measuring pairs of declared-family (or suspected-Sybil)
//! relays *simultaneously*: if they share hardware, the sum of their
//! concurrent estimates collapses to the shared capacity, which can then
//! be averaged over the members of a connected set.

use std::collections::BTreeMap;

use flashflow_simnet::rng::SimRng;
use flashflow_simnet::units::Rate;
use flashflow_tornet::netbuild::TorNet;
use flashflow_tornet::relay::RelayId;

use crate::measure::{measure_slot, Measurement};
use crate::params::Params;
use crate::sequence::{measure_period, Order};
use crate::team::Team;
use crate::verify::TargetBehavior;

/// Result of a simultaneous family measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyMeasurement {
    /// Per-relay estimates from the *simultaneous* measurement.
    pub concurrent: BTreeMap<RelayId, Rate>,
    /// Per-relay estimates measured individually (the baseline an
    /// adversary could otherwise double-dip on).
    pub individual: BTreeMap<RelayId, Rate>,
}

impl FamilyMeasurement {
    /// The sum of simultaneous estimates — the family's true shared
    /// capacity if the relays are co-located.
    fn concurrent_total(&self) -> Rate {
        self.concurrent.values().copied().sum()
    }

    /// The sum of individual estimates — what the family would be
    /// credited without the mitigation.
    fn individual_total(&self) -> Rate {
        self.individual.values().copied().sum()
    }

    /// Whether the family shows evidence of sharing hardware: the
    /// simultaneous total falls well below the individual total.
    pub fn shares_capacity(&self, threshold: f64) -> bool {
        assert!((0.0..=1.0).contains(&threshold), "threshold in [0,1]");
        self.concurrent_total().bytes_per_sec()
            < self.individual_total().bytes_per_sec() * threshold
    }

    /// The paper's corrective weights: the *concurrent* capacity averaged
    /// over the members of the connected set.
    pub fn corrected_weights(&self) -> BTreeMap<RelayId, Rate> {
        let share = self.concurrent_total().bytes_per_sec() / self.concurrent.len() as f64;
        self.concurrent.keys().map(|r| (*r, Rate::from_bytes_per_sec(share))).collect()
    }
}

/// Measures a declared family both individually (sequentially) and
/// simultaneously, so the BWAuth can compare.
///
/// # Panics
/// Panics if the family has fewer than two members, or the team cannot
/// serve all of them in one slot.
pub fn measure_family(
    tor: &mut TorNet,
    family: &[RelayId],
    priors: &[Rate],
    team: &Team,
    params: &Params,
    rng: &mut SimRng,
) -> FamilyMeasurement {
    assert!(family.len() >= 2, "a family needs at least two members");
    assert_eq!(family.len(), priors.len(), "one prior per member");

    // One measurement each, every member of `members` in the same slot.
    let mut measure = |members: &[(RelayId, Rate)]| -> BTreeMap<RelayId, Rate> {
        let priors = members.iter().map(|(relay, prior)| (*relay, prior.bytes_per_sec()));
        let settled = measure_period(team, params, Order::Packed, priors, 1, |_, slot| {
            assert_eq!(slot.len(), members.len(), "team capacity");
            let measured = measure_slot(tor, team, params, slot, &|_| TargetBehavior::Honest, rng);
            measured.iter().map(Measurement::slot_result).collect()
        });
        settled.iter().map(|s| (s.key, Rate::from_bytes_per_sec(s.estimate))).collect()
    };
    let members: Vec<(RelayId, Rate)> =
        family.iter().copied().zip(priors.iter().copied()).collect();
    let individual = members.iter().flat_map(|member| measure(&[*member])).collect();
    let concurrent = measure(&members);

    FamilyMeasurement { concurrent, individual }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_simnet::host::HostProfile;
    use flashflow_simnet::time::SimDuration;
    use flashflow_tornet::relay::RelayConfig;

    fn team_and_net() -> (TorNet, Team) {
        let mut tor = TorNet::new();
        let m1 = tor.add_host(HostProfile::us_e());
        let m2 = tor.add_host(HostProfile::host_nl());
        let m3 = tor.add_host(HostProfile::host_in());
        tor.net.set_default_rtt(SimDuration::from_millis(60));
        let team = Team::with_capacities(&[
            (m1, Rate::from_mbit(941.0)),
            (m2, Rate::from_mbit(1611.0)),
            (m3, Rate::from_mbit(1076.0)),
        ]);
        (tor, team)
    }

    #[test]
    fn sybil_pair_detected_and_corrected() {
        // Two relays on ONE machine (shared CPU): individually they each
        // demonstrate the full machine; simultaneously they split it.
        let (mut tor, team) = team_and_net();
        let host = tor.add_host(HostProfile::new("shared", Rate::from_mbit(400.0)));
        let a = tor.add_relay(host, RelayConfig::new("sybil-a"));
        let cpu = tor.relay(a).cpu;
        let b = tor.add_relay_with_cpu(host, RelayConfig::new("sybil-b"), cpu);

        let params = Params::paper();
        let mut rng = SimRng::seed_from_u64(1);
        let priors = vec![Rate::from_mbit(200.0), Rate::from_mbit(200.0)];
        let fm = measure_family(&mut tor, &[a, b], &priors, &team, &params, &mut rng);

        // Individually each demonstrates ≈ the machine's NIC share they
        // can grab alone; simultaneously they share the machine. The sum
        // of concurrent estimates must be far below 2× the machine.
        assert!(
            fm.shares_capacity(0.75),
            "shared machine not detected: concurrent {} vs individual {}",
            fm.concurrent_total(),
            fm.individual_total()
        );
        // Corrected weights split the shared capacity.
        let corrected = fm.corrected_weights();
        let total: f64 = corrected.values().map(|r| r.as_mbit()).sum();
        assert!(total < 450.0, "corrected family total {total} exceeds the machine");
    }

    #[test]
    fn independent_family_not_flagged() {
        // Two relays on DIFFERENT machines keep their full estimates when
        // measured simultaneously.
        let (mut tor, team) = team_and_net();
        let h1 = tor.add_host(HostProfile::new("m1", Rate::from_mbit(200.0)));
        let h2 = tor.add_host(HostProfile::new("m2", Rate::from_mbit(200.0)));
        let a = tor.add_relay(h1, RelayConfig::new("fam-a"));
        let b = tor.add_relay(h2, RelayConfig::new("fam-b"));

        let params = Params::paper();
        let mut rng = SimRng::seed_from_u64(2);
        let priors = vec![Rate::from_mbit(200.0), Rate::from_mbit(200.0)];
        let fm = measure_family(&mut tor, &[a, b], &priors, &team, &params, &mut rng);
        assert!(
            !fm.shares_capacity(0.75),
            "independent family wrongly flagged: concurrent {} vs individual {}",
            fm.concurrent_total(),
            fm.individual_total()
        );
    }
}
