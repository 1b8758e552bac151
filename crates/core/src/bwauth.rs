//! BWAuths: driving a measurement period (§4.3).
//!
//! Each BWAuth owns a measurement team, runs [`measure_period`] over the
//! relays — measuring several concurrently when team capacity allows —
//! and emits a *bandwidth file* with a capacity estimate per relay. Its
//! [`BandwidthFile::weights`] are one vote for
//! `flashflow_tornet::consensus::DirAuths`, which takes the median
//! across BWAuths (§4 "Trust and Diversity"), so a minority of
//! malicious authorities cannot move a relay's weight.

use std::collections::BTreeMap;

use flashflow_simnet::rng::SimRng;
use flashflow_simnet::units::Rate;
use flashflow_tornet::netbuild::TorNet;
use flashflow_tornet::relay::RelayId;

use crate::measure::{measure_slot, Measurement};
use crate::params::Params;
use crate::sequence::{measure_period, Order, SequenceEnd, Settled};
use crate::team::Team;
use crate::verify::TargetBehavior;

/// A per-relay capacity estimate with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct BwEntry {
    /// The relay measured.
    pub relay: RelayId,
    /// The accepted capacity estimate.
    pub capacity: Rate,
    /// How the relay's sequence ended.
    pub end: SequenceEnd,
    /// Number of measurement rounds used.
    pub rounds: u32,
}

/// The bandwidth file a BWAuth produces for a period.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BandwidthFile {
    /// Entries keyed by relay.
    pub entries: BTreeMap<RelayId, BwEntry>,
}

impl BandwidthFile {
    /// The file for a finished [`measure_period`].
    fn from_settled(settled: &[Settled<RelayId>]) -> Self {
        let entries = settled.iter().map(|s| {
            let capacity = Rate::from_bytes_per_sec(s.estimate);
            (s.key, BwEntry { relay: s.key, capacity, end: s.end, rounds: s.rounds })
        });
        BandwidthFile { entries: entries.collect() }
    }

    /// Per-relay weights for consensus voting: FlashFlow uses the
    /// capacity estimates directly as weights.
    pub fn weights(&self) -> BTreeMap<RelayId, f64> {
        self.entries
            .iter()
            .filter(|(_, e)| e.end == SequenceEnd::Converged || e.end == SequenceEnd::TeamExhausted)
            .map(|(r, e)| (*r, e.capacity.bytes_per_sec()))
            .collect()
    }

    /// Per-relay capacities.
    pub fn capacities(&self) -> BTreeMap<RelayId, Rate> {
        self.entries.iter().map(|(r, e)| (*r, e.capacity)).collect()
    }
}

/// A Bandwidth Authority with its measurement team.
#[derive(Debug)]
pub struct BwAuth {
    /// Display name.
    pub name: String,
    /// The measurement team.
    pub team: Team,
    /// FlashFlow parameters.
    pub params: Params,
    rng: SimRng,
}

impl BwAuth {
    /// Measurements a relay gets per period before its last estimate
    /// stands as a lower bound.
    pub const MAX_ROUNDS: u32 = 6;

    /// Creates an authority with its own RNG stream.
    pub fn new(name: impl Into<String>, team: Team, params: Params, seed: u64) -> Self {
        BwAuth { name: name.into(), team, params, rng: SimRng::seed_from_u64(seed) }
    }

    /// Measures all `relays` (with priors) against the live network: a
    /// [`measure_period`] whose slots run directly on the blast loop.
    /// `behavior_of` supplies each relay's echo honesty.
    ///
    /// This is the engine behind the §7 Shadow experiments: it produces
    /// the bandwidth file used for load balancing.
    pub fn measure_network(
        &mut self,
        tor: &mut TorNet,
        relays: &[(RelayId, Rate)],
        behavior_of: &dyn Fn(RelayId) -> TargetBehavior,
    ) -> BandwidthFile {
        let BwAuth { team, params, rng, .. } = self;
        let priors = relays.iter().map(|(relay, z0)| (*relay, z0.bytes_per_sec()));
        let settled =
            measure_period(team, params, Order::Packed, priors, Self::MAX_ROUNDS, |_, slot| {
                let measured = measure_slot(tor, team, params, slot, behavior_of, rng);
                measured.iter().map(Measurement::slot_result).collect()
            });
        BandwidthFile::from_settled(&settled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_simnet::host::HostProfile;
    use flashflow_simnet::time::SimDuration;
    use flashflow_tornet::relay::RelayConfig;

    fn testbed() -> (TorNet, Team, Vec<(RelayId, Rate)>) {
        let mut tor = TorNet::new();
        let m1 = tor.add_host(HostProfile::us_e());
        let m2 = tor.add_host(HostProfile::host_nl());
        let mut relays = Vec::new();
        for (i, limit) in [100.0, 200.0, 150.0, 50.0, 80.0].iter().enumerate() {
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
        (tor, team, relays)
    }

    #[test]
    fn measures_whole_set_accurately() {
        // Priors at `scale` × each relay's limit, except the last relay's,
        // which is zero and gets one full-team measurement. Too low a
        // prior is clipped and re-measured; too high a one just
        // over-allocates.
        for scale in [1.0, 0.2, 3.0] {
            let (mut tor, team, limits) = testbed();
            let last = limits.len() - 1;
            let priors: Vec<(RelayId, Rate)> = limits
                .iter()
                .enumerate()
                .map(|(i, &(relay, limit))| {
                    let scale = if i == last { 0.0 } else { scale };
                    (relay, Rate::from_bytes_per_sec(limit.bytes_per_sec() * scale))
                })
                .collect();
            let mut auth = BwAuth::new("bwauth-1", team, Params::paper(), 11);
            let file = auth.measure_network(&mut tor, &priors, &|_| TargetBehavior::Honest);
            assert_eq!(file.entries.len(), limits.len());
            for (relay, limit) in &limits {
                let entry = &file.entries[relay];
                let err = (entry.capacity.as_mbit() - limit.as_mbit()).abs() / limit.as_mbit();
                assert_eq!(entry.end, SequenceEnd::Converged, "{scale}× relay {relay:?}");
                assert!(err < 0.25, "{scale}× relay {relay:?}: {} vs {}", entry.capacity, limit);
            }
            let remeasured = file.entries.values().any(|e| e.rounds > 1);
            assert!(remeasured || scale != 0.2, "0.2× priors must be clipped and re-measured");
        }
    }

    #[test]
    fn one_relay_period_agrees_with_measure_relay() {
        // (relay limit, prior, behavior, expected end, expected rounds):
        // converge in one, double up, run out of team, get caught forging.
        let cases = [
            (Some(250.0), 250.0, TargetBehavior::Honest, SequenceEnd::Converged, 1),
            (Some(500.0), 50.0, TargetBehavior::Honest, SequenceEnd::Converged, 4),
            (None, 100.0, TargetBehavior::Honest, SequenceEnd::TeamExhausted, 3),
            (
                Some(500.0),
                500.0,
                TargetBehavior::Forging { fraction: 1.0 },
                SequenceEnd::VerificationFailed,
                1,
            ),
        ];
        for (limit, prior, behavior, end, rounds) in cases {
            // Identical fresh networks and RNG streams for the two paths.
            let bed = || {
                let mut tor = TorNet::new();
                let m = tor.add_host(HostProfile::us_e());
                let host = tor.add_host(HostProfile::us_sw());
                tor.net.set_rtt(m, host, SimDuration::from_millis(62));
                let mut config = RelayConfig::new("target");
                if let Some(l) = limit {
                    config = config.with_rate_limit(Rate::from_mbit(l));
                }
                let relay = tor.add_relay(host, config);
                (tor, Team::with_capacities(&[(m, Rate::from_mbit(1611.0))]), relay)
            };
            let params = Params::paper();
            let prior = Rate::from_mbit(prior);

            let (mut tor, team, relay) = bed();
            let mut rng = SimRng::seed_from_u64(21);
            let single = crate::sequence::measure_relay(
                &mut tor,
                relay,
                &team,
                prior,
                &params,
                behavior,
                &mut rng,
                BwAuth::MAX_ROUNDS,
            )
            .unwrap();

            let (mut tor, team, relay) = bed();
            let mut auth = BwAuth::new("bwauth-1", team, params, 21);
            let file = auth.measure_network(&mut tor, &[(relay, prior)], &|_| behavior);
            let entry = &file.entries[&relay];

            assert_eq!((&single.end, single.rounds.len()), (&end, rounds), "limit {limit:?}");
            assert_eq!(entry.end, single.end, "limit {limit:?}");
            assert_eq!(entry.rounds as usize, single.rounds.len(), "limit {limit:?}");
            assert_eq!(entry.capacity, single.estimate, "limit {limit:?}");
        }
    }
}
