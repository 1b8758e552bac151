//! BWAuths: driving a measurement period and aggregating across
//! authorities (§4.3, §4 "Trust and Diversity").
//!
//! Each BWAuth owns a measurement team, runs [`measure_period`] over the
//! relays — measuring several concurrently when team capacity allows —
//! and emits a *bandwidth file* with a capacity estimate per relay. The
//! DirAuths then take the median across BWAuths, so a minority of
//! malicious authorities cannot move a relay's weight.

use std::collections::BTreeMap;

use flashflow_simnet::rng::SimRng;
use flashflow_simnet::units::Rate;
use flashflow_tornet::netbuild::TorNet;
use flashflow_tornet::relay::RelayId;

use crate::measure::{batch_for, run_concurrent_measurements, Measurement};
use crate::params::Params;
use crate::sequence::{measure_period, SequenceEnd, Settled};
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
    pub fn from_settled(settled: &[Settled<RelayId>]) -> Self {
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
        let settled = measure_period(team, params, priors, Self::MAX_ROUNDS, |slot| {
            let batch = batch_for(team, params, slot, behavior_of);
            let measured = run_concurrent_measurements(tor, &batch, params, rng);
            measured.iter().map(Measurement::slot_result).collect()
        });
        BandwidthFile::from_settled(&settled)
    }
}

/// One relay's entry in an [`EchoPeriodFile`]: the estimate a period of
/// the deployed echo topology produced, with its audit provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct EchoEntry {
    /// The relay measured (fingerprint, as commanded over the wire).
    pub relay_fp: [u8; flashflow_proto::msg::FINGERPRINT_LEN],
    /// The accepted capacity estimate: median over seconds of echoed
    /// measurement bytes plus ratio-clamped reported background.
    pub capacity: Rate,
    /// True if every session of the item ended cleanly (an unclean item
    /// still gets a degraded estimate from its surviving peers).
    pub clean: bool,
    /// Audit rows that failed a cross-check (echo claim vs aggregated
    /// measurer reports, background-claim plausibility). A nonzero
    /// count marks the estimate untrustworthy, like a failed spot check
    /// in the simulation path.
    pub divergent_rows: usize,
}

/// The bandwidth file an echo-topology round produces: the deployment
/// twin of [`BandwidthFile`], keyed by wire fingerprint because the
/// peers are real processes rather than simulated [`RelayId`]s, with
/// the round's raw audit trail beside the estimates.
#[derive(Debug)]
pub struct EchoPeriodFile {
    /// One entry per item, in item order.
    pub entries: Vec<EchoEntry>,
    /// Every engine event of the round, per-item order preserved.
    pub events: Vec<crate::engine::EngineEvent>,
    /// The sample quarantine, fed with every event; item `g` of its
    /// per-item views is `entries[g]`.
    pub ledger: crate::engine::SampleLedger,
    /// Final state of every conversation (the directory `ledger`'s
    /// views take), peers numbered item by item with the relay last.
    pub peers: crate::engine::EngineSnapshot,
    /// The pool's dial/reuse/probe/discard counts after the round.
    pub pool: crate::pool::PoolStats,
}

/// Runs one round of measurements against **spawned processes** in the
/// paper's echo topology: for each item, k `flashflow-measurer`
/// processes blast the `flashflow-relay` process, which echoes and
/// reports background. Every item runs at the same time — they are the
/// items of one engine on the calling thread (see
/// [`crate::echo::run_round`]). Warm control connections ride `pool`
/// across rounds.
///
/// The per-item estimate is §4.1's: `z_j = x_j + min(y_j, r·z_j)` per
/// second (echoed measurement bytes plus ratio-clamped background),
/// median over seconds — computed from clean sessions only, with the
/// ledger's cross-check rows surfaced per entry.
pub fn measure_echo_period(
    deployment: &crate::echo::EchoDeployment,
    items: &[crate::echo::EchoItem],
    pool: &crate::pool::ConnectionPool,
) -> EchoPeriodFile {
    measure_echo_period_observed(deployment, items, pool, None)
}

/// [`measure_echo_period`] with telemetry: when `span` is given, every
/// engine event is mirrored onto it live (`sample`, `peer.*`,
/// `item.complete`, …) and the post-run audit trail (`divergence`,
/// `target.estimate`, `pool.stats`, `period.done`) follows — the stream
/// `flashflow-top` renders and the JSONL schema the CI job validates.
/// See [`crate::observe`].
pub fn measure_echo_period_observed(
    deployment: &crate::echo::EchoDeployment,
    items: &[crate::echo::EchoItem],
    pool: &crate::pool::ConnectionPool,
    span: Option<&flashflow_obs::Span>,
) -> EchoPeriodFile {
    let mut round = EchoRound::start(deployment, items, span);
    let peers = crate::echo::run_round(deployment, items, pool, &mut |event| round.observe(event));
    round.finish(peers, pool)
}

/// One echo round being recorded: its events, its sample ledger and,
/// when given a span, its telemetry, fed while the round runs and turned
/// into the round's [`EchoPeriodFile`] when it ends.
/// [`measure_echo_period_observed`] wraps one around
/// [`crate::echo::run_round`]; a caller that keeps two rounds in flight
/// with [`crate::echo::run_rounds`] keeps one per staged round.
pub struct EchoRound {
    items: Vec<crate::echo::EchoItem>,
    ratio: f64,
    spans: Option<crate::observe::RoundSpans>,
    events: Vec<crate::engine::EngineEvent>,
    ledger: crate::engine::SampleLedger,
}

impl EchoRound {
    /// Starts recording a round of `items` against `deployment`. With a
    /// `span`, emits `period.start` on it and mirrors every event (see
    /// [`crate::observe`]).
    pub fn start(
        deployment: &crate::echo::EchoDeployment,
        items: &[crate::echo::EchoItem],
        span: Option<&flashflow_obs::Span>,
    ) -> EchoRound {
        let mut ledger = crate::engine::SampleLedger::new();
        ledger.set_bg_ratio(deployment.ratio);
        EchoRound {
            items: items.to_vec(),
            ratio: deployment.ratio,
            spans: span.map(|span| crate::observe::RoundSpans::start(span, deployment, items)),
            events: Vec::new(),
            ledger,
        }
    }

    /// The round's items, in engine item order.
    pub fn items(&self) -> &[crate::echo::EchoItem] {
        &self.items
    }

    /// Records one engine event of the round.
    pub fn observe(&mut self, event: crate::engine::EngineEvent) {
        if let Some(spans) = &self.spans {
            spans.engine_event(&event);
        }
        self.ledger.observe(&event);
        self.events.push(event);
    }

    /// Ends the round: §4.1's estimate per item from the ledger and the
    /// round's final directory `peers`, with the audit trail emitted
    /// after it and `pool`'s counters as they stand now.
    pub fn finish(
        self,
        peers: crate::engine::EngineSnapshot,
        pool: &crate::pool::ConnectionPool,
    ) -> EchoPeriodFile {
        use flashflow_simnet::stats::median;

        let EchoRound { items, ratio, spans, events, ledger } = self;
        let entries = items
            .iter()
            .enumerate()
            .map(|(g, item)| {
                let (x, y) = ledger.merged_series(&peers, g);
                let seconds = crate::measure::build_second_samples(&x, &y, ratio);
                let z: Vec<f64> = seconds.iter().map(|s| s.z).collect();
                EchoEntry {
                    relay_fp: item.relay_fp,
                    capacity: Rate::from_bytes_per_sec(median(&z).unwrap_or(0.0)),
                    clean: peers.item_clean(g),
                    divergent_rows: ledger.divergent_count(&peers, g),
                }
            })
            .collect();
        let file = EchoPeriodFile { entries, events, ledger, peers, pool: pool.stats() };
        if let Some(spans) = &spans {
            spans.audit(&items, &file);
        }
        file
    }
}

/// Aggregates several BWAuths' bandwidth files by taking, for each relay
/// measured by a majority of them, the low-median capacity — the DirAuth
/// rule that makes a minority of lying authorities harmless.
pub fn aggregate_bwauths(files: &[BandwidthFile]) -> BTreeMap<RelayId, Rate> {
    assert!(!files.is_empty(), "need at least one bandwidth file");
    let majority = files.len() / 2 + 1;
    let mut per_relay: BTreeMap<RelayId, Vec<f64>> = BTreeMap::new();
    for file in files {
        for (relay, entry) in &file.entries {
            if entry.end != SequenceEnd::VerificationFailed {
                per_relay.entry(*relay).or_default().push(entry.capacity.bytes_per_sec());
            }
        }
    }
    per_relay
        .into_iter()
        .filter(|(_, v)| v.len() >= majority)
        .map(|(relay, mut v)| {
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            (relay, Rate::from_bytes_per_sec(v[(v.len() - 1) / 2]))
        })
        .collect()
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
        for (i, limit) in [100.0, 200.0, 150.0, 50.0].iter().enumerate() {
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
        let (mut tor, team, relays) = testbed();
        let mut auth = BwAuth::new("bwauth-1", team, Params::paper(), 11);
        let file = auth.measure_network(&mut tor, &relays, &|_| TargetBehavior::Honest);
        assert_eq!(file.entries.len(), 4);
        for (relay, prior) in &relays {
            let entry = &file.entries[relay];
            let err = (entry.capacity.as_mbit() - prior.as_mbit()).abs() / prior.as_mbit();
            assert!(err < 0.25, "relay {relay:?}: {} vs {}", entry.capacity, prior);
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

    #[test]
    fn aggregate_takes_median() {
        let mk = |caps: &[(usize, f64)]| {
            let mut f = BandwidthFile::default();
            for (i, c) in caps {
                let relay = fake_relay(*i);
                f.entries.insert(
                    relay,
                    BwEntry {
                        relay,
                        capacity: Rate::from_mbit(*c),
                        end: SequenceEnd::Converged,
                        rounds: 1,
                    },
                );
            }
            f
        };
        let agg = aggregate_bwauths(&[
            mk(&[(0, 100.0), (1, 10.0)]),
            mk(&[(0, 110.0), (1, 12.0)]),
            mk(&[(0, 5000.0)]), // outlier / liar, and missing relay 1
        ]);
        assert!((agg[&fake_relay(0)].as_mbit() - 110.0).abs() < 1e-9);
        assert!((agg[&fake_relay(1)].as_mbit() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_drops_minority_relays() {
        let mut f1 = BandwidthFile::default();
        let relay = fake_relay(0);
        f1.entries.insert(
            relay,
            BwEntry {
                relay,
                capacity: Rate::from_mbit(10.0),
                end: SequenceEnd::Converged,
                rounds: 1,
            },
        );
        let agg = aggregate_bwauths(&[f1, BandwidthFile::default(), BandwidthFile::default()]);
        assert!(agg.is_empty());
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
