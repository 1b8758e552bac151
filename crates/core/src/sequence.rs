//! Measuring relays: the accept-or-double rule (§4.2) and the period
//! loop that applies it (§4.3).
//!
//! The measurer capacity an accurate measurement needs is unknown in
//! advance, so FlashFlow guesses from the relay's existing estimate `z₀`
//! (or, for new relays, the 75th-percentile capacity over the last
//! month), allocates `f·z₀`, measures, and accepts the result `z` only if
//! `z < Σaᵢ(1−ε₁)/m` — i.e. only if the estimate is small enough that it
//! could not have been clipped by the allocation itself. Otherwise it
//! sets `z₀ ← max(z, 2z₀)` (at least doubling the allocation) and
//! retries. [`judge`] is that decision over plain numbers, and
//! [`measure_period`] the one loop that packs relays into slots by spare
//! team capacity, runs each slot through a caller-supplied executor and
//! re-queues what `judge` sends back — whether the executor is the
//! fluid simulation, protocol sessions, or a round of real processes.

use flashflow_simnet::rng::SimRng;
use flashflow_simnet::stats::quantile;
use flashflow_simnet::units::Rate;
use flashflow_tornet::netbuild::TorNet;
use flashflow_tornet::relay::RelayId;

use crate::alloc::AllocError;
use crate::measure::{batch_for, run_concurrent_measurements, Measurement};
use crate::params::Params;
use crate::team::Team;
use crate::verify::TargetBehavior;

/// Why a relay-measurement sequence ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceEnd {
    /// The acceptance test passed: the estimate is conclusive.
    Converged,
    /// The team ran out of capacity before the estimate converged; the
    /// final (unaccepted) estimate is a lower bound.
    TeamExhausted,
    /// A content spot-check failed; the relay is misbehaving and gets no
    /// estimate.
    VerificationFailed,
}

/// What one slot measured for one relay, in bytes/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotResult {
    /// The capacity estimate `z`.
    pub estimate: f64,
    /// Total measurer capacity that was allocated (`Σ aᵢ`).
    pub allocated: f64,
    /// False if a content check caught the relay forging echoes.
    pub verified: bool,
}

/// [`judge`]'s decision on one measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The sequence is over.
    Accept(SequenceEnd),
    /// Inconclusive: measure again from this prior (bytes/s), which the
    /// whole team can serve.
    Retry(f64),
}

/// The largest prior (bytes/s) a team of `team_total` can allocate
/// `f·z₀` for; larger ones are clamped to it so huge relays still get a
/// best-effort full-team measurement.
fn team_limit(team_total: f64, params: &Params) -> f64 {
    team_total / params.excess_factor()
}

/// §4.2's decision after a relay's `rounds`-th measurement, taken from
/// prior `z0` on a team of `team_total` (both bytes/s): accept `z` if it
/// is verified and below the acceptance threshold for what was
/// allocated; otherwise retry from `max(z, 2·z₀)` clamped to what the
/// team can serve — unless this round already had the whole team or was
/// the last of `max_rounds`, where the estimate stands as a lower bound.
pub fn judge(
    result: &SlotResult,
    z0: f64,
    team_total: f64,
    rounds: u32,
    max_rounds: u32,
    params: &Params,
) -> Verdict {
    if !result.verified {
        return Verdict::Accept(SequenceEnd::VerificationFailed);
    }
    if result.estimate < params.acceptance_threshold(result.allocated) {
        return Verdict::Accept(SequenceEnd::Converged);
    }
    let at_team_limit = params.excess_factor() * z0 >= team_total * (1.0 - 1e-9);
    if rounds >= max_rounds || at_team_limit {
        return Verdict::Accept(SequenceEnd::TeamExhausted);
    }
    Verdict::Retry(result.estimate.max(2.0 * z0).min(team_limit(team_total, params)))
}

/// One relay's place in a packed slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotItem<K> {
    /// The caller's name for the relay.
    pub key: K,
    /// The prior `z₀` (bytes/s) the allocation was sized for.
    pub z0: f64,
    /// Measurements of this relay already taken this period.
    pub rounds: u32,
    /// Per-measurer allocations `aᵢ`, in team order, summing to `f·z₀`.
    pub allocation: Vec<Rate>,
}

/// How one relay's sequence ended within a period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settled<K> {
    /// The caller's name for the relay.
    pub key: K,
    /// The final estimate in bytes/s: conclusive if `end` is
    /// [`SequenceEnd::Converged`], a lower bound if `TeamExhausted`,
    /// zero if `VerificationFailed`.
    pub estimate: f64,
    /// How the sequence ended.
    pub end: SequenceEnd,
    /// Measurements taken.
    pub rounds: u32,
}

/// Measures every relay in `relays` (key, prior in bytes/s) to the end
/// of its §4.2 sequence, at most `max_rounds` measurements each.
///
/// Each slot is packed §4.3-style: largest prior first, every relay
/// whose `f·z₀` still fits the measurers' unreserved capacity joins, the
/// rest wait. `run_slot` executes one packed slot and returns one
/// [`SlotResult`] per item, in order; [`judge`] then settles each relay
/// or re-queues it with its next prior. Returns the relays in the order
/// they settled.
///
/// # Panics
/// Panics if `max_rounds` is zero, the team has no capacity, or
/// `run_slot` returns the wrong number of results.
pub fn measure_period<K: Copy>(
    team: &Team,
    params: &Params,
    relays: impl IntoIterator<Item = (K, f64)>,
    max_rounds: u32,
    mut run_slot: impl FnMut(&[SlotItem<K>]) -> Vec<SlotResult>,
) -> Vec<Settled<K>> {
    assert!(max_rounds >= 1, "need at least one round");
    let team_total = team.total_capacity().bytes_per_sec();
    let limit = team_limit(team_total, params);
    // Work queue: (relay, prior, measurements so far). `min` also maps a
    // NaN prior to the limit.
    let mut queue: Vec<(K, f64, u32)> =
        relays.into_iter().map(|(key, z0)| (key, z0.min(limit), 0)).collect();
    let mut settled = Vec::with_capacity(queue.len());

    while !queue.is_empty() {
        queue.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut reserved = vec![Rate::ZERO; team.len()];
        let mut slot: Vec<SlotItem<K>> = Vec::new();
        let mut rest = Vec::new();
        for (key, z0, rounds) in queue.drain(..) {
            match team.allocate(Rate::from_bytes_per_sec(z0), params, &reserved) {
                Ok(allocation) => {
                    for (res, a) in reserved.iter_mut().zip(&allocation) {
                        *res = *res + *a;
                    }
                    slot.push(SlotItem { key, z0, rounds, allocation });
                }
                Err(_) => rest.push((key, z0, rounds)),
            }
        }
        queue = rest;
        assert!(!slot.is_empty(), "slot packing made no progress");

        let results = run_slot(&slot);
        assert_eq!(results.len(), slot.len(), "one result per slot item");
        for (item, result) in slot.iter().zip(&results) {
            let rounds = item.rounds + 1;
            match judge(result, item.z0, team_total, rounds, max_rounds, params) {
                Verdict::Accept(end) => {
                    let estimate =
                        if end == SequenceEnd::VerificationFailed { 0.0 } else { result.estimate };
                    settled.push(Settled { key: item.key, estimate, end, rounds });
                }
                Verdict::Retry(next) => queue.push((item.key, next, rounds)),
            }
        }
    }
    settled
}

/// The outcome of measuring one relay.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceOutcome {
    /// The final capacity estimate (meaning depends on `end`).
    pub estimate: Rate,
    /// Every measurement taken, in order.
    pub rounds: Vec<Measurement>,
    /// How the sequence ended.
    pub end: SequenceEnd,
}

impl SequenceOutcome {
    /// True if the sequence produced an accepted estimate.
    pub fn converged(&self) -> bool {
        self.end == SequenceEnd::Converged
    }
}

/// The prior for a relay that has no usable estimate: the 75th percentile
/// of the capacities measured across the network in the last month
/// (§4.2 "Measuring New Relays").
pub fn new_relay_prior(recent_capacities: &[f64]) -> Rate {
    let q = quantile(recent_capacities, 0.75).unwrap_or(0.0);
    Rate::from_bytes_per_sec(q.max(1.0))
}

/// Measures `target` to convergence with up to `max_rounds` measurements
/// on an otherwise idle team: a one-relay [`measure_period`] that keeps
/// every round's [`Measurement`]. `behavior` selects the target's echo
/// honesty.
///
/// # Errors
/// Returns the allocation error if even the *initial* allocation is
/// impossible (the caller chose a prior beyond the team).
#[allow(clippy::too_many_arguments)]
pub fn measure_relay(
    tor: &mut TorNet,
    target: RelayId,
    team: &Team,
    prior: Rate,
    params: &Params,
    behavior: TargetBehavior,
    rng: &mut SimRng,
    max_rounds: u32,
) -> Result<SequenceOutcome, AllocError> {
    team.allocate(prior, params, &vec![Rate::ZERO; team.len()])?;
    let mut rounds: Vec<Measurement> = Vec::new();
    let settled =
        measure_period(team, params, [(target, prior.bytes_per_sec())], max_rounds, |slot| {
            let batch = batch_for(team, params, slot, &|_| behavior);
            rounds.extend(run_concurrent_measurements(tor, &batch, params, rng));
            vec![rounds.last().expect("one item yields one measurement").slot_result()]
        });
    let Settled { estimate, end, .. } = settled[0];
    Ok(SequenceOutcome { estimate: Rate::from_bytes_per_sec(estimate), rounds, end })
}

/// The rule and the loop on bare numbers: a made-up team, a closure for
/// an executor, and no simulated network in scope.
#[cfg(test)]
mod rule_tests {
    use super::{judge, measure_period, SequenceEnd, SlotItem, SlotResult, Verdict};
    use crate::params::Params;
    use crate::team::Team;
    use flashflow_simnet::host::{HostProfile, Net};
    use flashflow_simnet::units::Rate;

    const TEAM: f64 = 3000.0;

    fn result(estimate: f64, allocated: f64) -> SlotResult {
        SlotResult { estimate, allocated, verified: true }
    }

    #[test]
    fn accepts_an_estimate_the_allocation_could_not_have_clipped() {
        let p = Params::paper();
        let allocated = p.excess_factor() * 100.0;
        let just_under = p.acceptance_threshold(allocated) * 0.999;
        assert_eq!(
            judge(&result(just_under, allocated), 100.0, TEAM, 1, 6, &p),
            Verdict::Accept(SequenceEnd::Converged)
        );
        // The excess factor pads for ε₂: a relay 4% above its prior
        // still converges in one round.
        assert_eq!(
            judge(&result(104.0, allocated), 100.0, TEAM, 1, 6, &p),
            Verdict::Accept(SequenceEnd::Converged)
        );
    }

    #[test]
    fn inconclusive_retries_from_the_larger_of_estimate_and_double() {
        let p = Params::paper();
        let allocated = p.excess_factor() * 100.0;
        // A clipped estimate above 2·z₀ becomes the next prior…
        assert_eq!(
            judge(&result(allocated, allocated), 100.0, TEAM, 1, 6, &p),
            Verdict::Retry(allocated)
        );
        // …and one at the threshold still at least doubles.
        let at = p.acceptance_threshold(allocated);
        assert!(at < 200.0);
        assert_eq!(judge(&result(at, allocated), 100.0, TEAM, 1, 6, &p), Verdict::Retry(200.0));
    }

    #[test]
    fn retry_is_clamped_to_the_team_and_the_full_team_round_is_final() {
        let p = Params::paper();
        let limit = TEAM / p.excess_factor();
        let z0 = limit * 0.6;
        let allocated = p.excess_factor() * z0;
        assert_eq!(judge(&result(allocated, allocated), z0, TEAM, 1, 6, &p), Verdict::Retry(limit));
        assert_eq!(
            judge(&result(TEAM, TEAM), limit, TEAM, 2, 6, &p),
            Verdict::Accept(SequenceEnd::TeamExhausted)
        );
    }

    #[test]
    fn round_cap_and_failed_verification_end_the_sequence() {
        let p = Params::paper();
        let allocated = p.excess_factor() * 100.0;
        assert_eq!(
            judge(&result(allocated, allocated), 100.0, TEAM, 6, 6, &p),
            Verdict::Accept(SequenceEnd::TeamExhausted)
        );
        let forged = SlotResult { estimate: 1.0, allocated, verified: false };
        assert_eq!(
            judge(&forged, 100.0, TEAM, 1, 6, &p),
            Verdict::Accept(SequenceEnd::VerificationFailed)
        );
    }

    /// Three 1000 B/s measurers; host ids are only labels.
    fn team() -> Team {
        let mut net = Net::new();
        let members: Vec<_> = (0..3)
            .map(|i| {
                let host = net.add_host(HostProfile::new(format!("m{i}"), Rate::from_gbit(1.0)));
                (host, Rate::from_bytes_per_sec(TEAM / 3.0))
            })
            .collect();
        Team::with_capacities(&members)
    }

    /// An executor for relays that forward `truth[key]` bytes/s or
    /// whatever was allocated, whichever is less. Logs each slot's keys.
    fn saturating<'a>(
        truth: &'a [f64],
        slots: &'a mut Vec<Vec<usize>>,
    ) -> impl FnMut(&[SlotItem<usize>]) -> Vec<SlotResult> + 'a {
        move |slot| {
            slots.push(slot.iter().map(|item| item.key).collect());
            slot.iter()
                .map(|item| {
                    let allocated: f64 = item.allocation.iter().map(|a| a.bytes_per_sec()).sum();
                    result(truth[item.key].min(allocated), allocated)
                })
                .collect()
        }
    }

    #[test]
    fn packs_by_spare_capacity_and_requeues_with_the_next_prior() {
        let p = Params::paper();
        // Relays 2 and 0 fill the first slot (f·(500+400) leaves less
        // than f·300), so relay 1 waits; it is really 3× its prior and
        // needs a second, larger allocation.
        let truth = [400.0, 900.0, 500.0];
        let mut slots = Vec::new();
        let settled = measure_period(
            &team(),
            &p,
            [(0, 400.0), (1, 300.0), (2, 500.0)],
            6,
            saturating(&truth, &mut slots),
        );
        assert_eq!(slots, vec![vec![2, 0], vec![1], vec![1]]);
        let by_key = |k: usize| settled.iter().find(|s| s.key == k).unwrap();
        for (k, truth) in truth.iter().enumerate() {
            assert_eq!(by_key(k).end, SequenceEnd::Converged, "relay {k}");
            assert_eq!(by_key(k).estimate, *truth, "relay {k}");
        }
        assert_eq!((by_key(0).rounds, by_key(1).rounds, by_key(2).rounds), (1, 2, 1));
    }

    #[test]
    fn nan_and_oversized_priors_get_one_full_team_measurement() {
        let p = Params::paper();
        let truth = [5000.0, 5000.0, 100.0];
        let mut slots = Vec::new();
        let settled = measure_period(
            &team(),
            &p,
            [(0, f64::NAN), (1, 1e12), (2, 100.0)],
            6,
            saturating(&truth, &mut slots),
        );
        assert_eq!(slots, vec![vec![0], vec![1], vec![2]]);
        for s in &settled[..2] {
            assert_eq!((s.end, s.rounds), (SequenceEnd::TeamExhausted, 1));
            assert!((s.estimate - TEAM).abs() < 1e-6, "lower bound {}", s.estimate);
        }
        assert_eq!(settled[2].end, SequenceEnd::Converged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_simnet::host::HostProfile;
    use flashflow_simnet::time::SimDuration;
    use flashflow_tornet::relay::RelayConfig;

    fn testbed(limit_mbit: Option<f64>) -> (TorNet, Team, RelayId) {
        let mut tor = TorNet::new();
        let m1 = tor.add_host(HostProfile::us_e());
        let m2 = tor.add_host(HostProfile::host_nl());
        let m3 = tor.add_host(HostProfile::host_in());
        let target_host = tor.add_host(HostProfile::us_sw());
        tor.net.set_rtt(m1, target_host, SimDuration::from_millis(62));
        tor.net.set_rtt(m2, target_host, SimDuration::from_millis(137));
        tor.net.set_rtt(m3, target_host, SimDuration::from_millis(210));
        let mut config = RelayConfig::new("target");
        if let Some(l) = limit_mbit {
            config = config.with_rate_limit(Rate::from_mbit(l));
        }
        let relay = tor.add_relay(target_host, config);
        let team = Team::with_capacities(&[
            (m1, Rate::from_mbit(941.0)),
            (m2, Rate::from_mbit(1611.0)),
            (m3, Rate::from_mbit(1076.0)),
        ]);
        (tor, team, relay)
    }

    #[test]
    fn correct_prior_converges_in_one_round() {
        let (mut tor, team, relay) = testbed(Some(250.0));
        let params = Params::paper();
        let mut rng = SimRng::seed_from_u64(7);
        let out = measure_relay(
            &mut tor,
            relay,
            &team,
            Rate::from_mbit(250.0),
            &params,
            TargetBehavior::Honest,
            &mut rng,
            5,
        )
        .unwrap();
        assert!(out.converged());
        assert_eq!(out.rounds.len(), 1, "a correct prior should conclude immediately");
        let est = out.estimate.as_mbit();
        assert!((200.0..=270.0).contains(&est), "estimate {est}");
    }

    #[test]
    fn low_prior_doubles_until_converged() {
        let (mut tor, team, relay) = testbed(Some(500.0));
        let params = Params::paper();
        let mut rng = SimRng::seed_from_u64(8);
        let out = measure_relay(
            &mut tor,
            relay,
            &team,
            Rate::from_mbit(50.0), // 10× undershoot
            &params,
            TargetBehavior::Honest,
            &mut rng,
            8,
        )
        .unwrap();
        assert!(out.converged(), "ended {:?} after {} rounds", out.end, out.rounds.len());
        assert!(out.rounds.len() >= 2, "undershoot must trigger re-measurement");
        let est = out.estimate.as_mbit();
        assert!((400.0..=540.0).contains(&est), "estimate {est}");
    }

    #[test]
    fn verification_failure_aborts() {
        let (mut tor, team, relay) = testbed(Some(500.0));
        let params = Params::paper();
        let mut rng = SimRng::seed_from_u64(9);
        let out = measure_relay(
            &mut tor,
            relay,
            &team,
            Rate::from_mbit(500.0),
            &params,
            TargetBehavior::Forging { fraction: 1.0 },
            &mut rng,
            5,
        )
        .unwrap();
        assert_eq!(out.end, SequenceEnd::VerificationFailed);
        assert_eq!(out.estimate, Rate::ZERO);
    }

    #[test]
    fn new_relay_prior_is_75th_percentile() {
        let capacities: Vec<f64> = (1..=100).map(|i| i as f64 * 1e6).collect();
        let prior = new_relay_prior(&capacities);
        assert!((prior.bytes_per_sec() - 75.25e6).abs() < 1e4, "{prior}");
        // Empty history falls back to a tiny positive prior.
        assert!(new_relay_prior(&[]).bytes_per_sec() >= 1.0);
    }

    #[test]
    fn prior_beyond_team_errors() {
        let (mut tor, team, relay) = testbed(None);
        let params = Params::paper();
        let mut rng = SimRng::seed_from_u64(10);
        let err = measure_relay(
            &mut tor,
            relay,
            &team,
            Rate::from_gbit(100.0),
            &params,
            TargetBehavior::Honest,
            &mut rng,
            3,
        );
        assert!(err.is_err());
    }

    #[test]
    fn full_team_is_tried_once_not_until_the_round_cap() {
        // One 941 Mbit/s measurer against a ≈745 Mbit/s relay: the third
        // allocation is the whole team and still inconclusive. Repeating
        // it cannot change the answer, so the sequence ends there.
        let mut tor = TorNet::new();
        let m = tor.add_host(HostProfile::us_e());
        let host = tor.add_host(HostProfile::us_sw());
        tor.net.set_rtt(m, host, SimDuration::from_millis(62));
        let relay =
            tor.add_relay(host, RelayConfig::new("big").with_rate_limit(Rate::from_mbit(745.0)));
        let team = Team::with_capacities(&[(m, Rate::from_mbit(941.0))]);
        let params = Params::paper();
        let mut rng = SimRng::seed_from_u64(12);
        let out = measure_relay(
            &mut tor,
            relay,
            &team,
            Rate::from_mbit(50.0),
            &params,
            TargetBehavior::Honest,
            &mut rng,
            8,
        )
        .unwrap();
        assert_eq!(out.end, SequenceEnd::TeamExhausted);
        let allocated: Vec<f64> =
            out.rounds.iter().map(|m| m.allocated.as_mbit().round()).collect();
        assert_eq!(allocated, vec![148.0, 436.0, 941.0]);
        let est = out.estimate.as_mbit();
        assert!((700.0..=760.0).contains(&est), "estimate {est}");
    }
}
