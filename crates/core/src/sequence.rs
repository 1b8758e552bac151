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
//! retries. [`Sequencer`] is the one slot packer that applies the rule,
//! in one of two [`Order`]s: [`Order::Packed`] (largest prior first, §7's
//! slot count) or [`Order::Secret`] (§4.3's seeded draw). It does no I/O,
//! so any executor drives it: [`measure_period`] runs one slot at a time
//! through a closure (the fluid simulation, protocol sessions, or
//! [`perfect_slot`]'s priors), and a daemon can keep slots in flight.

use flashflow_simnet::rng::SimRng;
use flashflow_simnet::stats::quantile;
use flashflow_simnet::units::Rate;
use flashflow_tornet::netbuild::TorNet;
use flashflow_tornet::relay::RelayId;

use crate::alloc::AllocError;
use crate::measure::{measure_slot, Measurement};
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
enum Verdict {
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
    let f = params.excess_factor();
    let mut limit = team_total / f;
    // Rounding can leave `f·limit` an ulp above the team, beyond the
    // allocator's tolerance: step down until an idle team can serve it.
    while f * limit > team_total + 1e-9 {
        limit = limit.next_down();
    }
    limit
}

/// §4.2's decision after a relay's `rounds`-th measurement, taken from
/// prior `z0` on a team of `team_total` (both bytes/s): accept `z` if it
/// is verified and below the acceptance threshold for what was
/// allocated; otherwise retry from `max(z, 2·z₀)` clamped to what the
/// team can serve — unless this round already had the whole team or was
/// the last of `max_rounds`, where the estimate stands as a lower bound.
fn judge(
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

/// The order a [`Sequencer`] packs slots in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Largest prior first: each slot takes every waiting relay whose
    /// reservation still fits, and the rest wait for the next slot. With
    /// [`perfect_slot`] as the executor it gives §7's whole-network slot
    /// count, but a relay can predict its slot from the public consensus.
    Packed,
    /// §4.3's secret order. Before the first slot, each relay, in input
    /// order, draws its slot uniformly among the period's
    /// [`slots_per_period`](Params::slots_per_period) whose reservation
    /// still fits, with one `gen_index` per relay from `seed` (the
    /// BWAuths' shared secret randomness). Re-measures, relays no slot
    /// fits, and relays marked as arriving go first-fit from the current
    /// or arrival slot on, past the period if need be.
    Secret {
        /// The shared seed the draws come from.
        seed: u64,
    },
}

/// A relay handed to a [`Sequencer`]. A `(key, z₀)` pair converts to
/// one present from the start of the period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToMeasure<K> {
    /// The caller's name for the relay.
    pub key: K,
    /// The prior `z₀` in bytes/s.
    pub z0: f64,
    /// For a relay that joins mid-period, the slot it arrives at: it is
    /// placed first-fit from there on, in either order.
    pub arrives: Option<usize>,
}

impl<K> From<(K, f64)> for ToMeasure<K> {
    fn from((key, z0): (K, f64)) -> Self {
        ToMeasure { key, z0, arrives: None }
    }
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

/// A slot being packed: its items, each measurer's reserved capacity,
/// and the team's spare capacity left after those reservations.
struct Slot<K> {
    items: Vec<SlotItem<K>>,
    reserved: Vec<Rate>,
    spare: f64,
}

impl<K> Slot<K> {
    fn new(team: &Team) -> Self {
        let reserved = vec![Rate::ZERO; team.len()];
        Slot { items: Vec::new(), spare: team.spare(&reserved), reserved }
    }

    /// Whether `f·z₀ = needed` still fits: [`Team::allocate`]'s test,
    /// without building the allocation.
    fn fits(&self, needed: f64) -> bool {
        self.spare + 1e-9 >= needed
    }

    /// Reserves `f·z₀` for a relay that [`fits`](Self::fits) and adds it.
    fn join(&mut self, team: &Team, params: &Params, key: K, z0: f64, rounds: u32) {
        let allocation = team
            .allocate(Rate::from_bytes_per_sec(z0), params, &self.reserved)
            .expect("a relay that fits can be allocated");
        for (res, a) in self.reserved.iter_mut().zip(&allocation) {
            *res = *res + *a;
        }
        self.spare = team.spare(&self.reserved);
        self.items.push(SlotItem { key, z0, rounds, allocation });
    }
}

/// Measures every relay in `relays` to the end of its §4.2 sequence, at
/// most `max_rounds` measurements each: a [`Sequencer`] driven one slot
/// at a time. `run_slot` executes a slot, given its index and items, and
/// returns one [`SlotResult`] per item, in order. Returns the relays in
/// the order they settled.
///
/// # Panics
/// Panics if `max_rounds` is zero, the team has no capacity, or
/// `run_slot` returns the wrong number of results.
pub fn measure_period<K: Copy>(
    team: &Team,
    params: &Params,
    order: Order,
    relays: impl IntoIterator<Item = impl Into<ToMeasure<K>>>,
    max_rounds: u32,
    mut run_slot: impl FnMut(usize, &[SlotItem<K>]) -> Vec<SlotResult>,
) -> Vec<Settled<K>> {
    let mut sequencer = Sequencer::new(team, params, order, relays, max_rounds);
    while let Some((index, items)) = sequencer.next_slot() {
        let results = run_slot(index, &items);
        sequencer.complete(&items, &results);
    }
    sequencer.into_settled()
}

/// One period as a state machine with no I/O: [`next_slot`](Self::next_slot)
/// packs and hands out a slot, [`complete`](Self::complete) takes its
/// results back and settles or re-queues each relay. A relay joins a slot
/// when its `f·z₀` still fits the measurers' unreserved capacity, and the
/// [`Order`] decides which slot. The caller may stage later slots before
/// earlier ones complete: a re-queued relay waits from the first slot not
/// yet handed out. The state is a fold over the seed, priors and calls.
pub struct Sequencer<K> {
    team: Team,
    params: Params,
    order: Order,
    max_rounds: u32,
    /// Slots planned ahead (the secret draws), from `index` on.
    planned: std::vec::IntoIter<Slot<K>>,
    /// The waiting relays: (relay, prior, measurements so far, first
    /// slot it may join).
    queue: Vec<(K, f64, u32, usize)>,
    /// The index of the next slot to pack.
    index: usize,
    in_flight: usize,
    settled: Vec<Settled<K>>,
}

impl<K: Copy> Sequencer<K> {
    /// Starts a period over `relays` (see [`ToMeasure`]); under
    /// [`Order::Secret`] this draws the present relays' slots. A prior
    /// the team cannot serve, or one that is not a positive number, gets
    /// one full-team measurement. Panics if `max_rounds` is zero.
    pub fn new(
        team: &Team,
        params: &Params,
        order: Order,
        relays: impl IntoIterator<Item = impl Into<ToMeasure<K>>>,
        max_rounds: u32,
    ) -> Self {
        assert!(max_rounds >= 1, "need at least one round");
        let f = params.excess_factor();
        let limit = team_limit(team.total_capacity().bytes_per_sec(), params);
        let (mut planned, mut rng) = match order {
            Order::Secret { seed } => {
                let slots = params.slots_per_period() as usize;
                ((0..slots).map(|_| Slot::new(team)).collect(), Some(SimRng::seed_from_u64(seed)))
            }
            Order::Packed => (Vec::new(), None),
        };
        let mut queue = Vec::new();
        let mut feasible = Vec::new();
        for relay in relays {
            let ToMeasure { key, z0, arrives } = relay.into();
            let z0 = if z0 > 0.0 { z0.min(limit) } else { limit };
            if let (Some(rng), None) = (&mut rng, arrives) {
                feasible.clear();
                feasible.extend((0..planned.len()).filter(|&s| planned[s].fits(f * z0)));
                if !feasible.is_empty() {
                    planned[feasible[rng.gen_index(feasible.len())]].join(team, params, key, z0, 0);
                    continue;
                }
            }
            queue.push((key, z0, 0, arrives.unwrap_or(0)));
        }
        Sequencer {
            team: team.clone(),
            params: *params,
            order,
            max_rounds,
            planned: planned.into_iter(),
            queue,
            index: 0,
            in_flight: 0,
            settled: Vec::new(),
        }
    }

    /// Packs the next slot that is not empty and hands it out with its
    /// index; empty slots are skipped but keep their index. `None` means
    /// that nothing can be staged until a handed-out slot completes, or,
    /// with none in flight, that the period is over.
    pub fn next_slot(&mut self) -> Option<(usize, Vec<SlotItem<K>>)> {
        let f = self.params.excess_factor();
        while self.planned.len() > 0 || !self.queue.is_empty() {
            let mut slot = self.planned.next().unwrap_or_else(|| Slot::new(&self.team));
            if self.order == Order::Packed {
                self.queue.sort_by(|a, b| b.1.total_cmp(&a.1));
            }
            let at = self.index;
            self.queue.retain(|&(key, z0, rounds, from)| {
                let joins = from <= at && slot.fits(f * z0);
                if joins {
                    slot.join(&self.team, &self.params, key, z0, rounds);
                }
                !joins
            });
            self.index += 1;
            if !slot.items.is_empty() {
                self.in_flight += 1;
                return Some((at, slot.items));
            }
            assert!(self.queue.iter().all(|w| w.3 > at), "slot packing made no progress");
        }
        None
    }

    /// Takes a handed-out slot's `items` back with their results, in
    /// order, and settles each relay or re-queues it with its next prior.
    ///
    /// # Panics
    /// Panics if no slot is in flight or the counts differ.
    pub fn complete(&mut self, items: &[SlotItem<K>], results: &[SlotResult]) {
        assert_eq!(results.len(), items.len(), "one result per slot item");
        self.in_flight = self.in_flight.checked_sub(1).expect("a slot in flight");
        let team_total = self.team.total_capacity().bytes_per_sec();
        for (item, result) in items.iter().zip(results) {
            let rounds = item.rounds + 1;
            match judge(result, item.z0, team_total, rounds, self.max_rounds, &self.params) {
                Verdict::Accept(end) => {
                    let estimate =
                        if end == SequenceEnd::VerificationFailed { 0.0 } else { result.estimate };
                    self.settled.push(Settled { key: item.key, estimate, end, rounds });
                }
                Verdict::Retry(next) => self.queue.push((item.key, next, rounds, self.index)),
            }
        }
    }

    /// The relays in the order they settled. Panics if a handed-out slot
    /// has not completed.
    pub fn into_settled(self) -> Vec<Settled<K>> {
        assert_eq!(self.in_flight, 0, "a handed-out slot has not completed");
        self.settled
    }
}

/// The slot executor for relays whose priors are exact: each estimate
/// is the prior and every allocation verifies, so each relay converges
/// in its first measurement. Under [`Order::Packed`] the slots it is
/// called for are §7's whole-network packing.
pub fn perfect_slot<K>(_index: usize, slot: &[SlotItem<K>]) -> Vec<SlotResult> {
    slot.iter()
        .map(|item| SlotResult {
            estimate: item.z0,
            allocated: item.allocation.iter().map(|a| a.bytes_per_sec()).sum(),
            verified: true,
        })
        .collect()
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
    let relay = [(target, prior.bytes_per_sec())];
    let settled = measure_period(team, params, Order::Packed, relay, max_rounds, |_, slot| {
        rounds.extend(measure_slot(tor, team, params, slot, &|_| behavior, rng));
        vec![rounds.last().expect("one item yields one measurement").slot_result()]
    });
    let Settled { estimate, end, .. } = settled[0];
    Ok(SequenceOutcome { estimate: Rate::from_bytes_per_sec(estimate), rounds, end })
}

/// The rule and the loop on bare numbers: a made-up team, a closure for
/// an executor, and no simulated network in scope.
#[cfg(test)]
mod rule_tests {
    use super::{
        judge, measure_period, perfect_slot, team_limit, Order, SequenceEnd, SlotItem, SlotResult,
        ToMeasure, Verdict,
    };
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
    ) -> impl FnMut(usize, &[SlotItem<usize>]) -> Vec<SlotResult> + 'a {
        move |_, slot| {
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
            Order::Packed,
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
        // So do priors that are not positive: a zero prior would
        // allocate nothing, a negative one less than nothing.
        let p = Params::paper();
        let truth = [5000.0, 5000.0, 5000.0, 5000.0, 5000.0, 100.0];
        let mut slots = Vec::new();
        let settled = measure_period(
            &team(),
            &p,
            Order::Packed,
            [(0, f64::NAN), (1, 1e12), (2, 0.0), (3, -1.0), (4, f64::NEG_INFINITY), (5, 100.0)],
            6,
            saturating(&truth, &mut slots),
        );
        assert_eq!(slots, (0..6).map(|k| vec![k]).collect::<Vec<_>>());
        for s in &settled[..5] {
            assert_eq!((s.end, s.rounds), (SequenceEnd::TeamExhausted, 1), "relay {}", s.key);
            assert!((s.estimate - TEAM).abs() < 1e-6, "lower bound {}", s.estimate);
        }
        assert_eq!(settled[5].end, SequenceEnd::Converged);
    }

    #[test]
    fn team_limit_fits_an_idle_team_despite_rounding() {
        let p = Params::paper();
        let f = p.excess_factor();
        let totals = (1..10_000).map(|i| 1e8 + f64::from(i) * 12_345.678);
        assert!(totals.clone().any(|t| f * (t / f) > t + 1e-9), "no total rounds over");
        for t in totals {
            let limit = team_limit(t, &p);
            assert!(f * limit <= t + 1e-9 && limit >= (t / f).next_down().next_down(), "{t}");
        }
    }

    /// The prior whose allocation `f·z₀` is `demand` bytes/s.
    fn prior_for(demand: f64) -> f64 {
        demand / Params::paper().excess_factor()
    }

    /// The paper's parameters with a period of `slots` slots.
    fn period_of(slots: u64) -> Params {
        let p = Params::paper();
        Params { period: p.slot * slots, ..p }
    }

    /// Runs a perfect period of `slots` slots and returns each executed
    /// (slot, key).
    fn secret_slots(seed: u64, slots: u64, relays: &[ToMeasure<usize>]) -> Vec<(usize, usize)> {
        let mut ran = Vec::new();
        measure_period(
            &team(),
            &period_of(slots),
            Order::Secret { seed },
            relays.iter().copied(),
            1,
            |index, slot| {
                ran.extend(slot.iter().map(|item| (index, item.key)));
                perfect_slot(index, slot)
            },
        );
        ran
    }

    #[test]
    fn secret_draw_is_uniform_among_feasible_slots() {
        // Two relays that cannot share a slot: relay 0 draws among all
        // five slots, relay 1 among the four relay 0 left it.
        let big = prior_for(2000.0);
        let relays = [(0, big).into(), (1, big).into()];
        let (mut first, mut second) = ([0.0; 5], [0.0; 4]);
        for seed in 0..1000 {
            let ran = secret_slots(seed, 5, &relays);
            let slot_of = |k| ran.iter().filter(|r| r.1 == k).map(|r| r.0).collect::<Vec<_>>();
            let (a, b) = (slot_of(0), slot_of(1));
            assert!(a.len() == 1 && b.len() == 1 && a[0] != b[0] && b[0] < 5, "seed {seed}");
            first[a[0]] += 1.0;
            second[b[0] - usize::from(b[0] > a[0])] += 1.0;
        }
        // χ² critical values at p = 0.001 for 4 and 3 degrees of freedom.
        let chi2 = |counts: &[f64]| {
            let expected = 1000.0 / counts.len() as f64;
            counts.iter().map(|c| (c - expected).powi(2) / expected).sum::<f64>()
        };
        assert!(chi2(&first) < 18.467, "{first:?}");
        assert!(chi2(&second) < 16.266, "{second:?}");
    }

    #[test]
    fn secret_draw_repeats_for_a_seed_and_differs_across_seeds() {
        // Twenty relays of which ten fit a slot: one seed is one placement.
        let relays: Vec<ToMeasure<usize>> = (0..20).map(|k| (k, prior_for(295.0)).into()).collect();
        let (a, b) = (secret_slots(9, 2880, &relays), secret_slots(9, 2880, &relays));
        assert_eq!(a.len(), 20);
        assert_eq!(a, b);
        assert_ne!(a, secret_slots(10, 2880, &relays), "different seeds should shuffle slots");
    }

    #[test]
    fn secret_order_overflows_first_fit_and_requeues_later() {
        // Six relays that each need most of the team, in a four-slot
        // period: four draw a slot, two go first-fit past the period.
        // Relay 6 is really twice its prior, so it is measured again in a
        // later slot than its first.
        let p = period_of(4);
        let mut truth = vec![prior_for(2000.0); 6];
        truth.push(2.0 * prior_for(900.0));
        let mut relays: Vec<(usize, f64)> = (0..6).map(|k| (k, prior_for(2000.0))).collect();
        relays.push((6, prior_for(900.0)));
        for seed in 0..50 {
            let mut slots = Vec::new();
            let mut indices = Vec::new();
            let settled = {
                let mut run = saturating(&truth, &mut slots);
                measure_period(
                    &team(),
                    &p,
                    Order::Secret { seed },
                    relays.iter().copied(),
                    6,
                    |index, slot| {
                        indices.push(index);
                        let reserved: f64 = slot
                            .iter()
                            .flat_map(|i| &i.allocation)
                            .map(|a| a.bytes_per_sec())
                            .sum();
                        assert!(reserved <= TEAM + 1e-6, "slot {index} reserves {reserved}");
                        run(index, slot)
                    },
                )
            };
            assert!(indices.windows(2).all(|w| w[0] < w[1]), "{indices:?}");
            assert_eq!(indices.iter().filter(|&&i| i >= 4).count(), 2 + 1, "{indices:?}");
            let at = |k| {
                slots.iter().zip(&indices).filter(move |(s, _)| s.contains(&k)).map(|(_, i)| *i)
            };
            let relay6: Vec<usize> = at(6).collect();
            assert!(relay6.len() == 2 && relay6[0] < relay6[1], "{relay6:?}");
            assert!((0..6).all(|k| at(k).count() == 1), "seed {seed}");
            assert!(settled.iter().all(|s| s.end == SequenceEnd::Converged));
        }
    }

    #[test]
    fn arrivals_go_first_fit_from_their_slot() {
        // Three relays that each fill most of a slot draw three of four
        // slots; an arrival at slot 1 takes the first slot from 1 on that
        // none of them drew — slot 4, past the period, if that is none.
        let mut relays: Vec<ToMeasure<usize>> =
            (0..3).map(|k| (k, prior_for(2500.0)).into()).collect();
        relays.push(ToMeasure { key: 3, z0: prior_for(1000.0), arrives: Some(1) });
        for seed in 0..50 {
            let ran = secret_slots(seed, 4, &relays);
            let drawn: Vec<usize> = ran.iter().filter(|r| r.1 < 3).map(|r| r.0).collect();
            let expected = (1..).find(|s| !drawn.contains(s)).unwrap();
            assert!(ran.contains(&(expected, 3)), "seed {seed}: {ran:?}");
        }
        // Largest first waits for the arrival too.
        let mut ran = Vec::new();
        measure_period(&team(), &Params::paper(), Order::Packed, relays, 1, |index, slot| {
            ran.extend(slot.iter().map(|item| (index, item.key)));
            perfect_slot(index, slot)
        });
        assert_eq!(ran, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
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
