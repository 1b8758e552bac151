//! Executing a single FlashFlow measurement (§4.1).
//!
//! The BWAuth authenticates to each measurer and to the target, divides
//! the allocated capacity `a_i` over `k_i` per-core Tor processes on each
//! measurer (each rate-limited to `a_i/k_i` and owning `s/(m·k_i)`
//! sockets), and lets every process blast measurement cells at the target
//! for the `t`-second slot. Per second `j` the BWAuth collects:
//!
//! * `x_j` — measurement bytes echoed by the target, summed over
//!   measurers;
//! * `y_j` — normal-traffic bytes the target *claims* it forwarded,
//!   clamped to `x_j · r/(1−r)` so a lying relay gains at most `1/(1−r)`;
//!
//! and estimates capacity as `z = median(x_j + ŷ_j)`.
//!
//! [`run_concurrent_measurements`] runs one slot of measurements on the
//! fluid simulation, each item with its own per-measurer
//! [`Assignment`]s; [`measure_slot`] runs a slot a
//! [`Sequencer`](crate::sequence::Sequencer) packed, splitting each
//! item's allocation over the team. One relay's §4.2 sequence is
//! [`measure_relay`](crate::sequence::measure_relay) (one round of it is
//! `max_rounds` 1), and a whole period is
//! [`measure_period`](crate::sequence::measure_period) with
//! [`measure_slot`] as its executor.

use flashflow_simnet::engine::FlowId;
use flashflow_simnet::host::HostId;
use flashflow_simnet::rng::SimRng;
use flashflow_simnet::stats::{median, SecondsAccumulator};
use flashflow_simnet::units::Rate;
use flashflow_tornet::netbuild::TorNet;
use flashflow_tornet::relay::RelayId;
use flashflow_tornet::sched::clamp_reported_background;

use crate::params::Params;
use crate::sequence::{SlotItem, SlotResult};
use crate::team::Team;
use crate::verify::{spot_check, TargetBehavior, VerificationOutcome};

/// One measurer's assignment within a measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The measurer host.
    pub host: HostId,
    /// Allocated capacity `a_i` (zero = not participating).
    pub allocation: Rate,
    /// Measurement Tor processes `k_i` started on the measurer.
    pub processes: u32,
    /// Sockets this measurer opens to the target (its `s/m` share).
    pub sockets: u32,
}

/// Builds the per-measurer assignments for a measurement from a team and
/// its per-measurer allocations (§4.1): one process per core (at least
/// one), each rate-limited to `a_i/k_i`, sockets split evenly.
fn assignments_for(team: &Team, allocations: &[Rate], params: &Params) -> Vec<Assignment> {
    assert_eq!(team.measurers.len(), allocations.len(), "allocation length mismatch");
    let shares = team.socket_shares(allocations, params);
    team.measurers
        .iter()
        .zip(allocations)
        .zip(shares)
        .map(|((m, alloc), sockets)| Assignment {
            host: m.host,
            allocation: *alloc,
            processes: if alloc.is_zero() { 0 } else { m.cores.max(1) },
            sockets,
        })
        .collect()
}

/// Per-second protocol record (§4.1's `x_j`, `y_j`, `ŷ_j`, `z_j`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecondSample {
    /// Measurement bytes relayed by the target this second.
    pub x: f64,
    /// Normal-traffic bytes the target reported.
    pub y_reported: f64,
    /// The report after the BWAuth's ratio clamp.
    pub y_accepted: f64,
    /// The per-second capacity estimate `x + ŷ`.
    pub z: f64,
}

/// §4.1's estimate from measurement (`x_j`) and reported-background
/// (`y_j`) series: the per-second records, each `y_j` clamped to
/// `x_j · r/(1−r)`, and `z = median(x_j + ŷ_j)`. Missing trailing
/// background reports (a target that stopped reporting) count as zero
/// rather than truncating the slot; an empty slot estimates zero.
pub fn estimate(x: &[f64], y_reported: &[f64], ratio: f64) -> (Vec<SecondSample>, Rate) {
    let seconds: Vec<SecondSample> = x
        .iter()
        .enumerate()
        .map(|(j, &x)| {
            let y_reported = y_reported.get(j).copied().unwrap_or(0.0);
            let y_accepted = clamp_reported_background(y_reported, x, ratio);
            SecondSample { x, y_reported, y_accepted, z: x + y_accepted }
        })
        .collect();
    let z: Vec<f64> = seconds.iter().map(|s| s.z).collect();
    (seconds, Rate::from_bytes_per_sec(median(&z).unwrap_or(0.0)))
}

/// The result of one measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The capacity estimate `z = median(z_j)`.
    pub estimate: Rate,
    /// Per-second records.
    pub seconds: Vec<SecondSample>,
    /// Total measurer capacity that was allocated (`Σ a_i`).
    pub allocated: Rate,
    /// Spot-check outcome; a failed check voids the measurement.
    pub verification: VerificationOutcome,
}

impl Measurement {
    /// True if the content spot-checks all passed.
    pub fn verified(&self) -> bool {
        self.verification.passed()
    }

    /// The numbers a [`Sequencer`](crate::sequence::Sequencer) judges a
    /// measurement by.
    pub fn slot_result(&self) -> SlotResult {
        SlotResult {
            estimate: self.estimate.bytes_per_sec(),
            allocated: self.allocated.bytes_per_sec(),
            verified: self.verified(),
        }
    }
}

/// One entry in a concurrent measurement batch.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The relay to measure.
    pub target: RelayId,
    /// Per-measurer assignments.
    pub assignments: Vec<Assignment>,
    /// The target's echo honesty for the spot-check layer.
    pub behavior: TargetBehavior,
}

/// Measures a slot a [`Sequencer`](crate::sequence::Sequencer) packed:
/// each item's allocation split over the team's measurers, with
/// `behavior_of` supplying each relay's echo honesty, and every item
/// measured at once. Returns one [`Measurement`] per item, in order.
pub fn measure_slot(
    tor: &mut TorNet,
    team: &Team,
    params: &Params,
    slot: &[SlotItem<RelayId>],
    behavior_of: &dyn Fn(RelayId) -> TargetBehavior,
    rng: &mut SimRng,
) -> Vec<Measurement> {
    let items: Vec<BatchItem> = slot
        .iter()
        .map(|item| BatchItem {
            target: item.key,
            assignments: assignments_for(team, &item.allocation, params),
            behavior: behavior_of(item.key),
        })
        .collect();
    run_concurrent_measurements(tor, &items, params, rng)
}

/// Runs several measurements *concurrently* in one slot — a FlashFlow
/// deployment measures multiple relays at once to cover the network
/// quickly (§4.3, Appendix F). Returns one [`Measurement`] per item, in
/// order.
///
/// # Panics
/// Panics if any item has no participating measurer.
pub fn run_concurrent_measurements(
    tor: &mut TorNet,
    items: &[BatchItem],
    params: &Params,
    rng: &mut SimRng,
) -> Vec<Measurement> {
    // Start every item's flows, then install all governors.
    let mut per_item_flows: Vec<Vec<FlowId>> = Vec::with_capacity(items.len());
    for item in items {
        let active: Vec<&Assignment> =
            item.assignments.iter().filter(|a| !a.allocation.is_zero()).collect();
        assert!(!active.is_empty(), "measurement needs at least one participating measurer");
        let mut flows: Vec<FlowId> = Vec::new();
        for a in &active {
            let k = a.processes.max(1);
            let per_process_alloc =
                Rate::from_bytes_per_sec(a.allocation.bytes_per_sec() / f64::from(k));
            let per_process_sockets = (a.sockets / k).max(1);
            for _ in 0..k {
                flows.push(tor.start_measurement_flow(
                    a.host,
                    item.target,
                    per_process_sockets,
                    Some(per_process_alloc),
                ));
            }
        }
        tor.begin_measurement(item.target, flows.clone());
        per_item_flows.push(flows);
    }

    // One shared slot: accumulate x_j per item.
    let mut x_accs: Vec<SecondsAccumulator> =
        items.iter().map(|_| SecondsAccumulator::new()).collect();
    let dt = tor.net.engine().tick_duration().as_secs_f64();
    let end = tor.now() + params.slot;
    while tor.now() < end {
        tor.tick();
        for (flows, acc) in per_item_flows.iter().zip(&mut x_accs) {
            let bytes: f64 = flows.iter().map(|f| tor.net.engine().flow_bytes_last_tick(*f)).sum();
            acc.push(bytes, dt);
        }
    }

    // Collect, tear down, and aggregate per item.
    let mut results = Vec::with_capacity(items.len());
    for ((item, flows), x_acc) in items.iter().zip(&per_item_flows).zip(x_accs) {
        let y_reports = tor.relay_background_seconds(item.target);
        let ratio = tor.relay(item.target).config.ratio;
        tor.end_measurement(item.target);
        for f in flows {
            tor.net.engine_mut().stop_flow(*f);
        }

        let x_seconds = x_acc.into_seconds();
        let n = x_seconds.len().min(y_reports.len());
        let y_seconds: Vec<f64> = y_reports[..n].iter().map(|r| r.reported_background).collect();
        let (seconds, estimate) = estimate(&x_seconds[..n], &y_seconds, ratio);

        let total_measurement_bytes: f64 = seconds.iter().map(|s| s.x).sum();
        let verification =
            spot_check(total_measurement_bytes, params.check_probability, item.behavior, rng);

        let allocated: Rate =
            item.assignments.iter().filter(|a| !a.allocation.is_zero()).map(|a| a.allocation).sum();
        results.push(Measurement { estimate, seconds, allocated, verification });
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{measure_relay, SequenceEnd, SequenceOutcome};
    use flashflow_simnet::host::HostProfile;
    use flashflow_simnet::time::SimDuration;
    use flashflow_tornet::relay::RelayConfig;

    fn testbed(limit_mbit: Option<f64>) -> (TorNet, Team, RelayId) {
        let mut tor = TorNet::new();
        let m1 = tor.add_host(HostProfile::us_e());
        let m2 = tor.add_host(HostProfile::host_nl());
        let target_host = tor.add_host(HostProfile::us_sw());
        tor.net.set_rtt(m1, target_host, SimDuration::from_millis(62));
        tor.net.set_rtt(m2, target_host, SimDuration::from_millis(137));
        let mut config = RelayConfig::new("target");
        if let Some(l) = limit_mbit {
            config = config.with_rate_limit(Rate::from_mbit(l));
        }
        let relay = tor.add_relay(target_host, config);
        let team =
            Team::with_capacities(&[(m1, Rate::from_mbit(941.0)), (m2, Rate::from_mbit(1611.0))]);
        (tor, team, relay)
    }

    /// One round of `relay`'s sequence from prior `z0` Mbit/s, honest.
    fn one_round(
        tor: &mut TorNet,
        relay: RelayId,
        team: &Team,
        z0: f64,
        seed: u64,
    ) -> SequenceOutcome {
        let mut rng = SimRng::seed_from_u64(seed);
        let prior = Rate::from_mbit(z0);
        measure_relay(
            tor,
            relay,
            team,
            prior,
            &Params::paper(),
            TargetBehavior::Honest,
            &mut rng,
            1,
        )
        .unwrap()
    }

    #[test]
    fn measures_rate_limited_relay_accurately() {
        let (mut tor, team, relay) = testbed(Some(250.0));
        let out = one_round(&mut tor, relay, &team, 250.0, 42);
        let m = &out.rounds[0];
        let est = m.estimate.as_mbit();
        assert!((200.0..=270.0).contains(&est), "estimate {est} Mbit/s");
        assert!(m.verified());
        assert_eq!(out.end, SequenceEnd::Converged, "should be conclusive with a correct prior");
        assert_eq!(m.seconds.len(), 30);
    }

    #[test]
    fn undershooting_prior_is_inconclusive() {
        // Target is ~890 Mbit/s but we allocate for a 100 Mbit/s prior:
        // the estimate saturates the allocation and fails the acceptance
        // test.
        let (mut tor, team, relay) = testbed(None);
        let out = one_round(&mut tor, relay, &team, 100.0, 43);
        let estimate = out.rounds[0].estimate;
        assert_eq!(
            out.end,
            SequenceEnd::TeamExhausted,
            "estimate {estimate} should be inconclusive"
        );
    }

    #[test]
    fn lying_relay_bounded_by_ratio() {
        let mut tor = TorNet::new();
        let m1 = tor.add_host(HostProfile::us_e());
        let m2 = tor.add_host(HostProfile::host_nl());
        let target_host = tor.add_host(HostProfile::us_sw());
        let relay = tor.add_relay(
            target_host,
            RelayConfig::new("liar")
                .with_rate_limit(Rate::from_mbit(200.0))
                .with_inflated_reporting(),
        );
        let team =
            Team::with_capacities(&[(m1, Rate::from_mbit(941.0)), (m2, Rate::from_mbit(1611.0))]);
        let params = Params::paper();
        let m = &one_round(&mut tor, relay, &team, 200.0, 44).rounds[0];
        // The liar forwards no client traffic; its estimate is at most
        // 1/(1-r) = 1.33× its true capacity.
        let true_capacity = 200.0;
        let est = m.estimate.as_mbit();
        assert!(
            est <= true_capacity * crate::security::max_inflation_factor(params.ratio) * 1.02,
            "estimate {est} exceeds the 1.33 bound"
        );
        assert!(est > true_capacity * 0.9, "liar should still get ≈ its capacity");
    }

    #[test]
    fn forging_target_fails_verification() {
        let (mut tor, team, relay) = testbed(Some(500.0));
        let params = Params::paper();
        let mut rng = SimRng::seed_from_u64(45);
        let reserved = vec![Rate::ZERO; team.len()];
        let allocations = team.allocate(Rate::from_mbit(500.0), &params, &reserved).unwrap();
        let assignments = assignments_for(&team, &allocations, &params);
        let behavior = TargetBehavior::Forging { fraction: 1.0 };
        let items = [BatchItem { target: relay, assignments, behavior }];
        let m = &run_concurrent_measurements(&mut tor, &items, &params, &mut rng)[0];
        assert!(!m.verified(), "forging an entire slot must be caught");
    }

    #[test]
    fn estimate_clamps_background_and_takes_the_median() {
        // r = 0.25 bounds each second's background at x/3. Second 0's
        // claim of 200 is clamped to 100, second 1's 100 stands, and
        // second 2 has no report, so it counts as 0.
        let (seconds, z) = estimate(&[300.0, 600.0, 900.0], &[200.0, 100.0], 0.25);
        let accepted: Vec<_> = seconds.iter().map(|s| (s.y_reported, s.y_accepted, s.z)).collect();
        assert_eq!(accepted, vec![(200.0, 100.0, 400.0), (100.0, 100.0, 700.0), (0.0, 0.0, 900.0)]);
        assert_eq!(z, Rate::from_bytes_per_sec(700.0));
        // An even number of seconds: the mean of the middle two.
        let (_, z) = estimate(&[1200.0, 300.0, 900.0, 600.0], &[], 0.25);
        assert_eq!(z, Rate::from_bytes_per_sec(750.0));
        // An empty slot estimates zero.
        let (seconds, z) = estimate(&[], &[50.0], 0.25);
        assert!(seconds.is_empty());
        assert_eq!(z, Rate::ZERO);
    }

    #[test]
    fn assignments_split_processes_and_sockets() {
        let (_, team, _) = testbed(None);
        let params = Params::paper();
        let allocations = vec![Rate::from_mbit(400.0), Rate::from_mbit(300.0)];
        let assignments = assignments_for(&team, &allocations, &params);
        assert_eq!(assignments.len(), 2);
        assert_eq!(assignments[0].sockets, 80);
        assert_eq!(assignments[1].sockets, 80);
        assert!(assignments[0].processes >= 1);
    }
}
