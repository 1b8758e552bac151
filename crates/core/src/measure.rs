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
pub fn assignments_for(team: &Team, allocations: &[Rate], params: &Params) -> Vec<Assignment> {
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

/// Builds per-second protocol records from measurement (`x_j`) and
/// reported-background (`y_j`) series, applying the BWAuth ratio clamp.
/// Missing trailing background reports (a target that stopped reporting)
/// count as zero rather than truncating the slot.
pub fn build_second_samples(x: &[f64], y_reported: &[f64], ratio: f64) -> Vec<SecondSample> {
    x.iter()
        .enumerate()
        .map(|(j, &x)| {
            let y_reported = y_reported.get(j).copied().unwrap_or(0.0);
            let y_accepted = clamp_reported_background(y_reported, x, ratio);
            SecondSample { x, y_reported, y_accepted, z: x + y_accepted }
        })
        .collect()
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

    /// §4.2's acceptance test: is the estimate small enough, relative to
    /// the allocated capacity, to be conclusive?
    pub fn conclusive(&self, params: &Params) -> bool {
        self.estimate.bytes_per_sec() < params.acceptance_threshold(self.allocated.bytes_per_sec())
    }

    /// The numbers [`judge`](crate::sequence::judge) decides on.
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

/// The batch for a slot [`measure_period`](crate::sequence::measure_period)
/// packed: each item's allocation split into per-measurer assignments,
/// with `behavior_of` supplying each relay's echo honesty.
pub fn batch_for(
    team: &Team,
    params: &Params,
    slot: &[SlotItem<RelayId>],
    behavior_of: &dyn Fn(RelayId) -> TargetBehavior,
) -> Vec<BatchItem> {
    slot.iter()
        .map(|item| BatchItem {
            target: item.key,
            assignments: assignments_for(team, &item.allocation, params),
            behavior: behavior_of(item.key),
        })
        .collect()
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
        let seconds = build_second_samples(&x_seconds[..n], &y_seconds, ratio);

        let z_values: Vec<f64> = seconds.iter().map(|s| s.z).collect();
        let estimate = Rate::from_bytes_per_sec(median(&z_values).unwrap_or(0.0));

        let total_measurement_bytes: f64 = seconds.iter().map(|s| s.x).sum();
        let verification =
            spot_check(total_measurement_bytes, params.check_probability, item.behavior, rng);

        let allocated: Rate =
            item.assignments.iter().filter(|a| !a.allocation.is_zero()).map(|a| a.allocation).sum();
        results.push(Measurement { estimate, seconds, allocated, verification });
    }
    results
}

/// Runs one measurement of `target` with the given assignments.
///
/// `behavior` selects the target's echo honesty for the spot-check layer
/// (the fluid layer models throughput; forged echoes are a protocol-layer
/// property).
///
/// # Panics
/// Panics if no assignment participates.
pub fn run_measurement(
    tor: &mut TorNet,
    target: RelayId,
    assignments: &[Assignment],
    params: &Params,
    behavior: TargetBehavior,
    rng: &mut SimRng,
) -> Measurement {
    let items = vec![BatchItem { target, assignments: assignments.to_vec(), behavior }];
    run_concurrent_measurements(tor, &items, params, rng)
        .pop()
        .expect("one item yields one measurement")
}

/// Convenience: allocate from `team` for prior `z0` and run one
/// measurement of an honest target.
///
/// # Errors
/// Propagates allocation failure when the team lacks capacity.
pub fn measure_once(
    tor: &mut TorNet,
    target: RelayId,
    team: &Team,
    z0: Rate,
    params: &Params,
    rng: &mut SimRng,
) -> Result<Measurement, crate::alloc::AllocError> {
    let reserved = vec![Rate::ZERO; team.len()];
    let allocations = team.allocate(z0, params, &reserved)?;
    let assignments = assignments_for(team, &allocations, params);
    Ok(run_measurement(tor, target, &assignments, params, TargetBehavior::Honest, rng))
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

    #[test]
    fn measures_rate_limited_relay_accurately() {
        let (mut tor, team, relay) = testbed(Some(250.0));
        let params = Params::paper();
        let mut rng = SimRng::seed_from_u64(42);
        let m = measure_once(&mut tor, relay, &team, Rate::from_mbit(250.0), &params, &mut rng)
            .unwrap();
        let est = m.estimate.as_mbit();
        assert!((200.0..=270.0).contains(&est), "estimate {est} Mbit/s");
        assert!(m.verified());
        assert!(m.conclusive(&params), "should be conclusive with a correct prior");
        assert_eq!(m.seconds.len(), 30);
    }

    #[test]
    fn undershooting_prior_is_inconclusive() {
        // Target is ~890 Mbit/s but we allocate for a 100 Mbit/s prior:
        // the estimate saturates the allocation and fails the acceptance
        // test.
        let (mut tor, team, relay) = testbed(None);
        let params = Params::paper();
        let mut rng = SimRng::seed_from_u64(43);
        let m = measure_once(&mut tor, relay, &team, Rate::from_mbit(100.0), &params, &mut rng)
            .unwrap();
        assert!(!m.conclusive(&params), "estimate {} should be inconclusive", m.estimate);
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
        let mut rng = SimRng::seed_from_u64(44);
        let m = measure_once(&mut tor, relay, &team, Rate::from_mbit(200.0), &params, &mut rng)
            .unwrap();
        // The liar forwards no client traffic; its estimate is at most
        // 1/(1-r) = 1.33× its true capacity.
        let true_capacity = 200.0;
        let est = m.estimate.as_mbit();
        assert!(
            est <= true_capacity * params.max_inflation_factor() * 1.02,
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
        let m = run_measurement(
            &mut tor,
            relay,
            &assignments,
            &params,
            TargetBehavior::Forging { fraction: 1.0 },
            &mut rng,
        );
        assert!(!m.verified(), "forging an entire slot must be caught");
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
