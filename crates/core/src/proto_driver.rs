//! Running measurements *through* the control protocol (§4.1).
//!
//! [`measure_once`](crate::measure::measure_once) and friends call the
//! blast loop directly — coordinator and measurers share memory. This
//! module is the production-shaped path: a [`SlotRunner`] drives each
//! measurer and the target relay through `flashflow-proto` sessions
//! pumped by transport-agnostic engines, over simulated byte-stream
//! transports, and **only** session actions start or stop traffic.
//! Per-second byte counts cross the wire as `SecondReport` frames; the
//! estimate is computed from what the frames said, not from shared
//! state.
//!
//! The layering: the whole slot-packed batch is one
//! [`MeasurementEngine`] whose item `ix` is the batch's `ix`-th item —
//! the same shape the deployment's round driver
//! ([`crate::echo::run_round`]) steps against real processes. The
//! engine owns the coordinator side (sessions, barriers, timeouts,
//! events) and knows nothing about the simulator; this module owns the
//! *peer* side — it binds each `MeasurerSession` to the other end of
//! the simulated link, converts ticked flow bytes into `report_second`
//! calls, starts and stops blast flows in response to session actions,
//! and aggregates the [`EngineEvent`] stream into [`ProtoMeasurement`]s
//! via the [`SampleLedger`]. Swap this module's transports and peer
//! loop for TCP sockets and real measurer processes and the engine code
//! does not change — see `examples/tcp_coordinator.rs` and the
//! `flashflow-measurer` binary crate.
//!
//! One slot, per peer (measurers and the reporting target):
//!
//! 1. `Auth`/`AuthOk` with a per-peer pre-shared token and fresh nonce;
//! 2. `MeasureCmd` (fingerprint, slot seconds, socket share, rate cap `a_i`)
//!    answered by `Ready`;
//! 3. a `Go` barrier released only when every surviving peer is ready;
//! 4. `SecondReport` per completed second — measurers report echoed
//!    measurement bytes (`x_j` shares), the target reports background
//!    bytes (`y_j`);
//! 5. `SlotDone`, after which flows are torn down.
//!
//! A peer that fails authentication, stalls mid-handshake, goes silent
//! mid-slot, or loses its transport is aborted by its session timeout
//! (or transport error) and its contribution dropped: the measurement
//! *degrades* instead of wedging, and the slot always terminates (there
//! is also a hard wall-clock bound).

use flashflow_proto::endpoint::Endpoint;
use flashflow_proto::fault::{FaultMode, FaultyTransport};
use flashflow_proto::msg::{AbortReason, MeasureSpec, PeerRole, AUTH_TOKEN_LEN, FINGERPRINT_LEN};
use flashflow_proto::session::{
    CoordinatorSession, MeasurerAction, MeasurerSession, SessionTimeouts,
};
use flashflow_proto::transport::{Duplex, DuplexEnd};
use flashflow_simnet::engine::FlowId;
use flashflow_simnet::host::HostId;
use flashflow_simnet::rng::SimRng;
use flashflow_simnet::stats::{median, SecondsAccumulator};
use flashflow_simnet::time::SimDuration;
use flashflow_simnet::units::Rate;
use flashflow_tornet::netbuild::TorNet;
use flashflow_tornet::relay::RelayId;

use crate::alloc::AllocError;
use crate::engine::{EngineBuilder, EngineEvent, MeasurementEngine, SampleLedger};
use crate::measure::{assignments_for, build_second_samples, BatchItem, Measurement};
use crate::params::Params;
use crate::team::Team;
use crate::verify::{spot_check, TargetBehavior};

/// Transport and liveness knobs for a protocol-driven slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtoConfig {
    /// Session timeouts (handshake steps, report gaps).
    pub timeouts: SessionTimeouts,
    /// One-way latency of every control connection.
    pub control_latency: SimDuration,
    /// Stream chunk size; deliberately not frame-aligned so reassembly
    /// is exercised on every message.
    pub chunk: usize,
}

impl Default for ProtoConfig {
    fn default() -> Self {
        ProtoConfig {
            timeouts: SessionTimeouts::default(),
            control_latency: SimDuration::from_secs_f64(0.040),
            chunk: 97,
        }
    }
}

impl ProtoConfig {
    /// One control connection as this config describes it — the single
    /// place the simulated link's latency/chunking is turned into a
    /// transport.
    pub fn link(&self) -> Duplex {
        Duplex::new(self.control_latency, self.chunk)
    }
}

/// Fault injection for tests and failure-mode experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerFault {
    /// The measurer crashes after reporting this many seconds: flows
    /// stop and its end of the control connection goes dark (a
    /// transport-level blackhole; no further frames in either
    /// direction).
    StallAfterSeconds(u32),
}

/// Binds a fault to one measurer of one batch item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Index into the batch.
    pub item: usize,
    /// The measurer host to break.
    pub host: HostId,
    /// How it breaks.
    pub fault: PeerFault,
}

/// A peer whose session ended in failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerFailure {
    /// The measurer host, or `None` for the target's reporting session.
    pub host: Option<HostId>,
    /// The peer's protocol role.
    pub role: PeerRole,
    /// The abort reason its coordinator session recorded.
    pub reason: AbortReason,
}

/// A measurement that ran through the protocol, with provenance.
#[derive(Debug, Clone)]
pub struct ProtoMeasurement {
    /// The aggregate result (same type the direct path produces).
    pub measurement: Measurement,
    /// Peers that were aborted; empty for a clean slot.
    pub failures: Vec<PeerFailure>,
    /// Control frames sent by the coordinator, across its sessions.
    pub frames_tx: u64,
    /// Control frames received by the coordinator, across its sessions.
    pub frames_rx: u64,
    /// The per-second audit rows: each peer's reported rates, a
    /// target's next to the measurers' aggregated echo.
    pub rows: Vec<crate::engine::LedgerRow>,
}

impl ProtoMeasurement {
    /// True if every peer completed its session cleanly.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Deterministic 20-byte fingerprint for a simulated relay.
pub fn fingerprint_for(relay: RelayId) -> [u8; FINGERPRINT_LEN] {
    let mut fp = [0u8; FINGERPRINT_LEN];
    let ix = relay.index() as u64;
    fp[..8].copy_from_slice(&ix.to_be_bytes());
    // Spread the index through the rest so fingerprints look distinct.
    let mut h = ix.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xF1A5_00F1_A500_F1A5;
    for b in fp[8..].iter_mut() {
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        *b = (h & 0xFF) as u8;
    }
    fp
}

fn fresh_token(rng: &mut SimRng) -> [u8; AUTH_TOKEN_LEN] {
    let mut token = [0u8; AUTH_TOKEN_LEN];
    for chunk in token.chunks_mut(8) {
        let word = rng.next_u64().to_be_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    token
}

/// The peer side of one conversation: the measurer (or target) session
/// bound to its end of the simulated link, plus its local traffic state.
struct LocalPeer {
    item: usize,
    host: Option<HostId>,
    role: PeerRole,
    endpoint: Endpoint<MeasurerSession, FaultyTransport<DuplexEnd>>,
    /// Blast flows (measurer role only), live once started.
    flows: Vec<FlowId>,
    acc: SecondsAccumulator,
    reported: u32,
    /// Background seconds already forwarded (target role only).
    bg_sent: usize,
    processes: u32,
    fault: Option<PeerFault>,
    started: bool,
}

impl LocalPeer {
    fn stalled(&self) -> bool {
        match self.fault {
            Some(PeerFault::StallAfterSeconds(n)) => self.reported >= n,
            None => false,
        }
    }
}

/// Runs protocol-driven measurement slots against the fluid simulation:
/// the sim-facing front end of the [`MeasurementEngine`].
///
/// ```no_run
/// # use flashflow_core::prelude::*;
/// # use flashflow_simnet::prelude::*;
/// # use flashflow_tornet::prelude::*;
/// # fn demo(tor: &mut TorNet, relay: RelayId, team: &Team, rng: &mut SimRng) {
/// let params = Params::paper();
/// let result = SlotRunner::new(&params)
///     .measure(tor, relay, team, Rate::from_mbit(250.0), rng)
///     .unwrap();
/// assert!(result.clean());
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SlotRunner<'a> {
    params: &'a Params,
    cfg: ProtoConfig,
    faults: Vec<FaultSpec>,
}

impl<'a> SlotRunner<'a> {
    /// A runner with the default [`ProtoConfig`] and no faults.
    pub fn new(params: &'a Params) -> Self {
        SlotRunner { params, cfg: ProtoConfig::default(), faults: Vec::new() }
    }

    /// Overrides the transport/liveness knobs.
    #[must_use]
    pub fn with_config(mut self, cfg: ProtoConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Injects peer faults (failure-mode experiments).
    #[must_use]
    pub fn with_faults(mut self, faults: Vec<FaultSpec>) -> Self {
        self.faults = faults;
        self
    }

    /// Runs a batch of concurrent measurements entirely through
    /// protocol sessions. The contract mirrors
    /// [`run_concurrent_measurements`](crate::measure::run_concurrent_measurements):
    /// one result per item, in order.
    ///
    /// # Panics
    /// Panics if any item has no participating measurer or the slot is
    /// zero seconds.
    pub fn run(
        &self,
        tor: &mut TorNet,
        items: &[BatchItem],
        rng: &mut SimRng,
    ) -> Vec<ProtoMeasurement> {
        let slot_secs = self.params.slot.as_secs() as u32;
        assert!(slot_secs > 0, "slot must be at least one second");
        let now0 = tor.now();

        // Build every conversation: batch item `ix` is engine item
        // `ix`, with the coordinator half of each link in the engine
        // and the peer half kept by this runner. Both sides are filled
        // in the same order, so the engine's dense PeerIds index
        // `locals` directly.
        let mut builder = MeasurementEngine::builder();
        let mut locals: Vec<LocalPeer> = Vec::new();
        for (ix, item) in items.iter().enumerate() {
            let fp = fingerprint_for(item.target);
            let active: Vec<_> =
                item.assignments.iter().filter(|a| !a.allocation.is_zero()).collect();
            assert!(!active.is_empty(), "measurement needs at least one participating measurer");
            for a in &active {
                let spec = MeasureSpec {
                    relay_fp: fp,
                    slot_secs,
                    sockets: a.sockets,
                    rate_cap: a.allocation.bytes_per_sec() as u64,
                    ..MeasureSpec::default()
                };
                let fault =
                    self.faults.iter().find(|f| f.item == ix && f.host == a.host).map(|f| f.fault);
                self.add_peer(
                    &mut builder,
                    &mut locals,
                    ix,
                    Some(a.host),
                    PeerRole::Measurer,
                    spec,
                    a.processes.max(1),
                    fault,
                    rng,
                );
            }
            // The target relay's reporting session.
            let spec = MeasureSpec {
                relay_fp: fp,
                slot_secs,
                sockets: 0,
                rate_cap: 0,
                ..MeasureSpec::default()
            };
            self.add_peer(
                &mut builder,
                &mut locals,
                ix,
                None,
                PeerRole::Target,
                spec,
                0,
                None,
                rng,
            );
        }
        let mut engine = builder.build(now0);
        let mut ledger = SampleLedger::new();

        // Per-item records, filled from engine events.
        let mut failures: Vec<Vec<PeerFailure>> = vec![Vec::new(); items.len()];
        let mut governor_on: Vec<bool> = vec![false; items.len()];

        // Generous hard wall: handshake, slot, report-timeout drain, margin.
        let hard_deadline = now0
            + self.cfg.timeouts.handshake * 3
            + self.params.slot
            + self.cfg.timeouts.report * 3
            + SimDuration::from_secs(30);

        let dt = tor.net.engine().tick_duration().as_secs_f64();
        while !engine.is_finished() {
            let now = tor.now();
            if now >= hard_deadline {
                engine.abort_all(AbortReason::Shutdown);
            }

            tor.tick();
            let now = tor.now();

            // Account the tick's bytes and complete seconds at every peer.
            for p in locals.iter_mut() {
                match p.role {
                    PeerRole::Measurer => {
                        if !p.started || p.endpoint.is_terminal() {
                            continue;
                        }
                        let bytes: f64 =
                            p.flows.iter().map(|f| tor.net.engine().flow_bytes_last_tick(*f)).sum();
                        p.acc.push(bytes, dt);
                        while (p.reported as usize) < p.acc.seconds().len()
                            && !p.endpoint.is_terminal()
                        {
                            if p.stalled() {
                                // Crash simulation: traffic and the control
                                // connection both go dark; the
                                // coordinator's timeout must react.
                                for f in &p.flows {
                                    tor.net.engine_mut().stop_flow(*f);
                                }
                                p.endpoint.transport_mut().trip();
                                break;
                            }
                            let measured = p.acc.seconds()[p.reported as usize].round() as u64;
                            p.endpoint.session_mut().report_second(0, measured);
                            p.reported += 1;
                        }
                    }
                    PeerRole::Target => {
                        if !p.started || p.endpoint.is_terminal() {
                            continue;
                        }
                        let target = items[p.item].target;
                        let reports = tor.relay_background_seconds(target);
                        while p.bg_sent < reports.len() && !p.endpoint.is_terminal() {
                            let bg = reports[p.bg_sent].reported_background.round() as u64;
                            p.endpoint.session_mut().report_second(bg, 0);
                            p.bg_sent += 1;
                        }
                    }
                }
            }

            // Pump frames until this tick moves no more bytes, across
            // both halves of every conversation.
            loop {
                let mut moved = engine.pump(now);
                for p in locals.iter_mut() {
                    moved |= p.endpoint.pump(now);
                }
                if !moved {
                    break;
                }
            }

            // Peer-side actions: only these start or stop traffic.
            for p in locals.iter_mut() {
                while let Some(action) = p.endpoint.session_mut().poll_action() {
                    match action {
                        MeasurerAction::Prepare { .. } => {}
                        MeasurerAction::Start { spec } => {
                            p.started = true;
                            if p.role == PeerRole::Measurer {
                                let host = p.host.expect("measurer has host");
                                let target = items[p.item].target;
                                let k = p.processes;
                                let per_process_cap =
                                    Rate::from_bytes_per_sec(spec.rate_cap as f64 / f64::from(k));
                                let per_process_sockets = (spec.sockets / k).max(1);
                                for _ in 0..k {
                                    let flow = tor.start_measurement_flow(
                                        host,
                                        target,
                                        per_process_sockets,
                                        Some(per_process_cap),
                                    );
                                    p.flows.push(flow);
                                }
                            }
                        }
                        MeasurerAction::Stop => {
                            for f in &p.flows {
                                tor.net.engine_mut().stop_flow(*f);
                            }
                        }
                    }
                }
            }

            // Install the ratio governor once an item's surviving
            // measurers are all blasting (uniform control latency makes
            // this one tick).
            for ix in 0..items.len() {
                if governor_on[ix] {
                    continue;
                }
                let mut flows = Vec::new();
                let mut all_started = true;
                let mut any = false;
                for p in locals.iter().filter(|p| p.item == ix && p.role == PeerRole::Measurer) {
                    if p.endpoint.is_terminal() && !p.started {
                        continue; // failed before starting; degraded slot
                    }
                    any = true;
                    if p.started {
                        flows.extend(p.flows.iter().copied());
                    } else {
                        all_started = false;
                    }
                }
                if any && all_started && !flows.is_empty() {
                    tor.begin_measurement(items[ix].target, flows);
                    governor_on[ix] = true;
                }
            }

            // Coordinator side: actions → events, Go barriers, timeouts.
            engine.finish_tick(now);
            // Peer-side liveness: a peer mid-handshake whose coordinator
            // went silent gives up too.
            for p in locals.iter_mut() {
                p.endpoint.tick(now);
            }

            // Consume the tick's events.
            while let Some(event) = engine.poll_event() {
                ledger.observe(&event);
                match event {
                    EngineEvent::PeerFailed { peer, reason } => {
                        let local = &locals[peer.index()];
                        failures[local.item].push(PeerFailure {
                            host: local.host,
                            role: local.role,
                            reason,
                        });
                    }
                    EngineEvent::ItemComplete { item } => {
                        // Tear the item down so the network returns to
                        // normal.
                        if governor_on[item] {
                            tor.end_measurement(items[item].target);
                        }
                        for p in locals.iter().filter(|p| p.item == item) {
                            for f in &p.flows {
                                tor.net.engine_mut().stop_flow(*f);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        // Aggregate exactly as §4.1 specifies, from what crossed the
        // wire — only peers whose sessions completed cleanly contribute
        // (the ledger enforces the quarantine).
        items
            .iter()
            .enumerate()
            .map(|(ix, item)| {
                let ratio = tor.relay(item.target).config.ratio;
                let (x, y) = ledger.merged_series(&engine, ix);
                let seconds = build_second_samples(&x, &y, ratio);
                let z_values: Vec<f64> = seconds.iter().map(|s| s.z).collect();
                let estimate = Rate::from_bytes_per_sec(median(&z_values).unwrap_or(0.0));
                let total_measurement_bytes: f64 = seconds.iter().map(|s| s.x).sum();
                let verification = spot_check(
                    total_measurement_bytes,
                    self.params.check_probability,
                    item.behavior,
                    rng,
                );
                let allocated: Rate = item
                    .assignments
                    .iter()
                    .filter(|a| !a.allocation.is_zero())
                    .map(|a| a.allocation)
                    .sum();
                let (mut frames_tx, mut frames_rx) = (0u64, 0u64);
                for peer in engine.peers().filter(|p| engine.item(*p) == ix) {
                    let (tx, rx) = engine.frames(peer);
                    frames_tx += tx;
                    frames_rx += rx;
                }
                ProtoMeasurement {
                    measurement: Measurement { estimate, seconds, allocated, verification },
                    failures: failures[ix].clone(),
                    frames_tx,
                    frames_rx,
                    rows: ledger.rows(&engine, ix),
                }
            })
            .collect()
    }

    /// Runs one protocol-driven measurement of `target` with the given
    /// assignments (the protocol twin of
    /// [`run_measurement`](crate::measure::run_measurement)).
    ///
    /// # Panics
    /// Panics if no assignment participates.
    pub fn run_one(
        &self,
        tor: &mut TorNet,
        target: RelayId,
        assignments: &[crate::measure::Assignment],
        behavior: TargetBehavior,
        rng: &mut SimRng,
    ) -> ProtoMeasurement {
        let items = vec![BatchItem { target, assignments: assignments.to_vec(), behavior }];
        self.run(tor, &items, rng).pop().expect("one item yields one measurement")
    }

    /// Convenience: allocate from `team` for prior `z0` and run one
    /// protocol-driven measurement of an honest target (the protocol
    /// twin of [`measure_once`](crate::measure::measure_once)).
    ///
    /// # Errors
    /// Propagates allocation failure when the team lacks capacity.
    pub fn measure(
        &self,
        tor: &mut TorNet,
        target: RelayId,
        team: &Team,
        z0: Rate,
        rng: &mut SimRng,
    ) -> Result<ProtoMeasurement, AllocError> {
        let reserved = vec![Rate::ZERO; team.len()];
        let allocations = team.allocate(z0, self.params, &reserved)?;
        let assignments = assignments_for(team, &allocations, self.params);
        Ok(self.run_one(tor, target, &assignments, TargetBehavior::Honest, rng))
    }

    #[allow(clippy::too_many_arguments)]
    fn add_peer(
        &self,
        builder: &mut EngineBuilder,
        locals: &mut Vec<LocalPeer>,
        item: usize,
        host: Option<HostId>,
        role: PeerRole,
        spec: MeasureSpec,
        processes: u32,
        fault: Option<PeerFault>,
        rng: &mut SimRng,
    ) {
        let token = fresh_token(rng);
        let nonce = rng.next_u64();
        let coord = CoordinatorSession::new(token, role, spec, nonce, self.cfg.timeouts);
        let (coord_end, peer_end) = self.cfg.link().into_endpoints();
        builder.add_peer(item, coord, Box::new(coord_end));
        let session = MeasurerSession::new(token, role, rng.next_u64(), self.cfg.timeouts);
        locals.push(LocalPeer {
            item,
            host,
            role,
            endpoint: Endpoint::new(session, FaultyTransport::new(peer_end, FaultMode::Blackhole)),
            flows: Vec::new(),
            acc: SecondsAccumulator::new(),
            reported: 0,
            bg_sent: 0,
            processes,
            fault,
            started: false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_simnet::host::HostProfile;
    use flashflow_tornet::relay::RelayConfig;

    fn testbed(limit_mbit: f64) -> (TorNet, Team, RelayId) {
        let mut tor = TorNet::new();
        let m1 = tor.add_host(HostProfile::us_e());
        let m2 = tor.add_host(HostProfile::host_nl());
        let target_host = tor.add_host(HostProfile::us_sw());
        tor.net.set_rtt(m1, target_host, SimDuration::from_millis(62));
        tor.net.set_rtt(m2, target_host, SimDuration::from_millis(137));
        let relay = tor.add_relay(
            target_host,
            RelayConfig::new("target").with_rate_limit(Rate::from_mbit(limit_mbit)),
        );
        let team =
            Team::with_capacities(&[(m1, Rate::from_mbit(941.0)), (m2, Rate::from_mbit(1611.0))]);
        (tor, team, relay)
    }

    #[test]
    fn protocol_slot_measures_rate_limited_relay() {
        let (mut tor, team, relay) = testbed(250.0);
        let params = Params::paper();
        let mut rng = SimRng::seed_from_u64(7);
        let m = SlotRunner::new(&params)
            .measure(&mut tor, relay, &team, Rate::from_mbit(250.0), &mut rng)
            .unwrap();
        assert!(m.clean(), "failures: {:?}", m.failures);
        let est = m.measurement.estimate.as_mbit();
        assert!((200.0..=270.0).contains(&est), "estimate {est} Mbit/s");
        assert_eq!(m.measurement.seconds.len(), 30);
        assert!(m.measurement.verified());
        // Greedy allocation fits f·z0 on the larger measurer alone, so
        // two sessions run (one measurer + the target): Auth +
        // MeasureCmd + Go toward each; AuthOk + Ready + 30 reports +
        // SlotDone back from each.
        assert_eq!(m.frames_tx, 2 * 3);
        assert_eq!(m.frames_rx, 2 * 33);
    }

    #[test]
    fn fingerprints_are_distinct_and_stable() {
        let (mut tor, _, _) = testbed(100.0);
        let h = tor.add_host(HostProfile::new("x", Rate::from_gbit(1.0)));
        let r1 = tor.add_relay(h, RelayConfig::new("a"));
        let r2 = tor.add_relay(h, RelayConfig::new("b"));
        assert_ne!(fingerprint_for(r1), fingerprint_for(r2));
        assert_eq!(fingerprint_for(r1), fingerprint_for(r1));
    }
}
