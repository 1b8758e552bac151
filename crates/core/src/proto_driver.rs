//! Running measurements *through* the control protocol (§4.1), in memory.
//!
//! [`measure_once`](crate::measure::measure_once) and friends call the
//! blast loop directly — coordinator and measurers share memory. This
//! module is the production-shaped path: [`run_in_memory`] drives every
//! measurer and target relay of a round through `flashflow-proto`
//! sessions over simulated byte-stream transports, and **only** session
//! actions start or stop traffic. Per-second byte counts cross the wire
//! as `SecondReport` frames; the estimate is computed from what the
//! frames said, not from shared state.
//!
//! The layering: a round is one [`MeasurementEngine`] whose item `g` is
//! the round's `g`-th item — the same shape the deployment's round
//! driver ([`crate::echo::run_round`]) steps against real processes. The
//! engine owns the coordinator side (sessions, barriers, timeouts,
//! events) and knows nothing about the simulator. [`run_in_memory`] owns the
//! peer side's plumbing: each `MeasurerSession` bound to the other end of
//! its simulated link, the per-tick order. It returns the engine's
//! [`EngineSnapshot`], the same record a deployment round returns. What
//! the peers *do* is its one parameter, a [`PeerBehaviour`]:
//!
//! * [`SlotRunner`]: `TorNet` flows under the ratio governor, the
//!   fluid-simulation front end;
//! * [`run_scripted`]: fixed-rate [`ScriptedPeer`]s, the deterministic
//!   reference a deployment's numbers are compared against.
//!
//! Swap the transports and peers for TCP sockets and real measurer
//! processes and the engine code does not change — see
//! `examples/tcp_coordinator.rs` and the `flashflow-measurer` binary crate.
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
//! *degrades* instead of wedging, and the round always terminates (there
//! is also a hard deadline).

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
use flashflow_simnet::stats::SecondsAccumulator;
use flashflow_simnet::time::{SimDuration, SimTime};
use flashflow_simnet::units::Rate;
use flashflow_tornet::netbuild::TorNet;
use flashflow_tornet::relay::RelayId;

use crate::alloc::AllocError;
use crate::engine::{EngineEvent, EngineSnapshot, MeasurementEngine, DEFAULT_BACKGROUND_RATIO};
use crate::measure::{assignments_for, BatchItem, Measurement};
use crate::params::Params;
use crate::team::Team;
use crate::verify::{spot_check, TargetBehavior};

/// What the peers of an in-memory round do: the one parameter of
/// [`run_in_memory`]. A peer is named by its index in the slice handed to
/// `run_in_memory`.
pub trait PeerBehaviour {
    /// The clock.
    fn now(&self) -> SimTime;
    /// Advances the world one tick: the clock, and any traffic.
    fn advance(&mut self);
    /// Carries out one of `peer`'s session actions; only these start or
    /// stop traffic.
    fn act(&mut self, peer: usize, action: MeasurerAction, now: SimTime);
    /// Second `j` of `peer`'s slot as `(bg, measured)` bytes, once it has
    /// completed.
    fn second(&self, peer: usize, j: u32) -> Option<(u64, u64)>;
    /// Reported seconds after which `peer` stalls: it is told to `Stop`
    /// and its end of the control link goes dark.
    fn stall_after(&self, _peer: usize) -> Option<u32> {
        None
    }
    /// Sees every engine event as the round collects it.
    fn observe(&mut self, _event: &EngineEvent) {}
}

/// What an in-memory round left behind: every engine event in order,
/// and the round's record.
#[derive(Debug)]
pub struct RoundRun {
    /// Every event, per-item order preserved.
    pub events: Vec<EngineEvent>,
    /// Final state and reports of every conversation.
    pub peers: EngineSnapshot,
}

/// The peer half of one conversation.
struct LocalPeer {
    endpoint: Endpoint<MeasurerSession, FaultyTransport<DuplexEnd>>,
    started: bool,
    reported: u32,
}

/// Runs one round to completion in memory. Peer `ix` is `peers[ix]`, an
/// `(item, role, command)` triple: its coordinator session joins one
/// engine under `item`, its own session sits at the far end of a
/// simulated link (40 ms one way, re-chunked at 97 bytes so every message
/// is reassembled), and both share a token drawn from `rng`.
///
/// Each tick, in order: the world advances, every started peer reports
/// its completed seconds, both halves pump to quiescence, session actions
/// go to `behaviour`, the engine finishes the tick, the peers tick, and
/// the events are collected. A hard deadline ends the round even if a
/// behaviour never completes a second.
pub fn run_in_memory(
    behaviour: &mut impl PeerBehaviour,
    peers: &[(usize, PeerRole, MeasureSpec)],
    rng: &mut SimRng,
) -> RoundRun {
    let timeouts = SessionTimeouts::default();
    let now0 = behaviour.now();
    let slot_secs = peers.iter().map(|p| p.2.slot_secs).max().unwrap_or(0);
    // Generous: handshake, slot, report-timeout drain, margin.
    let deadline = now0
        + timeouts.handshake * 3
        + SimDuration::from_secs(slot_secs.into())
        + timeouts.report * 3
        + SimDuration::from_secs(30);
    let mut builder = MeasurementEngine::builder().hard_deadline(deadline);
    let mut locals = Vec::with_capacity(peers.len());
    for &(item, role, spec) in peers {
        let token = fresh_token(rng);
        let coord = CoordinatorSession::new(token, role, spec, rng.next_u64(), timeouts);
        let (coord_end, peer_end) = Duplex::new(SimDuration::from_millis(40), 97).into_endpoints();
        builder.add_peer(item, coord, Box::new(coord_end));
        let session = MeasurerSession::new(token, role, rng.next_u64(), timeouts);
        locals.push(LocalPeer {
            endpoint: Endpoint::new(session, FaultyTransport::new(peer_end, FaultMode::Blackhole)),
            started: false,
            reported: 0,
        });
    }
    let mut engine = builder.build(now0);
    let mut events = Vec::new();
    while !engine.is_finished() {
        behaviour.advance();
        let now = behaviour.now();
        for (ix, p) in locals.iter_mut().enumerate() {
            while p.started && !p.endpoint.is_terminal() && !p.endpoint.transport().is_tripped() {
                let Some((bg, measured)) = behaviour.second(ix, p.reported) else { break };
                if behaviour.stall_after(ix).is_some_and(|n| p.reported >= n) {
                    // A crash: traffic and the control connection both go
                    // dark; the coordinator's timeout must react.
                    behaviour.act(ix, MeasurerAction::Stop, now);
                    p.endpoint.transport_mut().trip();
                } else {
                    p.endpoint.session_mut().report_second(bg, measured);
                    p.reported += 1;
                }
            }
        }
        loop {
            let mut moved = engine.pump(now);
            for p in locals.iter_mut() {
                moved |= p.endpoint.pump(now);
            }
            if !moved {
                break;
            }
        }
        for (ix, p) in locals.iter_mut().enumerate() {
            while let Some(action) = p.endpoint.session_mut().poll_action() {
                p.started |= matches!(action, MeasurerAction::Start { .. });
                behaviour.act(ix, action, now);
            }
        }
        engine.finish_tick(now);
        // A peer mid-handshake whose coordinator went silent gives up too.
        for p in locals.iter_mut() {
            p.endpoint.tick(now);
        }
        while let Some(event) = engine.poll_event() {
            behaviour.observe(&event);
            events.push(event);
        }
    }
    RoundRun { events, peers: engine.snapshot() }
}

fn fresh_token(rng: &mut SimRng) -> [u8; AUTH_TOKEN_LEN] {
    let mut token = [0u8; AUTH_TOKEN_LEN];
    for chunk in token.chunks_mut(8) {
        let word = rng.next_u64().to_be_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    token
}

/// One fixed-rate peer of an item: its role and the constant per-second
/// byte counts it reports once its slot starts.
#[derive(Debug, Clone, Copy)]
pub struct ScriptedPeer {
    /// Protocol role.
    pub role: PeerRole,
    /// Background bytes reported per second (`y_j` share).
    pub bg: u64,
    /// Measurement bytes reported per second (`x_j` share).
    pub measured: u64,
}

impl ScriptedPeer {
    /// A measurer blasting `rate` bytes per second.
    pub fn measurer(rate: u64) -> Self {
        ScriptedPeer { role: PeerRole::Measurer, bg: 0, measured: rate }
    }

    /// The target reporting `bg` background bytes per second.
    pub fn target(bg: u64) -> Self {
        ScriptedPeer { role: PeerRole::Target, bg, measured: 0 }
    }
}

/// Fixed-rate peers on a clock of one simulated second per tick.
struct Scripted {
    now: SimTime,
    peers: Vec<ScriptedPeer>,
    started: Vec<Option<SimTime>>,
}

impl PeerBehaviour for Scripted {
    fn now(&self) -> SimTime {
        self.now
    }
    fn advance(&mut self) {
        self.now += SimDuration::from_secs(1);
    }
    fn act(&mut self, peer: usize, action: MeasurerAction, now: SimTime) {
        if matches!(action, MeasurerAction::Start { .. }) {
            self.started[peer] = Some(now);
        }
    }
    fn second(&self, peer: usize, j: u32) -> Option<(u64, u64)> {
        let elapsed = self.now.duration_since(self.started[peer]?).as_secs();
        let p = self.peers[peer];
        (u64::from(j) < elapsed).then_some((p.bg, p.measured))
    }
}

/// Runs fixed-rate peers through one round on [`run_in_memory`]: item `g` of
/// the round is `items[g]`, every peer commanded a `slot_secs` slot.
pub fn run_scripted(items: &[Vec<ScriptedPeer>], slot_secs: u32) -> RoundRun {
    let (mut behaviour, peers) = scripted(items, slot_secs);
    run_in_memory(&mut behaviour, &peers, &mut SimRng::seed_from_u64(0))
}

fn scripted(
    items: &[Vec<ScriptedPeer>],
    slot_secs: u32,
) -> (Scripted, Vec<(usize, PeerRole, MeasureSpec)>) {
    let spec = MeasureSpec { slot_secs, ..MeasureSpec::default() };
    let peers: Vec<_> = items
        .iter()
        .enumerate()
        .flat_map(|(g, item)| item.iter().map(move |p| (g, p.role, spec)))
        .collect();
    let started = vec![None; peers.len()];
    (Scripted { now: SimTime::ZERO, peers: items.concat(), started }, peers)
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

/// One peer of a [`SlotRunner`] batch and its traffic.
struct TorPeer {
    item: usize,
    /// The measurer host, or `None` for the target's reporting session.
    host: Option<HostId>,
    processes: u32,
    stall: Option<u32>,
    /// Blast flows (measurer role only), live once started.
    flows: Vec<FlowId>,
    acc: SecondsAccumulator,
    started: bool,
    /// Stopped, or failed before it started.
    ended: bool,
}

impl TorPeer {
    fn new(item: usize, host: Option<HostId>, processes: u32, stall: Option<u32>) -> Self {
        TorPeer {
            item,
            host,
            processes,
            stall,
            flows: Vec::new(),
            acc: SecondsAccumulator::new(),
            started: false,
            ended: false,
        }
    }
}

/// [`SlotRunner`]'s behaviour: each measurer is `TorNet` blast flows, each
/// target its relay's background reports, under the ratio governor.
struct TorPeers<'t> {
    tor: &'t mut TorNet,
    items: &'t [BatchItem],
    peers: Vec<TorPeer>,
    governed: Vec<bool>,
}

impl TorPeers<'_> {
    /// Installs `item`'s ratio governor once its surviving measurers are
    /// all blasting (uniform control latency makes this one tick).
    fn govern(&mut self, item: usize) {
        let measurers = self.peers.iter().filter(|p| p.item == item && p.host.is_some());
        if self.governed[item] || !measurers.clone().all(|p| p.started || p.ended) {
            return;
        }
        let flows: Vec<FlowId> = measurers.flat_map(|p| p.flows.iter().copied()).collect();
        if !flows.is_empty() {
            self.tor.begin_measurement(self.items[item].target, flows);
            self.governed[item] = true;
        }
    }

    fn stop_flows(&mut self, peer: usize) {
        for f in &self.peers[peer].flows {
            self.tor.net.engine_mut().stop_flow(*f);
        }
    }
}

impl PeerBehaviour for TorPeers<'_> {
    fn now(&self) -> SimTime {
        self.tor.now()
    }

    fn advance(&mut self) {
        self.tor.tick();
        let engine = self.tor.net.engine();
        let dt = engine.tick_duration().as_secs_f64();
        for p in self.peers.iter_mut().filter(|p| p.host.is_some() && p.started && !p.ended) {
            let bytes: f64 = p.flows.iter().map(|f| engine.flow_bytes_last_tick(*f)).sum();
            p.acc.push(bytes, dt);
        }
    }

    fn act(&mut self, peer: usize, action: MeasurerAction, _now: SimTime) {
        let p = &mut self.peers[peer];
        match action {
            MeasurerAction::Prepare { .. } => {}
            MeasurerAction::Start { spec } => {
                p.started = true;
                if let Some(host) = p.host {
                    let target = self.items[p.item].target;
                    let k = p.processes;
                    let per_process_cap =
                        Rate::from_bytes_per_sec(spec.rate_cap as f64 / f64::from(k));
                    let per_process_sockets = (spec.sockets / k).max(1);
                    for _ in 0..k {
                        let flow = self.tor.start_measurement_flow(
                            host,
                            target,
                            per_process_sockets,
                            Some(per_process_cap),
                        );
                        p.flows.push(flow);
                    }
                    let item = p.item;
                    self.govern(item);
                }
            }
            MeasurerAction::Stop => {
                p.ended = true;
                self.stop_flows(peer);
            }
        }
    }

    fn second(&self, peer: usize, j: u32) -> Option<(u64, u64)> {
        let p = &self.peers[peer];
        match p.host {
            Some(_) => p.acc.seconds().get(j as usize).map(|x| (0, x.round() as u64)),
            None => self
                .tor
                .relay_background_seconds(self.items[p.item].target)
                .get(j as usize)
                .map(|s| (s.reported_background.round() as u64, 0)),
        }
    }

    fn stall_after(&self, peer: usize) -> Option<u32> {
        self.peers[peer].stall
    }

    fn observe(&mut self, event: &EngineEvent) {
        match *event {
            EngineEvent::PeerFailed { peer, .. } => {
                // One that failed before starting degrades its item
                // instead of holding the governor back.
                let p = &mut self.peers[peer.index()];
                p.ended = true;
                let item = p.item;
                self.govern(item);
            }
            EngineEvent::ItemComplete { item } => {
                // Tear the item down so the network returns to normal.
                if self.governed[item] {
                    self.tor.end_measurement(self.items[item].target);
                }
                for peer in 0..self.peers.len() {
                    if self.peers[peer].item == item {
                        self.stop_flows(peer);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Runs protocol-driven measurement slots against the fluid simulation:
/// the sim-facing front end of [`run_in_memory`].
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
    faults: Vec<FaultSpec>,
}

impl<'a> SlotRunner<'a> {
    /// A runner with no faults.
    pub fn new(params: &'a Params) -> Self {
        SlotRunner { params, faults: Vec::new() }
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
        // Batch item `ix` is round item `ix`: its measurers, then its
        // target's reporting session.
        let mut specs = Vec::new();
        let mut peers = Vec::new();
        for (ix, item) in items.iter().enumerate() {
            let relay_fp = fingerprint_for(item.target);
            let mut active = item.assignments.iter().filter(|a| !a.allocation.is_zero()).peekable();
            assert!(
                active.peek().is_some(),
                "measurement needs at least one participating measurer"
            );
            for a in active {
                let spec = MeasureSpec {
                    relay_fp,
                    slot_secs,
                    sockets: a.sockets,
                    rate_cap: a.allocation.bytes_per_sec() as u64,
                    ..MeasureSpec::default()
                };
                let fault = self.faults.iter().find(|f| f.item == ix && f.host == a.host);
                let stall =
                    fault.map(|&FaultSpec { fault: PeerFault::StallAfterSeconds(n), .. }| n);
                specs.push((ix, PeerRole::Measurer, spec));
                peers.push(TorPeer::new(ix, Some(a.host), a.processes.max(1), stall));
            }
            specs.push((
                ix,
                PeerRole::Target,
                MeasureSpec { relay_fp, slot_secs, ..MeasureSpec::default() },
            ));
            peers.push(TorPeer::new(ix, None, 0, None));
        }
        let mut behaviour = TorPeers { tor, items, peers, governed: vec![false; items.len()] };
        let run = run_in_memory(&mut behaviour, &specs, rng);
        let TorPeers { tor, peers, .. } = behaviour;

        // Aggregate exactly as §4.1 specifies, from what crossed the
        // wire — only peers whose sessions completed cleanly contribute
        // (the snapshot enforces the quarantine).
        items
            .iter()
            .enumerate()
            .map(|(ix, item)| {
                let ratio = tor.relay(item.target).config.ratio;
                let (seconds, estimate) = run.peers.estimate(ix, ratio);
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
                let failures = run
                    .events
                    .iter()
                    .filter_map(|event| match *event {
                        EngineEvent::PeerFailed { peer, reason } => {
                            let (p, role) = (&peers[peer.index()], run.peers.role(peer));
                            (p.item == ix).then_some(PeerFailure { host: p.host, role, reason })
                        }
                        _ => None,
                    })
                    .collect();
                let (mut frames_tx, mut frames_rx) = (0u64, 0u64);
                for peer in run.peers.peers().filter(|p| run.peers.item(*p) == ix) {
                    let (tx, rx) = run.peers.frames(peer);
                    frames_tx += tx;
                    frames_rx += rx;
                }
                ProtoMeasurement {
                    measurement: Measurement { estimate, seconds, allocated, verification },
                    failures,
                    frames_tx,
                    frames_rx,
                    rows: run.peers.rows(ix, DEFAULT_BACKGROUND_RATIO),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PeerId;
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

    /// Item `g`'s events: its Go, samples and completion.
    fn events_of(events: &[EngineEvent], g: usize) -> Vec<&EngineEvent> {
        events
            .iter()
            .filter(|e| match **e {
                EngineEvent::GoReleased { item, .. }
                | EngineEvent::Sample { item, .. }
                | EngineEvent::ItemComplete { item } => item == g,
                _ => false,
            })
            .collect()
    }

    #[test]
    fn every_item_completes_with_ordered_events_and_its_own_series() {
        const SLOT_SECS: u32 = 3;
        let items: Vec<Vec<ScriptedPeer>> = (0..10u64)
            .map(|g| {
                let rate = 1_000 * (g + 1);
                vec![ScriptedPeer::measurer(rate), ScriptedPeer::target(rate / 10)]
            })
            .collect();
        let run = run_scripted(&items, SLOT_SECS);
        assert!(run.peers.all_clean());
        assert_eq!(run.peers.item_count(), 10);
        for g in 0..10 {
            // Per-item event order: Go before every sample, one
            // ItemComplete at the end.
            let of_g = events_of(&run.events, g);
            assert!(matches!(of_g.first(), Some(EngineEvent::GoReleased { .. })), "{of_g:?}");
            assert!(matches!(of_g.last(), Some(EngineEvent::ItemComplete { .. })), "{of_g:?}");
            assert_eq!(of_g.len(), 2 + 2 * SLOT_SECS as usize, "item {g}: {of_g:?}");
            let (x, y) = run.peers.merged_series(g);
            let rate = 1_000.0 * (g as f64 + 1.0);
            assert_eq!(x, vec![rate; SLOT_SECS as usize], "item {g}");
            assert_eq!(y, vec![(rate / 10.0).floor(); SLOT_SECS as usize], "item {g}");
        }
    }

    /// Fixed-rate peers of which peer 0 stalls after two reported seconds.
    struct FirstStalls(Scripted);

    impl PeerBehaviour for FirstStalls {
        fn now(&self) -> SimTime {
            self.0.now()
        }
        fn advance(&mut self) {
            self.0.advance();
        }
        fn act(&mut self, peer: usize, action: MeasurerAction, now: SimTime) {
            self.0.act(peer, action, now);
        }
        fn second(&self, peer: usize, j: u32) -> Option<(u64, u64)> {
            self.0.second(peer, j)
        }
        fn stall_after(&self, peer: usize) -> Option<u32> {
            (peer == 0).then_some(2)
        }
    }

    #[test]
    fn a_stalled_scripted_measurer_degrades_only_its_own_item() {
        const SLOT_SECS: u32 = 3;
        let item =
            vec![ScriptedPeer::measurer(100), ScriptedPeer::measurer(50), ScriptedPeer::target(30)];
        let (scripted, peers) = scripted(&[item.clone(), item.clone(), item], SLOT_SECS);
        let run = run_in_memory(&mut FirstStalls(scripted), &peers, &mut SimRng::seed_from_u64(3));
        let pos = |want: EngineEvent| {
            run.events
                .iter()
                .position(|e| *e == want)
                .unwrap_or_else(|| panic!("{want:?} missing: {:?}", run.events))
        };
        // Item 0's first measurer goes silent after two seconds and is
        // aborted by the report timeout; only then does item 0 complete.
        let stalled = pos(EngineEvent::PeerFailed {
            peer: PeerId::from_index(0),
            reason: AbortReason::ReportTimeout,
        });
        assert!(stalled < pos(EngineEvent::ItemComplete { item: 0 }), "{:?}", run.events);
        assert_eq!(
            run.events.iter().filter(|e| matches!(e, EngineEvent::PeerFailed { .. })).count(),
            1,
            "{:?}",
            run.events
        );
        // Its clean measurer and target still merge; the stalled one's two
        // seconds do not.
        assert!(!run.peers.item_clean(0));
        let rows = run.peers.rows(0, DEFAULT_BACKGROUND_RATIO);
        assert_eq!(rows.iter().filter(|r| r.peer == PeerId::from_index(0)).count(), 2);
        let (x, y) = run.peers.merged_series(0);
        assert_eq!((x, y), (vec![50.0; 3], vec![30.0; 3]));
        for g in [1, 2] {
            assert!(run.peers.item_clean(g), "item {g}");
            assert!(pos(EngineEvent::ItemComplete { item: g }) < stalled, "item {g}");
            assert_eq!(events_of(&run.events, g).len(), 2 + 3 * SLOT_SECS as usize, "item {g}");
            let (x, y) = run.peers.merged_series(g);
            assert_eq!((x, y), (vec![150.0; 3], vec![30.0; 3]), "item {g}");
        }
    }
}
