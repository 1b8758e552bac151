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
//! the peers *do* is its one parameter, a [`PeerBehaviour`];
//! [`run_scripted`] runs fixed-rate [`ScriptedPeer`]s, the deterministic
//! reference a deployment's numbers are compared against.
//!
//! Swap the transports and peers for TCP sockets and real measurer
//! processes and the engine code does not change — see
//! [`crate::echo::run_rounds`] and the `flashflow-measurer` binary crate.
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
use flashflow_proto::msg::{MeasureSpec, PeerRole, AUTH_TOKEN_LEN};
use flashflow_proto::session::{
    CoordinatorSession, MeasurerAction, MeasurerSession, SessionTimeouts,
};
use flashflow_proto::transport::{Duplex, DuplexEnd};
use flashflow_simnet::rng::SimRng;
use flashflow_simnet::time::{SimDuration, SimTime};

use crate::engine::{EngineEvent, EngineSnapshot, MeasurementEngine};

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
        events.extend(std::iter::from_fn(|| engine.poll_event()));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PeerId;
    use crate::params::Params;
    use flashflow_proto::msg::AbortReason;

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
        let rows = run.peers.rows(0, Params::paper().ratio);
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
