//! The coordinator's event loop: N sessions, any transport.
//!
//! [`MeasurementEngine`] is the transport-agnostic heart of a FlashFlow
//! coordinator. It owns one [`CoordinatorSession`] per peer (measurers
//! and reporting targets), pumps all of them in a batch per tick over
//! whatever [`Transport`]s they were built with, releases each
//! measurement item's `Go` barrier when every surviving peer is armed,
//! fires timeouts, and surfaces everything that matters as typed
//! [`EngineEvent`]s — it never touches a network model, a socket
//! library, or a clock. Time enters exclusively through
//! [`MeasurementEngine::step`], so the same engine drives:
//!
//! * the in-memory executor (`proto_driver::run_in_memory` feeds it
//!   simulated time and in-memory transports, with the fluid
//!   simulation's flows or fixed-rate reference peers behind them),
//! * real TCP connections to measurer processes (wall-clock time mapped
//!   to [`SimTime`], see `examples/tcp_coordinator.rs`),
//! * fault-injection harnesses
//!   ([`FaultyTransport`](flashflow_proto::fault::FaultyTransport)
//!   underneath — a mid-slot disconnect aborts the affected session in
//!   bounded time).
//!
//! An *item* is one concurrent measurement (one target relay); peers are
//! grouped by item for the `Go` barrier and completion tracking, which is
//! what lets a single engine run a whole round of concurrent items on
//! one thread: no session, barrier, or timeout ever crosses an item
//! boundary, so a stalling peer delays only its own item.
//!
//! Security invariant carried over from the sessions: per-second samples
//! are quarantined per peer by [`SampleLedger`] and only merged into an
//! estimate if that peer's session ended cleanly ([`CoordPhase::Done`]),
//! so a peer that lies and then stalls contributes nothing.

use std::collections::VecDeque;

use flashflow_proto::endpoint::Endpoint;
use flashflow_proto::msg::{AbortReason, MeasureSpec, PeerRole};
use flashflow_proto::session::{CoordAction, CoordPhase, CoordinatorSession};
use flashflow_proto::transport::Transport;
use flashflow_simnet::time::SimTime;

/// Pump rounds one [`MeasurementEngine::step`] will run before declaring
/// the tick done anyway. Endpoints hang up once their session is
/// terminal, so a pump loop normally quiesces within a handful of
/// rounds; this bound is the wall that guarantees a single `step` — and
/// therefore the hard deadline check — cannot be wedged by a transport
/// that always claims progress.
const MAX_PUMP_ROUNDS: usize = 64;

/// Identifies one coordinator↔peer conversation within an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(usize);

impl PeerId {
    /// Dense index (assignment order), usable for side tables.
    pub fn index(self) -> usize {
        self.0
    }

    /// Rehydrates an id from its dense index (crate-internal: event
    /// translation and tests).
    #[cfg(test)]
    pub(crate) fn from_index(index: usize) -> PeerId {
        PeerId(index)
    }
}

/// Everything a driver can observe from the engine, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// The peer authenticated and reported ready for its command.
    PeerReady {
        /// Which conversation.
        peer: PeerId,
    },
    /// Every surviving peer of `item` was armed; `Go` frames are queued.
    GoReleased {
        /// Which measurement item.
        item: usize,
        /// When the barrier was released.
        at: SimTime,
    },
    /// One per-second report arrived (already order- and range-checked
    /// by the session).
    Sample {
        /// Which conversation.
        peer: PeerId,
        /// Which measurement item.
        item: usize,
        /// Zero-based second index.
        second: u32,
        /// Reported background bytes (`y_j` share; targets).
        bg_bytes: u64,
        /// Reported measurement bytes (`x_j` share; measurers).
        measured_bytes: u64,
    },
    /// The peer finished its slot cleanly.
    PeerDone {
        /// Which conversation.
        peer: PeerId,
    },
    /// The peer's session died; its samples must not be trusted.
    PeerFailed {
        /// Which conversation.
        peer: PeerId,
        /// Why.
        reason: AbortReason,
    },
    /// Every conversation of `item` reached a terminal phase.
    ItemComplete {
        /// Which measurement item.
        item: usize,
    },
}

/// One conversation: a coordinator session bound to its transport, plus
/// engine bookkeeping.
struct Channel {
    endpoint: Endpoint<CoordinatorSession, Box<dyn Transport>>,
    item: usize,
}

/// Builder for a [`MeasurementEngine`].
///
/// ```
/// use flashflow_core::engine::MeasurementEngine;
/// use flashflow_proto::msg::{MeasureSpec, PeerRole, AUTH_TOKEN_LEN, FINGERPRINT_LEN};
/// use flashflow_proto::session::{CoordinatorSession, SessionTimeouts};
/// use flashflow_proto::transport::Duplex;
/// use flashflow_simnet::time::SimTime;
///
/// let spec = MeasureSpec { relay_fp: [0; FINGERPRINT_LEN], slot_secs: 30, sockets: 80, rate_cap: 0, ..MeasureSpec::default() };
/// let (coord_end, _peer_end) = Duplex::loopback().into_endpoints();
/// let mut builder = MeasurementEngine::builder();
/// let peer = builder.add_peer(
///     0, // item
///     CoordinatorSession::new([7; AUTH_TOKEN_LEN], PeerRole::Measurer, spec, 42, SessionTimeouts::default()),
///     Box::new(coord_end),
/// );
/// let mut engine = builder.build(SimTime::ZERO); // queues every Auth
/// assert_eq!(engine.item_count(), 1);
/// assert!(!engine.is_finished());
/// # let _ = peer;
/// ```
#[derive(Default)]
pub struct EngineBuilder {
    channels: Vec<Channel>,
    hard_deadline: Option<SimTime>,
    go_gate: Option<SimTime>,
}

impl EngineBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Adds one peer conversation under measurement item `item`.
    /// Returns the dense [`PeerId`] used in events and queries.
    pub fn add_peer(
        &mut self,
        item: usize,
        session: CoordinatorSession,
        transport: Box<dyn Transport>,
    ) -> PeerId {
        let id = PeerId(self.channels.len());
        self.channels.push(Channel { endpoint: Endpoint::new(session, transport), item });
        id
    }

    /// Aborts everything still live at `deadline` (a wall against driver
    /// bugs; session timeouts normally fire far earlier).
    #[must_use]
    pub fn hard_deadline(mut self, deadline: SimTime) -> Self {
        self.hard_deadline = Some(deadline);
        self
    }

    /// Holds every item's `Go` barrier until `gate`: an item whose
    /// surviving peers are all armed earlier stays armed, and is released
    /// in the first step at or after `gate`. This is how a staged round
    /// handshakes while the round before it still blasts, and starts its
    /// slot when that round's slot ends (see [`crate::echo::run_rounds`]).
    #[must_use]
    pub fn go_not_before(mut self, gate: SimTime) -> Self {
        self.go_gate = Some(gate);
        self
    }

    /// Finishes construction and opens every conversation (queues the
    /// `Auth` frames; the first [`MeasurementEngine::step`] sends them).
    pub fn build(self, now: SimTime) -> MeasurementEngine {
        let mut channels = self.channels;
        let items = channels.iter().map(|c| c.item + 1).max().unwrap_or(0);
        let mut channels_by_item: Vec<Vec<usize>> = vec![Vec::new(); items];
        for (ix, c) in channels.iter().enumerate() {
            channels_by_item[c.item].push(ix);
        }
        for c in &mut channels {
            c.endpoint.session_mut().start(now);
        }
        MeasurementEngine {
            channels,
            events: VecDeque::new(),
            go_released: vec![false; items],
            // An item index nothing was registered under (sparse
            // numbering) is born complete but must never emit events.
            item_completed: channels_by_item.iter().map(|chans| chans.is_empty()).collect(),
            channels_by_item,
            hard_deadline: self.hard_deadline,
            go_gate: self.go_gate,
        }
    }
}

/// The coordinator event loop. See the [module docs](self).
pub struct MeasurementEngine {
    channels: Vec<Channel>,
    events: VecDeque<EngineEvent>,
    go_released: Vec<bool>,
    item_completed: Vec<bool>,
    /// Channel indices grouped by item, so per-item scans stay
    /// O(channels of that item) across a large slot-packed batch.
    channels_by_item: Vec<Vec<usize>>,
    hard_deadline: Option<SimTime>,
    /// No `Go` leaves before this (see [`EngineBuilder::go_not_before`]).
    go_gate: Option<SimTime>,
}

impl MeasurementEngine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Number of conversations.
    pub fn peer_count(&self) -> usize {
        self.channels.len()
    }

    /// Number of measurement items (max item index + 1).
    pub fn item_count(&self) -> usize {
        self.go_released.len()
    }

    /// All peer ids, in assignment order.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> {
        (0..self.channels.len()).map(PeerId)
    }

    /// The item a peer belongs to.
    pub fn item(&self, peer: PeerId) -> usize {
        self.channels[peer.0].item
    }

    /// The peer's current phase.
    pub fn phase(&self, peer: PeerId) -> CoordPhase {
        self.channels[peer.0].endpoint.session().phase()
    }

    /// The role commanded of the peer.
    pub fn role(&self, peer: PeerId) -> PeerRole {
        self.channels[peer.0].endpoint.session().role()
    }

    /// The command the peer's session was built around.
    pub fn spec(&self, peer: PeerId) -> MeasureSpec {
        self.channels[peer.0].endpoint.session().spec()
    }

    /// Control frames (sent, received) by the peer's coordinator session.
    pub fn frames(&self, peer: PeerId) -> (u64, u64) {
        let s = self.channels[peer.0].endpoint.session();
        (s.frames_tx, s.frames_rx)
    }

    /// Bytes the peer's transport accepted but the wire has not taken
    /// yet (a connecting socket's `Auth`, or send-buffer backpressure).
    pub fn backlog(&self, peer: PeerId) -> usize {
        self.channels[peer.0].endpoint.transport().backlog()
    }

    /// True once every conversation is terminal.
    pub fn is_finished(&self) -> bool {
        self.channels.iter().all(|c| c.endpoint.is_terminal())
    }

    /// Next queued event, if any.
    pub fn poll_event(&mut self) -> Option<EngineEvent> {
        self.events.pop_front()
    }

    /// Aborts one conversation (its peer is notified if the wire still
    /// works).
    pub fn abort_peer(&mut self, peer: PeerId, reason: AbortReason) {
        self.channels[peer.0].endpoint.session_mut().abort(reason);
    }

    /// Aborts every live conversation (operator shutdown, hard wall).
    pub fn abort_all(&mut self, reason: AbortReason) {
        for c in &mut self.channels {
            c.endpoint.session_mut().abort(reason);
        }
    }

    /// Moves bytes once on every channel; returns `true` if anything
    /// moved. Drivers that interleave their own peer-side pumping (the
    /// sim does) alternate with this until the tick quiesces; everyone
    /// else just calls [`MeasurementEngine::step`].
    pub fn pump(&mut self, now: SimTime) -> bool {
        let mut moved = false;
        for c in &mut self.channels {
            moved |= c.endpoint.pump(now);
        }
        moved
    }

    /// Completes one tick at `now` *without* pumping: drains session
    /// actions into events, releases due `Go` barriers, fires
    /// timeouts, and emits [`EngineEvent::ItemComplete`]s. Use after one
    /// or more [`MeasurementEngine::pump`] calls; or use
    /// [`MeasurementEngine::step`] which does both.
    pub fn finish_tick(&mut self, now: SimTime) {
        if let Some(deadline) = self.hard_deadline {
            if now >= deadline {
                self.abort_all(AbortReason::Shutdown);
            }
        }
        self.drain_actions();
        self.release_barriers(now);
        for c in &mut self.channels {
            c.endpoint.tick(now);
        }
        // Timeout failures surface as actions; pick them up in the same
        // tick so the driver sees them at the instant they fired.
        self.drain_actions();
        // A session that went terminal this tick (timeout, hard wall,
        // driver abort) still has its dying Abort queued. Flush it now:
        // drivers stop pumping the moment the engine is finished, and an
        // unflushed Abort would leave the peer blocked in a pre-Go phase
        // until its own timeout instead of being told the slot is dead.
        for c in &mut self.channels {
            if c.endpoint.is_terminal() {
                c.endpoint.pump(now);
            }
        }
        self.note_completed_items();
    }

    /// One full engine tick: pump to quiescence, then
    /// [`MeasurementEngine::finish_tick`]. Returns `true` while the
    /// engine still has live conversations.
    ///
    /// Pumping is bounded (64 rounds) so a peer that floods
    /// bytes forever cannot trap the loop inside one step: its session
    /// aborts ([`AbortReason::Flooded`] or `Malformed`), its endpoint
    /// hangs up, and if a transport still claims progress the round
    /// bound returns control so timeouts and the hard deadline fire.
    pub fn step(&mut self, now: SimTime) -> bool {
        self.pump_bounded(now);
        self.finish_tick(now);
        // Barrier releases and aborts queue frames; give them a push so
        // zero-latency transports deliver within the same step. That
        // push can also *receive* (a fast peer's final reports), so
        // pick up any actions and completions it produced — otherwise a
        // conversation finishing here would end run_to_completion with
        // its samples still queued and no ItemComplete ever emitted.
        self.pump_bounded(now);
        self.drain_actions();
        self.note_completed_items();
        !self.is_finished()
    }

    fn pump_bounded(&mut self, now: SimTime) {
        for _ in 0..MAX_PUMP_ROUNDS {
            if !self.pump(now) {
                break;
            }
        }
    }

    /// Steps the engine on `clock` until every conversation is terminal,
    /// returning all events in order. The clock is called once per step
    /// and may sleep to pace real-time transports; it must be
    /// non-decreasing. With a [`EngineBuilder::hard_deadline`] set,
    /// termination is guaranteed even against a wedged driver-side peer.
    pub fn run_to_completion(&mut self, mut clock: impl FnMut() -> SimTime) -> Vec<EngineEvent> {
        let mut events = Vec::new();
        loop {
            let live = self.step(clock());
            while let Some(ev) = self.poll_event() {
                events.push(ev);
            }
            if !live {
                return events;
            }
        }
    }

    fn drain_actions(&mut self) {
        for (ix, c) in self.channels.iter_mut().enumerate() {
            let peer = PeerId(ix);
            let item = c.item;
            while let Some(action) = c.endpoint.session_mut().poll_action() {
                let event = match action {
                    CoordAction::PeerReady => EngineEvent::PeerReady { peer },
                    CoordAction::Sample { second, bg_bytes, measured_bytes } => {
                        EngineEvent::Sample { peer, item, second, bg_bytes, measured_bytes }
                    }
                    CoordAction::PeerDone => EngineEvent::PeerDone { peer },
                    CoordAction::PeerFailed { reason } => EngineEvent::PeerFailed { peer, reason },
                };
                self.events.push_back(event);
            }
        }
    }

    /// Releases the `Go` barrier of every item whose surviving peers are
    /// all armed (and at least one measurer is among them — a slot with
    /// only a reporting target left measures nothing and is left to its
    /// barrier timeout), once the Go gate, if any, has passed.
    fn release_barriers(&mut self, now: SimTime) {
        if self.go_gate.is_some_and(|gate| now < gate) {
            return;
        }
        for item in 0..self.go_released.len() {
            if self.go_released[item] {
                continue;
            }
            let mut armed_measurers = 0;
            let mut waiting = false;
            for &ix in &self.channels_by_item[item] {
                let session = self.channels[ix].endpoint.session();
                match session.phase() {
                    CoordPhase::Armed => {
                        if session.role() == PeerRole::Measurer {
                            armed_measurers += 1;
                        }
                    }
                    CoordPhase::Done | CoordPhase::Failed => {}
                    _ => waiting = true,
                }
            }
            if armed_measurers > 0 && !waiting {
                for chan in 0..self.channels_by_item[item].len() {
                    let ix = self.channels_by_item[item][chan];
                    if self.channels[ix].endpoint.session().phase() == CoordPhase::Armed {
                        self.channels[ix].endpoint.session_mut().go(now);
                    }
                }
                self.go_released[item] = true;
                self.events.push_back(EngineEvent::GoReleased { item, at: now });
            }
        }
    }

    fn note_completed_items(&mut self) {
        for item in 0..self.item_completed.len() {
            if self.item_completed[item] {
                continue;
            }
            let done = self.channels_by_item[item]
                .iter()
                .all(|&ix| self.channels[ix].endpoint.is_terminal());
            if done {
                self.item_completed[item] = true;
                self.events.push_back(EngineEvent::ItemComplete { item });
            }
        }
    }
}

/// What [`SampleLedger::merged_series`] needs to know about each peer:
/// who belongs to which item, how their session ended, and what they
/// were commanded. Implemented by the live [`MeasurementEngine`] and by
/// the detached [`EngineSnapshot`], so merging works both inside a
/// driver loop and after the engine has been dropped to hand its
/// transports back (pooled connections park when the engine lets go).
pub trait PeerDirectory {
    /// Number of conversations.
    fn peer_count(&self) -> usize;
    /// The item a peer belongs to.
    fn item(&self, peer: PeerId) -> usize;
    /// The peer's final (or current) phase.
    fn phase(&self, peer: PeerId) -> CoordPhase;
    /// The role commanded of the peer.
    fn role(&self, peer: PeerId) -> PeerRole;
    /// The command the peer's session was built around.
    fn spec(&self, peer: PeerId) -> MeasureSpec;
}

impl PeerDirectory for MeasurementEngine {
    fn peer_count(&self) -> usize {
        MeasurementEngine::peer_count(self)
    }
    fn item(&self, peer: PeerId) -> usize {
        MeasurementEngine::item(self, peer)
    }
    fn phase(&self, peer: PeerId) -> CoordPhase {
        MeasurementEngine::phase(self, peer)
    }
    fn role(&self, peer: PeerId) -> PeerRole {
        MeasurementEngine::role(self, peer)
    }
    fn spec(&self, peer: PeerId) -> MeasureSpec {
        MeasurementEngine::spec(self, peer)
    }
}

/// One peer's record inside an [`EngineSnapshot`].
#[derive(Debug, Clone, Copy)]
struct PeerRecord {
    item: usize,
    role: PeerRole,
    spec: MeasureSpec,
    phase: CoordPhase,
    frames_tx: u64,
    frames_rx: u64,
}

/// A detached record of an engine's conversations — everything
/// aggregation needs (items, roles, specs, terminal phases, frame
/// counters) without the engine's transports: what a finished round
/// returns as its audit trail. [`SampleLedger::merged_series`] accepts
/// it wherever it accepts the live engine.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    peers: Vec<PeerRecord>,
    items: usize,
}

impl EngineSnapshot {
    /// Number of measurement items (max item index + 1).
    pub fn item_count(&self) -> usize {
        self.items
    }

    /// All peer ids, in assignment order.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> {
        (0..self.peers.len()).map(PeerId)
    }

    /// Control frames (sent, received) by the peer's coordinator session.
    pub fn frames(&self, peer: PeerId) -> (u64, u64) {
        let p = &self.peers[peer.0];
        (p.frames_tx, p.frames_rx)
    }

    /// True if every conversation ended [`CoordPhase::Done`].
    pub fn all_clean(&self) -> bool {
        self.peers.iter().all(|p| p.phase == CoordPhase::Done)
    }

    /// True if every conversation of `item` ended [`CoordPhase::Done`].
    pub fn item_clean(&self, item: usize) -> bool {
        self.peers.iter().filter(|p| p.item == item).all(|p| p.phase == CoordPhase::Done)
    }
}

impl PeerDirectory for EngineSnapshot {
    fn peer_count(&self) -> usize {
        self.peers.len()
    }
    fn item(&self, peer: PeerId) -> usize {
        self.peers[peer.0].item
    }
    fn phase(&self, peer: PeerId) -> CoordPhase {
        self.peers[peer.0].phase
    }
    fn role(&self, peer: PeerId) -> PeerRole {
        self.peers[peer.0].role
    }
    fn spec(&self, peer: PeerId) -> MeasureSpec {
        self.peers[peer.0].spec
    }
}

impl MeasurementEngine {
    /// Detaches a [`EngineSnapshot`] of every conversation's state.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            peers: self
                .channels
                .iter()
                .map(|c| {
                    let s = c.endpoint.session();
                    PeerRecord {
                        item: c.item,
                        role: s.role(),
                        spec: s.spec(),
                        phase: s.phase(),
                        frames_tx: s.frames_tx,
                        frames_rx: s.frames_rx,
                    }
                })
                .collect(),
            items: self.go_released.len(),
        }
    }
}

/// Relative tolerance of the reported-vs-counted cross-check: a
/// [`LedgerRow`] whose reported and cross-checked rates differ by
/// more than this fraction (of the larger of the two) is flagged
/// divergent. Loopback pacing jitter stays well inside this; asserted
/// bytes that never moved (TorMult-style inflation) do not.
pub const DIVERGENCE_TOLERANCE: f64 = 0.10;

/// Default background ratio `r` used by the ledger's background-claim
/// plausibility check (the paper's deployment value): during a slot a
/// relay may carry at most `r` of its capacity as client traffic, so a
/// claimed `bg_j` beyond `r/(1−r)` of that second's echoed measurement
/// bytes is not physically plausible and flags the row.
pub const DEFAULT_BACKGROUND_RATIO: f64 = 0.25;

/// One second of one peer's slot, as the ledger recorded it: what the
/// peer **reported** across the control channel next to what this
/// coordinator could **cross-check** it against: the aggregated
/// measurer echo, for a target relay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerRow {
    /// Which conversation.
    pub peer: PeerId,
    /// Zero-based second index.
    pub second: u32,
    /// The measurement rate the peer reported: `measured_bytes` — a
    /// measurer's verified echo, or the target relay's own claim of
    /// what it echoed.
    pub reported: u64,
    /// The background bytes the peer reported (`bg_bytes`; zero for
    /// measurers, the client-traffic claim for the target role).
    pub bg: u64,
    /// The cross-check column for `reported`: the k measurers' summed
    /// reported echo for a target relay (`None` for a measurer's own
    /// row, and for a target in a slot no measurer reported).
    pub counted: Option<u64>,
    /// True when the row fails a cross-check: `reported` vs `counted`
    /// beyond [`DIVERGENCE_TOLERANCE`] (gated, for targets, on the
    /// relay claiming a nonzero echo — a reporting-only target has no
    /// echo claim to check), or a target's `bg` claim beyond the
    /// [background plausibility bound](DEFAULT_BACKGROUND_RATIO).
    pub divergent: bool,
}

/// Quarantined per-second samples, merged only for clean sessions.
///
/// Feed it every event ([`SampleLedger::observe`]); when the engine is
/// finished, [`SampleLedger::merged_series`] returns the per-second
/// measurement (`x`) and background (`y`) byte series of one item,
/// summed across exactly those peers whose sessions ended
/// [`CoordPhase::Done`] — an aborted peer's samples are discarded
/// wholesale, so a lie-then-stall peer cannot leave inflated seconds
/// behind.
///
/// The [`SampleLedger::rows`] view pairs a target relay's claims with
/// the measurers' aggregated reports per second and flags divergence,
/// which is what makes a lying `SecondReport` cross-checkable instead
/// of merely believed.
#[derive(Debug)]
pub struct SampleLedger {
    /// Samples per peer, keyed by dense peer index.
    per_peer: Vec<Vec<(u32, u64, u64)>>,
    /// Background ratio `r` for the plausibility bound on target
    /// `bg` claims (see [`DEFAULT_BACKGROUND_RATIO`]).
    bg_ratio: f64,
}

impl Default for SampleLedger {
    fn default() -> Self {
        SampleLedger { per_peer: Vec::new(), bg_ratio: DEFAULT_BACKGROUND_RATIO }
    }
}

impl SampleLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        SampleLedger::default()
    }

    /// Overrides the background ratio `r` the plausibility bound uses
    /// (deployments running a different ratio than the paper's 0.25).
    pub fn set_bg_ratio(&mut self, ratio: f64) {
        assert!((0.0..1.0).contains(&ratio), "ratio must be in [0, 1)");
        self.bg_ratio = ratio;
    }

    /// Records sample events; ignores everything else.
    pub fn observe(&mut self, event: &EngineEvent) {
        if let EngineEvent::Sample { peer, second, bg_bytes, measured_bytes, .. } = *event {
            if self.per_peer.len() <= peer.index() {
                self.per_peer.resize(peer.index() + 1, Vec::new());
            }
            self.per_peer[peer.index()].push((second, bg_bytes, measured_bytes));
        }
    }

    /// Per-second **echoed measurement bytes** of `item`, aggregated
    /// across its k measurers' reports (every measurer of the item,
    /// regardless of how its session ended — this feeds the audit view;
    /// the estimate-side quarantine lives in
    /// [`SampleLedger::merged_series`]).
    pub fn echoed_series(&self, dir: &impl PeerDirectory, item: usize) -> Vec<u64> {
        let mut series: Vec<u64> = Vec::new();
        for (ix, samples) in self.per_peer.iter().enumerate() {
            let peer = PeerId(ix);
            if ix >= dir.peer_count()
                || dir.item(peer) != item
                || dir.role(peer) != PeerRole::Measurer
            {
                continue;
            }
            for &(second, _, measured_bytes) in samples {
                let j = second as usize;
                if series.len() <= j {
                    series.resize(j + 1, 0);
                }
                series[j] += measured_bytes;
            }
        }
        series
    }

    /// The reported-vs-cross-checked view of `item`: one row per (peer,
    /// second) that was reported. Measurer rows carry the reported echo
    /// alone (it *is* the cross-check, summed into the target's row);
    /// target rows pair the relay's echo claim with the k measurers'
    /// aggregated reports and bound its background claim by
    /// plausibility (`bg ≤ r/(1−r) ·` echoed, within
    /// tolerance) — the TorMult-shaped channel where a relay inflates
    /// the client traffic it never carried. Rows cover every peer of
    /// the item regardless of how its session ended — this is the audit
    /// view; the quarantine lives in [`SampleLedger::merged_series`].
    pub fn rows(&self, dir: &impl PeerDirectory, item: usize) -> Vec<LedgerRow> {
        let echoed = self.echoed_series(dir, item);
        let bg_bound = self.bg_ratio / (1.0 - self.bg_ratio);
        let mut rows = Vec::new();
        for (ix, samples) in self.per_peer.iter().enumerate() {
            let peer = PeerId(ix);
            if ix >= dir.peer_count() || dir.item(peer) != item {
                continue;
            }
            let role = dir.role(peer);
            for &(second, bg_bytes, measured_bytes) in samples {
                let reported = measured_bytes;
                let counted = match role {
                    PeerRole::Measurer => None,
                    // The k measurers' summed echo reports: the other
                    // side of the same bytes the relay claims it echoed.
                    PeerRole::Target => echoed.get(second as usize).copied(),
                };
                let mut divergent = match counted {
                    // Agreement within the tolerance is the honest
                    // case. A reporting-only target (echo claim zero,
                    // the simulated path) has nothing to cross-check.
                    Some(c) if reported > 0 => {
                        let hi = reported.max(c) as f64;
                        hi > 0.0 && (reported as f64 - c as f64).abs() > DIVERGENCE_TOLERANCE * hi
                    }
                    _ => false,
                };
                if role == PeerRole::Target {
                    // Background plausibility: during the window the
                    // relay may admit at most r of its capacity as
                    // client traffic, and the echo demonstrates the
                    // other (1−r) share — so bg beyond r/(1−r) of the
                    // echoed bytes claims capacity that was never
                    // demonstrated.
                    if let Some(echo) = counted {
                        let allowance = bg_bound * echo as f64 * (1.0 + DIVERGENCE_TOLERANCE);
                        if echo > 0 && bg_bytes as f64 > allowance {
                            divergent = true;
                        }
                    }
                }
                rows.push(LedgerRow { peer, second, reported, bg: bg_bytes, counted, divergent });
            }
        }
        rows.sort_by_key(|r| (r.peer, r.second));
        rows
    }

    /// Count of divergent rows for `item` (see [`SampleLedger::rows`]).
    pub fn divergent_count(&self, dir: &impl PeerDirectory, item: usize) -> usize {
        self.rows(dir, item).iter().filter(|r| r.divergent).count()
    }

    /// Merges the series of `item`: measurement bytes per second from
    /// clean measurer sessions, background bytes per second from clean
    /// target sessions. `dir` is the live engine or a detached
    /// [`EngineSnapshot`].
    pub fn merged_series(&self, dir: &impl PeerDirectory, item: usize) -> (Vec<f64>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (ix, samples) in self.per_peer.iter().enumerate() {
            let peer = PeerId(ix);
            if dir.item(peer) != item || dir.phase(peer) != CoordPhase::Done {
                continue;
            }
            let slot_secs = dir.spec(peer).slot_secs;
            let series = match dir.role(peer) {
                PeerRole::Measurer => &mut x,
                PeerRole::Target => &mut y,
            };
            for &(second, bg_bytes, measured_bytes) in samples {
                // The session already rejects out-of-range seconds; keep
                // the bound as defense in depth.
                if second >= slot_secs {
                    continue;
                }
                let j = second as usize;
                if series.len() <= j {
                    series.resize(j + 1, 0.0);
                }
                series[j] += match dir.role(peer) {
                    PeerRole::Measurer => measured_bytes as f64,
                    PeerRole::Target => bg_bytes as f64,
                };
            }
        }
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_proto::endpoint::Endpoint;
    use flashflow_proto::fault::{FaultMode, FaultyTransport};
    use flashflow_proto::msg::{AUTH_TOKEN_LEN, FINGERPRINT_LEN};
    use flashflow_proto::session::{MeasurerAction, MeasurerSession, SessionTimeouts};
    use flashflow_proto::transport::{Duplex, DuplexEnd};
    use flashflow_simnet::time::SimDuration;

    fn spec(slot_secs: u32) -> MeasureSpec {
        MeasureSpec {
            relay_fp: [3; FINGERPRINT_LEN],
            slot_secs,
            sockets: 8,
            rate_cap: 0,
            ..MeasureSpec::default()
        }
    }

    /// A local measurer that reports `per_second` measured bytes.
    struct LocalPeer {
        endpoint: Endpoint<MeasurerSession, DuplexEnd>,
        per_second: u64,
        started: bool,
        reported: u32,
        slot_secs: u32,
    }

    fn harness(peers: &[(PeerRole, u64)], slot_secs: u32) -> (MeasurementEngine, Vec<LocalPeer>) {
        harness_items(&[peers], slot_secs, None)
    }

    /// One engine over `items` (item `g` of the engine is `items[g]`).
    /// The coordinator's link to peer `stalled` (dense index) goes dark
    /// mid-handshake: it delivers the `AuthOk` and nothing after.
    fn harness_items(
        items: &[&[(PeerRole, u64)]],
        slot_secs: u32,
        stalled: Option<usize>,
    ) -> (MeasurementEngine, Vec<LocalPeer>) {
        let token = [9u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts::default();
        let mut builder = MeasurementEngine::builder();
        let mut locals = Vec::new();
        for (item, peers) in items.iter().enumerate() {
            for &(role, per_second) in peers.iter() {
                let ix = locals.len();
                let (ca, cb) = Duplex::loopback().into_endpoints();
                let transport: Box<dyn Transport> = if stalled == Some(ix) {
                    Box::new(FaultyTransport::new(ca, FaultMode::Blackhole).trip_after_bytes(1))
                } else {
                    Box::new(ca)
                };
                builder.add_peer(
                    item,
                    CoordinatorSession::new(token, role, spec(slot_secs), 1000 + ix as u64, t),
                    transport,
                );
                locals.push(LocalPeer {
                    endpoint: Endpoint::new(MeasurerSession::new(token, role, ix as u64, t), cb),
                    per_second,
                    started: false,
                    reported: 0,
                    slot_secs,
                });
            }
        }
        (builder.build(SimTime::ZERO), locals)
    }

    fn drive(engine: &mut MeasurementEngine, locals: &mut [LocalPeer]) -> Vec<EngineEvent> {
        let mut events = Vec::new();
        for tick in 0..200u64 {
            let now = SimTime::from_secs(tick);
            loop {
                let mut moved = engine.pump(now);
                for p in locals.iter_mut() {
                    moved |= p.endpoint.pump(now);
                }
                if !moved {
                    break;
                }
            }
            for p in locals.iter_mut() {
                while let Some(a) = p.endpoint.session_mut().poll_action() {
                    if matches!(a, MeasurerAction::Start { .. }) {
                        p.started = true;
                    }
                }
                if p.started && p.reported < p.slot_secs && !p.endpoint.is_terminal() {
                    let (bg, measured) = (p.per_second / 10, p.per_second);
                    p.endpoint.session_mut().report_second(bg, measured);
                    p.reported += 1;
                }
                p.endpoint.tick(now);
            }
            engine.finish_tick(now);
            while let Some(ev) = engine.poll_event() {
                events.push(ev);
            }
            if engine.is_finished() {
                return events;
            }
        }
        panic!("engine did not finish; events so far: {events:?}");
    }

    #[test]
    fn batch_of_pairs_completes_with_ordered_events() {
        let (mut engine, mut locals) = harness(
            &[(PeerRole::Measurer, 100), (PeerRole::Measurer, 50), (PeerRole::Target, 30)],
            3,
        );
        let mut ledger = SampleLedger::new();
        let events = drive(&mut engine, &mut locals);
        for ev in &events {
            ledger.observe(ev);
        }
        // All three conversations done, one barrier, one completion.
        assert_eq!(events.iter().filter(|e| matches!(e, EngineEvent::PeerDone { .. })).count(), 3);
        assert_eq!(
            events.iter().filter(|e| matches!(e, EngineEvent::GoReleased { .. })).count(),
            1
        );
        assert!(events.contains(&EngineEvent::ItemComplete { item: 0 }));
        // The barrier came after every PeerReady and before every Sample.
        let go_pos = events
            .iter()
            .position(|e| matches!(e, EngineEvent::GoReleased { .. }))
            .expect("go released");
        let last_ready = events
            .iter()
            .rposition(|e| matches!(e, EngineEvent::PeerReady { .. }))
            .expect("readies");
        let first_sample =
            events.iter().position(|e| matches!(e, EngineEvent::Sample { .. })).expect("samples");
        assert!(last_ready < go_pos && go_pos < first_sample, "{events:?}");
        // Ledger merges measurers into x, the target into y.
        let (x, y) = ledger.merged_series(&engine, 0);
        assert_eq!(x, vec![150.0; 3]);
        assert_eq!(y, vec![3.0; 3]);
    }

    #[test]
    fn armed_peers_wait_for_the_go_gate_and_go_in_the_first_step_after_it() {
        let token = [9u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts::default();
        let gate = SimTime::from_secs_f64(2.1);
        let mut builder = MeasurementEngine::builder().go_not_before(gate);
        let mut locals = Vec::new();
        for (ix, role) in [PeerRole::Measurer, PeerRole::Target].into_iter().enumerate() {
            let (ca, cb) = Duplex::loopback().into_endpoints();
            let session = CoordinatorSession::new(token, role, spec(1), 1000 + ix as u64, t);
            builder.add_peer(0, session, Box::new(ca));
            locals.push(Endpoint::new(MeasurerSession::new(token, role, ix as u64, t), cb));
        }
        let mut engine = builder.build(SimTime::ZERO);
        let mut events = Vec::new();
        let mut go_at = None;
        // Steps every 0.25 s of injected time: 2.0 is the last before the
        // gate, 2.25 the first after it.
        for step in 0..12u64 {
            let now = SimTime::from_secs_f64(step as f64 * 0.25);
            loop {
                let mut moved = engine.pump(now);
                for peer in &mut locals {
                    moved |= peer.pump(now);
                }
                if !moved {
                    break;
                }
            }
            engine.finish_tick(now);
            while let Some(event) = engine.poll_event() {
                if let EngineEvent::GoReleased { at, .. } = event {
                    go_at = Some(at);
                }
                events.push((now, event));
            }
            let started = locals.iter_mut().any(|peer| {
                std::iter::from_fn(|| peer.session_mut().poll_action())
                    .any(|action| matches!(action, MeasurerAction::Start { .. }))
            });
            if now < gate {
                assert!(!started, "a peer started at {now} before the gate");
                assert!(go_at.is_none(), "Go released at {now}, before the gate: {events:?}");
                if step > 0 {
                    assert!(
                        engine.peers().all(|p| engine.phase(p) == CoordPhase::Armed),
                        "both peers armed and held at {now}"
                    );
                }
            }
        }
        assert_eq!(go_at, Some(SimTime::from_secs_f64(2.25)), "{events:?}");
    }

    #[test]
    fn stalling_peer_delays_only_its_own_item() {
        // Three items on one engine. Item 0's measurer goes dark after
        // `AuthOk`; nothing of items 1 and 2 may wait for it.
        let item = [(PeerRole::Measurer, 100), (PeerRole::Target, 30)];
        let (mut engine, mut locals) = harness_items(&[&item, &item, &item], 3, Some(0));
        let events = drive(&mut engine, &mut locals);
        let pos = |want: EngineEvent| {
            events
                .iter()
                .position(|e| *e == want)
                .unwrap_or_else(|| panic!("{want:?} missing: {events:?}"))
        };
        // Item 0 fails by its own handshake timeout, and only then
        // completes; its Go never released.
        let stalled =
            pos(EngineEvent::PeerFailed { peer: PeerId(0), reason: AbortReason::HandshakeTimeout });
        assert!(stalled < pos(EngineEvent::ItemComplete { item: 0 }), "{events:?}");
        let go_of = |item: usize| {
            events.iter().position(
                |e| matches!(e, EngineEvent::GoReleased { item: released, .. } if *released == item),
            )
        };
        assert_eq!(go_of(0), None, "{events:?}");

        let mut ledger = SampleLedger::new();
        for ev in &events {
            ledger.observe(ev);
        }
        for item in [1, 2] {
            // Go, every sample, and completion all while item 0 is
            // still pending.
            let go = go_of(item).expect("go released");
            let complete = pos(EngineEvent::ItemComplete { item });
            assert!(go < complete && complete < stalled, "item {item}: {events:?}");
            let samples = events[go..complete]
                .iter()
                .filter(|e| matches!(e, EngineEvent::Sample { item: of, .. } if *of == item))
                .count();
            assert_eq!(samples, 2 * 3, "item {item}: {events:?}");
            let (x, y) = ledger.merged_series(&engine, item);
            assert_eq!((x, y), (vec![100.0; 3], vec![3.0; 3]), "item {item}");
        }
        let (x, _) = ledger.merged_series(&engine, 0);
        assert!(x.is_empty(), "the stalled item measured nothing: {x:?}");
    }

    #[test]
    fn faulty_transport_disconnect_aborts_in_bounded_time() {
        let token = [9u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts::default();
        let mut builder = MeasurementEngine::builder();
        // The coordinator's side of the wire dies 2 simulated seconds in
        // (mid-handshake/slot, depending on pacing).
        let (ca, cb) = Duplex::loopback().into_endpoints();
        let faulty = FaultyTransport::new(ca, FaultMode::Disconnect).trip_at(SimTime::from_secs(2));
        let peer = builder.add_peer(
            0,
            CoordinatorSession::new(token, PeerRole::Measurer, spec(30), 5, t),
            Box::new(faulty),
        );
        let mut engine = builder.build(SimTime::ZERO);
        let mut local = LocalPeer {
            endpoint: Endpoint::new(MeasurerSession::new(token, PeerRole::Measurer, 1, t), cb),
            per_second: 10,
            started: false,
            reported: 0,
            slot_secs: 30,
        };
        // Reports pace at one per simulated second; the disconnect lands
        // long before the 30-second slot would finish.
        let mut ticks = 0u64;
        let events = loop {
            let now = SimTime::from_secs(ticks);
            loop {
                let moved = engine.pump(now) | local.endpoint.pump(now);
                if !moved {
                    break;
                }
            }
            while let Some(a) = local.endpoint.session_mut().poll_action() {
                if matches!(a, MeasurerAction::Start { .. }) {
                    local.started = true;
                }
            }
            if local.started && local.reported < 30 && !local.endpoint.is_terminal() {
                local.endpoint.session_mut().report_second(0, 10);
                local.reported += 1;
            }
            local.endpoint.tick(now);
            engine.finish_tick(now);
            if engine.is_finished() {
                let mut evs = Vec::new();
                while let Some(ev) = engine.poll_event() {
                    evs.push(ev);
                }
                break evs;
            }
            ticks += 1;
            assert!(ticks < 10, "disconnect did not abort in bounded time");
        };
        assert!(
            events.contains(&EngineEvent::PeerFailed { peer, reason: AbortReason::ConnectionLost }),
            "{events:?}"
        );
        assert_eq!(engine.phase(peer), CoordPhase::Failed);
    }

    #[test]
    fn hard_deadline_during_handshake_aborts_item_group_cleanly() {
        // One item, two peers: A completes the handshake and blocks on
        // the per-item Go barrier; B is blackholed mid-handshake so the
        // barrier never releases. The hard deadline lands *inside* the
        // handshake window (session timeouts are absurdly long) and must
        // abort the whole item group: engine terminal, ItemComplete
        // emitted, no Go ever released, and peer A's own session is not
        // left stranded in a pre-Go phase.
        let token = [9u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts {
            handshake: SimDuration::from_secs(1_000_000),
            report: SimDuration::from_secs(1_000_000),
        };
        let mut builder = MeasurementEngine::builder();

        let (ca, cb) = Duplex::loopback().into_endpoints();
        let peer_a = builder.add_peer(
            0,
            CoordinatorSession::new(token, PeerRole::Measurer, spec(30), 11, t),
            Box::new(ca),
        );
        let mut local_a = Endpoint::new(MeasurerSession::new(token, PeerRole::Measurer, 1, t), cb);

        let (ca2, _cb2) = Duplex::loopback().into_endpoints();
        let blackholed = FaultyTransport::new(ca2, FaultMode::Blackhole).trip_at(SimTime::ZERO);
        let peer_b = builder.add_peer(
            0,
            CoordinatorSession::new(token, PeerRole::Measurer, spec(30), 12, t),
            Box::new(blackholed),
        );

        let mut engine = builder.hard_deadline(SimTime::from_secs(3)).build(SimTime::ZERO);
        let mut events = Vec::new();
        for tick in 0..10u64 {
            let now = SimTime::from_secs(tick);
            loop {
                let moved = engine.pump(now) | local_a.pump(now);
                if !moved {
                    break;
                }
            }
            while local_a.session_mut().poll_action().is_some() {}
            local_a.tick(now);
            engine.finish_tick(now);
            while let Some(ev) = engine.poll_event() {
                events.push(ev);
            }
            if engine.is_finished() {
                break;
            }
        }
        assert!(engine.is_finished(), "deadline did not end the group: {events:?}");
        assert!(
            !events.iter().any(|e| matches!(e, EngineEvent::GoReleased { .. })),
            "no Go can release with a peer stuck in the handshake: {events:?}"
        );
        for peer in [peer_a, peer_b] {
            assert!(
                events.contains(&EngineEvent::PeerFailed { peer, reason: AbortReason::Shutdown }),
                "{events:?}"
            );
        }
        assert_eq!(
            events.iter().filter(|e| matches!(e, EngineEvent::ItemComplete { item: 0 })).count(),
            1,
            "{events:?}"
        );
        // Peer A got the coordinator's Abort and left its pre-Go phase.
        for tick in 10..20u64 {
            local_a.pump(SimTime::from_secs(tick));
        }
        assert!(local_a.is_terminal(), "peer left blocked on the Go barrier");
    }

    #[test]
    fn report_flood_is_dropped_with_flooded_not_buffered() {
        use flashflow_proto::frame::{encode, FrameDecoder};
        use flashflow_proto::msg::Msg;
        use flashflow_proto::session::DEFAULT_REPORT_AHEAD_CAP;

        // A protocol-fluent but hostile peer: answers the handshake
        // correctly, then blasts the entire 30-second slot's reports the
        // instant it sees Go (plus invented extras) — the SecondReport
        // flood from the ROADMAP's backpressure item.
        let token = [9u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts::default();
        let mut builder = MeasurementEngine::builder();
        let (ca, mut flood_end) = Duplex::loopback().into_endpoints();
        let peer = builder.add_peer(
            0,
            CoordinatorSession::new(token, PeerRole::Measurer, spec(30), 21, t),
            Box::new(ca),
        );
        let mut engine = builder.hard_deadline(SimTime::from_secs(60)).build(SimTime::ZERO);

        let mut dec = FrameDecoder::new();
        let mut events = Vec::new();
        for tick in 0..10u64 {
            let now = SimTime::from_secs(tick);
            engine.step(now);
            let bytes = flood_end.recv(now).unwrap_or_default();
            dec.push(&bytes);
            while let Ok(Some(msg)) = dec.next_msg() {
                match msg {
                    Msg::Auth { nonce, .. } => {
                        let _ = flood_end.send(now, &encode(&Msg::AuthOk { session: 1, nonce }));
                    }
                    Msg::MeasureCmd(_) => {
                        let _ = flood_end.send(now, &encode(&Msg::Ready));
                    }
                    Msg::Go => {
                        for second in 0..30u32 {
                            let _ = flood_end.send(
                                now,
                                &encode(&Msg::SecondReport {
                                    second,
                                    bg_bytes: 0,
                                    measured_bytes: u64::MAX / 2,
                                }),
                            );
                        }
                    }
                    _ => {}
                }
            }
            while let Some(ev) = engine.poll_event() {
                events.push(ev);
            }
            if engine.is_finished() {
                break;
            }
        }
        assert!(
            events.contains(&EngineEvent::PeerFailed { peer, reason: AbortReason::Flooded }),
            "{events:?}"
        );
        // The buffered samples are bounded by the ahead cap (plus a tick
        // or two of clock slack), not by how much the peer sent; and the
        // quarantine drops even those.
        let samples = events.iter().filter(|e| matches!(e, EngineEvent::Sample { .. })).count();
        assert!(
            samples <= DEFAULT_REPORT_AHEAD_CAP as usize + 3,
            "{samples} samples buffered from a flood"
        );
        let mut ledger = SampleLedger::new();
        for ev in &events {
            ledger.observe(ev);
        }
        let (x, _) = ledger.merged_series(&engine, 0);
        assert!(x.is_empty(), "a flooding peer's samples must never merge: {x:?}");
    }

    /// A fixed-role directory for ledger-only tests (no live engine).
    struct TestDir {
        roles: Vec<PeerRole>,
        slot_secs: u32,
    }

    impl PeerDirectory for TestDir {
        fn peer_count(&self) -> usize {
            self.roles.len()
        }
        fn item(&self, _peer: PeerId) -> usize {
            0
        }
        fn phase(&self, _peer: PeerId) -> CoordPhase {
            CoordPhase::Done
        }
        fn role(&self, peer: PeerId) -> PeerRole {
            self.roles[peer.index()]
        }
        fn spec(&self, _peer: PeerId) -> MeasureSpec {
            MeasureSpec { slot_secs: self.slot_secs, ..MeasureSpec::default() }
        }
    }

    fn sample(peer: usize, second: u32, bg: u64, measured: u64) -> EngineEvent {
        EngineEvent::Sample {
            peer: PeerId(peer),
            item: 0,
            second,
            bg_bytes: bg,
            measured_bytes: measured,
        }
    }

    #[test]
    fn target_rows_cross_check_echo_against_aggregated_measurer_reports() {
        // Two measurers report 40 kB/s of echoed blast each; the relay
        // honestly claims it echoed the 80 kB/s total and admitted a
        // plausible background. Nothing diverges.
        let dir = TestDir {
            roles: vec![PeerRole::Measurer, PeerRole::Measurer, PeerRole::Target],
            slot_secs: 2,
        };
        let mut ledger = SampleLedger::new();
        for second in 0..2 {
            ledger.observe(&sample(0, second, 0, 40_000));
            ledger.observe(&sample(1, second, 0, 40_000));
            ledger.observe(&sample(2, second, 20_000, 80_000));
        }
        assert_eq!(ledger.echoed_series(&dir, 0), vec![80_000, 80_000]);
        let rows = ledger.rows(&dir, 0);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(!row.divergent, "honest reports flagged: {row:?}");
        }
        // Target rows carry the aggregated measurer echo as their
        // cross-check column, and the bg claim in its own column.
        let target_rows: Vec<_> = rows.iter().filter(|r| r.peer == PeerId(2)).collect();
        assert_eq!(target_rows.len(), 2);
        for row in &target_rows {
            assert_eq!(row.counted, Some(80_000));
            assert_eq!(row.bg, 20_000);
            assert_eq!(row.reported, 80_000);
        }
        assert_eq!(ledger.divergent_count(&dir, 0), 0);
    }

    #[test]
    fn background_claim_inflation_and_echo_inflation_diverge_target_rows() {
        let dir = TestDir {
            roles: vec![PeerRole::Measurer, PeerRole::Measurer, PeerRole::Target],
            slot_secs: 3,
        };
        let mut ledger = SampleLedger::new();
        for second in 0..3 {
            ledger.observe(&sample(0, second, 0, 40_000));
            ledger.observe(&sample(1, second, 0, 40_000));
        }
        // Second 0: a background claim far beyond the r/(1−r) share of
        // the demonstrated echo (TorMult-style inflation over the
        // self-reported channel).
        ledger.observe(&sample(2, 0, 60_000, 80_000));
        // Second 1: an inflated echo claim (the relay says it echoed
        // twice what the measurers saw).
        ledger.observe(&sample(2, 1, 10_000, 160_000));
        // Second 2: honest (bound is 80_000/3 ≈ 26.7k, ×1.1 tolerance).
        ledger.observe(&sample(2, 2, 26_000, 80_000));
        let rows = ledger.rows(&dir, 0);
        let flags: Vec<bool> =
            rows.iter().filter(|r| r.peer == PeerId(2)).map(|r| r.divergent).collect();
        assert_eq!(flags, vec![true, true, false], "{rows:?}");
        assert_eq!(ledger.divergent_count(&dir, 0), 2);
    }

    #[test]
    fn reporting_only_targets_have_no_echo_claim_to_check() {
        // The simulated path: the target reports background only
        // (measured = 0) beside the measurers' rates. Its zero echo claim must not be "divergent" against the
        // measurers' nonzero series, and a modest bg claim passes.
        let dir = TestDir { roles: vec![PeerRole::Measurer, PeerRole::Target], slot_secs: 2 };
        let mut ledger = SampleLedger::new();
        for second in 0..2 {
            ledger.observe(&sample(0, second, 0, 100_000));
            ledger.observe(&sample(1, second, 5_000, 0));
        }
        assert_eq!(ledger.divergent_count(&dir, 0), 0, "{:?}", ledger.rows(&dir, 0));
        // But an absurd bg claim is still caught even with no echo
        // claim: plausibility binds on the measurers' demonstrated
        // bytes, not on the relay's own assertion.
        let mut lying = SampleLedger::new();
        for second in 0..2 {
            lying.observe(&sample(0, second, 0, 100_000));
            lying.observe(&sample(1, second, 2_000_000, 0));
        }
        assert_eq!(lying.divergent_count(&dir, 0), 2, "{:?}", lying.rows(&dir, 0));
    }

    #[test]
    fn hard_deadline_terminates_a_wedged_batch() {
        let token = [9u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts {
            handshake: SimDuration::from_secs(1_000_000),
            report: SimDuration::from_secs(1_000_000),
        };
        let mut builder = MeasurementEngine::builder();
        let (ca, _cb) = Duplex::loopback().into_endpoints();
        builder.add_peer(
            0,
            CoordinatorSession::new(token, PeerRole::Measurer, spec(30), 5, t),
            Box::new(ca),
        );
        let mut engine = builder.hard_deadline(SimTime::from_secs(3)).build(SimTime::ZERO);
        // The peer never answers and the session timeouts are absurd;
        // only the hard wall ends this.
        let mut now = SimTime::ZERO;
        let events = engine.run_to_completion(|| {
            let t = now;
            now += SimDuration::from_secs(1);
            t
        });
        assert!(events
            .iter()
            .any(|e| matches!(e, EngineEvent::PeerFailed { reason: AbortReason::Shutdown, .. })));
    }
}
