//! Sans-IO session state machines for both ends of the protocol.
//!
//! A session consumes raw bytes ([`CoordinatorSession::receive`] /
//! [`MeasurerSession::receive`]), emits encoded frames to send
//! (`poll_outbound`) and *actions* for its driver (`poll_action`), and is
//! advanced through time with `on_tick`. No clocks, sockets, or threads
//! are touched — the caller owns IO and time, which is what lets the same
//! sessions run over the in-memory simulated transport today and a real
//! TCP transport later.
//!
//! Robustness rules (§4.1 "a stalled or lying measurer must degrade the
//! measurement, not wedge it"):
//!
//! * every waiting state has a deadline; passing it aborts the session
//!   with [`AbortReason::HandshakeTimeout`] or
//!   [`AbortReason::ReportTimeout`];
//! * any frame the current state cannot accept aborts with
//!   [`AbortReason::OutOfOrder`];
//! * any undecodable byte stream aborts with [`AbortReason::Malformed`];
//! * a running peer may report at most [`DEFAULT_REPORT_AHEAD_CAP`]
//!   seconds beyond the time elapsed since `Go`; a
//!   flood of unsolicited `SecondReport`s beyond it aborts with
//!   [`AbortReason::Flooded`] instead of growing buffers without bound;
//! * a terminal session ignores further input instead of erroring, so a
//!   late frame from a dead peer cannot resurrect anything.
//!
//! Handshake freshness: every `Auth` carries a coordinator-chosen random
//! nonce that the peer must echo in `AuthOk`. The coordinator rejects an
//! `AuthOk` with the wrong nonce (a replayed or pre-recorded response),
//! and a peer that claims every session's accepted nonce in one
//! [`ReplayWindow`] refuses an `Auth` nonce it has already seen (a
//! replayed handshake opener).

use std::collections::{HashSet, VecDeque};

use flashflow_simnet::time::{SimDuration, SimTime};

use crate::frame::{encode, FrameDecoder};
use crate::msg::{AbortReason, MeasureSpec, Msg, PeerRole, AUTH_TOKEN_LEN};

/// The driver-facing surface shared by both session halves: bytes in,
/// bytes out, actions out, time in. [`crate::endpoint::Endpoint`] and the
/// engine layers are generic over this, which is what lets one pump loop
/// drive either side of the protocol over any transport.
pub trait SessionState {
    /// What the session asks its driver to do.
    type Action;

    /// Feeds received bytes; decoded frames advance the state machine.
    fn receive(&mut self, now: SimTime, bytes: &[u8]);
    /// Next encoded frame to put on the wire, if any.
    fn poll_outbound(&mut self) -> Option<Vec<u8>>;
    /// Next action for the driver, if any.
    fn poll_action(&mut self) -> Option<Self::Action>;
    /// Advances time; fires the current deadline if passed.
    fn on_tick(&mut self, now: SimTime);
    /// Aborts locally; notifies the peer if the session is still live.
    fn abort(&mut self, reason: AbortReason);
    /// True once the session can make no further progress.
    fn is_terminal(&self) -> bool;
}

/// A bounded set of `Auth` nonces a peer process has accepted: each of
/// its conversations claims its session's
/// [`MeasurerSession::accepted_nonce`] here, so a replayed handshake
/// opener is refused even though each conversation gets a fresh session.
///
/// Semantics (the contract tests and the measurer binary rely on):
///
/// * the window never holds more than `cap` nonces, no matter how many
///   unique nonces are witnessed — memory stays bounded under a flood;
/// * once full, witnessing a *fresh* nonce evicts the **least recently
///   seen** nonce. A replay *attempt* refreshes its nonce's recency even
///   though it is rejected, so an attacker replaying a nonce under
///   attack cannot also age it out of the window with filler nonces;
/// * a nonce that has been evicted is forgotten: replaying it afterwards
///   is **accepted** by the window. This is the unavoidable trade-off of
///   a bounded window; it is safe because the replayed `Auth` only opens
///   a session — the coordinator's own `AuthOk` nonce-echo check still
///   rejects any stale response produced from it, and a flood of `cap`
///   unique nonces requires knowing the pre-shared token in the first
///   place.
#[derive(Debug, Clone)]
pub struct ReplayWindow {
    seen: HashSet<u64>,
    order: VecDeque<u64>,
    cap: usize,
}

impl Default for ReplayWindow {
    fn default() -> Self {
        ReplayWindow::new(1024)
    }
}

impl ReplayWindow {
    /// A window remembering at most `cap` nonces.
    ///
    /// # Panics
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "replay window needs capacity");
        ReplayWindow { seen: HashSet::new(), order: VecDeque::new(), cap }
    }

    /// Records `nonce`; returns `true` if it was fresh, `false` if it was
    /// already in the window (a replay). A caught replay refreshes the
    /// nonce's recency, so repeated replay attempts keep it protected.
    pub fn witness(&mut self, nonce: u64) -> bool {
        if self.seen.contains(&nonce) {
            if let Some(pos) = self.order.iter().position(|&n| n == nonce) {
                self.order.remove(pos);
                self.order.push_back(nonce);
            }
            return false;
        }
        if self.order.len() == self.cap {
            let evicted = self.order.pop_front().expect("cap > 0");
            self.seen.remove(&evicted);
        }
        self.order.push_back(nonce);
        self.seen.insert(nonce);
        true
    }

    /// True if `nonce` is currently remembered.
    pub fn contains(&self, nonce: u64) -> bool {
        self.seen.contains(&nonce)
    }

    /// Number of nonces currently remembered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if no nonce has been witnessed yet.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The remembered nonces, least recently seen first.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.order.iter().copied()
    }
}

/// Timeouts governing a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTimeouts {
    /// Longest wait for any single handshake step (Auth → AuthOk,
    /// MeasureCmd → Ready, Ready → Go).
    pub handshake: SimDuration,
    /// Longest gap between per-second reports while a slot runs.
    pub report: SimDuration,
}

impl SessionTimeouts {
    /// The timeouts of a session on an unsped clock. `handshake` is also
    /// how long a parked connection's next session waits for its `Auth`.
    pub const DEFAULT: SessionTimeouts = SessionTimeouts {
        handshake: SimDuration::from_secs(10),
        report: SimDuration::from_secs(5),
    };

    /// [`SessionTimeouts::DEFAULT`] on a clock sped up `speedup` times:
    /// the same wall time at any speedup of at least 1, so a sped-up
    /// deployment's timeouts are not fractions of a wall second that a
    /// loaded box cannot meet. The coordinator and every peer, in a
    /// process or in memory, run their sessions with these.
    pub fn for_speedup(speedup: f64) -> SessionTimeouts {
        let scale = speedup.max(1.0);
        SessionTimeouts {
            handshake: SessionTimeouts::DEFAULT.handshake * scale,
            report: SessionTimeouts::DEFAULT.report * scale,
        }
    }
}

impl Default for SessionTimeouts {
    fn default() -> Self {
        SessionTimeouts::DEFAULT
    }
}

/// How many seconds a peer may report beyond the time elapsed since its
/// `Go`, on the coordinator's clock, before its session aborts with
/// [`AbortReason::Flooded`].
///
/// Peers run the coordinator's own clock (a sped-up deployment runs
/// every process at the same speedup), and a [`MeasurerSession`] makes
/// second `j` due only at the `Go` it received plus `j + 1` seconds
/// ([`MeasurerSession::next_report`]), so honest reports trail the
/// coordinator's clock; latency jitter and coalesced TCP delivery bunch
/// them by a second or two at most. A peer blasting
/// a whole slot's worth of reports at once is inflating or probing, and
/// buffering its backlog is how memory grows without bound.
pub const DEFAULT_REPORT_AHEAD_CAP: u32 = 8;

/// Where a coordinator-side session stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordPhase {
    /// Created; `start` not yet called.
    Idle,
    /// Auth sent, waiting for AuthOk.
    AwaitAuthOk,
    /// MeasureCmd sent, waiting for Ready.
    AwaitReady,
    /// Peer is ready; waiting for the coordinator's barrier (`go`).
    Armed,
    /// Go sent; collecting per-second reports.
    Running,
    /// SlotDone received.
    Done,
    /// Aborted (either side) or timed out.
    Failed,
}

/// What a coordinator session asks its driver to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordAction {
    /// The peer authenticated and reports ready; when every session is
    /// `Armed` the driver should call `go` on all of them.
    PeerReady,
    /// One per-second report arrived.
    Sample {
        /// Zero-based second index.
        second: u32,
        /// Reported background bytes.
        bg_bytes: u64,
        /// Reported measurement bytes.
        measured_bytes: u64,
    },
    /// The peer finished its slot.
    PeerDone,
    /// The session is dead; drop the peer's contribution.
    PeerFailed {
        /// Why.
        reason: AbortReason,
    },
}

/// The coordinator's half of one conversation.
#[derive(Debug)]
pub struct CoordinatorSession {
    phase: CoordPhase,
    token: [u8; AUTH_TOKEN_LEN],
    role: PeerRole,
    spec: MeasureSpec,
    nonce: u64,
    timeouts: SessionTimeouts,
    deadline: Option<SimTime>,
    seconds_received: u32,
    /// When `Go` was sent; the reference point for the flood cap.
    go_at: Option<SimTime>,
    decoder: FrameDecoder,
    outbound: VecDeque<Vec<u8>>,
    actions: VecDeque<CoordAction>,
    /// Frames successfully decoded from the peer.
    pub frames_rx: u64,
    /// Frames queued for the peer.
    pub frames_tx: u64,
}

impl CoordinatorSession {
    /// A session that will drive `role`-peer through `spec`. `nonce`
    /// must be fresh and unpredictable (the caller owns randomness —
    /// sessions stay deterministic); the peer has to echo it in `AuthOk`.
    pub fn new(
        token: [u8; AUTH_TOKEN_LEN],
        role: PeerRole,
        spec: MeasureSpec,
        nonce: u64,
        timeouts: SessionTimeouts,
    ) -> Self {
        CoordinatorSession {
            phase: CoordPhase::Idle,
            token,
            role,
            spec,
            nonce,
            timeouts,
            deadline: None,
            seconds_received: 0,
            go_at: None,
            decoder: FrameDecoder::new(),
            outbound: VecDeque::new(),
            actions: VecDeque::new(),
            frames_rx: 0,
            frames_tx: 0,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> CoordPhase {
        self.phase
    }

    /// The command this session was built around.
    pub fn spec(&self) -> MeasureSpec {
        self.spec
    }

    /// The role this session expects of its peer.
    pub fn role(&self) -> PeerRole {
        self.role
    }

    /// The handshake nonce this session challenges its peer with.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// Opens the conversation: queues `Auth` and starts the handshake
    /// timer.
    ///
    /// # Panics
    /// Panics unless the session is `Idle`.
    pub fn start(&mut self, now: SimTime) {
        assert_eq!(self.phase, CoordPhase::Idle, "start() on a started session");
        self.send(Msg::Auth { token: self.token, role: self.role, nonce: self.nonce });
        self.phase = CoordPhase::AwaitAuthOk;
        self.deadline = Some(now + self.timeouts.handshake);
    }

    /// Releases the barrier: queues `Go` and starts the report timer.
    ///
    /// # Panics
    /// Panics unless the session is `Armed`.
    pub fn go(&mut self, now: SimTime) {
        assert_eq!(self.phase, CoordPhase::Armed, "go() on a session that is not Armed");
        self.send(Msg::Go);
        self.phase = CoordPhase::Running;
        self.go_at = Some(now);
        self.deadline = Some(now + self.timeouts.report);
    }

    fn on_msg(&mut self, now: SimTime, msg: Msg) {
        match (self.phase, msg) {
            (CoordPhase::AwaitAuthOk, Msg::AuthOk { nonce, .. }) => {
                // An AuthOk that does not echo this session's challenge
                // is a replayed or pre-recorded response, not proof the
                // peer holds the token *now*.
                if nonce != self.nonce {
                    self.fail(AbortReason::AuthFailed, true);
                    return;
                }
                self.send(Msg::MeasureCmd(self.spec));
                self.phase = CoordPhase::AwaitReady;
                self.deadline = Some(now + self.timeouts.handshake);
            }
            (CoordPhase::AwaitReady, Msg::Ready) => {
                self.phase = CoordPhase::Armed;
                // The barrier wait is bounded too: if the driver never
                // releases it (every other peer failed), this session
                // still times out instead of idling forever.
                self.deadline = Some(now + self.timeouts.handshake);
                self.actions.push_back(CoordAction::PeerReady);
            }
            (CoordPhase::Running, Msg::SecondReport { second, bg_bytes, measured_bytes }) => {
                // Reports must arrive exactly once, in order, and never
                // past the commanded slot: a compromised measurer that
                // replays or invents seconds would otherwise inflate
                // every x_j it contributes to — the precise attack this
                // trust boundary exists to stop.
                if second != self.seconds_received || second >= self.spec.slot_secs {
                    self.fail(AbortReason::OutOfOrder, true);
                    return;
                }
                // Backpressure: a report for second `j` should not arrive
                // before roughly `j` seconds have passed since Go. A peer
                // far ahead of the clock is flooding unsolicited reports;
                // buffering its backlog would grow memory without bound,
                // so drop the peer instead (its samples are quarantined
                // anyway).
                let since_go = now
                    .saturating_duration_since(self.go_at.expect("Running implies go_at"))
                    .as_secs();
                if u64::from(second) > since_go + u64::from(DEFAULT_REPORT_AHEAD_CAP) {
                    self.fail(AbortReason::Flooded, true);
                    return;
                }
                self.seconds_received += 1;
                self.deadline = Some(now + self.timeouts.report);
                self.actions.push_back(CoordAction::Sample { second, bg_bytes, measured_bytes });
            }
            (CoordPhase::Running, Msg::SlotDone) => {
                // SlotDone promises every commanded second was reported
                // (see [`Msg::SlotDone`]); a short slot is a violation,
                // not a completion.
                if self.seconds_received != self.spec.slot_secs {
                    self.fail(AbortReason::OutOfOrder, true);
                    return;
                }
                self.phase = CoordPhase::Done;
                self.deadline = None;
                self.actions.push_back(CoordAction::PeerDone);
            }
            (_, Msg::Abort { reason }) => {
                self.fail(reason, false);
            }
            (_, other) => {
                debug_assert!(!self.is_terminal());
                let _ = other;
                self.fail(AbortReason::OutOfOrder, true);
            }
        }
    }

    fn send(&mut self, msg: Msg) {
        self.frames_tx += 1;
        self.outbound.push_back(encode(&msg));
    }

    fn fail(&mut self, reason: AbortReason, notify_peer: bool) {
        if notify_peer {
            self.send(Msg::Abort { reason });
        }
        self.phase = CoordPhase::Failed;
        self.deadline = None;
        self.actions.push_back(CoordAction::PeerFailed { reason });
    }
}

/// Where a peer-side session stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasurerPhase {
    /// Waiting for the coordinator's Auth.
    AwaitAuth,
    /// Authenticated; waiting for MeasureCmd.
    AwaitCmd,
    /// Ready sent; waiting for Go.
    AwaitGo,
    /// Blasting (or, for the target role, reporting).
    Running,
    /// SlotDone sent.
    Done,
    /// Aborted (either side) or timed out.
    Failed,
}

/// What a peer session asks its driver to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasurerAction {
    /// Open sockets / build circuits for this command.
    Prepare {
        /// The slot command.
        spec: MeasureSpec,
    },
    /// Go received: start blasting and reporting seconds.
    Start {
        /// The slot command.
        spec: MeasureSpec,
    },
    /// Stop blasting and tear down (slot over or session dead).
    Stop,
}

/// The measurer's (or reporting target's) half of one conversation.
#[derive(Debug)]
pub struct MeasurerSession {
    phase: MeasurerPhase,
    expected_token: [u8; AUTH_TOKEN_LEN],
    expected_role: PeerRole,
    session_id: u64,
    timeouts: SessionTimeouts,
    deadline: Option<SimTime>,
    spec: Option<MeasureSpec>,
    /// When `Go` arrived: the origin of the slot's report clock.
    go_at: Option<SimTime>,
    seconds_sent: u32,
    /// The `Auth` nonce accepted by this session, once past that step.
    accepted_nonce: Option<u64>,
    decoder: FrameDecoder,
    outbound: VecDeque<Vec<u8>>,
    actions: VecDeque<MeasurerAction>,
}

impl MeasurerSession {
    /// A session expecting `expected_token` for `expected_role`.
    pub fn new(
        expected_token: [u8; AUTH_TOKEN_LEN],
        expected_role: PeerRole,
        session_id: u64,
        timeouts: SessionTimeouts,
    ) -> Self {
        MeasurerSession {
            phase: MeasurerPhase::AwaitAuth,
            expected_token,
            expected_role,
            session_id,
            timeouts,
            deadline: None,
            spec: None,
            go_at: None,
            seconds_sent: 0,
            accepted_nonce: None,
            decoder: FrameDecoder::new(),
            outbound: VecDeque::new(),
            actions: VecDeque::new(),
        }
    }

    /// The `Auth` nonce this session accepted, once the handshake has
    /// passed that step. The peer claims it in its process-wide
    /// [`ReplayWindow`] before the `AuthOk` leaves, and refuses the
    /// conversation if the window already held it; of two concurrent
    /// connections replaying one opener, exactly one claims it first.
    pub fn accepted_nonce(&self) -> Option<u64> {
        self.accepted_nonce
    }

    /// Current phase.
    pub fn phase(&self) -> MeasurerPhase {
        self.phase
    }

    /// When the current waiting state times out: `None` in a state
    /// without one, and before the first tick arms the accept deadline.
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }

    /// When the running slot's next report is due: second `j` at the
    /// `Go` it received plus `j + 1` seconds, on the clock the session is
    /// fed. `None` outside a running slot, so nothing is due after the
    /// last second.
    pub fn next_report(&self) -> Option<SimTime> {
        let (spec, go) = self.spec.zip(self.go_at)?;
        let running = self.phase == MeasurerPhase::Running && self.seconds_sent < spec.slot_secs;
        running.then(|| go + SimDuration::from_secs(u64::from(self.seconds_sent) + 1))
    }

    /// Seconds of the slot reported so far.
    pub fn seconds_reported(&self) -> u32 {
        self.seconds_sent
    }

    /// Reports one completed second of the running slot, whether or not
    /// [`MeasurerSession::next_report`] has come. Queues the
    /// `SecondReport`, and `SlotDone` after the final second (the driver
    /// then receives [`MeasurerAction::Stop`]).
    ///
    /// # Panics
    /// Panics unless the session is `Running`.
    pub fn report_second(&mut self, bg_bytes: u64, measured_bytes: u64) {
        assert_eq!(self.phase, MeasurerPhase::Running, "report_second outside Running");
        let spec = self.spec.expect("Running implies spec");
        let second = self.seconds_sent;
        self.send(Msg::SecondReport { second, bg_bytes, measured_bytes });
        self.seconds_sent += 1;
        if self.seconds_sent >= spec.slot_secs {
            self.send(Msg::SlotDone);
            self.phase = MeasurerPhase::Done;
            self.deadline = None;
            self.actions.push_back(MeasurerAction::Stop);
        }
    }

    fn on_msg(&mut self, now: SimTime, msg: Msg) {
        match (self.phase, msg) {
            (MeasurerPhase::AwaitAuth, Msg::Auth { token, role, nonce }) => {
                if token != self.expected_token || role != self.expected_role {
                    self.fail(AbortReason::AuthFailed, true);
                    return;
                }
                self.accepted_nonce = Some(nonce);
                self.send(Msg::AuthOk { session: self.session_id, nonce });
                self.phase = MeasurerPhase::AwaitCmd;
                self.deadline = Some(now + self.timeouts.handshake);
            }
            (MeasurerPhase::AwaitCmd, Msg::MeasureCmd(spec)) => {
                self.spec = Some(spec);
                self.actions.push_back(MeasurerAction::Prepare { spec });
                self.send(Msg::Ready);
                self.phase = MeasurerPhase::AwaitGo;
                self.deadline = Some(now + self.timeouts.handshake);
            }
            (MeasurerPhase::AwaitGo, Msg::Go) => {
                let spec = self.spec.expect("AwaitGo implies spec");
                self.phase = MeasurerPhase::Running;
                self.go_at = Some(now);
                // While running, the peer's own liveness is driven by the
                // slot itself; the coordinator enforces report gaps.
                self.deadline = None;
                self.actions.push_back(MeasurerAction::Start { spec });
            }
            (_, Msg::Abort { reason }) => {
                self.fail(reason, false);
            }
            (_, other) => {
                let _ = other;
                self.fail(AbortReason::OutOfOrder, true);
            }
        }
    }

    fn send(&mut self, msg: Msg) {
        self.outbound.push_back(encode(&msg));
    }

    fn fail(&mut self, reason: AbortReason, notify_peer: bool) {
        if notify_peer {
            self.send(Msg::Abort { reason });
        }
        let was_running = self.phase == MeasurerPhase::Running;
        self.phase = MeasurerPhase::Failed;
        self.deadline = None;
        if was_running {
            self.actions.push_back(MeasurerAction::Stop);
        }
    }
}

impl SessionState for CoordinatorSession {
    type Action = CoordAction;

    fn is_terminal(&self) -> bool {
        matches!(self.phase, CoordPhase::Done | CoordPhase::Failed)
    }

    fn receive(&mut self, now: SimTime, bytes: &[u8]) {
        if self.is_terminal() {
            return;
        }
        self.decoder.push(bytes);
        loop {
            match self.decoder.next_msg() {
                Ok(Some(msg)) => {
                    self.frames_rx += 1;
                    self.on_msg(now, msg);
                    if self.is_terminal() {
                        return;
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    self.fail(AbortReason::Malformed, true);
                    return;
                }
            }
        }
    }

    fn on_tick(&mut self, now: SimTime) {
        if self.is_terminal() {
            return;
        }
        let Some(deadline) = self.deadline else { return };
        if now < deadline {
            return;
        }
        let reason = match self.phase {
            CoordPhase::Running => AbortReason::ReportTimeout,
            _ => AbortReason::HandshakeTimeout,
        };
        self.fail(reason, true);
    }

    /// Aborts locally (e.g. operator shutdown); notifies the peer.
    fn abort(&mut self, reason: AbortReason) {
        if !self.is_terminal() {
            self.fail(reason, true);
        }
    }

    fn poll_outbound(&mut self) -> Option<Vec<u8>> {
        self.outbound.pop_front()
    }

    fn poll_action(&mut self) -> Option<CoordAction> {
        self.actions.pop_front()
    }
}

impl SessionState for MeasurerSession {
    type Action = MeasurerAction;

    fn is_terminal(&self) -> bool {
        matches!(self.phase, MeasurerPhase::Done | MeasurerPhase::Failed)
    }

    fn receive(&mut self, now: SimTime, bytes: &[u8]) {
        if self.is_terminal() {
            return;
        }
        self.decoder.push(bytes);
        loop {
            match self.decoder.next_msg() {
                Ok(Some(msg)) => {
                    self.on_msg(now, msg);
                    if self.is_terminal() {
                        return;
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    self.fail(AbortReason::Malformed, true);
                    return;
                }
            }
        }
    }

    /// Advances time; a peer mid-handshake whose coordinator goes silent
    /// gives up rather than holding resources forever — including a
    /// coordinator that connects and never says anything at all: the
    /// first tick arms an accept-time deadline for the initial `Auth`,
    /// so a silent connection cannot hold a session (and its serving
    /// thread, in a measurer process) open indefinitely.
    fn on_tick(&mut self, now: SimTime) {
        if self.is_terminal() {
            return;
        }
        if self.deadline.is_none() && self.phase == MeasurerPhase::AwaitAuth {
            self.deadline = Some(now + self.timeouts.handshake);
            return;
        }
        let Some(deadline) = self.deadline else { return };
        if now >= deadline {
            self.fail(AbortReason::HandshakeTimeout, true);
        }
    }

    /// Aborts locally; notifies the coordinator.
    fn abort(&mut self, reason: AbortReason) {
        if !self.is_terminal() {
            self.fail(reason, true);
        }
    }

    fn poll_outbound(&mut self) -> Option<Vec<u8>> {
        self.outbound.pop_front()
    }

    fn poll_action(&mut self) -> Option<MeasurerAction> {
        self.actions.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::FINGERPRINT_LEN;

    fn spec() -> MeasureSpec {
        MeasureSpec {
            relay_fp: [3; FINGERPRINT_LEN],
            slot_secs: 3,
            sockets: 80,
            rate_cap: 1_000,
            ..MeasureSpec::default()
        }
    }

    fn pump(now: SimTime, coord: &mut CoordinatorSession, meas: &mut MeasurerSession) {
        // Deliver queued frames both ways until quiescent.
        loop {
            let mut moved = false;
            while let Some(f) = coord.poll_outbound() {
                meas.receive(now, &f);
                moved = true;
            }
            while let Some(f) = meas.poll_outbound() {
                coord.receive(now, &f);
                moved = true;
            }
            if !moved {
                return;
            }
        }
    }

    #[test]
    fn golden_path_runs_to_completion() {
        let token = [9u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts::default();
        let mut coord = CoordinatorSession::new(token, PeerRole::Measurer, spec(), 0xA5, t);
        let mut meas = MeasurerSession::new(token, PeerRole::Measurer, 42, t);
        let now = SimTime::ZERO;

        coord.start(now);
        pump(now, &mut coord, &mut meas);
        assert_eq!(coord.phase(), CoordPhase::Armed);
        assert_eq!(coord.poll_action(), Some(CoordAction::PeerReady));
        assert!(matches!(meas.poll_action(), Some(MeasurerAction::Prepare { .. })));

        coord.go(now);
        pump(now, &mut coord, &mut meas);
        assert!(matches!(meas.poll_action(), Some(MeasurerAction::Start { .. })));

        for s in 0..3u64 {
            meas.report_second(0, 1000 + s);
        }
        pump(now, &mut coord, &mut meas);
        assert_eq!(meas.phase(), MeasurerPhase::Done);
        assert_eq!(meas.poll_action(), Some(MeasurerAction::Stop));
        assert_eq!(coord.phase(), CoordPhase::Done);
        let mut samples = 0;
        while let Some(a) = coord.poll_action() {
            match a {
                CoordAction::Sample { second, measured_bytes, .. } => {
                    assert_eq!(measured_bytes, 1000 + u64::from(second));
                    samples += 1;
                }
                CoordAction::PeerDone => {}
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(samples, 3);
    }

    #[test]
    fn wrong_token_fails_auth() {
        let t = SessionTimeouts::default();
        let mut coord =
            CoordinatorSession::new([1; AUTH_TOKEN_LEN], PeerRole::Measurer, spec(), 0xA5, t);
        let mut meas = MeasurerSession::new([2; AUTH_TOKEN_LEN], PeerRole::Measurer, 1, t);
        let now = SimTime::ZERO;
        coord.start(now);
        pump(now, &mut coord, &mut meas);
        assert_eq!(meas.phase(), MeasurerPhase::Failed);
        assert_eq!(coord.phase(), CoordPhase::Failed);
        assert_eq!(
            coord.poll_action(),
            Some(CoordAction::PeerFailed { reason: AbortReason::AuthFailed })
        );
    }

    #[test]
    fn silent_peer_times_out() {
        let t = SessionTimeouts {
            handshake: SimDuration::from_secs(5),
            report: SimDuration::from_secs(2),
        };
        let mut coord =
            CoordinatorSession::new([1; AUTH_TOKEN_LEN], PeerRole::Measurer, spec(), 0xA5, t);
        coord.start(SimTime::ZERO);
        coord.on_tick(SimTime::from_secs(4));
        assert_eq!(coord.phase(), CoordPhase::AwaitAuthOk);
        coord.on_tick(SimTime::from_secs(5));
        assert_eq!(coord.phase(), CoordPhase::Failed);
        assert_eq!(
            coord.poll_action(),
            Some(CoordAction::PeerFailed { reason: AbortReason::HandshakeTimeout })
        );
        // An Abort frame was queued for the (possibly half-dead) peer.
        let frame = coord.poll_outbound().expect("Auth frame");
        let _ = frame;
        let abort = coord.poll_outbound().expect("Abort frame");
        let mut dec = FrameDecoder::new();
        dec.push(&abort);
        assert_eq!(
            dec.next_msg().unwrap(),
            Some(Msg::Abort { reason: AbortReason::HandshakeTimeout })
        );
    }

    #[test]
    fn stalled_reports_time_out_and_stop_blast() {
        let token = [7u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts {
            handshake: SimDuration::from_secs(5),
            report: SimDuration::from_secs(2),
        };
        let mut coord = CoordinatorSession::new(token, PeerRole::Measurer, spec(), 0xA5, t);
        let mut meas = MeasurerSession::new(token, PeerRole::Measurer, 1, t);
        let now = SimTime::ZERO;
        coord.start(now);
        pump(now, &mut coord, &mut meas);
        coord.go(now);
        pump(now, &mut coord, &mut meas);
        meas.report_second(0, 500);
        pump(now, &mut coord, &mut meas);

        // ... then the measurer goes silent for longer than `report`.
        let later = SimTime::from_secs(3);
        coord.on_tick(later);
        assert_eq!(coord.phase(), CoordPhase::Failed);
        // Coordinator told the peer; delivering it stops the blast.
        pump(later, &mut coord, &mut meas);
        assert_eq!(meas.phase(), MeasurerPhase::Failed);
        let actions: Vec<_> = std::iter::from_fn(|| meas.poll_action()).collect();
        assert!(actions.contains(&MeasurerAction::Stop), "{actions:?}");
    }

    #[test]
    fn replayed_or_invented_seconds_abort_the_peer() {
        let token = [7u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts::default();
        let now = SimTime::ZERO;

        // A replayed second index (inflation attempt) is fatal.
        let mut coord = CoordinatorSession::new(token, PeerRole::Measurer, spec(), 0xA5, t);
        let mut meas = MeasurerSession::new(token, PeerRole::Measurer, 1, t);
        coord.start(now);
        pump(now, &mut coord, &mut meas);
        coord.go(now);
        pump(now, &mut coord, &mut meas);
        coord.receive(
            now,
            &encode(&Msg::SecondReport { second: 0, bg_bytes: 0, measured_bytes: 10 }),
        );
        coord.receive(
            now,
            &encode(&Msg::SecondReport { second: 0, bg_bytes: 0, measured_bytes: 10 }),
        );
        assert_eq!(coord.phase(), CoordPhase::Failed);
        let actions: Vec<_> = std::iter::from_fn(|| coord.poll_action()).collect();
        assert!(
            actions.contains(&CoordAction::PeerFailed { reason: AbortReason::OutOfOrder }),
            "{actions:?}"
        );
        // Exactly one sample survived.
        let samples = actions.iter().filter(|a| matches!(a, CoordAction::Sample { .. })).count();
        assert_eq!(samples, 1);

        // A second index beyond the commanded slot is equally fatal.
        let mut coord = CoordinatorSession::new(token, PeerRole::Measurer, spec(), 0xA5, t);
        let mut meas = MeasurerSession::new(token, PeerRole::Measurer, 2, t);
        coord.start(now);
        pump(now, &mut coord, &mut meas);
        coord.go(now);
        pump(now, &mut coord, &mut meas);
        let wide = spec().slot_secs;
        coord.receive(
            now,
            &encode(&Msg::SecondReport { second: wide, bg_bytes: 0, measured_bytes: 10 }),
        );
        assert_eq!(coord.phase(), CoordPhase::Failed);
    }

    #[test]
    fn premature_slot_done_aborts_the_peer() {
        let token = [7u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts::default();
        let now = SimTime::ZERO;
        let mut coord = CoordinatorSession::new(token, PeerRole::Measurer, spec(), 0xA5, t);
        let mut meas = MeasurerSession::new(token, PeerRole::Measurer, 1, t);
        coord.start(now);
        pump(now, &mut coord, &mut meas);
        coord.go(now);
        pump(now, &mut coord, &mut meas);
        // Only 1 of the commanded 3 seconds, then a premature SlotDone.
        coord.receive(
            now,
            &encode(&Msg::SecondReport { second: 0, bg_bytes: 0, measured_bytes: 10 }),
        );
        coord.receive(now, &encode(&Msg::SlotDone));
        assert_eq!(coord.phase(), CoordPhase::Failed);
        let actions: Vec<_> = std::iter::from_fn(|| coord.poll_action()).collect();
        assert!(
            actions.contains(&CoordAction::PeerFailed { reason: AbortReason::OutOfOrder }),
            "{actions:?}"
        );
    }

    #[test]
    fn silent_connection_times_out_before_auth() {
        // A coordinator that connects and never sends Auth must not
        // hold the session open forever: the first tick arms an
        // accept-time deadline.
        let t = SessionTimeouts {
            handshake: SimDuration::from_secs(5),
            report: SimDuration::from_secs(2),
        };
        let mut meas = MeasurerSession::new([7; AUTH_TOKEN_LEN], PeerRole::Measurer, 1, t);
        meas.on_tick(SimTime::ZERO);
        assert_eq!(meas.phase(), MeasurerPhase::AwaitAuth, "deadline armed, not yet due");
        meas.on_tick(SimTime::from_secs(4));
        assert_eq!(meas.phase(), MeasurerPhase::AwaitAuth);
        meas.on_tick(SimTime::from_secs(5));
        assert_eq!(meas.phase(), MeasurerPhase::Failed);
    }

    #[test]
    fn parked_session_fails_on_a_retired_keepalive_frame() {
        // Type 9 was the keepalive probe before protocol v7: a parked
        // session now treats it as any unknown frame and fails,
        // answering nothing but its abort.
        let token = [8u8; AUTH_TOKEN_LEN];
        let mut meas =
            MeasurerSession::new(token, PeerRole::Measurer, 1, SessionTimeouts::default());
        meas.on_tick(SimTime::ZERO);
        let mut frame = encode(&Msg::Ready);
        frame[crate::frame::LEN_PREFIX + 1] = 9;
        meas.receive(SimTime::from_secs(1), &frame);
        assert_eq!(meas.phase(), MeasurerPhase::Failed);
        let mut dec = FrameDecoder::new();
        dec.push(&meas.poll_outbound().expect("abort frame"));
        assert_eq!(dec.next_msg().unwrap(), Some(Msg::Abort { reason: AbortReason::Malformed }));
        assert_eq!(meas.poll_outbound(), None);
    }

    #[test]
    fn out_of_order_frame_aborts() {
        let token = [7u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts::default();
        let mut meas = MeasurerSession::new(token, PeerRole::Measurer, 1, t);
        // Go before Auth is a protocol violation.
        meas.receive(SimTime::ZERO, &encode(&Msg::Go));
        assert_eq!(meas.phase(), MeasurerPhase::Failed);
        let mut dec = FrameDecoder::new();
        dec.push(&meas.poll_outbound().expect("abort frame"));
        assert_eq!(dec.next_msg().unwrap(), Some(Msg::Abort { reason: AbortReason::OutOfOrder }));
    }

    #[test]
    fn garbage_bytes_abort_with_malformed() {
        let t = SessionTimeouts::default();
        let mut coord =
            CoordinatorSession::new([1; AUTH_TOKEN_LEN], PeerRole::Target, spec(), 0xA5, t);
        coord.start(SimTime::ZERO);
        coord.receive(SimTime::ZERO, &[0xFF; 64]);
        assert_eq!(coord.phase(), CoordPhase::Failed);
        let mut saw_failed = false;
        while let Some(a) = coord.poll_action() {
            if a == (CoordAction::PeerFailed { reason: AbortReason::Malformed }) {
                saw_failed = true;
            }
        }
        assert!(saw_failed);
    }

    #[test]
    fn wrong_authok_nonce_fails_auth() {
        let t = SessionTimeouts::default();
        let mut coord =
            CoordinatorSession::new([1; AUTH_TOKEN_LEN], PeerRole::Measurer, spec(), 0xA5, t);
        coord.start(SimTime::ZERO);
        // A replayed AuthOk echoing some other handshake's nonce.
        coord.receive(SimTime::ZERO, &encode(&Msg::AuthOk { session: 5, nonce: 0xBEEF }));
        assert_eq!(coord.phase(), CoordPhase::Failed);
        assert_eq!(
            coord.poll_action(),
            Some(CoordAction::PeerFailed { reason: AbortReason::AuthFailed })
        );
    }

    #[test]
    fn the_accepted_auth_nonce_is_exposed_for_the_peer_to_claim() {
        let token = [9u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts::default();
        let mut meas = MeasurerSession::new(token, PeerRole::Measurer, 1, t);
        assert_eq!(meas.accepted_nonce(), None);
        meas.receive(
            SimTime::ZERO,
            &encode(&Msg::Auth { token, role: PeerRole::Measurer, nonce: 7 }),
        );
        assert_eq!(meas.phase(), MeasurerPhase::AwaitCmd);
        assert_eq!(meas.accepted_nonce(), Some(7));
        // A refused `Auth` exposes nothing to claim.
        let mut refused = MeasurerSession::new(token, PeerRole::Target, 2, t);
        refused.receive(
            SimTime::ZERO,
            &encode(&Msg::Auth { token, role: PeerRole::Measurer, nonce: 8 }),
        );
        assert_eq!(refused.phase(), MeasurerPhase::Failed);
        assert_eq!(refused.accepted_nonce(), None);
    }

    #[test]
    fn replay_window_is_bounded_with_recency_eviction() {
        let mut w = ReplayWindow::new(2);
        assert!(w.witness(1));
        assert!(w.witness(2));
        // The caught replay of 1 refreshes its recency...
        assert!(!w.witness(1), "replay caught while remembered");
        // ...so the fresh nonce evicts 2, the least recently seen.
        assert!(w.witness(3), "fresh nonce accepted at capacity");
        assert_eq!(w.len(), 2);
        assert!(!w.contains(2), "least recently seen evicted");
        assert!(w.contains(1) && w.contains(3));
    }

    #[test]
    fn replay_window_stays_at_capacity_under_unique_nonce_flood() {
        let cap = 64;
        let mut w = ReplayWindow::new(cap);
        for nonce in 0..(10 * cap as u64) {
            assert!(w.witness(nonce), "unique nonces are all fresh");
            assert!(w.len() <= cap, "window exceeded its bound at {nonce}");
        }
        assert_eq!(w.len(), cap);
        // Exactly the last `cap` survive, in order.
        let remembered: Vec<u64> = w.iter().collect();
        let expect: Vec<u64> = (9 * cap as u64..10 * cap as u64).collect();
        assert_eq!(remembered, expect);
    }

    #[test]
    fn just_evicted_nonce_is_forgotten_but_protected_nonce_is_not() {
        // The documented trade-off: after a flood of `cap` fresh nonces,
        // a previously accepted nonce has been evicted and its replay is
        // accepted by the window (the AuthOk nonce echo upstream is what
        // still defangs it).
        let cap = 8;
        let mut w = ReplayWindow::new(cap);
        assert!(w.witness(0xAAAA));
        for nonce in 0..cap as u64 {
            assert!(w.witness(nonce));
        }
        assert!(!w.contains(0xAAAA), "flooded out");
        assert!(w.witness(0xAAAA), "an evicted nonce is forgotten, per the docs");

        // But a nonce that keeps being *replayed* stays protected: each
        // caught attempt refreshes it, so filler nonces cannot age it out.
        let mut w = ReplayWindow::new(cap);
        assert!(w.witness(0xBBBB));
        for nonce in 0..(3 * cap as u64) {
            assert!(!w.witness(0xBBBB), "replay caught at attempt {nonce}");
            assert!(w.witness(nonce), "filler nonce is fresh");
        }
        assert!(w.contains(0xBBBB), "nonce under active replay never ages out");
    }

    #[test]
    fn second_report_flood_aborts_with_flooded() {
        let token = [7u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts::default();
        let now = SimTime::ZERO;
        let wide = MeasureSpec {
            relay_fp: [3; FINGERPRINT_LEN],
            slot_secs: 30,
            sockets: 8,
            rate_cap: 1_000,
            ..MeasureSpec::default()
        };
        let mut coord = CoordinatorSession::new(token, PeerRole::Measurer, wide, 0xA5, t);
        let mut meas = MeasurerSession::new(token, PeerRole::Measurer, 1, t);
        coord.start(now);
        pump(now, &mut coord, &mut meas);
        coord.go(now);
        // The peer blasts the whole slot's reports with no time passing:
        // everything past the ahead cap is an unsolicited flood.
        for second in 0..30u32 {
            coord.receive(
                now,
                &encode(&Msg::SecondReport { second, bg_bytes: 0, measured_bytes: 10 }),
            );
        }
        assert_eq!(coord.phase(), CoordPhase::Failed);
        let actions: Vec<_> = std::iter::from_fn(|| coord.poll_action()).collect();
        assert!(
            actions.contains(&CoordAction::PeerFailed { reason: AbortReason::Flooded }),
            "{actions:?}"
        );
        // Buffered samples stay bounded by the cap, not the slot length.
        let samples = actions.iter().filter(|a| matches!(a, CoordAction::Sample { .. })).count();
        assert_eq!(samples, DEFAULT_REPORT_AHEAD_CAP as usize + 1);
    }

    #[test]
    fn paced_reports_never_trip_the_flood_cap() {
        let token = [7u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts::default();
        let wide = MeasureSpec {
            relay_fp: [3; FINGERPRINT_LEN],
            slot_secs: 30,
            sockets: 8,
            rate_cap: 1_000,
            ..MeasureSpec::default()
        };
        let mut coord = CoordinatorSession::new(token, PeerRole::Measurer, wide, 0xA5, t);
        let mut meas = MeasurerSession::new(token, PeerRole::Measurer, 1, t);
        coord.start(SimTime::ZERO);
        pump(SimTime::ZERO, &mut coord, &mut meas);
        coord.go(SimTime::ZERO);
        pump(SimTime::ZERO, &mut coord, &mut meas);
        for second in 0..30u32 {
            let now = SimTime::from_secs(u64::from(second) + 1);
            meas.report_second(0, 1_000);
            pump(now, &mut coord, &mut meas);
        }
        assert_eq!(coord.phase(), CoordPhase::Done);
    }

    #[test]
    fn report_j_is_due_at_go_plus_j_plus_one_seconds() {
        let token = [7u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts::default();
        let mut coord = CoordinatorSession::new(token, PeerRole::Measurer, spec(), 0xA5, t);
        let mut meas = MeasurerSession::new(token, PeerRole::Measurer, 1, t);
        let staged = SimTime::from_secs(7);
        coord.start(staged);
        pump(staged, &mut coord, &mut meas);
        assert_eq!(meas.next_report(), None, "nothing is due before Go");
        let go = staged + SimDuration::from_millis(250);
        coord.go(go);
        pump(go, &mut coord, &mut meas);
        for j in 0..u64::from(spec().slot_secs) {
            assert_eq!(meas.next_report(), Some(go + SimDuration::from_secs(j + 1)), "second {j}");
            meas.report_second(0, 10);
        }
        assert_eq!(meas.phase(), MeasurerPhase::Done);
        assert_eq!(meas.next_report(), None, "nothing is due after the last second");
    }

    #[test]
    fn scaled_timeouts_keep_their_wall_time() {
        let at = |speedup: f64| SessionTimeouts::for_speedup(speedup);
        assert_eq!(at(1.0), SessionTimeouts::DEFAULT);
        assert_eq!(at(0.5), SessionTimeouts::DEFAULT, "a slowed clock is not stretched");
        let fast = at(50.0);
        assert_eq!(fast.handshake, SimDuration::from_secs(500));
        assert_eq!(fast.report, SimDuration::from_secs(250));
    }

    #[test]
    fn terminal_sessions_ignore_late_frames() {
        let t = SessionTimeouts::default();
        let mut coord =
            CoordinatorSession::new([1; AUTH_TOKEN_LEN], PeerRole::Measurer, spec(), 0xA5, t);
        coord.start(SimTime::ZERO);
        coord.abort(AbortReason::Shutdown);
        assert_eq!(coord.phase(), CoordPhase::Failed);
        coord.receive(SimTime::ZERO, &encode(&Msg::AuthOk { session: 5, nonce: 0xA5 }));
        assert_eq!(coord.phase(), CoordPhase::Failed);
    }
}
