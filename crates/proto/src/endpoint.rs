//! Binding a session to a transport: the one pump loop.
//!
//! An [`Endpoint`] pairs any [`SessionState`] (either protocol half)
//! with any [`Transport`] and owns the only code that moves bytes
//! between them. Drivers call [`Endpoint::pump`] whenever the transport
//! may have made progress, [`Endpoint::tick`] when time advances, and
//! [`Endpoint::flush`] to send what they queued after the read;
//! everything else (actions, phases) is read straight off the session.
//!
//! Transport failures are where the byte world meets the state-machine
//! world: the first [`TransportError`] aborts the session with
//! [`AbortReason::ConnectionLost`], drops any frames still queued (there
//! is nowhere for them to go), and closes the transport — so a dead TCP
//! connection degrades the measurement exactly like a stalled peer does,
//! through the session's normal failure path.
//!
//! The reverse direction also holds: once the **session** is terminal,
//! the endpoint flushes its final frames and closes the transport. A
//! terminal session ignores input anyway, so continuing to read would
//! only let a flooding peer keep the endpoint "making progress" forever
//! (wedging any driver that pumps to quiescence, hard deadline and all)
//! while its bytes pile up with nowhere to go.

use flashflow_simnet::time::SimTime;

use crate::msg::AbortReason;
use crate::session::SessionState;
use crate::transport::{Transport, TransportError};

/// A session bound to one transport endpoint.
#[derive(Debug)]
pub struct Endpoint<S: SessionState, T: Transport> {
    session: S,
    transport: T,
    error: Option<TransportError>,
}

impl<S: SessionState, T: Transport> Endpoint<S, T> {
    /// Binds `session` to `transport`.
    pub fn new(session: S, transport: T) -> Self {
        Endpoint { session, transport, error: None }
    }

    /// The session (phase queries, counters).
    pub fn session(&self) -> &S {
        &self.session
    }

    /// The session, mutably (start/go/report_second, action polling).
    pub fn session_mut(&mut self) -> &mut S {
        &mut self.session
    }

    /// The transport (backlog queries).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The transport, mutably (fault tripping in tests and drivers).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// The first transport error observed, if any.
    pub fn transport_error(&self) -> Option<TransportError> {
        self.error
    }

    /// Moves bytes both ways once: queued session frames onto the
    /// transport, arrived transport bytes into the session. Returns
    /// `true` if anything moved (callers loop to quiescence when the
    /// transport is zero-latency).
    ///
    /// Once the session is terminal its final frames are flushed and the
    /// transport is closed; from then on `pump` neither reads nor
    /// reports progress, so a peer that keeps sending (a flood, a
    /// half-dead socket) cannot wedge a pump-to-quiescence driver.
    pub fn pump(&mut self, now: SimTime) -> bool {
        let mut moved = self.flush_outbound(now);
        // Transport → session (skipped once the session is terminal: it
        // would ignore the bytes, and reading them counts as progress).
        if self.error.is_none() && !self.session.is_terminal() {
            match self.transport.recv(now) {
                Ok(bytes) if !bytes.is_empty() => {
                    self.session.receive(now, &bytes);
                    moved = true;
                }
                Ok(_) => {}
                Err(err) => {
                    self.on_transport_error(err);
                    // The abort frame queued by the session has nowhere
                    // to go; drop it so it cannot pile up.
                    while self.session.poll_outbound().is_some() {}
                }
            }
        }
        // The conversation is over: flush the tail the session may have
        // queued while going terminal during this very pump (its Abort
        // or SlotDone), then hang up.
        if self.session.is_terminal() {
            moved |= self.flush(now);
        }
        moved
    }

    /// Sends every frame the session has queued, without reading: the
    /// write half of [`Endpoint::pump`], for a driver that has already
    /// read this step and wants its replies on the wire before it
    /// returns. A terminal session's tail goes out and the transport is
    /// closed, as in `pump`. In-flight bytes still deliver to the peer;
    /// `close` is idempotent. Returns `true` if a frame was sent.
    pub fn flush(&mut self, now: SimTime) -> bool {
        let moved = self.flush_outbound(now);
        if self.session.is_terminal() && self.error.is_none() {
            self.transport.close();
        }
        moved
    }

    /// Sends every queued session frame; drains and drops them instead
    /// once the wire is gone.
    fn flush_outbound(&mut self, now: SimTime) -> bool {
        let mut moved = false;
        while let Some(frame) = self.session.poll_outbound() {
            if self.error.is_some() {
                continue; // drain and drop: the wire is gone
            }
            match self.transport.send(now, &frame) {
                Ok(()) => moved = true,
                Err(err) => self.on_transport_error(err),
            }
        }
        moved
    }

    /// Advances session time (deadline/timeout checks).
    pub fn tick(&mut self, now: SimTime) {
        self.session.on_tick(now);
    }

    /// True once the session can make no further progress.
    pub fn is_terminal(&self) -> bool {
        self.session.is_terminal()
    }

    /// Unbinds, returning the parts.
    pub fn into_parts(self) -> (S, T) {
        (self.session, self.transport)
    }

    fn on_transport_error(&mut self, err: TransportError) {
        if self.error.is_none() {
            self.error = Some(err);
            self.session.abort(AbortReason::ConnectionLost);
            self.transport.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{MeasureSpec, PeerRole, AUTH_TOKEN_LEN, FINGERPRINT_LEN};
    use crate::session::{
        CoordAction, CoordPhase, CoordinatorSession, MeasurerPhase, MeasurerSession,
        SessionTimeouts,
    };
    use crate::transport::Duplex;

    fn spec() -> MeasureSpec {
        MeasureSpec {
            relay_fp: [1; FINGERPRINT_LEN],
            slot_secs: 2,
            sockets: 8,
            rate_cap: 0,
            ..MeasureSpec::default()
        }
    }

    #[test]
    fn endpoints_complete_a_slot_over_a_zero_latency_link() {
        let token = [4u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts::default();
        let (ca, cb) = Duplex::loopback().into_endpoints();
        let mut coord =
            Endpoint::new(CoordinatorSession::new(token, PeerRole::Measurer, spec(), 77, t), ca);
        let mut meas = Endpoint::new(MeasurerSession::new(token, PeerRole::Measurer, 1, t), cb);
        let now = SimTime::ZERO;
        coord.session_mut().start(now);
        // Zero latency: pump to quiescence completes the handshake.
        while coord.pump(now) | meas.pump(now) {}
        assert_eq!(coord.session().phase(), CoordPhase::Armed);
        coord.session_mut().go(now);
        while coord.pump(now) | meas.pump(now) {}
        assert_eq!(meas.session().phase(), MeasurerPhase::Running);
        meas.session_mut().report_second(0, 10);
        meas.session_mut().report_second(0, 20);
        while coord.pump(now) | meas.pump(now) {}
        assert_eq!(coord.session().phase(), CoordPhase::Done);
    }

    #[test]
    fn terminal_endpoint_stops_reading_and_hangs_up() {
        let token = [4u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts::default();
        let (ca, mut cb) = Duplex::loopback().into_endpoints();
        let mut coord =
            Endpoint::new(CoordinatorSession::new(token, PeerRole::Measurer, spec(), 9, t), ca);
        let now = SimTime::ZERO;
        coord.session_mut().start(now);
        coord.pump(now);
        // A peer floods bytes at the endpoint...
        for _ in 0..64 {
            cb.send(now, &[0xEE; 128]).expect("flood");
        }
        // ...and the session goes terminal. The next pump flushes the
        // Abort frame and hangs up without reading the flood.
        coord.session_mut().abort(AbortReason::Shutdown);
        assert!(coord.pump(now), "the Abort frame still goes out");
        assert!(!coord.pump(now), "a terminal endpoint must not report the flood as progress");
        // The wire is released: the peer's next send fails.
        assert_eq!(cb.send(now, b"more"), Err(TransportError::Closed));
    }

    #[test]
    fn flush_sends_the_reply_a_read_queued_without_reading_again() {
        let token = [4u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts::default();
        let (ca, cb) = Duplex::loopback().into_endpoints();
        let mut coord =
            Endpoint::new(CoordinatorSession::new(token, PeerRole::Measurer, spec(), 5, t), ca);
        let mut meas = Endpoint::new(MeasurerSession::new(token, PeerRole::Measurer, 1, t), cb);
        let now = SimTime::ZERO;
        coord.session_mut().start(now);
        coord.pump(now);
        // The read queues `AuthOk`; `pump` flushed before it read.
        assert!(meas.pump(now));
        assert_eq!(coord.transport_mut().recv(now), Ok(Vec::new()), "reply still queued");
        assert!(meas.flush(now), "the queued AuthOk goes out");
        assert!(!meas.flush(now), "nothing left to send");
        coord.pump(now);
        assert_eq!(coord.session().phase(), CoordPhase::AwaitReady);
    }

    #[test]
    fn transport_failure_aborts_with_connection_lost() {
        let token = [4u8; AUTH_TOKEN_LEN];
        let t = SessionTimeouts::default();
        let (ca, mut cb) = Duplex::loopback().into_endpoints();
        let mut coord =
            Endpoint::new(CoordinatorSession::new(token, PeerRole::Measurer, spec(), 77, t), ca);
        let now = SimTime::ZERO;
        coord.session_mut().start(now);
        cb.close(); // peer vanishes
        coord.pump(now); // Auth send fails → ConnectionLost
        assert_eq!(coord.session().phase(), CoordPhase::Failed);
        assert_eq!(coord.transport_error(), Some(TransportError::Closed));
        assert_eq!(
            coord.session_mut().poll_action(),
            Some(CoordAction::PeerFailed { reason: AbortReason::ConnectionLost })
        );
    }
}
