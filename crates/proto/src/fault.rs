//! Fault injection at the transport layer.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and breaks it on demand:
//! from a *trip point* on, the connection either blackholes (a crashed
//! process — frames vanish silently, the peer sees only silence until
//! its timeouts fire) or disconnects (a reset — both sides observe
//! [`TransportError::Closed`] promptly). The trip can be pulled
//! explicitly by a driver (e.g. "this measurer crashes after 5 reported
//! seconds"), or armed to fire by itself at a simulated time or after a
//! byte budget — which is how tests prove that a mid-slot disconnect
//! aborts the measurement in bounded time instead of wedging it.

use flashflow_simnet::time::SimTime;

use crate::transport::{Transport, TransportError};

/// How a tripped connection misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Silence: sends are discarded, nothing is ever delivered, and the
    /// connection still looks open. Models a crashed or partitioned
    /// peer; only session timeouts can detect it.
    Blackhole,
    /// Reset: the inner transport is closed, so both ends observe
    /// [`TransportError::Closed`] and abort promptly.
    Disconnect,
}

/// A [`Transport`] decorator that injects one fault.
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    mode: FaultMode,
    trip_at: Option<SimTime>,
    trip_after_bytes: Option<u64>,
    delivered: u64,
    tripped: bool,
}

impl<T: Transport> FaultyTransport<T> {
    /// A decorator that misbehaves per `mode` once tripped. Without an
    /// `at`/`after_bytes` arming, only [`FaultyTransport::trip`] fires it
    /// (a healthy passthrough until then).
    pub fn new(inner: T, mode: FaultMode) -> Self {
        FaultyTransport {
            inner,
            mode,
            trip_at: None,
            trip_after_bytes: None,
            delivered: 0,
            tripped: false,
        }
    }

    /// Arms the fault to fire at simulated time `at`.
    #[must_use]
    pub fn trip_at(mut self, at: SimTime) -> Self {
        self.trip_at = Some(at);
        self
    }

    /// Arms the fault to fire after `n` bytes have been delivered to
    /// `recv` callers.
    #[must_use]
    pub fn trip_after_bytes(mut self, n: u64) -> Self {
        self.trip_after_bytes = Some(n);
        self
    }

    /// Fires the fault now. Idempotent.
    pub fn trip(&mut self) {
        if !self.tripped {
            self.tripped = true;
            if self.mode == FaultMode::Disconnect {
                self.inner.close();
            }
        }
    }

    /// The wrapped transport.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    fn check_armed(&mut self, now: SimTime) {
        if self.tripped {
            return;
        }
        let time_due = self.trip_at.is_some_and(|at| now >= at);
        let bytes_due = self.trip_after_bytes.is_some_and(|n| self.delivered >= n);
        if time_due || bytes_due {
            self.trip();
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, now: SimTime, bytes: &[u8]) -> Result<(), TransportError> {
        self.check_armed(now);
        if self.tripped {
            return match self.mode {
                // A crashed process's writes go nowhere, silently.
                FaultMode::Blackhole => Ok(()),
                FaultMode::Disconnect => Err(TransportError::Closed),
            };
        }
        self.inner.send(now, bytes)
    }

    fn recv(&mut self, now: SimTime) -> Result<Vec<u8>, TransportError> {
        self.check_armed(now);
        if self.tripped {
            return match self.mode {
                // Drain and discard so in-flight bytes don't linger.
                FaultMode::Blackhole => {
                    let _ = self.inner.recv(now);
                    Ok(Vec::new())
                }
                FaultMode::Disconnect => Err(TransportError::Closed),
            };
        }
        let bytes = self.inner.recv(now)?;
        self.delivered += bytes.len() as u64;
        // A byte-armed fault fires mid-stream: deliver up to the budget,
        // swallow the rest, so a frame can be cut at an arbitrary point.
        if self.trip_after_bytes.is_some_and(|n| self.delivered >= n) {
            let over = (self.delivered - self.trip_after_bytes.expect("checked")) as usize;
            let keep = bytes.len() - over;
            self.trip();
            let mut bytes = bytes;
            bytes.truncate(keep);
            return Ok(bytes);
        }
        Ok(bytes)
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn backlog(&self) -> usize {
        self.inner.backlog()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Duplex;
    use flashflow_simnet::time::SimDuration;

    #[test]
    fn passthrough_until_tripped() {
        let (a, mut b) = Duplex::loopback().into_endpoints();
        let mut a = FaultyTransport::new(a, FaultMode::Blackhole);
        let t = SimTime::ZERO;
        a.send(t, b"ok").unwrap();
        assert_eq!(b.recv(t).unwrap(), b"ok");

        a.trip();
        a.send(t, b"lost").unwrap();
        assert_eq!(b.recv(t).unwrap(), b"", "blackholed send never arrives");
        b.send(t, b"unheard").unwrap();
        assert_eq!(a.recv(t).unwrap(), b"", "blackholed recv sees silence, not a close");
    }

    #[test]
    fn disconnect_is_observed_by_both_sides() {
        let (a, mut b) = Duplex::loopback().into_endpoints();
        let mut a = FaultyTransport::new(a, FaultMode::Disconnect);
        let t = SimTime::ZERO;
        a.trip();
        assert_eq!(a.send(t, b"x"), Err(TransportError::Closed));
        assert_eq!(a.recv(t), Err(TransportError::Closed));
        assert_eq!(b.recv(t), Err(TransportError::Closed), "inner close reached the peer");
    }

    #[test]
    fn byte_armed_fault_cuts_mid_frame() {
        let (mut a, b) = Duplex::loopback().into_endpoints();
        let t = SimTime::ZERO;
        a.send(t, b"0123456789").unwrap();
        // A 4-byte budget on the receiving end: delivery is cut mid-way
        // through the write and everything after is swallowed.
        let mut rx = FaultyTransport::new(b, FaultMode::Blackhole).trip_after_bytes(4);
        assert_eq!(rx.recv(t).unwrap(), b"0123");
        assert!(rx.tripped);
        a.send(t, b"more").unwrap();
        assert_eq!(rx.recv(t).unwrap(), b"");
    }

    #[test]
    fn time_armed_fault_fires_at_deadline() {
        let (a, mut b) = Duplex::new(SimDuration::ZERO, usize::MAX).into_endpoints();
        let mut a = FaultyTransport::new(a, FaultMode::Disconnect).trip_at(SimTime::from_secs(5));
        a.send(SimTime::from_secs(4), b"before").unwrap();
        assert_eq!(b.recv(SimTime::from_secs(4)).unwrap(), b"before");
        assert_eq!(a.send(SimTime::from_secs(5), b"after"), Err(TransportError::Closed));
    }
}
