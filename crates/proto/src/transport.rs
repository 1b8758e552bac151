//! The [`Transport`] abstraction plus the in-memory implementation.
//!
//! A transport is **one endpoint** of an unreliable, unframed byte
//! stream. Sessions never see it directly — a driver (an
//! [`Endpoint`](crate::endpoint::Endpoint) or the measurement engine)
//! shuttles bytes between sessions and transports. Time is always passed
//! in explicitly, never read from a clock, so the same trait covers the
//! deterministic simulated stream and a real socket:
//!
//! * [`Duplex`] / [`DuplexEnd`] — the simulated connection: two
//!   independent latency-delayed directions that deliberately re-chunk
//!   writes (TCP gives no message boundaries), so everything a session
//!   receives has crossed the real framing codec and its reassembly path;
//! * [`TcpTransport`](crate::tcp::TcpTransport) — a non-blocking
//!   `std::net` socket;
//! * [`FaultyTransport`](crate::fault::FaultyTransport) — a decorator
//!   that injects blackholes and disconnects into either of the above.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use flashflow_simnet::time::{SimDuration, SimTime};

/// Everything that can go wrong at the transport layer. Sessions above
/// the transport treat any of these as a dead connection
/// ([`AbortReason::ConnectionLost`](crate::msg::AbortReason::ConnectionLost)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The connection was closed (locally or by the peer) and every
    /// delivered byte has been drained.
    Closed,
    /// An OS-level I/O failure (TCP only).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => f.write_str("connection closed"),
            TransportError::Io(kind) => write!(f, "transport I/O error: {kind:?}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// One endpoint of a byte-stream control connection.
///
/// Contract:
/// * the stream has **no message boundaries** — [`Transport::recv`] may
///   return any prefix of what was sent, including partial frames;
/// * delivered bytes preserve send order and are never duplicated;
/// * `now` is caller-injected; implementations never consult a clock, so
///   simulated transports stay deterministic and replayable;
/// * after [`Transport::close`] (or a peer close / failure), `recv`
///   first drains every byte already delivered, then returns
///   [`TransportError::Closed`].
pub trait Transport {
    /// Queues `bytes` toward the peer.
    ///
    /// # Errors
    /// Fails once the connection is closed or broken.
    fn send(&mut self, now: SimTime, bytes: &[u8]) -> Result<(), TransportError>;

    /// Drains every byte that has arrived by `now`; an empty vector
    /// means nothing is available *yet*.
    ///
    /// # Errors
    /// Fails once the connection is closed or broken and drained.
    fn recv(&mut self, now: SimTime) -> Result<Vec<u8>, TransportError>;

    /// Like [`Transport::recv`], but **replaces** `out`'s contents
    /// instead of allocating, returning the byte count. Hot receive
    /// loops (the blast plane, the reactor's per-connection drains)
    /// call this with a reused per-channel buffer so steady-state
    /// receiving allocates nothing; the default simply delegates to
    /// `recv`, so in-memory transports need no changes.
    ///
    /// # Errors
    /// Same contract as [`Transport::recv`].
    fn recv_into(&mut self, now: SimTime, out: &mut Vec<u8>) -> Result<usize, TransportError> {
        out.clear();
        let bytes = self.recv(now)?;
        out.extend_from_slice(&bytes);
        Ok(out.len())
    }

    /// Closes this endpoint; the peer's `recv` fails with
    /// [`TransportError::Closed`] after draining. Idempotent.
    fn close(&mut self);

    /// Bytes accepted by [`Transport::send`] but not yet taken by the
    /// underlying medium — the send-side backlog a bulk producer
    /// should pace against. In-memory transports deliver immediately
    /// and report `0` (the default); `TcpTransport` reports its
    /// outbox.
    fn backlog(&self) -> usize {
        0
    }
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn send(&mut self, now: SimTime, bytes: &[u8]) -> Result<(), TransportError> {
        (**self).send(now, bytes)
    }
    fn recv(&mut self, now: SimTime) -> Result<Vec<u8>, TransportError> {
        (**self).recv(now)
    }
    fn recv_into(&mut self, now: SimTime, out: &mut Vec<u8>) -> Result<usize, TransportError> {
        (**self).recv_into(now, out)
    }
    fn close(&mut self) {
        (**self).close();
    }
    fn backlog(&self) -> usize {
        (**self).backlog()
    }
}

impl<T: Transport + ?Sized> Transport for &mut T {
    fn send(&mut self, now: SimTime, bytes: &[u8]) -> Result<(), TransportError> {
        (**self).send(now, bytes)
    }
    fn recv(&mut self, now: SimTime) -> Result<Vec<u8>, TransportError> {
        (**self).recv(now)
    }
    fn recv_into(&mut self, now: SimTime, out: &mut Vec<u8>) -> Result<usize, TransportError> {
        (**self).recv_into(now, out)
    }
    fn close(&mut self) {
        (**self).close();
    }
    fn backlog(&self) -> usize {
        (**self).backlog()
    }
}

/// A [`Transport`] decorator that **ignores** `close`: the underlying
/// connection stays open so it can serve another session.
///
/// A serving peer loops conversations on one connection. An
/// [`Endpoint`](crate::endpoint::Endpoint) hangs up the moment its
/// session is terminal — correct for one-shot conversations, fatal for a
/// connection that should carry the next one. A lease drops the hang-up;
/// the owner takes the lease back from the endpoint and starts the next
/// session on it, or drops it to really close the connection.
///
/// The anti-flood property the endpoint's hang-up protects is preserved:
/// a terminal endpoint stops reading regardless, so a flooding peer
/// still cannot wedge the pump loop — the bytes simply wait in the
/// transport for the next session (or the real close).
#[derive(Debug)]
pub struct LeasedTransport<T: Transport> {
    inner: T,
}

impl<T: Transport> LeasedTransport<T> {
    /// Leases `inner` out for (re)use across sessions.
    pub fn new(inner: T) -> Self {
        LeasedTransport { inner }
    }

    /// The wrapped transport.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: Transport> Transport for LeasedTransport<T> {
    fn send(&mut self, now: SimTime, bytes: &[u8]) -> Result<(), TransportError> {
        self.inner.send(now, bytes)
    }
    fn recv(&mut self, now: SimTime) -> Result<Vec<u8>, TransportError> {
        self.inner.recv(now)
    }
    fn recv_into(&mut self, now: SimTime, out: &mut Vec<u8>) -> Result<usize, TransportError> {
        self.inner.recv_into(now, out)
    }
    fn close(&mut self) {}
    fn backlog(&self) -> usize {
        self.inner.backlog()
    }
}

/// One direction of a connection.
#[derive(Debug)]
struct Pipe {
    latency: SimDuration,
    chunk: usize,
    queue: VecDeque<(SimTime, Vec<u8>)>,
}

impl Pipe {
    fn new(latency: SimDuration, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        Pipe { latency, chunk, queue: VecDeque::new() }
    }

    fn send(&mut self, now: SimTime, bytes: &[u8]) {
        let deliver = now + self.latency;
        for piece in bytes.chunks(self.chunk) {
            self.queue.push_back((deliver, piece.to_vec()));
        }
    }

    fn recv(&mut self, now: SimTime) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some((deliver, _)) = self.queue.front() {
            if *deliver > now {
                break;
            }
            let (_, piece) = self.queue.pop_front().expect("front exists");
            out.extend_from_slice(&piece);
        }
        out
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// Which endpoint of a [`Duplex`] is speaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// The coordinator side.
    A,
    /// The peer side.
    B,
}

/// A bidirectional in-memory byte stream with symmetric latency.
#[derive(Debug)]
pub struct Duplex {
    a_to_b: Pipe,
    b_to_a: Pipe,
}

impl Duplex {
    /// A connection with the given one-way latency, delivering in
    /// `chunk`-byte pieces. A chunk size that is not frame-aligned (the
    /// default elsewhere is a prime) exercises reassembly on every
    /// message.
    pub fn new(latency: SimDuration, chunk: usize) -> Self {
        Duplex { a_to_b: Pipe::new(latency, chunk), b_to_a: Pipe::new(latency, chunk) }
    }

    /// A zero-latency connection delivering whole writes (unit tests).
    pub fn loopback() -> Self {
        Duplex::new(SimDuration::ZERO, usize::MAX)
    }

    /// Queues bytes from `from` toward the other end.
    pub fn send(&mut self, from: End, now: SimTime, bytes: &[u8]) {
        match from {
            End::A => self.a_to_b.send(now, bytes),
            End::B => self.b_to_a.send(now, bytes),
        }
    }

    /// Drains every byte that has arrived at `at` by `now`.
    pub fn recv(&mut self, at: End, now: SimTime) -> Vec<u8> {
        match at {
            End::A => self.b_to_a.recv(now),
            End::B => self.a_to_b.recv(now),
        }
    }

    /// True while bytes are queued toward `at` (delivered or not).
    fn has_in_flight(&self, at: End) -> bool {
        match at {
            End::A => !self.b_to_a.is_empty(),
            End::B => !self.a_to_b.is_empty(),
        }
    }

    /// Splits the connection into its two [`Transport`] endpoints. The
    /// halves share this duplex through interior mutability (they stay
    /// on one thread — cross-thread control connections are what
    /// [`TcpTransport`](crate::tcp::TcpTransport) is for).
    pub fn into_endpoints(self) -> (DuplexEnd, DuplexEnd) {
        let shared = Rc::new(RefCell::new(DuplexShared { duplex: self, closed: [false, false] }));
        (DuplexEnd { shared: Rc::clone(&shared), end: End::A }, DuplexEnd { shared, end: End::B })
    }
}

#[derive(Debug)]
struct DuplexShared {
    duplex: Duplex,
    /// Close flags indexed by `End as usize` ([A, B]).
    closed: [bool; 2],
}

impl DuplexShared {
    fn any_closed(&self) -> bool {
        self.closed[0] || self.closed[1]
    }
}

/// One endpoint of a [`Duplex`], implementing [`Transport`].
///
/// Close semantics mirror a real socket: a close on either side stops
/// new sends, but bytes already in flight toward an endpoint still
/// deliver (at their latency) before `recv` starts failing.
#[derive(Debug)]
pub struct DuplexEnd {
    shared: Rc<RefCell<DuplexShared>>,
    end: End,
}

impl DuplexEnd {
    /// Which end of the duplex this is.
    pub fn end(&self) -> End {
        self.end
    }

    /// When the earliest piece queued toward either end lands, delivered
    /// or not; `None` once both directions are empty.
    pub fn next_delivery(&self) -> Option<SimTime> {
        let shared = self.shared.borrow();
        let Duplex { a_to_b, b_to_a } = &shared.duplex;
        [a_to_b, b_to_a].iter().filter_map(|pipe| pipe.queue.front().map(|&(at, _)| at)).min()
    }
}

impl Transport for DuplexEnd {
    fn send(&mut self, now: SimTime, bytes: &[u8]) -> Result<(), TransportError> {
        let mut shared = self.shared.borrow_mut();
        if shared.any_closed() {
            return Err(TransportError::Closed);
        }
        shared.duplex.send(self.end, now, bytes);
        Ok(())
    }

    fn recv(&mut self, now: SimTime) -> Result<Vec<u8>, TransportError> {
        let mut shared = self.shared.borrow_mut();
        let bytes = shared.duplex.recv(self.end, now);
        if bytes.is_empty() && shared.any_closed() && !shared.duplex.has_in_flight(self.end) {
            return Err(TransportError::Closed);
        }
        Ok(bytes)
    }

    fn close(&mut self) {
        self.shared.borrow_mut().closed[self.end as usize] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_after_latency_in_chunks() {
        let mut d = Duplex::new(SimDuration::from_millis(40), 3);
        d.send(End::A, SimTime::ZERO, b"hello world");
        assert!(d.recv(End::B, SimTime::from_secs_f64(0.039)).is_empty());
        let got = d.recv(End::B, SimTime::from_secs_f64(0.040));
        assert_eq!(got, b"hello world");
        assert!(d.a_to_b.is_empty() && d.b_to_a.is_empty());
    }

    #[test]
    fn directions_are_independent() {
        let mut d = Duplex::loopback();
        d.send(End::A, SimTime::ZERO, b"down");
        d.send(End::B, SimTime::ZERO, b"up");
        assert_eq!(d.recv(End::A, SimTime::ZERO), b"up");
        assert_eq!(d.recv(End::B, SimTime::ZERO), b"down");
    }

    #[test]
    fn preserves_order_across_writes() {
        let mut d = Duplex::new(SimDuration::from_millis(1), 2);
        d.send(End::A, SimTime::ZERO, b"abc");
        d.send(End::A, SimTime::ZERO, b"defg");
        assert_eq!(d.recv(End::B, SimTime::from_secs_f64(0.001)), b"abcdefg");
    }

    #[test]
    fn endpoints_exchange_bytes_with_latency() {
        let (mut a, mut b) = Duplex::new(SimDuration::from_millis(10), 3).into_endpoints();
        let t0 = SimTime::ZERO;
        a.send(t0, b"hello").unwrap();
        assert_eq!(b.recv(t0).unwrap(), b"");
        let t1 = t0 + SimDuration::from_millis(10);
        assert_eq!(b.recv(t1).unwrap(), b"hello");
        b.send(t1, b"hi").unwrap();
        assert_eq!(a.recv(t1 + SimDuration::from_millis(10)).unwrap(), b"hi");
    }

    #[test]
    fn next_delivery_is_the_earliest_piece_toward_either_end() {
        let (mut a, mut b) = Duplex::new(SimDuration::from_millis(40), 3).into_endpoints();
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        assert_eq!((a.next_delivery(), b.next_delivery()), (None, None));
        a.send(at(10), b"hello").unwrap();
        b.send(at(5), b"hi").unwrap();
        // Both ends see both directions: the B → A piece lands first.
        assert_eq!((a.next_delivery(), b.next_delivery()), (Some(at(45)), Some(at(45))));
        assert_eq!(a.recv(at(45)).unwrap(), b"hi");
        assert_eq!((a.next_delivery(), b.next_delivery()), (Some(at(50)), Some(at(50))));
        assert_eq!(b.recv(at(50)).unwrap(), b"hello");
        assert_eq!((a.next_delivery(), b.next_delivery()), (None, None));
    }

    #[test]
    fn leased_transport_ignores_close_across_sessions() {
        let (a, mut b) = Duplex::loopback().into_endpoints();
        let mut lease = LeasedTransport::new(a);
        let t = SimTime::ZERO;
        lease.send(t, b"session 1").unwrap();
        assert_eq!(b.recv(t).unwrap(), b"session 1");
        // A driver "hangs up" — the wire survives.
        lease.close();
        lease.send(t, b"session 2").unwrap();
        assert_eq!(b.recv(t).unwrap(), b"session 2", "connection survived the ignored close");
        // The owner still reaches the real connection to close it.
        lease.inner_mut().close();
        assert_eq!(b.recv(t), Err(TransportError::Closed));
    }

    #[test]
    fn endpoint_close_drains_in_flight_then_fails() {
        let (mut a, mut b) = Duplex::new(SimDuration::from_millis(10), 64).into_endpoints();
        let t0 = SimTime::ZERO;
        a.send(t0, b"last words").unwrap();
        a.close();
        // New sends fail on both sides immediately.
        assert_eq!(a.send(t0, b"x"), Err(TransportError::Closed));
        assert_eq!(b.send(t0, b"x"), Err(TransportError::Closed));
        // In-flight bytes still deliver...
        let t1 = t0 + SimDuration::from_millis(10);
        assert_eq!(b.recv(t0).unwrap(), b"", "in flight, not yet due: no error yet");
        assert_eq!(b.recv(t1).unwrap(), b"last words");
        // ...then the endpoint reports closed.
        assert_eq!(b.recv(t1), Err(TransportError::Closed));
    }
}
