//! A real TCP endpoint implementing [`Transport`].
//!
//! Built on `std::net` with non-blocking sockets — no async runtime, so
//! the crate stays dependency-free and the build works offline. The
//! socket carries the same length-prefixed frames as every other
//! transport; reads surface whatever the kernel has, in arbitrary
//! chunks, and the sessions' [`FrameDecoder`](crate::frame::FrameDecoder)
//! reassembles them.
//!
//! Data flow: a byte is copied once per direction on this side of the
//! kernel boundary, by the kernel. Receiving, `recv(2)` writes straight
//! into the spare capacity of the buffer the caller passed to
//! [`Transport::recv_into`] (grown 64 KiB or more at a time while reads
//! fill it, at most 256 KiB returned per call), and the transport holds
//! no read buffer of its own; the allocating [`Transport::recv`] hands
//! back a `Vec` shrunk to what arrived. Sending, `send` writes from the
//! caller's slice; only what the kernel refuses is copied into the
//! outbox.
//!
//! Platform: Unix only. The spare-capacity read declares `recv(2)`
//! itself (crates.io is unreachable, so no `libc`), as the reactor in
//! `flashflow-procutil` that drives these sockets does for `epoll`.
//!
//! Time discipline: `now` is caller-injected and **ignored** here — TCP
//! delivery happens when the kernel says so — but no wall clock is ever
//! read either. Liveness (handshake/report timeouts) stays entirely in
//! the sessions, driven by whatever clock the caller supplies, so a
//! coordinator can run its timeout logic on accelerated time in tests
//! and on real elapsed time in deployment without touching this code.

use std::collections::VecDeque;
use std::io::{IoSlice, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};

use flashflow_simnet::time::SimTime;

use crate::transport::{Readiness, Transport, TransportError};

/// The listener side of a control endpoint: binds a TCP socket and
/// wraps every accepted connection as a ready-to-pump [`TcpTransport`].
///
/// This is what a standalone measurer process (see the
/// `flashflow-measurer` binary crate) serves sessions from; a sharded
/// coordinator connects one conversation per measurement item.
#[derive(Debug)]
pub struct TcpAcceptor {
    listener: TcpListener,
}

impl TcpAcceptor {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Ok(TcpAcceptor { listener: TcpListener::bind(addr)? })
    }

    /// The bound socket address (the port to advertise).
    ///
    /// # Errors
    /// Propagates `getsockname` failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Blocks for the next connection and wraps it non-blocking.
    ///
    /// # Errors
    /// Propagates accept and socket-option failures.
    pub fn accept(&self) -> std::io::Result<(TcpTransport, SocketAddr)> {
        let (stream, peer) = self.listener.accept()?;
        Ok((TcpTransport::from_stream(stream)?, peer))
    }

    /// Switches the listener between blocking and non-blocking accepts.
    /// A draining process (see the `flashflow-measurer` binary) polls
    /// with [`TcpAcceptor::try_accept`] so a shutdown signal is never
    /// stuck behind a blocking `accept`.
    ///
    /// # Errors
    /// Propagates the socket-option failure.
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.listener.set_nonblocking(nonblocking)
    }

    /// Accepts one pending connection if there is one (requires
    /// [`TcpAcceptor::set_nonblocking`]); `Ok(None)` when none is
    /// waiting.
    ///
    /// # Errors
    /// Propagates accept and socket-option failures other than
    /// `WouldBlock`.
    pub fn try_accept(&self) -> std::io::Result<Option<(TcpTransport, SocketAddr)>> {
        match self.listener.accept() {
            Ok((stream, peer)) => Ok(Some((TcpTransport::from_stream(stream)?, peer))),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Least capacity `recv_into` adds when the caller's buffer is full:
/// loopback segments are 64 KiB, so reads from a smaller buffer split
/// one segment over several syscalls.
const READ_MIN: usize = 64 * 1024;

/// Upper bound on bytes one `recv` returns. A peer that floods faster
/// than we drain must not wedge the caller inside a single call (the
/// engine serves every peer from one pump loop) or grow the buffer
/// without limit; whatever is left stays in the kernel buffer for the
/// next pump, and the sessions' own bounds abort a flooding peer.
const RECV_BUDGET: usize = 256 * 1024;

/// Coalescing bound for the outbox: a queued send is appended to the
/// trailing segment while that segment stays under this size, so many
/// small backpressured frames share one buffer instead of one each.
const OUTBOX_SEGMENT: usize = 64 * 1024;

/// Flushed segments kept for reuse so steady-state backpressure
/// (queue, flush, queue, ...) recycles buffers instead of allocating.
const SPARE_SEGMENTS: usize = 8;

/// Most segments one `writev` submits; deeper outboxes flush over
/// several calls, which is already the backpressured slow path.
const MAX_IOVECS: usize = 32;

/// One endpoint of a TCP control connection.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    /// Bytes accepted by `send` but not yet written (kernel
    /// backpressure), as a queue of segments flushed with one
    /// vectored write instead of a coalesced copy — `send` never
    /// re-copies bytes that are merely waiting.
    outbox: VecDeque<Vec<u8>>,
    /// Bytes of the front segment already written (a partial
    /// `writev`); draining advances this instead of memmoving the
    /// segment.
    head: usize,
    /// Total queued bytes across `outbox`, minus `head`.
    queued: usize,
    /// Recycled segments (bounded by [`SPARE_SEGMENTS`]).
    spare: Vec<Vec<u8>>,
    /// Set once this side called `close`; `send`/`recv` refuse from then
    /// on, but the FIN may be deferred (see `fin_sent`).
    closed: bool,
    /// Set once `shutdown` was actually issued. Close defers the FIN
    /// while outbox bytes are still queued so a frame is never torn at
    /// the shutdown boundary; repeated `close` calls (the endpoint
    /// retries every pump while its session is terminal) finish the job.
    fin_sent: bool,
    /// Set once the peer closed or the socket failed; sticky.
    broken: Option<TransportError>,
    /// The peer sent EOF; drained reads then error.
    eof: bool,
}

// SAFETY: the libc prototype of `recv(2)` on every Unix we target: an
// integer fd, a pointer + length buffer the call only writes to, C
// `int` flags, and an `ssize_t` return with errno.
extern "C" {
    fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
}

/// One `recv(2)` of at most `limit` bytes from `stream` straight into
/// `out`'s spare capacity: the kernel's copy is the only one, and
/// nothing is zero-filled first. Returns the bytes appended (`Ok(0)` is
/// EOF when `limit` and the spare capacity are non-zero).
fn recv_spare(stream: &TcpStream, out: &mut Vec<u8>, limit: usize) -> std::io::Result<usize> {
    use std::os::fd::AsRawFd;
    let spare = out.spare_capacity_mut();
    let want = spare.len().min(limit);
    // SAFETY: `spare` is `out`'s own allocation past its length, valid
    // for writes of `spare.len() >= want` bytes, and is handed over as
    // a raw pointer (no reference to uninitialised bytes is formed);
    // `recv` writes at most `want` bytes there and reads none. The fd
    // belongs to `stream`, which outlives the call.
    let got = unsafe { recv(stream.as_raw_fd(), spare.as_mut_ptr().cast::<u8>(), want, 0) };
    // A negative return is the only failure; errno holds the cause.
    let got = usize::try_from(got).map_err(|_| std::io::Error::last_os_error())?;
    assert!(got <= want, "recv(2) returned {got} bytes for a {want}-byte buffer");
    // SAFETY: the kernel initialised the first `got <= want` bytes of
    // the spare capacity (asserted above).
    unsafe { out.set_len(out.len() + got) };
    Ok(got)
}

impl TcpTransport {
    /// Wraps an already-connected stream, switching it to non-blocking
    /// mode (and disabling Nagle — control frames are latency-sensitive).
    ///
    /// # Errors
    /// Propagates socket-option failures.
    pub fn from_stream(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream,
            outbox: VecDeque::new(),
            head: 0,
            queued: 0,
            spare: Vec::new(),
            closed: false,
            fin_sent: false,
            broken: None,
            eof: false,
        })
    }

    /// Connects to `addr` (blocking until established) and wraps the
    /// resulting stream.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        TcpTransport::from_stream(TcpStream::connect(addr)?)
    }

    /// The local socket address.
    ///
    /// # Errors
    /// Propagates `getsockname` failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.stream.local_addr()
    }

    /// Bytes accepted by [`Transport::send`] that the kernel has not yet
    /// taken (send-buffer backpressure). They are flushed opportunistically
    /// by later `send`/`recv` calls; a non-zero value means a write
    /// returned `WouldBlock` mid-frame and the remainder is queued, not
    /// torn or dropped.
    pub fn pending_send_bytes(&self) -> usize {
        self.queued
    }

    /// The raw socket fd, for readiness registration in an event loop
    /// (see `flashflow-procutil`'s reactor). The fd stays owned by this
    /// transport; callers must deregister it before dropping.
    #[cfg(unix)]
    pub fn raw_fd(&self) -> i32 {
        use std::os::fd::AsRawFd;
        self.stream.as_raw_fd()
    }

    /// True while the connection can still carry another conversation:
    /// never failed, no EOF from the peer, and this side has not closed.
    /// This is what a connection pool checks (together with an empty
    /// outbox) before parking a transport for reuse.
    pub fn is_reusable(&self) -> bool {
        self.broken.is_none() && !self.eof && !self.closed
    }

    /// Queues `bytes` behind whatever is already backpressured,
    /// coalescing small writes into the trailing segment.
    fn queue_bytes(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.queued += bytes.len();
        if let Some(tail) = self.outbox.back_mut() {
            if tail.len() < OUTBOX_SEGMENT {
                tail.extend_from_slice(bytes);
                return;
            }
        }
        let mut seg = self.spare.pop().unwrap_or_default();
        seg.clear();
        seg.extend_from_slice(bytes);
        self.outbox.push_back(seg);
    }

    /// Writes as much of the outbox as the kernel will take: one
    /// `writev` over the queued segments per loop, advancing a head
    /// offset instead of memmoving partially written buffers.
    fn flush_outbox(&mut self) -> Result<(), TransportError> {
        while !self.outbox.is_empty() {
            let mut iov = [IoSlice::new(&[]); MAX_IOVECS];
            let mut iov_len = 0;
            for (ix, seg) in self.outbox.iter().take(MAX_IOVECS).enumerate() {
                let part = if ix == 0 { &seg[self.head..] } else { &seg[..] };
                iov[iov_len] = IoSlice::new(part);
                iov_len += 1;
            }
            match self.stream.write_vectored(&iov[..iov_len]) {
                Ok(0) => return Err(self.fail(TransportError::Closed)),
                Ok(mut wrote) => {
                    self.queued -= wrote;
                    while wrote > 0 {
                        let front_left = self.outbox[0].len() - self.head;
                        if wrote >= front_left {
                            wrote -= front_left;
                            self.head = 0;
                            let seg = self.outbox.pop_front().unwrap_or_default();
                            if self.spare.len() < SPARE_SEGMENTS {
                                self.spare.push(seg);
                            }
                        } else {
                            self.head += wrote;
                            wrote = 0;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(self.fail(TransportError::Io(e.kind()))),
            }
        }
        Ok(())
    }

    fn fail(&mut self, err: TransportError) -> TransportError {
        self.broken = Some(err);
        err
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, _now: SimTime, bytes: &[u8]) -> Result<(), TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        if let Some(err) = self.broken {
            return Err(err);
        }
        if self.queued == 0 {
            // Fast path: nothing backpressured, so write straight from
            // the caller's buffer — the blast plane's reused frame
            // buffers then reach the kernel with zero copies on this
            // side. Only what the kernel refuses is queued.
            let mut offset = 0;
            while offset < bytes.len() {
                match self.stream.write(&bytes[offset..]) {
                    Ok(0) => return Err(self.fail(TransportError::Closed)),
                    Ok(n) => offset += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(self.fail(TransportError::Io(e.kind()))),
                }
            }
            self.queue_bytes(&bytes[offset..]);
            return Ok(());
        }
        self.queue_bytes(bytes);
        self.flush_outbox()
    }

    fn recv(&mut self, now: SimTime) -> Result<Vec<u8>, TransportError> {
        let mut out = Vec::new();
        self.recv_into(now, &mut out)?;
        // A one-off `Vec` keeps what arrived, not the read buffer.
        out.shrink_to_fit();
        Ok(out)
    }

    fn recv_into(&mut self, _now: SimTime, out: &mut Vec<u8>) -> Result<usize, TransportError> {
        out.clear();
        if self.closed {
            return Err(TransportError::Closed);
        }
        // Opportunistically drain pending writes; send-side backpressure
        // must not deadlock a driver that only polls recv.
        if self.broken.is_none() {
            let _ = self.flush_outbox();
        }
        while out.len() < RECV_BUDGET {
            // The caller's reused buffer is the only read buffer: it
            // grows (amortised, to about `RECV_BUDGET` at most) only
            // once the reads so far have filled it, and keeps that
            // capacity across calls.
            let left = RECV_BUDGET - out.len();
            if out.capacity() == out.len() {
                out.reserve(READ_MIN.min(left));
            }
            let room = (out.capacity() - out.len()).min(left);
            match recv_spare(&self.stream, out, left) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                // A short read emptied the receive queue: another call
                // would only return `WouldBlock` (or an EOF the next
                // call, or readiness, reports).
                Ok(got) if got < room => break,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Surface already-read bytes first; fail next call.
                    self.broken = Some(TransportError::Io(e.kind()));
                    break;
                }
            }
        }
        if out.is_empty() {
            if let Some(err) = self.broken {
                return Err(err);
            }
            if self.eof {
                return Err(TransportError::Closed);
            }
        }
        Ok(out.len())
    }

    fn readiness(&mut self, _now: SimTime) -> Readiness {
        if self.closed || self.broken.is_some() || self.eof {
            return Readiness::Closed;
        }
        let mut buf = [0u8; 1];
        match self.stream.peek(&mut buf) {
            Ok(0) => Readiness::Closed,
            Ok(_) => Readiness::Readable,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Readiness::Quiet,
            Err(_) => Readiness::Closed,
        }
    }

    fn close(&mut self) {
        self.closed = true;
        if self.fin_sent {
            return;
        }
        // The outbox may still hold frame bytes the kernel refused
        // (`WouldBlock`). Never tear the conversation's tail
        // (SlotDone/Abort) mid-frame: flush what the kernel will take
        // now and defer the FIN until the outbox is empty — callers
        // retry `close` (the endpoint does so on every pump while its
        // session is terminal), and this never blocks the pump thread.
        let _ = self.flush_outbox();
        if self.queued == 0 || self.broken.is_some() {
            let _ = self.stream.shutdown(Shutdown::Both);
            self.fin_sent = true;
        }
    }

    fn backlog(&self) -> usize {
        self.pending_send_bytes()
    }
}

/// Loopback pair for unit tests: (accepted, connected).
#[cfg(test)]
pub(crate) fn loopback_pair() -> (TcpTransport, TcpTransport) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    let client = TcpTransport::connect(addr).expect("connect");
    let (accepted, _) = listener.accept().expect("accept");
    (TcpTransport::from_stream(accepted).expect("wrap"), client)
}

#[cfg(test)]
mod tests {
    use super::loopback_pair as pair;
    use super::*;

    /// Drains `t` until `want` bytes arrived (bounded retries — loopback
    /// delivery is asynchronous but fast).
    fn recv_exactly(t: &mut TcpTransport, want: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..1000 {
            out.extend_from_slice(&t.recv(SimTime::ZERO).expect("recv"));
            if out.len() >= want {
                return out;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("only {} of {want} bytes arrived", out.len());
    }

    #[test]
    fn round_trips_bytes_both_directions() {
        let (mut a, mut b) = pair();
        a.send(SimTime::ZERO, b"ping").unwrap();
        assert_eq!(recv_exactly(&mut b, 4), b"ping");
        b.send(SimTime::ZERO, b"pong!").unwrap();
        assert_eq!(recv_exactly(&mut a, 5), b"pong!");
    }

    #[test]
    fn peer_close_surfaces_after_drain() {
        let (mut a, mut b) = pair();
        a.send(SimTime::ZERO, b"bye").unwrap();
        a.close();
        assert_eq!(recv_exactly(&mut b, 3), b"bye");
        // Poll until the FIN is visible; then recv must error.
        for _ in 0..1000 {
            if b.readiness(SimTime::ZERO) == Readiness::Closed {
                assert!(b.recv(SimTime::ZERO).is_err());
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("peer close never observed");
    }

    /// Polls `recv_into` until it returns bytes or fails (bounded —
    /// loopback delivery is asynchronous but fast).
    fn recv_some(t: &mut TcpTransport, out: &mut Vec<u8>) -> Result<usize, TransportError> {
        for _ in 0..2000 {
            match t.recv_into(SimTime::ZERO, out) {
                Ok(0) => std::thread::sleep(std::time::Duration::from_millis(1)),
                other => return other,
            }
        }
        panic!("nothing arrived");
    }

    #[test]
    fn burst_arrives_in_order_within_the_per_call_budget() {
        let (mut a, mut b) = pair();
        let burst: Vec<u8> = (0..1usize << 20).map(|i| (i * 31 % 251) as u8).collect();
        let mut seen = Vec::with_capacity(burst.len());
        let mut rx = Vec::new();
        // Idle first: nothing to read is `Ok(0)` and an empty buffer.
        assert_eq!(b.recv_into(SimTime::ZERO, &mut rx), Ok(0));
        assert!(rx.is_empty());
        assert_eq!(b.recv(SimTime::ZERO).map(|v| v.capacity()), Ok(0), "idle `recv` holds nothing");
        rx.extend_from_slice(b"stale");
        assert_eq!(b.recv_into(SimTime::ZERO, &mut rx), Ok(0));
        assert!(rx.is_empty(), "an idle poll still replaces the buffer's contents");

        a.send(SimTime::ZERO, &burst).unwrap();
        while seen.len() < burst.len() {
            // The sender's outbox drains on its own polls.
            let _ = a.recv_into(SimTime::ZERO, &mut rx);
            let got = recv_some(&mut b, &mut rx).expect("open connection");
            assert_eq!(got, rx.len());
            assert!(got <= RECV_BUDGET, "one call returned {got} B");
            seen.extend_from_slice(&rx);
        }
        assert!(seen == burst, "bytes reordered, lost or duplicated");
    }

    #[test]
    fn eof_surfaces_only_after_the_bytes_before_it() {
        let (mut a, mut b) = pair();
        let tail: Vec<u8> = (0..100_000usize).map(|i| (i % 241) as u8).collect();
        a.send(SimTime::ZERO, &tail).unwrap();
        a.close();
        assert_eq!(a.pending_send_bytes(), 0, "100 kB fits the loopback buffers");
        let mut seen = Vec::new();
        let mut rx = Vec::new();
        let err = loop {
            match recv_some(&mut b, &mut rx) {
                Ok(_) => seen.extend_from_slice(&rx),
                Err(err) => break err,
            }
        };
        assert_eq!(err, TransportError::Closed);
        assert!(rx.is_empty(), "the failing call delivers nothing");
        assert!(seen == tail, "every byte sent before the FIN was delivered before the error");
        assert_eq!(b.recv_into(SimTime::ZERO, &mut rx), Err(TransportError::Closed), "sticky");
    }

    #[test]
    fn warm_receive_buffer_keeps_its_allocation() {
        let (mut a, mut b) = pair();
        let mut rx = Vec::new();
        // Warm-up: a burst well past the per-call budget grows the
        // caller's buffer to its working size.
        a.send(SimTime::ZERO, &vec![7u8; 1 << 20]).unwrap();
        let mut warm = 0;
        while warm < 1 << 20 {
            let _ = a.recv_into(SimTime::ZERO, &mut Vec::new());
            warm += recv_some(&mut b, &mut rx).expect("open connection");
        }
        let (ptr, capacity) = (rx.as_ptr(), rx.capacity());
        assert!((RECV_BUDGET..2 * RECV_BUDGET).contains(&capacity), "capacity {capacity}");
        // Steady state: idle polls, small frames and full-budget drains
        // all reuse that one allocation.
        let sizes = [0usize, 1, 1448, 65_536, 300_000];
        for call in 0..1000 {
            let size = sizes[call % sizes.len()];
            a.send(SimTime::ZERO, &vec![call as u8; size]).unwrap();
            let mut got = 0;
            while got < size {
                let _ = a.recv_into(SimTime::ZERO, &mut Vec::new());
                got += recv_some(&mut b, &mut rx).expect("open connection");
                assert!(rx.iter().all(|&byte| byte == call as u8));
            }
            if size == 0 {
                assert_eq!(b.recv_into(SimTime::ZERO, &mut rx), Ok(0));
            }
            assert_eq!((rx.as_ptr(), rx.capacity()), (ptr, capacity), "call {call} reallocated");
        }
    }

    #[test]
    fn send_after_local_close_fails() {
        let (mut a, _b) = pair();
        a.close();
        assert_eq!(a.send(SimTime::ZERO, b"x"), Err(TransportError::Closed));
        assert_eq!(a.recv(SimTime::ZERO), Err(TransportError::Closed));
    }
}
