//! A long-lived pool of warm TCP connections to measurer processes.
//!
//! Before this existed, every measurement item dialed a fresh control
//! connection to each peer process — a period of thousands of
//! items meant thousands of TCP handshakes against the same handful of
//! hosts (the ROADMAP's "long-lived connection pool" scaling item). The
//! [`ConnectionPool`] keeps connections **across rounds**: the round
//! driver ([`run_rounds`](crate::echo::run_rounds)) checks one connection
//! out per conversation, runs the conversation over it, marks it
//! reusable if the session ended cleanly, and the connection parks
//! itself back in the pool when the engine drops it.
//!
//! Reuse is safe because both ends agree on it: the serving peer
//! process loops sessions on one connection (each new `Auth` starts a
//! fresh [`MeasurerSession`](flashflow_proto::session::MeasurerSession)
//! with the shared replay window), and that session waits for its
//! `Auth` for [`SessionTimeouts::DEFAULT`]'s `handshake` before it
//! aborts and the peer hangs up. The pool's reuse rule is that
//! contract, with no wire message: a parked connection is handed out
//! only while it is quiet (no FIN, no `Abort`, no stray bytes) and has
//! been parked for less than half that accept window. Anything else is
//! closed unread and unwritten, and the checkout dials fresh. The half
//! leaves the `Auth` room to cross a path with RTT before the peer's
//! deadline. A connection freed when one round ends is checked out
//! again when the round after next is staged, about a slot minus the
//! staging lead later (5 s of wall time): sped-up slots reuse, while
//! wall-clock slots of 10 s or more, and period gaps past the window,
//! dial fresh.
//!
//! The coordinator side defers the endpoint's terminal hang-up like
//! [`LeasedTransport`](flashflow_proto::transport::LeasedTransport): a
//! [`PooledConn`]'s `close` only flushes, and the *driver* decides at
//! return time — a connection whose session did not end
//! [`Done`](flashflow_proto::session::CoordPhase::Done) (or whose
//! outbox still holds bytes) is really closed, never parked, so a torn
//! or half-poisoned stream can never leak into the next item.
//!
//! Checkout never waits on the network. [`ConnectionPool::checkout`]
//! starts a fresh connect with `procutil::reactor::dial` and hands the
//! still-connecting socket out wrapped in a [`TcpTransport`]: the first
//! frames queue in its outbox until the handshake settles, and the
//! round loop watches such a socket for write readiness. A refused dial
//! fails the next flush (the session aborts with `ConnectionLost`); an
//! unanswered one runs into the session's handshake timeout. Either way
//! only that conversation degrades, so a round being staged can never
//! freeze the one that is running.
//!
//! The pool is `Sync` and cheap to clone (one `Arc`): the coordinator
//! keeps a single pool for the life of the process, so a connection
//! warmed in one round serves whichever item of the next round dials
//! that process first.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flashflow_procutil::reactor;
use flashflow_proto::session::SessionTimeouts;
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::{Transport, TransportError};
use flashflow_simnet::time::SimTime;

/// How long a parked connection stays reusable: half the accept window
/// a serving peer gives each parked conversation (see the
/// [module docs](self)).
const REUSE_WINDOW: Duration =
    Duration::from_nanos(SessionTimeouts::DEFAULT.handshake.as_nanos() / 2);

/// What a pooled connection is used for. A serving peer process
/// classifies each accepted connection **once** — control frames or
/// blast data — so the pool must never hand a parked data connection
/// out as a control channel (or vice versa); the idle map is keyed by
/// `(address, kind)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// A framed control conversation.
    Control,
    /// A blast data channel.
    Data,
}

/// A connection waiting in the pool, stamped with when it was parked so
/// checkout can tell a warm handoff from one the peer may have timed
/// out.
struct Parked {
    transport: TcpTransport,
    parked_at: Instant,
}

#[derive(Default)]
struct PoolShared {
    idle: Mutex<HashMap<(SocketAddr, ChannelKind), Vec<Parked>>>,
    dials: AtomicU64,
    reuses: AtomicU64,
    discarded: AtomicU64,
}

/// A shared pool of warm [`TcpTransport`] connections, keyed by peer
/// address. See the [module docs](self).
#[derive(Clone, Default)]
pub struct ConnectionPool {
    shared: Arc<PoolShared>,
}

impl ConnectionPool {
    /// An empty pool.
    pub fn new() -> Self {
        ConnectionPool::default()
    }

    /// Checks a `kind` connection to `addr` out: a parked one that is
    /// quiet and inside the reuse window when available (any other
    /// parked one is closed on the spot), a fresh dial otherwise. A
    /// fresh dial never waits for its handshake, so a peer that refuses
    /// or never answers costs the caller nothing here: the refusal fails
    /// the first send or read, and silence runs into the session's own
    /// handshake timeout.
    ///
    /// # Errors
    /// A dial the kernel failed at once: no socket, or a refusal it
    /// already knew of.
    pub fn checkout(&self, addr: SocketAddr, kind: ChannelKind) -> std::io::Result<PooledConn> {
        self.checkout_at(addr, kind, Instant::now())
    }

    /// [`ConnectionPool::checkout`] with the clock the reuse window is
    /// read on passed in.
    fn checkout_at(
        &self,
        addr: SocketAddr,
        kind: ChannelKind,
        now: Instant,
    ) -> std::io::Result<PooledConn> {
        let key = (addr, kind);
        loop {
            let parked =
                self.shared.idle.lock().expect("pool lock").get_mut(&key).and_then(Vec::pop);
            let Some(Parked { transport, parked_at }) = parked else { break };
            // Readable means the peer hung up, aborted its parked
            // session, or sent bytes nobody asked for; past the window
            // it may be about to. Either way the connection goes.
            if transport.is_quiet() && now.saturating_duration_since(parked_at) < REUSE_WINDOW {
                self.shared.reuses.fetch_add(1, Ordering::Relaxed);
                return Ok(self.wrap(key, transport));
            }
            self.shared.discarded.fetch_add(1, Ordering::Relaxed);
        }
        // Until the handshake settles, `send` queues in the outbox (the
        // kernel answers `EAGAIN`).
        let transport = TcpTransport::from_stream(reactor::dial(addr)?)?;
        self.shared.dials.fetch_add(1, Ordering::Relaxed);
        Ok(self.wrap(key, transport))
    }

    fn wrap(&self, key: (SocketAddr, ChannelKind), transport: TcpTransport) -> PooledConn {
        PooledConn {
            inner: Some(transport),
            key,
            shared: Arc::clone(&self.shared),
            reuse: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Fresh TCP dials performed so far.
    pub fn dials(&self) -> u64 {
        self.shared.dials.load(Ordering::Relaxed)
    }

    /// Checkouts served from a parked warm connection.
    pub fn reuses(&self) -> u64 {
        self.shared.reuses.load(Ordering::Relaxed)
    }

    /// Connections closed instead of parked or reused.
    pub fn discarded(&self) -> u64 {
        self.shared.discarded.load(Ordering::Relaxed)
    }

    /// Connections currently parked.
    fn idle_count(&self) -> usize {
        self.shared.idle.lock().expect("pool lock").values().map(Vec::len).sum()
    }

    /// A point-in-time copy of every pool counter, for surfacing in
    /// coordinator results instead of querying the live pool.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            dials: self.dials(),
            reuses: self.reuses(),
            discarded: self.discarded(),
            idle: self.idle_count() as u64,
        }
    }
}

/// A snapshot of a [`ConnectionPool`]'s traffic counters (see
/// [`ConnectionPool::stats`]); carried by period results so audits do
/// not need the live pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Fresh TCP dials performed.
    pub dials: u64,
    /// Checkouts served from a parked warm connection.
    pub reuses: u64,
    /// Connections closed instead of parked or reused.
    pub discarded: u64,
    /// Connections parked at snapshot time.
    pub idle: u64,
}

/// A grant of permission for a [`PooledConn`] to park itself back in
/// the pool. The driver holds this, and approves only after inspecting
/// how the conversation ended.
#[derive(Clone)]
pub struct ReuseHandle(Arc<AtomicBool>);

impl ReuseHandle {
    /// Marks the connection clean: it may be parked for the next item.
    pub fn approve(&self) {
        self.0.store(true, Ordering::Release);
    }
}

/// One checked-out pool connection, usable anywhere a
/// [`Transport`] is.
///
/// `close` is deferred (recorded, not executed) so the engine's
/// terminal hang-up cannot destroy a connection the driver wants back.
/// On drop the connection parks itself in the pool **iff** its
/// [`ReuseHandle`] was approved and the transport is still sound
/// (no error, no EOF, empty outbox); otherwise the socket really
/// closes.
pub struct PooledConn {
    inner: Option<TcpTransport>,
    key: (SocketAddr, ChannelKind),
    shared: Arc<PoolShared>,
    reuse: Arc<AtomicBool>,
}

impl PooledConn {
    /// The handle the driver approves reuse through.
    pub fn reuse_handle(&self) -> ReuseHandle {
        ReuseHandle(Arc::clone(&self.reuse))
    }

    /// Bytes accepted for send but not yet taken by the kernel.
    pub fn pending_send_bytes(&self) -> usize {
        self.inner.as_ref().map_or(0, TcpTransport::pending_send_bytes)
    }

    /// The socket's raw fd, for registering it with a readiness poller.
    /// Stable until the connection is dropped.
    pub fn raw_fd(&self) -> i32 {
        self.inner.as_ref().expect("present until drop").raw_fd()
    }

    fn transport(&mut self) -> &mut TcpTransport {
        self.inner.as_mut().expect("present until drop")
    }
}

impl Transport for PooledConn {
    fn send(&mut self, now: SimTime, bytes: &[u8]) -> Result<(), TransportError> {
        self.transport().send(now, bytes)
    }

    fn recv(&mut self, now: SimTime) -> Result<Vec<u8>, TransportError> {
        self.transport().recv(now)
    }

    fn close(&mut self) {
        // Deferred: the drop decides between parking and real close.
        // Flush what the kernel will take so a clean conversation's
        // tail frames are not stranded behind the deferral.
        if let Some(t) = self.inner.as_mut() {
            let _ = t.send(SimTime::ZERO, &[]);
        }
    }

    fn backlog(&self) -> usize {
        self.pending_send_bytes()
    }
}

impl Drop for PooledConn {
    fn drop(&mut self) {
        let Some(transport) = self.inner.take() else { return };
        let sound = transport.is_reusable() && transport.pending_send_bytes() == 0;
        if self.reuse.load(Ordering::Acquire) && sound {
            self.shared
                .idle
                .lock()
                .expect("pool lock")
                .entry(self.key)
                .or_default()
                .push(Parked { transport, parked_at: Instant::now() });
        } else {
            self.shared.discarded.fetch_add(1, Ordering::Relaxed);
            // Dropping the TcpTransport closes the socket.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_procutil::reactor::{Interest, Poller};
    use std::io::{Read, Write};
    use std::net::TcpListener;

    fn echo_listener() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("addr");
        (listener, addr)
    }

    /// Waits for a fresh dial's handshake to settle: its first write
    /// readiness.
    fn settled(conn: &PooledConn) {
        let poller = Poller::new().expect("poller");
        let interest = Interest { readable: false, writable: true };
        poller.register(conn.raw_fd(), 0, interest).expect("register");
        let mut ready = Vec::new();
        poller.wait(&mut ready, Duration::from_secs(5)).expect("wait");
        assert!(ready.iter().any(|e| e.writable), "the dial never settled");
    }

    #[test]
    fn a_fresh_dial_queues_until_connected_and_a_refusal_fails_the_flush() {
        let (listener, addr) = echo_listener();
        let pool = ConnectionPool::new();
        let mut conn = pool.checkout(addr, ChannelKind::Control).expect("dial");
        // Whether or not the handshake has settled yet, the bytes are
        // accepted: sent, or queued behind the connect.
        conn.send(SimTime::ZERO, b"hello").expect("queued or sent");
        settled(&conn);
        conn.send(SimTime::ZERO, &[]).expect("flush");
        assert_eq!(conn.pending_send_bytes(), 0, "flushed once connected");
        let (mut accepted, _) = listener.accept().expect("accept");
        let mut got = [0u8; 5];
        accepted.read_exact(&mut got).expect("read");
        assert_eq!(&got, b"hello");

        // A port nobody listens on: the refusal surfaces as a transport
        // error, never as a blocked checkout.
        drop(listener);
        drop(accepted);
        let Ok(mut refused) = pool.checkout(addr, ChannelKind::Data) else {
            return; // the kernel knew at once
        };
        let poller = Poller::new().expect("poller");
        poller.register(refused.raw_fd(), 0, Interest::READ).expect("register");
        let mut ready = Vec::new();
        poller.wait(&mut ready, Duration::from_secs(5)).expect("wait");
        assert!(refused.recv(SimTime::ZERO).is_err(), "a refused dial fails its first read");
    }

    #[test]
    fn approved_connections_are_reused_not_redialed() {
        let (listener, addr) = echo_listener();
        let server = std::thread::spawn(move || {
            // One accepted connection serves both checkouts.
            let (mut stream, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 16];
            let mut total = 0usize;
            while total < 10 {
                let n = stream.read(&mut buf).expect("read");
                if n == 0 {
                    break;
                }
                total += n;
            }
            total
        });

        let pool = ConnectionPool::new();
        {
            let conn = pool.checkout(addr, ChannelKind::Control).expect("dial");
            settled(&conn);
            let mut conn = conn;
            conn.send(SimTime::ZERO, b"first").unwrap();
            conn.reuse_handle().approve();
            // Engine-style deferred close must not kill the socket.
            conn.close();
        }
        assert_eq!((pool.dials(), pool.reuses(), pool.idle_count()), (1, 0, 1));
        {
            let mut conn = pool.checkout(addr, ChannelKind::Control).expect("reuse");
            conn.send(SimTime::ZERO, b"again").unwrap();
            // Not approved this time: really closed on drop.
        }
        assert_eq!((pool.dials(), pool.reuses(), pool.idle_count()), (1, 1, 0));
        assert_eq!(server.join().expect("server"), 10, "both writes crossed one connection");
    }

    #[test]
    fn unapproved_or_dirty_connections_never_park() {
        let (listener, addr) = echo_listener();
        let pool = ConnectionPool::new();
        let conn = pool.checkout(addr, ChannelKind::Control).expect("dial");
        let _accepted = listener.accept().expect("accept");
        drop(conn); // never approved
        assert_eq!(pool.idle_count(), 0);
        assert_eq!(pool.discarded(), 1);
    }

    #[test]
    fn the_reuse_window_sits_strictly_inside_the_peers_accept_window() {
        let accept = Duration::from_nanos(SessionTimeouts::default().handshake.as_nanos());
        assert!(REUSE_WINDOW > Duration::ZERO);
        assert!(REUSE_WINDOW < accept, "{REUSE_WINDOW:?} vs the peer's {accept:?}");
    }

    #[test]
    fn young_parked_connections_are_reused() {
        let (listener, addr) = echo_listener();
        let pool = ConnectionPool::new();
        let conn = pool.checkout(addr, ChannelKind::Control).expect("dial");
        let _accepted = listener.accept().expect("accept");
        conn.reuse_handle().approve();
        drop(conn);
        let conn2 = pool.checkout(addr, ChannelKind::Control).expect("warm reuse");
        assert_eq!((pool.dials(), pool.reuses(), pool.discarded()), (1, 1, 0));
        drop(conn2);
    }

    #[test]
    fn connections_parked_past_the_window_are_closed_unwritten_and_redialed() {
        let (listener, addr) = echo_listener();
        let pool = ConnectionPool::new();
        let conn = pool.checkout(addr, ChannelKind::Control).expect("dial");
        settled(&conn);
        let (mut parked_peer, _) = listener.accept().expect("accept");
        conn.reuse_handle().approve();
        drop(conn);
        assert_eq!(pool.idle_count(), 1);

        // Quiet, but read at the window's end: the peer may be timing
        // its parked session out, so the connection is not handed out.
        let late = Instant::now() + REUSE_WINDOW;
        let conn2 = pool.checkout_at(addr, ChannelKind::Control, late).expect("redial");
        assert_eq!((pool.dials(), pool.reuses(), pool.discarded()), (2, 0, 1));
        assert_eq!(pool.idle_count(), 0);
        let _fresh = listener.accept().expect("accept fresh");
        // Nothing was written to the old connection before it closed.
        parked_peer.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut buf = [0u8; 16];
        assert_eq!(parked_peer.read(&mut buf).expect("read"), 0, "EOF, not a frame");
        drop(conn2);
    }

    #[test]
    fn a_parked_connection_with_a_stray_byte_is_discarded_at_checkout() {
        let (listener, addr) = echo_listener();
        let pool = ConnectionPool::new();
        let conn = pool.checkout(addr, ChannelKind::Control).expect("dial");
        settled(&conn);
        let (mut parked_peer, _) = listener.accept().expect("accept");
        conn.reuse_handle().approve();
        drop(conn);
        assert_eq!(pool.idle_count(), 1);
        // The peer writes a byte nobody asked for while the connection
        // is parked; give it a moment to land.
        parked_peer.write_all(b"?").expect("stray byte");
        std::thread::sleep(Duration::from_millis(20));
        let conn2 = pool.checkout(addr, ChannelKind::Control).expect("redial");
        assert_eq!((pool.dials(), pool.reuses(), pool.discarded()), (2, 0, 1));
        let _fresh = listener.accept().expect("accept fresh");
        drop(conn2);
    }

    #[test]
    fn stale_parked_connections_are_discarded_at_checkout() {
        let (listener, addr) = echo_listener();
        let pool = ConnectionPool::new();
        {
            let conn = pool.checkout(addr, ChannelKind::Control).expect("dial");
            let _accepted = listener.accept().expect("accept");
            conn.reuse_handle().approve();
            drop(conn);
            // The peer hangs up while the connection is parked.
            drop(_accepted);
        }
        assert_eq!(pool.idle_count(), 1);
        // Give the FIN a moment to land.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let conn2 = pool.checkout(addr, ChannelKind::Control).expect("redial after stale discard");
        assert_eq!(pool.dials(), 2, "stale connection was not handed back out");
        assert_eq!(pool.reuses(), 0);
        let _accepted2 = listener.accept().expect("accept fresh");
        drop(conn2);
    }
}
