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
//! with the shared replay window). The
//! coordinator side defers the endpoint's terminal hang-up exactly like
//! [`LeasedTransport`](flashflow_proto::transport::LeasedTransport): a
//! [`PooledConn`]'s `close` is recorded, not executed, and the *driver*
//! decides at return time — a connection whose session did not end
//! [`Done`](flashflow_proto::session::CoordPhase::Done) (or whose
//! outbox still holds bytes) is really closed, never parked, so a torn
//! or half-poisoned stream can never leak into the next item.
//!
//! Fresh dials never block. [`ConnectionPool::checkout`] starts the
//! connect with `procutil::reactor::dial` and hands the still-connecting
//! socket out wrapped in a [`TcpTransport`]: the first frames queue in
//! its outbox until the handshake settles, and the round loop watches
//! such a socket for write readiness. A refused dial fails the next
//! flush (the session aborts with `ConnectionLost`); an unanswered one
//! runs into the session's handshake timeout. Either way only that
//! conversation degrades, so a round being staged can never freeze the
//! one that is running. The one bounded wait left at checkout is the
//! keepalive probe of a connection parked for longer than the probe age.
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

use flashflow_procutil::reactor::{self, Interest, Poller};
use flashflow_proto::frame::{encode, FrameDecoder};
use flashflow_proto::msg::Msg;
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::{Readiness, Transport, TransportError};
use flashflow_simnet::time::SimTime;

/// Default idle age past which a parked connection is health-probed at
/// checkout (see [`ConnectionPool::with_idle_probe_age`]). Within a
/// period, items reuse connections within milliseconds; 30 seconds of
/// idleness means the connection sat across a period gap, where serving
/// processes restart and NATs expire mappings.
pub const DEFAULT_IDLE_PROBE_AGE: Duration = Duration::from_secs(30);

/// Longest a keepalive probe waits for its `Pong` before declaring the
/// parked connection dead. One loopback/LAN round trip is microseconds
/// to low milliseconds; a peer that cannot answer a ping in this long
/// is not a peer a fresh measurement item should be handed.
pub const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

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
/// checkout can tell a warm handoff from one that idled across a period
/// gap.
struct Parked {
    transport: TcpTransport,
    parked_at: Instant,
}

struct PoolShared {
    idle: Mutex<HashMap<(SocketAddr, ChannelKind), Vec<Parked>>>,
    idle_probe_age: Duration,
    dials: AtomicU64,
    reuses: AtomicU64,
    discarded: AtomicU64,
    probes: AtomicU64,
    probe_seq: AtomicU64,
}

impl Default for PoolShared {
    fn default() -> Self {
        PoolShared {
            idle: Mutex::new(HashMap::new()),
            idle_probe_age: DEFAULT_IDLE_PROBE_AGE,
            dials: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            probe_seq: AtomicU64::new(0),
        }
    }
}

/// Runs one keepalive probe over a parked **control** connection: send
/// `Ping`, wait (bounded) for the matching `Pong`. The serving process
/// answers from its parked `AwaitAuth` session, so a positive answer
/// proves the whole path — socket, process, session loop — is alive,
/// which no amount of local socket inspection can. The wait is on the
/// socket's readiness, so the `Pong` is read the moment it lands.
fn ping_probe(transport: &mut TcpTransport, probe: u64) -> bool {
    if transport.send(SimTime::ZERO, &encode(&Msg::Ping { probe })).is_err() {
        return false;
    }
    let Ok(poller) = Poller::new() else { return false };
    if poller.register(transport.raw_fd(), 0, Interest::READ).is_err() {
        return false;
    }
    let mut decoder = FrameDecoder::new();
    let mut ready = Vec::new();
    let deadline = Instant::now() + PROBE_TIMEOUT;
    loop {
        match transport.recv(SimTime::ZERO) {
            Ok(bytes) => {
                decoder.push(&bytes);
                match decoder.next_msg() {
                    // Anything but our echo — a stale frame, a
                    // mismatched probe, garbage — disqualifies the
                    // connection.
                    Ok(Some(Msg::Pong { probe: got })) => return got == probe,
                    Ok(Some(_)) | Err(_) => return false,
                    // Partial (or no) frame yet; wait for more bytes.
                    Ok(None) => {}
                }
            }
            Err(_) => return false,
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || poller.wait(&mut ready, left).is_err() {
            return false;
        }
    }
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

    /// Sets the idle age past which a parked connection is
    /// **health-probed** at checkout rather than trusted: on top of the
    /// always-on readiness check (catches a FIN/RST that arrived while
    /// parked), a control connection gets a `Ping` that the serving
    /// process's parked session must answer within [`PROBE_TIMEOUT`] —
    /// a peer that died without saying goodbye fails it now, at
    /// checkout, where discard-and-redial is cheap, instead of
    /// mid-handshake inside an engine. Idle *data* connections (no
    /// session on the far end to answer) are simply redialed past the
    /// age. Defaults to [`DEFAULT_IDLE_PROBE_AGE`]; [`Duration::ZERO`]
    /// probes every parked checkout.
    #[must_use]
    pub fn with_idle_probe_age(self, age: Duration) -> Self {
        // The shared state is fresh (builder-style, pre-clone): there
        // is exactly one Arc holder.
        let mut shared = Arc::try_unwrap(self.shared).ok().expect("configure before cloning");
        shared.idle_probe_age = age;
        ConnectionPool { shared: Arc::new(shared) }
    }

    /// Checks a `kind` connection to `addr` out: a parked warm one when
    /// available (stale ones — peer hung up while parked — are
    /// discarded on the spot; ones idle past the probe age are
    /// keepalive-probed first), a fresh dial otherwise. A fresh dial
    /// never waits for its handshake, so a peer that refuses or never
    /// answers costs the caller nothing here: the refusal fails the
    /// first send or read, and silence runs into the session's own
    /// handshake timeout.
    ///
    /// # Errors
    /// A dial the kernel failed at once: no socket, or a refusal it
    /// already knew of.
    pub fn checkout(&self, addr: SocketAddr, kind: ChannelKind) -> std::io::Result<PooledConn> {
        let key = (addr, kind);
        loop {
            let parked =
                self.shared.idle.lock().expect("pool lock").get_mut(&key).and_then(Vec::pop);
            let Some(Parked { mut transport, parked_at }) = parked else { break };
            // A parked connection can rot: the process exited, or sent
            // bytes we never asked for. Either disqualifies it.
            if transport.readiness(SimTime::ZERO) != Readiness::Quiet {
                self.shared.discarded.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // Idle long enough to distrust: run a real keepalive. A
            // peer that vanished without a FIN (process killed, NAT
            // mapping expired) looks perfectly quiet locally; only a
            // `Ping` answered by the serving process's parked session
            // proves the connection can still carry a conversation.
            // Data-kind connections have no control session on the
            // other end to answer, so for them age past the threshold
            // is itself the verdict: redial rather than trust.
            if parked_at.elapsed() >= self.shared.idle_probe_age {
                let alive = if kind == ChannelKind::Control {
                    self.shared.probes.fetch_add(1, Ordering::Relaxed);
                    let probe = self.shared.probe_seq.fetch_add(1, Ordering::Relaxed) ^ 0x50B0_BE4C;
                    ping_probe(&mut transport, probe)
                } else {
                    // No session on the far end to answer a ping: age
                    // past the threshold is itself the verdict.
                    false
                };
                if !alive {
                    self.shared.discarded.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            self.shared.reuses.fetch_add(1, Ordering::Relaxed);
            return Ok(self.wrap(key, transport));
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

    /// Parked connections found stale and thrown away.
    pub fn discarded(&self) -> u64 {
        self.shared.discarded.load(Ordering::Relaxed)
    }

    /// Keepalive probes run on idle-past-threshold checkouts.
    pub fn probes(&self) -> u64 {
        self.shared.probes.load(Ordering::Relaxed)
    }

    /// Connections currently parked.
    pub fn idle_count(&self) -> usize {
        self.shared.idle.lock().expect("pool lock").values().map(Vec::len).sum()
    }

    /// A point-in-time copy of every pool counter, for surfacing in
    /// coordinator results instead of querying the live pool.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            dials: self.dials(),
            reuses: self.reuses(),
            discarded: self.discarded(),
            probes: self.probes(),
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
    /// Parked connections found stale and thrown away.
    pub discarded: u64,
    /// Keepalive probes run on idle-past-threshold checkouts.
    pub probes: u64,
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

    fn readiness(&mut self, now: SimTime) -> Readiness {
        self.transport().readiness(now)
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
    use std::io::Read;
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

    /// A minimal serving peer for probe tests: accepts one connection
    /// and answers every `Ping` with the matching `Pong`, like a parked
    /// `MeasurerSession` does, until the prober hangs up.
    fn pong_server(listener: TcpListener) -> std::thread::JoinHandle<u64> {
        std::thread::spawn(move || {
            use flashflow_proto::frame::{encode, FrameDecoder};
            use flashflow_proto::msg::Msg;
            use std::io::{Read as _, Write as _};
            let (mut stream, _) = listener.accept().expect("accept");
            stream.set_nonblocking(true).expect("nonblocking");
            let mut dec = FrameDecoder::new();
            let mut buf = [0u8; 1024];
            let mut pongs = 0u64;
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline {
                match stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => dec.push(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => break,
                }
                while let Ok(Some(Msg::Ping { probe })) = dec.next_msg() {
                    stream.write_all(&encode(&Msg::Pong { probe })).expect("pong");
                    pongs += 1;
                }
            }
            pongs
        })
    }

    #[test]
    fn idle_connections_are_probed_and_dead_ones_redialed() {
        let (listener, addr) = echo_listener();
        // Probe age zero: every parked checkout is probed.
        let pool = ConnectionPool::new().with_idle_probe_age(Duration::ZERO);
        {
            let conn = pool.checkout(addr, ChannelKind::Control).expect("dial");
            let _accepted = listener.accept().expect("accept");
            conn.reuse_handle().approve();
            drop(conn);
            // The peer dies while the connection idles in the pool.
            drop(_accepted);
        }
        assert_eq!(pool.idle_count(), 1);
        std::thread::sleep(Duration::from_millis(20));
        let conn2 = pool.checkout(addr, ChannelKind::Control).expect("redial after probe discard");
        let _accepted2 = listener.accept().expect("accept fresh");
        assert_eq!(pool.dials(), 2, "dead parked connection was redialed, not handed out");
        assert_eq!(pool.reuses(), 0);
        assert!(pool.discarded() >= 1);
        drop(conn2);
    }

    #[test]
    fn healthy_idle_connection_answers_its_ping_and_is_reused() {
        let (listener, addr) = echo_listener();
        let server = pong_server(listener);
        let pool = ConnectionPool::new().with_idle_probe_age(Duration::ZERO);
        {
            let conn = pool.checkout(addr, ChannelKind::Control).expect("dial healthy");
            settled(&conn);
            conn.reuse_handle().approve();
        }
        let probes_before = pool.probes();
        let reused = pool.checkout(addr, ChannelKind::Control).expect("probed reuse");
        assert!(pool.probes() > probes_before, "idle checkout was probed");
        assert_eq!(pool.reuses(), 1, "healthy probed connection handed back out");
        assert_eq!(pool.dials(), 1, "no redial needed");
        drop(reused);
        assert!(server.join().expect("server") >= 1, "the peer answered the keepalive");
    }

    #[test]
    fn silently_dead_peer_fails_the_ping_probe() {
        // The case local socket inspection cannot catch: the peer
        // accepts, never answers, and never closes — readiness stays
        // Quiet, but the Ping goes unanswered and the connection is
        // discarded at the probe timeout instead of being handed to an
        // engine.
        let (listener, addr) = echo_listener();
        let pool = ConnectionPool::new().with_idle_probe_age(Duration::ZERO);
        {
            let conn = pool.checkout(addr, ChannelKind::Control).expect("dial");
            settled(&conn);
            conn.reuse_handle().approve();
        }
        let (_mute, _) = listener.accept().expect("accept");
        assert_eq!(pool.idle_count(), 1);
        let t0 = Instant::now();
        let conn2 = pool.checkout(addr, ChannelKind::Control).expect("redial after mute peer");
        let _accepted2 = listener.accept().expect("accept fresh");
        assert!(t0.elapsed() >= PROBE_TIMEOUT, "probe waited out its timeout");
        assert_eq!(pool.dials(), 2, "mute peer's connection was not reused");
        assert_eq!(pool.reuses(), 0);
        drop(conn2);
    }

    #[test]
    fn young_connections_skip_the_keepalive_probe() {
        let (listener, addr) = echo_listener();
        // A generous probe age: a connection parked moments ago is
        // trusted without the extra probe.
        let pool = ConnectionPool::new().with_idle_probe_age(Duration::from_secs(3600));
        let conn = pool.checkout(addr, ChannelKind::Control).expect("dial");
        let _accepted = listener.accept().expect("accept");
        conn.reuse_handle().approve();
        drop(conn);
        let conn2 = pool.checkout(addr, ChannelKind::Control).expect("warm reuse");
        assert_eq!(pool.probes(), 0, "young parked connection not probed");
        assert_eq!((pool.dials(), pool.reuses()), (1, 1));
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
        let _accepted2 = listener.accept().expect("accept fresh");
        assert_eq!(pool.dials(), 2, "stale connection was not handed back out");
        assert_eq!(pool.reuses(), 0);
        drop(conn2);
    }
}
