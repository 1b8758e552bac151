//! Transport conformance against **reactor-driven** endpoints: the
//! scenarios `crates/proto/tests/transport_conformance.rs` proves for
//! directly-pumped transports, re-run with the server side living
//! inside a sharded [`Reactor`] — the deployment shape the relay and
//! measurer binaries actually run. Readiness dispatch, write-interest
//! re-arming, and slab reaping must preserve the same contract the
//! sans-IO sessions rely on: ordered verified delivery through
//! arbitrary re-chunking, no frames torn or dropped under `WouldBlock`
//! backpressure, and bounded-time reaping of mid-blast hangups.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use flashflow_procutil::reactor::{self, AcceptFn, Driven, Reactor, ReactorConfig, Step};
use flashflow_proto::blast::{
    binding_nonce, secret_channel_key, BlastParser, Echoer, TrafficSource, ECHO_BACKLOG_HIGH_WATER,
};
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::{Duplex, Transport};
use flashflow_simnet::time::{SimDuration, SimTime};

const SECRET: u64 = 0xC0_4F0C_ED00;

/// The relay data plane's hot loop as a reactor connection: verify
/// inbound keyed frames, forward the accepted ones back, flush backlogs
/// on ticks and write readiness.
struct EchoConn {
    fd: i32,
    echoer: Echoer<TcpTransport>,
    t0: Instant,
    backlog: bool,
    /// Raised once a write of this connection's echo hit `WouldBlock`
    /// and left bytes queued in the echoer's outbox.
    echo_blocked: Arc<AtomicBool>,
}

impl EchoConn {
    fn step(&mut self) -> Step {
        let now = SimTime::from_secs_f64(self.t0.elapsed().as_secs_f64());
        for _ in 0..4 {
            match self.echoer.pump(now) {
                Ok(true) => {}
                Ok(false) => break,
                Err(_) => return Step::Done,
            }
        }
        if self.echoer.transport_error().is_some() {
            return Step::Done; // peer hung up: the normal end
        }
        let unflushed = self.echoer.transport_mut().pending_send_bytes() > 0;
        if unflushed {
            // ORDERING: Relaxed — the flag is the whole message; the
            // test reads nothing else this thread wrote.
            self.echo_blocked.store(true, Ordering::Relaxed);
        }
        self.backlog = unflushed;
        Step::Continue
    }
}

impl Driven for EchoConn {
    fn fd(&self) -> i32 {
        self.fd
    }

    fn on_ready(&mut self) -> Step {
        self.step()
    }

    fn on_tick(&mut self) -> Step {
        if self.backlog {
            return self.step();
        }
        Step::Continue
    }

    fn wants_write(&self) -> bool {
        self.backlog
    }

    /// Parked at the backlog mark, the echoer reads nothing: no
    /// wakeups for arriving bytes.
    fn wants_read(&self) -> bool {
        self.echoer.pending_echo() < ECHO_BACKLOG_HIGH_WATER as u64
    }
}

/// A 2-shard reactor serving keyed echo connections on loopback.
fn echo_reactor(key: u64) -> (Reactor, SocketAddr) {
    let (reactor, addr, _) = watched_echo_reactor(key);
    (reactor, addr)
}

/// [`echo_reactor`], plus a flag its connections raise once an echo
/// write hit `WouldBlock` and queued.
fn watched_echo_reactor(key: u64) -> (Reactor, SocketAddr, Arc<AtomicBool>) {
    let echo_blocked = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&echo_blocked);
    let factory: Arc<AcceptFn> = Arc::new(move |stream: TcpStream, _peer: SocketAddr| {
        let transport = TcpTransport::from_stream(stream).ok()?;
        Some(Box::new(EchoConn {
            fd: transport.raw_fd(),
            echoer: Echoer::new(transport).with_key(key),
            t0: Instant::now(),
            backlog: false,
            echo_blocked: Arc::clone(&flag),
        }) as Box<dyn Driven>)
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    let reactor = Reactor::serve(
        Some(listener),
        ReactorConfig { shards: 2, tick: Duration::from_millis(1) },
        factory,
    )
    .expect("start reactor");
    (reactor, addr, echo_blocked)
}

/// Dials one rate-capped keyed channel at the reactor, blasts for
/// `wall`, stops, and drains until every sent byte came back verified.
/// Returns the round-tripped byte count.
fn verified_round_trip(addr: SocketAddr, channel: u32, wall: Duration) -> u64 {
    let key = secret_channel_key(SECRET);
    let t = TcpTransport::connect(addr).expect("dial reactor");
    let mut src = TrafficSource::new(t, binding_nonce(SECRET), channel).with_key(key);
    src.set_rate_cap(50_000);
    src.greet(SimTime::ZERO);
    src.start(SimTime::ZERO);
    let mut echo = BlastParser::new().with_key(key);
    let t0 = Instant::now();
    let mut rx = Vec::new();
    let mut drain =
        |src: &mut TrafficSource<TcpTransport>, echo: &mut BlastParser, now: SimTime| {
            if let Ok(got) = src.transport_mut().recv_into(now, &mut rx) {
                if got > 0 {
                    echo.push(&rx).expect("echo framing intact");
                    assert_eq!(echo.corrupt_total(), 0, "echo must verify");
                }
            }
        };
    while t0.elapsed() < wall {
        let now = SimTime::from_secs_f64(t0.elapsed().as_secs_f64());
        src.pump(now);
        drain(&mut src, &mut echo, now);
        std::thread::sleep(Duration::from_micros(200));
    }
    src.stop();
    let sent = src.sent_total();
    assert!(sent > 0, "nothing was blasted");
    let deadline = Instant::now() + Duration::from_secs(60);
    while echo.received_total() < sent {
        let verified = echo.received_total();
        assert!(Instant::now() < deadline, "echo never drained: {verified}/{sent}");
        let now = SimTime::from_secs_f64(t0.elapsed().as_secs_f64());
        drain(&mut src, &mut echo, now);
        std::thread::sleep(Duration::from_micros(200));
    }
    assert_eq!(echo.received_total(), sent, "bytes lost in the reactor echo round trip");
    sent
}

#[test]
fn reactor_echo_round_trips_verified_keyed_bytes() {
    let (reactor, addr) = echo_reactor(secret_channel_key(SECRET));
    verified_round_trip(addr, 0, Duration::from_millis(400));
    reactor.stop();
    reactor.join().expect("clean join");
}

/// Partial-frame delivery: a valid keyed blast stream (captured off a
/// deterministic Duplex) dripped at the reactor in 7-byte writes with
/// `TCP_NODELAY`, so hello and data frames cross the shard's reassembly
/// in many fragments. Every byte must still come back verified.
#[test]
fn reactor_reassembles_frames_dripped_at_arbitrary_boundaries() {
    let key = secret_channel_key(SECRET);
    let (reactor, addr) = echo_reactor(key);

    // Capture one channel's wire bytes: 5-byte Duplex chunking already
    // proves the stream is position-independent; here it is just a
    // deterministic recorder.
    let (a, mut b) = Duplex::new(SimDuration::from_millis(1), 5).into_endpoints();
    let mut src = TrafficSource::new(a, binding_nonce(SECRET), 1).with_key(key);
    src.set_rate_cap(20_000);
    src.greet(SimTime::ZERO);
    src.start(SimTime::ZERO);
    let mut stream = Vec::new();
    for ms in 0..1100u64 {
        let now = SimTime::ZERO + SimDuration::from_millis(ms);
        src.pump(now);
        if let Ok(bytes) = b.recv(now) {
            stream.extend_from_slice(&bytes);
        }
    }
    // Drain the Duplex latency tail: bytes pumped at ms N land at N+1.
    for ms in 1100..1110u64 {
        if let Ok(bytes) = b.recv(SimTime::ZERO + SimDuration::from_millis(ms)) {
            stream.extend_from_slice(&bytes);
        }
    }
    let sent = src.sent_total();
    assert!(sent > 0, "capture produced no data frames");

    let mut client = TcpStream::connect(addr).expect("dial reactor");
    client.set_nodelay(true).expect("nodelay");
    for (ix, chunk) in stream.chunks(7).enumerate() {
        client.write_all(chunk).expect("drip");
        if ix % 64 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    client.set_read_timeout(Some(Duration::from_millis(50))).expect("timeout");
    let mut parser = BlastParser::new().with_key(key);
    let mut verified = 0u64;
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(30);
    while verified < sent {
        assert!(Instant::now() < deadline, "echo never drained: {verified}/{sent}");
        match client.read(&mut buf) {
            Ok(0) => panic!("reactor closed the channel mid-echo"),
            Ok(n) => {
                parser.push(&buf[..n]).expect("echo framing intact");
                assert_eq!(parser.corrupt_total(), 0, "frame corrupted across a drip boundary");
                verified = parser.received_total();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("echo read: {e}"),
        }
    }
    assert_eq!(verified, sent, "bytes lost through reassembly");

    drop(client);
    reactor.stop();
    reactor.join().expect("clean join");
}

/// Send-side backpressure inside the shard: an uncapped source fills
/// the return path while reading nothing, so the echoer's writes hit
/// `WouldBlock` and queue — the shard must re-arm the connection for
/// write readiness and flush the backlog; every byte still arrives
/// verified, none torn at the `WouldBlock` boundary.
#[test]
fn reactor_flushes_echo_backlog_through_write_readiness() {
    let key = secret_channel_key(SECRET);
    let (reactor, addr, echo_blocked) = watched_echo_reactor(key);

    let t = TcpTransport::connect(addr).expect("dial reactor");
    let mut src = TrafficSource::new(t, binding_nonce(SECRET), 2).with_key(key);
    src.greet(SimTime::ZERO);
    src.start(SimTime::ZERO);
    // Uncapped pumps while reading nothing: both directions' kernel
    // buffers fill, the echoer queues its unflushed tail.
    let mut saw_backpressure = false;
    for _ in 0..48 {
        src.pump(SimTime::ZERO);
        saw_backpressure |= src.transport_mut().pending_send_bytes() > 0;
    }
    // Whether the client's own send buffer fills is a race against a
    // shard that may already be awake and draining as fast as the
    // source writes. The subject here is the other direction, and it is
    // observed rather than assumed: with the client still reading
    // nothing, the echo of the burst must overrun the return path and
    // leave bytes queued in the echoer's outbox.
    let seen_by = Instant::now() + Duration::from_secs(10);
    while !echo_blocked.load(Ordering::Relaxed) && Instant::now() < seen_by {
        // Our own queued tail still has to reach the echoer.
        let _ = src.transport_mut().send(SimTime::ZERO, &[]);
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        echo_blocked.load(Ordering::Relaxed),
        "no echo write ever blocked (client send buffer filled: {saw_backpressure}); \
         burst too small?"
    );
    src.stop();
    let sent = src.sent_total();

    let mut echo = BlastParser::new().with_key(key);
    let mut verified = 0u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut rx = Vec::new();
    while verified < sent {
        assert!(Instant::now() < deadline, "echo never drained: {verified}/{sent}");
        let got = src
            .transport_mut()
            .recv_into(SimTime::from_secs_f64(2.0), &mut rx)
            .expect("return stream open");
        if got > 0 {
            echo.push(&rx).expect("no torn frame ever surfaces");
            assert_eq!(echo.corrupt_total(), 0, "frame torn at the WouldBlock boundary");
            verified = echo.received_total();
        } else {
            // Nudge our own queued outbox along, as a driver's pump would.
            let _ = src.transport_mut().send(SimTime::from_secs_f64(2.0), &[]);
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    assert_eq!(verified, sent, "bytes lost under send backpressure");
    assert_eq!(src.transport_mut().pending_send_bytes(), 0, "outbox fully flushed");

    drop(src);
    reactor.stop();
    reactor.join().expect("clean join");
}

/// A client hanging up mid-blast must be reaped from the shard's slab
/// in bounded time (`live` returns to zero) without wedging the shard:
/// a fresh channel dialed afterwards gets full service.
#[test]
fn reactor_reaps_midblast_hangup_and_keeps_serving() {
    let (reactor, addr) = echo_reactor(secret_channel_key(SECRET));

    let key = secret_channel_key(SECRET);
    let t = TcpTransport::connect(addr).expect("dial reactor");
    let mut src = TrafficSource::new(t, binding_nonce(SECRET), 3).with_key(key);
    src.greet(SimTime::ZERO);
    src.start(SimTime::ZERO);
    for _ in 0..8 {
        src.pump(SimTime::ZERO);
    }
    assert!(src.sent_total() > 0, "nothing was blasted before the hangup");
    drop(src); // the socket closes with echo still in flight

    let deadline = Instant::now() + Duration::from_secs(10);
    while reactor.live() > 0 {
        assert!(
            Instant::now() < deadline,
            "hung-up connection never reaped: {} still live",
            reactor.live()
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // The shard survived the mid-blast death: a fresh channel round
    // trips verified bytes end to end.
    verified_round_trip(addr, 4, Duration::from_millis(300));
    assert_eq!(reactor.served(), 2, "both connections passed through the slab");

    reactor.stop();
    reactor.join().expect("clean join");
}

/// This thread's CPU time (user + system) in seconds, from its
/// `/proc/self/task/<tid>/stat` line, which `/proc/thread-self` names.
fn thread_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("read thread stat");
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th, in USER_HZ (100) ticks.
    let rest = stat.rsplit_once(')').expect("comm field").1;
    let ticks = |ix: usize| -> f64 {
        rest.split_whitespace().nth(ix).expect("stat field").parse().expect("tick count")
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// How a [`Dialer`] ended: the bytes it got back, or its dial's error.
type DialOutcome = std::io::Result<Vec<u8>>;

/// A CPU-time sample of the shard thread: when, and its CPU seconds.
type CpuSample = (Instant, f64);

/// What a dial test watches on the shard: the shard thread's CPU time
/// ((first, latest) samples), the dialer's wakeups, and the flag that
/// ends the [`Sentinel`].
#[derive(Default)]
struct Watch {
    cpu: Mutex<Option<(CpuSample, CpuSample)>>,
    wakeups: AtomicU64,
    quit: AtomicBool,
}

impl Watch {
    /// The shard thread's CPU seconds per wall second between the first
    /// and the latest sample, and the wall seconds they span.
    fn cpu_share(&self) -> (f64, f64) {
        let ((t0, cpu0), (t1, cpu1)) = lock(&self.cpu).expect("the sentinel ticked");
        let wall = t1.duration_since(t0).as_secs_f64();
        ((cpu1 - cpu0) / wall, wall)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An outbound connection started with [`reactor::dial`]: once the
/// handshake settles it writes `out` and reads until as many bytes came
/// back, then reports and ends.
struct Dialer {
    stream: TcpStream,
    connected: bool,
    out: Vec<u8>,
    written: usize,
    back: Vec<u8>,
    watch: Arc<Watch>,
    done: mpsc::Sender<DialOutcome>,
}

impl Dialer {
    fn end(&mut self, outcome: DialOutcome) -> Step {
        let _ = self.done.send(outcome);
        Step::Done
    }
}

impl Driven for Dialer {
    fn fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }

    fn on_ready(&mut self) -> Step {
        // ORDERING: Relaxed — a counter the test reads after the fact.
        self.watch.wakeups.fetch_add(1, Ordering::Relaxed);
        if !self.connected {
            match reactor::dialed(&self.stream) {
                Ok(false) => return Step::Continue,
                Ok(true) => self.connected = true,
                Err(e) => return self.end(Err(e)),
            }
        }
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(n) => self.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return self.end(Err(e)),
            }
        }
        let mut buf = [0u8; 4096];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => self.back.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return self.end(Err(e)),
            }
        }
        if self.back.len() >= self.out.len() {
            let back = std::mem::take(&mut self.back);
            return self.end(Ok(back));
        }
        Step::Continue
    }

    fn on_tick(&mut self) -> Step {
        Step::Continue
    }

    fn wants_write(&self) -> bool {
        !self.connected || self.written < self.out.len()
    }
}

/// A connection with nothing to say, sharing the shard with the dial
/// under test: on its first tick it dials and hands the [`Dialer`] to
/// the running reactor (adoption from inside a hook), and on every tick
/// it samples the shard thread's CPU time.
struct Sentinel {
    /// Its own socket, which never becomes ready: ticks only.
    idle: TcpListener,
    launch: Option<Box<dyn FnOnce() + Send>>,
    watch: Arc<Watch>,
}

impl Driven for Sentinel {
    fn fd(&self) -> i32 {
        self.idle.as_raw_fd()
    }

    fn on_ready(&mut self) -> Step {
        Step::Continue
    }

    fn on_tick(&mut self) -> Step {
        if let Some(launch) = self.launch.take() {
            launch();
        }
        let sample = (Instant::now(), thread_cpu_secs());
        let mut cpu = lock(&self.watch.cpu);
        *cpu = Some((cpu.map_or(sample, |(first, _)| first), sample));
        // ORDERING: Relaxed — the flag is the whole message.
        if self.watch.quit.load(Ordering::Relaxed) {
            return Step::Done;
        }
        Step::Continue
    }
}

/// A one-shard reactor (10 ms tick) whose [`Sentinel`] dials `target`
/// on its first tick and spawns a [`Dialer`] sending `out`.
fn dial_from_a_hook(
    target: SocketAddr,
    out: Vec<u8>,
) -> (Reactor, mpsc::Receiver<DialOutcome>, Arc<Watch>) {
    let reactor = Reactor::serve(
        None,
        ReactorConfig { shards: 1, tick: Duration::from_millis(10) },
        Arc::new(|_, _| None),
    )
    .expect("start reactor");
    let watch = Arc::new(Watch::default());
    let (done, outcome) = mpsc::channel();
    let spawner = reactor.spawner();
    let dial_watch = Arc::clone(&watch);
    let launch = Box::new(move || match reactor::dial(target) {
        Ok(stream) => spawner.adopt(Box::new(Dialer {
            stream,
            connected: false,
            out,
            written: 0,
            back: Vec::new(),
            watch: dial_watch,
            done,
        })),
        // The kernel may know at once that nothing listens there.
        Err(e) => {
            let _ = done.send(Err(e));
        }
    });
    let idle = TcpListener::bind("127.0.0.1:0").expect("bind idle socket");
    reactor.adopt(Box::new(Sentinel { idle, launch: Some(launch), watch: Arc::clone(&watch) }));
    (reactor, outcome, watch)
}

/// Ends the [`Sentinel`] and joins the reactor.
fn shut_down(reactor: Reactor, watch: &Watch) {
    // ORDERING: Relaxed — the flag is the whole message; the sentinel
    // reads nothing else this thread wrote.
    watch.quit.store(true, Ordering::Relaxed);
    reactor.stop();
    reactor.join().expect("clean join");
}

#[test]
fn a_dial_started_in_a_hook_completes_on_write_readiness_and_round_trips_bytes() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let target = listener.local_addr().expect("addr");
    let echo = thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept the dial");
        let mut buf = [0u8; 4096];
        while let Ok(n @ 1..) = conn.read(&mut buf) {
            conn.write_all(&buf[..n]).expect("echo");
        }
    });
    let out: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    let (reactor, outcome, watch) = dial_from_a_hook(target, out.clone());
    let back = outcome
        .recv_timeout(Duration::from_secs(10))
        .expect("the dial settles")
        .expect("the dial connects");
    assert_eq!(back, out, "bytes round-trip through the dialed connection");
    assert!(watch.wakeups.load(Ordering::Relaxed) >= 1, "driven on readiness");
    assert_eq!(reactor.served(), 2, "the dial joined the running reactor");
    shut_down(reactor, &watch);
    echo.join().expect("echo thread");
}

#[test]
fn a_dial_to_a_closed_port_surfaces_its_error_and_ends_without_spinning() {
    // A port just bound and released: nothing listens on it.
    let target = TcpListener::bind("127.0.0.1:0").expect("bind").local_addr().expect("addr");
    let (reactor, outcome, watch) = dial_from_a_hook(target, b"unheard".to_vec());
    let err = outcome
        .recv_timeout(Duration::from_secs(10))
        .expect("the dial settles")
        .expect_err("nothing listens there");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused, "{err}");
    // Loopback reports the refusal as the dial's first readiness, not
    // from `connect(2)` itself.
    assert_eq!(watch.wakeups.load(Ordering::Relaxed), 1, "one wakeup settles a failed dial");
    thread::sleep(Duration::from_millis(200));
    let (share, wall) = watch.cpu_share();
    assert!(wall >= 0.15, "the sentinel sampled {wall:.3} s only");
    assert!(share < 0.25, "the shard spun: {share:.2} CPU-s per s over {wall:.2} s");
    assert_eq!(reactor.live(), 1, "only the sentinel stays registered");
    shut_down(reactor, &watch);
}
