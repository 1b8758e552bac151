//! Echo data-plane throughput over loopback TCP: the full round trip.
//!
//! For 1, 2, and 4 measurer channels, a [`TrafficSource`] per channel
//! blasts keyed pattern frames at a relay-side [`Echoer`] thread that
//! *verifies every payload byte* and loops the verified bytes back;
//! the measurer side then verifies the echo again. The recorded rate
//! is **verified echoed bytes per second** — the quantity a FlashFlow
//! estimate is actually built from, costing two verifications and two
//! socket crossings per byte, not a memcpy.
//!
//! The run doubles as an integrity soak: at the end, every byte sent
//! must have come back verified, with zero corrupt and zero forged
//! bytes in either direction.
//!
//! The run ends with the **instrumentation overhead guards**: first
//! the verify hot path itself (a keyed [`BlastParser`] over a captured
//! blast stream) is timed bare and with `flashflow-obs` counters
//! attached, then the reactor-served round trip is timed bare
//! ([`Reactor::serve`]) and fully instrumented (`serve_observed` with
//! per-shard histograms, gauges, and the stall watchdog). Both
//! overheads must stay under 3%, and the numbers are written to
//! `BENCH_obs.json` at the repo root so the perf trajectory is
//! machine-tracked.
//!
//! Plain `harness = false` timing (Criterion is unavailable offline):
//! run with `cargo bench -p flashflow-bench --bench echo_throughput`.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use flashflow_obs::{EventSink, Json, MetricsRegistry, Span};
use flashflow_procutil::reactor::{AcceptFn, Driven, Reactor, ReactorConfig, ReactorObs, Step};
use flashflow_proto::blast::{
    binding_nonce, secret_channel_key, BlastCounters, BlastEvent, BlastParser, Echoer,
    TrafficSource,
};
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::{Duplex, Transport};
use flashflow_simnet::stats::median;
use flashflow_simnet::time::SimTime;

const CHANNEL_COUNTS: [usize; 3] = [1, 2, 4];
const ROUND_WALL: Duration = Duration::from_millis(300);
const SECRET: u64 = 0xEC40_BE4C;

fn main() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    listener.set_nonblocking(true).expect("nonblocking");

    let key = secret_channel_key(SECRET);
    let nonce = binding_nonce(SECRET);
    let relay_received = Arc::new(AtomicU64::new(0));
    let relay_corrupt = Arc::new(AtomicU64::new(0));
    let relay_forged = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    // Relay side: every accepted connection gets a verifying echo
    // thread that loops bytes back until the measurer hangs up.
    let acceptor = {
        let (received, corrupt, forged, stop) =
            (relay_received.clone(), relay_corrupt.clone(), relay_forged.clone(), stop.clone());
        thread::spawn(move || {
            let mut echoers = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let (received, corrupt, forged) =
                            (received.clone(), corrupt.clone(), forged.clone());
                        echoers.push(thread::spawn(move || {
                            let t = TcpTransport::from_stream(stream).expect("wrap");
                            let mut echo = Echoer::new(t).with_key(key);
                            let t0 = Instant::now();
                            loop {
                                let now = SimTime::from_secs_f64(t0.elapsed().as_secs_f64());
                                match echo.pump(now) {
                                    Ok(moved) => {
                                        if echo.transport_error().is_some() {
                                            break;
                                        }
                                        if !moved {
                                            thread::sleep(Duration::from_micros(200));
                                        }
                                    }
                                    Err(e) => panic!("echo framing broke: {e}"),
                                }
                            }
                            received.fetch_add(echo.received_total(), Ordering::SeqCst);
                            corrupt.fetch_add(echo.corrupt_total(), Ordering::SeqCst);
                            forged.fetch_add(echo.forged_total(), Ordering::SeqCst);
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("accept: {e}"),
                }
            }
            for e in echoers {
                let _ = e.join();
            }
        })
    };

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "echo_throughput: loopback TCP, verified echo round trip, \
         {ROUND_WALL:?} per round, {cores} core(s) available"
    );
    println!("{:<10} {:>14} {:>14} {:>12}", "channels", "sent", "echoed back", "MB/s echoed");

    let mut total_sent = 0u64;
    let mut total_back = 0u64;
    for channels in CHANNEL_COUNTS {
        // Fresh dials per round, as a measurer dials fresh per slot.
        let mut lanes = Vec::new();
        for chan in 0..channels {
            let t = TcpTransport::connect(addr).expect("dial relay");
            let mut src = TrafficSource::new(t, nonce, chan as u32).with_key(key);
            src.greet(SimTime::ZERO);
            src.start(SimTime::ZERO);
            lanes.push((src, BlastParser::new().with_key(key), 0u64));
        }
        let t0 = Instant::now();
        let spin = |lanes: &mut Vec<(TrafficSource<TcpTransport>, BlastParser, u64)>,
                    pumping: bool| {
            let now = SimTime::from_secs_f64(t0.elapsed().as_secs_f64());
            let mut idle = true;
            for (src, back, verified) in lanes.iter_mut() {
                // The source pauses itself at its backlog bound, so it
                // runs exactly as fast as the kernel + echoer drain.
                if pumping && src.pump(now) {
                    idle = false;
                }
                if let Ok(bytes) = src.transport_mut().recv(now) {
                    if !bytes.is_empty() {
                        idle = false;
                        for ev in back.push(&bytes).expect("echo framing intact") {
                            if let BlastEvent::Data { bytes, corrupt } = ev {
                                assert_eq!(corrupt, 0, "echo must verify");
                                *verified += bytes;
                            }
                        }
                    }
                }
            }
            idle
        };
        while t0.elapsed() < ROUND_WALL {
            if spin(&mut lanes, true) {
                thread::sleep(Duration::from_micros(100));
            }
        }
        let blast_elapsed = t0.elapsed();
        for (src, ..) in lanes.iter_mut() {
            src.stop(SimTime::from_secs_f64(blast_elapsed.as_secs_f64()));
        }
        // Drain: everything sent must come back verified.
        let sent: u64 = lanes.iter().map(|(s, ..)| s.sent_total()).sum();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let back: u64 = lanes.iter().map(|(.., v)| *v).sum();
            if back >= sent {
                break;
            }
            assert!(Instant::now() < deadline, "echo never drained: {back}/{sent}");
            if spin(&mut lanes, false) {
                thread::sleep(Duration::from_micros(200));
            }
        }
        let elapsed = t0.elapsed();
        let back: u64 = lanes.iter().map(|(.., v)| *v).sum();
        total_sent += sent;
        total_back += back;
        println!(
            "{:<10} {:>14} {:>14} {:>12.1}",
            channels,
            sent,
            back,
            back as f64 / elapsed.as_secs_f64() / 1e6
        );
        drop(lanes); // hang up; the echo threads publish their totals
    }

    // Integrity soak: the relay verified exactly what was sent, echoed
    // it all back, and nothing was corrupt or forged in either
    // direction.
    let deadline = Instant::now() + Duration::from_secs(30);
    while relay_received.load(Ordering::SeqCst) < total_sent {
        assert!(Instant::now() < deadline, "relay threads never drained");
        thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::SeqCst);
    acceptor.join().expect("acceptor");
    assert_eq!(relay_received.load(Ordering::SeqCst), total_sent, "bytes lost measurer → relay");
    assert_eq!(relay_corrupt.load(Ordering::SeqCst), 0, "corrupt bytes on a healthy loopback");
    assert_eq!(relay_forged.load(Ordering::SeqCst), 0, "forged frames on an honest channel");
    assert_eq!(total_back, total_sent, "bytes lost relay → measurer");
    println!("integrity: {total_sent} bytes sent == verified at relay == echoed back, 0 corrupt");

    let parser_block = instrumentation_overhead_guard();
    let reactor_block = reactor_overhead_guard();

    let doc = Json::Obj(vec![
        ("schema".to_string(), Json::Int(2)),
        ("bench".to_string(), Json::Str("echo_throughput/obs_overhead".to_string())),
        ("limit_pct".to_string(), Json::Num(OVERHEAD_LIMIT_PCT)),
        ("blast_parser".to_string(), parser_block),
        ("reactor".to_string(), reactor_block),
    ]);
    let mut out = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    out.pop();
    out.pop();
    out.push("BENCH_obs.json");
    flashflow_procutil::atomic_write(&out, format!("{doc}\n").as_bytes())
        .expect("write BENCH_obs.json");
    println!("wrote {}", out.display());
}

/// Bytes of captured blast stream the overhead rounds parse.
const OVERHEAD_STREAM: usize = 32 << 20;
/// Interleaved timing rounds per variant; minimums are compared (the
/// best observed run is the least noisy estimate of the code's cost).
const OVERHEAD_ROUNDS: usize = 5;
/// The acceptance bound: counters on the verified-echo hot path must
/// cost less than this much relative to the bare parser.
const OVERHEAD_LIMIT_PCT: f64 = 3.0;

/// Times the verify hot path bare vs counter-instrumented over one
/// captured in-memory blast stream, asserts the overhead bound, and
/// returns the `blast_parser` block of `BENCH_obs.json`.
fn instrumentation_overhead_guard() -> Json {
    let key = secret_channel_key(SECRET);
    let nonce = binding_nonce(SECRET);

    // Capture a pattern-stamped stream once, off the clock: an uncapped
    // source over a zero-latency duplex, no sockets involved.
    let (a, mut b) = Duplex::loopback().into_endpoints();
    let mut src = TrafficSource::new(a, nonce, 0).with_key(key);
    src.greet(SimTime::ZERO);
    src.start(SimTime::ZERO);
    let mut stream: Vec<u8> = Vec::with_capacity(OVERHEAD_STREAM + (1 << 16));
    while stream.len() < OVERHEAD_STREAM {
        src.pump(SimTime::ZERO);
        stream.extend(b.recv(SimTime::ZERO).expect("in-memory recv"));
    }

    // Parse it through the identical keyed parser, with and without
    // counters, interleaved so cache/thermal drift hits both equally.
    let chunk = 64 << 10;
    let run = |counters: Option<BlastCounters>| -> f64 {
        let mut parser = BlastParser::new().with_key(key);
        if let Some(c) = counters {
            parser = parser.with_counters(c);
        }
        let t0 = Instant::now();
        for piece in stream.chunks(chunk) {
            parser.push(piece).expect("captured stream parses");
        }
        assert_eq!(parser.corrupt_total(), 0, "captured stream must verify");
        t0.elapsed().as_secs_f64()
    };
    let counters = BlastCounters::default();
    let mut bare = f64::INFINITY;
    let mut instrumented = f64::INFINITY;
    for _ in 0..OVERHEAD_ROUNDS {
        bare = bare.min(run(None));
        instrumented = instrumented.min(run(Some(counters.clone())));
    }
    assert!(counters.verified.get() > 0, "instrumented rounds must feed the counters");

    let bytes = stream.len() as f64;
    let overhead_pct = ((instrumented - bare) / bare * 100.0).max(0.0);
    println!(
        "obs overhead: bare {:.1} MB/s, instrumented {:.1} MB/s, overhead {overhead_pct:.2}%",
        bytes / bare / 1e6,
        bytes / instrumented / 1e6,
    );

    assert!(
        overhead_pct < OVERHEAD_LIMIT_PCT,
        "instrumented blast parse is {overhead_pct:.2}% slower than bare \
         (limit {OVERHEAD_LIMIT_PCT}%)"
    );

    Json::Obj(vec![
        ("stream_bytes".to_string(), Json::Int(stream.len() as i128)),
        ("rounds".to_string(), Json::Int(OVERHEAD_ROUNDS as i128)),
        ("bare_secs".to_string(), Json::Num(bare)),
        ("instrumented_secs".to_string(), Json::Num(instrumented)),
        ("bare_bytes_per_sec".to_string(), Json::Num(bytes / bare)),
        ("instrumented_bytes_per_sec".to_string(), Json::Num(bytes / instrumented)),
        ("overhead_pct".to_string(), Json::Num(overhead_pct)),
    ])
}

/// Bytes each reactor-overhead round pushes through the verified-echo
/// round trip: enough that a round (over 100 ms at sustained loopback
/// rates) outlasts a scheduler quantum, so one descheduling cannot
/// decide its reading.
const REACTOR_STREAM: u64 = 64 << 20;
/// Bare/observed round pairs; the median of the per-pair time ratios is
/// the reading, and the variant that goes first alternates so drift
/// inside a pair cancels across pairs. A round's wall time still varies
/// by ±15 % between back-to-back runs on a shared two-core host, so
/// even this median carries about 2.5 points of error there.
const REACTOR_PAIRS: usize = 21;
/// Shards for the overhead reactors — enough to exercise the sharded
/// accept without spreading the tiny workload thin.
const REACTOR_SHARDS: usize = 2;

/// One echoing reactor connection, as in `reactor_scaling`: the relay
/// data plane's hot loop with none of the session machinery.
struct EchoConn {
    fd: i32,
    echoer: Echoer<TcpTransport>,
    t0: Instant,
    backlog: bool,
}

impl EchoConn {
    fn step(&mut self) -> Step {
        let now = SimTime::from_secs_f64(self.t0.elapsed().as_secs_f64());
        for _ in 0..4 {
            match self.echoer.pump(now) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => panic!("echo framing broke: {e}"),
            }
        }
        if self.echoer.transport_error().is_some() {
            return Step::Done; // measurer hung up: the normal end
        }
        self.backlog =
            self.echoer.pending_echo() > 0 || self.echoer.transport_mut().pending_send_bytes() > 0;
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
}

fn echo_accept_factory(key: u64) -> Arc<AcceptFn> {
    Arc::new(move |stream: TcpStream, _peer: SocketAddr| {
        let transport = TcpTransport::from_stream(stream).ok()?;
        Some(Box::new(EchoConn {
            fd: transport.raw_fd(),
            echoer: Echoer::new(transport).with_key(key),
            t0: Instant::now(),
            backlog: false,
        }) as Box<dyn Driven>)
    })
}

/// One verified-echo round against the reactor at `addr`: blast
/// `REACTOR_STREAM` bytes down one channel, verify every echoed byte,
/// and return the wall seconds for the full round trip.
fn reactor_round(addr: SocketAddr, key: u64, nonce: u64) -> f64 {
    let t = TcpTransport::connect(addr).expect("dial reactor");
    let mut src = TrafficSource::new(t, nonce, 0).with_key(key);
    let mut back = BlastParser::new().with_key(key);
    let mut verified = 0u64;
    let t0 = Instant::now();
    src.greet(SimTime::ZERO);
    src.start(SimTime::ZERO);
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut stopped = false;
    loop {
        let now = SimTime::from_secs_f64(t0.elapsed().as_secs_f64());
        let mut idle = true;
        if !stopped {
            if src.sent_total() >= REACTOR_STREAM {
                src.stop(now);
                stopped = true;
            } else if src.pump(now) {
                idle = false;
            }
        }
        if let Ok(bytes) = src.transport_mut().recv(now) {
            if !bytes.is_empty() {
                idle = false;
                for ev in back.push(&bytes).expect("echo framing intact") {
                    if let BlastEvent::Data { bytes, corrupt } = ev {
                        assert_eq!(corrupt, 0, "echo must verify");
                        verified += bytes;
                    }
                }
            }
        }
        if stopped && verified >= src.sent_total() {
            break;
        }
        assert!(Instant::now() < deadline, "echo never drained: {verified}");
        if idle {
            thread::sleep(Duration::from_micros(100));
        }
    }
    assert_eq!(verified, src.sent_total(), "bytes lost in the echo round trip");
    t0.elapsed().as_secs_f64()
}

/// Times the reactor-served verified-echo round trip bare
/// (`Reactor::serve`) vs fully instrumented (`serve_observed` with
/// per-shard histograms, gauges, and the stall watchdog) in
/// [`REACTOR_PAIRS`] back-to-back pairs, asserts the same overhead
/// bound on the median paired ratio, and returns the `reactor` block of
/// `BENCH_obs.json` (`bare_secs`/`observed_secs` are per-variant
/// medians, `rounds` the number of pairs).
fn reactor_overhead_guard() -> Json {
    let key = secret_channel_key(SECRET);
    let nonce = binding_nonce(SECRET);

    let start = |obs: Option<ReactorObs>| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("addr");
        let reactor = Reactor::serve_observed(
            Some(listener),
            ReactorConfig { shards: REACTOR_SHARDS, tick: Duration::from_millis(1) },
            echo_accept_factory(key),
            obs,
        )
        .expect("start reactor");
        (reactor, addr)
    };
    let registry = MetricsRegistry::new();
    let (bare_reactor, bare_addr) = start(None);
    let (observed_reactor, observed_addr) = start(Some(ReactorObs {
        registry: registry.clone(),
        prefix: "bench.reactor".to_string(),
        span: Span::root(EventSink::new()),
        stall_budget: Duration::from_millis(50),
    }));

    let (mut bare_secs, mut observed_secs, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..REACTOR_PAIRS {
        let (bare, observed) = if pair % 2 == 0 {
            let bare = reactor_round(bare_addr, key, nonce);
            (bare, reactor_round(observed_addr, key, nonce))
        } else {
            let observed = reactor_round(observed_addr, key, nonce);
            (reactor_round(bare_addr, key, nonce), observed)
        };
        bare_secs.push(bare);
        observed_secs.push(observed);
        ratios.push(observed / bare);
    }
    let bare = median(&bare_secs).expect("rounds ran");
    let observed = median(&observed_secs).expect("rounds ran");
    let ratio = median(&ratios).expect("rounds ran");
    bare_reactor.stop();
    bare_reactor.join().expect("bare reactor shards");
    observed_reactor.stop();
    observed_reactor.join().expect("observed reactor shards");

    // The instrumented variant must actually have been measuring.
    let snap = registry.snapshot();
    let dwell_turns: u64 = snap
        .histograms
        .iter()
        .filter(|(name, _)| name.ends_with(".epoll_dwell_us"))
        .map(|(_, h)| h.count)
        .sum();
    assert!(dwell_turns > 0, "observed reactor rounds must feed the histograms");

    let bytes = REACTOR_STREAM as f64;
    let overhead_pct = ((ratio - 1.0) * 100.0).max(0.0);
    println!(
        "reactor overhead: bare {:.1} MB/s, observed {:.1} MB/s (medians of {REACTOR_PAIRS}), \
         median paired overhead {overhead_pct:.2}%",
        bytes / bare / 1e6,
        bytes / observed / 1e6,
    );
    assert!(
        overhead_pct < OVERHEAD_LIMIT_PCT,
        "observed reactor echo is {overhead_pct:.2}% slower than bare \
         (limit {OVERHEAD_LIMIT_PCT}%)"
    );

    Json::Obj(vec![
        ("stream_bytes".to_string(), Json::Int(REACTOR_STREAM as i128)),
        ("rounds".to_string(), Json::Int(REACTOR_PAIRS as i128)),
        ("shards".to_string(), Json::Int(REACTOR_SHARDS as i128)),
        ("bare_secs".to_string(), Json::Num(bare)),
        ("observed_secs".to_string(), Json::Num(observed)),
        ("bare_bytes_per_sec".to_string(), Json::Num(bytes / bare)),
        ("observed_bytes_per_sec".to_string(), Json::Num(bytes / observed)),
        ("overhead_pct".to_string(), Json::Num(overhead_pct)),
    ])
}
