//! The layer ladder: every stage the end-to-end figures pass through,
//! timed in this process by calling the layer's public functions — the
//! keystream fill at the bottom, the sharded event loop echoing over
//! loopback at the top, then the control-plane, persistence, planning,
//! crypto and telemetry layers beside it.
//!
//! Each rung is repeated [`LadderSize::repeats`] times and its median
//! reported. Stream rungs move a fixed [`LadderSize::stream_bytes`] of
//! 16 KiB frames per repeat; operation rungs run for
//! [`LadderSize::op_secs`] per repeat. Every rung runs on this one
//! thread, except the socket rungs, which add the serving side (one
//! echo thread, or the event loop's shards) — on a two-core machine
//! that is one busy thread per core, like the real path.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flashflow_coord::journal::{self, Record};
use flashflow_coord::roster::{self, RosterSource};
use flashflow_coord::scheduler::{plan_rounds, PlanConfig};
use flashflow_core::pool::{ChannelKind, ConnectionPool};
use flashflow_obs::{fields, Counter, EventSink, Span};
use flashflow_procutil::reactor::{AcceptFn, Driven, Reactor, ReactorConfig, Step};
use flashflow_proto::blast::{
    binding_nonce, frame_tag, secret_channel_key, BlastParser, BlastPattern, DataChannelHello,
    Echoer, TrafficSource, BLAST_CHUNK, HELLO_LEN,
};
use flashflow_proto::endpoint::Endpoint;
use flashflow_proto::frame::{self, FrameDecoder};
use flashflow_proto::msg::{MeasureSpec, Msg, PeerRole, AUTH_TOKEN_LEN};
use flashflow_proto::session::{CoordinatorSession, MeasurerSession, SessionTimeouts};
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::{Duplex, Transport};
use flashflow_simnet::time::SimTime;
use flashflow_simnet::units::Rate;
use flashflow_tornet::cell::{Cell, CircId, Command, PAYLOAD_LEN};
use flashflow_tornet::consensus::DirAuths;
use flashflow_tornet::crypto::{RelayLayer, SharedKey};
use flashflow_tornet::netbuild::TorNet;
use flashflow_tornet::relay::RelayConfig;

use crate::spans::SpanLog;
use crate::spec::{LadderSize, LADDER};
use crate::stats;

const SECRET: u64 = 0x1ADD_E400_BE4C;
/// Socket rungs write in pieces of this size.
const IO_CHUNK: usize = 64 * 1024;
/// A generator stops feeding a lane whose outbox holds this much, so
/// the loop is closed by the echo coming back, as in the measurer.
const OUTBOX_HIGH_WATER: usize = 1 << 20;
/// What a fan-out read looks like: one TCP segment's payload.
const MSS: usize = 1448;
/// A socket rung that moves nothing for this long has wedged.
const STALL: Duration = Duration::from_secs(30);
/// Most connections a dial-rate rung opens per repeat: each leaves a
/// TIME_WAIT entry behind, and the ephemeral port range is finite.
const MAX_DIALS: usize = 2000;

/// One measured rung.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// The metric name (one of [`LADDER`]).
    pub name: &'static str,
    /// Median over the repeats.
    pub value: f64,
    /// For throughput rungs: `value` over the throughput rung below.
    pub ratio_to_below: Option<f64>,
}

/// Runs every rung and returns them in [`LADDER`] order. `dir` holds
/// the files the persistence rungs write.
///
/// # Errors
/// A rung failed outright (socket error, integrity check, stall).
pub fn run(size: &LadderSize, dir: &Path, spans: &mut SpanLog) -> Result<Vec<Rung>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let all = spans.begin("ladder");
    let stream = capture_stream(size.stream_bytes);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut rung = |name: &'static str, f: &mut dyn FnMut() -> Result<f64, String>| {
        let span = spans.begin(&format!("ladder.{name}"));
        let mut reps = Vec::with_capacity(size.repeats);
        for _ in 0..size.repeats.max(1) {
            reps.push(f()?);
        }
        spans.end(span);
        values.insert(name, stats::median(&reps).expect("at least one repeat"));
        Ok::<(), String>(())
    };

    // --- proto.blast: per-byte work --------------------------------
    rung("proto.blast.fill_MBps", &mut || Ok(fill_rate(size.stream_bytes)))?;
    rung("proto.blast.tag_ns_per_frame", &mut || Ok(tag_ns(size.op_secs)))?;
    rung("proto.blast.parser_MBps", &mut || parse_rate(&stream, IO_CHUNK))?;
    rung("proto.blast.parser_mss_MBps", &mut || parse_rate(&stream, MSS))?;
    rung("proto.blast.source_MBps", &mut || Ok(source_rate(size.stream_bytes)))?;
    rung("proto.blast.echoer_MBps", &mut || echoer_rate(&stream))?;
    // --- proto.tcp: the machine's ceiling and the wrapper's cost ---
    rung("proto.tcp.raw_loopback_MBps", &mut || raw_loopback_rate(size.stream_bytes))?;
    rung("proto.tcp.transport_MBps", &mut || transport_rate(size.stream_bytes))?;
    // --- procutil.reactor: the event loop under verified echo ------
    let bytes = size.stream_bytes as u64;
    rung("procutil.reactor.shard1_MBps", &mut || reactor_echo_rate(1, 4, bytes))?;
    rung("procutil.reactor.shard1_fanout_MBps", &mut || reactor_echo_rate(1, 160, bytes))?;
    rung("procutil.reactor.shard2_MBps", &mut || reactor_echo_rate(2, 4, bytes))?;
    rung("procutil.reactor.accept_conns_per_s", &mut || accept_rate(size.op_secs))?;
    // --- proto.frame / proto.session: the control conversation -----
    rung("proto.frame.codec_msgs_per_s", &mut || codec_rate(size.op_secs))?;
    rung("proto.session.conversation_us", &mut || Ok(conversation_us(size.op_secs)))?;

    // --- procutil.persist / coord.journal: what a period fsyncs ----
    let persist = spans.begin("ladder.persist");
    let io = |e: std::io::Error| format!("persist rung: {e}");
    let line = Record::RoundDone { round: 7, items: 8, ts: 1.5 }.to_json_line();
    let appends = timed_ops(size.appends, || {
        flashflow_procutil::append_line(&dir.join("append.jsonl"), &line)
    })
    .map_err(io)?;
    values.insert("procutil.persist.append_line_us_p50", pct(&appends, 0.5));
    values.insert("procutil.persist.append_line_us_p99", pct(&appends, 0.99));
    let doc = vec![b'x'; 4096];
    let writes = timed_ops((size.appends / 4).max(5), || {
        flashflow_procutil::atomic_write(&dir.join("doc.json"), &doc)
    })
    .map_err(io)?;
    values.insert("procutil.persist.atomic_write_us_p50", pct(&writes, 0.5));
    let done = item_done(3);
    let journaled = timed_ops(size.appends, || journal::append(&dir.join("journal.jsonl"), &done))
        .map_err(io)?;
    values.insert("coord.journal.append_us_p50", pct(&journaled, 0.5));
    values.insert("coord.journal.recover_ms_1000", recover_ms(dir, size.repeats).map_err(io)?);
    spans.end(persist);

    // --- coord.scheduler / coord.roster / tornet.consensus ---------
    let plan = spans.begin("ladder.plan");
    values.insert("coord.scheduler.plan_rounds_us_1000", plan_us(1000, size.repeats));
    values.insert("coord.scheduler.plan_rounds_us_6500", plan_us(6500, size.repeats));
    values.insert(
        "coord.roster.build_ms_1000",
        median_of(size.repeats, || {
            let t0 = Instant::now();
            black_box(roster::build(RosterSource::Synth, black_box(11), Some(1000)));
            t0.elapsed().as_secs_f64() * 1e3
        }),
    );
    values.insert("tornet.consensus.vote_ms_1000", vote_ms(1000, size.repeats));
    spans.end(plan);

    // --- core.pool --------------------------------------------------
    let pool = spans.begin("ladder.core.pool");
    let (cold, warm) = pool_checkout_us(size.op_secs)?;
    values.insert("core.pool.checkout_cold_us", cold);
    values.insert("core.pool.checkout_warm_us", warm);
    spans.end(pool);

    // --- tornet.crypto / tornet.cell: the onion-echo baseline -------
    let onion = spans.begin("ladder.tornet");
    values.insert(
        "tornet.crypto.relay_layer_MBps",
        median_of(size.repeats, || relay_layer_rate(size.stream_bytes)),
    );
    values.insert(
        "tornet.cell.codec_cells_per_s",
        median_of(size.repeats, || cell_codec_rate(size.op_secs)),
    );
    spans.end(onion);

    // --- obs: what telemetry costs ----------------------------------
    let obs = spans.begin("ladder.obs");
    values.insert("obs.counter_add_ns", median_of(size.repeats, || counter_add_ns(size.op_secs)));
    values.insert("obs.event_emit_us", event_emit_us(dir, size.appends.max(100)).map_err(io)?);
    spans.end(obs);
    spans.end(all);

    let mut below: Option<f64> = None;
    let mut out = Vec::with_capacity(LADDER.len());
    for metric in LADDER {
        let value = *values.get(metric.name).ok_or(format!("rung {} not run", metric.name))?;
        let throughput = metric.name.ends_with("_MBps") && !metric.name.starts_with("tornet.");
        let ratio_to_below = if throughput { below.map(|b| value / b) } else { None };
        if throughput {
            below = Some(value);
        }
        out.push(Rung { name: metric.name, value, ratio_to_below });
    }
    Ok(out)
}

fn mbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e6
}

fn pct(values: &[f64], p: f64) -> f64 {
    stats::quantile(values, p).unwrap_or(0.0)
}

fn median_of(repeats: usize, mut f: impl FnMut() -> f64) -> f64 {
    let reps: Vec<f64> = (0..repeats.max(1)).map(|_| f()).collect();
    stats::median(&reps).expect("at least one repeat")
}

/// Runs `op` for `secs` and returns operations per second.
fn ops_per_sec(secs: f64, mut op: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut n = 0u64;
    loop {
        // Check the clock once per batch so it does not dominate
        // nanosecond-scale operations.
        for _ in 0..64 {
            op();
        }
        n += 64;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= secs {
            return n as f64 / elapsed;
        }
    }
}

/// Times `n` calls of a fallible operation; microseconds each.
fn timed_ops(n: usize, mut op: impl FnMut() -> std::io::Result<()>) -> std::io::Result<Vec<f64>> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        op()?;
        out.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(out)
}

// ---------------------------------------------------------------- blast

/// A keyed blast stream of `bytes` payload bytes: hello, then 16 KiB
/// frames — captured once, off the clock.
fn capture_stream(bytes: usize) -> Vec<u8> {
    let (a, mut b) = Duplex::loopback().into_endpoints();
    let mut src =
        TrafficSource::new(a, binding_nonce(SECRET), 0).with_key(secret_channel_key(SECRET));
    src.greet(SimTime::ZERO);
    src.start(SimTime::ZERO);
    let mut stream = Vec::with_capacity(bytes + bytes / 512 + IO_CHUNK);
    while (src.sent_total() as usize) < bytes {
        src.pump(SimTime::ZERO);
        stream.extend(b.recv(SimTime::ZERO).expect("in-memory recv"));
    }
    stream
}

fn fill_rate(bytes: usize) -> f64 {
    let pattern = BlastPattern::new(binding_nonce(SECRET));
    let mut buf = vec![0u8; BLAST_CHUNK];
    let frames = bytes.div_ceil(BLAST_CHUNK);
    let t0 = Instant::now();
    for seq in 0..frames as u64 {
        pattern.fill(black_box(seq), &mut buf);
        black_box(&buf);
    }
    mbps(frames * BLAST_CHUNK, t0.elapsed().as_secs_f64())
}

fn tag_ns(secs: f64) -> f64 {
    let key = secret_channel_key(SECRET);
    let nonce = binding_nonce(SECRET);
    let mut seq = 0u64;
    let rate = ops_per_sec(secs, || {
        seq += 1;
        black_box(frame_tag(black_box(key), nonce, seq, BLAST_CHUNK as u32));
    });
    1e9 / rate
}

fn parse_rate(stream: &[u8], chunk: usize) -> Result<f64, String> {
    let mut parser = BlastParser::new().with_key(secret_channel_key(SECRET));
    let t0 = Instant::now();
    for piece in stream.chunks(chunk) {
        parser.push(piece).map_err(|e| format!("captured stream broke framing: {e}"))?;
    }
    let secs = t0.elapsed().as_secs_f64();
    if parser.corrupt_total() + parser.forged_total() + parser.replayed_total() > 0 {
        return Err("captured stream did not verify".to_string());
    }
    Ok(mbps(parser.received_total() as usize, secs))
}

fn source_rate(bytes: usize) -> f64 {
    let (a, mut b) = Duplex::loopback().into_endpoints();
    let mut src =
        TrafficSource::new(a, binding_nonce(SECRET), 0).with_key(secret_channel_key(SECRET));
    src.greet(SimTime::ZERO);
    src.start(SimTime::ZERO);
    let mut sink = Vec::new();
    let t0 = Instant::now();
    while (src.sent_total() as usize) < bytes {
        src.pump(SimTime::ZERO);
        let _ = b.recv_into(SimTime::ZERO, &mut sink);
    }
    mbps(src.sent_total() as usize, t0.elapsed().as_secs_f64())
}

fn echoer_rate(stream: &[u8]) -> Result<f64, String> {
    let (mut a, b) = Duplex::loopback().into_endpoints();
    let mut echoer = Echoer::new(b).with_key(secret_channel_key(SECRET));
    let mut sink = Vec::new();
    let t0 = Instant::now();
    for piece in stream.chunks(IO_CHUNK) {
        a.send(SimTime::ZERO, piece).map_err(|e| format!("duplex send: {e}"))?;
        echoer.pump(SimTime::ZERO).map_err(|e| format!("echo framing: {e}"))?;
        let _ = a.recv_into(SimTime::ZERO, &mut sink);
    }
    while echoer.pending_echo() > 0 {
        echoer.pump(SimTime::ZERO).map_err(|e| format!("echo framing: {e}"))?;
        let _ = a.recv_into(SimTime::ZERO, &mut sink);
    }
    let secs = t0.elapsed().as_secs_f64();
    if echoer.echoed_total() != echoer.received_total() || echoer.corrupt_total() > 0 {
        return Err("echoer did not echo everything it verified".to_string());
    }
    Ok(mbps(echoer.echoed_total() as usize, secs))
}

// ------------------------------------------------------------------ tcp

fn loopback_listener() -> Result<(TcpListener, SocketAddr), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("loopback address: {e}"))?;
    Ok((listener, addr))
}

/// `bytes` out and back through a blocking std echo thread, this side
/// non-blocking on one thread: no protocol, the machine's baseline.
fn raw_loopback_rate(bytes: usize) -> Result<f64, String> {
    let (listener, addr) = loopback_listener()?;
    let server = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        let mut buf = vec![0u8; IO_CHUNK];
        loop {
            match stream.read(&mut buf)? {
                0 => return Ok(()),
                n => stream.write_all(&buf[..n])?,
            }
        }
    });
    let io = |e: std::io::Error| format!("raw loopback: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream.set_nonblocking(true).map_err(io)?;
    let out = vec![0xA5u8; IO_CHUNK];
    let mut inb = vec![0u8; IO_CHUNK];
    let (mut sent, mut back) = (0usize, 0usize);
    let mut last_progress = Instant::now();
    let t0 = Instant::now();
    while back < bytes {
        let mut moved = false;
        // Keep at most a window in flight so the echo's return path
        // never fills while this side is busy writing.
        while sent < bytes && sent - back < OUTBOX_HIGH_WATER {
            match stream.write(&out[..IO_CHUNK.min(bytes - sent)]) {
                Ok(n) => {
                    sent += n;
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(io(e)),
            }
        }
        loop {
            match stream.read(&mut inb) {
                Ok(0) => return Err("raw loopback: echo hung up".to_string()),
                Ok(n) => {
                    back += n;
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(io(e)),
            }
        }
        if moved {
            last_progress = Instant::now();
        } else if last_progress.elapsed() > STALL {
            return Err(format!("raw loopback stalled at {back}/{bytes}"));
        } else {
            std::thread::yield_now();
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    drop(stream);
    server.join().map_err(|_| "raw echo thread panicked")?.map_err(io)?;
    Ok(mbps(bytes, secs))
}

/// The same round trip through `TcpTransport` on both sides, still no
/// verification: what the transport abstraction costs.
fn transport_rate(bytes: usize) -> Result<f64, String> {
    let (listener, addr) = loopback_listener()?;
    let server = std::thread::spawn(move || -> Result<(), String> {
        let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
        let mut t = TcpTransport::from_stream(stream).map_err(|e| format!("wrap: {e}"))?;
        let mut buf = Vec::new();
        loop {
            if t.backlog() >= OUTBOX_HIGH_WATER {
                let _ = t.send(SimTime::ZERO, &[]);
                std::thread::yield_now();
                continue;
            }
            match t.recv_into(SimTime::ZERO, &mut buf) {
                Ok(0) => std::thread::yield_now(),
                Ok(_) => t.send(SimTime::ZERO, &buf).map_err(|e| format!("echo send: {e}"))?,
                Err(_) => return Ok(()), // the client hung up: done
            }
        }
    });
    let mut t = TcpTransport::connect(addr).map_err(|e| format!("dial: {e}"))?;
    let out = vec![0x5Au8; IO_CHUNK];
    let mut inb = Vec::new();
    let (mut sent, mut back) = (0usize, 0usize);
    let mut last_progress = Instant::now();
    let t0 = Instant::now();
    while back < bytes {
        let mut moved = false;
        if sent < bytes && t.backlog() < OUTBOX_HIGH_WATER && sent - back < 4 * OUTBOX_HIGH_WATER {
            let n = IO_CHUNK.min(bytes - sent);
            t.send(SimTime::ZERO, &out[..n]).map_err(|e| format!("send: {e}"))?;
            sent += n;
            moved = true;
        }
        let got = t.recv_into(SimTime::ZERO, &mut inb).map_err(|e| format!("recv: {e}"))?;
        back += got;
        if moved || got > 0 {
            last_progress = Instant::now();
        } else if last_progress.elapsed() > STALL {
            return Err(format!("transport echo stalled at {back}/{bytes}"));
        } else {
            std::thread::yield_now();
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    t.close();
    drop(t);
    server.join().map_err(|_| "transport echo thread panicked")??;
    Ok(mbps(bytes, secs))
}

// -------------------------------------------------------------- reactor

/// The relay data plane's hot loop with none of the session machinery:
/// verify inbound frames, echo what verified.
struct EchoConn {
    fd: i32,
    echoer: Echoer<TcpTransport>,
    backlog: bool,
}

impl EchoConn {
    fn step(&mut self) -> Step {
        for _ in 0..4 {
            match self.echoer.pump(SimTime::ZERO) {
                Ok(true) => {}
                Ok(false) => break,
                Err(_) => return Step::Done,
            }
        }
        if self.echoer.transport_error().is_some() {
            return Step::Done; // the generator hung up: the normal end
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
            self.step()
        } else {
            Step::Continue
        }
    }
    fn wants_write(&self) -> bool {
        self.backlog
    }
}

fn serve(shards: usize, factory: Arc<AcceptFn>) -> Result<(Reactor, SocketAddr), String> {
    let (listener, addr) = loopback_listener()?;
    let reactor = Reactor::serve(
        Some(listener),
        ReactorConfig { shards, tick: Duration::from_millis(1) },
        factory,
    )
    .map_err(|e| format!("start reactor: {e}"))?;
    Ok((reactor, addr))
}

/// `conns` uncapped verified-echo connections against a `shards`-shard
/// reactor, generated and verified from this one thread; `total` bytes
/// split evenly across the connections.
fn reactor_echo_rate(shards: usize, conns: usize, total: u64) -> Result<f64, String> {
    let key = secret_channel_key(SECRET);
    let nonce = binding_nonce(SECRET);
    let factory: Arc<AcceptFn> = Arc::new(move |stream: TcpStream, _peer: SocketAddr| {
        let transport = TcpTransport::from_stream(stream).ok()?;
        Some(Box::new(EchoConn {
            fd: transport.raw_fd(),
            echoer: Echoer::new(transport).with_key(key),
            backlog: false,
        }) as Box<dyn Driven>)
    });
    let (reactor, addr) = serve(shards, factory)?;

    struct Lane {
        source: TrafficSource<TcpTransport>,
        back: BlastParser,
    }
    let share = total.div_ceil(conns as u64);
    let mut lanes = Vec::with_capacity(conns);
    for chan in 0..conns {
        let t = TcpTransport::connect(addr).map_err(|e| format!("dial reactor: {e}"))?;
        let mut source = TrafficSource::new(t, nonce, chan as u32).with_key(key);
        source.greet(SimTime::ZERO);
        source.start(SimTime::ZERO);
        lanes.push(Lane { source, back: BlastParser::new().with_key(key) });
    }
    let mut rx = Vec::new();
    let mut last_progress = Instant::now();
    let t0 = Instant::now();
    loop {
        let mut moved = false;
        let mut outstanding = false;
        for lane in &mut lanes {
            let sent = lane.source.sent_total();
            if sent < share {
                if lane.source.transport_mut().pending_send_bytes() < OUTBOX_HIGH_WATER {
                    lane.source.pump(SimTime::ZERO);
                    moved = true;
                } else {
                    let _ = lane.source.transport_mut().send(SimTime::ZERO, &[]);
                }
            }
            let got = lane
                .source
                .transport_mut()
                .recv_into(SimTime::ZERO, &mut rx)
                .map_err(|e| format!("echo channel closed early: {e}"))?;
            if got > 0 {
                lane.back.push(&rx).map_err(|e| format!("echo framing: {e}"))?;
                moved = true;
            }
            outstanding |= lane.source.sent_total() < share
                || lane.back.received_total() < lane.source.sent_total();
        }
        if !outstanding {
            break;
        }
        if moved {
            last_progress = Instant::now();
        } else if last_progress.elapsed() > STALL {
            return Err(format!("reactor echo stalled ({shards} shards, {conns} conns)"));
        } else {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let verified: u64 =
        lanes.iter().map(|l| l.back.received_total() - l.back.corrupt_total()).sum();
    let sent: u64 = lanes.iter().map(|l| l.source.sent_total()).sum();
    drop(lanes);
    reactor.stop();
    reactor.join()?;
    if verified != sent {
        return Err(format!("reactor echo lost bytes: sent {sent}, verified {verified}"));
    }
    Ok(mbps(verified as usize, secs))
}

/// Reads a hello, then hangs up: the cost of admitting a connection.
struct HelloConn {
    transport: TcpTransport,
    got: usize,
    buf: Vec<u8>,
}

impl Driven for HelloConn {
    fn fd(&self) -> i32 {
        self.transport.raw_fd()
    }
    fn on_ready(&mut self) -> Step {
        match self.transport.recv_into(SimTime::ZERO, &mut self.buf) {
            Ok(n) => self.got += n,
            Err(_) => return Step::Done,
        }
        if self.got >= HELLO_LEN {
            Step::Done
        } else {
            Step::Continue
        }
    }
    fn on_tick(&mut self) -> Step {
        Step::Continue
    }
}

/// Sequential connect → hello → wait for the hang-up, per second.
fn accept_rate(secs: f64) -> Result<f64, String> {
    let factory: Arc<AcceptFn> = Arc::new(|stream: TcpStream, _peer: SocketAddr| {
        let transport = TcpTransport::from_stream(stream).ok()?;
        Some(Box::new(HelloConn { transport, got: 0, buf: Vec::new() }) as Box<dyn Driven>)
    });
    let (reactor, addr) = serve(1, factory)?;
    let hello = DataChannelHello { nonce: binding_nonce(SECRET), channel: 0 }.encode();
    let io = |e: std::io::Error| format!("accept rung: {e}");
    let t0 = Instant::now();
    let mut conns = 0usize;
    while t0.elapsed().as_secs_f64() < secs && conns < MAX_DIALS {
        let mut stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_read_timeout(Some(STALL)).map_err(io)?;
        stream.write_all(&hello).map_err(io)?;
        let mut end = [0u8; 1];
        if stream.read(&mut end).map_err(io)? != 0 {
            return Err("accept rung: expected a hang-up after the hello".to_string());
        }
        conns += 1;
    }
    let rate = conns as f64 / t0.elapsed().as_secs_f64();
    reactor.stop();
    reactor.join()?;
    Ok(rate)
}

// -------------------------------------------------------- control plane

fn codec_rate(secs: f64) -> Result<f64, String> {
    let mut decoder = FrameDecoder::new();
    let mut second = 0u32;
    let mut bad = false;
    let rate = ops_per_sec(secs, || {
        second = second.wrapping_add(1);
        let msg = Msg::SecondReport { second, bg_bytes: 20_000, measured_bytes: 40_000_000 };
        decoder.push(&frame::encode(black_box(&msg)));
        bad |= !matches!(decoder.next_msg(), Ok(Some(Msg::SecondReport { .. })));
    });
    if bad {
        return Err("SecondReport did not round-trip".to_string());
    }
    Ok(rate)
}

/// One whole conversation — Auth, AuthOk, MeasureCmd, Ready, Go, a
/// one-second slot's report, SlotDone — between sans-IO sessions over
/// an in-memory duplex; wall microseconds of the stepping.
fn conversation_us(secs: f64) -> f64 {
    let token = [0x5A; AUTH_TOKEN_LEN];
    let timeouts = SessionTimeouts::default();
    let spec =
        MeasureSpec { slot_secs: 1, sockets: 2, rate_cap: 100_000, ..MeasureSpec::default() };
    let now = SimTime::ZERO;
    let mut nonce = 0u64;
    let rate = ops_per_sec(secs, || {
        nonce += 1;
        let (ca, cb) = Duplex::loopback().into_endpoints();
        let mut coord = Endpoint::new(
            CoordinatorSession::new(token, PeerRole::Measurer, spec, nonce, timeouts),
            ca,
        );
        let mut peer =
            Endpoint::new(MeasurerSession::new(token, PeerRole::Measurer, nonce, timeouts), cb);
        coord.session_mut().start(now);
        while coord.pump(now) | peer.pump(now) {}
        coord.session_mut().go(now);
        while coord.pump(now) | peer.pump(now) {}
        peer.session_mut().report_second(0, 100_000);
        while coord.pump(now) | peer.pump(now) {}
        assert!(coord.is_terminal(), "conversation must run to SlotDone");
    });
    1e6 / rate
}

// ---------------------------------------------------------- persistence

fn item_done(ix: u64) -> Record {
    Record::ItemDone {
        ix,
        fp: format!("{ix:040x}"),
        capacity: 393_211_891.0,
        clean: true,
        divergent: 0,
        ts: 1_790_552_119.64,
    }
}

/// `journal::recover` over a sealed 1000-item journal: what a restart
/// pays before it can command anything.
fn recover_ms(dir: &Path, repeats: usize) -> std::io::Result<f64> {
    let mut text = Record::PeriodStart {
        period: 1,
        roster: 1000,
        seed: 1,
        source: "synth".to_string(),
        ts: 1.0,
    }
    .to_json_line();
    text.push('\n');
    for ix in 0..1000u64 {
        let start = Record::ItemStart {
            ix,
            fp: format!("{ix:040x}"),
            secret: ix * 31,
            attempt: 0,
            ts: 2.0,
        };
        for record in [start, item_done(ix)] {
            text.push_str(&record.to_json_line());
            text.push('\n');
        }
        if ix % 8 == 7 {
            text.push_str(&Record::RoundDone { round: ix / 8, items: 8, ts: 3.0 }.to_json_line());
            text.push('\n');
        }
    }
    text.push_str(&Record::PeriodDone { period: 1, entries: 1000, ts: 4.0 }.to_json_line());
    text.push('\n');
    let path = dir.join("sealed.jsonl");
    std::fs::write(&path, text)?;
    let mut reps = Vec::new();
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        let state = journal::recover(&path)?;
        reps.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(state.period_done && state.done.len() == 1000, "sealed journal must replay whole");
    }
    Ok(stats::median(&reps).expect("at least one repeat"))
}

// ------------------------------------------------------------- planning

fn plan_us(relays: usize, repeats: usize) -> f64 {
    let roster = roster::synth_roster(11, relays);
    let cfg = PlanConfig { team_capacity: 1e8, per_item_blast: 2e5, round_max: 8 };
    median_of(repeats.max(3), || {
        let t0 = Instant::now();
        black_box(plan_rounds(black_box(&roster.entries), &cfg));
        t0.elapsed().as_secs_f64() * 1e6
    })
}

fn vote_ms(relays: usize, repeats: usize) -> f64 {
    // RelayIds can only be minted by a TorNet, as in the daemon.
    let mut tor = TorNet::new();
    let host =
        tor.add_host(flashflow_simnet::host::HostProfile::new("ladder", Rate::from_gbit(1.0)));
    let mut weights = BTreeMap::new();
    let mut advertised = BTreeMap::new();
    for ix in 0..relays {
        let id = tor.add_relay(host, RelayConfig::new(format!("r{ix}")));
        weights.insert(id, 1e6 + ix as f64);
        advertised.insert(id, Rate::from_bytes_per_sec(1e6));
    }
    let votes = vec![weights; 3];
    median_of(repeats.max(3), || {
        let t0 = Instant::now();
        black_box(DirAuths::new(3).vote(SimTime::ZERO, black_box(&votes), &advertised));
        t0.elapsed().as_secs_f64() * 1e3
    })
}

// ----------------------------------------------------------------- pool

/// `(cold, warm)` checkout microseconds against a loopback listener
/// that accepts and holds: a dial, and the reuse of a parked connection.
fn pool_checkout_us(secs: f64) -> Result<(f64, f64), String> {
    let (listener, addr) = loopback_listener()?;
    listener.set_nonblocking(true).map_err(|e| format!("pool listener: {e}"))?;
    let stop = Arc::new(AtomicBool::new(false));
    let holder = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Only the newest connection is ever in use; holding a few
            // keeps it open without running out of descriptors.
            let mut held = VecDeque::new();
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        held.push_back(stream);
                        if held.len() > 4 {
                            held.pop_front();
                        }
                    }
                    Err(_) => std::thread::sleep(Duration::from_micros(100)),
                }
            }
        })
    };
    let pool = ConnectionPool::new();
    let dial = |e: std::io::Error| format!("pool checkout: {e}");
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while cold.len() < 5 || (t0.elapsed().as_secs_f64() < secs && cold.len() < MAX_DIALS) {
        let t = Instant::now();
        let conn = pool.checkout(addr, ChannelKind::Data).map_err(dial)?;
        cold.push(t.elapsed().as_secs_f64() * 1e6);
        conn.reuse_handle().approve();
        drop(conn); // parks
        let t = Instant::now();
        let conn = pool.checkout(addr, ChannelKind::Data).map_err(dial)?;
        warm.push(t.elapsed().as_secs_f64() * 1e6);
        drop(conn); // not approved: really closes
    }
    stop.store(true, Ordering::SeqCst);
    holder.join().map_err(|_| "pool holder thread panicked")?;
    if pool.reuses() != warm.len() as u64 || pool.dials() != cold.len() as u64 {
        return Err(format!(
            "pool did not reuse as expected ({} dials, {} reuses)",
            pool.dials(),
            pool.reuses()
        ));
    }
    Ok((pct(&cold, 0.5), pct(&warm, 0.5)))
}

// ---------------------------------------------------------------- onion

fn relay_layer_rate(bytes: usize) -> f64 {
    let mut layer = RelayLayer::new(SharedKey::from_raw(SECRET));
    let mut payload = [0x42u8; PAYLOAD_LEN];
    let cells = bytes.div_ceil(PAYLOAD_LEN);
    let t0 = Instant::now();
    for _ in 0..cells {
        layer.peel_outbound(black_box(&mut payload));
    }
    black_box(&payload);
    mbps(cells * PAYLOAD_LEN, t0.elapsed().as_secs_f64())
}

fn cell_codec_rate(secs: f64) -> f64 {
    let data = [0x17u8; PAYLOAD_LEN];
    let mut circ = 0u32;
    ops_per_sec(secs, || {
        circ = circ.wrapping_add(1);
        let wire = Cell::with_payload(CircId(circ), Command::Relay, black_box(&data)).encode();
        black_box(Cell::decode(&wire).expect("a cell we encoded decodes"));
    })
}

// ------------------------------------------------------------------ obs

fn counter_add_ns(secs: f64) -> f64 {
    let counter = Counter::new();
    let rate = ops_per_sec(secs, || black_box(&counter).add(black_box(16_384)));
    black_box(counter.get());
    1e9 / rate
}

/// Median microseconds of one structured event through a JSONL file
/// sink (what `--log-json` costs per event).
fn event_emit_us(dir: &Path, events: usize) -> std::io::Result<f64> {
    let file = flashflow_procutil::journal_writer(&dir.join("events.jsonl"))?;
    let span = Span::root(EventSink::new().with_jsonl(Box::new(file))).trace(SECRET).session(7);
    let mut second = 0u64;
    let samples = timed_ops(events, || {
        second += 1;
        span.emit("sample", fields![second = second, bg = 20_000u64, measured = 40_000_000u64]);
        Ok(())
    })?;
    Ok(pct(&samples, 0.5))
}
