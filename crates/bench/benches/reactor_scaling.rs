//! Echo throughput scaling across channel counts on a fixed reactor
//! budget: the tent-pole claim of the reactor I/O core.
//!
//! A 4-shard [`Reactor`] serves verifying [`Echoer`] connections (the
//! relay's data plane, minus session binding); the measurer side dials
//! N rate-capped [`TrafficSource`] channels, blasts keyed pattern
//! frames, and verifies the echo stream — every byte costs two keyed
//! verifications plus two loopback crossings, exactly the workload a
//! FlashFlow relay serves. With a per-channel rate cap, aggregate
//! verified-echo throughput should scale with the channel count: the
//! recorded acceptance is **512 channels ≥ 2× the 64-channel aggregate
//! on the same 4 reactor threads** (thread-per-connection designs die
//! on context-switch churn well before that; the reactor's slabs and
//! level-triggered shards do not).
//!
//! Results land in `BENCH_reactor.json` at the repo root so the perf
//! trajectory is machine-tracked.
//!
//! Plain `harness = false` timing (Criterion is unavailable offline):
//! run with `cargo bench -p flashflow-bench --bench reactor_scaling`.
//! CI runs `FF_BENCH_SMOKE=1`, which shrinks the channel counts and
//! wall budget to prove the harness itself (accept, verify, echo,
//! drain) without asserting the scaling ratio or touching the JSON.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flashflow_obs::Json;
use flashflow_procutil::reactor::{AcceptFn, Driven, Reactor, ReactorConfig, Step};
use flashflow_proto::blast::{
    binding_nonce, secret_channel_key, BlastParser, Echoer, TrafficSource,
};
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::Transport;
use flashflow_simnet::time::SimTime;

/// Reactor shard threads — fixed across every round; the scaling claim
/// is about channels per thread, not threads.
const SHARDS: usize = 4;
/// Per-channel blast rate cap (bytes/second). Chosen so the largest
/// round's aggregate stays within a single modest core's verify+fill
/// budget: the bench measures event-loop scaling, not peak crypto.
const RATE_CAP: u64 = 64 * 1024;
/// The acceptance bound: the large round's aggregate verified-echo
/// rate must be at least this multiple of the small round's.
const SCALING_FLOOR: f64 = 2.0;
const SECRET: u64 = 0x5CA1_AB1E;

/// One echoing reactor connection: the relay data plane's hot loop
/// (verify inbound, forward accepted frames back) with none of the session
/// machinery.
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
        self.backlog = self.echoer.pending_echo() > 0;
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

fn accept_factory(key: u64) -> Arc<AcceptFn> {
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

/// One measurer lane: a capped source and the verifying parser for the
/// relay's echo stream.
struct Lane {
    source: TrafficSource<TcpTransport>,
    echo: BlastParser,
}

/// Dials `channels` lanes, blasts for `wall`, verifies the echo, and
/// drains to integrity. Returns (sent bytes, verified echoed bytes,
/// blast-phase seconds).
fn run_round(addr: SocketAddr, channels: usize, wall: Duration) -> (u64, u64, f64) {
    let key = secret_channel_key(SECRET);
    let nonce = binding_nonce(SECRET);
    let mut lanes = Vec::with_capacity(channels);
    for chan in 0..channels {
        let t = TcpTransport::connect(addr).expect("dial reactor");
        #[allow(clippy::cast_possible_truncation)]
        let mut source = TrafficSource::new(t, nonce, chan as u32).with_key(key);
        source.set_rate_cap(RATE_CAP);
        source.greet(SimTime::ZERO);
        source.start(SimTime::ZERO);
        lanes.push(Lane { source, echo: BlastParser::new().with_key(key) });
    }
    let t0 = Instant::now();
    let mut rx = Vec::new();
    let mut spin = |lanes: &mut Vec<Lane>, pumping: bool| -> bool {
        let now = SimTime::from_secs_f64(t0.elapsed().as_secs_f64());
        let mut idle = true;
        for lane in lanes.iter_mut() {
            if pumping && lane.source.pump(now) {
                idle = false;
            }
            if let Ok(got) = lane.source.transport_mut().recv_into(now, &mut rx) {
                if got > 0 {
                    idle = false;
                    lane.echo.push(&rx).expect("echo framing intact");
                    assert_eq!(lane.echo.corrupt_total(), 0, "echo must verify");
                }
            }
        }
        idle
    };
    while t0.elapsed() < wall {
        if spin(&mut lanes, true) {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    let blast_secs = t0.elapsed().as_secs_f64();
    for lane in &mut lanes {
        lane.source.stop();
    }
    // Drain: everything sent must come back verified.
    let sent: u64 = lanes.iter().map(|l| l.source.sent_total()).sum();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let back: u64 = lanes.iter().map(|l| l.echo.received_total()).sum();
        if back >= sent {
            break;
        }
        assert!(Instant::now() < deadline, "echo never drained: {back}/{sent}");
        if spin(&mut lanes, false) {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let back: u64 = lanes.iter().map(|l| l.echo.received_total()).sum();
    assert_eq!(back, sent, "bytes lost in the echo round trip");
    (sent, back, blast_secs)
}

fn main() {
    let smoke = std::env::var_os("FF_BENCH_SMOKE").is_some();
    let (small, large, wall) = if smoke {
        (8usize, 32usize, Duration::from_millis(300))
    } else {
        (64, 512, Duration::from_secs(3))
    };

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    let key = secret_channel_key(SECRET);
    let reactor = Reactor::serve(
        Some(listener),
        ReactorConfig { shards: SHARDS, tick: Duration::from_millis(1) },
        accept_factory(key),
    )
    .expect("start reactor");

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "reactor_scaling: {SHARDS} shard threads, {RATE_CAP} B/s per channel, \
         {wall:?} per round, {cores} core(s) available{}",
        if smoke { " [smoke]" } else { "" }
    );
    println!("{:<10} {:>14} {:>14} {:>12}", "channels", "sent", "echoed back", "MB/s echoed");

    let mut rates = Vec::new();
    for channels in [small, large] {
        let (sent, back, secs) = run_round(addr, channels, wall);
        let rate = back as f64 / secs;
        rates.push((channels, sent, rate));
        println!("{:<10} {:>14} {:>14} {:>12.2}", channels, sent, back, rate / 1e6);
    }
    reactor.stop();
    reactor.join().expect("reactor shards");

    let (_, _, small_rate) = rates[0];
    let (_, _, large_rate) = rates[1];
    let ratio = large_rate / small_rate;
    println!(
        "scaling: {small} ch {:.2} MB/s -> {large} ch {:.2} MB/s, ratio {ratio:.2}x",
        small_rate / 1e6,
        large_rate / 1e6,
    );
    if smoke {
        // The smoke run proves the harness (accept, verify, echo,
        // drain), not the machine's scaling headroom.
        return;
    }

    let doc = Json::Obj(vec![
        ("schema".to_string(), Json::Int(1)),
        ("bench".to_string(), Json::Str("reactor_scaling/verified_echo".to_string())),
        ("shards".to_string(), Json::Int(SHARDS as i128)),
        ("rate_cap_bytes_per_sec".to_string(), Json::Int(RATE_CAP as i128)),
        ("small_channels".to_string(), Json::Int(small as i128)),
        ("small_bytes_per_sec".to_string(), Json::Num(small_rate)),
        ("large_channels".to_string(), Json::Int(large as i128)),
        ("large_bytes_per_sec".to_string(), Json::Num(large_rate)),
        ("scaling_ratio".to_string(), Json::Num(ratio)),
        ("floor_ratio".to_string(), Json::Num(SCALING_FLOOR)),
    ]);
    let mut out = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    out.pop();
    out.pop();
    out.push("BENCH_reactor.json");
    flashflow_procutil::atomic_write(&out, format!("{doc}\n").as_bytes())
        .expect("write BENCH_reactor.json");
    println!("wrote {}", out.display());

    assert!(
        ratio >= SCALING_FLOOR,
        "aggregate verified-echo rate scaled only {ratio:.2}x from {small} to {large} \
         channels (floor {SCALING_FLOOR}x)"
    );
}
