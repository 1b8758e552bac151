//! The reactor core's concurrency claim against the real binary: one
//! spawned `flashflow-relay` process serves **1000 concurrent data
//! channels** — every one bound, verified, and echoed — while its
//! thread count stays at the reactor's fixed budget (shards +
//! supervisor), not one-per-connection. `/proc/<pid>/status` is the
//! witness: a thread-per-connection relay would show ~1000 threads
//! here; the reactor shows a dozen.

use std::time::{Duration, Instant};

use flashflow_harness::{bin, thread_count, token, token_hex, Proc, RELAY};
use flashflow_proto::blast::{binding_nonce, secret_channel_key, BlastParser, TrafficSource};
use flashflow_proto::endpoint::Endpoint;
use flashflow_proto::msg::{MeasureSpec, PeerRole, TargetEndpoint, FINGERPRINT_LEN};
use flashflow_proto::session::{CoordPhase, CoordinatorSession, SessionTimeouts};
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::Transport;
use flashflow_simnet::time::SimTime;

const CHANNELS: usize = 1000;
/// Fixed epoll shard budget the relay serves all channels on.
const IO_THREADS: usize = 4;
/// Every thread the relay may legitimately run (shards, supervisor,
/// obs) fits far under this; one-per-connection would blow through it.
const THREAD_CEILING: u64 = 32;
const SECRET: u64 = 0x7E5_7000_1000;
/// Per-channel blast before stopping: enough to prove verified echo on
/// every channel without turning the test into a throughput bench.
const LANE_BYTES: u64 = 2048;
const SLOT_SECS: u32 = 2;

/// One blast channel: a capped keyed source and the verifying parser
/// for its echo stream.
struct Lane {
    source: TrafficSource<TcpTransport>,
    echo: BlastParser,
    stopped: bool,
}

#[test]
fn relay_serves_1000_channels_on_a_fixed_thread_budget() {
    let (hex, io_threads) = (token_hex(RELAY), IO_THREADS.to_string());
    let args = [
        "--listen",
        "127.0.0.1:0",
        "--token-hex",
        &hex,
        "--sessions",
        "1",
        "--io-threads",
        &io_threads,
    ];
    let mut relay = Proc::spawn("relay", &bin("flashflow-relay"), args);
    let addr = relay.advertised("listening");
    let pid = relay.pid();
    let key = secret_channel_key(SECRET);
    let nonce = binding_nonce(SECRET);

    // The control conversation that registers the measurement: once the
    // command is accepted (Armed), the echo plane knows the nonce and
    // every data dial below can bind.
    let spec = MeasureSpec {
        relay_fp: [0x77; FINGERPRINT_LEN],
        slot_secs: SLOT_SECS,
        sockets: 0,
        rate_cap: 0, // background allowance: none offered, none allowed
        target: TargetEndpoint::NONE,
        measurement_secret: SECRET,
        trace_id: 0,
    };
    let control = TcpTransport::connect(addr).expect("dial control");
    let session = CoordinatorSession::new(
        token(RELAY),
        PeerRole::Target,
        spec,
        0xD15C_0000_0001,
        SessionTimeouts::default(),
    );
    let mut coord = Endpoint::new(session, control);
    let t0 = Instant::now();
    coord.session_mut().start(SimTime::ZERO);
    let deadline = Instant::now() + Duration::from_secs(10);
    while coord.session().phase() != CoordPhase::Armed {
        assert!(Instant::now() < deadline, "relay never armed: {:?}", coord.session().phase());
        assert!(!coord.is_terminal(), "control session died: {:?}", coord.session().phase());
        coord.pump(SimTime::from_secs_f64(t0.elapsed().as_secs_f64()));
        std::thread::sleep(Duration::from_millis(1));
    }

    // All channels dialed and greeted before Go — the binding is
    // registered, so every hello finds its nonce immediately.
    let mut lanes = Vec::with_capacity(CHANNELS);
    for chan in 0..CHANNELS {
        let t =
            TcpTransport::connect(addr).unwrap_or_else(|e| panic!("dial data channel {chan}: {e}"));
        #[allow(clippy::cast_possible_truncation)]
        let mut source = TrafficSource::new(t, nonce, chan as u32).with_key(key);
        source.set_rate_cap(8 * 1024);
        source.greet(SimTime::ZERO);
        source.start(SimTime::ZERO);
        lanes.push(Lane { source, echo: BlastParser::new().with_key(key), stopped: false });
        if chan % 64 == 0 {
            // Keep the control session serviced while dialing.
            coord.pump(SimTime::from_secs_f64(t0.elapsed().as_secs_f64()));
        }
    }

    // The claim under test: 1000 live connections, a dozen threads.
    let threads = thread_count(pid);
    assert!(
        threads <= THREAD_CEILING,
        "relay runs {threads} threads for {CHANNELS} channels — thread-per-connection?"
    );
    assert!(threads > IO_THREADS as u64 / 2, "implausible thread count {threads}");

    coord.session_mut().go(SimTime::from_secs_f64(t0.elapsed().as_secs_f64()));

    // Blast every lane to its quota, then drain every echo to zero
    // loss, pumping the control session (per-second reports, Stop,
    // Done) alongside.
    let mut rx = Vec::new();
    let wall = Instant::now() + Duration::from_secs(120);
    loop {
        let now = SimTime::from_secs_f64(t0.elapsed().as_secs_f64());
        coord.pump(now);
        let mut all_done = true;
        for lane in &mut lanes {
            if !lane.stopped {
                if lane.source.sent_total() >= LANE_BYTES {
                    lane.source.stop();
                    lane.stopped = true;
                } else {
                    lane.source.pump(now);
                }
            }
            if let Ok(got) = lane.source.transport_mut().recv_into(now, &mut rx) {
                if got > 0 {
                    lane.echo.push(&rx).expect("echo framing intact");
                    assert_eq!(lane.echo.corrupt_total(), 0, "echo must verify");
                }
            }
            if !(lane.stopped && lane.echo.received_total() >= lane.source.sent_total()) {
                all_done = false;
            }
        }
        if all_done && coord.is_terminal() {
            break;
        }
        assert!(Instant::now() < wall, "channels or control never drained");
    }
    assert_eq!(coord.session().phase(), CoordPhase::Done, "control conversation completed");
    for (chan, lane) in lanes.iter().enumerate() {
        assert!(lane.source.sent_total() >= LANE_BYTES, "channel {chan} under-blasted");
        let verified = lane.echo.received_total();
        assert_eq!(verified, lane.source.sent_total(), "channel {chan} lost echoed bytes");
    }
    drop(coord);
    drop(lanes);

    // Session quota reached, channels gone: the relay drains and exits 0.
    relay.exit_zero();
}
