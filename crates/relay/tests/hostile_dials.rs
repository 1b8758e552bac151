//! An unauthenticated data dial must cost a peer process nothing. Both
//! binaries get the same two dials: a well-formed hello naming a nonce
//! no session registered, followed by junk — one then half-closes, one
//! just holds the connection open. Under level-triggered polling a
//! serving path that stops reading such a dial spins its shard until
//! the hello window ends, and a wait that ignores the drain flag holds
//! SIGTERM for as long. `/proc/<pid>/stat` is the witness for the first,
//! the exit latency for the second.
//!
//! The measurer gets a third, better-informed dial: a hello naming a
//! nonce one of its own authenticated control sessions really claimed.
//! Measurement bytes only ever flow measurer → relay → measurer, so even
//! that hello binds nothing and is refused at once.
//!
//! A replayed control opener is hostile too: presented on two
//! connections at once, it is answered on exactly one.
//!
//! Two more ways to park a peer's resources: hundreds of control
//! connections that sent one byte of a length prefix and then nothing
//! (each must cost its shard nothing per tick), and a measurer that
//! blasts a bound echo channel and never reads its echo (the relay must
//! stop reading at its backlog high-water mark, wait without spinning,
//! and still drain on SIGTERM).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::ExitStatus;
use std::time::{Duration, Instant};

use flashflow_harness::{bin, cpu_secs, read_jsonl, release_bin, voluntary_switches, Proc};
use flashflow_obs::Value;
use flashflow_proto::blast::{binding_nonce, secret_channel_key, DataChannelHello, TrafficSource};
use flashflow_proto::frame::{encode, FrameDecoder};
use flashflow_proto::msg::{
    AbortReason, MeasureSpec, Msg, PeerRole, AUTH_TOKEN_LEN, FINGERPRINT_LEN,
};
use flashflow_proto::tcp::TcpTransport;
use flashflow_simnet::time::SimTime;

/// How long the process is watched after the dials land. At the default
/// `--speedup 1` the hello window is 10 s, so this sits inside it.
const WATCH: Duration = Duration::from_secs(3);
/// CPU the whole process may burn over [`WATCH`]; a pinned shard burns
/// the full three seconds.
const CPU_BUDGET_SECS: f64 = 0.3;
const EXIT_BUDGET: Duration = Duration::from_secs(1);

/// Serves `bin` on loopback with two shards, `extra` flags after.
fn serve(bin: PathBuf, extra: &[&str]) -> (Proc, SocketAddr) {
    let name = bin.file_name().expect("binary name").to_string_lossy().into_owned();
    let mut child = Proc::spawn(
        &name,
        &bin,
        [&["--listen", "127.0.0.1:0", "--io-threads", "2"], extra].concat(),
    );
    let addr = child.advertised("listening");
    (child, addr)
}

fn hostile_dial(addr: SocketAddr, nonce: u64, half_close: bool) -> TcpStream {
    let mut dial = TcpStream::connect(addr).expect("dial");
    let mut bytes = DataChannelHello { nonce, channel: 0 }.encode().to_vec();
    bytes.extend_from_slice(&[0xA5; 100]);
    dial.write_all(&bytes).expect("send hello + junk");
    if half_close {
        dial.shutdown(Shutdown::Write).expect("half-close");
    }
    dial
}

fn stays_quiet_and_drains(bin: PathBuf) {
    let (child, addr) = serve(bin, &[]);
    let _closed = hostile_dial(addr, 0xBAD0_0000_0000_D1A1, true);
    let _held = hostile_dial(addr, 0xBAD0_0000_0000_D1A2, false);
    assert_quiet_then_drains(child);
}

/// Watches the process's CPU over [`WATCH`], then SIGTERMs it: it must
/// have stayed inside [`CPU_BUDGET_SECS`] and exit 0 inside
/// [`EXIT_BUDGET`].
fn assert_quiet_then_drains(child: Proc) {
    assert_quiet_for_then_drains(child, WATCH, CPU_BUDGET_SECS);
}

/// [`assert_quiet_then_drains`] over `watch`, within `budget` CPU-s.
fn assert_quiet_for_then_drains(mut child: Proc, watch: Duration, budget: f64) {
    let pid = child.pid();
    std::thread::sleep(Duration::from_millis(100));
    let before = cpu_secs(pid);
    std::thread::sleep(watch);
    let burned = cpu_secs(pid) - before;
    let drained = sigterm(&mut child);
    assert!(
        burned < budget,
        "the hostile dials cost {burned:.2} CPU-s over {watch:?} (budget {budget})"
    );
    assert_drained(drained);
}

/// SIGTERMs the process and waits up to [`EXIT_BUDGET`] for it to exit
/// (`None`: it did not).
fn sigterm(child: &mut Proc) -> Option<ExitStatus> {
    child.sigterm();
    child.wait_until(Instant::now() + EXIT_BUDGET)
}

/// The process exited 0 within [`EXIT_BUDGET`] of its SIGTERM.
fn assert_drained(status: Option<ExitStatus>) {
    let status = status.unwrap_or_else(|| panic!("SIGTERM not honoured within {EXIT_BUDGET:?}"));
    assert!(status.success(), "drained exit must be 0, got {status:?}");
}

#[test]
fn relay_shrugs_off_hostile_dials() {
    stays_quiet_and_drains(bin("flashflow-relay"));
}

#[test]
fn measurer_shrugs_off_hostile_dials() {
    stays_quiet_and_drains(bin("flashflow-measurer"));
}

#[test]
fn measurer_refuses_a_data_hello_naming_a_claimed_nonce() {
    let log = std::env::temp_dir().join(format!("ff-hostile-claimed-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let (child, addr) =
        serve(bin("flashflow-measurer"), &["--log-json", log.to_str().expect("utf-8 temp path")]);

    // A real handshake under the built-in loopback token: once `AuthOk`
    // is back, the process has claimed this nonce for a live session.
    let nonce = 0xC1A1_3ED0_0000_0001u64;
    let token = [0x42u8; AUTH_TOKEN_LEN];
    let mut control = TcpStream::connect(addr).expect("dial control");
    control
        .write_all(&encode(&Msg::Auth { token, role: PeerRole::Measurer, nonce }))
        .expect("Auth");
    let answer = next_frame(&mut control, &mut FrameDecoder::new());
    assert!(matches!(answer, Msg::AuthOk { nonce: n, .. } if n == nonce), "{answer:?}");

    // The data dial: a bare, well-formed hello naming the claimed nonce,
    // then silence. Refused at once means EOF long before the 10 s hello
    // window could have expired it.
    let mut dial = TcpStream::connect(addr).expect("dial data");
    dial.write_all(&DataChannelHello { nonce, channel: 0 }.encode()).expect("send hello");
    dial.set_read_timeout(Some(Duration::from_secs(2))).expect("read timeout");
    let closed = dial.read(&mut [0u8; 256]);
    assert!(matches!(closed, Ok(0)), "the dial was not closed at once: {closed:?}");

    let kinds_naming_the_nonce: Vec<String> = read_jsonl(&log)
        .into_iter()
        .filter(|ev| ev.field("nonce") == Some(&Value::U64(nonce)))
        .map(|ev| ev.kind)
        .collect();
    assert_eq!(kinds_naming_the_nonce, ["channel.unknown_nonce"]);

    // The parked control connection and the refused dial cost nothing,
    // and the drain still aborts the handshake and exits 0 in time.
    assert_quiet_then_drains(child);
    let _ = std::fs::remove_file(&log);
}

/// Reads frames off a control connection until it closes or stays
/// quiet for `quiet`.
fn frames_until_quiet(stream: &mut TcpStream, quiet: Duration) -> Vec<Msg> {
    stream.set_read_timeout(Some(quiet)).expect("read timeout");
    let mut decoder = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut buf = [0u8; 512];
    while let Ok(n @ 1..) = stream.read(&mut buf) {
        decoder.push(&buf[..n]);
        while let Some(msg) = decoder.next_msg().expect("well-formed frames") {
            frames.push(msg);
        }
    }
    frames
}

/// The next frame on a control connection (five seconds at most).
fn next_frame(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> Msg {
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let mut buf = [0u8; 512];
    loop {
        if let Some(msg) = decoder.next_msg().expect("well-formed frames") {
            return msg;
        }
        let n = stream.read(&mut buf).expect("read a frame");
        assert!(n > 0, "control connection closed mid-conversation");
        decoder.push(&buf[..n]);
    }
}

/// Runs one whole conversation on `stream` under `nonce`, leaving the
/// connection warm for the next.
fn complete_conversation(stream: &mut TcpStream, nonce: u64) {
    let token = [0x42u8; AUTH_TOKEN_LEN];
    let spec =
        MeasureSpec { relay_fp: [5; FINGERPRINT_LEN], slot_secs: 1, ..MeasureSpec::default() };
    let mut decoder = FrameDecoder::new();
    stream.write_all(&encode(&Msg::Auth { token, role: PeerRole::Target, nonce })).expect("Auth");
    let mut answers = vec![next_frame(stream, &mut decoder)];
    stream.write_all(&encode(&Msg::MeasureCmd(spec))).expect("MeasureCmd");
    answers.push(next_frame(stream, &mut decoder));
    stream.write_all(&encode(&Msg::Go)).expect("Go");
    answers.push(next_frame(stream, &mut decoder));
    answers.push(next_frame(stream, &mut decoder));
    assert!(
        matches!(
            answers[..],
            [Msg::AuthOk { .. }, Msg::Ready, Msg::SecondReport { second: 0, .. }, Msg::SlotDone]
        ),
        "warm-up conversation: {answers:?}"
    );
}

/// Two connections present the same opener — one fresh, one warm from a
/// finished conversation — in both orders. The process-wide replay
/// window lets exactly one through; the other sees `Abort(AuthFailed)`
/// and never an `AuthOk`, so its coordinator never believes it holds a
/// handshake.
#[test]
fn replayed_opener_is_answered_once_across_fresh_and_warm_connections() {
    let (child, addr) = serve(bin("flashflow-relay"), &["--speedup", "50"]);
    let token = [0x42u8; AUTH_TOKEN_LEN];
    for (round, warm_first) in [(0u64, true), (1, false)] {
        let mut warm = TcpStream::connect(addr).expect("dial warm");
        complete_conversation(&mut warm, 0x7E57_0000_0000_0010 + round);
        let mut fresh = TcpStream::connect(addr).expect("dial fresh");
        let opener = encode(&Msg::Auth {
            token,
            role: PeerRole::Target,
            nonce: 0x7E57_0000_0000_0020 + round,
        });
        let (first, second) = if warm_first { (&warm, &fresh) } else { (&fresh, &warm) };
        (&*first).write_all(&opener).expect("opener");
        (&*second).write_all(&opener).expect("replayed opener");

        let quiet = Duration::from_millis(500);
        let streams = [
            ("warm", frames_until_quiet(&mut warm, quiet)),
            ("fresh", frames_until_quiet(&mut fresh, quiet)),
        ];
        let (answered, refused): (Vec<_>, Vec<_>) = streams
            .iter()
            .partition(|(_, frames)| frames.iter().any(|m| matches!(m, Msg::AuthOk { .. })));
        assert_eq!(
            (answered.len(), refused.len()),
            (1, 1),
            "round {round}: exactly one AuthOk: {streams:?}"
        );
        assert!(
            refused[0].1.contains(&Msg::Abort { reason: AbortReason::AuthFailed }),
            "round {round}: the replay was not refused: {streams:?}"
        );
    }
    assert_quiet_then_drains(child);
}

/// Idle control connections the tick-cost case parks, and the share of
/// one core the whole process may spend on them.
const IDLE_CONTROLS: usize = 500;
const IDLE_BUDGET_SECS: f64 = 0.08 * 2.0;

/// Parks [`IDLE_CONTROLS`] control connections on one shard, each having
/// sent the first byte of a length prefix: the shard must not read them
/// on its sweep, only on readiness, so over 2 s the process stays
/// below 8 % of a core (a `recv(2)` per connection per tick cost 17 % of
/// a core at 300 connections). The budget is the optimised binary's, as
/// it ships: unoptimised, the shard's own per-connection bookkeeping
/// alone comes close to it.
fn idle_control_connections_cost_no_tick_work(name: &str) {
    let (child, addr) = serve(release_bin(name), &["--io-threads", "1"]);
    let idle: Vec<TcpStream> = (0..IDLE_CONTROLS)
        .map(|_| {
            let mut dial = TcpStream::connect(addr).expect("dial control");
            dial.write_all(&[0]).expect("first byte of a length prefix");
            dial
        })
        .collect();
    // Every connection accepted and identified as control before the
    // watch starts.
    std::thread::sleep(Duration::from_millis(400));
    assert_quiet_for_then_drains(child, Duration::from_secs(2), IDLE_BUDGET_SECS);
    drop(idle);
}

#[test]
fn relay_idle_control_connections_cost_no_tick_work() {
    idle_control_connections_cost_no_tick_work("flashflow-relay");
}

#[test]
fn measurer_idle_control_connections_cost_no_tick_work() {
    idle_control_connections_cost_no_tick_work("flashflow-measurer");
}

/// Voluntary context switches per second an idle peer may make, summed
/// over its threads. Asleep, it wakes only for its shard's 20 ms sweep
/// (50 a second); a 1 ms tick, a supervisor polling for the drain and
/// a metrics endpoint polling its listener made about 1,700.
const IDLE_WAKEUPS_PER_SEC: f64 = 150.0;

/// A peer with nothing to serve, its metrics endpoint up, sleeps: its
/// shard wakes for the sweep and its supervisor and endpoint threads
/// not at all. SIGTERM still wakes it, and it drains to exit 0. The
/// rate is the optimised binary's, as it ships.
fn idle_peer_stays_asleep(name: &str) {
    let (mut child, _) =
        serve(release_bin(name), &["--io-threads", "1", "--metrics-addr", "127.0.0.1:0"]);
    let pid = child.pid();
    std::thread::sleep(Duration::from_millis(200));
    let (before, from) = (voluntary_switches(pid), Instant::now());
    std::thread::sleep(Duration::from_secs(2));
    let rate = voluntary_switches(pid).saturating_sub(before) as f64 / from.elapsed().as_secs_f64();
    let drained = sigterm(&mut child);
    assert!(
        rate < IDLE_WAKEUPS_PER_SEC,
        "{name} idled at {rate:.0} wakeups per s (most {IDLE_WAKEUPS_PER_SEC})"
    );
    assert_drained(drained);
}

#[test]
fn relay_idle_peer_stays_asleep() {
    idle_peer_stays_asleep("flashflow-relay");
}

#[test]
fn measurer_idle_peer_stays_asleep() {
    idle_peer_stays_asleep("flashflow-measurer");
}

/// A measurer that blasts a bound echo channel and never reads the echo:
/// the relay's outbox reaches its high-water mark, the relay stops
/// reading, the blast backs up into the kernel until the measurer's own
/// source pauses, and the parked channel costs the process under a
/// quarter of a core. A SIGTERM drain still ends the channel and the
/// process exits 0.
#[test]
fn relay_parks_an_echo_channel_whose_measurer_never_reads() {
    let (child, addr) = serve(bin("flashflow-relay"), &["--io-threads", "1"]);
    let secret = 0x0E70_0000_5EC2_0001u64;
    let token = [0x42u8; AUTH_TOKEN_LEN];
    let mut control = TcpStream::connect(addr).expect("dial control");
    let mut decoder = FrameDecoder::new();
    control
        .write_all(&encode(&Msg::Auth { token, role: PeerRole::Target, nonce: secret }))
        .expect("Auth");
    let answer = next_frame(&mut control, &mut decoder);
    assert!(matches!(answer, Msg::AuthOk { .. }), "{answer:?}");
    let spec = MeasureSpec {
        relay_fp: [6; FINGERPRINT_LEN],
        slot_secs: 30,
        measurement_secret: secret,
        ..MeasureSpec::default()
    };
    control.write_all(&encode(&Msg::MeasureCmd(spec))).expect("MeasureCmd");
    assert_eq!(next_frame(&mut control, &mut decoder), Msg::Ready);

    // Blast, uncapped, until the source has sent nothing for 300 ms: its
    // own outbox is at the mark because every buffer between it and a
    // relay that stopped reading is full.
    let transport = TcpTransport::connect(addr).expect("dial echo channel");
    let mut source = TrafficSource::new(transport, binding_nonce(secret), 0)
        .with_key(secret_channel_key(secret));
    source.greet(SimTime::ZERO);
    source.start(SimTime::ZERO);
    let started = Instant::now();
    let mut last_sent = Instant::now();
    while last_sent.elapsed() < Duration::from_millis(300) {
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "the relay kept reading: {} B sent and the source never paused",
            source.sent_total()
        );
        if source.pump(SimTime::ZERO) {
            last_sent = Instant::now();
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    assert!(source.sent_total() > 1 << 20, "only {} B went out", source.sent_total());
    assert_quiet_for_then_drains(child, Duration::from_secs(1), 0.25);
    drop((control, source));
}
