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

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use flashflow_obs::{Event, Value};
use flashflow_proto::blast::DataChannelHello;
use flashflow_proto::frame::{encode, FrameDecoder};
use flashflow_proto::msg::{
    AbortReason, MeasureSpec, Msg, PeerRole, AUTH_TOKEN_LEN, FINGERPRINT_LEN,
};

/// How long the process is watched after the dials land. At the default
/// `--speedup 1` the hello window is 10 s, so this sits inside it.
const WATCH: Duration = Duration::from_secs(3);
/// CPU the whole process may burn over [`WATCH`]; a pinned shard burns
/// the full three seconds.
const CPU_BUDGET_SECS: f64 = 0.3;
const EXIT_BUDGET: Duration = Duration::from_secs(1);

/// Builds (if stale) and locates a workspace binary beside this test's
/// own executable.
fn sibling_bin(name: &str) -> PathBuf {
    let mut path = std::env::current_exe().expect("test exe path");
    path.pop(); // deps/
    path.pop(); // target/<profile>/
    let release = path.ends_with("release");
    path.push(name);
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut build = Command::new(cargo);
    build.args(["build", "-p", name, "--bin", name]);
    if release {
        build.arg("--release");
    }
    assert!(build.status().expect("spawn cargo build").success(), "building {name} failed");
    path
}

fn spawn_listener(bin: PathBuf) -> (Child, SocketAddr) {
    spawn_listener_with(bin, &[])
}

fn spawn_listener_with(bin: PathBuf, extra: &[&str]) -> (Child, SocketAddr) {
    let mut child = Command::new(&bin)
        .args(["--listen", "127.0.0.1:0", "--io-threads", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {bin:?}: {e}"));
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("child stdout"))
        .read_line(&mut line)
        .expect("read advertised address");
    let addr = line
        .trim()
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected stdout line: {line:?}"))
        .parse()
        .expect("parse advertised address");
    (child, addr)
}

/// User + system CPU seconds the process has consumed so far.
fn cpu_secs(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th, in USER_HZ (100) ticks.
    let rest = stat.rsplit_once(')').expect("comm field").1;
    let ticks = |ix: usize| -> f64 {
        rest.split_whitespace().nth(ix).expect("stat field").parse().expect("tick count")
    };
    (ticks(11) + ticks(12)) / 100.0
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
    let (child, addr) = spawn_listener(bin);
    let _closed = hostile_dial(addr, 0xBAD0_0000_0000_D1A1, true);
    let _held = hostile_dial(addr, 0xBAD0_0000_0000_D1A2, false);
    assert_quiet_then_drains(child);
}

/// Watches the process's CPU over [`WATCH`], then SIGTERMs it: it must
/// have stayed inside [`CPU_BUDGET_SECS`] and exit 0 inside
/// [`EXIT_BUDGET`].
fn assert_quiet_then_drains(mut child: Child) {
    let pid = child.id();
    std::thread::sleep(Duration::from_millis(100));
    let before = cpu_secs(pid);
    std::thread::sleep(WATCH);
    let burned = cpu_secs(pid) - before;

    let term = Command::new("kill").args(["-TERM", &pid.to_string()]).status().expect("kill");
    assert!(term.success(), "kill -TERM failed");
    let sent = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            break Some(status);
        }
        if sent.elapsed() > EXIT_BUDGET {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    assert!(
        burned < CPU_BUDGET_SECS,
        "the hostile dials cost {burned:.2} CPU-s over {WATCH:?} (budget {CPU_BUDGET_SECS})"
    );
    let status = status.unwrap_or_else(|| panic!("SIGTERM not honoured within {EXIT_BUDGET:?}"));
    assert!(status.success(), "drained exit must be 0, got {status:?}");
}

#[test]
fn relay_shrugs_off_hostile_dials() {
    stays_quiet_and_drains(PathBuf::from(env!("CARGO_BIN_EXE_flashflow-relay")));
}

#[test]
fn measurer_shrugs_off_hostile_dials() {
    stays_quiet_and_drains(sibling_bin("flashflow-measurer"));
}

#[test]
fn measurer_refuses_a_data_hello_naming_a_claimed_nonce() {
    let log = std::env::temp_dir().join(format!("ff-hostile-claimed-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let (child, addr) = spawn_listener_with(
        sibling_bin("flashflow-measurer"),
        &["--log-json", log.to_str().expect("utf-8 temp path")],
    );

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

    let kinds_naming_the_nonce: Vec<String> = std::fs::read_to_string(&log)
        .expect("read the event log")
        .lines()
        .map(|line| Event::parse_json_line(line).expect("well-formed JSONL"))
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
    let (child, addr) = spawn_listener_with(
        PathBuf::from(env!("CARGO_BIN_EXE_flashflow-relay")),
        &["--speedup", "50"],
    );
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
