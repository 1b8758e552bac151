//! The three-party deployment harness: the paper's full topology as
//! real processes over loopback TCP.
//!
//! A coordinator (in this test process) commands **two spawned
//! `flashflow-measurer` processes** and **one spawned `flashflow-relay`
//! process**. Each item's `MeasureCmd` carries the relay's data
//! endpoint and a fresh measurement secret; at `Go` the measurers dial
//! echo channels straight at the relay and blast pattern-stamped,
//! tag-keyed frames, the relay verifies and echoes them back while
//! admitting capped background traffic, and everyone reports per
//! second — measurers their verified echo, the relay echoed + admitted
//! background. The per-relay estimate (echoed + clamped background)
//! must land within 5% of the deterministic Duplex reference, with the
//! audit ledger clean; the adversarial cases (a relay inflating its
//! background claim, a relay echoing garbage) must be *flagged* in the
//! ledger rows instead of silently believed. All children exit 0 —
//! including a measurer SIGTERMed mid-slot, which must finish the slot
//! it is running before it goes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use flashflow_core::bwauth::measure_echo_period;
use flashflow_core::echo::{
    item_trace_id, run_round, run_rounds, EchoDeployment, EchoItem, EchoMeasurer, RoundSource,
};
use flashflow_core::engine::{EngineEvent, PeerDirectory};
use flashflow_core::measure::build_second_samples;
use flashflow_core::pool::ConnectionPool;
use flashflow_core::proto_driver::{run_scripted, ScriptedPeer};
use flashflow_proto::frame::{encode, FrameDecoder};
use flashflow_proto::msg::{
    AbortReason, Msg, PeerRole, TargetEndpoint, AUTH_TOKEN_LEN, FINGERPRINT_LEN,
};
use flashflow_proto::session::CoordPhase;
use flashflow_simnet::stats::median;

const ITEMS: usize = 3;
const SLOT_SECS: u32 = 5;
/// Both sides run their clocks at this multiple of wall time.
const SPEEDUP: f64 = 10.0;
/// Echo blast caps of the two measurer processes ((sped-up) bytes/sec).
const MEASURER_CAPS: [u64; 2] = [300_000, 150_000];
/// Echo sockets each measurer opens to the relay.
const SOCKETS: u32 = 2;
/// Client traffic the relay process offers / is allowed ((sped-up) B/s).
const BG_OFFERED: u64 = 40_000;
const BG_ALLOWANCE: u64 = 20_000;
/// Paper ratio r.
const RATIO: f64 = 0.25;

fn token_for(peer_ix: usize) -> [u8; AUTH_TOKEN_LEN] {
    [peer_ix as u8 + 0x21; AUTH_TOKEN_LEN]
}

fn token_hex(peer_ix: usize) -> String {
    token_for(peer_ix).iter().map(|b| format!("{b:02x}")).collect()
}

/// Locates a sibling workspace binary next to this test's own
/// executable (`target/<profile>/<name>`), asking cargo to (re)build it
/// first — a filtered `cargo test -p flashflow-relay` run does not
/// build other packages' binaries, and a *stale* sibling from an older
/// protocol version fails the handshake in confusing ways (the build
/// is a fast no-op when already current).
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
    let status = build.status().expect("spawn cargo build for sibling binary");
    assert!(status.success(), "building {name} failed");
    assert!(path.exists(), "sibling binary {name} not found at {path:?}");
    path
}

/// A child's stderr event lines, each stamped with when this process
/// read it: the children's own timestamps count from their own starts.
type StderrLog = Arc<Mutex<Vec<(Instant, String)>>>;

/// Spawns a process and reads its advertised `listening <addr>` line;
/// with `log`, its stderr lines are collected there as they arrive.
fn spawn_listener(bin: PathBuf, args: &[String], log: Option<StderrLog>) -> (Child, SocketAddr) {
    // FF_RELAY_DEBUG=1 streams the children's stderr into the test
    // output for debugging.
    let debug = std::env::var_os("FF_RELAY_DEBUG").is_some();
    let stderr = match (&log, debug) {
        (Some(_), _) => Stdio::piped(),
        (None, true) => Stdio::inherit(),
        (None, false) => Stdio::null(),
    };
    let mut child = Command::new(&bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {bin:?}: {e}"));
    if let Some(log) = log {
        let stderr = child.stderr.take().expect("child stderr");
        thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if debug {
                    eprintln!("{line}");
                }
                log.lock().expect("stderr log").push((Instant::now(), line));
            }
        });
    }
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read advertised address");
    let addr = line
        .trim()
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected stdout line: {line:?}"))
        .parse()
        .expect("parse advertised address");
    (child, addr)
}

fn spawn_measurer(peer_ix: usize, sessions: usize) -> (Child, SocketAddr) {
    spawn_listener(sibling_bin("flashflow-measurer"), &measurer_args(peer_ix, sessions), None)
}

fn measurer_args(peer_ix: usize, sessions: usize) -> Vec<String> {
    [
        "--listen",
        "127.0.0.1:0",
        "--role",
        "measurer",
        "--token-hex",
        &token_hex(peer_ix),
        "--speedup",
        &SPEEDUP.to_string(),
        "--sessions",
        &sessions.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn spawn_relay(extra: &[(&str, String)], sessions: usize) -> (Child, SocketAddr) {
    spawn_listener(relay_bin(), &relay_args(extra, sessions), None)
}

fn relay_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_flashflow-relay"))
}

fn relay_args(extra: &[(&str, String)], sessions: usize) -> Vec<String> {
    let mut args: Vec<String> = [
        "--listen",
        "127.0.0.1:0",
        "--token-hex",
        &token_hex(9),
        "--background",
        &BG_OFFERED.to_string(),
        "--speedup",
        &SPEEDUP.to_string(),
        "--sessions",
        &sessions.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for (k, v) in extra {
        args.push((*k).to_string());
        args.push(v.clone());
    }
    args
}

fn deployment(measurer_addrs: [SocketAddr; 2], relay_addr: SocketAddr) -> EchoDeployment {
    EchoDeployment {
        measurers: measurer_addrs
            .iter()
            .zip(MEASURER_CAPS)
            .enumerate()
            .map(|(ix, (&addr, rate_cap))| EchoMeasurer {
                addr,
                token: token_for(ix),
                rate_cap,
                sockets: SOCKETS,
            })
            .collect(),
        relay: TargetEndpoint::from_addr(relay_addr).expect("the relay listens on IPv4 loopback"),
        relay_token: token_for(9),
        speedup: SPEEDUP,
        ratio: RATIO,
    }
}

fn items() -> Vec<EchoItem> {
    round_items(0)
}

/// The items of round `round`: the same relays every round, under
/// secrets no earlier round used.
fn round_items(round: u64) -> Vec<EchoItem> {
    (0..ITEMS)
        .map(|ix| {
            let mut fp = [0u8; FINGERPRINT_LEN];
            fp[0] = ix as u8 + 1;
            // Fresh per item; unpredictability is the coordinator's
            // job in deployment, distinctness is what the test needs.
            let secret = 0x3A11_0000_0000_0000 + (round << 32) + ix as u64 * 0x1_0001;
            EchoItem {
                relay_fp: fp,
                slot_secs: SLOT_SECS,
                bg_allowance: BG_ALLOWANCE,
                measurement_secret: secret,
                attempt: 0,
                resume: false,
                trace_id: item_trace_id(secret, 0),
            }
        })
        .collect()
}

/// Measures the box's sleep-pacing skew: how much longer a run of
/// short `thread::sleep`s takes than ideal. The echo data plane paces
/// its per-second slots exactly this way, so on a loaded 1-CPU CI
/// runner the blast falls short of its commanded rate by roughly this
/// factor — the estimate-vs-reference tolerance must widen with it
/// instead of flaking at a fixed 5%.
fn pacing_skew() -> f64 {
    const ROUNDS: u32 = 40;
    let ideal = Duration::from_millis(1) * ROUNDS;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        thread::sleep(Duration::from_millis(1));
    }
    (start.elapsed().as_secs_f64() / ideal.as_secs_f64()).max(1.0)
}

/// The relative tolerance for estimate-vs-reference comparisons: the
/// paper's 5% bound on an idle box, widened by the measured pacing
/// skew under contention, and capped so a genuinely broken data plane
/// (wrong rate, uncredited echo) still fails loudly. Callers probe the
/// skew both before and after the measurement (load can arrive
/// mid-run) and pass the worst.
fn estimate_tolerance(skew: f64) -> f64 {
    (0.05 * skew).min(0.20)
}

fn wait_exit_zero(children: Vec<(&'static str, Child)>) {
    for (name, mut child) in children {
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = child.try_wait().expect("try_wait") {
                break status;
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                panic!("{name} did not exit");
            }
            thread::sleep(Duration::from_millis(10));
        };
        assert!(status.success(), "{name} exited with {status}");
    }
}

/// The deterministic reference: the identical rates, scripted over
/// in-memory Duplex links (measurers report their caps as echoed
/// bytes, the relay reports the admitted background).
fn duplex_reference_estimates() -> Vec<f64> {
    let mut peers: Vec<ScriptedPeer> =
        MEASURER_CAPS.iter().map(|&cap| ScriptedPeer::measurer(cap)).collect();
    peers.push(ScriptedPeer::target(BG_ALLOWANCE));
    let run = run_scripted(&vec![peers; ITEMS], SLOT_SECS);
    assert!(run.peers.all_clean(), "reference run had failures");
    (0..ITEMS)
        .map(|g| {
            let (x, y) = run.ledger.merged_series(&run.peers, g);
            let seconds = build_second_samples(&x, &y, RATIO);
            let z: Vec<f64> = seconds.iter().map(|s| s.z).collect();
            median(&z).expect("reference seconds")
        })
        .collect()
}

#[test]
fn three_party_topology_estimates_match_duplex_reference() {
    let reference = duplex_reference_estimates();
    let skew_before = pacing_skew();

    // Two rounds' worth of sessions: the second round rides the
    // connections the first one warmed.
    let (m0, a0) = spawn_measurer(0, 2 * ITEMS);
    let (m1, a1) = spawn_measurer(1, 2 * ITEMS);
    let (relay, relay_addr) = spawn_relay(&[], 2 * ITEMS);
    let dep = deployment([a0, a1], relay_addr);
    let peers_per_round = ITEMS as u64 * (MEASURER_CAPS.len() as u64 + 1);

    let pool = ConnectionPool::new();
    let file = measure_echo_period(&dep, &items(), &pool);
    let tolerance = estimate_tolerance(skew_before.max(pacing_skew()));
    // Every item of a round runs at once, so a cold round dials one
    // connection per conversation.
    assert_eq!((pool.dials(), pool.reuses()), (peers_per_round, 0));

    assert_eq!(file.entries.len(), ITEMS);
    for (g, entry) in file.entries.iter().enumerate() {
        let failures: Vec<_> = file
            .events
            .iter()
            .filter(|e| {
                matches!(e, EngineEvent::PeerFailed { peer, .. } if file.peers.item(*peer) == g)
            })
            .collect();
        assert!(
            entry.clean,
            "item {g}: a session failed against the spawned processes: {failures:?}"
        );
        // Scheduler contention can tear individual seconds'
        // claim-vs-counted comparisons past the 10% divergence
        // tolerance (the relay and the measurers tick their "seconds"
        // on independent sped-up clocks, so load shifts bytes between
        // adjacent seconds). A lying relay flags nearly every row —
        // the adversarial cases below assert ≥ SLOT_SECS−1 — so that
        // same threshold is the discrimination boundary: honest must
        // stay strictly under it.
        assert!(
            entry.divergent_rows < SLOT_SECS as usize - 1,
            "item {g}: honest topology flagged {} rows: {:?}",
            entry.divergent_rows,
            file.ledger.rows(&file.peers, g)
        );
        let est = entry.capacity.bytes_per_sec();
        let reference = reference[g];
        let rel = (est - reference).abs() / reference;
        assert!(
            rel < tolerance,
            "item {g}: echo estimate {est:.0} B/s vs reference {reference:.0} B/s \
             differ by {:.2}% (tolerance {:.2}%)",
            rel * 100.0,
            tolerance * 100.0
        );
    }

    // The relay reported real background: every target row carries a
    // bg column near the allowance, cross-checked against the
    // aggregated measurer echo.
    let target_rows: Vec<_> = file
        .ledger
        .rows(&file.peers, 0)
        .into_iter()
        .filter(|r| file.peers.role(r.peer) == PeerRole::Target)
        .collect();
    assert_eq!(target_rows.len(), SLOT_SECS as usize);
    for row in &target_rows {
        assert!(row.counted.is_some(), "target row lacks the aggregated echo column: {row:?}");
        assert!(
            row.bg <= BG_ALLOWANCE * 11 / 10,
            "admitted background exceeded the allowance: {row:?}"
        );
    }

    // Warm connections rode the pool into the next round: it dialed
    // nothing and reused one connection per conversation.
    let second = measure_echo_period(&dep, &round_items(1), &pool);
    assert!(second.peers.all_clean(), "second round had failures: {:?}", second.events);
    assert_eq!(pool.dials(), peers_per_round, "the warm round dialed");
    assert!(pool.reuses() >= peers_per_round, "warm round reused only {}", pool.reuses());

    drop(pool);
    drop(file);
    drop(second);
    wait_exit_zero(vec![("measurer-0", m0), ("measurer-1", m1), ("relay", relay)]);
}

#[test]
fn unreachable_measurer_degrades_the_item_instead_of_killing_the_period() {
    // One measurer process is down (its address refuses connections):
    // the item must complete degraded — unclean, with the surviving
    // measurer's echo still measured — not panic the coordinator.
    let (m0, a0) = spawn_measurer(0, 1);
    let (relay, relay_addr) = spawn_relay(&[], 1);
    // A port that refused: bind, read the addr, drop the listener.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr")
    };

    let pool = ConnectionPool::new();
    let one_item = vec![items().remove(0)];
    let file = measure_echo_period(&deployment([a0, dead_addr], relay_addr), &one_item, &pool);

    let entry = &file.entries[0];
    assert!(!entry.clean, "a failed dial must mark the item unclean");
    // The surviving measurer still demonstrated its share.
    let (x, _) = file.ledger.merged_series(&file.peers, 0);
    let survivor_rate = MEASURER_CAPS[0] as f64;
    let mid = x.get(2).copied().unwrap_or(0.0);
    assert!(
        mid > survivor_rate * 0.5,
        "surviving measurer's echo missing from the degraded item: {x:?}"
    );

    drop(pool);
    drop(file);
    wait_exit_zero(vec![("measurer-0", m0), ("relay", relay)]);
}

#[test]
fn background_inflating_relay_is_flagged_in_the_ledger() {
    // The TorMult-shaped lie: the relay claims 6× more background than
    // the plausibility bound allows for what it demonstrably echoed.
    let claim = 300_000u64;
    let (m0, a0) = spawn_measurer(0, 1);
    let (m1, a1) = spawn_measurer(1, 1);
    let (relay, relay_addr) = spawn_relay(&[("--claim-bg", claim.to_string())], 1);

    let pool = ConnectionPool::new();
    let one_item = vec![items().remove(0)];
    let file = measure_echo_period(&deployment([a0, a1], relay_addr), &one_item, &pool);

    let entry = &file.entries[0];
    assert!(entry.clean, "the lie is in the numbers, not the protocol");
    assert!(
        entry.divergent_rows >= SLOT_SECS as usize - 1,
        "inflated background claims must flag the audit rows: {:?}",
        file.ledger.rows(&file.peers, 0)
    );
    let flagged_bg = file
        .ledger
        .rows(&file.peers, 0)
        .iter()
        .filter(|r| file.peers.role(r.peer) == PeerRole::Target && r.divergent)
        .all(|r| r.bg == claim);
    assert!(flagged_bg, "the flagged rows carry the inflated claim");

    drop(pool);
    drop(file);
    wait_exit_zero(vec![("measurer-0", m0), ("measurer-1", m1), ("relay", relay)]);
}

#[test]
fn garbage_echoing_relay_is_not_credited_and_diverges() {
    // A forging relay: it "echoes" keystream-violating bytes. The
    // measurers' verifying parsers refuse to credit them, so the
    // reported echo collapses — and the relay's own (inflated) echo
    // claim diverges from the aggregated measurer reports.
    let (m0, a0) = spawn_measurer(0, 1);
    let (m1, a1) = spawn_measurer(1, 1);
    let (relay, relay_addr) = spawn_relay(&[("--corrupt-echo", "true".to_string())], 1);

    let pool = ConnectionPool::new();
    let one_item = vec![items().remove(0)];
    let file = measure_echo_period(&deployment([a0, a1], relay_addr), &one_item, &pool);

    let entry = &file.entries[0];
    let honest_x: u64 = MEASURER_CAPS.iter().sum();
    assert!(
        entry.capacity.bytes_per_sec() < honest_x as f64 * 0.10,
        "garbage echo must not be credited as measurement bytes: estimated {} B/s",
        entry.capacity.bytes_per_sec()
    );
    assert!(
        entry.divergent_rows > 0,
        "the relay's echo claim must diverge from what the measurers verified: {:?}",
        file.ledger.rows(&file.peers, 0)
    );

    drop(pool);
    drop(file);
    wait_exit_zero(vec![("measurer-0", m0), ("measurer-1", m1), ("relay", relay)]);
}

#[test]
fn sigtermed_measurer_finishes_its_slot_aborts_parked_handshakes_and_exits_zero() {
    // Long enough (1 s of wall time) that the SIGTERM lands mid-slot.
    const DRAIN_SLOT_SECS: u32 = 10;
    // Measurer 0 has quota to spare: only the SIGTERM ends it.
    let (m0, a0) = spawn_measurer(0, 99);
    let (m1, a1) = spawn_measurer(1, 1);
    let (relay, relay_addr) = spawn_relay(&[], 1);

    // A second coordinator connection that stops after `AuthOk`: still
    // mid-handshake when the drain starts, it must be told so.
    let mut parked = TcpStream::connect(a0).expect("dial parked conversation");
    let auth = Msg::Auth { token: token_for(0), role: PeerRole::Measurer, nonce: 0xF00 };
    parked.write_all(&encode(&auth)).expect("send Auth");

    let pool = ConnectionPool::new();
    let item = EchoItem { slot_secs: DRAIN_SLOT_SECS, ..items().remove(0) };
    let mut events = Vec::new();
    let mut termed = false;
    let snapshot = run_round(&deployment([a0, a1], relay_addr), &[item], &pool, &mut |ev| {
        events.push(ev);
        // Mid-slot (first sample seen): ask measurer 0 to drain.
        if !termed && matches!(ev, EngineEvent::Sample { .. }) {
            let kill = Command::new("kill").args(["-TERM", &m0.id().to_string()]).status();
            assert!(kill.expect("send SIGTERM").success(), "kill -TERM failed");
            termed = true;
        }
    });

    // Every conversation — the draining measurer's included — ran its
    // whole slot to `Done`.
    assert!(termed, "never saw a sample: {events:?}");
    for peer in snapshot.peers() {
        assert_eq!(snapshot.phase(peer), CoordPhase::Done, "peer {peer:?}: {events:?}");
        let samples = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::Sample { peer: p, .. } if *p == peer))
            .count();
        assert_eq!(samples, DRAIN_SLOT_SECS as usize, "peer {peer:?}: {events:?}");
    }

    // The parked handshake got `AuthOk`, then a flushed `Abort(Shutdown)`.
    parked.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut decoder = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut buf = [0u8; 256];
    while let Ok(n @ 1..) = parked.read(&mut buf) {
        decoder.push(&buf[..n]);
        while let Some(msg) = decoder.next_msg().expect("well-formed frames") {
            frames.push(msg);
        }
    }
    assert!(
        matches!(
            frames[..],
            [Msg::AuthOk { nonce: 0xF00, .. }, Msg::Abort { reason: AbortReason::Shutdown }]
        ),
        "parked conversation saw {frames:?}"
    );

    drop(pool);
    wait_exit_zero(vec![("measurer-0", m0), ("measurer-1", m1), ("relay", relay)]);
}

/// User + system CPU seconds the calling thread has used: its
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

/// Copies one direction of a proxied connection until either side ends.
fn pipe(mut from: TcpStream, mut to: TcpStream) {
    thread::spawn(move || {
        let _ = std::io::copy(&mut from, &mut to);
        let _ = to.shutdown(Shutdown::Both);
    });
}

#[test]
fn hung_up_measurer_degrades_its_item_without_spinning_the_round() {
    // Measurer 0 sits behind a proxy. Its first connection — item 0's
    // control session — hangs up once the `Auth` is in; the others are
    // piped through to the real process.
    let (m0, a0) = spawn_measurer(0, ITEMS - 1);
    let (m1, a1) = spawn_measurer(1, ITEMS);
    let (relay, relay_addr) = spawn_relay(&[], ITEMS);
    let proxy = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let proxy_addr = proxy.local_addr().expect("proxy addr");
    thread::spawn(move || {
        for (n, coord) in proxy.incoming().take(ITEMS).enumerate() {
            let mut coord = coord.expect("accept");
            if n == 0 {
                let mut auth = [0u8; 256];
                let _ = coord.read(&mut auth);
                continue;
            }
            let measurer = TcpStream::connect(a0).expect("dial measurer 0");
            pipe(coord.try_clone().expect("clone"), measurer.try_clone().expect("clone"));
            pipe(measurer, coord);
        }
    });

    let pool = ConnectionPool::new();
    let mut events = Vec::new();
    let (cpu_before, started) = (thread_cpu_secs(), Instant::now());
    let snapshot =
        run_round(&deployment([proxy_addr, a1], relay_addr), &items(), &pool, &mut |ev| {
            events.push(ev);
        });
    let (cpu, wall) = (thread_cpu_secs() - cpu_before, started.elapsed().as_secs_f64());

    assert!(!snapshot.item_clean(0), "the hung-up peer's item must degrade: {events:?}");
    assert!(
        events.iter().any(|e| matches!(
            e,
            EngineEvent::PeerFailed { peer, reason: AbortReason::ConnectionLost }
                if snapshot.item(*peer) == 0
        )),
        "{events:?}"
    );
    for g in 1..ITEMS {
        assert!(snapshot.item_clean(g), "item {g} must stay clean: {events:?}");
    }
    // A terminal session's socket that stayed registered would be
    // readable (EOF) for the rest of the round and spin the loop.
    assert!(
        cpu < 0.25 * wall,
        "the round thread burned {cpu:.2} CPU-s over {wall:.2} s of wall time"
    );

    drop(pool);
    wait_exit_zero(vec![("measurer-0", m0), ("measurer-1", m1), ("relay", relay)]);
}

/// The events of kind `kind` in a child's stderr log: when each line
/// arrived, and the line.
fn logged(log: &StderrLog, kind: &str) -> Vec<(Instant, String)> {
    log.lock()
        .expect("stderr log")
        .iter()
        .filter(|(_, line)| {
            line.split_once(']').and_then(|(_, rest)| rest.split_whitespace().next()) == Some(kind)
        })
        .cloned()
        .collect()
}

/// The integer field `key` of a text event line.
fn field(line: &str, key: &str) -> u64 {
    let needle = format!(" {key}=");
    let (_, rest) = line.split_once(&needle).unwrap_or_else(|| panic!("no {key} in {line:?}"));
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|e| panic!("{key} in {line:?}: {e}"))
}

#[test]
fn echo_channels_hang_up_with_the_slot_and_report_every_verified_byte() {
    let logs: [StderrLog; 3] = Default::default();
    let measurer_bin = sibling_bin("flashflow-measurer");
    let (m0, a0) =
        spawn_listener(measurer_bin.clone(), &measurer_args(0, 1), Some(Arc::clone(&logs[0])));
    let (m1, a1) = spawn_listener(measurer_bin, &measurer_args(1, 1), Some(Arc::clone(&logs[1])));
    let (relay, relay_addr) =
        spawn_listener(relay_bin(), &relay_args(&[], 1), Some(Arc::clone(&logs[2])));

    let pool = ConnectionPool::new();
    let mut reported = [0u64; 2];
    let snapshot = run_round(&deployment([a0, a1], relay_addr), &items()[..1], &pool, &mut |ev| {
        if let EngineEvent::Sample { peer, measured_bytes, .. } = ev {
            if let Some(sum) = reported.get_mut(peer.index()) {
                *sum += measured_bytes;
            }
        }
    });
    assert!(snapshot.all_clean(), "the round must run clean");
    drop(pool);
    wait_exit_zero(vec![("measurer-0", m0), ("measurer-1", m1), ("relay", relay)]);

    let mut last_stop = None;
    for (ix, log) in logs[..2].iter().enumerate() {
        let stops = logged(log, "session.stop");
        let [(stopped, stop)] = &stops[..] else { panic!("measurer {ix}: stops {stops:?}") };
        last_stop = last_stop.max(Some(*stopped));
        // The per-second reports add up to the tally the slot closed
        // with, which is what the channels credited before hanging up.
        let tally = field(stop, "verified");
        assert!(tally > 0, "measurer {ix} verified nothing");
        assert_eq!(reported[ix], tally, "measurer {ix}: reports vs the tally at Stop");
        let closed = logged(log, "echo.closed");
        assert_eq!(closed.len(), SOCKETS as usize, "measurer {ix}: {closed:?}");
        let credited: u64 = closed.iter().map(|(_, line)| field(line, "verified")).sum();
        assert_eq!(credited, tally, "measurer {ix}: channel credits vs the tally");
    }
    let last_stop = last_stop.expect("both measurers stopped");
    // Each channel hangs up at its first wakeup or tick after the close,
    // and the relay reads the EOF on its socket's readiness.
    let closed = logged(&logs[2], "channel.closed");
    assert_eq!(closed.len(), 2 * SOCKETS as usize, "relay: {closed:?}");
    for (at, line) in &closed {
        let late = at.saturating_duration_since(last_stop);
        assert!(late <= Duration::from_millis(50), "{line:?} came {late:?} after the last stop");
    }
}

/// What measurer 1's stand-in address does with dials after the first
/// `piped` ones, which it pipes through to the real process.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LaterDials {
    /// Piped through like the first.
    Piped,
    /// Refused: nothing listens any more.
    Refused,
    /// Never answered: every SYN is dropped, so the connect never settles.
    Unanswered,
}

/// A stand-in address for measurer 1 at `real`; it holds its listener
/// until the returned sender is dropped.
fn measurer_stand_in(
    real: SocketAddr,
    piped: usize,
    later: LaterDials,
) -> (SocketAddr, std::sync::mpsc::Sender<()>) {
    use std::os::fd::AsRawFd;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stand-in");
    let addr = listener.local_addr().expect("stand-in addr");
    let (hold, held) = std::sync::mpsc::channel::<()>();
    thread::spawn(move || {
        let forward = |coord: TcpStream| {
            let measurer = TcpStream::connect(real).expect("dial measurer 1");
            pipe(coord.try_clone().expect("clone"), measurer.try_clone().expect("clone"));
            pipe(measurer, coord);
        };
        for _ in 0..piped {
            forward(listener.accept().expect("accept").0);
        }
        match later {
            LaterDials::Piped => {
                while let Ok((coord, _)) = listener.accept() {
                    forward(coord);
                }
            }
            LaterDials::Refused => drop(listener),
            LaterDials::Unanswered => {
                // One connection waits in the accept queue, then the
                // queue shrinks to that one: the kernel drops every later
                // SYN, and the dialer retries until it gives up.
                let _filler = TcpStream::connect(addr).expect("fill the accept queue");
                // SAFETY: `listen(2)`'s POSIX prototype, declared
                // verbatim; the fd belongs to `listener`, which this
                // thread owns until the function returns.
                extern "C" {
                    fn listen(fd: i32, backlog: i32) -> i32;
                }
                // SAFETY: see the declaration; no pointers cross.
                let rc = unsafe { listen(listener.as_raw_fd(), 0) };
                assert_eq!(rc, 0, "shrink the accept queue");
                let _ = held.recv();
            }
        }
    });
    (addr, hold)
}

/// Runs its rounds in order and records every event with when it
/// arrived.
struct Recorded {
    rounds: Vec<Vec<EchoItem>>,
    staged: usize,
    events: Vec<(usize, Instant, EngineEvent)>,
    peers: Vec<Option<flashflow_core::engine::EngineSnapshot>>,
}

impl RoundSource for Recorded {
    fn next_round(&mut self) -> Option<Vec<EchoItem>> {
        let round = self.rounds.get(self.staged).cloned();
        self.staged += 1;
        round
    }
    fn event(&mut self, round: usize, event: EngineEvent) {
        self.events.push((round, Instant::now(), event));
    }
    fn finished(&mut self, round: usize, peers: flashflow_core::engine::EngineSnapshot) {
        self.peers[round] = Some(peers);
    }
}

impl Recorded {
    /// When round `round` released its last `Go`.
    fn last_go(&self, round: usize) -> Instant {
        self.events
            .iter()
            .filter(|(r, _, e)| *r == round && matches!(e, EngineEvent::GoReleased { .. }))
            .map(|(_, at, _)| *at)
            .max()
            .unwrap_or_else(|| panic!("round {round} released no Go: {:?}", self.events))
    }

    /// Median seconds from round 0's last `Go` to each of its
    /// `peer.done`s.
    fn done_lag(&self) -> f64 {
        let go = self.last_go(0);
        let lags: Vec<f64> = self
            .events
            .iter()
            .filter(|(r, _, e)| *r == 0 && matches!(e, EngineEvent::PeerDone { .. }))
            .map(|(_, at, _)| at.saturating_duration_since(go).as_secs_f64())
            .collect();
        median(&lags).expect("round 0 ended")
    }
}

#[test]
fn a_staged_round_that_cannot_dial_never_freezes_the_running_one() {
    let (m0, a0) = spawn_measurer(0, 99);
    let (m1, a1) = spawn_measurer(1, 99);
    let (relay, relay_addr) = spawn_relay(&[], 99);
    // Round 0 (two items) dials measurer 1 through its stand-in; round 1
    // (one item) is staged while round 0 blasts, and dials it again.
    let run = |base: u64, later: LaterDials| {
        let (stand_in, hold) = measurer_stand_in(a1, 2, later);
        let mut source = Recorded {
            rounds: vec![round_items(base)[..2].to_vec(), round_items(base + 1)[..1].to_vec()],
            staged: 0,
            events: Vec::new(),
            peers: vec![None, None],
        };
        run_rounds(&deployment([a0, stand_in], relay_addr), &ConnectionPool::new(), &mut source);
        drop(hold);
        source
    };

    let reference = run(10, LaterDials::Piped);
    for peers in &reference.peers {
        assert!(peers.as_ref().expect("round ended").all_clean(), "{:?}", reference.events);
    }
    for (base, later, reason) in [
        (20, LaterDials::Refused, AbortReason::ConnectionLost),
        (30, LaterDials::Unanswered, AbortReason::HandshakeTimeout),
    ] {
        let bad = run(base, later);
        let [Some(running), Some(staged)] = &bad.peers[..] else { panic!("{later:?}: unfinished") };
        assert!(running.all_clean(), "{later:?}: the running round degraded: {:?}", bad.events);
        // Only the staged item failed: its measurer-1 session, and — when
        // that session holds the item's `Go` until the handshake timeout
        // — possibly the armed peers that waited with it.
        let failed: Vec<_> = bad
            .events
            .iter()
            .filter_map(|(r, _, e)| match e {
                EngineEvent::PeerFailed { peer, reason } => Some((*r, peer.index(), *reason)),
                _ => None,
            })
            .collect();
        assert!(failed.contains(&(1, 1, reason)), "{later:?}: {failed:?}");
        assert!(failed.iter().all(|&(round, ..)| round == 1), "{later:?}: {failed:?}");
        assert!(!staged.item_clean(0), "{later:?}: the staged item must degrade");
        // The running round's peers finished when they finish without
        // the bad dial (within two loop waits).
        let (lag, reference_lag) = (bad.done_lag(), reference.done_lag());
        assert!(
            lag <= reference_lag + 0.002,
            "{later:?}: round 0 ended {:.2} ms after its Go, {:.2} ms without the bad dial",
            lag * 1e3,
            reference_lag * 1e3
        );
    }

    for child in [&m0, &m1, &relay] {
        let kill = Command::new("kill").args(["-TERM", &child.id().to_string()]).status();
        assert!(kill.expect("send SIGTERM").success(), "kill -TERM failed");
    }
    wait_exit_zero(vec![("measurer-0", m0), ("measurer-1", m1), ("relay", relay)]);
}
