//! The daemon harness: `flashflow-coord` as a real process driving real
//! `flashflow-measurer` / `flashflow-relay` processes over loopback.
//!
//! Seven scenarios:
//!
//! 1. **End to end** — one `--once` daemon invocation walks a small
//!    Shadow roster against the live team, and the state directory ends
//!    up with a sealed journal, a period file, and a consensus document
//!    whose normalized weights sum to 1 with the TorFlow-baseline
//!    comparison attached.
//! 2. **Crash recovery** — the daemon is SIGKILLed mid-roster (after
//!    the journal proves an item is in flight), restarted against the
//!    same state directory, and must finish the period **without
//!    re-measuring a completed relay**, re-running the interrupted item
//!    as attempt `n+1` (journal shows a resumed `item.start`), against
//!    the *same* long-lived peer processes — which then drain to exit 0
//!    on SIGTERM, proving the parked sessions were re-adopted, not
//!    orphaned.
//! 3. **Refused resume** — the daemon is SIGKILLed mid-roster *and* one
//!    measurer is killed and restarted on the same `--listen` port
//!    before the daemon comes back. The replacement's fresh replay
//!    window cannot honor the `Resume` lineage proof, so it refuses the
//!    resumed handshake — and the daemon must fall back to a fresh
//!    `Auth` as attempt `n+1` (journal shows both starts) and still
//!    finish the period with every relay measured exactly once, all
//!    clean.
//! 4. **Concurrent round** — given team capacity for three items, the
//!    daemon measures a three-relay roster in one round whose three
//!    `Go` barriers release together, on one coordinator thread.
//! 5. **Two rounds in flight** — the daemon is SIGKILLed while the
//!    journal holds round n+1's starts but not round n's end; the
//!    restart resumes both rounds' items as attempt n+1 and measures
//!    every relay exactly once.
//! 6. **Slot clock** — round n+1 is armed before round n's last
//!    `peer.done`, and consecutive rounds' `Go`s are a slot apart.
//! 7. **Refused resume, last round** — like 3, but the refused item is
//!    the only one left: its retry is queued after every planned round
//!    has been staged, and the period still waits for it.

use std::io::{BufRead, BufReader, Read as _};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use flashflow_coord::journal;
use flashflow_obs::{Event, Json};
use flashflow_proto::msg::AUTH_TOKEN_LEN;

/// Both sides run their clocks at this multiple of wall time.
const SPEEDUP: f64 = 10.0;

fn token_for(peer_ix: usize) -> [u8; AUTH_TOKEN_LEN] {
    [peer_ix as u8 + 0x31; AUTH_TOKEN_LEN]
}

fn token_hex(peer_ix: usize) -> String {
    token_for(peer_ix).iter().map(|b| format!("{b:02x}")).collect()
}

/// Locates a sibling workspace binary next to this test's own
/// executable, asking cargo to (re)build it first (fast no-op when
/// current; a filtered `cargo test -p flashflow-coord` does not build
/// other packages' binaries by itself).
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

fn child_stderr() -> Stdio {
    if std::env::var_os("FF_COORD_DEBUG").is_some() {
        Stdio::inherit()
    } else {
        Stdio::null()
    }
}

/// Spawns a process and reads its advertised `listening <addr>` line.
fn spawn_listener(bin: PathBuf, args: &[String]) -> (Child, SocketAddr) {
    let mut child = Command::new(&bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(child_stderr())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {bin:?}: {e}"));
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

/// Spawns a measurer that serves until SIGTERM (no `--sessions`): the
/// daemon's peers must outlive any one coordinator incarnation.
fn spawn_measurer(peer_ix: usize) -> (Child, SocketAddr) {
    spawn_measurer_at(peer_ix, "127.0.0.1:0")
}

/// Like [`spawn_measurer`] with an explicit `--listen` address — how a
/// replacement process re-takes a dead measurer's configured port.
fn spawn_measurer_at(peer_ix: usize, listen: &str) -> (Child, SocketAddr) {
    let args: Vec<String> = [
        "--listen",
        listen,
        "--role",
        "measurer",
        "--token-hex",
        &token_hex(peer_ix),
        "--speedup",
        &SPEEDUP.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    spawn_listener(sibling_bin("flashflow-measurer"), &args)
}

fn spawn_relay() -> (Child, SocketAddr) {
    let args: Vec<String> = [
        "--listen",
        "127.0.0.1:0",
        "--token-hex",
        &token_hex(9),
        "--background",
        "20000",
        "--speedup",
        &SPEEDUP.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    spawn_listener(sibling_bin("flashflow-relay"), &args)
}

/// Spawns `flashflow-coord` against the peers; stdout is piped for the
/// caller to drain.
fn spawn_coord(
    state_dir: &Path,
    measurers: &[SocketAddr],
    relay: SocketAddr,
    relays: usize,
    slot_secs: u32,
) -> Child {
    spawn_coord_with(state_dir, measurers, relay, relays, slot_secs, &[])
}

/// [`spawn_coord`] with scenario-specific settings appended.
fn spawn_coord_with(
    state_dir: &Path,
    measurers: &[SocketAddr],
    relay: SocketAddr,
    relays: usize,
    slot_secs: u32,
    extra: &[(&str, String)],
) -> Child {
    let mut args: Vec<String> = Vec::new();
    for (k, v) in [
        ("--state-dir", state_dir.display().to_string()),
        ("--roster", "shadow".to_string()),
        ("--seed", "7".to_string()),
        ("--relays", relays.to_string()),
        ("--relay", relay.to_string()),
        ("--token-hex", token_hex(0)),
        ("--relay-token-hex", token_hex(9)),
        ("--measurer-rate", "200000".to_string()),
        ("--slot-secs", slot_secs.to_string()),
        ("--speedup", SPEEDUP.to_string()),
        ("--dirauths", "3".to_string()),
        ("--once", "true".to_string()),
    ] {
        args.push(k.to_string());
        args.push(v);
    }
    for (k, v) in extra {
        args.push((*k).to_string());
        args.push(v.clone());
    }
    for m in measurers {
        args.push("--measurer".to_string());
        args.push(m.to_string());
    }
    Command::new(PathBuf::from(env!("CARGO_BIN_EXE_flashflow-coord")))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(child_stderr())
        .spawn()
        .expect("spawn flashflow-coord")
}

/// Waits for a child to exit 0 (30 s deadline) and returns its stdout.
fn wait_success(name: &str, mut child: Child) -> String {
    let mut stdout = child.stdout.take().expect("child stdout");
    let reader = thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
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
    let text = reader.join().expect("join stdout reader");
    assert!(status.success(), "{name} exited with {status}; stdout:\n{text}");
    text
}

/// SIGTERMs the long-lived peers and asserts they drain to exit 0 —
/// the "no orphaned sessions" check: a peer wedged on a parked
/// conversation would blow the deadline instead.
fn terminate_peers(children: Vec<(&'static str, Child)>) {
    for (name, mut child) in children {
        // SAFETY: `kill(2)` has this exact POSIX prototype on every
        // libc we target; the pid comes from a live `Child` this test
        // owns, so signal 15 cannot stray outside the harness.
        unsafe {
            // SAFETY: `kill(2)`'s POSIX prototype, declared verbatim.
            extern "C" {
                fn kill(pid: i32, sig: i32) -> i32;
            }
            assert_eq!(kill(child.id() as i32, 15), 0, "SIGTERM {name}");
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = child.try_wait().expect("try_wait") {
                break status;
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                panic!("{name} did not drain after SIGTERM");
            }
            thread::sleep(Duration::from_millis(10));
        };
        assert!(status.success(), "{name} exited with {status}");
    }
}

fn temp_state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-coord-harness-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk state dir");
    dir
}

fn read_consensus(state_dir: &Path) -> Json {
    let text =
        std::fs::read_to_string(state_dir.join("consensus.json")).expect("consensus written");
    Json::parse(text.trim()).expect("consensus parses")
}

#[test]
fn daemon_measures_the_roster_and_emits_a_consensus() {
    const RELAYS: usize = 4;
    let state_dir = temp_state_dir("e2e");
    let (m0, a0) = spawn_measurer(0);
    let (m1, a1) = spawn_measurer(0); // same team token: one --token-hex
    let (relay, relay_addr) = spawn_relay();

    let coord = spawn_coord(&state_dir, &[a0, a1], relay_addr, RELAYS, 2);
    let stdout = wait_success("flashflow-coord", coord);
    assert!(
        stdout.contains(&format!("coordinating {RELAYS} relays")),
        "missing roster banner:\n{stdout}"
    );
    assert!(
        stdout.contains(&format!("period 1 complete entries {RELAYS}")),
        "missing completion line:\n{stdout}"
    );

    // The journal sealed the period, with every relay measured once.
    let state = journal::recover(&state_dir.join("journal.jsonl")).expect("recover");
    assert_eq!(state.period, 1);
    assert!(state.period_done, "period must be sealed");
    assert_eq!(state.done.len(), RELAYS);
    assert!(state.in_flight.is_empty());
    assert!(state.done.values().all(|d| d.clean), "honest peers: {:?}", state.done);

    // The consensus document: every relay voted in, weights normalized,
    // the TorFlow baseline alongside.
    let doc = read_consensus(&state_dir);
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("flashflow.coord.consensus.v1"));
    assert_eq!(doc.get("measured").unwrap().as_u64(), Some(RELAYS as u64));
    let entries = doc.get("entries").unwrap().as_arr().unwrap();
    assert_eq!(entries.len(), RELAYS);
    let norm_sum: f64 =
        entries.iter().map(|e| e.get("normalized").unwrap().as_f64().unwrap()).sum();
    assert!((norm_sum - 1.0).abs() < 1e-9, "normalized weights sum to 1: {norm_sum}");
    let balance = doc.get("balance").unwrap();
    assert_eq!(balance.get("baseline").unwrap().as_str(), Some("torflow"));
    assert!(balance.get("max_abs_diff").unwrap().as_f64().unwrap().is_finite());

    terminate_peers(vec![("measurer-0", m0), ("measurer-1", m1), ("relay", relay)]);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn sigkilled_daemon_resumes_the_roster_without_remeasuring() {
    const RELAYS: usize = 3;
    let state_dir = temp_state_dir("crash");
    let journal_path = state_dir.join("journal.jsonl");
    let (m0, a0) = spawn_measurer(0);
    let (m1, a1) = spawn_measurer(0);
    let (relay, relay_addr) = spawn_relay();

    // Incarnation 1: slot long enough (8 sped-up seconds ≈ 0.8 s wall
    // per item, one item per round) that the kill lands mid-roster.
    let mut first = spawn_coord(&state_dir, &[a0, a1], relay_addr, RELAYS, 8);
    // Wait for the journal to prove an item is in flight...
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let text = std::fs::read_to_string(&journal_path).unwrap_or_default();
        if text.contains("item.start") {
            break;
        }
        assert!(Instant::now() < deadline, "no item.start journaled; journal:\n{text}");
        thread::sleep(Duration::from_millis(20));
    }
    // ...then SIGKILL mid-measurement. No drain, no goodbye: the peers'
    // sessions are parked with the item's nonces in their replay
    // windows.
    thread::sleep(Duration::from_millis(200));
    first.kill().expect("SIGKILL coordinator");
    let _ = first.wait();

    let killed_state = journal::recover(&journal_path).expect("recover after kill");
    assert!(!killed_state.period_done, "the kill must land mid-period");
    let done_before: Vec<u64> = killed_state.done.keys().copied().collect();
    assert!(
        killed_state.done.len() < RELAYS,
        "the kill landed too late to exercise recovery (done: {done_before:?})"
    );

    // Incarnation 2: same state dir, same peers. It must finish the
    // period — resuming, not restarting.
    let second = spawn_coord(&state_dir, &[a0, a1], relay_addr, RELAYS, 8);
    let stdout = wait_success("flashflow-coord (restarted)", second);
    assert!(
        stdout.contains(&format!("period 1 complete entries {RELAYS}")),
        "restart must complete period 1:\n{stdout}"
    );

    // The journal tells the whole story: one period, every relay done
    // exactly once, and the interrupted item re-commanded as a resumed
    // attempt.
    let text = std::fs::read_to_string(&journal_path).expect("journal");
    let records: Vec<journal::Record> = text.lines().filter_map(journal::Record::parse).collect();
    let period_starts =
        records.iter().filter(|r| matches!(r, journal::Record::PeriodStart { .. })).count();
    assert_eq!(period_starts, 1, "the restart must continue period 1, not begin period 2");
    let mut done_count = std::collections::BTreeMap::new();
    let mut resumed_starts = 0u64;
    for record in &records {
        match record {
            journal::Record::ItemDone { ix, .. } => *done_count.entry(*ix).or_insert(0u32) += 1,
            journal::Record::ItemStart { attempt, .. } if *attempt > 0 => resumed_starts += 1,
            _ => {}
        }
    }
    assert_eq!(done_count.len(), RELAYS, "every relay measured: {done_count:?}");
    assert!(done_count.values().all(|&n| n == 1), "no relay may be measured twice: {done_count:?}");
    assert!(resumed_starts >= 1, "the interrupted item must restart as attempt n+1");
    for ix in done_before {
        assert_eq!(done_count.get(&ix), Some(&1), "completed item {ix} must not re-run");
    }

    let state = journal::recover(&journal_path).expect("recover final");
    assert!(state.period_done);
    assert_eq!(state.resumed_starts, resumed_starts);

    // The consensus covers the full roster despite the crash.
    let doc = read_consensus(&state_dir);
    assert_eq!(doc.get("measured").unwrap().as_u64(), Some(RELAYS as u64));
    assert_eq!(doc.get("entries").unwrap().as_arr().unwrap().len(), RELAYS);

    // And the peers drain cleanly: the SIGKILL orphaned nothing they
    // cannot let go of.
    terminate_peers(vec![("measurer-0", m0), ("measurer-1", m1), ("relay", relay)]);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn sigkill_with_two_rounds_in_flight_resumes_both() {
    const RELAYS: usize = 4;
    let state_dir = temp_state_dir("two-in-flight");
    let journal_path = state_dir.join("journal.jsonl");
    let (m0, a0) = spawn_measurer(0);
    let (m1, a1) = spawn_measurer(0);
    let (relay, relay_addr) = spawn_relay();

    // One item per round, 0.8 s of wall per slot. Round n+1 is staged
    // once round n's Go is out, so for most of round n's slot the
    // journal holds both rounds' starts and neither round's end.
    let mut first = spawn_coord(&state_dir, &[a0, a1], relay_addr, RELAYS, 8);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let text = std::fs::read_to_string(&journal_path).unwrap_or_default();
        if text.matches("\"item.start\"").count() >= 2 {
            assert!(!text.contains("round.done"), "round n ended before n+1 was staged:\n{text}");
            break;
        }
        assert!(Instant::now() < deadline, "round n+1 never staged; journal:\n{text}");
        thread::sleep(Duration::from_millis(2));
    }
    // Let round n+1's handshakes reach the peers (a few milliseconds on
    // loopback), so their replay windows hold both rounds' nonces: a
    // kill between the journal write and the first `Auth` would leave
    // nothing to resume, and the item would fall back to a fresh `Auth`.
    thread::sleep(Duration::from_millis(100));
    first.kill().expect("SIGKILL coordinator");
    let _ = first.wait();

    let killed = journal::recover(&journal_path).expect("recover after kill");
    assert_eq!(killed.rounds_done, 0, "the kill must land inside round n");
    let interrupted: Vec<u64> = killed.in_flight.keys().copied().collect();
    assert_eq!(interrupted.len(), 2, "both rounds in flight: {interrupted:?}");
    assert!(killed.done.is_empty(), "{:?}", killed.done);

    let second = spawn_coord(&state_dir, &[a0, a1], relay_addr, RELAYS, 8);
    let stdout = wait_success("flashflow-coord (restarted)", second);
    assert!(
        stdout.contains(&format!("period 1 complete entries {RELAYS}")),
        "restart must complete period 1:\n{stdout}"
    );

    let text = std::fs::read_to_string(&journal_path).expect("journal");
    let records: Vec<journal::Record> = text.lines().filter_map(journal::Record::parse).collect();
    let mut done_count = std::collections::BTreeMap::new();
    let mut attempts: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for record in &records {
        match record {
            journal::Record::ItemDone { ix, .. } => *done_count.entry(*ix).or_insert(0u32) += 1,
            journal::Record::ItemStart { ix, attempt, .. } => {
                attempts.entry(*ix).or_default().push(*attempt);
            }
            _ => {}
        }
    }
    assert_eq!(done_count.len(), RELAYS, "every relay measured: {done_count:?}");
    assert!(done_count.values().all(|&n| n == 1), "one item.done per relay: {done_count:?}");
    // Both rounds' unfinished items were re-commanded as attempt n+1.
    for ix in &interrupted {
        assert_eq!(attempts[ix], vec![0, 1], "item {ix}: {attempts:?}");
    }
    let state = journal::recover(&journal_path).expect("recover final");
    assert!(state.period_done && state.in_flight.is_empty());
    assert!(state.done.values().all(|d| d.clean), "{:?}", state.done);

    terminate_peers(vec![("measurer-0", m0), ("measurer-1", m1), ("relay", relay)]);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn the_next_round_handshakes_during_the_slot_and_goes_when_it_ends() {
    const RELAYS: usize = 4;
    const SLOT_SECS: u32 = 4;
    let slot_wall = f64::from(SLOT_SECS) / SPEEDUP;
    let state_dir = temp_state_dir("slot-clock");
    let log_path = state_dir.join("coord.jsonl");
    let (m0, a0) = spawn_measurer(0);
    let (m1, a1) = spawn_measurer(0);
    let (relay, relay_addr) = spawn_relay();

    // One item per round, so each trace is one round.
    let coord = spawn_coord_with(
        &state_dir,
        &[a0, a1],
        relay_addr,
        RELAYS,
        SLOT_SECS,
        &[("--log-json", log_path.display().to_string())],
    );
    let stdout = wait_success("flashflow-coord", coord);
    assert!(stdout.contains(&format!("period 1 complete entries {RELAYS}")), "{stdout}");

    let text = std::fs::read_to_string(&log_path).expect("coordinator JSONL");
    let events: Vec<Event> = text
        .lines()
        .map(|line| Event::parse_json_line(line).unwrap_or_else(|e| panic!("{line:?}: {e}")))
        .collect();
    // Per round, in slot order: its Go, its last peer.ready, its last
    // peer.done. The Go is read on the loop's clock (`at_secs`, sped
    // up): `ts` is stamped when the event is written, after the step
    // that sent the Go, and a preempted coordinator shifts it.
    let last = |kind: &str, trace: u64| {
        events
            .iter()
            .filter(|e| e.kind == kind && e.scope.trace == Some(trace))
            .map(|e| e.ts)
            .fold(f64::MIN, f64::max)
    };
    let mut rounds: Vec<(f64, f64, f64)> = events
        .iter()
        .filter(|e| e.kind == "slot.go")
        .map(|e| {
            let trace = e.scope.trace.expect("a slot.go carries its trace");
            let go = e.f64_field("at_secs").expect("a slot.go carries at_secs") / SPEEDUP;
            (go, last("peer.ready", trace), last("peer.done", trace))
        })
        .collect();
    rounds.sort_by(|a, b| a.0.total_cmp(&b.0));
    assert_eq!(rounds.len(), RELAYS, "{rounds:?}");
    for pair in rounds.windows(2) {
        let ((go, _, done), (next_go, next_ready, _)) = (pair[0], pair[1]);
        assert!(
            next_ready < done,
            "round n+1 armed at {next_ready:.4}, after round n ended at {done:.4}"
        );
        assert!(
            next_go - go >= slot_wall - 0.001,
            "Gos {:.4}s apart, closer than one {slot_wall}s slot: {rounds:?}",
            next_go - go
        );
    }

    terminate_peers(vec![("measurer-0", m0), ("measurer-1", m1), ("relay", relay)]);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn restarted_measurer_refuses_resume_and_the_item_falls_back_to_fresh_auth() {
    const RELAYS: usize = 3;
    let state_dir = temp_state_dir("refused");
    let journal_path = state_dir.join("journal.jsonl");
    let (m0, a0) = spawn_measurer(0);
    let (m1, a1) = spawn_measurer(0);
    let (relay, relay_addr) = spawn_relay();

    // Incarnation 1: killed mid-item, exactly like the crash-recovery
    // scenario — the journal is left with an in-flight item whose
    // nonces sit in the live peers' replay windows.
    let mut first = spawn_coord(&state_dir, &[a0, a1], relay_addr, RELAYS, 8);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let text = std::fs::read_to_string(&journal_path).unwrap_or_default();
        if text.contains("item.start") {
            break;
        }
        assert!(Instant::now() < deadline, "no item.start journaled; journal:\n{text}");
        thread::sleep(Duration::from_millis(20));
    }
    thread::sleep(Duration::from_millis(200));
    first.kill().expect("SIGKILL coordinator");
    let _ = first.wait();

    let killed_state = journal::recover(&journal_path).expect("recover after kill");
    assert!(!killed_state.period_done, "the kill must land mid-period");
    assert!(
        killed_state.done.len() < RELAYS,
        "the kill landed too late to exercise recovery (done: {:?})",
        killed_state.done.keys().collect::<Vec<_>>()
    );

    // Kill one measurer too — and restart it on the *same* port (the
    // process's SO_REUSEADDR listener makes the rebind race-free even
    // with the dead incarnation's connections in TIME_WAIT). The
    // replacement has a fresh replay window: it has witnessed nothing,
    // so the coming `Resume` lineage proof *must* fail against it.
    let mut m1 = m1;
    m1.kill().expect("SIGKILL measurer-1");
    let _ = m1.wait();
    let (m1, a1_again) = spawn_measurer_at(0, &a1.to_string());
    assert_eq!(a1_again, a1, "the replacement must re-take the configured port");

    // Incarnation 2: resumes the in-flight item. The restarted measurer
    // refuses the `Resume` (AuthFailed), and the daemon must fall back
    // to a fresh `Auth` attempt — finishing the period regardless.
    let second = spawn_coord(&state_dir, &[a0, a1], relay_addr, RELAYS, 8);
    let stdout = wait_success("flashflow-coord (restarted)", second);
    assert!(
        stdout.contains(&format!("period 1 complete entries {RELAYS}")),
        "restart must complete period 1:\n{stdout}"
    );

    // The journal shows the full lineage: a resumed start (attempt
    // n+1 ≥ 1) *and* a fresh-fallback start (attempt n+2 ≥ 2) for the
    // interrupted item, one completion per relay, everything clean.
    let text = std::fs::read_to_string(&journal_path).expect("journal");
    let records: Vec<journal::Record> = text.lines().filter_map(journal::Record::parse).collect();
    let mut done_count = std::collections::BTreeMap::new();
    let mut max_attempt = std::collections::BTreeMap::new();
    for record in &records {
        match record {
            journal::Record::ItemDone { ix, .. } => *done_count.entry(*ix).or_insert(0u32) += 1,
            journal::Record::ItemStart { ix, attempt, .. } => {
                let slot = max_attempt.entry(*ix).or_insert(0u64);
                *slot = (*slot).max(*attempt);
            }
            _ => {}
        }
    }
    assert_eq!(done_count.len(), RELAYS, "every relay measured: {done_count:?}");
    assert!(done_count.values().all(|&n| n == 1), "no relay may be measured twice: {done_count:?}");
    assert!(
        max_attempt.values().any(|&a| a >= 2),
        "the refused resume must journal a fresh-Auth fallback start (attempts: {max_attempt:?})"
    );

    let state = journal::recover(&journal_path).expect("recover final");
    assert!(state.period_done);
    assert!(state.in_flight.is_empty());
    // The fallback's fresh handshake must have produced a *clean*
    // measurement — a degraded one would mean the daemon accepted the
    // refused attempt's crippled estimate instead of re-running.
    assert!(
        state.done.values().all(|d| d.clean),
        "refused item must re-run clean: {:?}",
        state.done
    );

    let doc = read_consensus(&state_dir);
    assert_eq!(doc.get("measured").unwrap().as_u64(), Some(RELAYS as u64));

    terminate_peers(vec![("measurer-0", m0), ("measurer-1", m1), ("relay", relay)]);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn a_refused_resume_in_the_last_round_is_retried_before_the_period_closes() {
    const RELAYS: usize = 3;
    let state_dir = temp_state_dir("refused-last");
    let journal_path = state_dir.join("journal.jsonl");
    let (m0, a0) = spawn_measurer(0);
    let (m1, a1) = spawn_measurer(0);
    let (relay, relay_addr) = spawn_relay();

    // Incarnation 1: one item per round, 0.8 s of wall per slot. Once
    // rounds 0 and 1 are journaled done, round 2 (the last) is mid-slot.
    let mut first = spawn_coord(&state_dir, &[a0, a1], relay_addr, RELAYS, 8);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let text = std::fs::read_to_string(&journal_path).unwrap_or_default();
        if text.matches("\"item.done\"").count() >= RELAYS - 1 {
            break;
        }
        assert!(Instant::now() < deadline, "no item.done journaled; journal:\n{text}");
        thread::sleep(Duration::from_millis(2));
    }
    thread::sleep(Duration::from_millis(100));
    first.kill().expect("SIGKILL coordinator");
    let _ = first.wait();
    let killed = journal::recover(&journal_path).expect("recover after kill");
    assert_eq!(killed.done.len(), RELAYS - 1, "{:?}", killed.done);
    assert_eq!(killed.in_flight.len(), 1, "the last round in flight: {:?}", killed.in_flight);

    // A restarted measurer refuses the `Resume` of the only round left;
    // its fresh-`Auth` retry is queued once that round has ended, with
    // no planned round after it.
    let mut m1 = m1;
    m1.kill().expect("SIGKILL measurer-1");
    let _ = m1.wait();
    let (m1, a1_again) = spawn_measurer_at(0, &a1.to_string());
    assert_eq!(a1_again, a1, "the replacement must re-take the configured port");

    let second = spawn_coord(&state_dir, &[a0, a1], relay_addr, RELAYS, 8);
    let stdout = wait_success("flashflow-coord (restarted)", second);
    assert!(stdout.contains(&format!("period 1 complete entries {RELAYS}")), "{stdout}");

    let text = std::fs::read_to_string(&journal_path).expect("journal");
    let records: Vec<journal::Record> = text.lines().filter_map(journal::Record::parse).collect();
    let mut done_count = std::collections::BTreeMap::new();
    let mut max_attempt = 0;
    for record in &records {
        match record {
            journal::Record::ItemDone { ix, .. } => *done_count.entry(*ix).or_insert(0u32) += 1,
            journal::Record::ItemStart { attempt, .. } => max_attempt = max_attempt.max(*attempt),
            _ => {}
        }
    }
    assert_eq!(done_count.len(), RELAYS, "every relay measured: {done_count:?}");
    assert!(done_count.values().all(|&n| n == 1), "one item.done per relay: {done_count:?}");
    assert!(max_attempt >= 2, "the refused resume must be retried with a fresh Auth");
    let state = journal::recover(&journal_path).expect("recover final");
    assert!(state.period_done && state.in_flight.is_empty());
    assert!(state.done.values().all(|d| d.clean), "{:?}", state.done);
    assert_eq!(read_consensus(&state_dir).get("measured").unwrap().as_u64(), Some(RELAYS as u64));

    terminate_peers(vec![("measurer-0", m0), ("measurer-1", m1), ("relay", relay)]);
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// The `Threads:` figure from `/proc/<pid>/status`.
fn thread_count(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read /proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

#[test]
fn a_round_runs_its_items_concurrently_on_one_thread() {
    const RELAYS: usize = 3;
    const SLOT_SECS: u32 = 10;
    // One slot, in wall seconds.
    let slot_wall = f64::from(SLOT_SECS) / SPEEDUP;
    let state_dir = temp_state_dir("concurrent");
    let log_path = state_dir.join("coord.jsonl");
    let (m0, a0) = spawn_measurer(0);
    let (m1, a1) = spawn_measurer(0);
    let (relay, relay_addr) = spawn_relay();

    // Team capacity worth three items (two measurers at 200 kB/s each
    // per item) and nothing said about how to run them.
    let coord = spawn_coord_with(
        &state_dir,
        &[a0, a1],
        relay_addr,
        RELAYS,
        SLOT_SECS,
        &[
            ("--team-capacity", (3 * 2 * 200_000).to_string()),
            ("--log-json", log_path.display().to_string()),
        ],
    );

    // While the round runs (a Go has released, the slot is a second
    // long): the coordinator is one thread, however many items it
    // drives.
    let deadline = Instant::now() + Duration::from_secs(20);
    while !std::fs::read_to_string(&log_path).unwrap_or_default().contains("\"slot.go\"") {
        assert!(Instant::now() < deadline, "no slot.go logged");
        thread::sleep(Duration::from_millis(10));
    }
    let threads = thread_count(coord.id());
    assert!(threads <= 2, "the coordinator runs {threads} threads mid-round");

    let stdout = wait_success("flashflow-coord", coord);
    assert!(stdout.contains(&format!("period 1 complete entries {RELAYS}")), "{stdout}");

    let text = std::fs::read_to_string(&log_path).expect("coordinator JSONL");
    let events: Vec<Event> = text
        .lines()
        .map(|line| Event::parse_json_line(line).unwrap_or_else(|e| panic!("{line:?}: {e}")))
        .collect();
    let ts_of = |kind: &str| -> Vec<f64> {
        events.iter().filter(|e| e.kind == kind).map(|e| e.ts).collect()
    };
    let round_starts = ts_of("round.start");
    assert_eq!(round_starts.len(), 1, "three items fit one round");
    let gos = ts_of("slot.go");
    assert_eq!(gos.len(), RELAYS, "one Go per item");
    let spread =
        gos.iter().fold(0.0f64, |m, t| m.max(*t)) - gos.iter().fold(f64::MAX, |m, t| m.min(*t));
    assert!(
        spread < slot_wall / 2.0,
        "the round's Go barriers released {spread:.3}s apart (slot {slot_wall}s): {gos:?}"
    );
    let done = ts_of("period.complete");
    assert_eq!(done.len(), 1);
    let wall = done[0] - round_starts[0];
    assert!(wall < 2.0 * slot_wall, "three concurrent slots took {wall:.3}s (slot {slot_wall}s)");

    let state = journal::recover(&state_dir.join("journal.jsonl")).expect("recover");
    assert!(state.period_done && state.done.values().all(|d| d.clean), "{:?}", state.done);

    terminate_peers(vec![("measurer-0", m0), ("measurer-1", m1), ("relay", relay)]);
    let _ = std::fs::remove_dir_all(&state_dir);
}
