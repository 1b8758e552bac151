//! The daemon harness: `flashflow-coord` as a real process driving real
//! `flashflow-measurer` / `flashflow-relay` processes over loopback.
//!
//! Eight scenarios:
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
//!    as attempt `n+1` (journal shows an `item.start` with attempt > 0),
//!    against the *same* long-lived peer processes — which then drain to
//!    exit 0 on SIGTERM, proving the killed coordinator's sessions
//!    orphaned nothing.
//! 3. **Peer restarted while the daemon was down** — the daemon is
//!    SIGKILLed mid-roster *and* one measurer is killed and restarted on
//!    the same `--listen` port before the daemon comes back. The
//!    interrupted item's attempt 1 opens with a plain `Auth` whose
//!    nonces neither the surviving peers nor the replacement (fresh
//!    replay window) have seen, so it runs clean at attempt exactly 1
//!    and the period finishes with every relay measured exactly once.
//! 4. **Concurrent round** — given team capacity for three items, the
//!    daemon measures a three-relay roster in one round whose three
//!    `Go` barriers release together, on one coordinator thread.
//! 5. **Two rounds in flight** — the daemon is SIGKILLed while the
//!    journal holds round n+1's starts but not round n's end; the
//!    restart re-commands both rounds' items as attempt n+1 and measures
//!    every relay exactly once.
//! 6. **Slot clock** — round n+1 is armed before round n's last
//!    `peer.done`, and consecutive rounds' `Go`s are a slot apart.
//! 7. **Peer restarted while the daemon was down, last round** — like
//!    3, but the interrupted item is the only one left: it is the whole
//!    of the restart's plan, and runs clean at attempt exactly 1.
//! 8. **Peer restart between periods** — a continuous daemon measures a
//!    second period after one measurer was SIGKILLed and respawned on
//!    its port during the interval: the dead peer's parked connection
//!    is discarded and redialed at checkout, and period 2 is all clean.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use flashflow_coord::journal;
use flashflow_harness::{
    bin, drain_all, read_jsonl, spawn_measurer, spawn_relay, thread_count, token_hex, Proc, RELAY,
    SPEEDUP,
};
use flashflow_obs::{Event, Json};

/// A team measurer that serves until SIGTERM (no `--sessions`): the
/// daemon's peers must outlive any one coordinator incarnation. Every
/// measurer holds peer 0's token, the team's one `--token-hex`.
fn team_measurer() -> (Proc, SocketAddr) {
    spawn_measurer(0, None, &[])
}

/// [`team_measurer`] on an explicit `--listen` address — how a
/// replacement process re-takes a dead measurer's configured port.
fn team_measurer_at(listen: SocketAddr) -> (Proc, SocketAddr) {
    spawn_measurer(0, None, &["--listen", &listen.to_string()])
}

fn target_relay() -> (Proc, SocketAddr) {
    spawn_relay(None, &["--background", "20000"])
}

/// Spawns `flashflow-coord` against the peers.
fn spawn_coord(
    state_dir: &Path,
    measurers: &[SocketAddr],
    relay: SocketAddr,
    relays: usize,
    slot_secs: u32,
) -> Proc {
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
) -> Proc {
    let mut args: Vec<String> = Vec::new();
    for (k, v) in [
        ("--state-dir", state_dir.display().to_string()),
        ("--roster", "shadow".to_string()),
        ("--seed", "7".to_string()),
        ("--relays", relays.to_string()),
        ("--relay", relay.to_string()),
        ("--token-hex", token_hex(0)),
        ("--relay-token-hex", token_hex(RELAY)),
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
    Proc::spawn("flashflow-coord", &bin("flashflow-coord"), args)
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

/// The journal of a period a restarted daemon finished: every relay
/// done exactly once, and each `interrupted` item started at attempts 0
/// and 1 only (no fallback round) and done clean.
fn assert_interrupted_items_ran_clean_at_attempt_one(
    journal_path: &Path,
    interrupted: &[u64],
    relays: usize,
) {
    let text = std::fs::read_to_string(journal_path).expect("journal");
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
    assert_eq!(done_count.len(), relays, "every relay measured: {done_count:?}");
    assert!(done_count.values().all(|&n| n == 1), "no relay may be measured twice: {done_count:?}");
    let state = journal::recover(journal_path).expect("recover final");
    assert!(state.period_done && state.in_flight.is_empty());
    for ix in interrupted {
        assert_eq!(attempts[ix], vec![0, 1], "item {ix} must re-run once, at attempt 1");
        assert!(state.done[ix].clean, "item {ix} must re-run clean: {:?}", state.done);
    }
    assert!(state.done.values().all(|d| d.clean), "{:?}", state.done);
}

#[test]
fn daemon_measures_the_roster_and_emits_a_consensus() {
    const RELAYS: usize = 4;
    let state_dir = temp_state_dir("e2e");
    let (m0, a0) = team_measurer();
    let (m1, a1) = team_measurer();
    let (relay, relay_addr) = target_relay();

    let mut coord = spawn_coord(&state_dir, &[a0, a1], relay_addr, RELAYS, 2);
    let stdout = coord.exit_zero();
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

    drain_all([m0, m1, relay]);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn sigkilled_daemon_resumes_the_roster_without_remeasuring() {
    const RELAYS: usize = 3;
    let state_dir = temp_state_dir("crash");
    let journal_path = state_dir.join("journal.jsonl");
    let (m0, a0) = team_measurer();
    let (m1, a1) = team_measurer();
    let (relay, relay_addr) = target_relay();

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
    // ...then SIGKILL mid-measurement. No drain, no goodbye: the item's
    // nonces sit in the peers' replay windows.
    thread::sleep(Duration::from_millis(200));
    first.kill();

    let killed_state = journal::recover(&journal_path).expect("recover after kill");
    assert!(!killed_state.period_done, "the kill must land mid-period");
    let done_before: Vec<u64> = killed_state.done.keys().copied().collect();
    assert!(
        killed_state.done.len() < RELAYS,
        "the kill landed too late to exercise recovery (done: {done_before:?})"
    );

    // Incarnation 2: same state dir, same peers. It must finish the
    // period it found in the journal, not begin a new one.
    let stdout = spawn_coord(&state_dir, &[a0, a1], relay_addr, RELAYS, 8).exit_zero();
    assert!(
        stdout.contains(&format!("period 1 complete entries {RELAYS}")),
        "restart must complete period 1:\n{stdout}"
    );

    // The journal tells the whole story: one period, every relay done
    // exactly once, and the interrupted item re-commanded as attempt
    // n+1.
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
    drain_all([m0, m1, relay]);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn sigkill_with_two_rounds_in_flight_resumes_both() {
    const RELAYS: usize = 4;
    let state_dir = temp_state_dir("two-in-flight");
    let journal_path = state_dir.join("journal.jsonl");
    let (m0, a0) = team_measurer();
    let (m1, a1) = team_measurer();
    let (relay, relay_addr) = target_relay();

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
    // loopback), so their replay windows hold both rounds' nonces when
    // the restart re-commands both items as attempt n+1.
    thread::sleep(Duration::from_millis(100));
    first.kill();

    let killed = journal::recover(&journal_path).expect("recover after kill");
    assert_eq!(killed.rounds_done, 0, "the kill must land inside round n");
    let interrupted: Vec<u64> = killed.in_flight.keys().copied().collect();
    assert_eq!(interrupted.len(), 2, "both rounds in flight: {interrupted:?}");
    assert!(killed.done.is_empty(), "{:?}", killed.done);

    let stdout = spawn_coord(&state_dir, &[a0, a1], relay_addr, RELAYS, 8).exit_zero();
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

    drain_all([m0, m1, relay]);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn the_next_round_handshakes_during_the_slot_and_goes_when_it_ends() {
    const RELAYS: usize = 4;
    const SLOT_SECS: u32 = 4;
    let slot_wall = f64::from(SLOT_SECS) / SPEEDUP;
    let state_dir = temp_state_dir("slot-clock");
    let log_path = state_dir.join("coord.jsonl");
    let (m0, a0) = team_measurer();
    let (m1, a1) = team_measurer();
    let (relay, relay_addr) = target_relay();

    // One item per round, so each trace is one round.
    let mut coord = spawn_coord_with(
        &state_dir,
        &[a0, a1],
        relay_addr,
        RELAYS,
        SLOT_SECS,
        &[("--log-json", log_path.display().to_string())],
    );
    let stdout = coord.exit_zero();
    assert!(stdout.contains(&format!("period 1 complete entries {RELAYS}")), "{stdout}");

    let events = read_jsonl(&log_path);
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

    drain_all([m0, m1, relay]);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn a_measurer_restarted_while_the_daemon_was_down_runs_the_interrupted_item_at_attempt_one() {
    const RELAYS: usize = 3;
    let state_dir = temp_state_dir("peer-restart");
    let journal_path = state_dir.join("journal.jsonl");
    let (m0, a0) = team_measurer();
    let (m1, a1) = team_measurer();
    let (relay, relay_addr) = target_relay();

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
    first.kill();

    let killed_state = journal::recover(&journal_path).expect("recover after kill");
    assert!(!killed_state.period_done, "the kill must land mid-period");
    assert!(
        killed_state.done.len() < RELAYS,
        "the kill landed too late to exercise recovery (done: {:?})",
        killed_state.done.keys().collect::<Vec<_>>()
    );
    let interrupted: Vec<u64> = killed_state.in_flight.keys().copied().collect();
    assert!(!interrupted.is_empty(), "the kill must leave an item in flight");

    // Kill one measurer too — and restart it on the *same* port (the
    // process's SO_REUSEADDR listener makes the rebind race-free even
    // with the dead incarnation's connections in TIME_WAIT). The
    // replacement has a fresh replay window and has witnessed nothing.
    let mut m1 = m1;
    m1.kill();
    let (m1, a1_again) = team_measurer_at(a1);
    assert_eq!(a1_again, a1, "the replacement must re-take the configured port");

    // Incarnation 2: re-commands the in-flight item as attempt 1, whose
    // plain `Auth` every peer accepts, the replacement included.
    let stdout = spawn_coord(&state_dir, &[a0, a1], relay_addr, RELAYS, 8).exit_zero();
    assert!(
        stdout.contains(&format!("period 1 complete entries {RELAYS}")),
        "restart must complete period 1:\n{stdout}"
    );

    assert_interrupted_items_ran_clean_at_attempt_one(&journal_path, &interrupted, RELAYS);
    let doc = read_consensus(&state_dir);
    assert_eq!(doc.get("measured").unwrap().as_u64(), Some(RELAYS as u64));

    drain_all([m0, m1, relay]);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn a_measurer_restarted_while_the_daemon_was_down_runs_the_last_round_at_attempt_one() {
    const RELAYS: usize = 3;
    let state_dir = temp_state_dir("peer-restart-last");
    let journal_path = state_dir.join("journal.jsonl");
    let (m0, a0) = team_measurer();
    let (m1, a1) = team_measurer();
    let (relay, relay_addr) = target_relay();

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
    first.kill();
    let killed = journal::recover(&journal_path).expect("recover after kill");
    assert_eq!(killed.done.len(), RELAYS - 1, "{:?}", killed.done);
    assert_eq!(killed.in_flight.len(), 1, "the last round in flight: {:?}", killed.in_flight);
    let interrupted: Vec<u64> = killed.in_flight.keys().copied().collect();

    // A restarted measurer serves the only round left: attempt 1 of the
    // interrupted item is the restart's whole plan.
    let mut m1 = m1;
    m1.kill();
    let (m1, a1_again) = team_measurer_at(a1);
    assert_eq!(a1_again, a1, "the replacement must re-take the configured port");

    let stdout = spawn_coord(&state_dir, &[a0, a1], relay_addr, RELAYS, 8).exit_zero();
    assert!(stdout.contains(&format!("period 1 complete entries {RELAYS}")), "{stdout}");

    assert_interrupted_items_ran_clean_at_attempt_one(&journal_path, &interrupted, RELAYS);
    assert_eq!(read_consensus(&state_dir).get("measured").unwrap().as_u64(), Some(RELAYS as u64));

    drain_all([m0, m1, relay]);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn a_measurer_restarted_between_periods_is_redialed_and_period_two_is_clean() {
    const RELAYS: usize = 3;
    let state_dir = temp_state_dir("restart-between");
    let journal_path = state_dir.join("journal.jsonl");
    let log_path = state_dir.join("coord.jsonl");
    let (m0, a0) = team_measurer();
    let (m1, a1) = team_measurer();
    let (relay, relay_addr) = target_relay();

    // A continuous daemon whose 2 s interval is inside the pool's reuse
    // window: the surviving peers' parked connections are reused in
    // period 2, the dead peer's must not be.
    let coord = spawn_coord_with(
        &state_dir,
        &[a0, a1],
        relay_addr,
        RELAYS,
        8,
        &[
            ("--once", "false".to_string()),
            ("--interval-secs", "2".to_string()),
            ("--log-json", log_path.display().to_string()),
        ],
    );
    let periods_done = || {
        let text = std::fs::read_to_string(&journal_path).unwrap_or_default();
        text.matches("\"period.done\"").count()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while periods_done() < 1 {
        assert!(Instant::now() < deadline, "period 1 never finished");
        thread::sleep(Duration::from_millis(5));
    }

    // Inside the interval: the measurer dies without a goodbye and a
    // replacement re-takes its port.
    let mut m1 = m1;
    m1.kill();
    let (m1, a1_again) = team_measurer_at(a1);
    assert_eq!(a1_again, a1, "the replacement must re-take the configured port");

    while periods_done() < 2 {
        assert!(Instant::now() < deadline, "period 2 never finished");
        thread::sleep(Duration::from_millis(5));
    }
    drain_all([coord]);

    // Every item of period 2 measured once, clean.
    let text = std::fs::read_to_string(&journal_path).expect("journal");
    let mut period = 0;
    let mut second = Vec::new();
    for record in text.lines().filter_map(journal::Record::parse) {
        match record {
            journal::Record::PeriodStart { period: p, .. } => period = p,
            journal::Record::ItemDone { ix, clean, .. } if period == 2 => second.push((ix, clean)),
            _ => {}
        }
    }
    assert_eq!(second.len(), RELAYS, "period 2 items: {second:?}");
    assert!(second.iter().all(|&(_, clean)| clean), "period 2 must be clean: {second:?}");

    // The pool snapshot that closes period 1 against the first one of
    // period 2: the dead peer's parked connection was discarded and a
    // fresh one dialed, with no probe anywhere.
    let events = read_jsonl(&log_path);
    let period_two = events
        .iter()
        .position(|e| e.kind == "coord.period" && e.scope.period == Some(2))
        .expect("period 2 started");
    let stats: Vec<_> = events.iter().filter(|e| e.kind == "pool.stats").collect();
    assert!(stats.iter().all(|e| e.field("probes").is_none()), "no probes field: {stats:?}");
    let pool = |e: Option<&Event>| {
        let e = e.expect("a pool.stats on each side of the interval");
        (e.u64_field("dials").expect("dials"), e.u64_field("discarded").expect("discarded"))
    };
    let before = events[..period_two].iter().rev().find(|e| e.kind == "pool.stats");
    let after = events[period_two..].iter().find(|e| e.kind == "pool.stats");
    let ((dials_1, discarded_1), (dials_2, discarded_2)) = (pool(before), pool(after));
    assert!(discarded_2 > discarded_1, "dead parked connection discarded: {stats:?}");
    assert!(dials_2 > dials_1, "dead peer redialed: {stats:?}");

    drain_all([m0, m1, relay]);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn a_round_runs_its_items_concurrently_on_one_thread() {
    const RELAYS: usize = 3;
    const SLOT_SECS: u32 = 10;
    // One slot, in wall seconds.
    let slot_wall = f64::from(SLOT_SECS) / SPEEDUP;
    let state_dir = temp_state_dir("concurrent");
    let log_path = state_dir.join("coord.jsonl");
    let (m0, a0) = team_measurer();
    let (m1, a1) = team_measurer();
    let (relay, relay_addr) = target_relay();

    // Team capacity worth three items (two measurers at 200 kB/s each
    // per item) and nothing said about how to run them.
    let mut coord = spawn_coord_with(
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
    let threads = thread_count(coord.pid());
    assert!(threads <= 2, "the coordinator runs {threads} threads mid-round");

    let stdout = coord.exit_zero();
    assert!(stdout.contains(&format!("period 1 complete entries {RELAYS}")), "{stdout}");

    let events = read_jsonl(&log_path);
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

    drain_all([m0, m1, relay]);
    let _ = std::fs::remove_dir_all(&state_dir);
}
