//! A whole coordinator period with no process, socket or wall clock:
//! `flashflow-coord`'s `run_period` (journal, attempts, the vote) on the
//! round loop's in-memory links, against 16 scripted relays of known
//! capacity, and restarted from every point the journal can be cut at.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use flashflow_coord::daemon::{run_period, CoordMetrics, DaemonConfig, Executor, PeriodOutcome};
use flashflow_coord::journal::Record;
use flashflow_coord::roster::{self, Roster, RosterSource};
use flashflow_obs::{EventSink, Json, MetricsRegistry, Span};
use flashflow_repro::core::echo::{EchoDeployment, EchoMeasurer, RoundSource};
use flashflow_repro::core::proto_driver::{simulate_rounds, Scripted, ScriptedRelay};
use flashflow_repro::proto::msg::{TargetEndpoint, AUTH_TOKEN_LEN};

const RELAYS: usize = 16;
/// The measurers' allocations `aᵢ`, bytes/s.
const CAPS: [u64; 2] = [300_000, 150_000];
const ITEMS_PER_ROUND: usize = 4;

fn config(state_dir: PathBuf) -> DaemonConfig {
    DaemonConfig {
        state_dir,
        source: RosterSource::Synth,
        seed: 7,
        relays: Some(RELAYS),
        secret_seed: 3,
        slot_secs: 2,
        team_capacity: Some((ITEMS_PER_ROUND as u64 * CAPS.iter().sum::<u64>()) as f64),
        round_max: 0,
        dirauths: 3,
    }
}

fn deployment() -> EchoDeployment {
    let measurers = CAPS.iter().enumerate().map(|(ix, &rate_cap)| EchoMeasurer {
        addr: ([127, 0, 0, 1], 0).into(),
        token: [0x21 + ix as u8; AUTH_TOKEN_LEN],
        rate_cap,
        sockets: 1,
    });
    EchoDeployment {
        measurers: measurers.collect(),
        relay: TargetEndpoint::NONE,
        relay_token: [0x29; AUTH_TOKEN_LEN],
        speedup: 1.0,
        ratio: 0.25,
    }
}

/// Roster relay `ix`'s capacity `c`: half the relays are below the
/// team's `Σa` and half clip it.
fn capacity(ix: usize) -> u64 {
    60_000 * (ix as u64 + 1)
}

/// What measurer `i` reports of relay `ix` every second: its share
/// `aᵢ·min(1, c/Σa)` of the relay's capacity.
fn reported(ix: usize) -> Vec<u64> {
    let team: u64 = CAPS.iter().sum();
    CAPS.iter().map(|a| a * capacity(ix).min(team) / team).collect()
}

/// Runs one period in `dir` on a fresh in-memory world.
fn run(dir: &Path, roster: &Roster) -> PeriodOutcome {
    let cfg = config(dir.to_path_buf());
    let deployment = deployment();
    let mut world = Scripted::new(
        roster
            .entries
            .iter()
            .map(|e| (e.fp, ScriptedRelay { measured: reported(e.ix), background: 0 })),
    );
    let mut rounds = |walk: &mut dyn RoundSource| simulate_rounds(&deployment, &mut world, walk);
    let executor = Executor { rounds: &mut rounds, pool: None };
    let span = Span::root(EventSink::new());
    let metrics = CoordMetrics::register(&MetricsRegistry::new());
    run_period(&cfg, roster, &deployment, executor, &span, &metrics, &|| false).expect("period")
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-period-mem-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("state dir");
    dir
}

fn journal(dir: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(dir.join("journal.jsonl")).expect("journal");
    text.lines().map(str::to_string).collect()
}

fn record(line: &str) -> Record {
    Record::parse(line).unwrap_or_else(|| panic!("unparsable journal line {line}"))
}

fn consensus(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("consensus.json")).expect("consensus written")
}

/// The items a journal prefix leaves in flight, with their attempts.
fn in_flight(lines: &[String]) -> BTreeMap<u64, u64> {
    let mut open = BTreeMap::new();
    for line in lines {
        match record(line) {
            Record::ItemStart { ix, attempt, .. } => {
                open.insert(ix, attempt);
            }
            Record::ItemDone { ix, .. } => {
                open.remove(&ix);
            }
            _ => {}
        }
    }
    open
}

#[test]
fn a_period_runs_in_memory_and_resumes_from_every_journal_cut() {
    let roster = roster::build(RosterSource::Synth, 7, Some(RELAYS));
    let whole = state_dir("whole");
    let outcome = run(&whole, &roster);
    assert_eq!((outcome.period, outcome.measured, outcome.rounds), (1, RELAYS, 4), "{outcome:?}");
    assert_eq!((outcome.recovered_done, outcome.resumed), (0, 0));
    assert_eq!(outcome.consensus_entries, RELAYS);

    // The journal: one start and one completion per relay, a `RoundDone`
    // per round, between the period's start and its seal.
    let lines = journal(&whole);
    let records: Vec<Record> = lines.iter().map(|line| record(line)).collect();
    assert!(matches!(records.first(), Some(Record::PeriodStart { period: 1, .. })));
    assert!(matches!(records.last(), Some(Record::PeriodDone { period: 1, entries: 16, .. })));
    let (mut starts, mut dones, mut rounds) = (BTreeSet::new(), BTreeSet::new(), Vec::new());
    for r in &records[1..records.len() - 1] {
        match r {
            Record::ItemStart { ix, attempt: 0, .. } => assert!(starts.insert(*ix), "{r:?}"),
            Record::ItemDone { ix, clean: true, .. } => assert!(dones.insert(*ix), "{r:?}"),
            Record::RoundDone { round, items, .. } => rounds.push((*round, *items)),
            other => panic!("unexpected record {other:?}"),
        }
    }
    let all: BTreeSet<u64> = (0..RELAYS as u64).collect();
    assert_eq!((&starts, &dones), (&all, &all));
    assert_eq!(rounds, [(0, 4), (1, 4), (2, 4), (3, 4)]);

    // The vote: each relay's weight is what its measurers reported.
    let text = consensus(&whole);
    let doc = Json::parse(text.trim()).expect("consensus is JSON");
    let entries = doc.get("entries").and_then(Json::as_arr).expect("entries");
    assert_eq!(entries.len(), RELAYS);
    for e in entries {
        let ix = e.get("ix").and_then(Json::as_u64).expect("ix") as usize;
        let weight = e.get("weight").and_then(Json::as_f64).expect("weight");
        assert_eq!(weight, reported(ix).iter().sum::<u64>() as f64, "relay {ix}");
    }

    // Deterministic in its seeds.
    let again = state_dir("again");
    run(&again, &roster);
    assert_eq!(consensus(&again), text, "two runs voted different documents");

    // Cut the journal after each `RoundDone`, and after each round's
    // starts while the round before it is still in flight.
    let mut cuts = Vec::new();
    for (k, r) in records.iter().enumerate() {
        let next_starts = matches!(records.get(k + 1), Some(Record::ItemStart { .. }));
        let block_end = matches!(r, Record::ItemStart { .. }) && !next_starts;
        if matches!(r, Record::RoundDone { .. })
            || (block_end && in_flight(&lines[..=k]).len() > ITEMS_PER_ROUND)
        {
            cuts.push(k + 1);
        }
    }
    let both_in_flight =
        cuts.iter().filter(|&&k| in_flight(&lines[..k]).len() > ITEMS_PER_ROUND).count();
    assert_eq!(both_in_flight, 3, "a round was staged before the one before it ended: {cuts:?}");
    for cut in cuts {
        let dir = state_dir(&format!("cut{cut}"));
        std::fs::write(dir.join("journal.jsonl"), lines[..cut].join("\n") + "\n").expect("cut");
        let parked = in_flight(&lines[..cut]);
        let outcome = run(&dir, &roster);
        assert_eq!(outcome.period, 1, "cut {cut}: {outcome:?}");
        assert_eq!(outcome.resumed, parked.len(), "cut {cut}: {outcome:?}");
        // Every cut item came back as its next attempt.
        let resumed = journal(&dir);
        for (ix, attempt) in &parked {
            let again = resumed[cut..].iter().any(|line| {
                matches!(record(line), Record::ItemStart { ix: i, attempt: a, .. }
                    if i == *ix && a == attempt + 1)
            });
            assert!(again, "cut {cut}: relay {ix} not re-commanded as attempt {}", attempt + 1);
        }
        assert_eq!(consensus(&dir), text, "cut {cut}: the resumed period voted otherwise");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&whole);
    let _ = std::fs::remove_dir_all(&again);
}
