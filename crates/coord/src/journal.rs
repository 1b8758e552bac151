//! The daemon's crash-safe period journal.
//!
//! One JSONL file (`journal.jsonl` inside the state directory), written
//! with the [`flashflow_procutil::append_lines`] discipline: `O_APPEND`,
//! one `write` per record or batch of records ([`append_all`]), fsync
//! after. A crash — SIGKILL included — leaves a prefix of the last
//! write, so it can tear at most the final line, and [`recover`] parses
//! leniently: a malformed *last* line is counted and skipped, and every
//! complete line before it is trusted.
//!
//! The record vocabulary is deliberately tiny, because the journal is
//! the *authority* for exactly three questions a restarted coordinator
//! must answer:
//!
//! 1. which relays of the current period are **done** (never re-measure
//!    them),
//! 2. which were **in flight** (re-run them as attempt `n+1`, resuming
//!    the parked control sessions with attempt `n`'s journaled secret —
//!    see [`flashflow_core::echo::peer_nonce`]),
//! 3. whether the period **completed** (start the next one).
//!
//! Everything else (estimates, round boundaries, timestamps) rides
//! along for operators and `flashflow-top --coord`.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use flashflow_obs::Json;

/// One journal line.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A period began (or resumed planning) over `roster` relays.
    PeriodStart {
        /// Period sequence number (monotone across the journal).
        period: u64,
        /// Roster size.
        roster: u64,
        /// Roster seed (the roster is rebuilt from it on recovery).
        seed: u64,
        /// Roster source name (`shadow` / `synth`).
        source: String,
        /// Wall-clock seconds since the UNIX epoch.
        ts: f64,
    },
    /// An item's measurement was commanded (it is now in flight).
    ItemStart {
        /// Roster index.
        ix: u64,
        /// Relay fingerprint, lowercase hex.
        fp: String,
        /// The item's measurement secret (nonce/tag derivation root).
        secret: u64,
        /// Which attempt this is; `> 0` means the control sessions
        /// opened with a `Resume` handshake.
        attempt: u64,
        /// Wall-clock seconds since the UNIX epoch.
        ts: f64,
    },
    /// An item completed (successfully or degraded — `clean` says).
    ItemDone {
        /// Roster index.
        ix: u64,
        /// Relay fingerprint, lowercase hex.
        fp: String,
        /// Accepted capacity estimate (bytes/s).
        capacity: f64,
        /// Every session of the item ended cleanly.
        clean: bool,
        /// Ledger rows that failed a cross-check.
        divergent: u64,
        /// Wall-clock seconds since the UNIX epoch.
        ts: f64,
    },
    /// A round of concurrent items finished.
    RoundDone {
        /// Round index within the period.
        round: u64,
        /// Items the round carried.
        items: u64,
        /// Wall-clock seconds since the UNIX epoch.
        ts: f64,
    },
    /// The whole roster is measured and the consensus was written.
    PeriodDone {
        /// Period sequence number.
        period: u64,
        /// Entries the period produced.
        entries: u64,
        /// Wall-clock seconds since the UNIX epoch.
        ts: f64,
    },
}

/// Wall-clock seconds since the UNIX epoch (journal timestamps).
pub fn now_ts() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

fn u64_field(obj: &Json, key: &str) -> Option<u64> {
    obj.get(key).and_then(Json::as_u64)
}

fn f64_field(obj: &Json, key: &str) -> Option<f64> {
    obj.get(key).and_then(Json::as_f64)
}

impl Record {
    /// Encodes the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let int = |v: u64| Json::Int(i128::from(v));
        let obj = match self {
            Record::PeriodStart { period, roster, seed, source, ts } => Json::Obj(vec![
                ("kind".into(), Json::Str("period.start".into())),
                ("period".into(), int(*period)),
                ("roster".into(), int(*roster)),
                ("seed".into(), int(*seed)),
                ("source".into(), Json::Str(source.clone())),
                ("ts".into(), Json::Num(*ts)),
            ]),
            Record::ItemStart { ix, fp, secret, attempt, ts } => Json::Obj(vec![
                ("kind".into(), Json::Str("item.start".into())),
                ("ix".into(), int(*ix)),
                ("fp".into(), Json::Str(fp.clone())),
                ("secret".into(), int(*secret)),
                ("attempt".into(), int(*attempt)),
                ("ts".into(), Json::Num(*ts)),
            ]),
            Record::ItemDone { ix, fp, capacity, clean, divergent, ts } => Json::Obj(vec![
                ("kind".into(), Json::Str("item.done".into())),
                ("ix".into(), int(*ix)),
                ("fp".into(), Json::Str(fp.clone())),
                ("capacity".into(), Json::Num(*capacity)),
                ("clean".into(), Json::Bool(*clean)),
                ("divergent".into(), int(*divergent)),
                ("ts".into(), Json::Num(*ts)),
            ]),
            Record::RoundDone { round, items, ts } => Json::Obj(vec![
                ("kind".into(), Json::Str("round.done".into())),
                ("round".into(), int(*round)),
                ("items".into(), int(*items)),
                ("ts".into(), Json::Num(*ts)),
            ]),
            Record::PeriodDone { period, entries, ts } => Json::Obj(vec![
                ("kind".into(), Json::Str("period.done".into())),
                ("period".into(), int(*period)),
                ("entries".into(), int(*entries)),
                ("ts".into(), Json::Num(*ts)),
            ]),
        };
        obj.to_string()
    }

    /// Parses one journal line; `None` for lines that don't parse or
    /// carry an unknown kind (forward compatibility — and the torn tail
    /// a crash leaves).
    pub fn parse(line: &str) -> Option<Record> {
        let obj = Json::parse(line.trim()).ok()?;
        let ts = f64_field(&obj, "ts").unwrap_or(0.0);
        match obj.get("kind")?.as_str()? {
            "period.start" => Some(Record::PeriodStart {
                period: u64_field(&obj, "period")?,
                roster: u64_field(&obj, "roster")?,
                seed: u64_field(&obj, "seed")?,
                source: obj.get("source")?.as_str()?.to_string(),
                ts,
            }),
            "item.start" => Some(Record::ItemStart {
                ix: u64_field(&obj, "ix")?,
                fp: obj.get("fp")?.as_str()?.to_string(),
                secret: u64_field(&obj, "secret")?,
                attempt: u64_field(&obj, "attempt")?,
                ts,
            }),
            "item.done" => Some(Record::ItemDone {
                ix: u64_field(&obj, "ix")?,
                fp: obj.get("fp")?.as_str()?.to_string(),
                capacity: f64_field(&obj, "capacity")?,
                clean: obj.get("clean")?.as_bool()?,
                divergent: u64_field(&obj, "divergent")?,
                ts,
            }),
            "round.done" => Some(Record::RoundDone {
                round: u64_field(&obj, "round")?,
                items: u64_field(&obj, "items")?,
                ts,
            }),
            "period.done" => Some(Record::PeriodDone {
                period: u64_field(&obj, "period")?,
                entries: u64_field(&obj, "entries")?,
                ts,
            }),
            _ => None,
        }
    }
}

/// A completed item as the journal remembers it.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneItem {
    /// Relay fingerprint, lowercase hex.
    pub fp: String,
    /// Accepted capacity estimate (bytes/s).
    pub capacity: f64,
    /// Every session of the item ended cleanly.
    pub clean: bool,
    /// Ledger rows that failed a cross-check.
    pub divergent: u64,
}

/// An in-flight item as the journal remembers it: what the resume path
/// needs to re-derive attempt `n`'s nonces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlightItem {
    /// The journaled measurement secret (the authority — recovery never
    /// re-derives it).
    pub secret: u64,
    /// The last attempt that was commanded.
    pub attempt: u64,
}

/// The state a journal replay reconstructs.
#[derive(Debug, Clone, Default)]
pub struct JournalState {
    /// The current period's sequence number (`0` before any record).
    pub period: u64,
    /// True if the current period already has its `period.start`.
    pub period_started: bool,
    /// True if the *last started* period ran to completion; the next
    /// run then begins period `period + 1`.
    pub period_done: bool,
    /// Roster size the current period's `period.start` declared
    /// (completion % for `flashflow-top --coord`).
    pub roster: u64,
    /// Completed items of the current period, by roster index.
    pub done: BTreeMap<u64, DoneItem>,
    /// Started-but-not-completed items of the current period: the ones
    /// a restart re-runs with `attempt + 1` and a `Resume` handshake.
    pub in_flight: BTreeMap<u64, InFlightItem>,
    /// Rounds the current period completed.
    pub rounds_done: u64,
    /// Item starts with `attempt > 0` seen in the current period (how
    /// many resumptions happened historically).
    pub resumed_starts: u64,
    /// `ts` of the current period's start (operator surface).
    pub period_started_at: f64,
    /// `ts` of the newest record seen.
    pub last_ts: f64,
    /// Lines that did not parse (a torn crash tail, usually).
    pub torn_lines: u64,
}

impl JournalState {
    /// Folds one record into the state.
    pub fn apply(&mut self, record: &Record) {
        match record {
            Record::PeriodStart { period, roster, ts, .. } => {
                self.period = *period;
                self.period_started = true;
                self.period_done = false;
                self.roster = *roster;
                self.done.clear();
                self.in_flight.clear();
                self.rounds_done = 0;
                self.resumed_starts = 0;
                self.period_started_at = *ts;
                self.last_ts = *ts;
            }
            Record::ItemStart { ix, secret, attempt, ts, .. } => {
                self.in_flight.insert(*ix, InFlightItem { secret: *secret, attempt: *attempt });
                if *attempt > 0 {
                    self.resumed_starts += 1;
                }
                self.last_ts = *ts;
            }
            Record::ItemDone { ix, fp, capacity, clean, divergent, ts } => {
                self.in_flight.remove(ix);
                self.done.insert(
                    *ix,
                    DoneItem {
                        fp: fp.clone(),
                        capacity: *capacity,
                        clean: *clean,
                        divergent: *divergent,
                    },
                );
                self.last_ts = *ts;
            }
            Record::RoundDone { ts, .. } => {
                self.rounds_done += 1;
                self.last_ts = *ts;
            }
            Record::PeriodDone { ts, .. } => {
                self.period_done = true;
                self.in_flight.clear();
                self.last_ts = *ts;
            }
        }
    }
}

/// Replays a journal file into a [`JournalState`]. A missing file is an
/// empty state (a fresh daemon). Unparseable lines — the torn tail a
/// SIGKILL mid-append leaves, at worst — are counted, not fatal.
///
/// # Errors
/// Only real I/O errors (permission, not-a-file); absence is fine.
pub fn recover(path: &Path) -> io::Result<JournalState> {
    let mut state = JournalState::default();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(state),
        Err(e) => return Err(e),
    };
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match Record::parse(line) {
            Some(record) => state.apply(&record),
            None => state.torn_lines += 1,
        }
    }
    Ok(state)
}

/// Appends one record to the journal (crash-safe line discipline).
///
/// # Errors
/// Propagates the underlying append/fsync failure.
pub fn append(path: &Path, record: &Record) -> io::Result<()> {
    flashflow_procutil::append_line(path, &record.to_json_line())
}

/// Appends `records` as one write and one fsync: a round's starts, or
/// its completions and `RoundDone`, become durable together. A crash
/// mid-write keeps a prefix of the batch — whole records, then at most
/// one torn line — which [`recover`] reads like any torn tail.
///
/// # Errors
/// Propagates the underlying append/fsync failure.
pub fn append_all(path: &Path, records: &[Record]) -> io::Result<()> {
    flashflow_procutil::append_lines(path, records.iter().map(Record::to_json_line))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ff-coord-journal-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mk temp dir");
        dir.join("journal.jsonl")
    }

    #[test]
    fn records_round_trip_through_the_line_encoding() {
        let records = vec![
            Record::PeriodStart { period: 1, roster: 6, seed: 7, source: "shadow".into(), ts: 1.5 },
            Record::ItemStart { ix: 2, fp: "ab".repeat(20), secret: u64::MAX, attempt: 1, ts: 2.0 },
            Record::ItemDone {
                ix: 2,
                fp: "ab".repeat(20),
                capacity: 123_456.75,
                clean: true,
                divergent: 0,
                ts: 3.0,
            },
            Record::RoundDone { round: 0, items: 2, ts: 3.5 },
            Record::PeriodDone { period: 1, entries: 6, ts: 4.0 },
        ];
        for record in records {
            let line = record.to_json_line();
            assert!(!line.contains('\n'));
            assert_eq!(Record::parse(&line), Some(record), "{line}");
        }
    }

    #[test]
    fn recovery_reconstructs_done_and_in_flight_sets() {
        let path = temp_path("recover");
        let _ = std::fs::remove_file(&path);
        let fp = |ix: u64| format!("{ix:040x}");
        append(
            &path,
            &Record::PeriodStart {
                period: 1,
                roster: 3,
                seed: 9,
                source: "shadow".into(),
                ts: 1.0,
            },
        )
        .unwrap();
        for ix in 0..3u64 {
            append(
                &path,
                &Record::ItemStart { ix, fp: fp(ix), secret: 100 + ix, attempt: 0, ts: 2.0 },
            )
            .unwrap();
        }
        append(
            &path,
            &Record::ItemDone {
                ix: 0,
                fp: fp(0),
                capacity: 10.0,
                clean: true,
                divergent: 0,
                ts: 3.0,
            },
        )
        .unwrap();

        let state = recover(&path).expect("recover");
        assert_eq!(state.period, 1);
        assert!(!state.period_done);
        assert_eq!(state.done.len(), 1);
        assert_eq!(state.in_flight.len(), 2, "items 1 and 2 were mid-measurement");
        assert_eq!(state.in_flight[&1], InFlightItem { secret: 101, attempt: 0 });
        assert_eq!(state.torn_lines, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_torn_final_line_is_tolerated_not_fatal() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        append(
            &path,
            &Record::PeriodStart { period: 2, roster: 1, seed: 1, source: "synth".into(), ts: 1.0 },
        )
        .unwrap();
        // A SIGKILL mid-append: half a record, no newline — staged
        // through the persist test hook so even this test never opens
        // the journal raw.
        flashflow_procutil::append_torn_line(&path, "{\"kind\":\"item.done\",\"ix\":0,\"cap")
            .unwrap();

        let state = recover(&path).expect("recover");
        assert_eq!(state.period, 2);
        assert_eq!(state.torn_lines, 1);
        assert!(state.done.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    /// How many of `records` land whole in the first `cut` bytes of the
    /// one write [`append_all`] makes of them, and whether a torn
    /// fragment follows those. A record whose text landed but whose
    /// newline did not is whole: no strict prefix of a JSON object
    /// parses.
    fn landed(records: &[Record], cut: usize) -> (usize, bool) {
        let mut start = 0;
        for (n, record) in records.iter().enumerate() {
            let end = start + record.to_json_line().len();
            if cut < end {
                return (n, cut > start);
            }
            start = end + 1;
        }
        (records.len(), false)
    }

    /// A round of four items: their `ItemStart` batch and their
    /// `ItemDone`s plus `RoundDone`.
    fn round_batches() -> (Vec<Record>, Vec<Record>) {
        let fp = |ix: u64| format!("{ix:040x}");
        let starts = (0..4u64)
            .map(|ix| Record::ItemStart { ix, fp: fp(ix), secret: 100 + ix, attempt: 0, ts: 2.0 })
            .collect();
        let mut dones: Vec<Record> = (0..4u64)
            .map(|ix| Record::ItemDone {
                ix,
                fp: fp(ix),
                capacity: 1_000.0 * (ix + 1) as f64,
                clean: ix != 2,
                divergent: ix,
                ts: 3.0,
            })
            .collect();
        dones.push(Record::RoundDone { round: 0, items: 4, ts: 3.5 });
        (starts, dones)
    }

    /// Replays a journal of a period start, the whole batches in
    /// `written`, and `batch` torn after `cut` bytes.
    fn recover_torn(
        path: &Path,
        written: &[&[Record]],
        batch: &[Record],
        cut: usize,
    ) -> JournalState {
        let _ = std::fs::remove_file(path);
        let start =
            Record::PeriodStart { period: 1, roster: 4, seed: 9, source: "synth".into(), ts: 1.0 };
        append(path, &start).unwrap();
        for records in written {
            append_all(path, records).unwrap();
        }
        let bytes: String = batch.iter().map(|r| r.to_json_line() + "\n").collect();
        flashflow_procutil::append_torn_line(path, &bytes[..cut]).unwrap();
        recover(path).expect("recover")
    }

    #[test]
    fn every_prefix_of_a_batched_item_start_write_recovers_whole_lines_only() {
        let path = temp_path("start-batch");
        let (starts, _) = round_batches();
        let len: usize = starts.iter().map(|r| r.to_json_line().len() + 1).sum();
        for cut in 0..=len {
            let state = recover_torn(&path, &[], &starts, cut);
            let (whole, torn) = landed(&starts, cut);
            assert_eq!(state.torn_lines, u64::from(torn), "cut {cut}");
            let in_flight: Vec<u64> = state.in_flight.keys().copied().collect();
            assert_eq!(in_flight, (0..whole as u64).collect::<Vec<_>>(), "cut {cut}");
            assert!(state.done.is_empty(), "cut {cut}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_prefix_of_a_batched_round_end_write_recovers_whole_lines_only() {
        let path = temp_path("done-batch");
        let (starts, dones) = round_batches();
        let len: usize = dones.iter().map(|r| r.to_json_line().len() + 1).sum();
        for cut in 0..=len {
            let state = recover_torn(&path, &[&starts], &dones, cut);
            let (whole, torn) = landed(&dones, cut);
            assert_eq!(state.torn_lines, u64::from(torn), "cut {cut}");
            // Items 0..done have a whole `ItemDone`; the rest are still
            // in flight with their journaled secrets.
            let done = whole.min(4) as u64;
            assert_eq!(
                state.done.keys().copied().collect::<Vec<_>>(),
                (0..done).collect::<Vec<_>>()
            );
            for ix in 0..done {
                assert_eq!(state.done[&ix].clean, ix != 2, "cut {cut}");
            }
            let in_flight: Vec<u64> = state.in_flight.keys().copied().collect();
            assert_eq!(in_flight, (done..4).collect::<Vec<_>>(), "cut {cut}");
            assert!(state.in_flight.iter().all(|(ix, item)| item.secret == 100 + ix));
            assert_eq!(state.rounds_done, u64::from(whole == dones.len()), "cut {cut}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_prefix_of_two_rounds_in_flight_recovers_whole_lines_only() {
        // The order a pipelined coordinator writes: round n's starts,
        // round n+1's starts (staged while n blasts), then round n's
        // completions and its `RoundDone`.
        let path = temp_path("interleaved");
        let fp = |ix: u64| format!("{ix:040x}");
        let (starts_n, dones_n) = round_batches();
        let starts_next: Vec<Record> = (4..8u64)
            .map(|ix| Record::ItemStart { ix, fp: fp(ix), secret: 100 + ix, attempt: 0, ts: 2.5 })
            .collect();
        let order: Vec<Record> = [starts_n, starts_next, dones_n].concat();
        let len: usize = order.iter().map(|r| r.to_json_line().len() + 1).sum();
        for cut in 0..=len {
            let state = recover_torn(&path, &[], &order, cut);
            let (whole, torn) = landed(&order, cut);
            assert_eq!(state.torn_lines, u64::from(torn), "cut {cut}");
            // Exactly the whole records apply, in order.
            let mut expected = JournalState::default();
            expected.apply(&Record::PeriodStart {
                period: 1,
                roster: 4,
                seed: 9,
                source: "synth".into(),
                ts: 1.0,
            });
            for record in &order[..whole] {
                expected.apply(record);
            }
            assert_eq!(state.done, expected.done, "cut {cut}");
            assert_eq!(state.in_flight, expected.in_flight, "cut {cut}");
            assert_eq!(state.rounds_done, expected.rounds_done, "cut {cut}");
            // Nothing is done that was not whole, and both rounds' items
            // stay in flight with their journaled secrets until their
            // own `ItemDone` lands.
            assert!(state.done.keys().all(|&ix| ix < 4), "cut {cut}");
            assert!(state.in_flight.iter().all(|(ix, item)| item.secret == 100 + ix));
            if whole >= 8 {
                let in_flight: Vec<u64> = state.in_flight.keys().copied().collect();
                let done = (whole - 8).min(4) as u64;
                assert_eq!(in_flight, (done..8).collect::<Vec<_>>(), "cut {cut}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_completed_period_resets_for_the_next() {
        let mut state = JournalState::default();
        state.apply(&Record::PeriodStart {
            period: 1,
            roster: 1,
            seed: 1,
            source: "shadow".into(),
            ts: 1.0,
        });
        state.apply(&Record::ItemStart { ix: 0, fp: "00".into(), secret: 5, attempt: 0, ts: 2.0 });
        state.apply(&Record::ItemDone {
            ix: 0,
            fp: "00".into(),
            capacity: 1.0,
            clean: true,
            divergent: 0,
            ts: 3.0,
        });
        state.apply(&Record::PeriodDone { period: 1, entries: 1, ts: 4.0 });
        assert!(state.period_done);
        assert!(state.in_flight.is_empty());

        state.apply(&Record::PeriodStart {
            period: 2,
            roster: 1,
            seed: 1,
            source: "shadow".into(),
            ts: 5.0,
        });
        assert!(!state.period_done);
        assert!(state.done.is_empty(), "a new period starts from scratch");
    }

    #[test]
    fn missing_journal_is_an_empty_state() {
        let state = recover(Path::new("/nonexistent/ff-coord/journal.jsonl")).expect("empty");
        assert_eq!(state.period, 0);
        assert!(!state.period_started);
    }
}
