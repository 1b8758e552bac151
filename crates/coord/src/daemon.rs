//! The period loop: recover → schedule → measure → journal → consensus.
//!
//! [`run_period`] drives one full roster pass through its round
//! [`Executor`]: `flashflow-coord` runs the rounds against live
//! `flashflow-measurer` / `flashflow-relay` processes
//! ([`flashflow_core::echo::run_rounds`]), and a test can run the same
//! period with no process, socket or wall clock
//! ([`flashflow_core::proto_driver::simulate_rounds`]). It is restart
//! shaped end to end:
//!
//! * before commanding anything it replays the journal
//!   ([`crate::journal::recover`]) and removes already-completed relays
//!   from the plan;
//! * relays the journal shows *in flight* are re-commanded as attempt
//!   `n+1` with the **journaled** secret: attempt `n+1` derives nonces
//!   no peer has witnessed, so its control sessions open with a plain
//!   `Auth` whether the peer kept its replay window or restarted, and
//!   the slot runs again from zero;
//! * every item start and completion is journaled before/after the
//!   round runs, so the next incarnation — however this one dies —
//!   knows exactly what remains. A round pays one fsync on each side:
//!   its `ItemStart`s are one write, durable before the first `Auth`
//!   leaves, and its `ItemDone`s plus `RoundDone` are one write once
//!   the round has ended.
//!
//! Rounds are staged and finalized one at a time on the round loop's
//! slot clock, two in flight: the
//! next round is planned, journaled and handshaken while the current
//! one blasts, and the current one's reports, ledger and completions
//! are handled during the next one's slot. So the journal can hold
//! round n+1's starts before round n's completions, and a crash there
//! leaves both rounds in flight; the restart re-commands both. The
//! plan's rounds are asked for lazily, one per staging. `draining`
//! (SIGTERM) is polled before each staging: nothing new is staged, and
//! the rounds already staged finish and are journaled.
//!
//! When the roster is complete the loop closes: the accumulated
//! estimates become one BWAuth's vote, `flashflow-tornet`'s
//! [`DirAuths`] vote the
//! consensus, `flashflow-balance`'s TorFlow pipeline provides the
//! baseline weight set the paper compares against (§8), and the
//! consensus document is written atomically next to the journal.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use flashflow_core::echo::{EchoDeployment, EchoItem, RoundSource};
use flashflow_core::engine::{EngineEvent, EngineSnapshot};
// Lowercase hex of a fingerprint; `flashflow-perf` imports it by this path.
pub use flashflow_core::observe::hex_fp as hex;
use flashflow_core::observe::RoundSpans;
use flashflow_core::pool::ConnectionPool;
use flashflow_obs::{fields, Counter, Gauge, Json, MetricsRegistry, Span};
use flashflow_simnet::time::SimTime;
use flashflow_simnet::units::Rate;
use flashflow_tornet::consensus::DirAuths;

use crate::journal::{self, DoneItem, InFlightItem, Record};
use crate::roster::{self, Roster, RosterSource};
use crate::scheduler::{plan_rounds, PlanConfig, Round};

/// Everything one period run needs beyond the deployment itself.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Journal, consensus, and period files live here.
    pub state_dir: PathBuf,
    /// Roster population source.
    pub source: RosterSource,
    /// Roster seed (fingerprints and priors derive from it).
    pub seed: u64,
    /// Roster size override (`None` keeps the source's default).
    pub relays: Option<usize>,
    /// Root for per-item measurement secrets (fresh attempts only; the
    /// journal is the authority for re-commanded ones).
    pub secret_seed: u64,
    /// Slot length commanded per item (sped-up seconds).
    pub slot_secs: u32,
    /// Aggregate team blast budget for round packing (bytes/s). `None`
    /// budgets one item's blast, the whole team's commanded rates, so
    /// rounds run one item each.
    pub team_capacity: Option<f64>,
    /// Hard cap on items per round (`0` = capacity-bound only).
    pub round_max: usize,
    /// Directory authorities voting the consensus (0 votes as 1).
    pub dirauths: usize,
}

impl DaemonConfig {
    /// The journal file path.
    fn journal_path(&self) -> PathBuf {
        self.state_dir.join("journal.jsonl")
    }

    /// The consensus document path.
    fn consensus_path(&self) -> PathBuf {
        self.state_dir.join("consensus.json")
    }

    /// The per-period bandwidth-file path.
    fn period_path(&self) -> PathBuf {
        self.state_dir.join("period.json")
    }
}

/// Coordinator-side metric handles (served by `--metrics-addr`, read by
/// `flashflow-top --coord`).
#[derive(Clone)]
pub struct CoordMetrics {
    /// Rounds completed across the process lifetime.
    pub rounds: Counter,
    /// Items measured to completion.
    pub items_done: Counter,
    /// In-flight items re-commanded as attempt `n+1` after a restart.
    pub items_resumed: Counter,
    /// Periods completed (consensus emitted).
    pub periods: Counter,
    /// Current roster size.
    pub roster_total: Gauge,
    /// Relays still unmeasured in the current period.
    pub roster_remaining: Gauge,
}

impl CoordMetrics {
    /// Registers the coordinator's metrics in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        CoordMetrics {
            rounds: registry.counter("coord.rounds_done"),
            items_done: registry.counter("coord.items_done"),
            items_resumed: registry.counter("coord.items_resumed"),
            periods: registry.counter("coord.periods_done"),
            roster_total: registry.gauge("coord.roster_total"),
            roster_remaining: registry.gauge("coord.roster_remaining"),
        }
    }
}

/// How [`run_period`] runs its rounds.
pub struct Executor<'a> {
    /// Runs every round the source hands out, to the end:
    /// [`flashflow_core::echo::run_rounds`] over the deployment and a
    /// pool, or [`flashflow_core::proto_driver::simulate_rounds`].
    pub rounds: &'a mut dyn FnMut(&mut dyn RoundSource),
    /// The pool the rounds check their connections out of, whose
    /// counters each round's audit reports (`pool.stats`); `None` for
    /// rounds with no sockets.
    pub pool: Option<&'a ConnectionPool>,
}

/// What one [`run_period`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodOutcome {
    /// The period's sequence number.
    pub period: u64,
    /// Relays measured by *this* incarnation.
    pub measured: usize,
    /// Relays skipped because the journal already had them done.
    pub recovered_done: usize,
    /// Relays the journal showed in flight, re-commanded as attempt
    /// `n+1`.
    pub resumed: usize,
    /// Rounds this incarnation ran.
    pub rounds: usize,
    /// True if SIGTERM cut the roster walk short (no consensus; the
    /// journal carries the remainder for the next incarnation).
    pub drained: bool,
    /// Consensus entries voted (0 when drained).
    pub consensus_entries: usize,
}

/// Runs one measurement period: walks the remainder of `roster` (built
/// from `cfg`'s source, seed and size) in rounds of `deployment`'s
/// peers on `executor`, journaling every step, and —
/// when the roster completes — votes and writes the consensus.
/// `draining` is polled before each round is staged (SIGTERM lets the
/// staged rounds finish and leaves a resumable journal rather than
/// finishing the walk).
///
/// # Errors
/// Journal/output I/O failures. Measurement failures are not errors:
/// they surface as unclean/degraded entries, exactly like the library
/// path.
pub fn run_period(
    cfg: &DaemonConfig,
    roster: &Roster,
    deployment: &EchoDeployment,
    executor: Executor<'_>,
    span: &Span,
    metrics: &CoordMetrics,
    draining: &dyn Fn() -> bool,
) -> io::Result<PeriodOutcome> {
    std::fs::create_dir_all(&cfg.state_dir)?;
    let journal_path = cfg.journal_path();
    let state = journal::recover(&journal_path)?;
    metrics.roster_total.set(roster.entries.len() as i64);

    // A finished (or never-started) journal begins a fresh period;
    // anything else continues the period the journal describes.
    let fresh = !state.period_started || state.period_done;
    let period = if fresh { state.period + 1 } else { state.period };
    if fresh {
        journal::append(
            &journal_path,
            &Record::PeriodStart {
                period,
                roster: roster.entries.len() as u64,
                seed: cfg.seed,
                source: cfg.source.name().to_string(),
                ts: journal::now_ts(),
            },
        )?;
    }
    let done: BTreeMap<u64, DoneItem> = if fresh { BTreeMap::new() } else { state.done };
    let in_flight = if fresh { BTreeMap::new() } else { state.in_flight };
    let recovered_done = done.len();
    if state.torn_lines > 0 {
        span.emit("journal.torn", fields![lines = state.torn_lines]);
    }
    span.emit(
        "coord.period",
        fields![
            period = period,
            roster = roster.entries.len() as u64,
            recovered = recovered_done as u64,
            in_flight = in_flight.len() as u64,
        ],
    );

    let pending: Vec<_> =
        roster.entries.iter().filter(|e| !done.contains_key(&(e.ix as u64))).copied().collect();
    metrics.roster_remaining.set(pending.len() as i64);
    let per_item_blast: f64 =
        deployment.measurers.iter().map(|m| m.rate_cap as f64).sum::<f64>().max(1.0);
    let team_capacity = cfg.team_capacity.unwrap_or(per_item_blast);
    let plan = PlanConfig { team_capacity, per_item_blast, round_max: cfg.round_max };
    let rounds = plan_rounds(&pending, &plan);

    let mut walk = RosterWalk {
        cfg,
        deployment,
        pool: executor.pool,
        span,
        metrics,
        draining,
        journal_path: &journal_path,
        period,
        roster,
        total_rounds: rounds.len(),
        planned: rounds.into_iter(),
        in_flight,
        staged: BTreeMap::new(),
        next_round: 0,
        done,
        pending: pending.len(),
        measured: 0,
        resumed: 0,
        rounds_run: 0,
        drained: false,
        error: None,
    };
    (executor.rounds)(&mut walk);
    let closing = Instant::now();
    let RosterWalk { measured, resumed, rounds_run, done, drained, error, .. } = walk;
    if let Some(e) = error {
        return Err(e);
    }
    if drained {
        return Ok(PeriodOutcome {
            period,
            measured,
            recovered_done,
            resumed,
            rounds: rounds_run,
            drained: true,
            consensus_entries: 0,
        });
    }

    // Roster complete: write the bandwidth file and vote the consensus,
    // then seal the period in the journal once both are durable — a
    // crash before the seal re-votes from the journal next time, which
    // is idempotent. The two documents are independent, so the
    // bandwidth file is encoded and synced on a second thread while the
    // vote runs.
    let (written, consensus) = std::thread::scope(|scope| {
        let period_file = scope.spawn(|| write_period_file(&cfg.period_path(), period, &done));
        let consensus = vote_consensus(cfg, roster, &done, span);
        (period_file.join(), consensus)
    });
    written.map_err(|_| io::Error::other("the period file writer panicked"))??;
    let consensus = consensus?;
    journal::append(
        &journal_path,
        &Record::PeriodDone { period, entries: done.len() as u64, ts: journal::now_ts() },
    )?;
    metrics.periods.inc();
    span.emit(
        "period.complete",
        fields![
            period = period,
            entries = done.len() as u64,
            consensus = consensus as u64,
            close_ms = closing.elapsed().as_secs_f64() * 1e3,
        ],
    );
    Ok(PeriodOutcome {
        period,
        measured,
        recovered_done,
        resumed,
        rounds: rounds_run,
        drained: false,
        consensus_entries: consensus,
    })
}

/// A staged round: the items it commands, the roster items they are,
/// and its telemetry.
struct StagedRound {
    items: Vec<EchoItem>,
    ixs: Vec<usize>,
    spans: RoundSpans,
}

/// [`run_period`]'s side of the staged-round loop: it hands out the
/// plan's rounds one at a time, journals each round's starts as it is
/// staged and its completions as it ends.
struct RosterWalk<'a> {
    cfg: &'a DaemonConfig,
    roster: &'a Roster,
    deployment: &'a EchoDeployment,
    pool: Option<&'a ConnectionPool>,
    span: &'a Span,
    metrics: &'a CoordMetrics,
    draining: &'a dyn Fn() -> bool,
    journal_path: &'a Path,
    /// The period being walked (fresh attempts' secrets derive from it).
    period: u64,
    total_rounds: usize,
    /// The plan's rounds not yet staged.
    planned: std::vec::IntoIter<Round>,
    /// What the journal showed in flight when this incarnation started.
    in_flight: BTreeMap<u64, InFlightItem>,
    /// Rounds staged and not yet ended, by staging number.
    staged: BTreeMap<usize, StagedRound>,
    next_round: usize,
    done: BTreeMap<u64, DoneItem>,
    /// Relays this incarnation set out to measure.
    pending: usize,
    measured: usize,
    resumed: usize,
    rounds_run: usize,
    drained: bool,
    /// The first journal write that failed: nothing more is staged, and
    /// `run_period` returns it once the staged rounds have ended.
    error: Option<io::Error>,
}

impl RosterWalk<'_> {
    /// Opens the next attempt at roster item `ix`: mints and emits the
    /// attempt's trace id, and returns the item to command with the
    /// `ItemStart` the caller journals (batched with the rest of the
    /// round) before any session opens. An item the journal shows in
    /// flight is re-commanded as attempt `n+1` with its journaled secret.
    fn start_item(&mut self, ix: usize) -> (EchoItem, Record) {
        let fp = self.roster.entries[ix].fp;
        let (secret, attempt) = match self.in_flight.get(&(ix as u64)) {
            Some(parked) => {
                let attempt = u32::try_from(parked.attempt + 1).unwrap_or(1);
                self.resumed += 1;
                self.metrics.items_resumed.inc();
                self.span.emit("item.resumed", fields![ix = ix as u64, attempt = attempt]);
                (parked.secret, attempt)
            }
            None => (roster::item_secret(self.cfg.secret_seed, self.period, ix), 0),
        };
        let start = Record::ItemStart {
            ix: ix as u64,
            fp: hex(&fp),
            secret,
            attempt: u64::from(attempt),
            ts: journal::now_ts(),
        };
        let trace_id = flashflow_core::echo::item_trace_id(secret, attempt);
        self.span.emit("item.trace", fields![ix = ix as u64, attempt = attempt, trace = trace_id]);
        let item = EchoItem {
            relay_fp: fp,
            slot_secs: self.cfg.slot_secs,
            // Uncapped: `--ratio`'s clamp bounds what the estimate credits.
            bg_allowance: 0,
            measurement_secret: secret,
            attempt,
            trace_id,
        };
        (item, start)
    }
}

impl RoundSource for RosterWalk<'_> {
    fn next_round(&mut self) -> Option<Vec<EchoItem>> {
        // Asked again after every round ends, so a drain or an error is
        // reported once.
        if self.error.is_some() || self.drained || self.planned.len() == 0 {
            return None;
        }
        // SIGTERM stops the staging; the rounds already staged finish.
        if (self.draining)() {
            self.drained = true;
            self.span.emit("coord.drain", fields![pending = (self.pending - self.measured) as u64]);
            return None;
        }
        let ixs = self.planned.next()?.items;
        let (items, starts): (Vec<EchoItem>, Vec<Record>) =
            ixs.iter().map(|&ix| self.start_item(ix)).unzip();
        // One write, one fsync: every start is durable before any
        // session of the round opens.
        if let Err(e) = journal::append_all(self.journal_path, &starts) {
            self.error = Some(e);
            return None;
        }
        let round = self.next_round;
        self.next_round += 1;
        self.span.emit(
            "round.start",
            fields![
                round = round as u64,
                of = self.total_rounds as u64,
                items = items.len() as u64
            ],
        );
        let spans = RoundSpans::start(self.span, self.deployment, &items);
        self.staged.insert(round, StagedRound { items: items.clone(), ixs, spans });
        Some(items)
    }

    fn event(&mut self, round: usize, event: EngineEvent) {
        if let Some(staged) = self.staged.get_mut(&round) {
            staged.spans.engine_event(&event);
        }
    }

    fn finished(&mut self, round: usize, peers: EngineSnapshot) {
        let Some(StagedRound { items, ixs, spans }) = self.staged.remove(&round) else {
            return;
        };
        let ratio = self.deployment.ratio;
        spans.audit(&items, &peers, self.pool.map(ConnectionPool::stats).as_ref(), ratio);
        if self.error.is_some() {
            return;
        }
        // The round's completions and its `RoundDone`: one write, one
        // fsync.
        let mut records = Vec::with_capacity(ixs.len() + 1);
        for (g, &ix) in ixs.iter().enumerate() {
            let item = DoneItem {
                fp: hex(&items[g].relay_fp),
                capacity: peers.estimate(g, ratio).1.bytes_per_sec(),
                clean: peers.item_clean(g),
                divergent: peers.divergent_count(g, ratio) as u64,
            };
            records.push(Record::ItemDone {
                ix: ix as u64,
                fp: item.fp.clone(),
                capacity: item.capacity,
                clean: item.clean,
                divergent: item.divergent,
                ts: journal::now_ts(),
            });
            self.done.insert(ix as u64, item);
        }
        let measured = records.len();
        records.push(Record::RoundDone {
            round: round as u64,
            items: measured as u64,
            ts: journal::now_ts(),
        });
        if let Err(e) = journal::append_all(self.journal_path, &records) {
            self.error = Some(e);
            return;
        }
        self.measured += measured;
        self.metrics.items_done.add(measured as u64);
        self.metrics.roster_remaining.set((self.pending - self.measured) as i64);
        self.rounds_run += 1;
        self.metrics.rounds.inc();
    }
}

/// Writes the period's bandwidth file (the deployment twin of the
/// simulated `BandwidthFile`) atomically.
fn write_period_file(path: &Path, period: u64, done: &BTreeMap<u64, DoneItem>) -> io::Result<()> {
    let entries: Vec<Json> = done
        .iter()
        .map(|(ix, d)| {
            Json::Obj(vec![
                ("ix".into(), Json::Int(i128::from(*ix))),
                ("fp".into(), Json::Str(d.fp.clone())),
                ("capacity".into(), Json::Num(d.capacity)),
                ("clean".into(), Json::Bool(d.clean)),
                ("divergent".into(), Json::Int(i128::from(d.divergent))),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("flashflow.coord.period.v1".into())),
        ("period".into(), Json::Int(i128::from(period))),
        ("entries".into(), Json::Arr(entries)),
    ]);
    flashflow_procutil::atomic_write(path, encode_line(&doc).as_bytes())
}

/// A document as the one line its file holds.
fn encode_line(doc: &Json) -> String {
    let mut line = doc.encode();
    line.push('\n');
    line
}

/// Votes the consensus from the period's estimates and writes the
/// document atomically. Returns how many relays made it in.
///
/// Estimate → vote → consensus follows the paper's pipeline: each
/// relay's accepted capacity is the BWAuth's weight vote (§4.3);
/// `dirauths` authorities vote (all trusting this team's file — the
/// single-team deployment), the low-median survives; the TorFlow
/// baseline (`flashflow-balance`, §8's comparison system) weights the
/// same network as `prior × measured/mean`, and the document records
/// how far the two normalized weight sets diverge.
fn vote_consensus(
    cfg: &DaemonConfig,
    roster: &Roster,
    done: &BTreeMap<u64, DoneItem>,
    span: &Span,
) -> io::Result<usize> {
    // The vote is keyed by roster index: the consensus machinery only
    // orders and matches relay keys. An item whose every session failed
    // (not clean, estimated at 0) measured nothing: the relay gets no
    // vote, exactly like one the period never reached, rather than a
    // weight of 0.
    let advertised: BTreeMap<usize, Rate> =
        roster.entries.iter().map(|e| (e.ix, Rate::from_bytes_per_sec(e.prior))).collect();
    let weights: BTreeMap<usize, f64> = roster
        .entries
        .iter()
        .filter_map(|e| {
            let d = done.get(&(e.ix as u64))?;
            (d.clean || d.capacity > 0.0).then_some((e.ix, d.capacity))
        })
        .collect();
    let measured = weights.len();
    let votes = vec![weights; cfg.dirauths.max(1)];
    let consensus = DirAuths::new(votes.len()).vote(SimTime::ZERO, &votes, &advertised);

    // The §8 baseline: what TorFlow would have voted from the same
    // priors (as self-reports) and measurements (as probe speeds).
    let torflow = flashflow_balance::torflow::compute_weights(&advertised, &votes[0]);
    let torflow_total: f64 = torflow.values().sum();
    let mut max_diff = 0.0f64;
    let mut sum_diff = 0.0f64;
    let mut entries = Vec::with_capacity(consensus.entries.len());
    for (entry, (ix, norm)) in consensus.entries.iter().zip(consensus.normalized()) {
        let tf_norm = if torflow_total > 0.0 {
            torflow.get(&ix).copied().unwrap_or(0.0) / torflow_total
        } else {
            0.0
        };
        let diff = (norm - tf_norm).abs();
        max_diff = max_diff.max(diff);
        sum_diff += diff;
        let relay = &roster.entries[ix];
        entries.push(Json::Obj(vec![
            ("ix".into(), Json::Int(ix as i128)),
            ("fp".into(), Json::Str(hex(&relay.fp))),
            ("weight".into(), Json::Num(entry.weight)),
            ("normalized".into(), Json::Num(norm)),
            ("prior".into(), Json::Num(relay.prior)),
            ("torflow_normalized".into(), Json::Num(tf_norm)),
        ]));
    }
    let count = entries.len();
    let mean_diff = if count > 0 { sum_diff / count as f64 } else { 0.0 };
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("flashflow.coord.consensus.v1".into())),
        ("dirauths".into(), Json::Int(votes.len() as i128)),
        ("roster".into(), Json::Int(roster.entries.len() as i128)),
        ("measured".into(), Json::Int(measured as i128)),
        ("entries".into(), Json::Arr(entries)),
        (
            "balance".into(),
            Json::Obj(vec![
                ("baseline".into(), Json::Str("torflow".into())),
                ("max_abs_diff".into(), Json::Num(max_diff)),
                ("mean_abs_diff".into(), Json::Num(mean_diff)),
            ]),
        ),
    ]);
    flashflow_procutil::atomic_write(&cfg.consensus_path(), encode_line(&doc).as_bytes())?;
    span.emit(
        "consensus.voted",
        fields![entries = count as u64, max_abs_diff = max_diff, mean_abs_diff = mean_diff],
    );
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_obs::EventSink;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ff-coord-daemon-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mk temp dir");
        dir
    }

    #[test]
    fn consensus_includes_every_measured_relay_and_the_torflow_baseline() {
        let dir = temp_dir("vote");
        let cfg = DaemonConfig {
            state_dir: dir.clone(),
            source: RosterSource::Shadow,
            seed: 5,
            relays: Some(4),
            secret_seed: 1,
            slot_secs: 1,
            team_capacity: Some(1e9),
            round_max: 0,
            dirauths: 3,
        };
        let roster = roster::build(cfg.source, cfg.seed, cfg.relays);
        let mut done = BTreeMap::new();
        for entry in &roster.entries {
            done.insert(
                entry.ix as u64,
                DoneItem {
                    fp: hex(&entry.fp),
                    // Measured ≈ prior: the consensus should then track
                    // capacity shares.
                    capacity: entry.prior * 1.01,
                    clean: true,
                    divergent: 0,
                },
            );
        }
        let span = Span::root(EventSink::new());
        let n = vote_consensus(&cfg, &roster, &done, &span).expect("vote");
        assert_eq!(n, 4);

        let text = std::fs::read_to_string(cfg.consensus_path()).expect("consensus written");
        let doc = Json::parse(text.trim()).expect("valid json");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("flashflow.coord.consensus.v1"));
        let entries = doc.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 4);
        let norm_sum: f64 =
            entries.iter().map(|e| e.get("normalized").unwrap().as_f64().unwrap()).sum();
        assert!((norm_sum - 1.0).abs() < 1e-9, "normalized weights sum to 1: {norm_sum}");
        // Measured == 1.01 × prior, so FlashFlow's shares equal the
        // capacity shares and TorFlow's (prior × speed/mean) skews
        // toward large relays — the balance block must report a real,
        // finite divergence.
        let balance = doc.get("balance").unwrap();
        let max_diff = balance.get("max_abs_diff").unwrap().as_f64().unwrap();
        assert!(max_diff.is_finite());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn consensus_entries_match_a_direct_lookup_on_a_large_roster() {
        let dir = temp_dir("vote-large");
        let cfg = DaemonConfig {
            state_dir: dir.clone(),
            source: RosterSource::Synth,
            seed: 11,
            relays: Some(2500),
            secret_seed: 1,
            slot_secs: 1,
            team_capacity: Some(1e9),
            round_max: 0,
            dirauths: 3,
        };
        let roster = roster::build(cfg.source, cfg.seed, cfg.relays);
        assert_eq!(roster.entries.len(), 2500);
        // Every seventh relay went unmeasured: it has no vote and no entry.
        let mut done = BTreeMap::new();
        for entry in roster.entries.iter().filter(|e| e.ix % 7 != 3) {
            let capacity = entry.prior * (1.0 + (entry.ix % 13) as f64 / 100.0);
            done.insert(
                entry.ix as u64,
                DoneItem { fp: hex(&entry.fp), capacity, clean: true, divergent: 0 },
            );
        }
        let span = Span::root(EventSink::new());
        let n = vote_consensus(&cfg, &roster, &done, &span).expect("vote");
        assert_eq!(n, done.len());

        let text = std::fs::read_to_string(cfg.consensus_path()).expect("consensus written");
        let doc = Json::parse(text.trim()).expect("valid json");
        let entries = doc.get("entries").unwrap().as_arr().unwrap();
        let total: f64 = done.values().map(|d| d.capacity).sum();
        // In roster order, one per measured relay, each carrying its own
        // relay's numbers.
        let ixs: Vec<u64> =
            entries.iter().map(|e| e.get("ix").unwrap().as_u64().unwrap()).collect();
        assert_eq!(ixs, done.keys().copied().collect::<Vec<_>>());
        for e in entries {
            let ix = e.get("ix").unwrap().as_u64().unwrap();
            let entry = &roster.entries[ix as usize];
            let measured = &done[&ix];
            assert_eq!(e.get("fp").unwrap().as_str(), Some(hex(&entry.fp).as_str()), "{ix}");
            assert_eq!(e.get("prior").unwrap().as_f64(), Some(entry.prior), "{ix}");
            assert_eq!(e.get("weight").unwrap().as_f64(), Some(measured.capacity), "{ix}");
            let norm = e.get("normalized").unwrap().as_f64().unwrap();
            assert!((norm - measured.capacity / total).abs() < 1e-12, "{ix}: {norm}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_item_whose_every_session_failed_gets_no_vote() {
        let dir = temp_dir("vote-failed");
        let cfg = DaemonConfig {
            state_dir: dir.clone(),
            source: RosterSource::Shadow,
            seed: 5,
            relays: Some(4),
            secret_seed: 1,
            slot_secs: 1,
            team_capacity: Some(1e9),
            round_max: 0,
            dirauths: 3,
        };
        let roster = roster::build(cfg.source, cfg.seed, cfg.relays);
        let span = Span::root(EventSink::new());
        let entries = |done: &BTreeMap<u64, DoneItem>| {
            let n = vote_consensus(&cfg, &roster, done, &span).expect("vote");
            let text = std::fs::read_to_string(cfg.consensus_path()).expect("consensus written");
            let doc = Json::parse(text.trim()).expect("valid json");
            let entries = doc.get("entries").unwrap().as_arr().unwrap().to_vec();
            assert_eq!(entries.len(), n);
            assert_eq!(doc.get("measured").unwrap().as_u64(), Some(n as u64));
            entries
        };
        // Relay 2's every session failed: capacity 0, not clean.
        let failed = |ix: usize| DoneItem {
            fp: hex(&roster.entries[ix].fp),
            capacity: 0.0,
            clean: false,
            divergent: 0,
        };
        let mut done: BTreeMap<u64, DoneItem> = roster
            .entries
            .iter()
            .map(|e| {
                let d = DoneItem { fp: hex(&e.fp), capacity: e.prior, clean: true, divergent: 0 };
                (e.ix as u64, d)
            })
            .collect();
        done.insert(2, failed(2));
        let voted = entries(&done);
        let ixs: Vec<u64> = voted.iter().map(|e| e.get("ix").unwrap().as_u64().unwrap()).collect();
        assert_eq!(ixs, [0, 1, 3]);
        let norm_sum: f64 =
            voted.iter().map(|e| e.get("normalized").unwrap().as_f64().unwrap()).sum();
        assert!((norm_sum - 1.0).abs() < 1e-9, "normalized weights sum to 1: {norm_sum}");

        // On its own, it leaves the consensus empty rather than voting
        // every weight 0.
        let alone = BTreeMap::from([(0, failed(0))]);
        assert!(entries(&alone).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn period_file_is_written_atomically_with_all_entries() {
        let dir = temp_dir("period");
        let path = dir.join("period.json");
        let mut done = BTreeMap::new();
        done.insert(
            0u64,
            DoneItem { fp: "aa".repeat(20), capacity: 5.5, clean: true, divergent: 0 },
        );
        write_period_file(&path, 3, &done).expect("write");
        let doc = Json::parse(std::fs::read_to_string(&path).unwrap().trim()).unwrap();
        assert_eq!(doc.get("period").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("entries").unwrap().as_arr().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
