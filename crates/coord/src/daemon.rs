//! The period loop: recover → schedule → measure → journal → consensus.
//!
//! [`run_period`] drives one full roster pass against live
//! `flashflow-measurer` / `flashflow-relay` processes. It is restart
//! shaped end to end:
//!
//! * before commanding anything it replays the journal
//!   ([`crate::journal::recover`]) and removes already-completed relays
//!   from the plan;
//! * relays the journal shows *in flight* are re-commanded as attempt
//!   `n+1` with the **journaled** secret, so their control sessions
//!   open with the v5 `Resume` handshake and the peers re-adopt the
//!   parked conversations instead of replay-rejecting the re-derived
//!   nonces;
//! * every item start and completion is journaled before/after the
//!   round runs, so the next incarnation — however this one dies —
//!   knows exactly what remains. A round pays one fsync on each side:
//!   its `ItemStart`s are one write, durable before the first `Auth`
//!   leaves, and its `ItemDone`s plus `RoundDone` are one write once
//!   the round has ended.
//!
//! Rounds are staged and finalized one at a time on
//! [`flashflow_core::echo::run_rounds`]' slot clock, two in flight: the
//! next round is planned, journaled and handshaken while the current
//! one blasts, and the current one's reports, ledger and completions
//! are handled during the next one's slot. So the journal can hold
//! round n+1's starts before round n's completions, and a crash there
//! leaves both rounds in flight; the restart resumes both. The rounds
//! are asked for lazily, one per staging. A resumed item whose `Resume`
//! a restarted peer refused is retried with a fresh `Auth` as one more
//! staged round. `draining` (SIGTERM) is polled before each staging:
//! nothing new is staged, and the rounds already staged finish and are
//! journaled.
//!
//! When the roster is complete the loop closes: the accumulated
//! estimates become one BWAuth's vote, `flashflow-tornet`'s
//! [`DirAuths`] vote the
//! consensus, `flashflow-balance`'s TorFlow pipeline provides the
//! baseline weight set the paper compares against (§8), and the
//! consensus document is written atomically next to the journal.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};

use flashflow_core::bwauth::EchoRound;
use flashflow_core::echo::{run_rounds, EchoDeployment, EchoItem, RoundSource};
use flashflow_core::engine::{EngineEvent, EngineSnapshot, PeerDirectory};
// Lowercase hex of a fingerprint; `flashflow-perf` imports it by this path.
pub use flashflow_core::observe::hex_fp as hex;
use flashflow_core::pool::ConnectionPool;
use flashflow_obs::{fields, Counter, Gauge, Json, MetricsRegistry, Span};
use flashflow_proto::msg::{AbortReason, FINGERPRINT_LEN};
use flashflow_simnet::time::SimTime;
use flashflow_simnet::units::Rate;
use flashflow_tornet::consensus::DirAuths;
use flashflow_tornet::netbuild::TorNet;
use flashflow_tornet::relay::RelayConfig;

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
    /// journal is the authority for resumed ones).
    pub secret_seed: u64,
    /// Slot length commanded per item (sped-up seconds).
    pub slot_secs: u32,
    /// Background allowance commanded of the relay (bytes/s).
    pub bg_allowance: u64,
    /// Aggregate team blast budget for round packing (bytes/s).
    pub team_capacity: f64,
    /// Hard cap on items per round (`0` = capacity-bound only).
    pub round_max: usize,
    /// Directory authorities voting the consensus.
    pub dirauths: usize,
}

impl DaemonConfig {
    /// The journal file path.
    pub fn journal_path(&self) -> PathBuf {
        self.state_dir.join("journal.jsonl")
    }

    /// The consensus document path.
    pub fn consensus_path(&self) -> PathBuf {
        self.state_dir.join("consensus.json")
    }

    /// The per-period bandwidth-file path.
    pub fn period_path(&self) -> PathBuf {
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
    /// Items re-commanded with a `Resume` handshake after a restart.
    pub items_resumed: Counter,
    /// Resumed items whose `Resume` a peer refused (restarted peer,
    /// lost replay window) and that were re-run with a fresh `Auth`.
    pub resume_refused: Counter,
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
            resume_refused: registry.counter("coord.resume_refused"),
            periods: registry.counter("coord.periods_done"),
            roster_total: registry.gauge("coord.roster_total"),
            roster_remaining: registry.gauge("coord.roster_remaining"),
        }
    }
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
    /// Relays re-commanded with attempt `n+1` (resumed sessions).
    pub resumed: usize,
    /// Resumed relays whose `Resume` was refused and that fell back to
    /// a fresh `Auth` attempt.
    pub resume_refused: usize,
    /// Rounds this incarnation ran.
    pub rounds: usize,
    /// True if SIGTERM cut the roster walk short (no consensus; the
    /// journal carries the remainder for the next incarnation).
    pub drained: bool,
    /// Consensus entries voted (0 when drained).
    pub consensus_entries: usize,
}

/// Runs one measurement period: walks the remainder of `roster` (built
/// from `cfg`'s source, seed and size) in rounds against the
/// deployment's processes, journaling every step, and —
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
    pool: &ConnectionPool,
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
    let plan =
        PlanConfig { team_capacity: cfg.team_capacity, per_item_blast, round_max: cfg.round_max };
    let rounds = plan_rounds(&pending, &plan);

    let mut walk = RosterWalk {
        cfg,
        deployment,
        pool,
        span,
        metrics,
        draining,
        journal_path: &journal_path,
        roster,
        total_rounds: rounds.len(),
        planned: rounds.into_iter(),
        in_flight,
        retries: VecDeque::new(),
        staged: BTreeMap::new(),
        next_round: 0,
        done,
        pending: pending.len(),
        measured: 0,
        resumed: 0,
        resume_refused: 0,
        rounds_run: 0,
        drained: false,
        error: None,
    };
    run_rounds(deployment, pool, &mut walk);
    let RosterWalk { measured, resumed, resume_refused, rounds_run, done, drained, error, .. } =
        walk;
    if let Some(e) = error {
        return Err(e);
    }
    if drained {
        return Ok(PeriodOutcome {
            period,
            measured,
            recovered_done,
            resumed,
            resume_refused,
            rounds: rounds_run,
            drained: true,
            consensus_entries: 0,
        });
    }

    // Roster complete: write the bandwidth file, vote the consensus,
    // then seal the period in the journal (in that order — a crash
    // between the writes re-votes from the journal next time, which is
    // idempotent).
    write_period_file(&cfg.period_path(), period, &done)?;
    let consensus = vote_consensus(cfg, roster, &done, span)?;
    journal::append(
        &journal_path,
        &Record::PeriodDone { period, entries: done.len() as u64, ts: journal::now_ts() },
    )?;
    metrics.periods.inc();
    span.emit(
        "period.complete",
        fields![period = period, entries = done.len() as u64, consensus = consensus as u64],
    );
    Ok(PeriodOutcome {
        period,
        measured,
        recovered_done,
        resumed,
        resume_refused,
        rounds: rounds_run,
        drained: false,
        consensus_entries: consensus,
    })
}

/// One attempt at a roster item, ready to be staged.
struct Attempt {
    ix: usize,
    fp: [u8; FINGERPRINT_LEN],
    secret: u64,
    attempt: u32,
    /// Open with the `Resume` handshake (the journaled conversation).
    resume: bool,
}

/// A staged round: the roster items it carries, and its recording.
struct StagedRound {
    ixs: Vec<usize>,
    record: EchoRound,
}

/// [`run_period`]'s side of the staged-round loop: it hands out the
/// plan's rounds one at a time, journals each round's starts as it is
/// staged and its completions as it ends, and turns a refused `Resume`
/// into one more staged round.
struct RosterWalk<'a> {
    cfg: &'a DaemonConfig,
    roster: &'a Roster,
    deployment: &'a EchoDeployment,
    pool: &'a ConnectionPool,
    span: &'a Span,
    metrics: &'a CoordMetrics,
    draining: &'a dyn Fn() -> bool,
    journal_path: &'a Path,
    total_rounds: usize,
    /// The plan's rounds not yet staged.
    planned: std::vec::IntoIter<Round>,
    /// What the journal showed in flight when this incarnation started.
    in_flight: BTreeMap<u64, InFlightItem>,
    /// Fresh-`Auth` retries of refused resumes, staged before the plan
    /// goes on.
    retries: VecDeque<Vec<Attempt>>,
    /// Rounds staged and not yet ended, by staging number.
    staged: BTreeMap<usize, StagedRound>,
    next_round: usize,
    done: BTreeMap<u64, DoneItem>,
    /// Relays this incarnation set out to measure.
    pending: usize,
    measured: usize,
    resumed: usize,
    resume_refused: usize,
    rounds_run: usize,
    drained: bool,
    /// The first journal write that failed: nothing more is staged, and
    /// `run_period` returns it once the staged rounds have ended.
    error: Option<io::Error>,
}

impl RosterWalk<'_> {
    /// The next attempt at roster item `ix`. The journal is the
    /// authority for a resumed item's secret: attempt n+1 must re-derive
    /// attempt n's nonces from the *same* secret, or the `Resume`
    /// lineage proof fails.
    fn attempt_at(&mut self, ix: usize) -> Attempt {
        let fp = self.roster.entries[ix].fp;
        match self.in_flight.get(&(ix as u64)) {
            Some(parked) => {
                let attempt = u32::try_from(parked.attempt + 1).unwrap_or(1);
                self.resumed += 1;
                self.metrics.items_resumed.inc();
                self.span.emit("item.resumed", fields![ix = ix as u64, attempt = attempt]);
                Attempt { ix, fp, secret: parked.secret, attempt, resume: true }
            }
            None => Attempt {
                ix,
                fp,
                secret: roster::item_secret(self.cfg.secret_seed, ix),
                attempt: 0,
                resume: false,
            },
        }
    }
}

impl RoundSource for RosterWalk<'_> {
    fn next_round(&mut self) -> Option<Vec<EchoItem>> {
        // Asked again after every round ends (a refused `Resume` may
        // have queued a retry), so a drain or an error is reported once.
        if self.error.is_some()
            || self.drained
            || (self.retries.is_empty() && self.planned.len() == 0)
        {
            return None;
        }
        // SIGTERM stops the staging; the rounds already staged finish.
        if (self.draining)() {
            self.drained = true;
            self.span.emit("coord.drain", fields![pending = (self.pending - self.measured) as u64]);
            return None;
        }
        let attempts = match self.retries.pop_front() {
            Some(retry) => retry,
            None => {
                let round = self.planned.next()?;
                round.items.iter().map(|&ix| self.attempt_at(ix)).collect()
            }
        };
        let (items, starts): (Vec<EchoItem>, Vec<Record>) = attempts
            .iter()
            .map(|a| start_item(self.cfg, self.span, a.ix, a.fp, a.secret, a.attempt, a.resume))
            .unzip();
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
        let record = EchoRound::start(self.deployment, &items, Some(self.span));
        self.staged
            .insert(round, StagedRound { ixs: attempts.iter().map(|a| a.ix).collect(), record });
        Some(items)
    }

    fn event(&mut self, round: usize, event: EngineEvent) {
        if let Some(staged) = self.staged.get_mut(&round) {
            staged.record.observe(event);
        }
    }

    fn finished(&mut self, round: usize, peers: EngineSnapshot) {
        let Some(StagedRound { ixs, record }) = self.staged.remove(&round) else { return };
        let items = record.items().to_vec();
        let file = record.finish(peers, self.pool);
        if self.error.is_some() {
            return;
        }
        // A resumed item whose peer aborted the handshake with
        // `AuthFailed` hit a peer that cannot honor the `Resume`
        // lineage — it restarted since the prior attempt and lost its
        // replay window, so *no* retry of the proof can succeed. Fall
        // back to a fresh `Auth` as attempt `n+1`: its nonce has never
        // been offered to anyone, so surviving peers (which simply see
        // a new conversation) and restarted peers (fresh windows)
        // both accept it.
        let refused = |g: usize| {
            items[g].resume
                && file.events.iter().any(|ev| {
                    matches!(
                        *ev,
                        EngineEvent::PeerFailed { peer, reason: AbortReason::AuthFailed }
                            if file.peers.item(peer) == g
                    )
                })
        };
        // The round's completions and its `RoundDone`: one write, one
        // fsync, with no `ItemDone` for a refused item — its retry is a
        // round of its own.
        let mut records = Vec::with_capacity(ixs.len() + 1);
        let mut retry = Vec::new();
        for (g, (entry, &ix)) in file.entries.iter().zip(&ixs).enumerate() {
            if refused(g) {
                let attempt = items[g].attempt + 1;
                self.resume_refused += 1;
                self.metrics.resume_refused.inc();
                self.span.emit(
                    "item.resume_refused",
                    fields![ix = ix as u64, attempt = u64::from(attempt)],
                );
                // A fresh attempt is a fresh trace: `start_item` re-mints
                // it when the retry is staged, so the retry's telemetry
                // never merges into the refused attempt's timeline.
                let (fp, secret) = (items[g].relay_fp, items[g].measurement_secret);
                retry.push(Attempt { ix, fp, secret, attempt, resume: false });
                continue;
            }
            let item = DoneItem {
                fp: hex(&entry.relay_fp),
                capacity: entry.capacity.bytes_per_sec(),
                clean: entry.clean,
                divergent: entry.divergent_rows as u64,
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
        if !retry.is_empty() {
            self.retries.push_back(retry);
        }
        self.measured += measured;
        self.metrics.items_done.add(measured as u64);
        self.metrics.roster_remaining.set((self.pending - self.measured) as i64);
        self.rounds_run += 1;
        self.metrics.rounds.inc();
    }
}

/// Opens one attempt at a roster item: mints and emits the attempt's
/// trace id, and returns the item to command with the `ItemStart` the
/// caller journals (batched with the rest of the round) before any
/// session opens. `resume` opens the sessions with the `Resume`
/// handshake (the journaled conversation) instead of a fresh `Auth`.
fn start_item(
    cfg: &DaemonConfig,
    span: &Span,
    ix: usize,
    fp: [u8; FINGERPRINT_LEN],
    secret: u64,
    attempt: u32,
    resume: bool,
) -> (EchoItem, Record) {
    let start = Record::ItemStart {
        ix: ix as u64,
        fp: hex(&fp),
        secret,
        attempt: u64::from(attempt),
        ts: journal::now_ts(),
    };
    let trace_id = flashflow_core::echo::item_trace_id(secret, attempt);
    span.emit("item.trace", fields![ix = ix as u64, attempt = attempt, trace = trace_id]);
    let item = EchoItem {
        relay_fp: fp,
        slot_secs: cfg.slot_secs,
        bg_allowance: cfg.bg_allowance,
        measurement_secret: secret,
        attempt,
        resume,
        trace_id,
    };
    (item, start)
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
    flashflow_procutil::atomic_write(path, format!("{doc}\n").as_bytes())
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
    // Mint simulated RelayIds for the roster: the consensus machinery
    // is keyed by them, and they are deliberately not constructible
    // outside flashflow-tornet.
    let mut tor = TorNet::new();
    let host = tor.add_host(flashflow_simnet::host::HostProfile::new(
        "coord-consensus",
        Rate::from_gbit(1.0),
    ));
    let ids: Vec<_> = (0..roster.entries.len())
        .map(|ix| tor.add_relay(host, RelayConfig::new(format!("roster-{ix}"))))
        .collect();

    let mut weights = BTreeMap::new();
    let mut advertised = BTreeMap::new();
    let mut speeds = BTreeMap::new();
    for entry in &roster.entries {
        let id = ids[entry.ix];
        advertised.insert(id, Rate::from_bytes_per_sec(entry.prior));
        if let Some(d) = done.get(&(entry.ix as u64)) {
            weights.insert(id, d.capacity);
            speeds.insert(id, d.capacity);
        }
    }
    let votes = vec![weights; cfg.dirauths.max(1)];
    let consensus = DirAuths::new(cfg.dirauths.max(1)).vote(SimTime::ZERO, &votes, &advertised);

    // The §8 baseline: what TorFlow would have voted from the same
    // priors (as self-reports) and measurements (as probe speeds).
    let torflow = flashflow_balance::torflow::compute_weights(&advertised, &speeds);
    let torflow_total: f64 = torflow.values().sum();
    let normalized = consensus.normalized();
    // Both lookups indexed once: a scan per entry is quadratic in the
    // roster, paid at the end of every period.
    let ix_of: BTreeMap<_, usize> = ids.iter().enumerate().map(|(ix, id)| (*id, ix)).collect();
    let weight_of: BTreeMap<_, f64> =
        consensus.entries.iter().map(|e| (e.relay, e.weight)).collect();
    let mut max_diff = 0.0f64;
    let mut sum_diff = 0.0f64;
    let mut entries = Vec::new();
    for (relay, norm) in &normalized {
        // Every consensus entry is keyed by an id minted above; an
        // unknown one would mean the voting machinery invented a
        // relay. Skip it rather than panic the daemon mid-period.
        let Some(&ix) = ix_of.get(relay) else { continue };
        let weight = weight_of.get(relay).copied().unwrap_or(0.0);
        let tf_norm = if torflow_total > 0.0 {
            torflow.get(relay).copied().unwrap_or(0.0) / torflow_total
        } else {
            0.0
        };
        let diff = (norm - tf_norm).abs();
        max_diff = max_diff.max(diff);
        sum_diff += diff;
        entries.push(Json::Obj(vec![
            ("ix".into(), Json::Int(ix as i128)),
            ("fp".into(), Json::Str(hex(&roster.entries[ix].fp))),
            ("weight".into(), Json::Num(weight)),
            ("normalized".into(), Json::Num(*norm)),
            ("prior".into(), Json::Num(roster.entries[ix].prior)),
            ("torflow_normalized".into(), Json::Num(tf_norm)),
        ]));
    }
    let count = entries.len();
    let mean_diff = if count > 0 { sum_diff / count as f64 } else { 0.0 };
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("flashflow.coord.consensus.v1".into())),
        ("dirauths".into(), Json::Int(cfg.dirauths.max(1) as i128)),
        ("roster".into(), Json::Int(roster.entries.len() as i128)),
        ("measured".into(), Json::Int(done.len() as i128)),
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
    flashflow_procutil::atomic_write(&cfg.consensus_path(), format!("{doc}\n").as_bytes())?;
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
            bg_allowance: 0,
            team_capacity: 1e9,
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
            bg_allowance: 0,
            team_capacity: 1e9,
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
