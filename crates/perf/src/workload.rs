//! One pass of one workload: spawn the real `flashflow-relay`,
//! `flashflow-measurer` and `flashflow-coord` binaries over loopback,
//! let the coordinator walk its roster, check everything it wrote, and
//! turn what was observed from outside — exit times, `/proc`, the
//! `--metrics-addr` snapshots, the files in the state directory — into
//! the end-to-end and per-process metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use flashflow_coord::daemon::hex;
use flashflow_coord::journal::{self, Record};
use flashflow_obs::{Json, RegistrySnapshot};
use flashflow_proto::blast::ECHO_BACKLOG_HIGH_WATER;
use flashflow_proto::msg::AUTH_TOKEN_LEN;

use crate::engine_spans;
use crate::spans::SpanLog;
use crate::spec::{self, Kind, Size, Workload};
use crate::stats;
use crate::supervise::{Proc, ProcSample, ScratchDir};

/// How long a peer may take to advertise its listeners.
const READY_TIMEOUT: Duration = Duration::from_secs(20);
/// How long a SIGTERMed peer may take to drain to exit 0.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Timeout of one metrics-endpoint fetch.
const FETCH_TIMEOUT: Duration = Duration::from_secs(5);
/// Cadence of the traced pass's gauge and `/proc` sampling. An
/// untraced pass reads its peers before and after, never while the
/// coordinator works.
const SAMPLE_EVERY: Duration = Duration::from_millis(200);
/// `blast_paced` must land within this share of the commanded rate.
const PACED_TOLERANCE: f64 = 0.05;
/// Bytes one echo channel can hold in flight when the measurer hangs
/// up at slot end — the relay's echo outbox up to its high-water mark
/// plus loopback socket buffers each way — and so the most the relay's
/// echoed count may exceed the measurer's verified count by, per
/// channel per item: one back-pressure window.
const CHANNEL_WINDOW: u64 = ECHO_BACKLOG_HIGH_WATER as u64 + (8 << 20);
/// The windows above add up over the items of a pass, and where items
/// are many and small (`period_roster`) their sum is more than was ever
/// sent. So the unverified bytes are also held to this share of the
/// echoed bytes. Seen on the unmodified code: 7.5 % on `period_roster`
/// (its 20 ms slots end with 1.5 ms of traffic in flight; 16 % in a
/// minute in which the sandbox ran a third slower), 3-5 % on
/// `blast_fanout` (3-4 MB per channel), under 1 % elsewhere — and 19 %
/// on a `--smoke` `blast_fanout` between peers built without
/// optimisation, whose 1 s slots end with the same 190 ms of traffic in
/// flight as the 4 s slots of a full run. Half leaves that room.
const UNVERIFIED_SHARE_MAX: f64 = 0.5;
/// The measurer opens at most this many echo sockets whatever
/// `--sockets` commands (`dial_echo_channels` clamps).
const MEASURER_SOCKET_CLAMP: u32 = 16;

/// The three sibling binaries and where scratch files go.
#[derive(Debug, Clone)]
pub struct Bins {
    /// `flashflow-relay`.
    pub relay: PathBuf,
    /// `flashflow-measurer`.
    pub measurer: PathBuf,
    /// `flashflow-coord`.
    pub coord: PathBuf,
    /// `<target dir>/perf`: state directories, logs, trace files.
    pub work_root: PathBuf,
}

impl Bins {
    /// Finds the binaries beside this executable, asking cargo to
    /// (re)build them first — a no-op when current, and what makes
    /// `cargo run -p flashflow-perf` sufficient on a fresh checkout,
    /// where building one package does not build its siblings.
    ///
    /// # Errors
    /// The build failed or a binary is still missing.
    pub fn locate() -> Result<Bins, String> {
        let mut dir = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        dir.pop();
        if dir.ends_with("deps") {
            dir.pop(); // a test executable lives one level down
        }
        let names = ["flashflow-relay", "flashflow-measurer", "flashflow-coord"];
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let mut build = Command::new(cargo);
        build.args(["build", "--offline"]);
        if dir.ends_with("release") {
            build.arg("--release");
        }
        for name in names {
            build.args(["-p", name, "--bin", name]);
        }
        // Cargo's own chatter must not reach stdout, where the result goes.
        let status = build
            .stdin(Stdio::null())
            .stdout(Stdio::from(std::io::stderr()))
            .status()
            .map_err(|e| format!("run cargo build for the sibling binaries: {e}"))?;
        if !status.success() {
            return Err(format!("cargo build of {names:?} failed ({status})"));
        }
        let bin = |name: &str| {
            let path = dir.join(name);
            if path.exists() {
                Ok(path)
            } else {
                Err(format!("{name} not found beside this executable at {}", path.display()))
            }
        };
        let work_root = dir.parent().unwrap_or(&dir).join("perf");
        Ok(Bins {
            relay: bin(names[0])?,
            measurer: bin(names[1])?,
            coord: bin(names[2])?,
            work_root,
        })
    }
}

/// What to run.
pub struct Pass<'a> {
    /// The binaries.
    pub bins: &'a Bins,
    /// The workload.
    pub workload: &'a Workload,
    /// Feeds `--seed`, `--secret-seed` and the tokens.
    pub seed: u64,
    /// How much work.
    pub size: Size,
    /// `--log-json` on every process, gauges and `/proc` sampled while
    /// the coordinator runs.
    pub traced: bool,
    /// Extra flags for the relay (fault injection: `--corrupt-echo`).
    pub relay_extra: &'a [String],
}

/// What one pass observed.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Every metric of [`spec::END_TO_END`] and [`spec::WHERE_DEFINED`],
    /// by name (the latter computed everywhere; who reports them is
    /// [`Workload::defines`]'s call).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Items commanded across all periods.
    pub attempted: u64,
    /// Items missing, unclean, or not measured exactly once.
    pub failed: u64,
    /// Per-process (and, when traced, per-reactor and per-item-span)
    /// layer metrics, by full name.
    pub layers: BTreeMap<String, f64>,
    /// Ledger capacity of every item, bytes/s (the goodput samples).
    pub capacities: Vec<f64>,
    /// Wall seconds of every period.
    pub period_walls: Vec<f64>,
    /// Every set-up trial, seconds.
    pub setup_samples: Vec<f64>,
    /// Bytes the relay echoed that no measurer verified (in flight at
    /// slot end) over bytes echoed.
    pub unverified_share: f64,
}

impl PassResult {
    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A pre-shared token derived from the seed (`which` separates the
/// measurers' token from the relay's).
fn token_for(seed: u64, which: u64) -> [u8; AUTH_TOKEN_LEN] {
    let mut token = [0u8; AUTH_TOKEN_LEN];
    for (ix, chunk) in token.chunks_mut(8).enumerate() {
        let word = splitmix64(seed ^ (which << 56) ^ ix as u64).to_be_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    token
}

fn flags(pairs: &[(&str, String)]) -> Vec<String> {
    pairs.iter().flat_map(|(k, v)| [format!("--{k}"), v.clone()]).collect()
}

/// One long-lived peer process.
struct Peer {
    proc: Proc,
    addr: SocketAddr,
    metrics: SocketAddr,
    token: [u8; AUTH_TOKEN_LEN],
    log: Option<PathBuf>,
}

impl Peer {
    fn snapshot(&self) -> Result<RegistrySnapshot, String> {
        let body = flashflow_procutil::fetch_metrics(self.metrics, &self.token, FETCH_TIMEOUT)
            .map_err(|e| format!("fetch {} metrics: {e}", self.proc.name()))?;
        RegistrySnapshot::parse(&body).map_err(|e| format!("{} metrics: {e}", self.proc.name()))
    }
}

fn counter(snap: &RegistrySnapshot, name: &str) -> u64 {
    snap.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

/// The static shape of a workload at a given size.
struct Shape {
    speedup: f64,
    measurers: usize,
    items: usize,
    periods: usize,
    slot_secs: u32,
    rate: u64,
    sockets: u32,
    round_max: usize,
}

impl Shape {
    fn of(workload: &Workload, size: &Size) -> Shape {
        match workload.kind {
            Kind::Blast { paced, sockets } => Shape {
                speedup: 1.0,
                measurers: 1,
                items: size.blast_items,
                periods: 1,
                slot_secs: size.slot_secs,
                rate: if paced { size.paced_rate } else { 0 },
                sockets,
                round_max: 1,
            },
            Kind::Roster => Shape {
                speedup: size.roster_speedup,
                measurers: 2,
                items: size.roster_relays,
                periods: size.periods,
                slot_secs: 1,
                rate: spec::ROSTER_RATE,
                sockets: 2,
                round_max: spec::ROSTER_ROUND,
            },
        }
    }

    /// Wall seconds one slot lasts.
    fn slot_wall(&self) -> f64 {
        f64::from(self.slot_secs) / self.speedup
    }

    fn rounds(&self) -> usize {
        self.items.div_ceil(self.round_max)
    }

    /// What the ledger should read when the blast is paced: every
    /// measurer's commanded rate plus the admitted background.
    fn commanded_truth(&self) -> Option<f64> {
        (self.rate > 0)
            .then_some(self.measurers as f64 * self.rate as f64 + spec::BACKGROUND as f64)
    }
}

/// The peers of one pass, spawned and listening.
struct Team {
    relay: Peer,
    measurers: Vec<Peer>,
    /// Spawn of the first peer → last `metrics` line.
    ready_secs: f64,
}

impl Team {
    fn peers(&self) -> impl Iterator<Item = &Peer> {
        std::iter::once(&self.relay).chain(&self.measurers)
    }
}

fn spawn_team(pass: &Pass<'_>, shape: &Shape, dir: &Path, log: bool) -> Result<Team, String> {
    let t0 = Instant::now();
    let spawn = |bin: &Path, name: String, which: u64, extra: Vec<String>| {
        let token = token_for(pass.seed, which);
        let log_path = log.then(|| dir.join(format!("{name}.jsonl")));
        let mut args = flags(&[
            ("listen", "127.0.0.1:0".into()),
            ("token-hex", hex(&token)),
            ("speedup", shape.speedup.to_string()),
            ("io-threads", "1".into()),
            ("metrics-addr", "127.0.0.1:0".into()),
        ]);
        if let Some(path) = &log_path {
            args.extend(flags(&[("log-json", path.display().to_string())]));
        }
        args.extend(extra);
        Proc::spawn(bin, &name, &args).map(|proc| (proc, token, log_path))
    };
    let mut started = Vec::new();
    let relay_flags = flags(&[("background", spec::BACKGROUND.to_string())])
        .into_iter()
        .chain(pass.relay_extra.iter().cloned())
        .collect();
    started.push(spawn(&pass.bins.relay, "relay".into(), 2, relay_flags)?);
    for ix in 0..shape.measurers {
        let role = flags(&[("role", "measurer".into())]);
        started.push(spawn(&pass.bins.measurer, format!("measurer{ix}"), 1, role)?);
    }
    let mut ready_at = t0;
    let mut peers = Vec::new();
    for (mut proc, token, log) in started {
        let parse = |what: &str, text: String| {
            text.parse::<SocketAddr>().map_err(|e| format!("{what} address {text:?}: {e}"))
        };
        let (_, addr) = proc.expect_line("listening ", READY_TIMEOUT)?;
        let (at, metrics) = proc.expect_line("metrics ", READY_TIMEOUT)?;
        ready_at = ready_at.max(at);
        peers.push(Peer {
            addr: parse("listen", addr)?,
            metrics: parse("metrics", metrics)?,
            proc,
            token,
            log,
        });
    }
    let relay = peers.remove(0);
    Ok(Team { relay, measurers: peers, ready_secs: (ready_at - t0).as_secs_f64() })
}

/// A running coordinator and how long it took to say `coordinating`.
struct Coord {
    proc: Proc,
    /// Just before the spawn: where the period's wall clock starts.
    started: Instant,
    ready_secs: f64,
    log: Option<PathBuf>,
}

fn spawn_coord(
    pass: &Pass<'_>,
    shape: &Shape,
    team: &Team,
    state_dir: &Path,
    period_ix: usize,
    log: Option<PathBuf>,
) -> Result<Coord, String> {
    let roster = match pass.workload.kind {
        Kind::Blast { .. } => "shadow",
        Kind::Roster => "synth",
    };
    let mut args = flags(&[
        ("state-dir", state_dir.display().to_string()),
        ("once", "true".into()),
        ("roster", roster.into()),
        ("relays", shape.items.to_string()),
        ("seed", pass.seed.to_string()),
        // The peers outlive a period and remember the nonces they
        // accepted, so every period needs secrets of its own.
        ("secret-seed", splitmix64(pass.seed ^ (period_ix as u64 + 1).rotate_left(40)).to_string()),
        ("relay", team.relay.addr.to_string()),
        ("token-hex", hex(&team.measurers[0].token)),
        ("relay-token-hex", hex(&team.relay.token)),
        ("measurer-rate", shape.rate.to_string()),
        ("sockets", shape.sockets.to_string()),
        ("slot-secs", shape.slot_secs.to_string()),
        ("speedup", shape.speedup.to_string()),
        ("round-max", shape.round_max.to_string()),
        ("shards", shape.round_max.to_string()),
        ("dirauths", "3".into()),
    ]);
    if pass.workload.kind == Kind::Roster {
        args.extend(flags(&[("team-capacity", "100000000".into())]));
    }
    for m in &team.measurers {
        args.extend(flags(&[("measurer", m.addr.to_string())]));
    }
    if let Some(path) = &log {
        args.extend(flags(&[("log-json", path.display().to_string())]));
    }
    let started = Instant::now();
    let mut proc = Proc::spawn(&pass.bins.coord, "coord", &args)?;
    let (at, said) = proc.expect_line("coordinating ", READY_TIMEOUT)?;
    if said != format!("{} relays", shape.items) {
        return Err(format!("coord is coordinating {said}, expected {} relays", shape.items));
    }
    Ok(Coord { proc, started, ready_secs: (at - started).as_secs_f64(), log })
}

/// What one period left in its state directory, checked.
struct PeriodFiles {
    /// `(ix, capacity, clean, divergent)` per `period.json` entry.
    entries: Vec<(u64, f64, bool, u64)>,
    rounds: u64,
    failed: u64,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads and cross-checks `journal.jsonl`, `period.json` and
/// `consensus.json`. Structural breakage is an `Err` (the run is
/// invalid); items that merely failed are counted.
fn check_period_files(state_dir: &Path, items: usize) -> Result<PeriodFiles, String> {
    let journal_path = state_dir.join("journal.jsonl");
    let state = journal::recover(&journal_path).map_err(|e| format!("journal: {e}"))?;
    if !state.period_done || state.torn_lines > 0 || !state.in_flight.is_empty() {
        return Err(format!(
            "journal not sealed (done={} torn={} in_flight={})",
            state.period_done,
            state.torn_lines,
            state.in_flight.len()
        ));
    }
    let text = std::fs::read_to_string(&journal_path).map_err(|e| format!("journal: {e}"))?;
    let mut measured: BTreeMap<u64, u32> = BTreeMap::new();
    for record in text.lines().filter_map(Record::parse) {
        if let Record::ItemDone { ix, .. } = record {
            *measured.entry(ix).or_default() += 1;
        }
    }
    if let Some((ix, n)) = measured.iter().find(|(_, n)| **n > 1) {
        return Err(format!("item {ix} measured {n} times"));
    }

    let period = read_json(&state_dir.join("period.json"))?;
    let entries: Vec<(u64, f64, bool, u64)> = period
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("period.json: no entries")?
        .iter()
        .filter_map(|e| {
            Some((
                e.get("ix")?.as_u64()?,
                e.get("capacity")?.as_f64()?,
                e.get("clean")?.as_bool()?,
                e.get("divergent")?.as_u64()?,
            ))
        })
        .collect();

    let consensus = read_json(&state_dir.join("consensus.json"))?;
    let weight_sum: f64 = consensus
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("consensus.json: no entries")?
        .iter()
        .filter_map(|e| e.get("normalized")?.as_f64())
        .sum();
    if (weight_sum - 1.0).abs() > 1e-6 {
        return Err(format!("consensus normalized weights sum to {weight_sum}, not 1"));
    }

    let clean: BTreeSet<u64> =
        entries.iter().filter(|(_, _, clean, _)| *clean).map(|(ix, ..)| *ix).collect();
    let ok =
        (0..items as u64).filter(|ix| measured.get(ix) == Some(&1) && clean.contains(ix)).count();
    Ok(PeriodFiles { entries, rounds: state.rounds_done, failed: (items - ok) as u64 })
}

/// The peaks only a running process shows, sampled while the
/// coordinator of a traced pass works.
#[derive(Default)]
struct LiveSamples {
    relay_backlog_max: i64,
    measurer_backlog_max: i64,
    coord_peak_rss_mb: f64,
}

fn write_backlog(snap: &RegistrySnapshot) -> i64 {
    snap.gauges.iter().filter(|(n, _)| n.ends_with(".write_backlog")).map(|(_, v)| *v).sum()
}

impl LiveSamples {
    fn take(&mut self, team: &Team, coord: &Proc) {
        if let Ok(reading) = read_team(team) {
            self.relay_backlog_max = self.relay_backlog_max.max(write_backlog(&reading.relay.1));
            let measurers = reading.measurers.iter().map(|m| write_backlog(&m.1)).sum();
            self.measurer_backlog_max = self.measurer_backlog_max.max(measurers);
        }
        if let Ok(sample) = coord.sample() {
            self.coord_peak_rss_mb = self.coord_peak_rss_mb.max(sample.peak_rss_mb);
        }
    }
}

/// Counters and `/proc` of every peer at one instant.
struct TeamReading {
    relay: (ProcSample, RegistrySnapshot),
    measurers: Vec<(ProcSample, RegistrySnapshot)>,
}

fn read_team(team: &Team) -> Result<TeamReading, String> {
    let read = |p: &Peer| Ok::<_, String>((p.proc.sample()?, p.snapshot()?));
    Ok(TeamReading {
        relay: read(&team.relay)?,
        measurers: team.measurers.iter().map(read).collect::<Result<_, _>>()?,
    })
}

/// One set-up trial: spawn the team, start a coordinator, stop the
/// clock when it says `coordinating`.
fn setup(
    pass: &Pass<'_>,
    shape: &Shape,
    dir: &Path,
    period_ix: usize,
) -> Result<(Team, Coord, f64), String> {
    let team = spawn_team(pass, shape, dir, pass.traced)?;
    let log = pass.traced.then(|| dir.join(format!("coord{period_ix}.jsonl")));
    let coord =
        spawn_coord(pass, shape, &team, &dir.join(format!("state{period_ix}")), period_ix, log)?;
    let secs = team.ready_secs + coord.ready_secs;
    Ok((team, coord, secs))
}

/// How long [`warm_up`] keeps every core busy.
const WARM_UP: Duration = Duration::from_millis(1500);

/// Keeps every core busy for [`WARM_UP`]. A sandbox vCPU that has been
/// idle runs at well under half speed for the first second of load; a
/// pass starts from idle, and without this its set-up trials (a few
/// milliseconds each) would time that ramp, not the set-up.
fn warm_up() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                let until = Instant::now() + WARM_UP;
                let mut x = 0x9E37_79B9_7F4A_7C15u64;
                while Instant::now() < until {
                    for _ in 0..4096 {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    }
                    std::hint::black_box(x);
                }
            });
        }
    });
}

/// Runs one pass of `pass.workload`.
///
/// # Errors
/// A harness failure (spawn, timeout, unreadable file) or an **invalid
/// run**: integrity counters moved, byte counts disagree, the journal
/// is unsealed or double-measured, the consensus does not normalize, a
/// peer did not drain to exit 0, or the paced estimate is off.
pub fn run_pass(pass: &Pass<'_>, spans: &mut SpanLog) -> Result<PassResult, String> {
    let shape = Shape::of(pass.workload, &pass.size);
    let scratch = ScratchDir::create(pass.bins.work_root.join(format!(
        "{}-{}-{}",
        pass.workload.name,
        std::process::id(),
        if pass.traced { "traced" } else { "plain" }
    )))?;
    let pass_span = spans.begin(&format!("pass.{}", pass.workload.name));

    // Set-up, several times over: all but the last trial are thrown
    // away (SIGKILL — nothing was commanded of them that matters).
    spans.within("warm-up", |_| warm_up());
    let mut setup_samples = Vec::new();
    let trials = spans.begin("setup.trials");
    for trial in 1..pass.size.setup_trials {
        let dir = scratch.path().join(format!("trial{trial}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let (_team, _coord, secs) = setup(pass, &shape, &dir, 0)?;
        setup_samples.push(secs);
    }
    spans.end(trials);

    let spawn = spans.begin("spawn+ready");
    let (team, first_coord, secs) = setup(pass, &shape, scratch.path(), 0)?;
    setup_samples.push(secs);
    spans.end(spawn);

    // The peers are fresh, so the "before" reading is all zeros — take
    // it anyway rather than assume.
    let before = read_team(&team)?;
    let mut live = LiveSamples::default();
    let mut result = PassResult::default();
    let mut coord_cpu_s = 0.0;
    let mut coord_logs = Vec::new();
    let mut rounds_per_period = 0u64;
    let mut divergent_seconds = 0u64;
    let mut next_coord = Some(first_coord);
    // A period that takes ten times its slot time is wedged.
    let period_timeout =
        Duration::from_secs_f64(60.0 + 10.0 * shape.rounds() as f64 * shape.slot_wall());
    for period_ix in 0..shape.periods {
        let span = spans.begin(&format!("period.{period_ix}"));
        let state_dir = scratch.path().join(format!("state{period_ix}"));
        let mut coord = match next_coord.take() {
            Some(coord) => coord,
            None => {
                let log =
                    pass.traced.then(|| scratch.path().join(format!("coord{period_ix}.jsonl")));
                spawn_coord(pass, &shape, &team, &state_dir, period_ix, log)?
            }
        };
        let started = coord.started;
        let every = if pass.traced { SAMPLE_EVERY } else { period_timeout };
        let (closed_at, status, cpu) =
            coord.proc.wait_exit_sampling(period_timeout, every, &mut |c| live.take(&team, c))?;
        spans.end(span);
        if !status.success() {
            return Err(format!("invalid run: coord exited {status} in period {period_ix}"));
        }
        coord_cpu_s += cpu;
        coord_logs.extend(coord.log.take());
        result.period_walls.push((closed_at - started).as_secs_f64());

        let files = check_period_files(&state_dir, shape.items)
            .map_err(|e| format!("invalid run: period {period_ix}: {e}"))?;
        result.attempted += shape.items as u64;
        result.failed += files.failed;
        rounds_per_period = files.rounds;
        for (_, capacity, _, divergent) in &files.entries {
            result.capacities.push(*capacity);
            divergent_seconds += divergent;
        }
    }
    let after = read_team(&team)?;

    // Everything the logs hold must be on disk before they are read:
    // drain first.
    let drain = spans.begin("drain");
    let peer_logs: Vec<(String, PathBuf)> =
        team.peers().filter_map(|p| Some((p.proc.name().to_string(), p.log.clone()?))).collect();
    let Team { relay, measurers, .. } = team;
    for peer in std::iter::once(relay).chain(measurers) {
        peer.proc.drain(DRAIN_TIMEOUT).map_err(|e| format!("invalid run: {e}"))?;
    }
    spans.end(drain);

    // Integrity: nothing corrupt, forged or replayed anywhere, and the
    // two ends of the echo agree on how much was moved.
    let delta = |name: &str, b: &RegistrySnapshot, a: &RegistrySnapshot| {
        counter(a, name).saturating_sub(counter(b, name))
    };
    for kind in ["corrupt", "forged", "replayed"] {
        let relay = delta(&format!("relay.echo.{kind}_bytes"), &before.relay.1, &after.relay.1);
        let measurers: u64 = before
            .measurers
            .iter()
            .zip(&after.measurers)
            .map(|(b, a)| delta(&format!("measurer.echo.{kind}_bytes"), &b.1, &a.1))
            .sum();
        if relay + measurers > 0 {
            return Err(format!(
                "invalid run: {kind} bytes counted (relay {relay}, measurers {measurers})"
            ));
        }
    }
    let echoed = delta("relay.echo.echoed_bytes", &before.relay.1, &after.relay.1);
    let verified: u64 = before
        .measurers
        .iter()
        .zip(&after.measurers)
        .map(|(b, a)| delta("measurer.echo.verified_bytes", &b.1, &a.1))
        .sum();
    if echoed == 0 {
        return Err("invalid run: nothing was echoed".to_string());
    }
    // Every item ends with the measurers hanging up on whatever their
    // channels still hold, so a pass may lose one window per channel
    // per item — and never more than a small share of what it moved.
    let channels = u64::from(shape.sockets.min(MEASURER_SOCKET_CLAMP)) * shape.measurers as u64;
    let windows = channels * result.attempted * CHANNEL_WINDOW;
    let allowed = windows.min((UNVERIFIED_SHARE_MAX * echoed as f64) as u64);
    if verified > echoed || echoed - verified > allowed {
        return Err(format!(
            "invalid run: relay echoed {echoed} bytes but measurers verified {verified} \
             (allowed gap {allowed})"
        ));
    }
    result.unverified_share = (echoed - verified) as f64 / echoed as f64;

    // End-to-end metrics.
    let slot_seconds = result.attempted as f64 * f64::from(shape.slot_secs);
    let counted_truth = echoed as f64 / slot_seconds + spec::BACKGROUND as f64;
    let truth = shape.commanded_truth().unwrap_or(counted_truth);
    let errors: Vec<f64> = result.capacities.iter().map(|c| (c - truth).abs() / truth).collect();
    let median_error = stats::median(&errors).ok_or("no items in period.json")?;
    if matches!(pass.workload.kind, Kind::Blast { paced: true, .. })
        && median_error > PACED_TOLERANCE
    {
        return Err(format!(
            "invalid run: paced estimate off by {:.1}% (limit {:.0}%)",
            median_error * 100.0,
            PACED_TOLERANCE * 100.0
        ));
    }
    let relay_cpu = after.relay.0.cpu_s() - before.relay.0.cpu_s();
    let sum = |f: &dyn Fn(&ProcSample) -> f64| -> f64 {
        before.measurers.iter().zip(&after.measurers).map(|(b, a)| f(&a.0) - f(&b.0)).sum()
    };
    let measurer_cpu = sum(&ProcSample::cpu_s);
    let period_wall = stats::median(&result.period_walls).ok_or("no period ran")?;
    let rounds = rounds_per_period.max(1) as f64;
    let goodput = stats::median(&result.capacities).ok_or("no items in period.json")?;
    result.e2e = BTreeMap::from([
        ("setup_s", stats::median(&setup_samples).ok_or("no set-up sample")?),
        ("echo_goodput_MBps", goodput / 1e6),
        ("relay_cpu_s_per_GB", relay_cpu / (echoed as f64 / 1e9)),
        ("measurer_cpu_s_per_GB", measurer_cpu / (verified.max(1) as f64 / 1e9)),
        ("estimate_accuracy_pct", 100.0 * (1.0 - median_error)),
        ("period_wall_s", period_wall),
        (
            "period_overhead_ms_per_round",
            (period_wall - rounds * shape.slot_wall()) / rounds * 1000.0,
        ),
    ]);
    result.setup_samples = setup_samples;

    // Per-process layer metrics: work, busy time, waiting.
    let wall: f64 = result.period_walls.iter().sum();
    let mut layers = BTreeMap::new();
    let mut peer_layers = |prefix: &str,
                           cpu: f64,
                           user: f64,
                           sys: f64,
                           ctx: f64,
                           bytes: u64,
                           rss: f64,
                           threads: f64| {
        let gb = bytes.max(1) as f64 / 1e9;
        layers.insert(format!("{prefix}.cpu_busy_share"), cpu / wall);
        layers.insert(format!("{prefix}.user_s_per_GB"), user / gb);
        layers.insert(format!("{prefix}.sys_s_per_GB"), sys / gb);
        layers.insert(format!("{prefix}.ctx_switches_per_MB"), ctx / (gb * 1000.0));
        layers.insert(format!("{prefix}.peak_rss_MB"), rss);
        layers.insert(format!("{prefix}.threads"), threads);
    };
    let (rb, ra) = (&before.relay.0, &after.relay.0);
    peer_layers(
        "relay",
        relay_cpu,
        ra.user_s - rb.user_s,
        ra.sys_s - rb.sys_s,
        ra.voluntary_ctx.saturating_sub(rb.voluntary_ctx) as f64,
        echoed,
        ra.peak_rss_mb,
        ra.threads as f64,
    );
    peer_layers(
        "measurer",
        // Per process, so the share reads against one core like the relay's.
        measurer_cpu / shape.measurers as f64,
        sum(&|s| s.user_s),
        sum(&|s| s.sys_s),
        sum(&|s| s.voluntary_ctx as f64),
        verified,
        after.measurers.iter().map(|m| m.0.peak_rss_mb).fold(0.0, f64::max),
        after.measurers.iter().map(|m| m.0.threads as f64).fold(0.0, f64::max),
    );
    for m in spec::WHERE_DEFINED {
        layers.insert(m.name.to_string(), result.e2e[m.name]);
    }
    layers.insert("coord.cpu_ms_per_item".into(), coord_cpu_s * 1000.0 / result.attempted as f64);
    layers.insert("core.engine.divergent_seconds".into(), divergent_seconds as f64);
    layers.insert("measurer.echo.unverified_share".into(), result.unverified_share);

    if pass.traced {
        layers.insert("coord.peak_rss_MB".into(), live.coord_peak_rss_mb);
        for (prefix, snaps, backlog) in [
            ("relay", vec![&after.relay.1], live.relay_backlog_max),
            ("measurer", after.measurers.iter().map(|m| &m.1).collect(), live.measurer_backlog_max),
        ] {
            reactor_layers(prefix, &snaps, backlog, &mut layers);
        }
        let join = spans.begin("join.logs");
        let mut sources: Vec<(String, String)> = Vec::new();
        for (label, path) in coord_logs
            .into_iter()
            .enumerate()
            .map(|(ix, p)| (format!("coord{ix}"), p))
            .chain(peer_logs)
        {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            sources.push((label, text));
        }
        layers.extend(engine_spans::join(&sources, shape.slot_wall())?);
        spans.end(join);
    }
    result.layers = layers;
    spans.end(pass_span);
    Ok(result)
}

/// Condenses the per-shard reactor histograms of `snaps` (one per
/// process of a kind) into the `<prefix>.reactor.*` layer metrics.
fn reactor_layers(
    prefix: &str,
    snaps: &[&RegistrySnapshot],
    backlog_max: i64,
    out: &mut BTreeMap<String, f64>,
) {
    let quantile = |suffix: &str, q: f64| {
        // Merge every shard of every process: same bounds by construction.
        let mut bounds: Vec<u64> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        let mut sum = 0;
        for (_, h) in snaps
            .iter()
            .flat_map(|s| &s.histograms)
            .filter(|(name, _)| name.contains(".reactor.shard") && name.ends_with(suffix))
        {
            if counts.is_empty() {
                bounds = h.bounds.clone();
                counts = vec![0; h.counts.len()];
            }
            for (acc, c) in counts.iter_mut().zip(&h.counts) {
                *acc += c;
            }
            sum += h.sum;
        }
        stats::bucket_quantile(&bounds, &counts, sum, q).unwrap_or(0.0)
    };
    let stalls: u64 = snaps.iter().map(|s| counter(s, &format!("{prefix}.reactor.stalls"))).sum();
    out.insert(format!("{prefix}.reactor.dispatch_us_p50"), quantile(".dispatch_us", 0.5));
    out.insert(format!("{prefix}.reactor.dispatch_us_p99"), quantile(".dispatch_us", 0.99));
    out.insert(format!("{prefix}.reactor.epoll_dwell_us_p50"), quantile(".epoll_dwell_us", 0.5));
    out.insert(format!("{prefix}.reactor.tick_jitter_us_p99"), quantile(".tick_jitter_us", 0.99));
    out.insert(format!("{prefix}.reactor.write_backlog_max"), backlog_max as f64);
    out.insert(format!("{prefix}.reactor.stalls"), stalls as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_differ_by_seed_and_role_and_are_full_length() {
        let a = token_for(1, 1);
        assert_ne!(a, token_for(1, 2), "measurer and relay tokens differ");
        assert_ne!(a, token_for(2, 1), "seeds differ");
        assert_eq!(hex(&a).len(), AUTH_TOKEN_LEN * 2);
        assert!(a.iter().any(|b| *b != a[0]), "not a constant fill");
    }

    #[test]
    fn shapes_follow_the_issue() {
        let full = Size::for_seconds(24);
        let fanout = Shape::of(spec::workload("blast_fanout").expect("declared"), &full);
        assert_eq!((fanout.items, fanout.rounds(), fanout.slot_wall()), (6, 6, 4.0));
        assert_eq!(fanout.commanded_truth(), None, "closed loop has no commanded rate");
        let paced = Shape::of(spec::workload("blast_paced").expect("declared"), &full);
        assert_eq!(paced.commanded_truth(), Some(40_020_000.0));
        let roster = Shape::of(spec::workload("period_roster").expect("declared"), &full);
        assert_eq!((roster.rounds(), roster.periods, roster.measurers), (125, 5, 2));
        assert!((roster.slot_wall() - 0.02).abs() < 1e-12);
        let smoke = Shape::of(spec::workload("period_roster").expect("declared"), &Size::smoke());
        assert_eq!((smoke.rounds(), smoke.slot_wall()), (8, 0.1));
        assert_eq!(roster.commanded_truth(), Some(220_000.0));
    }
}
