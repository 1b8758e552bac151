//! `flashflow-coord` — the continuous whole-network measurement daemon.
//!
//! One process that does what the paper's BWAuth does operationally
//! (§4.3): walk a relay roster round by round against a team of
//! `flashflow-measurer` processes and a `flashflow-relay` target,
//! journal every step crash-safely, and — when the roster completes —
//! vote a consensus (with `flashflow-balance`'s TorFlow baseline
//! alongside for the paper's §8 comparison).
//!
//! Crash recovery is the point: SIGKILL this process mid-roster,
//! restart it against the same `--state-dir`, and it resumes exactly
//! where it stopped. Completed relays are never re-measured; relays the
//! journal shows in flight are re-commanded as attempt `n+1` with the
//! journaled secret, so the control sessions open with the v5 `Resume`
//! handshake and the peers re-adopt the parked conversations.
//!
//! ```text
//! flashflow-coord [--config FILE] --state-dir DIR
//!     [--roster shadow|synth] [--seed N] [--relays N] [--secret-seed N]
//!     --measurer ADDR [--measurer ADDR ...] --relay ADDR
//!     [--token-hex HEX64] [--relay-token-hex HEX64]
//!     [--measurer-rate BYTES] [--sockets N] [--slot-secs N]
//!     [--bg-allowance BYTES] [--ratio X] [--speedup X]
//!     [--round-max N] [--team-capacity BYTES] [--dirauths N]
//!     [--once true] [--interval-secs N] [--log-json FILE]
//!     [--metrics-addr ADDR]
//! ```
//!
//! Stdout carries one line per lifecycle event a spawning harness wants
//! to key on — `coordinating <n> relays`, `metrics <addr>`,
//! `period <n> complete entries <k>`, `drained` — everything else goes
//! to stderr (or `--log-json` as structured JSONL). On SIGTERM the
//! daemon stages no further round; the rounds already staged (the one
//! blasting and the one handshaking behind it) finish and are
//! journaled, and it exits 0. The next start continues the period.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use flashflow_coord::daemon::{run_period, CoordMetrics, DaemonConfig};
use flashflow_coord::roster::RosterSource;
use flashflow_core::echo::{EchoDeployment, EchoMeasurer};
use flashflow_core::pool::ConnectionPool;
use flashflow_obs::{fields, EventSink, MetricsRegistry, Span};
use flashflow_procutil as procutil;
use flashflow_proto::msg::{TargetEndpoint, AUTH_TOKEN_LEN};

/// Parsed configuration (command line and/or `--config` file).
#[derive(Debug, Clone)]
struct Config {
    state_dir: Option<PathBuf>,
    source: RosterSource,
    seed: u64,
    relays: Option<usize>,
    secret_seed: u64,
    measurers: Vec<String>,
    relay: Option<String>,
    token: [u8; AUTH_TOKEN_LEN],
    relay_token: [u8; AUTH_TOKEN_LEN],
    measurer_rate: u64,
    sockets: u32,
    slot_secs: u32,
    bg_allowance: u64,
    ratio: f64,
    speedup: f64,
    round_max: usize,
    /// `None` derives the budget from the team's commanded rates
    /// (one item per round).
    team_capacity: Option<f64>,
    dirauths: usize,
    once: bool,
    interval_secs: f64,
    log_json: Option<String>,
    metrics_addr: Option<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            state_dir: None,
            source: RosterSource::Shadow,
            seed: 1,
            relays: None,
            secret_seed: 0xF1A5_4F10,
            measurers: Vec::new(),
            relay: None,
            token: [0x42; AUTH_TOKEN_LEN],
            relay_token: [0x42; AUTH_TOKEN_LEN],
            measurer_rate: 1_250_000,
            sockets: 2,
            slot_secs: 3,
            bg_allowance: 0,
            ratio: 0.25,
            speedup: 1.0,
            round_max: 0,
            team_capacity: None,
            dirauths: 3,
            once: false,
            interval_secs: 1.0,
            log_json: None,
            metrics_addr: None,
        }
    }
}

const USAGE: &str = "usage: flashflow-coord [--config FILE] --state-dir DIR \
                     [--roster shadow|synth] [--seed N] [--relays N] [--secret-seed N] \
                     --measurer ADDR [--measurer ADDR ...] --relay ADDR \
                     [--token-hex HEX64] [--relay-token-hex HEX64] \
                     [--measurer-rate BYTES] [--sockets N] [--slot-secs N] \
                     [--bg-allowance BYTES] [--ratio X] [--speedup X] \
                     [--round-max N] [--team-capacity BYTES] [--dirauths N] \
                     [--once true|false] [--interval-secs N] [--log-json FILE] \
                     [--metrics-addr ADDR]";

/// Applies one `key=value` setting (command line and config file share
/// this, so the two cannot drift). `--measurer` appends: repeat it once
/// per team member.
fn apply(cfg: &mut Config, key: &str, value: &str) -> Result<(), String> {
    fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        value.parse().map_err(|e| format!("{key}: {e}"))
    }
    match key {
        "state-dir" => cfg.state_dir = Some(PathBuf::from(value)),
        "roster" => cfg.source = RosterSource::parse(value)?,
        "seed" => cfg.seed = num(key, value)?,
        "relays" => cfg.relays = Some(num(key, value)?),
        "secret-seed" => cfg.secret_seed = num(key, value)?,
        "measurer" => cfg.measurers.push(value.to_string()),
        "relay" => cfg.relay = Some(value.to_string()),
        "token-hex" => cfg.token = procutil::parse_token_hex(value)?,
        "relay-token-hex" => cfg.relay_token = procutil::parse_token_hex(value)?,
        "measurer-rate" => cfg.measurer_rate = num(key, value)?,
        "sockets" => cfg.sockets = num(key, value)?,
        "slot-secs" => cfg.slot_secs = num(key, value)?,
        "bg-allowance" => cfg.bg_allowance = num(key, value)?,
        "ratio" => cfg.ratio = num(key, value)?,
        "speedup" => cfg.speedup = procutil::parse_speedup(value)?,
        // Accepted and ignored: every item of a round runs at once on
        // one engine, so there is no worker count to set — but the
        // benchmark harness (crates/perf) still passes the key.
        "shards" => drop(num::<usize>(key, value)?),
        "round-max" => cfg.round_max = num(key, value)?,
        "team-capacity" => cfg.team_capacity = Some(num(key, value)?),
        "dirauths" => cfg.dirauths = num(key, value)?,
        "once" => cfg.once = num(key, value)?,
        "interval-secs" => cfg.interval_secs = num(key, value)?,
        "log-json" => cfg.log_json = Some(value.to_string()),
        "metrics-addr" => cfg.metrics_addr = Some(value.to_string()),
        other => return Err(format!("unknown setting {other:?}\n{USAGE}")),
    }
    Ok(())
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut cfg = Config::default();
    procutil::parse_args(args, USAGE, &mut |key, value| apply(&mut cfg, key, value))?;
    // Checked once everything is parsed: `--roster` and `--relays` may
    // come in either order, or from the config file.
    let (roster, least) = match cfg.source {
        RosterSource::Shadow => ("shadow", 3), // circuits need three hops
        RosterSource::Synth => ("synth", 1),
    };
    if cfg.relays.is_some_and(|n| n < least) {
        return Err(format!("relays: the {roster} roster needs at least {least}\n{USAGE}"));
    }
    Ok(cfg)
}

/// Builds the deployment the rounds run against.
fn deployment(cfg: &Config) -> Result<EchoDeployment, String> {
    let relay = cfg.relay.as_deref().ok_or("--relay is required")?;
    let relay_addr: SocketAddr = relay.parse().map_err(|e| format!("relay {relay:?}: {e}"))?;
    // Checked here, where the address enters: every measurer's
    // `MeasureCmd` carries the relay's data endpoint as four octets.
    let relay = TargetEndpoint::from_addr(relay_addr)
        .ok_or_else(|| format!("relay {relay:?}: must be an IPv4 address"))?;
    if cfg.measurers.is_empty() {
        return Err("at least one --measurer is required".to_string());
    }
    let mut measurers = Vec::with_capacity(cfg.measurers.len());
    for addr in &cfg.measurers {
        let addr: SocketAddr = addr.parse().map_err(|e| format!("measurer {addr:?}: {e}"))?;
        measurers.push(EchoMeasurer {
            addr,
            token: cfg.token,
            rate_cap: cfg.measurer_rate,
            sockets: cfg.sockets,
        });
    }
    Ok(EchoDeployment {
        measurers,
        relay,
        relay_token: cfg.relay_token,
        speedup: cfg.speedup,
        ratio: cfg.ratio,
    })
}

fn main() {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let Some(state_dir) = cfg.state_dir.clone() else {
        eprintln!("--state-dir is required\n{USAGE}");
        std::process::exit(2);
    };
    let deployment = match deployment(&cfg) {
        Ok(d) => d,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    procutil::install_sigterm_handler();

    let mut sink = EventSink::new().with_stderr_text();
    if let Some(path) = &cfg.log_json {
        // The shared journal discipline (O_APPEND, one write per line):
        // a crash tears at most the final line.
        sink = match procutil::journal_writer(std::path::Path::new(path)) {
            Ok(file) => sink.with_jsonl(Box::new(file)),
            Err(e) => {
                eprintln!("open --log-json {path}: {e}");
                std::process::exit(1);
            }
        };
    }
    let span = Span::root(sink);
    let registry = MetricsRegistry::new();
    let metrics = CoordMetrics::register(&registry);
    if let Some(maddr) = &cfg.metrics_addr {
        match procutil::start_metrics_endpoint(maddr, cfg.token, registry.clone(), cfg.speedup) {
            Ok(bound) => println!("metrics {bound}"),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
    }

    // One item per round costs the whole team's commanded blast; the
    // default budget therefore serializes rounds (one item each) unless
    // the operator grants more.
    let team_capacity = cfg.team_capacity.unwrap_or_else(|| {
        deployment.measurers.iter().map(|m| m.rate_cap as f64).sum::<f64>().max(1.0)
    });
    let dcfg = DaemonConfig {
        state_dir,
        source: cfg.source,
        seed: cfg.seed,
        relays: cfg.relays,
        secret_seed: cfg.secret_seed,
        slot_secs: cfg.slot_secs,
        bg_allowance: cfg.bg_allowance,
        team_capacity,
        round_max: cfg.round_max,
        dirauths: cfg.dirauths.max(1),
    };
    let roster = flashflow_coord::roster::build(dcfg.source, dcfg.seed, dcfg.relays);
    println!("coordinating {} relays", roster.entries.len());
    span.emit(
        "coord.start",
        fields![
            relays = roster.entries.len() as u64,
            measurers = deployment.measurers.len() as u64,
        ],
    );

    // Warm control connections ride this pool across rounds *and*
    // periods — the deployment-twin of the library pool.
    let pool = ConnectionPool::new();
    let mut exit = 0;
    loop {
        match run_period(
            &dcfg,
            &roster,
            &deployment,
            &pool,
            &span,
            &metrics,
            &procutil::drain_requested,
        ) {
            Ok(outcome) if outcome.drained => {
                println!("drained");
                break;
            }
            Ok(outcome) => {
                println!(
                    "period {} complete entries {} resumed {} resume_refused {}",
                    outcome.period,
                    outcome.measured + outcome.recovered_done,
                    outcome.resumed,
                    outcome.resume_refused,
                );
            }
            Err(e) => {
                eprintln!("period failed: {e}");
                exit = 1;
                break;
            }
        }
        if cfg.once || procutil::drain_requested() {
            break;
        }
        // Sleep in drain-poll steps so SIGTERM between periods is
        // honored promptly.
        let mut remaining = cfg.interval_secs.max(0.0);
        while remaining > 0.0 && !procutil::drain_requested() {
            let step = remaining.min(0.05);
            std::thread::sleep(Duration::from_secs_f64(step));
            remaining -= step;
        }
        if procutil::drain_requested() {
            println!("drained");
            break;
        }
    }
    span.emit("coord.exit", fields![code = u64::from(exit != 0)]);
    std::process::exit(exit);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Config, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn relays_must_fit_the_roster() {
        let accepted = [
            ("", None),
            ("--relays 3", Some(3)),
            ("--roster synth --relays 1", Some(1)),
            ("--relays 1 --roster synth", Some(1)),
        ];
        for (line, relays) in accepted {
            let cfg = parse(line).unwrap_or_else(|msg| panic!("{line:?} refused: {msg}"));
            assert_eq!(cfg.relays, relays, "{line:?}");
        }
        let refused = [
            "--roster shadow --relays 2",
            "--relays 2 --roster shadow",
            "--relays 2", // shadow is the default roster
            "--relays 0 --roster synth",
            "--relays many",
        ];
        for line in refused {
            let msg = parse(line).expect_err(line);
            assert!(msg.starts_with("relays: "), "{line:?}: {msg}");
        }
        // A refused count reads like every other bad setting.
        assert_eq!(
            parse("--relays 0").unwrap_err(),
            format!("relays: the shadow roster needs at least 3\n{USAGE}")
        );
    }

    #[test]
    fn relay_must_be_a_dialable_ipv4_address() {
        let team = "--measurer 127.0.0.1:9001";
        let relay = deployment(&parse(&format!("{team} --relay 127.0.0.1:9000")).unwrap())
            .expect("an IPv4 relay is accepted")
            .relay;
        assert_eq!((relay.ip, relay.port), ([127, 0, 0, 1], 9000));
        let refused = [
            (team.to_string(), "--relay is required"),
            (format!("{team} --relay [::1]:9000"), "relay \"[::1]:9000\": must be an IPv4 address"),
            (format!("{team} --relay localhost"), "relay \"localhost\": invalid socket address"),
            ("--relay 127.0.0.1:9000".to_string(), "at least one --measurer is required"),
        ];
        for (line, want) in refused {
            let msg = deployment(&parse(&line).unwrap()).expect_err(&line);
            assert!(msg.starts_with(want), "{line:?}: {msg}");
        }
    }
}
