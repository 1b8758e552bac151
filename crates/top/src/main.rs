//! `flashflow-top` — the live operator dashboard.
//!
//! Four sources, one screen:
//!
//! * `--replay FILE` — fold a complete JSONL event file and print one
//!   frame (no cursor control; CI- and pipe-friendly).
//! * `--follow FILE` — tail a growing JSONL file, redrawing an ANSI
//!   frame every `--interval` seconds; `--exit-on-done true` leaves
//!   when the period finishes.
//! * `--metrics ADDR --token-hex HEX` — fetch one registry snapshot
//!   from a process's `--metrics-addr` endpoint and print it as a
//!   table (`--watch true` to poll and redraw).
//! * `--coord DIR` — read a `flashflow-coord` state directory's journal
//!   and print the daemon's progress: roster completion, rounds/hour,
//!   relays remaining, resumed sessions (`--watch true` to poll).

use std::io::{BufRead, BufReader, Seek, SeekFrom};
use std::time::Duration;

use flashflow_obs::{Event, RegistrySnapshot};
use flashflow_top::TopState;

const USAGE: &str =
    "usage: flashflow-top [--replay FILE | --follow FILE | --metrics ADDR | --coord DIR]
  --replay FILE      fold a complete JSONL event file, print one frame
  --follow FILE      tail a JSONL file, redraw an ANSI frame per interval
  --metrics ADDR     fetch a registry snapshot from a metrics endpoint
  --coord DIR        read a flashflow-coord state dir, print daemon progress
  --token-hex HEX    auth token for --metrics (64 hex chars)
  --interval SECS    redraw period for --follow/--watch (default 1.0)
  --width COLS       frame width (default 100)
  --exit-on-done B   with --follow: exit once the period finishes (default true)
  --watch B          with --metrics/--coord: poll and redraw instead of one shot
  --config FILE      key=value file of the same settings";

use flashflow_procutil as procutil;
use procutil::AUTH_TOKEN_LEN;

#[derive(Default)]
struct Config {
    replay: Option<String>,
    follow: Option<String>,
    metrics: Option<String>,
    coord: Option<String>,
    token: Option<[u8; AUTH_TOKEN_LEN]>,
    interval: Duration,
    width: usize,
    exit_on_done: bool,
    watch: bool,
}

fn parse_config(args: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut cfg = Config {
        interval: Duration::from_secs(1),
        width: 100,
        exit_on_done: true,
        ..Config::default()
    };
    let mut apply = |key: &str, value: &str| -> Result<(), String> {
        match key {
            "replay" => cfg.replay = Some(value.to_string()),
            "follow" => cfg.follow = Some(value.to_string()),
            "metrics" => cfg.metrics = Some(value.to_string()),
            "coord" => cfg.coord = Some(value.to_string()),
            "token-hex" => cfg.token = Some(procutil::parse_token_hex(value)?),
            "interval" => {
                let secs: f64 = value.parse().map_err(|e| format!("--interval: {e}"))?;
                let interval = Duration::try_from_secs_f64(secs)
                    .map_err(|e| format!("--interval: {value}: {e}"))?;
                cfg.interval = interval.max(Duration::from_millis(50));
            }
            "width" => cfg.width = value.parse().map_err(|e| format!("--width: {e}"))?,
            "exit-on-done" => {
                cfg.exit_on_done = value.parse().map_err(|e| format!("--exit-on-done: {e}"))?;
            }
            "watch" => cfg.watch = value.parse().map_err(|e| format!("--watch: {e}"))?,
            other => return Err(format!("unknown flag --{other}\n{USAGE}")),
        }
        Ok(())
    };
    procutil::parse_args(args, USAGE, &mut apply)?;
    Ok(cfg)
}

fn main() {
    let cfg = match parse_config(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let result = if let Some(path) = &cfg.replay {
        replay(path, cfg.width)
    } else if let Some(path) = &cfg.follow {
        follow(path, &cfg)
    } else if let Some(addr) = &cfg.metrics {
        metrics(addr, &cfg)
    } else if let Some(dir) = &cfg.coord {
        coord(dir, &cfg)
    } else {
        Err(USAGE.to_string())
    };
    if let Err(msg) = result {
        eprintln!("flashflow-top: {msg}");
        std::process::exit(1);
    }
}

/// Folds `line` into `state`; malformed lines are counted, not fatal
/// (a live file's last line may be mid-write).
fn fold_line(state: &mut TopState, line: &str, bad: &mut u64) {
    let line = line.trim();
    if line.is_empty() {
        return;
    }
    match Event::parse_json_line(line) {
        Ok(ev) => state.apply(&ev),
        Err(_) => *bad += 1,
    }
}

fn replay(path: &str, width: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("--replay {path}: {e}"))?;
    let mut state = TopState::new();
    let mut bad = 0u64;
    for line in text.lines() {
        fold_line(&mut state, line, &mut bad);
    }
    print!("{}", state.render(width));
    if bad > 0 {
        println!("({bad} malformed lines skipped)");
    }
    Ok(())
}

/// Opens `path` for tailing and returns the reader with the file's
/// inode (the rotation fingerprint).
fn open_tail(path: &str) -> Result<(BufReader<std::fs::File>, u64), String> {
    use std::os::unix::fs::MetadataExt as _;
    let file = std::fs::File::open(path).map_err(|e| format!("--follow {path}: {e}"))?;
    let ino = file.metadata().map_err(|e| e.to_string())?.ino();
    Ok((BufReader::new(file), ino))
}

fn follow(path: &str, cfg: &Config) -> Result<(), String> {
    use std::os::unix::fs::MetadataExt as _;
    let (mut reader, mut ino) = open_tail(path)?;
    let mut state = TopState::new();
    let mut bad = 0u64;
    let mut buf = String::new();
    loop {
        loop {
            buf.clear();
            let n = reader.read_line(&mut buf).map_err(|e| e.to_string())?;
            if n == 0 {
                break;
            }
            if !buf.ends_with('\n') {
                // Partial tail line: rewind so the next pass rereads it
                // once the writer finishes.
                let len = buf.len() as i64;
                reader.seek(SeekFrom::Current(-len)).map_err(|e| e.to_string())?;
                break;
            }
            fold_line(&mut state, &buf, &mut bad);
        }
        // Rotation/truncation watch: a new inode under the same name
        // (logrotate) or a length regression (in-place truncate) means
        // the stream we were tailing is gone — restart from offset 0 of
        // whatever the path names now, with a fresh dashboard (the old
        // events describe a file that no longer exists). A transient
        // stat failure is the mid-rotation window; retry next tick.
        let offset = reader.stream_position().map_err(|e| e.to_string())?;
        if let Ok(meta) = std::fs::metadata(path) {
            if meta.ino() != ino || meta.len() < offset {
                let (r, i) = open_tail(path)?;
                reader = r;
                ino = i;
                state = TopState::new();
                bad = 0;
                continue;
            }
        }
        print!("{}", state.render_ansi(cfg.width));
        if cfg.exit_on_done && state.period_done() {
            return Ok(());
        }
        std::thread::sleep(cfg.interval);
    }
}

/// Renders a coordinator journal state as the `--coord` panel: roster
/// completion, measurement pace, and how much crash recovery the
/// period has needed.
fn render_coord(state: &flashflow_coord::journal::JournalState) -> String {
    if !state.period_started {
        return "coordinator: no period journaled yet\n".to_string();
    }
    let done = state.done.len() as u64;
    let remaining = state.roster.saturating_sub(done);
    let pct = if state.roster > 0 { done as f64 * 100.0 / state.roster as f64 } else { 0.0 };
    let elapsed_h = (state.last_ts - state.period_started_at).max(0.0) / 3600.0;
    let rounds_per_hour = if elapsed_h > 0.0 { state.rounds_done as f64 / elapsed_h } else { 0.0 };
    let bar_slots = 30usize;
    let filled =
        if state.roster > 0 { (done as usize * bar_slots) / state.roster as usize } else { 0 };
    let mut out = String::new();
    out.push_str(&format!(
        "coordinator period {} [{}{}] {pct:.1}%{}\n",
        state.period,
        "#".repeat(filled),
        "-".repeat(bar_slots - filled),
        if state.period_done { " (complete)" } else { "" },
    ));
    out.push_str(&format!(
        "  roster {done}/{} measured, {remaining} remaining, {} in flight\n",
        state.roster,
        state.in_flight.len(),
    ));
    out.push_str(&format!(
        "  rounds {} done ({rounds_per_hour:.1}/hour), {} resumed session starts\n",
        state.rounds_done, state.resumed_starts,
    ));
    if state.torn_lines > 0 {
        out.push_str(&format!("  journal: {} torn line(s) tolerated\n", state.torn_lines));
    }
    out
}

fn coord(dir: &str, cfg: &Config) -> Result<(), String> {
    let journal = std::path::Path::new(dir).join("journal.jsonl");
    loop {
        let state = flashflow_coord::journal::recover(&journal)
            .map_err(|e| format!("--coord {dir}: {e}"))?;
        if cfg.watch {
            print!("\x1b[2J\x1b[H{}", render_coord(&state));
            std::thread::sleep(cfg.interval);
        } else {
            print!("{}", render_coord(&state));
            return Ok(());
        }
    }
}

fn metrics(addr: &str, cfg: &Config) -> Result<(), String> {
    let token = cfg.token.ok_or("--metrics needs --token-hex")?;
    let addr: std::net::SocketAddr = addr.parse().map_err(|e| format!("--metrics {addr}: {e}"))?;
    loop {
        let body = procutil::fetch_metrics(addr, &token, Duration::from_secs(10))
            .map_err(|e| format!("fetch {addr}: {e}"))?;
        let snap = RegistrySnapshot::parse(&body)?;
        if cfg.watch {
            print!("\x1b[2J\x1b[H{}", snap.to_text());
            std::thread::sleep(cfg.interval);
        } else {
            print!("{}", snap.to_text());
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_coord::journal::{JournalState, Record};

    #[test]
    fn coord_panel_reports_progress_pace_and_resumption() {
        let mut state = JournalState::default();
        state.apply(&Record::PeriodStart {
            period: 2,
            roster: 4,
            seed: 1,
            source: "shadow".into(),
            ts: 0.0,
        });
        for ix in 0..3u64 {
            state.apply(&Record::ItemStart {
                ix,
                fp: format!("{ix:040x}"),
                secret: ix,
                attempt: u64::from(ix == 1),
                ts: 100.0,
            });
            if ix < 2 {
                state.apply(&Record::ItemDone {
                    ix,
                    fp: format!("{ix:040x}"),
                    capacity: 1.0,
                    clean: true,
                    divergent: 0,
                    ts: 200.0,
                });
            }
        }
        state.apply(&Record::RoundDone { round: 0, items: 2, ts: 1800.0 });

        let panel = render_coord(&state);
        assert!(panel.contains("period 2"), "{panel}");
        assert!(panel.contains("50.0%"), "{panel}");
        assert!(panel.contains("roster 2/4 measured, 2 remaining, 1 in flight"), "{panel}");
        assert!(panel.contains("rounds 1 done (2.0/hour), 1 resumed session starts"), "{panel}");
    }

    #[test]
    fn interval_must_fit_a_duration() {
        let parse = |value: &str| parse_config(["--interval", value].map(String::from).into_iter());
        for (value, want) in [("2.5", 2500), ("0", 50), ("0.01", 50)] {
            let cfg = parse(value).unwrap_or_else(|msg| panic!("{value:?} refused: {msg}"));
            assert_eq!(cfg.interval, Duration::from_millis(want), "{value:?}");
        }
        for value in ["inf", "1e20", "NaN", "-1", "soon"] {
            let msg = parse(value).err().unwrap_or_else(|| panic!("{value:?} accepted"));
            assert!(msg.starts_with("--interval: "), "{value:?}: {msg}");
        }
    }

    #[test]
    fn coord_panel_handles_an_empty_journal() {
        let state = JournalState::default();
        assert!(render_coord(&state).contains("no period journaled yet"));
    }
}
