//! `flashflow-perf` — the process-path benchmark.
//!
//! ```text
//! flashflow-perf run     [--seed N] [--repeat K] [--workload NAME] [--seconds S | --smoke]
//! flashflow-perf trace   [--seed N] [--workload NAME] [--seconds S | --smoke]
//! flashflow-perf compare BASE.json NEW.json
//! flashflow-perf bench   --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `run` drives the workloads with tracing off and prints every
//! end-to-end metric (unit, n, median, quartiles over `--repeat` passes,
//! pass k seeded with N + k) as one JSON document on stdout. `trace` is the separate traced run:
//! the in-process layer ladder, then each workload untraced and again
//! with `--log-json` on every process, printing the per-layer metrics
//! and writing the harness's span files. `compare` holds one `run`
//! document against another and exits non-zero on a regression. `bench`
//! is the one-workload, one-line form the benchmark driver calls (see
//! `BENCHMARK.json`): the same passes, sized the same by `--seconds`. Progress goes to stderr; stdout carries only the
//! result. Any failed validity check exits non-zero without a result.

use std::collections::BTreeMap;
use std::process::ExitCode;

use flashflow_obs::Json;
use flashflow_perf::ladder::{self, Rung};
use flashflow_perf::report;
use flashflow_perf::spans::SpanLog;
use flashflow_perf::spec::{self, Better, Size, Workload, END_TO_END, WORKLOADS};
use flashflow_perf::supervise::{ScratchDir, Stamp};
use flashflow_perf::workload::{run_pass, Bins, Pass, PassResult};

const USAGE: &str =
    "usage: flashflow-perf run [--seed N] [--repeat K] [--workload NAME] [--seconds S | --smoke]
       flashflow-perf trace [--seed N] [--workload NAME] [--seconds S | --smoke]
       flashflow-perf compare BASE.json NEW.json
       flashflow-perf bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  --relay-arg ARG (repeatable) passes ARG to the relay, e.g. --corrupt-echo, to \
exercise the validity checks";

/// Parsed flags of `run`, `trace` and `bench`.
#[derive(Debug, Clone, Default)]
struct Opts {
    seed: u64,
    repeat: usize,
    workload: Option<String>,
    smoke: bool,
    seconds: u32,
    traced: bool,
    relay_args: Vec<String>,
}

fn parse_opts(args: Vec<String>) -> Result<Opts, String> {
    let mut opts = Opts { seed: 1, repeat: 1, seconds: 24, ..Opts::default() };
    // `--smoke` is a bare switch; everything else is `--key value`,
    // which the shared process-flag parser handles.
    let (switches, rest): (Vec<String>, Vec<String>) =
        args.into_iter().partition(|a| a == "--smoke");
    opts.smoke = !switches.is_empty();
    flashflow_procutil::parse_args(rest.into_iter(), USAGE, &mut |key, value| {
        let num = |what: &str| format!("--{key}: {what}");
        match key {
            "seed" => opts.seed = value.parse().map_err(|_| num("want an unsigned integer"))?,
            "repeat" => {
                opts.repeat = value.parse().map_err(|_| num("want a count"))?;
                if opts.repeat == 0 {
                    return Err(num("must be at least 1"));
                }
            }
            "workload" => {
                spec::workload(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?;
                opts.workload = Some(value.to_string());
            }
            "seconds" => {
                opts.seconds = value.parse().map_err(|_| num("want whole seconds"))?;
                if !(1..=60).contains(&opts.seconds) {
                    return Err(num("must be 1 to 60"));
                }
            }
            "trace" => {
                opts.traced = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(num("want 0 or 1")),
                }
            }
            "relay-arg" => opts.relay_args.push(value.to_string()),
            other => return Err(format!("unknown flag --{other}\n{USAGE}")),
        }
        Ok(())
    })?;
    Ok(opts)
}

impl Opts {
    fn workloads(&self) -> Vec<&'static Workload> {
        WORKLOADS.iter().filter(|w| self.workload.as_deref().is_none_or(|n| n == w.name)).collect()
    }

    fn untraced_pass<'a>(&'a self, bins: &'a Bins, workload: &'a Workload, size: Size) -> Pass<'a> {
        Pass { bins, workload, seed: self.seed, size, traced: false, relay_extra: &self.relay_args }
    }

    /// The one sizing every subcommand uses, and its name in a document.
    fn size(&self) -> (Size, String) {
        if self.smoke {
            (Size::smoke(), "smoke".to_string())
        } else {
            (Size::for_seconds(self.seconds), format!("{}s", self.seconds))
        }
    }
}

fn note(msg: &str) {
    eprintln!("flashflow-perf: {msg}");
}

fn describe(w: &Workload, r: &PassResult) -> String {
    format!(
        "{}: {:.2} MB/s goodput, period {:.3} s, {} of {} items failed",
        w.name, r.e2e["echo_goodput_MBps"], r.e2e["period_wall_s"], r.failed, r.attempted
    )
}

/// `run`: every selected workload, `--repeat` times, tracing off.
fn cmd_run(opts: &Opts) -> Result<(), String> {
    let bins = Bins::locate()?;
    let (size, size_name) = opts.size();
    let stamp = Stamp::take(opts.seed, &scratch_root(&bins)?, false);
    let mut spans = SpanLog::new(&format!("run-{}", opts.seed));
    let mut passes: BTreeMap<&str, Vec<PassResult>> = BTreeMap::new();
    for round in 0..opts.repeat {
        // Every pass gets a seed of its own, as every run of the
        // driver does: the spread over passes is then the driver's.
        let seed = opts.seed.wrapping_add(round as u64);
        for w in opts.workloads() {
            note(&format!("{} (pass {} of {}, seed {seed})", w.name, round + 1, opts.repeat));
            let pass = Pass { seed, ..opts.untraced_pass(&bins, w, size) };
            let result = run_pass(&pass, &mut spans)?;
            note(&describe(w, &result));
            passes.entry(w.name).or_default().push(result);
        }
    }
    println!("{}", report::run_document(&stamp, &size_name, &passes));
    Ok(())
}

/// Creates the scratch root (so its filesystem can be identified) and
/// returns it.
fn scratch_root(bins: &Bins) -> Result<std::path::PathBuf, String> {
    std::fs::create_dir_all(&bins.work_root)
        .map_err(|e| format!("create {}: {e}", bins.work_root.display()))?;
    Ok(bins.work_root.clone())
}

/// What a traced invocation produced.
struct Traced {
    ladder: Vec<Rung>,
    /// Per workload: the traced pass's layers plus `trace_overhead_pct`.
    layers: BTreeMap<&'static str, BTreeMap<String, f64>>,
    trace_files: BTreeMap<&'static str, String>,
    /// The untraced passes (never the source of end-to-end numbers
    /// here; kept for the attempted/failed tally).
    plain: Vec<PassResult>,
}

/// The traced run: ladder, then each workload untraced and traced, at
/// half the size each ([`Size::halved`]).
fn traced_run(
    bins: &Bins,
    opts: &Opts,
    size: Size,
    workloads: &[&'static Workload],
    stamp: &Stamp,
) -> Result<Traced, String> {
    let root = scratch_root(bins)?;
    let stamp_json = stamp.to_json();
    let write_trace = |spans: &SpanLog, name: &str| {
        let path = root.join(format!("trace-{name}.jsonl"));
        spans
            .write_jsonl(&path, &stamp_json)
            .map(|()| path.display().to_string())
            .map_err(|e| format!("write {}: {e}", path.display()))
    };

    note("ladder");
    let mut ladder_spans = SpanLog::new(&format!("trace-{}-ladder", opts.seed));
    let ladder_dir = ScratchDir::create(root.join(format!("ladder-{}", std::process::id())))?;
    let ladder = ladder::run(&size.ladder, ladder_dir.path(), &mut ladder_spans)?;
    drop(ladder_dir);
    write_trace(&ladder_spans, "ladder")?;

    let mut out =
        Traced { ladder, layers: BTreeMap::new(), trace_files: BTreeMap::new(), plain: Vec::new() };
    for &w in workloads {
        let mut spans = SpanLog::new(&format!("trace-{}-{}", opts.seed, w.name));
        let mut pass = opts.untraced_pass(bins, w, size.halved());
        note(&format!("{} untraced", w.name));
        let plain = run_pass(&pass, &mut spans)?;
        note(&describe(w, &plain));
        pass.traced = true;
        note(&format!("{} traced", w.name));
        let traced = run_pass(&pass, &mut spans)?;
        note(&describe(w, &traced));

        let headline = w.headline();
        let (off, on) = (plain.e2e[headline.name], traced.e2e[headline.name]);
        let overhead = match headline.better {
            Better::Higher => (off - on) / off,
            Better::Lower => (on - off) / off,
        } * 100.0;
        let mut layers = traced.layers;
        layers.insert("trace_overhead_pct".to_string(), overhead);
        out.layers.insert(w.name, layers);
        out.trace_files.insert(w.name, write_trace(&spans, w.name)?);
        out.plain.push(plain);
    }
    Ok(out)
}

/// `trace`: the ladder and every selected workload's layer table.
fn cmd_trace(opts: &Opts) -> Result<(), String> {
    let bins = Bins::locate()?;
    let (size, size_name) = opts.size();
    let stamp = Stamp::take(opts.seed, &scratch_root(&bins)?, true);
    let traced = traced_run(&bins, opts, size, &opts.workloads(), &stamp)?;
    for rung in &traced.ladder {
        match rung.ratio_to_below {
            Some(ratio) => note(&format!(
                "{:<40} {:>14.3}  x{ratio:.3} of the rung below",
                rung.name, rung.value
            )),
            None => note(&format!("{:<40} {:>14.3}", rung.name, rung.value)),
        }
    }
    for (name, layers) in &traced.layers {
        note(&format!("{name}: trace_overhead_pct {:.2}", layers["trace_overhead_pct"]));
    }
    println!(
        "{}",
        report::trace_document(
            &stamp,
            &size_name,
            &traced.ladder,
            &traced.layers,
            &traced.trace_files
        )?
    );
    Ok(())
}

/// `bench`: one workload for the driver. `--trace 0` prints every
/// end-to-end metric, `--trace 1` every per-layer metric.
fn cmd_bench(opts: &Opts) -> Result<(), String> {
    let name = opts.workload.as_deref().ok_or("bench needs --workload")?;
    let w = spec::workload(name).expect("validated while parsing");
    let bins = Bins::locate()?;
    let (size, _) = opts.size();
    if !opts.traced {
        let mut spans = SpanLog::new("bench");
        let r = run_pass(&opts.untraced_pass(&bins, w, size), &mut spans)?;
        note(&describe(w, &r));
        let metrics: Vec<(String, &str, f64)> =
            END_TO_END.iter().map(|m| (m.name.to_string(), m.unit, r.e2e[m.name])).collect();
        println!("{}", report::driver_line(r.attempted, r.failed, &metrics));
        return Ok(());
    }
    let stamp = Stamp::take(opts.seed, &scratch_root(&bins)?, true);
    let traced = traced_run(&bins, opts, size, &[w], &stamp)?;
    let metrics = report::layer_metrics(&traced.ladder, &traced.layers[w.name])?;
    let (attempted, failed) =
        traced.plain.iter().fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    println!("{}", report::driver_line(attempted, failed, &metrics));
    Ok(())
}

/// `compare`: non-zero exit on any regression (a rise in
/// `failed_share` is one) and on any row the new document lacks.
fn cmd_compare(paths: &[String]) -> Result<bool, String> {
    let [base, new] = paths else {
        return Err(format!("compare wants exactly two files\n{USAGE}"));
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        // A captured stdout may carry stray lines; the document is the last.
        let line = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
        Json::parse(line.trim()).map_err(|e| format!("{path}: {e}"))
    };
    let rows = report::compare(&read(base)?, &read(new)?)?;
    print!("{}", report::render_rows(&rows));
    Ok(rows.iter().all(|r| !r.verdict.fails()))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let command = args.remove(0);
    let outcome = match command.as_str() {
        "compare" => cmd_compare(&args),
        "run" | "trace" | "bench" => match parse_opts(args) {
            Ok(opts) => match command.as_str() {
                "run" => cmd_run(&opts),
                "trace" => cmd_trace(&opts),
                _ => cmd_bench(&opts),
            }
            .map(|()| true),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
        },
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("flashflow-perf: {msg}");
            ExitCode::from(1)
        }
    }
}
