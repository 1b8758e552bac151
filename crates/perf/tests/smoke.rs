//! `flashflow-perf --smoke` through the real binary: the same code path
//! as a full run — sibling binaries built and found beside the
//! executable, real processes over loopback, every validity check —
//! sized to finish in seconds.
//!
//! The scenarios share two cores with the processes they spawn, so they
//! take turns.

use std::path::Path;
use std::process::{Command, Output, Stdio};
use std::sync::Mutex;

use flashflow_obs::Json;
use flashflow_perf::report::{RUN_SCHEMA, TRACE_SCHEMA};
use flashflow_perf::spec::{self, END_TO_END, FAILED_SHARE, WHERE_DEFINED, WORKLOADS};

static TURN: Mutex<()> = Mutex::new(());

/// Runs the binary; returns its output and its pid (which names its
/// scratch directories, and so its children's command lines).
fn perf(args: &[&str]) -> (Output, u32) {
    let child = Command::new(env!("CARGO_BIN_EXE_flashflow-perf"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn flashflow-perf");
    let pid = child.id();
    (child.wait_with_output().expect("wait for flashflow-perf"), pid)
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The result document: the last non-empty stdout line.
fn document(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty()).expect("a result line");
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("result is not JSON ({e}): {line}"))
}

/// No process whose command line names a scratch directory of the perf
/// invocation `pid` is still alive.
fn assert_no_orphans(pid: u32) {
    let marker = format!("-{pid}-");
    for entry in std::fs::read_dir("/proc").expect("read /proc").flatten() {
        let cmdline = std::fs::read(entry.path().join("cmdline")).unwrap_or_default();
        let cmdline = String::from_utf8_lossy(&cmdline);
        assert!(
            !(cmdline.contains("flashflow-") && cmdline.contains(&marker)),
            "orphan left behind: {}",
            cmdline.replace('\0', " ")
        );
    }
}

#[test]
fn smoke_run_prints_every_end_to_end_metric_for_every_workload() {
    let _turn = TURN.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (out, pid) = perf(&["run", "--smoke", "--seed", "5"]);
    assert!(out.status.success(), "run --smoke failed:\n{}", stderr_of(&out));
    let doc = document(&out);
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(RUN_SCHEMA));
    let stamp = doc.get("stamp").expect("stamp");
    for key in ["nproc", "kernel", "rustc", "git_commit", "seed", "state_dir_fs", "link", "tracing"]
    {
        assert!(stamp.get(key).is_some(), "stamp lacks {key}");
    }
    assert_eq!(stamp.get("tracing").and_then(Json::as_str), Some("off"));
    assert_eq!(stamp.get("link").and_then(Json::as_str), Some("loopback"));

    for w in WORKLOADS {
        let metrics = doc
            .get("workloads")
            .and_then(|ws| ws.get(w.name))
            .and_then(|w| w.get("metrics"))
            .unwrap_or_else(|| panic!("no metrics for {}", w.name));
        let Json::Obj(pairs) = metrics else { panic!("metrics is not an object") };
        let emitted: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = END_TO_END
            .iter()
            .chain(WHERE_DEFINED.iter().filter(|m| w.defines(m.name)))
            .map(|m| m.name)
            .chain([FAILED_SHARE.name])
            .collect();
        assert_eq!(emitted, declared, "{}", w.name);
        for (name, m) in pairs {
            for key in ["unit", "n", "median", "q1", "q3"] {
                assert!(m.get(key).is_some(), "{}.{name} lacks {key}", w.name);
            }
            let median = m.get("median").and_then(Json::as_f64).expect("median");
            if name == FAILED_SHARE.name {
                assert_eq!(median, 0.0, "{}: items failed", w.name);
            } else {
                assert!(median.is_finite() && median > 0.0, "{}.{name} = {median}", w.name);
            }
        }
    }
    assert_no_orphans(pid);
}

#[test]
fn corrupt_echo_makes_the_run_invalid_not_slow() {
    let _turn = TURN.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (out, pid) = perf(&[
        "run",
        "--smoke",
        "--workload",
        "blast_paced",
        "--relay-arg",
        "--corrupt-echo",
        "--relay-arg",
        "true",
    ]);
    assert!(!out.status.success(), "a forging relay must fail the run");
    let stderr = stderr_of(&out);
    assert!(stderr.contains("invalid run"), "stderr should name the invalid run:\n{stderr}");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains(RUN_SCHEMA),
        "an invalid run must not print a result"
    );
    assert_no_orphans(pid);
}

#[test]
fn smoke_trace_prints_every_layer_metric_and_writes_span_files() {
    let _turn = TURN.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (out, pid) = perf(&["trace", "--smoke", "--workload", "period_roster", "--seed", "6"]);
    assert!(out.status.success(), "trace --smoke failed:\n{}", stderr_of(&out));
    let doc = document(&out);
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(TRACE_SCHEMA));

    let ladder = doc.get("ladder").and_then(Json::as_arr).expect("ladder");
    let mut names: Vec<String> = ladder
        .iter()
        .map(|r| r.get("name").and_then(Json::as_str).expect("rung name").to_string())
        .collect();
    assert!(
        ladder.iter().filter(|r| r.get("ratio_to_below").and_then(Json::as_f64).is_some()).count()
            >= 9,
        "throughput rungs carry their ratio to the rung below"
    );
    let workload = doc.get("workloads").and_then(|w| w.get("period_roster")).expect("workload");
    let Some(Json::Obj(layers)) = workload.get("layers") else { panic!("no layers") };
    names.extend(layers.iter().map(|(k, _)| k.clone()));
    names.sort();
    let mut declared: Vec<String> = spec::per_layer().into_iter().map(|(n, ..)| n).collect();
    declared.sort();
    assert_eq!(names, declared, "ladder + layer table = every declared per-layer metric");

    let trace_file = workload.get("trace_file").and_then(Json::as_str).expect("trace file");
    for path in [Path::new(trace_file), &Path::new(trace_file).with_file_name("trace-ladder.jsonl")]
    {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut lines = text.lines();
        let header = Json::parse(lines.next().expect("header")).expect("header parses");
        assert_eq!(header.get("kind").and_then(Json::as_str), Some("perf.trace"));
        let spans: Vec<Json> = lines.map(|l| Json::parse(l).expect("span parses")).collect();
        assert!(!spans.is_empty(), "{} holds spans", path.display());
        for span in &spans {
            for key in ["run", "id", "parent", "name", "start_us", "end_us"] {
                assert!(span.get(key).is_some(), "span lacks {key}: {span}");
            }
        }
    }
    assert_no_orphans(pid);
}

#[test]
fn bench_prints_the_driver_line_and_refuses_a_bare_directory() {
    let _turn = TURN.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (out, pid) = perf(&[
        "bench",
        "--smoke",
        "--workload",
        "period_roster",
        "--seed",
        "9",
        "--seconds",
        "4",
        "--trace",
        "0",
    ]);
    assert!(out.status.success(), "bench failed:\n{}", stderr_of(&out));
    let Json::Obj(pairs) = document(&out) else { panic!("driver line is not an object") };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let line = Json::Obj(pairs);
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(64));
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Obj(metrics)) = line.get("metrics") else { panic!("no metrics") };
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(emitted, declared);
    for (m, (_, v)) in END_TO_END.iter().zip(metrics) {
        assert_eq!(v.get("unit").and_then(Json::as_str), Some(m.unit));
        assert!(v.get("value").and_then(Json::as_f64).is_some_and(|x| x > 0.0), "{}", m.name);
    }
    assert_no_orphans(pid);

    // Outside a checkout there is nothing to build the peers from: the
    // benchmark must fail without printing a result.
    let empty = std::env::temp_dir().join(format!("ff-perf-bare-{}", std::process::id()));
    std::fs::create_dir_all(&empty).expect("mk bare dir");
    let out = Command::new(env!("CARGO_BIN_EXE_flashflow-perf"))
        .args([
            "bench",
            "--workload",
            "blast_paced",
            "--seed",
            "1",
            "--seconds",
            "4",
            "--trace",
            "0",
        ])
        .current_dir(&empty)
        .env_remove("CARGO_MANIFEST_DIR")
        .stdin(Stdio::null())
        .output()
        .expect("spawn flashflow-perf");
    let _ = std::fs::remove_dir_all(&empty);
    assert!(!out.status.success(), "a bare directory cannot run the benchmark");
    assert!(out.stdout.is_empty(), "and must not print a result");
}
