//! The observability pipeline end to end, over the same three-party
//! loopback topology as `three_party.rs`: a coordinator running an
//! **observed** period against two spawned `flashflow-measurer`
//! processes and one spawned `flashflow-relay` process, with every
//! telemetry surface exercised at once —
//!
//! - the coordinator's [`Span`] mirrors the period onto a JSONL file
//!   whose every line must parse back into an [`Event`], carrying
//!   `period.start` → role-tagged `sample`s → `target.estimate` →
//!   `pool.stats` → `period.done`;
//! - the period's `target.estimate` capacities equal the audit
//!   ledger's, and its pool counters show a cold round dialing every
//!   conversation and a warm one reusing them;
//! - the relay's token-gated `--metrics-addr` endpoint serves a
//!   [`RegistrySnapshot`] whose echo counters moved, and both peers'
//!   snapshots carry every reactor shard's instruments;
//! - `flashflow-top --replay` renders the coordinator's JSONL into
//!   per-target sparkline rows;
//! - and a `--claim-bg` lying relay writes `bg.divergence` events
//!   (claimed vs. metered, per reported second) into its *own*
//!   `--log-json` stream — the operator-side ground truth for the
//!   ledger's divergence flags.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use flashflow_core::bwauth::measure_echo_period_observed;
use flashflow_core::echo::{item_trace_id, EchoDeployment, EchoItem, EchoMeasurer};
use flashflow_core::observe::{count_kind, hex_fp};
use flashflow_core::pool::ConnectionPool;
use flashflow_obs::{Event, EventSink, Json, RegistrySnapshot, Span, Value};
use flashflow_procutil::fetch_metrics;
use flashflow_proto::msg::{TargetEndpoint, AUTH_TOKEN_LEN, FINGERPRINT_LEN};

const ITEMS: usize = 3;
const SLOT_SECS: u32 = 5;
const SPEEDUP: f64 = 10.0;
const MEASURER_CAPS: [u64; 2] = [300_000, 150_000];
const SOCKETS: u32 = 2;
const BG_OFFERED: u64 = 40_000;
const BG_ALLOWANCE: u64 = 20_000;
const RATIO: f64 = 0.25;

fn token_for(peer_ix: usize) -> [u8; AUTH_TOKEN_LEN] {
    [peer_ix as u8 + 0x21; AUTH_TOKEN_LEN]
}

fn token_hex(peer_ix: usize) -> String {
    token_for(peer_ix).iter().map(|b| format!("{b:02x}")).collect()
}

/// A scratch file path unique to this test process.
fn scratch_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("flashflow-obs-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// See `three_party.rs`: locates a sibling workspace binary, asking
/// cargo to (re)build it first so a filtered test run still works.
fn sibling_bin(name: &str) -> PathBuf {
    sibling_bin_of(name, name)
}

/// The general form, for binaries whose package name differs from the
/// binary name (`flashflow-trace` lives in the `flashflow-top` crate).
fn sibling_bin_of(package: &str, name: &str) -> PathBuf {
    let mut path = std::env::current_exe().expect("test exe path");
    path.pop(); // deps/
    path.pop(); // target/<profile>/
    let release = path.ends_with("release");
    path.push(name);
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut build = Command::new(cargo);
    build.args(["build", "-p", package, "--bin", name]);
    if release {
        build.arg("--release");
    }
    let status = build.status().expect("spawn cargo build for sibling binary");
    assert!(status.success(), "building {name} failed");
    assert!(path.exists(), "sibling binary {name} not found at {path:?}");
    path
}

/// Spawns a process and reads its advertised stdout lines: always
/// `listening <addr>`, plus `metrics <addr>` when `expect_metrics`.
fn spawn_advertised(
    bin: PathBuf,
    args: &[String],
    expect_metrics: bool,
) -> (Child, SocketAddr, Option<SocketAddr>) {
    let stderr =
        if std::env::var_os("FF_RELAY_DEBUG").is_some() { Stdio::inherit() } else { Stdio::null() };
    let mut child = Command::new(&bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {bin:?}: {e}"));
    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = BufReader::new(stdout);
    let mut read_addr = |prefix: &str| -> SocketAddr {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read advertised address");
        line.trim()
            .strip_prefix(prefix)
            .unwrap_or_else(|| panic!("unexpected stdout line: {line:?}"))
            .parse()
            .expect("parse advertised address")
    };
    let listen = read_addr("listening ");
    let metrics = expect_metrics.then(|| read_addr("metrics "));
    (child, listen, metrics)
}

fn spawn_measurer(
    peer_ix: usize,
    sessions: usize,
    extra: &[(&str, String)],
) -> (Child, SocketAddr, Option<SocketAddr>) {
    let mut args: Vec<String> = [
        "--listen",
        "127.0.0.1:0",
        "--role",
        "measurer",
        "--token-hex",
        &token_hex(peer_ix),
        "--speedup",
        &SPEEDUP.to_string(),
        "--sessions",
        &sessions.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for (k, v) in extra {
        args.push((*k).to_string());
        args.push(v.clone());
    }
    let expect_metrics = extra.iter().any(|(k, _)| *k == "--metrics-addr");
    spawn_advertised(sibling_bin("flashflow-measurer"), &args, expect_metrics)
}

fn relay_args(extra: &[(&str, String)], sessions: usize) -> Vec<String> {
    let mut args: Vec<String> = [
        "--listen",
        "127.0.0.1:0",
        "--token-hex",
        &token_hex(9),
        "--background",
        &BG_OFFERED.to_string(),
        "--speedup",
        &SPEEDUP.to_string(),
        "--sessions",
        &sessions.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for (k, v) in extra {
        args.push((*k).to_string());
        args.push(v.clone());
    }
    args
}

fn deployment(measurer_addrs: [SocketAddr; 2], relay_addr: SocketAddr) -> EchoDeployment {
    EchoDeployment {
        measurers: measurer_addrs
            .iter()
            .zip(MEASURER_CAPS)
            .enumerate()
            .map(|(ix, (&addr, rate_cap))| EchoMeasurer {
                addr,
                token: token_for(ix),
                rate_cap,
                sockets: SOCKETS,
            })
            .collect(),
        relay: TargetEndpoint::from_addr(relay_addr).expect("the relay listens on IPv4 loopback"),
        relay_token: token_for(9),
        speedup: SPEEDUP,
        ratio: RATIO,
    }
}

fn items() -> Vec<EchoItem> {
    round_items(0)
}

/// The items of round `round`: the same relays every round, under
/// secrets no earlier round used.
fn round_items(round: u64) -> Vec<EchoItem> {
    (0..ITEMS)
        .map(|ix| {
            let mut fp = [0u8; FINGERPRINT_LEN];
            fp[0] = ix as u8 + 1;
            let secret = 0x0B5E_0000_0000_0000 + (round << 32) + ix as u64 * 0x1_0001;
            EchoItem {
                relay_fp: fp,
                slot_secs: SLOT_SECS,
                bg_allowance: BG_ALLOWANCE,
                measurement_secret: secret,
                attempt: 0,
                resume: false,
                trace_id: item_trace_id(secret, 0),
            }
        })
        .collect()
}

fn wait_exit_zero(children: Vec<(&'static str, Child)>) {
    for (name, mut child) in children {
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = child.try_wait().expect("try_wait") {
                break status;
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                panic!("{name} did not exit");
            }
            thread::sleep(Duration::from_millis(10));
        };
        assert!(status.success(), "{name} exited with {status}");
    }
}

/// Reads a JSONL file back into events, asserting every line parses.
fn parse_jsonl(path: &PathBuf) -> Vec<Event> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read JSONL at {path:?}: {e}"));
    text.lines()
        .map(|line| {
            Event::parse_json_line(line)
                .unwrap_or_else(|e| panic!("malformed JSONL line {line:?}: {e}"))
        })
        .collect()
}

#[test]
fn observed_period_serves_metrics_and_renders_in_top() {
    let jsonl_path = scratch_path("coordinator.jsonl");

    // Measurer 0 gets a metrics endpoint and a session quota above the
    // period's demand so it is still alive (and serving snapshots) when
    // the reactor-telemetry assertions below run; it is killed at the
    // end alongside the relay. Measurer 1 drains on its quota as usual
    // (two rounds: the observed one and the warm-pool one).
    let (mut m0, a0, m0_metrics) =
        spawn_measurer(0, 99, &[("--metrics-addr", "127.0.0.1:0".to_string())]);
    let m0_metrics = m0_metrics.expect("measurer advertised its metrics endpoint");
    let (m1, a1, _) = spawn_measurer(1, 2 * ITEMS, &[]);
    // The relay's session quota is left above the period's demand so it
    // is still alive (and serving metrics) after the period completes;
    // it is killed at the end instead of draining on its own.
    let (mut relay, relay_addr, metrics_addr) = spawn_advertised(
        PathBuf::from(env!("CARGO_BIN_EXE_flashflow-relay")),
        &relay_args(&[("--metrics-addr", "127.0.0.1:0".to_string())], 99),
        true,
    );
    let metrics_addr = metrics_addr.expect("relay advertised its metrics endpoint");

    let sink = EventSink::new()
        .with_jsonl_path(jsonl_path.to_str().expect("utf-8 temp path"))
        .expect("open coordinator JSONL");
    let span = Span::root(sink.clone()).period(0);

    let dep = deployment([a0, a1], relay_addr);
    let period_items = items();
    let pool = ConnectionPool::new();
    let file = measure_echo_period_observed(&dep, &period_items, &pool, Some(&span));
    assert_eq!(file.entries.len(), ITEMS);
    assert!(file.peers.all_clean(), "honest observed period must stay clean");

    // --- the JSONL stream is schema-valid and complete -------------
    let events = parse_jsonl(&jsonl_path);
    assert_eq!(count_kind(&events, "period.start"), 1);
    assert_eq!(count_kind(&events, "period.done"), 1);
    assert_eq!(count_kind(&events, "target.estimate"), ITEMS);
    assert_eq!(count_kind(&events, "pool.stats"), 1);
    assert!(count_kind(&events, "slot.go") >= ITEMS, "every item releases a Go");
    for group in 0..ITEMS {
        let target_samples = events
            .iter()
            .filter(|e| {
                e.kind == "sample"
                    && e.scope.group == Some(group as u64)
                    && e.field("role").and_then(Value::as_str) == Some("target")
            })
            .count();
        assert!(
            target_samples >= SLOT_SECS as usize,
            "group {group}: expected a target-role sample per slot second, got {target_samples}"
        );
    }
    let estimates: Vec<&Event> = events.iter().filter(|e| e.kind == "target.estimate").collect();
    for (group, (item, entry)) in period_items.iter().zip(&file.entries).enumerate() {
        let event = estimates
            .iter()
            .find(|e| e.scope.group == Some(group as u64))
            .unwrap_or_else(|| panic!("no target.estimate for group {group}"));
        assert_eq!(
            event.field("fp").and_then(Value::as_str),
            Some(hex_fp(&item.relay_fp).as_str())
        );
        assert_eq!(event.f64_field("capacity"), Some(entry.capacity.bytes_per_sec()));
    }

    // --- the pool: a cold round dials, a warm one reuses -----------
    // Every item of a round runs at once, so a cold round dials one
    // connection per conversation; the next round on the same pool
    // dials nothing and reuses them all.
    let peers_per_round = ITEMS as u64 * (MEASURER_CAPS.len() as u64 + 1);
    assert_eq!((file.pool.dials, file.pool.reuses), (peers_per_round, 0), "{:?}", file.pool);
    let warm = flashflow_core::bwauth::measure_echo_period(&dep, &round_items(1), &pool);
    assert!(warm.peers.all_clean(), "the warm round must stay clean");
    assert_eq!(warm.pool.dials, peers_per_round, "the warm round dialed: {:?}", warm.pool);
    assert!(warm.pool.reuses >= peers_per_round, "warm round reused too few: {:?}", warm.pool);

    // --- the relay's metrics endpoint saw the traffic --------------
    let body = fetch_metrics(metrics_addr, &token_for(9), Duration::from_secs(5))
        .expect("fetch relay metrics snapshot");
    let snapshot = RegistrySnapshot::parse(&body).expect("snapshot JSON parses");
    let counter = |name: &str| -> u64 {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("counter {name} missing from snapshot: {body}"))
            .1
    };
    assert!(counter("relay.echo.verified_bytes") > 0, "relay verified no blast bytes");
    assert!(counter("relay.echo.echoed_bytes") > 0, "relay echoed no bytes");
    assert_eq!(counter("relay.echo.forged_bytes"), 0, "honest run forged bytes");
    assert!(
        counter("relay.reported_seconds") >= (ITEMS * SLOT_SECS as usize) as u64,
        "relay reported fewer seconds than the period demanded"
    );

    // --- reactor runtime telemetry reached both peers' endpoints ---
    // Each process registers five instruments per epoll shard plus one
    // shared stall counter; the dwell/jitter histograms accumulate on
    // every loop turn, and the period's traffic must have produced at
    // least one timed ready dispatch somewhere across the shards.
    let assert_reactor_telemetry = |snapshot: &RegistrySnapshot, prefix: &str, shards: usize| {
        let histogram = |name: &str| {
            &snapshot
                .histograms
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("histogram {name} missing from {prefix} snapshot"))
                .1
        };
        let mut dwell_turns = 0u64;
        let mut dwell_us = 0u64;
        let mut dispatches = 0u64;
        for shard in 0..shards {
            let dwell = histogram(&format!("{prefix}.shard{shard}.epoll_dwell_us"));
            dwell_turns += dwell.count;
            dwell_us += dwell.sum;
            dispatches += histogram(&format!("{prefix}.shard{shard}.dispatch_us")).count;
            assert!(
                histogram(&format!("{prefix}.shard{shard}.tick_jitter_us")).count > 0,
                "shard {shard} of {prefix} never ticked"
            );
            for gauge in ["slab_live", "write_backlog"] {
                let name = format!("{prefix}.shard{shard}.{gauge}");
                assert!(
                    snapshot.gauges.iter().any(|(n, _)| *n == name),
                    "gauge {name} missing from {prefix} snapshot"
                );
            }
        }
        let shard_gauges = format!("{prefix}.shard");
        let counted = snapshot
            .gauges
            .iter()
            .filter(|(n, _)| n.starts_with(&shard_gauges) && n.ends_with(".slab_live"))
            .count();
        assert_eq!(counted, shards, "{prefix} snapshot has {counted} shards, not {shards}");
        assert!(dwell_turns > 0, "{prefix} epoll shards never woke");
        assert!(dwell_us > 0, "{prefix} epoll shards never slept: dwell mean is zero");
        assert!(dispatches > 0, "{prefix} shards dispatched no ready events");
        assert!(
            snapshot.counters.iter().any(|(n, _)| *n == format!("{prefix}.stalls")),
            "stall counter missing from {prefix} snapshot"
        );
    };
    assert_reactor_telemetry(&snapshot, "relay.reactor", 4);

    let measurer_body = fetch_metrics(m0_metrics, &token_for(0), Duration::from_secs(5))
        .expect("fetch measurer metrics snapshot");
    let measurer_snapshot =
        RegistrySnapshot::parse(&measurer_body).expect("measurer snapshot JSON parses");
    assert_reactor_telemetry(&measurer_snapshot, "measurer.reactor", 4);

    // --- the endpoints still answer a wrong token with silence ------
    let wrong_token = [0u8; AUTH_TOKEN_LEN];
    for addr in [metrics_addr, m0_metrics] {
        assert!(
            fetch_metrics(addr, &wrong_token, Duration::from_secs(5)).is_err(),
            "metrics endpoint {addr} answered a wrong token"
        );
    }

    // --- flashflow-top replays the stream into sparklines ----------
    let top = Command::new(sibling_bin("flashflow-top"))
        .args(["--replay", jsonl_path.to_str().expect("utf-8 temp path")])
        .output()
        .expect("run flashflow-top");
    assert!(top.status.success(), "flashflow-top --replay failed: {top:?}");
    let rendered = String::from_utf8(top.stdout).expect("utf-8 render");
    assert!(rendered.contains("flashflow-top"), "missing header: {rendered}");
    assert!(rendered.contains("period done"), "replay must reach period.done: {rendered}");
    for item in &period_items {
        let fp = hex_fp(&item.relay_fp);
        assert!(rendered.contains(&fp[..8]), "target {fp} missing from render: {rendered}");
    }
    assert!(
        rendered.chars().any(|c| ('\u{2581}'..='\u{2588}').contains(&c)),
        "no sparkline glyphs in render: {rendered}"
    );
    assert!(rendered.contains("pool:"), "pool stats line missing from render: {rendered}");

    drop(pool);
    drop(file);
    drop(warm);
    wait_exit_zero(vec![("measurer-1", m1)]);
    for held_open in [&mut m0, &mut relay] {
        held_open.kill().expect("kill held-open peer");
        let _ = held_open.wait();
    }
    let _ = std::fs::remove_file(&jsonl_path);
}

#[test]
fn lying_relay_writes_bg_divergence_into_its_own_jsonl() {
    let relay_log = scratch_path("relay.jsonl");
    let claim = 300_000u64;

    let (m0, a0, _) = spawn_measurer(0, 1, &[]);
    let (m1, a1, _) = spawn_measurer(1, 1, &[]);
    let (relay, relay_addr, _) = spawn_advertised(
        PathBuf::from(env!("CARGO_BIN_EXE_flashflow-relay")),
        &relay_args(
            &[
                ("--claim-bg", claim.to_string()),
                ("--log-json", relay_log.to_str().expect("utf-8 temp path").to_string()),
            ],
            1,
        ),
        false,
    );

    let one_item = vec![items().remove(0)];
    let pool = ConnectionPool::new();
    let file = flashflow_core::bwauth::measure_echo_period(
        &deployment([a0, a1], relay_addr),
        &one_item,
        &pool,
    );
    assert!(
        file.entries[0].divergent_rows > 0,
        "the coordinator's ledger must flag the inflated claim"
    );

    drop(pool);
    drop(file);
    // The relay exits on its session quota, closing (and flushing) its
    // JSONL stream before we read it.
    wait_exit_zero(vec![("measurer-0", m0), ("measurer-1", m1), ("relay", relay)]);

    let events = parse_jsonl(&relay_log);
    let divergences: Vec<&Event> = events.iter().filter(|e| e.kind == "bg.divergence").collect();
    assert!(!divergences.is_empty(), "lying relay must log its own claimed-vs-metered divergence");
    for event in &divergences {
        assert_eq!(
            event.u64_field("claimed"),
            Some(claim),
            "divergence event must carry the inflated claim: {event:?}"
        );
        let metered = event
            .u64_field("metered")
            .unwrap_or_else(|| panic!("divergence event lacks metered field: {event:?}"));
        assert!(metered < claim, "metered background ({metered}) should be far below the claim");
        assert!(event.scope.session.is_some(), "divergence must be session-scoped: {event:?}");
    }
    let _ = std::fs::remove_file(&relay_log);
}

/// The full distributed-tracing pipeline: every process in the
/// three-party topology writes its own `--log-json` stream, and
/// `flashflow-trace` joins the four files into per-item causal
/// timelines — the coordinator-minted trace id must reappear in the
/// relay's and the measurers' streams, and every item's story must be
/// complete from handshake to ledger row. This is the test the CI
/// `trace-pipeline` job runs.
#[test]
fn trace_pipeline_reconstructs_complete_timelines() {
    let coord_log = scratch_path("trace-coordinator.jsonl");
    let relay_log = scratch_path("trace-relay.jsonl");
    let m0_log = scratch_path("trace-m0.jsonl");
    let m1_log = scratch_path("trace-m1.jsonl");
    let arg = |p: &PathBuf| p.to_str().expect("utf-8 temp path").to_string();

    let (m0, a0, _) = spawn_measurer(0, ITEMS, &[("--log-json", arg(&m0_log))]);
    let (m1, a1, _) = spawn_measurer(1, ITEMS, &[("--log-json", arg(&m1_log))]);
    let (relay, relay_addr, _) = spawn_advertised(
        PathBuf::from(env!("CARGO_BIN_EXE_flashflow-relay")),
        &relay_args(&[("--log-json", arg(&relay_log))], ITEMS),
        false,
    );

    let sink = EventSink::new().with_jsonl_path(&arg(&coord_log)).expect("open coordinator JSONL");
    let span = Span::root(sink).period(0);
    let dep = deployment([a0, a1], relay_addr);
    let period_items = items();
    let pool = ConnectionPool::new();
    let file = measure_echo_period_observed(&dep, &period_items, &pool, Some(&span));
    assert!(file.peers.all_clean(), "honest observed period must stay clean");
    drop(pool);
    drop(file);
    // Every peer drains on its session quota, flushing its JSONL
    // stream, before the join tool reads the files.
    wait_exit_zero(vec![("measurer-0", m0), ("measurer-1", m1), ("relay", relay)]);

    let trace_bin = sibling_bin_of("flashflow-top", "flashflow-trace");
    let logs = [&coord_log, &relay_log, &m0_log, &m1_log];
    let out = Command::new(&trace_bin)
        .arg("--json")
        .args(logs.iter().map(|p| arg(p)))
        .output()
        .expect("run flashflow-trace");
    assert!(out.status.success(), "flashflow-trace failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 json");
    let doc = Json::parse(stdout.trim()).expect("flashflow-trace --json parses");

    let items_json = doc.get("items").and_then(Json::as_arr).expect("items array");
    assert_eq!(items_json.len(), ITEMS, "one timeline per item-attempt: {stdout}");
    let minted: Vec<String> = period_items
        .iter()
        .map(|item| format!("{:016x}", item_trace_id(item.measurement_secret, item.attempt)))
        .collect();
    for timeline in items_json {
        let trace = timeline.get("trace").and_then(Json::as_str).expect("trace hex");
        assert!(minted.iter().any(|t| t == trace), "unminted trace id {trace} in {stdout}");
        assert_eq!(
            timeline.get("complete").and_then(Json::as_bool),
            Some(true),
            "incomplete timeline for trace {trace}: {stdout}"
        );
        let lanes = match timeline.get("lanes") {
            Some(Json::Obj(lanes)) => lanes,
            other => panic!("lanes must be an object, got {other:?}"),
        };
        // The coordinator's trace id must have propagated over the wire
        // into the relay's stream and at least one measurer's stream —
        // three independently-clocked processes telling one story.
        assert!(lanes.len() >= 3, "trace {trace} seen by only {} process(es)", lanes.len());
        for marker in ["coordinator", "relay", "m0"] {
            assert!(
                lanes.iter().any(|(label, _)| label.contains(marker)),
                "no {marker} lane for trace {trace}: {stdout}"
            );
        }
        let skews = match timeline.get("skew_secs") {
            Some(Json::Obj(skews)) => skews,
            other => panic!("skew_secs must be an object, got {other:?}"),
        };
        assert!(!skews.is_empty(), "no clock-skew estimates for trace {trace}: {stdout}");
    }

    // The human-readable rendering agrees: every timeline complete.
    let text = Command::new(&trace_bin)
        .args(logs.iter().map(|p| arg(p)))
        .output()
        .expect("run flashflow-trace (text)");
    assert!(text.status.success(), "flashflow-trace text mode failed: {text:?}");
    let rendered = String::from_utf8(text.stdout).expect("utf-8 render");
    assert!(
        rendered.contains(&format!("{ITEMS} complete")),
        "text header must count complete timelines: {rendered}"
    );
    assert!(!rendered.contains("INCOMPLETE"), "no timeline may be incomplete: {rendered}");

    for log in logs {
        let _ = std::fs::remove_file(log);
    }
}
