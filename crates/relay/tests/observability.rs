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

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use flashflow_core::echo::{item_trace_id, run_round, EchoDeployment, EchoItem};
use flashflow_core::engine::EngineSnapshot;
use flashflow_core::observe::{hex_fp, RoundSpans};
use flashflow_core::pool::ConnectionPool;
use flashflow_harness::{
    bin, deployment, exit_zero_all, read_jsonl, round_items, spawn_measurer, spawn_relay, token,
    ITEMS, MEASURER_CAPS, RELAY, SLOT_SECS,
};
use flashflow_obs::{Event, EventSink, Json, RegistrySnapshot, Span, Value};
use flashflow_procutil::fetch_metrics;
use flashflow_proto::msg::AUTH_TOKEN_LEN;

/// This file's measurement secrets: [`round_items`]`(SECRET, round)`.
const SECRET: u64 = 0x0B5E_0000_0000_0000;

/// Runs one round of `items` with its telemetry on `span`: its events
/// as they happen, then its audit trail.
fn observed_round(
    deployment: &EchoDeployment,
    items: &[EchoItem],
    pool: &ConnectionPool,
    span: &Span,
) -> EngineSnapshot {
    let spans = RoundSpans::start(span, deployment, items);
    let peers = run_round(deployment, items, pool, &mut |event| spans.engine_event(&event));
    spans.audit(items, &peers, Some(&pool.stats()), deployment.ratio);
    peers
}

/// How many of `events` are of kind `kind`.
fn count_kind(events: &[Event], kind: &str) -> usize {
    events.iter().filter(|e| e.kind == kind).count()
}

/// A scratch file path unique to this test process.
fn scratch_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("flashflow-obs-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn observed_period_serves_metrics_and_renders_in_top() {
    let jsonl_path = scratch_path("coordinator.jsonl");

    // Measurer 0 gets a metrics endpoint and a session quota above the
    // period's demand so it is still alive (and serving snapshots) when
    // the reactor-telemetry assertions below run; it is killed at the
    // end alongside the relay. Measurer 1 drains on its quota as usual
    // (two rounds: the observed one and the warm-pool one).
    let (mut m0, a0) = spawn_measurer(0, Some(99), &["--metrics-addr", "127.0.0.1:0"]);
    let m0_metrics = m0.advertised("metrics");
    let (m1, a1) = spawn_measurer(1, Some(2 * ITEMS), &[]);
    // The relay's session quota is left above the period's demand so it
    // is still alive (and serving metrics) after the period completes;
    // it is killed at the end instead of draining on its own.
    let (mut relay, relay_addr) = spawn_relay(Some(99), &["--metrics-addr", "127.0.0.1:0"]);
    let metrics_addr = relay.advertised("metrics");

    let sink = EventSink::new()
        .with_jsonl_path(jsonl_path.to_str().expect("utf-8 temp path"))
        .expect("open coordinator JSONL");
    let span = Span::root(sink.clone()).period(0);

    let dep = deployment([a0, a1], relay_addr);
    let period_items = round_items(SECRET, 0);
    let pool = ConnectionPool::new();
    let peers = observed_round(&dep, &period_items, &pool, &span);
    let cold = pool.stats();
    assert_eq!(peers.item_count(), ITEMS);
    assert!(peers.all_clean(), "honest observed period must stay clean");

    // --- the JSONL stream is schema-valid and complete -------------
    let events = read_jsonl(&jsonl_path);
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
    for (group, item) in period_items.iter().enumerate() {
        let event = estimates
            .iter()
            .find(|e| e.scope.group == Some(group as u64))
            .unwrap_or_else(|| panic!("no target.estimate for group {group}"));
        assert_eq!(
            event.field("fp").and_then(Value::as_str),
            Some(hex_fp(&item.relay_fp).as_str())
        );
        let capacity = peers.estimate(group, dep.ratio).1.bytes_per_sec();
        assert_eq!(event.f64_field("capacity"), Some(capacity));
    }

    // --- the pool: a cold round dials, a warm one reuses -----------
    // Every item of a round runs at once, so a cold round dials one
    // connection per conversation; the next round on the same pool
    // dials nothing and reuses them all.
    let peers_per_round = ITEMS as u64 * (MEASURER_CAPS.len() as u64 + 1);
    assert_eq!((cold.dials, cold.reuses), (peers_per_round, 0), "{cold:?}");
    let warm = run_round(&dep, &round_items(SECRET, 1), &pool, &mut |_| {});
    assert!(warm.all_clean(), "the warm round must stay clean");
    let warm = pool.stats();
    assert_eq!(warm.dials, peers_per_round, "the warm round dialed: {warm:?}");
    assert!(warm.reuses >= peers_per_round, "warm round reused too few: {warm:?}");

    // --- the relay's metrics endpoint saw the traffic --------------
    let body = fetch_metrics(metrics_addr, &token(RELAY), Duration::from_secs(5))
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

    let measurer_body = fetch_metrics(m0_metrics, &token(0), Duration::from_secs(5))
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
    let top = Command::new(bin("flashflow-top"))
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
    exit_zero_all([m1]);
    drop((m0, relay)); // held open: dropping kills them
    let _ = std::fs::remove_file(&jsonl_path);
}

#[test]
fn lying_relay_writes_bg_divergence_into_its_own_jsonl() {
    let relay_log = scratch_path("relay.jsonl");
    let claim = 300_000u64;

    let (m0, a0) = spawn_measurer(0, Some(1), &[]);
    let (m1, a1) = spawn_measurer(1, Some(1), &[]);
    let relay_log_arg = relay_log.to_str().expect("utf-8 temp path");
    let (relay, relay_addr) =
        spawn_relay(Some(1), &["--claim-bg", &claim.to_string(), "--log-json", relay_log_arg]);

    let one_item = vec![round_items(SECRET, 0).remove(0)];
    let pool = ConnectionPool::new();
    let dep = deployment([a0, a1], relay_addr);
    let peers = run_round(&dep, &one_item, &pool, &mut |_| {});
    assert!(
        peers.divergent_count(0, dep.ratio) > 0,
        "the coordinator's ledger must flag the inflated claim"
    );

    drop(pool);
    // The relay's JSONL stream is flushed before we read it.
    exit_zero_all([m0, m1, relay]);

    let events = read_jsonl(&relay_log);
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

    let (m0, a0) = spawn_measurer(0, Some(ITEMS), &["--log-json", &arg(&m0_log)]);
    let (m1, a1) = spawn_measurer(1, Some(ITEMS), &["--log-json", &arg(&m1_log)]);
    let (relay, relay_addr) = spawn_relay(Some(ITEMS), &["--log-json", &arg(&relay_log)]);

    let sink = EventSink::new().with_jsonl_path(&arg(&coord_log)).expect("open coordinator JSONL");
    let span = Span::root(sink).period(0);
    let dep = deployment([a0, a1], relay_addr);
    let period_items = round_items(SECRET, 0);
    let pool = ConnectionPool::new();
    let peers = observed_round(&dep, &period_items, &pool, &span);
    assert!(peers.all_clean(), "honest observed period must stay clean");
    drop(pool);
    // Every stream is flushed before the join tool reads the files.
    exit_zero_all([m0, m1, relay]);

    let trace_bin = bin("flashflow-trace");
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
