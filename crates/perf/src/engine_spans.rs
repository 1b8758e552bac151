//! Per-item spans of `flashflow-core`'s engine, recovered from outside:
//! the `--log-json` files of the coordinator(s), the measurers and the
//! relay are joined on the item trace id with `flashflow_top::trace`,
//! and each item's phases are read off the coordinator's lane (one
//! clock, so differences are meaningful).
//!
//! | metric | from → to (coordinator clock) |
//! |---|---|
//! | `handshake_ms` | round's `period.start` → last `peer.ready` |
//! | `slots_ms` | `slot.go` → last per-second `sample` |
//! | `report_lag_ms` | nominal slot end (`slot.go` + slot) → last `peer.done` |
//! | `ledger_ms` | last `peer.done` → `target.estimate` |
//! | `go_skew_ms` | how far a peer's Go receipt strays from that peer's usual offset to `slot.go` |
//! | `inter_round_idle_ms` | a round's `period.done` → the next round's `period.start` |
//!
//! Each is reported as p50 and p95 over items (over round gaps for the
//! last): a round waits for its slowest item, so the p95 is the number
//! that predicts `period_overhead_ms_per_round`.

use std::collections::BTreeMap;

use flashflow_top::trace::{parse_jsonl, ItemTimeline, TraceReport};

use crate::spec::ENGINE_SPANS;
use crate::stats;

/// Joins `(label, jsonl text)` sources and returns the
/// `core.engine.*_p50` / `_p95` metrics. `slot_wall` is one slot's
/// length in wall seconds. Coordinator files (one per period, labelled
/// `coord0`, `coord1`, …) each have a clock of their own, but no item
/// spans two.
///
/// # Errors
/// No item timeline could be reconstructed at all.
pub fn join(sources: &[(String, String)], slot_wall: f64) -> Result<BTreeMap<String, f64>, String> {
    let mut report = TraceReport::default();
    // trace id → ts of the `period.start` that opened the item's round.
    let mut round_start: BTreeMap<u64, f64> = BTreeMap::new();
    let mut idle_ms = Vec::new();
    for (label, text) in sources {
        let events = parse_jsonl(&mut report, text);
        if label.starts_with("coord") {
            let mut current_start = None;
            let mut last_done: Option<f64> = None;
            for ev in &events {
                match ev.kind.as_str() {
                    "period.start" => {
                        current_start = Some(ev.ts);
                        if let Some(done) = last_done.take() {
                            idle_ms.push((ev.ts - done) * 1000.0);
                        }
                    }
                    "period.done" => last_done = Some(ev.ts),
                    "peer.ready" => {
                        if let (Some(trace), Some(start)) = (ev.scope.trace, current_start) {
                            round_start.entry(trace).or_insert(start);
                        }
                    }
                    _ => {}
                }
            }
        }
        report.fold_source(label, &events);
    }
    report.estimate_skews();

    // A peer's clock starts when its process does, and so does each
    // period's coordinator's, so a raw "skew" is mostly the offset
    // between the two; what varies item to item is the delivery jitter,
    // measured against the median for that (coordinator, peer) pair.
    let coord_of = |item: &ItemTimeline| {
        item.lanes.iter().find(|(_, lane)| lane.coordinator).map(|(label, _)| label.clone())
    };
    let mut per_pair: BTreeMap<(String, &str), Vec<f64>> = BTreeMap::new();
    for item in report.items.values() {
        let Some(coord) = coord_of(item) else { continue };
        for (label, skew) in &item.skews {
            per_pair.entry((coord.clone(), label)).or_default().push(*skew);
        }
    }
    let offsets: BTreeMap<(String, &str), f64> = per_pair
        .into_iter()
        .filter_map(|(pair, skews)| Some((pair, stats::median(&skews)?)))
        .collect();

    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for item in report.items.values() {
        let coord = coord_of(item).unwrap_or_default();
        let offset = |peer: &str| offsets.get(&(coord.clone(), peer)).copied();
        for (name, ms) in
            item_spans(item, round_start.get(&item.trace).copied(), slot_wall, &offset)
        {
            samples.entry(name).or_default().push(ms);
        }
    }
    if samples.is_empty() {
        return Err(format!(
            "no item timeline in the logs ({} traces, {} malformed lines)",
            report.items.len(),
            report.malformed
        ));
    }
    samples.insert("core.engine.inter_round_idle_ms", idle_ms);

    let mut out = BTreeMap::new();
    for name in ENGINE_SPANS {
        let values = samples.get(name).map_or(&[][..], Vec::as_slice);
        out.insert(format!("{name}_p50"), stats::quantile(values, 0.5).unwrap_or(0.0));
        out.insert(format!("{name}_p95"), stats::quantile(values, 0.95).unwrap_or(0.0));
    }
    Ok(out)
}

/// The spans one item's coordinator lane yields (those whose events are
/// all present).
fn item_spans(
    item: &ItemTimeline,
    round_start: Option<f64>,
    slot_wall: f64,
    offset: &dyn Fn(&str) -> Option<f64>,
) -> Vec<(&'static str, f64)> {
    let Some(lane) = item.lanes.values().find(|l| l.coordinator) else { return Vec::new() };
    let phase = |name: &str| lane.phases.get(name);
    let mut out = Vec::new();
    if let (Some(start), Some(hs)) = (round_start, phase("handshake")) {
        out.push(("core.engine.handshake_ms", (hs.last - start) * 1000.0));
    }
    if let (Some(go), Some(slots)) = (phase("go"), phase("slots")) {
        out.push(("core.engine.slots_ms", (slots.last - go.first) * 1000.0));
    }
    if let (Some(go), Some(report)) = (phase("go"), phase("report")) {
        out.push(("core.engine.report_lag_ms", (report.last - go.first - slot_wall) * 1000.0));
    }
    if let (Some(report), Some(ledger)) = (phase("report"), phase("ledger")) {
        out.push(("core.engine.ledger_ms", (ledger.last - report.last) * 1000.0));
    }
    let skew = item
        .skews
        .iter()
        .filter_map(|(label, skew)| Some((skew - offset(label)?).abs()))
        .fold(None, |acc: Option<f64>, s| Some(acc.map_or(s, |a| a.max(s))));
    if let Some(skew) = skew {
        out.push(("core.engine.go_skew_ms", skew * 1000.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(ts: f64, kind: &str, trace: Option<u64>) -> String {
        match trace {
            Some(t) => format!("{{\"ts\":{ts},\"kind\":\"{kind}\",\"trace\":{t}}}\n"),
            None => format!("{{\"ts\":{ts},\"kind\":\"{kind}\"}}\n"),
        }
    }

    /// Two one-item rounds on the coordinator's clock, the relay's
    /// clock running 10 s ahead with 1 ms and 3 ms of Go delivery.
    fn sources() -> Vec<(String, String)> {
        let mut coord = String::new();
        let mut relay = String::new();
        for (round, trace, go_delay) in [(0.0, 7u64, 0.001), (1.0, 8u64, 0.003)] {
            coord += &line(round, "period.start", None);
            coord += &line(round + 0.010, "peer.ready", Some(trace));
            coord += &line(round + 0.012, "peer.ready", Some(trace));
            coord += &line(round + 0.013, "slot.go", Some(trace));
            coord += &line(round + 0.034, "sample", Some(trace));
            coord += &line(round + 0.036, "peer.done", Some(trace));
            coord += &line(round + 0.036, "item.complete", Some(trace));
            coord += &line(round + 0.040, "target.estimate", Some(trace));
            coord += &line(round + 0.041, "period.done", None);
            relay += &line(10.0 + round + 0.013 + go_delay, "session.go", Some(trace));
        }
        vec![("coord0".into(), coord), ("relay".into(), relay)]
    }

    #[test]
    fn spans_are_read_off_the_coordinator_lane() {
        let m = join(&sources(), 0.020).expect("joined");
        let get = |k: &str| m[k];
        assert!((get("core.engine.handshake_ms_p50") - 12.0).abs() < 1e-6);
        assert!((get("core.engine.slots_ms_p50") - 21.0).abs() < 1e-6);
        assert!((get("core.engine.report_lag_ms_p50") - 3.0).abs() < 1e-6, "23 ms − 20 ms slot");
        assert!((get("core.engine.ledger_ms_p50") - 4.0).abs() < 1e-6);
        // Median relay offset is 10.002 s; each item strays 1 ms from it.
        assert!((get("core.engine.go_skew_ms_p50") - 1.0).abs() < 1e-6);
        // One gap between the two rounds: 1.000 − 0.041.
        assert!((get("core.engine.inter_round_idle_ms_p95") - 959.0).abs() < 1e-6);
        assert_eq!(m.len(), ENGINE_SPANS.len() * 2);
    }

    #[test]
    fn a_restarted_coordinator_gets_its_own_offset() {
        // A second period: a new coordinator whose clock starts over,
        // against the same relay, now 25 s ahead of it.
        let mut all = sources();
        let (mut coord, mut relay) = (String::new(), String::new());
        for (round, trace, go_delay) in [(0.0, 17u64, 0.002), (1.0, 18u64, 0.004)] {
            coord += &line(round, "period.start", None);
            coord += &line(round + 0.010, "peer.ready", Some(trace));
            coord += &line(round + 0.013, "slot.go", Some(trace));
            relay += &line(25.0 + round + 0.013 + go_delay, "session.go", Some(trace));
        }
        all[1].1 += &relay;
        all.push(("coord1".into(), coord));
        let m = join(&all, 0.020).expect("joined");
        assert!(
            (m["core.engine.go_skew_ms_p95"] - 1.0).abs() < 1e-6,
            "not the 15 s between clocks"
        );
    }

    #[test]
    fn logs_without_items_are_an_error_not_zeros() {
        let err =
            join(&[("coord0".into(), line(0.0, "coord.start", None))], 1.0).expect_err("empty");
        assert!(err.contains("no item timeline"), "{err}");
    }
}
