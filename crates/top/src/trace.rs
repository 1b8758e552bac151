//! Cross-process timeline reconstruction for `flashflow-trace`: merge
//! the JSONL event files of a coordinator, its measurers, and the
//! target relay, join them on the coordinator-minted trace id
//! (`scope.trace`, protocol v6), and fold each item-attempt's events
//! into one causal timeline — handshake, Go barrier, slot seconds,
//! final reports, ledger row.
//!
//! Every process timestamps events with its **own** monotonic clock
//! (seconds since process start), so raw timestamps from different
//! files are not comparable. The joiner therefore keeps per-source
//! phase spans separate and estimates per-source clock skew from the
//! Go barrier: the coordinator's `slot.go` and a peer's `session.go`
//! bracket the same wire message, so their timestamp difference *is*
//! that peer's clock offset (plus one network latency, negligible
//! against the slot-second scale the timeline renders at).

use std::collections::BTreeMap;

use flashflow_obs::{Event, Json, Value};

/// The causal phases of one item-attempt, in order.
const PHASES: [&str; 5] = ["handshake", "go", "slots", "report", "ledger"];

/// Maps an event kind to its timeline phase. Kinds outside the
/// vocabulary (process lifecycle, connection plumbing) return `None`
/// and still count toward the trace's event total.
fn phase_of(kind: &str) -> Option<&'static str> {
    match kind {
        "session.prepare" | "peer.ready" => Some("handshake"),
        "slot.go" | "session.go" => Some("go"),
        "sample" | "channel.bound" => Some("slots"),
        "session.stop" | "peer.done" => Some("report"),
        "divergence" | "target.estimate" | "item.complete" => Some("ledger"),
        _ => None,
    }
}

/// First/last timestamp and event count of one phase within one source
/// file (timestamps are in that source's own clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpan {
    /// Earliest event timestamp in the phase.
    pub first: f64,
    /// Latest event timestamp in the phase.
    pub last: f64,
    /// Events folded into the phase.
    pub count: u64,
}

impl PhaseSpan {
    fn fold(&mut self, ts: f64) {
        self.first = self.first.min(ts);
        self.last = self.last.max(ts);
        self.count += 1;
    }

    fn seed(ts: f64) -> PhaseSpan {
        PhaseSpan { first: ts, last: ts, count: 1 }
    }
}

/// One source file's contribution to one trace: per-phase spans plus
/// the total event count.
#[derive(Debug, Clone, Default)]
pub struct SourceLane {
    /// Phase name → span, in this source's clock.
    pub phases: BTreeMap<&'static str, PhaseSpan>,
    /// All events from this source carrying the trace id.
    pub events: u64,
    /// True when this lane emitted a coordinator-only kind (`slot.go`,
    /// `target.estimate`, `item.complete`): its clock is the reference
    /// frame skews are estimated against.
    pub coordinator: bool,
}

/// One reconstructed item-attempt: everything every source said under
/// one trace id.
#[derive(Debug, Clone, Default)]
pub struct ItemTimeline {
    /// The coordinator-minted trace id.
    pub trace: u64,
    /// Source label → lane, in first-seen order... (BTreeMap: sorted).
    pub lanes: BTreeMap<String, SourceLane>,
    /// Relay fingerprint (hex), once a `target.estimate` named it.
    pub fp: Option<String>,
    /// Capacity estimate from the ledger row, bytes/sec.
    pub capacity: Option<f64>,
    /// Ledger cleanliness verdict.
    pub clean: Option<bool>,
    /// Per-source clock-skew estimates relative to the coordinator's
    /// clock (`peer_ts - coord_ts` at the Go barrier), for every source
    /// that is not the coordinator lane.
    pub skews: BTreeMap<String, f64>,
}

impl ItemTimeline {
    /// The union of phases present across all lanes, in causal order.
    fn phases_present(&self) -> Vec<&'static str> {
        PHASES
            .iter()
            .copied()
            .filter(|p| self.lanes.values().any(|l| l.phases.contains_key(p)))
            .collect()
    }

    /// True when every causal phase appears in at least one lane: the
    /// attempt's story is complete from handshake to ledger row.
    pub fn complete(&self) -> bool {
        self.phases_present().len() == PHASES.len()
    }

    /// Merged span of `phase` across all lanes (min first, max last) —
    /// only meaningful for rendering relative durations, since lanes
    /// tick on different clocks.
    fn merged(&self, phase: &str) -> Option<PhaseSpan> {
        let mut out: Option<PhaseSpan> = None;
        for lane in self.lanes.values() {
            if let Some(span) = lane.phases.get(phase) {
                match &mut out {
                    Some(acc) => {
                        acc.first = acc.first.min(span.first);
                        acc.last = acc.last.max(span.last);
                        acc.count += span.count;
                    }
                    None => out = Some(*span),
                }
            }
        }
        out
    }
}

/// The whole report: one timeline per trace id, plus the join's own
/// bookkeeping (events that could not participate).
#[derive(Debug, Default)]
pub struct TraceReport {
    /// Trace id → timeline (sorted, so output is deterministic).
    pub items: BTreeMap<u64, ItemTimeline>,
    /// Source labels seen, in sorted order.
    pub sources: Vec<String>,
    /// Events with no `scope.trace` (process lifecycle, pre-v6 files).
    pub untraced: u64,
    /// Lines that did not parse as events.
    pub malformed: u64,
}

impl TraceReport {
    /// Folds one source file's parsed events in under `label`.
    pub fn fold_source(&mut self, label: &str, events: &[Event]) {
        if !self.sources.iter().any(|s| s == label) {
            self.sources.push(label.to_string());
            self.sources.sort();
        }
        for ev in events {
            let Some(trace) = ev.scope.trace else {
                self.untraced += 1;
                continue;
            };
            let item = self.items.entry(trace).or_default();
            item.trace = trace;
            let lane = item.lanes.entry(label.to_string()).or_default();
            lane.events += 1;
            if let Some(phase) = phase_of(&ev.kind) {
                lane.phases
                    .entry(phase)
                    .and_modify(|s| s.fold(ev.ts))
                    .or_insert_with(|| PhaseSpan::seed(ev.ts));
            }
            if matches!(ev.kind.as_str(), "slot.go" | "target.estimate" | "item.complete") {
                lane.coordinator = true;
            }
            if ev.kind == "target.estimate" {
                item.fp = ev.field("fp").and_then(Value::as_str).map(str::to_string);
                item.capacity = ev.f64_field("capacity");
                item.clean = ev.field("clean").and_then(|v| match v {
                    Value::Bool(b) => Some(*b),
                    _ => None,
                });
            }
        }
    }

    /// Computes per-source clock-skew estimates for every timeline:
    /// `peer.session.go ts − coordinator.slot.go ts`. Call once after
    /// all sources are folded.
    pub fn estimate_skews(&mut self) {
        for item in self.items.values_mut() {
            let coord_go = item
                .lanes
                .iter()
                .find(|(_, lane)| lane.coordinator)
                .and_then(|(_, lane)| lane.phases.get("go"))
                .map(|s| s.first);
            let Some(coord_go) = coord_go else { continue };
            let mut skews = BTreeMap::new();
            for (label, lane) in &item.lanes {
                if lane.coordinator {
                    continue;
                }
                if let Some(peer_go) = lane.phases.get("go").map(|s| s.first) {
                    skews.insert(label.clone(), peer_go - coord_go);
                }
            }
            item.skews = skews;
        }
    }

    /// The one-screen text timeline: a header, then one block per
    /// item-attempt with its phase chain, per-lane event counts, and
    /// skew estimates.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let complete = self.items.values().filter(|i| i.complete()).count();
        let _ = writeln!(
            out,
            "flashflow-trace · {} item-attempt(s) · {complete} complete · sources: {}",
            self.items.len(),
            if self.sources.is_empty() { "none".to_string() } else { self.sources.join(", ") },
        );
        if self.untraced > 0 || self.malformed > 0 {
            let _ = writeln!(
                out,
                "  ({} untraced event(s) ignored, {} malformed line(s) skipped)",
                self.untraced, self.malformed,
            );
        }
        for item in self.items.values() {
            let label = item
                .fp
                .as_deref()
                .map(|fp| fp[..fp.len().min(8)].to_string())
                .unwrap_or_else(|| "?".to_string());
            let verdict = match (item.complete(), item.clean) {
                (false, _) => "INCOMPLETE",
                (true, Some(false)) => "complete, unclean",
                _ => "complete",
            };
            let cap =
                item.capacity.map(crate::fmt_rate).unwrap_or_else(|| "no estimate".to_string());
            let _ = writeln!(out, "trace {:016x} · fp {label} · {cap} · {verdict}", item.trace);
            let chain: Vec<String> = PHASES
                .iter()
                .filter_map(|p| {
                    item.merged(p).map(|s| {
                        if s.count > 1 {
                            format!("{p}×{} [{:.3}s–{:.3}s]", s.count, s.first, s.last)
                        } else {
                            format!("{p} [{:.3}s]", s.first)
                        }
                    })
                })
                .collect();
            let _ = writeln!(out, "  {}", chain.join(" → "));
            for (lane_label, lane) in &item.lanes {
                let skew = item
                    .skews
                    .get(lane_label)
                    .map(|s| format!(" · skew {:+.1}ms", s * 1000.0))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "    {lane_label}: {} event(s), {} phase(s){skew}",
                    lane.events,
                    lane.phases.len(),
                );
            }
        }
        out
    }

    /// The machine-readable export (`--json`): the same information as
    /// [`render`](TraceReport::render), one object.
    pub fn to_json(&self) -> Json {
        let items = self
            .items
            .values()
            .map(|item| {
                let lanes = item
                    .lanes
                    .iter()
                    .map(|(label, lane)| {
                        let phases = lane
                            .phases
                            .iter()
                            .map(|(p, s)| {
                                (
                                    (*p).to_string(),
                                    Json::Obj(vec![
                                        ("first".into(), Json::Num(s.first)),
                                        ("last".into(), Json::Num(s.last)),
                                        ("count".into(), Json::Int(i128::from(s.count))),
                                    ]),
                                )
                            })
                            .collect();
                        (
                            label.clone(),
                            Json::Obj(vec![
                                ("events".into(), Json::Int(i128::from(lane.events))),
                                ("phases".into(), Json::Obj(phases)),
                            ]),
                        )
                    })
                    .collect();
                let skews =
                    item.skews.iter().map(|(label, s)| (label.clone(), Json::Num(*s))).collect();
                Json::Obj(vec![
                    ("trace".into(), Json::Str(format!("{:016x}", item.trace))),
                    ("fp".into(), item.fp.clone().map(Json::Str).unwrap_or(Json::Null)),
                    (
                        "capacity_bytes_per_sec".into(),
                        item.capacity.map(Json::Num).unwrap_or(Json::Null),
                    ),
                    ("clean".into(), item.clean.map(Json::Bool).unwrap_or(Json::Null)),
                    ("complete".into(), Json::Bool(item.complete())),
                    (
                        "phases_present".into(),
                        Json::Arr(
                            item.phases_present()
                                .iter()
                                .map(|p| Json::Str((*p).to_string()))
                                .collect(),
                        ),
                    ),
                    ("lanes".into(), Json::Obj(lanes)),
                    ("skew_secs".into(), Json::Obj(skews)),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "sources".into(),
                Json::Arr(self.sources.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
            ("items".into(), Json::Arr(items)),
            ("untraced".into(), Json::Int(i128::from(self.untraced))),
            ("malformed".into(), Json::Int(i128::from(self.malformed))),
        ])
    }
}

/// Parses one JSONL file's worth of text into events, counting
/// malformed lines into `report` (a live file's tail may be mid-write).
pub fn parse_jsonl(report: &mut TraceReport, text: &str) -> Vec<Event> {
    let mut events = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match Event::parse_json_line(line) {
            Ok(ev) => events.push(ev),
            Err(_) => report.malformed += 1,
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_obs::Scope;

    fn ev(kind: &str, trace: Option<u64>, ts: f64, fields: Vec<(&str, Value)>) -> Event {
        Event {
            ts,
            kind: kind.to_string(),
            scope: Scope { trace, ..Scope::root() },
            fields: fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }

    /// A three-process story for one trace: coordinator releases Go at
    /// t=1.0 on its clock, the measurer sees it at t=0.4 on its own.
    fn three_lane_report() -> TraceReport {
        let mut report = TraceReport::default();
        report.fold_source(
            "coord",
            &[
                ev("peer.ready", Some(7), 0.5, vec![]),
                ev("slot.go", Some(7), 1.0, vec![]),
                ev("sample", Some(7), 1.5, vec![]),
                ev("peer.done", Some(7), 2.0, vec![]),
                ev(
                    "target.estimate",
                    Some(7),
                    2.1,
                    vec![
                        ("fp", Value::Str("aabbccdd00".into())),
                        ("capacity", Value::F64(1000.0)),
                        ("clean", Value::Bool(true)),
                    ],
                ),
                ev("item.complete", Some(7), 2.2, vec![]),
                ev("period.done", None, 3.0, vec![]),
            ],
        );
        report.fold_source(
            "measurer0",
            &[
                ev("session.prepare", Some(7), 0.1, vec![]),
                ev("session.go", Some(7), 0.4, vec![]),
                ev("session.stop", Some(7), 1.4, vec![]),
            ],
        );
        report.fold_source(
            "relay",
            &[
                ev("session.prepare", Some(7), 0.2, vec![]),
                ev("session.go", Some(7), 0.45, vec![]),
                ev("channel.bound", Some(7), 0.5, vec![]),
                ev("session.stop", Some(7), 1.5, vec![]),
            ],
        );
        report.estimate_skews();
        report
    }

    #[test]
    fn joins_three_sources_into_one_complete_timeline() {
        let report = three_lane_report();
        assert_eq!(report.items.len(), 1);
        assert_eq!(report.untraced, 1, "period.done has no trace");
        let item = &report.items[&7];
        assert!(item.complete(), "phases: {:?}", item.phases_present());
        assert_eq!(item.lanes.len(), 3);
        assert_eq!(item.fp.as_deref(), Some("aabbccdd00"));
        assert_eq!(item.capacity, Some(1000.0));
        assert_eq!(item.clean, Some(true));
        // Go-barrier skew: measurer clock reads 0.4 when the
        // coordinator's reads 1.0.
        assert!((item.skews["measurer0"] - (0.4 - 1.0)).abs() < 1e-9);
        assert!((item.skews["relay"] - (0.45 - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn missing_phase_marks_the_timeline_incomplete() {
        let mut report = TraceReport::default();
        report.fold_source(
            "coord",
            &[ev("peer.ready", Some(9), 0.5, vec![]), ev("slot.go", Some(9), 1.0, vec![])],
        );
        report.estimate_skews();
        let item = &report.items[&9];
        assert!(!item.complete());
        assert_eq!(item.phases_present(), vec!["handshake", "go"]);
        assert!(report.render().contains("INCOMPLETE"));
    }

    #[test]
    fn render_and_json_carry_the_same_story() {
        let report = three_lane_report();
        let text = report.render();
        assert!(text.contains("1 item-attempt(s) · 1 complete"), "{text}");
        assert!(text.contains("coord, measurer0, relay"), "{text}");
        assert!(text.contains("handshake"), "{text}");
        assert!(text.contains("skew"), "{text}");

        let json = report.to_json();
        let items = json.get("items").and_then(Json::as_arr).expect("items");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].get("complete").and_then(Json::as_bool), Some(true));
        assert_eq!(items[0].get("trace").and_then(Json::as_str), Some("0000000000000007"),);
        // The export survives a parse round-trip through the same
        // zero-dependency JSON layer.
        let reparsed = Json::parse(&json.to_string()).expect("round-trip");
        assert_eq!(reparsed.get("untraced").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn parse_jsonl_counts_malformed_lines() {
        let mut report = TraceReport::default();
        let good = ev("slot.go", Some(1), 1.0, vec![]).to_json_line();
        let text = format!("{good}\nnot json\n\n{good}\n");
        let events = parse_jsonl(&mut report, &text);
        assert_eq!(events.len(), 2);
        assert_eq!(report.malformed, 1);
    }
}
