//! State and rendering for `flashflow-top`: folds the structured event
//! stream (live ring, JSONL file, or replay) into one screen of
//! per-target sparklines, period progress, and pool stats, drawn with
//! raw ANSI only (no curses dependency — the build environment is
//! offline, and a status screen needs nothing more than clear + home).
//!
//! The event vocabulary consumed here is the one `flashflow-core`'s
//! observe bridge emits (`period.start`, `sample`,
//! `divergence`, `item.complete`, `pool.stats`, `target.estimate`,
//! `period.done`); unknown kinds are ignored, so process-level events
//! from the measurer/relay binaries can share the same file.

pub mod trace;

use std::collections::BTreeMap;

use flashflow_obs::{fmt_rate, Event};

/// The eight-level block glyphs a sparkline is drawn with.
const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `values` as a unicode sparkline of at most `width` cells
/// (keeping the most recent values), scaled against the slice maximum.
pub fn sparkline(values: &[f64], width: usize) -> String {
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let tail = &values[values.len().saturating_sub(width)..];
    let max = tail.iter().cloned().fold(0.0f64, f64::max);
    tail.iter()
        .map(|&v| {
            if max <= 0.0 {
                BLOCKS[0]
            } else {
                let level = ((v / max) * 7.0).round().clamp(0.0, 7.0) as usize;
                BLOCKS[level]
            }
        })
        .collect()
}

/// What a [`TargetView`] is keyed by: the item-attempt's trace id, or,
/// for an event that carries none, its group (the item's index within
/// its round). Groups repeat from round to round, so only the trace
/// keeps two rounds' items apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViewKey {
    /// The item-attempt's trace id.
    Trace(u64),
    /// The item's index within its round.
    Group(u64),
}

impl ViewKey {
    /// The key an event's view is filed under.
    pub fn of(ev: &Event) -> ViewKey {
        match ev.scope.trace {
            Some(trace) => ViewKey::Trace(trace),
            None => ViewKey::Group(ev.scope.group.unwrap_or(0)),
        }
    }
}

/// One target's accumulated view, keyed by [`ViewKey`].
#[derive(Debug, Default, Clone)]
pub struct TargetView {
    /// Relay fingerprint (hex), once a `sample` or `target.estimate`
    /// named it.
    pub fp: Option<String>,
    /// Per-second echoed measurement bytes (`x_j`), indexed by second.
    pub echo: Vec<f64>,
    /// Per-second reported background bytes (`y_j`).
    pub bg: Vec<f64>,
    /// Seconds flagged divergent by the ledger cross-check.
    pub divergent: Vec<u64>,
    /// Capacity estimate in bytes/sec, once exported.
    pub capacity: Option<f64>,
    /// True once the item completed.
    pub complete: bool,
    /// True if the item's estimate was marked clean.
    pub clean: Option<bool>,
}

impl TargetView {
    fn second_slot(series: &mut Vec<f64>, second: u64) -> &mut f64 {
        let ix = second as usize;
        if series.len() <= ix {
            series.resize(ix + 1, 0.0);
        }
        &mut series[ix]
    }
}

/// Aggregated pool counters from the latest `pool.stats` event.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolView {
    /// Fresh dials / warm reuses / discards / keepalive probes / idle depth.
    pub dials: u64,
    /// Checkouts satisfied warm.
    pub reuses: u64,
    /// Idle connections discarded.
    pub discarded: u64,
    /// Keepalive probes sent.
    pub probes: u64,
    /// Idle connections parked.
    pub idle: u64,
    /// True once any `pool.stats` event arrived.
    pub seen: bool,
}

/// The dashboard's whole state: fold events in with
/// [`apply`](TopState::apply), draw with [`render`](TopState::render).
#[derive(Debug, Default)]
pub struct TopState {
    /// Per-item target views.
    pub targets: BTreeMap<ViewKey, TargetView>,
    /// Items the period announced.
    pub items_total: Option<u64>,
    /// Items completed so far.
    pub items_done: u64,
    /// Peers that authenticated and armed.
    pub peers_ready: u64,
    /// Peers that finished cleanly.
    pub peers_done: u64,
    /// Peers whose sessions died.
    pub peers_failed: u64,
    /// Latest pool counters.
    pub pool: PoolView,
    /// True once `period.done` arrived.
    pub period_done: bool,
    /// Timestamp of the newest event folded in.
    pub last_ts: f64,
    /// Events folded in so far.
    pub events_seen: u64,
}

impl TopState {
    /// An empty dashboard.
    pub fn new() -> TopState {
        TopState::default()
    }

    /// Folds one event into the view. Unknown kinds count but change
    /// nothing.
    pub fn apply(&mut self, ev: &Event) {
        self.events_seen += 1;
        self.last_ts = self.last_ts.max(ev.ts);
        let key = ViewKey::of(ev);
        match ev.kind.as_str() {
            "period.start" => self.items_total = ev.u64_field("items"),
            // Only the target's own report carries the echo claim;
            // measurer samples describe received blast and would
            // double-count the same bytes.
            "sample" if ev.field("role").and_then(|v| v.as_str()) == Some("target") => {
                let view = self.targets.entry(key).or_default();
                if let Some(second) = ev.u64_field("second") {
                    *TargetView::second_slot(&mut view.echo, second) +=
                        ev.u64_field("measured").unwrap_or(0) as f64;
                    *TargetView::second_slot(&mut view.bg, second) +=
                        ev.u64_field("bg").unwrap_or(0) as f64;
                }
            }
            "divergence" => {
                if let Some(second) = ev.u64_field("second") {
                    let view = self.targets.entry(key).or_default();
                    if !view.divergent.contains(&second) {
                        view.divergent.push(second);
                    }
                }
            }
            "peer.ready" => self.peers_ready += 1,
            "peer.done" => self.peers_done += 1,
            "peer.failed" => self.peers_failed += 1,
            "item.complete" => {
                self.items_done += 1;
                self.targets.entry(key).or_default().complete = true;
            }
            "target.estimate" => {
                let view = self.targets.entry(key).or_default();
                view.fp = ev.field("fp").and_then(|v| v.as_str()).map(str::to_string);
                view.capacity = ev.f64_field("capacity");
                view.clean = ev.field("clean").and_then(|v| match v {
                    flashflow_obs::Value::Bool(b) => Some(*b),
                    _ => None,
                });
            }
            "pool.stats" => {
                self.pool = PoolView {
                    dials: ev.u64_field("dials").unwrap_or(0),
                    reuses: ev.u64_field("reuses").unwrap_or(0),
                    discarded: ev.u64_field("discarded").unwrap_or(0),
                    probes: ev.u64_field("probes").unwrap_or(0),
                    idle: ev.u64_field("idle").unwrap_or(0),
                    seen: true,
                };
            }
            "period.done" => self.period_done = true,
            _ => {}
        }
    }

    /// Draws the dashboard body (no cursor control), `width` columns
    /// wide. Sparklines show the most recent seconds that fit.
    pub fn render(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let spark_width = width.saturating_sub(46).clamp(10, 60);
        let progress = match self.items_total {
            Some(total) => format!("{}/{total}", self.items_done),
            None => format!("{}", self.items_done),
        };
        let _ = writeln!(
            out,
            "flashflow-top · t={:8.2}s · items {progress} · peers {}↑ {}✓ {}✗ · {} events{}",
            self.last_ts,
            self.peers_ready,
            self.peers_done,
            self.peers_failed,
            self.events_seen,
            if self.period_done { " · period done" } else { "" },
        );
        for (key, view) in &self.targets {
            let label = match (view.fp.as_deref(), key) {
                (Some(fp), _) => fp[..fp.len().min(8)].to_string(),
                (None, ViewKey::Trace(trace)) => format!("{trace:08x}"),
                (None, ViewKey::Group(group)) => format!("group {group}"),
            };
            let cap = view.capacity.map(fmt_rate).unwrap_or_else(|| {
                if view.complete {
                    "…".into()
                } else {
                    "live".into()
                }
            });
            let flags = match (view.divergent.is_empty(), view.clean) {
                (false, _) => format!(" !div×{}", view.divergent.len()),
                (true, Some(false)) => " !unclean".to_string(),
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "  {label:<10} echo {} {:>10}{flags}",
                sparkline(&view.echo, spark_width),
                cap,
            );
            let _ = writeln!(
                out,
                "  {:<10} bg   {} {:>10}",
                "",
                sparkline(&view.bg, spark_width),
                view.bg.last().map(|&b| fmt_rate(b)).unwrap_or_else(|| "-".to_string()),
            );
        }
        if self.pool.seen {
            let _ = writeln!(
                out,
                "  pool: {} dials · {} reuses · {} discarded · {} probes · {} idle",
                self.pool.dials,
                self.pool.reuses,
                self.pool.discarded,
                self.pool.probes,
                self.pool.idle,
            );
        }
        out
    }

    /// The full ANSI frame: clear screen, home cursor, body.
    pub fn render_ansi(&self, width: usize) -> String {
        format!("\x1b[2J\x1b[H{}", self.render(width))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_obs::{Scope, Value};

    fn ev(kind: &str, group: Option<u64>, fields: Vec<(&str, Value)>) -> Event {
        Event {
            ts: 1.0,
            kind: kind.to_string(),
            scope: Scope { group, ..Scope::root() },
            fields: fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }

    #[test]
    fn sparkline_scales_and_truncates() {
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[0.0, 0.0], 10), "▁▁");
        let s = sparkline(&[1.0, 4.0, 8.0], 10);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[1.0, 2.0, 3.0, 4.0], 2).chars().count(), 2, "keeps the tail");
    }

    #[test]
    fn state_folds_samples_divergence_and_progress() {
        let mut state = TopState::new();
        state.apply(&ev("period.start", None, vec![("items", Value::U64(2))]));
        for second in 0..5u64 {
            state.apply(&ev(
                "sample",
                Some(0),
                vec![
                    ("role", Value::Str("target".into())),
                    ("second", Value::U64(second)),
                    ("measured", Value::U64(1000 * (second + 1))),
                    ("bg", Value::U64(40)),
                ],
            ));
        }
        // A measurer sample must not pollute the target's series.
        state.apply(&ev(
            "sample",
            Some(0),
            vec![
                ("role", Value::Str("measurer".into())),
                ("second", Value::U64(0)),
                ("measured", Value::U64(999_999)),
            ],
        ));
        state.apply(&ev("divergence", Some(0), vec![("second", Value::U64(3))]));
        state.apply(&ev("item.complete", Some(0), vec![]));
        state.apply(&ev(
            "pool.stats",
            None,
            vec![("dials", Value::U64(4)), ("reuses", Value::U64(9))],
        ));

        let view = &state.targets[&ViewKey::Group(0)];
        assert_eq!(view.echo.len(), 5);
        assert_eq!(view.echo[0], 1000.0);
        assert_eq!(view.divergent, vec![3]);
        assert!(view.complete);
        assert_eq!(state.items_done, 1);
        assert!(state.pool.seen);

        let body = state.render(100);
        assert!(body.contains("items 1/2"), "{body}");
        assert!(body.contains("!div×1"), "{body}");
        assert!(body.contains('█'), "sparkline rendered: {body}");
        assert!(body.contains("pool: 4 dials"), "{body}");
        let frame = state.render_ansi(100);
        assert!(frame.starts_with("\x1b[2J\x1b[H"));
    }

    #[test]
    fn interleaved_rounds_keep_one_view_per_trace() {
        // Item 0 of two rounds: the same group, different traces, their
        // events interleaved the way two rounds in flight emit them.
        let traced = |kind: &str, trace: u64, fields: Vec<(&str, Value)>| {
            let mut event = ev(kind, Some(0), fields);
            event.scope.trace = Some(trace);
            event
        };
        let sample = |trace: u64, second: u64, measured: u64| {
            traced(
                "sample",
                trace,
                vec![
                    ("role", Value::Str("target".into())),
                    ("second", Value::U64(second)),
                    ("measured", Value::U64(measured)),
                    ("bg", Value::U64(0)),
                ],
            )
        };
        let estimate = |trace: u64, fp: &str, capacity: f64| {
            traced(
                "target.estimate",
                trace,
                vec![("fp", Value::Str(fp.into())), ("capacity", Value::F64(capacity))],
            )
        };
        let mut state = TopState::new();
        for event in [
            sample(0xA, 0, 100),
            sample(0xA, 1, 100),
            sample(0xB, 0, 7),
            estimate(0xA, "aaaaaaaa", 100.0),
            sample(0xB, 1, 7),
            sample(0xB, 2, 7),
            estimate(0xB, "bbbbbbbb", 7.0),
        ] {
            state.apply(&event);
        }
        assert_eq!(state.targets.len(), 2, "{:?}", state.targets);
        let a = &state.targets[&ViewKey::Trace(0xA)];
        let b = &state.targets[&ViewKey::Trace(0xB)];
        assert_eq!(a.echo, vec![100.0, 100.0], "only its own seconds");
        assert_eq!(b.echo, vec![7.0, 7.0, 7.0], "only its own seconds");
        assert_eq!((a.fp.as_deref(), a.capacity), (Some("aaaaaaaa"), Some(100.0)));
        assert_eq!((b.fp.as_deref(), b.capacity), (Some("bbbbbbbb"), Some(7.0)));
    }
}
