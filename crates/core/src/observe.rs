//! The bridge from the measurement engine's typed events to
//! `flashflow-obs` telemetry: wraps [`GroupRunner`]s so every
//! [`EngineEvent`] is mirrored as a structured [`Event`]
//! on a [`Span`], emits the post-run audit trail (ledger divergence
//! rows, per-target estimates, pool stats), and builds the period's
//! machine-readable [`PeriodExport`].
//!
//! The engine itself stays telemetry-free — it already *is* an event
//! stream — so this module is a pure translation layer: engine events
//! in, obs events out, with the one piece of context the engine does
//! not carry: **peer roles**. In the echo topology the target relay is
//! always the last peer of its group (see [`crate::echo::echo_group`]),
//! and the `role` field on peer-scoped events is what lets a consumer
//! like `flashflow-top` read the relay's echo claim without
//! double-counting the measurers' received-blast reports.

use flashflow_obs::{
    Event, Percentiles, PeriodExport, PoolSummary, Span, TargetSummary, Value, EXPORT_SCHEMA,
};

use crate::bwauth::EchoPeriodFile;
use crate::echo::{EchoDeployment, EchoItem};
use crate::engine::EngineEvent;
use crate::pool::PoolStats;
use crate::shard::GroupRunner;

/// Builds a `fields` vector tersely (local shorthand; the values go
/// through [`Value::from`]).
macro_rules! fields {
    ($($key:ident = $value:expr),* $(,)?) => {
        vec![$((stringify!($key).to_string(), Value::from($value))),*]
    };
}

/// The `role` field value for a peer index, given that peers
/// `0..target_peer` are measurers and `target_peer` is the relay
/// (`None` when the group has no target — every peer is a measurer).
fn role_of(peer: usize, target_peer: Option<usize>) -> &'static str {
    if target_peer == Some(peer) {
        "target"
    } else {
        "measurer"
    }
}

/// Mirrors one engine event onto `span` (already scoped to the group).
pub fn emit_engine_event(span: &Span, target_peer: Option<usize>, event: &EngineEvent) {
    match *event {
        EngineEvent::PeerReady { peer } => span.emit(
            "peer.ready",
            fields![peer = peer.index(), role = role_of(peer.index(), target_peer)],
        ),
        EngineEvent::GoReleased { item, at } => {
            span.item(item as u64).emit("slot.go", fields![at_secs = at.as_secs_f64()])
        }
        EngineEvent::Sample { peer, item, second, bg_bytes, measured_bytes } => {
            span.item(item as u64).emit(
                "sample",
                fields![
                    peer = peer.index(),
                    role = role_of(peer.index(), target_peer),
                    second = second,
                    bg = bg_bytes,
                    measured = measured_bytes,
                ],
            );
        }
        EngineEvent::PeerDone { peer } => span.emit(
            "peer.done",
            fields![peer = peer.index(), role = role_of(peer.index(), target_peer)],
        ),
        EngineEvent::PeerFailed { peer, reason } => span.emit(
            "peer.failed",
            fields![
                peer = peer.index(),
                role = role_of(peer.index(), target_peer),
                reason = format!("{reason:?}"),
            ],
        ),
        EngineEvent::ItemComplete { item } => {
            span.item(item as u64).event("item.complete");
        }
    }
}

struct ObservedGroup {
    inner: Box<dyn GroupRunner>,
    span: Span,
    target_peer: Option<usize>,
}

impl GroupRunner for ObservedGroup {
    fn run(self: Box<Self>, emit: &mut dyn FnMut(EngineEvent)) -> crate::engine::EngineSnapshot {
        let span = self.span;
        let target_peer = self.target_peer;
        self.inner.run(&mut |event| {
            emit_engine_event(&span, target_peer, &event);
            emit(event);
        })
    }

    fn estimated_cost(&self) -> u64 {
        self.inner.estimated_cost()
    }
}

/// Wraps `runner` so every engine event is mirrored onto `span` before
/// reaching the shard fan-in. `target_peer` names the peer index whose
/// reports are the target relay's own claims (see [`emit_engine_event`]).
pub fn observed(
    runner: Box<dyn GroupRunner>,
    span: Span,
    target_peer: Option<usize>,
) -> Box<dyn GroupRunner> {
    Box::new(ObservedGroup { inner: runner, span, target_peer })
}

/// Emits the post-run audit trail of an echo period onto `span`: one
/// `divergence` event per flagged ledger row, one `target.estimate`
/// per entry, the `pool.stats` snapshot, and `period.done`.
pub fn emit_period_audit(span: &Span, items: &[EchoItem], file: &EchoPeriodFile) {
    for (group, (item, entry)) in items.iter().zip(&file.entries).enumerate() {
        let group_span = span.group(group as u64).trace(item.trace_id);
        for row in file.run.rows(group, 0) {
            if row.divergent {
                group_span.item(0).emit(
                    "divergence",
                    fields![
                        peer = row.peer.index(),
                        second = row.second,
                        reported = row.reported,
                        bg = row.bg,
                        counted = row.counted.unwrap_or(0),
                    ],
                );
            }
        }
        group_span.emit(
            "target.estimate",
            fields![
                fp = hex_fp(&item.relay_fp),
                capacity = entry.capacity.bytes_per_sec(),
                clean = entry.clean,
                divergent_rows = entry.divergent_rows,
            ],
        );
    }
    if let Some(pool) = file.run.pool {
        emit_pool_stats(span, &pool);
    }
    span.emit("period.done", fields![items = file.entries.len(), clean = file.run.all_clean()]);
}

/// Emits one `pool.stats` event carrying a [`PoolStats`] snapshot.
pub fn emit_pool_stats(span: &Span, stats: &PoolStats) {
    span.emit(
        "pool.stats",
        fields![
            dials = stats.dials,
            reuses = stats.reuses,
            discarded = stats.discarded,
            probes = stats.probes,
            idle = stats.idle,
        ],
    );
}

/// Builds the machine-readable [`PeriodExport`] of an echo period: one
/// [`TargetSummary`] per item with percentile summaries of the
/// per-second echo (`x_j`), background (`y_j`), and combined (`z_j`)
/// series — the same series the capacity estimate was computed from.
pub fn period_export(
    deployment: &EchoDeployment,
    items: &[EchoItem],
    file: &EchoPeriodFile,
) -> PeriodExport {
    let targets = items
        .iter()
        .zip(&file.entries)
        .enumerate()
        .map(|(group, (item, entry))| {
            let (x, y) = file.run.merged_series(group, 0);
            let z: Vec<f64> = crate::measure::build_second_samples(&x, &y, deployment.ratio)
                .iter()
                .map(|s| s.z)
                .collect();
            TargetSummary {
                relay_fp: hex_fp(&item.relay_fp),
                capacity_bytes_per_sec: entry.capacity.bytes_per_sec(),
                clean: entry.clean,
                divergent_rows: entry.divergent_rows as u64,
                seconds: x.len() as u64,
                echo: Percentiles::of(&x),
                bg: Percentiles::of(&y),
                combined: Percentiles::of(&z),
            }
        })
        .collect();
    PeriodExport {
        schema: EXPORT_SCHEMA,
        ratio: deployment.ratio,
        shards: file.run.shards as u64,
        targets,
        pool: file.run.pool.map(|p| PoolSummary {
            dials: p.dials,
            reuses: p.reuses,
            discarded: p.discarded,
            probes: p.probes,
            idle: p.idle,
        }),
        // The coordinator has no reactor of its own; harnesses that
        // fetch peer metrics snapshots fill this block via
        // `ReactorSummary::from_snapshot`.
        reactor: None,
    }
}

/// Lowercase-hex rendering of a wire fingerprint.
pub fn hex_fp(fp: &[u8]) -> String {
    fp.iter().map(|b| format!("{b:02x}")).collect()
}

/// Replays a slice of obs [`Event`]s (a sink ring or parsed JSONL) —
/// convenience for tests that assert on emitted streams.
pub fn count_kind(events: &[Event], kind: &str) -> usize {
    events.iter().filter(|e| e.kind == kind).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_obs::EventSink;
    use flashflow_simnet::time::SimTime;

    #[test]
    fn engine_events_map_to_obs_kinds_with_roles() {
        let sink = EventSink::new();
        let span = Span::root(sink.clone()).period(0).group(3);
        let peer = crate::engine::PeerId::from_index(2);
        emit_engine_event(
            &span,
            Some(2),
            &EngineEvent::Sample { peer, item: 0, second: 4, bg_bytes: 100, measured_bytes: 5000 },
        );
        emit_engine_event(
            &span,
            Some(2),
            &EngineEvent::GoReleased { item: 0, at: SimTime::from_secs_f64(1.5) },
        );
        let ring = sink.ring();
        assert_eq!(ring.len(), 2);
        assert_eq!(ring[0].kind, "sample");
        assert_eq!(ring[0].scope.group, Some(3));
        assert_eq!(ring[0].scope.item, Some(0));
        assert_eq!(ring[0].field("role").and_then(Value::as_str), Some("target"));
        assert_eq!(ring[0].u64_field("measured"), Some(5000));
        assert_eq!(ring[1].kind, "slot.go");
        assert_eq!(ring[1].f64_field("at_secs"), Some(1.5));
    }

    #[test]
    fn hex_fp_is_lowercase_hex() {
        assert_eq!(hex_fp(&[0xAB, 0x01]), "ab01");
    }
}
