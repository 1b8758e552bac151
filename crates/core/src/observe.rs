//! The bridge from the measurement engine's typed events to
//! `flashflow-obs` telemetry: mirrors every [`EngineEvent`] of a round
//! as a structured [`Event`] on a [`Span`], emits the post-run audit
//! trail (ledger divergence rows, per-target estimates, pool stats),
//! and builds the period's machine-readable [`PeriodExport`].
//!
//! The engine itself stays telemetry-free — it already *is* an event
//! stream — so this module is a pure translation layer: engine events
//! in, obs events out, re-keyed the way the stream's consumers
//! (`flashflow-top`, `flashflow-trace`) read it. An item of the round
//! is `scope.group` (with `scope.item` always 0), peers are numbered
//! within their item, and peer-scoped events carry the one piece of
//! context the engine does not: **roles**. In the echo topology the
//! target relay is always the last peer of its item (see
//! [`crate::echo::run_round`]), and the `role` field is what lets a
//! consumer like `flashflow-top` read the relay's echo claim without
//! double-counting the measurers' received-blast reports.

use flashflow_obs::{
    Event, Percentiles, PeriodExport, PoolSummary, Span, TargetSummary, Value, EXPORT_SCHEMA,
};

use crate::bwauth::EchoPeriodFile;
use crate::echo::{EchoDeployment, EchoItem};
use crate::engine::{EngineEvent, PeerId};
use crate::pool::PoolStats;

/// Builds a `fields` vector tersely (local shorthand; the values go
/// through [`Value::from`]).
macro_rules! fields {
    ($($key:ident = $value:expr),* $(,)?) => {
        vec![$((stringify!($key).to_string(), Value::from($value))),*]
    };
}

/// The telemetry context of one round: where its events go and how the
/// engine's dense [`PeerId`]s map onto the stream's coordinates.
pub struct RoundSpans {
    /// The period span (`period.start`, `pool.stats`, `period.done`).
    period: Span,
    /// One span per item: the period span narrowed to the item's group
    /// index and stamped with its trace id, so the coordinator's stream
    /// joins the peers' on the same key.
    items: Vec<Span>,
    /// Conversations per item: its k measurers, then the target relay.
    peers_per_item: usize,
}

impl RoundSpans {
    /// The context for running `items` against `deployment` under the
    /// period span `span`; emits `period.start`.
    pub fn start(span: &Span, deployment: &EchoDeployment, items: &[EchoItem]) -> RoundSpans {
        span.emit("period.start", fields![items = items.len()]);
        RoundSpans {
            period: span.clone(),
            items: items
                .iter()
                .enumerate()
                .map(|(g, item)| span.group(g as u64).trace(item.trace_id))
                .collect(),
            peers_per_item: deployment.measurers.len() + 1,
        }
    }

    /// The span, number within its item, and role of engine peer
    /// `peer`: every item's conversations are registered together, the
    /// target relay last (see [`crate::echo::run_round`]).
    fn peer(&self, peer: PeerId) -> (&Span, usize, &'static str) {
        let (group, local) =
            (peer.index() / self.peers_per_item, peer.index() % self.peers_per_item);
        let role = if local + 1 == self.peers_per_item { "target" } else { "measurer" };
        (&self.items[group], local, role)
    }

    /// Mirrors one engine event of the round onto its item's span.
    pub fn engine_event(&self, event: &EngineEvent) {
        match *event {
            EngineEvent::PeerReady { peer } => {
                let (span, peer, role) = self.peer(peer);
                span.emit("peer.ready", fields![peer = peer, role = role]);
            }
            EngineEvent::GoReleased { item, at } => {
                self.items[item].item(0).emit("slot.go", fields![at_secs = at.as_secs_f64()])
            }
            EngineEvent::Sample { peer, second, bg_bytes, measured_bytes, .. } => {
                let (span, peer, role) = self.peer(peer);
                span.item(0).emit(
                    "sample",
                    fields![
                        peer = peer,
                        role = role,
                        second = second,
                        bg = bg_bytes,
                        measured = measured_bytes,
                    ],
                );
            }
            EngineEvent::PeerDone { peer } => {
                let (span, peer, role) = self.peer(peer);
                span.emit("peer.done", fields![peer = peer, role = role]);
            }
            EngineEvent::PeerFailed { peer, reason } => {
                let (span, peer, role) = self.peer(peer);
                span.emit(
                    "peer.failed",
                    fields![peer = peer, role = role, reason = format!("{reason:?}")],
                );
            }
            EngineEvent::ItemComplete { item } => self.items[item].item(0).event("item.complete"),
        }
    }

    /// Emits the post-run audit trail of the round: per item, one
    /// `divergence` event per flagged ledger row and its
    /// `target.estimate`; then the `pool.stats` snapshot and
    /// `period.done`.
    pub fn audit(&self, items: &[EchoItem], file: &EchoPeriodFile) {
        for (group, (item, entry)) in items.iter().zip(&file.entries).enumerate() {
            for row in file.ledger.rows(&file.peers, group).iter().filter(|row| row.divergent) {
                self.items[group].item(0).emit(
                    "divergence",
                    fields![
                        peer = self.peer(row.peer).1,
                        second = row.second,
                        reported = row.reported,
                        bg = row.bg,
                        counted = row.counted.unwrap_or(0),
                    ],
                );
            }
            self.items[group].emit(
                "target.estimate",
                fields![
                    fp = hex_fp(&item.relay_fp),
                    capacity = entry.capacity.bytes_per_sec(),
                    clean = entry.clean,
                    divergent_rows = entry.divergent_rows,
                ],
            );
        }
        emit_pool_stats(&self.period, &file.pool);
        self.period.emit(
            "period.done",
            fields![items = file.entries.len(), clean = file.peers.all_clean()],
        );
    }
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
            let (x, y) = file.ledger.merged_series(&file.peers, group);
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
        targets,
        pool: Some(PoolSummary {
            dials: file.pool.dials,
            reuses: file.pool.reuses,
            discarded: file.pool.discarded,
            probes: file.pool.probes,
            idle: file.pool.idle,
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
        // Four items of three peers each; engine peer 11 is the last
        // (target) peer of item 3, engine peer 9 its first measurer.
        let items: Vec<EchoItem> = (0..4)
            .map(|g| EchoItem {
                relay_fp: [0; flashflow_proto::msg::FINGERPRINT_LEN],
                slot_secs: 5,
                bg_allowance: 0,
                measurement_secret: 0,
                attempt: 0,
                resume: false,
                trace_id: 0x70 + g,
            })
            .collect();
        let measurer = crate::echo::EchoMeasurer {
            addr: "127.0.0.1:1".parse().expect("literal address"),
            token: [0; flashflow_proto::msg::AUTH_TOKEN_LEN],
            rate_cap: 0,
            sockets: 1,
        };
        let deployment = EchoDeployment {
            measurers: vec![measurer; 2],
            relay: flashflow_proto::msg::TargetEndpoint::NONE,
            relay_token: [0; flashflow_proto::msg::AUTH_TOKEN_LEN],
            speedup: 1.0,
            ratio: 0.25,
        };
        let round = RoundSpans::start(&Span::root(sink.clone()).period(0), &deployment, &items);
        let peer = PeerId::from_index(11);
        round.engine_event(&EngineEvent::Sample {
            peer,
            item: 3,
            second: 4,
            bg_bytes: 100,
            measured_bytes: 5000,
        });
        round.engine_event(&EngineEvent::GoReleased { item: 3, at: SimTime::from_secs_f64(1.5) });
        round.engine_event(&EngineEvent::PeerDone { peer: PeerId::from_index(9) });
        let ring = sink.ring();
        assert_eq!(ring.len(), 4);
        assert_eq!((ring[0].kind.as_str(), ring[0].u64_field("items")), ("period.start", Some(4)));
        let ring = &ring[1..];
        assert_eq!(ring[0].kind, "sample");
        assert_eq!(ring[0].scope.group, Some(3));
        assert_eq!(ring[0].scope.item, Some(0));
        assert_eq!(ring[0].scope.trace, Some(0x73));
        assert_eq!(ring[0].u64_field("peer"), Some(2));
        assert_eq!(ring[0].field("role").and_then(Value::as_str), Some("target"));
        assert_eq!(ring[0].u64_field("measured"), Some(5000));
        assert_eq!(ring[1].kind, "slot.go");
        assert_eq!(ring[1].scope.group, Some(3));
        assert_eq!(ring[1].f64_field("at_secs"), Some(1.5));
        assert_eq!(ring[2].kind, "peer.done");
        assert_eq!(ring[2].scope.group, Some(3));
        assert_eq!(ring[2].scope.item, None);
        assert_eq!(ring[2].u64_field("peer"), Some(0));
        assert_eq!(ring[2].field("role").and_then(Value::as_str), Some("measurer"));
    }

    #[test]
    fn hex_fp_is_lowercase_hex() {
        assert_eq!(hex_fp(&[0xAB, 0x01]), "ab01");
    }
}
