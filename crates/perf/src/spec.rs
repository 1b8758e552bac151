//! What the benchmark measures: the four workloads, the end-to-end
//! metrics with their regression bounds, and the per-layer metric
//! names. `BENCHMARK.json` at the repository root declares the same
//! sets; `tests/declared_names.rs` keeps the two from drifting.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput, accuracy).
    Higher,
    /// Smaller is better (time, CPU, overhead).
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How much worse `compare` lets a metric get before it calls the
/// change a regression: the larger of a share of the base median and an
/// absolute amount in the metric's unit. These are the issue's bounds,
/// one per metric; `compare` is free to use them because, unlike the
/// driver, it does not hold one bound against every workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allow {
    /// Share of the base median.
    pub share: f64,
    /// Absolute amount, in the metric's unit.
    pub abs: f64,
}

impl Allow {
    /// Nothing: any move for the worse is a regression.
    pub const NONE: Allow = Allow { share: 0.0, abs: 0.0 };

    const fn share(share: f64) -> Allow {
        Allow { share, abs: 0.0 }
    }

    /// The allowance against a base median of `base`.
    pub fn amount(&self, base: f64) -> f64 {
        (self.share * base.abs()).max(self.abs)
    }
}

impl std::fmt::Display for Allow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.share > 0.0, self.abs > 0.0) {
            (true, true) => write!(f, "{}%|{}", self.share * 100.0, self.abs),
            (true, false) => write!(f, "{}%", self.share * 100.0),
            (false, _) => write!(f, "{}", self.abs),
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The driver's bound, as `BENCHMARK.json` states it: the share of
    /// the parent's median the metric may worsen by ([`END_TO_END`]
    /// only; every other metric carries `0.0` and the driver does not
    /// gate it).
    pub bound: f64,
    /// `compare`'s bound (end-to-end metrics only).
    pub allow: Allow,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    allow: Allow,
) -> Metric {
    Metric { name, unit, better, bound, allow }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: 0.0, allow: Allow::NONE }
}

/// Items that failed (missing from `period.json`, not `clean`, or not
/// measured exactly once) over items attempted. Always reported by
/// `run`, gated absolutely by `compare` (any rise is a regression), and
/// carried to the driver as the `failed`/`attempted` pair — it is not
/// in [`END_TO_END`] because the driver refuses a metric that reads 0.
pub const FAILED_SHARE: Metric = e2e("failed_share", "ratio", Better::Lower, 0.0, Allow::NONE);

/// The end-to-end metrics the benchmark driver gates. The driver wants
/// every one of them from every workload and holds each to one bound,
/// so this set is what is defined on all four workloads, and each
/// driver bound is what the noisiest workload can resolve on a shared
/// two-core sandbox whose effective clock wanders by a fifth within a
/// minute (see `README.md`, "How steady the numbers are"). `compare`
/// holds each to the issue's own, tighter bound.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25, Allow { share: 0.25, abs: 0.05 }),
    e2e("echo_goodput_MBps", "MB/s", Better::Higher, 0.25, Allow::share(0.08)),
    e2e("relay_cpu_s_per_GB", "s/GB", Better::Lower, 0.25, Allow::share(0.10)),
    e2e("measurer_cpu_s_per_GB", "s/GB", Better::Lower, 0.25, Allow::share(0.10)),
    e2e("period_wall_s", "s", Better::Lower, 0.25, Allow::share(0.05)),
];

/// End-to-end metrics that only some workloads give a meaning
/// ([`Workload::defines`]): `run` reports them there and `compare`
/// gates them; the driver sees them un-gated, among the per-layer
/// metrics of the traced run.
pub const WHERE_DEFINED: [Metric; 2] = [
    // One point of accuracy.
    e2e("estimate_accuracy_pct", "%", Better::Higher, 0.0, Allow { share: 0.0, abs: 1.0 }),
    e2e("period_overhead_ms_per_round", "ms", Better::Lower, 0.0, Allow::share(0.10)),
];

/// In-process ladder rungs, bottom (cheapest layer) to top. The
/// throughput rungs (`*_MBps`) are also printed with their ratio to the
/// throughput rung below.
pub const LADDER: [Metric; 29] = [
    layer("proto.blast.fill_MBps", "MB/s", Better::Higher),
    layer("proto.blast.tag_ns_per_frame", "ns", Better::Lower),
    layer("proto.blast.parser_MBps", "MB/s", Better::Higher),
    layer("proto.blast.parser_mss_MBps", "MB/s", Better::Higher),
    layer("proto.blast.source_MBps", "MB/s", Better::Higher),
    layer("proto.blast.echoer_MBps", "MB/s", Better::Higher),
    layer("proto.tcp.raw_loopback_MBps", "MB/s", Better::Higher),
    layer("proto.tcp.transport_MBps", "MB/s", Better::Higher),
    layer("procutil.reactor.shard1_MBps", "MB/s", Better::Higher),
    layer("procutil.reactor.shard1_fanout_MBps", "MB/s", Better::Higher),
    layer("procutil.reactor.shard2_MBps", "MB/s", Better::Higher),
    layer("procutil.reactor.accept_conns_per_s", "1/s", Better::Higher),
    layer("proto.frame.codec_msgs_per_s", "1/s", Better::Higher),
    layer("proto.session.conversation_us", "us", Better::Lower),
    layer("procutil.persist.append_line_us_p50", "us", Better::Lower),
    layer("procutil.persist.append_line_us_p99", "us", Better::Lower),
    layer("procutil.persist.atomic_write_us_p50", "us", Better::Lower),
    layer("coord.journal.append_us_p50", "us", Better::Lower),
    layer("coord.journal.recover_ms_1000", "ms", Better::Lower),
    layer("coord.scheduler.plan_rounds_us_1000", "us", Better::Lower),
    layer("coord.scheduler.plan_rounds_us_6500", "us", Better::Lower),
    layer("coord.roster.build_ms_1000", "ms", Better::Lower),
    layer("tornet.consensus.vote_ms_1000", "ms", Better::Lower),
    layer("core.pool.checkout_cold_us", "us", Better::Lower),
    layer("core.pool.checkout_warm_us", "us", Better::Lower),
    layer("tornet.crypto.relay_layer_MBps", "MB/s", Better::Higher),
    layer("tornet.cell.codec_cells_per_s", "1/s", Better::Higher),
    layer("obs.counter_add_ns", "ns", Better::Lower),
    layer("obs.event_emit_us", "us", Better::Lower),
];

/// Per-process layer metrics taken from a peer's `--metrics-addr`
/// snapshot and `/proc` samples; emitted once with the `relay.` prefix
/// and once with `measurer.` (summed or maxed over measurers).
pub const PEER: [Metric; 12] = [
    layer("reactor.dispatch_us_p50", "us", Better::Lower),
    layer("reactor.dispatch_us_p99", "us", Better::Lower),
    layer("reactor.epoll_dwell_us_p50", "us", Better::Lower),
    layer("reactor.tick_jitter_us_p99", "us", Better::Lower),
    layer("reactor.write_backlog_max", "count", Better::Lower),
    layer("reactor.stalls", "count", Better::Lower),
    layer("cpu_busy_share", "ratio", Better::Lower),
    layer("user_s_per_GB", "s/GB", Better::Lower),
    layer("sys_s_per_GB", "s/GB", Better::Lower),
    layer("ctx_switches_per_MB", "1/MB", Better::Lower),
    layer("peak_rss_MB", "MB", Better::Lower),
    layer("threads", "count", Better::Lower),
];

/// Per-item spans joined from the three processes' `--log-json` files,
/// each emitted as `<name>_p50` and `<name>_p95` over items.
pub const ENGINE_SPANS: [&str; 6] = [
    "core.engine.handshake_ms",
    "core.engine.go_skew_ms",
    "core.engine.slots_ms",
    "core.engine.report_lag_ms",
    "core.engine.ledger_ms",
    "core.engine.inter_round_idle_ms",
];

/// Layer metrics with no family above.
pub const SINGLES: [Metric; 7] = [
    layer("core.engine.divergent_seconds", "count", Better::Lower),
    layer("measurer.echo.unverified_share", "ratio", Better::Lower),
    layer("coord.cpu_ms_per_item", "ms", Better::Lower),
    layer("coord.peak_rss_MB", "MB", Better::Lower),
    layer("trace_overhead_pct", "%", Better::Lower),
    // The `WHERE_DEFINED` pair as the traced pass read them.
    layer("estimate_accuracy_pct", "%", Better::Higher),
    layer("period_overhead_ms_per_round", "ms", Better::Lower),
];

/// Every per-layer metric a traced run emits, fully named.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out: Vec<(String, &'static str, Better)> =
        LADDER.iter().map(|m| (m.name.to_string(), m.unit, m.better)).collect();
    for prefix in ["relay", "measurer"] {
        out.extend(PEER.iter().map(|m| (format!("{prefix}.{}", m.name), m.unit, m.better)));
    }
    for span in ENGINE_SPANS {
        out.push((format!("{span}_p50"), "ms", Better::Lower));
        out.push((format!("{span}_p95"), "ms", Better::Lower));
    }
    out.extend(SINGLES.iter().map(|m| (m.name.to_string(), m.unit, m.better)));
    out
}

/// True for names the driver accepts: starts with a letter or digit,
/// then letters, digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One relay, one measurer, one item per round over the Shadow
    /// roster: the data plane is the load.
    Blast {
        /// Open loop: `--measurer-rate` is [`Size::paced_rate`]. Closed
        /// loop otherwise: `--measurer-rate 0`, uncapped.
        paced: bool,
        /// `--sockets` commanded per measurer.
        sockets: u32,
    },
    /// One relay, two measurers, a synthetic roster walked eight items
    /// a round at 50× clock: the control plane is the load.
    Roster,
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// One line on why it exists.
    pub why: &'static str,
    /// What it drives.
    pub kind: Kind,
}

/// The relay's simulated client traffic (bytes/s) in every workload.
pub const BACKGROUND: u64 = 20_000;
/// Slot length of the blast workloads (wall seconds, speedup 1).
pub const BLAST_SLOT_SECS: u32 = 4;
/// `blast_paced`: the commanded rate (bytes/s).
pub const PACED_RATE: u64 = 40_000_000;
/// `blast_paced` under `--smoke`: a rate peers built without
/// optimisation sustain too (they move under 30 MB/s closed loop), so a
/// smoke run means the same under `cargo test` and `cargo test --release`.
pub const SMOKE_PACED_RATE: u64 = 4_000_000;
/// `period_roster`: clock multiplier, so a 1 s slot is 20 ms of wall.
pub const ROSTER_SPEEDUP: f64 = 50.0;
/// `period_roster` under `--smoke`: 100 ms slots. Peers built without
/// optimisation need most of a 20 ms slot to turn its bytes round, and
/// what is still in flight at slot end is never verified.
pub const SMOKE_ROSTER_SPEEDUP: f64 = 10.0;
/// `period_roster`: per-measurer commanded rate (bytes per sped-up s).
pub const ROSTER_RATE: u64 = 100_000;
/// `period_roster`: what one 1000-relay period takes on the two-core
/// sandbox (4.1 to 4.6 s observed); sizes a `bench` run's period count.
pub const ROSTER_PERIOD_SECS: f64 = 4.5;
/// `period_roster`: items per round (`--round-max` = `--shards`).
pub const ROSTER_ROUND: usize = 8;

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "blast_fanout",
        why: "closed loop, 160 sockets commanded on one path: both peers CPU-bound, so per-byte \
              data-plane work (keystream, tag, parser, copies) must show here",
        kind: Kind::Blast { paced: false, sockets: 160 },
    },
    Workload {
        name: "blast_single",
        why: "closed loop, one socket: wait-bound ping-pong, so only per-wakeup costs (tick, \
              dwell, backlog marks) move it and per-byte savings should not",
        kind: Kind::Blast { paced: false, sockets: 1 },
    },
    Workload {
        name: "blast_paced",
        why: "open loop at 40 MB/s over 4 sockets: goodput is pinned, so CPU per byte and \
              estimate accuracy move instead; the bypass for throughput claims",
        kind: Kind::Blast { paced: true, sockets: 4 },
    },
    Workload {
        name: "period_roster",
        why: "1000-relay periods at 50x clock, 8 items a round, 2 measurers: sessions, Go \
              barrier, journal fsyncs and planning do the work, not bytes",
        kind: Kind::Roster,
    },
];

impl Workload {
    /// Whether `metric` (one of [`WHERE_DEFINED`]) means something here:
    /// accuracy needs a commanded rate to be the truth, and overhead per
    /// round needs rounds short enough that it is not lost in the
    /// rounding of a twenty-second wall time.
    pub fn defines(&self, metric: &str) -> bool {
        match (metric, self.kind) {
            ("estimate_accuracy_pct", Kind::Blast { paced, .. }) => paced,
            ("period_overhead_ms_per_round", Kind::Blast { .. }) => false,
            _ => true,
        }
    }

    /// The end-to-end metric tracing overhead is read off: goodput
    /// where the loop is closed, relay CPU per byte where the rate is
    /// pinned, period wall time where the control plane is the load.
    pub fn headline(&self) -> &'static Metric {
        let name = match self.kind {
            Kind::Blast { paced: false, .. } => "echo_goodput_MBps",
            Kind::Blast { paced: true, .. } => "relay_cpu_s_per_GB",
            Kind::Roster => "period_wall_s",
        };
        END_TO_END.iter().find(|m| m.name == name).expect("headline is declared")
    }
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Sizes of the in-process ladder rungs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderSize {
    /// Bytes each repeat of a stream rung moves.
    pub stream_bytes: usize,
    /// Wall seconds each repeat of an operation-rate rung runs.
    pub op_secs: f64,
    /// Repeats per rung; the median is reported.
    pub repeats: usize,
    /// fsync'd appends the persist rungs time.
    pub appends: usize,
}

/// How much work one invocation does. Every mode sizes itself with
/// [`Size::for_seconds`]: `bench` with the driver's `--seconds`, `run`
/// and `trace` with their own `--seconds` (24 unless given, the
/// `run_seconds` of `BENCHMARK.json`), so what `run` records is what the
/// driver gates; `--smoke` is the same at three seconds, cut down further.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Items (= rounds) per blast workload.
    pub blast_items: usize,
    /// Slot seconds per blast item.
    pub slot_secs: u32,
    /// `blast_paced`'s commanded rate (bytes/s).
    pub paced_rate: u64,
    /// Relays in the `period_roster` roster.
    pub roster_relays: usize,
    /// `period_roster`'s clock multiplier.
    pub roster_speedup: f64,
    /// Consecutive `--once` periods `period_roster` runs.
    pub periods: usize,
    /// Times set-up is performed; the median is `setup_s`.
    pub setup_trials: usize,
    /// Ladder rung sizes.
    pub ladder: LadderSize,
}

impl Size {
    /// What `seconds` of measuring buy: the 4 s items and the
    /// 1000-relay periods that fill them (the issue's 6 items and 5
    /// periods at 24), and the issue's ladder — 256 MiB or 1 s a rung,
    /// five repeats — whatever the seconds.
    pub fn for_seconds(seconds: u32) -> Size {
        Size {
            blast_items: (seconds / BLAST_SLOT_SECS).max(3) as usize,
            slot_secs: BLAST_SLOT_SECS,
            paced_rate: PACED_RATE,
            roster_relays: 1000,
            roster_speedup: ROSTER_SPEEDUP,
            periods: (f64::from(seconds) / ROSTER_PERIOD_SECS).max(1.0) as usize,
            setup_trials: 15,
            ladder: LadderSize { stream_bytes: 256 << 20, op_secs: 1.0, repeats: 5, appends: 2000 },
        }
    }

    /// `--smoke`: the same code path in under twenty seconds, and under
    /// any build profile. Three items, not two, because the Shadow
    /// roster needs three relays.
    pub fn smoke() -> Size {
        Size {
            slot_secs: 1,
            paced_rate: SMOKE_PACED_RATE,
            roster_relays: 64,
            roster_speedup: SMOKE_ROSTER_SPEEDUP,
            setup_trials: 2,
            ladder: LadderSize { stream_bytes: 16 << 20, op_secs: 0.05, repeats: 1, appends: 50 },
            ..Size::for_seconds(3)
        }
    }

    /// The traced run splits its time between an untraced and a traced
    /// pass (their difference is the tracing overhead), so each pass
    /// gets half the items.
    pub fn halved(self) -> Size {
        Size {
            blast_items: (self.blast_items / 2).max(3),
            periods: (self.periods / 2).max(1),
            setup_trials: 1,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_declared_name_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .chain(per_layer().into_iter().map(|(n, ..)| n))
            .chain(WORKLOADS.iter().map(|w| w.name.to_string()))
            .chain([FAILED_SHARE.name.to_string()])
        {
            assert!(valid_name(&name), "bad name {name:?}");
            assert!(seen.insert(name.clone()), "duplicate name {name:?}");
        }
    }

    #[test]
    fn name_rule_rejects_what_the_driver_rejects() {
        assert!(valid_name("a"));
        assert!(valid_name("core.engine.go_skew_ms_p95"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/es"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn seconds_buy_whole_items_and_periods_and_smoke_is_the_same_cut_down() {
        let size = Size::for_seconds(24);
        assert_eq!((size.blast_items, size.periods), (6, 5));
        let short = Size::for_seconds(4);
        assert_eq!((short.blast_items, short.periods), (3, 1), "Shadow needs three relays");
        let smoke = Size::smoke();
        assert_eq!((smoke.blast_items, smoke.slot_secs, smoke.periods), (3, 1, 1));
        assert!(smoke.paced_rate < size.paced_rate && smoke.roster_relays == 64);
    }

    #[test]
    fn compare_allows_the_larger_of_share_and_amount() {
        let setup = END_TO_END[0].allow;
        assert_eq!(setup.amount(0.005), 0.05, "a 5 ms set-up may rise by the 50 ms floor");
        assert_eq!(setup.amount(1.0), 0.25);
        assert_eq!(FAILED_SHARE.allow.amount(0.5), 0.0);
        assert_eq!(setup.to_string(), "25%|0.05");
        assert_eq!(END_TO_END[1].allow.to_string(), "8%");
        assert_eq!(WHERE_DEFINED[0].allow.to_string(), "1");
    }

    #[test]
    fn bounds_and_whys_fit_the_contract() {
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound {}", m.name, m.bound);
        }
        for m in END_TO_END.iter().chain(&WHERE_DEFINED) {
            assert!(m.allow.amount(1.0) > 0.0, "{}: compare allows nothing", m.name);
        }
        for m in WHERE_DEFINED {
            assert!(per_layer().iter().any(|(n, unit, _)| n == m.name && *unit == m.unit));
            assert!(WORKLOADS.iter().any(|w| w.defines(m.name)), "{} is defined nowhere", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.better == Better::Lower));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(per_layer().len() <= 128);
    }
}
