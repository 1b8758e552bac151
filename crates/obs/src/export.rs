//! Machine-readable period results: the JSON file a period writes for
//! consensus tooling and archives, and the one-screen text summary CI
//! logs print.
//!
//! A [`PeriodExport`] carries one [`TargetSummary`] per measured relay:
//! the accepted capacity estimate, audit provenance (clean sessions,
//! divergent ledger rows), and [`Percentiles`] of the per-second echo,
//! background, and combined series — the same five-number-plus-mean
//! summary as `flashflow-bench`'s `Boxplot` (paper Figure 9), computed
//! here with identical linear-interpolation quantiles so the two layers
//! can never disagree (the bench crate carries the conformance test).

use crate::json::Json;

/// Schema version stamped into every export.
pub const EXPORT_SCHEMA: u64 = 2;

/// Five-number summary plus mean: 5th percentile, quartiles, median,
/// mean, 95th percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// 5th percentile.
    pub p5: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Mean.
    pub mean: f64,
    /// Third quartile.
    pub q3: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Percentiles {
    /// Computes the summary, or `None` for empty input.
    ///
    /// # Panics
    /// Panics if any value is NaN.
    pub fn of(values: &[f64]) -> Option<Percentiles> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
        Some(Percentiles {
            p5: interpolated(&sorted, 0.05),
            q1: interpolated(&sorted, 0.25),
            median: interpolated(&sorted, 0.5),
            mean: values.iter().sum::<f64>() / values.len() as f64,
            q3: interpolated(&sorted, 0.75),
            p95: interpolated(&sorted, 0.95),
        })
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("p5".to_string(), Json::Num(self.p5)),
            ("q1".to_string(), Json::Num(self.q1)),
            ("median".to_string(), Json::Num(self.median)),
            ("mean".to_string(), Json::Num(self.mean)),
            ("q3".to_string(), Json::Num(self.q3)),
            ("p95".to_string(), Json::Num(self.p95)),
        ])
    }

    fn from_json(json: &Json) -> Result<Percentiles, String> {
        let num = |key: &str| {
            json.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing {key}"))
        };
        Ok(Percentiles {
            p5: num("p5")?,
            q1: num("q1")?,
            median: num("median")?,
            mean: num("mean")?,
            q3: num("q3")?,
            p95: num("p95")?,
        })
    }
}

/// Linear-interpolation quantile over pre-sorted values; the same rule
/// as `flashflow_simnet::stats::quantile` (and therefore `Boxplot`).
fn interpolated(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// One relay's period result inside a [`PeriodExport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TargetSummary {
    /// Relay fingerprint, lowercase hex.
    pub relay_fp: String,
    /// Accepted capacity estimate, bytes per second.
    pub capacity_bytes_per_sec: f64,
    /// True if every session of the item ended cleanly.
    pub clean: bool,
    /// Ledger rows that failed a cross-check.
    pub divergent_rows: u64,
    /// Number of measured seconds contributing to the series.
    pub seconds: u64,
    /// Per-second echoed measurement bytes (`x_j`).
    pub echo: Option<Percentiles>,
    /// Per-second reported background bytes (`y_j`).
    pub bg: Option<Percentiles>,
    /// Per-second combined estimate (`z_j = x_j + min(y_j, r·z_j)`).
    pub combined: Option<Percentiles>,
}

impl TargetSummary {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("relay_fp".to_string(), Json::Str(self.relay_fp.clone())),
            ("capacity_bytes_per_sec".to_string(), Json::Num(self.capacity_bytes_per_sec)),
            ("clean".to_string(), Json::Bool(self.clean)),
            ("divergent_rows".to_string(), Json::Int(i128::from(self.divergent_rows))),
            ("seconds".to_string(), Json::Int(i128::from(self.seconds))),
        ];
        for (key, summary) in [("echo", self.echo), ("bg", self.bg), ("combined", self.combined)] {
            if let Some(p) = summary {
                pairs.push((key.to_string(), p.to_json()));
            }
        }
        Json::Obj(pairs)
    }

    fn from_json(json: &Json) -> Result<TargetSummary, String> {
        let summary = |key: &str| match json.get(key) {
            Some(v) => Percentiles::from_json(v).map(Some),
            None => Ok(None),
        };
        Ok(TargetSummary {
            relay_fp: json
                .get("relay_fp")
                .and_then(Json::as_str)
                .ok_or("missing relay_fp")?
                .to_string(),
            capacity_bytes_per_sec: json
                .get("capacity_bytes_per_sec")
                .and_then(Json::as_f64)
                .ok_or("missing capacity_bytes_per_sec")?,
            clean: json.get("clean").and_then(Json::as_bool).ok_or("missing clean")?,
            divergent_rows: json
                .get("divergent_rows")
                .and_then(Json::as_u64)
                .ok_or("missing divergent_rows")?,
            seconds: json.get("seconds").and_then(Json::as_u64).ok_or("missing seconds")?,
            echo: summary("echo")?,
            bg: summary("bg")?,
            combined: summary("combined")?,
        })
    }
}

/// Connection-pool traffic over the period (dial/reuse/probe/discard
/// counts surfaced from the coordinator's pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolSummary {
    /// Fresh TCP dials.
    pub dials: u64,
    /// Checkouts satisfied by an idle warm connection.
    pub reuses: u64,
    /// Idle connections discarded (failed probe, dead socket).
    pub discarded: u64,
    /// Keepalive probes sent.
    pub probes: u64,
    /// Idle connections parked at export time.
    pub idle: u64,
}

impl PoolSummary {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("dials".to_string(), Json::Int(i128::from(self.dials))),
            ("reuses".to_string(), Json::Int(i128::from(self.reuses))),
            ("discarded".to_string(), Json::Int(i128::from(self.discarded))),
            ("probes".to_string(), Json::Int(i128::from(self.probes))),
            ("idle".to_string(), Json::Int(i128::from(self.idle))),
        ])
    }

    fn from_json(json: &Json) -> Result<PoolSummary, String> {
        let int = |key: &str| {
            json.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing pool {key}"))
        };
        Ok(PoolSummary {
            dials: int("dials")?,
            reuses: int("reuses")?,
            discarded: int("discarded")?,
            probes: int("probes")?,
            idle: int("idle")?,
        })
    }
}

/// Reactor-runtime health over the period, condensed from the
/// per-shard instruments a peer's `--metrics-addr` endpoint serves
/// (see `flashflow-procutil`'s `ReactorObs`): shard count, stall
/// count, live/backlog slot totals, and mean latencies of the three
/// loop histograms. Built with
/// [`from_snapshot`](ReactorSummary::from_snapshot) from a fetched
/// [`RegistrySnapshot`](crate::metrics::RegistrySnapshot).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReactorSummary {
    /// Shards that registered instruments under the prefix.
    pub shards: u64,
    /// Loop turns that blew the stall budget (`<prefix>.stalls`).
    pub stalls: u64,
    /// Live slab slots summed across shards at snapshot time.
    pub live: i64,
    /// Write-armed (backlogged) slots summed across shards.
    pub write_backlog: i64,
    /// Mean `epoll_wait` dwell across all shards' observations, µs.
    pub dwell_mean_us: f64,
    /// Mean per-`on_ready` dispatch latency, µs.
    pub dispatch_mean_us: f64,
    /// Mean tick-sweep overshoot beyond the configured cadence, µs.
    pub tick_jitter_mean_us: f64,
}

impl ReactorSummary {
    /// Condenses the `<prefix>.shard<i>.*` instruments of `snap` into
    /// one summary; `None` when the snapshot has no reactor metrics
    /// under `prefix` (an uninstrumented or pre-upgrade peer).
    pub fn from_snapshot(snap: &crate::metrics::RegistrySnapshot, prefix: &str) -> Option<Self> {
        let shard_prefix = format!("{prefix}.shard");
        let mut shards = 0u64;
        let mut live = 0i64;
        let mut backlog = 0i64;
        for (name, value) in &snap.gauges {
            let Some(rest) = name.strip_prefix(&shard_prefix) else { continue };
            if rest.ends_with(".slab_live") {
                shards += 1;
                live += value;
            } else if rest.ends_with(".write_backlog") {
                backlog += value;
            }
        }
        if shards == 0 {
            return None;
        }
        let mean_of = |suffix: &str| {
            let (sum, count) = snap
                .histograms
                .iter()
                .filter(|(name, _)| name.starts_with(&shard_prefix) && name.ends_with(suffix))
                .fold((0u64, 0u64), |(s, c), (_, h)| (s + h.sum, c + h.count));
            if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            }
        };
        let stalls = snap
            .counters
            .iter()
            .find(|(name, _)| *name == format!("{prefix}.stalls"))
            .map_or(0, |(_, v)| *v);
        Some(ReactorSummary {
            shards,
            stalls,
            live,
            write_backlog: backlog,
            dwell_mean_us: mean_of(".epoll_dwell_us"),
            dispatch_mean_us: mean_of(".dispatch_us"),
            tick_jitter_mean_us: mean_of(".tick_jitter_us"),
        })
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("shards".to_string(), Json::Int(i128::from(self.shards))),
            ("stalls".to_string(), Json::Int(i128::from(self.stalls))),
            ("live".to_string(), Json::Int(i128::from(self.live))),
            ("write_backlog".to_string(), Json::Int(i128::from(self.write_backlog))),
            ("dwell_mean_us".to_string(), Json::Num(self.dwell_mean_us)),
            ("dispatch_mean_us".to_string(), Json::Num(self.dispatch_mean_us)),
            ("tick_jitter_mean_us".to_string(), Json::Num(self.tick_jitter_mean_us)),
        ])
    }

    fn from_json(json: &Json) -> Result<ReactorSummary, String> {
        let int = |key: &str| {
            json.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing reactor {key}"))
        };
        let num = |key: &str| {
            json.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing reactor {key}"))
        };
        Ok(ReactorSummary {
            shards: int("shards")?,
            stalls: int("stalls")?,
            live: json.get("live").and_then(Json::as_i64).ok_or("missing reactor live")?,
            write_backlog: json
                .get("write_backlog")
                .and_then(Json::as_i64)
                .ok_or("missing reactor write_backlog")?,
            dwell_mean_us: num("dwell_mean_us")?,
            dispatch_mean_us: num("dispatch_mean_us")?,
            tick_jitter_mean_us: num("tick_jitter_mean_us")?,
        })
    }
}

/// A full period's machine-readable result file.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodExport {
    /// Schema version ([`EXPORT_SCHEMA`]).
    pub schema: u64,
    /// Background ratio `r` the estimates used.
    pub ratio: f64,
    /// One summary per measured relay, item order.
    pub targets: Vec<TargetSummary>,
    /// Pool traffic, when a pool drove the period.
    pub pool: Option<PoolSummary>,
    /// Reactor-runtime health of the serving peers, when the exporter
    /// had metrics snapshots to condense (absent otherwise — older
    /// exports parse unchanged).
    pub reactor: Option<ReactorSummary>,
}

impl PeriodExport {
    /// The export as a JSON document (single line; pipe through a
    /// pretty-printer for humans — the text summary exists for that).
    pub fn to_json_string(&self) -> String {
        let mut pairs = vec![
            ("schema".to_string(), Json::Int(i128::from(self.schema))),
            ("ratio".to_string(), Json::Num(self.ratio)),
            (
                "targets".to_string(),
                Json::Arr(self.targets.iter().map(TargetSummary::to_json).collect()),
            ),
        ];
        if let Some(pool) = self.pool {
            pairs.push(("pool".to_string(), pool.to_json()));
        }
        if let Some(reactor) = self.reactor {
            pairs.push(("reactor".to_string(), reactor.to_json()));
        }
        Json::Obj(pairs).to_string()
    }

    /// Parses an export previously encoded by
    /// [`to_json_string`](PeriodExport::to_json_string).
    ///
    /// # Errors
    /// Describes the first malformed or missing field; an unknown
    /// schema version is rejected outright.
    pub fn parse(text: &str) -> Result<PeriodExport, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc.get("schema").and_then(Json::as_u64).ok_or("missing schema")?;
        if schema != EXPORT_SCHEMA {
            return Err(format!("unsupported schema {schema} (expected {EXPORT_SCHEMA})"));
        }
        Ok(PeriodExport {
            schema,
            ratio: doc.get("ratio").and_then(Json::as_f64).ok_or("missing ratio")?,
            targets: doc
                .get("targets")
                .and_then(Json::as_arr)
                .ok_or("missing targets")?
                .iter()
                .map(TargetSummary::from_json)
                .collect::<Result<_, _>>()?,
            pool: match doc.get("pool") {
                Some(v) => Some(PoolSummary::from_json(v)?),
                None => None,
            },
            reactor: match doc.get("reactor") {
                Some(v) => Some(ReactorSummary::from_json(v)?),
                None => None,
            },
        })
    }

    /// The one-screen text summary CI logs print: a header, one row per
    /// target, and the pool line.
    pub fn text_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let clean = self.targets.iter().filter(|t| t.clean).count();
        let divergent: u64 = self.targets.iter().map(|t| t.divergent_rows).sum();
        let _ = writeln!(
            out,
            "period summary: {} targets ({} clean), {} divergent rows, r={}",
            self.targets.len(),
            clean,
            divergent,
            self.ratio,
        );
        let _ = writeln!(
            out,
            "  {:<16} {:>12} {:>7} {:>9} {:>12} {:>12}",
            "target", "capacity", "clean", "divergent", "echo.median", "bg.median"
        );
        for t in &self.targets {
            let fp = if t.relay_fp.len() > 16 { &t.relay_fp[..16] } else { &t.relay_fp };
            let _ = writeln!(
                out,
                "  {:<16} {:>12} {:>7} {:>9} {:>12} {:>12}",
                fp,
                fmt_rate(t.capacity_bytes_per_sec),
                if t.clean { "yes" } else { "NO" },
                t.divergent_rows,
                t.echo.map_or_else(|| "-".to_string(), |p| fmt_rate(p.median)),
                t.bg.map_or_else(|| "-".to_string(), |p| fmt_rate(p.median)),
            );
        }
        if let Some(pool) = self.pool {
            let _ = writeln!(
                out,
                "  pool: {} dials, {} reuses, {} discarded, {} probes, {} idle",
                pool.dials, pool.reuses, pool.discarded, pool.probes, pool.idle
            );
        }
        if let Some(r) = self.reactor {
            let _ = writeln!(
                out,
                "  reactor: {} shards, {} stalls, {} live, {} backlogged, dwell {:.0}us, dispatch {:.0}us, jitter {:.0}us",
                r.shards,
                r.stalls,
                r.live,
                r.write_backlog,
                r.dwell_mean_us,
                r.dispatch_mean_us,
                r.tick_jitter_mean_us,
            );
        }
        out
    }
}

/// Formats a bytes-per-second rate with a binary-free SI-ish unit
/// (`"36.0 MB/s"`), stable across platforms for golden tests.
pub fn fmt_rate(bytes_per_sec: f64) -> String {
    let magnitude = bytes_per_sec.abs();
    if magnitude >= 1e9 {
        format!("{:.1} GB/s", bytes_per_sec / 1e9)
    } else if magnitude >= 1e6 {
        format!("{:.1} MB/s", bytes_per_sec / 1e6)
    } else if magnitude >= 1e3 {
        format!("{:.1} kB/s", bytes_per_sec / 1e3)
    } else {
        format!("{bytes_per_sec:.0} B/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_export() -> PeriodExport {
        let series: Vec<f64> = (1..=30).map(f64::from).collect();
        PeriodExport {
            schema: EXPORT_SCHEMA,
            ratio: 0.25,
            targets: vec![
                TargetSummary {
                    relay_fp: "aa".repeat(20),
                    capacity_bytes_per_sec: 36_000_000.0,
                    clean: true,
                    divergent_rows: 0,
                    seconds: 30,
                    echo: Percentiles::of(&series),
                    bg: Percentiles::of(&[0.0; 30]),
                    combined: Percentiles::of(&series),
                },
                TargetSummary {
                    relay_fp: "bb".repeat(20),
                    capacity_bytes_per_sec: 150_000.5,
                    clean: false,
                    divergent_rows: 3,
                    seconds: 0,
                    echo: None,
                    bg: None,
                    combined: None,
                },
            ],
            pool: Some(PoolSummary { dials: 4, reuses: 8, discarded: 1, probes: 6, idle: 2 }),
            reactor: None,
        }
    }

    #[test]
    fn export_round_trips_and_summary_is_identical() {
        let export = sample_export();
        let text = export.to_json_string();
        let back = PeriodExport::parse(&text).unwrap();
        assert_eq!(back, export);
        assert_eq!(back.text_summary(), export.text_summary());
    }

    #[test]
    fn unknown_schema_is_rejected() {
        // Schema 1 (the export that still carried a worker-shard count)
        // is refused like any other version that is not the current one.
        for schema in [1, 99] {
            let mut export = sample_export();
            export.schema = schema;
            assert!(PeriodExport::parse(&export.to_json_string()).is_err(), "schema {schema}");
        }
    }

    #[test]
    fn text_summary_golden() {
        let summary = sample_export().text_summary();
        let expected = "period summary: 2 targets (1 clean), 3 divergent rows, r=0.25\n  target               capacity   clean divergent  echo.median    bg.median\n  aaaaaaaaaaaaaaaa    36.0 MB/s     yes         0       16 B/s        0 B/s\n  bbbbbbbbbbbbbbbb   150.0 kB/s      NO         3            -            -\n  pool: 4 dials, 8 reuses, 1 discarded, 6 probes, 2 idle\n";
        assert_eq!(summary, expected, "golden text summary drifted:\n{summary}");
    }

    #[test]
    fn reactor_block_round_trips_and_prints() {
        let mut export = sample_export();
        export.reactor = Some(ReactorSummary {
            shards: 4,
            stalls: 1,
            live: 12,
            write_backlog: 3,
            dwell_mean_us: 950.5,
            dispatch_mean_us: 12.25,
            tick_jitter_mean_us: 80.0,
        });
        let back = PeriodExport::parse(&export.to_json_string()).unwrap();
        assert_eq!(back, export);
        let summary = export.text_summary();
        assert!(
            summary.contains("reactor: 4 shards, 1 stalls, 12 live, 3 backlogged"),
            "{summary}"
        );
        // Absent block stays absent: the golden summary above proves
        // the old shape, this proves parse tolerance.
        assert_eq!(sample_export().reactor, None);
    }

    #[test]
    fn reactor_summary_condenses_a_registry_snapshot() {
        let registry = crate::metrics::MetricsRegistry::new();
        for shard in 0..2 {
            let h = registry
                .histogram(&format!("relay.reactor.shard{shard}.epoll_dwell_us"), &[1_000, 10_000]);
            h.observe(500);
            h.observe(1_500);
            registry
                .histogram(&format!("relay.reactor.shard{shard}.dispatch_us"), &[10, 100])
                .observe(4);
            registry
                .histogram(&format!("relay.reactor.shard{shard}.tick_jitter_us"), &[100])
                .observe(50);
            registry.gauge(&format!("relay.reactor.shard{shard}.slab_live")).set(5);
            registry.gauge(&format!("relay.reactor.shard{shard}.write_backlog")).set(1);
        }
        registry.counter("relay.reactor.stalls").add(3);
        let snap = registry.snapshot();

        let summary = ReactorSummary::from_snapshot(&snap, "relay.reactor").expect("present");
        assert_eq!(summary.shards, 2);
        assert_eq!(summary.stalls, 3);
        assert_eq!(summary.live, 10);
        assert_eq!(summary.write_backlog, 2);
        assert_eq!(summary.dwell_mean_us, 1000.0);
        assert_eq!(summary.dispatch_mean_us, 4.0);
        assert_eq!(summary.tick_jitter_mean_us, 50.0);

        assert_eq!(ReactorSummary::from_snapshot(&snap, "measurer.reactor"), None);
    }

    #[test]
    fn percentiles_match_linear_interpolation() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentiles::of(&v).unwrap();
        assert_eq!(p.median, 50.5);
        assert_eq!(p.mean, 50.5);
        assert!((p.p5 - 5.95).abs() < 1e-9);
        assert!((p.p95 - 95.05).abs() < 1e-9);
        assert!(Percentiles::of(&[]).is_none());
    }
}
