//! What the subcommands print, and `compare`: holding one `run`
//! document against another.

use std::collections::BTreeMap;

use flashflow_obs::Json;

use crate::ladder::Rung;
use crate::spec::{
    self, Allow, Better, Metric, Workload, END_TO_END, FAILED_SHARE, LADDER, WHERE_DEFINED,
    WORKLOADS,
};
use crate::stats::Summary;
use crate::supervise::Stamp;
use crate::workload::PassResult;

/// Schema tag of a `run` document.
pub const RUN_SCHEMA: &str = "flashflow.perf.run.v1";
/// Schema tag of a `trace` document.
pub const TRACE_SCHEMA: &str = "flashflow.perf.trace.v1";

/// What `run` reports and `compare` gates for `w`: the driver's
/// metrics, those `w` gives a meaning, and `failed_share`.
fn run_metrics(w: &Workload) -> impl Iterator<Item = &'static Metric> + '_ {
    END_TO_END
        .iter()
        .chain(WHERE_DEFINED.iter().filter(|m| w.defines(m.name)))
        .chain([&FAILED_SHARE])
}

/// The `run` document: per workload, every end-to-end metric (and
/// `failed_share`) summarized over the `repeat` passes.
pub fn run_document(stamp: &Stamp, size: &str, passes: &BTreeMap<&str, Vec<PassResult>>) -> Json {
    let workloads = WORKLOADS
        .iter()
        .filter_map(|w| Some((w, passes.get(w.name)?)))
        .map(|(w, results)| {
            let metrics = run_metrics(w)
                .map(|m| {
                    let value = |r: &PassResult| {
                        if m.name == FAILED_SHARE.name {
                            r.failed_share()
                        } else {
                            r.e2e[m.name]
                        }
                    };
                    (m, results.iter().map(value).collect::<Vec<f64>>())
                })
                .filter_map(|(m, values)| {
                    let mut fields = vec![
                        ("unit".to_string(), Json::Str(m.unit.into())),
                        ("better".to_string(), Json::Str(m.better.as_str().into())),
                        ("bound".to_string(), Json::Str(m.allow.to_string())),
                    ];
                    fields.extend(Summary::of(&values)?.to_json());
                    Some((m.name.to_string(), Json::Obj(fields)))
                })
                .collect();
            // What the medians above are medians *of*, for one pass.
            let detail = results.last().map_or(Json::Null, |r| {
                Json::Obj(vec![
                    ("items".into(), Json::Int(i128::from(r.attempted))),
                    ("goodput_samples".into(), Json::Int(r.capacities.len() as i128)),
                    ("period_samples".into(), Json::Int(r.period_walls.len() as i128)),
                    ("setup_samples".into(), Json::Int(r.setup_samples.len() as i128)),
                    ("unverified_share".into(), Json::Num(r.unverified_share)),
                ])
            });
            (
                w.name.to_string(),
                Json::Obj(vec![
                    ("why".into(), Json::Str(w.why.into())),
                    ("last_pass".into(), detail),
                    ("metrics".into(), Json::Obj(metrics)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str(RUN_SCHEMA.into())),
        ("stamp".into(), stamp.to_json()),
        ("size".into(), Json::Str(size.into())),
        ("workloads".into(), Json::Obj(workloads)),
    ])
}

/// The `trace` document: the ladder with each throughput rung's ratio
/// to the rung below, then per workload every process, reactor and
/// engine-span layer metric plus the tracing overhead.
///
/// # Errors
/// A workload's table lacks a declared metric (see [`layer_metrics`]).
pub fn trace_document(
    stamp: &Stamp,
    size: &str,
    ladder: &[Rung],
    layers: &BTreeMap<&str, BTreeMap<String, f64>>,
    trace_files: &BTreeMap<&str, String>,
) -> Result<Json, String> {
    let unit_of = |name: &str| LADDER.iter().find(|m| m.name == name).map_or("", |m| m.unit);
    let rungs = ladder
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("name".into(), Json::Str(r.name.into())),
                ("unit".into(), Json::Str(unit_of(r.name).into())),
                ("value".into(), Json::Num(r.value)),
                ("ratio_to_below".into(), r.ratio_to_below.map_or(Json::Null, Json::Num)),
            ])
        })
        .collect();
    let mut workloads = Vec::new();
    for (name, table) in layers {
        // The ladder is printed once above; a workload's table holds
        // what was observed while that workload ran.
        let metrics = layer_metrics(ladder, table)?
            .into_iter()
            .filter(|(metric, ..)| table.contains_key(metric))
            .map(|(metric, unit, value)| {
                let fields = vec![
                    ("unit".into(), Json::Str(unit.into())),
                    ("value".into(), Json::Num(value)),
                ];
                (metric, Json::Obj(fields))
            })
            .collect();
        workloads.push((
            (*name).to_string(),
            Json::Obj(vec![
                (
                    "trace_file".into(),
                    trace_files.get(name).map_or(Json::Null, |p| Json::Str(p.clone())),
                ),
                ("layers".into(), Json::Obj(metrics)),
            ]),
        ));
    }
    Ok(Json::Obj(vec![
        ("schema".into(), Json::Str(TRACE_SCHEMA.into())),
        ("stamp".into(), stamp.to_json()),
        ("size".into(), Json::Str(size.into())),
        ("ladder".into(), Json::Arr(rungs)),
        ("workloads".into(), Json::Obj(workloads)),
    ]))
}

/// Every declared per-layer metric, in declaration order, looked up in
/// the ladder and in one workload's layer table.
///
/// # Errors
/// A declared metric was not produced — the traced run is incomplete,
/// and an incomplete table must not pass for a whole one.
pub fn layer_metrics(
    ladder: &[Rung],
    layers: &BTreeMap<String, f64>,
) -> Result<Vec<(String, &'static str, f64)>, String> {
    spec::per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = ladder
                .iter()
                .find(|r| r.name == name)
                .map(|r| r.value)
                .or_else(|| layers.get(&name).copied())
                .ok_or_else(|| format!("traced run did not produce {name}"))?;
            Ok((name, unit, value))
        })
        .collect()
}

/// The one-line result the benchmark driver reads: `metrics` maps each
/// name to `{value, unit}`.
pub fn driver_line(attempted: u64, failed: u64, metrics: &[(String, &str, f64)]) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(true)),
        ("attempted".into(), Json::Int(i128::from(attempted))),
        ("failed".into(), Json::Int(i128::from(failed))),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, unit, value)| {
                        (
                            name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(*value)),
                                ("unit".into(), Json::Str((*unit).into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// How a metric on a workload moved between two documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the base's own spread.
    Improved,
    /// Neither improved nor regressed.
    Unchanged,
    /// Worse than the base by more than the bound.
    Regressed,
    /// The base's own quartiles are further apart than the bound, so
    /// a change of that size cannot be told from noise.
    Unresolved,
    /// The base has the row and the new document does not: the row
    /// that went missing may be the one that regressed.
    Missing,
}

impl Verdict {
    /// Lower-case name, as printed.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }

    /// Whether `compare` exits non-zero over this row.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Missing)
    }
}

/// One `(workload, metric)` row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base median.
    pub base: f64,
    /// New median (`NaN` when the row is missing).
    pub new: f64,
    /// `new / base`.
    pub ratio: f64,
    /// How much worse the metric may get (nothing for `failed_share`:
    /// any rise regresses).
    pub bound: Allow,
    /// The call.
    pub verdict: Verdict,
}

/// The verdict for one metric.
pub fn judge(base: &Summary, new: &Summary, better: Better, allow: Allow) -> Verdict {
    // By how much `new` is worse, in the metric's unit (negative when
    // it is better).
    let worse = match better {
        Better::Lower => new.median - base.median,
        Better::Higher => base.median - new.median,
    };
    let allowed = allow.amount(base.median);
    if allowed == 0.0 {
        // Absolute gate (`failed_share`): any move is the verdict.
        return match worse.partial_cmp(&0.0) {
            Some(std::cmp::Ordering::Greater) => Verdict::Regressed,
            Some(std::cmp::Ordering::Less) => Verdict::Improved,
            _ => Verdict::Unchanged,
        };
    }
    let noise = (base.q3 - base.q1).abs();
    if noise > allowed {
        // Noise wider than the bound: only a clean separation counts.
        let separated = match better {
            Better::Lower => max(&new.values) < min(&base.values),
            Better::Higher => min(&new.values) > max(&base.values),
        };
        return if separated { Verdict::Improved } else { Verdict::Unresolved };
    }
    if worse > allowed {
        Verdict::Regressed
    } else if -worse > noise {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Compares two `run` documents row by row: every row of `base` is
/// looked up in `new` (a workload only `new` has is new, and skipped).
///
/// # Errors
/// Either document is not a `run` document, or `base` holds no row.
pub fn compare(base: &Json, new: &Json) -> Result<Vec<Row>, String> {
    for (which, doc) in [("base", base), ("new", new)] {
        if doc.get("schema").and_then(Json::as_str) != Some(RUN_SCHEMA) {
            return Err(format!("{which} document is not a {RUN_SCHEMA} document"));
        }
    }
    let summary_of = |doc: &Json, workload: &str, metric: &str| -> Option<Summary> {
        Summary::from_json(doc.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?)
    };
    let mut rows = Vec::new();
    for w in WORKLOADS {
        for m in run_metrics(&w) {
            let Some(bs) = summary_of(base, w.name, m.name) else { continue };
            let ns = summary_of(new, w.name, m.name);
            let new_median = ns.as_ref().map_or(f64::NAN, |ns| ns.median);
            rows.push(Row {
                workload: w.name.to_string(),
                metric: m.name.to_string(),
                base: bs.median,
                new: new_median,
                // 0 → 0 (a clean `failed_share`) is no change, not NaN.
                ratio: if new_median == bs.median { 1.0 } else { new_median / bs.median },
                bound: m.allow,
                verdict: ns.map_or(Verdict::Missing, |ns| judge(&bs, &ns, m.better, m.allow)),
            });
        }
    }
    if rows.is_empty() {
        return Err("the base document holds no (workload, metric) row".to_string());
    }
    Ok(rows)
}

/// The comparison as an aligned text table.
pub fn render_rows(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<30} {:>12} {:>12} {:>8} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:<30} {:>12.5} {:>12.5} {:>8.4} {:>8}  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.ratio,
            r.bound.to_string(),
            r.verdict.as_str()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Summary {
        Summary::of(values).expect("values")
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_base_spread() {
        let base = s(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // Higher is better, bound 8 %.
        let eight = Allow { share: 0.08, abs: 0.0 };
        assert_eq!(judge(&base, &s(&[100.2]), Better::Higher, eight), Verdict::Unchanged);
        assert_eq!(judge(&base, &s(&[93.0]), Better::Higher, eight), Verdict::Unchanged);
        assert_eq!(judge(&base, &s(&[91.0]), Better::Higher, eight), Verdict::Regressed);
        assert_eq!(judge(&base, &s(&[104.0]), Better::Higher, eight), Verdict::Improved);
        // Lower is better: the same moves read the other way.
        assert_eq!(judge(&base, &s(&[109.0]), Better::Lower, eight), Verdict::Regressed);
        assert_eq!(judge(&base, &s(&[96.0]), Better::Lower, eight), Verdict::Improved);
    }

    #[test]
    fn an_absolute_allowance_floors_the_share() {
        // `setup_s`: 25 % or 50 ms, whichever is more.
        let setup = Allow { share: 0.25, abs: 0.05 };
        let base = s(&[0.0050, 0.0051, 0.0049]);
        assert_eq!(judge(&base, &s(&[0.030]), Better::Lower, setup), Verdict::Unchanged);
        assert_eq!(judge(&base, &s(&[0.060]), Better::Lower, setup), Verdict::Regressed);
        // `estimate_accuracy_pct`: one point.
        let point = Allow { share: 0.0, abs: 1.0 };
        let base = s(&[99.9, 99.8, 99.95]);
        assert_eq!(judge(&base, &s(&[99.1]), Better::Higher, point), Verdict::Unchanged);
        assert_eq!(judge(&base, &s(&[98.5]), Better::Higher, point), Verdict::Regressed);
    }

    #[test]
    fn a_noisy_base_is_unresolved_unless_the_runs_separate() {
        let noisy = s(&[80.0, 120.0, 100.0, 90.0, 110.0]);
        let eight = Allow { share: 0.08, abs: 0.0 };
        assert_eq!(judge(&noisy, &s(&[70.0]), Better::Higher, eight), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &s(&[125.0, 130.0]), Better::Higher, eight), Verdict::Improved);
    }

    #[test]
    fn failed_share_is_gated_absolutely() {
        let zero = s(&[0.0, 0.0]);
        assert_eq!(judge(&zero, &s(&[0.0]), Better::Lower, Allow::NONE), Verdict::Unchanged);
        assert_eq!(judge(&zero, &s(&[0.001]), Better::Lower, Allow::NONE), Verdict::Regressed);
        assert_eq!(judge(&s(&[0.01]), &s(&[0.0]), Better::Lower, Allow::NONE), Verdict::Improved);
    }

    fn pass(goodput: f64, failed: u64) -> PassResult {
        PassResult {
            e2e: END_TO_END
                .iter()
                .chain(&WHERE_DEFINED)
                .map(|m| (m.name, if m.name == "echo_goodput_MBps" { goodput } else { 1.0 }))
                .collect(),
            attempted: 6,
            failed,
            ..PassResult::default()
        }
    }

    #[test]
    fn documents_round_trip_through_compare() {
        let stamp = Stamp {
            nproc: 2,
            kernel: "k".into(),
            rustc: "r".into(),
            git_commit: "c".into(),
            seed: 1,
            state_fs: "ext4".into(),
            traced: false,
        };
        let doc_of = |passes: BTreeMap<&str, Vec<PassResult>>| {
            let text = run_document(&stamp, "smoke", &passes).to_string();
            Json::parse(&text).expect("own output parses")
        };
        let doc = |goodput: f64, failed: u64| {
            doc_of(BTreeMap::from([("blast_fanout", vec![pass(goodput, failed)])]))
        };
        let rows = compare(&doc(369.0, 0), &doc(250.0, 1)).expect("comparable");
        assert_eq!(
            rows.len(),
            END_TO_END.len() + 1,
            "one closed-loop workload: the driver's metrics"
        );
        let verdict = |metric: &str| rows.iter().find(|r| r.metric == metric).expect("row").verdict;
        assert_eq!(verdict("echo_goodput_MBps"), Verdict::Regressed);
        assert_eq!(verdict("period_wall_s"), Verdict::Unchanged);
        assert_eq!(verdict(FAILED_SHARE.name), Verdict::Regressed);
        assert!(render_rows(&rows).contains("regressed"));
        assert!(compare(&Json::Null, &doc(1.0, 0)).is_err());

        // A workload the new document dropped is missing, not unchanged;
        // one it gained is not the base's business.
        let paced = || doc_of(BTreeMap::from([("blast_paced", vec![pass(40.0, 0)])]));
        let both = doc_of(BTreeMap::from([
            ("blast_fanout", vec![pass(369.0, 0)]),
            ("blast_paced", vec![pass(40.0, 0)]),
        ]));
        let rows = compare(&both, &paced()).expect("comparable");
        let of = |w: &'static str| rows.iter().filter(move |r| r.workload == w);
        assert!(of("blast_fanout").all(|r| r.verdict == Verdict::Missing && r.verdict.fails()));
        assert_eq!(of("blast_fanout").count(), END_TO_END.len() + 1);
        assert!(of("blast_paced").all(|r| r.verdict == Verdict::Unchanged));
        assert!(render_rows(&rows).contains("missing"));
        let rows = compare(&paced(), &both).expect("comparable");
        assert!(rows.iter().all(|r| r.workload == "blast_paced" && !r.verdict.fails()));
    }
}
