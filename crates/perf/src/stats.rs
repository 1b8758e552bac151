//! Order statistics for the benchmark's samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default *exclusive* method), because that is what the
//! benchmark driver computes spreads with: a spread reported by
//! `flashflow-perf compare` and one computed by the driver from the same
//! ten values are the same number.

use flashflow_obs::Json;
/// Median and linear-interpolation quantile of raw samples.
pub use flashflow_simnet::stats::{median, quantile};

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The exclusive-method quantile at `p` of already sorted `data`
/// (position `p·(n+1)`, linear interpolation, extrapolating past the
/// ends exactly as Python does).
fn exclusive(data: &[f64], p: f64) -> f64 {
    let n = data.len();
    if n == 1 {
        return data[0];
    }
    let pos = p * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let delta = pos - j as f64;
    data[j - 1] * (1.0 - delta) + data[j] * delta
}

/// `(q1, median, q3)` as `statistics.quantiles(values, n=4)` gives
/// them; a single value is its own quartiles. `None` for no values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.is_empty() {
        return None;
    }
    let data = sorted(values);
    Some((exclusive(&data, 0.25), exclusive(&data, 0.5), exclusive(&data, 0.75)))
}

/// The `q`-quantile of a fixed-bucket histogram (`bounds` are inclusive
/// upper bounds, `counts` has one more entry for the overflow bucket,
/// `sum` is the sum of all observations): linear interpolation inside
/// the bucket in which the cumulative count crosses `q`, as if the
/// bucket's observations were spread evenly over it. A quantile that
/// lands in the overflow bucket reports that bucket's mean observation,
/// recovered from `sum` (the other buckets taken at their midpoints) —
/// an estimate, but one that still moves when the tail does, where the
/// last bound would read the same for ever. `None` when empty.
pub fn bucket_quantile(bounds: &[u64], counts: &[u64], sum: u64, q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    let last = *bounds.last()? as f64;
    if total == 0 {
        return None;
    }
    let want = (q * total as f64).max(f64::MIN_POSITIVE);
    let (mut seen, mut bucketed_sum, mut lo) = (0.0, 0.0, 0.0);
    for (&hi, &count) in bounds.iter().zip(counts) {
        let (hi, count) = (hi as f64, count as f64);
        if count > 0.0 && seen + count >= want {
            return Some(lo + (hi - lo) * (want - seen) / count);
        }
        seen += count;
        bucketed_sum += count * (lo + hi) / 2.0;
        lo = hi;
    }
    let overflow = total as f64 - seen;
    Some(((sum as f64 - bucketed_sum) / overflow).max(last))
}

/// Sample count, median and quartiles of one metric's values.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The values summarized, in the order they were measured.
    pub values: Vec<f64>,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values`; `None` for no values.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let (q1, median, q3) = quartiles(values)?;
        Some(Summary { values: values.to_vec(), q1, median, q3 })
    }

    /// Distance between the quartiles as a share of the median — the
    /// spread the driver holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return if self.q3 == self.q1 { 0.0 } else { f64::INFINITY };
        }
        (self.q3 - self.q1).abs() / self.median.abs()
    }

    /// `{"n":..,"median":..,"q1":..,"q3":..,"values":[..]}`.
    pub fn to_json(&self) -> Vec<(String, Json)> {
        vec![
            ("n".into(), Json::Int(self.values.len() as i128)),
            ("median".into(), Json::Num(self.median)),
            ("q1".into(), Json::Num(self.q1)),
            ("q3".into(), Json::Num(self.q3)),
            ("values".into(), Json::Arr(self.values.iter().map(|v| Json::Num(*v)).collect())),
        ]
    }

    /// Reads back what [`Summary::to_json`] wrote (quartiles are
    /// recomputed from the values, so a hand-edited file cannot
    /// disagree with itself).
    pub fn from_json(json: &Json) -> Option<Summary> {
        let values: Vec<f64> =
            json.get("values")?.as_arr()?.iter().filter_map(Json::as_f64).collect();
        Summary::of(&values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates, and so must we.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        assert_eq!(quartiles(&[5.0]), Some((5.0, 5.0, 5.0)));
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_crossing_bucket() {
        let bounds = [1, 5, 10];
        // 10 observations ≤1, 80 in (1,5], 9 in (5,10], 1 overflow of 40.
        let counts = [10, 80, 9, 1];
        let sum = 5 + 240 + 68 + 40;
        // The 50th of 100 is the 40th of the 80 spread over (1, 5].
        assert_eq!(bucket_quantile(&bounds, &counts, sum, 0.5), Some(3.0));
        assert_eq!(bucket_quantile(&bounds, &counts, sum, 0.05), Some(0.5));
        assert_eq!(bucket_quantile(&bounds, &counts, sum, 0.99), Some(10.0));
        // Overflow: what the sum leaves once the buckets are taken at
        // their midpoints (5 + 240 + 67.5), never below the last bound.
        assert_eq!(bucket_quantile(&bounds, &counts, sum, 1.0), Some(40.5));
        assert_eq!(bucket_quantile(&bounds, &counts, 0, 1.0), Some(10.0));
        assert_eq!(bucket_quantile(&bounds, &[0, 0, 0, 0], 0, 0.5), None);
    }

    #[test]
    fn summary_spread_is_iqr_over_median_and_round_trips() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).expect("values");
        assert!((s.spread() - 1.0).abs() < 1e-12, "(8.25-2.75)/5.5");
        let back = Summary::from_json(&Json::Obj(s.to_json())).expect("round trip");
        assert_eq!(back, s);
        assert_eq!(Summary::of(&[4.0]).expect("one").spread(), 0.0);
    }
}
