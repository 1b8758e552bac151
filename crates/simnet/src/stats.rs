//! Small statistics toolkit shared by every experiment.
//!
//! The paper summarises nearly everything with medians, percentiles, CDFs,
//! and the relative standard deviation (Appendix A, Eq. 7); these helpers
//! implement those reductions once, with care around empty input and NaN.

/// Returns the arithmetic mean, or `None` for empty input.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Returns the population standard deviation, or `None` for empty input.
pub fn std_dev(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64;
    Some(var.sqrt())
}

/// Relative standard deviation `stdev(V)/mean(V)` (paper Eq. 7).
///
/// Returns `None` for empty input or a zero mean.
pub fn relative_std_dev(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    if m == 0.0 {
        return None;
    }
    Some(std_dev(values)? / m)
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) using linear interpolation, or
/// `None` for empty input.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Returns the median, or `None` for empty input.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Returns `(min, max)` or `None` for empty input.
pub fn min_max(values: &[f64]) -> Option<(f64, f64)> {
    if values.is_empty() {
        return None;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in values {
        assert!(!v.is_nan(), "NaN in min_max input");
        lo = lo.min(v);
        hi = hi.max(v);
    }
    Some((lo, hi))
}

/// An empirical cumulative distribution function over a sample.
///
/// ```
/// use flashflow_simnet::stats::Ecdf;
/// let cdf = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.quantile(0.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample.
    ///
    /// # Panics
    /// Panics if the sample is empty or contains NaN.
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "empty ECDF sample");
        values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in ECDF sample"));
        Ecdf { sorted: values }
    }

    /// Number of points in the sample.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction rejects empty samples.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `q`-quantile of the sample (linear interpolation).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.sorted, q).expect("ECDF is never empty")
    }

    /// The median of the sample.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Renders the CDF sampled at `n` evenly spaced quantiles, for printing.
    pub fn sampled(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "need at least two sample points");
        (0..n)
            .map(|i| {
                let q = i as f64 / (n - 1) as f64;
                (self.quantile(q), q)
            })
            .collect()
    }
}

/// Accumulates per-tick byte counts into a per-second series.
///
/// FlashFlow's estimator consumes *per-second* byte totals (`x_j`, `y_j` in
/// §4.1); the simulator ticks faster than once per second, so experiments
/// feed every tick into this accumulator and read whole seconds out.
#[derive(Debug, Clone, Default)]
pub struct SecondsAccumulator {
    /// Completed whole-second totals.
    complete: Vec<f64>,
    /// Bytes in the currently accumulating second.
    partial: f64,
    /// How much of the current second has elapsed.
    partial_secs: f64,
}

impl SecondsAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `bytes` transferred over `dt_secs` of simulated time.
    ///
    /// # Panics
    /// Panics if `dt_secs` is negative, zero, or not finite.
    pub fn push(&mut self, bytes: f64, dt_secs: f64) {
        assert!(dt_secs > 0.0 && dt_secs.is_finite(), "bad tick duration {dt_secs}");
        let mut remaining_dt = dt_secs;
        let mut remaining_bytes = bytes;
        while remaining_dt > 0.0 {
            let room = 1.0 - self.partial_secs;
            let take = remaining_dt.min(room);
            let frac = take / remaining_dt;
            let byte_share = remaining_bytes * frac;
            self.partial += byte_share;
            self.partial_secs += take;
            remaining_bytes -= byte_share;
            remaining_dt -= take;
            if self.partial_secs >= 1.0 - 1e-12 {
                self.complete.push(self.partial);
                self.partial = 0.0;
                self.partial_secs = 0.0;
            }
        }
    }

    /// The completed per-second byte totals so far.
    pub fn seconds(&self) -> &[f64] {
        &self.complete
    }

    /// Consumes the accumulator, returning completed seconds (the trailing
    /// partial second is discarded, matching how the paper's per-second
    /// reports work).
    pub fn into_seconds(self) -> Vec<f64> {
        self.complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), Some(5.0));
        assert_eq!(std_dev(&v), Some(2.0));
        assert_eq!(relative_std_dev(&v), Some(0.4));
    }

    #[test]
    fn empty_inputs_are_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(std_dev(&[]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(min_max(&[]), None);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quantile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 1.0), Some(50.0));
        assert_eq!(quantile(&v, 0.25), Some(20.0));
        assert_eq!(quantile(&v, 0.75), Some(40.0));
        assert_eq!(quantile(&v, 0.125), Some(15.0));
    }

    #[test]
    fn ecdf_fractions() {
        let cdf = Ecdf::new(vec![1.0, 1.0, 2.0, 3.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 3.0);
    }

    #[test]
    fn seconds_accumulator_sub_second_ticks() {
        let mut acc = SecondsAccumulator::new();
        // Ten 0.1 s ticks of 100 bytes each = one second of 1000 bytes.
        for _ in 0..10 {
            acc.push(100.0, 0.1);
        }
        assert_eq!(acc.seconds().len(), 1);
        assert!((acc.seconds()[0] - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn seconds_accumulator_splits_spanning_ticks() {
        let mut acc = SecondsAccumulator::new();
        // One 2.5 s tick of 2500 bytes: two complete seconds of 1000 each.
        acc.push(2500.0, 2.5);
        assert_eq!(acc.seconds().len(), 2);
        assert!((acc.seconds()[0] - 1000.0).abs() < 1e-6);
        assert!((acc.seconds()[1] - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn seconds_accumulator_drops_trailing_partial() {
        let mut acc = SecondsAccumulator::new();
        acc.push(300.0, 1.5);
        assert_eq!(acc.into_seconds().len(), 1);
    }
}
