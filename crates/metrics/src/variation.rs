//! Equation (7): relative standard deviation of capacities and weights
//! (Appendix A, Figure 10).
//!
//! A perfect capacity estimator would report a constant advertised
//! bandwidth; variation indicates estimation error. The paper summarises
//! each relay by the mean over time of `RSD(A(r,t,p))` (and likewise for
//! normalized consensus weights).

use flashflow_simnet::stats::relative_std_dev;

use crate::archive::Archive;

/// Mean trailing-window RSD of advertised bandwidth per relay
/// (Fig. 10a): for each relay, the mean over its presence of the RSD of
/// the advertised bandwidths in the preceding `p` steps. Relays present
/// for fewer than `min_steps` are skipped.
pub fn mean_advertised_rsd_per_relay(archive: &Archive, p: usize, min_steps: usize) -> Vec<f64> {
    let mut out = Vec::new();
    for r in archive.relay_ids() {
        let series = &archive.relay(r).advertised;
        if series.len() < min_steps {
            continue;
        }
        if let Some(v) = mean_trailing_rsd(series, p) {
            out.push(v);
        }
    }
    out
}

/// Mean trailing-window RSD of *normalized consensus weight* per relay
/// (Fig. 10b).
pub fn mean_weight_rsd_per_relay(archive: &Archive, p: usize, min_steps: usize) -> Vec<f64> {
    let mut out = Vec::new();
    for r in archive.relay_ids() {
        let series = archive.relay(r);
        if series.len() < min_steps {
            continue;
        }
        let weights: Vec<f64> = (series.start_step..series.end_step())
            .map(|t| archive.normalized_weight(r, t).unwrap_or(0.0))
            .collect();
        if let Some(v) = mean_trailing_rsd(&weights, p) {
            out.push(v);
        }
    }
    out
}

/// The mean over all positions of the RSD of each trailing window of
/// `p` samples (windows shorter than 2 samples are skipped).
fn mean_trailing_rsd(values: &[f64], p: usize) -> Option<f64> {
    assert!(p >= 1, "window must be positive");
    let mut sum = 0.0;
    let mut n = 0usize;
    for t in 1..values.len() {
        let lo = t.saturating_sub(p - 1);
        let window = &values[lo..=t];
        if window.len() < 2 {
            continue;
        }
        if let Some(rsd) = relative_std_dev(window) {
            sum += rsd;
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::RelaySeries;
    use crate::synth::{generate, SynthConfig};
    use flashflow_simnet::stats::median;

    #[test]
    fn constant_series_has_zero_rsd() {
        assert_eq!(mean_trailing_rsd(&[5.0; 20], 10), Some(0.0));
    }

    #[test]
    fn alternating_series_has_positive_rsd() {
        let v: Vec<f64> = (0..20).map(|i| if i % 2 == 0 { 10.0 } else { 20.0 }).collect();
        let rsd = mean_trailing_rsd(&v, 10).unwrap();
        assert!(rsd > 0.2, "rsd {rsd}");
    }

    #[test]
    fn rsd_grows_with_window_on_drifting_series() {
        // A slow ramp: short windows see little variation, long windows a lot.
        let v: Vec<f64> = (0..200).map(|i| 100.0 + i as f64).collect();
        let short = mean_trailing_rsd(&v, 4).unwrap();
        let long = mean_trailing_rsd(&v, 100).unwrap();
        assert!(long > short * 5.0, "short {short}, long {long}");
    }

    #[test]
    fn archive_rsd_ordering_matches_fig10() {
        let s = generate(&SynthConfig::test_scale(21));
        let (d, w, m, y) = s.archive.period_steps();
        let med = |p| median(&mean_advertised_rsd_per_relay(&s.archive, p, 8)).unwrap();
        let (md, mw, mm, my) = (med(d), med(w), med(m), med(y));
        assert!(md <= mw && mw <= mm && mm <= my, "medians {md:.3} {mw:.3} {mm:.3} {my:.3}");
        assert!(my > 0.1, "year-window RSD should be sizable: {my:.3}");
    }

    #[test]
    fn weight_rsd_computable() {
        let mut a = Archive::new(1.0, 30);
        a.add_relay(RelaySeries {
            start_step: 0,
            advertised: vec![10.0; 30],
            weight: vec![1.0; 30],
        });
        a.add_relay(RelaySeries {
            start_step: 0,
            advertised: vec![10.0; 30],
            weight: (0..30).map(|i| 1.0 + (i % 3) as f64).collect(),
        });
        let rsds = mean_weight_rsd_per_relay(&a, 10, 2);
        assert_eq!(rsds.len(), 2);
        // Both relays' normalized weights vary because the total varies.
        assert!(rsds[1] > 0.0);
    }
}
