//! Equations (1)–(6): capacity and weight error analysis (§3.1, §3.2).
//!
//! * Eq. (1): `C(r,t,p) = max(A(r,t,p))` — true-capacity proxy.
//! * Eq. (2): `RCE(r,t,p) = 1 − A(r,t)/C(r,t,p)` — relay capacity error.
//! * Eq. (3): `NCE(t,p) = 1 − ΣA/ΣC` — network capacity error.
//! * Eq. (4): normalized capacity `C̄(r,t,p)`.
//! * Eq. (5): `RWE(r,t,p) = W(r,t)/C̄(r,t,p)` — relay weight error.
//! * Eq. (6): `NWE(t,p) = ½ Σ|W − C̄|` — network weight error
//!   (total variation distance).

use crate::archive::{trailing_max, Archive};

/// Per-relay trailing-max capacity estimates (Eq. 1) for window `p`
/// steps: `result[r][i]` corresponds to the relay's local step `i`.
fn capacity_estimates(archive: &Archive, p: usize) -> Vec<Vec<f64>> {
    archive.relay_ids().map(|r| trailing_max(&archive.relay(r).advertised, p)).collect()
}

/// Mean relay capacity error per relay (the Fig. 1 distribution): for
/// each relay, the mean over its presence of Eq. (2). Relays present
/// for fewer than `min_steps` are skipped.
pub fn mean_rce_per_relay(archive: &Archive, p: usize, min_steps: usize) -> Vec<f64> {
    let mut out = Vec::new();
    for r in archive.relay_ids() {
        let series = archive.relay(r);
        if series.len() < min_steps {
            continue;
        }
        let cmax = trailing_max(&series.advertised, p);
        let mut sum = 0.0;
        let mut n = 0usize;
        for (a, c) in series.advertised.iter().zip(&cmax) {
            if *c > 0.0 {
                sum += 1.0 - a / c;
                n += 1;
            }
        }
        if n > 0 {
            out.push(sum / n as f64);
        }
    }
    out
}

/// Network capacity error over time (Eq. 3, the Fig. 2 series): at each
/// step, `1 − Σ_r A(r,t) / Σ_r C(r,t,p)` over present relays.
pub fn nce_series(archive: &Archive, p: usize) -> Vec<f64> {
    let caps = capacity_estimates(archive, p);
    (0..archive.steps)
        .map(|t| {
            let mut sum_a = 0.0;
            let mut sum_c = 0.0;
            for r in archive.relay_ids() {
                if let Some(a) = archive.advertised(r, t) {
                    sum_a += a;
                    sum_c += caps[r][t - archive.relay(r).start_step];
                }
            }
            if sum_c > 0.0 {
                1.0 - sum_a / sum_c
            } else {
                0.0
            }
        })
        .collect()
}

/// Normalized capacity (Eq. 4) for every present relay at step `t`,
/// given precomputed per-relay capacity estimates.
fn normalized_capacities(archive: &Archive, caps: &[Vec<f64>], t: usize) -> Vec<(usize, f64)> {
    let mut entries = Vec::new();
    let mut total = 0.0;
    for r in archive.relay_ids() {
        if archive.present(r, t) {
            let c = caps[r][t - archive.relay(r).start_step];
            entries.push((r, c));
            total += c;
        }
    }
    if total > 0.0 {
        for e in &mut entries {
            e.1 /= total;
        }
    }
    entries
}

/// Mean relay weight error per relay (Eq. 5, the Fig. 3 distribution):
/// for each relay, the mean over its presence of `W(r,t)/C̄(r,t,p)`.
/// Values below 1 mean under-weighted. Plotting applies `log10`.
pub fn mean_rwe_per_relay(archive: &Archive, p: usize, min_steps: usize) -> Vec<f64> {
    let caps = capacity_estimates(archive, p);
    let mut sums = vec![0.0f64; archive.relay_count()];
    let mut counts = vec![0usize; archive.relay_count()];
    for t in 0..archive.steps {
        let normalized = normalized_capacities(archive, &caps, t);
        for (r, cbar) in normalized {
            if cbar > 0.0 {
                if let Some(w) = archive.normalized_weight(r, t) {
                    sums[r] += w / cbar;
                    counts[r] += 1;
                }
            }
        }
    }
    archive
        .relay_ids()
        .filter(|&r| counts[r] >= min_steps.max(1))
        .map(|r| sums[r] / counts[r] as f64)
        .collect()
}

/// Network weight error over time (Eq. 6, the Fig. 4 series): the total
/// variation distance between the normalized weight distribution and the
/// normalized capacity distribution.
pub fn nwe_series(archive: &Archive, p: usize) -> Vec<f64> {
    let caps = capacity_estimates(archive, p);
    (0..archive.steps)
        .map(|t| {
            let normalized = normalized_capacities(archive, &caps, t);
            let mut tv = 0.0;
            for (r, cbar) in normalized {
                let w = archive.normalized_weight(r, t).unwrap_or(0.0);
                tv += (w - cbar).abs();
            }
            tv / 2.0
        })
        .collect()
}

/// Network weight error against *known* true capacities (used by the
/// Shadow experiments, where ground truth exists): `½ Σ|W − C̄|` with
/// `C̄` the normalized true capacity.
pub fn nwe_against_truth(weights: &[f64], true_capacities: &[f64]) -> f64 {
    assert_eq!(weights.len(), true_capacities.len(), "length mismatch");
    let wsum: f64 = weights.iter().sum();
    let csum: f64 = true_capacities.iter().sum();
    assert!(wsum > 0.0 && csum > 0.0, "degenerate distributions");
    weights.iter().zip(true_capacities).map(|(w, c)| (w / wsum - c / csum).abs()).sum::<f64>() / 2.0
}

/// Relay capacity error against known truth (Fig. 8a): `1 − est/true`,
/// clamped at 0 for overestimates' magnitude reported separately.
pub fn rce_against_truth(estimate: f64, truth: f64) -> f64 {
    assert!(truth > 0.0, "true capacity must be positive");
    (1.0 - estimate / truth).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::RelaySeries;

    /// A relay advertising half its capacity except one step at full.
    fn underutilized_archive() -> Archive {
        let mut a = Archive::new(1.0, 100);
        let mut adv = vec![50.0; 100];
        adv[10] = 100.0; // one burst reveals the true capacity
        a.add_relay(RelaySeries { start_step: 0, advertised: adv, weight: vec![1.0; 100] });
        a
    }

    #[test]
    fn rce_grows_with_window() {
        let a = underutilized_archive();
        // Small window: the burst is forgotten quickly → low error.
        let short = mean_rce_per_relay(&a, 2, 1);
        // Large window: the burst dominates the estimate → high error.
        let long = mean_rce_per_relay(&a, 95, 1);
        assert!(short[0] < long[0], "short {} vs long {}", short[0], long[0]);
        assert!(long[0] > 0.3, "long-window error should be substantial: {}", long[0]);
    }

    #[test]
    fn nce_zero_for_constant_advertised() {
        let mut a = Archive::new(1.0, 50);
        a.add_relay(RelaySeries {
            start_step: 0,
            advertised: vec![10.0; 50],
            weight: vec![1.0; 50],
        });
        let series = nce_series(&a, 10);
        for v in series {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn nce_reflects_underestimation() {
        let a = underutilized_archive();
        let series = nce_series(&a, 95);
        // After the burst, ΣA = 50, ΣC = 100 → NCE = 0.5.
        assert!((series[50] - 0.5).abs() < 1e-9, "nce {}", series[50]);
    }

    #[test]
    fn rwe_detects_misweighting() {
        // Two relays with equal capacity estimates but 1:3 weights.
        let mut a = Archive::new(1.0, 20);
        a.add_relay(RelaySeries {
            start_step: 0,
            advertised: vec![100.0; 20],
            weight: vec![1.0; 20],
        });
        a.add_relay(RelaySeries {
            start_step: 0,
            advertised: vec![100.0; 20],
            weight: vec![3.0; 20],
        });
        let rwe = mean_rwe_per_relay(&a, 5, 1);
        // Relay 0: W=0.25 vs C̄=0.5 → 0.5 (under-weighted); relay 1: 1.5.
        assert!((rwe[0] - 0.5).abs() < 1e-9);
        assert!((rwe[1] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn nwe_matches_hand_computation() {
        let mut a = Archive::new(1.0, 10);
        a.add_relay(RelaySeries {
            start_step: 0,
            advertised: vec![100.0; 10],
            weight: vec![1.0; 10],
        });
        a.add_relay(RelaySeries {
            start_step: 0,
            advertised: vec![100.0; 10],
            weight: vec![3.0; 10],
        });
        let nwe = nwe_series(&a, 5);
        // W = (0.25, 0.75), C̄ = (0.5, 0.5) → TV = ½(0.25+0.25) = 0.25.
        assert!((nwe[5] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn nwe_truth_perfect_weights() {
        assert!(nwe_against_truth(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) < 1e-12);
        let err = nwe_against_truth(&[1.0, 1.0], &[1.0, 3.0]);
        assert!((err - 0.25).abs() < 1e-12);
    }

    #[test]
    fn perfect_archive_has_zero_errors() {
        let mut a = Archive::new(1.0, 30);
        for cap in [10.0, 20.0, 30.0] {
            a.add_relay(RelaySeries {
                start_step: 0,
                advertised: vec![cap; 30],
                weight: vec![cap; 30],
            });
        }
        let (d, ..) = a.period_steps();
        assert!(nce_series(&a, d).iter().all(|v| v.abs() < 1e-12));
        assert!(nwe_series(&a, d).iter().all(|v| v.abs() < 1e-12));
        for rwe in mean_rwe_per_relay(&a, d, 1) {
            assert!((rwe - 1.0).abs() < 1e-12);
        }
    }
}
