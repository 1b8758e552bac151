//! Analytical security bounds (§5).
//!
//! FlashFlow's threat model allows malicious relays, clients, and a
//! minority of BWAuths/DirAuths. The quantitative guarantees:
//!
//! * **Inflation bound** — a relay that forwards no client traffic but
//!   reports the maximum the ratio allows inflates its estimate by at
//!   most `1/(1−r)` (= 1.33 at `r = 0.25`).
//! * **Forged echoes** — forging `k` responses evades the random
//!   spot-checks with probability `(1−p)^k`.
//! * **Capacity-on-demand** — a relay providing high capacity during only
//!   a fraction `q` of slots defeats the median of `n` BWAuths with
//!   probability `1 − Σₖ₌⌈ₙ/₂⌉ⁿ Pr[B(n, 1−q) = k]`.

/// The §5 inflation bound from lying about background traffic.
///
/// # Panics
/// Panics if `r` is outside `[0, 1)`.
pub fn max_inflation_factor(r: f64) -> f64 {
    assert!((0.0..1.0).contains(&r), "ratio r must be in [0,1)");
    1.0 / (1.0 - r)
}

/// Binomial coefficient as `f64` (exact for the small `n` used by
/// BWAuth counts).
fn binomial_coefficient(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

/// `Pr[B(n, p) = k]` for a binomial random variable.
///
/// # Panics
/// Panics if `p` is outside `[0, 1]`.
fn binomial_pmf(n: u64, p: f64, k: u64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p out of range");
    if k > n {
        return 0.0;
    }
    binomial_coefficient(n, k) * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32)
}

/// `Pr[B(n, p) >= k]`.
fn binomial_tail(n: u64, p: f64, k: u64) -> f64 {
    (k..=n).map(|i| binomial_pmf(n, p, i)).sum()
}

/// The probability that a capacity-on-demand attack *fails*: a relay
/// provides high capacity during a fraction `q` of measurement slots; it
/// is measured once per period by each of `n` BWAuths at independent
/// secret random times; the consensus takes the median. The attack fails
/// when at least half the BWAuths measure during a low-capacity window:
/// `Σ_{k=⌈n/2⌉}^{n} Pr[B(n, 1−q) = k]` (§5).
///
/// # Panics
/// Panics if `q` is outside `[0, 1]` or `n` is zero.
pub fn capacity_on_demand_failure_probability(n_bwauths: u64, q: f64) -> f64 {
    assert!(n_bwauths > 0, "need at least one BWAuth");
    assert!((0.0..=1.0).contains(&q), "q out of range");
    let majority = n_bwauths / 2 + n_bwauths % 2; // ⌈n/2⌉
    binomial_tail(n_bwauths, 1.0 - q, majority)
}

/// Summary of the §5/Table 2 attack-advantage guarantee for FlashFlow
/// under given parameters, for comparison against the baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecuritySummary {
    /// Worst-case weight-inflation factor.
    pub inflation_factor: f64,
    /// Probability a half-time capacity-on-demand attack (q = 0.5) fails
    /// against the deployed BWAuth count.
    pub half_time_attack_failure: f64,
    /// Probability a relay forging one million cells evades detection.
    pub megacell_forgery_evasion: f64,
}

/// Computes the summary for `n_bwauths` authorities at ratio `r` and
/// check probability `p`.
pub fn summarize(n_bwauths: u64, r: f64, p: f64) -> SecuritySummary {
    SecuritySummary {
        inflation_factor: max_inflation_factor(r),
        half_time_attack_failure: capacity_on_demand_failure_probability(n_bwauths, 0.5),
        megacell_forgery_evasion: crate::verify::evasion_probability(p, 1_000_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflation_factor_values() {
        assert!((max_inflation_factor(0.25) - 4.0 / 3.0).abs() < 1e-12);
        assert!((max_inflation_factor(0.0) - 1.0).abs() < 1e-12);
        assert!((max_inflation_factor(0.5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn binomial_coefficients_exact() {
        assert_eq!(binomial_coefficient(5, 0), 1.0);
        assert_eq!(binomial_coefficient(5, 2), 10.0);
        assert_eq!(binomial_coefficient(6, 3), 20.0);
        assert_eq!(binomial_coefficient(3, 5), 0.0);
    }

    #[test]
    fn pmf_sums_to_one() {
        let n = 9;
        let p = 0.37;
        let total: f64 = (0..=n).map(|k| binomial_pmf(n, p, k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn half_time_attack_fails_at_least_half_the_time() {
        // Paper: "an attempt to provide high capacity only during a
        // fraction q < 1/2 of measurement slots will fail with
        // probability at least 0.5".
        for n in [1, 3, 5, 6, 9] {
            for q in [0.1, 0.25, 0.4, 0.49] {
                let fail = capacity_on_demand_failure_probability(n, q);
                assert!(fail >= 0.5 - 1e-12, "n={n}, q={q}: fail={fail}");
            }
        }
    }

    #[test]
    fn more_bwauths_strengthen_the_median() {
        let q = 0.3;
        let f3 = capacity_on_demand_failure_probability(3, q);
        let f9 = capacity_on_demand_failure_probability(9, q);
        assert!(f9 > f3, "f3={f3}, f9={f9}");
    }

    #[test]
    fn always_on_attack_never_fails() {
        // q = 1: the relay always provides the high capacity — that's not
        // an attack, and the "failure" probability is ≈ 0.
        let fail = capacity_on_demand_failure_probability(5, 1.0);
        assert!(fail < 1e-12);
    }

    #[test]
    fn summary_matches_paper_numbers() {
        let s = summarize(6, 0.25, 1e-5);
        assert!((s.inflation_factor - 1.33).abs() < 0.01);
        assert!(s.half_time_attack_failure >= 0.5);
        // (1 - 1e-5)^1e6 ≈ e^-10 ≈ 4.5e-5.
        assert!(s.megacell_forgery_evasion < 1e-4);
    }
}
