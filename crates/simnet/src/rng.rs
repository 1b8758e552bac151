//! Deterministic, forkable random number generation.
//!
//! Every stochastic component in the workspace draws from a [`SimRng`] seeded
//! from the experiment configuration, so identical seeds produce identical
//! traces. `SimRng` implements xoshiro256** (public domain, Blackman/Vigna)
//! with SplitMix64 seeding, plus the handful of distribution samplers the
//! experiments need. We deliberately avoid platform- or version-dependent
//! generators for long-term reproducibility.

/// A deterministic pseudorandom generator (xoshiro256**).
///
/// ```
/// use flashflow_simnet::rng::SimRng;
/// let mut a = SimRng::seed_from_u64(42);
/// let mut b = SimRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        SimRng { s }
    }

    /// Derives an independent child generator from this one.
    ///
    /// Forking lets each simulated component own its stream so that adding
    /// or removing draws in one component does not perturb the others.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64() ^ 0xA5A5_A5A5_DEAD_BEEF)
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn gen_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_index on empty range");
        // Lemire-style rejection to avoid modulo bias.
        let n64 = n as u64;
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let m = (x as u128) * (n64 as u128);
                ((m >> 64) as u64, m as u64)
            };
            if lo >= n64 || lo >= n64.wrapping_neg() % n64 {
                return hi as usize;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.gen_index((hi - lo) as usize) as u64
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the range is empty or not finite.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad range {lo}..{hi}");
        lo + self.next_f64() * (hi - lo)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal via Box–Muller.
    pub fn gen_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal with the given parameters of the underlying normal.
    pub fn gen_lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.gen_normal(mu, sigma).exp()
    }

    /// Exponential with the given mean (`1/lambda`).
    ///
    /// # Panics
    /// Panics if `mean <= 0`.
    pub fn gen_exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Pareto with scale `x_min` and shape `alpha` (heavy-tailed sizes).
    ///
    /// # Panics
    /// Panics if `x_min <= 0` or `alpha <= 0`.
    pub fn gen_pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min > 0.0 && alpha > 0.0, "bad pareto parameters");
        x_min / (1.0 - self.next_f64()).powf(1.0 / alpha)
    }

    /// Picks one element of a slice uniformly.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.gen_index(items.len())]
    }

    /// Picks an index with probability proportional to `weights`.
    ///
    /// # Panics
    /// Panics if weights are empty, negative, or all zero.
    pub fn choose_weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "empty weights");
        let total: f64 = weights
            .iter()
            .map(|w| {
                assert!(*w >= 0.0 && w.is_finite(), "bad weight {w}");
                *w
            })
            .sum();
        assert!(total > 0.0, "all weights zero");
        let mut target = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if target < *w {
                return i;
            }
            target -= *w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_unit_interval_bounds_and_mean() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut sum = 0.0;
        const N: usize = 20_000;
        for _ in 0..N {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_index_unbiased_small_range() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut counts = [0usize; 5];
        const N: usize = 50_000;
        for _ in 0..N {
            counts[rng.gen_index(5)] += 1;
        }
        for c in counts {
            let frac = c as f64 / N as f64;
            assert!((frac - 0.2).abs() < 0.02, "bucket fraction {frac}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed_from_u64(5);
        const N: usize = 50_000;
        let samples: Vec<f64> = (0..N).map(|_| rng.gen_normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / N as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / N as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::seed_from_u64(13);
        const N: usize = 50_000;
        let mean = (0..N).map(|_| rng.gen_exponential(3.0)).sum::<f64>() / N as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn pareto_lower_bound_holds() {
        let mut rng = SimRng::seed_from_u64(17);
        for _ in 0..1000 {
            assert!(rng.gen_pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = SimRng::seed_from_u64(31);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        const N: usize = 40_000;
        for _ in 0..N {
            counts[rng.choose_weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let frac0 = counts[0] as f64 / N as f64;
        assert!((frac0 - 0.25).abs() < 0.02, "frac0 {frac0}");
    }
}
