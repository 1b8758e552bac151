//! Synthetic Tor metrics archive generation.
//!
//! The paper analyses 11 years of real archives; this reproduction
//! generates a statistically calibrated synthetic corpus instead
//! (DESIGN.md §1 records the substitution). The generator encodes the
//! paper's own explanation of the data (§3.3): relays are chronically
//! *under-utilised*, so their observed/advertised bandwidth tracks their
//! fluctuating load, not their capacity; utilisation varies on both fast
//! (daily) and slow (weekly/monthly) timescales; the network grows over
//! the years; relays churn.
//!
//! Each relay has:
//! * a fixed true capacity (log-normal across relays);
//! * a utilisation process `u(t) = clamp(base + slow AR(1) + fast AR(1))`;
//! * observed bandwidth = trailing 5-day max of throughput, published to
//!   its descriptor every 18 hours;
//! * a consensus weight = advertised × a slowly-wandering measurement
//!   ratio (TorFlow's noisy speed ratio).

use flashflow_simnet::rng::SimRng;

use crate::archive::{trailing_max, Archive, RelaySeries};

/// Generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// RNG seed.
    pub seed: u64,
    /// Years covered by the archive.
    pub years: f64,
    /// Hours per step (real descriptors arrive every 18 h; 6 h resolves
    /// the daily structure the analysis windows need).
    pub step_hours: f64,
    /// Relay population at the start.
    pub initial_relays: usize,
    /// Relay population at the end (linear ramp).
    pub final_relays: usize,
    /// Mean relay lifetime in days (exponential churn).
    pub mean_lifetime_days: f64,
    /// Mean long-run utilisation across relays.
    pub utilization_mean: f64,
    /// Std-dev of the slow utilisation drift.
    pub utilization_slow_sigma: f64,
    /// Std-dev of the fast (per-step) utilisation noise.
    pub utilization_fast_sigma: f64,
    /// Log-std-dev of the TorFlow measurement ratio noise in weights.
    pub weight_noise_sigma: f64,
    /// Median relay capacity (bytes/s).
    pub median_capacity: f64,
    /// Log-std-dev of capacities across relays.
    pub capacity_sigma: f64,
}

impl SynthConfig {
    /// A configuration shaped like the paper's 2008–2019 corpus, scaled
    /// to a tractable relay count.
    pub fn paper_scale(seed: u64) -> Self {
        SynthConfig {
            seed,
            years: 11.0,
            step_hours: 6.0,
            initial_relays: 120,
            final_relays: 650,
            mean_lifetime_days: 400.0,
            utilization_mean: 0.45,
            utilization_slow_sigma: 0.22,
            utilization_fast_sigma: 0.10,
            weight_noise_sigma: 0.35,
            median_capacity: 12.5e6, // 100 Mbit/s
            capacity_sigma: 1.2,
        }
    }

    /// A small, fast configuration for tests.
    pub fn test_scale(seed: u64) -> Self {
        SynthConfig {
            years: 2.0,
            initial_relays: 30,
            final_relays: 60,
            ..SynthConfig::paper_scale(seed)
        }
    }

    /// Total steps on the grid.
    pub fn steps(&self) -> usize {
        ((self.years * 365.25 * 24.0) / self.step_hours).round() as usize
    }
}

/// Ground truth the generator knows but the archive's "observers" do not.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayTruth {
    /// The relay's true capacity (bytes/s).
    pub capacity: f64,
    /// First step present.
    pub start_step: usize,
    /// One past the last step present.
    pub end_step: usize,
}

/// A generated archive plus its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthArchive {
    /// The observable archive (what §3's analysis consumes).
    pub archive: Archive,
    /// Per-relay ground truth, indexed like the archive's relays.
    pub truths: Vec<RelayTruth>,
}

/// The relays `generate` spawns: one start step per relay, in spawn
/// order, on a grid of `steps` steps whose relays live
/// `lifetime_steps` on average.
struct SpawnSchedule {
    steps: usize,
    lifetime_steps: f64,
    starts: Vec<usize>,
}

impl SpawnSchedule {
    /// Linear population ramp with exponential lifetimes: the initial
    /// population spawns at step zero, then each step spawns what
    /// sustains the ramp (replacement plus growth).
    fn new(cfg: &SynthConfig) -> Self {
        let steps = cfg.steps();
        let lifetime_steps = (cfg.mean_lifetime_days * 24.0 / cfg.step_hours).max(1.0);
        let mut starts: Vec<usize> = vec![0; cfg.initial_relays];
        let growth_per_step = (cfg.final_relays as f64 - cfg.initial_relays as f64) / steps as f64;
        let mut acc = 0.0f64;
        for t in 1..steps {
            let pop_now = cfg.initial_relays as f64 + growth_per_step * t as f64;
            let replacement = pop_now / lifetime_steps;
            acc += replacement + growth_per_step;
            while acc >= 1.0 {
                starts.push(t);
                acc -= 1.0;
            }
        }
        SpawnSchedule { steps, lifetime_steps, starts }
    }

    /// A spawned relay's head draws — its capacity (two raw draws) and
    /// lifetime (one) — and the truth they make, or `None` for a relay
    /// present fewer than two steps, which is dropped before any of its
    /// series is drawn.
    fn draw_truth(&self, rng: &mut SimRng, cfg: &SynthConfig, start: usize) -> Option<RelayTruth> {
        let capacity = cfg.median_capacity * rng.gen_lognormal(0.0, cfg.capacity_sigma);
        let lifetime = rng.gen_exponential(self.lifetime_steps).ceil().max(2.0) as usize;
        let end = (start + lifetime).min(self.steps);
        (end > start + 1).then_some(RelayTruth { capacity, start_step: start, end_step: end })
    }
}

/// The raw `next_u64` draws `generate` makes for the series of a relay
/// present `n` steps, after its head: the base utilisation (a normal,
/// two), the slow and fast utilisation walks (two normals a step), the
/// static weight bias (a `gen_bool` and a normal, three), the ratio's
/// start (a normal, two) and its walk (one normal a step).
fn series_draws(n: usize) -> usize {
    7 + 6 * n
}

/// The ground truth of [`generate`]'s archive without the archive:
/// yields exactly `generate(cfg).truths`, in order, lazily. It walks
/// the same RNG stream — the spawn schedule, each relay's head draws —
/// and steps over each relay's series draws as raw `next_u64`s instead
/// of building series nobody reads, so a caller that only wants
/// capacities pays for the draws it keeps.
pub fn truths(cfg: &SynthConfig) -> impl Iterator<Item = RelayTruth> + '_ {
    let mut schedule = SpawnSchedule::new(cfg);
    let mut starts = std::mem::take(&mut schedule.starts).into_iter();
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    std::iter::from_fn(move || loop {
        let start = starts.next()?;
        if let Some(truth) = schedule.draw_truth(&mut rng, cfg, start) {
            for _ in 0..series_draws(truth.end_step - truth.start_step) {
                rng.next_u64();
            }
            return Some(truth);
        }
    })
}

/// Generates a synthetic archive.
pub fn generate(cfg: &SynthConfig) -> SynthArchive {
    let schedule = SpawnSchedule::new(cfg);
    let steps = schedule.steps;
    let mut archive = Archive::new(cfg.step_hours, steps);
    let mut truths = Vec::new();
    let mut rng = SimRng::seed_from_u64(cfg.seed);

    let window_5d = ((5.0 * 24.0) / cfg.step_hours).round().max(1.0) as usize;
    let publish_every = ((18.0 / cfg.step_hours).round() as usize).max(1);

    for &start in &schedule.starts {
        let Some(truth) = schedule.draw_truth(&mut rng, cfg, start) else { continue };
        let capacity = truth.capacity;
        let n = truth.end_step - start;

        // Utilisation: base + slow AR(1) + fast AR(1), clamped to [0, 1].
        let base = (cfg.utilization_mean + rng.gen_normal(0.0, 0.15)).clamp(0.05, 0.9);
        let slow_ar = 0.999f64;
        let fast_ar = 0.7f64;
        let mut slow = 0.0f64;
        let mut fast = 0.0f64;
        let mut throughput = Vec::with_capacity(n);
        for _ in 0..n {
            slow = slow_ar * slow
                + rng
                    .gen_normal(0.0, (1.0 - slow_ar * slow_ar).sqrt() * cfg.utilization_slow_sigma);
            fast = fast_ar * fast
                + rng
                    .gen_normal(0.0, (1.0 - fast_ar * fast_ar).sqrt() * cfg.utilization_fast_sigma);
            let u = (base + slow + fast).clamp(0.0, 1.0);
            throughput.push(capacity * u);
        }

        // Observed bandwidth: trailing 5-day max of throughput; advertised
        // updates only at descriptor publications.
        let observed = trailing_max(&throughput, window_5d);
        let mut advertised = Vec::with_capacity(n);
        let mut current = observed[0];
        for (i, &o) in observed.iter().enumerate() {
            if i % publish_every == 0 {
                current = o;
            }
            advertised.push(current.min(capacity));
        }

        // Consensus weight: advertised × measurement ratio. The ratio has
        // a *static* per-relay component plus a wandering component. The
        // static part is a mixture matching the paper's Fig. 3: a small
        // minority of relays is strongly over-weighted (TorFlow's speed
        // ratio flatters relays its probes happen to favour) while the
        // large majority sit slightly below their fair share — which
        // yields >80% under-weighting at a 20–30% total-variation error.
        let static_bias =
            if rng.gen_bool(0.10) { rng.gen_normal(1.5, 0.5) } else { rng.gen_normal(-0.15, 0.30) };
        let ratio_ar = 0.98f64;
        let mut log_ratio = rng.gen_normal(0.0, cfg.weight_noise_sigma);
        let mut weight = Vec::with_capacity(n);
        for &a in &advertised {
            log_ratio = ratio_ar * log_ratio
                + rng.gen_normal(0.0, (1.0 - ratio_ar * ratio_ar).sqrt() * cfg.weight_noise_sigma);
            weight.push(a * (static_bias + log_ratio).exp());
        }

        archive.add_relay(RelaySeries { start_step: start, advertised, weight });
        truths.push(truth);
    }

    SynthArchive { archive, truths }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{mean_rce_per_relay, nce_series, nwe_series};
    use flashflow_simnet::stats::median;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&SynthConfig::test_scale(5));
        let b = generate(&SynthConfig::test_scale(5));
        assert_eq!(a.archive, b.archive);
        let c = generate(&SynthConfig::test_scale(6));
        assert_ne!(a.archive, c.archive);
    }

    /// `truths` walks the stream `generate` draws: over 100+
    /// configurations — the coordinator roster's own, a one-step grid
    /// where every relay is dropped, quarter-day lifetimes, and random
    /// shapes — it yields `generate`'s truths bit for bit.
    #[test]
    fn truths_walk_the_stream_generate_draws() {
        let mut configs = vec![
            SynthConfig {
                years: 0.05,
                initial_relays: 1000,
                final_relays: 1000,
                ..SynthConfig::paper_scale(7301)
            },
            SynthConfig { years: 6.0 / (365.25 * 24.0), ..SynthConfig::test_scale(3) },
            SynthConfig { years: 0.05, mean_lifetime_days: 0.25, ..SynthConfig::test_scale(5) },
        ];
        let mut rng = SimRng::seed_from_u64(0x5EED_7A11);
        while configs.len() < 120 {
            let years = [0.001, 0.002, 0.01, 0.05, 0.2, 0.5][rng.gen_index(6)];
            configs.push(SynthConfig {
                years,
                initial_relays: rng.gen_index(300),
                final_relays: rng.gen_index(300),
                mean_lifetime_days: rng.gen_range_f64(0.05, 600.0),
                ..SynthConfig::paper_scale(rng.next_u64())
            });
        }
        let bits = |truths: &[RelayTruth]| -> Vec<(u64, usize, usize)> {
            truths.iter().map(|t| (t.capacity.to_bits(), t.start_step, t.end_step)).collect()
        };
        for cfg in &configs {
            let walked: Vec<RelayTruth> = truths(cfg).collect();
            assert_eq!(bits(&walked), bits(&generate(cfg).truths), "{cfg:?}");
        }
    }

    #[test]
    fn advertised_never_exceeds_capacity() {
        let s = generate(&SynthConfig::test_scale(7));
        for (r, truth) in s.truths.iter().enumerate() {
            for &a in &s.archive.relay(r).advertised {
                assert!(a <= truth.capacity + 1e-9);
            }
        }
    }

    #[test]
    fn population_grows() {
        let s = generate(&SynthConfig::test_scale(8));
        let early = s.archive.relay_ids().filter(|&r| s.archive.present(r, 10)).count();
        let late_step = s.archive.steps - 10;
        let late = s.archive.relay_ids().filter(|&r| s.archive.present(r, late_step)).count();
        assert!(late > early, "population should grow: {early} → {late}");
    }

    #[test]
    fn rce_increases_with_period_like_fig1() {
        let s = generate(&SynthConfig::test_scale(9));
        let (d, w, m, y) = s.archive.period_steps();
        let med = |p| median(&mean_rce_per_relay(&s.archive, p, 8)).unwrap();
        let (md, mw, mm, my) = (med(d), med(w), med(m), med(y));
        assert!(md < mw && mw < mm && mm <= my, "medians {md:.3} {mw:.3} {mm:.3} {my:.3}");
        assert!(md < 0.15, "day-window error should be small: {md:.3}");
        assert!(my > 0.10, "year-window error should be large: {my:.3}");
    }

    #[test]
    fn nce_is_substantial_at_year_window() {
        let s = generate(&SynthConfig::test_scale(10));
        let (_, _, _, y) = s.archive.period_steps();
        let series = nce_series(&s.archive, y);
        // Skip the first year (window warm-up).
        let tail = &series[series.len() / 2..];
        let med = median(tail).unwrap();
        assert!(med > 0.08, "median year-window NCE {med:.3}");
        assert!(med < 0.7, "median year-window NCE {med:.3}");
    }

    #[test]
    fn nwe_in_paper_range() {
        let s = generate(&SynthConfig::test_scale(11));
        let (d, ..) = s.archive.period_steps();
        let series = nwe_series(&s.archive, d);
        let tail = &series[series.len() / 2..];
        let med = median(tail).unwrap();
        // Paper: medians 21–30% depending on window; accept a band.
        assert!((0.08..0.45).contains(&med), "median NWE {med:.3}");
    }
}
