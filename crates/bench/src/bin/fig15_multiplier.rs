//! Figure 15 (Appendix E.2): the multiplier sweep — relative measured
//! throughput at m ∈ {1.5, 1.75, 2.0, 2.25, 2.5} across team subsets
//! and target capacities.
//!
//! Paper: m = 2.25 is the smallest multiplier with no outliers below
//! 0.8× ground truth.

use flashflow_bench::{ground_truth, header, sufficient_subsets, Boxplot, Lab};
use flashflow_core::params::Params;
use flashflow_simnet::rng::SimRng;

fn main() {
    let seed = 15;
    header("fig15", "Multiplier sweep: relative throughput vs m", seed);
    let params = Params::paper();
    let members = [(1usize, 946.0), (2, 941.0), (3, 1076.0), (4, 1611.0)];
    let limits: [Option<f64>; 5] = [Some(10.0), Some(250.0), Some(500.0), Some(750.0), None];
    let gts: Vec<f64> = limits.iter().map(|&limit| ground_truth(limit, &params)).collect();

    println!("{:>6} {:>60}", "m", "estimate / ground truth");
    let mut first_clean = None;
    for m in [1.5f64, 1.75, 2.0, 2.25, 2.5] {
        let mut fractions = Vec::new();
        for (limit, gt) in limits.iter().zip(&gts) {
            let needed = m * gt;
            for (subset_mask, subset) in sufficient_subsets(&members, needed) {
                let jitter_seed = seed ^ (subset_mask as u64) << 16 ^ (m * 100.0) as u64;
                let mut rng = SimRng::seed_from_u64(jitter_seed ^ 0xBEEF);
                let mut lab = Lab::new(Some(jitter_seed), *limit);
                let meas = lab.measure_split(&subset, needed, &params, &mut rng);
                fractions.push(meas.estimate.bytes_per_sec() / gt);
            }
        }
        let bp = Boxplot::of(&fractions).expect("non-empty");
        let min = fractions.iter().cloned().fold(f64::MAX, f64::min);
        println!("{m:>6.2} {bp}  min={min:.3}  n={}", fractions.len());
        if min >= 0.8 && first_clean.is_none() {
            first_clean = Some(m);
        }
    }
    println!("smallest m with no result below 0.8x ground truth: {:?} (paper: 2.25)", first_clean);
}
