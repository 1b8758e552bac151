//! Figure 16 (Appendix E.3): measurement-duration strategies — the CDF
//! of relative accuracy when summarising the same 60-second runs by the
//! §4.1 estimate of their first 10, 20, 30, or all 60 seconds.
//!
//! Paper: the 30-second median has the tightest range (0.84–1.01 of
//! ground truth) and is chosen as the deployment setting.

use flashflow_bench::{compare, ground_truth, header, print_cdf, Lab};
use flashflow_core::measure::{estimate, SecondSample};
use flashflow_core::params::Params;
use flashflow_simnet::rng::SimRng;

fn main() {
    let seed = 16;
    header("fig16", "Measurement duration strategies (median of first k seconds)", seed);
    let mut params = Params::paper();
    params.slot = flashflow_simnet::time::SimDuration::from_secs(60);
    // US-E, IN and NL.
    let members = [2, 3, 4];
    let limits: [Option<f64>; 4] = [Some(250.0), Some(500.0), Some(750.0), None];

    // Collect 60-second per-second series across configurations.
    let mut runs: Vec<(Vec<SecondSample>, f64, f64)> = Vec::new(); // (seconds, ratio, ground truth)
    for (li, limit) in limits.iter().enumerate() {
        let gt = ground_truth(*limit, &params);
        for run in 0..6u64 {
            let jitter_seed = seed ^ (li as u64) << 8 ^ run << 24;
            let mut rng = SimRng::seed_from_u64(jitter_seed ^ 0xD00D);
            let mut lab = Lab::new(Some(jitter_seed), *limit);
            let m = lab.measure_split(&members, params.multiplier * gt, &params, &mut rng);
            runs.push((m.seconds, lab.tor.relay(lab.target).config.ratio, gt));
        }
    }

    let mut best: Option<(&str, f64)> = None;
    for (label, k) in [("10s", 10usize), ("20s", 20), ("30s", 30), ("60s", 60)] {
        let fractions: Vec<f64> = runs
            .iter()
            .map(|(seconds, ratio, gt)| {
                let first = &seconds[..k.min(seconds.len())];
                let x: Vec<f64> = first.iter().map(|s| s.x).collect();
                let y: Vec<f64> = first.iter().map(|s| s.y_reported).collect();
                estimate(&x, &y, *ratio).1.bytes_per_sec() / gt
            })
            .collect();
        print_cdf(&format!("{label} median, fraction of capacity"), &fractions, 7);
        let lo = fractions.iter().cloned().fold(f64::MAX, f64::min);
        let hi = fractions.iter().cloned().fold(f64::MIN, f64::max);
        let range = hi - lo;
        println!("  {label}: range [{lo:.3}, {hi:.3}] width {range:.3}");
        if best.map(|(_, w)| range < w).unwrap_or(true) {
            best = Some((label, range));
        }
    }
    compare("tightest strategy", "30s median [0.84, 1.01]", &format!("{:?}", best.map(|b| b.0)));
}
