//! Figure 6: FlashFlow accuracy without background traffic — CDFs of
//! estimate/ground-truth over every sufficient measurement-team subset,
//! target limits of 10/250/500/750/unlimited Mbit/s, 7 repetitions each.
//!
//! Paper: 99.8% of runs inside the (−20%, +5%) error bounds; 95% within
//! ±11%.

use flashflow_bench::{compare, ground_truth, header, print_cdf, sufficient_subsets, Lab};
use flashflow_core::params::Params;
use flashflow_simnet::rng::SimRng;

fn main() {
    let seed = 6;
    header("fig06", "FlashFlow accuracy across team subsets and capacities", seed);
    let params = Params::paper();
    // Team member capacities (Table 1 measured): US-NW, US-E, IN, NL.
    let members = [(1usize, 946.0), (2, 941.0), (3, 1076.0), (4, 1611.0)];
    let limits: [(&str, Option<f64>); 5] = [
        ("10 Mbit/s", Some(10.0)),
        ("250 Mbit/s", Some(250.0)),
        ("500 Mbit/s", Some(500.0)),
        ("750 Mbit/s", Some(750.0)),
        ("unlimited", None),
    ];

    let mut all_fractions: Vec<f64> = Vec::new();
    for (label, limit) in limits {
        let gt = ground_truth(limit, &params);
        let needed = params.excess_factor() * gt;
        let mut fractions = Vec::new();
        // Paper: every subset of the four measurers that can take an
        // even split of the demand.
        for (subset_mask, subset) in sufficient_subsets(&members, needed) {
            for run in 0..7u64 {
                let jitter_seed = seed ^ (subset_mask as u64) << 8 ^ run << 32;
                let mut rng = SimRng::seed_from_u64(jitter_seed ^ 0xF00D);
                let mut lab = Lab::new(Some(jitter_seed), limit);
                let m = lab.measure_split(&subset, needed, &params, &mut rng);
                fractions.push(m.estimate.bytes_per_sec() / gt);
            }
        }
        print_cdf(&format!("throughput fraction of capacity, {label}"), &fractions, 9);
        all_fractions.extend(fractions);
    }

    let within_11 = all_fractions.iter().filter(|f| (0.89..=1.11).contains(*f)).count() as f64
        / all_fractions.len() as f64;
    let within_bounds = all_fractions
        .iter()
        .filter(|f| (1.0 - params.epsilon1..=1.0 + params.epsilon2).contains(*f))
        .count() as f64
        / all_fractions.len() as f64;
    compare("runs within +-11% of capacity", "95%", &format!("{:.1}%", within_11 * 100.0));
    compare("runs within (-20%,+5%) bounds", "99.8%", &format!("{:.1}%", within_bounds * 100.0));
    println!("total runs: {}", all_fractions.len());
}
