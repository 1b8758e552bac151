//! §7 "Network Measurement Efficiency": how fast a 3 × 1 Gbit/s team
//! measures the whole July-2019 network with its slots packed largest
//! prior first, and how quickly new relays get their first measurement
//! in a period drawn in §4.3's secret order.
//!
//! Paper: median day needs 599 30-second slots (~5 h, range 4.9–5.1) for
//! a median 6,419 relays / 608 Gbit/s; new relays (median 3 per
//! consensus, prior = 51 Mbit/s) are measured within a median 30 s,
//! max 13 min.

use flashflow_bench::{compare, gbit_team, header, packed_slots};
use flashflow_core::params::Params;
use flashflow_core::sequence::{measure_period, perfect_slot, Order, ToMeasure};
use flashflow_simnet::rng::SimRng;
use flashflow_simnet::stats::median;
use flashflow_simnet::units::Rate;

fn main() {
    let seed = 77;
    header("exp_network_speed", "Whole-network measurement efficiency", seed);
    let params = Params::paper();
    let team = gbit_team(3);

    // 31 "days" of July: re-sample the network each day.
    let mut slot_counts = Vec::new();
    let mut relay_counts = Vec::new();
    let mut totals = Vec::new();
    for day in 0..31u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ day);
        let n = 6355 + rng.gen_index(174); // paper range 6355..6528
        let caps: Vec<Rate> = (0..n)
            .map(|_| Rate::from_mbit((36.0 * rng.gen_lognormal(0.0, 1.45)).min(998.0)))
            .collect();
        let slots = packed_slots(&team, &params, caps.iter().map(|c| c.bytes_per_sec()));
        slot_counts.push(slots as f64);
        relay_counts.push(n as f64);
        totals.push(caps.iter().map(|c| c.as_gbit()).sum::<f64>());
    }
    let med_slots = median(&slot_counts).unwrap();
    let med_hours = med_slots * params.slot.as_secs_f64() / 3600.0;
    let (lo, hi) = flashflow_simnet::stats::min_max(&slot_counts).unwrap();
    compare("median slots for whole network", "599", &format!("{med_slots:.0}"));
    compare(
        "median hours (min-max)",
        "5.0 (4.9-5.1)",
        &format!(
            "{med_hours:.1} ({:.1}-{:.1})",
            lo * params.slot.as_secs_f64() / 3600.0,
            hi * params.slot.as_secs_f64() / 3600.0
        ),
    );
    compare("median relays measured", "6419", &format!("{:.0}", median(&relay_counts).unwrap()));
    compare(
        "median total capacity",
        "608 Gbit/s",
        &format!("{:.0} Gbit/s", median(&totals).unwrap()),
    );

    // New-relay latency: the old relays draw their slots in the secret
    // order, then new arrivals (median 3 per hourly consensus, prior
    // 51 Mbit/s) go to the earliest slot with room from their arrival on.
    let mut rng = SimRng::seed_from_u64(seed ^ 0x4E455721);
    let mut relays: Vec<ToMeasure<usize>> = (0..6419)
        .map(|i| {
            let cap = Rate::from_mbit((36.0 * rng.gen_lognormal(0.0, 1.45)).min(998.0));
            (i, cap.bytes_per_sec()).into()
        })
        .collect();
    let prior = Rate::from_mbit(51.0).bytes_per_sec();
    let slots_per_hour = 3600 / params.slot.as_secs() as usize;
    for hour in 0..24usize {
        for _ in 0..[3usize, 0, 5, 2, 3, 1][hour % 6] {
            let arrives = Some(hour * slots_per_hour);
            relays.push(ToMeasure { key: relays.len(), z0: prior, arrives });
        }
    }
    let mut waits_secs = Vec::new();
    let order = Order::Secret { seed };
    measure_period(&team, &params, order, relays.iter().copied(), 1, |index, slot| {
        for item in slot {
            if let Some(arrival) = relays[item.key].arrives {
                waits_secs.push(((index - arrival) as f64 + 1.0) * params.slot.as_secs_f64());
            }
        }
        perfect_slot(index, slot)
    });
    let med_wait = median(&waits_secs).unwrap();
    let max_wait = waits_secs.iter().cloned().fold(f64::MIN, f64::max);
    compare("median time to measure a new relay", "30 s", &format!("{med_wait:.0} s"));
    compare("max time to measure a new relay", "13 min", &format!("{:.1} min", max_wait / 60.0));
}
