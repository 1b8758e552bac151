//! Micro-benchmarks of FlashFlow's core algorithms: the allocator, the
//! slot packer in both orders, the max-min fair solver, the metrics
//! analyses, the onion crypto, and a full measurement slot — the hot
//! paths of a deployment and of this reproduction.
//!
//! Criterion is unavailable in the build environment, so this is a plain
//! `harness = false` benchmark: each case is timed with
//! `std::time::Instant` over enough iterations to smooth noise, and the
//! median per-iteration time is printed in Criterion-like rows.

use std::hint::black_box;
use std::time::Instant;

use flashflow_bench::{gbit_team, packed_slots};
use flashflow_core::alloc::greedy_allocate;
use flashflow_core::params::Params;
use flashflow_core::sequence::{measure_period, measure_relay, perfect_slot, Order};
use flashflow_core::team::Team;
use flashflow_core::verify::TargetBehavior;
use flashflow_simnet::flow::{max_min_rates, AllocFlow};
use flashflow_simnet::host::HostProfile;
use flashflow_simnet::resource::ResourceId;
use flashflow_simnet::rng::SimRng;
use flashflow_simnet::units::Rate;
use flashflow_tornet::netbuild::TorNet;
use flashflow_tornet::relay::RelayConfig;

/// Times `f` over `iters` iterations, repeated `samples` times; returns
/// the median nanoseconds per iteration.
fn time_ns<T>(samples: usize, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    per_iter[per_iter.len() / 2]
}

fn report(name: &str, ns: f64) {
    if ns >= 1e9 {
        println!("{name:<55} {:>12.3} s/iter", ns / 1e9);
    } else if ns >= 1e6 {
        println!("{name:<55} {:>12.3} ms/iter", ns / 1e6);
    } else if ns >= 1e3 {
        println!("{name:<55} {:>12.3} us/iter", ns / 1e3);
    } else {
        println!("{name:<55} {ns:>12.0} ns/iter");
    }
}

fn bench_greedy_allocate() {
    let residual: Vec<f64> = (0..64).map(|i| 1e8 + (i as f64) * 1e6).collect();
    let ns = time_ns(9, 2000, || greedy_allocate(black_box(&residual), 3e9).unwrap());
    report("alloc/greedy_allocate_64_measurers", ns);
}

/// Priors (bytes/s) of `n` relays with July-2019-like capacities.
fn prior_set(n: usize) -> Vec<f64> {
    let mut rng = SimRng::seed_from_u64(1);
    (0..n)
        .map(|_| Rate::from_mbit((36.0 * rng.gen_lognormal(0.0, 1.45)).min(998.0)).bytes_per_sec())
        .collect()
}

fn bench_packed_period() {
    let params = Params::paper();
    let (team, priors) = (gbit_team(3), prior_set(6500));
    let ns = time_ns(5, 1, || packed_slots(&team, &params, priors.iter().copied()));
    report("sequence/packed_period_6500_relays", ns);
}

fn bench_secret_period() {
    let params = Params::paper();
    let (team, priors) = (gbit_team(3), prior_set(1000));
    let order = Order::Secret { seed: 7 };
    let ns = time_ns(7, 5, || {
        measure_period(&team, &params, order, priors.iter().copied().enumerate(), 1, perfect_slot)
    });
    report("sequence/secret_period_1000_relays", ns);
}

fn bench_max_min() {
    // A shadow-sim-scale allocation: 400 flows over 1500 resources.
    let mut rng = SimRng::seed_from_u64(2);
    let capacities: Vec<f64> = (0..1500).map(|_| rng.gen_range_f64(1e6, 1e9)).collect();
    // Fabricate ResourceIds through an engine.
    let mut eng = flashflow_simnet::engine::Engine::new(Default::default());
    let ids: Vec<ResourceId> = (0..1500)
        .map(|_| {
            eng.add_resource(flashflow_simnet::resource::Resource::pipe("r", Rate::from_mbit(1.0)))
        })
        .collect();
    let paths: Vec<Vec<ResourceId>> =
        (0..400).map(|_| (0..17).map(|_| ids[rng.gen_index(1500)]).collect()).collect();
    let flows: Vec<AllocFlow<'_>> = paths
        .iter()
        .map(|p| AllocFlow { path: p, weight: 1.0 + rng.gen_index(4) as f64, cap: None })
        .collect();
    let ns = time_ns(9, 20, || max_min_rates(black_box(&capacities), black_box(&flows)));
    report("simnet/max_min_400_flows_1500_resources", ns);
}

fn bench_measurement_slot() {
    let ns = time_ns(3, 1, || {
        let mut tor = TorNet::new();
        let m1 = tor.add_host(HostProfile::us_e());
        let m2 = tor.add_host(HostProfile::host_nl());
        let h = tor.add_host(HostProfile::us_sw());
        let relay = tor.add_relay(h, RelayConfig::new("t").with_rate_limit(Rate::from_mbit(250.0)));
        let team =
            Team::with_capacities(&[(m1, Rate::from_mbit(941.0)), (m2, Rate::from_mbit(1611.0))]);
        let mut rng = SimRng::seed_from_u64(3);
        let prior = Rate::from_mbit(250.0);
        let honesty = TargetBehavior::Honest;
        measure_relay(&mut tor, relay, &team, prior, &Params::paper(), honesty, &mut rng, 1)
            .unwrap()
    });
    report("core/measure_relay_one_round_30s_slot", ns);
}

fn bench_archive_analysis() {
    use flashflow_metrics::error::nwe_series;
    use flashflow_metrics::synth::{generate, SynthConfig};
    let synth = generate(&SynthConfig::test_scale(4));
    let (d, ..) = synth.archive.period_steps();
    let ns = time_ns(5, 3, || nwe_series(black_box(&synth.archive), d));
    report("metrics/nwe_series_2y_archive", ns);
}

fn bench_onion_crypto() {
    use flashflow_tornet::cell::PAYLOAD_LEN;
    use flashflow_tornet::crypto::{RelayLayer, SharedKey};
    let mut layer = RelayLayer::new(SharedKey::from_raw(42));
    let mut payload = [0xA5u8; PAYLOAD_LEN];
    let ns = time_ns(9, 5000, || {
        layer.peel_outbound(black_box(&mut payload));
    });
    report("tornet/relay_peel_one_cell", ns);
}

fn main() {
    bench_greedy_allocate();
    bench_packed_period();
    bench_secret_period();
    bench_max_min();
    bench_measurement_slot();
    bench_archive_analysis();
    bench_onion_crypto();
}
