//! The §7 experiment driver: measure the private network with FlashFlow
//! and TorFlow, then re-run it under each system's weights at 100%, 115%,
//! and 130% client load (Figures 8 and 9).

use std::collections::BTreeMap;

use flashflow_core::measure::{batch_for, run_concurrent_measurements, Measurement};
use flashflow_core::params::Params;
use flashflow_core::sequence::measure_period;
use flashflow_core::team::Team;
use flashflow_core::verify::TargetBehavior;
use flashflow_metrics::error::nwe_against_truth;
use flashflow_simnet::rng::SimRng;
use flashflow_simnet::stats::SecondsAccumulator;
use flashflow_simnet::time::SimDuration;
use flashflow_simnet::units::Rate;
use flashflow_tornet::relay::RelayId;

use flashflow_balance::torflow::{compute_weights, file_size_for};
use flashflow_tornet::sched::Scheduler;

use crate::benchmark::{BenchmarkDriver, SizeClass, TransferRecord};
use crate::config::ShadowConfig;
use crate::sample::{build_network, PrivateNetwork};
use crate::tgen::{MarkovDriver, MarkovParams};

/// Which load-balancing system produced a weight vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// FlashFlow capacities as weights.
    FlashFlow,
    /// TorFlow advertised × speed-ratio weights.
    TorFlow,
}

impl System {
    /// Display label ("FF"/"TF" as in Figure 9's x-axis).
    pub fn label(self) -> &'static str {
        match self {
            System::FlashFlow => "FF",
            System::TorFlow => "TF",
        }
    }
}

/// Output of the measurement phase (Figure 8).
#[derive(Debug, Clone)]
pub struct MeasurementPhase {
    /// Per-relay FlashFlow capacity estimates (bytes/s), relay order.
    pub flashflow_estimates: Vec<f64>,
    /// FlashFlow weights (same as estimates).
    pub flashflow_weights: Vec<f64>,
    /// TorFlow weights.
    pub torflow_weights: Vec<f64>,
    /// Ground-truth capacities.
    pub true_capacities: Vec<f64>,
    /// FlashFlow relay capacity error per relay (`|1 − est/true|`).
    pub flashflow_rce: Vec<f64>,
    /// FlashFlow per-relay weight error `log10(W/C̄)`.
    pub flashflow_rwe_log10: Vec<f64>,
    /// TorFlow per-relay weight error `log10(W/C̄)`.
    pub torflow_rwe_log10: Vec<f64>,
    /// FlashFlow network weight error (Eq. 6 vs truth).
    pub flashflow_nwe: f64,
    /// TorFlow network weight error.
    pub torflow_nwe: f64,
    /// FlashFlow network capacity error `1 − Σest/Σtrue` (±).
    pub flashflow_nce: f64,
}

fn rwe_log10(weights: &[f64], truths: &[f64]) -> Vec<f64> {
    let wsum: f64 = weights.iter().sum();
    let csum: f64 = truths.iter().sum();
    weights
        .iter()
        .zip(truths)
        .map(|(w, c)| {
            let wn = (w / wsum).max(1e-12);
            let cn = (c / csum).max(1e-12);
            (wn / cn).log10()
        })
        .collect()
}

/// Warm-up prior weights: capacity with log-normal misestimation noise —
/// the stale consensus the network is running before the experiment.
fn prior_weights(capacities: &[f64], rng: &mut SimRng) -> Vec<f64> {
    capacities.iter().map(|c| c * rng.gen_lognormal(-0.2, 0.45)).collect()
}

/// Runs the measurement phase on a fresh network: warm-up background
/// traffic, TorFlow scan, FlashFlow full-network measurement.
pub fn run_measurement_phase(cfg: &ShadowConfig) -> MeasurementPhase {
    let mut net = build_network(cfg);
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x4D45_4153);
    let priors = prior_weights(&net.capacities, &mut rng);

    // Background traffic throughout.
    let mut markov = MarkovDriver::new(
        cfg.markov_clients,
        &net.client_hosts,
        &net.server_hosts,
        &net.relays,
        &priors,
        MarkovParams::default(),
        rng.fork(),
    );

    // Warm-up so observed bandwidths form.
    let warm_end = net.tor.now() + cfg.warmup;
    while net.tor.now() < warm_end {
        net.tor.tick();
        markov.on_tick(&mut net.tor);
    }

    // Advertised bandwidths from the relays' own observed-bandwidth
    // heuristic — TorFlow's first input.
    let advertised: BTreeMap<RelayId, Rate> =
        net.relays.iter().map(|r| (*r, net.tor.relay(*r).observed.advertised(None))).collect();

    // TorFlow scan: one 2-hop probe per relay, with background running.
    let scanner = net.client_hosts[0];
    let server = net.server_hosts[0];
    let mut speeds: BTreeMap<RelayId, f64> = BTreeMap::new();
    let relay_list = net.relays.clone();
    for &target in &relay_list {
        let partner = loop {
            let p = *rng.choose(&relay_list);
            if p != target {
                break p;
            }
        };
        let adv = advertised[&target].max(Rate::from_kbit(64.0));
        let size = file_size_for(adv);
        let flow =
            net.tor.start_client_traffic(server, &[target, partner], scanner, 1, Scheduler::Kist);
        net.tor.net.engine_mut().set_flow_budget(flow, size);
        let deadline = net.tor.now() + SimDuration::from_secs(30);
        while net.tor.now() < deadline && net.tor.net.engine().flow_finished_at(flow).is_none() {
            net.tor.tick();
            markov.on_tick(&mut net.tor);
        }
        let started = net.tor.net.engine().flow_started_at(flow);
        let speed = match net.tor.net.engine().flow_finished_at(flow) {
            Some(t) => size / t.duration_since(started).as_secs_f64().max(1e-3),
            None => {
                let got = net.tor.net.engine().flow_bytes(flow);
                net.tor.net.engine_mut().stop_flow(flow);
                got / 30.0
            }
        };
        speeds.insert(target, speed);
    }
    let torflow_map = compute_weights(&advertised, &speeds);
    let torflow_weights: Vec<f64> =
        net.relays.iter().map(|r| torflow_map.get(r).copied().unwrap_or(0.0)).collect();

    // FlashFlow: 3 × 1 Gbit/s team, slot-packed concurrent measurements
    // with the background traffic still running between slots.
    let params = Params::paper();
    let team = Team::with_capacities(
        &net.measurer_hosts.iter().map(|h| (*h, cfg.team_capacity_each)).collect::<Vec<_>>(),
    );
    let estimates =
        measure_network_with_background(&mut net, &mut markov, &team, &params, &mut rng);
    let flashflow_estimates: Vec<f64> =
        net.relays.iter().map(|r| estimates.get(r).copied().unwrap_or(0.0)).collect();

    let true_capacities = net.capacities.clone();
    let flashflow_rce: Vec<f64> = flashflow_estimates
        .iter()
        .zip(&true_capacities)
        .map(|(e, t)| (1.0 - e / t).abs())
        .collect();
    let flashflow_nwe = nwe_against_truth(&flashflow_estimates, &true_capacities);
    let torflow_nwe = nwe_against_truth(&torflow_weights, &true_capacities);
    let est_total: f64 = flashflow_estimates.iter().sum();
    let true_total: f64 = true_capacities.iter().sum();

    MeasurementPhase {
        flashflow_rwe_log10: rwe_log10(&flashflow_estimates, &true_capacities),
        torflow_rwe_log10: rwe_log10(&torflow_weights, &true_capacities),
        flashflow_weights: flashflow_estimates.clone(),
        flashflow_estimates,
        torflow_weights,
        true_capacities,
        flashflow_rce,
        flashflow_nwe,
        torflow_nwe,
        flashflow_nce: 1.0 - est_total / true_total,
    }
}

/// FlashFlow whole-network measurement with the Markov driver ticking
/// between slots: a [`measure_period`] from the relays' observed
/// bandwidths, returning per-relay estimates in bytes/s.
pub fn measure_network_with_background(
    net: &mut PrivateNetwork,
    markov: &mut MarkovDriver,
    team: &Team,
    params: &Params,
    rng: &mut SimRng,
) -> BTreeMap<RelayId, f64> {
    // Priors: new-relay style — the 75th percentile of (a noisy view of)
    // current advertised values; here we simply start at the observed
    // bandwidths, which is what a first deployment would have.
    let priors: Vec<(RelayId, f64)> = net
        .relays
        .iter()
        .map(|r| (*r, net.tor.relay(*r).observed.observed().bytes_per_sec().max(1e6)))
        .collect();
    let settled = measure_period(team, params, priors, 5, |slot| {
        let batch = batch_for(team, params, slot, &|_| TargetBehavior::Honest);
        let measured = run_concurrent_measurements(&mut net.tor, &batch, params, rng);
        // Let the background clients respawn with the elapsed slot time.
        markov.on_tick(&mut net.tor);
        measured.iter().map(Measurement::slot_result).collect()
    });
    settled.iter().map(|s| (s.key, s.estimate)).collect()
}

/// Result of one performance run (one system × one load level).
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// Which system's weights were installed.
    pub system: System,
    /// Load multiplier (1.0 / 1.15 / 1.30).
    pub load: f64,
    /// All transfer records.
    pub records: Vec<TransferRecord>,
    /// Per-second total relay throughput (bytes).
    pub throughput_series: Vec<f64>,
}

impl LoadResult {
    /// Completed TTLB samples for a class.
    pub fn ttlb(&self, class: SizeClass) -> Vec<f64> {
        self.records.iter().filter(|r| r.class == class).filter_map(|r| r.ttlb).collect()
    }

    /// All TTFB samples.
    pub fn ttfb(&self) -> Vec<f64> {
        self.records.iter().filter_map(|r| r.ttfb).collect()
    }

    /// Timeout rate over all transfers.
    pub fn failure_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.timed_out).count() as f64 / self.records.len() as f64
    }
}

/// Runs one performance simulation: fresh network (same seed), the given
/// weights installed for circuit selection, `load × markov_clients`
/// background clients plus the benchmark clients.
pub fn run_performance(
    cfg: &ShadowConfig,
    system: System,
    weights: &[f64],
    load: f64,
) -> LoadResult {
    let mut net = build_network(cfg);
    assert_eq!(weights.len(), net.relays.len(), "weights mismatch");
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x5045_5246 ^ (load * 100.0) as u64);
    // Guard against degenerate weight vectors: selection needs ≥3
    // positive entries.
    let mut w = weights.to_vec();
    let positives = w.iter().filter(|x| **x > 0.0).count();
    assert!(positives >= 3, "need at least 3 positively weighted relays");

    let n_markov = ((cfg.markov_clients as f64) * load).round() as usize;
    let mut markov = MarkovDriver::new(
        n_markov,
        &net.client_hosts,
        &net.server_hosts,
        &net.relays,
        &w,
        MarkovParams::default(),
        rng.fork(),
    );
    let mut bench = BenchmarkDriver::new(
        cfg.benchmark_clients,
        &net.client_hosts,
        &net.server_hosts,
        &net.relays,
        &w,
        rng.fork(),
    );

    // Short ramp so the load is established before benchmarking counts.
    let ramp_end = net.tor.now() + SimDuration::from_secs(30);
    while net.tor.now() < ramp_end {
        net.tor.tick();
        markov.on_tick(&mut net.tor);
    }

    let mut throughput_acc = SecondsAccumulator::new();
    let dt = net.tor.net.engine().tick_duration().as_secs_f64();
    let end = net.tor.now() + cfg.bench_duration;
    while net.tor.now() < end {
        net.tor.tick();
        markov.on_tick(&mut net.tor);
        bench.on_tick(&mut net.tor);
        let relay_bytes: f64 =
            net.relays.iter().map(|r| net.tor.relay_forwarded_last_tick(*r)).sum();
        throughput_acc.push(relay_bytes, dt);
    }
    w.clear();

    LoadResult {
        system,
        load,
        records: bench.records,
        throughput_series: throughput_acc.into_seconds(),
    }
}

/// The complete §7 experiment: one measurement phase, then performance
/// runs for both systems at each load level.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Figure 8 data.
    pub measurement: MeasurementPhase,
    /// Figure 9 data, in (system, load) order.
    pub loads: Vec<LoadResult>,
}

/// Runs everything. `load_levels` is typically `[1.0, 1.15, 1.30]`.
pub fn run_experiment(cfg: &ShadowConfig, load_levels: &[f64]) -> Experiment {
    let measurement = run_measurement_phase(cfg);
    let mut loads = Vec::new();
    for &load in load_levels {
        loads.push(run_performance(cfg, System::TorFlow, &measurement.torflow_weights, load));
        loads.push(run_performance(cfg, System::FlashFlow, &measurement.flashflow_weights, load));
    }
    Experiment { measurement, loads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_simnet::stats::median;

    #[test]
    fn measurement_phase_flashflow_beats_torflow() {
        let cfg = ShadowConfig::test_scale(31);
        let phase = run_measurement_phase(&cfg);
        assert!(
            phase.flashflow_nwe < phase.torflow_nwe,
            "FlashFlow NWE {:.3} should beat TorFlow {:.3}",
            phase.flashflow_nwe,
            phase.torflow_nwe
        );
        // FlashFlow's network weight error should be small (paper: 4%).
        assert!(phase.flashflow_nwe < 0.15, "FlashFlow NWE {:.3}", phase.flashflow_nwe);
        // Median per-relay capacity error in a sane band (paper: 16%).
        let med_rce = median(&phase.flashflow_rce).unwrap();
        assert!(med_rce < 0.30, "median RCE {med_rce:.3}");
    }

    #[test]
    fn performance_run_produces_transfers() {
        let cfg = ShadowConfig::test_scale(32);
        let phase = run_measurement_phase(&cfg);
        let result = run_performance(&cfg, System::FlashFlow, &phase.flashflow_weights, 1.0);
        assert!(result.records.len() > 10, "records {}", result.records.len());
        assert!(!result.throughput_series.is_empty());
        let tput = median(&result.throughput_series).unwrap();
        assert!(tput > 0.0);
    }
}
