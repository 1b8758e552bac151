//! Benchmark clients (§7: "40 TGen clients that mirror Tor's performance
//! benchmarking process by repeatedly downloading 50 KiB, 1 MiB, and
//! 5 MiB files (timeouts are set to 15, 60, and 120 seconds,
//! respectively)").

use flashflow_simnet::engine::FlowId;
use flashflow_simnet::host::HostId;
use flashflow_simnet::rng::SimRng;
use flashflow_simnet::time::{SimDuration, SimTime};
use flashflow_tornet::netbuild::TorNet;
use flashflow_tornet::relay::RelayId;
use flashflow_tornet::sched::Scheduler;

use crate::sample::sample_circuit;

/// The three benchmark transfer sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// 50 KiB, 15-second timeout.
    Small,
    /// 1 MiB, 60-second timeout.
    Medium,
    /// 5 MiB, 120-second timeout.
    Large,
}

impl SizeClass {
    /// All classes in paper order.
    pub fn all() -> [SizeClass; 3] {
        [SizeClass::Small, SizeClass::Medium, SizeClass::Large]
    }

    /// Transfer size in bytes.
    pub fn bytes(self) -> f64 {
        match self {
            SizeClass::Small => 50.0 * 1024.0,
            SizeClass::Medium => 1024.0 * 1024.0,
            SizeClass::Large => 5.0 * 1024.0 * 1024.0,
        }
    }

    /// The benchmark timeout.
    fn timeout(self) -> SimDuration {
        match self {
            SizeClass::Small => SimDuration::from_secs(15),
            SizeClass::Medium => SimDuration::from_secs(60),
            SizeClass::Large => SimDuration::from_secs(120),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SizeClass::Small => "50KiB",
            SizeClass::Medium => "1MiB",
            SizeClass::Large => "5MiB",
        }
    }
}

/// One completed (or failed) benchmark transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferRecord {
    /// Size class.
    pub class: SizeClass,
    /// Time to first byte (seconds), if any byte arrived.
    pub ttfb: Option<f64>,
    /// Time to last byte (seconds), if completed.
    pub ttlb: Option<f64>,
    /// True if the transfer hit its timeout.
    pub timed_out: bool,
}

#[derive(Debug)]
struct ActiveTransfer {
    flow: FlowId,
    class: SizeClass,
    started: SimTime,
    circuit_rtt: f64,
    ttfb: Option<f64>,
}

#[derive(Debug)]
enum BenchState {
    Idle { until: SimTime, next_class: usize },
    Running(ActiveTransfer),
}

#[derive(Debug)]
struct BenchClient {
    host: HostId,
    state: BenchState,
}

/// Drives the benchmark clients; call [`BenchmarkDriver::on_tick`] once
/// per engine tick.
#[derive(Debug)]
pub struct BenchmarkDriver {
    clients: Vec<BenchClient>,
    relays: Vec<RelayId>,
    weights: Vec<f64>,
    servers: Vec<HostId>,
    pause: SimDuration,
    rng: SimRng,
    /// Completed/failed transfer records.
    pub records: Vec<TransferRecord>,
}

impl BenchmarkDriver {
    /// Creates `n_clients` benchmark clients cycling through the three
    /// sizes with a pause between fetches.
    pub fn new(
        n_clients: usize,
        client_hosts: &[HostId],
        servers: &[HostId],
        relays: &[RelayId],
        weights: &[f64],
        rng: SimRng,
    ) -> Self {
        assert!(!client_hosts.is_empty() && !servers.is_empty(), "empty host pools");
        let mut rng = rng;
        let clients = (0..n_clients)
            .map(|i| BenchClient {
                host: client_hosts[i % client_hosts.len()],
                state: BenchState::Idle {
                    until: SimTime::from_secs_f64(rng.gen_range_f64(0.0, 5.0)),
                    next_class: i % 3,
                },
            })
            .collect();
        BenchmarkDriver {
            clients,
            relays: relays.to_vec(),
            weights: weights.to_vec(),
            servers: servers.to_vec(),
            pause: SimDuration::from_secs(5),
            rng,
            records: Vec::new(),
        }
    }

    /// Advances the benchmark state machines; call after `tor.tick()`.
    pub fn on_tick(&mut self, tor: &mut TorNet) {
        let now = tor.now();
        for client in &mut self.clients {
            match &mut client.state {
                BenchState::Idle { until, next_class } => {
                    if now >= *until {
                        let class = SizeClass::all()[*next_class % 3];
                        let circuit = sample_circuit(&self.relays, &self.weights, &mut self.rng);
                        let server = *self.rng.choose(&self.servers);
                        let circuit_rtt =
                            tor.circuit_rtt(client.host, &circuit, server).as_secs_f64();
                        let flow = tor.start_client_traffic(
                            server,
                            &circuit,
                            client.host,
                            1,
                            Scheduler::Kist,
                        );
                        tor.net.engine_mut().set_flow_budget(flow, class.bytes());
                        client.state = BenchState::Running(ActiveTransfer {
                            flow,
                            class,
                            started: now,
                            circuit_rtt,
                            ttfb: None,
                        });
                    }
                }
                BenchState::Running(active) => {
                    let elapsed = now.duration_since(active.started).as_secs_f64();
                    // First byte: circuit build (~1.5 RTT handshakes) plus
                    // the first delivery.
                    if active.ttfb.is_none() && tor.net.engine().flow_bytes(active.flow) > 0.0 {
                        active.ttfb = Some(elapsed + 1.5 * active.circuit_rtt);
                    }
                    let finished = tor.net.engine().flow_finished_at(active.flow);
                    if let Some(t) = finished {
                        let ttlb = t.duration_since(active.started).as_secs_f64()
                            + 1.5 * active.circuit_rtt;
                        self.records.push(TransferRecord {
                            class: active.class,
                            ttfb: active.ttfb,
                            ttlb: Some(ttlb),
                            timed_out: false,
                        });
                        let flow = active.flow;
                        let class_idx = SizeClass::all()
                            .iter()
                            .position(|c| *c == active.class)
                            .expect("known class");
                        tor.net.engine_mut().remove_flow(flow);
                        client.state =
                            BenchState::Idle { until: now + self.pause, next_class: class_idx + 1 };
                    } else if elapsed > active.class.timeout().as_secs_f64() {
                        self.records.push(TransferRecord {
                            class: active.class,
                            ttfb: active.ttfb,
                            ttlb: None,
                            timed_out: true,
                        });
                        let flow = active.flow;
                        let class_idx = SizeClass::all()
                            .iter()
                            .position(|c| *c == active.class)
                            .expect("known class");
                        tor.net.engine_mut().stop_flow(flow);
                        tor.net.engine_mut().remove_flow(flow);
                        client.state =
                            BenchState::Idle { until: now + self.pause, next_class: class_idx + 1 };
                    }
                }
            }
        }
    }

    /// Failure (timeout) rate for a class, or overall when `None`.
    pub fn failure_rate(&self, class: Option<SizeClass>) -> f64 {
        let subset: Vec<&TransferRecord> =
            self.records.iter().filter(|r| class.is_none_or(|c| r.class == c)).collect();
        if subset.is_empty() {
            return 0.0;
        }
        subset.iter().filter(|r| r.timed_out).count() as f64 / subset.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShadowConfig;
    use crate::sample::build_network;

    #[test]
    fn size_classes_match_paper() {
        assert_eq!(SizeClass::Small.bytes(), 51_200.0);
        assert_eq!(SizeClass::Medium.bytes(), 1_048_576.0);
        assert_eq!(SizeClass::Large.bytes(), 5_242_880.0);
        assert_eq!(SizeClass::Small.timeout(), SimDuration::from_secs(15));
        assert_eq!(SizeClass::Medium.timeout(), SimDuration::from_secs(60));
        assert_eq!(SizeClass::Large.timeout(), SimDuration::from_secs(120));
    }

    #[test]
    fn benchmarks_complete_on_idle_network() {
        let cfg = ShadowConfig::test_scale(14);
        let mut net = build_network(&cfg);
        let weights = net.capacities.clone();
        let mut bench = BenchmarkDriver::new(
            6,
            &net.client_hosts,
            &net.server_hosts,
            &net.relays,
            &weights,
            SimRng::seed_from_u64(9),
        );
        let end = net.tor.now() + SimDuration::from_secs(120);
        while net.tor.now() < end {
            net.tor.tick();
            bench.on_tick(&mut net.tor);
        }
        assert!(bench.records.len() > 10, "records {}", bench.records.len());
        // An unloaded network should complete almost everything.
        assert!(bench.failure_rate(None) < 0.2, "failure {}", bench.failure_rate(None));
        // TTLBs ordered by size on average.
        let ttlb_of = |class: SizeClass| -> Vec<f64> {
            bench.records.iter().filter(|r| r.class == class).filter_map(|r| r.ttlb).collect()
        };
        let small = flashflow_simnet::stats::median(&ttlb_of(SizeClass::Small)).unwrap();
        let large = flashflow_simnet::stats::median(&ttlb_of(SizeClass::Large)).unwrap();
        assert!(large > small, "small {small}, large {large}");
    }

    #[test]
    fn ttfb_reflects_circuit_rtt() {
        let cfg = ShadowConfig::test_scale(15);
        let mut net = build_network(&cfg);
        let weights = net.capacities.clone();
        let mut bench = BenchmarkDriver::new(
            4,
            &net.client_hosts,
            &net.server_hosts,
            &net.relays,
            &weights,
            SimRng::seed_from_u64(10),
        );
        let end = net.tor.now() + SimDuration::from_secs(60);
        while net.tor.now() < end {
            net.tor.tick();
            bench.on_tick(&mut net.tor);
        }
        let ttfbs: Vec<f64> = bench.records.iter().filter_map(|r| r.ttfb).collect();
        assert!(!ttfbs.is_empty());
        for t in ttfbs {
            // At least 1.5× a minimal 4-link circuit RTT.
            assert!(t > 0.05, "implausibly low ttfb {t}");
            assert!(t < 10.0, "implausibly high ttfb {t}");
        }
    }
}
