//! Markov-model background traffic (§7: "397 TGen clients that use Tor
//! Markov models to generate the traffic flows of 40k Tor users").
//!
//! Each simulated client alternates between *thinking* (exponential idle
//! time) and *fetching* (a Pareto-sized download through a freshly
//! sampled weighted 3-hop circuit) — the two-state skeleton of the
//! privacy-preserving Markov models of Jansen et al. (CCS 2018) that the
//! paper's TGen configuration uses.

use flashflow_simnet::engine::FlowId;
use flashflow_simnet::host::HostId;
use flashflow_simnet::rng::SimRng;
use flashflow_simnet::time::SimTime;
use flashflow_tornet::netbuild::TorNet;
use flashflow_tornet::relay::RelayId;
use flashflow_tornet::sched::Scheduler;

use crate::sample::sample_circuit;

/// Markov traffic parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovParams {
    /// Mean think time between fetches (seconds).
    pub think_mean_secs: f64,
    /// Pareto scale (minimum fetch size, bytes).
    pub size_min: f64,
    /// Pareto shape (heavier tail = smaller alpha).
    pub size_alpha: f64,
    /// Cap on a single fetch (bytes).
    pub size_max: f64,
    /// Parallel streams per fetch (affects bottleneck share).
    pub streams: u32,
}

impl Default for MarkovParams {
    fn default() -> Self {
        // Calibrated so the paper-scale client population offers roughly
        // 40–50% of the network's circuit capacity at 100% load — the
        // utilisation regime where load-balancing quality is visible in
        // client performance, as on the live network.
        MarkovParams {
            think_mean_secs: 1.2,
            size_min: 50.0 * 1024.0,
            size_alpha: 1.05,
            size_max: 50.0 * 1024.0 * 1024.0,
            streams: 4,
        }
    }
}

#[derive(Debug)]
enum ClientState {
    Thinking { until: SimTime },
    Fetching { flow: FlowId },
}

#[derive(Debug)]
struct Client {
    host: HostId,
    state: ClientState,
}

/// Drives the background-traffic clients; call
/// [`MarkovDriver::on_tick`] once per engine tick.
#[derive(Debug)]
pub struct MarkovDriver {
    params: MarkovParams,
    clients: Vec<Client>,
    relays: Vec<RelayId>,
    weights: Vec<f64>,
    servers: Vec<HostId>,
    rng: SimRng,
    /// Fetches completed so far.
    pub fetches_completed: u64,
    /// Bytes delivered so far.
    pub bytes_delivered: f64,
}

impl MarkovDriver {
    /// Creates `n_clients` clients spread over `client_hosts`, selecting
    /// circuits by `weights`.
    ///
    /// # Panics
    /// Panics if pools are empty or weights mismatch the relay list.
    pub fn new(
        n_clients: usize,
        client_hosts: &[HostId],
        servers: &[HostId],
        relays: &[RelayId],
        weights: &[f64],
        params: MarkovParams,
        rng: SimRng,
    ) -> Self {
        assert!(!client_hosts.is_empty() && !servers.is_empty(), "empty host pools");
        assert_eq!(relays.len(), weights.len(), "weights mismatch");
        let mut rng = rng;
        let clients = (0..n_clients)
            .map(|i| Client {
                host: client_hosts[i % client_hosts.len()],
                // Stagger initial think times so fetches don't synchronise.
                state: ClientState::Thinking {
                    until: SimTime::from_secs_f64(rng.gen_exponential(params.think_mean_secs)),
                },
            })
            .collect();
        MarkovDriver {
            params,
            clients,
            relays: relays.to_vec(),
            weights: weights.to_vec(),
            servers: servers.to_vec(),
            rng,
            fetches_completed: 0,
            bytes_delivered: 0.0,
        }
    }

    /// Advances client state machines; call once per tick (after
    /// `tor.tick()`).
    pub fn on_tick(&mut self, tor: &mut TorNet) {
        let now = tor.now();
        for client in &mut self.clients {
            match &client.state {
                ClientState::Thinking { until } => {
                    if now >= *until {
                        let circuit = sample_circuit(&self.relays, &self.weights, &mut self.rng);
                        let server = *self.rng.choose(&self.servers);
                        let flow = tor.start_client_traffic(
                            server,
                            &circuit,
                            client.host,
                            self.params.streams,
                            Scheduler::Kist,
                        );
                        let size = self
                            .rng
                            .gen_pareto(self.params.size_min, self.params.size_alpha)
                            .min(self.params.size_max);
                        tor.net.engine_mut().set_flow_budget(flow, size);
                        client.state = ClientState::Fetching { flow };
                    }
                }
                ClientState::Fetching { flow } => {
                    if !tor.net.engine().flow_is_active(*flow) {
                        self.fetches_completed += 1;
                        self.bytes_delivered += tor.net.engine().flow_bytes(*flow);
                        tor.net.engine_mut().remove_flow(*flow);
                        let think = self.rng.gen_exponential(self.params.think_mean_secs);
                        client.state = ClientState::Thinking {
                            until: now + flashflow_simnet::time::SimDuration::from_secs_f64(think),
                        };
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShadowConfig;
    use crate::sample::build_network;
    use flashflow_simnet::time::SimDuration;

    #[test]
    fn markov_traffic_flows_and_completes() {
        let cfg = ShadowConfig::test_scale(12);
        let mut net = build_network(&cfg);
        let weights = net.capacities.clone();
        let mut driver = MarkovDriver::new(
            20,
            &net.client_hosts,
            &net.server_hosts,
            &net.relays,
            &weights,
            MarkovParams::default(),
            SimRng::seed_from_u64(2),
        );
        let end = net.tor.now() + SimDuration::from_secs(120);
        while net.tor.now() < end {
            net.tor.tick();
            driver.on_tick(&mut net.tor);
        }
        assert!(driver.fetches_completed > 10, "completed {}", driver.fetches_completed);
        assert!(driver.bytes_delivered > 1e6, "delivered {}", driver.bytes_delivered);
    }

    #[test]
    fn traffic_generates_observed_bandwidth() {
        let cfg = ShadowConfig::test_scale(13);
        let mut net = build_network(&cfg);
        let weights = net.capacities.clone();
        let mut driver = MarkovDriver::new(
            30,
            &net.client_hosts,
            &net.server_hosts,
            &net.relays,
            &weights,
            MarkovParams::default(),
            SimRng::seed_from_u64(3),
        );
        let end = net.tor.now() + SimDuration::from_secs(90);
        while net.tor.now() < end {
            net.tor.tick();
            driver.on_tick(&mut net.tor);
        }
        let with_observed = net
            .relays
            .iter()
            .filter(|r| net.tor.relay(**r).observed.observed().bytes_per_sec() > 0.0)
            .count();
        assert!(
            with_observed > net.relays.len() / 2,
            "only {with_observed}/{} relays saw traffic",
            net.relays.len()
        );
    }
}
