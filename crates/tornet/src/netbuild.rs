//! Assembling whole Tor networks inside the fluid simulator.
//!
//! [`TorNet`] owns a [`Net`] plus the relays running on its hosts. It
//! knows how to express Tor traffic as fluid flows:
//!
//! * **circuit flows** — a download through a sequence of relays crosses,
//!   at each relay, the host NICs, the rate limiter, the background gate,
//!   and the CPU;
//! * **echo (measurement) flows** — FlashFlow's send/decrypt/return loop
//!   from a measurer to a target crosses the measurer NICs and the
//!   target's limiter + CPU + both NIC directions, skipping the
//!   background gate (measurement traffic is exempt from the ratio rule).
//!
//! Each tick it advances the engine, feeds every relay's forwarded bytes
//! into its observed-bandwidth tracker, and runs the ratio governors of
//! relays under measurement.

use flashflow_simnet::engine::{FlowId, TickReport};
use flashflow_simnet::flow::FlowSpec;
use flashflow_simnet::host::{HostId, HostProfile, Net};
use flashflow_simnet::resource::Resource;
use flashflow_simnet::stats::SecondsAccumulator;
use flashflow_simnet::tcp::TcpProfile;
use flashflow_simnet::time::{SimDuration, SimTime};
use flashflow_simnet::units::Rate;

use crate::relay::{BackgroundReporting, Relay, RelayConfig, RelayId, RelaySecondReport};
use crate::sched::{background_allowance, RatioGovernor, Scheduler};

/// Per-relay CPU overhead fraction per crossing socket (calibrated so the
/// Appendix C sockets sweep declines gently past its peak).
const CPU_SOCKET_OVERHEAD: f64 = 0.0013;

/// A measurement in progress at a relay, tracked for the governor.
#[derive(Debug)]
struct ActiveMeasurement {
    target: RelayId,
    flows: Vec<FlowId>,
}

/// A Tor network: hosts, relays, and Tor-aware flow construction.
#[derive(Debug)]
pub struct TorNet {
    /// The underlying host/engine network.
    pub net: Net,
    relays: Vec<Relay>,
    active: Vec<ActiveMeasurement>,
}

impl TorNet {
    /// An empty network.
    pub fn new() -> Self {
        TorNet { net: Net::new(), relays: Vec::new(), active: Vec::new() }
    }

    /// Wraps an existing [`Net`].
    pub fn from_net(net: Net) -> Self {
        TorNet { net, relays: Vec::new(), active: Vec::new() }
    }

    /// Adds a host (delegates to the inner net).
    pub fn add_host(&mut self, profile: HostProfile) -> HostId {
        self.net.add_host(profile)
    }

    /// Adds a relay on `host`, creating its limiter, CPU, and gate
    /// resources. The CPU capacity comes from the host profile's
    /// single-threaded Tor capacity.
    pub fn add_relay(&mut self, host: HostId, config: RelayConfig) -> RelayId {
        let tor_cpu = self.net.profile(host).tor_cpu;
        let virtualized = self.net.profile(host).virtualized;
        let cpu = self.net.engine_mut().add_resource(Resource::cpu(
            format!("{}/cpu", config.name),
            tor_cpu,
            CPU_SOCKET_OVERHEAD,
        ));
        if let Some(rng) = self.net.fork_jitter_rng() {
            let sigma = if virtualized {
                flashflow_simnet::host::JITTER_SIGMA_VIRTUAL
            } else {
                flashflow_simnet::host::JITTER_SIGMA_DEDICATED
            };
            self.net.engine_mut().add_jitter(cpu, sigma, flashflow_simnet::host::JITTER_AR, rng);
        }
        self.add_relay_with_cpu(host, config, cpu)
    }

    /// Adds a relay that shares an existing CPU resource — two relays on
    /// one machine (the §5 MyFamily/Sybil scenario) contend for the same
    /// cell-processing capacity.
    pub fn add_relay_with_cpu(
        &mut self,
        host: HostId,
        config: RelayConfig,
        cpu: flashflow_simnet::resource::ResourceId,
    ) -> RelayId {
        let limiter = match config.rate_limit {
            Some(rate) => {
                // `RelayBandwidthBurst`: one second of the rate limit.
                let burst = rate.bytes_per_sec();
                self.net.engine_mut().add_resource(Resource::token_bucket(
                    format!("{}/limit", config.name),
                    rate,
                    burst,
                ))
            }
            None => self
                .net
                .engine_mut()
                .add_resource(Resource::unlimited(format!("{}/limit", config.name))),
        };
        let bg_gate = self
            .net
            .engine_mut()
            .add_resource(Resource::unlimited(format!("{}/bg-gate", config.name)));
        self.relays.push(Relay {
            host,
            cpu,
            limiter,
            bg_gate,
            config,
            observed: Default::default(),
            obs_acc: SecondsAccumulator::new(),
            governor: None,
            bg_report_acc: SecondsAccumulator::new(),
            bg_actual_acc: SecondsAccumulator::new(),
        });
        RelayId(self.relays.len() - 1)
    }

    /// Number of relays.
    pub fn relay_count(&self) -> usize {
        self.relays.len()
    }

    /// Immutable access to a relay.
    pub fn relay(&self, id: RelayId) -> &Relay {
        &self.relays[id.0]
    }

    /// Iterates over all relay ids.
    pub fn relay_ids(&self) -> impl Iterator<Item = RelayId> {
        (0..self.relays.len()).map(RelayId)
    }

    /// The resources normal (client) traffic crosses at a relay, in path
    /// order: host rx, limiter, background gate, CPU, host tx.
    fn background_segment(&self, id: RelayId) -> Vec<flashflow_simnet::resource::ResourceId> {
        let r = &self.relays[id.0];
        vec![self.net.rx(r.host), r.limiter, r.bg_gate, r.cpu, self.net.tx(r.host)]
    }

    /// The resources measurement traffic crosses at a relay (no
    /// background gate).
    fn measurement_segment(&self, id: RelayId) -> Vec<flashflow_simnet::resource::ResourceId> {
        let r = &self.relays[id.0];
        vec![self.net.rx(r.host), r.limiter, r.cpu, self.net.tx(r.host)]
    }

    /// Flow spec for a download from `server` through `path` (exit first
    /// in the transmission direction: the path slice is ordered
    /// client-side first, as circuits are built) to `client`.
    fn circuit_flow_spec(&self, server: HostId, path: &[RelayId], client: HostId) -> FlowSpec {
        assert!(!path.is_empty(), "circuit needs at least one relay");
        let mut resources = vec![self.net.tx(server)];
        // Data flows server → exit → … → guard → client.
        for relay in path.iter().rev() {
            resources.extend(self.background_segment(*relay));
        }
        resources.push(self.net.rx(client));
        FlowSpec::new(resources)
    }

    /// Flow spec for FlashFlow's echo loop: measurer → target → measurer.
    /// The rate of this flow is the target's forwarded measurement
    /// throughput.
    fn echo_flow_spec(&self, measurer: HostId, target: RelayId) -> FlowSpec {
        let r = &self.relays[target.0];
        let mut resources = vec![self.net.tx(measurer)];
        resources.extend(self.measurement_segment(target));
        resources.push(self.net.rx(measurer));
        // The relay's NIC carries the cells inbound and outbound; with
        // separate rx/tx resources a single crossing each captures that.
        let _ = r;
        FlowSpec::new(resources)
    }

    /// End-to-end RTT of a circuit (client → relays → server and back).
    pub fn circuit_rtt(&self, client: HostId, path: &[RelayId], server: HostId) -> SimDuration {
        let mut total = SimDuration::ZERO;
        let mut prev = client;
        for relay in path {
            let host = self.relays[relay.0].host;
            total += self.net.rtt(prev, host);
            prev = host;
        }
        total += self.net.rtt(prev, server);
        total
    }

    /// Starts an aggregate of `sockets` client download connections from
    /// `server` through `path` to `client`, scheduled by `scheduler` at
    /// the relays and capped by the circuit window over the end-to-end
    /// RTT.
    pub fn start_client_traffic(
        &mut self,
        server: HostId,
        path: &[RelayId],
        client: HostId,
        sockets: u32,
        scheduler: Scheduler,
    ) -> FlowId {
        let rtt = self.circuit_rtt(client, path, server).as_secs_f64().max(1e-4);
        let window_cap = f64::from(sockets.max(1)) * crate::circuit::circuit_window_rate_cap(rtt);
        let mut spec = self.circuit_flow_spec(server, path, client).with_sockets(sockets);
        let mut cap = window_cap;
        if let Some(sched_cap) = scheduler.bundle_cap(sockets) {
            cap = cap.min(sched_cap);
        }
        spec = spec.with_cap(cap);
        let server_host = server;
        let profile: TcpProfile = self.net.tcp_profile(server_host, client);
        self.net.engine_mut().start_tcp_flow(spec, profile)
    }

    /// Starts a measurement echo flow of `sockets` sockets from
    /// `measurer` against `target`, rate-limited at the measurer side to
    /// `allocation` (the `a_i` of §4.1, enforced via `BandwidthRate` on
    /// the measurer's Tor processes).
    pub fn start_measurement_flow(
        &mut self,
        measurer: HostId,
        target: RelayId,
        sockets: u32,
        allocation: Option<Rate>,
    ) -> FlowId {
        let target_host = self.relays[target.0].host;
        let mut spec = self.echo_flow_spec(measurer, target).with_sockets(sockets);
        if let Some(rate) = allocation {
            spec = spec.with_cap(rate.bytes_per_sec());
        }
        let profile = self.net.tcp_profile(measurer, target_host);
        self.net.engine_mut().start_tcp_flow(spec, profile)
    }

    /// Marks `target` as under measurement: installs the ratio governor
    /// over the given measurement flows. The background gate starts at
    /// the governor floor and tracks `x · r/(1−r)` each tick.
    pub fn begin_measurement(&mut self, target: RelayId, flows: Vec<FlowId>) {
        let ratio = self.relays[target.0].config.ratio;
        let relay = &mut self.relays[target.0];
        relay.governor = Some(RatioGovernor::new(ratio));
        relay.bg_report_acc = SecondsAccumulator::new();
        relay.bg_actual_acc = SecondsAccumulator::new();
        self.active.push(ActiveMeasurement { target, flows });
    }

    /// Ends a measurement: removes the governor and reopens the gate.
    pub fn end_measurement(&mut self, target: RelayId) {
        self.active.retain(|m| m.target != target);
        let relay = &mut self.relays[target.0];
        relay.governor = None;
        let gate = relay.bg_gate;
        self.net.engine_mut().resource_mut(gate).set_capacity(Rate::from_gbit(10_000.0));
    }

    /// Forwarded bytes at a relay during the last tick (its Tor
    /// throughput, the quantity observed-bandwidth tracks).
    pub fn relay_forwarded_last_tick(&self, id: RelayId) -> f64 {
        self.net.engine().resource_bytes_last_tick(self.relays[id.0].cpu)
    }

    /// Background (client) bytes forwarded at a relay during the last
    /// tick.
    pub fn relay_background_last_tick(&self, id: RelayId) -> f64 {
        self.net.engine().resource_bytes_last_tick(self.relays[id.0].bg_gate)
    }

    /// Completed per-second background reports for a relay under
    /// measurement: `(reported, actual)` pairs (§4.1's `y_j` plus ground
    /// truth). Honest relays report the truth; lying relays report the
    /// ratio allowance.
    pub fn relay_background_seconds(&self, id: RelayId) -> Vec<RelaySecondReport> {
        let relay = &self.relays[id.0];
        relay
            .bg_report_acc
            .seconds()
            .iter()
            .zip(relay.bg_actual_acc.seconds())
            .map(|(rep, act)| RelaySecondReport {
                reported_background: *rep,
                actual_background: *act,
            })
            .collect()
    }

    /// Advances the simulation one tick: engine, observed bandwidth,
    /// ratio governors, and background reporting.
    pub fn tick(&mut self) -> TickReport {
        let report = self.net.engine_mut().tick();
        let dt = self.net.engine().tick_duration().as_secs_f64();

        // Measurement traffic per relay under measurement.
        let mut meas_bytes: Vec<(RelayId, f64)> = Vec::with_capacity(self.active.len());
        for m in &self.active {
            let bytes: f64 =
                m.flows.iter().map(|f| self.net.engine().flow_bytes_last_tick(*f)).sum();
            meas_bytes.push((m.target, bytes));
        }

        for (target, bytes) in meas_bytes {
            let (gate, cap, ratio, reporting, actual_bg) = {
                let relay = &self.relays[target.0];
                let governor = relay.governor.expect("active measurement has governor");
                let x_rate = bytes / dt;
                (
                    relay.bg_gate,
                    governor.gate_capacity(x_rate),
                    governor.r,
                    relay.config.reporting,
                    self.net.engine().resource_bytes_last_tick(relay.bg_gate),
                )
            };
            self.net.engine_mut().resource_mut(gate).set_capacity(Rate::from_bytes_per_sec(cap));
            let reported = match reporting {
                BackgroundReporting::Honest => actual_bg,
                BackgroundReporting::InflateToAllowance => background_allowance(bytes, ratio),
            };
            let relay = &mut self.relays[target.0];
            relay.bg_report_acc.push(reported, dt);
            relay.bg_actual_acc.push(actual_bg, dt);
        }

        // Observed bandwidth: feed forwarded bytes, drain whole seconds.
        for i in 0..self.relays.len() {
            let bytes = self.net.engine().resource_bytes_last_tick(self.relays[i].cpu);
            let relay = &mut self.relays[i];
            relay.obs_acc.push(bytes, dt);
            let completed = relay.obs_acc.seconds().len();
            let already = relay.observed.seconds_elapsed() as usize;
            for s in already..completed {
                let v = relay.obs_acc.seconds()[s];
                relay.observed.push_second(v);
            }
        }

        report
    }

    /// Runs for `duration`, ticking the Tor layer each step.
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.now() + duration;
        while self.now() < end {
            self.tick();
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.engine().now()
    }
}

impl Default for TorNet {
    fn default() -> Self {
        TorNet::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_simnet::stats::median;

    fn small_net() -> (TorNet, HostId, HostId, HostId, RelayId) {
        let mut tor = TorNet::new();
        let measurer = tor.add_host(HostProfile::host_nl());
        let target_host = tor.add_host(HostProfile::us_sw());
        let client = tor.add_host(HostProfile::new("client", Rate::from_gbit(1.0)));
        tor.net.set_rtt(measurer, target_host, SimDuration::from_millis(137));
        tor.net.set_rtt(client, target_host, SimDuration::from_millis(50));
        let relay = tor.add_relay(target_host, RelayConfig::new("target"));
        (tor, measurer, target_host, client, relay)
    }

    #[test]
    fn echo_flow_reaches_relay_capacity() {
        let (mut tor, measurer, _, _, relay) = small_net();
        let flow = tor.start_measurement_flow(measurer, relay, 160, None);
        tor.run_for(SimDuration::from_secs(30));
        let rate = Rate::from_bytes_per_sec(tor.net.engine().flow_rate(flow));
        // US-SW relay: CPU 890 Mbit/s is the bottleneck (NIC 954).
        assert!(rate.as_mbit() > 700.0, "rate {rate}");
        assert!(rate.as_mbit() <= 900.0, "rate {rate}");
    }

    #[test]
    fn rate_limited_relay_bounded() {
        let mut tor = TorNet::new();
        let m = tor.add_host(HostProfile::host_nl());
        let h = tor.add_host(HostProfile::us_sw());
        let relay =
            tor.add_relay(h, RelayConfig::new("limited").with_rate_limit(Rate::from_mbit(250.0)));
        let flow = tor.start_measurement_flow(m, relay, 160, None);
        tor.run_for(SimDuration::from_secs(10));
        let rate = Rate::from_bytes_per_sec(tor.net.engine().flow_rate(flow));
        assert!((rate.as_mbit() - 250.0).abs() < 5.0, "rate {rate}");
    }

    #[test]
    fn observed_bandwidth_rises_after_flood() {
        let (mut tor, measurer, _, _, relay) = small_net();
        // Idle: observed stays zero.
        tor.run_for(SimDuration::from_secs(5));
        assert_eq!(tor.relay(relay).observed.observed().bytes_per_sec(), 0.0);
        // Flood for 20 seconds (like the §3.4 speed test).
        let flow = tor.start_measurement_flow(measurer, relay, 160, None);
        tor.run_for(SimDuration::from_secs(20));
        tor.net.engine_mut().stop_flow(flow);
        tor.run_for(SimDuration::from_secs(5));
        let observed = tor.relay(relay).observed.observed();
        assert!(observed.as_mbit() > 700.0, "observed {observed}");
    }

    #[test]
    fn ratio_governor_limits_background() {
        let (mut tor, measurer, target_host, _, relay) = small_net();
        let client = tor.add_host(HostProfile::new("c2", Rate::from_gbit(1.0)));
        let server = tor.add_host(HostProfile::new("s2", Rate::from_gbit(1.0)));
        tor.net.set_rtt(client, target_host, SimDuration::from_millis(40));
        tor.net.set_rtt(server, target_host, SimDuration::from_millis(40));

        // Plenty of client demand through the relay.
        let _bg = tor.start_client_traffic(server, &[relay], client, 40, Scheduler::Kist);
        tor.run_for(SimDuration::from_secs(10));
        let bg_before = tor.relay_background_last_tick(relay);
        assert!(bg_before > 0.0);

        // Start a measurement with ratio 0.25 and a strong measurer.
        let flow = tor.start_measurement_flow(measurer, relay, 160, None);
        tor.begin_measurement(relay, vec![flow]);
        tor.run_for(SimDuration::from_secs(20));

        let dt = tor.net.engine().tick_duration().as_secs_f64();
        let x = tor.net.engine().flow_bytes_last_tick(flow) / dt;
        let y = tor.relay_background_last_tick(relay) / dt;
        let frac = y / (x + y);
        assert!(frac <= 0.25 + 0.03, "background fraction {frac}");

        // After the measurement ends, background recovers.
        tor.end_measurement(relay);
        tor.net.engine_mut().stop_flow(flow);
        tor.run_for(SimDuration::from_secs(10));
        let bg_after = tor.relay_background_last_tick(relay);
        assert!(bg_after > y * dt, "background did not recover");
    }

    #[test]
    fn honest_and_lying_reports_differ() {
        let (mut tor, measurer, _, _, _) = small_net();
        let h2 = tor.add_host(HostProfile::us_sw());
        let liar = tor.add_relay(
            h2,
            RelayConfig::new("liar")
                .with_inflated_reporting()
                .with_rate_limit(Rate::from_mbit(200.0)),
        );
        let flow = tor.start_measurement_flow(measurer, liar, 160, None);
        tor.begin_measurement(liar, vec![flow]);
        tor.run_for(SimDuration::from_secs(10));
        let reports = tor.relay_background_seconds(liar);
        assert!(!reports.is_empty());
        // The liar forwards no client traffic but reports the allowance.
        let reported: Vec<f64> = reports.iter().map(|r| r.reported_background).collect();
        let actual: Vec<f64> = reports.iter().map(|r| r.actual_background).collect();
        assert!(median(&reported).unwrap() > 0.0);
        assert_eq!(median(&actual).unwrap(), 0.0);
    }

    #[test]
    fn shared_cpu_relays_contend() {
        let mut tor = TorNet::new();
        let m1 = tor.add_host(HostProfile::host_nl());
        let m2 = tor.add_host(HostProfile::us_e());
        let h = tor.add_host(HostProfile::us_sw());
        let r1 = tor.add_relay(h, RelayConfig::new("sybil-a"));
        let cpu = tor.relay(r1).cpu;
        let r2 = tor.add_relay_with_cpu(h, RelayConfig::new("sybil-b"), cpu);
        let f1 = tor.start_measurement_flow(m1, r1, 80, None);
        let f2 = tor.start_measurement_flow(m2, r2, 80, None);
        tor.run_for(SimDuration::from_secs(20));
        let rate1 = tor.net.engine().flow_rate(f1);
        let rate2 = tor.net.engine().flow_rate(f2);
        let total = Rate::from_bytes_per_sec(rate1 + rate2);
        // Together they cannot exceed the shared machine's capacity.
        assert!(total.as_mbit() < 930.0, "total {total}");
    }

    #[test]
    fn circuit_rtt_sums_links() {
        let (tor, _m, target_host, client, relay) = small_net();
        let rtt = tor.circuit_rtt(client, &[relay], target_host);
        // client→relay (50 ms) + relay→server(=target host, ~0).
        assert!(rtt >= SimDuration::from_millis(50));
        assert!(rtt < SimDuration::from_millis(60));
    }
}
