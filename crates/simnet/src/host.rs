//! Host profiles and the [`Net`] wrapper tying hosts into an engine.
//!
//! The paper's Internet experiments run on five vantage points (Table 1)
//! plus a pair of lab machines (Appendix C). Each host contributes two
//! pipe resources (uplink and downlink) and carries the CPU and kernel
//! parameters the other layers need. [`Net`] owns the engine, the hosts,
//! and the pairwise RTT matrix, and builds flows between hosts.

use std::collections::HashMap;

use crate::engine::{Engine, EngineConfig, FlowId};
use crate::flow::FlowSpec;
use crate::resource::{Resource, ResourceId};
use crate::rng::SimRng;
use crate::tcp::{KernelProfile, TcpProfile};
use crate::time::SimDuration;
use crate::units::Rate;

/// Stationary log-capacity deviation for shared virtual hosts.
pub const JITTER_SIGMA_VIRTUAL: f64 = 0.16;
/// Stationary log-capacity deviation for dedicated hosts.
pub const JITTER_SIGMA_DEDICATED: f64 = 0.05;
/// AR(1) autocorrelation of capacity noise per 100 ms tick: the ~20 s
/// decorrelation time means congestion episodes persist long enough to
/// move a 30-second median, as they do on real shared hosts.
pub const JITTER_AR: f64 = 0.995;

/// Identifies a host added to a [`Net`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(usize);

impl HostId {
    /// The raw index of this host.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Where a host's connectivity comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkType {
    /// Datacenter connectivity (most Table 1 hosts).
    Datacenter,
    /// Residential connectivity (US-E).
    Residential,
}

/// Static description of a machine.
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfile {
    /// Display name ("US-SW", "lab-a", …).
    pub name: String,
    /// Uplink capacity.
    pub nic_up: Rate,
    /// Downlink capacity.
    pub nic_down: Rate,
    /// CPU core count (Tor forwards on a single core regardless).
    pub cores: u32,
    /// Single-threaded Tor cell-forwarding capacity on this machine.
    pub tor_cpu: Rate,
    /// Whether the machine is a shared virtual host.
    pub virtualized: bool,
    /// Datacenter or residential connectivity.
    pub network_type: NetworkType,
    /// Kernel socket-buffer configuration.
    pub kernel: KernelProfile,
}

impl HostProfile {
    /// A generic host with symmetric NIC capacity.
    pub fn new(name: impl Into<String>, nic: Rate) -> Self {
        HostProfile {
            name: name.into(),
            nic_up: nic,
            nic_down: nic,
            cores: 4,
            tor_cpu: Rate::from_mbit(900.0),
            virtualized: false,
            network_type: NetworkType::Datacenter,
            kernel: KernelProfile::default_linux(),
        }
    }

    /// Sets the single-threaded Tor CPU capacity.
    pub fn with_tor_cpu(mut self, rate: Rate) -> Self {
        self.tor_cpu = rate;
        self
    }

    /// Sets the kernel profile.
    pub fn with_kernel(mut self, kernel: KernelProfile) -> Self {
        self.kernel = kernel;
        self
    }

    /// US-SW (Fremont, CA): 8 cores, 32 GiB, dedicated, ~954 Mbit/s
    /// measured; the paper's target-relay host with 890 Mbit/s Tor ground
    /// truth.
    pub fn us_sw() -> Self {
        HostProfile {
            name: "US-SW".into(),
            nic_up: Rate::from_mbit(954.0),
            nic_down: Rate::from_mbit(954.0),
            cores: 8,
            tor_cpu: Rate::from_mbit(890.0),
            virtualized: false,
            network_type: NetworkType::Datacenter,
            kernel: KernelProfile::default_linux(),
        }
    }

    /// US-NW (Santa Rosa, CA): virtual, 8 cores, ~946 Mbit/s.
    fn us_nw() -> Self {
        HostProfile {
            name: "US-NW".into(),
            nic_up: Rate::from_mbit(946.0),
            nic_down: Rate::from_mbit(946.0),
            cores: 8,
            tor_cpu: Rate::from_mbit(850.0),
            virtualized: true,
            network_type: NetworkType::Datacenter,
            kernel: KernelProfile::default_linux(),
        }
    }

    /// US-E (Washington, DC): dedicated residential, 12 cores, ~941 Mbit/s.
    pub fn us_e() -> Self {
        HostProfile {
            name: "US-E".into(),
            nic_up: Rate::from_mbit(941.0),
            nic_down: Rate::from_mbit(941.0),
            cores: 12,
            tor_cpu: Rate::from_mbit(950.0),
            virtualized: false,
            network_type: NetworkType::Residential,
            kernel: KernelProfile::default_linux(),
        }
    }

    /// IN (Bangalore): small shared virtual host, ~1076 Mbit/s measured.
    pub fn host_in() -> Self {
        HostProfile {
            name: "IN".into(),
            nic_up: Rate::from_mbit(1076.0),
            nic_down: Rate::from_mbit(1076.0),
            cores: 2,
            tor_cpu: Rate::from_mbit(600.0),
            virtualized: true,
            network_type: NetworkType::Datacenter,
            kernel: KernelProfile::default_linux(),
        }
    }

    /// NL (Amsterdam): small shared virtual host, ~1611 Mbit/s measured.
    pub fn host_nl() -> Self {
        HostProfile {
            name: "NL".into(),
            nic_up: Rate::from_mbit(1611.0),
            nic_down: Rate::from_mbit(1611.0),
            cores: 2,
            tor_cpu: Rate::from_mbit(650.0),
            virtualized: true,
            network_type: NetworkType::Datacenter,
            kernel: KernelProfile::default_linux(),
        }
    }

    /// A lab machine (Appendix C): dual Xeon E5-2697V3, 10 Gbit/s fiber,
    /// 1,248 Mbit/s single-thread Tor capacity.
    pub fn lab(name: impl Into<String>) -> Self {
        HostProfile {
            name: name.into(),
            nic_up: Rate::from_gbit(10.0),
            nic_down: Rate::from_gbit(10.0),
            cores: 56,
            tor_cpu: Rate::from_mbit(1248.0),
            virtualized: false,
            network_type: NetworkType::Datacenter,
            kernel: KernelProfile::default_linux(),
        }
    }

    /// All five Table 1 vantage points in paper order
    /// (US-SW, US-NW, US-E, IN, NL).
    pub fn table1() -> Vec<HostProfile> {
        vec![
            HostProfile::us_sw(),
            HostProfile::us_nw(),
            HostProfile::us_e(),
            HostProfile::host_in(),
            HostProfile::host_nl(),
        ]
    }
}

/// Round-trip times between the Table 1 hosts, in milliseconds, indexed in
/// paper order (US-SW, US-NW, US-E, IN, NL). Values to US-SW come straight
/// from Table 1; the rest are geographic estimates.
pub const TABLE1_RTT_MS: [[u64; 5]; 5] = [
    [0, 40, 62, 210, 137],
    [40, 0, 70, 230, 150],
    [62, 70, 0, 250, 90],
    [210, 230, 250, 0, 130],
    [137, 150, 90, 130, 0],
];

struct HostEntry {
    profile: HostProfile,
    tx: ResourceId,
    rx: ResourceId,
}

/// An engine plus hosts plus an RTT matrix: the substrate experiments are
/// built on.
pub struct Net {
    engine: Engine,
    hosts: Vec<HostEntry>,
    rtt: HashMap<(usize, usize), SimDuration>,
    default_rtt: SimDuration,
    jitter_rng: Option<SimRng>,
    wan_loss: bool,
}

/// Per-second-of-RTT coefficient of the WAN loss model: paths with
/// longer RTTs cross more congested infrastructure and see more loss.
const WAN_LOSS_PER_RTT_SEC: f64 = 5e-4;

impl Net {
    /// Creates an empty network with the default engine configuration.
    pub fn new() -> Self {
        Net {
            engine: Engine::new(EngineConfig::default()),
            hosts: Vec::new(),
            rtt: HashMap::new(),
            default_rtt: SimDuration::from_millis(80),
            jitter_rng: None,
            wan_loss: false,
        }
    }

    /// Enables the WAN loss model: TCP profiles between hosts carry a
    /// packet-loss rate proportional to their RTT, capping per-socket
    /// throughput via the Mathis relation. [`Net::table1`] enables this
    /// (the paper's vantage points are real Internet paths); lab-style
    /// nets leave it off.
    pub fn enable_wan_loss(&mut self) {
        self.wan_loss = true;
    }

    /// Enables capacity jitter for hosts added *after* this call:
    /// virtualized hosts wander with deviation
    /// [`JITTER_SIGMA_VIRTUAL`], dedicated ones with
    /// [`JITTER_SIGMA_DEDICATED`]. Experiments that need run-to-run
    /// spread (Fig. 6's accuracy CDFs) enable this; unit tests that
    /// assert exact rates leave it off.
    pub fn enable_jitter(&mut self, seed: u64) {
        self.jitter_rng = Some(SimRng::seed_from_u64(seed ^ 0x4a49_5454_4552));
    }

    /// Forks a jitter RNG stream (used by higher layers to jitter their
    /// own resources, e.g. relay CPUs). Returns `None` when jitter is
    /// disabled.
    pub fn fork_jitter_rng(&mut self) -> Option<SimRng> {
        self.jitter_rng.as_mut().map(|r| r.fork())
    }

    /// Builds a network containing the five Table 1 hosts with the paper's
    /// RTT matrix. Returns the net and host ids in paper order.
    pub fn table1() -> (Net, Vec<HostId>) {
        Net::table1_seeded(None)
    }

    /// [`Net::table1`] with optional capacity jitter (used by the
    /// accuracy experiments, where run-to-run spread matters).
    pub fn table1_seeded(jitter_seed: Option<u64>) -> (Net, Vec<HostId>) {
        let mut net = Net::new();
        net.enable_wan_loss();
        if let Some(seed) = jitter_seed {
            net.enable_jitter(seed);
        }
        let ids: Vec<HostId> = HostProfile::table1().into_iter().map(|p| net.add_host(p)).collect();
        for (i, row) in TABLE1_RTT_MS.iter().enumerate() {
            for (j, &ms) in row.iter().enumerate() {
                if i != j {
                    net.set_rtt(ids[i], ids[j], SimDuration::from_millis(ms));
                }
            }
        }
        (net, ids)
    }

    /// Access to the underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Adds a host, creating its uplink and downlink resources (jittered
    /// if jitter is enabled).
    pub fn add_host(&mut self, profile: HostProfile) -> HostId {
        let tx = self
            .engine
            .add_resource(Resource::pipe(format!("{}/tx", profile.name), profile.nic_up));
        let rx = self
            .engine
            .add_resource(Resource::pipe(format!("{}/rx", profile.name), profile.nic_down));
        if let Some(rng) = self.jitter_rng.as_mut() {
            let sigma =
                if profile.virtualized { JITTER_SIGMA_VIRTUAL } else { JITTER_SIGMA_DEDICATED };
            let fork_tx = rng.fork();
            let fork_rx = rng.fork();
            self.engine.add_jitter(tx, sigma, JITTER_AR, fork_tx);
            self.engine.add_jitter(rx, sigma, JITTER_AR, fork_rx);
        }
        self.hosts.push(HostEntry { profile, tx, rx });
        HostId(self.hosts.len() - 1)
    }

    /// A host's profile.
    pub fn profile(&self, h: HostId) -> &HostProfile {
        &self.hosts[h.0].profile
    }

    /// The uplink (transmit) resource of a host.
    pub fn tx(&self, h: HostId) -> ResourceId {
        self.hosts[h.0].tx
    }

    /// The downlink (receive) resource of a host.
    pub fn rx(&self, h: HostId) -> ResourceId {
        self.hosts[h.0].rx
    }

    /// Sets the symmetric RTT between two hosts.
    pub fn set_rtt(&mut self, a: HostId, b: HostId, rtt: SimDuration) {
        self.rtt.insert((a.0, b.0), rtt);
        self.rtt.insert((b.0, a.0), rtt);
    }

    /// Sets the RTT used for host pairs without an explicit entry.
    pub fn set_default_rtt(&mut self, rtt: SimDuration) {
        self.default_rtt = rtt;
    }

    /// The RTT between two hosts.
    pub fn rtt(&self, a: HostId, b: HostId) -> SimDuration {
        if a == b {
            return SimDuration::from_micros(130); // paper's lab loopback-ish RTT
        }
        *self.rtt.get(&(a.0, b.0)).unwrap_or(&self.default_rtt)
    }

    /// Rough path efficiency as a function of RTT: long WAN paths lose
    /// throughput to recovery stalls and queueing (the paper's IN host is
    /// the slowest measurer for exactly this reason).
    fn path_efficiency(&self, a: HostId, b: HostId) -> f64 {
        let rtt_s = self.rtt(a, b).as_secs_f64();
        (1.0 / (1.0 + 1.2 * rtt_s)).clamp(0.5, 1.0)
    }

    /// The TCP profile for a connection from `a` to `b`: sender's transmit
    /// buffer, receiver's receive buffer, path RTT, efficiency, and (when
    /// the WAN loss model is enabled) an RTT-proportional loss rate.
    pub fn tcp_profile(&self, a: HostId, b: HostId) -> TcpProfile {
        let ka = &self.profile(a).kernel;
        let kb = &self.profile(b).kernel;
        let kernel = KernelProfile {
            max_rx_buffer: kb.max_rx_buffer,
            max_tx_buffer: ka.max_tx_buffer,
            buffer_efficiency: ka.buffer_efficiency.min(kb.buffer_efficiency),
            loss_recovery: ka.loss_recovery.min(kb.loss_recovery),
        };
        let loss =
            if self.wan_loss { WAN_LOSS_PER_RTT_SEC * self.rtt(a, b).as_secs_f64() } else { 0.0 };
        TcpProfile::new(self.rtt(a, b))
            .with_kernel(kernel)
            .with_path_efficiency(self.path_efficiency(a, b))
            .with_loss_rate(loss)
    }

    /// A flow spec from `a` to `b` over their NIC resources. Extra
    /// resources (relay CPU, token buckets) can be appended by the caller.
    fn flow_between(&self, a: HostId, b: HostId) -> FlowSpec {
        FlowSpec::new(vec![self.tx(a), self.rx(b)])
    }

    /// Starts a plain (UDP-like) flow from `a` to `b`.
    pub fn start_udp_flow(&mut self, a: HostId, b: HostId, sockets: u32) -> FlowId {
        let spec = self.flow_between(a, b).with_sockets(sockets);
        self.engine.start_flow(spec)
    }

    /// Starts a TCP-modelled flow from `a` to `b` with `sockets` parallel
    /// connections.
    pub fn start_tcp_flow(&mut self, a: HostId, b: HostId, sockets: u32) -> FlowId {
        let profile = self.tcp_profile(a, b);
        let spec = self.flow_between(a, b).with_sockets(sockets);
        self.engine.start_tcp_flow(spec, profile)
    }
}

impl Default for Net {
    fn default() -> Self {
        Net::new()
    }
}

impl std::fmt::Debug for Net {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Net").field("hosts", &self.hosts.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_profiles_match_paper() {
        let hosts = HostProfile::table1();
        assert_eq!(hosts.len(), 5);
        assert_eq!(hosts[0].name, "US-SW");
        assert!(!hosts[0].virtualized);
        assert!(hosts[1].virtualized);
        assert_eq!(hosts[2].network_type, NetworkType::Residential);
        assert_eq!(hosts[3].cores, 2);
        assert!((hosts[4].nic_up.as_mbit() - 1611.0).abs() < 1e-9);
    }

    #[test]
    fn table1_net_rtts() {
        let (net, ids) = Net::table1();
        assert_eq!(net.rtt(ids[0], ids[3]), SimDuration::from_millis(210));
        assert_eq!(net.rtt(ids[3], ids[0]), SimDuration::from_millis(210));
        assert_eq!(net.rtt(ids[0], ids[4]), SimDuration::from_millis(137));
    }

    #[test]
    fn flow_between_uses_both_nics() {
        let (mut net, ids) = Net::table1();
        let f = net.start_udp_flow(ids[1], ids[0], 1);
        net.engine_mut().run_for(SimDuration::from_secs(1));
        // Bottleneck is min(946 up, 954 down) = 946 Mbit/s.
        let rate = Rate::from_bytes_per_sec(net.engine().flow_rate(f));
        assert!((rate.as_mbit() - 946.0).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn tcp_profile_efficiency_decreases_with_rtt() {
        let (net, ids) = Net::table1();
        let near = net.path_efficiency(ids[0], ids[1]);
        let far = net.path_efficiency(ids[0], ids[3]);
        assert!(far < near);
    }

    #[test]
    fn same_host_rtt_is_lab_scale() {
        let (net, ids) = Net::table1();
        assert!(net.rtt(ids[0], ids[0]) < SimDuration::from_millis(1));
    }
}
