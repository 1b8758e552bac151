//! Time-stepped simulation engine.
//!
//! The engine advances simulated time in fixed ticks (100 ms by default).
//! Each tick it:
//!
//! 1. computes every resource's effective capacity (token buckets refill,
//!    CPUs pay per-socket overhead),
//! 2. derives each active flow's cap (application cap ∧ TCP window cap),
//! 3. allocates rates with weighted max-min fairness
//!    ([`crate::flow::max_min_rates`]),
//! 4. moves bytes, completes budgeted flows, and updates token buckets and
//!    TCP ramp state.
//!
//! The paper's measurements are all per-second aggregates over tens of
//! seconds, so a sub-second fluid tick reproduces the relevant dynamics
//! (bursts, ramps, contention) at a tiny fraction of packet-level cost.

use crate::flow::{max_min_rates, AllocFlow, FlowSpec};
use crate::resource::{Resource, ResourceId};
use crate::rng::SimRng;
use crate::tcp::{bundle_cap, TcpProfile, TcpState};
use crate::time::{SimDuration, SimTime};
use crate::units::Rate;

/// Identifies a flow started on an [`Engine`]. Ids are generation-checked:
/// using a stale id after the flow is removed panics rather than silently
/// reading another flow's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    slot: usize,
    generation: u64,
}

/// Configuration for an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Length of one simulation tick.
    pub tick: SimDuration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { tick: SimDuration::from_millis(100) }
    }
}

#[derive(Debug)]
struct FlowState {
    spec: FlowSpec,
    tcp: Option<(TcpProfile, TcpState)>,
    /// Remaining bytes to deliver; `None` = unbounded.
    budget: Option<f64>,
    bytes_total: f64,
    bytes_last_tick: f64,
    rate: f64,
    started: SimTime,
    finished: Option<SimTime>,
}

#[derive(Debug)]
struct Slot {
    generation: u64,
    state: Option<FlowState>,
}

/// What happened during one tick.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// Flows whose byte budget completed during this tick.
    pub completed: Vec<FlowId>,
}

/// Mean-reverting multiplicative capacity noise attached to a resource.
///
/// Shared virtual hosts (Table 1's US-NW, IN, NL) see their effective
/// capacity wander as co-resident tenants come and go; this is the
/// paper's explanation for measurement spread and for IN being the
/// slowest measurer. The log-capacity follows an AR(1) process:
/// `state ← ar·state + √(1−ar²)·N(0, σ)`, and the resource's capacity is
/// `base · exp(state)`.
#[derive(Debug)]
struct Jitter {
    resource: ResourceId,
    base: f64,
    sigma: f64,
    ar: f64,
    state: f64,
    rng: SimRng,
}

/// The time-stepped fluid simulation engine.
///
/// ```
/// use flashflow_simnet::engine::{Engine, EngineConfig};
/// use flashflow_simnet::resource::Resource;
/// use flashflow_simnet::flow::FlowSpec;
/// use flashflow_simnet::units::Rate;
/// use flashflow_simnet::time::SimDuration;
///
/// let mut eng = Engine::new(EngineConfig::default());
/// let pipe = eng.add_resource(Resource::pipe("link", Rate::from_mbit(80.0)));
/// let flow = eng.start_flow(FlowSpec::new(vec![pipe]));
/// eng.run_for(SimDuration::from_secs(1));
/// // 80 Mbit/s == 10 MB/s for one second.
/// assert!((eng.flow_bytes(flow) - 10e6).abs() < 1.0);
/// ```
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    now: SimTime,
    resources: Vec<Resource>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    resource_bytes_last_tick: Vec<f64>,
    jitters: Vec<Jitter>,
}

impl Engine {
    /// Creates an engine with the given configuration.
    ///
    /// # Panics
    /// Panics if the tick length is zero.
    pub fn new(cfg: EngineConfig) -> Self {
        assert!(!cfg.tick.is_zero(), "tick must be positive");
        Engine {
            cfg,
            now: SimTime::ZERO,
            resources: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            resource_bytes_last_tick: Vec::new(),
            jitters: Vec::new(),
        }
    }

    /// Attaches mean-reverting capacity noise to a resource: each tick the
    /// capacity becomes `base · exp(s)` where `s` follows an AR(1) process
    /// with stationary deviation `sigma` and autocorrelation `ar`.
    ///
    /// # Panics
    /// Panics if `sigma` is negative or `ar` outside `[0, 1)`.
    pub fn add_jitter(&mut self, resource: ResourceId, sigma: f64, ar: f64, rng: SimRng) {
        assert!(sigma >= 0.0 && sigma.is_finite(), "bad sigma {sigma}");
        assert!((0.0..1.0).contains(&ar), "bad ar {ar}");
        let base = self.resources[resource.index()].capacity().bytes_per_sec();
        self.jitters.push(Jitter { resource, base, sigma, ar, state: 0.0, rng });
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configured tick length.
    pub fn tick_duration(&self) -> SimDuration {
        self.cfg.tick
    }

    /// Registers a resource and returns its id.
    pub fn add_resource(&mut self, resource: Resource) -> ResourceId {
        self.resources.push(resource);
        self.resource_bytes_last_tick.push(0.0);
        ResourceId(self.resources.len() - 1)
    }

    /// Immutable access to a resource.
    pub fn resource(&self, id: ResourceId) -> &Resource {
        &self.resources[id.index()]
    }

    /// Mutable access to a resource (e.g. to change a rate limit mid-run).
    pub fn resource_mut(&mut self, id: ResourceId) -> &mut Resource {
        &mut self.resources[id.index()]
    }

    /// Bytes that crossed `id` during the most recent tick.
    pub fn resource_bytes_last_tick(&self, id: ResourceId) -> f64 {
        self.resource_bytes_last_tick[id.index()]
    }

    fn alloc_slot(&mut self, state: FlowState) -> FlowId {
        if let Some(slot) = self.free.pop() {
            let generation = self.slots[slot].generation + 1;
            self.slots[slot] = Slot { generation, state: Some(state) };
            FlowId { slot, generation }
        } else {
            self.slots.push(Slot { generation: 0, state: Some(state) });
            FlowId { slot: self.slots.len() - 1, generation: 0 }
        }
    }

    fn state(&self, id: FlowId) -> &FlowState {
        let slot = &self.slots[id.slot];
        assert_eq!(slot.generation, id.generation, "stale FlowId");
        slot.state.as_ref().expect("flow was removed")
    }

    fn state_mut(&mut self, id: FlowId) -> &mut FlowState {
        let slot = &mut self.slots[id.slot];
        assert_eq!(slot.generation, id.generation, "stale FlowId");
        slot.state.as_mut().expect("flow was removed")
    }

    /// Starts an unbounded fluid flow.
    ///
    /// # Panics
    /// Panics if the spec references unknown resources.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        for r in &spec.path {
            assert!(r.index() < self.resources.len(), "unknown resource in path");
        }
        let started = self.now;
        self.alloc_slot(FlowState {
            spec,
            tcp: None,
            budget: None,
            bytes_total: 0.0,
            bytes_last_tick: 0.0,
            rate: 0.0,
            started,
            finished: None,
        })
    }

    /// Starts a flow whose rate is additionally capped by a TCP model
    /// (slow-start ramp, then buffer/BDP ceiling, scaled by the socket
    /// count in the spec).
    pub fn start_tcp_flow(&mut self, spec: FlowSpec, profile: TcpProfile) -> FlowId {
        let id = self.start_flow(spec);
        self.state_mut(id).tcp = Some((profile, TcpState::new()));
        id
    }

    /// Gives a flow a finite byte budget; it completes when the budget is
    /// delivered.
    ///
    /// # Panics
    /// Panics if `bytes` is not positive and finite.
    pub fn set_flow_budget(&mut self, id: FlowId, bytes: f64) {
        assert!(bytes.is_finite() && bytes > 0.0, "bad budget {bytes}");
        self.state_mut(id).budget = Some(bytes);
    }

    /// Replaces a flow's application-level rate cap.
    pub fn set_flow_cap(&mut self, id: FlowId, cap: Option<f64>) {
        self.state_mut(id).spec.cap = cap;
    }

    /// Stops a flow (it stops consuming capacity but its statistics remain
    /// queryable until [`Engine::remove_flow`]).
    pub fn stop_flow(&mut self, id: FlowId) {
        let now = self.now;
        let st = self.state_mut(id);
        if st.finished.is_none() {
            st.finished = Some(now);
            st.rate = 0.0;
        }
    }

    /// Forgets a flow entirely, recycling its id slot.
    pub fn remove_flow(&mut self, id: FlowId) {
        let slot = &mut self.slots[id.slot];
        assert_eq!(slot.generation, id.generation, "stale FlowId");
        assert!(slot.state.is_some(), "flow already removed");
        slot.state = None;
        self.free.push(id.slot);
    }

    /// True if the flow exists and has not finished or been stopped.
    pub fn flow_is_active(&self, id: FlowId) -> bool {
        self.state(id).finished.is_none()
    }

    /// The flow's rate during the most recent tick (bytes/sec).
    pub fn flow_rate(&self, id: FlowId) -> f64 {
        self.state(id).rate
    }

    /// Total bytes delivered by the flow so far.
    pub fn flow_bytes(&self, id: FlowId) -> f64 {
        self.state(id).bytes_total
    }

    /// Bytes delivered by the flow during the most recent tick.
    pub fn flow_bytes_last_tick(&self, id: FlowId) -> f64 {
        self.state(id).bytes_last_tick
    }

    /// When the flow started.
    pub fn flow_started_at(&self, id: FlowId) -> SimTime {
        self.state(id).started
    }

    /// When the flow finished (budget complete or stopped), if it has.
    pub fn flow_finished_at(&self, id: FlowId) -> Option<SimTime> {
        self.state(id).finished
    }

    /// Advances the simulation by one tick.
    pub fn tick(&mut self) -> TickReport {
        let dt = self.cfg.tick.as_secs_f64();

        // Evolve capacity jitter before allocating.
        for j in &mut self.jitters {
            let innovation = (1.0 - j.ar * j.ar).sqrt() * j.sigma;
            j.state = j.ar * j.state + j.rng.gen_normal(0.0, innovation);
            let capacity = j.base * j.state.exp();
            self.resources[j.resource.index()].set_capacity(Rate::from_bytes_per_sec(capacity));
        }

        // Active flow slots, in a stable order.
        let active: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state.as_ref().is_some_and(|st| st.finished.is_none()))
            .map(|(i, _)| i)
            .collect();

        // Socket mass per resource (drives CPU overhead).
        let mut socket_mass = vec![0.0f64; self.resources.len()];
        for &i in &active {
            let st = self.slots[i].state.as_ref().unwrap();
            for r in &st.spec.path {
                socket_mass[r.index()] += f64::from(st.spec.sockets.max(1));
            }
        }

        let capacities: Vec<f64> = self
            .resources
            .iter()
            .enumerate()
            .map(|(ri, r)| r.effective_capacity(dt, socket_mass[ri]))
            .collect();

        // Per-flow caps: app cap ∧ TCP bundle cap.
        let caps: Vec<Option<f64>> = active
            .iter()
            .map(|&i| {
                let st = self.slots[i].state.as_ref().unwrap();
                let tcp_cap = st
                    .tcp
                    .as_ref()
                    .map(|(profile, state)| bundle_cap(profile, state, st.spec.sockets));
                match (st.spec.cap, tcp_cap) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (Some(a), None) => Some(a),
                    (None, Some(b)) => Some(b),
                    (None, None) => None,
                }
            })
            .collect();

        let alloc_flows: Vec<AllocFlow<'_>> = active
            .iter()
            .zip(&caps)
            .map(|(&i, cap)| {
                let st = self.slots[i].state.as_ref().unwrap();
                AllocFlow { path: &st.spec.path, weight: st.spec.weight, cap: *cap }
            })
            .collect();

        let rates = max_min_rates(&capacities, &alloc_flows);

        // Apply: move bytes, detect completions, track resource usage.
        let mut report = TickReport::default();
        let mut resource_bytes = vec![0.0f64; self.resources.len()];
        // Reset last-tick counters for every live flow (stopped ones too).
        for s in &mut self.slots {
            if let Some(st) = s.state.as_mut() {
                st.bytes_last_tick = 0.0;
                if st.finished.is_some() {
                    st.rate = 0.0;
                }
            }
        }
        let now = self.now;
        for (k, &i) in active.iter().enumerate() {
            let rate = rates[k];
            let generation = self.slots[i].generation;
            let st = self.slots[i].state.as_mut().unwrap();
            let mut bytes = rate * dt;
            let mut finished_at = None;
            if let Some(budget) = st.budget {
                let remaining = budget - st.bytes_total;
                if bytes + 1e-9 >= remaining {
                    bytes = remaining.max(0.0);
                    let extra = if rate > 0.0 { bytes / rate } else { 0.0 };
                    finished_at = Some(now + SimDuration::from_secs_f64(extra.min(dt)));
                }
            }
            st.rate = rate;
            st.bytes_total += bytes;
            st.bytes_last_tick = bytes;
            if let Some(t) = finished_at {
                st.finished = Some(t);
                st.rate = 0.0;
                report.completed.push(FlowId { slot: i, generation });
            }
            if let Some((_, tcp_state)) = st.tcp.as_mut() {
                tcp_state.advance(dt);
            }
            for r in &st.spec.path {
                resource_bytes[r.index()] += bytes;
            }
        }

        for (ri, r) in self.resources.iter_mut().enumerate() {
            r.consume(resource_bytes[ri], dt);
        }
        self.resource_bytes_last_tick = resource_bytes;

        self.now += self.cfg.tick;
        report
    }

    /// Runs whole ticks until at least `duration` has elapsed, collecting
    /// completions.
    pub fn run_for(&mut self, duration: SimDuration) -> Vec<FlowId> {
        let mut completed = Vec::new();
        let end = self.now + duration;
        while self.now < end {
            completed.extend(self.tick().completed);
        }
        completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default())
    }

    #[test]
    fn single_flow_fills_pipe() {
        let mut eng = engine();
        let pipe = eng.add_resource(Resource::pipe("p", Rate::from_mbit(100.0)));
        let f = eng.start_flow(FlowSpec::new(vec![pipe]));
        eng.run_for(SimDuration::from_secs(2));
        let expect = Rate::from_mbit(100.0).bytes_per_sec() * 2.0;
        assert!((eng.flow_bytes(f) - expect).abs() < 1.0);
        assert!((eng.flow_rate(f) - expect / 2.0).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut eng = engine();
        let pipe = eng.add_resource(Resource::pipe("p", Rate::from_mbit(100.0)));
        let a = eng.start_flow(FlowSpec::new(vec![pipe]));
        let b = eng.start_flow(FlowSpec::new(vec![pipe]));
        eng.run_for(SimDuration::from_secs(1));
        assert!((eng.flow_bytes(a) - eng.flow_bytes(b)).abs() < 1.0);
    }

    #[test]
    fn budget_completes_flow_and_frees_capacity() {
        let mut eng = engine();
        let pipe = eng.add_resource(Resource::pipe("p", Rate::from_mbit(80.0)));
        let small = eng.start_flow(FlowSpec::new(vec![pipe]));
        eng.set_flow_budget(small, 1e6); // 1 MB at ~5 MB/s shared
        let big = eng.start_flow(FlowSpec::new(vec![pipe]));
        let completed = eng.run_for(SimDuration::from_secs(3));
        assert_eq!(completed, vec![small]);
        assert!((eng.flow_bytes(small) - 1e6).abs() < 1.0);
        assert!(eng.flow_finished_at(small).is_some());
        // After `small` finishes, `big` gets the whole 10 MB/s pipe.
        assert!((eng.flow_rate(big) - 10e6).abs() < 1.0);
    }

    #[test]
    fn completion_time_is_fractional() {
        let mut eng = engine();
        let pipe = eng.add_resource(Resource::pipe("p", Rate::from_mbit(80.0)));
        // 10 MB/s, 25 MB budget → finishes at exactly 2.5 s.
        let f = eng.start_flow(FlowSpec::new(vec![pipe]));
        eng.set_flow_budget(f, 25e6);
        eng.run_for(SimDuration::from_secs(5));
        let t = eng.flow_finished_at(f).unwrap();
        assert!((t.as_secs_f64() - 2.5).abs() < 0.11, "finished at {t}");
    }

    #[test]
    fn stopped_flow_stops_consuming() {
        let mut eng = engine();
        let pipe = eng.add_resource(Resource::pipe("p", Rate::from_mbit(100.0)));
        let a = eng.start_flow(FlowSpec::new(vec![pipe]));
        let b = eng.start_flow(FlowSpec::new(vec![pipe]));
        eng.run_for(SimDuration::from_secs(1));
        eng.stop_flow(a);
        eng.run_for(SimDuration::from_secs(1));
        // b now has the full pipe.
        assert!((eng.flow_rate(b) - 12.5e6).abs() < 1.0);
        assert!(!eng.flow_is_active(a));
    }

    #[test]
    fn token_bucket_bursts_then_limits() {
        let mut eng = engine();
        let rate = Rate::from_mbit(80.0); // 10 MB/s sustained
        let bucket = eng.add_resource(Resource::token_bucket("tb", rate, 10e6));
        let f = eng.start_flow(FlowSpec::new(vec![bucket]));
        eng.run_for(SimDuration::from_secs(1));
        let first_second = eng.flow_bytes(f);
        // Bucket (10 MB) + refill (10 MB) in the first second.
        assert!((first_second - 20e6).abs() < 1e4, "first {first_second}");
        eng.run_for(SimDuration::from_secs(1));
        let second_second = eng.flow_bytes(f) - first_second;
        assert!((second_second - 10e6).abs() < 1e4, "second {second_second}");
    }

    #[test]
    fn tcp_flow_ramps_up() {
        let mut eng = engine();
        let pipe = eng.add_resource(Resource::pipe("p", Rate::from_gbit(10.0)));
        let profile = TcpProfile::new(SimDuration::from_millis(100));
        let f = eng.start_tcp_flow(FlowSpec::new(vec![pipe]), profile);
        eng.tick();
        let early = eng.flow_rate(f);
        eng.run_for(SimDuration::from_secs(10));
        let late = eng.flow_rate(f);
        assert!(late > early * 10.0, "early {early}, late {late}");
        assert!((late - profile.steady_cap()).abs() / profile.steady_cap() < 0.01);
    }

    #[test]
    fn resource_rate_accounting() {
        let mut eng = engine();
        let pipe = eng.add_resource(Resource::pipe("p", Rate::from_mbit(100.0)));
        let _a = eng.start_flow(FlowSpec::new(vec![pipe]));
        let _b = eng.start_flow(FlowSpec::new(vec![pipe]));
        eng.tick();
        let rate = Rate::from_bytes_per_sec(
            eng.resource_bytes_last_tick(pipe) / eng.cfg.tick.as_secs_f64(),
        );
        assert!((rate.as_mbit() - 100.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "stale FlowId")]
    fn stale_flow_id_panics() {
        let mut eng = engine();
        let pipe = eng.add_resource(Resource::pipe("p", Rate::from_mbit(1.0)));
        let f = eng.start_flow(FlowSpec::new(vec![pipe]));
        eng.remove_flow(f);
        let g = eng.start_flow(FlowSpec::new(vec![pipe])); // recycles slot
        assert_eq!(g.slot, f.slot);
        let _ = eng.flow_rate(f);
    }

    #[test]
    fn weighted_flows_split_proportionally() {
        let mut eng = engine();
        let pipe = eng.add_resource(Resource::pipe("p", Rate::from_mbit(90.0)));
        let a = eng.start_flow(FlowSpec::new(vec![pipe]).with_weight(1.0));
        let b = eng.start_flow(FlowSpec::new(vec![pipe]).with_weight(2.0));
        eng.run_for(SimDuration::from_secs(1));
        let ratio = eng.flow_bytes(b) / eng.flow_bytes(a);
        assert!((ratio - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cpu_resource_slows_with_many_sockets() {
        let mut eng = engine();
        let cpu = eng.add_resource(Resource::cpu("cpu", Rate::from_mbit(1000.0), 0.002));
        let few = eng.start_flow(FlowSpec::new(vec![cpu]).with_sockets(10));
        eng.run_for(SimDuration::from_secs(1));
        let rate_few = eng.flow_rate(few);
        eng.stop_flow(few);
        let many = eng.start_flow(FlowSpec::new(vec![cpu]).with_sockets(300));
        eng.run_for(SimDuration::from_secs(1));
        let rate_many = eng.flow_rate(many);
        assert!(rate_many < rate_few, "few {rate_few}, many {rate_many}");
    }
}
