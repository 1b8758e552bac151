//! # flashflow-core
//!
//! **FlashFlow** — a secure speed test for Tor (Traudt, Jansen, Johnson;
//! ICDCS 2021) — reimplemented as a Rust library against the
//! `flashflow-simnet`/`flashflow-tornet` substrate.
//!
//! FlashFlow measures a Tor relay's capacity by *demonstration*: a team of
//! measurers opens `s` TCP sockets to the target, builds one-hop
//! measurement circuits, and blasts cells of random bytes that the target
//! must decrypt and echo for a `t`-second slot. The estimate is the median
//! per-second total of measurement traffic plus (ratio-clamped) reported
//! client traffic. Random spot-checks catch forged echoes; secret
//! randomized scheduling and the cross-BWAuth median defeat
//! capacity-on-demand games; lying about client traffic is bounded by
//! `1/(1−r) = 1.33`.
//!
//! ## Module map
//!
//! | module | paper section | role |
//! |---|---|---|
//! | [`params`] | §6.1, App. E | deployment parameters, excess factor `f` |
//! | [`team`] | §4, §4.2 | measurement teams, measuring measurers |
//! | [`alloc`] | §4.2 | greedy capacity allocation |
//! | [`measure`] | §4.1 | one (or many concurrent) measurement slots |
//! | [`engine`] | §4.1, §7 | transport-agnostic coordinator event loop (`MeasurementEngine`) and the audit ledger (`SampleLedger`) |
//! | [`pool`] | §7 | long-lived pool of warm TCP connections to measurer processes |
//! | [`echo`] | §4.1, §4.3, §7 | the deployed echo topology: coordinator-side wiring for measurers blasting a target relay that echoes back, and the loop that runs each round's items concurrently on one engine, with the next round handshaking while the current one blasts |
//! | [`observe`] | §7 | bridge from engine events to `flashflow-obs` telemetry: mirrored round events, period audits, `PeriodExport` |
//! | [`proto_driver`] | §4.1, §7 | the in-memory round executor: one engine over simulated links, its one parameter the peer behaviour — `TorNet` flows (`SlotRunner`) or fixed-rate reference peers (`run_scripted`, what harnesses and benches compare a deployment against) |
//! | [`verify`] | §4.1, §5 | random cell spot-checks |
//! | [`sequence`] | §4.2, §4.3 | the accept-or-double rule over plain numbers (`judge`) and the one period loop that packs slots by spare team capacity and applies it (`measure_period`), generic over the relay key and the slot executor |
//! | [`schedule`] | §4.3 | randomized period schedules, greedy packing |
//! | [`bwauth`] | §4.3, §7 | a BWAuth's period on the direct executor, bandwidth files, echo-topology rounds, cross-BWAuth aggregation |
//! | [`security`] | §5 | analytical attack bounds |
//! | [`sybil`] | §5 | simultaneous measurement of a declared family vs. one at a time |
//! | [`dynamic`] | §9 | downward-only weight adjustment from insecure self-reported load |
//!
//! ## Quickstart
//!
//! ```
//! use flashflow_core::prelude::*;
//! use flashflow_simnet::prelude::*;
//! use flashflow_tornet::prelude::*;
//!
//! // A target relay rate-limited to 250 Mbit/s on US-SW, measured by a
//! // two-host team.
//! let mut tor = TorNet::new();
//! let m1 = tor.add_host(HostProfile::us_e());
//! let m2 = tor.add_host(HostProfile::host_nl());
//! let host = tor.add_host(HostProfile::us_sw());
//! let relay = tor.add_relay(host,
//!     RelayConfig::new("target").with_rate_limit(Rate::from_mbit(250.0)));
//!
//! let team = Team::with_capacities(&[
//!     (m1, Rate::from_mbit(941.0)),
//!     (m2, Rate::from_mbit(1611.0)),
//! ]);
//! let params = Params::paper();
//! let mut rng = SimRng::seed_from_u64(1);
//! let m = measure_once(&mut tor, relay, &team, Rate::from_mbit(250.0),
//!                      &params, &mut rng).unwrap();
//! let mbit = m.estimate.as_mbit();
//! assert!((200.0..=270.0).contains(&mbit));
//! ```

pub mod alloc;
pub mod bwauth;
pub mod dynamic;
pub mod echo;
pub mod engine;
pub mod measure;
pub mod observe;
pub mod params;
pub mod pool;
pub mod proto_driver;
pub mod schedule;
pub mod security;
pub mod sequence;
pub mod sybil;
pub mod team;
pub mod verify;

pub use params::Params;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::alloc::{greedy_allocate, greedy_allocate_rates, AllocError};
    pub use crate::bwauth::{
        aggregate_bwauths, measure_echo_period, measure_echo_period_observed, BandwidthFile,
        BwAuth, BwEntry, EchoEntry, EchoPeriodFile, EchoRound,
    };
    pub use crate::dynamic::{adjust_weights, DynamicPolicy, DynamicReport};
    pub use crate::echo::{
        run_round, run_rounds, EchoDeployment, EchoItem, EchoMeasurer, RoundSource,
    };
    pub use crate::engine::{
        EngineBuilder, EngineEvent, EngineSnapshot, LedgerRow, MeasurementEngine, PeerDirectory,
        PeerId, SampleLedger, DEFAULT_BACKGROUND_RATIO, DIVERGENCE_TOLERANCE,
    };
    pub use crate::measure::{
        assignments_for, batch_for, measure_once, run_concurrent_measurements, run_measurement,
        Assignment, BatchItem, Measurement, SecondSample,
    };
    pub use crate::params::Params;
    pub use crate::pool::{
        ChannelKind, ConnectionPool, PooledConn, ReuseHandle, DEFAULT_IDLE_PROBE_AGE,
    };
    pub use crate::proto_driver::{
        fingerprint_for, FaultSpec, PeerFailure, PeerFault, ProtoMeasurement, SlotRunner,
    };
    pub use crate::schedule::{
        assign_new_relay, build_randomized_schedule, greedy_pack, Planned, Schedule,
    };
    pub use crate::security::{
        capacity_on_demand_failure_probability, max_inflation_factor, summarize,
    };
    pub use crate::sequence::{
        judge, measure_period, measure_relay, new_relay_prior, SequenceEnd, SequenceOutcome,
        Settled, SlotItem, SlotResult, Verdict,
    };
    pub use crate::sybil::{measure_family, FamilyMeasurement};
    pub use crate::team::{Measurer, Team};
    pub use crate::verify::{evasion_probability, spot_check, TargetBehavior, VerificationOutcome};
}
