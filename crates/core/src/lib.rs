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
//! | [`measure`] | §4.1 | one slot of concurrent measurements, hand-assigned (`run_concurrent_measurements`) or as a `Sequencer` packed it (`measure_slot`), and §4.1's estimate (`estimate`) every executor computes |
//! | [`engine`] | §4.1, §7 | transport-agnostic coordinator event loop (`MeasurementEngine`) and a round's record (`EngineSnapshot`): every peer's reports, the audit rows, the quarantine and the estimate |
//! | [`pool`] | §7 | warm TCP connections to measurer processes, reused inside the peer's accept window |
//! | [`echo`] | §4.1, §4.3, §7 | the deployed echo topology: coordinator-side wiring for measurers blasting a target relay that echoes back, and the loop that runs each round's items concurrently on one engine, with the next round handshaking while the current one blasts |
//! | [`observe`] | §7 | bridge from engine events to `flashflow-obs` telemetry: mirrored round events and each round's audit, read from its `EngineSnapshot` |
//! | [`proto_driver`] | §4.1, §7 | `echo`'s round loop on in-memory links that own a simulated clock (a wait wakes at the loop's gate or staging time, a landing frame, a peer's next report at its `Go` + (j+1) s, or 100 ms on) (`simulate_rounds`, one round: `run_scripted`), its one parameter the peer behaviour (what a peer does, no clock); fixed-rate reference peers keyed by relay fingerprint (`Scripted`) are what tests, harnesses, benches and an in-memory daemon period run through it |
//! | [`verify`] | §4.1, §5 | random cell spot-checks |
//! | [`sequence`] | §4.2, §4.3, §7 | the accept-or-double rule over plain numbers and the one slot packer that applies it, a sans-IO state machine (`Sequencer`: `next_slot` hands a slot out, `complete` takes its results back) that `measure_period` drives one slot at a time and a daemon can drive with slots in flight: per-measurer spare capacity, largest prior first (`Order::Packed`, §7's slot count) or §4.3's seeded uniform draw (`Order::Secret`), generic over the relay key |
//! | [`bwauth`] | §4.3, §7 | a BWAuth's period on the direct executor, bandwidth files (whose `weights` are a vote for `flashflow_tornet::consensus::DirAuths`) |
//! | [`security`] | §5 | analytical attack bounds |
//! | [`sybil`] | §5 | simultaneous measurement of a declared family vs. one at a time |
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
//! // One round of the relay's §4.2 sequence, from a correct prior.
//! let out = measure_relay(&mut tor, relay, &team, Rate::from_mbit(250.0),
//!                         &params, TargetBehavior::Honest, &mut rng, 1).unwrap();
//! assert_eq!(out.end, SequenceEnd::Converged);
//! let mbit = out.rounds[0].estimate.as_mbit();
//! assert!((200.0..=270.0).contains(&mbit));
//! ```

pub mod alloc;
pub mod bwauth;
pub mod echo;
pub mod engine;
pub mod measure;
pub mod observe;
pub mod params;
pub mod pool;
pub mod proto_driver;
pub mod security;
pub mod sequence;
pub mod sybil;
pub mod team;
pub mod verify;

pub use params::Params;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::alloc::{greedy_allocate, AllocError};
    pub use crate::bwauth::{BandwidthFile, BwAuth, BwEntry};
    pub use crate::echo::{
        run_round, run_rounds, EchoDeployment, EchoItem, EchoMeasurer, RoundSource,
    };
    pub use crate::engine::{
        EngineBuilder, EngineEvent, EngineSnapshot, LedgerRow, MeasurementEngine, PeerId,
    };
    pub use crate::measure::{
        estimate, measure_slot, run_concurrent_measurements, Assignment, BatchItem, Measurement,
        SecondSample,
    };
    pub use crate::params::Params;
    pub use crate::pool::{ChannelKind, ConnectionPool, PooledConn, ReuseHandle};
    pub use crate::security::{
        capacity_on_demand_failure_probability, max_inflation_factor, summarize,
    };
    pub use crate::sequence::{
        measure_period, measure_relay, new_relay_prior, perfect_slot, Order, SequenceEnd,
        SequenceOutcome, Sequencer, Settled, SlotItem, SlotResult, ToMeasure,
    };
    pub use crate::sybil::{measure_family, FamilyMeasurement};
    pub use crate::team::{Measurer, Team};
    pub use crate::verify::{evasion_probability, spot_check, TargetBehavior, VerificationOutcome};
}
