//! # flashflow-tornet
//!
//! Tor network substrate for the FlashFlow reproduction: the pieces of Tor
//! the paper's system touches, built from scratch.
//!
//! Two layers:
//!
//! * a **byte-accurate protocol layer** — 514-byte [`cell::Cell`]s, onion
//!   [`crypto`], circuit construction and flow-control [`circuit`]
//!   windows — used for protocol correctness tests and FlashFlow's
//!   content spot-checks;
//! * a **fluid traffic layer** — [`relay::Relay`]s with rate limiters,
//!   single-threaded CPUs, [`sched`]ulers, and the [`observed`]-bandwidth
//!   heuristic, assembled into whole networks by [`netbuild::TorNet`] on
//!   top of `flashflow-simnet`.
//!
//! [`consensus`] models server descriptors, consensus documents, and the
//! DirAuth voting that turns per-BWAuth weights into the consensus.

pub mod cell;
pub mod circuit;
pub mod consensus;
pub mod crypto;
pub mod netbuild;
pub mod observed;
pub mod relay;
pub mod sched;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::cell::{Cell, CircId, Command, CELL_LEN, PAYLOAD_LEN};
    pub use crate::circuit::{ClientCircuit, MeasurementCircuit, MeasurementTarget, Window};
    pub use crate::consensus::{Consensus, ConsensusEntry, DirAuths};
    pub use crate::crypto::{PublicKey, SecretKey, SharedKey};
    pub use crate::netbuild::TorNet;
    pub use crate::observed::ObservedBandwidth;
    pub use crate::relay::{BackgroundReporting, Relay, RelayConfig, RelayId};
    pub use crate::sched::{background_allowance, RatioGovernor, Scheduler};
}
