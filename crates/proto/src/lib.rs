//! # flashflow-proto
//!
//! The coordinator ↔ measurer **control protocol** of FlashFlow (§4.1),
//! reified as a wire format, sans-IO session state machines, and a
//! pluggable transport layer.
//!
//! The paper's control plane: a BWAuth (coordinator) authenticates to
//! each measurer and to the target relay, commands them to blast/serve a
//! `t`-second measurement slot over `s` sockets at a capped rate, releases
//! a synchronized start, and collects per-second byte reports from which
//! the capacity estimate is computed. This crate owns everything between
//! "decided to measure" and "per-second numbers collected":
//!
//! | module | role |
//! |---|---|
//! | [`msg`] | message vocabulary: `Auth`, `AuthOk`, `MeasureCmd`, `Ready`, `Go`, `SecondReport`, `SlotDone`, `Abort` |
//! | [`blast`] | the data plane: pattern-stamped bulk traffic, verified byte totals, `DataChannelHello` session binding |
//! | [`frame`] | length-prefixed, versioned binary codec with a total decoder and typed error taxonomy |
//! | [`session`] | `CoordinatorSession` / `MeasurerSession` state machines with timeout, abort, and handshake-replay handling |
//! | [`transport`] | the [`Transport`](transport::Transport) trait and the simulated in-memory stream |
//! | [`tcp`] | a real `std::net` non-blocking TCP transport |
//! | [`fault`] | a fault-injecting transport decorator (blackholes, disconnects) |
//! | [`endpoint`] | `Endpoint`: the one pump loop binding a session to a transport |
//!
//! ## Layering
//!
//! ```text
//!   MeasurementEngine (flashflow-core)      flashflow-measurer process
//!        │ one engine per round, item by item     │ one session per connection
//!   Endpoint<CoordinatorSession, _>         Endpoint<MeasurerSession, _>
//!        │ bytes                                 │ bytes
//!        └────────────── dyn Transport ──────────┘
//!            DuplexEnd │ TcpTransport │ FaultyTransport<_>
//! ```
//!
//! The listener side is not here: the serving processes accept on
//! `flashflow-procutil`'s reactor and wrap each connection in a
//! [`tcp::TcpTransport`].
//!
//! The sessions are **sans-IO**: they consume bytes and emit bytes plus
//! actions, never touching sockets or clocks. Every transport takes its
//! notion of "now" from the caller, so the simulated stream is
//! deterministic and the TCP stream can run timeouts on real or
//! accelerated time — the hardened session logic is byte-for-byte
//! identical across both, which is what lets the security tests cover
//! the deployed path.
//!
//! Security posture: peers are authenticated with pre-shared tokens and
//! a per-handshake random nonce (replayed handshakes are rejected); all
//! input is length-bounded before buffering; decoding is total (arbitrary
//! bytes produce a typed [`frame::WireError`], never a panic — property
//! tested); a peer that stalls, floods, speaks out of turn, or loses its
//! transport is aborted and its contribution dropped, degrading the
//! measurement instead of wedging it.

pub mod blast;
pub mod endpoint;
pub mod fault;
pub mod frame;
pub mod msg;
pub mod session;
pub mod tcp;
pub mod transport;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::blast::{
        binding_nonce, frame_tag, secret_channel_key, BlastError, BlastParser, BlastPattern,
        DataChannelHello, Echoer, TrafficSource,
    };
    pub use crate::endpoint::Endpoint;
    pub use crate::fault::{FaultMode, FaultyTransport};
    pub use crate::frame::{decode_payload, encode, FrameDecoder, WireError, MAX_FRAME_LEN};
    pub use crate::msg::{
        AbortReason, MeasureSpec, Msg, PeerRole, TargetEndpoint, AUTH_TOKEN_LEN, FINGERPRINT_LEN,
        PROTOCOL_VERSION,
    };
    pub use crate::session::{
        CoordAction, CoordPhase, CoordinatorSession, MeasurerAction, MeasurerPhase,
        MeasurerSession, ReplayWindow, SessionState, SessionTimeouts, DEFAULT_REPORT_AHEAD_CAP,
    };
    pub use crate::tcp::TcpTransport;
    pub use crate::transport::{Duplex, DuplexEnd, End, Transport, TransportError};
}
