//! The control-plane message vocabulary (§4.1).
//!
//! One measurement slot is driven by a small fixed conversation between
//! the coordinator (the BWAuth) and each peer (a measurer, or the target
//! relay in its reporting role):
//!
//! ```text
//! coordinator                         peer
//!     | ---------- Auth ---------------> |   authenticate
//!     | <--------- AuthOk -------------- |
//!     | ---------- MeasureCmd ---------> |   relay_fp, t, s, rate cap
//!     | <--------- Ready --------------- |
//!     | ---------- Go -----------------> |   all peers ready: blast
//!     | <--------- SecondReport x t ---- |   per-second byte counts
//!     | <--------- SlotDone ------------ |
//! ```
//!
//! Either side may send [`Msg::Abort`] at any point; the conversation is
//! then over. All multi-byte integers are big-endian on the wire (see
//! [`crate::frame`] for the framing).

/// Protocol version carried in every frame. Version 2 added the
/// `Auth`/`AuthOk` handshake nonce and the `ConnectionLost` abort code;
/// version 3 added the `Flooded` abort code (per-session `SecondReport`
/// backpressure); version 4 added the target endpoint and measurement
/// secret to `MeasureCmd` (the relay-echo topology: measurers dial the
/// target relay's data listener and stamp their blast with a
/// per-measurement key); version 5 added the `Resume` handshake (a
/// restarted coordinator re-adopts a prior conversation by proving it
/// knows that conversation's nonce, instead of being replay-rejected);
/// version 6 added the `trace_id` to `MeasureCmd` and `Resume` (the
/// coordinator-minted correlation key every peer stamps into its own
/// telemetry, making the per-process JSONL streams one joinable causal
/// record per item-attempt); version 7 removed the connection
/// keepalive (type tags 9 and 10 are now unknown: a pooled connection
/// is reused only inside the serving peer's accept window, so no wire
/// message checks its liveness); version 8 removed `Resume` (type tag
/// 11 is now unknown: every attempt derives its own nonces from the
/// measurement secret, so a restarted coordinator re-commands an
/// in-flight item with a plain `Auth` for attempt `n+1`, which no
/// replay window has seen).
/// An older peer is rejected with a clean `BadVersion` error instead of
/// a confusing body-layout failure.
pub const PROTOCOL_VERSION: u8 = 8;

/// Length of the pre-shared authentication token.
pub const AUTH_TOKEN_LEN: usize = 32;

/// Length of a relay fingerprint (SHA-1 sized, as in Tor descriptors).
pub const FINGERPRINT_LEN: usize = 20;

/// What kind of peer is authenticating to the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PeerRole {
    /// A measurer host that will blast the target.
    Measurer = 0,
    /// The target relay itself, reporting its background traffic.
    Target = 1,
}

impl PeerRole {
    /// Parses a wire byte.
    pub fn from_u8(v: u8) -> Option<PeerRole> {
        match v {
            0 => Some(PeerRole::Measurer),
            1 => Some(PeerRole::Target),
            _ => None,
        }
    }
}

/// Why a conversation was aborted. Fixed codes keep frames bounded; the
/// human-readable detail lives in session errors, not on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AbortReason {
    /// The authentication token did not match.
    AuthFailed = 0,
    /// A handshake step did not complete in time.
    HandshakeTimeout = 1,
    /// A running peer stopped sending per-second reports.
    ReportTimeout = 2,
    /// A frame arrived that the current state cannot accept.
    OutOfOrder = 3,
    /// A frame failed to decode.
    Malformed = 4,
    /// The sender is shutting down (operator action, reschedule, ...).
    Shutdown = 5,
    /// The underlying transport disconnected or failed mid-conversation.
    ConnectionLost = 6,
    /// The peer sent per-second reports far faster than seconds elapse
    /// (an unsolicited-report flood); the coordinator refuses to buffer
    /// them and drops the peer.
    Flooded = 7,
}

impl AbortReason {
    /// Parses a wire byte.
    pub fn from_u8(v: u8) -> Option<AbortReason> {
        match v {
            0 => Some(AbortReason::AuthFailed),
            1 => Some(AbortReason::HandshakeTimeout),
            2 => Some(AbortReason::ReportTimeout),
            3 => Some(AbortReason::OutOfOrder),
            4 => Some(AbortReason::Malformed),
            5 => Some(AbortReason::Shutdown),
            6 => Some(AbortReason::ConnectionLost),
            7 => Some(AbortReason::Flooded),
            _ => None,
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AbortReason::AuthFailed => "authentication failed",
            AbortReason::HandshakeTimeout => "handshake timeout",
            AbortReason::ReportTimeout => "per-second report timeout",
            AbortReason::OutOfOrder => "out-of-order message",
            AbortReason::Malformed => "malformed frame",
            AbortReason::Shutdown => "peer shutdown",
            AbortReason::ConnectionLost => "transport connection lost",
            AbortReason::Flooded => "per-second report flood",
        };
        f.write_str(s)
    }
}

/// Where a measurer should aim its blast: the target relay's data
/// listener. A zero port means "no endpoint" — the pre-echo topologies
/// (simulation, coordinator-blasts-measurer) where the data plane never
/// leaves the coordinator's engine.
///
/// IPv4 only, like the paper's prototype; six bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TargetEndpoint {
    /// IPv4 address octets.
    pub ip: [u8; 4],
    /// TCP port; `0` means no endpoint is set.
    pub port: u16,
}

impl TargetEndpoint {
    /// The "no endpoint" sentinel (port zero).
    pub const NONE: TargetEndpoint = TargetEndpoint { ip: [0; 4], port: 0 };

    /// Wraps a socket address; `None` for non-IPv4 addresses.
    pub fn from_addr(addr: std::net::SocketAddr) -> Option<TargetEndpoint> {
        match addr {
            std::net::SocketAddr::V4(v4) => {
                Some(TargetEndpoint { ip: v4.ip().octets(), port: v4.port() })
            }
            std::net::SocketAddr::V6(_) => None,
        }
    }

    /// The endpoint as a dialable address, `None` when unset.
    pub fn socket_addr(&self) -> Option<std::net::SocketAddr> {
        if self.port == 0 {
            return None;
        }
        Some(std::net::SocketAddr::from((self.ip, self.port)))
    }

    /// True when no endpoint is set.
    pub fn is_none(&self) -> bool {
        self.port == 0
    }
}

/// The command parameters of one measurement slot (§4.1's `t`, `s`, and
/// the per-measurer allocation `a_i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeasureSpec {
    /// Fingerprint of the relay to measure.
    pub relay_fp: [u8; FINGERPRINT_LEN],
    /// Slot length in whole seconds (`t`).
    pub slot_secs: u32,
    /// Sockets this peer opens to the target (its `s/m` share).
    pub sockets: u32,
    /// Send-rate cap in bytes/second (`a_i`); `0` means uncapped. For
    /// the target role in the echo topology this is instead the
    /// background-traffic allowance (`r·z`) the relay may admit per
    /// second during the slot; `0` leaves background uncapped.
    pub rate_cap: u64,
    /// The target relay's data listener for the echo topology
    /// ([`TargetEndpoint::NONE`] everywhere else). Measurers dial their
    /// blast channels here instead of being blasted by the coordinator.
    pub target: TargetEndpoint,
    /// Coordinator-chosen **secret** shared by every peer of one
    /// measurement item, never sent on a data channel. Echo-topology
    /// data channels derive two values from it: the *public* hello
    /// binding nonce (a one-way hash of the secret, see
    /// [`binding_nonce`](crate::blast::binding_nonce)) and the keyed
    /// integrity tag on every blast frame — so a data-channel MITM who
    /// reads the hello nonce off the wire still cannot forge payload
    /// bytes. `0` outside the echo topology.
    pub measurement_secret: u64,
    /// Coordinator-minted correlation key for this item-attempt,
    /// **public** (unlike the secret): every peer stamps it into the
    /// telemetry it emits for the item, so the coordinator's, the
    /// measurers', and the relay's JSONL streams join into one causal
    /// record. `0` means untraced (pre-v6 topologies and tests).
    pub trace_id: u64,
}

impl Default for MeasureSpec {
    fn default() -> Self {
        MeasureSpec {
            relay_fp: [0; FINGERPRINT_LEN],
            slot_secs: 0,
            sockets: 0,
            rate_cap: 0,
            target: TargetEndpoint::NONE,
            measurement_secret: 0,
            trace_id: 0,
        }
    }
}

/// A control-plane message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Msg {
    /// Coordinator → peer: authenticate with a pre-shared token.
    Auth {
        /// The pre-shared token for this peer.
        token: [u8; AUTH_TOKEN_LEN],
        /// The role the coordinator expects the peer to play.
        role: PeerRole,
        /// Fresh random challenge. The peer must echo it in `AuthOk`,
        /// binding the response to *this* handshake, and rejects a nonce
        /// it has already seen (a replayed `Auth`).
        nonce: u64,
    },
    /// Peer → coordinator: token accepted; `session` names the slot.
    AuthOk {
        /// Peer-chosen identifier echoed in logs and errors.
        session: u64,
        /// Echo of the coordinator's `Auth` nonce; a mismatch (a replayed
        /// or pre-recorded `AuthOk`) fails the handshake.
        nonce: u64,
    },
    /// Coordinator → peer: prepare to measure.
    MeasureCmd(MeasureSpec),
    /// Peer → coordinator: prepared (sockets open, processes up).
    Ready,
    /// Coordinator → peer: every peer is ready — start the slot now.
    Go,
    /// Peer → coordinator: byte counts for one completed second.
    SecondReport {
        /// Zero-based second index within the slot.
        second: u32,
        /// Background (client) bytes the peer reports for this second
        /// (`y_j`; zero for measurers, meaningful for the target).
        bg_bytes: u64,
        /// Measurement bytes relayed this second (`x_j` share).
        measured_bytes: u64,
    },
    /// Peer → coordinator: all `slot_secs` seconds reported.
    SlotDone,
    /// Either direction: the conversation is over.
    Abort {
        /// Why.
        reason: AbortReason,
    },
}

/// Wire type tags; `Msg` and frame decoding agree through these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum MsgType {
    Auth = 1,
    AuthOk = 2,
    MeasureCmd = 3,
    Ready = 4,
    Go = 5,
    SecondReport = 6,
    SlotDone = 7,
    Abort = 8,
}

impl MsgType {
    pub(crate) fn from_u8(v: u8) -> Option<MsgType> {
        match v {
            1 => Some(MsgType::Auth),
            2 => Some(MsgType::AuthOk),
            3 => Some(MsgType::MeasureCmd),
            4 => Some(MsgType::Ready),
            5 => Some(MsgType::Go),
            6 => Some(MsgType::SecondReport),
            7 => Some(MsgType::SlotDone),
            8 => Some(MsgType::Abort),
            _ => None,
        }
    }
}

impl Msg {
    /// A short name for logs and errors.
    pub fn name(&self) -> &'static str {
        match self {
            Msg::Auth { .. } => "Auth",
            Msg::AuthOk { .. } => "AuthOk",
            Msg::MeasureCmd(_) => "MeasureCmd",
            Msg::Ready => "Ready",
            Msg::Go => "Go",
            Msg::SecondReport { .. } => "SecondReport",
            Msg::SlotDone => "SlotDone",
            Msg::Abort { .. } => "Abort",
        }
    }
}
