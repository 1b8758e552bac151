//! `flashflow-relay` — a standalone **target relay** process: the third
//! corner of the paper's measurement topology.
//!
//! A FlashFlow measurement aims *k* measurers at one relay, which must
//! **echo** the blast back while still serving its clients; the
//! coordinator's estimate is echoed measurement bytes plus the relay's
//! self-reported background bytes (§4.1). This process plays that role
//! on a real socket: it listens on TCP, classifies each accepted
//! connection by its first byte — **control** (the framed session
//! protocol, answered in the target role) or **data** (an echo channel
//! opening with a `DataChannelHello`) — and serves both concurrently.
//!
//! The process is the **relay role** of the shared peer library
//! (`flashflow_procutil::peer`), which owns the common flags, the
//! bootstrap and SIGTERM drain, the reactor-driven connection shell
//! (`--io-threads N` epoll shards driving every accepted connection as
//! a state machine), and the control-conversation skeleton. This crate
//! is only what the role adds (see [`reactor`] for the hooks):
//!
//! * Control conversations answer the protocol's target role and keep
//!   running across conversations, so a coordinator-side connection
//!   pool reuses warm connections. Once a `MeasureCmd` is accepted, the
//!   measurement's binding nonce, frame-tag key and background
//!   allowance are registered with the [`EchoPlane`] *before* `Ready`
//!   goes back, so the measurers' echo dials (which only start at `Go`)
//!   always find their measurement.
//! * Data connections must open with a hello carrying a registered
//!   binding nonce; each is served by an
//!   [`Echoer`](flashflow_proto::blast::Echoer) that checks every
//!   frame's keyed tag (the integrity check) and every inbound payload
//!   byte against the public keystream (a fixed table XORed with a
//!   per-frame mask, which detects corruption), and forwards the
//!   measurers' accepted frames back, leaving forged and replayed ones
//!   out. The relay generates no keystream itself. Concurrent channels
//!   from multiple measurers aggregate into one measurement's counters.
//! * The relay's client traffic is one number: `--background RATE`
//!   bytes/second offered, admitted up to the commanded allowance for
//!   the whole slot (the paper's `r`-ratio cap; 0 is uncapped). Every
//!   per-second `SecondReport` carries **both** columns: that admitted
//!   rate, and the measurement bytes echoed in the second.
//!
//! Adversarial knobs (for the audit-path tests; a real relay would
//! simply lie), at most one at a time: `--claim-bg BYTES` reports a
//! fixed background figure regardless of what was admitted
//! (TorMult-style inflation of the self-reported channel), and
//! `--corrupt-echo true` echoes keystream-violating garbage (a forged
//! echo, which measurers count corrupt and refuse to credit).
//!
//! Liveness, replay protection, `--config` files, and SIGTERM draining
//! are the peer library's, identical to the measurer process; stdout
//! carries `listening <addr>` and, with `--metrics-addr`, a second
//! `metrics <addr>` line.
//!
//! **Observability**: all process logging goes through one
//! `flashflow-obs` `EventSink` — human text on stderr, and with
//! `--log-json FILE` the same events as JSONL (line-atomic under
//! concurrency). `--metrics-addr ADDR` serves token-gated
//! `MetricsRegistry` snapshots (echo-plane byte counters, background
//! accounting) over TCP. When `--claim-bg` makes the relay lie, each
//! reported second also emits a `bg.divergence` event carrying the
//! claimed and admitted (`metered`) figures — the ground truth the
//! audit tests cross-check against the coordinator's ledger flags.
//!
//! ```text
//! flashflow-relay [--config FILE] [--listen ADDR] [--token-hex HEX64]
//!     [--background BYTES] [--claim-bg BYTES] [--corrupt-echo true|false]
//!     [--speedup X] [--sessions N] [--io-threads N] [--log-json FILE]
//!     [--metrics-addr ADDR]
//! ```

mod reactor;

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use flashflow_obs::Counter;
use flashflow_procutil as procutil;
use flashflow_proto::blast::BlastCounters;

/// The relay role's own flags.
#[derive(Debug, Clone, Default)]
struct Config {
    /// Offered client traffic in bytes/second (simulated background).
    background: u64,
    lie: Lie,
}

/// How the relay lies (the audit-path tests' adversary): at most one
/// lie, so giving both flags is refused at parse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Lie {
    #[default]
    Honest,
    /// `--claim-bg N`: report N background bytes a second, whatever was admitted.
    ClaimBg(u64),
    /// `--corrupt-echo true`: echo keystream-violating garbage.
    CorruptEcho,
}

const USAGE: &str = "usage: flashflow-relay [--config FILE] [--listen ADDR] \
                     [--token-hex HEX64] [--background BYTES] [--claim-bg BYTES] \
                     [--corrupt-echo true|false] [--speedup X] [--sessions N] \
                     [--io-threads N] [--log-json FILE] [--metrics-addr ADDR]";

/// One commanded measurement's aggregated echo accounting, fed by
/// however many concurrent echo channels bound to its nonce. What each
/// channel received, and found corrupt or forged, is counted
/// process-wide by the `relay.echo.*` metrics.
#[derive(Default)]
struct EchoCounters {
    echoed: AtomicU64,
    channels: AtomicU64,
}

/// One registered measurement: counters plus the frame-tag key its
/// channels verify under and the commanding item-attempt's trace id.
struct Measurement {
    counters: Arc<EchoCounters>,
    key: u64,
    trace_id: u64,
}

/// The process-wide registry binding **measurement** nonces to their
/// echo plane. Control sessions register at `MeasureCmd` (before their
/// `Ready` releases the coordinator's barrier) and release at the end;
/// an echo dial presenting an unregistered nonce is refused.
#[derive(Default)]
struct EchoPlane {
    measurements: Mutex<HashMap<u64, Arc<Measurement>>>,
}

impl EchoPlane {
    // Registry access recovers from poisoning (`lock_recover`): a
    // serving thread that panicked mid-measurement must degrade to one
    // lost measurement, not take down every other thread that touches
    // the registry next.
    fn register(&self, nonce: u64, key: u64, trace_id: u64) -> Arc<EchoCounters> {
        let m =
            Arc::new(Measurement { counters: Arc::new(EchoCounters::default()), key, trace_id });
        let counters = Arc::clone(&m.counters);
        procutil::lock_recover(&self.measurements).insert(nonce, m);
        counters
    }

    fn lookup(&self, nonce: u64) -> Option<Arc<Measurement>> {
        procutil::lock_recover(&self.measurements).get(&nonce).map(Arc::clone)
    }

    fn release(&self, nonce: u64) {
        procutil::lock_recover(&self.measurements).remove(&nonce);
    }
}

/// The relay role's process-wide state.
struct Relay {
    cfg: Config,
    echo: EchoPlane,
    /// Process-global echo-plane byte counters: every echo channel's
    /// verifying parser feeds these (the `--metrics-addr` snapshot).
    blast: BlastCounters,
    echoed_bytes: Counter,
    bg_admitted: Counter,
    bg_reported: Counter,
    seconds_reported: Counter,
}

fn main() {
    procutil::peer::run::<Relay>();
}
