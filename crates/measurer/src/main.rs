//! `flashflow-measurer` — a standalone measurer (or reporting-target)
//! process.
//!
//! This is the peer side of the paper's deployment topology (§4.1, §7):
//! a long-lived process on a measurement host that listens on TCP,
//! classifies each accepted connection as **control** (the framed
//! session protocol) or **data** (a blast channel opening with a
//! [`DataChannelHello`](flashflow_proto::blast::DataChannelHello)), and
//! serves both concurrently.
//!
//! The process is the **measurer role** of the shared peer library
//! (`flashflow_procutil::peer`), which owns the common flags, the
//! bootstrap and SIGTERM drain, the reactor-driven connection shell
//! (every accepted connection a state machine on one of `--io-threads`
//! epoll shards), and the control-conversation skeleton. This crate is
//! only what the role adds (see the `reactor` module for the hooks):
//!
//! * Control connections run `MeasurerSession`s — and keep running
//!   them: after a conversation ends cleanly the process waits for the
//!   next `Auth` on the *same* connection, which is what lets a
//!   coordinator-side connection pool reuse warm connections across
//!   measurement items instead of dialing fresh per item.
//! * Data connections must present a hello binding them
//!   to a control session's accepted `Auth` nonce. Blast payloads are
//!   verified against the nonce-derived pattern keystream and counted
//!   (received and corrupt bytes) into per-session counters.
//!
//! With the default `--report counters`, a measurer-role session's
//! `SecondReport`s are **derived from those counters** — the bytes that
//! actually arrived on its data channels that second — not asserted.
//! `--report scripted` keeps the old fixed-rate behavior for harnesses
//! that need exact numbers; target-role sessions always report their
//! configured `--bg` (there is no client-traffic source here to count).
//!
//! **Echo topology** (the paper's full shape): when a `MeasureCmd`
//! carries a target endpoint, this measurer *initiates* the data plane
//! instead of sinking it — at `Go` it dials `sockets` echo channels to
//! the target relay's listener, blasts pattern-stamped frames bound to
//! the command's measurement secret (public binding nonce in the
//! hello, secret-keyed integrity tag on every frame), verifies the
//! relay's echo stream, and reports the **verified echoed bytes** per
//! second. See the `flashflow-relay` crate for the serving side.
//!
//! Liveness at the edges (half-open connections must not hold
//! resources):
//!
//! * a connection that says nothing at all is dropped at the
//!   classification deadline (pre-`Auth` silence);
//! * a data connection that dials but never completes its hello — or
//!   presents a nonce no authenticated control session ever accepted —
//!   is dropped at the same deadline (or as soon as it closes, floods,
//!   or the process drains), so a half-open data dial between `AuthOk`
//!   and the first `DataChannelHello` cannot pin a slot forever.
//!
//! Operator tooling: `--config FILE` loads `key=value` lines (same keys
//! as the flags, `#` comments); later command-line flags override the
//! file. On **SIGTERM** the process drains gracefully: it stops
//! accepting, lets running slots finish, aborts still-handshaking
//! sessions with `Shutdown` (flushing the `Abort` frames), joins every
//! reactor shard, and exits 0.
//!
//! Replay protection across sessions: the process keeps one shared
//! `ReplayWindow`. Each session starts from a clone of it, and the
//! moment a session accepts an `Auth` nonce it *claims* it in the
//! shared window under the lock — of two concurrent connections
//! replaying one opener, exactly one wins. The same claim registers the
//! nonce with the data plane, so a hello arriving right after `AuthOk`
//! always finds its session.
//!
//! **Observability**: process logging goes through one `flashflow-obs`
//! `EventSink` — human text on stderr by default, and with
//! `--log-json FILE` the same structured events as JSONL (line-atomic
//! under concurrent session threads). `--metrics-addr ADDR` serves
//! token-gated `MetricsRegistry` snapshots (blast/echo byte counters)
//! over TCP; see `flashflow-top` for the consumer side.
//!
//! ```text
//! flashflow-measurer [--config FILE] [--listen ADDR] [--role measurer|target]
//!     [--report counters|scripted] [--token-hex HEX64] [--rate BYTES]
//!     [--bg BYTES] [--speedup X] [--sessions N] [--io-threads N]
//!     [--log-json FILE] [--metrics-addr ADDR]
//! ```
//!
//! Stdout carries `listening <addr>` (and `metrics <addr>` when a
//! metrics endpoint is bound), so a spawning harness (or operator
//! tooling) can read the bound ephemeral ports; everything else goes to
//! stderr. With `--sessions N` the process exits cleanly after
//! completing N control conversations (the multi-process harness uses
//! this); without it, it serves until SIGTERM.

mod reactor;

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use flashflow_obs::{fields, Span};
use flashflow_procutil as procutil;
use flashflow_proto::blast::{
    binding_nonce, secret_channel_key, BlastCounters, BlastParser, ReportSource, TrafficSource,
};
use flashflow_proto::msg::PeerRole;
use flashflow_proto::tcp::TcpTransport;
use flashflow_simnet::time::SimTime;

/// The measurer role's own flags.
#[derive(Debug, Clone)]
struct Config {
    role: PeerRole,
    /// Where measurer-role `SecondReport`s come from.
    report: ReportSource,
    /// Scripted measurer rate; `None` follows the commanded `rate_cap`.
    rate: Option<u64>,
    /// Target role: per-second background bytes (always scripted).
    bg: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config { role: PeerRole::Measurer, report: ReportSource::Counters, rate: None, bg: 0 }
    }
}

const USAGE: &str = "usage: flashflow-measurer [--config FILE] [--listen ADDR] \
                     [--role measurer|target] [--report counters|scripted] \
                     [--token-hex HEX64] [--rate BYTES] [--bg BYTES] [--speedup X] \
                     [--sessions N] [--io-threads N] [--log-json FILE] \
                     [--metrics-addr ADDR]";

/// Per-session data-plane counters, fed by however many data channels
/// bound to the session's nonce.
#[derive(Default)]
struct SessionCounters {
    received: AtomicU64,
    corrupt: AtomicU64,
    /// Bytes of frames the parser refused outright: failed integrity
    /// tag (forged) or replayed sequence numbers. Never credited;
    /// surfaced in the session's end-of-slot log line.
    rejected: AtomicU64,
    channels: AtomicU64,
}

/// The process-wide registry binding accepted `Auth` nonces to their
/// counters. Control sessions register on claim and release at the end;
/// data channels look their hello's nonce up here — a nonce that was
/// never accepted by an authenticated session never binds a channel.
#[derive(Default)]
struct DataPlane {
    sessions: Mutex<HashMap<u64, Arc<SessionCounters>>>,
}

impl DataPlane {
    // Registry access recovers from poisoning (`lock_recover`): a
    // serving thread that panicked mid-session must degrade to one
    // lost session, not take down every other thread that touches the
    // registry next.
    fn register(&self, nonce: u64) -> Arc<SessionCounters> {
        Arc::clone(procutil::lock_recover(&self.sessions).entry(nonce).or_default())
    }

    fn lookup(&self, nonce: u64) -> Option<Arc<SessionCounters>> {
        procutil::lock_recover(&self.sessions).get(&nonce).map(Arc::clone)
    }

    fn release(&self, nonce: u64) {
        procutil::lock_recover(&self.sessions).remove(&nonce);
    }
}

/// The measurer role's process-wide state.
struct Measurer {
    cfg: Config,
    data: DataPlane,
    /// Process-global counters fed by inbound blast channels (the
    /// coordinator-blasted data plane; `--metrics-addr` snapshot).
    blast: BlastCounters,
    /// Process-global counters fed by echo-topology verify parsers
    /// (bytes the target relay echoed back at this measurer).
    echo_blast: BlastCounters,
}

/// One echo channel to the target relay: this measurer's blast source
/// and the verifying parser for the relay's echo stream, sharing the
/// dialed connection.
struct EchoChannel {
    source: TrafficSource<TcpTransport>,
    echo: BlastParser,
}

impl EchoChannel {
    /// Verified echoed bytes this channel has received back.
    fn verified(&self) -> u64 {
        self.echo.received_total() - self.echo.corrupt_total()
    }
}

/// Dials the slot's echo channels to the target relay and starts their
/// blasts (clocks run on the sped-up `now`). Channels that fail to dial
/// are skipped — the slot degrades rather than wedging; the coordinator
/// sees it in the reported rates.
fn dial_echo_channels(
    spec: &flashflow_proto::msg::MeasureSpec,
    now: SimTime,
    span: &Span,
    echo_blast: &BlastCounters,
) -> Vec<EchoChannel> {
    let Some(addr) = spec.target.socket_addr() else { return Vec::new() };
    let nonce = binding_nonce(spec.measurement_secret);
    let key = secret_channel_key(spec.measurement_secret);
    let n = spec.sockets.clamp(1, 16);
    let mut channels = Vec::new();
    for chan in 0..n {
        let transport = match TcpTransport::connect(addr) {
            Ok(t) => t,
            Err(e) => {
                span.channel(u64::from(chan)).emit(
                    "echo.dial_failed",
                    fields![addr = format!("{addr}"), error = format!("{e}")],
                );
                continue;
            }
        };
        let mut source = TrafficSource::new(transport, nonce, chan).with_key(key);
        if spec.rate_cap > 0 {
            // Even split; the first channels absorb the remainder.
            let cap = spec.rate_cap;
            let share = cap / u64::from(n) + u64::from(u64::from(chan) < cap % u64::from(n));
            source.set_rate_cap(share);
        }
        source.greet(now);
        source.start(now);
        channels.push(EchoChannel {
            source,
            echo: BlastParser::new().with_key(key).with_counters(echo_blast.clone()),
        });
    }
    span.emit(
        "echo.channels",
        fields![channels = channels.len(), addr = format!("{addr}"), cap = spec.rate_cap],
    );
    channels
}

fn main() {
    procutil::peer::run::<Measurer>();
}
