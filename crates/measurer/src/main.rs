//! `flashflow-measurer` — a standalone measurer process.
//!
//! This is the measurer corner of the paper's deployment topology
//! (§4.1, §7): a long-lived process on a measurement host that listens
//! on TCP for its coordinator's framed control conversations, and at
//! each commanded slot **initiates** the data plane — at `Go` it dials
//! `sockets` echo channels to the target relay named in the
//! `MeasureCmd`, blasts pattern-stamped frames bound to the command's
//! measurement secret (public binding nonce in the hello, secret-keyed
//! integrity tag on every frame), verifies the relay's echo stream, and
//! reports the **verified echoed bytes** per second. See the
//! `flashflow-relay` crate for the serving side.
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
//! * A measurer serves **no inbound data channels**: measurement bytes
//!   only ever flow measurer → relay → measurer, so a connection that
//!   opens with a
//!   [`DataChannelHello`](flashflow_proto::blast::DataChannelHello) is
//!   refused the moment its hello is complete (`channel.unknown_nonce`),
//!   whatever nonce it names.
//!
//! Liveness at the edges (half-open connections must not hold
//! resources): a connection that says nothing at all, or starts a data
//! hello and never completes it, is dropped at the classification
//! deadline — or as soon as it closes, floods, or the process drains.
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
//! replaying one opener, exactly one wins.
//!
//! **Observability**: process logging goes through one `flashflow-obs`
//! `EventSink` — human text on stderr by default, and with
//! `--log-json FILE` the same structured events as JSONL (line-atomic
//! under concurrent session threads). `--metrics-addr ADDR` serves
//! token-gated `MetricsRegistry` snapshots (echo byte counters) over
//! TCP; see `flashflow-top` for the consumer side.
//!
//! ```text
//! flashflow-measurer [--config FILE] [--listen ADDR] [--role measurer]
//!     [--token-hex HEX64] [--speedup X] [--sessions N] [--io-threads N]
//!     [--log-json FILE] [--metrics-addr ADDR]
//! ```
//!
//! Stdout carries `listening <addr>` (and `metrics <addr>` when a
//! metrics endpoint is bound), so a spawning harness (or operator
//! tooling) can read the bound ephemeral ports; everything else goes to
//! stderr. With `--sessions N` the process exits cleanly after
//! completing N control conversations (the harnesses use this); without
//! it, it serves until SIGTERM.

mod reactor;

use flashflow_obs::{fields, Span};
use flashflow_procutil as procutil;
use flashflow_proto::blast::{
    binding_nonce, secret_channel_key, BlastCounters, BlastParser, TrafficSource,
};
use flashflow_proto::tcp::TcpTransport;
use flashflow_simnet::time::SimTime;

const USAGE: &str = "usage: flashflow-measurer [--config FILE] [--listen ADDR] \
                     [--role measurer] [--token-hex HEX64] [--speedup X] \
                     [--sessions N] [--io-threads N] [--log-json FILE] \
                     [--metrics-addr ADDR]";

/// The measurer role's process-wide state: the counters fed by every
/// slot's echo-verifying parsers (bytes the target relay echoed back at
/// this measurer; the `--metrics-addr` snapshot).
struct Measurer {
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
