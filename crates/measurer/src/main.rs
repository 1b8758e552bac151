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
//! * Echo channels are **dialed without blocking** at `Go` and each one
//!   is a reactor connection of its own, driven on its own socket's
//!   readiness: an uncapped channel blasts whenever its socket takes
//!   bytes, one `send` per pump, keeping at most its even share of the
//!   slot's 8 MiB in flight (sent, not yet back in its echo), and
//!   verifies the echo whenever it arrives; a paced one acts at the
//!   points of its slot's report grid, counted from `Go`: at most 4 ms
//!   of wall time apart at any `--speedup`, at least two a sped-up
//!   second, the last half an interval before the second's report.
//!   Each point but a second's last sends an even share of the second's
//!   allowance (at most one pump) and verifies the echo that came back;
//!   the last only verifies, so every report counts exactly the
//!   commanded bytes, and the grid stops at the slot's end. Its shard
//!   wakes once per point, and it is never armed for write readiness
//!   while it has nothing queued. The channels and their
//!   conversation share one atomic tally of verified bytes, which the
//!   conversation closes with the slot's last report: a channel that
//!   finds it closed hangs up at its next wakeup.
//! * A slot opens at most **16** echo channels, whatever `sockets` the
//!   command asks for (the `echo.channels` event logs both figures, as
//!   `commanded` and `channels`). The slot's bytes in flight do not grow
//!   with the channel count; the cap stays while the benchmark's
//!   unverified-bytes gate counts channels with the same cap.
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
//! `ReplayWindow`, and the moment a session accepts an `Auth` nonce it
//! *claims* it in the shared window under the lock: a replayed opener
//! is refused, and of two concurrent connections replaying one opener,
//! exactly one wins.
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

use flashflow_procutil as procutil;
use flashflow_proto::blast::BlastCounters;

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

fn main() {
    procutil::peer::run::<Measurer>();
}
