//! # flashflow-coord
//!
//! The continuous whole-network measurement daemon: the paper's product
//! is not one measurement but *a BWAuth that measures all of Tor every
//! day, forever* (§4.3). This crate turns the run-one-period
//! coordinator library into that long-running service:
//!
//! * [`roster`] — the relay roster to walk: the `flashflow-shadow`
//!   5%-scale 328-relay sample (log-normal priors) or the
//!   `flashflow-metrics` synthetic corpus for larger networks.
//! * [`scheduler`] — partitions the roster into measurement *rounds*
//!   respecting the paper's k-measurer allocation: each round's total
//!   commanded blast must fit inside the team's aggregate capacity.
//! * [`journal`] — the crash-safe on-disk period journal (JSONL,
//!   O_APPEND, one write and one fsync per record or per round-side
//!   batch via [`flashflow_procutil::append_lines`]). Recovery replays the journal
//!   and tolerates a torn final line, so a SIGKILLed coordinator
//!   restarts exactly where it stopped: completed relays are never
//!   re-measured, and relays that were mid-measurement are re-run as
//!   attempt `n+1`, whose control sessions open with the protocol-v5
//!   `Resume` handshake (the measurer/relay processes' replay windows
//!   witnessed attempt `n`'s nonces, so they re-adopt the parked
//!   conversations instead of rejecting the re-derived nonces as
//!   replays).
//! * [`daemon`] — the period loop itself: recover → plan rounds →
//!   [`run_rounds`](flashflow_core::echo::run_rounds), which stages
//!   round n+1 while round n blasts → journal every item (one fsync as
//!   a round is staged, one as it ends) → vote a consensus through
//!   `flashflow-tornet`'s [`DirAuths`](flashflow_tornet::consensus::DirAuths)
//!   and compare the weights against `flashflow-balance`'s TorFlow
//!   baseline — one command measures a live multi-process network and
//!   emits a consensus document.
//!
//! The binary (`src/main.rs`) wires this to the shared process
//! scaffolding: `--config` files, SIGTERM drain, `--log-json`
//! structured events, and a token-gated `--metrics-addr` endpoint whose
//! counters (`coord.roster_done`, `coord.sessions_resumed`, …) feed
//! `flashflow-top --coord`.

pub mod daemon;
pub mod journal;
pub mod roster;
pub mod scheduler;
