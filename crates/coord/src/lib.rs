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
//!   attempt `n+1` with their journaled secret. Each attempt derives
//!   its own handshake nonces, so attempt `n+1` opens with a plain
//!   `Auth` that no peer's replay window has seen, whether the peer
//!   kept running or restarted too.
//! * [`daemon`] — the period loop itself: recover → plan rounds →
//!   the round loop it is handed ([`run_rounds`](flashflow_core::echo::run_rounds)
//!   over processes, or the same loop in memory), which stages
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
//! metrics (`coord.items_done`, `coord.items_resumed`,
//! `coord.rounds_done`, `coord.periods_done`, `coord.roster_total`,
//! `coord.roster_remaining`) feed `flashflow-top --coord`.

pub mod daemon;
pub mod journal;
pub mod roster;
pub mod scheduler;
