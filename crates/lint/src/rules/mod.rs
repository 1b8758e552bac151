//! The rule implementations. Each module exposes a `RULE` id and a
//! `check` entry point; file-local rules take one [`FileScan`], the
//! cross-file rules ([`lock_order`], [`msg_exhaustive`],
//! [`journal_exhaustive`], [`orphan_pub`]) accumulate over the whole
//! workspace.
//!
//! [`FileScan`]: crate::scan::FileScan

pub mod durability;
pub mod journal_exhaustive;
pub mod lock_order;
pub mod msg_exhaustive;
pub mod no_blocking_dial;
pub mod no_panic;
pub mod no_sleep_in_reactor;
pub mod ordering;
pub mod orphan_pub;
pub mod safety;
