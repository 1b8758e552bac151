//! # flashflow-obs
//!
//! The workspace's telemetry core: metric registries, structured
//! events and sinks — with **zero dependencies** (std only), because
//! the build environment is offline and because every other crate
//! (including the wire-protocol hot path) must be able to depend on
//! this one without cycles.
//!
//! The pieces, bottom up:
//!
//! * [`json`] — a minimal JSON value/encoder/parser (no serde
//!   available); integers are `i128` so `u64` counters round-trip
//!   exactly, and [`Json::encode`] writes a document in one pass.
//! * [`metrics`] — [`MetricsRegistry`] of atomic [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket [`Histogram`]s. Handles are
//!   `Arc<Atomic…>` clones: updating one from a frame parser is a
//!   single relaxed fetch-add, cheap enough for the blast hot path.
//! * [`event`] / [`sink`] — structured [`Event`]s with period → group →
//!   channel [`Scope`]s, emitted through a shared [`EventSink`]
//!   to human-text stderr and JSONL files;
//!   [`Span`]s carry scope prefixes through the layers.

pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;

pub use event::{Event, Scope, Value};
pub use json::{Json, JsonError};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, RegistrySnapshot,
};
pub use sink::{EventSink, Span};
