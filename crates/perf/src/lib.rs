//! `flashflow-perf`: one benchmark for the process path.
//!
//! The real `flashflow-relay`, `flashflow-measurer` and
//! `flashflow-coord` binaries are spawned over host loopback and driven
//! through four workloads ([`spec::WORKLOADS`]); everything is measured
//! from outside — exit times, `/proc/<pid>`, the binaries' own
//! `--metrics-addr` and `--log-json` flags, the files the coordinator
//! leaves in its state directory — and every run checks integrity
//! counters and ledger verdicts before it reports a speed. A separate
//! traced run times each layer in-process ([`ladder`]) and joins the
//! three processes' event logs into per-item spans
//! ([`engine_spans`]). See `README.md` for the metric glossary and how
//! the layers are expected to move the end-to-end numbers.

pub mod engine_spans;
pub mod ladder;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod supervise;
pub mod workload;
