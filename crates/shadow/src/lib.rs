//! # flashflow-shadow
//!
//! The paper's §7 private-Tor-network experiments, reproduced on the
//! fluid substrate in place of the Shadow simulator:
//!
//! * [`config`] — the 5%-scale network configuration (328 relays, 3
//!   DirAuths, 397 Markov clients, 40 benchmark clients);
//! * [`sample`] — sampling relay capacities and assembling the network;
//! * [`tgen`] — Markov-model background traffic;
//! * [`benchmark`] — 50 KiB / 1 MiB / 5 MiB benchmark downloads with
//!   15/60/120-second timeouts;
//! * [`run`] — the experiment driver producing Figure 8 (measurement
//!   error) and Figure 9 (client performance under load) data.

pub mod benchmark;
pub mod config;
pub mod run;
pub mod sample;
pub mod tgen;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::benchmark::{BenchmarkDriver, SizeClass, TransferRecord};
    pub use crate::config::ShadowConfig;
    pub use crate::run::{
        run_experiment, run_measurement_phase, Experiment, LoadResult, MeasurementPhase, System,
    };
    pub use crate::sample::{build_network, sample_circuit, PrivateNetwork};
    pub use crate::tgen::{MarkovDriver, MarkovParams};
}
