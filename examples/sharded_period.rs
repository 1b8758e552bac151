//! A sharded measurement period in miniature: item groups partitioned
//! across worker threads, each with its own `MeasurementEngine`, events
//! fanned into one stream and samples into a shared ledger.
//!
//! This is the deployment topology of the period driver (the full-size
//! version is `crates/bench/benches/sharded_period.rs`, and the real
//! multi-process variant — against spawned `flashflow-measurer` and
//! `flashflow-relay` binaries — is `crates/relay/tests/three_party.rs`).
//! Here each
//! group scripts its peers over in-memory transports so the example
//! runs instantly and deterministically.
//!
//! Run with: `cargo run --example sharded_period`

use flashflow_repro::core::measure::build_second_samples;
use flashflow_repro::core::shard::script::{group as scripted_group, ScriptConfig, ScriptedPeer};
use flashflow_repro::core::shard::{GroupRunner, ShardedEngine};
use flashflow_repro::simnet::stats::median;

const ITEMS: usize = 6;
const SHARDS: usize = 2;
const SLOT_SECS: u32 = 5;

/// One measurement item: a measurer blasting `rate` bytes per second
/// and the target reporting a tenth of that as background, both
/// scripted over thread-local loopback links (the shared harness from
/// `flashflow_core::shard::script`).
fn item_group(item: usize) -> Box<dyn GroupRunner> {
    let rate = 10_000_000 * (item as u64 + 1);
    scripted_group(
        vec![vec![ScriptedPeer::measurer(rate), ScriptedPeer::target(rate / 10)]],
        ScriptConfig { slot_secs: SLOT_SECS, ..ScriptConfig::default() },
    )
}

fn main() {
    println!("sharded period: {ITEMS} items across {SHARDS} worker threads");
    let run =
        ShardedEngine::run_partitioned((0..ITEMS).map(item_group).collect::<Vec<_>>(), SHARDS);

    assert!(run.all_clean(), "a session failed");
    println!("fan-in stream: {} events, group-local order preserved", run.events.len());
    for group in 0..ITEMS {
        let (x, y) = run.merged_series(group, 0);
        let seconds = build_second_samples(&x, &y, 0.25);
        let z: Vec<f64> = seconds.iter().map(|s| s.z).collect();
        let estimate = median(&z).expect("seconds");
        let (tx, rx) = run.snapshots[group].peers().fold((0, 0), |(tx, rx), p| {
            let (ptx, prx) = run.snapshots[group].frames(p);
            (tx + ptx, rx + prx)
        });
        println!(
            "  item {group}: estimate {:>6.1} MB/s  (frames tx {tx}, rx {rx})",
            estimate / 1e6
        );
    }
}
