//! A measurement round in miniature: several items measured at the same
//! time as the items of one `MeasurementEngine`, their events in one
//! stream and their samples in one record.
//!
//! This is the shape of the deployment's round driver (the full-size
//! version is `crates/bench/benches/scripted_period.rs`, and the real
//! multi-process variant — against spawned `flashflow-measurer` and
//! `flashflow-relay` binaries — is `crates/relay/tests/three_party.rs`).
//! Here every item scripts its peers over in-memory transports so the
//! example runs instantly and deterministically.
//!
//! Run with: `cargo run --example scripted_period`

use flashflow_repro::core::proto_driver::{run_scripted, ScriptedPeer};

const ITEMS: usize = 6;
const SLOT_SECS: u32 = 5;

/// One measurement item: a measurer blasting `rate` bytes per second
/// and the target reporting a tenth of that as background.
fn item(ix: usize) -> Vec<ScriptedPeer> {
    let rate = 10_000_000 * (ix as u64 + 1);
    vec![ScriptedPeer::measurer(rate), ScriptedPeer::target(rate / 10)]
}

fn main() {
    println!("scripted period: {ITEMS} items on one engine");
    let items: Vec<_> = (0..ITEMS).map(item).collect();
    let run = run_scripted(&items, SLOT_SECS);

    assert!(run.peers.all_clean(), "a session failed");
    println!("event stream: {} events, per-item order preserved", run.events.len());
    for item in 0..ITEMS {
        let estimate = run.peers.estimate(item, 0.25).1.bytes_per_sec();
        let (tx, rx) =
            run.peers.peers().filter(|p| run.peers.item(*p) == item).fold((0, 0), |(tx, rx), p| {
                let (ptx, prx) = run.peers.frames(p);
                (tx + ptx, rx + prx)
            });
        println!("  item {item}: estimate {:>6.1} MB/s  (frames tx {tx}, rx {rx})", estimate / 1e6);
    }
}
