//! Correctness soak of the round driver at the paper's network size: a
//! full 6500-item simulated measurement period (§7), ten items per
//! round, every round one `MeasurementEngine` over scripted peers.
//!
//! Every item is a real protocol conversation — handshake, Go barrier,
//! 30 `SecondReport`s, `SlotDone` — between the coordinator engine and
//! fixed-rate peers over in-memory `Duplex` transports: each round is
//! one `proto_driver::run_scripted` call, on the same executor that
//! runs a `SlotRunner` batch. The run verifies every one of the 6500
//! items completed cleanly with the expected sample count, and prints
//! the wall clock it took.
//!
//! Plain `harness = false` timing (Criterion is unavailable offline):
//! run with `cargo bench -p flashflow-bench --bench scripted_period`.

use std::time::Instant;

use flashflow_core::engine::EngineEvent;
use flashflow_core::proto_driver::{run_scripted, ScriptedPeer};

const TOTAL_ITEMS: usize = 6_500;
const ITEMS_PER_ROUND: usize = 10;
const SLOT_SECS: u32 = 30;

fn main() {
    println!(
        "scripted_period: {TOTAL_ITEMS} items, {ITEMS_PER_ROUND} per round, slot {SLOT_SECS}s"
    );
    let start = Instant::now();
    let (mut completions, mut samples) = (0usize, 0usize);
    for first in (0..TOTAL_ITEMS).step_by(ITEMS_PER_ROUND) {
        // One measurer and one target per item, at a rate unique to the
        // item.
        let items: Vec<Vec<ScriptedPeer>> = (first..TOTAL_ITEMS.min(first + ITEMS_PER_ROUND))
            .map(|item| {
                let rate = 1_000_000 + item as u64;
                vec![ScriptedPeer::measurer(rate), ScriptedPeer::target(rate / 8)]
            })
            .collect();
        let run = run_scripted(&items, SLOT_SECS);
        assert!(run.peers.all_clean(), "round at item {first}: a session failed");
        for event in &run.events {
            match event {
                EngineEvent::ItemComplete { .. } => completions += 1,
                EngineEvent::Sample { .. } => samples += 1,
                _ => {}
            }
        }
    }
    let elapsed = start.elapsed();

    // Every item completed, every sample arrived.
    assert_eq!(completions, TOTAL_ITEMS, "items lost");
    assert_eq!(samples, TOTAL_ITEMS * 2 * SLOT_SECS as usize, "samples lost");
    println!("{:<28} {:>11.3}s", "wall clock", elapsed.as_secs_f64());
}
