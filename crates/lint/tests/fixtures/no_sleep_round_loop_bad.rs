//! Fixture: the coordinator's round loop and keepalive probe paced by
//! sleeping. Linted under `crates/core/src/echo.rs` and
//! `crates/core/src/pool.rs`, both sleeps below must fire: a round that
//! sleeps a fixed step answers every peer frame up to a step late, and
//! a probe that sleeps between reads sees its `Pong` late.

use std::time::{Duration, Instant};

pub fn run_round(step: &mut dyn FnMut(f64) -> bool) {
    let t0 = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(1));
        if !step(t0.elapsed().as_secs_f64()) {
            break;
        }
    }
}

pub fn ping_probe(recv: &mut dyn FnMut() -> Option<u64>, deadline: Instant) -> bool {
    while Instant::now() < deadline {
        if recv().is_some() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}
