//! Correctness soak of the round loop at the paper's network size: a
//! full 6500-item simulated measurement period (§7), ten items per
//! round, every round one `MeasurementEngine` over scripted peers.
//!
//! Every item is a real protocol conversation — handshake, Go barrier,
//! 30 `SecondReport`s, `SlotDone` — between the coordinator engine and
//! fixed-rate peers over in-memory `Duplex` transports. The 650 rounds
//! are one `RoundSource` run by `proto_driver::simulate_rounds`: the
//! deployment's round loop on in-memory links, so round n+1 is staged
//! and handshaken while round n blasts, and goes at round n's slot end.
//! The run verifies every one of the 6500 items completed cleanly with
//! the expected sample count, and prints the wall clock it took.
//!
//! Plain `harness = false` timing (Criterion is unavailable offline):
//! run with `cargo bench -p flashflow-bench --bench scripted_period`.

use std::time::Instant;

use flashflow_core::echo::{EchoDeployment, EchoItem, EchoMeasurer, RoundSource};
use flashflow_core::engine::{EngineEvent, EngineSnapshot};
use flashflow_core::proto_driver::{simulate_rounds, Scripted, ScriptedRelay};
use flashflow_proto::msg::{TargetEndpoint, AUTH_TOKEN_LEN, FINGERPRINT_LEN};

const TOTAL_ITEMS: usize = 6_500;
const ITEMS_PER_ROUND: usize = 10;
const SLOT_SECS: u32 = 30;

/// The relay of item `item`.
fn fp(item: usize) -> [u8; FINGERPRINT_LEN] {
    let mut fp = [0; FINGERPRINT_LEN];
    fp[..8].copy_from_slice(&(item as u64).to_be_bytes());
    fp
}

/// Hands the period out ten items a round and counts what comes back.
#[derive(Default)]
struct Period {
    next: usize,
    rounds: usize,
    completions: usize,
    samples: usize,
}

impl RoundSource for Period {
    fn next_round(&mut self) -> Option<Vec<EchoItem>> {
        let items: Vec<EchoItem> = (self.next..TOTAL_ITEMS.min(self.next + ITEMS_PER_ROUND))
            .map(|item| EchoItem {
                relay_fp: fp(item),
                slot_secs: SLOT_SECS,
                bg_allowance: 0,
                measurement_secret: item as u64,
                attempt: 0,
                trace_id: 0,
            })
            .collect();
        self.next += items.len();
        (!items.is_empty()).then_some(items)
    }

    fn event(&mut self, _: usize, event: EngineEvent) {
        match event {
            EngineEvent::ItemComplete { .. } => self.completions += 1,
            EngineEvent::Sample { .. } => self.samples += 1,
            _ => {}
        }
    }

    fn finished(&mut self, round: usize, peers: EngineSnapshot) {
        assert!(peers.all_clean(), "round {round}: a session failed");
        self.rounds += 1;
    }
}

fn main() {
    println!(
        "scripted_period: {TOTAL_ITEMS} items, {ITEMS_PER_ROUND} per round, slot {SLOT_SECS}s"
    );
    // One measurer and one target per item, at a rate unique to the item.
    let mut scripted = Scripted::new((0..TOTAL_ITEMS).map(|item| {
        let rate = 1_000_000 + item as u64;
        (fp(item), ScriptedRelay { measured: vec![rate], background: rate / 8 })
    }));
    let measurer = EchoMeasurer {
        addr: ([127, 0, 0, 1], 0).into(),
        token: [0x21; AUTH_TOKEN_LEN],
        rate_cap: 0,
        sockets: 1,
    };
    let deployment = EchoDeployment {
        measurers: vec![measurer],
        relay: TargetEndpoint::NONE,
        relay_token: [0x29; AUTH_TOKEN_LEN],
        speedup: 1.0,
        ratio: 0.25,
    };
    let mut period = Period::default();
    let start = Instant::now();
    simulate_rounds(&deployment, &mut scripted, &mut period);
    let elapsed = start.elapsed();

    // Every round ended, every item completed, every sample arrived.
    assert_eq!(period.rounds, TOTAL_ITEMS.div_ceil(ITEMS_PER_ROUND), "rounds lost");
    assert_eq!(period.completions, TOTAL_ITEMS, "items lost");
    assert_eq!(period.samples, TOTAL_ITEMS * 2 * SLOT_SECS as usize, "samples lost");
    println!("{:<28} {:>11.3}s", "wall clock", elapsed.as_secs_f64());
}
