//! A measurement round in miniature: several items measured at the same
//! time as the items of one `MeasurementEngine`, their events in one
//! stream and their samples in one record.
//!
//! This is the deployment's round loop on in-memory links (the
//! full-size version is `crates/bench/benches/scripted_period.rs`, and
//! the real multi-process variant — against spawned
//! `flashflow-measurer` and `flashflow-relay` binaries — is
//! `crates/relay/tests/three_party.rs`). Here every item scripts its
//! peers over in-memory transports so the example runs instantly and
//! deterministically.
//!
//! Run with: `cargo run --example scripted_period`

use flashflow_repro::core::echo::{EchoDeployment, EchoItem, EchoMeasurer};
use flashflow_repro::core::proto_driver::{run_scripted, Scripted, ScriptedRelay};
use flashflow_repro::proto::msg::{TargetEndpoint, AUTH_TOKEN_LEN, FINGERPRINT_LEN};

const ITEMS: usize = 6;
const SLOT_SECS: u32 = 5;

/// One measurement item: relay `ix`, whose measurer reports `rate`
/// bytes per second and whose relay reports a tenth of that as
/// background.
fn item(ix: usize) -> (EchoItem, ScriptedRelay) {
    let rate = 10_000_000 * (ix as u64 + 1);
    let item = EchoItem {
        relay_fp: [ix as u8 + 1; FINGERPRINT_LEN],
        slot_secs: SLOT_SECS,
        bg_allowance: 0,
        measurement_secret: ix as u64,
        attempt: 0,
        trace_id: 0,
    };
    (item, ScriptedRelay { measured: vec![rate], background: rate / 10 })
}

fn main() {
    println!("scripted period: {ITEMS} items on one engine");
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
    let (items, scripts): (Vec<_>, Vec<_>) = (0..ITEMS).map(item).unzip();
    let mut scripted = Scripted::new(items.iter().map(|item| item.relay_fp).zip(scripts));
    let mut events = 0;
    let peers = run_scripted(&deployment, &items, &mut scripted, &mut |_| events += 1);

    assert!(peers.all_clean(), "a session failed");
    println!("event stream: {events} events, per-item order preserved");
    for item in 0..ITEMS {
        let estimate = peers.estimate(item, 0.25).1.bytes_per_sec();
        let (tx, rx) =
            peers.peers().filter(|p| peers.item(*p) == item).fold((0, 0), |(tx, rx), p| {
                let (ptx, prx) = peers.frames(p);
                (tx + ptx, rx + prx)
            });
        println!("  item {item}: estimate {:>6.1} MB/s  (frames tx {tx}, rx {rx})", estimate / 1e6);
    }
}
