//! Quickstart for the paper's **full topology**, in one process: a
//! coordinator commands two measurers and one target relay; at `Go`
//! the measurers blast the relay over data channels, the relay echoes
//! every verified byte back while admitting capped background traffic,
//! and all three report per second. The estimate is echoed measurement
//! bytes plus ratio-clamped background — §4.1 end to end, over
//! in-memory transports on a simulated clock.
//!
//! The deployed twin of this wiring is `flashflow-core::echo` +
//! `crates/relay` + `crates/measurer` over loopback TCP (see
//! `crates/relay/tests/three_party.rs`).
//!
//! Run with: `cargo run --example relay_echo`

use flashflow_repro::core::echo::{EchoDeployment, EchoItem, EchoMeasurer};
use flashflow_repro::core::proto_driver::{run_scripted, PeerBehaviour, SimPeer};
use flashflow_repro::proto::blast::{
    binding_nonce, secret_channel_key, BlastParser, Echoer, TrafficSource,
};
use flashflow_repro::proto::msg::{TargetEndpoint, AUTH_TOKEN_LEN, FINGERPRINT_LEN};
use flashflow_repro::proto::session::MeasurerAction;
use flashflow_repro::proto::transport::{Duplex, DuplexEnd, Transport as _};
use flashflow_repro::simnet::time::SimTime;

const SLOT_SECS: u32 = 5;
const RATIO: f64 = 0.25;
const MEASURER_CAPS: [u64; 2] = [40_000, 20_000];
const BG_OFFERED: u64 = 9_000;
const BG_ALLOWANCE: u64 = 5_000;
const SECRET: u64 = 0x0EC0_5EC2_E7D0_0001;

/// Per-second byte accounting on a caller-injected clock.
///
/// Seconds are aligned to [`ByteCounter::start`]; bytes recorded with
/// [`ByteCounter::add`] accrue to the second in progress, and each call
/// first finalizes every second wholly elapsed by its `now` (a jump
/// across several seconds finalizes the in-progress one and zero-fills
/// the skipped ones). The trailing partial second is never
/// reported — exactly the `SecondReport` contract of "one report per
/// *completed* second".
#[derive(Debug, Clone, Default)]
struct ByteCounter {
    epoch: Option<SimTime>,
    completed: Vec<u64>,
    current: u64,
}

impl ByteCounter {
    /// Starts (or restarts) counting with second 0 beginning at `now`.
    fn start(&mut self, now: SimTime) {
        self.epoch = Some(now);
        self.completed.clear();
        self.current = 0;
    }

    /// Records `bytes` as of `now` (rolls completed seconds first).
    fn add(&mut self, now: SimTime, bytes: u64) {
        self.roll(now);
        self.current += bytes;
    }

    /// Finalizes every second wholly elapsed by `now`.
    fn roll(&mut self, now: SimTime) {
        let Some(epoch) = self.epoch else { return };
        let elapsed_secs = now.saturating_duration_since(epoch).as_secs() as usize;
        while self.completed.len() < elapsed_secs {
            let bytes = std::mem::take(&mut self.current);
            self.completed.push(bytes);
        }
    }

    /// Byte counts of every completed second, in order.
    fn completed(&self) -> &[u64] {
        &self.completed
    }
}

/// One measurer: its echo lane to the relay once started, and the
/// echo it verified.
struct Measurer {
    lane: Option<(TrafficSource<DuplexEnd>, Echoer<DuplexEnd>)>,
    back: BlastParser,
    verified: ByteCounter,
}

/// The in-process data plane: the deployment's measurers and its relay.
/// At every wait of the in-memory links (at least every 100 ms) the
/// measurers blast, the relay echoes, and the measurers verify.
struct EchoTopology {
    nonce: u64,
    key: u64,
    measurers: Vec<Measurer>,
    /// The relay's admitted background: `BG_OFFERED`, capped at the
    /// commanded allowance for the whole slot.
    bg: u64,
    relay_echoed: ByteCounter,
}

impl PeerBehaviour for EchoTopology {
    fn advance(&mut self, now: SimTime) {
        let mut relay_echo_delta = 0u64;
        for m in self.measurers.iter_mut() {
            let Some((src, echoer)) = m.lane.as_mut() else { continue };
            let before = echoer.echoed_total();
            src.pump(now);
            echoer.pump(now).expect("clean inbound stream");
            relay_echo_delta += echoer.echoed_total() - before;
            let bytes = src.transport_mut().recv(now).expect("echo stream open");
            let credited = m.back.received_total() - m.back.corrupt_total();
            m.back.push(&bytes).expect("clean echo stream");
            m.verified.add(now, m.back.received_total() - m.back.corrupt_total() - credited);
        }
        // Bytes echoed before the relay's Start are dropped by `start`.
        self.relay_echoed.add(now, relay_echo_delta);
    }

    fn act(&mut self, peer: SimPeer, action: MeasurerAction, now: SimTime) {
        match (peer.measurer.map(|ix| (ix, &mut self.measurers[ix])), action) {
            // Like the relay binary, derive the echo binding from the
            // commanded spec: which hello nonce its channels must
            // present, and the background allowance.
            (None, MeasurerAction::Prepare { spec }) => {
                assert_eq!(binding_nonce(spec.measurement_secret), self.nonce);
                assert_eq!(secret_channel_key(spec.measurement_secret), self.key);
                self.bg =
                    if spec.rate_cap == 0 { BG_OFFERED } else { BG_OFFERED.min(spec.rate_cap) };
            }
            (None, MeasurerAction::Start { .. }) => self.relay_echoed.start(now),
            // A measurer dials its own echo lane at Go (a fresh Duplex
            // stands in for the TCP dial to the relay's listener).
            (Some((ix, m)), MeasurerAction::Start { spec }) => {
                let (me, relay_end) = Duplex::loopback().into_endpoints();
                let mut src = TrafficSource::new(me, self.nonce, ix as u32).with_key(self.key);
                src.set_rate_cap(spec.rate_cap);
                src.greet(now);
                src.start(now);
                let echoer = Echoer::new(relay_end).with_key(self.key);
                m.lane = Some((src, echoer));
                m.verified.start(now);
            }
            _ => {}
        }
    }

    /// Reports: one per completed second on each peer's own counters.
    fn second(&mut self, peer: SimPeer, j: u32) -> Option<(u64, u64)> {
        let j = j as usize;
        match peer.measurer {
            Some(ix) => Some((0, *self.measurers[ix].verified.completed().get(j)?)),
            None => Some((self.bg, *self.relay_echoed.completed().get(j)?)),
        }
    }
}

fn main() {
    // In-process there is nothing to dial — the example wires the data
    // lanes itself — but the secret still rides the command, exactly as
    // it does over TCP. The relay runs the same session state machine as
    // the measurers, answering the protocol's target role; its rate cap
    // is the background allowance.
    let measurers = MEASURER_CAPS.iter().enumerate().map(|(ix, &rate_cap)| EchoMeasurer {
        addr: ([127, 0, 0, 1], 0).into(),
        token: [0x21 + ix as u8; AUTH_TOKEN_LEN],
        rate_cap,
        sockets: 1,
    });
    let deployment = EchoDeployment {
        measurers: measurers.collect(),
        relay: TargetEndpoint::NONE,
        relay_token: [0x29; AUTH_TOKEN_LEN],
        speedup: 1.0,
        ratio: RATIO,
    };
    let item = EchoItem {
        relay_fp: [0xEC; FINGERPRINT_LEN],
        slot_secs: SLOT_SECS,
        bg_allowance: BG_ALLOWANCE,
        measurement_secret: SECRET,
        attempt: 0,
        trace_id: 0,
    };
    let key = secret_channel_key(SECRET);
    let mut topology = EchoTopology {
        nonce: binding_nonce(SECRET),
        key,
        measurers: MEASURER_CAPS
            .iter()
            .map(|_| Measurer {
                lane: None,
                back: BlastParser::new().with_key(key),
                verified: ByteCounter::default(),
            })
            .collect(),
        bg: BG_OFFERED,
        relay_echoed: ByteCounter::default(),
    };
    let mut events = Vec::new();
    let peers = run_scripted(&deployment, &[item], &mut topology, &mut |e| events.push(e));
    assert!(peers.all_clean(), "topology did not complete: {events:?}");

    // The estimate, exactly as §4.1 computes it.
    let estimate = peers.estimate(0, RATIO).1.bytes_per_sec();
    let honest_x: u64 = MEASURER_CAPS.iter().sum();
    println!("echoed measurement rate (x): ~{honest_x} B/s commanded");
    println!("admitted background    (y): {BG_ALLOWANCE} B/s (offered {BG_OFFERED}, capped)");
    println!("estimate  median(x+y clamped): {estimate:.0} B/s");
    println!(
        "audit: {} rows, {} divergent",
        peers.rows(0, RATIO).len(),
        peers.divergent_count(0, RATIO)
    );
    let expect = (honest_x + BG_ALLOWANCE) as f64;
    assert!(
        (estimate - expect).abs() / expect < 0.10,
        "estimate {estimate:.0} differs from expected {expect:.0} by >10%"
    );
    assert_eq!(peers.divergent_count(0, RATIO), 0, "honest topology flagged");
    println!("ok: full echo topology reproduced the commanded capacity");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_counter_finalizes_whole_seconds_only() {
        let mut c = ByteCounter::default();
        c.start(SimTime::from_secs(10));
        c.add(SimTime::from_secs_f64(10.5), 100);
        assert!(c.completed().is_empty(), "partial second not reported");
        c.add(SimTime::from_secs_f64(11.2), 50);
        assert_eq!(c.completed(), &[100]);
        // A jump across seconds zero-fills the gap.
        c.roll(SimTime::from_secs_f64(14.0));
        assert_eq!(c.completed(), &[100, 50, 0, 0]);
    }
}
