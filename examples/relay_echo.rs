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

use flashflow_repro::core::measure::build_second_samples;
use flashflow_repro::core::proto_driver::{run_in_memory, PeerBehaviour};
use flashflow_repro::proto::blast::{
    binding_nonce, secret_channel_key, BackgroundMeter, BlastEvent, BlastParser, ByteCounter,
    Echoer, TrafficSource,
};
use flashflow_repro::proto::msg::{MeasureSpec, PeerRole, TargetEndpoint, FINGERPRINT_LEN};
use flashflow_repro::proto::session::MeasurerAction;
use flashflow_repro::proto::transport::{Duplex, DuplexEnd, Transport as _};
use flashflow_repro::simnet::rng::SimRng;
use flashflow_repro::simnet::stats::median;
use flashflow_repro::simnet::time::{SimDuration, SimTime};

const SLOT_SECS: u32 = 5;
const RATIO: f64 = 0.25;
const MEASURER_CAPS: [u64; 2] = [40_000, 20_000];
const BG_OFFERED: u64 = 9_000;
const BG_ALLOWANCE: u64 = 5_000;
const SECRET: u64 = 0x0EC0_5EC2_E7D0_0001;

/// One measurer: its echo lane to the relay once started, and the
/// echo it verified.
struct Measurer {
    lane: Option<(TrafficSource<DuplexEnd>, Echoer<DuplexEnd>)>,
    back: BlastParser,
    verified: ByteCounter,
}

/// The in-process data plane: peers `0..MEASURER_CAPS.len()` are the
/// measurers, the last peer the relay. Each tick the measurers blast,
/// the relay echoes, and the measurers verify.
struct EchoTopology {
    now: SimTime,
    nonce: u64,
    key: u64,
    measurers: Vec<Measurer>,
    meter: BackgroundMeter,
    relay_echoed: ByteCounter,
}

impl PeerBehaviour for EchoTopology {
    fn now(&self) -> SimTime {
        self.now
    }

    fn advance(&mut self) {
        self.now += SimDuration::from_millis(50);
        let now = self.now;
        let mut relay_echo_delta = 0u64;
        for m in self.measurers.iter_mut() {
            let Some((src, echoer)) = m.lane.as_mut() else { continue };
            let before = echoer.echoed_total();
            src.pump(now);
            echoer.pump(now).expect("clean inbound stream");
            relay_echo_delta += echoer.echoed_total() - before;
            let bytes = src.transport_mut().recv(now).expect("echo stream open");
            for ev in m.back.push(&bytes).expect("clean echo stream") {
                if let BlastEvent::Data { bytes, corrupt } = ev {
                    m.verified.add(now, bytes - corrupt);
                }
            }
        }
        if self.relay_echoed.is_running() && relay_echo_delta > 0 {
            self.relay_echoed.add(now, relay_echo_delta);
        } else {
            self.relay_echoed.roll(now);
        }
        self.meter.tick(now);
    }

    fn act(&mut self, peer: usize, action: MeasurerAction, now: SimTime) {
        match (self.measurers.get_mut(peer), action) {
            // Like the relay binary, derive the echo binding from the
            // commanded spec: which hello nonce its channels must
            // present, and the background allowance.
            (None, MeasurerAction::Prepare { spec }) => {
                assert_eq!(binding_nonce(spec.measurement_secret), self.nonce);
                assert_eq!(secret_channel_key(spec.measurement_secret), self.key);
                self.meter.set_cap(spec.rate_cap);
            }
            (None, MeasurerAction::Start { .. }) => {
                self.meter.start(now);
                self.relay_echoed.start(now);
            }
            // A measurer dials its own echo lane at Go (a fresh Duplex
            // stands in for the TCP dial to the relay's listener).
            (Some(m), MeasurerAction::Start { spec }) => {
                let (me, relay_end) = Duplex::loopback().into_endpoints();
                let mut src = TrafficSource::new(me, self.nonce, peer as u32).with_key(self.key);
                src.set_rate_cap(spec.rate_cap);
                src.greet(now);
                src.start(now);
                let mut echoer = Echoer::new(relay_end).with_key(self.key);
                echoer.start(now);
                m.lane = Some((src, echoer));
                m.verified.start(now);
            }
            _ => {}
        }
    }

    /// Reports: one per completed second on each peer's own counters.
    fn second(&self, peer: usize, j: u32) -> Option<(u64, u64)> {
        let j = j as usize;
        match self.measurers.get(peer) {
            Some(m) => Some((0, *m.verified.completed().get(j)?)),
            None => Some((
                *self.meter.completed_seconds().get(j)?,
                *self.relay_echoed.completed().get(j)?,
            )),
        }
    }
}

fn main() {
    let spec = MeasureSpec {
        relay_fp: [0xEC; FINGERPRINT_LEN],
        slot_secs: SLOT_SECS,
        // In-process there is nothing to dial — the example wires the
        // data lanes itself — but the secret still rides the command,
        // exactly as it does over TCP.
        target: TargetEndpoint::NONE,
        measurement_secret: SECRET,
        ..MeasureSpec::default()
    };
    let mut peers = Vec::new();
    for rate_cap in MEASURER_CAPS {
        peers.push((0, PeerRole::Measurer, MeasureSpec { sockets: 1, rate_cap, ..spec }));
    }
    // The relay runs the same session state machine as the measurers,
    // answering the protocol's target role; its rate_cap is the
    // background allowance.
    peers.push((0, PeerRole::Target, MeasureSpec { rate_cap: BG_ALLOWANCE, ..spec }));
    let key = secret_channel_key(SECRET);
    let mut topology = EchoTopology {
        now: SimTime::ZERO,
        nonce: binding_nonce(SECRET),
        key,
        measurers: MEASURER_CAPS
            .iter()
            .map(|_| Measurer {
                lane: None,
                back: BlastParser::new().with_key(key),
                verified: ByteCounter::new(),
            })
            .collect(),
        meter: BackgroundMeter::new(BG_OFFERED),
        relay_echoed: ByteCounter::new(),
    };
    let run = run_in_memory(&mut topology, &peers, &mut SimRng::seed_from_u64(7));
    assert!(run.peers.all_clean(), "topology did not complete: {:?}", run.events);

    // The estimate, exactly as §4.1 computes it.
    let (x, y) = run.ledger.merged_series(&run.peers, 0);
    let seconds = build_second_samples(&x, &y, RATIO);
    let z: Vec<f64> = seconds.iter().map(|s| s.z).collect();
    let estimate = median(&z).expect("seconds");
    let honest_x: u64 = MEASURER_CAPS.iter().sum();
    println!("echoed measurement rate (x): ~{honest_x} B/s commanded");
    println!("admitted background    (y): {BG_ALLOWANCE} B/s (offered {BG_OFFERED}, capped)");
    println!("estimate  median(x+y clamped): {estimate:.0} B/s");
    println!(
        "audit: {} rows, {} divergent",
        run.ledger.rows(&run.peers, 0).len(),
        run.ledger.divergent_count(&run.peers, 0)
    );
    let expect = (honest_x + BG_ALLOWANCE) as f64;
    assert!(
        (estimate - expect).abs() / expect < 0.10,
        "estimate {estimate:.0} differs from expected {expect:.0} by >10%"
    );
    assert_eq!(run.ledger.divergent_count(&run.peers, 0), 0, "honest topology flagged");
    println!("ok: full echo topology reproduced the commanded capacity");
}
