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

use flashflow_repro::core::engine::{MeasurementEngine, SampleLedger};
use flashflow_repro::core::measure::build_second_samples;
use flashflow_repro::proto::blast::{
    binding_nonce, secret_channel_key, BackgroundMeter, BlastEvent, BlastParser, ByteCounter,
    Echoer, TrafficSource,
};
use flashflow_repro::proto::endpoint::Endpoint;
use flashflow_repro::proto::msg::{
    MeasureSpec, PeerRole, TargetEndpoint, AUTH_TOKEN_LEN, FINGERPRINT_LEN,
};
use flashflow_repro::proto::session::{
    CoordinatorSession, MeasurerAction, MeasurerSession, SessionTimeouts,
};
use flashflow_repro::proto::transport::{Duplex, DuplexEnd, Transport as _};
use flashflow_repro::simnet::stats::median;
use flashflow_repro::simnet::time::SimTime;

const SLOT_SECS: u32 = 5;
const RATIO: f64 = 0.25;
const MEASURER_CAPS: [u64; 2] = [40_000, 20_000];
const BG_OFFERED: u64 = 9_000;
const BG_ALLOWANCE: u64 = 5_000;
const SECRET: u64 = 0x0EC0_5EC2_E7D0_0001;

/// One measurer: its control endpoint plus its echo lane to the relay.
struct Measurer {
    control: Endpoint<MeasurerSession, DuplexEnd>,
    source: Option<TrafficSource<DuplexEnd>>,
    back: BlastParser,
    verified: ByteCounter,
    counted_through: u64,
    reported: u32,
}

fn main() {
    let token = [7u8; AUTH_TOKEN_LEN];
    let timeouts = SessionTimeouts::default();
    let nonce = binding_nonce(SECRET);
    let key = secret_channel_key(SECRET);

    // Control wiring: the coordinator's engine holds one session per
    // peer; the peer halves live in this function.
    let mut builder = MeasurementEngine::builder();
    let mut measurers = Vec::new();
    let mut echo_lanes: Vec<Echoer<DuplexEnd>> = Vec::new();
    for (ix, &cap) in MEASURER_CAPS.iter().enumerate() {
        let spec = MeasureSpec {
            relay_fp: [0xEC; FINGERPRINT_LEN],
            slot_secs: SLOT_SECS,
            sockets: 1,
            rate_cap: cap,
            // In-process there is nothing to dial — the example wires
            // the data lanes itself — but the secret still rides the
            // command, exactly as it does over TCP.
            target: TargetEndpoint::NONE,
            measurement_secret: SECRET,
            trace_id: 0,
        };
        let (ca, cb) = Duplex::loopback().into_endpoints();
        builder.add_peer(
            0,
            CoordinatorSession::new(token, PeerRole::Measurer, spec, 100 + ix as u64, timeouts)
                .with_report_ahead_cap(SLOT_SECS),
            Box::new(ca),
        );
        measurers.push(Measurer {
            control: Endpoint::new(
                MeasurerSession::new(token, PeerRole::Measurer, ix as u64, timeouts),
                cb,
            ),
            source: None,
            back: BlastParser::new().with_key(key),
            verified: ByteCounter::new(),
            counted_through: 0,
            reported: 0,
        });
    }
    // The relay's reporting session (target role); its rate_cap is the
    // background allowance.
    let relay_spec = MeasureSpec {
        relay_fp: [0xEC; FINGERPRINT_LEN],
        slot_secs: SLOT_SECS,
        sockets: 0,
        rate_cap: BG_ALLOWANCE,
        target: TargetEndpoint::NONE,
        measurement_secret: SECRET,
        trace_id: 0,
    };
    let (ca, cb) = Duplex::loopback().into_endpoints();
    builder.add_peer(
        0,
        CoordinatorSession::new(token, PeerRole::Target, relay_spec, 200, timeouts)
            .with_report_ahead_cap(SLOT_SECS),
        Box::new(ca),
    );
    // The relay runs the same session state machine as the measurers,
    // answering the protocol's target role.
    let mut relay = Endpoint::new(MeasurerSession::new(token, PeerRole::Target, 99, timeouts), cb);
    let mut meter = BackgroundMeter::new(BG_OFFERED);
    let mut relay_echoed = ByteCounter::new();
    let mut relay_echoed_through = 0u64;
    let mut relay_bg_through = 0u64;
    let mut relay_reported = 0u32;
    let mut relay_running = false;

    let mut engine = builder.hard_deadline(SimTime::from_secs(120)).build(SimTime::ZERO);
    let mut ledger = SampleLedger::new();
    let mut events = Vec::new();

    for tick in 0..2_000u64 {
        let now = SimTime::from_secs_f64(tick as f64 * 0.05);
        // Move control bytes until the tick quiesces.
        loop {
            let mut moved = engine.pump(now);
            for m in measurers.iter_mut() {
                moved |= m.control.pump(now);
            }
            moved |= relay.pump(now);
            if !moved {
                break;
            }
        }
        // Relay side: register the measurement, start the clocks at Go.
        while let Some(action) = relay.session_mut().poll_action() {
            match action {
                // Like the relay binary, derive the echo binding from
                // the commanded spec: which hello nonce its channels
                // must present, and the background allowance.
                MeasurerAction::Prepare { spec } => {
                    assert_eq!(binding_nonce(spec.measurement_secret), nonce);
                    assert_eq!(secret_channel_key(spec.measurement_secret), key);
                    meter.set_cap(spec.rate_cap);
                }
                MeasurerAction::Start { .. } => {
                    relay_running = true;
                    meter.start(now);
                    relay_echoed.start(now);
                }
                MeasurerAction::Stop => {}
            }
        }
        // Measurer side: dial the echo lanes at Go (a fresh Duplex per
        // measurer stands in for the TCP dial to the relay's listener).
        for (ix, m) in measurers.iter_mut().enumerate() {
            while let Some(action) = m.control.session_mut().poll_action() {
                if let MeasurerAction::Start { spec } = action {
                    let (me, relay_end) = Duplex::loopback().into_endpoints();
                    let mut src = TrafficSource::new(me, nonce, ix as u32).with_key(key);
                    src.set_rate_cap(spec.rate_cap);
                    src.greet(now);
                    src.start(now);
                    m.source = Some(src);
                    m.verified.start(now);
                    let mut echoer = Echoer::new(relay_end).with_key(key);
                    echoer.start(now);
                    echo_lanes.push(echoer);
                }
            }
        }
        // Data plane: blast → echo → verify, all on this tick.
        let mut relay_echo_delta = 0u64;
        for (m, echoer) in measurers.iter_mut().zip(echo_lanes.iter_mut()) {
            let before = echoer.echoed_total();
            if let Some(src) = m.source.as_mut() {
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
        }
        if relay_echoed.is_running() && relay_echo_delta > 0 {
            relay_echoed.add(now, relay_echo_delta);
        } else {
            relay_echoed.roll(now);
        }
        meter.tick(now);
        // Reports: one per completed second on each peer's own counters.
        for m in measurers.iter_mut() {
            while (m.reported as usize) < m.verified.completed().len()
                && m.reported < SLOT_SECS
                && !m.control.is_terminal()
            {
                let through: u64 = m.verified.completed()[..=m.reported as usize].iter().sum();
                let delta = through - m.counted_through;
                m.counted_through = through;
                m.control.session_mut().report_second(0, delta);
                m.reported += 1;
            }
        }
        if relay_running {
            let complete = relay_echoed.completed().len().min(meter.completed_seconds().len());
            while (relay_reported as usize) < complete
                && relay_reported < SLOT_SECS
                && !relay.is_terminal()
            {
                let j = relay_reported as usize;
                let echoed: u64 = relay_echoed.completed()[..=j].iter().sum();
                let echo_delta = echoed - relay_echoed_through;
                relay_echoed_through = echoed;
                let bg: u64 = meter.completed_seconds()[..=j].iter().sum();
                let bg_delta = bg - relay_bg_through;
                relay_bg_through = bg;
                relay.session_mut().report_second(bg_delta, echo_delta);
                relay_reported += 1;
            }
        }
        for m in measurers.iter_mut() {
            m.control.tick(now);
        }
        relay.tick(now);
        engine.finish_tick(now);
        while let Some(ev) = engine.poll_event() {
            ledger.observe(&ev);
            events.push(ev);
        }
        if engine.is_finished() {
            break;
        }
    }
    assert!(engine.is_finished(), "topology did not complete: {events:?}");

    // The estimate, exactly as §4.1 computes it.
    let (x, y) = ledger.merged_series(&engine, 0);
    let seconds = build_second_samples(&x, &y, RATIO);
    let z: Vec<f64> = seconds.iter().map(|s| s.z).collect();
    let estimate = median(&z).expect("seconds");
    let honest_x: u64 = MEASURER_CAPS.iter().sum();
    println!("echoed measurement rate (x): ~{honest_x} B/s commanded");
    println!("admitted background    (y): {BG_ALLOWANCE} B/s (offered {BG_OFFERED}, capped)");
    println!("estimate  median(x+y clamped): {estimate:.0} B/s");
    println!(
        "audit: {} rows, {} divergent",
        ledger.rows(&engine, 0).len(),
        ledger.divergent_count(&engine, 0)
    );
    let expect = (honest_x + BG_ALLOWANCE) as f64;
    assert!(
        (estimate - expect).abs() / expect < 0.10,
        "estimate {estimate:.0} differs from expected {expect:.0} by >10%"
    );
    assert_eq!(ledger.divergent_count(&engine, 0), 0, "honest topology flagged");
    println!("ok: full echo topology reproduced the commanded capacity");
}
