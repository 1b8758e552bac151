//! The deployment-shaped path: a coordinator `MeasurementEngine`
//! driving real measurer threads over loopback TCP.
//!
//! The acceptance bar for the transport redesign: a full measurement
//! conversation (Auth → AuthOk → MeasureCmd → Ready → Go →
//! SecondReport× → SlotDone) completes over `TcpTransport` between OS
//! threads, and the estimate it produces agrees with the same scenario
//! run over the in-memory `Duplex` transport — the sessions and engine
//! are byte-for-byte identical, only the transport differs. Plus the
//! failure mode: a `FaultyTransport`-injected mid-conversation
//! disconnect aborts in bounded time instead of wedging the slot.
//!
//! There is no fluid network here: each measurer scripts a fixed
//! per-second byte count, so both transports should see the *same*
//! numbers cross the wire and the 5% agreement bound is pure transport
//! conformance.

use std::net::TcpListener;
use std::thread;
use std::time::{Duration, Instant};

use flashflow_repro::core::engine::{EngineEvent, EngineSnapshot, MeasurementEngine};
use flashflow_repro::core::proto_driver::{run_scripted, ScriptedPeer};
use flashflow_repro::proto::endpoint::Endpoint;
use flashflow_repro::proto::fault::{FaultMode, FaultyTransport};
use flashflow_repro::proto::msg::{
    AbortReason, MeasureSpec, PeerRole, AUTH_TOKEN_LEN, FINGERPRINT_LEN,
};
use flashflow_repro::proto::session::{
    CoordinatorSession, MeasurerAction, MeasurerSession, SessionTimeouts,
};
use flashflow_repro::proto::tcp::TcpTransport;
use flashflow_repro::proto::transport::Transport;
use flashflow_repro::simnet::time::{SimDuration, SimTime};

const SLOT_SECS: u32 = 5;

fn scenario() -> Vec<ScriptedPeer> {
    vec![
        ScriptedPeer::measurer(40_000_000),
        ScriptedPeer::measurer(20_000_000),
        ScriptedPeer::target(2_000_000),
    ]
}

fn token_for(ix: usize) -> [u8; AUTH_TOKEN_LEN] {
    [ix as u8 + 1; AUTH_TOKEN_LEN]
}

fn spec_for(peer: &ScriptedPeer) -> MeasureSpec {
    MeasureSpec {
        relay_fp: [0xFF; FINGERPRINT_LEN],
        slot_secs: SLOT_SECS,
        sockets: if peer.role == PeerRole::Measurer { 8 } else { 0 },
        rate_cap: 0,
        ..MeasureSpec::default()
    }
}

/// The peer-side loop, generic over the transport: answer the
/// handshake, and once started report the scripted seconds. `clock`
/// supplies the session's notion of time.
fn drive_peer<T: Transport>(
    mut endpoint: Endpoint<MeasurerSession, T>,
    script: ScriptedPeer,
    mut clock: impl FnMut() -> SimTime,
) {
    let mut started = false;
    let mut reported = 0u32;
    loop {
        let now = clock();
        endpoint.pump(now);
        endpoint.tick(now);
        while let Some(action) = endpoint.session_mut().poll_action() {
            if matches!(action, MeasurerAction::Start { .. }) {
                started = true;
            }
        }
        if started && reported < SLOT_SECS && !endpoint.is_terminal() {
            endpoint.session_mut().report_second(script.bg, script.measured);
            reported += 1;
        }
        if endpoint.is_terminal() {
            // Flush the tail (SlotDone / Abort) before hanging up.
            for _ in 0..3 {
                endpoint.pump(clock());
                thread::sleep(Duration::from_millis(1));
            }
            return;
        }
        thread::sleep(Duration::from_millis(1));
    }
}

/// Runs the scenario, estimate = median over per-second z, computed
/// from engine events exactly as the sim driver does it.
fn estimate_from(events: &[EngineEvent], peers: &EngineSnapshot) -> f64 {
    assert!(
        events.iter().any(|e| matches!(e, EngineEvent::ItemComplete { item: 0 })),
        "slot never completed: {events:?}"
    );
    // Paper ratio r = 0.25; the scripted background (2 MB/s) is far
    // under the allowance, so z = x + y exactly.
    let (seconds, estimate) = peers.estimate(0, 0.25);
    assert!(!seconds.is_empty(), "slot produced no seconds");
    estimate.bytes_per_sec()
}

/// In-memory reference: the same scenario on the in-memory executor.
fn run_over_duplex() -> f64 {
    let run = run_scripted(&[scenario()], SLOT_SECS);
    estimate_from(&run.events, &run.peers)
}

/// The real thing: coordinator on this thread, one OS thread per peer,
/// loopback TCP in between, wall-clock time mapped to `SimTime`.
fn run_over_tcp() -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    let timeouts = SessionTimeouts::default();
    let mut builder = MeasurementEngine::builder();
    let mut threads = Vec::new();
    for (ix, peer) in scenario().into_iter().enumerate() {
        // Spawn-then-accept, one at a time, so connection ix is peer ix.
        let handle = thread::spawn(move || {
            let transport = TcpTransport::connect(addr).expect("connect");
            let session = MeasurerSession::new(token_for(ix), peer.role, ix as u64, timeouts);
            let t0 = Instant::now();
            drive_peer(Endpoint::new(session, transport), peer, move || {
                SimTime::from_secs_f64(t0.elapsed().as_secs_f64())
            });
        });
        threads.push(handle);
        let (stream, _) = listener.accept().expect("accept");
        builder.add_peer(
            0,
            CoordinatorSession::new(token_for(ix), peer.role, spec_for(&peer), ix as u64, timeouts),
            Box::new(TcpTransport::from_stream(stream).expect("wrap")),
        );
    }
    let mut engine = builder.hard_deadline(SimTime::from_secs(60)).build(SimTime::ZERO);
    let t0 = Instant::now();
    let events = engine.run_to_completion(|| {
        thread::sleep(Duration::from_millis(1));
        SimTime::from_secs_f64(t0.elapsed().as_secs_f64())
    });
    for handle in threads {
        handle.join().expect("peer thread");
    }
    for ev in &events {
        assert!(
            !matches!(ev, EngineEvent::PeerFailed { .. }),
            "clean run had a failure: {events:?}"
        );
    }
    estimate_from(&events, &engine.snapshot())
}

#[test]
fn full_measurement_over_loopback_tcp_agrees_with_duplex() {
    let duplex = run_over_duplex();
    let tcp = run_over_tcp();
    // Scripted peers: x = 60 MB/s, y = 2 MB/s, z = 62 MB/s, both paths.
    assert!(duplex > 0.0, "duplex estimate {duplex}");
    let rel = (duplex - tcp).abs() / duplex;
    assert!(rel < 0.05, "duplex {duplex:.0} B/s vs tcp {tcp:.0} B/s differ by {:.2}%", rel * 100.0);
    // Identical numbers crossed both transports, so agreement should in
    // fact be exact.
    assert!((duplex - 62_000_000.0).abs() < 1.0, "absolute estimate {duplex}");
}

#[test]
fn faulty_tcp_disconnect_aborts_in_bounded_time() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    let timeouts =
        SessionTimeouts { handshake: SimDuration::from_secs(5), report: SimDuration::from_secs(5) };
    let peer = ScriptedPeer::measurer(1_000_000);

    let handle = thread::spawn(move || {
        let transport = TcpTransport::connect(addr).expect("connect");
        let session = MeasurerSession::new(token_for(0), peer.role, 0, timeouts);
        let t0 = Instant::now();
        drive_peer(Endpoint::new(session, transport), peer, move || {
            SimTime::from_secs_f64(t0.elapsed().as_secs_f64())
        });
    });
    let (stream, _) = listener.accept().expect("accept");
    // The coordinator's side of the wire dies after ~60 delivered bytes
    // (mid-conversation, cutting a frame wherever it happens to land).
    let faulty = FaultyTransport::new(
        TcpTransport::from_stream(stream).expect("wrap"),
        FaultMode::Disconnect,
    )
    .trip_after_bytes(60);
    let mut builder = MeasurementEngine::builder();
    let peer_id = builder.add_peer(
        0,
        CoordinatorSession::new(token_for(0), peer.role, spec_for(&peer), 0, timeouts),
        Box::new(faulty),
    );
    let mut engine = builder.hard_deadline(SimTime::from_secs(30)).build(SimTime::ZERO);

    let wall = Instant::now();
    let t0 = Instant::now();
    let events = engine.run_to_completion(|| {
        thread::sleep(Duration::from_millis(1));
        SimTime::from_secs_f64(t0.elapsed().as_secs_f64())
    });
    // Bounded: the disconnect is detected from the transport error, not
    // from a timeout — seconds, not the 30-second hard wall.
    assert!(
        wall.elapsed() < Duration::from_secs(10),
        "abort took {:?} of wall time",
        wall.elapsed()
    );
    assert!(
        events.contains(&EngineEvent::PeerFailed {
            peer: peer_id,
            reason: AbortReason::ConnectionLost
        }),
        "{events:?}"
    );
    handle.join().expect("peer thread");
}
