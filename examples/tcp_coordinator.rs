//! A real coordinator process driving measurer threads over TCP.
//!
//! This is the deployment shape from §4.1/§7 in miniature: the
//! `MeasurementEngine` (the coordinator) on the main thread, two
//! measurers and the target relay's reporting endpoint each on their own
//! OS thread, and nothing between them but loopback TCP carrying the
//! length-prefixed control frames. The sessions, timeouts, nonce
//! handshake, and sample quarantine are the exact same hardened code the
//! deterministic simulation exercises — only the transport differs.
//!
//! Run with: `cargo run --example tcp_coordinator`

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::net::TcpListener;
use std::thread;
use std::time::{Duration, Instant};

use flashflow_repro::core::engine::{EngineEvent, MeasurementEngine};
use flashflow_repro::proto::endpoint::Endpoint;
use flashflow_repro::proto::msg::{MeasureSpec, PeerRole, AUTH_TOKEN_LEN, FINGERPRINT_LEN};
use flashflow_repro::proto::session::{
    CoordinatorSession, MeasurerAction, MeasurerSession, SessionTimeouts,
};
use flashflow_repro::proto::tcp::TcpTransport;
use flashflow_repro::simnet::time::SimTime;

const SLOT_SECS: u32 = 5;

/// OS-seeded random u64 for handshake nonces (std-only; the simulation
/// paths use the deterministic `SimRng` instead).
fn random_nonce() -> u64 {
    RandomState::new().build_hasher().finish()
}

fn main() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    println!("coordinator listening on {addr}");

    // (name, role, per-second measured bytes, per-second background bytes)
    let peers: [(&str, PeerRole, u64, u64); 3] = [
        ("measurer-us-e", PeerRole::Measurer, 40_000_000, 0),
        ("measurer-nl", PeerRole::Measurer, 20_000_000, 0),
        ("target-relay", PeerRole::Target, 0, 2_000_000),
    ];
    let timeouts = SessionTimeouts::default();
    let mut builder = MeasurementEngine::builder();
    let mut threads = Vec::new();

    for (ix, &(name, role, measured, bg)) in peers.iter().enumerate() {
        let token = [ix as u8 + 1; AUTH_TOKEN_LEN];
        // Spawn-then-accept keeps connection order deterministic.
        let handle = thread::spawn(move || {
            let transport = TcpTransport::connect(addr).expect("connect");
            let mut endpoint =
                Endpoint::new(MeasurerSession::new(token, role, ix as u64, timeouts), transport);
            let t0 = Instant::now();
            let mut started = false;
            let mut reported = 0u32;
            loop {
                let now = SimTime::from_secs_f64(t0.elapsed().as_secs_f64());
                endpoint.pump(now);
                endpoint.tick(now);
                while let Some(action) = endpoint.session_mut().poll_action() {
                    match action {
                        MeasurerAction::Prepare { spec } => println!(
                            "[{name}] preparing: {} sockets toward fp {:02x}{:02x}…",
                            spec.sockets, spec.relay_fp[0], spec.relay_fp[1]
                        ),
                        MeasurerAction::Start { .. } => {
                            println!("[{name}] go — blasting");
                            started = true;
                        }
                        MeasurerAction::Stop => println!("[{name}] stopped"),
                    }
                }
                if started && reported < SLOT_SECS && !endpoint.is_terminal() {
                    // A real measurer reads these numbers off its sockets;
                    // here each thread scripts a steady rate.
                    endpoint.session_mut().report_second(bg, measured);
                    reported += 1;
                    // Pace roughly like a per-second reporter (sped up
                    // 10×; the protocol does not care).
                    thread::sleep(Duration::from_millis(100));
                }
                if endpoint.is_terminal() {
                    for _ in 0..3 {
                        endpoint.pump(SimTime::from_secs_f64(t0.elapsed().as_secs_f64()));
                        thread::sleep(Duration::from_millis(1));
                    }
                    return;
                }
                thread::sleep(Duration::from_millis(1));
            }
        });
        threads.push(handle);

        let (stream, peer_addr) = listener.accept().expect("accept");
        println!("accepted {name} from {peer_addr}");
        let spec = MeasureSpec {
            relay_fp: [0xAB; FINGERPRINT_LEN],
            slot_secs: SLOT_SECS,
            sockets: if role == PeerRole::Measurer { 80 } else { 0 },
            rate_cap: measured,
            ..MeasureSpec::default()
        };
        builder.add_peer(
            0,
            CoordinatorSession::new(token, role, spec, random_nonce(), timeouts),
            Box::new(TcpTransport::from_stream(stream).expect("wrap")),
        );
    }

    // Drive the engine on wall-clock time until the slot completes.
    let mut engine = builder.hard_deadline(SimTime::from_secs(60)).build(SimTime::ZERO);
    let t0 = Instant::now();
    let events = engine.run_to_completion(|| {
        thread::sleep(Duration::from_millis(1));
        SimTime::from_secs_f64(t0.elapsed().as_secs_f64())
    });
    for handle in threads {
        handle.join().expect("peer thread");
    }

    for event in &events {
        match event {
            EngineEvent::GoReleased { at, .. } => {
                println!("[coordinator] barrier released at {at}")
            }
            EngineEvent::PeerDone { peer } => println!("[coordinator] peer {peer:?} done"),
            EngineEvent::PeerFailed { peer, reason } => {
                println!("[coordinator] peer {peer:?} FAILED: {reason}");
            }
            _ => {}
        }
    }

    let (seconds, estimate) = engine.snapshot().estimate(0, 0.25);
    println!("\nper-second series ({} seconds):", seconds.len());
    for (j, s) in seconds.iter().enumerate() {
        println!(
            "  sec {j}: x {:>6.1} MB  y {:>4.1} MB  z {:>6.1} MB",
            s.x / 1e6,
            s.y_accepted / 1e6,
            s.z / 1e6
        );
    }
    println!(
        "estimate: {:.1} MB/s over TCP in {:.0} ms of wall time",
        estimate.bytes_per_sec() / 1e6,
        t0.elapsed().as_secs_f64() * 1e3
    );
}
