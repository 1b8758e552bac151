//! One conformance suite, every transport.
//!
//! The `Transport` contract (ordered un-duplicated delivery with no
//! message boundaries, close-drains-then-errors, an idle read that is
//! empty rather than an error)
//! is what lets the sessions and the measurement engine stay identical
//! across the simulated stream, real TCP, and the fault decorator. This
//! suite runs the same generic scenarios against all three, including
//! the two cases that historically break transports: partial-frame
//! delivery (a length-prefixed frame cut at an arbitrary byte) and a
//! mid-slot disconnect, which must abort the session in bounded time
//! rather than wedge it.

use std::net::TcpListener;

use flashflow_proto::endpoint::Endpoint;
use flashflow_proto::fault::{FaultMode, FaultyTransport};
use flashflow_proto::frame::{encode, FrameDecoder};
use flashflow_proto::msg::{MeasureSpec, Msg, PeerRole, AUTH_TOKEN_LEN, FINGERPRINT_LEN};
use flashflow_proto::session::{
    CoordPhase, CoordinatorSession, MeasurerAction, MeasurerPhase, MeasurerSession, SessionState,
    SessionTimeouts,
};
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::{Duplex, Transport};
use flashflow_simnet::time::{SimDuration, SimTime};

/// A transport pair under test. `now(round)` supplies the simulated
/// time for retry round `round` — simulated transports need time to
/// advance past their latency, TCP needs wall-clock patience (the
/// helper sleeps between rounds either way).
struct Pair {
    name: &'static str,
    a: Box<dyn Transport>,
    b: Box<dyn Transport>,
}

fn now_for(round: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(10 * round)
}

fn duplex_pair() -> Pair {
    // 5 ms latency, 5-byte re-chunking: every frame crosses reassembly.
    let (a, b) = Duplex::new(SimDuration::from_millis(5), 5).into_endpoints();
    Pair { name: "Duplex", a: Box::new(a), b: Box::new(b) }
}

fn tcp_pair() -> Pair {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    let client = TcpTransport::connect(addr).expect("connect");
    let (accepted, _) = listener.accept().expect("accept");
    let server = TcpTransport::from_stream(accepted).expect("wrap");
    Pair { name: "TcpTransport", a: Box::new(server), b: Box::new(client) }
}

fn faulty_pair() -> Pair {
    // The decorator in its healthy (untripped) state must be a perfect
    // passthrough over any inner transport.
    let (a, b) = Duplex::new(SimDuration::from_millis(5), 5).into_endpoints();
    Pair {
        name: "FaultyTransport<Duplex>",
        a: Box::new(FaultyTransport::new(a, FaultMode::Disconnect)),
        b: Box::new(FaultyTransport::new(b, FaultMode::Blackhole)),
    }
}

fn all_pairs() -> Vec<Pair> {
    vec![duplex_pair(), tcp_pair(), faulty_pair()]
}

/// Drains `t` until `want` bytes arrived, advancing time and sleeping
/// between rounds; panics (bounded) if they never do.
fn recv_exactly(name: &str, t: &mut dyn Transport, want: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for round in 0..2000 {
        match t.recv(now_for(round)) {
            Ok(bytes) => out.extend_from_slice(&bytes),
            Err(e) => panic!("[{name}] recv failed with {e} after {} bytes", out.len()),
        }
        if out.len() >= want {
            return out;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    panic!("[{name}] only {} of {want} bytes arrived", out.len());
}

/// Polls until `recv` errors (post-close drain done); bounded.
fn recv_until_err(name: &str, t: &mut dyn Transport) {
    for round in 0..2000 {
        match t.recv(now_for(round)) {
            Ok(bytes) => assert!(
                bytes.is_empty(),
                "[{name}] unexpected bytes after expected close: {bytes:?}"
            ),
            Err(_) => return,
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    panic!("[{name}] close never surfaced as a recv error");
}

#[test]
fn delivers_ordered_bytes_both_directions() {
    for mut pair in all_pairs() {
        let t0 = now_for(0);
        pair.a.send(t0, b"abc").expect("send");
        pair.a.send(t0, b"defg").expect("send");
        assert_eq!(
            recv_exactly(pair.name, &mut *pair.b, 7),
            b"abcdefg",
            "[{}] order across writes",
            pair.name
        );
        pair.b.send(t0, b"up").expect("send");
        assert_eq!(recv_exactly(pair.name, &mut *pair.a, 2), b"up", "[{}] reverse", pair.name);
    }
}

#[test]
fn partial_frames_reassemble_through_the_codec() {
    let msg = Msg::Auth { token: [7; AUTH_TOKEN_LEN], role: PeerRole::Measurer, nonce: 0xFEED };
    let frame = encode(&msg);
    for mut pair in all_pairs() {
        // Deliver the frame cut mid-length-prefix and mid-body.
        let t0 = now_for(0);
        pair.a.send(t0, &frame[..3]).expect("send head");
        let mut dec = FrameDecoder::new();
        dec.push(&recv_exactly(pair.name, &mut *pair.b, 3));
        assert_eq!(dec.next_msg().expect("no error"), None, "[{}] incomplete", pair.name);
        pair.a.send(t0, &frame[3..20]).expect("send middle");
        pair.a.send(t0, &frame[20..]).expect("send tail");
        dec.push(&recv_exactly(pair.name, &mut *pair.b, frame.len() - 3));
        assert_eq!(dec.next_msg().expect("no error"), Some(msg), "[{}] reassembled", pair.name);
    }
}

#[test]
fn close_drains_in_flight_bytes_then_errors() {
    for mut pair in all_pairs() {
        pair.a.send(now_for(0), b"last words").expect("send");
        pair.a.close();
        assert_eq!(recv_exactly(pair.name, &mut *pair.b, 10), b"last words");
        recv_until_err(pair.name, &mut *pair.b);
    }
}

#[test]
fn idle_recv_is_empty_not_an_error() {
    for mut pair in all_pairs() {
        // Nothing sent yet: an open connection reads empty.
        assert_eq!(pair.b.recv(now_for(0)).as_deref(), Ok(&[][..]), "[{}]", pair.name);
        pair.a.send(now_for(0), b"x").expect("send");
        assert_eq!(recv_exactly(pair.name, &mut *pair.b, 1), b"x");
        // Drained: empty again, still open.
        assert_eq!(pair.b.recv(now_for(2000)).as_deref(), Ok(&[][..]), "[{}]", pair.name);
    }
}

/// Send-side backpressure: a sender that outruns the kernel's send
/// buffer sees `WouldBlock` mid-frame. The transport must queue the
/// unwritten remainder and flush it opportunistically — every frame
/// eventually arrives intact, none torn at the `WouldBlock` boundary,
/// none silently dropped.
#[test]
fn would_block_on_send_never_tears_or_drops_frames() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    let mut tx = TcpTransport::connect(addr).expect("connect");
    let (accepted, _) = listener.accept().expect("accept");
    let mut rx = TcpTransport::from_stream(accepted).expect("wrap");

    // One burst of frames large enough to overrun any auto-tuned
    // loopback send+receive buffering while the peer reads nothing.
    let frame = encode(&Msg::SecondReport { second: 0, bg_bytes: 7, measured_bytes: 0xDEAD });
    let frames_per_write = 64 * 1024 / frame.len();
    let chunk: Vec<u8> =
        frame.iter().copied().cycle().take(frames_per_write * frame.len()).collect();
    let writes = 512; // ~32 MiB total
    let total_frames = writes * frames_per_write;
    let mut saw_backpressure = false;
    for _ in 0..writes {
        tx.send(SimTime::ZERO, &chunk).expect("send queues under backpressure");
        saw_backpressure |= tx.pending_send_bytes() > 0;
    }
    assert!(saw_backpressure, "the kernel send buffer never filled; burst too small?");

    // Hang up mid-backpressure: close must defer the FIN rather than
    // tear the queued tail — the repeated `close` calls below (the
    // endpoint retries close every pump while terminal) finish the
    // flush first.
    tx.close();

    // Drain the receiver, nudging the sender's outbox along (repeated
    // close retries the flush, like a terminal endpoint's pump would).
    let want = total_frames * frame.len();
    let mut dec = FrameDecoder::new();
    let mut got_frames = 0usize;
    let mut got_bytes = 0usize;
    for round in 0..200_000 {
        let bytes = rx.recv(now_for(round)).expect("recv");
        got_bytes += bytes.len();
        dec.push(&bytes);
        while let Some(msg) = dec.next_msg().expect("no torn frame ever surfaces") {
            assert_eq!(
                msg,
                Msg::SecondReport { second: 0, bg_bytes: 7, measured_bytes: 0xDEAD },
                "frame corrupted at the WouldBlock boundary"
            );
            got_frames += 1;
        }
        if got_bytes >= want {
            break;
        }
        if bytes.is_empty() {
            tx.close(); // retry the deferred-FIN flush
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    // Let the sender finish flushing its queued remainder.
    for round in 0..200_000 {
        if tx.pending_send_bytes() == 0 && got_bytes >= want {
            break;
        }
        tx.close();
        let bytes = rx.recv(now_for(round)).expect("recv tail");
        got_bytes += bytes.len();
        dec.push(&bytes);
        while let Some(msg) = dec.next_msg().expect("no torn frame in the tail") {
            assert_eq!(msg, Msg::SecondReport { second: 0, bg_bytes: 7, measured_bytes: 0xDEAD });
            got_frames += 1;
        }
        if bytes.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    assert_eq!(got_bytes, want, "bytes lost under send backpressure");
    assert_eq!(got_frames, total_frames, "frames lost under send backpressure");
    assert_eq!(tx.pending_send_bytes(), 0, "outbox fully flushed");
    // With the outbox drained the deferred FIN goes out; the receiver
    // observes a clean EOF, not a torn stream.
    tx.close();
    recv_until_err("TcpTransport", &mut rx);
}

/// The data plane rides the same transports as the control plane: a
/// pattern-stamped blast stream (hello + bulk frames) must reassemble
/// and verify byte-exactly across the simulated chunked stream, real
/// TCP, and the (untripped) fault decorator — partial frame delivery
/// included, since the 5-byte Duplex chunking cuts every frame many
/// times.
#[test]
fn blast_streams_reassemble_and_verify_on_every_transport() {
    use flashflow_proto::blast::{BlastParser, TrafficSource};

    for pair in all_pairs() {
        let name = pair.name;
        let mut src = TrafficSource::new(pair.a, 0x0B1A_57ED, 3);
        src.set_rate_cap(50_000);
        let mut rx = pair.b;
        let mut parser = BlastParser::new();
        src.greet(now_for(0));
        src.start(now_for(0));
        // 4 simulated seconds of paced blasting, drained as it arrives.
        for round in 0..400u64 {
            let now = now_for(round); // 10 ms per round
            src.pump(now);
            let bytes = rx.recv(now).expect("healthy stream");
            parser.push(&bytes).expect("framing intact");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        src.stop();
        // Drain the tail.
        for round in 400..800u64 {
            let bytes = rx.recv(now_for(round)).expect("healthy stream");
            parser.push(&bytes).expect("framing intact");
            if parser.received_total() >= src.sent_total() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(src.sent_total() > 0, "[{name}] nothing was blasted");
        assert_eq!(parser.received_total(), src.sent_total(), "[{name}] bytes lost");
        // Every byte verified under the keystream of the hello's nonce,
        // so the hello bound the channel.
        assert_eq!(parser.corrupt_total(), 0, "[{name}] pattern verification failed");
        // Paced over the 3.99 s of the last pump: 50 kB/s, within a round.
        assert!(
            (199_000..=199_500).contains(&src.sent_total()),
            "[{name}] sent {} B in 3.99 s at 50 kB/s",
            src.sent_total()
        );
    }
}

/// Send-side backpressure on the data plane: an uncapped source
/// outruns the kernel send buffer, `WouldBlock` cuts blast frames at
/// arbitrary byte offsets into the transport outbox, and the receiver
/// must still see every frame whole — none torn, none dropped, every
/// payload byte verifying against the pattern.
#[test]
fn blast_would_block_backpressure_never_tears_frames() {
    use flashflow_proto::blast::{BlastParser, TrafficSource};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    let tx = TcpTransport::connect(addr).expect("connect");
    let (accepted, _) = listener.accept().expect("accept");
    let mut rx = TcpTransport::from_stream(accepted).expect("wrap");

    let mut src = TrafficSource::new(tx, 0xF00D, 0);
    src.greet(SimTime::ZERO);
    src.start(SimTime::ZERO);
    // Uncapped pumps while the peer reads nothing: the kernel buffers
    // fill and the remainder queues in the transport outbox.
    let mut saw_backpressure = false;
    for _ in 0..64 {
        src.pump(SimTime::ZERO);
        saw_backpressure |= src.transport_mut().pending_send_bytes() > 0;
    }
    assert!(saw_backpressure, "the kernel send buffer never filled; burst too small?");
    let sent_at_stall = src.sent_total();
    src.stop();

    // Drain the receiver while nudging the sender's outbox along.
    let mut parser = BlastParser::new();
    for round in 0..200_000u64 {
        let bytes = rx.recv(now_for(round)).expect("recv");
        parser.push(&bytes).expect("no torn frame ever surfaces");
        if parser.received_total() >= sent_at_stall && src.transport_mut().pending_send_bytes() == 0
        {
            break;
        }
        // An empty transport send retries the queued outbox, exactly
        // like a driver's next pump would.
        let _ = src.transport_mut().send(SimTime::ZERO, &[]);
        if bytes.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    assert_eq!(parser.received_total(), sent_at_stall, "bytes lost under send backpressure");
    assert_eq!(parser.corrupt_total(), 0, "frame torn at the WouldBlock boundary");
    assert_eq!(src.transport_mut().pending_send_bytes(), 0, "outbox fully flushed");
}

/// A data connection that dies mid-blast must stop the source in
/// bounded rounds (error recorded, no wedging, counters frozen at what
/// actually moved) and surface as a closed stream at the receiver, a
/// bare [`BlastParser`] fed from `Transport::recv` as the measurer's
/// echo channel feeds it.
#[test]
fn mid_blast_disconnect_stops_source_and_sink_in_bounded_rounds() {
    use flashflow_proto::blast::{BlastParser, SourceState, TrafficSource};

    for base in [duplex_pair(), tcp_pair()] {
        let name = base.name;
        // The source's side of the wire dies after ~64 KiB have been
        // delivered toward it... but blast is one-directional, so arm
        // the fault on wall time/calls instead: trip explicitly after a
        // few pumped rounds.
        let mut faulty = FaultyTransport::new(base.a, FaultMode::Disconnect);
        let mut sink = base.b;
        let mut parser = BlastParser::new();
        // Set once the receiving transport reports the connection gone.
        let mut closed = false;
        let mut src_rounds = 0u64;
        let mut src = {
            let mut s = TrafficSource::new(&mut faulty, 0xDEAD, 0);
            s.set_rate_cap(100_000);
            s.greet(now_for(0));
            s.start(now_for(0));
            s
        };
        let mut tripped = false;
        for round in 0..2000u64 {
            let now = now_for(round);
            src.pump(now);
            match sink.recv(now) {
                Ok(bytes) => {
                    parser.push(&bytes).expect("pre-trip stream is clean");
                }
                Err(_) => closed = true,
            }
            src_rounds = round;
            if round == 20 && !tripped {
                tripped = true;
                src.transport_mut().trip();
            }
            if tripped && src.state() == SourceState::Stopped {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(src.state(), SourceState::Stopped, "[{name}] source did not stop");
        assert!(src.error().is_some(), "[{name}] transport error recorded");
        assert!(
            src_rounds < 100,
            "[{name}] disconnect took {src_rounds} rounds to stop the source"
        );
        let received_at_death = parser.received_total();
        assert_eq!(parser.corrupt_total(), 0, "[{name}] pre-trip bytes verified");
        // The receiver drains what was in flight, then observes the close.
        for round in 0..2000u64 {
            if closed {
                break;
            }
            match sink.recv(now_for(round)) {
                Ok(bytes) => {
                    let _ = parser.push(&bytes);
                }
                Err(_) => closed = true,
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(closed, "[{name}] sink never saw the disconnect");
        assert!(parser.received_total() >= received_at_death, "[{name}] counters moved backwards");
    }
}

/// The scenario that motivates the whole error path: a measurer's
/// connection dies mid-slot. The coordinator session must abort with
/// `ConnectionLost` within a bounded number of pump rounds — no
/// timeouts needed, no wedging — and quarantine logic upstream drops the
/// peer's samples.
#[test]
fn mid_slot_disconnect_aborts_in_bounded_rounds() {
    for base in [duplex_pair(), tcp_pair()] {
        let name = base.name;
        let token = [3u8; AUTH_TOKEN_LEN];
        let timeouts = SessionTimeouts::default();
        let spec = MeasureSpec {
            relay_fp: [1; FINGERPRINT_LEN],
            slot_secs: 30,
            sockets: 8,
            rate_cap: 0,
            ..MeasureSpec::default()
        };
        // The coordinator's side of the wire is armed to die after the
        // handshake traffic (~120 bytes) has crossed it.
        let faulty = FaultyTransport::new(base.a, FaultMode::Disconnect).trip_after_bytes(40);
        let mut coord = Endpoint::new(
            CoordinatorSession::new(token, PeerRole::Measurer, spec, 0xD15C, timeouts),
            faulty,
        );
        let mut meas =
            Endpoint::new(MeasurerSession::new(token, PeerRole::Measurer, 1, timeouts), base.b);
        coord.session_mut().start(now_for(0));

        let mut started = false;
        let mut go_sent = false;
        let mut reported = 0u32;
        for round in 0..2000u64 {
            let now = now_for(round);
            coord.pump(now);
            meas.pump(now);
            // The driver's barrier: one peer, so release as soon as armed.
            if !go_sent && coord.session().phase() == CoordPhase::Armed {
                coord.session_mut().go(now);
                go_sent = true;
            }
            while let Some(a) = meas.session_mut().poll_action() {
                if matches!(a, MeasurerAction::Start { .. }) {
                    started = true;
                }
            }
            if started && reported < 30 && !meas.is_terminal() {
                meas.session_mut().report_second(0, 1000);
                reported += 1;
            }
            if coord.is_terminal() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(coord.session().phase(), CoordPhase::Failed, "[{name}] bounded abort");
        assert!(coord.transport_error().is_some(), "[{name}] failure came from the transport");
        // The measurer side dies too (reset propagates), or at worst
        // stays runnable until its own timeout — but with a Disconnect
        // fault the inner close reaches it promptly here.
        let mut meas_dead = meas.is_terminal();
        for round in 0..2000u64 {
            if meas_dead {
                break;
            }
            meas.pump(now_for(round));
            meas_dead = meas.is_terminal();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(meas_dead, "[{name}] measurer side observed the disconnect");
        assert_eq!(meas.session().phase(), MeasurerPhase::Failed, "[{name}]");
    }
}

/// The echo conformance case: a measurer-side source blasts a
/// relay-side [`Echoer`](flashflow_proto::blast::Echoer) across every
/// transport, keyed frame tags on both directions, and the measurer
/// must get back exactly the bytes the relay verified — reassembled
/// through the same partial-delivery paths as everything else.
#[test]
fn echo_round_trips_verified_bytes_on_every_transport() {
    use flashflow_proto::blast::{
        binding_nonce, secret_channel_key, BlastParser, Echoer, TrafficSource,
    };

    let secret = 0xEC_C0FF_EE00;
    let nonce = binding_nonce(secret);
    let key = secret_channel_key(secret);
    for pair in all_pairs() {
        let name = pair.name;
        let mut src = TrafficSource::new(pair.a, nonce, 0).with_key(key);
        src.set_rate_cap(50_000);
        let mut echo = Echoer::new(pair.b).with_key(key);
        let mut back = BlastParser::new().with_key(key);
        src.greet(now_for(0));
        src.start(now_for(0));
        for round in 0..800u64 {
            let now = now_for(round);
            if round < 300 {
                src.pump(now);
            } else if round == 300 {
                src.stop();
            }
            echo.pump(now).unwrap_or_else(|e| panic!("[{name}] inbound framing: {e}"));
            let bytes = src.transport_mut().recv(now).expect("return stream open");
            back.push(&bytes).unwrap_or_else(|e| panic!("[{name}] echo framing: {e}"));
            assert_eq!(back.corrupt_total(), 0, "[{name}] echo failed verification");
            if round > 300 && back.received_total() == src.sent_total() && echo.pending_echo() == 0
            {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let verified_back = back.received_total();
        assert!(src.sent_total() > 0, "[{name}] nothing was blasted");
        assert_eq!(echo.received_total(), src.sent_total(), "[{name}] inbound bytes lost");
        assert_eq!(echo.corrupt_total(), 0, "[{name}] inbound verification failed");
        assert_eq!(echo.forged_total(), 0, "[{name}] honest frames counted forged");
        assert_eq!(
            verified_back,
            src.sent_total(),
            "[{name}] the echo must return every verified byte"
        );
    }
}

/// A measurer hanging up mid-echo must stop the echoer in bounded
/// rounds (transport error recorded, later pumps quiesce), not wedge
/// its serving thread.
#[test]
fn echoer_stops_in_bounded_rounds_when_the_measurer_hangs_up() {
    use flashflow_proto::blast::{Echoer, TrafficSource};

    let mut pair = duplex_pair();
    let mut src = TrafficSource::new(&mut pair.a, 0x1234, 0);
    src.set_rate_cap(20_000);
    let mut echo = Echoer::new(pair.b);
    src.greet(now_for(0));
    src.start(now_for(0));
    for round in 0..50u64 {
        src.pump(now_for(round));
        echo.pump(now_for(round)).expect("clean stream");
    }
    drop(src);
    pair.a.close();
    let mut stopped = false;
    for round in 50..100u64 {
        let _ = echo.pump(now_for(round));
        if echo.transport_error().is_some() {
            stopped = true;
            break;
        }
    }
    assert!(stopped, "echoer never observed the hangup");
    assert!(!echo.pump(now_for(200)).expect("quiesced"), "terminal echoer keeps claiming progress");
}
