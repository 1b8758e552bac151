//! Differential and property tests for [`BlastParser`].
//!
//! The parser verifies payload bytes in place, a keystream word at a
//! time, and carries almost nothing between pushes — so its answer must
//! not depend on where the stream was cut. The oracle here is the
//! algorithm the parser replaced, at its plainest: it sees the whole
//! stream at once, materialises each frame's keystream with
//! [`BlastPattern::fill`] and compares byte by byte. For generated
//! streams (valid frames, flipped bytes at and around word boundaries,
//! forged tags, replayed sequence numbers, same-nonce and new-nonce
//! re-hellos, an optional framing error, a missing opening hello or a
//! cut at the end), every chunking of the stream must give the parser
//! the oracle's totals, the oracle's sticky error, and — when the
//! stream has no framing error — the oracle's coalesced event sequence.

use flashflow_proto::blast::{
    frame_tag, BlastError, BlastEvent, BlastParser, BlastPattern, DataChannelHello, BLAST_CHUNK,
    BLAST_FRAME_TAG, BLAST_HEADER_LEN, DATA_HELLO_TAG, HELLO_LEN, MAX_BLAST_PAYLOAD,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const KEY: u64 = 0x6B65_795F_6B65_7921;

/// What one pass over a stream observed.
#[derive(Debug, Default)]
struct Outcome {
    received: u64,
    corrupt: u64,
    forged: u64,
    replayed: u64,
    /// Events with adjacent `Data` merged (how a push coalesces them
    /// depends on the chunking; their sums do not).
    events: Vec<BlastEvent>,
    error: Option<BlastError>,
}

impl Outcome {
    fn record(&mut self, event: BlastEvent) {
        if let (
            BlastEvent::Data { bytes, corrupt },
            Some(BlastEvent::Data { bytes: total, corrupt: total_corrupt }),
        ) = (event, self.events.last_mut())
        {
            *total += bytes;
            *total_corrupt += corrupt;
        } else {
            self.events.push(event);
        }
    }
}

/// The reference: one sequential walk over the whole stream, each
/// frame's keystream filled into a buffer and compared bytewise.
fn oracle(stream: &[u8]) -> Outcome {
    let mut out = Outcome::default();
    let mut pattern: Option<BlastPattern> = None;
    let mut next_seq = 0u64;
    let mut rest = stream;
    while let Some(&tag) = rest.first() {
        match tag {
            DATA_HELLO_TAG => {
                let Some(raw) = rest.first_chunk::<HELLO_LEN>() else { break };
                rest = &rest[HELLO_LEN..];
                match DataChannelHello::decode(raw) {
                    Ok(hello) => {
                        if pattern.map(|p| p.nonce()) != Some(hello.nonce) {
                            next_seq = 0;
                        }
                        pattern = Some(BlastPattern::new(hello.nonce));
                        out.record(BlastEvent::Hello(hello));
                    }
                    Err(e) => {
                        out.error = Some(e);
                        break;
                    }
                }
            }
            BLAST_FRAME_TAG => {
                let Some(raw) = rest.first_chunk::<BLAST_HEADER_LEN>() else { break };
                rest = &rest[BLAST_HEADER_LEN..];
                let Some(pattern) = pattern else {
                    out.error = Some(BlastError::MissingHello);
                    break;
                };
                let seq = u64::from_be_bytes(raw[1..9].try_into().unwrap());
                let len = u32::from_be_bytes(raw[9..13].try_into().unwrap());
                let tag = u64::from_be_bytes(raw[13..21].try_into().unwrap());
                if len as usize > MAX_BLAST_PAYLOAD {
                    out.error = Some(BlastError::OversizedFrame(len));
                    break;
                }
                let arrived = (len as usize).min(rest.len());
                let (payload, after) = rest.split_at(arrived);
                rest = after;
                if tag != frame_tag(KEY, pattern.nonce(), seq, len) {
                    out.forged += u64::from(len);
                    out.record(BlastEvent::Forged { bytes: u64::from(len) });
                } else if seq < next_seq {
                    out.replayed += u64::from(len);
                    out.record(BlastEvent::Replayed { bytes: u64::from(len) });
                } else {
                    next_seq = seq + 1;
                    let mut keystream = vec![0u8; len as usize];
                    pattern.fill(seq, &mut keystream);
                    let corrupt =
                        payload.iter().zip(&keystream).filter(|(a, b)| a != b).count() as u64;
                    out.received += arrived as u64;
                    out.corrupt += corrupt;
                    if arrived > 0 {
                        out.record(BlastEvent::Data { bytes: arrived as u64, corrupt });
                    }
                }
            }
            other => {
                out.error = Some(BlastError::BadTag(other));
                break;
            }
        }
    }
    out
}

/// Feeds `stream` to a fresh parser cut at `cuts` (ascending offsets).
fn parse(stream: &[u8], cuts: &[usize]) -> Outcome {
    let mut parser = BlastParser::new().with_key(KEY);
    let mut out = Outcome::default();
    let mut from = 0;
    for &to in cuts.iter().chain([&stream.len()]) {
        match parser.push(&stream[from..to]) {
            Ok(events) => events.into_iter().for_each(|e| out.record(e)),
            Err(e) => {
                out.error = Some(e);
                assert_eq!(parser.push(&stream[to..]), Err(e), "a framing error is sticky");
                break;
            }
        }
        from = to;
    }
    out.received = parser.received_total();
    out.corrupt = parser.corrupt_total();
    out.forged = parser.forged_total();
    out.replayed = parser.replayed_total();
    out
}

/// The parser's answer under one chunking must be the oracle's.
fn check(stream: &[u8], cuts: &[usize], want: &Outcome, how: &str) {
    let got = parse(stream, cuts);
    // A push that hits the framing error returns only the error, so
    // which events surfaced before it depends on the chunking; the
    // totals and the error do not.
    let same_events = want.error.is_some() || got.events == want.events;
    let same_totals = (got.received, got.corrupt, got.forged, got.replayed, got.error)
        == (want.received, want.corrupt, want.forged, want.replayed, want.error);
    assert!(same_events && same_totals, "{how} (cuts {cuts:?}):\n got {got:?}\nwant {want:?}");
}

/// A generated stream and where its hellos and headers start.
struct Script {
    stream: Vec<u8>,
    units: Vec<usize>,
}

/// Payload lengths around every keystream-word edge, plus the two sizes
/// the senders and the wire format care about.
const LENGTHS: [usize; 11] = [0, 1, 7, 8, 9, 15, 16, 17, 100, BLAST_CHUNK, MAX_BLAST_PAYLOAD];

fn script(seed: u64, steps: usize, ending: u8) -> Script {
    let mut rng = TestRng::from_seed(seed);
    let mut s = Script { stream: Vec::new(), units: Vec::new() };
    let mut nonce = rng.next_u64();
    let mut next_seq = 0u64;
    let hello = |s: &mut Script, nonce: u64| {
        s.units.push(s.stream.len());
        s.stream.extend_from_slice(&DataChannelHello { nonce, channel: 3 }.encode());
    };
    hello(&mut s, nonce);
    for _ in 0..steps {
        let len = LENGTHS[rng.gen_index(LENGTHS.len())];
        let frame = |s: &mut Script, seq: u64, key: u64, flips: usize, rng: &mut TestRng| {
            s.units.push(s.stream.len());
            s.stream.push(BLAST_FRAME_TAG);
            s.stream.extend_from_slice(&seq.to_be_bytes());
            s.stream.extend_from_slice(&(len as u32).to_be_bytes());
            s.stream.extend_from_slice(&frame_tag(key, nonce, seq, len as u32).to_be_bytes());
            let start = s.stream.len();
            s.stream.resize(start + len, 0);
            BlastPattern::new(nonce).fill(seq, &mut s.stream[start..]);
            for _ in 0..flips.min(len) {
                // Flips land on word edges as often as anywhere else.
                let edges = [0, 7, 8, 9, len - 1, len / 2, rng.gen_index(len)];
                let at = edges[rng.gen_index(edges.len())].min(len - 1);
                s.stream[start + at] ^= 1 << rng.gen_index(8);
            }
        };
        match rng.gen_index(10) {
            0..=3 => {
                next_seq += rng.gen_index(3) as u64; // gaps are legal
                frame(&mut s, next_seq, KEY, 0, &mut rng);
                next_seq += 1;
            }
            4 | 5 => {
                let flips = 1 + rng.gen_index(4);
                frame(&mut s, next_seq, KEY, flips, &mut rng);
                next_seq += 1;
            }
            6 => frame(&mut s, next_seq, KEY ^ 1, 0, &mut rng), // forged: wrong key
            7 => {
                let past = rng.gen_index(next_seq as usize + 1) as u64;
                frame(&mut s, past, KEY, 0, &mut rng); // replayed unless nothing was sent yet
                next_seq = next_seq.max(past + 1);
            }
            8 => hello(&mut s, nonce), // same nonce: the window stays
            _ => {
                nonce = rng.next_u64(); // new nonce: a fresh sequence space
                next_seq = 0;
                hello(&mut s, nonce);
            }
        }
    }
    match ending {
        0 => {
            s.units.push(s.stream.len());
            s.stream.push(0x00); // bad tag
            s.stream.extend_from_slice(&[0xAB; 9]);
        }
        1 => {
            s.units.push(s.stream.len());
            s.stream.push(BLAST_FRAME_TAG); // oversized frame
            s.stream.extend_from_slice(&next_seq.to_be_bytes());
            s.stream.extend_from_slice(&(MAX_BLAST_PAYLOAD as u32 + 1).to_be_bytes());
            s.stream.extend_from_slice(&[0; 8]);
        }
        2 => {
            s.units.push(s.stream.len());
            s.stream.extend_from_slice(&[DATA_HELLO_TAG, 9]); // bad version
            s.stream.extend_from_slice(&[0; HELLO_LEN - 2]);
        }
        3 => {
            // The stream just stops, anywhere: inside a header, inside
            // a payload, or on a frame edge.
            let keep = rng.gen_index(s.stream.len() + 1);
            s.stream.truncate(keep);
            s.units.retain(|&u| u < keep);
        }
        4 => {
            // No opening hello: the first whole header is the error
            // (unless the first step happened to be a hello).
            s.stream.drain(..HELLO_LEN);
            s.units = s.units[1..].iter().map(|u| u - HELLO_LEN).collect();
        }
        _ => {} // clean end on a frame edge
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_chunking_agrees_with_the_bytewise_oracle(
        seed in any::<u64>(),
        steps in 1usize..10,
        ending in 0u8..8,
    ) {
        let Script { stream, units } = script(seed, steps, ending);
        let want = oracle(&stream);
        let mut rng = TestRng::from_seed(seed ^ 0xC0FFEE);

        check(&stream, &[], &want, "one push");
        // Split inside (and on both edges of) every hello and header.
        for &unit in &units {
            for at in unit..=(unit + BLAST_HEADER_LEN).min(stream.len()) {
                check(&stream, &[at], &want, "header split");
            }
        }
        for round in 0..4 {
            let mut cuts: Vec<usize> =
                (0..1 + rng.gen_index(12)).map(|_| rng.gen_index(stream.len() + 1)).collect();
            cuts.sort_unstable();
            check(&stream, &cuts, &want, &format!("random split {round}"));
        }
        // Socket-sized pieces that share no factor with a frame.
        let mss: Vec<usize> = (1448..stream.len()).step_by(1448).collect();
        check(&stream, &mss, &want, "mss pushes");
        let bytes: Vec<usize> = (1..stream.len()).collect();
        check(&stream, &bytes, &want, "1-byte pushes");
    }
}

#[test]
fn oracle_sees_what_the_generator_planted() {
    // Guards the test itself: a generator that never produced corrupt,
    // forged or replayed frames (or an oracle blind to them) would let
    // the property above pass vacuously.
    let mut seen = Outcome::default();
    let mut errors = 0;
    for seed in 0..64u64 {
        let got = oracle(&script(seed, 9, (seed % 8) as u8).stream);
        seen.received += got.received;
        seen.corrupt += got.corrupt;
        seen.forged += got.forged;
        seen.replayed += got.replayed;
        errors += u32::from(got.error.is_some());
    }
    assert!(seen.received > 0 && seen.corrupt > 0 && seen.forged > 0 && seen.replayed > 0);
    assert!(seen.corrupt < seen.received / 100, "flips are a few bytes per frame: {seen:?}");
    assert!((16..=32).contains(&errors), "4 of 8 endings are framing errors: {errors}");
}
