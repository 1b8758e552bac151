//! Differential and property tests for [`BlastParser`].
//!
//! The parser verifies payload bytes in place, a word at a time, and
//! carries almost nothing between pushes — so its answer must not
//! depend on where the stream was cut. The oracle here is the plainest
//! reading of the spec: it sees the whole stream at once, computes each
//! frame's keystream byte by byte from the formula [`BlastPattern`]
//! documents (with its own `splitmix64`, sharing no table or mask code
//! with the library), and compares byte by byte. For generated
//! streams (valid frames, flipped bytes at and around word boundaries,
//! forged tags, replayed sequence numbers, same-nonce and new-nonce
//! re-hellos, an optional framing error, a missing opening hello or a
//! cut at the end), every chunking of the stream must leave the parser,
//! after every push, with the totals and the sticky error the oracle
//! reached at that offset.
//!
//! The same chunkings run through a relay-side [`Echoer`] over a
//! `Duplex`: its echo must be exactly the oracle's accepted units (every
//! hello, every tag-valid in-window header and the payload bytes that
//! followed it, up to any framing error), it must count as echoed
//! exactly the oracle's verified bytes, and a measurer-side parser over
//! the echo must credit exactly that, count the inbound corrupt bytes
//! corrupt, and meet no forged or replayed frame.
//!
//! A second property pins what the keystream must still catch now that
//! a frame's keystream is a fixed table under a per-frame mask: payloads
//! shifted by 1–7 bytes, moved under the next frame's header, or sent
//! under another nonce's hello are counted corrupt in at least 95 % of
//! their bytes.

use flashflow_proto::blast::{
    frame_tag, BlastError, BlastParser, BlastPattern, DataChannelHello, Echoer, BLAST_CHUNK,
    BLAST_FRAME_TAG, BLAST_HEADER_LEN, DATA_HELLO_TAG, HELLO_LEN, MAX_BLAST_PAYLOAD,
};
use flashflow_proto::transport::{Duplex, Transport};
use flashflow_simnet::time::SimTime;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const KEY: u64 = 0x6B65_795F_6B65_7921;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The first `len` keystream bytes of frame `seq` under `nonce`, from
/// the spec: byte `p` is `BLOCK[p] ^ mask[p % 8]`, where table word `k`
/// (bytes `8k..8k + 8`) is `splitmix64(k)` and the mask is
/// `splitmix64(nonce ^ seq·0xA076_1D64_78BD_642F)`, both big-endian.
fn keystream(nonce: u64, seq: u64, len: usize) -> Vec<u8> {
    let mask = splitmix64(nonce ^ seq.wrapping_mul(0xA076_1D64_78BD_642F)).to_be_bytes();
    (0..len).map(|p| splitmix64((p / 8) as u64).to_be_bytes()[p % 8] ^ mask[p % 8]).collect()
}

/// What a reader of a stream had counted at one offset.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    received: u64,
    corrupt: u64,
    forged: u64,
    replayed: u64,
    error: Option<BlastError>,
}

/// A tag-valid frame's payload: how many of its bytes arrived, and
/// which of those fail the keystream.
struct Payload {
    arrived: usize,
    corrupt_at: Vec<usize>,
}

/// The oracle's reading of a whole stream.
struct Reading {
    /// In stream order, one per hello or header that arrived whole (and
    /// one for a framing error): the offset where it ends, the counts
    /// from there on, and the payload that follows it, which counts
    /// byte by byte.
    marks: Vec<(usize, Outcome, Option<Payload>)>,
    /// The accepted units, in order: what the relay must echo.
    echo: Vec<u8>,
}

impl Reading {
    /// What a reader must have counted once the first `cut` bytes of
    /// the stream arrived.
    fn at(&self, cut: usize) -> Outcome {
        let marks = self.marks.partition_point(|&(end, ..)| end <= cut);
        let Some((end, mut out, payload)) = marks.checked_sub(1).map(|m| &self.marks[m]) else {
            return Outcome::default();
        };
        if let Some(payload) = payload {
            let got = (cut - end).min(payload.arrived);
            out.received += got as u64;
            out.corrupt += payload.corrupt_at.partition_point(|&at| at < got) as u64;
        }
        out
    }
}

/// The reference: one sequential walk over the whole stream, each
/// frame's keystream filled into a buffer and compared bytewise.
fn oracle(stream: &[u8]) -> Reading {
    let mut reading = Reading { marks: Vec::new(), echo: Vec::new() };
    let mut out = Outcome::default();
    let mut nonce: Option<u64> = None;
    let mut next_seq = 0u64;
    let mut rest = stream;
    let at = |rest: &[u8]| stream.len() - rest.len();
    while let Some(&tag) = rest.first() {
        match tag {
            DATA_HELLO_TAG => {
                let Some(raw) = rest.first_chunk::<HELLO_LEN>() else { break };
                rest = &rest[HELLO_LEN..];
                match DataChannelHello::decode(raw) {
                    Ok(hello) => {
                        if nonce != Some(hello.nonce) {
                            next_seq = 0;
                        }
                        nonce = Some(hello.nonce);
                        reading.echo.extend_from_slice(raw);
                    }
                    Err(e) => out.error = Some(e),
                }
                reading.marks.push((at(rest), out, None));
            }
            BLAST_FRAME_TAG => {
                let Some(raw) = rest.first_chunk::<BLAST_HEADER_LEN>() else { break };
                rest = &rest[BLAST_HEADER_LEN..];
                let seq = u64::from_be_bytes(raw[1..9].try_into().unwrap());
                let len = u32::from_be_bytes(raw[9..13].try_into().unwrap());
                let tag = u64::from_be_bytes(raw[13..21].try_into().unwrap());
                let Some(nonce) = nonce else {
                    out.error = Some(BlastError::MissingHello);
                    reading.marks.push((at(rest), out, None));
                    break;
                };
                if len as usize > MAX_BLAST_PAYLOAD {
                    out.error = Some(BlastError::OversizedFrame(len));
                    reading.marks.push((at(rest), out, None));
                    break;
                }
                let arrived = (len as usize).min(rest.len());
                let (payload, after) = rest.split_at(arrived);
                let end = at(rest);
                rest = after;
                if tag != frame_tag(KEY, nonce, seq, len) {
                    out.forged += u64::from(len);
                    reading.marks.push((end, out, None));
                } else if seq < next_seq {
                    out.replayed += u64::from(len);
                    reading.marks.push((end, out, None));
                } else {
                    next_seq = seq + 1;
                    let keystream = keystream(nonce, seq, len as usize);
                    let corrupt_at: Vec<usize> =
                        (0..arrived).filter(|&i| payload[i] != keystream[i]).collect();
                    let header = out;
                    out.received += arrived as u64;
                    out.corrupt += corrupt_at.len() as u64;
                    reading.echo.extend_from_slice(raw);
                    reading.echo.extend_from_slice(payload);
                    reading.marks.push((end, header, Some(Payload { arrived, corrupt_at })));
                }
            }
            other => {
                out.error = Some(BlastError::BadTag(other));
                reading.marks.push((at(rest) + 1, out, None));
            }
        }
        if out.error.is_some() {
            break;
        }
    }
    reading
}

/// The offsets at which a push of `stream` cut at `cuts` (ascending)
/// ends, the last at the stream's end.
fn ends<'a>(stream: &[u8], cuts: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
    cuts.iter().copied().chain([stream.len()])
}

/// Feeds `stream` to a fresh parser cut at `cuts`; returns what it had
/// counted after each push.
fn parse(stream: &[u8], cuts: &[usize]) -> Vec<Outcome> {
    let mut parser = BlastParser::new().with_key(KEY);
    let mut from = 0;
    ends(stream, cuts)
        .map(|to| {
            let error = parser.push(&stream[from..to]).err();
            from = to;
            Outcome {
                received: parser.received_total(),
                corrupt: parser.corrupt_total(),
                forged: parser.forged_total(),
                replayed: parser.replayed_total(),
                error,
            }
        })
        .collect()
}

/// The parser's answer under one chunking must be the oracle's, after
/// every push: a framing error stays once it surfaced, and the totals
/// stop there.
fn check(stream: &[u8], cuts: &[usize], want: &Reading, how: &str) {
    for (push, (to, got)) in ends(stream, cuts).zip(parse(stream, cuts)).enumerate() {
        let expected = want.at(to);
        assert!(
            got == expected,
            "{how} (cuts {cuts:?}): push {push} (to {to} of {}):\n got {got:?}\nwant {expected:?}",
            stream.len()
        );
    }
    check_echo(stream, cuts, &want.at(stream.len()), &want.echo, how);
}

/// Blasts `stream`, cut at `cuts`, at an [`Echoer`] over a `Duplex`, and
/// checks the echo against the oracle's.
fn check_echo(stream: &[u8], cuts: &[usize], want: &Outcome, want_echo: &[u8], how: &str) {
    let now = SimTime::ZERO;
    let (mut measurer, relay) = Duplex::loopback().into_endpoints();
    let mut echoer = Echoer::new(relay).with_key(KEY);
    let mut from = 0;
    for to in ends(stream, cuts) {
        measurer.send(now, &stream[from..to]).expect("open duplex");
        if echoer.pump(now).is_err() {
            break;
        }
        from = to;
    }
    let echo = measurer.recv(now).expect("open duplex");
    let first_difference = echo.iter().zip(want_echo).position(|(a, b)| a != b);
    assert!(
        echo == want_echo,
        "{how} (cuts {cuts:?}): echoed {} B, want {} B, first difference at {first_difference:?}",
        echo.len(),
        want_echo.len()
    );
    let verified = want.received - want.corrupt;
    assert_eq!(echoer.echoed_total(), verified, "{how} (cuts {cuts:?}): echoed total");
    let mut back = BlastParser::new().with_key(KEY);
    back.push(&echo).unwrap_or_else(|e| panic!("{how} (cuts {cuts:?}): echo framing: {e}"));
    let credited = back.received_total() - back.corrupt_total();
    assert_eq!(
        (credited, back.corrupt_total(), back.forged_total(), back.replayed_total()),
        (verified, want.corrupt, 0, 0),
        "{how} (cuts {cuts:?}): what the measurer made of the echo"
    );
}

/// Appends a blast frame for `seq` carrying `payload`, tagged under
/// `key`.
fn push_frame(stream: &mut Vec<u8>, key: u64, nonce: u64, seq: u64, payload: &[u8]) {
    let len = payload.len() as u32;
    stream.push(BLAST_FRAME_TAG);
    stream.extend_from_slice(&seq.to_be_bytes());
    stream.extend_from_slice(&len.to_be_bytes());
    stream.extend_from_slice(&frame_tag(key, nonce, seq, len).to_be_bytes());
    stream.extend_from_slice(payload);
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
            push_frame(&mut s.stream, key, nonce, seq, &keystream(nonce, seq, len));
            let start = s.stream.len() - len;
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
        let stream = script(seed, 9, (seed % 8) as u8).stream;
        let got = oracle(&stream).at(stream.len());
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

#[test]
fn fill_writes_the_spec_keystream() {
    let mut rng = TestRng::from_seed(0xF111);
    for len in [0, 1, 7, 8, 9, 100, BLAST_CHUNK, MAX_BLAST_PAYLOAD - 1, MAX_BLAST_PAYLOAD] {
        let (nonce, seq) = (rng.next_u64(), rng.next_u64());
        let mut filled = vec![0xEE; len];
        BlastPattern::new(nonce).fill(seq, &mut filled);
        assert!(filled == keystream(nonce, seq, len), "nonce {nonce:#x} seq {seq} len {len}");
    }
}

/// A hello for `nonce`, then one tag-valid frame per `(seq, payload)`.
fn stream_of(nonce: u64, frames: impl IntoIterator<Item = (u64, Vec<u8>)>) -> Vec<u8> {
    let mut stream = DataChannelHello { nonce, channel: 0 }.encode().to_vec();
    for (seq, payload) in frames {
        push_frame(&mut stream, KEY, nonce, seq, &payload);
    }
    stream
}

/// Payload lengths for the keystream property: mostly `len % 8 != 0`,
/// and the two that end at the table's last byte.
const ATTACK_LENGTHS: [usize; 9] = [
    1,
    7,
    9,
    1001,
    BLAST_CHUNK - 1,
    BLAST_CHUNK + 3,
    MAX_BLAST_PAYLOAD - 7,
    MAX_BLAST_PAYLOAD - 1,
    MAX_BLAST_PAYLOAD,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn the_keystream_catches_shifted_and_misplaced_payloads(
        nonce in any::<u64>(),
        other in any::<u64>(),
        first in any::<u32>(),
        len_ix in 0usize..ATTACK_LENGTHS.len(),
        shift in 1usize..8,
        cut in 1usize..4096,
    ) {
        prop_assume!(nonce != other);
        let len = ATTACK_LENGTHS[len_ix];
        // Enough frames that one frame's luck cannot carry the share:
        // two masks that happen to share a byte leave an eighth of that
        // frame's bytes matching.
        let frames = 16.max(4096usize.div_ceil(len)) as u64;
        let seqs = u64::from(first)..u64::from(first) + frames;
        let payloads: Vec<Vec<u8>> = seqs.clone().map(|seq| keystream(nonce, seq, len)).collect();
        let framed = |payloads: &[Vec<u8>], seq_step: u64| -> Vec<(u64, Vec<u8>)> {
            seqs.clone().map(|seq| seq + seq_step).zip(payloads.iter().cloned()).collect()
        };
        let mut cases = vec![
            ("clean", stream_of(nonce, framed(&payloads, 0))),
            ("under the next header", stream_of(nonce, framed(&payloads, 1))),
            ("under another hello", stream_of(other, framed(&payloads, 0))),
        ];
        if len > shift {
            let mut shifted = payloads.clone();
            shifted.iter_mut().for_each(|p| p.rotate_left(shift));
            cases.push(("shifted", stream_of(nonce, framed(&shifted, 0))));
        }
        for (how, stream) in cases {
            // Pushes that start payload fragments at every offset mod 8
            // and end some of them at the table's last byte.
            let cuts: Vec<usize> = (cut..stream.len()).step_by(cut + 1447).collect();
            let got = *parse(&stream, &cuts).last().expect("one push at least");
            let want = oracle(&stream).at(stream.len());
            prop_assert_eq!((got.received, got.corrupt), (want.received, want.corrupt), "{}", how);
            prop_assert_eq!((got.forged, got.replayed, got.error), (0, 0, None), "{}", how);
            prop_assert_eq!(got.received, frames * len as u64, "{}", how);
            if how == "clean" {
                prop_assert_eq!(got.corrupt, 0);
            } else {
                prop_assert!(
                    got.corrupt * 100 >= got.received * 95,
                    "{how}: only {} of {} bytes counted corrupt (len {len}, shift {shift})",
                    got.corrupt,
                    got.received
                );
            }
        }
    }
}
