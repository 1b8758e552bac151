//! Property tests for the wire codec.
//!
//! Two totality claims: every message round-trips through
//! encode → (chunked) decode unchanged for arbitrary field values, and
//! the decoder never panics on arbitrary byte soup — it either yields
//! messages or a typed `WireError`.

use flashflow_proto::frame::{decode_payload, encode, FrameDecoder, LEN_PREFIX};
use flashflow_proto::msg::{
    AbortReason, MeasureSpec, Msg, PeerRole, TargetEndpoint, AUTH_TOKEN_LEN, FINGERPRINT_LEN,
};
use proptest::prelude::*;

fn arb_token() -> impl Strategy<Value = [u8; AUTH_TOKEN_LEN]> {
    prop::collection::vec(any::<u8>(), AUTH_TOKEN_LEN).prop_map(|v| {
        let mut t = [0u8; AUTH_TOKEN_LEN];
        t.copy_from_slice(&v);
        t
    })
}

fn arb_fp() -> impl Strategy<Value = [u8; FINGERPRINT_LEN]> {
    prop::collection::vec(any::<u8>(), FINGERPRINT_LEN).prop_map(|v| {
        let mut t = [0u8; FINGERPRINT_LEN];
        t.copy_from_slice(&v);
        t
    })
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    // Pick a variant, then fill its fields from independent draws.
    (
        0u8..8,
        arb_token(),
        arb_fp(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u32>(), any::<u32>(), 0u8..2, 0u8..7),
    )
        .prop_map(
            |(variant, token, relay_fp, (a, b, c), (x, y, role, reason))| match variant {
                0 => Msg::Auth {
                    token,
                    role: PeerRole::from_u8(role).expect("role in range"),
                    nonce: c,
                },
                1 => Msg::AuthOk { session: a, nonce: c },
                2 => Msg::MeasureCmd(MeasureSpec {
                    relay_fp,
                    slot_secs: x,
                    sockets: y,
                    rate_cap: b,
                    // Derive the endpoint, secret, and trace id from the
                    // draws so the v4/v6 fields round-trip arbitrary
                    // values too.
                    target: TargetEndpoint {
                        ip: relay_fp[..4].try_into().expect("4 bytes"),
                        port: (a & 0xFFFF) as u16,
                    },
                    measurement_secret: c,
                    trace_id: a ^ b,
                }),
                3 => Msg::Ready,
                4 => Msg::Go,
                5 => Msg::SecondReport { second: x, bg_bytes: b, measured_bytes: c },
                6 => Msg::SlotDone,
                _ => Msg::Abort { reason: AbortReason::from_u8(reason).expect("reason in range") },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn round_trip_every_variant(msg in arb_msg()) {
        let frame = encode(&msg);
        // Layer 1: payload decode.
        prop_assert_eq!(decode_payload(&frame[LEN_PREFIX..]), Ok(msg));
        // Layer 2: stream decode of the whole frame.
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        prop_assert_eq!(dec.next_msg().unwrap(), Some(msg));
        prop_assert_eq!(dec.next_msg().unwrap(), None);
        prop_assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn round_trip_survives_arbitrary_chunking(
        msgs in prop::collection::vec(arb_msg(), 1..8),
        chunk in 1usize..64,
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode(m));
        }
        let mut dec = FrameDecoder::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while let Some(m) = dec.next_msg().expect("valid stream") {
                decoded.push(m);
            }
        }
        prop_assert_eq!(decoded, msgs);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        // Whole-payload decode: any result is fine, panics are not.
        let _ = decode_payload(&bytes);
        // Stream decode, drained to quiescence or error.
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        loop {
            match dec.next_msg() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }

    #[test]
    fn corrupted_frames_error_or_decode_but_never_panic(
        msg in arb_msg(),
        flip_at in 0usize..64,
        flip_with in 1u8..=255,
    ) {
        let mut frame = encode(&msg);
        let idx = flip_at % frame.len();
        frame[idx] ^= flip_with;
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        // A single flipped byte may still decode (e.g. inside a token);
        // the property is totality, not detection.
        let _ = dec.next_msg();
    }

    #[test]
    fn encoded_frames_are_bounded_and_well_prefixed(msg in arb_msg()) {
        let frame = encode(&msg);
        let declared =
            u32::from_be_bytes(frame[..LEN_PREFIX].try_into().expect("4 bytes")) as usize;
        prop_assert_eq!(declared + LEN_PREFIX, frame.len());
        prop_assert!(declared <= flashflow_proto::frame::MAX_FRAME_LEN);
    }
}
