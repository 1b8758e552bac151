//! Length-prefixed, versioned binary framing for [`Msg`].
//!
//! A frame on the wire is:
//!
//! ```text
//! +----------------+---------+---------+------------------+
//! | length: u32 BE | version | type u8 | body (length-2 B)|
//! +----------------+---------+---------+------------------+
//! ```
//!
//! where `length` counts everything after itself (version byte, type
//! byte, body). Integers in bodies are big-endian. The decoder is
//! incremental — bytes arrive in arbitrary chunks and frames are
//! reassembled — and total: any byte sequence either yields messages or
//! a typed [`WireError`], never a panic.

use crate::msg::{
    AbortReason, MeasureSpec, Msg, MsgType, PeerRole, TargetEndpoint, AUTH_TOKEN_LEN,
    FINGERPRINT_LEN, PROTOCOL_VERSION,
};

/// Upper bound on the length prefix. The largest legitimate frame
/// (`MeasureCmd`) is 60 bytes of payload; anything near the cap is
/// garbage or an attack, and rejecting it bounds decoder memory.
pub const MAX_FRAME_LEN: usize = 256;

/// Bytes of the length prefix.
pub const LEN_PREFIX: usize = 4;

/// Everything that can be wrong with bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// Declared payload length.
        len: usize,
    },
    /// The frame declared a payload too short to hold version + type.
    Undersized {
        /// Declared payload length.
        len: usize,
    },
    /// The version byte is not [`PROTOCOL_VERSION`].
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// The type byte names no known message.
    UnknownType(u8),
    /// The body is shorter than its type requires.
    Truncated {
        /// Message type being decoded.
        msg: &'static str,
        /// Bytes the decode had consumed, plus the read that failed
        /// (a lower bound on the layout's full size).
        needed: usize,
        /// Bytes present.
        have: usize,
    },
    /// The body is longer than its type requires.
    TrailingBytes {
        /// Message type being decoded.
        msg: &'static str,
        /// Unconsumed byte count.
        extra: usize,
    },
    /// An enum field carries an unassigned value.
    BadEnumValue {
        /// Which field.
        field: &'static str,
        /// The byte received.
        value: u8,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized { len } => {
                write!(f, "frame length {len} exceeds maximum {MAX_FRAME_LEN}")
            }
            WireError::Undersized { len } => {
                write!(f, "frame length {len} cannot hold version and type")
            }
            WireError::BadVersion { got } => {
                write!(f, "protocol version {got} (expected {PROTOCOL_VERSION})")
            }
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::Truncated { msg, needed, have } => {
                write!(f, "{msg} body truncated: needed {needed} bytes, have {have}")
            }
            WireError::TrailingBytes { msg, extra } => {
                write!(f, "{msg} body has {extra} trailing bytes")
            }
            WireError::BadEnumValue { field, value } => {
                write!(f, "invalid value {value} for {field}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes one message as a complete frame (length prefix included).
pub fn encode(msg: &Msg) -> Vec<u8> {
    let mut body: Vec<u8> = Vec::with_capacity(64);
    // Reserve the prefix; filled in at the end.
    body.extend_from_slice(&[0u8; LEN_PREFIX]);
    body.push(PROTOCOL_VERSION);
    match msg {
        Msg::Auth { token, role, nonce } => {
            body.push(MsgType::Auth as u8);
            body.extend_from_slice(token);
            body.push(*role as u8);
            body.extend_from_slice(&nonce.to_be_bytes());
        }
        Msg::AuthOk { session, nonce } => {
            body.push(MsgType::AuthOk as u8);
            body.extend_from_slice(&session.to_be_bytes());
            body.extend_from_slice(&nonce.to_be_bytes());
        }
        Msg::MeasureCmd(spec) => {
            body.push(MsgType::MeasureCmd as u8);
            body.extend_from_slice(&spec.relay_fp);
            body.extend_from_slice(&spec.slot_secs.to_be_bytes());
            body.extend_from_slice(&spec.sockets.to_be_bytes());
            body.extend_from_slice(&spec.rate_cap.to_be_bytes());
            body.extend_from_slice(&spec.target.ip);
            body.extend_from_slice(&spec.target.port.to_be_bytes());
            body.extend_from_slice(&spec.measurement_secret.to_be_bytes());
            body.extend_from_slice(&spec.trace_id.to_be_bytes());
        }
        Msg::Ready => body.push(MsgType::Ready as u8),
        Msg::Go => body.push(MsgType::Go as u8),
        Msg::SecondReport { second, bg_bytes, measured_bytes } => {
            body.push(MsgType::SecondReport as u8);
            body.extend_from_slice(&second.to_be_bytes());
            body.extend_from_slice(&bg_bytes.to_be_bytes());
            body.extend_from_slice(&measured_bytes.to_be_bytes());
        }
        Msg::SlotDone => body.push(MsgType::SlotDone as u8),
        Msg::Abort { reason } => {
            body.push(MsgType::Abort as u8);
            body.push(*reason as u8);
        }
    }
    let payload_len = (body.len() - LEN_PREFIX) as u32;
    body[..LEN_PREFIX].copy_from_slice(&payload_len.to_be_bytes());
    body
}

/// A cursor over a message body enforcing exact consumption.
struct Body<'a> {
    msg: &'static str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Body<'a> {
    fn new(msg: &'static str, bytes: &'a [u8]) -> Self {
        Body { msg, bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() - self.pos < n {
            return Err(WireError::Truncated {
                msg: self.msg,
                needed: self.pos + n,
                have: self.bytes.len(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.bytes.len() {
            return Err(WireError::TrailingBytes {
                msg: self.msg,
                extra: self.bytes.len() - self.pos,
            });
        }
        Ok(())
    }
}

/// Decodes one frame payload (the bytes after the length prefix).
pub fn decode_payload(payload: &[u8]) -> Result<Msg, WireError> {
    if payload.len() < 2 {
        return Err(WireError::Undersized { len: payload.len() });
    }
    let version = payload[0];
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    let ty = MsgType::from_u8(payload[1]).ok_or(WireError::UnknownType(payload[1]))?;
    let body = &payload[2..];
    let msg = match ty {
        MsgType::Auth => {
            let mut b = Body::new("Auth", body);
            let mut token = [0u8; AUTH_TOKEN_LEN];
            token.copy_from_slice(b.take(AUTH_TOKEN_LEN)?);
            let role_byte = b.u8()?;
            let role = PeerRole::from_u8(role_byte)
                .ok_or(WireError::BadEnumValue { field: "Auth.role", value: role_byte })?;
            let nonce = b.u64()?;
            b.finish()?;
            Msg::Auth { token, role, nonce }
        }
        MsgType::AuthOk => {
            let mut b = Body::new("AuthOk", body);
            let session = b.u64()?;
            let nonce = b.u64()?;
            b.finish()?;
            Msg::AuthOk { session, nonce }
        }
        MsgType::MeasureCmd => {
            let mut b = Body::new("MeasureCmd", body);
            let mut relay_fp = [0u8; FINGERPRINT_LEN];
            relay_fp.copy_from_slice(b.take(FINGERPRINT_LEN)?);
            let slot_secs = b.u32()?;
            let sockets = b.u32()?;
            let rate_cap = b.u64()?;
            let mut ip = [0u8; 4];
            ip.copy_from_slice(b.take(4)?);
            let port = u16::from_be_bytes(b.take(2)?.try_into().expect("2 bytes"));
            let measurement_secret = b.u64()?;
            let trace_id = b.u64()?;
            b.finish()?;
            Msg::MeasureCmd(MeasureSpec {
                relay_fp,
                slot_secs,
                sockets,
                rate_cap,
                target: TargetEndpoint { ip, port },
                measurement_secret,
                trace_id,
            })
        }
        MsgType::Ready => {
            Body::new("Ready", body).finish()?;
            Msg::Ready
        }
        MsgType::Go => {
            Body::new("Go", body).finish()?;
            Msg::Go
        }
        MsgType::SecondReport => {
            let mut b = Body::new("SecondReport", body);
            let second = b.u32()?;
            let bg_bytes = b.u64()?;
            let measured_bytes = b.u64()?;
            b.finish()?;
            Msg::SecondReport { second, bg_bytes, measured_bytes }
        }
        MsgType::SlotDone => {
            Body::new("SlotDone", body).finish()?;
            Msg::SlotDone
        }
        MsgType::Abort => {
            let mut b = Body::new("Abort", body);
            let code = b.u8()?;
            let reason = AbortReason::from_u8(code)
                .ok_or(WireError::BadEnumValue { field: "Abort.reason", value: code })?;
            b.finish()?;
            Msg::Abort { reason }
        }
    };
    Ok(msg)
}

/// Incremental frame decoder: feed arbitrary chunks, pop whole messages.
///
/// After the first [`WireError`] the decoder is *poisoned* — the stream
/// has lost framing and every later call returns the same error. Sessions
/// treat that as a fatal protocol violation.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    poisoned: Option<WireError>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends received bytes to the reassembly buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.poisoned.is_none() {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete message, `Ok(None)` if more bytes are
    /// needed, or the (sticky) framing error.
    pub fn next_msg(&mut self) -> Result<Option<Msg>, WireError> {
        if let Some(err) = self.poisoned {
            return Err(err);
        }
        if self.buf.len() < LEN_PREFIX {
            return Ok(None);
        }
        let len = u32::from_be_bytes(self.buf[..LEN_PREFIX].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(self.poison(WireError::Oversized { len }));
        }
        if len < 2 {
            return Err(self.poison(WireError::Undersized { len }));
        }
        if self.buf.len() < LEN_PREFIX + len {
            return Ok(None);
        }
        let payload: Vec<u8> = self.buf[LEN_PREFIX..LEN_PREFIX + len].to_vec();
        self.buf.drain(..LEN_PREFIX + len);
        match decode_payload(&payload) {
            Ok(msg) => Ok(Some(msg)),
            Err(e) => Err(self.poison(e)),
        }
    }

    fn poison(&mut self, err: WireError) -> WireError {
        self.poisoned = Some(err);
        self.buf.clear();
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msgs() -> Vec<Msg> {
        vec![
            Msg::Auth {
                token: [7u8; AUTH_TOKEN_LEN],
                role: PeerRole::Measurer,
                nonce: 0x0123_4567_89AB_CDEF,
            },
            Msg::AuthOk { session: 0xDEAD_BEEF_0123_4567, nonce: 0x0123_4567_89AB_CDEF },
            Msg::MeasureCmd(MeasureSpec {
                relay_fp: [0xAB; FINGERPRINT_LEN],
                slot_secs: 30,
                sockets: 80,
                rate_cap: 117_000_000,
                target: TargetEndpoint { ip: [127, 0, 0, 1], port: 9151 },
                measurement_secret: 0x5EC2_E7BE_EF00_1234,
                trace_id: 0x7ACE_0001_0000_0003,
            }),
            Msg::Ready,
            Msg::Go,
            Msg::SecondReport { second: 12, bg_bytes: 1_000_000, measured_bytes: 31_250_000 },
            Msg::SlotDone,
            Msg::Abort { reason: AbortReason::ReportTimeout },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in sample_msgs() {
            let frame = encode(&msg);
            let mut dec = FrameDecoder::new();
            dec.push(&frame);
            assert_eq!(dec.next_msg().unwrap(), Some(msg), "{}", msg.name());
            assert_eq!(dec.next_msg().unwrap(), None);
            assert_eq!(dec.pending_bytes(), 0);
        }
    }

    #[test]
    fn byte_at_a_time_reassembly() {
        let mut stream: Vec<u8> = Vec::new();
        for msg in sample_msgs() {
            stream.extend_from_slice(&encode(&msg));
        }
        let mut dec = FrameDecoder::new();
        let mut decoded = Vec::new();
        for b in stream {
            dec.push(&[b]);
            while let Some(m) = dec.next_msg().unwrap() {
                decoded.push(m);
            }
        }
        assert_eq!(decoded, sample_msgs());
    }

    #[test]
    fn oversized_length_poisons() {
        let mut dec = FrameDecoder::new();
        dec.push(&(u32::MAX).to_be_bytes());
        dec.push(&[1, 2, 3]);
        let err = dec.next_msg().unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }), "{err}");
        // Sticky: still failing, even after more (valid) bytes.
        dec.push(&encode(&Msg::Ready));
        assert_eq!(dec.next_msg().unwrap_err(), err);
    }

    #[test]
    fn bad_version_rejected() {
        let mut frame = encode(&Msg::Ready);
        frame[LEN_PREFIX] = 99;
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        assert!(matches!(dec.next_msg().unwrap_err(), WireError::BadVersion { got: 99 }));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut frame = encode(&Msg::Ready);
        frame[LEN_PREFIX + 1] = 0xEE;
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        assert!(matches!(dec.next_msg().unwrap_err(), WireError::UnknownType(0xEE)));
    }

    /// Protocol v7 dropped the keepalive (tags 9 and 10) and v8 the
    /// crash-recovery opener (tag 11): those tags are unknown now, and a
    /// v7 peer is refused at its first frame.
    #[test]
    fn v8_retired_keepalive_and_resume_tags_and_v7_frames_are_refused() {
        assert_eq!(PROTOCOL_VERSION, 8);
        for tag in [9u8, 10, 11] {
            let mut frame = encode(&Msg::Ready);
            frame[LEN_PREFIX + 1] = tag;
            let mut dec = FrameDecoder::new();
            dec.push(&frame);
            assert_eq!(dec.next_msg().unwrap_err(), WireError::UnknownType(tag));
        }
        let mut frame = encode(&Msg::Ready);
        frame[LEN_PREFIX] = 7;
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        assert_eq!(dec.next_msg().unwrap_err(), WireError::BadVersion { got: 7 });
    }

    #[test]
    fn truncated_body_rejected() {
        // An Auth frame whose declared length cuts the token short.
        let full =
            encode(&Msg::Auth { token: [1; AUTH_TOKEN_LEN], role: PeerRole::Target, nonce: 9 });
        let cut = 10usize;
        let mut frame = full[..LEN_PREFIX + cut].to_vec();
        frame[..LEN_PREFIX].copy_from_slice(&(cut as u32).to_be_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        assert!(matches!(dec.next_msg().unwrap_err(), WireError::Truncated { msg: "Auth", .. }));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = encode(&Msg::Go);
        // Extend the payload by one byte and fix up the prefix.
        frame.push(0);
        let len = (frame.len() - LEN_PREFIX) as u32;
        frame[..LEN_PREFIX].copy_from_slice(&len.to_be_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        assert!(matches!(
            dec.next_msg().unwrap_err(),
            WireError::TrailingBytes { msg: "Go", extra: 1 }
        ));
    }

    #[test]
    fn bad_enum_values_rejected() {
        let mut frame = encode(&Msg::Abort { reason: AbortReason::Shutdown });
        *frame.last_mut().unwrap() = 77;
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        assert!(matches!(
            dec.next_msg().unwrap_err(),
            WireError::BadEnumValue { field: "Abort.reason", value: 77 }
        ));
    }
}
