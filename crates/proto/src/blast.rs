//! The measurement **data plane**: pattern-stamped bulk traffic and the
//! byte counts §4.1's estimate is built from.
//!
//! The control protocol ([`crate::session`]) decides *when* a slot runs;
//! this module moves the measurement bytes (§4.1's blast). A measurer's
//! [`TrafficSource`] pumps [`blast frames`](BLAST_FRAME_TAG) — payloads
//! stamped with a public keystream derived from the hello nonce, headers
//! with a keyed tag — over any [`Transport`], paced against a caller-injected
//! clock; the target relay's [`Echoer`] verifies every frame and sends
//! the measurer's own accepted frames back; and the measurer's
//! [`BlastParser`] verifies the echo again.
//!
//! Each byte is counted once, where it was verified, so a `SecondReport`
//! is *derived from observation* and the coordinator can cross-check the
//! relay's claimed echo against the measurers' verified one
//! (TorMult-style inflation asserts bytes that never moved):
//! - a [`BlastParser`] keeps running totals of what one connection
//!   carried ([`BlastParser::received_total`], `corrupt_total`,
//!   `forged_total`, `replayed_total`), and an [`Echoer`] adds
//!   [`Echoer::echoed_total`];
//! - [`BlastCounters`] streams the same accounting into process-wide
//!   telemetry;
//! - the serving processes sum their channels per measurement: the
//!   measurer's `EchoTally` holds the slot's verified echo, the relay's
//!   `EchoCounters` its echoed bytes, and each control session reports a
//!   second as the growth of that sum.
//!
//! A data connection opens with a [`DataChannelHello`] carrying the
//! binding nonce of a commanded measurement, so the relay binds it to a
//! conversation that passed the token handshake and refuses the rest.
//!
//! Data flow: only the measurer generates keystream ([`BlastPattern`]:
//! a compile-time table masked once per frame), copied into its reused
//! batch buffer. A [`BlastParser`] verifies payload bytes where they lie
//! in the caller's slice and copies nothing but a hello or header a
//! chunk boundary split (at most [`BLAST_HEADER_LEN`] − 1 = 20 bytes
//! held between pushes). The relay forwards what it accepted straight
//! from its receive buffer: one verification and no copy on this side
//! of the kernel.
//!
//! Everything here is sans-IO like the sessions: time enters through
//! method arguments and transports are the caller's, so `Duplex`,
//! loopback TCP and `FaultyTransport` all carry blast streams (the
//! conformance suite runs them across all three).

use flashflow_obs::Counter;
use flashflow_simnet::time::SimTime;

use crate::transport::{Transport, TransportError};

/// Shared telemetry counters a blast receiver feeds: cloned
/// `flashflow-obs` [`Counter`] handles, so one per-connection parser
/// can stream its byte accounting into a process-global
/// [`MetricsRegistry`](flashflow_obs::MetricsRegistry) without locks.
/// Attaching is optional; a bare parser pays nothing.
#[derive(Debug, Clone, Default)]
pub struct BlastCounters {
    /// Payload bytes that passed pattern verification.
    pub verified: Counter,
    /// Payload bytes that failed pattern verification.
    pub corrupt: Counter,
    /// Declared bytes of frames whose keyed integrity tag failed.
    pub forged: Counter,
    /// Declared bytes of tag-valid frames with replayed sequence
    /// numbers.
    pub replayed: Counter,
}

/// First byte of a [`DataChannelHello`]. Deliberately distinct from the
/// first byte of any control frame (a length prefix below
/// [`crate::frame::MAX_FRAME_LEN`] starts with `0x00`), so a serving
/// process can classify a fresh connection from its first byte.
pub const DATA_HELLO_TAG: u8 = 0xD1;

/// First byte of a blast frame header.
pub const BLAST_FRAME_TAG: u8 = 0xD2;

/// Data-plane wire version, carried in every hello. Version 2 added the
/// keyed frame tag; version 3 cut the keystream from a fixed table, so a
/// v2 peer is refused at its hello instead of counting bytes corrupt.
const DATA_PLANE_VERSION: u8 = 3;

/// Encoded size of a [`DataChannelHello`]:
/// tag + version + nonce (u64) + channel (u32).
pub const HELLO_LEN: usize = 1 + 1 + 8 + 4;

/// Blast frame header size: tag + seq (u64) + payload length (u32) +
/// keyed integrity tag (u64).
pub const BLAST_HEADER_LEN: usize = 1 + 8 + 4 + 8;

/// Largest payload a single blast frame may carry; bounds sink memory.
pub const MAX_BLAST_PAYLOAD: usize = 64 * 1024;

/// Payload bytes per frame a [`TrafficSource`] emits.
pub const BLAST_CHUNK: usize = 16 * 1024;

/// Upper bound on payload bytes one [`TrafficSource::pump`] call
/// writes (16 frames of [`BLAST_CHUNK`]), so a zero-latency transport
/// (or an uncapped blast) cannot trap the caller or balloon an
/// in-memory queue inside a single tick. The pump hands all of it to
/// the transport in one `send`.
pub const MAX_TICK_BYTES: u64 = 256 * 1024;

/// Most frames one [`TrafficSource::pump`] call builds.
const MAX_TICK_FRAMES: usize = (MAX_TICK_BYTES as usize).div_ceil(BLAST_CHUNK);

/// Send-side backlog ([`Transport::backlog`]) at which both blast
/// senders pause: a [`TrafficSource`] sends less (its pacing allowance
/// catches up later), and an [`Echoer`] stops reading, so the unread
/// blast waits in the kernel and TCP flow control pauses the source.
/// Without this, a measurer that never reads its echo would grow the
/// relay's outbox without bound, and a relay that falls behind would
/// grow the measurer's.
pub const ECHO_BACKLOG_HIGH_WATER: usize = 1 << 20;

/// The opener of every data connection: binds the channel to a
/// commanded measurement's [binding nonce](binding_nonce).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataChannelHello {
    /// The binding nonce of the measurement this channel serves.
    pub nonce: u64,
    /// Zero-based channel index within the dialing measurer's channels.
    pub channel: u32,
}

impl DataChannelHello {
    /// Encodes the hello as its fixed wire form.
    pub fn encode(&self) -> [u8; HELLO_LEN] {
        let mut out = [0u8; HELLO_LEN];
        out[0] = DATA_HELLO_TAG;
        out[1] = DATA_PLANE_VERSION;
        out[2..10].copy_from_slice(&self.nonce.to_be_bytes());
        out[10..14].copy_from_slice(&self.channel.to_be_bytes());
        out
    }

    /// Decodes a hello from exactly [`HELLO_LEN`] bytes.
    ///
    /// # Errors
    /// Rejects a wrong tag or version.
    pub fn decode(bytes: &[u8; HELLO_LEN]) -> Result<Self, BlastError> {
        if bytes[0] != DATA_HELLO_TAG {
            return Err(BlastError::BadTag(bytes[0]));
        }
        if bytes[1] != DATA_PLANE_VERSION {
            return Err(BlastError::BadVersion(bytes[1]));
        }
        Ok(DataChannelHello {
            nonce: u64::from_be_bytes(bytes[2..10].try_into().expect("8 bytes")),
            channel: u32::from_be_bytes(bytes[10..14].try_into().expect("4 bytes")),
        })
    }
}

/// Everything that can be wrong with a data-plane byte stream. Like
/// control-frame errors, these poison the stream: framing is lost and
/// the connection should be dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlastError {
    /// A frame started with a byte that is neither hello nor blast tag.
    BadTag(u8),
    /// The hello carries an unknown data-plane version.
    BadVersion(u8),
    /// A blast frame declared a payload beyond [`MAX_BLAST_PAYLOAD`].
    OversizedFrame(u32),
    /// Blast bytes arrived before any [`DataChannelHello`].
    MissingHello,
}

impl std::fmt::Display for BlastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlastError::BadTag(t) => write!(f, "unknown data-plane tag 0x{t:02x}"),
            BlastError::BadVersion(v) => {
                write!(f, "data-plane version {v} (expected {DATA_PLANE_VERSION})")
            }
            BlastError::OversizedFrame(len) => {
                write!(f, "blast payload {len} exceeds maximum {MAX_BLAST_PAYLOAD}")
            }
            BlastError::MissingHello => f.write_str("blast frame before any DataChannelHello"),
        }
    }
}

impl std::error::Error for BlastError {}

/// Appends one pattern-stamped frame (header + payload) for `seq` to
/// `buf` — the hot-path builder a [`TrafficSource`] batches with. The
/// payload is copied from the keystream table straight into `buf`'s
/// reserved capacity and masked there, never zero-filled first.
fn append_frame(buf: &mut Vec<u8>, pattern: BlastPattern, key: u64, seq: u64, len: usize) {
    buf.reserve(BLAST_HEADER_LEN + len);
    buf.push(BLAST_FRAME_TAG);
    buf.extend_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(&(len as u32).to_be_bytes());
    let tag = frame_tag(key, pattern.nonce(), seq, len as u32);
    buf.extend_from_slice(&tag.to_be_bytes());
    let start = buf.len();
    buf.extend_from_slice(&BLOCK[..len]);
    pattern.stamp(seq, &mut buf[start..]);
}

const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const BINDING_SALT: u64 = 0xB1D1_0000_ECC0_0001;
const SECRET_KEY_SALT: u64 = 0x5EC2_0000_7A60_0003;
const FRAME_TAG_SALT: u64 = 0xF2A6_0000_1A90_0004;

/// The **public** hello binding nonce derived from a per-measurement
/// secret (the `measurement_secret` a `MeasureCmd` carries): every
/// measurer of one item stamps its echo channels with this nonce, and
/// the target relay accepts exactly it. The derivation is one-way-ish
/// (a Davies–Meyer-style feed-forward over the mix), so reading the
/// nonce off a data channel does not hand over the secret — and
/// therefore not the frame-tag key either.
///
/// Like [`BlastPattern`], this is a cheap mix, not a cryptographic
/// PRF; a deployment would swap in SipHash or BLAKE3 keyed hashing
/// without changing any of the structure around it.
pub fn binding_nonce(secret: u64) -> u64 {
    splitmix64(secret ^ BINDING_SALT) ^ secret
}

/// The frame-tag key derived from a per-measurement secret (echo
/// channels: measurer ↔ target relay, who share only the secret their
/// `MeasureCmd`s carried).
pub fn secret_channel_key(secret: u64) -> u64 {
    splitmix64(secret ^ SECRET_KEY_SALT) ^ secret.rotate_left(17)
}

/// The keyed integrity tag stamped into every blast frame header: a
/// PRF of the secret channel key and the frame's identity. The
/// keystream alone ([`BlastPattern`]) detects *corruption* but is
/// derived from the hello nonce, which crosses the wire in the clear —
/// a MITM who reads it could forge whole frames that verify. The tag is
/// keyed by a secret that never crosses the data channel (the
/// `MeasureCmd`'s measurement secret), so forged frames
/// fail the tag check and are counted instead of credited. Because the
/// tag binds the sequence number, a MITM's remaining move is re-sending
/// captured frames — which the receiver's monotone sequence window
/// rejects and counts as replays ([`BlastParser::replayed_total`]).
pub fn frame_tag(key: u64, nonce: u64, seq: u64, len: u32) -> u64 {
    let mut h = splitmix64(key ^ FRAME_TAG_SALT);
    h = splitmix64(h ^ nonce);
    h = splitmix64(h ^ seq);
    splitmix64(h ^ u64::from(len)) ^ key
}

/// The fixed table every blast keystream is cut from: bytes `8k..8k + 8`
/// are `splitmix64(k)`, big-endian. Built at compile time: read-only
/// data shared by every channel.
static BLOCK: [u8; MAX_BLAST_PAYLOAD] = block();

const fn block() -> [u8; MAX_BLAST_PAYLOAD] {
    let mut table = [0u8; MAX_BLAST_PAYLOAD];
    let mut at = 0;
    while at < MAX_BLAST_PAYLOAD {
        table[at] = splitmix64((at / 8) as u64).to_be_bytes()[at % 8];
        at += 1;
    }
    table
}

/// The keystream every blast payload is stamped with: payload byte `p`
/// of frame `seq` under nonce `n` is `BLOCK[p] ^ mask[p % 8]`, where
/// `mask` is `splitmix64(n ^ seq·0xA076_1D64_78BD_642F)`, big-endian —
/// one mix per frame, no multiply per byte. The keystream is public
/// (anyone holding the hello nonce can compute it) and detects
/// corruption: flipped or shifted bytes, or a payload under another
/// frame's header or another hello. The keyed [`frame_tag`] is what
/// stops forgery.
#[derive(Debug, Clone, Copy)]
pub struct BlastPattern {
    nonce: u64,
}

impl BlastPattern {
    /// The pattern bound to one control session's nonce.
    pub fn new(nonce: u64) -> Self {
        BlastPattern { nonce }
    }

    /// The nonce this pattern (and the frame tags of its stream) is
    /// bound to.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// Frame `seq`'s mask rotated to start at payload offset `offset`,
    /// as a native-endian word, like the table and payload words.
    fn mask(&self, seq: u64, offset: usize) -> u64 {
        let mask = splitmix64(self.nonce ^ seq.wrapping_mul(0xA076_1D64_78BD_642F));
        u64::from_ne_bytes(mask.rotate_left(8 * (offset % 8) as u32).to_be_bytes())
    }

    /// Fills `buf` with the payload bytes of frame `seq`; panics if `buf`
    /// is longer than [`MAX_BLAST_PAYLOAD`], the longest frame.
    pub fn fill(&self, seq: u64, buf: &mut [u8]) {
        buf.copy_from_slice(&BLOCK[..buf.len()]);
        self.stamp(seq, buf);
    }

    /// Turns `buf`, a copy of the table's first `buf.len()` bytes, into
    /// frame `seq`'s payload.
    fn stamp(&self, seq: u64, buf: &mut [u8]) {
        let mask = self.mask(seq, 0);
        let mut words = buf.chunks_exact_mut(8);
        for w in words.by_ref() {
            w.copy_from_slice(&(word(w) ^ mask).to_ne_bytes());
        }
        words.into_remainder().iter_mut().zip(mask.to_ne_bytes()).for_each(|(b, m)| *b ^= m);
    }

    /// Counts the bytes of `got` that differ from frame `seq`'s
    /// keystream from payload offset `offset` on. `got` and the table
    /// share the offset, so a word of `got` XORed with the table's and
    /// the rotated mask is zero exactly when it verifies: a clean payload
    /// costs one OR-reduction (which vectorises), a dirty one a second
    /// pass for the exact count. A tail under 8 bytes goes bytewise.
    fn mismatches(&self, seq: u64, offset: usize, got: &[u8]) -> u64 {
        let mask = self.mask(seq, offset);
        let expected = &BLOCK[offset..offset + got.len()];
        let words = got.chunks_exact(8);
        let xored =
            || words.clone().zip(expected.chunks_exact(8)).map(|(g, e)| word(g) ^ word(e) ^ mask);
        let mut bad = 0;
        if xored().fold(0, |any, x| any | x) != 0 {
            bad = xored().map(|x| x.to_ne_bytes().iter().filter(|&&b| b != 0).count() as u64).sum();
        }
        let tail = words.remainder().iter().zip(&expected[got.len() - words.remainder().len()..]);
        bad + tail.zip(mask.to_ne_bytes()).filter(|((g, e), m)| **g != *e ^ m).count() as u64
    }
}

/// An 8-byte chunk as a native-endian word.
fn word(bytes: &[u8]) -> u64 {
    u64::from_ne_bytes(bytes.try_into().expect("8 bytes"))
}

/// Where a [`TrafficSource`] stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceState {
    /// Created; the hello has not gone out.
    Idle,
    /// Hello sent; waiting for the slot's Go.
    Greeted,
    /// Blasting pattern-stamped frames.
    Blasting,
    /// Stopped (slot over, driver stop, or transport failure).
    Stopped,
}

/// The sending half of one data channel: greets with a
/// [`DataChannelHello`], then blasts pattern-stamped frames paced
/// against the caller's clock and a bytes-per-second cap, counting what
/// it sent.
#[derive(Debug)]
pub struct TrafficSource<T: Transport> {
    transport: T,
    pattern: BlastPattern,
    hello: DataChannelHello,
    /// Frame-tag key (see [`frame_tag`]); both ends must agree.
    key: u64,
    /// Send cap in bytes per second; `0` means uncapped (every pump
    /// writes up to [`MAX_TICK_BYTES`]).
    rate_cap: u64,
    state: SourceState,
    started_at: Option<SimTime>,
    sent: u64,
    seq: u64,
    error: Option<TransportError>,
    /// Reused buffer for one pump's frames (headers + payloads): the
    /// blast path runs at hundreds of MB/s, so per-frame allocation is
    /// pure overhead.
    frame: Vec<u8>,
}

impl<T: Transport> TrafficSource<T> {
    /// A source for channel `channel` of the control session that
    /// authenticated with `nonce`.
    pub fn new(transport: T, nonce: u64, channel: u32) -> Self {
        TrafficSource {
            transport,
            pattern: BlastPattern::new(nonce),
            hello: DataChannelHello { nonce, channel },
            key: 0,
            rate_cap: 0,
            state: SourceState::Idle,
            started_at: None,
            sent: 0,
            seq: 0,
            error: None,
            frame: Vec::with_capacity(MAX_TICK_BYTES as usize + MAX_TICK_FRAMES * BLAST_HEADER_LEN),
        }
    }

    /// Caps the blast at `bytes_per_sec` (0 = uncapped). May be called
    /// any time before [`TrafficSource::start`].
    pub fn set_rate_cap(&mut self, bytes_per_sec: u64) {
        self.rate_cap = bytes_per_sec;
    }

    /// Keys the integrity tag on every frame (see [`frame_tag`]). The
    /// receiving [`BlastParser`] must be keyed identically; the default
    /// key is `0` on both sides.
    #[must_use]
    pub fn with_key(mut self, key: u64) -> Self {
        self.key = key;
        self
    }

    /// Current state.
    pub fn state(&self) -> SourceState {
        self.state
    }

    /// The first transport error observed, if any.
    pub fn error(&self) -> Option<TransportError> {
        self.error
    }

    /// Total payload bytes handed to the transport.
    pub fn sent_total(&self) -> u64 {
        self.sent
    }

    /// The transport (flush nudges, fault tripping in tests).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Sends the hello, binding this channel to its control session.
    /// Idempotent; a transport failure records the error and stops the
    /// channel.
    pub fn greet(&mut self, now: SimTime) {
        if self.state != SourceState::Idle {
            return;
        }
        match self.transport.send(now, &self.hello.encode()) {
            Ok(()) => self.state = SourceState::Greeted,
            Err(err) => self.fail(err),
        }
    }

    /// Starts the blast clock (the slot's Go instant): the pacing
    /// allowance accrues from here.
    pub fn start(&mut self, now: SimTime) {
        if self.state != SourceState::Greeted {
            return;
        }
        self.state = SourceState::Blasting;
        self.started_at = Some(now);
    }

    /// Stops blasting; later pumps send nothing.
    pub fn stop(&mut self) {
        self.state = SourceState::Stopped;
    }

    /// Writes as many pattern-stamped frames as the pacing budget at
    /// `now` allows (bounded by [`MAX_TICK_BYTES`] per call), built in
    /// the reused buffer and handed to the transport in one `send` —
    /// one syscall per pump on a socket that takes it all; returns
    /// `true` if any bytes went out. Emits nothing while the
    /// transport's send backlog sits at or above
    /// [`ECHO_BACKLOG_HIGH_WATER`] — the loop the echo's back-pressure
    /// closes: a relay that falls behind slows the source down instead
    /// of growing the measurer's outbox. A paced source catches up once
    /// the backlog drains (its allowance follows the clock, not the
    /// pumps).
    pub fn pump(&mut self, now: SimTime) -> bool {
        if self.state != SourceState::Blasting {
            return false;
        }
        if self.transport.backlog() >= ECHO_BACKLOG_HIGH_WATER {
            // Nudge the queued outbox toward the kernel, emit nothing.
            if let Err(err) = self.transport.send(now, &[]) {
                self.fail(err);
            }
            return false;
        }
        let started = self.started_at.expect("Blasting implies start");
        let allowed = if self.rate_cap == 0 {
            self.sent + MAX_TICK_BYTES
        } else {
            let elapsed = now.saturating_duration_since(started).as_secs_f64();
            (self.rate_cap as f64 * elapsed) as u64
        };
        let budget = allowed.saturating_sub(self.sent).min(MAX_TICK_BYTES);
        if budget == 0 {
            return false;
        }
        self.frame.clear();
        let mut left = budget;
        while left > 0 {
            let len = (left as usize).min(BLAST_CHUNK);
            append_frame(&mut self.frame, self.pattern, self.key, self.seq, len);
            self.seq += 1;
            left -= len as u64;
        }
        if let Err(err) = self.transport.send(now, &self.frame) {
            self.fail(err);
            return false;
        }
        self.sent += budget;
        true
    }

    fn fail(&mut self, err: TransportError) {
        if self.error.is_none() {
            self.error = Some(err);
        }
        self.state = SourceState::Stopped;
    }
}

enum ParseState {
    /// Between frames: waiting for (the rest of) a hello or a blast
    /// header.
    Header,
    /// Mid-payload of the tag-valid frame `seq`: `got` of its `len`
    /// bytes verified so far.
    Payload { seq: u64, len: usize, got: usize },
    /// Discarding the payload of a rejected frame (failed tag, or a
    /// replayed sequence number): `remaining` declared bytes are
    /// skipped without crediting.
    SkipForged { remaining: usize },
}

/// A span of the stream a [`BlastParser`] accepted, handed to its
/// forwarding hook in stream order.
enum Accepted {
    /// A hello or header (`raw[..len]`) a chunk boundary split,
    /// reassembled in the parser's stash.
    Stashed([u8; BLAST_HEADER_LEN], usize),
    /// `bytes[start..end]` of the pushed chunk: a hello or header, or
    /// (`payload`) payload bytes of which `corrupt` failed verification.
    Chunk { start: usize, end: usize, payload: bool, corrupt: u64 },
}

impl Accepted {
    /// The `len`-byte hello or header at `start`: in the chunk when it
    /// lay there `whole`, else the stash's copy `raw`.
    fn unit(whole: bool, start: usize, raw: [u8; BLAST_HEADER_LEN], len: usize) -> Self {
        if whole {
            Accepted::Chunk { start, end: start + len, payload: false, corrupt: 0 }
        } else {
            Accepted::Stashed(raw, len)
        }
    }
}

/// Incremental decoder for one data connection's byte stream: hellos
/// and pattern-verified blast frames, reassembled from arbitrary
/// chunks. The first [`BlastError`] poisons the parser (framing is
/// lost); callers drop the connection.
///
/// The parser works on the caller's slice: payload bytes are verified
/// where they lie (`BlastPattern::mismatches`) and never copied. All
/// it carries from one [`BlastParser::push`] to the next is its
/// position in the current frame and, when a chunk ends inside a hello
/// or header, those at most [`BLAST_HEADER_LEN`] − 1 bytes.
pub struct BlastParser {
    state: ParseState,
    /// The first `stashed` bytes of a hello or header whose rest has
    /// not arrived yet (its tag byte, already checked, says how long it
    /// will be).
    stash: [u8; BLAST_HEADER_LEN],
    stashed: usize,
    pattern: Option<BlastPattern>,
    /// Frame-tag key (see [`frame_tag`]); must match the sender's.
    key: u64,
    /// The next sequence number a tag-valid frame must be at or above;
    /// sources emit strictly increasing sequences, so anything below
    /// is a replayed capture. Reset when a hello re-binds the channel
    /// to a *different* nonce (pooled reuse); a same-nonce hello never
    /// rewinds the window, so replaying the original hello cannot
    /// reopen it.
    next_seq: u64,
    received: u64,
    corrupt: u64,
    forged: u64,
    replayed: u64,
    poisoned: Option<BlastError>,
    /// Optional process-global telemetry counters (see
    /// [`BlastCounters`]); `None` keeps the bare hot path.
    counters: Option<BlastCounters>,
}

impl Default for BlastParser {
    fn default() -> Self {
        BlastParser::new()
    }
}

impl BlastParser {
    /// A parser expecting a hello first.
    pub fn new() -> Self {
        BlastParser {
            state: ParseState::Header,
            stash: [0; BLAST_HEADER_LEN],
            stashed: 0,
            pattern: None,
            key: 0,
            next_seq: 0,
            received: 0,
            corrupt: 0,
            forged: 0,
            replayed: 0,
            poisoned: None,
            counters: None,
        }
    }

    /// Keys the integrity-tag check (see [`frame_tag`]); frames whose
    /// tag does not verify under this key are rejected and counted.
    #[must_use]
    pub fn with_key(mut self, key: u64) -> Self {
        self.key = key;
        self
    }

    /// Streams this parser's byte accounting into shared telemetry
    /// counters (one relaxed fetch-add per push that verified payload,
    /// one more per push that met corrupt bytes and per rejected frame
    /// — cheap enough for the blast hot path).
    #[must_use]
    pub fn with_counters(mut self, counters: BlastCounters) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Total payload bytes consumed so far.
    pub fn received_total(&self) -> u64 {
        self.received
    }

    /// Total payload bytes that failed pattern verification.
    pub fn corrupt_total(&self) -> u64 {
        self.corrupt
    }

    /// Total declared payload bytes of frames whose keyed integrity tag
    /// failed verification (discarded, never credited).
    pub fn forged_total(&self) -> u64 {
        self.forged
    }

    /// Total declared payload bytes of tag-valid frames whose sequence
    /// number had already been passed (replayed captures; discarded,
    /// never credited).
    pub fn replayed_total(&self) -> u64 {
        self.replayed
    }

    /// Consumes `bytes`, adding what they carried to the totals.
    ///
    /// # Errors
    /// The first framing error is sticky; every later call returns it.
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), BlastError> {
        self.scan(bytes, |_| {})
    }

    /// [`BlastParser::push`], handing every span of `bytes` it accepts
    /// to `accept` in stream order: hellos, tag-valid in-window headers
    /// and their payload bytes, never a rejected frame. This is the
    /// [`Echoer`]'s forwarding hook; spans from before a framing error
    /// are handed over even though the push returns the error.
    fn scan(&mut self, bytes: &[u8], mut accept: impl FnMut(Accepted)) -> Result<(), BlastError> {
        if let Some(err) = self.poisoned {
            return Err(err);
        }
        let mut rest = bytes;
        // Where `rest` starts in `bytes`.
        let at = |rest: &[u8]| bytes.len() - rest.len();
        // Telemetry is fed once per push, not once per frame.
        let mut push_verified = 0u64;
        let mut push_corrupt = 0u64;
        let outcome = loop {
            match self.state {
                ParseState::Header => {
                    let tag = if self.stashed > 0 {
                        self.stash[0]
                    } else if let Some(&tag) = rest.first() {
                        tag
                    } else {
                        break Ok(());
                    };
                    // Nothing stashed: a unit that completes in this
                    // push lies whole in `bytes`.
                    let whole = self.stashed == 0;
                    let start = at(rest);
                    match tag {
                        DATA_HELLO_TAG => {
                            let Some(raw) = self.take_unit(&mut rest, HELLO_LEN) else {
                                break Ok(());
                            };
                            let unit = Accepted::unit(whole, start, raw, HELLO_LEN);
                            let raw = raw[..HELLO_LEN].try_into().expect("HELLO_LEN bytes");
                            let hello = match DataChannelHello::decode(raw) {
                                Ok(h) => h,
                                Err(e) => break Err(e),
                            };
                            // Only a *different* nonce rewinds the
                            // replay window: a pooled-reuse rebind is a
                            // fresh session, while a re-sent copy of
                            // the current hello (a replayed capture)
                            // must not reopen old sequence numbers.
                            if self.pattern.map(|p| p.nonce()) != Some(hello.nonce) {
                                self.next_seq = 0;
                            }
                            self.pattern = Some(BlastPattern::new(hello.nonce));
                            accept(unit);
                        }
                        BLAST_FRAME_TAG => {
                            let Some(raw) = self.take_unit(&mut rest, BLAST_HEADER_LEN) else {
                                break Ok(());
                            };
                            let Some(pattern) = self.pattern else {
                                break Err(BlastError::MissingHello);
                            };
                            let seq = u64::from_be_bytes(raw[1..9].try_into().expect("8 bytes"));
                            let len = u32::from_be_bytes(raw[9..13].try_into().expect("4 bytes"));
                            let tag = u64::from_be_bytes(raw[13..21].try_into().expect("8 bytes"));
                            if len as usize > MAX_BLAST_PAYLOAD {
                                break Err(BlastError::OversizedFrame(len));
                            }
                            if tag != frame_tag(self.key, pattern.nonce(), seq, len) {
                                // Forged: the sender knew the (public)
                                // nonce but not the channel key. Skip the
                                // declared payload so framing survives,
                                // count it, credit nothing. The window
                                // does not advance: a forged sequence
                                // number must not displace honest ones.
                                self.forged += u64::from(len);
                                if let Some(c) = &self.counters {
                                    c.forged.add(u64::from(len));
                                }
                                self.state = ParseState::SkipForged { remaining: len as usize };
                            } else if seq < self.next_seq {
                                // Tag-valid but already past: a wire
                                // MITM re-sending a captured frame (it
                                // cannot mint tags for fresh sequence
                                // numbers). Skip, count, credit nothing.
                                self.replayed += u64::from(len);
                                if let Some(c) = &self.counters {
                                    c.replayed.add(u64::from(len));
                                }
                                self.state = ParseState::SkipForged { remaining: len as usize };
                            } else {
                                self.next_seq = seq + 1;
                                accept(Accepted::unit(whole, start, raw, BLAST_HEADER_LEN));
                                self.state = ParseState::Payload { seq, len: len as usize, got: 0 };
                            }
                        }
                        other => break Err(BlastError::BadTag(other)),
                    }
                }
                ParseState::SkipForged { remaining } => {
                    let take = remaining.min(rest.len());
                    rest = &rest[take..];
                    if take == remaining {
                        self.state = ParseState::Header;
                    } else {
                        self.state = ParseState::SkipForged { remaining: remaining - take };
                        break Ok(());
                    }
                }
                ParseState::Payload { seq, len, got } => {
                    let take = (len - got).min(rest.len());
                    let start = at(rest);
                    let (payload, after) = rest.split_at(take);
                    rest = after;
                    let pattern = self.pattern.expect("a payload follows a hello");
                    let mismatches = pattern.mismatches(seq, got, payload);
                    if take > 0 {
                        let end = start + take;
                        accept(Accepted::Chunk { start, end, payload: true, corrupt: mismatches });
                    }
                    push_verified += take as u64 - mismatches;
                    push_corrupt += mismatches;
                    if got + take == len {
                        self.state = ParseState::Header;
                    } else {
                        self.state = ParseState::Payload { seq, len, got: got + take };
                        break Ok(());
                    }
                }
            }
        };
        self.received += push_verified + push_corrupt;
        self.corrupt += push_corrupt;
        if let Some(c) = &self.counters {
            if push_verified > 0 {
                c.verified.add(push_verified);
            }
            if push_corrupt > 0 {
                c.corrupt.add(push_corrupt);
            }
        }
        if let Err(err) = outcome {
            self.poisoned = Some(err);
            return Err(err);
        }
        Ok(())
    }

    /// Moves bytes of the `need`-byte hello or header at the front of
    /// the stream from `rest` into the stash, and returns the unit once
    /// it is complete (`None`: `rest` ran out first, the part that
    /// arrived stays stashed for the next push).
    fn take_unit(&mut self, rest: &mut &[u8], need: usize) -> Option<[u8; BLAST_HEADER_LEN]> {
        let take = (need - self.stashed).min(rest.len());
        self.stash[self.stashed..self.stashed + take].copy_from_slice(&rest[..take]);
        self.stashed += take;
        *rest = &rest[take..];
        if self.stashed < need {
            return None;
        }
        self.stashed = 0;
        Some(self.stash)
    }
}

/// The target relay's half of one echo data channel: verifies every
/// inbound payload byte against the keystream and every header against
/// the keyed tag, then sends the measurer's own frames back — the
/// paper's echo. Each chunk leaves as the runs the parser accepted (the
/// hello, each tag-valid in-window header with its payload), straight
/// from the receive buffer: a clean chunk is one [`Transport::send`].
/// Forged and replayed frames are left out, so a garbage blast cannot
/// inflate the echo; corrupt payload bytes of an accepted frame go back
/// unchanged, the measurer counts them corrupt again, and neither side
/// credits them. At [`ECHO_BACKLOG_HIGH_WATER`] the echoer stops
/// reading. Sans-IO: the same echoer runs over the simulated duplex and
/// a real TCP connection inside the `flashflow-relay` process.
pub struct Echoer<T: Transport> {
    transport: T,
    parser: BlastParser,
    echoed: u64,
    error: Option<TransportError>,
    /// Optional telemetry counter fed with every echoed payload byte.
    echoed_counter: Option<Counter>,
    /// Adversarial hook: flip the payload bytes of forwarded frames (a
    /// forging relay, for tests of the measurer's corrupt accounting).
    corrupt_echo: bool,
    /// The chunk's accepted runs, each with its verified payload bytes.
    runs: Vec<(std::ops::Range<usize>, u64)>,
    /// Under `corrupt_echo`: the chunk, its accepted payload flipped.
    flipped: Vec<u8>,
    /// Reused receive buffer ([`Transport::recv_into`]): a pump must
    /// not allocate per drain at echo rates.
    rxbuf: Vec<u8>,
}

impl<T: Transport> Echoer<T> {
    /// An echoer serving one accepted data connection.
    pub fn new(transport: T) -> Self {
        Echoer {
            transport,
            parser: BlastParser::new(),
            echoed: 0,
            error: None,
            echoed_counter: None,
            corrupt_echo: false,
            runs: Vec::new(),
            flipped: Vec::new(),
            rxbuf: Vec::new(),
        }
    }

    /// Flips the payload bytes of every forwarded frame (an adversarial
    /// relay forging its echo): the measurer's verifying parser counts
    /// every such byte corrupt instead of crediting it.
    pub fn set_corrupt_echo(&mut self, corrupt: bool) {
        self.corrupt_echo = corrupt;
    }

    /// Keys the inbound integrity-tag check (see [`frame_tag`]); the
    /// forwarded frames carry the measurer's own tags.
    #[must_use]
    pub fn with_key(mut self, key: u64) -> Self {
        self.parser = std::mem::take(&mut self.parser).with_key(key);
        self
    }

    /// Streams the inbound parser's byte accounting into shared
    /// telemetry counters and the echoed bytes into `echoed`.
    #[must_use]
    pub fn with_counters(mut self, counters: BlastCounters, echoed: Counter) -> Self {
        self.parser = std::mem::take(&mut self.parser).with_counters(counters);
        self.echoed_counter = Some(echoed);
        self
    }

    /// Total payload bytes received (verified or not).
    pub fn received_total(&self) -> u64 {
        self.parser.received_total()
    }

    /// Total payload bytes failing pattern verification.
    pub fn corrupt_total(&self) -> u64 {
        self.parser.corrupt_total()
    }

    /// Total declared bytes of frames whose integrity tag failed.
    pub fn forged_total(&self) -> u64 {
        self.parser.forged_total()
    }

    /// Total declared bytes of tag-valid frames with replayed
    /// sequence numbers.
    pub fn replayed_total(&self) -> u64 {
        self.parser.replayed_total()
    }

    /// Total verified payload bytes echoed back so far.
    pub fn echoed_total(&self) -> u64 {
        self.echoed
    }

    /// Echo bytes still queued in the transport ([`Transport::backlog`]);
    /// at [`ECHO_BACKLOG_HIGH_WATER`] the echoer stops reading.
    pub fn pending_echo(&self) -> u64 {
        self.transport.backlog() as u64
    }

    /// The first transport error observed, if any.
    pub fn transport_error(&self) -> Option<TransportError> {
        self.error
    }

    /// The transport (flush nudges, fault tripping in tests).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Drains the transport once and forwards what the new bytes
    /// carried; returns `true` if bytes moved in either direction. At
    /// the high-water mark it only flushes the backlog.
    ///
    /// # Errors
    /// Returns the first **framing** error (sticky). A transport
    /// failure is recorded (see [`Echoer::transport_error`]) and later
    /// pumps return `Ok(false)` — the measurer hanging up is the normal
    /// end of an echo channel.
    pub fn pump(&mut self, now: SimTime) -> Result<bool, BlastError> {
        if self.error.is_some() {
            return Ok(false);
        }
        let backlog = self.transport.backlog();
        if backlog >= ECHO_BACKLOG_HIGH_WATER {
            // Nudge the queued outbox toward the kernel, read nothing.
            if let Err(err) = self.transport.send(now, &[]) {
                self.error = Some(err);
            }
            return Ok(self.transport.backlog() < backlog);
        }
        // Swap the reused buffer out so `inject` can borrow `self`.
        let mut rx = std::mem::take(&mut self.rxbuf);
        let got = match self.transport.recv_into(now, &mut rx) {
            Ok(got) => got,
            Err(err) => {
                self.error = Some(err);
                self.rxbuf = rx;
                return Ok(false);
            }
        };
        let forwarded = self.inject(now, &rx);
        self.rxbuf = rx;
        Ok(forwarded? | (got > 0))
    }

    /// Feeds bytes that arrived outside the echoer's own `recv` (a
    /// serving process reads a connection's first bytes itself to
    /// classify and bind it) and forwards the runs they carried.
    ///
    /// # Errors
    /// Same contract as [`Echoer::pump`]; the runs accepted before a
    /// framing error are still forwarded.
    pub fn inject(&mut self, now: SimTime, bytes: &[u8]) -> Result<bool, BlastError> {
        if bytes.is_empty() || self.error.is_some() {
            return Ok(false);
        }
        if self.corrupt_echo {
            self.flipped.clear();
            self.flipped.extend_from_slice(bytes);
        }
        // Adjacent accepted spans merge into one run. Only a push's
        // first unit can come from the stash, so it leads the runs.
        self.runs.clear();
        let mut stashed = None;
        let scanned = self.parser.scan(bytes, |span| match span {
            Accepted::Stashed(raw, len) => stashed = Some((raw, len)),
            Accepted::Chunk { start, end, payload, corrupt } => {
                if payload && self.corrupt_echo {
                    self.flipped[start..end].iter_mut().for_each(|b| *b ^= 0xFF);
                }
                let verified = if payload { (end - start) as u64 - corrupt } else { 0 };
                match self.runs.last_mut() {
                    Some((run, run_verified)) if run.end == start => {
                        run.end = end;
                        *run_verified += verified;
                    }
                    _ => self.runs.push((start..end, verified)),
                }
            }
        });
        let out = if self.corrupt_echo { &self.flipped[..] } else { bytes };
        let stashed = stashed.iter().map(|(raw, len)| (&raw[..*len], 0));
        let runs = self.runs.iter().map(|(run, verified)| (&out[run.clone()], *verified));
        let (mut sent, mut echoed) = (false, 0);
        for (run, verified) in stashed.chain(runs) {
            if let Err(err) = self.transport.send(now, run) {
                self.error = Some(err);
                break;
            }
            sent = true;
            echoed += verified;
        }
        self.echoed += echoed;
        if echoed > 0 {
            if let Some(c) = &self.echoed_counter {
                c.add(echoed);
            }
        }
        scanned.map(|()| sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Duplex;
    use flashflow_simnet::time::SimDuration;

    /// Feeds what `transport` holds to `parser`, the way the measurer's
    /// echo channel drives its bare parser.
    fn feed(transport: &mut impl Transport, parser: &mut BlastParser, now: SimTime) {
        let bytes = transport.recv(now).expect("open transport");
        parser.push(&bytes).expect("clean stream");
    }

    /// The nonce of the last hello `parser` bound to.
    fn bound_nonce(parser: &BlastParser) -> Option<u64> {
        parser.pattern.map(|p| p.nonce())
    }

    #[test]
    fn hello_round_trips_and_rejects_garbage() {
        let hello = DataChannelHello { nonce: 0xFEED_F00D, channel: 3 };
        let raw = hello.encode();
        assert_eq!(DataChannelHello::decode(&raw).unwrap(), hello);

        let mut bad_tag = raw;
        bad_tag[0] = 0x00;
        assert_eq!(DataChannelHello::decode(&bad_tag), Err(BlastError::BadTag(0x00)));
        let mut bad_version = raw;
        bad_version[1] = 9;
        assert_eq!(DataChannelHello::decode(&bad_version), Err(BlastError::BadVersion(9)));
    }

    #[test]
    fn a_version_2_hello_is_refused_loudly() {
        let mut v2 = DataChannelHello { nonce: 0x0DD, channel: 0 }.encode();
        v2[1] = 2;
        assert_eq!(DataChannelHello::decode(&v2), Err(BlastError::BadVersion(2)));

        // A v2 peer's channel poisons the parser at its hello, before any
        // payload could be counted corrupt.
        let mut parser = BlastParser::new();
        assert_eq!(parser.push(&v2), Err(BlastError::BadVersion(2)));
        assert_eq!(parser.push(&[BLAST_FRAME_TAG]), Err(BlastError::BadVersion(2)), "sticky");
        assert_eq!(parser.received_total() + parser.corrupt_total(), 0);

        let text = BlastError::BadVersion(2).to_string();
        assert_eq!(text, format!("data-plane version 2 (expected {DATA_PLANE_VERSION})"));
        assert!(text.ends_with("(expected 3)"), "{text}");
    }

    #[test]
    fn source_to_sink_stream_verifies_clean_over_chunked_link() {
        // 3-byte re-chunking: every hello and frame crosses reassembly.
        let (a, mut b) = Duplex::new(SimDuration::ZERO, 3).into_endpoints();
        let mut src = TrafficSource::new(a, 0xABCD, 0);
        src.set_rate_cap(40_000);
        let mut sink = BlastParser::new();

        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        // The sent total as each second began.
        let mut at_second = Vec::new();
        for tick in 0..=30u64 {
            if tick % 10 == 0 {
                at_second.push(src.sent_total());
            }
            let now = SimTime::from_secs_f64(tick as f64 * 0.1);
            src.pump(now);
            feed(&mut b, &mut sink, now);
        }
        src.stop();
        feed(&mut b, &mut sink, SimTime::from_secs(3));

        assert_eq!(bound_nonce(&sink), Some(0xABCD));
        assert!(src.sent_total() > 0);
        assert_eq!(sink.received_total(), src.sent_total(), "every payload byte arrived");
        assert_eq!(sink.corrupt_total(), 0, "pattern verified");
        // Pacing: roughly rate_cap in each of the three whole seconds.
        assert_eq!(at_second.len(), 4);
        for (ix, pair) in at_second.windows(2).enumerate() {
            let sec = pair[1] - pair[0];
            assert!((30_000..=50_000).contains(&sec), "source second {ix} sent {sec} B (cap 40k)");
        }
    }

    #[test]
    fn corrupt_bytes_are_counted_not_trusted() {
        let (a, mut b) = Duplex::loopback().into_endpoints();
        let mut src = TrafficSource::new(a, 7, 0);
        src.set_rate_cap(1_000);
        let mut sink = BlastParser::new();
        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        src.pump(SimTime::from_secs(1));

        // Flip bytes in flight by re-sending a doctored copy: build a
        // frame with a *valid* tag (the attacker here is the unkeyed
        // default, key 0) whose payload does not match the keystream.
        let mut frame = Vec::new();
        frame.push(BLAST_FRAME_TAG);
        frame.extend_from_slice(&99u64.to_be_bytes());
        frame.extend_from_slice(&8u32.to_be_bytes());
        frame.extend_from_slice(&frame_tag(0, 7, 99, 8).to_be_bytes());
        frame.extend_from_slice(&[0xFF; 8]);
        src.transport_mut().send(SimTime::from_secs(1), &frame).unwrap();

        feed(&mut b, &mut sink, SimTime::from_secs(1));
        assert!(sink.corrupt_total() >= 7, "doctored payload flagged: {}", sink.corrupt_total());
        assert!(sink.corrupt_total() < sink.received_total(), "honest bytes still counted");
    }

    #[test]
    fn forged_frames_are_rejected_and_counted_under_a_key() {
        // Honest ends share a secret channel key; the forger knows the
        // (public) nonce — enough to fake the keystream — but not the
        // key, so its frames fail the tag and credit nothing.
        let key = secret_channel_key(0xDEAD_5EC2);
        let nonce = binding_nonce(0xDEAD_5EC2);
        let (a, mut b) = Duplex::loopback().into_endpoints();
        let mut src = TrafficSource::new(a, nonce, 0).with_key(key);
        src.set_rate_cap(2_000);
        let mut sink = BlastParser::new().with_key(key);
        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        src.pump(SimTime::from_secs(1));
        feed(&mut b, &mut sink, SimTime::from_secs(1));
        let honest = sink.received_total();
        assert!(honest > 0);
        assert_eq!(sink.forged_total(), 0);

        // The MITM forges a perfectly pattern-correct frame, tagged with
        // the only key it has: the public nonce.
        let seq = 1_000u64;
        let len = 64u32;
        let mut forged = Vec::new();
        forged.push(BLAST_FRAME_TAG);
        forged.extend_from_slice(&seq.to_be_bytes());
        forged.extend_from_slice(&len.to_be_bytes());
        forged.extend_from_slice(&frame_tag(nonce, nonce, seq, len).to_be_bytes());
        let mut payload = vec![0u8; len as usize];
        BlastPattern::new(nonce).fill(seq, &mut payload);
        forged.extend_from_slice(&payload);
        src.transport_mut().send(SimTime::from_secs(1), &forged).unwrap();
        feed(&mut b, &mut sink, SimTime::from_secs(1));
        assert_eq!(sink.forged_total(), u64::from(len), "forgery counted");
        assert_eq!(sink.received_total(), honest, "forged payload never credited");
        assert_eq!(sink.corrupt_total(), 0);

        // And the stream keeps working after the skipped frame.
        src.pump(SimTime::from_secs(2));
        feed(&mut b, &mut sink, SimTime::from_secs(2));
        assert!(sink.received_total() > honest, "honest frames resume after the forgery");
    }

    #[test]
    fn replayed_frames_are_rejected_and_counted() {
        // A wire MITM cannot mint tags, but it can re-send captured
        // frames. The sequence window rejects them: each (seq, tag)
        // pair is credited at most once.
        let key = secret_channel_key(0x4E91);
        let nonce = binding_nonce(0x4E91);
        let (a, mut b) = Duplex::loopback().into_endpoints();
        let mut src = TrafficSource::new(a, nonce, 0).with_key(key);
        src.set_rate_cap(2_000);
        let mut sink = BlastParser::new().with_key(key);
        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        src.pump(SimTime::from_secs(1));
        feed(&mut b, &mut sink, SimTime::from_secs(1));
        let honest = sink.received_total();
        assert!(honest > 0);

        // The MITM captures and re-sends frame 0 — header and
        // pattern-correct payload, tag perfectly valid.
        let len = honest.min(2_000) as u32;
        let mut replay = Vec::new();
        replay.push(BLAST_FRAME_TAG);
        replay.extend_from_slice(&0u64.to_be_bytes());
        replay.extend_from_slice(&len.to_be_bytes());
        replay.extend_from_slice(&frame_tag(key, nonce, 0, len).to_be_bytes());
        let mut payload = vec![0u8; len as usize];
        BlastPattern::new(nonce).fill(0, &mut payload);
        replay.extend_from_slice(&payload);
        for _ in 0..5 {
            src.transport_mut().send(SimTime::from_secs(1), &replay).unwrap();
        }
        feed(&mut b, &mut sink, SimTime::from_secs(1));
        assert_eq!(sink.received_total(), honest, "replayed bytes never credited");
        assert_eq!(sink.replayed_total(), 5 * u64::from(len), "every replay counted");
        assert_eq!(sink.forged_total(), 0);

        // Honest traffic continues past the replays.
        src.pump(SimTime::from_secs(2));
        feed(&mut b, &mut sink, SimTime::from_secs(2));
        assert!(sink.received_total() > honest);
        assert_eq!(sink.corrupt_total(), 0);

        // Re-sending the captured *hello* must not rewind the window.
        let hello = DataChannelHello { nonce, channel: 0 }.encode();
        src.transport_mut().send(SimTime::from_secs(2), &hello).unwrap();
        src.transport_mut().send(SimTime::from_secs(2), &replay).unwrap();
        let before = sink.received_total();
        feed(&mut b, &mut sink, SimTime::from_secs(2));
        assert_eq!(sink.received_total(), before, "hello replay cannot reopen old sequences");
        assert_eq!(sink.replayed_total(), 6 * u64::from(len));
    }

    #[test]
    fn mismatched_keys_reject_everything() {
        let (a, mut b) = Duplex::loopback().into_endpoints();
        let mut src = TrafficSource::new(a, 42, 0).with_key(111);
        src.set_rate_cap(1_000);
        let mut sink = BlastParser::new().with_key(222);
        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        src.pump(SimTime::from_secs(1));
        feed(&mut b, &mut sink, SimTime::from_secs(1));
        assert_eq!(sink.received_total(), 0);
        assert_eq!(sink.forged_total(), src.sent_total());
    }

    #[test]
    fn echoer_loops_verified_bytes_back_over_chunked_link() {
        // Measurer side: source + return-stream parser on one wire;
        // relay side: the echoer. 3-byte chunks cross reassembly on
        // both directions.
        let secret = 0x5EC2_E700;
        let key = secret_channel_key(secret);
        let nonce = binding_nonce(secret);
        let (m_end, r_end) = Duplex::new(SimDuration::ZERO, 3).into_endpoints();
        let mut src = TrafficSource::new(m_end, nonce, 0).with_key(key);
        src.set_rate_cap(30_000);
        let mut echo = Echoer::new(r_end).with_key(key);
        let mut back = BlastParser::new().with_key(key);

        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        for tick in 0..=40u64 {
            let now = SimTime::from_secs_f64(tick as f64 * 0.1);
            src.pump(now);
            echo.pump(now).expect("clean inbound stream");
            let bytes = src.transport_mut().recv(now).expect("return stream open");
            back.push(&bytes).expect("clean return stream");
        }
        assert_eq!(back.corrupt_total(), 0, "echo must verify");
        let echoed_back = back.received_total();
        assert_eq!(bound_nonce(&echo.parser), Some(nonce));
        assert!(src.sent_total() > 0);
        assert_eq!(echo.received_total(), src.sent_total(), "everything arrived at the relay");
        assert_eq!(echo.corrupt_total(), 0);
        assert_eq!(echo.echoed_total(), echo.received_total());
        assert_eq!(echoed_back, echo.echoed_total(), "everything echoed arrived back verified");
        assert!(echoed_back > 0);
    }

    #[test]
    fn replayed_hello_does_not_reset_the_echoers_stream() {
        let (m_end, r_end) = Duplex::loopback().into_endpoints();
        let mut src = TrafficSource::new(m_end, 5, 0);
        src.set_rate_cap(1_000);
        let mut echo = Echoer::new(r_end);
        let mut back = BlastParser::new();
        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        src.pump(SimTime::from_secs(1));
        echo.pump(SimTime::from_secs(1)).unwrap();
        back.push(&src.transport_mut().recv(SimTime::from_secs(1)).unwrap()).unwrap();
        let verified = back.received_total() - back.corrupt_total();
        assert!(verified > 0);

        // A MITM re-sends the captured hello toward the relay...
        let hello = DataChannelHello { nonce: 5, channel: 0 }.encode();
        src.transport_mut().send(SimTime::from_secs(1), &hello).unwrap();
        echo.pump(SimTime::from_secs(1)).unwrap();
        // ...and the echo stream must continue unbroken: later frames
        // keep their sequence numbers and verify at the measurer.
        src.pump(SimTime::from_secs(2));
        echo.pump(SimTime::from_secs(2)).unwrap();
        back.push(&src.transport_mut().recv(SimTime::from_secs(2)).unwrap()).unwrap();
        assert!(back.received_total() - back.corrupt_total() > verified);
        assert_eq!(back.replayed_total(), 0, "honest echo misread as replayed");
        assert_eq!(back.corrupt_total(), 0);
        assert_eq!(echo.echoed_total(), echo.received_total());
    }

    /// A frame for `nonce` under `key`, its payload `fill` when given,
    /// else the keystream.
    fn frame(key: u64, nonce: u64, seq: u64, len: usize, fill: Option<u8>) -> Vec<u8> {
        let mut frame = vec![BLAST_FRAME_TAG];
        frame.extend_from_slice(&seq.to_be_bytes());
        frame.extend_from_slice(&(len as u32).to_be_bytes());
        frame.extend_from_slice(&frame_tag(key, nonce, seq, len as u32).to_be_bytes());
        let start = frame.len();
        frame.resize(start + len, fill.unwrap_or(0));
        if fill.is_none() {
            BlastPattern::new(nonce).fill(seq, &mut frame[start..]);
        }
        frame
    }

    #[test]
    fn corrupt_bytes_are_credited_on_neither_side() {
        let (mut m_end, r_end) = Duplex::loopback().into_endpoints();
        let mut echo = Echoer::new(r_end);
        let mut back = BlastParser::new();
        let now = SimTime::from_secs(1);
        let mut stream = DataChannelHello { nonce: 9, channel: 0 }.encode().to_vec();
        stream.extend(frame(0, 9, 0, 100, None));
        // A garbage payload under a valid tag: counted corrupt at the
        // relay, forwarded unchanged, counted corrupt again at the
        // measurer, credited by neither.
        stream.extend(frame(0, 9, 1, 16, Some(0xEE)));
        stream.extend(frame(0, 9, 2, 100, None));
        m_end.send(now, &stream).unwrap();
        echo.pump(now).expect("framing intact");
        back.push(&m_end.recv(now).unwrap()).expect("echo framing intact");
        assert!(echo.corrupt_total() >= 15);
        assert_eq!(echo.echoed_total(), echo.received_total() - echo.corrupt_total());
        assert_eq!(echo.echoed_total(), 200, "only verified bytes count as echoed");
        assert_eq!(back.received_total() - back.corrupt_total(), echo.echoed_total());
        assert_eq!(back.corrupt_total(), echo.corrupt_total());
    }

    #[test]
    fn forged_and_replayed_frames_are_left_out_of_the_echo() {
        let (mut m_end, r_end) = Duplex::loopback().into_endpoints();
        let mut echo = Echoer::new(r_end).with_key(7);
        let now = SimTime::from_secs(1);
        let hello = DataChannelHello { nonce: 3, channel: 0 }.encode();
        let honest = [frame(7, 3, 0, 40, None), frame(7, 3, 1, 40, None)];
        let mut stream = hello.to_vec();
        stream.extend(&honest[0]);
        stream.extend(frame(8, 3, 5, 40, None)); // forged: wrong key
        stream.extend(&honest[0]); // replayed
        stream.extend(&honest[1]);
        m_end.send(now, &stream).unwrap();
        echo.pump(now).expect("framing intact");
        assert_eq!((echo.forged_total(), echo.replayed_total()), (40, 40));
        let want: Vec<u8> = [&hello[..], &honest[0], &honest[1]].concat();
        assert_eq!(m_end.recv(now).unwrap(), want, "the echo is the accepted frames, in order");
        assert_eq!(echo.echoed_total(), 80);
    }

    #[test]
    fn corrupt_echo_flips_every_forwarded_payload_byte() {
        let (mut m_end, r_end) = Duplex::loopback().into_endpoints();
        let mut echo = Echoer::new(r_end);
        echo.set_corrupt_echo(true);
        let mut back = BlastParser::new();
        let now = SimTime::from_secs(1);
        let mut stream = DataChannelHello { nonce: 4, channel: 0 }.encode().to_vec();
        for seq in 0..4 {
            stream.extend(frame(0, 4, seq, 33, None));
        }
        // 5-byte pushes: headers split across them come from the stash.
        for piece in stream.chunks(5) {
            echo.inject(now, piece).expect("framing intact");
        }
        back.push(&m_end.recv(now).unwrap()).expect("headers forwarded intact");
        assert_eq!(echo.echoed_total(), 4 * 33, "the relay claims the echo");
        assert_eq!((back.received_total(), back.corrupt_total()), (4 * 33, 4 * 33));
    }

    #[test]
    fn binding_nonce_and_keys_are_stable_and_distinct() {
        let secret = 0xABCD_EF01_2345_6789;
        assert_eq!(binding_nonce(secret), binding_nonce(secret));
        assert_ne!(binding_nonce(secret), secret, "nonce is not the secret itself");
        assert_ne!(binding_nonce(secret), secret_channel_key(secret));
        assert_ne!(binding_nonce(1), binding_nonce(2));
    }

    #[test]
    fn blast_before_hello_poisons_the_parser() {
        let mut parser = BlastParser::new();
        let mut frame = vec![BLAST_FRAME_TAG];
        frame.extend_from_slice(&0u64.to_be_bytes());
        frame.extend_from_slice(&4u32.to_be_bytes());
        frame.extend_from_slice(&frame_tag(0, 0, 0, 4).to_be_bytes());
        frame.extend_from_slice(&[0; 4]);
        assert_eq!(parser.push(&frame), Err(BlastError::MissingHello));
        // Sticky.
        assert_eq!(parser.push(&[]), Err(BlastError::MissingHello));
    }

    #[test]
    fn rebinding_hello_switches_the_pattern_mid_stream() {
        // Session 1 blasts, then a new hello rebinds the channel to
        // session 2 — the pooled-connection reuse path.
        let (a1, mut b) = Duplex::loopback().into_endpoints();
        let mut sink = BlastParser::new();
        let mut src1 = TrafficSource::new(a1, 111, 0);
        src1.set_rate_cap(1_000);
        src1.greet(SimTime::ZERO);
        src1.start(SimTime::ZERO);
        src1.pump(SimTime::from_secs(1));
        feed(&mut b, &mut sink, SimTime::from_secs(1));
        let after_first = sink.received_total();
        assert!(after_first > 0);
        assert_eq!(sink.corrupt_total(), 0);

        // Second session reuses the same wire with a different nonce.
        let mut src2 = TrafficSource::new(src1.transport, 222, 0);
        src2.set_rate_cap(1_000);
        src2.greet(SimTime::from_secs(1));
        src2.start(SimTime::from_secs(1));
        src2.pump(SimTime::from_secs(2));
        feed(&mut b, &mut sink, SimTime::from_secs(2));
        assert_eq!(bound_nonce(&sink), Some(222));
        assert!(sink.received_total() > after_first);
        assert_eq!(sink.corrupt_total(), 0, "new pattern verified after rebind");
    }

    /// The reference the word-wise verifier is checked against: the
    /// keystream materialised with `fill`, compared byte by byte.
    fn mismatches_bytewise(pattern: BlastPattern, seq: u64, offset: usize, got: &[u8]) -> u64 {
        let mut keystream = vec![0u8; offset + got.len()];
        pattern.fill(seq, &mut keystream);
        got.iter().zip(&keystream[offset..]).filter(|(a, b)| a != b).count() as u64
    }

    #[test]
    fn word_wise_verifier_agrees_with_bytewise_compare_at_every_alignment() {
        let pattern = BlastPattern::new(0x0DD_BA11);
        let seq = 41;
        let mut keystream = vec![0u8; MAX_BLAST_PAYLOAD];
        pattern.fill(seq, &mut keystream);
        // From the table's start, and up to its last byte.
        for offset in (0..24).chain(MAX_BLAST_PAYLOAD - 62..MAX_BLAST_PAYLOAD - 38) {
            for len in 0..40 {
                let clean = &keystream[offset..offset + len];
                assert_eq!(pattern.mismatches(seq, offset, clean), 0, "clean {offset}+{len}");
                // One flipped bit, at every bit of every position, is
                // exactly one corrupt byte.
                let mut got = clean.to_vec();
                for at in 0..len {
                    for bit in 0..8 {
                        got[at] ^= 1 << bit;
                        assert_eq!(pattern.mismatches(seq, offset, &got), 1, "{offset}+{len}@{at}");
                        got[at] ^= 1 << bit;
                    }
                }
                // Several corrupt bytes in one word are several, not
                // one: a byte pattern that is wrong everywhere, and one
                // wrong at every other byte.
                for stride in [1, 2] {
                    let mut got = clean.to_vec();
                    got.iter_mut().step_by(stride).for_each(|b| *b ^= 0xA5);
                    assert_eq!(
                        pattern.mismatches(seq, offset, &got),
                        mismatches_bytewise(pattern, seq, offset, &got),
                        "{offset}+{len}/{stride}"
                    );
                    assert_eq!(pattern.mismatches(seq, offset, &got), len.div_ceil(stride) as u64);
                }
            }
        }
    }

    #[test]
    fn appended_frames_carry_the_filled_keystream() {
        let pattern = BlastPattern::new(77);
        for len in [0, 1, 7, 8, 9, 4096, BLAST_CHUNK] {
            let mut frame = vec![0xEE; 3];
            append_frame(&mut frame, pattern, 5, 9, len);
            let mut payload = vec![0u8; len];
            pattern.fill(9, &mut payload);
            assert_eq!(frame.len(), 3 + BLAST_HEADER_LEN + len);
            assert_eq!(&frame[3 + BLAST_HEADER_LEN..], &payload[..], "len {len}");
        }
    }

    #[test]
    fn source_pauses_at_the_backlog_high_water_and_resumes_when_the_peer_drains() {
        // The peer does not read: the kernel's buffers fill, the
        // transport's outbox takes the rest, and the source must stop
        // there instead of queueing `MAX_TICK_BYTES` a pump for ever.
        let (mut peer, dialed) = crate::tcp::loopback_pair();
        let mut src = TrafficSource::new(dialed, 0x5AFE, 0);
        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        for _ in 0..2_000 {
            src.pump(SimTime::ZERO);
        }
        let bound = ECHO_BACKLOG_HIGH_WATER + MAX_TICK_BYTES as usize;
        let backlog = src.transport_mut().backlog();
        assert!(backlog >= ECHO_BACKLOG_HIGH_WATER, "2000 uncapped pumps must hit the mark");
        assert!(backlog <= bound, "outbox {backlog} B grew past {bound} B");
        let paused_at = src.sent_total();
        assert!(!src.pump(SimTime::ZERO), "a paused pump reports no progress");
        assert_eq!(src.sent_total(), paused_at);
        assert_eq!(src.state(), SourceState::Blasting, "paused, not stopped");

        // The peer starts draining: the source resumes by itself.
        let mut sink = BlastParser::new();
        let mut resumed = false;
        for _ in 0..100_000 {
            feed(&mut peer, &mut sink, SimTime::ZERO);
            if src.pump(SimTime::ZERO) {
                resumed = true;
                break;
            }
        }
        assert!(resumed, "source never resumed after the peer drained");
        assert!(src.sent_total() > paused_at);
    }

    #[test]
    fn paced_source_reaches_its_commanded_total_after_a_backlog_pause() {
        // 100 MB/s commanded for 0.3 s of injected time, 1 ms ticks; the
        // peer reads nothing for the first 0.2 s, so the source pauses
        // some megabytes in. Its allowance follows the clock, so once
        // the peer drains it catches up to rate × time exactly.
        let rate = 100_000_000u64;
        let (mut peer, dialed) = crate::tcp::loopback_pair();
        let mut src = TrafficSource::new(dialed, 0xFACE, 0);
        src.set_rate_cap(rate);
        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        let mut paused = false;
        for tick in 1..=200u64 {
            let before = src.sent_total();
            src.pump(SimTime::from_secs_f64(tick as f64 * 1e-3));
            paused |= src.sent_total() == before;
            let backlog = src.transport_mut().backlog();
            assert!(backlog <= ECHO_BACKLOG_HIGH_WATER + MAX_TICK_BYTES as usize, "{backlog}");
        }
        assert!(paused, "20 MB into a socket nobody reads must pause the source");
        assert!(src.sent_total() < rate / 5, "the pause held bytes back");

        let end = SimTime::from_secs_f64(0.3);
        let commanded = (rate as f64 * 0.3) as u64;
        let mut sink = BlastParser::new();
        for _ in 0..1_000_000 {
            src.pump(end);
            // Flush the outbox's tail as a driver polling the echo would.
            src.transport_mut().send(end, &[]).expect("open connection");
            feed(&mut peer, &mut sink, end);
            if sink.received_total() == commanded {
                break;
            }
        }
        assert_eq!(src.sent_total(), commanded, "paced source caught up to rate × time");
        assert_eq!(sink.received_total(), commanded, "and every byte arrived");
        assert_eq!(sink.corrupt_total(), 0);
    }

    /// A transport that counts the `send` calls made into it.
    struct CountingSends<T> {
        inner: T,
        sends: usize,
    }

    impl<T: Transport> Transport for CountingSends<T> {
        fn send(&mut self, now: SimTime, bytes: &[u8]) -> Result<(), TransportError> {
            self.sends += 1;
            self.inner.send(now, bytes)
        }

        fn recv(&mut self, now: SimTime) -> Result<Vec<u8>, TransportError> {
            self.inner.recv(now)
        }

        fn close(&mut self) {
            self.inner.close();
        }

        fn backlog(&self) -> usize {
            self.inner.backlog()
        }
    }

    #[test]
    fn one_pump_hands_its_whole_budget_to_one_send() {
        const KEY: u64 = 0x0DD_5E4D;
        // (rate cap, pump instant, payload, frames): an uncapped pump
        // sends a full tick's budget; one paced at 1 MB/s, 125 ms in,
        // its allowance, which ends in a short frame.
        let cases = [
            (0, SimTime::ZERO, MAX_TICK_BYTES, MAX_TICK_FRAMES),
            (1_000_000, SimTime::from_secs_f64(0.125), 125_000, 8),
        ];
        for (rate_cap, now, payload, frames) in cases {
            let (a, mut b) = Duplex::loopback().into_endpoints();
            let mut src =
                TrafficSource::new(CountingSends { inner: a, sends: 0 }, 0xC0DE, 0).with_key(KEY);
            src.set_rate_cap(rate_cap);
            src.greet(SimTime::ZERO);
            src.start(SimTime::ZERO);
            let mut sink = BlastParser::new().with_key(KEY);
            feed(&mut b, &mut sink, SimTime::ZERO);
            assert!(bound_nonce(&sink).is_some(), "the hello");
            let greeted = src.transport_mut().sends;

            assert!(src.pump(now), "cap {rate_cap}: the pump sent");
            assert_eq!(src.transport_mut().sends - greeted, 1, "cap {rate_cap}: one send");
            assert_eq!(src.sent_total(), payload, "cap {rate_cap}");
            let wire = b.recv(now).expect("open transport");
            assert_eq!(wire.len() as u64, payload + (frames * BLAST_HEADER_LEN) as u64);
            sink.push(&wire).expect("clean stream");
            assert_eq!(sink.received_total(), payload, "cap {rate_cap}: every frame verified");
            assert_eq!(sink.corrupt_total() + sink.forged_total() + sink.replayed_total(), 0);
        }
    }

    #[test]
    fn transport_failure_stops_the_source() {
        let (a, mut b) = Duplex::loopback().into_endpoints();
        let mut src = TrafficSource::new(a, 1, 0);
        src.set_rate_cap(1_000);
        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        b.close();
        src.pump(SimTime::from_secs(1));
        assert_eq!(src.state(), SourceState::Stopped);
        assert!(src.error().is_some());
    }
}
