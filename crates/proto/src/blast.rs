//! The measurement **data plane**: pattern-stamped bulk traffic with
//! per-second byte counters.
//!
//! The control protocol ([`crate::session`]) decides *when* a slot runs;
//! this module is what actually moves the measurement bytes (§4.1's
//! blast). A measurer's [`TrafficSource`] pumps [`blast
//! frames`](BLAST_FRAME_TAG) — bulk payloads stamped with a keystream
//! derived from the hello nonce — over any [`Transport`], paced against
//! a caller-injected clock; the target relay's [`Echoer`] verifies
//! every frame and loops exactly the verified bytes back; and the
//! measurer's [`BlastParser`] (in tests usually wrapped in a
//! [`TrafficSink`]) reassembles the echo from arbitrary chunks,
//! verifies every payload byte against the same keystream, and counts
//! received and corrupt bytes. Every party samples its counters per
//! second with a [`ByteCounter`], which is what makes a `SecondReport`
//! *derivable from observation* instead of asserted — and what lets the
//! coordinator cross-check the relay's claimed echo against the
//! measurers' verified one (inflation attacks in the TorMult family
//! assert bytes that never moved; honest counters on both ends make
//! that visible).
//!
//! A data connection is not anonymous: its first bytes are a
//! [`DataChannelHello`] carrying the binding nonce of a commanded
//! measurement, so the relay can bind the channel to a conversation
//! that actually passed the token handshake and refuse the rest.
//!
//! Data flow: each payload byte is touched once per direction. A
//! sender generates the keystream straight into its reused batch
//! buffer (no zero-fill first) and hands that buffer to the transport;
//! a receiver's [`BlastParser`] verifies payload bytes where they lie
//! in the slice the caller read them into — the keystream is
//! regenerated a `u64` word at a time and XORed against the received
//! word, never materialised — and copies nothing but a hello or header
//! that a chunk boundary split (at most [`BLAST_HEADER_LEN`] − 1 = 20
//! bytes held between pushes). What the relay echoes is regenerated
//! from the verified-byte *count*, so no received payload is retained
//! anywhere.
//!
//! Everything here is sans-IO in the same sense as the sessions: time
//! enters through method arguments, transports are the caller's, and
//! the simulated `Duplex`, loopback TCP, and `FaultyTransport` all work
//! unchanged — the conformance suite runs blast streams across all
//! three, including partial delivery and mid-blast disconnects.

use flashflow_obs::Counter;
use flashflow_simnet::time::{SimDuration, SimTime};

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
/// keyed integrity tag to every blast frame header.
pub const DATA_PLANE_VERSION: u8 = 2;

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

/// Upper bound on bytes one [`TrafficSource::pump`] call writes, so a
/// zero-latency transport (or an uncapped blast) cannot trap the caller
/// or balloon an in-memory queue inside a single tick.
pub const MAX_TICK_BYTES: u64 = 256 * 1024;

/// Target size of one batched `Transport::send`: the blast senders
/// assemble several frames into their reused buffer and hand them to
/// the transport together, so a full-rate blast costs one syscall per
/// ~4 frames instead of one per frame.
pub const SEND_BATCH_BYTES: usize = 64 * 1024;

/// Send-side backlog ([`Transport::backlog`]) at which both blast
/// senders stop emitting. An [`Echoer`]'s verified backlog then waits
/// in `pending_echo` (a `u64` count, not buffered bytes) until the peer
/// drains the return stream; a [`TrafficSource`] simply sends less, its
/// pacing allowance catching up later. Without this, a measurer that
/// blasts but never reads its echo would grow the relay's transport
/// outbox without bound, and a relay that falls behind would grow the
/// measurer's.
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
/// `buf` — the shared hot-path builder both blast senders batch with.
/// The keystream is generated straight into `buf`'s reserved capacity
/// ([`BlastPattern::append`]): each payload byte is written once, never
/// zero-filled first.
fn append_frame(buf: &mut Vec<u8>, pattern: BlastPattern, key: u64, seq: u64, len: usize) {
    buf.reserve(BLAST_HEADER_LEN + len);
    buf.push(BLAST_FRAME_TAG);
    buf.extend_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(&(len as u32).to_be_bytes());
    let tag = frame_tag(key, pattern.nonce(), seq, len as u32);
    buf.extend_from_slice(&tag.to_be_bytes());
    pattern.append(seq, len, buf);
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const BINDING_SALT: u64 = 0xB1D1_0000_ECC0_0001;
const TOKEN_KEY_SALT: u64 = 0x7C8E_0000_4E40_0002;
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

/// The frame-tag key derived from a pre-shared control token (for a
/// channel whose two ends both hold the token, which never crosses a
/// data connection).
pub fn channel_key(token: &[u8; crate::msg::AUTH_TOKEN_LEN]) -> u64 {
    let mut key = TOKEN_KEY_SALT;
    for chunk in token.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        key = splitmix64(key ^ u64::from_be_bytes(word));
    }
    key
}

/// The keyed integrity tag stamped into every blast frame header: a
/// PRF of the secret channel key and the frame's identity. The
/// keystream alone ([`BlastPattern`]) detects *corruption* but is
/// derived from the hello nonce, which crosses the wire in the clear —
/// a MITM who reads it could forge whole frames that verify. The tag is
/// keyed by a secret that never crosses the data channel (the control
/// token, or the `MeasureCmd`'s measurement secret), so forged frames
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

/// The keystream every blast payload is stamped with: a cheap PRF of
/// (nonce, frame sequence number, word index). The sink regenerates it
/// from the hello it accepted, so any byte a middlebox (or a lying
/// serializer) flips is counted as corrupt instead of inflating the
/// measurement.
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

    /// Word `k` of frame `seq`'s keystream is `splitmix64(seed ^ k)`,
    /// big-endian; payload byte `p` is byte `p % 8` of word `p / 8`.
    fn seed(&self, seq: u64) -> u64 {
        self.nonce ^ seq.wrapping_mul(0xA076_1D64_78BD_642F)
    }

    /// Fills `buf` with the payload bytes of frame `seq`.
    pub fn fill(&self, seq: u64, buf: &mut [u8]) {
        let seed = self.seed(seq);
        let mut words = buf.chunks_exact_mut(8);
        let mut k = 0u64;
        for word in words.by_ref() {
            word.copy_from_slice(&splitmix64(seed ^ k).to_be_bytes());
            k += 1;
        }
        let tail = words.into_remainder();
        tail.copy_from_slice(&splitmix64(seed ^ k).to_be_bytes()[..tail.len()]);
    }

    /// Appends the `len` payload bytes of frame `seq` to `buf`.
    fn append(&self, seq: u64, len: usize, buf: &mut Vec<u8>) {
        let seed = self.seed(seq);
        let words = (len / 8) as u64;
        for k in 0..words {
            buf.extend_from_slice(&splitmix64(seed ^ k).to_be_bytes());
        }
        buf.extend_from_slice(&splitmix64(seed ^ words).to_be_bytes()[..len % 8]);
    }

    /// Counts the bytes of `got` that differ from frame `seq`'s
    /// keystream from payload offset `offset` on — the receive-side
    /// verification, done in place on the caller's bytes. The keystream
    /// is regenerated a word at a time and XORed with the received
    /// word; a payload that verifies (the overwhelmingly common case)
    /// costs one pass that only asks whether any XOR is non-zero, and
    /// only a payload that does not is walked again for the exact
    /// per-byte count. Fragments that do not cover a whole keystream
    /// word (before the first word boundary when `offset % 8 != 0`,
    /// after the last) are compared bytewise.
    fn mismatches(&self, seq: u64, offset: usize, got: &[u8]) -> u64 {
        let seed = self.seed(seq);
        let bytewise = |k: u64, skip: usize, part: &[u8]| -> u64 {
            let word = splitmix64(seed ^ k).to_be_bytes();
            part.iter().zip(&word[skip..]).filter(|(a, b)| a != b).count() as u64
        };
        let skew = offset % 8;
        let lead_len = if skew == 0 { 0 } else { (8 - skew).min(got.len()) };
        let (lead, rest) = got.split_at(lead_len);
        let mut first = (offset / 8) as u64;
        let mut bad = 0;
        if !lead.is_empty() {
            bad += bytewise(first, skew, lead);
            first += 1;
        }
        let words = rest.chunks_exact(8);
        let xored = || {
            words.clone().zip(first..).map(|(word, k)| {
                u64::from_be_bytes(word.try_into().expect("8 bytes")) ^ splitmix64(seed ^ k)
            })
        };
        // `any`, not an OR-reduction: a reduction gets auto-vectorised,
        // and with baseline SSE2 that means emulated 64-bit multiplies
        // at half the speed of this scalar early-exit loop.
        if xored().any(|x| x != 0) {
            bad += xored()
                .map(|x| x.to_ne_bytes().iter().filter(|&&b| b != 0).count() as u64)
                .sum::<u64>();
        }
        bad + bytewise(first + (rest.len() / 8) as u64, 0, words.remainder())
    }
}

/// Per-second byte accounting on a caller-injected clock.
///
/// Seconds are aligned to [`ByteCounter::start`]; bytes recorded with
/// [`ByteCounter::add`] accrue to the second in progress, and
/// [`ByteCounter::roll`] finalizes every second wholly elapsed by `now`
/// (a jump across several seconds finalizes the in-progress one and
/// zero-fills the skipped ones). The trailing partial second is never
/// reported — exactly the `SecondReport` contract of "one report per
/// *completed* second".
#[derive(Debug, Clone, Default)]
pub struct ByteCounter {
    epoch: Option<SimTime>,
    completed: Vec<u64>,
    current: u64,
    total: u64,
}

impl ByteCounter {
    /// An idle counter; call [`ByteCounter::start`] to begin a slot.
    pub fn new() -> Self {
        ByteCounter::default()
    }

    /// Starts (or restarts) counting with second 0 beginning at `now`.
    pub fn start(&mut self, now: SimTime) {
        self.epoch = Some(now);
        self.completed.clear();
        self.current = 0;
        self.total = 0;
    }

    /// True once [`ByteCounter::start`] has been called.
    pub fn is_running(&self) -> bool {
        self.epoch.is_some()
    }

    /// Records `bytes` as of `now` (rolls completed seconds first).
    pub fn add(&mut self, now: SimTime, bytes: u64) {
        self.roll(now);
        self.current += bytes;
        self.total += bytes;
    }

    /// Finalizes every second wholly elapsed by `now`.
    pub fn roll(&mut self, now: SimTime) {
        let Some(epoch) = self.epoch else { return };
        let elapsed_secs = now.saturating_duration_since(epoch).as_secs() as usize;
        while self.completed.len() < elapsed_secs {
            let bytes = std::mem::take(&mut self.current);
            self.completed.push(bytes);
        }
    }

    /// Byte counts of every completed second, in order.
    pub fn completed(&self) -> &[u64] {
        &self.completed
    }

    /// Total bytes recorded, completed seconds and the partial one.
    pub fn total(&self) -> u64 {
        self.total
    }
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
/// it sent per second.
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
    counter: ByteCounter,
    error: Option<TransportError>,
    /// Reused frame buffer (header + payload): the blast path runs at
    /// hundreds of MB/s, so per-frame allocation is pure overhead.
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
            counter: ByteCounter::new(),
            error: None,
            frame: Vec::with_capacity(BLAST_HEADER_LEN + BLAST_CHUNK),
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

    /// The hello this channel opens with.
    pub fn hello(&self) -> DataChannelHello {
        self.hello
    }

    /// Total payload bytes handed to the transport.
    pub fn sent_total(&self) -> u64 {
        self.sent
    }

    /// Payload bytes sent in each completed second since the blast
    /// started.
    pub fn completed_seconds(&self) -> &[u64] {
        self.counter.completed()
    }

    /// The transport (flush nudges, fault tripping in tests).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Unbinds, returning the transport.
    pub fn into_transport(self) -> T {
        self.transport
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

    /// Starts the blast clock (the slot's Go instant). Second 0 of the
    /// counted series begins here.
    pub fn start(&mut self, now: SimTime) {
        if self.state != SourceState::Greeted {
            return;
        }
        self.state = SourceState::Blasting;
        self.started_at = Some(now);
        self.counter.start(now);
    }

    /// Stops blasting and finalizes the per-second counters up to `now`.
    pub fn stop(&mut self, now: SimTime) {
        if self.state == SourceState::Blasting {
            self.counter.roll(now);
        }
        if self.state != SourceState::Stopped {
            self.state = SourceState::Stopped;
        }
    }

    /// Writes as many pattern-stamped frames as the pacing budget at
    /// `now` allows (bounded by [`MAX_TICK_BYTES`] per call); returns
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
        self.counter.roll(now);
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
        let mut budget = allowed.saturating_sub(self.sent).min(MAX_TICK_BYTES);
        let mut moved = false;
        while budget > 0 {
            // Assemble a batch of frames in the reused buffer and hand
            // them to the transport together (one vectored write /
            // syscall per batch instead of per frame).
            self.frame.clear();
            let mut batch_payload = 0u64;
            while budget > 0 && self.frame.len() < SEND_BATCH_BYTES {
                let len = (budget as usize).min(BLAST_CHUNK);
                append_frame(&mut self.frame, self.pattern, self.key, self.seq, len);
                self.seq += 1;
                batch_payload += len as u64;
                budget -= len as u64;
            }
            if let Err(err) = self.transport.send(now, &self.frame) {
                self.fail(err);
                return moved;
            }
            self.sent += batch_payload;
            self.counter.add(now, batch_payload);
            moved = true;
        }
        moved
    }

    fn fail(&mut self, err: TransportError) {
        if self.error.is_none() {
            self.error = Some(err);
        }
        self.state = SourceState::Stopped;
    }
}

/// What a [`BlastParser`] surfaced from a chunk of stream bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlastEvent {
    /// A (re)binding hello: the channel now serves this control session.
    Hello(DataChannelHello),
    /// Payload bytes arrived: `bytes` total, of which `corrupt` did not
    /// match the pattern keystream.
    Data {
        /// Payload bytes delivered in this batch.
        bytes: u64,
        /// Of those, bytes that failed pattern verification.
        corrupt: u64,
    },
    /// A frame whose keyed integrity tag did not verify: a forgery by
    /// someone who knows the (public) hello nonce but not the channel
    /// key. Its payload is discarded, never credited.
    Forged {
        /// Payload bytes the forged frame declared (and the parser
        /// skipped).
        bytes: u64,
    },
    /// A frame whose tag verified but whose sequence number had
    /// already been passed: a replay of a captured frame (the tag
    /// binds key/nonce/seq/len, so a wire MITM can re-send old frames
    /// but not mint fresh sequence numbers). Discarded, never
    /// credited.
    Replayed {
        /// Payload bytes the replayed frame declared (and the parser
        /// skipped).
        bytes: u64,
    },
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

    /// Consumes `bytes`, returning the events they completed.
    ///
    /// # Errors
    /// The first framing error is sticky; every later call returns it.
    pub fn push(&mut self, bytes: &[u8]) -> Result<Vec<BlastEvent>, BlastError> {
        if let Some(err) = self.poisoned {
            return Err(err);
        }
        let mut rest = bytes;
        let mut events = Vec::new();
        let mut batch_bytes = 0u64;
        let mut batch_corrupt = 0u64;
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
                    match tag {
                        DATA_HELLO_TAG => {
                            let Some(raw) = self.take_unit(&mut rest, HELLO_LEN) else {
                                break Ok(());
                            };
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
                            flush_data(&mut events, &mut batch_bytes, &mut batch_corrupt);
                            events.push(BlastEvent::Hello(hello));
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
                                flush_data(&mut events, &mut batch_bytes, &mut batch_corrupt);
                                events.push(BlastEvent::Forged { bytes: u64::from(len) });
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
                                flush_data(&mut events, &mut batch_bytes, &mut batch_corrupt);
                                events.push(BlastEvent::Replayed { bytes: u64::from(len) });
                                self.state = ParseState::SkipForged { remaining: len as usize };
                            } else {
                                self.next_seq = seq + 1;
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
                    let (payload, after) = rest.split_at(take);
                    rest = after;
                    let pattern = self.pattern.expect("a payload follows a hello");
                    let mismatches = pattern.mismatches(seq, got, payload);
                    batch_bytes += take as u64;
                    batch_corrupt += mismatches;
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
        flush_data(&mut events, &mut batch_bytes, &mut batch_corrupt);
        Ok(events)
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

fn flush_data(events: &mut Vec<BlastEvent>, bytes: &mut u64, corrupt: &mut u64) {
    if *bytes > 0 {
        events.push(BlastEvent::Data { bytes: *bytes, corrupt: *corrupt });
        *bytes = 0;
        *corrupt = 0;
    }
}

/// The receiving half of one data channel: a [`BlastParser`] bound to a
/// transport, with per-second received/corrupt counters on the caller's
/// clock. This is the in-process sink used by tests and benches; the
/// standalone measurer process drives a bare [`BlastParser`] so it can
/// aggregate counters across channels.
pub struct TrafficSink<T: Transport> {
    transport: T,
    parser: BlastParser,
    counter: ByteCounter,
    corrupt_counter: ByteCounter,
    hello: Option<DataChannelHello>,
    error: Option<TransportError>,
    /// Reused receive buffer ([`Transport::recv_into`]).
    rxbuf: Vec<u8>,
}

impl<T: Transport> TrafficSink<T> {
    /// A sink draining `transport`.
    pub fn new(transport: T) -> Self {
        TrafficSink {
            transport,
            parser: BlastParser::new(),
            counter: ByteCounter::new(),
            corrupt_counter: ByteCounter::new(),
            hello: None,
            error: None,
            rxbuf: Vec::new(),
        }
    }

    /// Keys the integrity-tag check of the underlying parser.
    #[must_use]
    pub fn with_key(mut self, key: u64) -> Self {
        self.parser = std::mem::take(&mut self.parser).with_key(key);
        self
    }

    /// Streams the underlying parser's byte accounting into shared
    /// telemetry counters (see [`BlastParser::with_counters`]).
    #[must_use]
    pub fn with_counters(mut self, counters: BlastCounters) -> Self {
        self.parser = std::mem::take(&mut self.parser).with_counters(counters);
        self
    }

    /// Starts the per-second counting clock (the slot's Go instant).
    pub fn start(&mut self, now: SimTime) {
        self.counter.start(now);
        self.corrupt_counter.start(now);
    }

    /// Drains the transport once; returns `true` if bytes arrived.
    ///
    /// # Errors
    /// Returns the first **framing** error (sticky; the stream has lost
    /// sync). A *transport* failure is not an `Err` — the sink records
    /// it (see [`TrafficSink::transport_error`]) and later pumps return
    /// `Ok(false)`, because "the peer hung up" is the normal end of a
    /// blast channel, not a protocol violation.
    pub fn pump(&mut self, now: SimTime) -> Result<bool, BlastError> {
        if self.error.is_some() {
            return Ok(false);
        }
        self.counter.roll(now);
        self.corrupt_counter.roll(now);
        // Swap the reused buffer out so the parser can borrow `self`.
        let mut rx = std::mem::take(&mut self.rxbuf);
        let got = match self.transport.recv_into(now, &mut rx) {
            Ok(got) => got,
            Err(err) => {
                self.error = Some(err);
                self.rxbuf = rx;
                return Ok(false);
            }
        };
        if got == 0 {
            self.rxbuf = rx;
            return Ok(false);
        }
        let events = self.parser.push(&rx);
        self.rxbuf = rx;
        for event in events? {
            match event {
                BlastEvent::Hello(h) => self.hello = Some(h),
                BlastEvent::Data { bytes, corrupt } => {
                    if self.counter.is_running() {
                        self.counter.add(now, bytes);
                        self.corrupt_counter.add(now, corrupt);
                    }
                }
                // Forgeries and replays accrue on the parser's
                // counters only; neither is credited to the received
                // series.
                BlastEvent::Forged { .. } | BlastEvent::Replayed { .. } => {}
            }
        }
        Ok(true)
    }

    /// The most recent hello, once one arrived.
    pub fn hello(&self) -> Option<DataChannelHello> {
        self.hello
    }

    /// Total payload bytes received.
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

    /// Received bytes per completed second since [`TrafficSink::start`].
    pub fn completed_seconds(&self) -> &[u64] {
        self.counter.completed()
    }

    /// The first transport error observed, if any.
    pub fn transport_error(&self) -> Option<TransportError> {
        self.error
    }

    /// The transport (fault tripping in tests).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }
}

/// The target relay's half of one echo data channel: verifies every
/// inbound payload byte against the pattern keystream (and the keyed
/// frame tag), then loops the **verified** bytes back to the measurer as
/// pattern-stamped frames of its own — the paper's echo, where the
/// capacity demonstration is the relay actually moving the bytes both
/// ways. Corrupt or forged inbound bytes are counted but never echoed,
/// so a garbage blast cannot inflate what the measurer gets back.
///
/// Sans-IO like everything else here: time is caller-injected, the
/// transport is the caller's, and the same echoer runs over the
/// simulated duplex (in-process examples, conformance tests) and a real
/// TCP connection inside the `flashflow-relay` process.
pub struct Echoer<T: Transport> {
    transport: T,
    parser: BlastParser,
    key: u64,
    /// Outbound pattern + greeting, bound by the first inbound hello.
    pattern: Option<BlastPattern>,
    hello: Option<DataChannelHello>,
    greeted: bool,
    /// Verified bytes received but not yet echoed back.
    pending: u64,
    seq: u64,
    echoed: u64,
    counter: ByteCounter,
    error: Option<TransportError>,
    /// Optional telemetry counter fed with every echoed payload byte.
    echoed_counter: Option<Counter>,
    /// Adversarial hook: echo keystream-violating garbage instead of
    /// the real pattern (a forging relay, for tests of the measurer's
    /// corrupt accounting).
    corrupt_echo: bool,
    /// Reused frame buffer, same rationale as [`TrafficSource`].
    frame: Vec<u8>,
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
            key: 0,
            pattern: None,
            hello: None,
            greeted: false,
            pending: 0,
            seq: 0,
            echoed: 0,
            counter: ByteCounter::new(),
            error: None,
            echoed_counter: None,
            corrupt_echo: false,
            frame: Vec::with_capacity(BLAST_HEADER_LEN + BLAST_CHUNK),
            rxbuf: Vec::new(),
        }
    }

    /// Makes the echo payloads violate the keystream (an adversarial
    /// relay forging its echo): the measurer's verifying parser counts
    /// every such byte corrupt instead of crediting it.
    pub fn set_corrupt_echo(&mut self, corrupt: bool) {
        self.corrupt_echo = corrupt;
    }

    /// Keys both directions' integrity tags (see [`frame_tag`]): the
    /// inbound check and the tags on the echoed frames.
    #[must_use]
    pub fn with_key(mut self, key: u64) -> Self {
        self.key = key;
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

    /// Starts the per-second echoed-byte clock.
    pub fn start(&mut self, now: SimTime) {
        self.counter.start(now);
    }

    /// The hello this channel is bound to, once one arrived.
    pub fn hello(&self) -> Option<DataChannelHello> {
        self.hello
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

    /// Total payload bytes echoed back so far.
    pub fn echoed_total(&self) -> u64 {
        self.echoed
    }

    /// Verified bytes received but not yet echoed (backlog).
    pub fn pending_echo(&self) -> u64 {
        self.pending
    }

    /// Echoed bytes per completed second since [`Echoer::start`].
    pub fn completed_seconds(&self) -> &[u64] {
        self.counter.completed()
    }

    /// The first transport error observed, if any.
    pub fn transport_error(&self) -> Option<TransportError> {
        self.error
    }

    /// The transport (flush nudges, fault tripping in tests).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Drains the transport once and echoes what the new bytes
    /// verified; returns `true` if bytes moved in either direction.
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
        let injected = self.inject(now, &rx);
        self.rxbuf = rx;
        let mut moved = injected?;
        moved |= got > 0;
        Ok(moved)
    }

    /// Feeds bytes that arrived outside the echoer's own `recv` (a
    /// serving process reads a connection's first bytes itself to
    /// classify and bind it) and echoes what they verified.
    ///
    /// # Errors
    /// Same contract as [`Echoer::pump`].
    pub fn inject(&mut self, now: SimTime, bytes: &[u8]) -> Result<bool, BlastError> {
        self.counter.roll(now);
        if !bytes.is_empty() {
            for event in self.parser.push(bytes)? {
                match event {
                    BlastEvent::Hello(h) => {
                        // Mirror the parser's replay rule: only a hello
                        // for a *different* nonce restarts the stream
                        // (pooled reuse, fresh sequence space). A
                        // re-sent copy of the current hello — a MITM
                        // replaying a captured packet — must not reset
                        // the outbound sequence window (which would
                        // make every later echoed frame look replayed
                        // to the measurer) or drop the pending backlog.
                        if self.hello.map(|cur| cur.nonce) != Some(h.nonce) {
                            self.greeted = false;
                            self.seq = 0;
                            self.pending = 0;
                        }
                        self.hello = Some(h);
                        self.pattern = Some(BlastPattern::new(h.nonce));
                    }
                    BlastEvent::Data { bytes, corrupt } => {
                        // Echo exactly the bytes that verified.
                        self.pending += bytes - corrupt;
                    }
                    BlastEvent::Forged { .. } | BlastEvent::Replayed { .. } => {}
                }
            }
        }
        Ok(self.echo(now))
    }

    /// Writes the echo backlog out (hello first, then pattern-stamped
    /// frames), bounded by [`MAX_TICK_BYTES`] per call and paused
    /// entirely while the transport's send backlog sits above
    /// [`ECHO_BACKLOG_HIGH_WATER`] — a measurer that never reads its
    /// return stream stalls its own echo instead of growing relay
    /// memory.
    fn echo(&mut self, now: SimTime) -> bool {
        let Some(pattern) = self.pattern else { return false };
        let hello = self.hello.expect("pattern implies hello");
        let mut moved = false;
        if !self.greeted {
            match self.transport.send(now, &hello.encode()) {
                Ok(()) => {
                    self.greeted = true;
                    moved = true;
                }
                Err(err) => {
                    self.error = Some(err);
                    return moved;
                }
            }
        }
        if self.transport.backlog() >= ECHO_BACKLOG_HIGH_WATER {
            // Nudge the queued outbox toward the kernel, emit nothing.
            let _ = self.transport.send(now, &[]);
            return moved;
        }
        let mut budget = self.pending.min(MAX_TICK_BYTES);
        while budget > 0 {
            // Batch frames into the reused buffer, one transport send
            // (one vectored write) per batch — see [`SEND_BATCH_BYTES`].
            self.frame.clear();
            let mut batch_payload = 0u64;
            while budget > 0 && self.frame.len() < SEND_BATCH_BYTES {
                let len = (budget as usize).min(BLAST_CHUNK);
                let frame_start = self.frame.len();
                append_frame(&mut self.frame, pattern, self.key, self.seq, len);
                if self.corrupt_echo {
                    for b in &mut self.frame[frame_start + BLAST_HEADER_LEN..] {
                        *b ^= 0xFF;
                    }
                }
                self.seq += 1;
                batch_payload += len as u64;
                budget -= len as u64;
            }
            if let Err(err) = self.transport.send(now, &self.frame) {
                self.error = Some(err);
                return moved;
            }
            self.echoed += batch_payload;
            if let Some(c) = &self.echoed_counter {
                c.add(batch_payload);
            }
            self.pending -= batch_payload;
            if self.counter.is_running() {
                self.counter.add(now, batch_payload);
            }
            moved = true;
        }
        moved
    }
}

/// The target relay's client traffic alongside a measurement: an
/// offered background rate, admitted up to a cap while the measurement
/// window runs (the paper caps client traffic at the `r` fraction of
/// capacity during a slot, so the echo gets the rest), accounted per
/// second on the caller's clock.
///
/// The *admitted* series is what an honest relay reports as its
/// `bg_bytes` column; a lying relay reports something else, which is
/// exactly what the coordinator's plausibility check is for.
#[derive(Debug, Clone)]
pub struct BackgroundMeter {
    /// Offered client traffic in bytes per second.
    offered: u64,
    /// Admission cap in bytes per second while set (the measurement
    /// window); `None` admits the full offered rate.
    cap: Option<u64>,
    counter: ByteCounter,
    /// Fractional-byte carry between ticks.
    carry: f64,
    last: Option<SimTime>,
}

impl BackgroundMeter {
    /// A meter for `offered` bytes/second of client traffic.
    pub fn new(offered: u64) -> Self {
        BackgroundMeter { offered, cap: None, counter: ByteCounter::new(), carry: 0.0, last: None }
    }

    /// The offered client rate.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Caps admission at `bytes_per_sec` (the measurement window's
    /// allowance); `0` means uncapped.
    pub fn set_cap(&mut self, bytes_per_sec: u64) {
        self.cap = if bytes_per_sec == 0 { None } else { Some(bytes_per_sec) };
    }

    /// The rate actually admitted right now.
    pub fn admitted_rate(&self) -> u64 {
        self.cap.map_or(self.offered, |cap| self.offered.min(cap))
    }

    /// Starts the per-second accounting clock.
    pub fn start(&mut self, now: SimTime) {
        self.counter.start(now);
        self.carry = 0.0;
        self.last = Some(now);
    }

    /// Accrues admitted bytes for the time elapsed since the last tick,
    /// second by second: a late tick's span is split at every second
    /// boundary it crossed, so no second is credited more than its own
    /// share of the admitted rate. A `now` behind the last tick is a
    /// no-op.
    pub fn tick(&mut self, now: SimTime) {
        let (Some(mut last), Some(epoch)) = (self.last, self.counter.epoch) else { return };
        while last < now {
            let second = last.saturating_duration_since(epoch).as_secs();
            let until = now.min(epoch + SimDuration::from_secs(second + 1));
            self.carry += self.admitted_rate() as f64 * until.duration_since(last).as_secs_f64();
            let whole = self.carry.floor();
            if whole > 0.0 {
                // Credited at the piece's *start*, so bytes accrued over
                // a span ending exactly on a second boundary land in the
                // second they were admitted in, not the next one.
                self.counter.add(last, whole as u64);
                self.carry -= whole;
            }
            last = until;
        }
        self.counter.roll(last);
        self.last = Some(last);
    }

    /// Total admitted bytes since [`BackgroundMeter::start`].
    pub fn admitted_total(&self) -> u64 {
        self.counter.total()
    }

    /// Admitted bytes of second `second` (zero-based since
    /// [`BackgroundMeter::start`]). A caller whose own clock says that
    /// second is over may ask a hair before this meter's last tick got
    /// there; the meter first advances to the second's end.
    pub fn admitted_in(&mut self, second: u32) -> u64 {
        if let Some(epoch) = self.counter.epoch {
            self.tick(epoch + SimDuration::from_secs(u64::from(second) + 1));
        }
        self.counter.completed().get(second as usize).copied().unwrap_or(0)
    }

    /// Admitted bytes per completed second.
    pub fn completed_seconds(&self) -> &[u64] {
        self.counter.completed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Duplex;
    use flashflow_simnet::time::SimDuration;

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
    fn byte_counter_finalizes_whole_seconds_only() {
        let mut c = ByteCounter::new();
        c.start(SimTime::from_secs(10));
        c.add(SimTime::from_secs_f64(10.5), 100);
        assert!(c.completed().is_empty(), "partial second not reported");
        c.add(SimTime::from_secs_f64(11.2), 50);
        assert_eq!(c.completed(), &[100]);
        // A jump across seconds zero-fills the gap.
        c.roll(SimTime::from_secs_f64(14.0));
        assert_eq!(c.completed(), &[100, 50, 0, 0]);
        assert_eq!(c.total(), 150);
    }

    #[test]
    fn source_to_sink_stream_verifies_clean_over_chunked_link() {
        // 3-byte re-chunking: every hello and frame crosses reassembly.
        let (a, b) = Duplex::new(SimDuration::ZERO, 3).into_endpoints();
        let mut src = TrafficSource::new(a, 0xABCD, 0);
        src.set_rate_cap(40_000);
        let mut sink = TrafficSink::new(b);

        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        sink.start(SimTime::ZERO);
        for tick in 0..=30u64 {
            let now = SimTime::from_secs_f64(tick as f64 * 0.1);
            src.pump(now);
            sink.pump(now).expect("clean stream");
        }
        let now = SimTime::from_secs(3);
        src.stop(now);
        sink.pump(now).expect("clean stream");

        assert_eq!(sink.hello(), Some(DataChannelHello { nonce: 0xABCD, channel: 0 }));
        assert!(src.sent_total() > 0);
        assert_eq!(sink.received_total(), src.sent_total(), "every payload byte arrived");
        assert_eq!(sink.corrupt_total(), 0, "pattern verified");
        // Pacing: roughly rate_cap per completed second on both ends.
        for (ix, &sec) in src.completed_seconds().iter().enumerate() {
            assert!((30_000..=50_000).contains(&sec), "source second {ix} sent {sec} B (cap 40k)");
        }
        assert_eq!(src.completed_seconds().len(), 3);
    }

    #[test]
    fn corrupt_bytes_are_counted_not_trusted() {
        let (a, b) = Duplex::loopback().into_endpoints();
        let mut src = TrafficSource::new(a, 7, 0);
        src.set_rate_cap(1_000);
        let mut sink = TrafficSink::new(b);
        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        sink.start(SimTime::ZERO);
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

        sink.pump(SimTime::from_secs(1)).expect("framing intact");
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
        let (a, b) = Duplex::loopback().into_endpoints();
        let mut src = TrafficSource::new(a, nonce, 0).with_key(key);
        src.set_rate_cap(2_000);
        let mut sink = TrafficSink::new(b).with_key(key);
        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        sink.start(SimTime::ZERO);
        src.pump(SimTime::from_secs(1));
        sink.pump(SimTime::from_secs(1)).unwrap();
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
        sink.pump(SimTime::from_secs(1)).expect("framing survives a forgery");
        assert_eq!(sink.forged_total(), u64::from(len), "forgery counted");
        assert_eq!(sink.received_total(), honest, "forged payload never credited");
        assert_eq!(sink.corrupt_total(), 0);

        // And the stream keeps working after the skipped frame.
        src.pump(SimTime::from_secs(2));
        sink.pump(SimTime::from_secs(2)).unwrap();
        assert!(sink.received_total() > honest, "honest frames resume after the forgery");
    }

    #[test]
    fn replayed_frames_are_rejected_and_counted() {
        // A wire MITM cannot mint tags, but it can re-send captured
        // frames. The sequence window rejects them: each (seq, tag)
        // pair is credited at most once.
        let key = secret_channel_key(0x4E91);
        let nonce = binding_nonce(0x4E91);
        let (a, b) = Duplex::loopback().into_endpoints();
        let mut src = TrafficSource::new(a, nonce, 0).with_key(key);
        src.set_rate_cap(2_000);
        let mut sink = TrafficSink::new(b).with_key(key);
        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        sink.start(SimTime::ZERO);
        src.pump(SimTime::from_secs(1));
        sink.pump(SimTime::from_secs(1)).unwrap();
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
        sink.pump(SimTime::from_secs(1)).expect("framing survives replays");
        assert_eq!(sink.received_total(), honest, "replayed bytes never credited");
        assert_eq!(sink.replayed_total(), 5 * u64::from(len), "every replay counted");
        assert_eq!(sink.forged_total(), 0);

        // Honest traffic continues past the replays.
        src.pump(SimTime::from_secs(2));
        sink.pump(SimTime::from_secs(2)).unwrap();
        assert!(sink.received_total() > honest);
        assert_eq!(sink.corrupt_total(), 0);

        // Re-sending the captured *hello* must not rewind the window.
        let hello = DataChannelHello { nonce, channel: 0 }.encode();
        src.transport_mut().send(SimTime::from_secs(2), &hello).unwrap();
        src.transport_mut().send(SimTime::from_secs(2), &replay).unwrap();
        let before = sink.received_total();
        sink.pump(SimTime::from_secs(2)).unwrap();
        assert_eq!(sink.received_total(), before, "hello replay cannot reopen old sequences");
        assert_eq!(sink.replayed_total(), 6 * u64::from(len));
    }

    #[test]
    fn mismatched_keys_reject_everything() {
        let (a, b) = Duplex::loopback().into_endpoints();
        let mut src = TrafficSource::new(a, 42, 0).with_key(111);
        src.set_rate_cap(1_000);
        let mut sink = TrafficSink::new(b).with_key(222);
        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        sink.start(SimTime::ZERO);
        src.pump(SimTime::from_secs(1));
        sink.pump(SimTime::from_secs(1)).unwrap();
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
        echo.start(SimTime::ZERO);
        let mut echoed_back = 0u64;
        for tick in 0..=40u64 {
            let now = SimTime::from_secs_f64(tick as f64 * 0.1);
            src.pump(now);
            echo.pump(now).expect("clean inbound stream");
            let bytes = src.transport_mut().recv(now).expect("return stream open");
            for ev in back.push(&bytes).expect("clean return stream") {
                if let BlastEvent::Data { bytes, corrupt } = ev {
                    assert_eq!(corrupt, 0, "echo must verify");
                    echoed_back += bytes;
                }
            }
        }
        assert_eq!(echo.hello(), Some(DataChannelHello { nonce, channel: 0 }));
        assert!(src.sent_total() > 0);
        assert_eq!(echo.received_total(), src.sent_total(), "everything arrived at the relay");
        assert_eq!(echo.corrupt_total(), 0);
        assert_eq!(echo.echoed_total() + echo.pending_echo(), echo.received_total());
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
        echo.start(SimTime::ZERO);
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
        assert_eq!(echo.echoed_total() + echo.pending_echo(), echo.received_total());
    }

    #[test]
    fn echoer_never_echoes_corrupt_bytes() {
        let (m_end, r_end) = Duplex::loopback().into_endpoints();
        let mut src = TrafficSource::new(m_end, 9, 0);
        src.set_rate_cap(1_000);
        let mut echo = Echoer::new(r_end);
        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        echo.start(SimTime::ZERO);
        src.pump(SimTime::from_secs(1));
        // A garbage-payload frame with a valid tag: counted corrupt,
        // not echoed.
        let mut frame = Vec::new();
        frame.push(BLAST_FRAME_TAG);
        frame.extend_from_slice(&77u64.to_be_bytes());
        frame.extend_from_slice(&16u32.to_be_bytes());
        frame.extend_from_slice(&frame_tag(0, 9, 77, 16).to_be_bytes());
        frame.extend_from_slice(&[0xEE; 16]);
        src.transport_mut().send(SimTime::from_secs(1), &frame).unwrap();
        echo.pump(SimTime::from_secs(1)).expect("framing intact");
        while echo.pending_echo() > 0 {
            echo.pump(SimTime::from_secs(1)).expect("drain");
        }
        assert!(echo.corrupt_total() >= 15);
        assert_eq!(
            echo.echoed_total(),
            echo.received_total() - echo.corrupt_total(),
            "only verified bytes loop back"
        );
    }

    #[test]
    fn background_meter_caps_admission_during_the_window() {
        let mut meter = BackgroundMeter::new(10_000);
        assert_eq!(meter.admitted_rate(), 10_000, "uncapped admits the offered rate");
        meter.set_cap(4_000);
        assert_eq!(meter.admitted_rate(), 4_000);
        meter.start(SimTime::ZERO);
        for tick in 1..=30u64 {
            meter.tick(SimTime::from_secs_f64(tick as f64 * 0.1));
        }
        assert_eq!(meter.completed_seconds().len(), 3);
        for (ix, &sec) in meter.completed_seconds().iter().enumerate() {
            assert!((3_998..=4_002).contains(&sec), "capped second {ix} admitted {sec}");
        }
        // Cap above the offer: the offer is the binding constraint.
        meter.set_cap(50_000);
        assert_eq!(meter.admitted_rate(), 10_000);
        // Cap zero = uncapped.
        meter.set_cap(0);
        assert_eq!(meter.admitted_rate(), 10_000);
    }

    #[test]
    fn background_meter_splits_a_late_tick_at_second_boundaries() {
        // One tick at 0.9 s, the next not until 2.3 s: the 1.4 s span
        // must land in three different seconds, none above the cap.
        let mut meter = BackgroundMeter::new(40_000);
        meter.set_cap(20_000);
        meter.start(SimTime::ZERO);
        meter.tick(SimTime::from_secs_f64(0.9));
        meter.tick(SimTime::from_secs_f64(2.3));
        assert_eq!(meter.completed_seconds(), &[20_000, 20_000]);
        assert_eq!(meter.admitted_total(), 46_000);
        // A tick behind the meter's clock neither rewinds nor recounts.
        meter.tick(SimTime::from_secs(1));
        meter.tick(SimTime::from_secs(3));
        assert_eq!(meter.completed_seconds(), &[20_000, 20_000, 20_000]);
    }

    #[test]
    fn binding_nonce_and_keys_are_stable_and_distinct() {
        let secret = 0xABCD_EF01_2345_6789;
        assert_eq!(binding_nonce(secret), binding_nonce(secret));
        assert_ne!(binding_nonce(secret), secret, "nonce is not the secret itself");
        assert_ne!(binding_nonce(secret), secret_channel_key(secret));
        assert_ne!(binding_nonce(1), binding_nonce(2));
        let t1 = [1u8; crate::msg::AUTH_TOKEN_LEN];
        let t2 = [2u8; crate::msg::AUTH_TOKEN_LEN];
        assert_ne!(channel_key(&t1), channel_key(&t2));
        assert_eq!(channel_key(&t1), channel_key(&t1));
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
        let (a1, b) = Duplex::loopback().into_endpoints();
        let mut sink = TrafficSink::new(b);
        let mut src1 = TrafficSource::new(a1, 111, 0);
        src1.set_rate_cap(1_000);
        src1.greet(SimTime::ZERO);
        src1.start(SimTime::ZERO);
        sink.start(SimTime::ZERO);
        src1.pump(SimTime::from_secs(1));
        sink.pump(SimTime::from_secs(1)).unwrap();
        let after_first = sink.received_total();
        assert!(after_first > 0);
        assert_eq!(sink.corrupt_total(), 0);

        // Second session reuses the same wire with a different nonce.
        let mut src2 = TrafficSource::new(src1.into_transport(), 222, 0);
        src2.set_rate_cap(1_000);
        src2.greet(SimTime::from_secs(1));
        src2.start(SimTime::from_secs(1));
        src2.pump(SimTime::from_secs(2));
        sink.pump(SimTime::from_secs(2)).unwrap();
        assert_eq!(sink.hello(), Some(DataChannelHello { nonce: 222, channel: 0 }));
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
        let mut keystream = vec![0u8; 64];
        pattern.fill(seq, &mut keystream);
        for offset in 0..24 {
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
        let (peer, dialed) = crate::tcp::loopback_pair();
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
        let mut sink = TrafficSink::new(peer);
        let mut resumed = false;
        for _ in 0..100_000 {
            sink.pump(SimTime::ZERO).expect("clean stream");
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
        let (peer, dialed) = crate::tcp::loopback_pair();
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
        let mut sink = TrafficSink::new(peer);
        for _ in 0..1_000_000 {
            src.pump(end);
            // Flush the outbox's tail as a driver polling the echo would.
            src.transport_mut().send(end, &[]).expect("open connection");
            sink.pump(end).expect("clean stream");
            if sink.received_total() == commanded {
                break;
            }
        }
        assert_eq!(src.sent_total(), commanded, "paced source caught up to rate × time");
        assert_eq!(sink.received_total(), commanded, "and every byte arrived");
        assert_eq!(sink.corrupt_total(), 0);
    }

    #[test]
    fn uncapped_pump_is_bounded_per_tick() {
        let (a, _b) = Duplex::loopback().into_endpoints();
        let mut src = TrafficSource::new(a, 1, 0);
        src.greet(SimTime::ZERO);
        src.start(SimTime::ZERO);
        src.pump(SimTime::ZERO);
        assert_eq!(src.sent_total(), MAX_TICK_BYTES, "one tick, one budget");
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
