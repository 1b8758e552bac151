//! The measurer role's hooks into the shared peer library
//! ([`procutil::peer`]) and its echo channels. The library drives the
//! connection shell and the control conversation; this module says what
//! a conversation means to the data plane — dial the target relay at
//! `Go`, blast, and report the verified echo — and refuses every
//! inbound data dial.
//!
//! Each echo channel is a reactor connection of its own ([`EchoChannel`]):
//! dialed without blocking ([`reactor::dial`]), handed to the serving
//! reactor ([`Peer::spawn`]), and driven on its own socket's readiness.

use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flashflow_obs::{fields, MetricsRegistry, Span, Value};
use flashflow_procutil as procutil;
use flashflow_proto::blast::{
    binding_nonce, secret_channel_key, BlastCounters, BlastParser, DataChannelHello, SourceState,
    TrafficSource,
};
use flashflow_proto::msg::{MeasureSpec, PeerRole};
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::Transport;
use flashflow_simnet::time::SimTime;
use procutil::peer::{Bind, Peer, Role};
use procutil::reactor::{self, Driven, Step};

use crate::Measurer;

/// Most echo channels one slot opens, whatever `sockets` the command
/// asks for. The slot's bytes in flight do not grow with it (its
/// channels split one [`IN_FLIGHT_WINDOW`]); what pins it is the
/// benchmark's `MEASURER_SOCKET_CLAMP`, which must move with it.
const MAX_SOCKETS: u32 = 16;

/// How many pump + drain rounds one wakeup may spend on a single echo
/// channel before yielding to the rest of the shard's batch
/// (level-triggered polling re-delivers whatever remains) — the same
/// bound the relay's echo side uses.
const PUMP_ROUNDS: u32 = 8;

/// Most payload bytes one measured item keeps in flight: sent, and not
/// yet back in its echo, summed over the slot's channels, each of which
/// keeps an even share. Past a few bursts more in flight only queues in
/// kernel buffers, which autotune to tens of MiB on loopback, and what
/// is in flight when the slot closes is echoed by the relay but never
/// verified: the budget bounds that tail per measurer, whatever the
/// channel count.
const IN_FLIGHT_WINDOW: u64 = 8 << 20;

/// Whether `source` is under its `window` (its channel's share of
/// [`IN_FLIGHT_WINDOW`]). The echo is the relay's to send, so it may
/// claim more than was sent: saturate.
fn window_open(source: &TrafficSource<TcpTransport>, echo: &BlastParser, window: u64) -> bool {
    source.sent_total().saturating_sub(echo.received_total()) < window
}

/// The top bit of an [`EchoTally`]: the slot is over.
const CLOSED: u64 = 1 << 63;

/// What a slot's echo channels share with their conversation: the
/// verified echo bytes credited so far and, in the top bit, whether the
/// slot has closed. One atomic holds both, so a close and a credit never
/// interleave: a channel's bytes land before the close (and are
/// reported) or are refused after it (and the channel hangs up).
#[derive(Default)]
pub struct EchoTally(AtomicU64);

// ORDERING: Relaxed throughout — the tally is the whole message; no
// other memory is published through it.
impl EchoTally {
    /// Adds `bytes`; `false` once the tally is closed.
    fn credit(&self, bytes: u64) -> bool {
        self.0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                (v & CLOSED == 0).then_some(v + bytes)
            })
            .is_ok()
    }

    /// Closes the tally (idempotent) and returns its final total.
    fn close(&self) -> u64 {
        self.0.fetch_or(CLOSED, Ordering::Relaxed) & !CLOSED
    }

    /// Verified bytes credited so far.
    fn verified(&self) -> u64 {
        self.0.load(Ordering::Relaxed) & !CLOSED
    }

    fn is_closed(&self) -> bool {
        self.0.load(Ordering::Relaxed) & CLOSED != 0
    }
}

/// The measurer's state for one control conversation.
#[derive(Default)]
pub struct Conv {
    /// Shared with this conversation's echo channels, which are driven
    /// on their own readiness, wherever the reactor placed them.
    tally: Arc<EchoTally>,
    /// The commanded slot length: the last second's report closes the
    /// tally.
    slot_secs: u32,
    /// Verified echoed bytes already reported.
    counted_through: u64,
}

impl Drop for Conv {
    /// A conversation that ends, however it ends, hangs up its channels.
    fn drop(&mut self) {
        self.tally.close();
    }
}

/// The measurer serves no data connections, so none is ever built.
pub enum NoData {}

impl procutil::peer::DataConn for NoData {
    fn on_ready(&mut self) -> Step {
        match *self {}
    }

    fn on_tick(&mut self) -> Step {
        match *self {}
    }
}

impl Role for Measurer {
    const NAME: &'static str = "measurer";
    const USAGE: &'static str = crate::USAGE;
    type Config = ();
    type Conv = Conv;
    type Data = NoData;

    /// `--role` is a self-check for the scripts and harnesses that
    /// spawn this binary by role: it accepts exactly `measurer`.
    fn apply(_cfg: &mut (), key: &str, value: &str) -> Result<bool, String> {
        match (key, value) {
            ("role", "measurer") => Ok(true),
            ("role", "target") => {
                Err("role: the target role is the flashflow-relay binary".to_string())
            }
            ("role", other) => Err(format!("role: unknown role {other:?}")),
            _ => Ok(false),
        }
    }

    fn new(_cfg: (), registry: &MetricsRegistry) -> Measurer {
        Measurer {
            echo_blast: BlastCounters {
                verified: registry.counter("measurer.echo.verified_bytes"),
                corrupt: registry.counter("measurer.echo.corrupt_bytes"),
                forged: registry.counter("measurer.echo.forged_bytes"),
                replayed: registry.counter("measurer.echo.replayed_bytes"),
            },
        }
    }

    fn start_fields(&self) -> Vec<(String, Value)> {
        Vec::new()
    }

    fn session_role(&self) -> PeerRole {
        PeerRole::Measurer
    }

    fn conversation(&self) -> Conv {
        Conv::default()
    }

    fn on_start(
        peer: &Peer<Measurer>,
        conv: &mut Conv,
        span: &Span,
        spec: &MeasureSpec,
        _: SimTime,
    ) {
        conv.slot_secs = spec.slot_secs;
        let echo = EchoPlane {
            speedup: peer.settings.speedup,
            lead: procutil::peer::TICK,
            counters: &peer.role.echo_blast,
            tally: &conv.tally,
        };
        echo.dial(spec, span, &|channel| peer.spawn(channel));
    }

    fn on_stop(&self, conv: &mut Conv, span: &Span, seconds: u32, _snow: SimTime) {
        // Every channel hangs up at its next wakeup or tick; the relay's
        // echo side sees EOF.
        let verified = conv.tally.close();
        span.emit("session.stop", fields![seconds = seconds, verified = verified]);
    }

    /// The verified bytes the relay echoed back across this session's
    /// channels since the previous report. The slot's last report closes
    /// the tally, so what it reports is every byte the channels credited.
    fn second_report(&self, conv: &mut Conv, _span: &Span, second: u32) -> (u64, u64) {
        let through =
            if second + 1 >= conv.slot_secs { conv.tally.close() } else { conv.tally.verified() };
        let delta = through - conv.counted_through;
        conv.counted_through = through;
        (0, delta)
    }

    /// Measurement bytes only ever flow measurer → relay → measurer: no
    /// nonce a data dial can name is one this process serves.
    fn bind_data(
        _peer: &Arc<Peer<Measurer>>,
        span: Span,
        _transport: TcpTransport,
        _preread: &[u8],
        hello: DataChannelHello,
    ) -> Bind<NoData> {
        span.emit("channel.unknown_nonce", fields![nonce = hello.nonce]);
        Bind::Refused
    }
}

/// What every echo channel of one slot is started from.
struct EchoPlane<'a> {
    /// The peer's clock multiplier: the blast paces on the sped-up clock.
    speedup: f64,
    /// The serving shard's tick. A paced channel reads its echo a tick
    /// after it sends, so its blast clock starts this long before `Go`:
    /// what the slot's last report counts then runs up to the channel's
    /// last tick, not the tick before.
    lead: Duration,
    /// Process-wide counters every channel's parser feeds.
    counters: &'a BlastCounters,
    tally: &'a Arc<EchoTally>,
}

impl EchoPlane<'_> {
    /// Dials the slot's echo channels to the target relay, without
    /// blocking, and hands each to `spawn`. Returns how many were
    /// dialed: a channel whose dial fails at once is skipped — the slot
    /// degrades rather than wedging, and the coordinator sees it in the
    /// reported rates.
    fn dial(
        &self,
        spec: &MeasureSpec,
        span: &Span,
        spawn: &dyn Fn(Box<dyn Driven>) -> bool,
    ) -> u32 {
        let Some(addr) = spec.target.socket_addr() else { return 0 };
        let nonce = binding_nonce(spec.measurement_secret);
        let key = secret_channel_key(spec.measurement_secret);
        let n = spec.sockets.clamp(1, MAX_SOCKETS);
        let window = IN_FLIGHT_WINDOW / u64::from(n);
        // `Go` is now; the blast clock runs from a tick earlier.
        let t0 = Instant::now().checked_sub(self.lead).unwrap_or_else(Instant::now);
        let mut dialed = 0;
        for chan in 0..n {
            let span = span.channel(u64::from(chan));
            let stream = match reactor::dial(addr) {
                Ok(stream) => stream,
                Err(e) => {
                    span.emit(
                        "echo.dial_failed",
                        fields![addr = format!("{addr}"), error = format!("{e}")],
                    );
                    continue;
                }
            };
            // Even split; the first channels absorb the remainder.
            let cap = spec.rate_cap;
            let share = cap / u64::from(n) + u64::from(u64::from(chan) < cap % u64::from(n));
            let channel = EchoChannel {
                fd: stream.as_raw_fd(),
                link: Link::Dialing(stream),
                hello: DataChannelHello { nonce, channel: chan },
                key,
                cap: share,
                window,
                echo: BlastParser::new().with_key(key).with_counters(self.counters.clone()),
                tally: Arc::clone(self.tally),
                credited: 0,
                wants_write: true,
                rx: Vec::new(),
                span,
                t0,
                speedup: self.speedup,
            };
            if spawn(Box::new(channel)) {
                dialed += 1;
            }
        }
        span.emit(
            "echo.channels",
            fields![
                channels = dialed,
                commanded = spec.sockets,
                addr = format!("{addr}"),
                cap = spec.rate_cap,
            ],
        );
        dialed
    }
}

/// An echo channel's connection: connecting, then blasting, then closed.
enum Link {
    /// The dial is in flight; the first write readiness settles it.
    Dialing(TcpStream),
    /// This measurer's blast source, sharing the connection with the
    /// parser verifying the relay's echo stream.
    Blasting(Box<TrafficSource<TcpTransport>>),
    Closed,
}

/// One echo channel to the target relay, driven by the reactor on its
/// own socket's readiness: an uncapped channel stays armed for read and
/// write readiness, blasting whenever the socket takes bytes and
/// verifying the echo as it arrives; a paced one sends its allowance,
/// a tick ahead, and verifies the echo on the shard tick, and is armed
/// only for hang-ups and, while its transport holds a backlog, write
/// readiness. Either credits what it verified to the slot's
/// [`EchoTally`].
struct EchoChannel {
    /// Cached at dial: [`Driven::fd`] must stay stable across states.
    fd: i32,
    link: Link,
    hello: DataChannelHello,
    /// Frame-tag key, shared with the parser.
    key: u64,
    /// This channel's share of the commanded rate cap (0 = uncapped).
    cap: u64,
    /// This channel's share of the slot's [`IN_FLIGHT_WINDOW`].
    window: u64,
    echo: BlastParser,
    tally: Arc<EchoTally>,
    /// Verified bytes of this channel already credited to the tally.
    credited: u64,
    /// Whether the shard should arm the socket for write readiness.
    wants_write: bool,
    /// Reused receive buffer.
    rx: Vec<u8>,
    span: Span,
    /// Origin of the channel's sped-up clock and of its blast: `Go`,
    /// less the [`EchoPlane::lead`].
    t0: Instant,
    speedup: f64,
}

impl EchoChannel {
    fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.t0.elapsed().as_secs_f64() * self.speedup)
    }

    /// Settles an in-flight dial on a wakeup: `Some` is the step to
    /// return (still dialing, or failed), `None` means blasting.
    fn finish_dial(&mut self, now: SimTime) -> Option<Step> {
        let stream = match std::mem::replace(&mut self.link, Link::Closed) {
            Link::Dialing(stream) => stream,
            link => {
                self.link = link;
                return None;
            }
        };
        let transport = match reactor::dialed(&stream) {
            Ok(false) => {
                self.link = Link::Dialing(stream);
                return Some(Step::Continue);
            }
            Ok(true) => TcpTransport::from_stream(stream),
            Err(e) => Err(e),
        };
        match transport {
            Ok(transport) => {
                let mut source =
                    TrafficSource::new(transport, self.hello.nonce, self.hello.channel)
                        .with_key(self.key);
                source.set_rate_cap(self.cap);
                source.greet(now);
                source.start(SimTime::ZERO);
                self.link = Link::Blasting(Box::new(source));
                None
            }
            Err(e) => {
                self.span.emit("echo.dial_failed", fields![error = format!("{e}")]);
                Some(Step::Done)
            }
        }
    }

    /// Credits newly verified bytes; `false` once the slot has closed.
    fn publish(&mut self) -> bool {
        let verified = self.echo.received_total() - self.echo.corrupt_total();
        if verified > self.credited {
            if !self.tally.credit(verified - self.credited) {
                return false;
            }
            self.credited = verified;
        }
        true
    }

    /// Hangs up: the relay's echo side sees EOF.
    fn close(&mut self) -> Step {
        let sent = match &self.link {
            Link::Blasting(source) => source.sent_total(),
            Link::Dialing(_) | Link::Closed => 0,
        };
        self.link = Link::Closed;
        self.span.emit("echo.closed", fields![verified = self.credited, sent = sent]);
        Step::Done
    }

    /// Sends and verifies: pumps the source, then drains the echo into
    /// the parser, for up to [`PUMP_ROUNDS`] rounds while the pump keeps
    /// sending. Hangs up once the relay did, the stream broke, or the
    /// slot closed.
    fn exchange(&mut self, now: SimTime) -> Step {
        let Link::Blasting(source) = &mut self.link else { return Step::Continue };
        let mut hung_up = false;
        for _ in 0..PUMP_ROUNDS {
            let sent = window_open(source, &self.echo, self.window) && source.pump(now);
            // Reading also flushes the transport's queued outbox.
            let got = match source.transport_mut().recv_into(now, &mut self.rx) {
                Ok(got) => got,
                Err(_) => {
                    hung_up = true; // the relay hung up
                    break;
                }
            };
            if got > 0 {
                if let Err(e) = self.echo.push(&self.rx) {
                    // Framing is lost: nothing on this stream can verify
                    // again.
                    self.span.emit("echo.stream_broke", fields![error = format!("{e}")]);
                    hung_up = true;
                    break;
                }
            }
            // `recv_into` reads until the socket is drained (or its
            // budget is spent, which level-triggered polling re-reports),
            // so only a round that sent more can have more to read.
            if !sent {
                break;
            }
        }
        hung_up |= source.state() == SourceState::Stopped;
        // An uncapped source sends whenever the socket would take bytes
        // and its window is open (else the echo's arrival wakes it); a
        // paced one only needs write readiness to flush a backlog.
        self.wants_write = (self.cap == 0 && window_open(source, &self.echo, self.window))
            || source.transport_mut().pending_send_bytes() > 0;
        if !self.publish() || hung_up {
            return self.close();
        }
        Step::Continue
    }
}

impl Driven for EchoChannel {
    fn fd(&self) -> i32 {
        self.fd
    }

    fn on_ready(&mut self) -> Step {
        if self.tally.is_closed() {
            return self.close();
        }
        let now = self.now();
        if let Some(step) = self.finish_dial(now) {
            return step;
        }
        self.exchange(now)
    }

    /// The stop check, and a paced channel's whole exchange: it sends
    /// its allowance and reads the echo on the tick. An uncapped channel
    /// moves bytes on readiness only.
    fn on_tick(&mut self) -> Step {
        if self.tally.is_closed() {
            return self.close();
        }
        if self.cap == 0 {
            return Step::Continue;
        }
        let now = self.now();
        self.exchange(now)
    }

    fn wants_write(&self) -> bool {
        self.wants_write
    }

    /// A paced channel reads on the tick: waking it for every echo that
    /// lands would cost its shard one more wakeup per tick, for bytes
    /// the next tick reads anyway.
    fn wants_read(&self) -> bool {
        self.cap == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_obs::EventSink;
    use flashflow_proto::blast::{
        Echoer, BLAST_CHUNK, BLAST_HEADER_LEN, HELLO_LEN, MAX_TICK_BYTES,
    };
    use flashflow_proto::msg::TargetEndpoint;
    use procutil::peer::Settings;
    use procutil::reactor::{Reactor, ReactorConfig};
    use std::net::{SocketAddr, TcpListener};
    use std::sync::{Mutex, MutexGuard, PoisonError};
    use std::time::Duration;

    /// Held by every test that runs reactors: they time rates and CPU
    /// shares, and an uncapped channel beside them takes the CPU they
    /// are timed on.
    static REACTORS: Mutex<()> = Mutex::new(());

    /// Waits for the other reactor tests (a failed one does not poison
    /// the rest).
    fn serialised() -> MutexGuard<'static, ()> {
        REACTORS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// This thread's CPU time (user + system) in seconds, from its
    /// `/proc/self/task/<tid>/stat` line, which `/proc/thread-self` names.
    fn thread_cpu_secs() -> f64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("read thread stat");
        // Fields after the parenthesised command name: state is the
        // first, utime and stime the 12th and 13th, in USER_HZ (100)
        // ticks.
        let rest = stat.rsplit_once(')').expect("comm field").1;
        let ticks = |ix: usize| -> f64 {
            rest.split_whitespace().nth(ix).expect("stat field").parse().expect("tick count")
        };
        (ticks(11) + ticks(12)) / 100.0
    }

    /// (first, latest) CPU samples of a shard thread, with wall times.
    type CpuSamples = Arc<Mutex<Option<((Instant, f64), (Instant, f64))>>>;

    /// Wraps a connection to sample the CPU time of the shard thread it
    /// runs on, once per tick, after the connection's own tick.
    struct Sampled {
        inner: Box<dyn Driven>,
        cpu: CpuSamples,
    }

    impl Driven for Sampled {
        fn fd(&self) -> i32 {
            self.inner.fd()
        }

        fn on_ready(&mut self) -> Step {
            self.inner.on_ready()
        }

        fn on_tick(&mut self) -> Step {
            let step = self.inner.on_tick();
            let sample = (Instant::now(), thread_cpu_secs());
            let mut cpu = self.cpu.lock().expect("cpu samples");
            *cpu = Some((cpu.map_or(sample, |(first, _)| first), sample));
            step
        }

        fn wants_write(&self) -> bool {
            self.inner.wants_write()
        }

        fn wants_read(&self) -> bool {
            self.inner.wants_read()
        }
    }

    /// The relay's echo side in miniature: verify the channel's keyed
    /// frames and loop them back, flushing a backlog on write readiness.
    struct EchoPeer {
        fd: i32,
        echoer: Echoer<TcpTransport>,
        t0: Instant,
        backlog: bool,
    }

    impl Driven for EchoPeer {
        fn fd(&self) -> i32 {
            self.fd
        }

        fn on_ready(&mut self) -> Step {
            let now = SimTime::from_secs_f64(self.t0.elapsed().as_secs_f64());
            for _ in 0..PUMP_ROUNDS {
                match self.echoer.pump(now) {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(_) => return Step::Done,
                }
            }
            if self.echoer.transport_error().is_some() {
                return Step::Done;
            }
            self.backlog = self.echoer.pending_echo() > 0;
            Step::Continue
        }

        fn on_tick(&mut self) -> Step {
            self.on_ready()
        }

        fn wants_write(&self) -> bool {
            self.backlog
        }
    }

    /// A loopback echo peer for `key`'s channels on a 1 ms-tick reactor.
    fn echo_peer(key: u64) -> (Reactor, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("addr");
        let reactor = Reactor::serve(
            Some(listener),
            ReactorConfig { shards: 1, tick: Duration::from_millis(1) },
            Arc::new(move |stream, _| {
                let transport = TcpTransport::from_stream(stream).ok()?;
                let fd = transport.raw_fd();
                let echoer = Echoer::new(transport).with_key(key);
                let peer = EchoPeer { fd, echoer, t0: Instant::now(), backlog: false };
                Some(Box::new(peer) as Box<dyn Driven>)
            }),
        )
        .expect("start echo peer");
        (reactor, addr)
    }

    /// Runs one echo channel capped at `rate_cap` (0 = uncapped) on a
    /// one-shard reactor whose tick is 50 ms, against an echo peer, until
    /// `enough` bytes verified or `wall` passed, then closes the tally
    /// just after the channel's next tick, as a report falls. Returns the
    /// verified bytes, the wall time from the dial to the tally's close,
    /// and the shard thread's CPU share (`None` if no tick came first).
    fn one_channel(rate_cap: u64, wall: Duration, enough: u64) -> (u64, Duration, Option<f64>) {
        const SECRET: u64 = 0x5EED_EC40;
        const TICK: Duration = Duration::from_millis(50);
        let _serial = serialised();
        let (peer, target) = echo_peer(secret_channel_key(SECRET));
        let shard =
            Reactor::serve(None, ReactorConfig { shards: 1, tick: TICK }, Arc::new(|_, _| None))
                .expect("start measurer shard");
        let spec = MeasureSpec {
            slot_secs: 1,
            sockets: 1,
            rate_cap,
            target: TargetEndpoint::from_addr(target).expect("IPv4 loopback"),
            measurement_secret: SECRET,
            ..MeasureSpec::default()
        };
        let tally = Arc::new(EchoTally::default());
        let cpu: CpuSamples = Arc::new(Mutex::new(None));
        let counters = BlastCounters::default();
        let plane = EchoPlane { speedup: 1.0, lead: TICK, counters: &counters, tally: &tally };
        let dialed_at = Instant::now();
        let spawn = |channel| {
            shard.adopt(Box::new(Sampled { inner: channel, cpu: Arc::clone(&cpu) }));
            true
        };
        assert_eq!(plane.dial(&spec, &Span::root(EventSink::new()), &spawn), 1);
        while dialed_at.elapsed() < wall && tally.verified() < enough {
            std::thread::sleep(Duration::from_millis(5));
        }
        let latest = || cpu.lock().expect("cpu samples").map(|(_, (at, _))| at);
        let seen = latest();
        while latest() == seen {
            std::thread::sleep(Duration::from_millis(1));
        }
        let verified = tally.close();
        let elapsed = dialed_at.elapsed();
        let samples = *cpu.lock().expect("cpu samples");
        let share = samples.map(|((t0, cpu0), (t1, cpu1))| {
            (cpu1 - cpu0) / t1.duration_since(t0).as_secs_f64().max(f64::EPSILON)
        });
        // The closed tally hangs the channel up at its next wakeup or
        // tick.
        let gone_by = Instant::now() + Duration::from_secs(5);
        while shard.live() > 0 {
            assert!(Instant::now() < gone_by, "the channel outlived its closed tally");
            std::thread::sleep(Duration::from_millis(5));
        }
        for reactor in [shard, peer] {
            reactor.stop();
            reactor.join().expect("clean join");
        }
        (verified, elapsed, share)
    }

    /// The relay's side of a channel that reads the blast and never
    /// echoes any of it, counting what it swallowed.
    struct SwallowPeer {
        stream: TcpStream,
        read: Arc<AtomicU64>,
    }

    impl Driven for SwallowPeer {
        fn fd(&self) -> i32 {
            self.stream.as_raw_fd()
        }

        fn on_ready(&mut self) -> Step {
            let mut buf = [0u8; 64 << 10];
            loop {
                match std::io::Read::read(&mut self.stream, &mut buf) {
                    Ok(0) => return Step::Done,
                    Ok(n) => {
                        self.read.fetch_add(n as u64, Ordering::SeqCst);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Step::Continue,
                    Err(_) => return Step::Done,
                }
            }
        }

        fn on_tick(&mut self) -> Step {
            Step::Continue
        }

        fn wants_write(&self) -> bool {
            false
        }
    }

    /// Dials an uncapped slot of `sockets` channels at a peer that reads
    /// every channel's blast and never echoes any of it; returns the
    /// bytes it swallowed once they stopped growing.
    fn swallowed_by_a_silent_peer(sockets: u32) -> u64 {
        let _serial = serialised();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let target = listener.local_addr().expect("addr");
        let read = Arc::new(AtomicU64::new(0));
        let swallowed = Arc::clone(&read);
        let peer = Reactor::serve(
            Some(listener),
            ReactorConfig { shards: 1, tick: Duration::from_millis(1) },
            Arc::new(move |stream: TcpStream, _| {
                stream.set_nonblocking(true).ok()?;
                let read = Arc::clone(&swallowed);
                Some(Box::new(SwallowPeer { stream, read }) as Box<dyn Driven>)
            }),
        )
        .expect("start swallowing peer");
        let shard = Reactor::serve(
            None,
            ReactorConfig { shards: 1, tick: Duration::from_millis(50) },
            Arc::new(|_, _| None),
        )
        .expect("start measurer shard");
        let spec = MeasureSpec {
            slot_secs: 1,
            sockets,
            target: TargetEndpoint::from_addr(target).expect("IPv4 loopback"),
            measurement_secret: 0x5EED_0001,
            ..MeasureSpec::default()
        };
        let tally = Arc::new(EchoTally::default());
        let counters = BlastCounters::default();
        let plane =
            EchoPlane { speedup: 1.0, lead: Duration::ZERO, counters: &counters, tally: &tally };
        let spawn = |channel| {
            shard.adopt(channel);
            true
        };
        assert_eq!(plane.dial(&spec, &Span::root(EventSink::new()), &spawn), sockets);

        // The swallowed count grows while the windows are open, then
        // stops.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut last = 0;
        loop {
            std::thread::sleep(Duration::from_millis(200));
            let now = read.load(Ordering::SeqCst);
            if now > 0 && now == last {
                break;
            }
            assert!(Instant::now() < deadline, "the channels kept sending: {now} B swallowed");
            last = now;
        }

        tally.close();
        let gone_by = Instant::now() + Duration::from_secs(5);
        while shard.live() > 0 {
            assert!(Instant::now() < gone_by, "a channel outlived its closed tally");
            std::thread::sleep(Duration::from_millis(5));
        }
        for reactor in [shard, peer] {
            reactor.stop();
            reactor.join().expect("clean join");
        }
        last
    }

    /// The most a silent peer may swallow from `sockets` channels: the
    /// measurer's whole window, plus one pump's burst per channel past
    /// its share, in frames, after each channel's hello.
    fn most_in_flight(sockets: u32) -> u64 {
        let headers = |payload: u64| payload.div_ceil(BLAST_CHUNK as u64) * BLAST_HEADER_LEN as u64;
        let burst = MAX_TICK_BYTES + headers(MAX_TICK_BYTES) + HELLO_LEN as u64;
        IN_FLIGHT_WINDOW + headers(IN_FLIGHT_WINDOW) + u64::from(sockets) * burst
    }

    /// An uncapped channel whose echo never comes back stops sending
    /// at its in-flight window: what a closing slot leaves unverified is
    /// bounded, not by how far the kernel's buffers grow.
    #[test]
    fn an_uncapped_channel_keeps_at_most_its_window_in_flight() {
        let last = swallowed_by_a_silent_peer(1);
        let most = most_in_flight(1);
        assert!(
            (IN_FLIGHT_WINDOW..=most).contains(&last),
            "{last} B in flight, window {IN_FLIGHT_WINDOW} B"
        );
    }

    /// A slot's channels split one window: four silent channels stop at
    /// the measurer's window (plus a burst each), not at four windows.
    #[test]
    fn a_slots_channels_share_one_window_in_flight() {
        let last = swallowed_by_a_silent_peer(4);
        let most = most_in_flight(4);
        assert!(
            (IN_FLIGHT_WINDOW..=most).contains(&last),
            "{last} B in flight over 4 channels, window {IN_FLIGHT_WINDOW} B for all"
        );
    }

    /// An uncapped channel moves bytes on its socket's readiness: a
    /// tick-driven one could move at most 256 KiB per 50 ms tick, 5 MiB
    /// in a second. An optimised build gets 250 ms (a tick-driven
    /// channel: 1.3 MiB); an unoptimised one a second.
    #[test]
    fn an_uncapped_channel_runs_on_readiness_not_on_the_tick() {
        let wall = Duration::from_millis(if cfg!(debug_assertions) { 1000 } else { 250 });
        let (verified, elapsed, _) = one_channel(0, wall, 16 << 20);
        assert!(
            verified >= 16 << 20,
            "verified {verified} B in {elapsed:?}: the channel waited for ticks"
        );
    }

    /// A paced channel sends its allowance and reads its echo on the
    /// tick, and is never armed for write readiness while it has nothing
    /// queued: it keeps its rate and leaves the shard idle. (It sends a
    /// tick ahead, so it may verify up to a tick, 2 % of the 2.5 s run,
    /// more than the commanded bytes.)
    #[test]
    fn a_paced_channel_keeps_its_rate_without_spinning_the_shard() {
        const RATE: u64 = 4_000_000;
        let (verified, elapsed, share) = one_channel(RATE, Duration::from_millis(2500), u64::MAX);
        let commanded = RATE as f64 * elapsed.as_secs_f64();
        let ratio = verified as f64 / commanded;
        assert!(
            (0.95..=1.02).contains(&ratio),
            "verified {verified} of {commanded:.0} commanded B"
        );
        let share = share.expect("the shard ticked");
        assert!(share < 0.25, "the shard spun: {share:.2} CPU-s per s");
    }

    /// A paced channel reads its echo a tick after it sends, so it sends
    /// a tick ahead: a report just after a tick finds the tally level
    /// with the commanded bytes (or ahead, by what of that tick's own
    /// echo it already read). Sent on time, the tally would be a tick
    /// short, 200 KB, 5 % of this 1 s run.
    #[test]
    fn a_paced_channel_is_level_with_its_rate_when_the_slot_ends() {
        const RATE: u64 = 4_000_000;
        let (verified, elapsed, _) = one_channel(RATE, Duration::from_secs(1), u64::MAX);
        let commanded = RATE as f64 * elapsed.as_secs_f64();
        let ratio = verified as f64 / commanded;
        assert!(
            (0.98..=1.05).contains(&ratio),
            "verified {verified} of {commanded:.0} commanded B"
        );
    }

    #[test]
    fn role_accepts_only_measurer_and_unknown_settings_carry_the_usage() {
        // (command line, what the refusal must contain; `None` = accepted)
        let cases: [(&[&str], Option<&str>); 7] = [
            (&[], None),
            (&["--role", "measurer", "--speedup", "10"], None),
            (&["--role", "target"], Some("flashflow-relay")),
            (&["--role", "relay"], Some("unknown role \"relay\"")),
            (&["--report", "scripted"], Some(crate::USAGE)),
            (&["--rate", "1000"], Some(crate::USAGE)),
            (&["--bg", "1000"], Some(crate::USAGE)),
        ];
        for (args, refusal) in cases {
            let got = Settings::parse(
                args.iter().map(|a| a.to_string()),
                crate::USAGE,
                &mut |key, value| Measurer::apply(&mut (), key, value),
            );
            match refusal {
                None => assert!(got.is_ok(), "{args:?}: {got:?}"),
                Some(needle) => {
                    let msg = got.expect_err(&args.join(" "));
                    assert!(msg.contains(needle), "{args:?}: {msg}");
                    if needle == crate::USAGE {
                        assert!(msg.starts_with("unknown setting"), "{args:?}: {msg}");
                    }
                }
            }
        }
    }
}
