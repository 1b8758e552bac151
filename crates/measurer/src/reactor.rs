//! The measurer role's hooks into the shared peer library
//! ([`procutil::peer`]) and its echo channels. The library drives the
//! connection shell and the control conversation; this module says what
//! a conversation means to the data plane — dial the target relay at
//! `Go`, blast, and report the verified echo — and refuses every
//! inbound data dial.
//!
//! Each echo channel is a reactor connection of its own ([`EchoChannel`]):
//! dialed without blocking ([`reactor::dial`]), handed to the serving
//! reactor ([`Peer::spawn`]), and driven on its own socket's readiness —
//! or, paced, at the points of its slot's report grid ([`ReportGrid`]),
//! its own deadlines ([`Driven::deadline`]): the shard it runs on wakes
//! once per burst, not once per shard tick.

use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flashflow_obs::{fields, MetricsRegistry, Span, Value};
use flashflow_procutil as procutil;
use flashflow_proto::blast::{
    binding_nonce, secret_channel_key, BlastCounters, BlastParser, DataChannelHello, SourceState,
    TrafficSource, MAX_TICK_BYTES,
};
use flashflow_proto::msg::{MeasureSpec, PeerRole};
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::Transport;
use flashflow_simnet::time::{SimDuration, SimTime};
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

/// Longest wall time between two points of a paced channel's grid.
/// Each point is one `send` and one wakeup of the channel's shard, so
/// fewer, larger bursts cost less CPU per byte.
const MAX_BURST_INTERVAL: Duration = Duration::from_millis(4);

/// A slot's report grid: the instants its paced channels act at,
/// counted from the session's `Go`. Each sped-up second holds B ≥ 2
/// evenly spaced points, the last half an interval before the second's
/// report. All but that last point send 1/(B − 1) of the second's
/// allowance; the last only reads, so the echo of everything the second
/// sent is verified before its report, which then counts exactly the
/// commanded bytes. The grid ends with the slot.
#[derive(Clone, Copy, Debug)]
struct ReportGrid {
    /// The session's `Go`: report j falls j + 1 sped-up seconds later.
    go: Instant,
    /// Wall nanoseconds per sped-up second.
    second_ns: u64,
    /// Points per sped-up second: B.
    per_second: u64,
    /// Points in the slot.
    points: u64,
}

impl ReportGrid {
    /// The grid of a `slot_secs`-second slot on a clock `speedup` times
    /// wall time, whose largest channel is paced at `cap` bytes per
    /// sped-up second: points at most [`MAX_BURST_INTERVAL`] apart, and
    /// each send at most one pump ([`MAX_TICK_BYTES`]). B is counted in
    /// whole nanoseconds, so float rounding cannot add a point.
    fn new(go: Instant, speedup: f64, slot_secs: u32, cap: u64) -> ReportGrid {
        let second_ns = ((1e9 / speedup).round() as u64).max(1);
        let interval_ns = MAX_BURST_INTERVAL.as_nanos() as u64;
        let per_second =
            second_ns.div_ceil(interval_ns).max(cap.div_ceil(MAX_TICK_BYTES) + 1).max(2);
        ReportGrid { go, second_ns, per_second, points: per_second * u64::from(slot_secs) }
    }

    /// Point `p`'s wall instant: (2p + 1)/2B sped-up seconds after `Go`.
    fn at(&self, p: u64) -> Instant {
        let ns =
            u128::from(2 * p + 1) * u128::from(self.second_ns) / u128::from(2 * self.per_second);
        self.go + Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
    }

    /// Whether point `p` is its second's last, which only reads.
    fn reads_only(&self, p: u64) -> bool {
        p % self.per_second == self.per_second - 1
    }

    /// The sped-up instant point `p` has sent through: point i of second
    /// j, j + (i + 1)/(B − 1) seconds, so the second's last send (and its
    /// reading point) stands exactly at the second's end.
    fn through(&self, p: u64) -> SimTime {
        let sends = self.per_second - 1;
        let (second, ix) = (p / self.per_second, p % self.per_second);
        let part = SimDuration::from_secs_f64((ix + 1).min(sends) as f64 / sends as f64);
        SimTime::from_secs(second) + part
    }
}

/// Each echo channel's share of a slot's `rate_cap` (0 = uncapped) over
/// the `sockets` it commands: an even split, the first channels
/// absorbing the remainder. A share of 0 would leave its channel
/// uncapped, so a cap below the channel count dials only `rate_cap`
/// channels of 1 byte per second each.
fn channel_caps(sockets: u32, rate_cap: u64) -> Vec<u64> {
    let mut n = u64::from(sockets.clamp(1, MAX_SOCKETS));
    if rate_cap > 0 {
        n = n.min(rate_cap);
    }
    (0..n).map(|chan| rate_cap / n + u64::from(chan < rate_cap % n)).collect()
}

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

    fn on_start(peer: &Peer<Measurer>, conv: &mut Conv, span: &Span, spec: &MeasureSpec) {
        conv.slot_secs = spec.slot_secs;
        let echo = EchoPlane {
            speedup: peer.settings.speedup,
            counters: &peer.role.echo_blast,
            tally: &conv.tally,
        };
        echo.dial(spec, span, &|channel| peer.spawn(channel));
    }

    fn on_stop(&self, conv: &mut Conv, span: &Span, seconds: u32) {
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
    fn dial(&self, spec: &MeasureSpec, span: &Span, spawn: &dyn Fn(Box<dyn Driven>)) -> u32 {
        let Some(addr) = spec.target.socket_addr() else { return 0 };
        let nonce = binding_nonce(spec.measurement_secret);
        let key = secret_channel_key(spec.measurement_secret);
        let caps = channel_caps(spec.sockets, spec.rate_cap);
        let n = caps.len() as u64;
        let window = IN_FLIGHT_WINDOW / n;
        // `Go` is now: the slot's channels share one report grid, sized
        // for the largest of them (the first).
        let grid = ReportGrid::new(Instant::now(), self.speedup, spec.slot_secs, caps[0]);
        let mut dialed = 0;
        for (chan, cap) in (0u32..).zip(caps) {
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
            let channel = EchoChannel {
                fd: stream.as_raw_fd(),
                link: Link::Dialing(stream),
                hello: DataChannelHello { nonce, channel: chan },
                key,
                cap,
                window,
                echo: BlastParser::new().with_key(key).with_counters(self.counters.clone()),
                tally: Arc::clone(self.tally),
                credited: 0,
                wants_write: true,
                rx: Vec::new(),
                span,
                grid,
                next: 0,
                through: SimTime::ZERO,
            };
            spawn(Box::new(channel));
            dialed += 1;
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

/// One echo channel to the target relay, driven by the reactor: an
/// uncapped channel stays armed for read and write readiness, blasting
/// whenever the socket takes bytes and verifying the echo as it
/// arrives; a paced one acts at the points of its slot's
/// [`ReportGrid`], its deadlines: it sends what the point allows (none
/// at a second's last point), reads the echo that came back, and arms
/// the next point. Between points it is armed only for hang-ups and,
/// while its transport holds a backlog, write readiness. Either credits
/// what it verified to the slot's [`EchoTally`].
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
    /// Where a paced channel bursts; its blast clock runs from `Go`.
    grid: ReportGrid,
    /// A paced channel's next grid point: its deadline.
    next: u64,
    /// The sped-up instant the paced blast has been allowed through (the
    /// last point acted at); an uncapped blast ignores it.
    through: SimTime,
}

impl EchoChannel {
    /// Settles an in-flight dial on a wakeup: `Some` is the step to
    /// return (still dialing, or failed), `None` means blasting.
    fn finish_dial(&mut self) -> Option<Step> {
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
                source.greet(self.through);
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

    /// Sends (if `send`) and verifies: pumps the source, then drains the
    /// echo into the parser, for up to [`PUMP_ROUNDS`] rounds while the
    /// pump keeps sending. Hangs up once the relay did, the stream broke,
    /// or the slot closed.
    fn exchange(&mut self, send: bool) -> Step {
        let now = self.through;
        let Link::Blasting(source) = &mut self.link else { return Step::Continue };
        let mut hung_up = false;
        for _ in 0..PUMP_ROUNDS {
            let sent = send && window_open(source, &self.echo, self.window) && source.pump(now);
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
        if let Some(step) = self.finish_dial() {
            return step;
        }
        // A paced channel sends only at its grid's points: readiness
        // flushes its backlog and reads.
        self.exchange(self.cap == 0)
    }

    /// The stop check, and, once its deadline falls, a paced channel's
    /// grid point: the latest one due (a point the shard ran late for is
    /// skipped, its allowance carried by the next; the rest are not
    /// pushed back). An uncapped channel moves bytes on readiness only.
    fn on_tick(&mut self) -> Step {
        if self.tally.is_closed() {
            return self.close();
        }
        let wall = Instant::now();
        if self.deadline().is_none_or(|due| wall < due) {
            return Step::Continue;
        }
        let mut point = self.next;
        while point + 1 < self.grid.points && self.grid.at(point + 1) <= wall {
            point += 1;
        }
        self.next = point + 1;
        self.through = self.grid.through(point);
        self.exchange(!self.grid.reads_only(point))
    }

    /// A blasting paced channel's next grid point, until the slot's end.
    fn deadline(&self) -> Option<Instant> {
        let blasting = self.cap > 0 && matches!(self.link, Link::Blasting(_));
        (blasting && self.next < self.grid.points).then(|| self.grid.at(self.next))
    }

    fn wants_write(&self) -> bool {
        self.wants_write
    }

    /// A paced channel reads at its grid's points: waking it for every
    /// echo that lands would cost its shard one more wakeup per burst,
    /// for bytes the next point reads anyway.
    fn wants_read(&self) -> bool {
        self.cap == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_obs::EventSink;
    use flashflow_proto::blast::{Echoer, BLAST_CHUNK, BLAST_HEADER_LEN, HELLO_LEN};
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

    /// This thread's voluntary context switches so far (each one a
    /// sleep in `epoll_pwait2`, for a reactor shard), from its
    /// `/proc/thread-self/status`.
    fn thread_voluntary_switches() -> u64 {
        let status =
            std::fs::read_to_string("/proc/thread-self/status").expect("read thread status");
        let line = status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .expect("voluntary_ctxt_switches line");
        line.trim().parse().expect("switch count")
    }

    /// One sample of a shard thread: wall time, CPU seconds, voluntary
    /// context switches.
    type Sample = (Instant, f64, u64);

    /// (first, latest) samples of a shard thread.
    type CpuSamples = Arc<Mutex<Option<(Sample, Sample)>>>;

    /// Wraps a connection to sample the shard thread it runs on, at
    /// every tick, after the connection's own tick.
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
            let sample = (Instant::now(), thread_cpu_secs(), thread_voluntary_switches());
            let mut cpu = self.cpu.lock().expect("cpu samples");
            *cpu = Some((cpu.map_or(sample, |(first, _)| first), sample));
            step
        }

        fn deadline(&self) -> Option<Instant> {
            self.inner.deadline()
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

    /// What [`one_channel`] saw.
    struct Run {
        /// Verified bytes when the tally closed.
        verified: u64,
        /// Wall time from the dial to the tally's close.
        elapsed: Duration,
        /// The shard thread's CPU seconds per second and voluntary
        /// context switches per second, between its first and latest
        /// tick (`None` if no tick came first).
        shard: Option<(f64, f64)>,
    }

    /// Runs one echo channel of a `slot_secs`-second slot, capped at
    /// `rate_cap` (0 = uncapped), on a one-shard reactor whose sweep is
    /// `tick` apart, against an echo peer, until `enough` bytes verified
    /// or `wall` passed, then closes the tally just after the channel's
    /// next tick, as a report falls.
    fn one_channel(
        rate_cap: u64,
        slot_secs: u32,
        tick: Duration,
        wall: Duration,
        enough: u64,
    ) -> Run {
        const SECRET: u64 = 0x5EED_EC40;
        let _serial = serialised();
        let (peer, target) = echo_peer(secret_channel_key(SECRET));
        let shard = Reactor::serve(None, ReactorConfig { shards: 1, tick }, Arc::new(|_, _| None))
            .expect("start measurer shard");
        let spec = MeasureSpec {
            slot_secs,
            sockets: 1,
            rate_cap,
            target: TargetEndpoint::from_addr(target).expect("IPv4 loopback"),
            measurement_secret: SECRET,
            ..MeasureSpec::default()
        };
        let tally = Arc::new(EchoTally::default());
        let cpu: CpuSamples = Arc::new(Mutex::new(None));
        let counters = BlastCounters::default();
        let plane = EchoPlane { speedup: 1.0, counters: &counters, tally: &tally };
        let dialed_at = Instant::now();
        let spawn = |channel| {
            shard.adopt(Box::new(Sampled { inner: channel, cpu: Arc::clone(&cpu) }));
        };
        assert_eq!(plane.dial(&spec, &Span::root(EventSink::new()), &spawn), 1);
        while dialed_at.elapsed() < wall && tally.verified() < enough {
            std::thread::sleep(Duration::from_millis(5));
        }
        let latest = || cpu.lock().expect("cpu samples").map(|(_, (at, _, _))| at);
        let seen = latest();
        while latest() == seen {
            std::thread::sleep(Duration::from_millis(1));
        }
        let verified = tally.close();
        let elapsed = dialed_at.elapsed();
        let samples = *cpu.lock().expect("cpu samples");
        let shard_rates = samples.map(|((t0, cpu0, switches0), (t1, cpu1, switches1))| {
            let secs = t1.duration_since(t0).as_secs_f64().max(f64::EPSILON);
            ((cpu1 - cpu0) / secs, (switches1 - switches0) as f64 / secs)
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
        Run { verified, elapsed, shard: shard_rates }
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
        let plane = EchoPlane { speedup: 1.0, counters: &counters, tally: &tally };
        let spawn = |channel| shard.adopt(channel);
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

    /// The measurer shard's sweep in the rate tests: far longer than a
    /// paced channel's burst interval.
    const SLOW_SWEEP: Duration = Duration::from_millis(50);

    /// An uncapped channel moves bytes on its socket's readiness: one
    /// driven by the 50 ms sweep could move at most 256 KiB per sweep,
    /// 5 MiB in a second. An optimised build gets 250 ms (a
    /// sweep-driven channel: 1.3 MiB); an unoptimised one a second.
    #[test]
    fn an_uncapped_channel_runs_on_readiness_not_on_the_tick() {
        let wall = Duration::from_millis(if cfg!(debug_assertions) { 1000 } else { 250 });
        let Run { verified, elapsed, .. } = one_channel(0, 1, SLOW_SWEEP, wall, 16 << 20);
        assert!(
            verified >= 16 << 20,
            "verified {verified} B in {elapsed:?}: the channel waited for ticks"
        );
    }

    /// A paced channel sends its allowance and reads its echo at its
    /// grid's points, and is never armed for write readiness while it
    /// has nothing queued: it keeps its rate and leaves the shard idle.
    /// (Its sends run ahead of the clock by up to a point's share, 0.2 %
    /// of the 2.5 s run, within a 3 s slot.)
    #[test]
    fn a_paced_channel_keeps_its_rate_without_spinning_the_shard() {
        const RATE: u64 = 4_000_000;
        let run = one_channel(RATE, 3, SLOW_SWEEP, Duration::from_millis(2500), u64::MAX);
        let Run { verified, elapsed, .. } = run;
        let commanded = RATE as f64 * elapsed.as_secs_f64();
        let ratio = verified as f64 / commanded;
        assert!(
            (0.95..=1.02).contains(&ratio),
            "verified {verified} of {commanded:.0} commanded B"
        );
        let (share, _) = run.shard.expect("the shard ticked");
        assert!(share < 0.25, "the shard spun: {share:.2} CPU-s per s");
    }

    /// A paced channel reads each second's last sends at the second's
    /// last point, half an interval before the report, and its blast
    /// clock stops with the slot: a report after the slot's end finds the
    /// tally level with the slot's commanded bytes, however late it
    /// comes.
    #[test]
    fn a_paced_channel_is_level_with_its_rate_when_the_slot_ends() {
        const RATE: u64 = 4_000_000;
        let Run { verified, elapsed, .. } =
            one_channel(RATE, 1, SLOW_SWEEP, Duration::from_secs(1), u64::MAX);
        assert!(elapsed >= Duration::from_secs(1), "closed after {elapsed:?}");
        let commanded = RATE as f64;
        let ratio = verified as f64 / commanded;
        assert!(
            (0.98..=1.05).contains(&ratio),
            "verified {verified} of {commanded:.0} commanded B"
        );
    }

    /// On a shard with the peers' sweep, a 10 MB/s paced channel wakes
    /// its shard about once per grid point (4 ms), not once per
    /// millisecond: the shard thread sleeps in `epoll_pwait2` at most
    /// twice per point, counting the sweeps and the odd flush.
    #[test]
    fn a_paced_channel_wakes_its_shard_once_per_burst() {
        const RATE: u64 = 10_000_000;
        let grid = ReportGrid::new(Instant::now(), 1.0, 2, RATE);
        let every = grid.at(1) - grid.at(0);
        assert_eq!(every, MAX_BURST_INTERVAL);
        let run = one_channel(RATE, 2, procutil::peer::TICK, Duration::from_secs(1), u64::MAX);
        let (_, switches) = run.shard.expect("the shard ticked");
        let most = 2.0 / every.as_secs_f64();
        assert!(switches <= most, "{switches:.0} wakeups per s, most {most:.0}");
    }

    #[test]
    fn a_capped_slot_never_opens_an_uncapped_channel() {
        // One byte per second over two sockets: one channel at 1 B/s,
        // not a second one blasting at full speed.
        assert_eq!(channel_caps(2, 1), [1]);
        assert_eq!(channel_caps(16, 5), [1; 5]);
        assert_eq!(channel_caps(3, 7), [3, 2, 2]);
        assert_eq!(channel_caps(40, 0), [0; MAX_SOCKETS as usize], "uncapped stays uncapped");
        for sockets in 0..=MAX_SOCKETS + 2 {
            let commanded = u64::from(sockets.clamp(1, MAX_SOCKETS));
            for rate_cap in (1..=40).chain([1_000_003, 125_000_000]) {
                let caps = channel_caps(sockets, rate_cap);
                assert_eq!(caps.len() as u64, commanded.min(rate_cap), "{sockets} × {rate_cap}");
                assert_eq!(caps.iter().sum::<u64>(), rate_cap, "{sockets} × {rate_cap}");
                assert!(caps.iter().all(|&cap| cap >= 1), "{sockets} × {rate_cap}: {caps:?}");
                assert!(caps[0] - caps[caps.len() - 1] <= 1, "{sockets} × {rate_cap}: {caps:?}");
            }
        }
    }

    /// A paced channel's grid points are 4 ms apart at 1× and at 50×,
    /// at least two to a sped-up second however short it is, and closer
    /// only where a rate would fill a pump in less: no send is more than
    /// one pump.
    #[test]
    fn report_grids_space_points_4_ms_apart_at_any_speedup() {
        let go = Instant::now();
        let interval = |grid: &ReportGrid| grid.at(1) - grid.at(0);
        // 1e9 / 4e6 is 250, where 1.0 / 0.004 in floats is 250.00000000000003.
        let one = ReportGrid::new(go, 1.0, 1, 10_000_000);
        assert_eq!((one.per_second, interval(&one)), (250, MAX_BURST_INTERVAL));
        // At 50x a second is 20 ms of wall: five points.
        let fifty = ReportGrid::new(go, 50.0, 1, 100_000);
        assert_eq!((fifty.per_second, interval(&fifty)), (5, MAX_BURST_INTERVAL));
        // A 1 ms second still reads once after sending.
        assert_eq!(ReportGrid::new(go, 1000.0, 1, 100_000).per_second, 2);
        // 128 MB/s would fill a pump in about 2 ms.
        const FAST: u64 = 128_000_000;
        let full = ReportGrid::new(go, 1.0, 2, FAST);
        assert!(interval(&full) < MAX_BURST_INTERVAL, "{:?}", interval(&full));
        let allowed = |p| (FAST as f64 * full.through(p).as_secs_f64()) as u64;
        let mut before = 0;
        for p in 0..full.points {
            let sent = allowed(p) - before;
            assert!(sent <= MAX_TICK_BYTES, "point {p} sends {sent} B");
            before = allowed(p);
            if full.reads_only(p) {
                // The second's last point adds nothing: its sends are done.
                assert_eq!(sent, 0, "point {p}");
                assert_eq!(before, FAST * (p / full.per_second + 1), "point {p}");
            }
        }
    }

    /// Every channel of a slot acts on one grid, counted from the
    /// session's `Go`: each second's points are evenly spaced, the last
    /// half an interval before the second's report, and none falls after
    /// the slot.
    #[test]
    fn a_slots_channels_share_its_report_grid_half_an_interval_before_each_report() {
        let go = Instant::now();
        let ms = |n: u64| Duration::from_millis(n);
        let grid = ReportGrid::new(go, 50.0, 3, 100_000);
        assert_eq!((grid.per_second, grid.points), (5, 15));
        for p in 0..grid.points {
            assert_eq!(grid.at(p) - go, ms(2 + 4 * p), "point {p}");
            assert_eq!(grid.reads_only(p), p % 5 == 4, "point {p}");
        }
        for second in 1..=3 {
            assert_eq!(grid.at(5 * second - 1) + ms(2), go + ms(20 * second), "report {second}");
        }

        // The slot's channels, once connected, all wait for its first
        // point.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let spec = MeasureSpec {
            slot_secs: 3,
            sockets: 3,
            rate_cap: 300_001,
            target: TargetEndpoint::from_addr(listener.local_addr().expect("addr"))
                .expect("IPv4 loopback"),
            measurement_secret: 0x5EED_0002,
            ..MeasureSpec::default()
        };
        let tally = Arc::new(EchoTally::default());
        let counters = BlastCounters::default();
        let plane = EchoPlane { speedup: 50.0, counters: &counters, tally: &tally };
        let channels = Mutex::new(Vec::new());
        let spawn = |channel| channels.lock().expect("channels").push(channel);
        let before = Instant::now();
        assert_eq!(plane.dial(&spec, &Span::root(EventSink::new()), &spawn), 3);
        let mut channels = channels.into_inner().expect("channels");
        let connected_by = Instant::now() + Duration::from_secs(5);
        let firsts = loop {
            let dues: Vec<_> = channels
                .iter_mut()
                .map(|channel| {
                    assert_eq!(channel.on_ready(), Step::Continue);
                    channel.deadline()
                })
                .collect();
            if let Some(dues) = dues.into_iter().collect::<Option<Vec<_>>>() {
                break dues;
            }
            assert!(Instant::now() < connected_by, "the dials never connected");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(firsts.windows(2).all(|pair| pair[0] == pair[1]), "{firsts:?}");
        let go = firsts[0] - ms(2);
        assert!(before <= go && go <= Instant::now(), "the grid starts at the dial");
        tally.close();
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
