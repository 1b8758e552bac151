//! The relay role's hooks into the shared peer library
//! ([`procutil::peer`]) and its data connection. The library drives the
//! connection shell and the control conversation; this module says what
//! a conversation means to the echo plane — register the commanded
//! measurement, fix its admitted background rate, report both columns
//! each second — and serves bound echo channels with an [`Echoer`] that
//! verifies the blast and forwards the measurers' accepted frames back.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use flashflow_obs::{fields, MetricsRegistry, Span, Value};
use flashflow_procutil as procutil;
use flashflow_proto::blast::{
    binding_nonce, secret_channel_key, BlastCounters, DataChannelHello, Echoer,
    ECHO_BACKLOG_HIGH_WATER,
};
use flashflow_proto::msg::{MeasureSpec, PeerRole};
use flashflow_proto::tcp::TcpTransport;
use procutil::peer::{Bind, Peer, Role};
use procutil::reactor::Step;

use crate::{Config, EchoCounters, EchoPlane, Lie, Measurement, Relay};

const TWO_LIES: &str = "claim-bg and corrupt-echo true: give at most one of them";

/// The relay's state for one control conversation.
pub struct Conv {
    /// Background bytes admitted each second: `min(--background, allowance)`.
    admitted: u64,
    /// The binding nonce this conversation registered, with the
    /// measurement's aggregate counters.
    registered: Option<(u64, Arc<EchoCounters>)>,
    echoed_through: u64,
}

impl Conv {
    fn counter(&self, pick: impl Fn(&EchoCounters) -> u64) -> u64 {
        self.registered.as_ref().map_or(0, |(_, c)| pick(c))
    }
}

impl Role for Relay {
    const NAME: &'static str = "relay";
    const USAGE: &'static str = crate::USAGE;
    type Config = Config;
    type Conv = Conv;
    type Data = DataConn;

    fn apply(cfg: &mut Config, key: &str, value: &str) -> Result<bool, String> {
        match key {
            "background" => {
                cfg.background = value.parse().map_err(|e| format!("background: {e}"))?;
            }
            "claim-bg" if cfg.lie == Lie::CorruptEcho => return Err(TWO_LIES.to_string()),
            "claim-bg" => {
                cfg.lie = Lie::ClaimBg(value.parse().map_err(|e| format!("claim-bg: {e}"))?)
            }
            "corrupt-echo" => match value.parse().map_err(|e| format!("corrupt-echo: {e}"))? {
                true if matches!(cfg.lie, Lie::ClaimBg(_)) => return Err(TWO_LIES.to_string()),
                true => cfg.lie = Lie::CorruptEcho,
                false if cfg.lie == Lie::CorruptEcho => cfg.lie = Lie::Honest,
                false => {}
            },
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn new(cfg: Config, registry: &MetricsRegistry) -> Relay {
        Relay {
            cfg,
            echo: EchoPlane::default(),
            blast: BlastCounters {
                verified: registry.counter("relay.echo.verified_bytes"),
                corrupt: registry.counter("relay.echo.corrupt_bytes"),
                forged: registry.counter("relay.echo.forged_bytes"),
                replayed: registry.counter("relay.echo.replayed_bytes"),
            },
            echoed_bytes: registry.counter("relay.echo.echoed_bytes"),
            bg_admitted: registry.counter("relay.bg.admitted_bytes"),
            bg_reported: registry.counter("relay.bg.reported_bytes"),
            seconds_reported: registry.counter("relay.reported_seconds"),
        }
    }

    fn start_fields(&self) -> Vec<(String, Value)> {
        fields![background = self.cfg.background, lie = format!("{:?}", self.cfg.lie)]
    }

    fn session_role(&self) -> PeerRole {
        PeerRole::Target
    }

    fn conversation(&self) -> Conv {
        Conv { admitted: self.cfg.background, registered: None, echoed_through: 0 }
    }

    /// Registers the commanded measurement with the data plane the
    /// moment the command is accepted, so the echo dials that follow
    /// `Go` always find it.
    fn on_command(&self, conv: &mut Conv, span: &Span, spec: &MeasureSpec) {
        let nonce = binding_nonce(spec.measurement_secret);
        let key = secret_channel_key(spec.measurement_secret);
        conv.registered = Some((nonce, self.echo.register(nonce, key, spec.trace_id)));
        // The rate cap is the slot's background allowance; 0 is uncapped.
        let cap = if spec.rate_cap == 0 { u64::MAX } else { spec.rate_cap };
        conv.admitted = self.cfg.background.min(cap);
        span.emit("session.registered", fields![nonce = nonce, bg_allowance = spec.rate_cap]);
    }

    fn on_start(_peer: &Peer<Relay>, conv: &mut Conv, span: &Span, _: &MeasureSpec) {
        conv.echoed_through = 0;
        span.emit("session.go", fields![bg_rate = conv.admitted]);
    }

    fn on_stop(&self, conv: &mut Conv, span: &Span, seconds: u32) {
        let channels = conv.counter(|c| c.channels.load(Ordering::Relaxed));
        span.emit("session.stop", fields![seconds = seconds, channels = channels]);
    }

    fn second_report(&self, conv: &mut Conv, span: &Span, second: u32) -> (u64, u64) {
        let echoed = conv.counter(|c| c.echoed.load(Ordering::Relaxed));
        let echo_delta = echoed - conv.echoed_through;
        conv.echoed_through = echoed;
        let bg = match self.cfg.lie {
            // The liar: a fixed per-second claim, regardless of what was
            // admitted. The lie leaves a trail: both figures go into the
            // event stream, which is what the audit tests cross-check
            // against the coordinator's ledger flags.
            Lie::ClaimBg(claim) => {
                span.emit(
                    "bg.divergence",
                    fields![second = second, claimed = claim, metered = conv.admitted],
                );
                claim
            }
            _ => conv.admitted,
        };
        self.bg_admitted.add(conv.admitted);
        self.bg_reported.add(bg);
        self.seconds_reported.inc();
        (bg, echo_delta)
    }

    fn release(&self, conv: &mut Conv) {
        if let Some((nonce, _)) = conv.registered.take() {
            self.echo.release(nonce);
        }
    }

    fn bind_data(
        peer: &Arc<Peer<Relay>>,
        span: Span,
        transport: TcpTransport,
        preread: &[u8],
        hello: DataChannelHello,
    ) -> Bind<DataConn> {
        match peer.role.echo.lookup(hello.nonce) {
            Some(m) => DataConn::bind(peer, span, transport, preread, &m)
                .map_or(Bind::Refused, Bind::Bound),
            None => Bind::Unknown(transport),
        }
    }
}

/// How many pump rounds one readiness event may spend on a single
/// channel before yielding to the rest of the shard's event batch
/// (level-triggered polling re-delivers whatever remains).
const PUMP_ROUNDS: u32 = 8;

/// One bound echo channel, pumped on socket readiness, publishing its
/// echoed bytes into its measurement's aggregate. While the echo
/// backlog sits at [`ECHO_BACKLOG_HIGH_WATER`] it drops read interest:
/// the blast waits in the kernel until the measurer drains its echo.
pub struct DataConn {
    peer: Arc<Peer<Relay>>,
    span: Span,
    echoer: Echoer<TcpTransport>,
    counters: Arc<EchoCounters>,
    t0: Instant,
    /// Echoed bytes through the last publish.
    published: u64,
    last_activity: Instant,
}

impl DataConn {
    /// Binds a decoded hello to its registered measurement and feeds
    /// the pre-read bytes (hello + whatever blast followed it).
    fn bind(
        peer: &Arc<Peer<Relay>>,
        span: Span,
        transport: TcpTransport,
        preread: &[u8],
        measurement: &Measurement,
    ) -> Option<DataConn> {
        let counters = Arc::clone(&measurement.counters);
        counters.channels.fetch_add(1, Ordering::Relaxed);
        // The channel inherits its measurement's trace id: the data
        // plane's events join the same cross-process timeline.
        let span = if measurement.trace_id != 0 { span.trace(measurement.trace_id) } else { span };
        span.emit("channel.bound", fields![channels = counters.channels.load(Ordering::Relaxed)]);
        let relay = &peer.role;
        let mut echoer = Echoer::new(transport)
            .with_key(measurement.key)
            .with_counters(relay.blast.clone(), relay.echoed_bytes.clone());
        echoer.set_corrupt_echo(relay.cfg.lie == Lie::CorruptEcho);
        let t0 = Instant::now();
        let now = peer.snow(t0);
        let mut conn = DataConn {
            peer: Arc::clone(peer),
            span,
            echoer,
            counters,
            t0,
            published: 0,
            last_activity: Instant::now(),
        };
        if let Err(e) = conn.echoer.inject(now, preread) {
            conn.span.emit("channel.framing_error", fields![error = format!("{e}")]);
            conn.counters.channels.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        conn.publish();
        Some(conn)
    }

    /// Publishes the echoed-bytes delta into the measurement's
    /// aggregate (the control session reports from that total).
    fn publish(&mut self) {
        let echoed = self.echoer.echoed_total();
        self.counters.echoed.fetch_add(echoed - self.published, Ordering::Relaxed);
        self.published = echoed;
    }

    fn close(&mut self) -> Step {
        self.publish();
        self.counters.channels.fetch_sub(1, Ordering::Relaxed);
        self.span.emit(
            "channel.closed",
            fields![
                received = self.echoer.received_total(),
                echoed = self.echoer.echoed_total(),
                corrupt = self.echoer.corrupt_total(),
                forged = self.echoer.forged_total(),
            ],
        );
        Step::Done
    }
}

impl procutil::peer::DataConn for DataConn {
    fn on_ready(&mut self) -> Step {
        let now = self.peer.snow(self.t0);
        for _ in 0..PUMP_ROUNDS {
            match self.echoer.pump(now) {
                Ok(true) => self.last_activity = Instant::now(),
                Ok(false) => break,
                Err(e) => {
                    self.span.emit("channel.framing_error", fields![error = format!("{e}")]);
                    return self.close();
                }
            }
        }
        self.publish();
        if self.echoer.transport_error().is_some() {
            return self.close(); // measurer hung up: the normal end
        }
        Step::Continue
    }

    fn on_tick(&mut self) -> Step {
        // A quiet bound channel costs nothing per tick; only a flush
        // backlog or the drain deadline brings it back to the socket. A
        // drain also ends a channel whose measurer stopped reading.
        if self.peer.drained_quiet(self.last_activity) {
            return self.close();
        }
        if self.wants_write() {
            return self.on_ready();
        }
        Step::Continue
    }

    fn wants_write(&self) -> bool {
        self.echoer.pending_echo() > 0
    }

    fn wants_read(&self) -> bool {
        self.echoer.pending_echo() < ECHO_BACKLOG_HIGH_WATER as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_obs::{Event, EventSink};
    use flashflow_proto::blast::{BlastParser, TrafficSource};
    use flashflow_proto::transport::Transport;
    use flashflow_simnet::time::SimTime;
    use procutil::peer::{DataConn as _, Settings};
    use procutil::reactor::{Driven, Reactor, ReactorConfig};
    use std::net::TcpListener;
    use std::sync::Mutex;
    use std::time::Duration;

    /// A JSONL sink into a shared buffer, and the events it holds.
    fn captured() -> (EventSink, impl Fn() -> Vec<Event>) {
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("buffer").extend_from_slice(bytes);
                Ok(bytes.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Shared(Arc::new(Mutex::new(Vec::new())));
        let sink = EventSink::new().with_jsonl(Box::new(buf.clone()));
        let events = move || {
            let text = String::from_utf8(buf.0.lock().expect("buffer").clone()).expect("utf-8");
            text.lines().map(|l| Event::parse_json_line(l).expect("event line")).collect()
        };
        (sink, events)
    }

    /// One conversation of a relay offering `background` B/s under
    /// `allowance`: its reports of `seconds`, asked in that order, the
    /// events it emitted and its `relay.bg.admitted_bytes`.
    fn reports(
        lie: Lie,
        background: u64,
        allowance: u64,
        seconds: &[u32],
    ) -> (Vec<(u64, u64)>, Vec<Event>, u64) {
        let registry = MetricsRegistry::new();
        let relay = Relay::new(Config { background, lie }, &registry);
        let (sink, events) = captured();
        let span = Span::root(sink);
        let peer = Peer::new(Settings::default(), relay, span.clone());
        let relay = &peer.role;
        let spec = MeasureSpec { slot_secs: 4, rate_cap: allowance, ..MeasureSpec::default() };
        let mut conv = relay.conversation();
        relay.on_command(&mut conv, &span, &spec);
        Relay::on_start(&peer, &mut conv, &span, &spec);
        let got = seconds.iter().map(|&j| relay.second_report(&mut conv, &span, j)).collect();
        (got, events(), relay.bg_admitted.get())
    }

    #[test]
    fn every_reported_second_admits_min_of_background_and_allowance() {
        for (background, allowance, admitted) in
            [(40_000, 20_000, 20_000), (10_000, 50_000, 10_000), (40_000, 0, 40_000), (0, 9, 0)]
        {
            // A report depends on neither when nor in which order the
            // library asks for it (a stalled shard asks for several at once).
            for seconds in [[0, 1, 2, 3], [3, 0, 2, 1]] {
                let (got, events, total) = reports(Lie::Honest, background, allowance, &seconds);
                assert!(
                    got.iter().all(|&r| r == (admitted, 0)),
                    "{background}/{allowance}: {got:?}"
                );
                assert_eq!(total, 4 * admitted);
                let go = events.iter().find(|e| e.kind == "session.go").expect("session.go");
                assert_eq!(go.u64_field("bg_rate"), Some(admitted));
                assert!(events.iter().all(|e| e.kind != "bg.divergence"), "{events:?}");
            }
        }
    }

    #[test]
    fn a_claiming_relay_reports_its_claim_and_logs_the_admitted_rate() {
        let (got, events, total) = reports(Lie::ClaimBg(90_000), 40_000, 20_000, &[0, 1]);
        assert_eq!(got, [(90_000, 0), (90_000, 0)]);
        assert_eq!(total, 2 * 20_000, "the metric counts what was admitted, not the claim");
        let divergences: Vec<_> = events.iter().filter(|e| e.kind == "bg.divergence").collect();
        assert_eq!(divergences.len(), 2);
        for (second, event) in divergences.iter().enumerate() {
            assert_eq!(event.u64_field("second"), Some(second as u64));
            assert_eq!(event.u64_field("claimed"), Some(90_000));
            assert_eq!(event.u64_field("metered"), Some(20_000));
        }
    }

    #[test]
    fn a_relay_tells_at_most_one_lie() {
        let parse = |args: &[&str]| {
            let mut cfg = Config::default();
            let args = args.iter().map(|a| (*a).to_string());
            Settings::parse(args, crate::USAGE, &mut |k, v| Relay::apply(&mut cfg, k, v))
                .map(|_| cfg.lie)
        };
        assert_eq!(parse(&[]), Ok(Lie::Honest));
        assert_eq!(parse(&["--claim-bg", "7"]), Ok(Lie::ClaimBg(7)));
        assert_eq!(parse(&["--corrupt-echo", "true"]), Ok(Lie::CorruptEcho));
        assert_eq!(parse(&["--corrupt-echo", "false"]), Ok(Lie::Honest));
        assert_eq!(parse(&["--corrupt-echo", "true", "--corrupt-echo", "false"]), Ok(Lie::Honest));
        assert_eq!(parse(&["--claim-bg", "7", "--corrupt-echo", "false"]), Ok(Lie::ClaimBg(7)));
        for both in [
            &["--claim-bg", "7", "--corrupt-echo", "true"],
            &["--corrupt-echo", "true", "--claim-bg", "7"],
        ] {
            assert_eq!(parse(both), Err(TWO_LIES.to_string()), "{both:?}");
        }
    }

    /// This thread's CPU time (user + system) in seconds, from its
    /// `/proc/thread-self/stat` line.
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

    /// What a bound channel's steps left behind.
    #[derive(Debug, Default, Clone, Copy)]
    struct Seen {
        /// Largest outbox any step left.
        max_outbox: u64,
        received: u64,
        echoed: u64,
        /// The shard thread's CPU seconds at its latest tick.
        cpu: f64,
    }

    /// A bound channel on a reactor shard, recording each step.
    struct Probe {
        conn: DataConn,
        fd: i32,
        seen: Arc<Mutex<Seen>>,
    }

    impl Probe {
        fn record(&mut self, step: Step, tick: bool) -> Step {
            let mut seen = self.seen.lock().expect("seen");
            seen.max_outbox = seen.max_outbox.max(self.conn.echoer.pending_echo());
            seen.received = self.conn.echoer.received_total();
            seen.echoed = self.conn.echoer.echoed_total();
            if tick {
                seen.cpu = thread_cpu_secs();
            }
            step
        }
    }

    impl Driven for Probe {
        fn fd(&self) -> i32 {
            self.fd
        }
        fn on_ready(&mut self) -> Step {
            let step = self.conn.on_ready();
            self.record(step, false)
        }
        fn on_tick(&mut self) -> Step {
            let step = self.conn.on_tick();
            self.record(step, true)
        }
        fn wants_write(&self) -> bool {
            self.conn.wants_write()
        }
        fn wants_read(&self) -> bool {
            self.conn.wants_read()
        }
    }

    /// A measurer blasts a bound channel and reads none of its echo. The
    /// relay's outbox stops at the high-water mark plus one read, the
    /// relay stops reading (the blast waits in the kernel until the
    /// source's own outbox pauses it), and the parked channel leaves its
    /// shard idle. Once the measurer drains, forwarding resumes and
    /// every byte verifies at both ends.
    #[test]
    fn a_measurer_that_never_reads_parks_its_channel_at_the_high_water_mark() {
        const ONE_READ: u64 = 256 * 1024;
        let registry = MetricsRegistry::new();
        let relay = Relay::new(Config::default(), &registry);
        let span = Span::root(EventSink::new());
        let peer = Arc::new(Peer::new(Settings::default(), relay, span.clone()));
        let secret = 0x0E70_5EC2;
        let (nonce, key) = (binding_nonce(secret), secret_channel_key(secret));
        peer.role.echo.register(nonce, key, 0);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client = TcpTransport::connect(listener.local_addr().expect("addr")).expect("dial");
        let served = TcpTransport::from_stream(listener.accept().expect("accept").0).expect("wrap");
        let fd = served.raw_fd();
        let measurement = peer.role.echo.lookup(nonce).expect("registered");
        let conn = DataConn::bind(&peer, span, served, &[], &measurement).expect("bound");
        let seen = Arc::new(Mutex::new(Seen::default()));
        let shard = Reactor::serve(
            None,
            ReactorConfig { shards: 1, tick: procutil::peer::TICK },
            Arc::new(|_, _| None),
        )
        .expect("start shard");
        shard.adopt(Box::new(Probe { conn, fd, seen: Arc::clone(&seen) }));
        let seen = || *seen.lock().expect("seen");

        // Blast, uncapped, until the source has sent nothing for 300 ms.
        let mut source = TrafficSource::new(client, nonce, 0).with_key(key);
        source.greet(SimTime::ZERO);
        source.start(SimTime::ZERO);
        let started = Instant::now();
        let mut last_sent = Instant::now();
        while last_sent.elapsed() < Duration::from_millis(300) {
            assert!(started.elapsed() < Duration::from_secs(30), "the source never paused");
            if source.pump(SimTime::ZERO) {
                last_sent = Instant::now();
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        // Parked: nothing more is read, the rest of the blast sits in
        // the kernel, and the shard idles.
        let (parked, parked_at) = (seen(), Instant::now());
        std::thread::sleep(Duration::from_secs(1));
        let (waited, waited_for) = (seen(), parked_at.elapsed().as_secs_f64());
        let bound = ECHO_BACKLOG_HIGH_WATER as u64 + ONE_READ;
        assert!(parked.max_outbox >= ECHO_BACKLOG_HIGH_WATER as u64, "{parked:?}");
        assert!(waited.max_outbox <= bound, "outbox {} B past {bound} B", waited.max_outbox);
        assert_eq!(waited.received, parked.received, "the relay kept reading");
        let unread =
            source.sent_total() - parked.received - source.transport_mut().backlog() as u64;
        assert!(unread > 64 * 1024, "only {unread} B of the blast wait in the kernel");
        let share = (waited.cpu - parked.cpu) / waited_for;
        assert!(share < 0.25, "the parked channel spun its shard: {share:.2} CPU-s per s");

        // The measurer drains its echo: forwarding resumes and every
        // byte verifies.
        source.stop();
        let mut back = BlastParser::new().with_key(key);
        let mut rx = Vec::new();
        let sent = source.sent_total();
        let drained_by = Instant::now() + Duration::from_secs(30);
        while back.received_total() < sent {
            assert!(Instant::now() < drained_by, "echo stalled: {seen:?}", seen = seen());
            // Reading also flushes the source's queued outbox.
            source.transport_mut().recv_into(SimTime::ZERO, &mut rx).expect("relay stays up");
            back.push(&rx).expect("clean echo");
        }
        let done = seen();
        assert_eq!((done.received, done.echoed), (sent, sent), "relay: every byte forwarded");
        assert_eq!(back.received_total(), sent);
        let rejected = (back.corrupt_total(), back.forged_total(), back.replayed_total());
        assert_eq!(rejected, (0, 0, 0));

        drop(source); // the hang-up ends the channel
        let gone_by = Instant::now() + Duration::from_secs(5);
        while shard.live() > 0 {
            assert!(Instant::now() < gone_by, "the channel outlived its measurer");
            std::thread::sleep(Duration::from_millis(5));
        }
        shard.stop();
        shard.join().expect("clean join");
    }
}
