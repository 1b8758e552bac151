//! The relay role's hooks into the shared peer library
//! ([`procutil::peer`]) and its data connection. The library drives the
//! connection shell and the control conversation; this module says what
//! a conversation means to the echo plane — register the commanded
//! measurement, meter background traffic, report both columns each
//! second — and serves bound echo channels with an [`Echoer`] that
//! verifies the blast and loops exactly the verified bytes back.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use flashflow_obs::{fields, MetricsRegistry, Span, Value};
use flashflow_procutil as procutil;
use flashflow_proto::blast::{
    binding_nonce, secret_channel_key, BackgroundMeter, BlastCounters, DataChannelHello, Echoer,
};
use flashflow_proto::msg::{MeasureSpec, PeerRole};
use flashflow_proto::tcp::TcpTransport;
use flashflow_simnet::time::SimTime;
use procutil::peer::{Bind, Peer, Role};
use procutil::reactor::Step;

use crate::{Config, EchoCounters, EchoPlane, Measurement, Relay};

/// The relay's state for one control conversation.
pub struct Conv {
    meter: BackgroundMeter,
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
            "claim-bg" => cfg.claim_bg = Some(value.parse().map_err(|e| format!("claim-bg: {e}"))?),
            "corrupt-echo" => {
                cfg.corrupt_echo = value.parse().map_err(|e| format!("corrupt-echo: {e}"))?;
            }
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
        fields![
            background = self.cfg.background,
            claim_bg = self.cfg.claim_bg.unwrap_or(0),
            lying = self.cfg.claim_bg.is_some(),
            corrupt_echo = self.cfg.corrupt_echo,
        ]
    }

    fn session_role(&self) -> PeerRole {
        PeerRole::Target
    }

    fn conversation(&self) -> Conv {
        Conv {
            meter: BackgroundMeter::new(self.cfg.background),
            registered: None,
            echoed_through: 0,
        }
    }

    /// Registers the commanded measurement with the data plane the
    /// moment the command is accepted, so the echo dials that follow
    /// `Go` always find it.
    fn on_command(&self, conv: &mut Conv, span: &Span, spec: &MeasureSpec) {
        let nonce = binding_nonce(spec.measurement_secret);
        let key = secret_channel_key(spec.measurement_secret);
        conv.registered = Some((nonce, self.echo.register(nonce, key, spec.trace_id)));
        // The commanded rate cap is the relay's background allowance.
        conv.meter.set_cap(spec.rate_cap);
        span.emit("session.registered", fields![nonce = nonce, bg_allowance = spec.rate_cap]);
    }

    fn on_start(_peer: &Peer<Relay>, conv: &mut Conv, span: &Span, _: &MeasureSpec, snow: SimTime) {
        conv.echoed_through = 0;
        conv.meter.start(snow);
        span.emit("session.go", fields![bg_rate = conv.meter.admitted_rate()]);
    }

    fn on_stop(&self, conv: &mut Conv, span: &Span, seconds: u32, _snow: SimTime) {
        let channels = conv.counter(|c| c.channels.load(Ordering::Relaxed));
        span.emit("session.stop", fields![seconds = seconds, channels = channels]);
    }

    fn drive(&self, conv: &mut Conv, _span: &Span, snow: SimTime, _live: bool) {
        conv.meter.tick(snow);
    }

    fn second_report(&self, conv: &mut Conv, span: &Span, second: u32) -> (u64, u64) {
        let echoed = conv.counter(|c| c.echoed.load(Ordering::Relaxed));
        let echo_delta = echoed - conv.echoed_through;
        conv.echoed_through = echoed;
        // The claim is the meter's own bucket for `second`, not "what
        // accrued since the last report": a late report tick must not
        // fold part of the next second into this one and push an honest
        // relay over its allowance.
        let metered = conv.meter.admitted_in(second);
        let bg = match self.cfg.claim_bg {
            // The liar: a fixed per-second claim, regardless of what the
            // meter admitted. The lie leaves a trail: both figures go
            // into the event stream, which is what the audit tests
            // cross-check against the coordinator's ledger flags.
            Some(claim) => {
                span.emit(
                    "bg.divergence",
                    fields![second = second, claimed = claim, metered = metered],
                );
                claim
            }
            None => metered,
        };
        self.bg_admitted.add(metered);
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

/// One bound echo channel, pumped on socket readiness, publishing
/// counter deltas into its measurement's aggregate.
pub struct DataConn {
    peer: Arc<Peer<Relay>>,
    span: Span,
    echoer: Echoer<TcpTransport>,
    counters: Arc<EchoCounters>,
    t0: Instant,
    /// (received, corrupt, forged, echoed) through the last publish.
    last: (u64, u64, u64, u64),
    last_activity: Instant,
    /// Echo bytes parsed but not yet flushed to the socket; the shard
    /// re-arms for write readiness while this holds.
    backlog: bool,
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
        echoer.set_corrupt_echo(relay.cfg.corrupt_echo);
        let t0 = Instant::now();
        let now = peer.snow(t0);
        echoer.start(now);
        let mut conn = DataConn {
            peer: Arc::clone(peer),
            span,
            echoer,
            counters,
            t0,
            last: (0, 0, 0, 0),
            last_activity: Instant::now(),
            backlog: false,
        };
        if let Err(e) = conn.echoer.inject(now, preread) {
            conn.span.emit("channel.framing_error", fields![error = format!("{e}")]);
            conn.counters.channels.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        conn.publish();
        Some(conn)
    }

    /// Publishes counter deltas into the measurement's aggregate (the
    /// control session reports from those totals).
    fn publish(&mut self) {
        let now = (
            self.echoer.received_total(),
            self.echoer.corrupt_total(),
            self.echoer.forged_total(),
            self.echoer.echoed_total(),
        );
        self.counters.received.fetch_add(now.0 - self.last.0, Ordering::Relaxed);
        self.counters.corrupt.fetch_add(now.1 - self.last.1, Ordering::Relaxed);
        self.counters.forged.fetch_add(now.2 - self.last.2, Ordering::Relaxed);
        self.counters.echoed.fetch_add(now.3 - self.last.3, Ordering::Relaxed);
        self.last = now;
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
        self.backlog =
            self.echoer.pending_echo() > 0 || self.echoer.transport_mut().pending_send_bytes() > 0;
        Step::Continue
    }

    fn on_tick(&mut self) -> Step {
        // A quiet bound channel costs nothing per tick; only a flush
        // backlog or the drain deadline brings it back to the socket.
        if self.backlog {
            return self.on_ready();
        }
        if self.peer.drained_quiet(self.last_activity) {
            return self.close();
        }
        Step::Continue
    }

    fn wants_write(&self) -> bool {
        self.backlog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_obs::EventSink;
    use procutil::peer::Settings;

    #[test]
    fn one_late_tick_reports_two_seconds_each_within_the_allowance() {
        let registry = MetricsRegistry::new();
        let relay = Relay::new(Config { background: 40_000, ..Config::default() }, &registry);
        let span = Span::root(EventSink::new());
        let peer = Peer::new(Settings::default(), relay, span.clone(), &registry);
        let relay = &peer.role;
        let spec = MeasureSpec { slot_secs: 3, rate_cap: 20_000, ..MeasureSpec::default() };
        let mut conv = relay.conversation();
        relay.on_command(&mut conv, &span, &spec);
        Relay::on_start(&peer, &mut conv, &span, &spec, SimTime::from_secs(5));
        relay.drive(&mut conv, &span, SimTime::from_secs_f64(5.9), true);
        // The shard stalls: the next step lands 2.3 s into the slot and
        // owes two reports at once.
        relay.drive(&mut conv, &span, SimTime::from_secs_f64(7.3), true);
        let first = relay.second_report(&mut conv, &span, 0);
        let second = relay.second_report(&mut conv, &span, 1);
        assert_eq!((first, second), ((20_000, 0), (20_000, 0)), "cap is 20 kB/s");
        // A report the library paces a hair ahead of the meter's clock
        // still gets its whole second, and the meter does not recount it.
        let third = relay.second_report(&mut conv, &span, 2);
        relay.drive(&mut conv, &span, SimTime::from_secs_f64(8.5), true);
        assert_eq!(third, (20_000, 0));
        assert_eq!(conv.meter.admitted_total(), 70_000);
    }
}
