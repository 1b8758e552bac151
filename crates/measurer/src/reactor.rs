//! The measurer role's hooks into the shared peer library
//! ([`procutil::peer`]) and its data connection. The library drives the
//! connection shell and the control conversation; this module says what
//! a conversation means to the data plane — register the claimed nonce
//! for inbound blast channels, or in the echo topology dial the target
//! relay at `Go`, blast, and report the verified echo — and serves bound
//! inbound channels as a verifying sink counting into their session.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use flashflow_obs::{fields, MetricsRegistry, Span, Value};
use flashflow_procutil as procutil;
use flashflow_proto::blast::{
    channel_key, BlastCounters, BlastEvent, BlastParser, DataChannelHello, ReportSource,
};
use flashflow_proto::msg::{MeasureSpec, PeerRole};
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::Transport;
use flashflow_simnet::time::SimTime;
use procutil::peer::{Bind, Peer, Role};
use procutil::reactor::Step;

use crate::{dial_echo_channels, Config, DataPlane, EchoChannel, Measurer, SessionCounters};

/// The measurer's state for one control conversation.
#[derive(Default)]
pub struct Conv {
    /// Scripted (background, measured) bytes per second, once Go
    /// arrives; zero where the report is counter- or echo-derived.
    scripted: (u64, u64),
    /// The `Auth` nonce this conversation registered with the data
    /// plane, with the counters its data channels feed.
    registered: Option<(u64, Arc<SessionCounters>)>,
    counted_through: u64,
    /// Echo topology: this measurer's own blast channels to the target
    /// relay (empty outside the echo topology). Their dialed sockets
    /// ride the control connection's steps; they are not separately
    /// registered with the shard.
    echo_channels: Vec<EchoChannel>,
    /// Reused receive buffer for draining the echo channels' sockets.
    rxbuf: Vec<u8>,
}

impl Role for Measurer {
    const NAME: &'static str = "measurer";
    const USAGE: &'static str = crate::USAGE;
    type Config = Config;
    type Conv = Conv;
    type Data = DataConn;

    fn apply(cfg: &mut Config, key: &str, value: &str) -> Result<bool, String> {
        match key {
            "role" => {
                cfg.role = match value {
                    "measurer" => PeerRole::Measurer,
                    "target" => PeerRole::Target,
                    other => return Err(format!("role: unknown role {other:?}")),
                }
            }
            "report" => cfg.report = value.parse()?,
            "rate" => cfg.rate = Some(value.parse().map_err(|e| format!("rate: {e}"))?),
            "bg" => cfg.bg = value.parse().map_err(|e| format!("bg: {e}"))?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn new(cfg: Config, registry: &MetricsRegistry) -> Measurer {
        Measurer {
            cfg,
            data: DataPlane::default(),
            blast: BlastCounters {
                verified: registry.counter("measurer.blast.verified_bytes"),
                corrupt: registry.counter("measurer.blast.corrupt_bytes"),
                forged: registry.counter("measurer.blast.forged_bytes"),
                replayed: registry.counter("measurer.blast.replayed_bytes"),
            },
            echo_blast: BlastCounters {
                verified: registry.counter("measurer.echo.verified_bytes"),
                corrupt: registry.counter("measurer.echo.corrupt_bytes"),
                forged: registry.counter("measurer.echo.forged_bytes"),
                replayed: registry.counter("measurer.echo.replayed_bytes"),
            },
        }
    }

    fn start_fields(&self) -> Vec<(String, Value)> {
        fields![role = format!("{:?}", self.cfg.role), report = format!("{:?}", self.cfg.report)]
    }

    fn session_role(&self) -> PeerRole {
        self.cfg.role
    }

    fn conversation(&self) -> Conv {
        Conv::default()
    }

    /// Registers the claimed nonce with the data plane *before* `AuthOk`
    /// reaches the coordinator, so the hellos it then sends always find
    /// their session.
    fn on_claimed(&self, conv: &mut Conv, nonce: u64) {
        if self.cfg.role == PeerRole::Measurer {
            conv.registered = Some((nonce, self.data.register(nonce)));
        }
    }

    fn on_start(&self, conv: &mut Conv, span: &Span, spec: &MeasureSpec, snow: SimTime) {
        let cfg = &self.cfg;
        conv.scripted = match (cfg.role, cfg.report) {
            (PeerRole::Measurer, ReportSource::Counters) => (0, 0),
            (PeerRole::Measurer, ReportSource::Scripted) => (0, cfg.rate.unwrap_or(spec.rate_cap)),
            (PeerRole::Target, _) => (cfg.bg, 0),
        };
        conv.counted_through = 0;
        if cfg.role == PeerRole::Measurer && !spec.target.is_none() {
            // Echo topology: this measurer blasts the target relay
            // itself and reports the verified echo.
            conv.echo_channels = dial_echo_channels(spec, snow, span, &self.echo_blast);
        } else if let (Some((_, c)), ReportSource::Counters) = (&conv.registered, cfg.report) {
            span.emit("session.go", fields![channels = c.channels.load(Ordering::Relaxed)]);
        } else {
            span.emit("session.go", fields![scripted_rate = conv.scripted.1]);
        }
    }

    fn on_stop(&self, conv: &mut Conv, span: &Span, seconds: u32, snow: SimTime) {
        for ch in &mut conv.echo_channels {
            ch.source.stop(snow);
        }
        // Dropping the channels closes the dialed connections; the
        // relay's echo side sees EOF.
        conv.echo_channels.clear();
        match &conv.registered {
            Some((_, c)) => span.emit(
                "session.stop",
                fields![
                    seconds = seconds,
                    received = c.received.load(Ordering::Relaxed),
                    corrupt = c.corrupt.load(Ordering::Relaxed),
                    rejected = c.rejected.load(Ordering::Relaxed),
                ],
            ),
            None => span.emit("session.stop", fields![seconds = seconds]),
        }
    }

    /// Drives the echo channels: blast the pacing budget out and verify
    /// whatever the relay has echoed back so far.
    fn drive(&self, conv: &mut Conv, span: &Span, snow: SimTime, live: bool) {
        if !live {
            return;
        }
        for ch in &mut conv.echo_channels {
            ch.source.pump(snow);
            // A recv error means the relay hung up; verified() keeps
            // its total either way.
            if let Ok(got) = ch.source.transport_mut().recv_into(snow, &mut conv.rxbuf) {
                if got > 0 {
                    if let Err(e) = ch.echo.push(&conv.rxbuf) {
                        span.emit("echo.stream_broke", fields![error = format!("{e}")]);
                    }
                }
            }
        }
    }

    fn second_report(&self, conv: &mut Conv, _span: &Span, _second: u32) -> (u64, u64) {
        let (bg, scripted) = conv.scripted;
        let through = if !conv.echo_channels.is_empty() {
            // Echo-derived: the verified bytes the relay echoed back
            // across this session's channels.
            conv.echo_channels.iter().map(EchoChannel::verified).sum()
        } else if let (Some((_, c)), ReportSource::Counters) = (&conv.registered, self.cfg.report) {
            // Counter-derived: the bytes that actually arrived on this
            // session's data channels.
            c.received.load(Ordering::Relaxed)
        } else {
            return (bg, scripted);
        };
        let delta = through - conv.counted_through;
        conv.counted_through = through;
        (bg, delta)
    }

    /// Releases only a registration THIS conversation created: a
    /// replay-losing conversation never registers, and must not unbind
    /// the concurrent winner's data channels.
    fn release(&self, conv: &mut Conv) {
        if let Some((nonce, _)) = conv.registered.take() {
            self.data.release(nonce);
        }
        conv.echo_channels.clear();
    }

    fn backlog(conv: &mut Conv) -> bool {
        conv.echo_channels.iter_mut().any(|ch| ch.source.transport_mut().backlog() > 0)
    }

    fn bind_data(
        peer: &Arc<Peer<Measurer>>,
        span: Span,
        transport: TcpTransport,
        preread: &[u8],
        hello: DataChannelHello,
    ) -> Bind<DataConn> {
        if peer.role.data.lookup(hello.nonce).is_none() {
            return Bind::Unknown(transport);
        }
        DataConn::new(peer, span, transport, preread).map_or(Bind::Refused, Bind::Bound)
    }
}

/// One inbound blast channel: verify and count blast bytes into the
/// session its hello bound it to. A later hello on the same connection
/// re-binds it (coordinator-side pooled data channels).
pub struct DataConn {
    peer: Arc<Peer<Measurer>>,
    span: Span,
    transport: TcpTransport,
    parser: BlastParser,
    counters: Option<Arc<SessionCounters>>,
    last_activity: Instant,
    /// Reused receive buffer ([`Transport::recv_into`]).
    rxbuf: Vec<u8>,
}

impl DataConn {
    /// Wraps an identified data connection and feeds the pre-read bytes
    /// (the hello plus whatever blast followed).
    fn new(
        peer: &Arc<Peer<Measurer>>,
        span: Span,
        transport: TcpTransport,
        preread: &[u8],
    ) -> Option<DataConn> {
        let mut conn = DataConn {
            peer: Arc::clone(peer),
            span,
            transport,
            // Coordinator-blasted channels are tagged under the
            // pre-shared control token (which never crosses a data
            // connection).
            parser: BlastParser::new()
                .with_key(channel_key(&peer.settings.token))
                .with_counters(peer.role.blast.clone()),
            counters: None,
            last_activity: Instant::now(),
            rxbuf: Vec::new(),
        };
        if conn.ingest(preread).is_err() {
            conn.unbind();
            return None;
        }
        Some(conn)
    }

    /// Parses a chunk of wire bytes into the session counters. An `Err`
    /// means the channel must close: the stream broke framing, or a
    /// hello named a nonce no live session registered.
    fn ingest(&mut self, bytes: &[u8]) -> Result<(), ()> {
        if bytes.is_empty() {
            return Ok(());
        }
        self.last_activity = Instant::now();
        let events = match self.parser.push(bytes) {
            Ok(events) => events,
            Err(e) => {
                self.span.emit("channel.framing_error", fields![error = format!("{e}")]);
                return Err(());
            }
        };
        for event in events {
            match event {
                BlastEvent::Hello(hello) => {
                    self.unbind();
                    // A session registers its nonce before its `AuthOk`
                    // is sent, and the coordinator greets only after
                    // `AuthOk`: an unregistered nonce is never honest.
                    let Some(c) = self.peer.role.data.lookup(hello.nonce) else {
                        self.span.emit("channel.unknown_nonce", fields![nonce = hello.nonce]);
                        return Err(());
                    };
                    c.channels.fetch_add(1, Ordering::Relaxed);
                    self.counters = Some(c);
                    self.span.emit("channel.bound", fields![nonce = hello.nonce]);
                }
                BlastEvent::Data { bytes, corrupt } => {
                    if let Some(c) = &self.counters {
                        c.received.fetch_add(bytes, Ordering::Relaxed);
                        c.corrupt.fetch_add(corrupt, Ordering::Relaxed);
                    }
                }
                BlastEvent::Forged { bytes } | BlastEvent::Replayed { bytes } => {
                    if let Some(c) = &self.counters {
                        c.rejected.fetch_add(bytes, Ordering::Relaxed);
                    }
                }
            }
        }
        Ok(())
    }

    fn unbind(&mut self) {
        if let Some(c) = self.counters.take() {
            c.channels.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn close(&mut self) -> Step {
        self.unbind();
        Step::Done
    }
}

impl procutil::peer::DataConn for DataConn {
    fn on_ready(&mut self) -> Step {
        // One bounded drain per readiness event: `recv_into` reads until
        // `WouldBlock` or its budget; level-triggered polling re-delivers
        // whatever remains, so the shard's other channels get their turn.
        let mut rx = std::mem::take(&mut self.rxbuf);
        let fed = match self.transport.recv_into(SimTime::ZERO, &mut rx) {
            Ok(_) => self.ingest(&rx),
            Err(_) => Err(()), // peer closed or failed
        };
        self.rxbuf = rx;
        if fed.is_err() {
            return self.close();
        }
        Step::Continue
    }

    /// The blast sink never writes, so the tick only watches for the
    /// drain: once the control sessions are gone and the channel has
    /// gone quiet, let it end.
    fn on_tick(&mut self) -> Step {
        if self.peer.drained_quiet(self.last_activity) {
            return self.close();
        }
        Step::Continue
    }
}
