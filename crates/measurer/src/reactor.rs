//! The measurer role's hooks into the shared peer library
//! ([`procutil::peer`]). The library drives the connection shell and the
//! control conversation; this module says what a conversation means to
//! the data plane — dial the target relay at `Go`, blast, and report the
//! verified echo — and refuses every inbound data dial.

use std::sync::Arc;

use flashflow_obs::{fields, MetricsRegistry, Span, Value};
use flashflow_procutil as procutil;
use flashflow_proto::blast::{BlastCounters, DataChannelHello};
use flashflow_proto::msg::{MeasureSpec, PeerRole};
use flashflow_proto::tcp::TcpTransport;
use flashflow_proto::transport::Transport;
use flashflow_simnet::time::SimTime;
use procutil::peer::{Bind, Peer, Role};
use procutil::reactor::Step;

use crate::{dial_echo_channels, EchoChannel, Measurer};

/// The measurer's state for one control conversation.
#[derive(Default)]
pub struct Conv {
    /// This measurer's blast channels to the target relay, dialed at
    /// `Go`. Their sockets ride the control connection's steps; they are
    /// not separately registered with the shard.
    echo_channels: Vec<EchoChannel>,
    /// Verified echoed bytes already reported.
    counted_through: u64,
    /// Reused receive buffer for draining the echo channels' sockets.
    rxbuf: Vec<u8>,
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

    fn on_start(&self, conv: &mut Conv, span: &Span, spec: &MeasureSpec, snow: SimTime) {
        conv.echo_channels = dial_echo_channels(spec, snow, span, &self.echo_blast);
    }

    fn on_stop(&self, conv: &mut Conv, span: &Span, seconds: u32, snow: SimTime) {
        for ch in &mut conv.echo_channels {
            ch.source.stop(snow);
        }
        // Dropping the channels closes the dialed connections; the
        // relay's echo side sees EOF.
        conv.echo_channels.clear();
        span.emit("session.stop", fields![seconds = seconds]);
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

    /// The verified bytes the relay echoed back across this session's
    /// channels since the previous report.
    fn second_report(&self, conv: &mut Conv, _span: &Span, _second: u32) -> (u64, u64) {
        let through: u64 = conv.echo_channels.iter().map(EchoChannel::verified).sum();
        let delta = through - conv.counted_through;
        conv.counted_through = through;
        (0, delta)
    }

    fn backlog(conv: &mut Conv) -> bool {
        conv.echo_channels.iter_mut().any(|ch| ch.source.transport_mut().backlog() > 0)
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

#[cfg(test)]
mod tests {
    use super::*;
    use procutil::peer::Settings;

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
