//! A process's telemetry shell ([`Telemetry`]: its event stream and
//! its metrics endpoint), and the `--metrics-addr` TCP endpoint every
//! standalone process exposes: connect, present the process's auth
//! token, receive one JSON registry snapshot, done.
//!
//! The gate is deliberately the same secret that authorizes control
//! sessions — an unauthenticated scraper on a public address would leak
//! per-second traffic counts, which is exactly the side channel the
//! paper's design keeps off the wire. A connection that stays silent
//! through the hello window, or sends anything but the token, is
//! dropped without a byte in response (indistinguishable from a closed
//! port).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Duration;

use flashflow_obs::{fields, EventSink, MetricsRegistry, Span};
use flashflow_proto::msg::AUTH_TOKEN_LEN;

use crate::reactor::{Interest, Poller};
use crate::{drain_latch, hello_window, journal_writer};

/// A process's telemetry: the root span of its event stream (text on
/// stderr, and JSONL in `--log-json`) and, with `--metrics-addr`, the
/// token-gated endpoint serving its metrics.
pub struct Telemetry {
    /// The root span every event of the process hangs off.
    pub span: Span,
    /// Where the metrics endpoint listens, for the process's
    /// `metrics <addr>` stdout line.
    pub metrics: Option<SocketAddr>,
    endpoint: Option<JoinHandle<()>>,
}

impl Telemetry {
    /// Opens `log_json` with the shared journal discipline (O_APPEND,
    /// one write per line: a crash tears at most the final line) and
    /// starts the metrics endpoint on `metrics_addr`, serving `registry`
    /// to whoever presents `token`.
    ///
    /// # Errors
    /// The message for the operator: the log could not be opened, or
    /// the endpoint not started.
    pub fn open(
        log_json: Option<&str>,
        metrics_addr: Option<&str>,
        token: [u8; AUTH_TOKEN_LEN],
        registry: &MetricsRegistry,
        speedup: f64,
    ) -> Result<Telemetry, String> {
        let mut sink = EventSink::new().with_stderr_text();
        if let Some(path) = log_json {
            let file = journal_writer(Path::new(path))
                .map_err(|e| format!("open --log-json {path}: {e}"))?;
            sink = sink.with_jsonl(Box::new(file));
        }
        let mut telemetry = Telemetry { span: Span::root(sink), metrics: None, endpoint: None };
        if let Some(addr) = metrics_addr {
            let (bound, thread) = start_metrics_endpoint(addr, token, registry.clone(), speedup)?;
            telemetry.metrics = Some(bound);
            telemetry.endpoint = Some(thread);
        }
        Ok(telemetry)
    }

    /// Stops serving ([`crate::stop_serving`]) and joins the metrics
    /// endpoint, emitting `<name>.fatal` if its thread panicked.
    pub fn close(&mut self, name: &str) {
        crate::stop_serving();
        if self.endpoint.take().is_some_and(|thread| thread.join().is_err()) {
            self.span.emit(&format!("{name}.fatal"), fields![error = "metrics endpoint panicked"]);
        }
    }
}

const TOKEN_LATCH: u64 = 0;
const TOKEN_LISTENER: u64 = 1;

/// Serves registry snapshots on `listener` from a background thread
/// until the process stops serving (see [`crate::stop_serving`]; SIGTERM
/// does it too). The thread sleeps on one [`Poller`] holding the
/// listener and the drain latch, so it wakes only for a dial or the
/// end. Each accepted connection must send the `token` as its first
/// [`AUTH_TOKEN_LEN`] raw bytes within the speedup-scaled hello window;
/// it then receives `registry`'s snapshot as one JSON line and is
/// closed.
///
/// # Errors
/// The listener's nonblocking-mode switch, or the poller's set-up.
fn spawn_metrics_endpoint(
    listener: TcpListener,
    token: [u8; AUTH_TOKEN_LEN],
    registry: MetricsRegistry,
    speedup: f64,
) -> std::io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.register(drain_latch()?.fd(), TOKEN_LATCH, Interest::READ)?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    let window = hello_window(speedup);
    std::thread::Builder::new().name("metrics".to_string()).spawn(move || {
        let mut events = Vec::new();
        loop {
            if poller.wait(&mut events, Duration::from_secs(3600)).is_err()
                || events.iter().any(|ev| ev.token == TOKEN_LATCH)
            {
                return;
            }
            loop {
                match listener.accept() {
                    Ok((stream, _)) => serve_snapshot(stream, &token, &registry, window),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => return,
                }
            }
        }
    })
}

/// Binds `addr` and spawns the snapshot endpoint on it. Returns the
/// bound address and the endpoint's thread, which [`Telemetry::close`]
/// joins, so a panic in it is reported rather than lost.
///
/// # Errors
/// Describes which step failed: the bind, the local-address query, or
/// the endpoint spawn.
fn start_metrics_endpoint(
    addr: &str,
    token: [u8; AUTH_TOKEN_LEN],
    registry: MetricsRegistry,
    speedup: f64,
) -> Result<(SocketAddr, JoinHandle<()>), String> {
    let listener =
        TcpListener::bind(addr).map_err(|e| format!("bind --metrics-addr {addr}: {e}"))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("--metrics-addr {addr}: query bound address: {e}"))?;
    let thread = spawn_metrics_endpoint(listener, token, registry, speedup)
        .map_err(|e| format!("--metrics-addr {addr}: start endpoint: {e}"))?;
    Ok((bound, thread))
}

fn serve_snapshot(
    mut stream: TcpStream,
    token: &[u8; AUTH_TOKEN_LEN],
    registry: &MetricsRegistry,
    window: Duration,
) {
    let _ = stream.set_read_timeout(Some(window));
    let mut presented = [0u8; AUTH_TOKEN_LEN];
    if stream.read_exact(&mut presented).is_err() || &presented != token {
        return;
    }
    let mut line = registry.snapshot().to_json().encode();
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Fetches one snapshot from a metrics endpoint: dials `addr`, sends
/// `token`, reads to EOF. The returned string is the JSON document
/// (trailing newline trimmed).
///
/// # Errors
/// Dial/write/read errors, or an empty response (wrong token).
pub fn fetch_metrics(
    addr: SocketAddr,
    token: &[u8; AUTH_TOKEN_LEN],
    timeout: Duration,
) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(token)?;
    let mut body = String::new();
    stream.read_to_string(&mut body)?;
    if body.trim().is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "metrics endpoint sent nothing (wrong token?)",
        ));
    }
    Ok(body.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_obs::RegistrySnapshot;

    #[test]
    fn endpoint_serves_snapshots_and_rejects_bad_tokens() {
        let registry = MetricsRegistry::new();
        registry.counter("test.bytes").add(1234);
        let token = [7u8; AUTH_TOKEN_LEN];
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _worker =
            spawn_metrics_endpoint(listener, token, registry.clone(), 50.0).expect("spawn");

        let body = fetch_metrics(addr, &token, Duration::from_secs(5)).expect("authorized fetch");
        let snap = RegistrySnapshot::parse(&body).expect("valid snapshot json");
        assert_eq!(snap.counters, vec![("test.bytes".to_string(), 1234)]);

        let wrong = [8u8; AUTH_TOKEN_LEN];
        assert!(
            fetch_metrics(addr, &wrong, Duration::from_secs(2)).is_err(),
            "wrong token must get nothing"
        );

        // Counters move between snapshots.
        registry.counter("test.bytes").add(1);
        let body = fetch_metrics(addr, &token, Duration::from_secs(5)).expect("second fetch");
        let snap = RegistrySnapshot::parse(&body).expect("valid snapshot json");
        assert_eq!(snap.counters[0].1, 1235);
    }
}
