//! Event sinks and spans: where [`Event`]s go once emitted.
//!
//! An [`EventSink`] is a cloneable handle shared by every thread of a
//! process. Each emitted event is rendered once per attached output —
//! human text (stderr) or JSONL (a file, a pipe) — and written as one
//! `write_all` under the output lock, so concurrent session threads can
//! never tear each other's lines (the historical `eprintln!` logging
//! interleaved mid-line under load). Independently of outputs, the sink
//! keeps a bounded in-memory ring of recent events for live consumers
//! such as `flashflow-top`.
//!
//! A [`Span`] is a sink plus a fixed [`Scope`] prefix; child spans add
//! coordinates (period → group → item → channel) so deep layers emit
//! fully-addressed events without threading indices by hand.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{Event, Scope, Value};

/// Default capacity of the in-memory event ring.
const DEFAULT_RING: usize = 4096;

enum Format {
    Text,
    Jsonl,
}

struct Output {
    format: Format,
    writer: Box<dyn Write + Send>,
}

struct SinkInner {
    start: Instant,
    outputs: Mutex<Vec<Output>>,
    ring: Mutex<VecDeque<Event>>,
    ring_cap: usize,
}

/// A shared destination for structured events. Clones share state.
#[derive(Clone)]
pub struct EventSink {
    inner: Arc<SinkInner>,
}

impl Default for EventSink {
    fn default() -> Self {
        EventSink::new()
    }
}

impl EventSink {
    /// A sink with no outputs (events still land in the ring).
    pub fn new() -> Self {
        EventSink {
            inner: Arc::new(SinkInner {
                start: Instant::now(),
                outputs: Mutex::new(Vec::new()),
                ring: Mutex::new(VecDeque::new()),
                ring_cap: DEFAULT_RING,
            }),
        }
    }

    /// Attaches a human-text output writing to the process's stderr.
    #[must_use]
    pub fn with_stderr_text(self) -> Self {
        self.attach(Format::Text, Box::new(std::io::stderr()));
        self
    }

    /// Attaches a JSONL output writing to `writer`.
    #[must_use]
    pub fn with_jsonl(self, writer: Box<dyn Write + Send>) -> Self {
        self.attach(Format::Jsonl, writer);
        self
    }

    /// Attaches a JSONL output appending to the file at `path`
    /// (created if absent).
    ///
    /// # Errors
    /// Whatever opening the file returned.
    pub fn with_jsonl_path(self, path: &str) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        self.attach(Format::Jsonl, Box::new(file));
        Ok(self)
    }

    fn attach(&self, format: Format, writer: Box<dyn Write + Send>) {
        self.inner.outputs.lock().expect("outputs lock").push(Output { format, writer });
    }

    /// Emits one event at the current monotonic timestamp.
    pub fn emit(&self, kind: &str, scope: Scope, fields: Vec<(String, Value)>) {
        let event = Event {
            ts: self.inner.start.elapsed().as_secs_f64(),
            kind: kind.to_string(),
            scope,
            fields,
        };
        self.deliver(event);
    }

    fn deliver(&self, event: Event) {
        {
            let mut outputs = self.inner.outputs.lock().expect("outputs lock");
            for output in outputs.iter_mut() {
                let mut line = match output.format {
                    Format::Text => event.to_text_line(),
                    Format::Jsonl => event.to_json_line(),
                };
                line.push('\n');
                // One write per line keeps lines atomic even if the
                // descriptor is shared with another process.
                let _ = output.writer.write_all(line.as_bytes());
                let _ = output.writer.flush();
            }
        }
        let mut ring = self.inner.ring.lock().expect("ring lock");
        if ring.len() == self.inner.ring_cap {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// A copy of the retained recent events, oldest first.
    pub fn ring(&self) -> Vec<Event> {
        self.inner.ring.lock().expect("ring lock").iter().cloned().collect()
    }

    /// Seconds elapsed since the sink was created (the timescale of
    /// every event it stamps).
    pub fn elapsed(&self) -> f64 {
        self.inner.start.elapsed().as_secs_f64()
    }
}

/// A sink plus a fixed scope prefix. Cheap to clone and send across
/// worker threads; children narrow the scope.
#[derive(Clone)]
pub struct Span {
    sink: EventSink,
    scope: Scope,
}

impl Span {
    /// The root span (empty scope) over `sink`.
    pub fn root(sink: EventSink) -> Span {
        Span { sink, scope: Scope::root() }
    }

    /// The underlying sink.
    pub fn sink(&self) -> &EventSink {
        &self.sink
    }

    /// This span's scope.
    pub fn scope(&self) -> Scope {
        self.scope
    }

    /// A child span scoped to measurement period `period`.
    #[must_use]
    pub fn period(&self, period: u64) -> Span {
        let mut child = self.clone();
        child.scope.period = Some(period);
        child
    }

    /// A child span scoped to item group `group`.
    #[must_use]
    pub fn group(&self, group: u64) -> Span {
        let mut child = self.clone();
        child.scope.group = Some(group);
        child
    }

    /// A child span scoped to item `item`.
    #[must_use]
    pub fn item(&self, item: u64) -> Span {
        let mut child = self.clone();
        child.scope.item = Some(item);
        child
    }

    /// A child span scoped to data channel `channel`.
    #[must_use]
    pub fn channel(&self, channel: u64) -> Span {
        let mut child = self.clone();
        child.scope.channel = Some(channel);
        child
    }

    /// A child span scoped to control session `session`.
    #[must_use]
    pub fn session(&self, session: u64) -> Span {
        let mut child = self.clone();
        child.scope.session = Some(session);
        child
    }

    /// A child span stamped with cross-process trace id `trace`.
    #[must_use]
    pub fn trace(&self, trace: u64) -> Span {
        let mut child = self.clone();
        child.scope.trace = Some(trace);
        child
    }

    /// Emits `kind` with this span's scope and the given fields.
    pub fn emit(&self, kind: &str, fields: Vec<(String, Value)>) {
        self.sink.emit(kind, self.scope, fields);
    }

    /// Emits `kind` with no fields.
    pub fn event(&self, kind: &str) {
        self.emit(kind, Vec::new());
    }
}

/// Builds a field list tersely: `fields![bytes = 42, clean = true]`.
#[macro_export]
macro_rules! fields {
    ($($key:ident = $value:expr),* $(,)?) => {
        vec![$((stringify!($key).to_string(), $crate::event::Value::from($value))),*]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` that appends into a shared buffer.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn spans_narrow_scope_and_events_reach_ring_and_writer() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = EventSink::new().with_jsonl(Box::new(SharedBuf(buf.clone())));
        let span = Span::root(sink.clone()).period(7).group(1).item(2);
        span.emit("slot.go", fields![at = 0.5f64]);
        span.channel(3).emit("channel.open", fields![addr = "127.0.0.1:1"]);

        let ring = sink.ring();
        assert_eq!(ring.len(), 2);
        assert_eq!(ring[0].scope.period, Some(7));
        assert_eq!(ring[1].scope.channel, Some(3));

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let back = Event::parse_json_line(lines[0]).unwrap();
        assert_eq!(back.kind, "slot.go");
        assert_eq!(back.scope.item, Some(2));
    }

    #[test]
    fn concurrent_emitters_never_tear_lines() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = EventSink::new().with_jsonl(Box::new(SharedBuf(buf.clone())));
        let emitters: Vec<_> = (0..8)
            .map(|t| {
                let sink = sink.clone();
                std::thread::spawn(move || {
                    let span = Span::root(sink).session(t);
                    for i in 0..50u64 {
                        span.emit("spam", fields![i = i, pad = "x".repeat(64)]);
                    }
                })
            })
            .collect();
        for emitter in emitters {
            emitter.join().expect("emitter thread");
        }
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 400);
        for line in lines {
            Event::parse_json_line(line).unwrap_or_else(|e| panic!("torn line {line:?}: {e}"));
        }
    }

    #[test]
    fn ring_is_bounded() {
        let sink = EventSink::new();
        let span = Span::root(sink.clone());
        for i in 0..(DEFAULT_RING as u64 + 10) {
            span.emit("tick", fields![i = i]);
        }
        let ring = sink.ring();
        assert_eq!(ring.len(), DEFAULT_RING);
        assert_eq!(ring[0].u64_field("i"), Some(10));
    }
}
