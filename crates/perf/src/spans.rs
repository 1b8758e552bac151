//! The harness's own spans: one record per ladder call and per process
//! phase (spawn, ready, period, drain), kept in memory while the
//! benchmark runs and written out as JSONL when it ends.
//!
//! A span is `{run, id, parent, name, start_us, end_us}`; spans of one
//! invocation share `run`. A span's *self time* is its duration minus
//! the part its children cover — children never overlap each other
//! here, because the harness is single-threaded.

use std::path::Path;
use std::time::Instant;

use flashflow_obs::Json;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Index in the log; the id other spans name as `parent`.
    pub id: usize,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// What was running, e.g. `ladder.proto.blast.parser_MBps`.
    pub name: String,
    /// Microseconds since the log was created.
    pub start_us: u64,
    /// Likewise; equals `start_us` while the span is open.
    pub end_us: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct SpanLog {
    run: String,
    t0: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log whose spans all carry `run` as their shared identifier.
    pub fn new(run: &str) -> SpanLog {
        SpanLog { run: run.to_string(), t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Opens a span under whichever span is open now; returns its id
    /// for [`SpanLog::end`].
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(SpanRec {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_us: now,
            end_us: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span opened inside it that an early
    /// return left open).
    pub fn end(&mut self, id: usize) {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn within<T>(&mut self, name: &str, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time of span `id` in microseconds: its duration minus its
    /// direct children's.
    pub fn self_us(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.end_us - s.start_us).sum();
        (span.end_us - span.start_us).saturating_sub(children)
    }

    /// Writes the log as JSONL: a header line carrying `stamp`, then
    /// one line per span.
    ///
    /// # Errors
    /// The file could not be written.
    pub fn write_jsonl(&self, path: &Path, stamp: &Json) -> std::io::Result<()> {
        let mut text = Json::Obj(vec![
            ("kind".into(), Json::Str("perf.trace".into())),
            ("run".into(), Json::Str(self.run.clone())),
            ("stamp".into(), stamp.clone()),
        ])
        .to_string();
        text.push('\n');
        for s in &self.spans {
            let line = Json::Obj(vec![
                ("kind".into(), Json::Str("span".into())),
                ("run".into(), Json::Str(self.run.clone())),
                ("id".into(), Json::Int(s.id as i128)),
                ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Int(p as i128))),
                ("name".into(), Json::Str(s.name.clone())),
                ("start_us".into(), Json::Int(i128::from(s.start_us))),
                ("end_us".into(), Json::Int(i128::from(s.end_us))),
                ("self_us".into(), Json::Int(i128::from(self.self_us(s.id)))),
            ]);
            text.push_str(&line.to_string());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut log = SpanLog::new("t");
        let outer = log.begin("outer");
        log.within("inner", |log| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert_eq!(log.spans()[1].parent, Some(0));
        });
        log.end(outer);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        let inner = spans[1].end_us - spans[1].start_us;
        assert!(inner >= 5_000);
        assert_eq!(log.self_us(0), spans[0].end_us - spans[0].start_us - inner);
    }

    #[test]
    fn ending_an_outer_span_closes_what_an_early_return_left_open() {
        let mut log = SpanLog::new("t");
        let outer = log.begin("outer");
        let _leaked = log.begin("inner");
        log.end(outer);
        assert_eq!(log.begin("next"), 2);
        assert_eq!(log.spans()[2].parent, None, "nothing is left open");
    }
}
