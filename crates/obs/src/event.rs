//! Structured events: one record per observable occurrence, carrying a
//! monotonic timestamp, a dotted `kind`, the scope coordinates of the
//! period hierarchy (period → group → channel, plus the
//! cross-process trace id), and free-form typed fields.
//!
//! Every event has two faithful encodings: a single JSONL line (for
//! machines and replay) and a human text line (for operator stderr).
//! [`Event::to_json_line`] / [`Event::parse_json_line`] are exact
//! inverses for every representable event — the property test in this
//! module is the contract `flashflow-top`'s replay mode depends on.

use crate::json::Json;

/// A typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer (byte counts, seconds, indices).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (rates, ratios).
    F64(f64),
    /// A flag.
    Bool(bool),
    /// Free text (reasons, addresses, fingerprints).
    Str(String),
}

impl Value {
    /// The value as `u64` if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice if it is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn to_json(&self) -> Json {
        match self {
            Value::U64(v) => Json::Int(i128::from(*v)),
            Value::I64(v) => Json::Int(i128::from(*v)),
            Value::F64(v) => Json::Num(*v),
            Value::Bool(v) => Json::Bool(*v),
            Value::Str(s) => Json::Str(s.clone()),
        }
    }

    fn from_json(json: &Json) -> Option<Value> {
        match json {
            // Non-negative integers decode as U64, negative as I64:
            // the JSON integer carries no signedness, so the encoding
            // canonicalizes (see `canonical` on [`Event`]'s docs).
            Json::Int(i) => u64::try_from(*i)
                .map(Value::U64)
                .ok()
                .or_else(|| i64::try_from(*i).map(Value::I64).ok()),
            Json::Num(x) => Some(Value::F64(*x)),
            Json::Bool(b) => Some(Value::Bool(*b)),
            Json::Str(s) => Some(Value::Str(s.clone())),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// Where in the period hierarchy an event happened. All coordinates are
/// optional: a process-level event has none, a per-channel sample has
/// most of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Scope {
    /// Measurement period number.
    pub period: Option<u64>,
    /// Item group index within the period.
    pub group: Option<u64>,
    /// Data channel index.
    pub channel: Option<u64>,
    /// Control session id (process side).
    pub session: Option<u64>,
    /// Cross-process trace id: the coordinator-minted correlation key
    /// of one item-attempt, carried over the wire (protocol v6) and
    /// stamped by every peer — the join key that merges the
    /// coordinator's, the measurers', and the relay's JSONL streams
    /// into one causal record.
    pub trace: Option<u64>,
}

impl Scope {
    /// The empty scope.
    pub fn root() -> Scope {
        Scope::default()
    }

    const KEYS: [&'static str; 5] = ["period", "group", "channel", "session", "trace"];

    fn slots(&self) -> [Option<u64>; 5] {
        [self.period, self.group, self.channel, self.session, self.trace]
    }

    fn set(&mut self, key: &str, value: u64) {
        match key {
            "period" => self.period = Some(value),
            "group" => self.group = Some(value),
            "channel" => self.channel = Some(value),
            "session" => self.session = Some(value),
            "trace" => self.trace = Some(value),
            _ => {}
        }
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Seconds since the sink's start (monotonic, sub-ms resolution).
    pub ts: f64,
    /// Dotted event kind (`"period.start"`, `"session.sample"`, …).
    pub kind: String,
    /// Period-hierarchy coordinates.
    pub scope: Scope,
    /// Typed fields, in emission order.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// The first field named `name`.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// The first field named `name` as a `u64`.
    pub fn u64_field(&self, name: &str) -> Option<u64> {
        self.field(name).and_then(Value::as_u64)
    }

    /// The first field named `name` as an `f64`.
    pub fn f64_field(&self, name: &str) -> Option<f64> {
        self.field(name).and_then(Value::as_f64)
    }

    /// The event as one JSONL line (no trailing newline):
    /// `{"ts":…,"kind":…,<scope coords>,<fields…>}`. Scope coordinates
    /// and fields share the flat object; scope keys come first and are
    /// reserved (an event field named e.g. `"group"` would collide, so
    /// field names must avoid `ts`, `kind`, and the scope keys).
    pub fn to_json_line(&self) -> String {
        let mut pairs: Vec<(String, Json)> = vec![
            ("ts".to_string(), Json::Num(self.ts)),
            ("kind".to_string(), Json::Str(self.kind.clone())),
        ];
        for (key, slot) in Scope::KEYS.iter().zip(self.scope.slots()) {
            if let Some(v) = slot {
                pairs.push(((*key).to_string(), Json::Int(i128::from(v))));
            }
        }
        for (key, value) in &self.fields {
            pairs.push((key.clone(), value.to_json()));
        }
        Json::Obj(pairs).encode()
    }

    /// Parses one JSONL line back into an event.
    ///
    /// # Errors
    /// A description of the first malformed part.
    pub fn parse_json_line(line: &str) -> Result<Event, String> {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        let Json::Obj(pairs) = &doc else {
            return Err("event line must be a JSON object".to_string());
        };
        let ts = doc.get("ts").and_then(Json::as_f64).ok_or("missing ts")?;
        let kind = doc.get("kind").and_then(Json::as_str).ok_or("missing kind")?.to_string();
        let mut scope = Scope::root();
        let mut fields = Vec::new();
        for (key, value) in pairs {
            if key == "ts" || key == "kind" {
                continue;
            }
            if Scope::KEYS.contains(&key.as_str()) {
                scope.set(key, value.as_u64().ok_or_else(|| format!("scope {key} not a u64"))?);
            } else {
                fields.push((
                    key.clone(),
                    Value::from_json(value)
                        .ok_or_else(|| format!("field {key} unrepresentable"))?,
                ));
            }
        }
        Ok(Event { ts, kind, scope, fields })
    }

    /// The event as one human-readable text line (no trailing newline):
    /// `[   12.345] kind period=0 group=2 bytes=4096 …`.
    pub fn to_text_line(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "[{:9.3}] {}", self.ts, self.kind);
        for (key, slot) in Scope::KEYS.iter().zip(self.scope.slots()) {
            if let Some(v) = slot {
                let _ = write!(out, " {key}={v}");
            }
        }
        for (key, value) in &self.fields {
            match value {
                Value::U64(v) => {
                    let _ = write!(out, " {key}={v}");
                }
                Value::I64(v) => {
                    let _ = write!(out, " {key}={v}");
                }
                Value::F64(v) => {
                    let _ = write!(out, " {key}={v:.3}");
                }
                Value::Bool(v) => {
                    let _ = write!(out, " {key}={v}");
                }
                Value::Str(s) => {
                    let _ = write!(out, " {key}={s:?}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_event() -> Event {
        Event {
            ts: 12.5,
            kind: "session.sample".to_string(),
            scope: Scope { period: Some(1), group: Some(2), ..Scope::root() },
            fields: vec![
                ("peer".to_string(), Value::U64(3)),
                ("bytes".to_string(), Value::U64(u64::MAX)),
                ("rate".to_string(), Value::F64(0.25)),
                ("clean".to_string(), Value::Bool(true)),
                ("addr".to_string(), Value::Str("127.0.0.1:9\nline".to_string())),
            ],
        }
    }

    #[test]
    fn json_line_round_trips() {
        let ev = sample_event();
        let line = ev.to_json_line();
        assert!(!line.contains('\n'), "JSONL lines must be newline-free: {line}");
        assert_eq!(Event::parse_json_line(&line).unwrap(), ev);
    }

    #[test]
    fn text_line_is_single_line_and_labelled() {
        let text = sample_event().to_text_line();
        assert!(!text.contains('\n'));
        assert!(text.contains("session.sample"));
        assert!(text.contains("period=1"));
        assert!(text.contains("bytes=18446744073709551615"));
    }

    #[test]
    fn field_accessors() {
        let ev = sample_event();
        assert_eq!(ev.u64_field("peer"), Some(3));
        assert_eq!(ev.f64_field("rate"), Some(0.25));
        assert!(ev.field("missing").is_none());
    }

    proptest! {
        #[test]
        fn any_event_round_trips_through_jsonl(
            ts in 0.0f64..1.0e6,
            period in 0u64..1000,
            group in 0u64..64,
            n_fields in 0usize..6,
            u in proptest::collection::vec(0u64..=u64::MAX, 6),
            f in proptest::collection::vec(-1.0e9f64..1.0e9, 6),
            s in proptest::collection::vec(0u32..4, 6),
        ) {
            let fields: Vec<(String, Value)> = (0..n_fields)
                .map(|i| {
                    let value = match s[i] {
                        0 => Value::U64(u[i]),
                        1 => Value::F64(f[i]),
                        2 => Value::Bool(u[i] % 2 == 0),
                        _ => Value::Str(format!("s-{}-\"quoted\"\n\t☃", u[i])),
                    };
                    (format!("f{i}"), value)
                })
                .collect();
            let ev = Event {
                ts,
                kind: format!("kind.{period}"),
                scope: Scope { period: Some(period), group: Some(group), ..Scope::root() },
                fields,
            };
            let line = ev.to_json_line();
            prop_assert!(!line.contains('\n'));
            let back = Event::parse_json_line(&line).unwrap();
            prop_assert_eq!(back, ev);
        }
    }
}
