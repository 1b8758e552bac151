//! A minimal JSON value, encoder, and parser.
//!
//! The build environment has no crates.io access, so the workspace
//! cannot pull `serde_json`; everything machine-readable the workspace
//! emits (JSONL events, registry snapshots, the coordinator's period
//! and consensus files, bench records) goes through this module
//! instead. The subset implemented is exactly what those producers
//! need — objects, arrays, strings with standard escapes, booleans,
//! null, and numbers — with one deliberate extension over a naive
//! float-only model: integers are carried as `i128` so `u64` byte
//! counters round-trip exactly instead of being flattened through an
//! `f64` (which silently loses precision past 2^53).
//!
//! [`Json::encode`] writes a document into one `String` in one pass:
//! each run of string bytes that needs no escape is one push, and
//! numbers are formatted in place (integers through 64 bits whenever
//! they fit). A coordinator writes its ~190 KB 1000-relay consensus
//! this way at the end of every period, so the encoder is on the path
//! between the last round and the next start. `Display` produces the
//! same bytes.

use std::fmt::{self, Write as _};

/// Maximum nesting depth the parser accepts; anything deeper is a
/// hostile or corrupt document, not telemetry.
const MAX_DEPTH: usize = 64;

/// A parsed or to-be-encoded JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent. `i128` covers the
    /// full `u64` and `i64` ranges, so counters survive a round-trip
    /// bit-exactly.
    Int(i128),
    /// A number written with a fraction or exponent. Encoded with
    /// Rust's shortest-round-trip `Display`, so `parse(encode(x)) == x`
    /// for every finite `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs (insertion order is
    /// preserved on encode; duplicate keys are kept as parsed).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document, requiring it to span the whole input
    /// (modulo surrounding whitespace).
    ///
    /// # Errors
    /// A [`JsonError`] describing the first offending byte offset.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError { pos, what: "trailing bytes after document" });
        }
        Ok(value)
    }
}

impl Json {
    /// The encoded document: compact, keys in insertion order, strings
    /// with standard escapes, non-finite `Num`s as `null`.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded document to `out`: one pass, no temporary
    /// per value.
    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => encode_int(out, *i),
            Json::Num(x) => encode_num(out, *x),
            Json::Str(s) => encode_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (ix, item) in items.iter().enumerate() {
                    if ix > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (ix, (key, value)) in pairs.iter().enumerate() {
                    if ix > 0 {
                        out.push(',');
                    }
                    encode_str(out, key);
                    out.push(':');
                    value.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// An integer in decimal, through a 64-bit path when it fits (every
/// counter and index does): `i128`'s own formatting divides in 128
/// bits.
fn encode_int(out: &mut String, i: i128) {
    let _ = match (i64::try_from(i), u64::try_from(i)) {
        (Ok(small), _) => write!(out, "{small}"),
        (_, Ok(unsigned)) => write!(out, "{unsigned}"),
        _ => write!(out, "{i}"),
    };
}

/// A float, written in place with Rust's shortest round-trip `Display`
/// and a forced fraction so it re-parses as `Num`, not `Int`. JSON has
/// no NaN/inf; telemetry never produces them, but a lossy `null` beats
/// invalid output.
fn encode_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{x}");
    if !out.as_bytes()[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        out.push_str(".0");
    }
}

/// A string, quoted: each run of bytes that needs no escape is one
/// push. A run ends only at an ASCII byte, so every run is whole UTF-8.
fn encode_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (ix, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..ix]);
        run = ix + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{:04x}", b);
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Why a parse failed, with the byte offset of the offense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub pos: usize,
    /// Static description of what went wrong.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.what)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8, what: &'static str) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError { pos: *pos, what })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError { pos: *pos, what: "nesting too deep" });
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError { pos: *pos, what: "unexpected end of input" }),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':', "expected ':' after object key")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(JsonError { pos: *pos, what: "expected ',' or '}'" }),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError { pos: *pos, what: "expected ',' or ']'" }),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError { pos: *pos, what: "unknown literal" })
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError { pos: start, what: "invalid number bytes" })?;
    if text.is_empty() || text == "-" {
        return Err(JsonError { pos: start, what: "expected a value" });
    }
    if fractional {
        let x: f64 =
            text.parse().map_err(|_| JsonError { pos: start, what: "malformed number" })?;
        Ok(Json::Num(x))
    } else {
        let i: i128 =
            text.parse().map_err(|_| JsonError { pos: start, what: "malformed integer" })?;
        Ok(Json::Int(i))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError { pos: *pos, what: "unterminated string" }),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, pos)?;
                        // Surrogate pair: a high surrogate must be
                        // followed by an escaped low surrogate.
                        let c = if (0xd800..0xdc00).contains(&code) {
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(JsonError { pos: *pos, what: "lone high surrogate" });
                            }
                            *pos += 2;
                            let low = parse_hex4(bytes, pos)?;
                            if !(0xdc00..0xe000).contains(&low) {
                                return Err(JsonError { pos: *pos, what: "bad low surrogate" });
                            }
                            let combined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(code)
                        };
                        out.push(c.ok_or(JsonError { pos: *pos, what: "invalid codepoint" })?);
                    }
                    _ => return Err(JsonError { pos: *pos, what: "unknown escape" }),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so the
                // byte stream is valid UTF-8 by construction).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| JsonError { pos: *pos, what: "invalid utf-8" })?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Parses `\uXXXX`'s four hex digits; `pos` is left on the last digit
/// (the caller's shared `*pos += 1` completes the escape).
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let digits = bytes
        .get(*pos + 1..*pos + 5)
        .ok_or(JsonError { pos: *pos, what: "truncated \\u escape" })?;
    let text =
        std::str::from_utf8(digits).map_err(|_| JsonError { pos: *pos, what: "bad \\u digits" })?;
    let code = u32::from_str_radix(text, 16)
        .map_err(|_| JsonError { pos: *pos, what: "bad \\u digits" })?;
    *pos += 4;
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "18446744073709551615"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
        assert_eq!(Json::parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::Num(2.0).to_string(), "2.0", "float stays float on encode");
    }

    #[test]
    fn u64_counters_survive_exactly() {
        let v = Json::Int(i128::from(u64::MAX));
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nwith \"quotes\", tab\t, back\\slash, unicode ☃ and \u{0001}";
        let v = Json::Str(s.to_string());
        let encoded = v.to_string();
        assert!(!encoded.contains('\n'), "newlines must be escaped for JSONL: {encoded}");
        assert_eq!(Json::parse(&encoded).unwrap(), v);
        assert_eq!(Json::parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("😀".to_string()));
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,2.5,{"b":null}],"c":true,"d":"x"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn rejects_garbage() {
        for text in ["", "{", "[1,", "\"abc", "tru", "1.2.3", "{\"a\" 1}", "[] []", "nul"] {
            assert!(Json::parse(text).is_err(), "{text:?} must not parse");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    /// The reference encoder: every string character through `write!`,
    /// every number through a temporary `String`. [`Json::encode`] must
    /// match it byte for byte.
    struct Oracle<'a>(&'a Json);

    impl fmt::Display for Oracle<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0 {
                Json::Null => f.write_str("null"),
                Json::Bool(b) => write!(f, "{b}"),
                Json::Int(i) => write!(f, "{i}"),
                Json::Num(x) => {
                    if x.is_finite() {
                        let s = format!("{x}");
                        if s.contains('.') || s.contains('e') || s.contains('E') {
                            f.write_str(&s)
                        } else {
                            write!(f, "{s}.0")
                        }
                    } else {
                        f.write_str("null")
                    }
                }
                Json::Str(s) => oracle_escaped(f, s),
                Json::Arr(items) => {
                    f.write_str("[")?;
                    for (ix, item) in items.iter().enumerate() {
                        if ix > 0 {
                            f.write_str(",")?;
                        }
                        write!(f, "{}", Oracle(item))?;
                    }
                    f.write_str("]")
                }
                Json::Obj(pairs) => {
                    f.write_str("{")?;
                    for (ix, (key, value)) in pairs.iter().enumerate() {
                        if ix > 0 {
                            f.write_str(",")?;
                        }
                        oracle_escaped(f, key)?;
                        f.write_str(":")?;
                        write!(f, "{}", Oracle(value))?;
                    }
                    f.write_str("}")
                }
            }
        }
    }

    fn oracle_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
        f.write_str("\"")?;
        for c in s.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => write!(f, "{c}")?,
            }
        }
        f.write_str("\"")
    }

    /// Arbitrary documents up to `depth` levels of nesting, weighted
    /// toward what an encoder gets wrong: escapes next to multi-byte
    /// UTF-8, integers at the 64-bit boundaries and the `i128`
    /// extremes, and floats from raw bit patterns (NaN, infinities,
    /// subnormals, `-0.0`, integral values).
    struct ArbJson {
        depth: usize,
    }

    fn arb_string(rng: &mut TestRng) -> String {
        const PALETTE: [char; 14] = [
            'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '☃',
        ];
        (0..rng.gen_index(12))
            .map(|_| match rng.gen_index(4) {
                0 => char::from_u32(rng.gen_index(0x11_0000) as u32).unwrap_or('\u{fffd}'),
                1 => '😀',
                _ => PALETTE[rng.gen_index(PALETTE.len())],
            })
            .collect()
    }

    fn arb_int(rng: &mut TestRng) -> i128 {
        const EDGES: [i128; 12] = [
            0,
            -1,
            i64::MIN as i128,
            i64::MIN as i128 - 1,
            i64::MAX as i128,
            i64::MAX as i128 + 1,
            u64::MAX as i128,
            u64::MAX as i128 + 1,
            -(u64::MAX as i128),
            -(u64::MAX as i128) - 1,
            i128::MIN,
            i128::MAX,
        ];
        match rng.gen_index(4) {
            0 => EDGES[rng.gen_index(EDGES.len())],
            1 => i128::from(rng.next_u64() as i64),
            2 => i128::from(rng.next_u64()),
            _ => (i128::from(rng.next_u64()) << 64) | i128::from(rng.next_u64()),
        }
    }

    fn arb_float(rng: &mut TestRng) -> f64 {
        const EDGES: [f64; 12] = [
            0.0,
            -0.0,
            1.0,
            -2.5,
            1e21,
            1e-7,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        match rng.gen_index(3) {
            0 => EDGES[rng.gen_index(EDGES.len())],
            1 => (rng.next_u64() as i64 >> rng.gen_index(64)) as f64,
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    impl Strategy for ArbJson {
        type Value = Json;
        fn sample(&self, rng: &mut TestRng) -> Json {
            let leaf = self.depth == 0;
            match rng.gen_index(if leaf { 6 } else { 8 }) {
                0 => Json::Null,
                1 => Json::Bool(rng.next_u64() & 1 == 1),
                2 => Json::Int(arb_int(rng)),
                3 => Json::Num(arb_float(rng)),
                4 | 5 => Json::Str(arb_string(rng)),
                6 => {
                    let inner = ArbJson { depth: self.depth - 1 };
                    Json::Arr((0..rng.gen_index(5)).map(|_| inner.sample(rng)).collect())
                }
                _ => {
                    let inner = ArbJson { depth: self.depth - 1 };
                    Json::Obj(
                        (0..rng.gen_index(5))
                            .map(|_| (arb_string(rng), inner.sample(rng)))
                            .collect(),
                    )
                }
            }
        }
    }

    /// What a document reads back as: a non-finite `Num` is written
    /// `null`.
    fn read_back(doc: &Json) -> Json {
        match doc {
            Json::Num(x) if !x.is_finite() => Json::Null,
            Json::Arr(items) => Json::Arr(items.iter().map(read_back).collect()),
            Json::Obj(pairs) => {
                Json::Obj(pairs.iter().map(|(k, v)| (k.clone(), read_back(v))).collect())
            }
            other => other.clone(),
        }
    }

    /// Whether two documents are the same, floats by their bits (so
    /// `-0.0` and `0.0` differ).
    fn same(a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
            (Json::Arr(xs), Json::Arr(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
            }
            (Json::Obj(xs), Json::Obj(ys)) => {
                xs.len() == ys.len()
                    && xs.iter().zip(ys).all(|((kx, x), (ky, y))| kx == ky && same(x, y))
            }
            _ => a == b,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50_000))]

        #[test]
        fn encoder_matches_the_display_oracle_and_reparses(doc in ArbJson { depth: 4 }) {
            let encoded = doc.encode();
            prop_assert_eq!(&encoded, &Oracle(&doc).to_string(), "{:?}", doc);
            prop_assert_eq!(&doc.to_string(), &encoded);
            let parsed = Json::parse(&encoded).unwrap_or_else(|e| panic!("{encoded:?}: {e}"));
            prop_assert!(same(&parsed, &read_back(&doc)), "{:?} read back as {:?}", doc, parsed);
        }
    }
}
