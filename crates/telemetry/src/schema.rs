//! The JSONL run-record schema, plus a dependency-free parser/validator.
//!
//! Each line written by [`crate::sink::JsonlSink`] is one JSON object:
//!
//! ```json
//! {"schema":"pebblyn-telemetry/v1","label":"exact mesh16",
//!  "counters":{"states_expanded":123,...},
//!  "gauges":{"open_list_peak":17,...},
//!  "spans_ns":{"solve":1500000}}
//! ```
//!
//! Counter and gauge maps carry every registered metric (including zeros)
//! so downstream tooling never has to guess at absent keys.  The schema
//! string is bumped on any breaking change to this shape.
//!
//! The parser here is a minimal recursive-descent JSON reader sufficient
//! for validating and pretty-printing these records; the workspace is
//! offline and deliberately serde-free.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::Snapshot;

/// Schema identifier stamped on every JSONL line.
pub const SCHEMA: &str = "pebblyn-telemetry/v1";

/// `s` as a quoted JSON string literal: quotes and backslashes escaped,
/// control characters as `\uXXXX`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_map(pairs: &[(&'static str, u64)]) -> String {
    let mut out = String::from("{");
    for (i, &(k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_str(k), v);
    }
    out.push('}');
    out
}

/// Serialize one run record to a single JSON line (no trailing newline).
pub fn run_to_json(label: &str, snapshot: &Snapshot) -> String {
    format!(
        "{{\"schema\":{},\"label\":{},\"counters\":{},\"gauges\":{},\"spans_ns\":{}}}",
        json_str(SCHEMA),
        json_str(label),
        json_map(&snapshot.counters),
        json_map(&snapshot.gauges),
        json_map(&snapshot.spans_ns),
    )
}

/// One parsed and schema-checked JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Run label as written by the producer.
    pub label: String,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Gauge high-water marks.
    pub gauges: BTreeMap<String, u64>,
    /// Per-phase wall-clock totals in nanoseconds.
    pub spans_ns: BTreeMap<String, u64>,
}

/// Parse and validate a whole JSONL document (one record per non-empty
/// line).  Returns every record or the first error, prefixed with its
/// 1-based line number.
pub fn validate_jsonl(text: &str) -> Result<Vec<RunRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(validate_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

fn validate_line(line: &str) -> Result<RunRecord, String> {
    let value = parse(line)?;
    let obj = value.as_object().ok_or("record is not a JSON object")?;
    match obj.get("schema").and_then(Value::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("unknown schema {s:?}, expected {SCHEMA:?}")),
        None => return Err("missing string field \"schema\"".into()),
    }
    let label = obj
        .get("label")
        .and_then(Value::as_str)
        .ok_or("missing string field \"label\"")?
        .to_string();
    Ok(RunRecord {
        label,
        counters: metric_map(obj, "counters")?,
        gauges: metric_map(obj, "gauges")?,
        spans_ns: metric_map(obj, "spans_ns")?,
    })
}

fn metric_map(obj: &BTreeMap<String, Value>, field: &str) -> Result<BTreeMap<String, u64>, String> {
    let map = obj
        .get(field)
        .and_then(Value::as_object)
        .ok_or_else(|| format!("missing object field {field:?}"))?;
    let mut out = BTreeMap::new();
    for (k, v) in map {
        let n = v
            .as_u64()
            .ok_or_else(|| format!("{field}.{k} is not a non-negative integer"))?;
        out.insert(k.clone(), n);
    }
    Ok(out)
}

/// Render parsed records as an aligned human-readable report (the body of
/// the CLI's `telemetry-report` subcommand).  Zero-valued metrics are
/// omitted; spans are shown in milliseconds.
pub fn report(records: &[RunRecord]) -> String {
    let mut out = String::new();
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let _ = writeln!(out, "run: {}", r.label);
        let width = r
            .counters
            .keys()
            .chain(r.gauges.keys())
            .chain(r.spans_ns.keys())
            .map(String::len)
            .max()
            .unwrap_or(0);
        for (k, &v) in r.counters.iter().chain(&r.gauges) {
            if v != 0 {
                let _ = writeln!(out, "  {k:<width$}  {v}");
            }
        }
        for (k, &ns) in &r.spans_ns {
            let _ = writeln!(out, "  {k:<width$}  {:.3} ms", ns as f64 / 1e6);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, stored as f64 (exact for u64 < 2^53, which covers
    /// every metric this crate emits in practice).
    Number(f64),
    /// String
    Str(String),
    /// Array
    Array(Vec<Value>),
    /// Object (key-sorted)
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Number(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => {
                Some(n as u64)
            }
            _ => None,
        }
    }
}

/// Parse one JSON document, rejecting trailing garbage.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Number)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogates are not emitted by our writer; map them
                        // to the replacement character rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid UTF-8")?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> Snapshot {
        Snapshot {
            counters: vec![("states_expanded", 42), ("moves_emitted", 0)],
            gauges: vec![("open_list_peak", 9)],
            spans_ns: vec![("solve", 1234)],
        }
    }

    #[test]
    fn roundtrip_run_record() {
        let line = run_to_json("exact mesh16", &snap());
        let rec = validate_line(&line).expect("valid");
        assert_eq!(rec.label, "exact mesh16");
        assert_eq!(rec.counters["states_expanded"], 42);
        assert_eq!(rec.counters["moves_emitted"], 0);
        assert_eq!(rec.gauges["open_list_peak"], 9);
        assert_eq!(rec.spans_ns["solve"], 1234);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let line = run_to_json("x", &snap()).replace("/v1", "/v0");
        let err = validate_line(&line).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        let good = run_to_json("x", &snap());
        let doc = format!("{good}\n{{\"schema\":\"pebblyn-telemetry/v1\"}}\n");
        let err = validate_jsonl(&doc).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(validate_jsonl("not json\n").is_err());
        assert!(validate_jsonl("").unwrap().is_empty());
    }

    #[test]
    fn parser_handles_nesting_escapes_and_numbers() {
        let v = parse(r#"{"a":[1,2.5,-3],"b":"q\"\\A","c":{"d":null,"e":true}}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(
            obj["a"],
            Value::Array(vec![
                Value::Number(1.0),
                Value::Number(2.5),
                Value::Number(-3.0)
            ])
        );
        assert_eq!(obj["b"].as_str(), Some("q\"\\A"));
        assert_eq!(obj["c"].as_object().unwrap()["d"], Value::Null);
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(Value::Number(2.5).as_u64().is_none());
        assert_eq!(Value::Number(7.0).as_u64(), Some(7));
    }

    #[test]
    fn report_is_aligned_and_omits_zeros() {
        let recs = validate_jsonl(&run_to_json("r1", &snap())).unwrap();
        let text = report(&recs);
        assert!(text.contains("run: r1"));
        assert!(text.contains("states_expanded"));
        assert!(
            !text.contains("moves_emitted"),
            "zero metric should be omitted"
        );
        assert!(text.contains("ms"));
    }
}
