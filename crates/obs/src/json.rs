//! A minimal recursive-descent JSON parser.
//!
//! The offline build has no `serde`; the trace checker and the round-trip
//! tests only need to *read back* the JSON this crate emits, so a small
//! strict parser (UTF-8 input, `f64` numbers, `\uXXXX` escapes incl.
//! surrogate pairs) is enough.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` — duplicate keys keep the last value.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object, `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    let n: f64 = text.parse().map_err(|_| format!("invalid number {text:?} at byte {start}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number {text:?} at byte {start}"));
    }
    Ok(Json::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect \uXXXX low surrogate.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err("lone high surrogate".to_string());
                            }
                            let lo = parse_hex4(bytes, *pos + 3)?;
                            *pos += 6;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid low surrogate".to_string());
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| "invalid unicode escape".to_string())?,
                        );
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(format!("raw control byte {b:#04x} in string")),
            Some(_) => {
                // Copy a maximal run of plain bytes in one go. The stop
                // bytes ('"', '\\', and controls) are all ASCII and can
                // never occur inside a multi-byte UTF-8 scalar, and the
                // input came from a `&str`, so the run is valid UTF-8.
                let start = *pos;
                while *pos < bytes.len()
                    && bytes[*pos] != b'"'
                    && bytes[*pos] != b'\\'
                    && bytes[*pos] >= 0x20
                {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let slice = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    let text = std::str::from_utf8(slice).map_err(|e| e.to_string())?;
    u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape {text:?}"))
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        map.insert(key, parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

/// Escape `text` as the body of a JSON string literal (no quotes added).
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// An incremental JSON document writer: the single escaping/formatting
/// path shared by the Chrome-trace exporter, the JSONL telemetry stream,
/// the flight recorder, and the serve daemon's HTTP responses.
///
/// Commas are inserted automatically; the caller supplies structure:
///
/// ```
/// use llmpilot_obs::json::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("name");
/// w.string("A100");
/// w.key("pods");
/// w.u64(3);
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"name":"A100","pods":3}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: whether a comma is due before the
    /// next key/value at that level.
    needs_comma: Vec<bool>,
    /// A key was just written; the next value completes the pair.
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// A writer with a pre-reserved output buffer.
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter { out: String::with_capacity(bytes), ..JsonWriter::default() }
    }

    fn before_item(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(due) = self.needs_comma.last_mut() {
            if std::mem::replace(due, true) {
                self.out.push(',');
            }
        }
    }

    /// Open an object (`{`).
    pub fn begin_object(&mut self) {
        self.before_item();
        self.out.push('{');
        self.needs_comma.push(false);
    }

    /// Close the innermost object (`}`).
    pub fn end_object(&mut self) {
        self.needs_comma.pop();
        self.out.push('}');
    }

    /// Open an array (`[`).
    pub fn begin_array(&mut self) {
        self.before_item();
        self.out.push('[');
        self.needs_comma.push(false);
    }

    /// Close the innermost array (`]`).
    pub fn end_array(&mut self) {
        self.needs_comma.pop();
        self.out.push(']');
    }

    /// Write an object key (escaped); the next value completes the pair.
    pub fn key(&mut self, key: &str) {
        self.before_item();
        self.out.push('"');
        self.out.push_str(&escape(key));
        self.out.push_str("\":");
        self.after_key = true;
    }

    /// Write a string value (escaped and quoted).
    pub fn string(&mut self, value: &str) {
        self.before_item();
        self.out.push('"');
        self.out.push_str(&escape(value));
        self.out.push('"');
    }

    /// Write an unsigned integer value.
    pub fn u64(&mut self, value: u64) {
        self.before_item();
        self.out.push_str(&value.to_string());
    }

    /// Write a signed integer value.
    pub fn i64(&mut self, value: i64) {
        self.before_item();
        self.out.push_str(&value.to_string());
    }

    /// Write a float value. Integral floats gain a `.0` so they read back
    /// as numbers; JSON has no NaN/Inf, so non-finite values are emitted
    /// as their string form to keep the document valid.
    pub fn f64(&mut self, value: f64) {
        if !value.is_finite() {
            self.string(&value.to_string());
            return;
        }
        self.before_item();
        let mut s = format!("{value}");
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            s.push_str(".0");
        }
        self.out.push_str(&s);
    }

    /// Write a boolean value.
    pub fn bool(&mut self, value: bool) {
        self.before_item();
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Write `null`.
    pub fn null(&mut self) {
        self.before_item();
        self.out.push_str("null");
    }

    /// Write a pre-rendered JSON value verbatim (escape hatch for exact
    /// decimal timestamps the `f64` path would round).
    pub fn raw(&mut self, rendered: &str) {
        self.before_item();
        self.out.push_str(rendered);
    }

    /// Insert a raw newline into the output (cosmetic only; legal JSON
    /// whitespace between values).
    pub fn newline(&mut self) {
        self.out.push('\n');
    }

    /// Finish and return the document text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let doc = r#"{"a": [1, -2.5, 1e3], "b": {"t": true, "n": null}, "s": "x\ny"}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_f64(), Some(1.0));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(-2.5));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(1000.0));
        assert_eq!(v.get("b").unwrap().get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("n"), Some(&Json::Null));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn escape_round_trips() {
        let inputs = ["plain", "quo\"te", "back\\slash", "new\nline", "tab\t", "µs → ns", "\u{1}"];
        for original in inputs {
            let doc = format!("\"{}\"", escape(original));
            assert_eq!(parse(&doc).unwrap().as_str(), Some(original), "doc = {doc}");
        }
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(parse(r#""µs""#).unwrap().as_str(), Some("µs"));
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated", "[1]]"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn as_u64_guards_range_and_fraction() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn writer_output_parses_back() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("items");
        w.begin_array();
        w.u64(1);
        w.string("two\n");
        w.f64(3.0);
        w.bool(false);
        w.null();
        w.begin_object();
        w.key("nested");
        w.i64(-4);
        w.end_object();
        w.end_array();
        w.key("raw");
        w.raw("12.345");
        w.end_object();
        let doc = w.finish();
        let v = parse(&doc).unwrap();
        let items = v.get("items").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 6);
        assert_eq!(items[1].as_str(), Some("two\n"));
        assert_eq!(items[2].as_f64(), Some(3.0));
        assert_eq!(items[5].get("nested").unwrap().as_f64(), Some(-4.0));
        assert_eq!(v.get("raw").unwrap().as_f64(), Some(12.345));
    }

    #[test]
    fn writer_handles_empty_containers_and_nonfinite_floats() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("empty_arr");
        w.begin_array();
        w.end_array();
        w.key("empty_obj");
        w.begin_object();
        w.end_object();
        w.key("nan");
        w.f64(f64::NAN);
        w.end_object();
        let doc = w.finish();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("empty_arr").unwrap().as_array().unwrap().len(), 0);
        assert_eq!(v.get("nan").unwrap().as_str(), Some("NaN"));
    }
}
