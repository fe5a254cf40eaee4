//! The workspace's one JSON writer and reader, plus the CSV field helpers
//! of the report exporters.
//!
//! Every JSON object temu emits — reports, store and journal records,
//! `temu-serve` and `temu-router` frames, client requests, `BENCH_*.json`
//! — is built by [`JsonObject`], so this module alone decides escaping,
//! float formatting and layout. It has two layouts:
//!
//! * [`JsonObject::line`]: `{"a": 1, "b": "x"}`, every frame and record;
//! * [`JsonObject::document`]: one field per line at a two-space indent,
//!   with [`JsonObject::rows`] arrays of one row per line — the reports
//!   and `BENCH_*.json`.
//!
//! The float rule: a float is a JSON number only when finite, `null` when
//! absent, `NaN` or infinite (bare `NaN`/`inf` are not JSON).
//! [`JsonObject::num`] writes fixed decimals; the spec wire format, whose
//! content keys need shortest round-trip floats, writes [`JsonValue::Num`].
//!
//! CSV fields are quoted whenever they contain a separator, quote, or line
//! break (`\r` included — a bare carriage return splits a record under
//! RFC 4180 just like `\n`). Reading goes through [`JsonValue`]: a small
//! recursive-descent parser that keeps object key order.

use std::fmt::{self, Write as _};

/// Quotes a CSV field when it contains separators, quotes, or line breaks.
pub(crate) fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A float as a CSV field, empty when not finite.
pub(crate) fn csv_f64(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        String::new()
    }
}

/// An optional float as a CSV field, empty when absent or not finite.
pub(crate) fn csv_opt(v: Option<f64>) -> String {
    v.filter(|x| x.is_finite()).map_or_else(String::new, |x| format!("{x:.3}"))
}

/// Writes `s` with JSON string escapes, without the surrounding quotes.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    Ok(())
}

/// Builds one JSON object, appending every field straight into one
/// `String` (see the module docs for the layouts and the float rule).
#[derive(Debug)]
#[must_use]
pub struct JsonObject {
    out: String,
    document: bool,
    empty: bool,
}

impl JsonObject {
    /// A one-line object: `{"a": 1, "b": "x"}`.
    pub fn line() -> JsonObject {
        JsonObject { out: String::from("{"), document: false, empty: true }
    }

    /// A document: one field per line at a two-space indent, ending with
    /// `}` and a newline.
    pub fn document() -> JsonObject {
        JsonObject { out: String::from("{\n"), document: true, empty: true }
    }

    fn separate(&mut self) {
        if !self.empty {
            self.out.push_str(if self.document { ",\n" } else { ", " });
        }
        self.empty = false;
        if self.document {
            self.out.push_str("  ");
        }
    }

    fn key(&mut self, key: &str) {
        self.separate();
        self.push_quoted(key);
        self.out.push_str(": ");
    }

    fn push_quoted(&mut self, s: &str) {
        self.out.push('"');
        let _ = write_escaped(&mut self.out, s);
        self.out.push('"');
    }

    /// `"key": value` with `value` already JSON: an integer, a bool, a
    /// nested object or array, or a [`JsonValue`] (a nullable string or
    /// integer, or a shortest round-trip float).
    pub fn raw(mut self, key: &str, value: impl fmt::Display) -> JsonObject {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// `"key": "value"` with `value` escaped.
    pub fn str(mut self, key: &str, value: &str) -> JsonObject {
        self.key(key);
        self.push_quoted(value);
        self
    }

    /// `"key": value` with `decimals` places, or `null` when the value is
    /// absent or not finite.
    pub fn num(mut self, key: &str, value: impl Into<Option<f64>>, decimals: usize) -> JsonObject {
        self.key(key);
        match value.into().filter(|v| v.is_finite()) {
            Some(v) => {
                let _ = write!(self.out, "{v:.decimals$}");
            }
            None => self.out.push_str("null"),
        }
        self
    }

    /// [`JsonObject::raw`] when `value` is present; nothing for `None`.
    pub fn opt_raw(self, key: &str, value: Option<impl fmt::Display>) -> JsonObject {
        match value {
            Some(v) => self.raw(key, v),
            None => self,
        }
    }

    /// [`JsonObject::str`] when `value` is present; nothing for `None`.
    pub fn opt_str(self, key: &str, value: Option<&str>) -> JsonObject {
        match value {
            Some(v) => self.str(key, v),
            None => self,
        }
    }

    /// Splices in fields that are already rendered (`"a": 1, "b": 2`,
    /// without braces) as the next field; nothing when `rendered` is empty.
    pub fn fields(mut self, rendered: &str) -> JsonObject {
        if !rendered.is_empty() {
            self.separate();
            self.out.push_str(rendered);
        }
        self
    }

    /// `"key": [...]` in the document layout: `[`, one already-rendered
    /// row per line at a four-space indent, then `  ]` (an empty list is
    /// `[\n  ]`).
    pub fn rows(mut self, key: &str, rows: impl IntoIterator<Item = String>) -> JsonObject {
        self.key(key);
        self.out.push('[');
        let mut first = true;
        for row in rows {
            self.out.push_str(if first { "\n    " } else { ",\n    " });
            self.out.push_str(&row);
            first = false;
        }
        self.out.push_str("\n  ]");
        self
    }

    /// Closes the object and returns its text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out.push_str(if self.document { "\n}\n" } else { "}" });
        self.out
    }
}

/// A one-line JSON array of already-rendered items: `[1, 2, 3]`.
#[must_use]
pub fn json_array<T: fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{item}");
    }
    out.push(']');
    out
}

// ---------------------------------------------------------------------------
// JsonValue: the reading half of the JSON layer
// ---------------------------------------------------------------------------

/// One parsed JSON value.
///
/// This is the reader behind every wire format in the workspace — the
/// [`crate::ResultCache`] store lines, the [`crate::ScenarioSpec`] /
/// [`crate::SweepSpec`] experiment specs, and the `temu-serve` protocol
/// frames. Objects keep their key order (a `Vec` of pairs, not a map), so
/// a parse → inspect → re-render round trip is deterministic.
#[derive(Clone, PartialEq, Debug)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers above 2^53 lose precision, like every
    /// f64-backed JSON reader).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source key order.
    Obj(Vec<(String, JsonValue)>),
}

/// Nesting cap of the parser: deeper input is rejected instead of
/// recursing toward a stack overflow (the server parses untrusted bytes).
const MAX_JSON_DEPTH: usize = 64;

impl JsonValue {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error (one NDJSON line holds exactly one value).
    ///
    /// # Errors
    ///
    /// A human-readable description with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let (v, end) = JsonValue::parse_prefix(text)?;
        match text.as_bytes()[end..].iter().position(|b| !b.is_ascii_whitespace()) {
            Some(at) => Err(format!("trailing characters at byte {}", end + at)),
            None => Ok(v),
        }
    }

    /// Parses the JSON value at the head of `text` (after any leading
    /// whitespace) and returns it with the byte offset just past it, so
    /// whatever follows can be read on.
    ///
    /// # Errors
    ///
    /// A human-readable description with the byte offset of the problem.
    fn parse_prefix(text: &str) -> Result<(JsonValue, usize), String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        Ok((v, p.pos))
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a whole non-negative
    /// number in range (the bound is exclusive: 1.8446744073709552e19 is
    /// exactly 2^64, the first value the `as` cast would saturate).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 1.8446744073709552e19 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a signed integer, if it is a whole number in range
    /// (bounds exclusive on the positive side for the same saturation
    /// reason as [`JsonValue::as_u64`]).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(n)
                if n.fract() == 0.0
                    && *n >= -9.223372036854776e18
                    && *n < 9.223372036854776e18 =>
            {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a whole non-negative number that
    /// fits.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields in source order, if it is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// A short name of the value's JSON type, for error messages.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "boolean",
            JsonValue::Num(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Arr(_) => "array",
            JsonValue::Obj(_) => "object",
        }
    }
}

impl fmt::Display for JsonValue {
    /// Renders the value back as compact single-line JSON (non-finite
    /// numbers degrade to `null`, like every exporter in the workspace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(n) if n.is_finite() => write!(f, "{n}"),
            JsonValue::Num(_) => f.write_str("null"),
            JsonValue::Str(s) => {
                f.write_char('"')?;
                write_escaped(f, s)?;
                f.write_char('"')
            }
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    f.write_char('"')?;
                    write_escaped(f, k)?;
                    write!(f, "\": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_JSON_DEPTH {
            return Err(format!("nesting deeper than {MAX_JSON_DEPTH} at byte {}", self.pos));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected character '{}' at byte {}", c as char, self.pos)),
            None => Err(String::from("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number bytes");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("malformed number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy unescaped UTF-8 runs wholesale.
            let run = self.pos;
            while self.peek().is_some_and(|c| c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[run..self.pos])
                    .map_err(|_| format!("invalid UTF-8 in string at byte {run}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            if (0xd800..0xdc00).contains(&code) {
                                // A high surrogate combines with a
                                // following low surrogate; anything else
                                // degrades to U+FFFD for the unpaired
                                // half without swallowing what follows.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if (0xdc00..0xe000).contains(&low) {
                                        let combined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                        out.push(char::from_u32(combined).unwrap_or('\u{fffd}'));
                                    } else {
                                        out.push('\u{fffd}');
                                        out.push(char::from_u32(low).unwrap_or('\u{fffd}'));
                                    }
                                } else {
                                    out.push('\u{fffd}');
                                }
                            } else {
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                        }
                        other => {
                            return Err(format!(
                                "unknown escape '\\{}' at byte {}",
                                other as char,
                                self.pos - 1
                            ))
                        }
                    }
                }
                None => return Err(String::from("unterminated string")),
                Some(_) => unreachable!("run loop stops only at quote or backslash"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or("truncated \\u escape")?;
            let digit = (c as char).to_digit(16).ok_or(format!("bad hex digit at byte {}", self.pos))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn csv_field_quotes_all_breaking_characters() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("line\nbreak"), "\"line\nbreak\"");
        assert_eq!(csv_field("carriage\rreturn"), "\"carriage\rreturn\"", "\\r must be quoted too");
    }

    #[test]
    fn float_helpers_guard_non_finite_values() {
        let line = JsonObject::line()
            .num("a", 1.5, 2)
            .num("b", f64::NAN, 2)
            .num("c", None, 3)
            .num("d", Some(f64::NEG_INFINITY), 1)
            .finish();
        assert_eq!(line, r#"{"a": 1.50, "b": null, "c": null, "d": null}"#);
        assert_eq!(csv_f64(f64::INFINITY, 2), "");
        assert_eq!(csv_opt(Some(f64::NAN)), "");
    }

    #[test]
    fn writer_layouts_are_exact() {
        let inner = JsonObject::line().raw("n", 1).str("s", "x").finish();
        let line = JsonObject::line()
            .str("k\"ey", "a\"b\\c\n\u{1}/é😀")
            .raw("nested", &inner)
            .raw("arr", json_array([1, 2]))
            .raw("null_str", JsonValue::Null)
            .opt_raw("absent", None::<u64>)
            .opt_str("present", Some("p"))
            .fields("\"spliced\": true, \"more\": 2")
            .fields("")
            .finish();
        assert_eq!(
            line,
            "{\"k\\\"ey\": \"a\\\"b\\\\c\\n\\u0001/é😀\", \"nested\": {\"n\": 1, \"s\": \"x\"}, \"arr\": [1, 2], \
             \"null_str\": null, \"present\": \"p\", \"spliced\": true, \"more\": 2}"
        );
        assert_eq!(JsonObject::line().finish(), "{}");
        assert_eq!(JsonObject::line().fields("\"seq\": 1").finish(), "{\"seq\": 1}");
        let doc = JsonObject::document()
            .raw("a", 1)
            .rows("rows", vec![inner.clone(), inner])
            .rows("none", Vec::new())
            .finish();
        assert_eq!(
            doc,
            "{\n  \"a\": 1,\n  \"rows\": [\n    {\"n\": 1, \"s\": \"x\"},\n    {\"n\": 1, \"s\": \"x\"}\n  ],\n  \"none\": [\n  ]\n}\n"
        );
        assert_eq!(json_array(Vec::<u8>::new()), "[]");
        let rows = JsonValue::parse(&doc).unwrap().get("rows").and_then(|r| r.as_arr().map(<[_]>::len));
        assert_eq!(rows, Some(2));
    }

    #[test]
    fn json_value_parses_nested_documents() {
        let v = JsonValue::parse(
            r#"{"name": "sérve", "n": -2.5e1, "ok": true, "none": null,
                "axes": [{"axis": "cores", "values": [1, 2]}, []]}"#,
        )
        .unwrap();
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("sérve"));
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(-25.0));
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        let axes = v.get("axes").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(axes.len(), 2);
        let values = axes[0].get("values").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(values[1].as_u64(), Some(2));
        assert_eq!(values[1].as_usize(), Some(2));
    }

    #[test]
    fn parse_prefix_stops_after_the_first_value() {
        let text = r#" {"s": "}{", "o": {"x": 1}}{"next": 2}"#;
        let (v, end) = JsonValue::parse_prefix(text).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("}{"));
        assert_eq!(&text[end..], r#"{"next": 2}"#);
        assert!(JsonValue::parse(text).unwrap_err().contains("trailing characters"));
        assert!(JsonValue::parse_prefix(r#"{"torn": "#).is_err());
    }

    #[test]
    fn json_value_round_trips_through_display() {
        let text = r#"{"a": [1, "two", {"b": false}], "c": null}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(JsonValue::parse(&v.to_string()).unwrap(), v, "render → reparse is stable");
    }

    #[test]
    fn json_value_handles_escapes_and_surrogates() {
        let v = JsonValue::parse(r#""a\"b\\c\n\t😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\n\t😀"));
        // A valid surrogate pair combines.
        assert_eq!(JsonValue::parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        // Unpaired halves degrade to U+FFFD without swallowing what
        // follows.
        assert_eq!(JsonValue::parse(r#""\ud800A""#).unwrap().as_str(), Some("\u{fffd}A"));
        assert_eq!(JsonValue::parse(r#""\ud800""#).unwrap().as_str(), Some("\u{fffd}"));
        assert_eq!(JsonValue::parse(r#""\udc00x""#).unwrap().as_str(), Some("\u{fffd}x"));
    }

    #[test]
    fn json_value_rejects_malformed_input() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("{\"a\": }").is_err());
        assert!(JsonValue::parse("[1, 2] trailing").is_err());
        assert!(JsonValue::parse("{\"a\": 1,, \"b\": 2}").is_err());
        assert!(JsonValue::parse("nul").is_err());
        assert!(JsonValue::parse("1.2.3").is_err());
        // Nesting past the cap is an error, not a stack overflow.
        let deep = format!("{}1{}", "[".repeat(500), "]".repeat(500));
        assert!(JsonValue::parse(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn json_value_integer_accessors_reject_fractions_and_negatives() {
        assert_eq!(JsonValue::Num(3.5).as_u64(), None);
        assert_eq!(JsonValue::Num(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Num(3.0).as_u64(), Some(3));
        assert_eq!(JsonValue::Str(String::from("3")).as_u64(), None);
        // 2^64 would saturate the cast; the largest representable f64
        // below it converts exactly.
        assert_eq!(JsonValue::Num(18446744073709551616.0).as_u64(), None);
        assert_eq!(JsonValue::Num(18446744073709549568.0).as_u64(), Some(18_446_744_073_709_549_568));
        assert_eq!(JsonValue::Num(-3.0).as_i64(), Some(-3));
        assert_eq!(JsonValue::Num(3.0).as_i64(), Some(3));
        assert_eq!(JsonValue::Num(3.5).as_i64(), None);
        assert_eq!(JsonValue::Num(9223372036854775808.0).as_i64(), None);
        assert_eq!(JsonValue::Num(-9223372036854775808.0).as_i64(), Some(i64::MIN));
    }

    /// Characters that stress the escaper: quotes, backslashes, control
    /// characters, `/`, non-ASCII and astral-plane characters.
    const NASTY: &[char] = &[
        'a', 'Z', '0', ' ', ':', ',', '{', '}', '[', ']', '"', '\\', '/', '\n', '\r', '\t', '\u{0}',
        '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é', 'ß', '中', '\u{2028}', '\u{fffd}', '😀',
        '𝄞', '\u{10ffff}',
    ];

    fn nasty_string() -> impl Strategy<Value = String> {
        prop::collection::vec(prop::sample::select(NASTY), 0..16)
            .prop_map(|cs| cs.into_iter().collect())
    }

    fn any_float() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            any::<u64>().prop_map(f64::from_bits),
            (-1_000_000_000i64..1_000_000_000).prop_map(|v| v as f64 / 1024.0),
        ]
    }

    /// The float `num` wrote, as read back: `null` exactly when it was not
    /// finite, and otherwise within half a unit of the last decimal.
    fn check_float(read: &JsonValue, wrote: f64, decimals: i32) {
        if !wrote.is_finite() {
            assert_eq!(read, &JsonValue::Null);
            return;
        }
        let got = read.as_f64().unwrap_or_else(|| panic!("{wrote} read back as {read:?}"));
        let tolerance = 0.5 * 10f64.powi(-decimals) + wrote.abs() * 1e-15;
        assert!((got - wrote).abs() <= tolerance, "{wrote} read back as {got}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn everything_the_writer_emits_parses_back(
            k1 in nasty_string(),
            k2 in nasty_string(),
            v1 in nasty_string(),
            v2 in nasty_string(),
            x in any_float(),
            decimals in 0usize..10,
        ) {
            let inner = JsonObject::line().str(&k2, &v2).num(&k1, x, decimals).finish();
            for doc in [false, true] {
                let obj = if doc { JsonObject::document() } else { JsonObject::line() };
                let text = obj
                    .str(&k1, &v1)
                    .num(&k2, x, decimals)
                    .opt_str(&v1, Some(&v2))
                    .raw("nested", &inner)
                    .raw("array", json_array([JsonValue::Str(v1.clone()), JsonValue::Num(x)]))
                    .rows("rows", vec![inner.clone(), inner.clone()])
                    .finish();
                let parsed = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{e}: {text:?}"));
                let fields = parsed.as_obj().unwrap();
                let text = |(k, v): &(String, JsonValue)| (k.clone(), v.as_str().map(String::from));
                prop_assert_eq!(fields.len(), 6);
                prop_assert_eq!(text(&fields[0]), (k1.clone(), Some(v1.clone())));
                prop_assert_eq!(fields[1].0.as_str(), k2.as_str());
                check_float(&fields[1].1, x, decimals as i32);
                prop_assert_eq!(text(&fields[2]), (v1.clone(), Some(v2.clone())));
                let nested = fields[3].1.as_obj().unwrap();
                prop_assert_eq!(text(&nested[0]), (k2.clone(), Some(v2.clone())));
                check_float(&nested[1].1, x, decimals as i32);
                let array = fields[4].1.as_arr().unwrap();
                prop_assert_eq!(array[0].as_str(), Some(v1.as_str()));
                let bits = array[1].as_f64().map(f64::to_bits);
                prop_assert_eq!(bits, x.is_finite().then_some(x.to_bits()));
                prop_assert_eq!(fields[5].1.as_arr().map(<[_]>::len), Some(2));
            }
        }
    }
}
