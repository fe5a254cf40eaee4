//! Shared CSV/JSON serialization helpers for the report exporters
//! ([`crate::CampaignReport`], [`crate::ThermalTrace`],
//! [`crate::SweepReport`]) and the [`JsonValue`] reader behind the wire
//! formats ([`crate::ScenarioSpec`]/[`crate::SweepSpec`] and the
//! [`crate::ResultCache`] disk store).
//!
//! The framework hand-rolls its exports (no external dependencies), so the
//! escaping rules live in exactly one place: CSV fields are quoted whenever
//! they contain a separator, quote, or line break (`\r` included — a bare
//! carriage return splits a record under RFC 4180 just like `\n`), and every
//! floating-point JSON value is emitted as a number only when finite
//! (`NaN`/`inf` are not valid JSON). Reading goes through [`JsonValue`]: a
//! small recursive-descent parser that grew out of the result store's flat
//! line reader when the spec wire format needed nested objects and arrays.

use std::fmt;

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

/// Escapes a string for inclusion inside a JSON string literal (public:
/// the `temu-serve` wire protocol hand-rolls its frames with the same
/// rules the report exporters use).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
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

/// A float as a JSON number with `decimals` places, or `null` when it is
/// not finite (bare `NaN`/`inf` are not valid JSON).
pub(crate) fn json_f64(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        String::from("null")
    }
}

/// `prefix` followed by the float as a JSON number, or by `null` when the
/// value is absent or not finite.
pub(crate) fn json_num_or_null(prefix: &str, v: Option<f64>) -> String {
    match v.filter(|x| x.is_finite()) {
        Some(x) => format!("{prefix}{x:.3}"),
        None => format!("{prefix}null"),
    }
}

// ---------------------------------------------------------------------------
// JsonValue: the reading half of the hand-rolled JSON layer
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
    pub fn parse_prefix(text: &str) -> Result<(JsonValue, usize), String> {
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
            JsonValue::Str(s) => write!(f, "\"{}\"", json_escape(s)),
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
                    write!(f, "\"{}\": {v}", json_escape(k))?;
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
        assert_eq!(json_f64(1.5, 2), "1.50");
        assert_eq!(json_f64(f64::NAN, 2), "null");
        assert_eq!(csv_f64(f64::INFINITY, 2), "");
        assert_eq!(csv_opt(Some(f64::NAN)), "");
        assert_eq!(json_num_or_null("x: ", None), "x: null");
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
}
