//! A hand-rolled JSON value model, writer, and parser (std only).
//!
//! The serve protocol is line-delimited JSON and the analyze layer's
//! certificates round-trip through the same format; the build environment
//! has no registry access, so this module implements the needed subset
//! of RFC 8259 directly: objects, arrays, strings (with the standard
//! escapes plus `\uXXXX`), finite numbers, booleans, and null.
//!
//! Deliberate deviations, all in the *writer*:
//!
//! * object member order is preserved (members are a `Vec`, not a map),
//!   so output is deterministic and diff-friendly;
//! * non-finite numbers serialize as `null` (JSON has no NaN/Inf);
//! * output is single-line — never contains a raw newline — so a value
//!   per line *is* the framing.
//!
//! The parser accepts any whitespace-insensitive standard JSON document
//! and rejects trailing garbage, duplicate-key objects are allowed
//! (last occurrence wins via [`Json::get`]'s first-match — callers in
//! this workspace never emit duplicates).

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for a number value.
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// Member lookup on objects (first match); `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (rejects fractions, negatives, and magnitudes beyond
    /// `2^53` where `f64` loses integer exactness).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && *v <= 9.007_199_254_740_992e15 && v.fract() == 0.0 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to a single-line JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => num_into(*v, out),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `v` as the writer prints a [`Json::Num`], for callers that
/// write a document straight into its buffer.
pub fn num_into(v: f64, out: &mut String) {
    if v.is_finite() {
        // `{}` on f64 prints the shortest round-trip form.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Append `s` as a quoted JSON string, likewise.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn bytes(&self) -> &[u8] {
        self.text.as_bytes()
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one
            // piece; both are ASCII, so the cut is a char boundary.
            let rest = &self.text[self.pos..];
            let Some(run) = rest.bytes().position(|b| b == b'"' || b == b'\\') else {
                self.pos = self.text.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{08}'),
                Some(b'f') => out.push('\u{0c}'),
                Some(b'u') => {
                    if self.pos + 5 > self.text.len() {
                        return Err(self.err("truncated \\u escape"));
                    }
                    let hex = std::str::from_utf8(&self.bytes()[self.pos + 1..self.pos + 5])
                        .map_err(|_| self.err("non-ascii \\u escape"))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| self.err("bad hex in \\u escape"))?;
                    // Surrogates are not paired (the protocol is
                    // ASCII-heavy); map them to the replacement char.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                _ => return Err(self.err("bad escape sequence")),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes()[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { offset: start, message: format!("bad number `{text}`") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn roundtrip(v: &Json) -> Json {
        parse(&v.render()).expect("rendered JSON must reparse")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::num(0.0),
            Json::num(-12.5),
            Json::num(1e-9),
            Json::num(98765432.0),
            Json::str(""),
            Json::str("plain"),
            Json::str("esc \" \\ \n \t tab"),
            Json::str("unicode Φ λ"),
        ] {
            assert_eq!(roundtrip(&v), v, "{}", v.render());
        }
    }

    #[test]
    fn nested_structure_roundtrips() {
        let v = Json::Obj(vec![
            ("op".into(), Json::str("solve")),
            ("procs".into(), Json::num(16.0)),
            ("flags".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("inner".into(), Json::Obj(vec![("empty_arr".into(), Json::Arr(vec![]))])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn output_is_single_line() {
        let v = Json::Obj(vec![("k".into(), Json::str("line\nbreak"))]);
        assert!(!v.render().contains('\n'));
    }

    #[test]
    fn member_order_is_preserved() {
        let v = Json::Obj(vec![("z".into(), Json::num(1.0)), ("a".into(), Json::num(2.0))]);
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"s":"x","n":3,"frac":1.5,"b":false,"a":[1,2],"neg":-1}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("frac").and_then(Json::as_u64), None);
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::num(f64::NAN).render(), "null");
        assert_eq!(Json::num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn unicode_escape_parses() {
        let v = parse(r#""AΦ""#).unwrap();
        assert_eq!(v.as_str(), Some("AΦ"));
    }

    #[test]
    fn errors_are_located() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("1 trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01x").is_err());
        let e = parse("[tru]").unwrap_err();
        assert!(e.message.contains("true"), "{e}");
    }

    /// A char-at-a-time decoder of one string literal (opening quote
    /// to closing quote), written apart from `Parser::string` to check
    /// it; `None` where the literal is malformed or cut short.
    fn decode_reference(literal: &str) -> Option<String> {
        let mut chars = literal.strip_prefix('"')?.chars();
        let mut out = String::new();
        loop {
            match chars.next()? {
                '"' => return chars.next().is_none().then_some(out),
                '\\' => out.push(match chars.next()? {
                    '"' => '"',
                    '\\' => '\\',
                    '/' => '/',
                    'n' => '\n',
                    'r' => '\r',
                    't' => '\t',
                    'b' => '\u{08}',
                    'f' => '\u{0c}',
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        if hex.len() != 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                            return None;
                        }
                        char::from_u32(u32::from_str_radix(&hex, 16).ok()?).unwrap_or('\u{fffd}')
                    }
                    _ => return None,
                }),
                c => out.push(c),
            }
        }
    }

    #[test]
    fn string_decoding_matches_a_char_at_a_time_reference() {
        // Every escape, `\uXXXX` (ASCII, BMP, a lone surrogate, upper-
        // and lower-case hex), multi-byte runs, raw control characters,
        // and bad escapes.
        let pieces = [
            "plain", "", " ", "Φλ→", "𝛼𝛽", "\t", "\\\"", "\\\\", "\\/", "\\n", "\\r", "\\t", "\\b",
            "\\f", "\\u0041", "\\u03a6", "\\u03A6", "\\ud800", "\\u0000", "\\x", "\\u12",
            "\\u12g4", "\\uΦ1", "\\Φ", "/", "#",
        ];
        let mut rng = StdRng::seed_from_u64(1994);
        let mut checked = 0;
        for len in 0..160 {
            let body: String =
                (0..len % 9).map(|_| pieces[rng.random_range(0..pieces.len())]).collect();
            let literal = format!("\"{body}\"");
            // The whole literal and every truncated tail of it.
            for cut in (0..=literal.len()).filter(|&i| literal.is_char_boundary(i)) {
                let text = &literal[..cut];
                let want = decode_reference(text);
                let got = parse(text).ok().and_then(|v| v.as_str().map(str::to_string));
                assert_eq!(got, want, "{text:?}");
                checked += 1;
            }
        }
        assert!(checked > 2_000, "{checked}");
        // The writer's output decodes to what went in.
        for s in ["", "a\"b\\c/d", "\u{1}\u{8}\u{c}\n\r\t\u{1f}", "Φ \u{fffd} 𝛼", "tail\\"] {
            assert_eq!(parse(&Json::str(s).render()).unwrap().as_str(), Some(s));
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }
}
