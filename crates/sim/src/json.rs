//! A minimal JSON value tree with a serialiser and a strict parser.
//!
//! The workspace intentionally has no serde dependency; its JSON needs are
//! small and fully under our control: bench artefacts (`BENCH_*.json`),
//! versioned run reports, and the newline-delimited request/response
//! protocol of `smache serve`. A hand-rolled tree covers all three.
//!
//! Two serialisations are provided: [`Json::pretty`] (two-space indent,
//! trailing newline — committed artefacts) and [`Json::compact`]
//! (single-line — wire protocol and cache entries). Both are
//! deterministic: object keys keep insertion order, integers and floats
//! render with Rust's shortest-round-trip `Display`. [`Json::parse`]
//! accepts standard JSON and preserves the integer/float distinction, so
//! `parse(compact(x)) == x` and `compact(parse(s))` is a canonical form.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept separate from floats so cycle counts stay exact).
    Int(i64),
    /// A float; non-finite values serialise as `null` (JSON has no NaN).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs, preserving order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serialises with two-space indentation and a trailing newline,
    /// suitable for committing as an artefact.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    /// Serialises to a single line with no whitespace — the wire format
    /// for newline-delimited protocols and cache entries.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    /// Looks a key up in an object (`None` for non-objects too).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The integer payload, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer payload as unsigned, if integral and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// A numeric payload widened to `f64` (accepts `Int` and `Num`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
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

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parses a standard JSON document (one value, nothing trailing).
    ///
    /// Integers without a fraction or exponent that fit `i64` come back as
    /// [`Json::Int`]; every other number as [`Json::Num`]. Errors carry a
    /// byte offset.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(p.err("trailing data after JSON value"));
        }
        Ok(v)
    }

    fn write(&self, out: &mut String, indent: usize, pretty: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write_int(out, *i),
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        out.push_str(&"  ".repeat(indent + 1));
                    }
                    item.write(out, indent + 1, pretty);
                }
                if pretty {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent));
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        out.push_str(&"  ".repeat(indent + 1));
                    }
                    write_escaped(out, k);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    v.write(out, indent + 1, pretty);
                }
                if pretty {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent));
                }
                out.push('}');
            }
        }
    }
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the problem was detected.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Writes `i` in decimal, as its `Display` does, without the formatting
/// machinery: a report's output grid is thousands of integers.
fn write_int(out: &mut String, i: i64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut v = i.unsigned_abs();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if i < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.i,
            msg: msg.into(),
        }
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() == Some(b'\\') {
                                    self.i += 1;
                                    self.eat(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            match char::from_u32(cp) {
                                Some(ch) => out.push(ch),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ if c < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Re-walk the UTF-8 sequence starting at c.
                    let start = self.i - 1;
                    let len = utf8_len(c).ok_or_else(|| self.err("invalid UTF-8"))?;
                    let end = start + len;
                    let bytes = self
                        .b
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated UTF-8"))?;
                    let s = std::str::from_utf8(bytes).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.i = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(c) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
            self.i += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.i += 1;
        }
        let mut integral = true;
        // An integer of at most 18 digits always fits `i64`, so its value
        // is summed while scanning; longer ones take the general parse.
        let mut value: i64 = 0;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {
                    value = value.wrapping_mul(10).wrapping_add(i64::from(c - b'0'));
                    self.i += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.i += 1;
                }
                _ => break,
            }
        }
        let digits = self.i - start - usize::from(negative);
        if integral && (1..=18).contains(&digits) {
            return Ok(Json::Int(if negative { -value } else { value }));
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii number");
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc2..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf4 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_rendering() {
        assert_eq!(Json::Null.pretty(), "null\n");
        assert_eq!(Json::Bool(true).pretty(), "true\n");
        assert_eq!(Json::Int(-3).pretty(), "-3\n");
        assert_eq!(Json::Num(1.5).pretty(), "1.5\n");
        assert_eq!(Json::Num(f64::NAN).pretty(), "null\n");
        assert_eq!(Json::str("a\"b").pretty(), "\"a\\\"b\"\n");
    }

    #[test]
    fn nested_structure_round_trips_visually() {
        let doc = Json::obj(vec![
            ("name", Json::str("fig2")),
            ("seeds", Json::Arr(vec![Json::Int(0), Json::Int(1)])),
            ("empty", Json::Arr(vec![])),
            ("nested", Json::obj(vec![("ok", Json::Bool(true))])),
        ]);
        let text = doc.pretty();
        assert!(text.starts_with("{\n  \"name\": \"fig2\""));
        assert!(text.contains("\"seeds\": [\n    0,\n    1\n  ]"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.contains("\"nested\": {\n    \"ok\": true\n  }"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn control_chars_are_escaped() {
        let s = Json::str("line\nbreak\u{1}").pretty();
        assert!(s.contains("\\n"));
        assert!(s.contains("\\u0001"));
    }

    #[test]
    fn compact_is_single_line() {
        let doc = Json::obj(vec![
            ("a", Json::Int(1)),
            ("b", Json::Arr(vec![Json::str("x"), Json::Null])),
        ]);
        assert_eq!(doc.compact(), r#"{"a":1,"b":["x",null]}"#);
    }

    #[test]
    fn parse_round_trips_compact_and_pretty() {
        let doc = Json::obj(vec![
            ("int", Json::Int(-42)),
            ("float", Json::Num(2.75)),
            ("s", Json::str("tab\there \"q\" π")),
            ("list", Json::Arr(vec![Json::Bool(false), Json::Int(0)])),
            ("obj", Json::obj(vec![("k", Json::Null)])),
            ("empty_obj", Json::obj(vec![])),
        ]);
        assert_eq!(Json::parse(&doc.compact()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        // Serialise → parse → serialise is byte-identical.
        let text = doc.compact();
        assert_eq!(Json::parse(&text).unwrap().compact(), text);
    }

    #[test]
    fn parse_preserves_int_float_distinction() {
        assert_eq!(Json::parse("7").unwrap(), Json::Int(7));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("7.0").unwrap(), Json::Num(7.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        // Integers beyond i64 degrade to float rather than failing.
        assert!(matches!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Num(_)
        ));
    }

    #[test]
    fn parse_reads_integers_at_every_width() {
        for i in [
            0,
            -1,
            999_999_999_999_999_999,
            -999_999_999_999_999_999,
            1_000_000_000_000_000_000,
            i64::MAX,
            i64::MIN,
        ] {
            let text = Json::Int(i).compact();
            assert_eq!(Json::parse(&text).unwrap(), Json::Int(i), "{text}");
        }
        for i in [0, 7, -7, 10, -10, i64::MAX, i64::MIN, 1 << 40] {
            assert_eq!(Json::Int(i).compact(), i.to_string());
        }
        assert_eq!(Json::parse("-0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("007").unwrap(), Json::Int(7));
        assert!(Json::parse("-").is_err());
        assert!(matches!(
            Json::parse("9223372036854775808").unwrap(),
            Json::Num(_)
        ));
    }

    #[test]
    fn parse_unicode_escapes() {
        // Raw multi-byte UTF-8 passes through; escapes decode, including
        // surrogate pairs; a lone high surrogate is rejected.
        assert_eq!(Json::parse(r#""Aé😀""#).unwrap(), Json::str("Aé😀"));
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap(),
            Json::str("Aé😀")
        );
        assert!(Json::parse(r#""\ud800""#).is_err());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{} x",
            "nul",
            "[1 2]",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = Json::parse(r#"{"cmd":"simulate","seed":3,"deep":{"x":[1,2]}}"#).unwrap();
        assert_eq!(doc.get("cmd").and_then(Json::as_str), Some("simulate"));
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(3));
        assert_eq!(
            doc.get("deep")
                .and_then(|d| d.get("x"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(doc.get("missing"), None);
    }
}
