//! A minimal JSON value with a writer and a small reader.
//!
//! The build is offline, so there is no serde. The benchmark writes its
//! result line and trace file with [`Value::to_compact`]/[`Value::pretty`],
//! and the contract test reads `BENCHMARK.json` with [`parse`]. Objects
//! keep insertion order so written documents diff cleanly.

use std::fmt::Write as _;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

/// Why a value could not be written or a document could not be read.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// NaN and the infinities have no JSON spelling.
    NonFinite(f64),
    /// Malformed input at this byte offset.
    Syntax { at: usize, what: &'static str },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::NonFinite(x) => write!(f, "non-finite number {x} has no JSON form"),
            JsonError::Syntax { at, what } => write!(f, "JSON syntax error at byte {at}: {what}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact rendering on one line. Numbers print in Rust's shortest
    /// round-trip form, so no measured digit is lost.
    ///
    /// # Errors
    ///
    /// [`JsonError::NonFinite`] if any number is NaN or infinite.
    pub fn to_compact(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, None, 0)?;
        Ok(out)
    }

    /// Indented rendering (two spaces per level) ending in a newline.
    ///
    /// # Errors
    ///
    /// [`JsonError::NonFinite`] if any number is NaN or infinite.
    pub fn pretty(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0)?;
        out.push('\n');
        Ok(out)
    }

    fn write(
        &self,
        out: &mut String,
        indent: Option<usize>,
        depth: usize,
    ) -> Result<(), JsonError> {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => {
                if !x.is_finite() {
                    return Err(JsonError::NonFinite(*x));
                }
                // Integral values below 2^53 print without a fraction.
                if x.fract() == 0.0 && x.abs() < 9.007_199_254_740_992e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1)?;
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1)?;
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::Num(x as f64)
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::Num(x as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// [`JsonError::Syntax`] with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Nesting bound of the reader: deeper input is rejected instead of
/// overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError::Syntax { at: self.at, what }
    }

    fn skip_ws(&mut self) {
        while self.at < self.bytes.len()
            && matches!(self.bytes[self.at], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(())
        } else {
            Err(self.err("unexpected literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.at) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.at) != Some(&b'"') {
                        return Err(self.err("expected a string key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if self.bytes.get(self.at) != Some(&b':') {
                        return Err(self.err("expected ':'"));
                    }
                    self.at += 1;
                    pairs.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Value::Obj(pairs));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.at;
        while self.at < self.bytes.len()
            && matches!(
                self.bytes[self.at],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.at += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.at]).map_err(|_| self.err("bad number"))?;
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() && !text.is_empty() => Ok(Value::Num(x)),
            _ => Err(JsonError::Syntax {
                at: start,
                what: "bad number",
            }),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.at += 1; // opening quote
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.at) else {
                return Err(self.err("unterminated string"));
            };
            self.at += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.at) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.at += 1;
                    match e {
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
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                self.eat("\\u")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x20 => return Err(self.err("control character in string")),
                _ => {
                    // Copy the whole UTF-8 sequence this byte starts.
                    let start = self.at - 1;
                    let len = match b {
                        0xF0..=0xFF => 4,
                        0xE0..=0xEF => 3,
                        0xC0..=0xDF => 2,
                        _ => 1,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.at = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.at..self.at + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.at += 4;
        Ok(digits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_round_trip() {
        let s = "quote \" backslash \\ newline \n tab \t bell \u{7} snow ☃ clef 𝄞";
        let text = Value::from(s).to_compact().unwrap();
        assert_eq!(
            text,
            "\"quote \\\" backslash \\\\ newline \\n tab \\t bell \\u0007 snow ☃ clef 𝄞\""
        );
        assert_eq!(parse(&text).unwrap(), Value::from(s));
        // Escaped surrogate pairs decode to one code point.
        assert_eq!(parse("\"\\ud834\\udd1e\"").unwrap(), Value::from("𝄞"));
        assert!(parse("\"\\ud834\"").is_err());
    }

    #[test]
    fn nesting_round_trips_in_both_layouts() {
        let doc = Value::obj([
            (
                "a",
                Value::Arr(vec![Value::from(1.0), Value::Null, Value::from(true)]),
            ),
            (
                "b",
                Value::obj([("c", Value::obj([("d", Value::Arr(vec![]))]))]),
            ),
            ("e", Value::from(0.1 + 0.2)),
            ("f", Value::from(-12345678.0)),
        ]);
        let compact = doc.to_compact().unwrap();
        assert_eq!(
            compact,
            "{\"a\": [1, null, true], \"b\": {\"c\": {\"d\": []}}, \
\"e\": 0.30000000000000004, \"f\": -12345678}"
        );
        assert_eq!(parse(&compact).unwrap(), doc);
        assert_eq!(parse(&doc.pretty().unwrap()).unwrap(), doc);
        assert!(doc.get("b").and_then(|b| b.get("c")).is_some());
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Value::obj([("x", Value::Arr(vec![Value::from(x)]))]);
            assert!(matches!(doc.to_compact(), Err(JsonError::NonFinite(_))));
            assert!(doc.pretty().is_err());
        }
        assert!(parse("NaN").is_err());
        assert!(parse("1e999").is_err());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} x",
            "\"open",
            "[01x]",
            "tru",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
    }
}
