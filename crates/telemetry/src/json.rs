//! Self-contained JSON values: compact writer + recursive-descent parser.
//!
//! The workspace deliberately avoids a serde_json dependency; telemetry
//! needs both directions — a writer for the JSONL/bench sinks (and the
//! solver config record) and a parser for the schema validator — so this
//! module provides a small `Value` tree with exact round-trip
//! semantics for the records the sinks produce. Object key order is
//! preserved (insertion order), which keeps emitted records stable and
//! diffable.

use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Insertion-ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience constructors keeping call sites terse.
    pub fn num(n: f64) -> Value {
        Value::Num(n)
    }

    pub fn int(n: u64) -> Value {
        Value::Num(n as f64)
    }

    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn arr(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Arr(items.into_iter().collect())
    }

    /// Serialize into a caller-owned buffer (cleared first). The buffer's
    /// capacity is retained across calls, which is what lets the flight
    /// ring re-record into the same slots with zero steady-state
    /// allocation once every slot has grown to its working size.
    pub fn write_into(&self, out: &mut String) {
        out.clear();
        write_value(self, out);
    }

    /// Parse a JSON document (the whole string must be one value plus
    /// optional surrounding whitespace).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => {
            if !n.is_finite() {
                // JSON has no NaN/Inf; null is the conventional fallback.
                out.push_str("null");
            } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n:e}"));
            }
        }
        Value::Str(s) => write_escaped(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

impl fmt::Display for Value {
    /// Compact single-line JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(self, &mut out);
        f.write_str(&out)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
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

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            // Surrogate pairs are not needed for the
                            // records this crate emits.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 scalar.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8".to_string())?,
                    );
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number {text:?}"))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
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
    fn roundtrip_nested() {
        let v = Value::obj([
            ("schema", Value::str("rbx.telemetry.v1")),
            ("kind", Value::str("step")),
            ("step", Value::int(42)),
            ("dt", Value::num(1.25e-3)),
            ("converged", Value::Bool(true)),
            ("missing", Value::Null),
            (
                "phases",
                Value::obj([("pressure", Value::num(0.8)), ("other", Value::num(0.2))]),
            ),
            (
                "iters",
                Value::arr([Value::int(3), Value::int(4), Value::int(5)]),
            ),
        ]);
        let text = v.to_string();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, v);
        // Key order preserved.
        assert_eq!(back.as_obj().unwrap()[0].0, "schema");
    }

    #[test]
    fn integers_print_without_exponent() {
        assert_eq!(Value::int(7).to_string(), "7");
        assert_eq!(Value::num(-3.0).to_string(), "-3");
        assert_eq!(Value::parse("1e3").unwrap(), Value::Num(1000.0));
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(Value::num(f64::NAN).to_string(), "null");
        assert_eq!(Value::num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_escape() {
        let v = Value::str("a\"b\\c\nd");
        let text = v.to_string();
        assert_eq!(text, r#""a\"b\\c\nd""#);
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
        assert!(Value::parse("12 34").is_err());
        assert!(Value::parse("nul").is_err());
    }

    #[test]
    fn accessors() {
        let v = Value::parse(r#"{"a": 3, "b": [1.5], "c": "x", "d": true}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(Value::as_arr).map(|a| a.len()), Some(1));
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("d").and_then(Value::as_bool), Some(true));
        assert!(v.get("e").is_none());
    }
}
