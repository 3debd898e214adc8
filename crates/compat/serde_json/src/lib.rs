//! Offline stand-in for the [`serde_json`](https://crates.io/crates/serde_json)
//! crate: renders and parses the serde shim's [`Value`] tree as JSON text.
//!
//! Floats are emitted with Rust's shortest round-trippable formatting;
//! non-finite floats serialize as `null` (upstream behaviour). Unsigned
//! 64-bit integers — scenario seeds — are parsed and emitted without passing
//! through `f64`, so they round-trip exactly.
//!
//! ```
//! use serde::{Deserialize, Serialize};
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! struct Run {
//!     seed: u64,
//!     mlu: f64,
//! }
//!
//! let run = Run { seed: u64::MAX, mlu: 0.625 };
//! let text = serde_json::to_string(&run).unwrap();
//! let back: Run = serde_json::from_str(&text).unwrap();
//! assert_eq!(back, run);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use serde::{Deserialize, Serialize};

pub use serde::{Number, Value};

/// Error produced by JSON parsing or by [`serde::Deserialize`] conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// Infallible for the shim's value model; the `Result` mirrors upstream's
/// signature.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` as human-readable, two-space-indented JSON.
///
/// # Errors
///
/// Infallible for the shim's value model; the `Result` mirrors upstream's
/// signature.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any [`Deserialize`] type.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value(text)?;
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
            write_value(out, &items[i], indent, depth + 1);
        }),
        Value::Object(fields) => write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
            let (k, v) = &fields[i];
            write_string(out, k);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_value(out, v, indent, depth + 1);
        }),
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut write_item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        write_item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

fn write_number(out: &mut String, n: Number) {
    use std::fmt::Write;
    match n {
        Number::UInt(v) => write!(out, "{v}").expect("write to String"),
        Number::Int(v) => write!(out, "{v}").expect("write to String"),
        Number::Float(x) if !x.is_finite() => out.push_str("null"),
        Number::Float(x) => {
            // Keep floats distinguishable from integers so they parse back
            // as floats.
            if x.fract() == 0.0 && x.abs() < 1e15 {
                write!(out, "{x:.1}").expect("write to String");
            } else {
                write!(out, "{x}").expect("write to String");
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses a complete JSON document into a [`Value`].
///
/// # Errors
///
/// Returns [`Error`] on malformed input or trailing garbage.
pub fn parse_value(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_at(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), Error> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(Error::new(format!(
            "expected {:?} at byte {}",
            byte as char, *pos
        )))
    }
}

fn parse_at(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(Error::new("unexpected end of input"));
    };
    match b {
        b'n' => parse_keyword(bytes, pos, "null", Value::Null),
        b't' => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        b'f' => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Value::String),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_at(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error::new(format!("expected ',' or ']' at byte {pos}"))),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let value = parse_at(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(Error::new(format!("expected ',' or '}}' at byte {pos}"))),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        other => Err(Error::new(format!(
            "unexpected character {:?} at byte {}",
            other as char, *pos
        ))),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(Error::new(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::new(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(Error::new("unterminated escape"));
                };
                *pos += 1;
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
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| Error::new("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| Error::new("non-ASCII \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                        *pos += 4;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error::new("invalid \\u code point"))?,
                        );
                    }
                    other => return Err(Error::new(format!("unknown escape \\{}", other as char))),
                }
            }
            _ => {
                // Consume one UTF-8 character (input is a &str, so this is
                // always on a char boundary).
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| Error::new("invalid UTF-8"))?;
                let c = rest.chars().next().ok_or_else(|| Error::new("empty"))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
    Err(Error::new("unterminated string"))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    if !is_float {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::Number(Number::UInt(u)));
        }
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::Number(Number::Int(i)));
        }
    }
    text.parse::<f64>()
        .map(|x| Value::Number(Number::Float(x)))
        .map_err(|_| Error::new(format!("invalid number {text:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let v = Value::Object(vec![
            ("a".into(), Value::from(1u64)),
            (
                "b".into(),
                Value::Array(vec![Value::from(true), Value::Null]),
            ),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"a":1,"b":[true,null]}"#);
    }

    #[test]
    fn pretty_rendering_indents() {
        let v = Value::Object(vec![("a".into(), Value::from(1u64))]);
        assert_eq!(to_string_pretty(&v).unwrap(), "{\n  \"a\": 1\n}");
    }

    #[test]
    fn float_int_distinction_roundtrips() {
        let v = Value::Number(Number::Float(2.0));
        let text = to_string(&v).unwrap();
        assert_eq!(text, "2.0");
        assert_eq!(parse_value(&text).unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn u64_max_roundtrips_exactly() {
        let text = to_string(&Value::from(u64::MAX)).unwrap();
        assert_eq!(parse_value(&text).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line\n\"quoted\"\tü\\end";
        let text = to_string(&Value::from(s)).unwrap();
        assert_eq!(parse_value(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value("{").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("12 34").is_err());
        assert!(parse_value("nulll").is_err());
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Staged {
        a: u64,
        stage: Option<u64>,
        other: std::option::Option<Vec<Option<u64>>>,
        b: bool,
    }

    #[test]
    fn derived_option_fields_are_omitted_when_none_and_absent_reads_none() {
        let none = Staged {
            a: 1,
            stage: None,
            other: None,
            b: true,
        };
        let text = to_string(&none).unwrap();
        assert_eq!(text, r#"{"a":1,"b":true}"#);
        assert_eq!(from_str::<Staged>(&text).unwrap(), none);
        let null: Staged = from_str(r#"{"a":1,"stage":null,"b":true}"#).unwrap();
        assert_eq!(null, none);

        // Present values keep their declaration-order slot.
        let some = Staged {
            stage: Some(7),
            other: Some(vec![None, Some(2)]),
            ..none
        };
        let text = to_string(&some).unwrap();
        assert_eq!(text, r#"{"a":1,"stage":7,"other":[null,2],"b":true}"#);
        assert_eq!(from_str::<Staged>(&text).unwrap(), some);
        // A required field is still required.
        assert!(from_str::<Staged>(r#"{"a":1}"#).is_err());
    }
}
