//! A minimal JSON value model, renderer, and parser.
//!
//! The workspace has no serialization dependency, so every snapshot format
//! in this crate is rendered and parsed by hand. The surface is deliberately small: the snapshot schema only needs
//! objects, arrays, strings, booleans, `u64` counters, and `f64` samples.
//!
//! Numbers keep their integer-ness through a round trip: the parser tries
//! `u64` first and falls back to `f64`, and the renderer prints `f64`s with
//! Rust's shortest-roundtrip `Display`, so `parse(render(v)) == v` for every
//! finite value. Non-finite floats render as `null` (JSON has no NaN) and
//! parse back as [`f64::NAN`] in number position.

use std::fmt;

/// A parsed or to-be-rendered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counters, timestamps).
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved by the renderer.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value under `key` if `self` is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::U64(n) => Some(n),
            JsonValue::F64(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64` (`null` maps to NaN, mirroring the renderer).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::U64(n) => Some(n as f64),
            JsonValue::F64(f) => Some(f),
            JsonValue::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Builds an object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Required sub-value lookup.
///
/// # Errors
///
/// Names `key` when `v` has no such field.
pub fn field<'v>(v: &'v JsonValue, key: &str) -> Result<&'v JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

/// Required integer field.
///
/// # Errors
///
/// Names `key` when the field is absent or not a `u64`.
pub fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

/// Required integer field narrowed to `T` — the checked reader for fields
/// stored as `u8`/`u16`/`u32`, so an out-of-range value from a file is an
/// error instead of a silently wrapped one.
///
/// # Errors
///
/// Names `key` when the field is absent, not a `u64`, or does not fit `T`.
pub fn int_field<T: TryFrom<u64>>(v: &JsonValue, key: &str) -> Result<T, String> {
    let x = u64_field(v, key)?;
    T::try_from(x).map_err(|_| format!("field `{key}` is out of range: {x}"))
}

/// Required string field.
///
/// # Errors
///
/// Names `key` when the field is absent or not a string.
pub fn str_field<'v>(v: &'v JsonValue, key: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

/// Renders `f64` per the module contract: shortest-roundtrip `Display` for
/// finite values, `null` otherwise.
fn write_f64(f: &mut fmt::Formatter<'_>, v: f64) -> fmt::Result {
    if !v.is_finite() {
        return f.write_str("null");
    }
    // `Display` omits a decimal point for integral values ("3" not "3.0"),
    // which the integer-first parser would read back as `U64`. Keeping the
    // point preserves the float-ness through a round trip (integral `f64`s
    // print their exact expansion, so no precision is lost).
    if v.fract() == 0.0 {
        write!(f, "{v:.1}")
    } else {
        write!(f, "{v}")
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
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

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::U64(n) => write!(f, "{n}"),
            JsonValue::F64(v) => write_f64(f, *v),
            JsonValue::Str(s) => write_escaped(f, s),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first malformation, with the
/// byte offset it was found at.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
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
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", JsonValue::Null),
            Some(b't') => self.eat_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_keyword("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => {
                Err(format!("unexpected byte '{}' at offset {}", other as char, self.pos))
            }
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at offset {start}"))?;
        // Integer-looking text stays an integer so counters round-trip
        // exactly; anything else (point, exponent, sign) becomes f64.
        if !text.contains(['.', 'e', 'E', '-', '+']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::U64(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::F64)
            .map_err(|_| format!("invalid number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at {}", self.pos))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad \\u codepoint at {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid; find the next one).
                    let rest = &self.bytes[self.pos..];
                    let len = std::str::from_utf8(rest)
                        .map_err(|_| "invalid utf-8".to_owned())?
                        .chars()
                        .next()
                        .map_or(1, char::len_utf8);
                    out.push_str(std::str::from_utf8(&rest[..len]).expect("char boundary"));
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
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
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_nested_value() {
        let v = JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str("graphene.spillover".into())),
            ("bank".into(), JsonValue::U64(3)),
            ("value".into(), JsonValue::F64(1.5)),
            ("flags".into(), JsonValue::Arr(vec![JsonValue::Bool(true), JsonValue::Null])),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn integers_round_trip_exactly() {
        let v = JsonValue::U64(u64::MAX);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_via_shortest_display() {
        for f in [0.1, 1.0 / 3.0, 1e-300, 2.5e17, -42.75] {
            let v = JsonValue::F64(f);
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{f}");
        }
    }

    #[test]
    fn integral_floats_keep_the_decimal_point() {
        assert_eq!(JsonValue::F64(3.0).to_string(), "3.0");
        assert_eq!(parse("3.0").unwrap(), JsonValue::F64(3.0));
    }

    #[test]
    fn non_finite_renders_null() {
        assert_eq!(JsonValue::F64(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = JsonValue::Str("a\"b\\c\nd\te\u{1}f".into());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").unwrap_err().contains("trailing"));
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "nul", "1.2.3"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn accessors_extract_fields() {
        let v = parse("{\"a\": 7, \"b\": [1.5], \"c\": \"x\"}").unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(v.get("b").and_then(JsonValue::as_arr).map(<[_]>::len), Some(1));
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn field_helpers_name_the_key_and_narrow_checked() {
        let v = obj(vec![("n", JsonValue::U64(260)), ("s", JsonValue::Str("x".into()))]);
        assert_eq!(u64_field(&v, "n"), Ok(260));
        assert_eq!(int_field::<u16>(&v, "n"), Ok(260));
        assert_eq!(int_field::<u8>(&v, "n"), Err("field `n` is out of range: 260".to_owned()));
        assert_eq!(u64_field(&v, "s"), Err("missing or non-integer field `s`".to_owned()));
        assert_eq!(str_field(&v, "s"), Ok("x"));
        assert_eq!(str_field(&v, "n"), Err("missing or non-string field `n`".to_owned()));
        assert_eq!(field(&v, "z"), Err("missing field `z`".to_owned()));
    }
}
