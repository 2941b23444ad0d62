//! # qsc-json — the serialization substrate of the spec-driven suite
//!
//! The workspace builds fully offline, so the real `serde` ecosystem is
//! unavailable (the `serde` path dependency is a no-op derive shim). This
//! crate is the small, dependency-free JSON layer that experiment specs,
//! graph specs and backend configs actually serialize through:
//!
//! * [`Value`] — an order-preserving JSON document model,
//! * [`Value::parse`] — a strict RFC-8259 parser with line/column errors,
//! * [`Value::pretty`] / [`Display`](std::fmt::Display) — writers,
//! * [`ObjReader`] — field-by-field object decoding that **rejects unknown
//!   fields** (a typo in a spec file is an error, never a silent no-op),
//! * [`ToJson`] / [`FromJson`] — the conversion traits domain types
//!   implement by hand,
//! * [`sha256`] — FIPS 180-4 SHA-256, the content hash behind the
//!   service's cache keys.
//!
//! Numbers are `f64` (as in JSON itself) and round-trip bit-exactly:
//! parsing uses Rust's correctly-rounded `str::parse::<f64>` and writing
//! uses the shortest representation that re-parses to the same bits.
//!
//! # Examples
//!
//! ```
//! use qsc_json::Value;
//!
//! let v = Value::parse(r#"{"n": 300, "eta_flow": 0.9, "meta": "cycle"}"#).unwrap();
//! assert_eq!(v.get("n").unwrap().as_usize().unwrap(), 300);
//! assert_eq!(v.get("eta_flow").unwrap().as_f64().unwrap(), 0.9);
//! let text = v.to_string();
//! assert_eq!(Value::parse(&text).unwrap(), v);
//! ```

#![warn(missing_docs)]

pub mod sha256;

use std::fmt;

/// A JSON document: the order-preserving value model.
///
/// Objects keep their fields in insertion/parse order (a `Vec` of pairs,
/// not a hash map), so written spec files stay diffable and stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always an `f64`, as in JSON itself).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Value)>),
}

/// Error raised by parsing or (strict) decoding.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// 1-based line of the offending input, when known (0 = no position:
    /// the error came from decoding an already-parsed value).
    pub line: usize,
    /// 1-based column, when known.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    /// A decoding error with no source position.
    pub fn msg(message: impl Into<String>) -> Self {
        Self {
            line: 0,
            col: 0,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{}:{}: {}", self.line, self.col, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for JsonError {}

/// Serialize into a [`Value`].
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Value;
}

/// Deserialize from a [`Value`], rejecting malformed or unknown input.
pub trait FromJson: Sized {
    /// Decodes `value`, returning a [`JsonError`] naming the offending
    /// field for any structural mismatch (wrong type, out-of-range number,
    /// unknown field or variant).
    fn from_json(value: &Value) -> Result<Self, JsonError>;
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

impl Value {
    /// The boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, if this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as a `usize`, if this is a non-negative integer `Num`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|x| x as usize)
    }

    /// The number as a `u64`, if this is a non-negative integer `Num` small
    /// enough to be exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The string slice, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an `Arr`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an `Obj`.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up a field of an object (`None` for missing fields and
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|fields| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// One-word description of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    /// Strict reader over this value as an object; errors if it is not one.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the value is not an object.
    pub fn reader<'v>(&'v self, context: &str) -> Result<ObjReader<'v>, JsonError> {
        match self {
            Value::Obj(fields) => Ok(ObjReader {
                context: context.to_string(),
                fields,
                taken: vec![false; fields.len()],
            }),
            other => Err(JsonError::msg(format!(
                "{context}: expected an object, found {}",
                other.type_name()
            ))),
        }
    }
}

/// Convenience constructor: an object value from `(key, value)` pairs.
pub fn obj<I: IntoIterator<Item = (&'static str, Value)>>(fields: I) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Convenience constructor: a number value.
pub fn num(x: f64) -> Value {
    Value::Num(x)
}

/// Convenience constructor: a string value.
pub fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

// ---------------------------------------------------------------------------
// Strict object reading
// ---------------------------------------------------------------------------

/// Field-by-field reader over a JSON object that records which fields were
/// consumed; [`ObjReader::finish`] rejects any field nobody asked for.
///
/// This is how every spec type gets its unknown-field rejection: a typo
/// like `"repss"` fails loudly instead of silently running with defaults.
#[derive(Debug)]
pub struct ObjReader<'v> {
    context: String,
    fields: &'v [(String, Value)],
    taken: Vec<bool>,
}

impl<'v> ObjReader<'v> {
    /// Consumes and returns a field, `None` when absent.
    pub fn take(&mut self, key: &str) -> Option<&'v Value> {
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if k == key {
                self.taken[i] = true;
                return Some(v);
            }
        }
        None
    }

    /// Consumes a required field.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the field is missing.
    pub fn required(&mut self, key: &str) -> Result<&'v Value, JsonError> {
        let context = self.context.clone();
        self.take(key)
            .ok_or_else(|| JsonError::msg(format!("{context}: missing required field `{key}`")))
    }

    fn expect<T>(&self, key: &str, want: &str, got: Option<T>, v: &Value) -> Result<T, JsonError> {
        got.ok_or_else(|| {
            JsonError::msg(format!(
                "{}.{key}: expected {want}, found {}",
                self.context,
                v.type_name()
            ))
        })
    }

    /// An optional `f64` field.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when present with a non-numeric value.
    pub fn opt_f64(&mut self, key: &str) -> Result<Option<f64>, JsonError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => self.expect(key, "a number", v.as_f64(), v).map(Some),
        }
    }

    /// An `f64` field with a default.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when present with a non-numeric value.
    pub fn f64_or(&mut self, key: &str, default: f64) -> Result<f64, JsonError> {
        Ok(self.opt_f64(key)?.unwrap_or(default))
    }

    /// An optional `usize` field.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when present with anything but a non-negative
    /// integer.
    pub fn opt_usize(&mut self, key: &str) -> Result<Option<usize>, JsonError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => self
                .expect(key, "a non-negative integer", v.as_usize(), v)
                .map(Some),
        }
    }

    /// A `usize` field with a default.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when present with anything but a non-negative
    /// integer.
    pub fn usize_or(&mut self, key: &str, default: usize) -> Result<usize, JsonError> {
        Ok(self.opt_usize(key)?.unwrap_or(default))
    }

    /// A `u64` field with a default.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when present with anything but a non-negative
    /// integer.
    pub fn u64_or(&mut self, key: &str, default: u64) -> Result<u64, JsonError> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => self.expect(key, "a non-negative integer", v.as_u64(), v),
        }
    }

    /// A `bool` field with a default.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when present with a non-boolean value.
    pub fn bool_or(&mut self, key: &str, default: bool) -> Result<bool, JsonError> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => self.expect(key, "a boolean", v.as_bool(), v),
        }
    }

    /// An optional string field.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when present with a non-string value.
    pub fn opt_str(&mut self, key: &str) -> Result<Option<&'v str>, JsonError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => self.expect(key, "a string", v.as_str(), v).map(Some),
        }
    }

    /// A required string field.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the field is missing or not a string.
    pub fn req_str(&mut self, key: &str) -> Result<&'v str, JsonError> {
        let v = self.required(key)?;
        self.expect(key, "a string", v.as_str(), v)
    }

    /// Succeeds only if every field of the object was consumed — the
    /// unknown-field rejection every spec decode ends with.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] naming the first unknown field.
    pub fn finish(self) -> Result<(), JsonError> {
        for (i, (k, _)) in self.fields.iter().enumerate() {
            if !self.taken[i] {
                return Err(JsonError::msg(format!(
                    "{}: unknown field `{k}`",
                    self.context
                )));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'s> {
    bytes: &'s [u8],
    text: &'s str,
    pos: usize,
}

impl<'s> Parser<'s> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError {
            line,
            col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found {}",
                b as char,
                self.describe_here()
            )))
        }
    }

    fn describe_here(&self) -> String {
        match self.peek() {
            Some(b) => format!("`{}`", b as char),
            None => "end of input".to_string(),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > 128 {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err(format!("expected a value, found {}", self.describe_here()))),
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("invalid literal (expected `{word}`)")))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("invalid number"));
        }
        if self.bytes[digits_start] == b'0' && self.pos > digits_start + 1 {
            return Err(self.err("invalid number: leading zero"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("invalid number: missing fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("invalid number: missing exponent digits"));
            }
        }
        let slice = &self.text[start..self.pos];
        slice
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("invalid number `{slice}`")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(ch.ok_or_else(|| self.err("invalid unicode escape"))?);
                        }
                        other => {
                            return Err(self.err(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so boundaries
                    // are valid).
                    let ch = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("in-bounds char");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        // Slice bytes, not the str: a multibyte character inside the four
        // positions must become a parse error, not a char-boundary panic.
        let slice = &self.bytes[self.pos..self.pos + 4];
        let code = std::str::from_utf8(slice)
            .ok()
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("invalid unicode escape (expected 4 hex digits)"))?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => {
                    return Err(self.err(format!(
                        "expected `,` or `]`, found {}",
                        self.describe_here()
                    )))
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect_byte(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => {
                    return Err(self.err(format!(
                        "expected `,` or `}}`, found {}",
                        self.describe_here()
                    )))
                }
            }
        }
    }
}

impl Value {
    /// Parses a complete JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with 1-based line/column for any syntax error.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            text,
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn write_escaped(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
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

fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/inf; specs never contain them, but a writer must
        // not emit invalid documents.
        out.push_str("null");
    } else {
        // Rust's shortest round-trip formatting; integers come out bare
        // ("300", not "300.0"), other values re-parse to the same bits.
        out.push_str(&format!("{x}"));
    }
}

impl Value {
    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => write_number(out, *x),
            Value::Str(text) => write_escaped(out, text),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(width) = indent {
                        out.push('\n');
                        out.push_str(&" ".repeat(width * (level + 1)));
                    }
                    item.write(out, indent, level + 1);
                }
                if let Some(width) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(width * level));
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(width) = indent {
                        out.push('\n');
                        out.push_str(&" ".repeat(width * (level + 1)));
                    }
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                if let Some(width) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(width * level));
                }
                out.push('}');
            }
        }
    }

    /// Pretty-printed document with 2-space indentation and a trailing
    /// newline — the format the shipped spec files use.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Canonical serialization: compact, object keys sorted bytewise at
    /// every level, duplicate keys rejected, numbers in the same
    /// shortest-round-trip form as [`Display`](std::fmt::Display) (so
    /// every `f64` survives bit-exactly).
    ///
    /// Two semantically equal documents — same fields in any order —
    /// produce identical bytes, which is what makes
    /// `hash(canonical bytes)` a content address for a spec.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if any object holds the same key twice
    /// (impossible for parsed documents — the parser already rejects
    /// duplicates — but a hand-built [`Value::Obj`] can).
    pub fn to_json_canonical(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write_canonical(&mut out)?;
        Ok(out)
    }

    fn write_canonical(&self, out: &mut String) -> Result<(), JsonError> {
        match self {
            Value::Null | Value::Bool(_) | Value::Num(_) | Value::Str(_) => {
                self.write(out, None, 0);
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_canonical(out)?;
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                let mut order: Vec<usize> = (0..fields.len()).collect();
                order.sort_by(|&a, &b| fields[a].0.cmp(&fields[b].0));
                for pair in order.windows(2) {
                    if fields[pair[0]].0 == fields[pair[1]].0 {
                        return Err(JsonError::msg(format!(
                            "canonical form: duplicate key `{}`",
                            fields[pair[0]].0
                        )));
                    }
                }
                out.push('{');
                for (i, &idx) in order.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, &fields[idx].0);
                    out.push(':');
                    fields[idx].1.write_canonical(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

impl fmt::Display for Value {
    /// Compact single-line rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("3").unwrap(), Value::Num(3.0));
        assert_eq!(Value::parse("-0.25e1").unwrap(), Value::Num(-2.5));
        assert_eq!(
            Value::parse("\"a\\nb\\u00e9\"").unwrap(),
            Value::Str("a\nbé".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a": [1, {"b": "x"}], "c": {}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
        assert_eq!(v.get("c").unwrap(), &Value::Obj(vec![]));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{\"a\":1} extra",
            "{'a':1}",
            "01",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn multibyte_characters_inside_unicode_escapes_error_without_panicking() {
        // "\uabcé" — the é lands inside the 4 bytes after \u; slicing the
        // str by byte offset would panic on the char boundary.
        for bad in ["\"\\uabc\u{e9}\"", "\"\\u\u{e9}bcd\"", "\"\\u12\u{1F600}\""] {
            let err = Value::parse(bad).unwrap_err();
            assert!(err.message.contains("unicode escape"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = Value::parse(r#"{"a":1,"a":2}"#).unwrap_err();
        assert!(err.message.contains("duplicate key"), "{err}");
    }

    #[test]
    fn errors_carry_positions() {
        let err = Value::parse("{\n  \"a\": nope\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.col > 1);
    }

    #[test]
    fn numbers_round_trip_bit_exactly() {
        for &x in &[
            0.0,
            0.9,
            0.25,
            1.0 / 6.0,
            1.0 / 3.0,
            -1.5e-9,
            2f64.powi(53),
            123456789.123456,
        ] {
            let text = Value::Num(x).to_string();
            let back = Value::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} → {text} → {back}");
        }
    }

    #[test]
    fn integers_render_bare() {
        assert_eq!(Value::Num(300.0).to_string(), "300");
        assert_eq!(Value::Num(-4.0).to_string(), "-4");
    }

    #[test]
    fn document_round_trips_through_pretty_and_compact() {
        let text = r#"{"name":"t","axes":[{"values":[1,2,3]},{"values":[0.5,0.9]}],"on":true}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(Value::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Value::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn reader_rejects_unknown_fields() {
        let v = Value::parse(r#"{"reps": 3, "repss": 4}"#).unwrap();
        let mut r = v.reader("spec").unwrap();
        assert_eq!(r.usize_or("reps", 1).unwrap(), 3);
        let err = r.finish().unwrap_err();
        assert!(err.message.contains("unknown field `repss`"), "{err}");
    }

    #[test]
    fn reader_typed_accessors() {
        let v = Value::parse(r#"{"a": 1.5, "b": 2, "c": true, "d": "x"}"#).unwrap();
        let mut r = v.reader("t").unwrap();
        assert_eq!(r.f64_or("a", 0.0).unwrap(), 1.5);
        assert_eq!(r.usize_or("b", 0).unwrap(), 2);
        assert!(r.bool_or("c", false).unwrap());
        assert_eq!(r.req_str("d").unwrap(), "x");
        assert_eq!(r.u64_or("missing", 7).unwrap(), 7);
        r.finish().unwrap();
    }

    #[test]
    fn reader_reports_type_mismatches() {
        let v = Value::parse(r#"{"a": "not a number"}"#).unwrap();
        let mut r = v.reader("t").unwrap();
        let err = r.f64_or("a", 0.0).unwrap_err();
        assert!(err.message.contains("t.a"), "{err}");
        assert!(err.message.contains("expected a number"), "{err}");
    }

    #[test]
    fn negative_or_fractional_never_decodes_as_usize() {
        assert_eq!(Value::Num(-1.0).as_usize(), None);
        assert_eq!(Value::Num(1.5).as_usize(), None);
        assert_eq!(Value::Num(1e300).as_u64(), None);
    }

    /// Tiny splitmix64 step — the generator for the canonical-form
    /// property tests (the crate is dependency-free, so no `proptest`).
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random JSON document: scalars biased at depth, nested
    /// arrays/objects above, keys drawn from a pool (unique per object).
    fn random_value(state: &mut u64, depth: usize) -> Value {
        let pick = next(state) % if depth == 0 { 6 } else { 4 };
        match pick {
            0 => Value::Null,
            1 => Value::Bool(next(state).is_multiple_of(2)),
            2 => {
                // Bit-pattern floats: exercise subnormal-ish, fractional
                // and integral values (finite only — JSON has no NaN/inf).
                let raw = f64::from_bits(next(state) >> 2);
                Value::Num(if raw.is_finite() { raw } else { 1.0 / 3.0 })
            }
            3 => {
                let n = next(state) % 8;
                Value::Str((0..n).map(|i| (b'a' + i as u8) as char).collect())
            }
            4 => {
                let n = (next(state) % 4) as usize;
                Value::Arr((0..n).map(|_| random_value(state, depth - 1)).collect())
            }
            _ => {
                let n = (next(state) % 5) as usize;
                let mut keys: Vec<String> = (0..n).map(|i| format!("k{i}")).collect();
                // Shuffle the key order so insertion order varies.
                for i in (1..keys.len()).rev() {
                    keys.swap(i, (next(state) % (i as u64 + 1)) as usize);
                }
                Value::Obj(
                    keys.into_iter()
                        .map(|k| (k, random_value(state, depth - 1)))
                        .collect(),
                )
            }
        }
    }

    /// Recursively sorts object fields — the reference "semantic equality"
    /// normal form the canonical writer must agree with.
    fn sorted(v: &Value) -> Value {
        match v {
            Value::Arr(items) => Value::Arr(items.iter().map(sorted).collect()),
            Value::Obj(fields) => {
                let mut fields: Vec<(String, Value)> =
                    fields.iter().map(|(k, v)| (k.clone(), sorted(v))).collect();
                fields.sort_by(|a, b| a.0.cmp(&b.0));
                Value::Obj(fields)
            }
            scalar => scalar.clone(),
        }
    }

    #[test]
    fn canonical_round_trips_semantically_for_random_documents() {
        let mut state = 42u64;
        for case in 0..500 {
            let v = random_value(&mut state, 3);
            let canon = v
                .to_json_canonical()
                .unwrap_or_else(|e| panic!("case {case}: canonical form failed: {e}"));
            let back = Value::parse(&canon)
                .unwrap_or_else(|e| panic!("case {case}: canonical bytes do not parse: {e}"));
            // parse(canon(x)) == x up to key order…
            assert_eq!(sorted(&back), sorted(&v), "case {case}: {canon}");
            // …and canonicalization is a fixed point.
            assert_eq!(back.to_json_canonical().unwrap(), canon, "case {case}");
        }
    }

    #[test]
    fn canonical_is_key_order_independent() {
        let mut state = 7u64;
        for case in 0..500 {
            let v = random_value(&mut state, 3);
            let shuffled = shuffle_keys(&mut state, &v);
            assert_eq!(
                v.to_json_canonical().unwrap(),
                shuffled.to_json_canonical().unwrap(),
                "case {case}"
            );
        }
    }

    /// The same document with every object's insertion order permuted.
    fn shuffle_keys(state: &mut u64, v: &Value) -> Value {
        match v {
            Value::Arr(items) => Value::Arr(items.iter().map(|x| shuffle_keys(state, x)).collect()),
            Value::Obj(fields) => {
                let mut fields: Vec<(String, Value)> = fields
                    .iter()
                    .map(|(k, x)| (k.clone(), shuffle_keys(state, x)))
                    .collect();
                for i in (1..fields.len()).rev() {
                    fields.swap(i, (next(state) % (i as u64 + 1)) as usize);
                }
                Value::Obj(fields)
            }
            scalar => scalar.clone(),
        }
    }

    #[test]
    fn canonical_preserves_f64_bits() {
        let mut state = 9u64;
        for _ in 0..2000 {
            let x = f64::from_bits(next(&mut state));
            if !x.is_finite() {
                continue;
            }
            let canon = Value::Num(x).to_json_canonical().unwrap();
            let back = Value::parse(&canon).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} → {canon} → {back}");
        }
    }

    #[test]
    fn canonical_sorts_keys_and_stays_compact() {
        let v = Value::parse("{\"b\": 1, \"a\": {\"z\": [1, 2], \"y\": null}}").unwrap();
        assert_eq!(
            v.to_json_canonical().unwrap(),
            r#"{"a":{"y":null,"z":[1,2]},"b":1}"#
        );
    }

    #[test]
    fn canonical_rejects_duplicate_keys() {
        let v = Value::Obj(vec![
            ("a".into(), Value::Num(1.0)),
            ("a".into(), Value::Num(2.0)),
        ]);
        let err = v.to_json_canonical().unwrap_err();
        assert!(err.message.contains("duplicate key `a`"), "{err}");
    }

    #[test]
    fn strings_escape_on_write() {
        let v = Value::Str("say \"hi\"\n\tok\u{0001}".into());
        let text = v.to_string();
        assert_eq!(Value::parse(&text).unwrap(), v);
        assert!(text.contains("\\u0001"));
    }
}
