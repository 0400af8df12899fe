//! Minimal in-tree JSON: a dynamic [`Value`], a strict parser, one
//! emitter ([`Writer`], compact or pretty), the [`json!`](crate::json!)
//! construction macro and the [`ToJson`]/[`FromJson`] conversion traits.
//!
//! This module exists so the default-feature workspace builds with zero
//! external dependencies: the control plane, the bitstream container,
//! the telemetry exporters and the experiment harness all speak JSON,
//! and a registry-free build cannot pull in `serde_json`. The dialect
//! is plain RFC 8259 JSON; the API deliberately mirrors the small slice
//! of `serde_json` the workspace used (`Value`, `json!`, `as_u64`,
//! indexing), so swapping back is a path change, not a rewrite.
//!
//! One encoder per type: [`ToJson::write_json`] writes a value through
//! the [`Writer`], and [`to_string`]/[`to_string_pretty`] (or `Value`'s
//! `Display`) are how any value becomes text. The tree is for reading:
//! what [`Value::parse`] returns, what [`FromJson`] decodes from, and
//! what [`ToJson::to_json`] gives back by parsing the compact text. The
//! parser accepts only numbers the emitter can write back: one whose
//! `f64` is not finite (`1e400`) is an error.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON document.
///
/// Numbers keep three representations so that `u64` counters round-trip
/// exactly (a single `f64` variant would corrupt values above 2^53,
/// which lifetime byte counters can reach).
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative integer (non-negative integers parse as [`Value::UInt`]).
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Keys are sorted (BTreeMap), matching the default
    /// `serde_json` map and keeping emission deterministic.
    Object(BTreeMap<String, Value>),
}

static NULL: Value = Value::Null;

/// Numbers compare by numeric value across the three variants, so a
/// `40.0` that serialized as `40` and re-parsed as an integer still
/// equals the original.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Array(a), Array(b)) => a == b,
            (Object(a), Object(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (UInt(a), UInt(b)) => a == b,
            (Float(a), Float(b)) => a == b,
            (Int(a), UInt(b)) | (UInt(b), Int(a)) => {
                u64::try_from(*a).map(|a| a == *b).unwrap_or(false)
            }
            (Int(a), Float(b)) | (Float(b), Int(a)) => *a as f64 == *b,
            (UInt(a), Float(b)) | (Float(b), UInt(a)) => *a as f64 == *b,
            _ => false,
        }
    }
}

impl Value {
    /// True for `null`.
    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, when integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, when integral and in range.
    pub(crate) fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::UInt(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Any numeric value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::UInt(n) => Some(*n as f64),
            Value::Float(n) => Some(*n),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element vector, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The key/value map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Member lookup that never panics: `null` on a missing key or a
    /// non-object receiver (mirrors `serde_json` indexing).
    pub fn get(&self, key: &str) -> &Value {
        match self {
            Value::Object(m) => m.get(key).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// Element lookup that never panics.
    pub(crate) fn get_index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// Parse a JSON document. The whole input must be one value plus
    /// optional trailing whitespace.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Render with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        to_string_pretty(self)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        self.get_index(idx)
    }
}

// ---------------------------------------------------------------- emit

/// The one JSON emitter: appends a document's text to a `String` as its
/// parts are written, compact (`{"a":[1,2]}`) or pretty (two-space
/// indentation, `": "` after a name, empty containers as `[]`/`{}`).
///
/// The caller writes values in document order — `begin_object`, then
/// `key` and a value per member, then `end_object` — and the writer
/// supplies every separator, newline and indent. Nothing is allocated
/// but the text itself: numbers are formatted and strings escaped
/// straight into it. A float keeps a `.` or an exponent so it parses
/// back as a float, and a non-finite one (no JSON spelling) is `null`.
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
    /// Containers open around the next value.
    depth: usize,
    /// Nothing written yet in the innermost open container.
    first: bool,
    /// A member name was just written; its value takes no separator.
    after_key: bool,
}

impl Writer {
    fn new(pretty: bool) -> Writer {
        Writer {
            out: String::new(),
            pretty,
            depth: 0,
            first: true,
            after_key: false,
        }
    }

    /// A writer of compact text, as [`Value`]'s `Display` renders.
    pub fn compact() -> Writer {
        Writer::new(false)
    }

    /// A writer of indented text, as [`Value::to_string_pretty`] renders.
    pub fn pretty() -> Writer {
        Writer::new(true)
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// What goes before any value: nothing after a member name or at the
    /// top level; otherwise a comma unless it is the container's first,
    /// and in pretty text a new line indented to the depth.
    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) || self.depth == 0 {
            return;
        }
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        if self.pretty {
            self.newline(self.depth);
        }
    }

    fn newline(&mut self, depth: usize) {
        const SPACES: &str = "                                ";
        self.out.push('\n');
        let mut indent = 2 * depth;
        while indent > 0 {
            let n = indent.min(SPACES.len());
            self.out.push_str(&SPACES[..n]);
            indent -= n;
        }
    }

    fn open(&mut self, bracket: char) {
        self.separate();
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        // An empty container closes on the line it opened on.
        if self.pretty && !self.first {
            self.newline(self.depth);
        }
        self.first = false;
        self.out.push(bracket);
    }

    /// Open an array; its elements follow, then [`end_array`](Self::end_array).
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Open an object; `key` and a value per member follow, then
    /// [`end_object`](Self::end_object).
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// A member's name; the next value written is its value.
    pub fn key(&mut self, name: &str) -> &mut Writer {
        self.separate();
        self.escaped(name);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    /// `null`.
    pub fn null(&mut self) {
        self.separate();
        self.out.push_str("null");
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.separate();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// An unsigned integer.
    pub fn u64(&mut self, n: u64) {
        self.separate();
        push_digits(&mut self.out, n);
    }

    /// A signed integer.
    pub fn i64(&mut self, n: i64) {
        self.separate();
        if n < 0 {
            self.out.push('-');
        }
        push_digits(&mut self.out, n.unsigned_abs());
    }

    /// A float: `40.0`, not `40`, so it parses back as a float; `null`
    /// when it is not finite.
    pub fn f64(&mut self, f: f64) {
        self.separate();
        if !f.is_finite() {
            self.out.push_str("null");
            return;
        }
        let start = self.out.len();
        // `fmt::Write` into a `String` cannot fail.
        let _ = write!(self.out, "{f}");
        if !self.out[start..].contains(['.', 'e', 'E']) {
            self.out.push_str(".0");
        }
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) {
        self.separate();
        self.escaped(s);
    }

    /// `s` quoted, with `"`, `\` and every control character escaped
    /// and the runs between them copied whole.
    fn escaped(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.out.push('"');
        let mut run = 0;
        for (at, &b) in s.as_bytes().iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0c => "\\f",
                0x00..=0x1f => "\\u00",
                _ => continue,
            };
            // Every byte matched above is ASCII, so `at` is a char boundary.
            self.out.push_str(&s[run..at]);
            self.out.push_str(escape);
            if escape == "\\u00" {
                self.out.push(char::from(HEX[usize::from(b >> 4)]));
                self.out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
            run = at + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    /// `members` in byte order of their names: the order a `BTreeMap`
    /// keeps, so an object is written the way it parses back.
    /// `impl_json_struct!` sorts its field writers with this at compile
    /// time, and `impl_json_enum!` a record variant's fields as it
    /// writes them.
    #[doc(hidden)]
    pub const fn sort_members<T: Copy, const N: usize>(
        mut members: [(&str, T); N],
    ) -> [(&str, T); N] {
        const fn before(a: &str, b: &str) -> bool {
            let (a, b) = (a.as_bytes(), b.as_bytes());
            let mut i = 0;
            while i < a.len() && i < b.len() {
                if a[i] != b[i] {
                    return a[i] < b[i];
                }
                i += 1;
            }
            a.len() < b.len()
        }
        let mut i = 1;
        while i < N {
            let mut j = i;
            while j > 0 && before(members[j].0, members[j - 1].0) {
                members.swap(j, j - 1);
                j -= 1;
            }
            i += 1;
        }
        members
    }
}

/// `n` in decimal, appended to `out` without going through `fmt`.
pub(crate) fn push_digits(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// `value`'s compact JSON text (`{"a":[1,2]}`), as its
/// [`write_json`](ToJson::write_json) writes it.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    written(value, Writer::compact())
}

/// `value`'s JSON text indented by two spaces, as its
/// [`write_json`](ToJson::write_json) writes it.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    written(value, Writer::pretty())
}

fn written<T: ToJson + ?Sized>(value: &T, mut w: Writer) -> String {
    value.write_json(&mut w);
    w.into_string()
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_string(self))
    }
}

// --------------------------------------------------------------- parse

/// Parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: &'static str,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Nesting cap: control-plane payloads come off the network, and a
/// recursive-descent parser must bound its stack against `[[[[…`.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            message,
            offset: self.pos,
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

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &'static str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[', "expected '['")?;
        self.depth += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{', "expected '{'")?;
        self.depth += 1;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value()?;
            out.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut n = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let v = match d {
                b'0'..=b'9' => u32::from(d - b'0'),
                b'a'..=b'f' => u32::from(d - b'a') + 10,
                b'A'..=b'F' => u32::from(d - b'A') + 10,
                _ => return Err(self.err("bad hex digit in \\u escape")),
            };
            n = n * 16 + v;
            self.pos += 1;
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let e = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => {
                    // Multi-byte UTF-8 sequences pass through verbatim;
                    // the input is already a valid &str.
                    let start = self.pos;
                    let mut end = self.pos + 1;
                    while end < self.bytes.len() && self.bytes[end] & 0xc0 == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("malformed number")),
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !fractional {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(n) = stripped.parse::<u64>() {
                    return match i64::try_from(n) {
                        Ok(n) => Ok(Value::Int(-n)),
                        // i64::MIN: magnitude one past i64::MAX.
                        Err(_) if n == (1u64 << 63) => Ok(Value::Int(i64::MIN)),
                        Err(_) => Ok(Value::Float(-(n as f64))),
                    };
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            // `1e400`: RFC 8259 §9 lets a parser limit the range, and an
            // infinite float is a value the emitter could only write
            // back as `null`.
            Ok(_) => Err(ParseError {
                message: "number out of range",
                offset: start,
            }),
            Err(_) => Err(self.err("malformed number")),
        }
    }
}

// -------------------------------------------------------- conversions

macro_rules! impl_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::UInt(n as u64)
            }
        }
    )*};
}
impl_from_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                let n = n as i64;
                if n >= 0 {
                    Value::UInt(n as u64)
                } else {
                    Value::Int(n)
                }
            }
        }
    )*};
}
impl_from_int!(i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl From<f32> for Value {
    fn from(f: f32) -> Value {
        Value::Float(f64::from(f))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(v: &[T]) -> Value {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

// ------------------------------------------------------------- traits

/// Types that write themselves as JSON. [`write_json`](Self::write_json)
/// is a type's one encoder; the tree is for reading.
pub trait ToJson {
    /// Write this value through `w`.
    fn write_json(&self, w: &mut Writer);

    /// The value as a tree: the compact text of
    /// [`write_json`](Self::write_json), parsed back. A non-finite float
    /// reads back as `null`, as it is written.
    ///
    /// # Panics
    ///
    /// When the text nests deeper than [`Value::parse`] accepts (128
    /// levels): only a `Value` held inside the type nests that deep.
    fn to_json(&self) -> Value {
        Value::parse(&to_string(self)).expect("the writer's text parses")
    }
}

/// Types that can reconstruct themselves from a JSON [`Value`].
pub trait FromJson: Sized {
    /// Parse from a value; `None` on shape mismatch.
    fn from_json(v: &Value) -> Option<Self>;
}

impl ToJson for Value {
    /// The tree is already the value.
    fn to_json(&self) -> Value {
        self.clone()
    }

    fn write_json(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(n) => w.i64(*n),
            Value::UInt(n) => w.u64(*n),
            Value::Float(f) => w.f64(*f),
            Value::Str(s) => w.str(s),
            Value::Array(a) => a.write_json(w),
            Value::Object(m) => m.write_json(w),
        }
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Option<Value> {
        Some(v.clone())
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer) {
                w.u64(*self as u64);
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Option<$t> {
                <$t>::try_from(v.as_u64()?).ok()
            }
        }
    )*};
}
impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer) {
                w.i64(*self as i64);
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Option<$t> {
                <$t>::try_from(v.as_i64()?).ok()
            }
        }
    )*};
}
impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn write_json(&self, w: &mut Writer) {
        w.f64(*self);
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Option<f64> {
        v.as_f64()
    }
}

impl ToJson for bool {
    fn write_json(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Option<bool> {
        v.as_bool()
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Option<String> {
        v.as_str().map(str::to_string)
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        w.begin_array();
        for e in self {
            e.write_json(w);
        }
        w.end_array();
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Option<Vec<T>> {
        v.as_array()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(t) => t.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Option<Option<T>> {
        if v.is_null() {
            Some(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for &T {
    fn write_json(&self, w: &mut Writer) {
        (*self).write_json(w);
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(v: &Value) -> Option<Box<T>> {
        T::from_json(v).map(Box::new)
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        for (k, v) in self {
            v.write_json(w.key(k));
        }
        w.end_object();
    }
}

impl<T: FromJson> FromJson for BTreeMap<String, T> {
    fn from_json(v: &Value) -> Option<BTreeMap<String, T>> {
        v.as_object()?
            .iter()
            .map(|(k, v)| T::from_json(v).map(|v| (k.clone(), v)))
            .collect()
    }
}

macro_rules! impl_json_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: ToJson),+> ToJson for ($($t,)+) {
            fn write_json(&self, w: &mut Writer) {
                w.begin_array();
                $(self.$n.write_json(w);)+
                w.end_array();
            }
        }
        impl<$($t: FromJson),+> FromJson for ($($t,)+) {
            fn from_json(v: &Value) -> Option<Self> {
                let a = v.as_array()?;
                let mut it = a.iter();
                let out = ($($t::from_json(it.next()?)?,)+);
                if it.next().is_some() {
                    return None;
                }
                Some(out)
            }
        }
    )*};
}
impl_json_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Derive [`ToJson`]/[`FromJson`] for a plain struct as a JSON object
/// with one member per named field (fields must implement the traits;
/// works with private fields when invoked in the defining module).
/// `write_json` writes the members in byte order of their names, the
/// order a parsed object's map holds them, whatever order the list has.
///
/// A type whose fields must agree with each other names the check after
/// the field list, `… } if Type::coherent`, a `fn(&Type) -> bool`: a
/// document whose fields each decode but fail it decodes to `None`, so
/// text from outside can build no value the type's own constructors
/// could not.
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        $crate::impl_json_struct!($ty { $($field),+ } if |_: &$ty| true);
    };
    ($ty:ty { $($field:ident),+ $(,)? } if $coherent:expr) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, w: &mut $crate::json::Writer) {
                const MEMBERS: &[(&str, fn(&$ty, &mut $crate::json::Writer))] =
                    &$crate::json::Writer::sort_members::<fn(&$ty, &mut $crate::json::Writer), _>([$((
                        ::core::stringify!($field),
                        |v: &$ty, w: &mut $crate::json::Writer| {
                            $crate::json::ToJson::write_json(&v.$field, w)
                        },
                    )),+]);
                w.begin_object();
                for (name, write) in MEMBERS {
                    write(self, w.key(name));
                }
                w.end_object();
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value) -> ::core::option::Option<Self> {
                let object = v.as_object()?;
                ::core::option::Option::Some(Self {
                    $(
                        $field: $crate::json::FromJson::from_json(
                            object
                                .get(::core::stringify!($field))
                                .unwrap_or(&$crate::json::Value::Null),
                        )?,
                    )+
                })
                .filter($coherent)
            }
        }
    };
}

/// Derive [`ToJson`]/[`FromJson`] for an enum in serde's externally
/// tagged form, the one format every wire enum of the workspace uses.
/// Each variant is listed in the shape it is declared in:
///
/// * unit, `Name` → the string `"Name"`;
/// * newtype, `Name(binding)` → `{"Name": value}`;
/// * record, `Name { field, … }` → `{"Name": {"field": value, …}}`.
///
/// Encoding matches on `self`, so a variant missing from the list does
/// not compile, and writes a record's fields in byte order of their
/// names. Decoding is total: an unknown name, a unit variant sent
/// as an object, a data variant sent as a string, an object with any
/// number of keys but one, and a body a field does not decode from are
/// all `None`. Members of a record body that the variant does not name
/// are ignored.
///
/// ```
/// use flexsfp_obs::json::{self, FromJson, Value};
///
/// #[derive(Debug, PartialEq)]
/// enum Op {
///     Clear,
///     Echo(String),
///     Read { table: u8, key: Vec<u8> },
/// }
/// flexsfp_obs::impl_json_enum!(Op { Clear, Echo(text), Read { table, key } });
///
/// let op = Op::Read { table: 1, key: vec![7] };
/// assert_eq!(json::to_string(&op), r#"{"Read":{"key":[7],"table":1}}"#);
/// assert_eq!(json::to_string(&Op::Clear), r#""Clear""#);
/// assert_eq!(Op::from_json(&Value::parse(r#"{"Echo":"hi"}"#).unwrap()), Some(Op::Echo("hi".into())));
/// assert_eq!(Op::from_json(&Value::parse(r#"{"Clear":{}}"#).unwrap()), None);
/// ```
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ty {
        $(
            $variant:ident
            $( ( $inner:ident ) )?
            $( { $( $field:ident ),* $(,)? } )?
        ),+ $(,)?
    }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, w: &mut $crate::json::Writer) {
                match self {
                    $(
                        Self::$variant $( ( $inner ) )? $( { $( $field ),* } )? => {
                            $crate::json_enum_internal!(
                                @write w, $variant $( ( $inner ) )? $( { $( $field ),* } )?
                            )
                        }
                    )+
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value) -> ::core::option::Option<Self> {
                // A string names a unit variant; an object of exactly
                // one key names a data variant and holds its body.
                let (tag, body) = match v {
                    $crate::json::Value::Str(tag) => (tag.as_str(), ::core::option::Option::None),
                    $crate::json::Value::Object(object) => {
                        if object.len() != 1 {
                            return ::core::option::Option::None;
                        }
                        let (tag, body) = object.iter().next()?;
                        (tag.as_str(), ::core::option::Option::Some(body))
                    }
                    _ => return ::core::option::Option::None,
                };
                match tag {
                    $(
                        ::core::stringify!($variant) => {
                            $crate::json_enum_internal!(
                                @decode body, $variant $( ( $inner ) )? $( { $( $field ),* } )?
                            )
                        }
                    )+
                    _ => ::core::option::Option::None,
                }
            }
        }
    };
}

/// Implementation detail of [`impl_json_enum!`]: how one variant of
/// each shape is written, and what it decodes from.
#[doc(hidden)]
#[macro_export]
macro_rules! json_enum_internal {
    (@write $w:ident, $variant:ident) => {
        $w.str(::core::stringify!($variant))
    };
    (@write $w:ident, $variant:ident ( $inner:ident )) => {{
        $w.begin_object();
        $crate::json::ToJson::write_json($inner, $w.key(::core::stringify!($variant)));
        $w.end_object();
    }};
    (@write $w:ident, $variant:ident { $( $field:ident ),* }) => {{
        let members: [(&str, &dyn $crate::json::ToJson); _] =
            $crate::json::Writer::sort_members([$(
                (::core::stringify!($field), $field as &dyn $crate::json::ToJson)
            ),*]);
        $w.begin_object();
        $w.key(::core::stringify!($variant)).begin_object();
        for (name, value) in members {
            value.write_json($w.key(name));
        }
        $w.end_object();
        $w.end_object();
    }};
    (@decode $body:ident, $variant:ident) => {
        $body.is_none().then_some(Self::$variant)
    };
    (@decode $body:ident, $variant:ident ( $inner:ident )) => {
        ::core::option::Option::Some(Self::$variant($crate::json::FromJson::from_json($body?)?))
    };
    (@decode $body:ident, $variant:ident { $( $field:ident ),* }) => {{
        let body = $body?;
        ::core::option::Option::Some(Self::$variant {
            $( $field: $crate::json::FromJson::from_json(body.get(::core::stringify!($field)))? ),*
        })
    }};
}

// -------------------------------------------------------------- json!

/// Construct a [`Value`] from a JSON literal, `serde_json::json!`-style:
/// `json!({"port": 80, "backends": [1, 2]})`. Interpolated expressions
/// go through `Value::from`.
#[macro_export]
macro_rules! json {
    ($($json:tt)+) => {
        $crate::json_internal!($($json)+)
    };
}

/// Implementation detail of [`json!`] (a token-tree muncher in the
/// style of `serde_json`'s).
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal {
    // Done with trailing comma.
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    // Done without trailing comma.
    (@array [$($elems:expr),*]) => {
        vec![$($elems),*]
    };
    // Next element is `null`.
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    // Next element is `true`.
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true)] $($rest)*)
    };
    // Next element is `false`.
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false)] $($rest)*)
    };
    // Next element is an array.
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    // Next element is an object.
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    // Next element is an expression followed by a comma.
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    // Last element is an expression with no trailing comma.
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    // Comma after the most recent element.
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // Done.
    (@object $object:ident () () ()) => {};
    // Insert the entry followed by a trailing comma.
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(($($key)+).into(), $value);
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    // Insert the last entry without a trailing comma.
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        let _ = $object.insert(($($key)+).into(), $value);
    };
    // Next value is `null`.
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    // Next value is `true`.
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    // Next value is `false`.
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    // Next value is an array.
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    // Next value is an object.
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    // Next value is an expression followed by a comma.
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    // Last value is an expression with no trailing comma.
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    // Munch a token into the current key.
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) $copy);
    };

    // Primary entry points.
    (null) => {
        $crate::json::Value::Null
    };
    (true) => {
        $crate::json::Value::Bool(true)
    };
    (false) => {
        $crate::json::Value::Bool(false)
    };
    ([]) => {
        $crate::json::Value::Array(::std::vec::Vec::new())
    };
    ([ $($tt:tt)+ ]) => {
        $crate::json::Value::Array($crate::json_internal!(@array [] $($tt)+))
    };
    ({}) => {
        $crate::json::Value::Object(::std::collections::BTreeMap::new())
    };
    ({ $($tt:tt)+ }) => {
        $crate::json::Value::Object({
            let mut object = ::std::collections::BTreeMap::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            object
        })
    };
    ($other:expr) => {
        $crate::json::Value::from($other)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-7", "42", "\"hi\""] {
            let v = Value::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn numbers_preserve_width_and_sign() {
        assert_eq!(
            Value::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(
            Value::parse("-9223372036854775808").unwrap().as_i64(),
            Some(i64::MIN)
        );
        let f = Value::parse("2.5e3").unwrap();
        assert_eq!(f.as_f64(), Some(2500.0));
        assert_eq!(f.as_u64(), None);
    }

    #[test]
    fn floats_emit_reparseably() {
        assert_eq!(Value::Float(40.0).to_string(), "40.0");
        assert_eq!(Value::Float(0.5).to_string(), "0.5");
        let back = Value::parse(&Value::Float(40.0).to_string()).unwrap();
        assert!(matches!(back, Value::Float(_)));
        assert_eq!(Value::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn cross_variant_numeric_equality() {
        assert_eq!(Value::UInt(40), Value::Float(40.0));
        assert_eq!(Value::UInt(7), Value::Int(7));
        assert_ne!(Value::UInt(7), Value::Int(-7));
        assert_ne!(Value::UInt(1), Value::Bool(true));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nbreak \"quoted\" back\\slash tab\t snowman\u{2603} nul\u{1}";
        let v = Value::Str(original.into());
        let text = v.to_string();
        assert_eq!(Value::parse(&text).unwrap().as_str(), Some(original));
        // \u escapes, including a surrogate pair.
        let parsed = Value::parse(r#""\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(parsed.as_str(), Some("é😀"));
    }

    #[test]
    fn nested_document_round_trips() {
        let text = r#"{"a":[1,2.5,{"b":null}],"c":"x","d":true}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v["a"][1], Value::Float(2.5));
        assert_eq!(v["a"][2]["b"], Value::Null);
        assert_eq!(v["missing"]["deep"], Value::Null);
    }

    #[test]
    fn malformed_inputs_rejected() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "01",
            "1.",
            "1e",
            "\"\\x\"",
            "\"unterminated",
            "[1] trailing",
            "+1",
            "nan",
            "\"\u{1}\"",
        ] {
            // Raw control char needs constructing without the escape.
            assert!(Value::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn numbers_beyond_f64_are_rejected() {
        let digits = "9".repeat(400);
        for text in ["1e400", "-1e400", "1.5E+309", digits.as_str()] {
            let doc = format!("[0, {text}]");
            let error = Value::parse(&doc).expect_err(text);
            assert_eq!((error.message, error.offset), ("number out of range", 4));
        }
        // The largest finite float and an underflow to zero still parse.
        let max = Value::Float(f64::MAX).to_string();
        assert_eq!(Value::parse(&max), Ok(Value::Float(f64::MAX)));
        assert_eq!(Value::parse("1e-400"), Ok(Value::Float(0.0)));
    }

    #[test]
    fn deep_nesting_bounded() {
        let text = "[".repeat(1000) + &"]".repeat(1000);
        assert!(Value::parse(&text).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn json_macro_builds_nested_documents() {
        let port = 443u16;
        let v = json!({
            "kind": "gre",
            "endpoints": [1, 2],
            "port": port,
            "nested": {"deep": [{"x": 1u64}], "flag": true},
            "nothing": null,
        });
        assert_eq!(v["kind"].as_str(), Some("gre"));
        assert_eq!(v["endpoints"].as_array().unwrap().len(), 2);
        assert_eq!(v["port"].as_u64(), Some(443));
        assert_eq!(v["nested"]["deep"][0]["x"], 1u64.to_json());
        assert_eq!(v["nested"]["flag"].as_bool(), Some(true));
        assert!(v["nothing"].is_null());
        assert_eq!(json!([]), Value::Array(vec![]));
        assert_eq!(json!({}), Value::Object(BTreeMap::new()));
        assert_eq!(json!(3.5), Value::Float(3.5));
    }

    #[test]
    fn pretty_printer_formats_and_reparses() {
        let v = json!({"a": [1, 2], "b": {"c": "d"}});
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"a\": [\n    1,\n    2\n  ]"));
        assert_eq!(Value::parse(&pretty).unwrap(), v);
        assert_eq!(json!({}).to_string_pretty(), "{}");
    }

    #[test]
    fn struct_macro_round_trips() {
        #[derive(Debug, PartialEq)]
        struct Demo {
            name: String,
            n: u64,
            ratio: f64,
            tags: Vec<u32>,
            maybe: Option<i32>,
        }
        impl_json_struct!(Demo {
            name,
            n,
            ratio,
            tags,
            maybe
        });
        let d = Demo {
            name: "x".into(),
            n: u64::MAX,
            ratio: 0.25,
            tags: vec![1, 2],
            maybe: None,
        };
        let v = d.to_json();
        let text = v.to_string();
        let back = Demo::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, d);
        // A missing non-optional field fails to parse.
        assert!(Demo::from_json(&json!({"name": "x"})).is_none());
    }

    #[test]
    fn struct_macro_streams_members_in_byte_order() {
        struct Demo {
            counts: Vec<u8>,
            count: u8,
            b: bool,
            a_b: Option<u8>,
            a: String,
        }
        impl_json_struct!(Demo {
            counts,
            count,
            b,
            a_b,
            a
        });
        let d = Demo {
            counts: vec![2],
            count: 1,
            b: true,
            a_b: None,
            a: "x".into(),
        };
        let text = r#"{"a":"x","a_b":null,"b":true,"count":1,"counts":[2]}"#;
        assert_eq!(to_string(&d), text);
    }

    #[test]
    fn enum_macro_is_externally_tagged_and_total() {
        #[derive(Debug, PartialEq)]
        enum Demo {
            Idle,
            Note(Box<i32>),
            Move { x: i32, y: Option<u8> },
        }
        impl_json_enum!(Demo {
            Idle,
            Note(code),
            Move { x, y },
        });
        for (value, text) in [
            (Demo::Idle, r#""Idle""#),
            (Demo::Note(Box::new(-2)), r#"{"Note":-2}"#),
            (
                Demo::Move { x: -3, y: None },
                r#"{"Move":{"x":-3,"y":null}}"#,
            ),
        ] {
            assert_eq!(to_string(&value), text);
            assert_eq!(Demo::from_json(&Value::parse(text).unwrap()), Some(value));
        }
        // A missing optional field is absent; an unnamed member is ignored.
        assert_eq!(
            Demo::from_json(&json!({"Move": {"x": 1, "z": true}})),
            Some(Demo::Move { x: 1, y: None })
        );
        for refused in [
            json!("Note"),
            json!("Nope"),
            json!({"Idle": null}),
            json!({"Nope": 1}),
            json!({"Note": "x"}),
            json!({"Move": 5}),
            json!({"Move": {"y": 1}}),
            json!({"Idle": null, "Note": 1}),
            json!({}),
            json!(["Idle"]),
            json!(null),
        ] {
            assert_eq!(Demo::from_json(&refused), None, "{refused}");
        }
    }

    #[test]
    fn option_and_tuple_encoding_matches_serde_conventions() {
        assert_eq!(to_string(&Some(5u32)), "5");
        assert_eq!(to_string(&None::<u32>), "null");
        assert_eq!(to_string(&(1u32, 2u8)), "[1,2]");
        let t: Option<Option<(u32, u8)>> = FromJson::from_json(&Value::parse("[7,8]").unwrap());
        assert_eq!(t, Some(Some((7u32, 8u8))));
        let n: Option<(u32, u8)> = Option::from_json(&Value::Null).unwrap();
        assert_eq!(n, None);
    }
}
