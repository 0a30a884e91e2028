//! The one JSON reader and writer in the workspace.
//!
//! Job specs, fault plans, cluster exports, `pipette serve` envelopes,
//! budget manifests and JSONL traces are read with [`parse`]; typed
//! values are decoded from the resulting [`JsonValue`] in one strict walk
//! with [`Fields`], which checks keys, types and required members and
//! names the offending path in every [`DecodeError`]. Traces, serve
//! responses and `drill --json` reports are written with [`Obj`] and
//! [`render_value`]; documents meant for people (`configure --json`,
//! cluster exports, the perf report) are built as a [`JsonValue`] and
//! written with [`render_pretty`].
//!
//! Reading is RFC 8259 JSON with limits that make hostile input a typed
//! [`JsonError`] rather than a crash or a silently different document:
//!
//! - arrays and objects nest at most [`MAX_DEPTH`] deep, so the
//!   recursive descent cannot overflow the stack;
//! - duplicate object keys, raw control characters in strings and
//!   numbers outside the finite `f64` range are errors;
//! - an escaped surrogate pair (`"\ud83d\ude00"`) decodes to one scalar
//!   value, and a lone surrogate is an error;
//! - an integer literal above 2^53 never reads back as 2^53, so
//!   [`JsonValue::as_u64`] rejects it instead of returning a different
//!   integer.
//!
//! Writing is canonical: fields in the caller's order, no whitespace,
//! Rust's shortest-round-trip float formatting, and `null` for
//! non-finite floats. Identical values render to identical bytes, and
//! re-rendering a parsed rendering is a fixed point.

use std::fmt;
use std::fmt::Write as _;

/// 2^53: every integer up to here is exact as an `f64`.
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, kept as `f64`: every number the canonical writer
    /// emits round-trips exactly, and logical costs stay far below 2^53.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order (duplicate keys are a parse error).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object with `members` in the given order.
    pub fn object<'k>(members: impl IntoIterator<Item = (&'k str, JsonValue)>) -> Self {
        JsonValue::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Object member lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The member keys of an object (empty for non-objects).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            JsonValue::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// A short name for the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "boolean",
            JsonValue::Number(_) => "number",
            JsonValue::String(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number no
    /// larger than 2^53 (every such `f64` is exact).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= TWO_POW_53 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Number(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(v.to_owned())
    }
}

impl<T: Into<JsonValue>> FromIterator<T> for JsonValue {
    /// Collects into an array.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        JsonValue::Array(iter.into_iter().map(Into::into).collect())
    }
}

/// The strict key check: the first key of `value` that is not in
/// `allowed`, or `None` when every key is allowed (or `value` is not an
/// object). Callers turn a hit into their own typed "unknown field"
/// error, so a typo fails loudly instead of falling back to a default.
pub fn first_unknown_key<'v>(value: &'v JsonValue, allowed: &[&str]) -> Option<&'v str> {
    match value {
        JsonValue::Object(members) => members
            .iter()
            .map(|(k, _)| k.as_str())
            .find(|k| !allowed.contains(k)),
        _ => None,
    }
}

/// A syntax error with byte offset, so callers can point at the spot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. Every document the
/// workspace reads nests a handful of levels; the limit bounds the
/// parser's recursion.
pub const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document (one value plus surrounding
/// whitespace).
///
/// # Errors
///
/// [`JsonError`] describing the first syntax problem.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn expect_byte(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'{')?;
        let mut members: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // A run of plain characters. It starts after and ends
                    // before an ASCII byte (or the end of input), so the
                    // slice spans whole chars.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20)
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Decodes `\uXXXX`, or a `\uD8xx\uDCxx` surrogate pair, with
    /// `self.pos` on the first `u`; leaves `self.pos` on the last hex
    /// digit consumed.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        let code = match self.hex4() {
            Some(high @ 0xD800..=0xDBFF) => {
                if self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u".as_slice()) {
                    self.pos += 2;
                    self.hex4()
                        .filter(|low| (0xDC00..=0xDFFF).contains(low))
                        .map(|low| 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00))
                } else {
                    None
                }
            }
            other => other,
        };
        // `from_u32` rejects a lone low surrogate.
        code.and_then(char::from_u32).ok_or_else(|| JsonError {
            offset: at,
            message: "invalid \\u escape".to_owned(),
        })
    }

    /// Reads the four hex digits after the `u` at `self.pos`, moving onto
    /// the last one.
    fn hex4(&mut self) -> Option<u32> {
        let digits = self.bytes.get(self.pos + 1..self.pos + 5)?;
        let mut code = 0;
        for &b in digits {
            code = code * 16 + char::from(b).to_digit(16)?;
        }
        self.pos += 4;
        Some(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        // Every byte of the scanned run is ASCII.
        let literal = &self.text[start..self.pos];
        let value = literal
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| self.err("invalid number"))?;
        // 2^53 + 1 lies halfway between 2^53 and 2^53 + 2, and the tie
        // rounds to even: 2^53. Read it as 2^53 + 2 instead, so that only
        // the literal 2^53 itself passes `as_u64`'s `<= 2^53` check.
        if value.abs() == TWO_POW_53 && literal.trim_start_matches('-') == "9007199254740993" {
            return Ok(JsonValue::Number(value + 2.0f64.copysign(value)));
        }
        Ok(JsonValue::Number(value))
    }
}

/// JSON object writer with a fixed field order: fields appear exactly
/// in call order, with no whitespace.
pub struct Obj<'a> {
    out: &'a mut String,
}

impl<'a> Obj<'a> {
    /// Starts an object at the end of `out`.
    pub fn open(out: &'a mut String) -> Self {
        out.push('{');
        Self { out }
    }

    /// Writes a member name (and the separating comma when needed); the
    /// caller writes the value.
    pub fn key(&mut self, name: &str) {
        if !self.out.ends_with('{') {
            self.out.push(',');
        }
        push_json_string(self.out, name);
        self.out.push(':');
    }

    /// An unsigned integer member.
    pub fn uint(&mut self, name: &str, v: u64) {
        self.key(name);
        let _ = write!(self.out, "{v}");
    }

    /// A float member ([`push_f64`] formatting).
    pub fn float(&mut self, name: &str, v: f64) {
        self.key(name);
        push_f64(self.out, v);
    }

    /// A boolean member.
    pub fn boolean(&mut self, name: &str, v: bool) {
        self.key(name);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// A string member, escaped.
    pub fn string(&mut self, name: &str, v: &str) {
        self.key(name);
        push_json_string(self.out, v);
    }

    /// A pre-rendered JSON value (object, array, `null`), written verbatim.
    pub fn raw(&mut self, name: &str, v: &str) {
        self.key(name);
        self.out.push_str(v);
    }

    /// Ends the object.
    pub fn close(self) {
        self.out.push('}');
    }
}

/// Appends the shortest decimal string that parses back to the same
/// bits; non-finite values become `null` (JSON has no NaN/Inf).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's `Display` for f64 never uses exponent notation, so the
        // output is always a valid JSON number.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string. Quotes, backslashes and control
/// characters are escaped; everything else is written as-is.
pub fn push_json_string(out: &mut String, s: &str) {
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

/// Renders a [`JsonValue`] as canonical single-line JSON: source key
/// order, no whitespace, shortest round-trip numbers.
pub fn render_value(value: &JsonValue) -> String {
    let mut out = String::new();
    push_value(&mut out, value);
    out
}

/// Renders a [`JsonValue`] for people to read: one member or element per
/// line, two-space indentation, `": "` after each key, and `[]` / `{}`
/// for empty containers. Scalars are written as [`render_value`] writes
/// them.
pub fn render_pretty(value: &JsonValue) -> String {
    let mut out = String::new();
    push_pretty(&mut out, value, 0);
    out
}

fn push_pretty(out: &mut String, value: &JsonValue, depth: usize) {
    let (open, close, items): (char, char, Vec<(Option<&str>, &JsonValue)>) = match value {
        JsonValue::Array(items) if !items.is_empty() => {
            ('[', ']', items.iter().map(|v| (None, v)).collect())
        }
        JsonValue::Object(members) if !members.is_empty() => (
            '{',
            '}',
            members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        ),
        other => return push_value(out, other),
    };
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', 2 * depth));
    };
    out.push(open);
    for (i, (key, item)) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, depth + 1);
        if let Some(key) = key {
            push_json_string(out, key);
            out.push_str(": ");
        }
        push_pretty(out, item, depth + 1);
    }
    newline(out, depth);
    out.push(close);
}

fn push_value(out: &mut String, value: &JsonValue) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) => push_f64(out, *n),
        JsonValue::String(s) => push_json_string(out, s),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_value(out, item);
            }
            out.push(']');
        }
        JsonValue::Object(members) => {
            let mut o = Obj::open(out);
            for (k, v) in members {
                o.key(k);
                push_value(o.out, v);
            }
            o.close();
        }
    }
}

/// Why a parsed document does not decode into a typed value. Each
/// variant says where: a member path such as `model.heads` or
/// `straggler_gpus[0].slowdown`, or the object a key belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A value of the wrong type, or a number the field cannot hold.
    Malformed(String),
    /// A key the schema does not define (usually a typo).
    UnknownField {
        /// The object the key appeared in, e.g. `"cluster"`.
        context: String,
        /// The offending key.
        field: String,
        /// The keys accepted there.
        allowed: &'static str,
    },
    /// A required key is absent.
    MissingField {
        /// The object the key was expected in.
        context: String,
        /// The missing key.
        field: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Malformed(reason) => f.write_str(reason),
            DecodeError::UnknownField {
                context,
                field,
                allowed,
            } => write!(
                f,
                "unknown field {field:?} in {context} (accepted fields: {allowed})"
            ),
            DecodeError::MissingField { context, field } => {
                write!(f, "{context} is missing required field {field:?}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The keys one object accepts and requires.
#[derive(Debug, Clone, Copy)]
pub struct Schema {
    /// Every accepted key.
    pub keys: &'static [&'static str],
    /// The accepted keys as an unknown-field error lists them.
    pub accepted: &'static str,
    /// Keys that must be present.
    pub required: &'static [&'static str],
}

/// One object of a document being decoded. Its keys were checked against
/// a [`Schema`] when it was opened, so a typo fails loudly instead of
/// falling back to a default; each typed read names the member's full
/// path when the value does not fit. Every constructor and read returns
/// the first [`DecodeError`] it finds.
#[derive(Debug, Clone)]
pub struct Fields<'v> {
    value: &'v JsonValue,
    context: String,
    prefix: String,
}

impl<'v> Fields<'v> {
    /// Opens a document root, called `name` (e.g. `"job spec"`) in key
    /// errors; its members' paths are their bare keys. Fails if `value`
    /// is not an object, has a key outside the schema, or lacks a
    /// required key.
    pub fn root(value: &'v JsonValue, name: &str, schema: &Schema) -> Result<Self, DecodeError> {
        Self::open(value, name.to_owned(), String::new(), schema)
    }

    /// Opens the object found at `path` (e.g. `"cluster"` or
    /// `"degraded_links[2]"`), which also names it in key errors. Fails
    /// as [`Self::root`] does.
    pub fn at(value: &'v JsonValue, path: String, schema: &Schema) -> Result<Self, DecodeError> {
        let prefix = format!("{path}.");
        Self::open(value, path, prefix, schema)
    }

    fn open(
        value: &'v JsonValue,
        context: String,
        prefix: String,
        schema: &Schema,
    ) -> Result<Self, DecodeError> {
        if !matches!(value, JsonValue::Object(_)) {
            return Err(DecodeError::Malformed(format!(
                "{context} must be an object, got {}",
                value.type_name()
            )));
        }
        if let Some(key) = first_unknown_key(value, schema.keys) {
            return Err(DecodeError::UnknownField {
                context,
                field: key.to_owned(),
                allowed: schema.accepted,
            });
        }
        if let Some(&field) = schema.required.iter().find(|k| value.get(k).is_none()) {
            return Err(DecodeError::MissingField { context, field });
        }
        Ok(Self {
            value,
            context,
            prefix,
        })
    }

    /// The full path of member `key`, as errors name it.
    pub fn path(&self, key: &str) -> String {
        format!("{}{key}", self.prefix)
    }

    /// Member `key`, if present (`null` counts as present).
    pub fn get(&self, key: &str) -> Option<&'v JsonValue> {
        self.value.get(key)
    }

    /// Decodes member `key` with `read` (e.g. [`uint`]), or `None` when
    /// it is absent.
    pub fn optional<T>(
        &self,
        key: &str,
        read: impl FnOnce(&'v JsonValue, &str) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        self.get(key).map(|v| read(v, &self.path(key))).transpose()
    }

    /// Decodes member `key` with `read`; an absent member is a
    /// [`DecodeError::MissingField`].
    pub fn required<T>(
        &self,
        key: &'static str,
        read: impl FnOnce(&'v JsonValue, &str) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        self.optional(key, read)?
            .ok_or_else(|| DecodeError::MissingField {
                context: self.context.clone(),
                field: key,
            })
    }

    /// Decodes array member `key` element by element, passing `read` each
    /// element's path (`key[i]`); an absent member is empty.
    pub fn list<T>(
        &self,
        key: &str,
        mut read: impl FnMut(&'v JsonValue, String) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let Some(value) = self.get(key) else {
            return Ok(Vec::new());
        };
        let path = self.path(key);
        array(value, &path)?
            .iter()
            .enumerate()
            .map(|(i, item)| read(item, format!("{path}[{i}]")))
            .collect()
    }
}

// The typed readers below each return the value, or a
// `DecodeError::Malformed` naming `path` and what was found there.

fn mismatch(value: &JsonValue, path: &str, expected: &str) -> DecodeError {
    let found = match value {
        JsonValue::Number(n) if n.abs() < TWO_POW_53 => n.to_string(),
        other => other.type_name().to_owned(),
    };
    DecodeError::Malformed(format!("{path}: expected {expected}, found {found}"))
}

/// Reads an integer in `0..=2^53` (see [`JsonValue::as_u64`]).
pub fn uint(value: &JsonValue, path: &str) -> Result<u64, DecodeError> {
    value
        .as_u64()
        .ok_or_else(|| mismatch(value, path, "an integer in 0..=2^53"))
}

/// Reads an integer in `0..=2^53` as a `usize`.
pub fn size(value: &JsonValue, path: &str) -> Result<usize, DecodeError> {
    usize::try_from(uint(value, path)?)
        .map_err(|_| mismatch(value, path, "an integer that fits this platform"))
}

/// Reads a number.
pub fn float(value: &JsonValue, path: &str) -> Result<f64, DecodeError> {
    value
        .as_f64()
        .ok_or_else(|| mismatch(value, path, "a number"))
}

/// Reads a boolean.
pub fn boolean(value: &JsonValue, path: &str) -> Result<bool, DecodeError> {
    value
        .as_bool()
        .ok_or_else(|| mismatch(value, path, "a boolean"))
}

/// Reads a string.
pub fn string<'v>(value: &'v JsonValue, path: &str) -> Result<&'v str, DecodeError> {
    value
        .as_str()
        .ok_or_else(|| mismatch(value, path, "a string"))
}

/// Reads an array.
pub fn array<'v>(value: &'v JsonValue, path: &str) -> Result<&'v [JsonValue], DecodeError> {
    value
        .as_array()
        .ok_or_else(|| mismatch(value, path, "an array"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::CostUnit;
    use crate::{EventKind, Trace, TraceConfig};

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, -2.5, "x\n"], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(v.keys(), vec!["a", "b"]);
        assert_eq!(
            v.get("a"),
            Some(&JsonValue::Array(vec![
                JsonValue::Number(1.0),
                JsonValue::Number(-2.5),
                JsonValue::String("x\n".into()),
            ]))
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": 1,}",
            "[1 2]",
            "{\"a\": 1} trailing",
            "{\"a\": 1, \"a\": 2}",
            "\"unterminated",
            "01a",
            "{\"a\": Infinity}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn reports_offsets() {
        let err = parse("{\"a\": nope}").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn parser_handles_scalars_arrays_and_objects() {
        let v = parse(r#"{"a":1,"b":-2.5,"c":"x\"y","d":[true,false,null],"e":{"f":3}}"#)
            .expect("valid json");
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(JsonValue::as_f64), Some(-2.5));
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x\"y"));
        assert_eq!(
            v.get("d")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("e")
                .and_then(|e| e.get("f"))
                .and_then(JsonValue::as_u64),
            Some(3)
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse(r#"{"a"}"#).is_err());
        assert!(parse("nulls").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn parser_handles_escapes() {
        let v = parse(r#""a\n\tA\\""#).expect("valid");
        assert_eq!(v.as_str(), Some("a\n\tA\\"));
    }

    #[test]
    fn render_value_round_trips_canonically() {
        let src = r#"{"b": 1, "a": [true, null, "x\n"], "n": -2.5}"#;
        let parsed = parse(src).unwrap();
        let rendered = render_value(&parsed);
        // Source key order, no whitespace, shortest floats.
        assert_eq!(rendered, r#"{"b":1,"a":[true,null,"x\n"],"n":-2.5}"#);
        // Canonical form is a fixed point.
        let reparsed = parse(&rendered).unwrap();
        assert_eq!(render_value(&reparsed), rendered);
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn floats_round_trip_shortest() {
        let mut out = String::new();
        push_f64(&mut out, 0.1 + 0.2);
        assert_eq!(out, "0.30000000000000004");
        let mut out = String::new();
        push_f64(&mut out, 3.0);
        assert_eq!(out, "3");
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_errors() {
        // Python's `json.dumps("run-😀")` spelling.
        let v = parse(r#""run-\ud83d\ude00""#).expect("escaped pair");
        assert_eq!(v.as_str(), Some("run-😀"));
        assert_eq!(render_value(&v), "\"run-😀\"");
        assert_eq!(
            parse(r#""\u00e9\u0041""#).unwrap().as_str(),
            Some("\u{e9}A")
        );
        for bad in [
            r#""\ud800""#,
            r#""\ud800x""#,
            r#""\ud800\n""#,
            r#""\ud800A""#,
            r#""\ude00""#,
            r#""\ud83d\ud83d""#,
            r#""\u+123""#,
            r#""\u12""#,
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.message.contains("escape"), "{bad}: {err}");
        }
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH + 1)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 2)).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        // Far past the limit is the same typed error, not a stack overflow.
        let err = parse(&nested(100_000)).unwrap_err();
        assert!(err.to_string().starts_with("nesting too deep at byte"));
        let objects = format!("{}1{}", r#"{"a":"#.repeat(100_000), "}".repeat(100_000));
        assert_eq!(parse(&objects).unwrap_err().message, "nesting too deep");
    }

    #[test]
    fn control_characters_and_non_finite_numbers_are_rejected() {
        assert!(parse("\"a\u{1}b\"").is_err());
        assert!(parse("\"tab\there\"").is_err());
        assert!(parse("1e999").is_err());
        assert!(parse("-1e999").is_err());
        assert_eq!(parse("1e300").unwrap(), JsonValue::Number(1e300));
    }

    #[test]
    fn first_unknown_key_names_the_first_stray_key() {
        let v = parse(r#"{"a":1,"typo":2,"b":3,"other":4}"#).unwrap();
        assert_eq!(first_unknown_key(&v, &["a", "b"]), Some("typo"));
        assert_eq!(first_unknown_key(&v, &["a", "b", "typo", "other"]), None);
        assert_eq!(first_unknown_key(&JsonValue::Null, &[]), None);
    }

    #[test]
    fn obj_writes_fields_in_call_order() {
        let mut out = String::new();
        let mut o = Obj::open(&mut out);
        o.uint("n", 3);
        o.float("x", f64::INFINITY);
        o.boolean("ok", true);
        o.string("s", "a\"b");
        o.raw("r", "[1,{}]");
        o.close();
        assert_eq!(out, r#"{"n":3,"x":null,"ok":true,"s":"a\"b","r":[1,{}]}"#);
    }

    #[test]
    fn render_pretty_indents_members_and_keeps_empty_containers_inline() {
        let doc = JsonValue::object([
            ("n", 3u64.into()),
            ("x", 0.25.into()),
            ("empty", JsonValue::Array(Vec::new())),
            ("none", JsonValue::Object(Vec::new())),
            ("list", [1u64, 2].into_iter().collect()),
            (
                "inner",
                JsonValue::object([("s", "a\"b".into()), ("ok", true.into())]),
            ),
        ]);
        assert_eq!(
            render_pretty(&doc),
            "{\n  \"n\": 3,\n  \"x\": 0.25,\n  \"empty\": [],\n  \"none\": {},\n  \
             \"list\": [\n    1,\n    2\n  ],\n  \"inner\": {\n    \"s\": \"a\\\"b\",\n    \
             \"ok\": true\n  }\n}"
        );
        assert_eq!(parse(&render_pretty(&doc)).unwrap(), doc);
        assert_eq!(render_pretty(&JsonValue::Null), "null");
    }

    #[test]
    fn integers_above_two_pow_53_never_read_back_as_two_pow_53() {
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        for above in [
            "9007199254740993",
            "9007199254740994",
            "18446744073709551616",
        ] {
            let v = parse(above).unwrap();
            assert!(v.as_f64().unwrap() > TWO_POW_53, "{above}");
            assert_eq!(v.as_u64(), None, "{above}");
        }
        assert_eq!(
            parse("-9007199254740993").unwrap(),
            JsonValue::Number(-9_007_199_254_740_994.0)
        );
    }

    const POINT: Schema = Schema {
        keys: &["x", "tags", "inner"],
        accepted: "x, tags, inner",
        required: &["x"],
    };

    #[test]
    fn fields_check_keys_and_name_paths_in_type_errors() {
        let doc = parse(r#"{"x": 3, "tags": ["a", 2], "inner": {"x": 2.5}}"#).unwrap();
        let top = Fields::root(&doc, "point", &POINT).unwrap();
        assert_eq!(top.required("x", uint), Ok(3));
        assert_eq!(top.optional("missing", uint), Ok(None));
        let err = top.list("tags", |v, path| string(v, &path)).unwrap_err();
        assert_eq!(err.to_string(), "tags[1]: expected a string, found 2");
        let inner = Fields::at(top.get("inner").unwrap(), top.path("inner"), &POINT).unwrap();
        let err = inner.required("x", uint).unwrap_err();
        assert_eq!(
            err.to_string(),
            "inner.x: expected an integer in 0..=2^53, found 2.5"
        );
        let too_big = parse("9007199254740993").unwrap();
        assert_eq!(
            uint(&too_big, "seed").unwrap_err().to_string(),
            "seed: expected an integer in 0..=2^53, found number"
        );

        let typo = parse(r#"{"x": 1, "y": 2}"#).unwrap();
        assert_eq!(
            Fields::root(&typo, "point", &POINT).unwrap_err(),
            DecodeError::UnknownField {
                context: "point".into(),
                field: "y".into(),
                allowed: "x, tags, inner",
            }
        );
        let missing = parse(r#"{"tags": []}"#).unwrap();
        assert_eq!(
            Fields::root(&missing, "point", &POINT)
                .unwrap_err()
                .to_string(),
            "point is missing required field \"x\""
        );
        let err = Fields::at(&JsonValue::Null, "inner".into(), &POINT).unwrap_err();
        assert_eq!(err.to_string(), "inner must be an object, got null");
    }

    /// splitmix64: a seeded, dependency-free stream for the mutator.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    fn mutate(rng: &mut SplitMix, seed: &[u8]) -> Vec<u8> {
        let mut bytes = seed.to_vec();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len() + 1);
            match rng.below(5) {
                // Flip one bit of one byte.
                0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
                // Delete a short range.
                1 if at < bytes.len() => {
                    let end = (at + 1 + rng.below(8)).min(bytes.len());
                    bytes.drain(at..end);
                }
                // Duplicate a short range in place.
                2 if at < bytes.len() => {
                    let end = (at + 1 + rng.below(16)).min(bytes.len());
                    let copy = bytes[at..end].to_vec();
                    bytes.splice(at..at, copy);
                }
                // Truncate.
                3 => bytes.truncate(at),
                // Insert a run of `[`, long enough to pass the depth limit.
                _ => {
                    let run = 1 + rng.below(2 * MAX_DEPTH + 16);
                    bytes.splice(at..at, std::iter::repeat_n(b'[', run));
                }
            }
        }
        bytes
    }

    #[test]
    fn seeded_byte_mutants_parse_or_fail_typed_and_reparse_to_a_fixed_point() {
        let mut trace = Trace::new(TraceConfig::default());
        trace.push(EventKind::RunStart {
            schema: 1,
            seed: 21,
            gpus: 16,
            global_batch: 64,
        });
        let span = trace.open_span("anneal");
        trace.push(EventKind::SaMove {
            candidate: 0,
            replica: 1,
            iteration: 64,
            kind: "swap",
            delta: -0.003_125,
            temperature: 1.5e-3,
            accepted: true,
        });
        trace.push(EventKind::Fallback {
            component: "memory_estimator".into(),
            reason: "tab\there \"quoted\" \u{1} é".into(),
        });
        trace.close_span(span, CostUnit::Evals, 4800);
        let jsonl = trace.to_jsonl();
        let envelope = r#"{"id":"run-\ud83d\ude00","op":"drill","job":{"cluster":{"preset":"mid-range","nodes":2,"seed":3},"model":{"layers":8,"hidden":1024,"heads":16},"global_batch":64,"sa_iterations":400},"faults":{"seed":9,"failed_nodes":[1],"drift":{"day":2,"daily_sigma":0.05}},"deadline_units":5000,"trace":true}"#;
        let seeds: Vec<&str> = jsonl.lines().chain([envelope]).collect();
        for seed in &seeds {
            assert!(parse(seed).is_ok(), "seed input must parse: {seed}");
        }

        let mut rng = SplitMix(0x5eed);
        let (mut accepted, mut rejected) = (0, 0);
        for i in 0..6_000 {
            let mutant = mutate(&mut rng, seeds[i % seeds.len()].as_bytes());
            let text = String::from_utf8_lossy(&mutant);
            match parse(&text) {
                Ok(value) => {
                    accepted += 1;
                    let rendered = render_value(&value);
                    let again = parse(&rendered)
                        .unwrap_or_else(|e| panic!("rendering of {text:?} fails: {e}"));
                    assert_eq!(again, value, "{text:?}");
                    assert_eq!(render_value(&again), rendered, "{text:?}");
                }
                Err(e) => {
                    rejected += 1;
                    assert!(e.offset <= text.len(), "{text:?}: {e}");
                }
            }
        }
        // Both outcomes are exercised.
        assert!(
            accepted > 100 && rejected > 1_000,
            "{accepted} / {rejected}"
        );
    }
}
