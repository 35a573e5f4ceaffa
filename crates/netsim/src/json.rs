//! The workspace's one JSON module: a value, a writer, a parser, and the
//! two conversion traits the file-crossing types implement.
//!
//! The subset is deliberately small. Documents are UTF-8. Integers are exact
//! over the whole `u64` and `i64` ranges ([`Json::U64`] for non-negative
//! literals, [`Json::I64`] for negative ones) and anything with a fraction,
//! an exponent, or too many digits is an [`Json::F64`], written with Rust's
//! shortest round-trip formatting. Objects keep insertion order; a repeated
//! key is kept and the last occurrence wins on lookup. Nesting is capped at
//! [`MAX_DEPTH`], so hostile input costs a typed [`JsonError`] — carrying
//! the byte offset of the first byte that could not be accepted — and never
//! a stack overflow or a panic. Non-finite floats have no JSON spelling and
//! are a typed write error.
//!
//! Types opt in explicitly with [`ToJson`] / [`FromJson`]; the
//! [`json_struct!`](crate::json_struct), [`json_enum!`](crate::json_enum)
//! and [`json_newtype!`](crate::json_newtype) helpers keep that to a line
//! per type and write the shapes `serde`'s derive used to (field names as
//! keys, unit variants as strings, newtypes transparent), so files written
//! before the move still read.

use std::borrow::Cow;
use std::fmt;

/// Deepest nesting of arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal.
    U64(u64),
    /// A negative integer literal.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order. Keys written by the program are
    /// borrowed literals; parsed ones are owned.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

/// What went wrong, and at which byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the parsed text (or, for a write error, into the
    /// output so far); 0 for a value of the wrong shape, which is found
    /// after parsing.
    pub offset: usize,
    /// The failure.
    pub kind: JsonErrorKind,
}

/// The failures [`parse`], the writers and [`FromJson`] report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The text ended inside a value.
    UnexpectedEof,
    /// A byte no JSON value can have at this position.
    UnexpectedByte(u8),
    /// Bytes remain after the top-level value.
    TrailingData,
    /// The text is not UTF-8.
    BadUtf8,
    /// A `\` escape that JSON does not define, or a lone surrogate.
    BadEscape,
    /// A number whose magnitude no `f64` holds.
    NumberOutOfRange,
    /// Arrays and objects nested deeper than [`MAX_DEPTH`].
    TooDeep,
    /// A NaN or infinity reached the writer.
    NonFinite,
    /// A parsed value is not the named type, lacks the named field, or
    /// names no variant of the named enum.
    Expected(&'static str),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            JsonErrorKind::Expected(what) => write!(f, "JSON value is not a valid {what}"),
            kind => write!(f, "invalid JSON at byte {}: {kind:?}", self.offset),
        }
    }
}

impl std::error::Error for JsonError {}

/// The error of a parsed value that does not have the shape of `what`.
pub fn expected(what: &'static str) -> JsonError {
    JsonError {
        offset: 0,
        kind: JsonErrorKind::Expected(what),
    }
}

static NULL: Json = Json::Null;

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<const N: usize>(fields: [(&'static str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (Cow::Borrowed(k), v))
                .collect(),
        )
    }

    /// The value of `key` (the last one, if repeated); `None` when absent or
    /// `self` is not an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Decode the field `key`; an absent key reads as `null`, so optional
    /// fields may be omitted.
    pub fn field<T: FromJson>(&self, key: &'static str) -> Result<T, JsonError> {
        T::from_json(self.get(key).unwrap_or(&NULL)).map_err(|_| expected(key))
    }

    /// The `(name, body)` of an enum value in the externally tagged form:
    /// `"Name"` (body `null`) for a unit variant, `{"Name": body}` otherwise.
    pub fn variant(&self) -> Option<(&str, &Json)> {
        match self {
            Json::Str(name) => Some((name, &NULL)),
            Json::Obj(fields) if fields.len() == 1 => Some((&fields[0].0, &fields[0].1)),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// One line, no spaces.
    pub fn to_compact(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, None).map(|()| out)
    }

    /// Two-space indented, one element per line.
    pub fn to_pretty(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, Some(0)).map(|()| out)
    }

    /// Append the value to `out`; `indent` is `None` for compact output or
    /// the current nesting level for pretty output.
    fn write(&self, out: &mut String, indent: Option<usize>) -> Result<(), JsonError> {
        use fmt::Write as _;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => write!(out, "{v}").expect("writing to a String"),
            Json::I64(v) => write!(out, "{v}").expect("writing to a String"),
            Json::F64(v) if v.is_finite() => write!(out, "{v:?}").expect("writing to a String"),
            Json::F64(_) => {
                return Err(JsonError {
                    offset: out.len(),
                    kind: JsonErrorKind::NonFinite,
                })
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, ['[', ']'], items, |out, item, inner| {
                item.write(out, inner)
            })?,
            Json::Obj(fields) => {
                write_seq(out, indent, ['{', '}'], fields, |out, field, inner| {
                    write_str(out, &field.0);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    field.1.write(out, inner)
                })?
            }
        }
        Ok(())
    }
}

/// The brackets and the comma-separated `items` between them, each item on
/// an indented line of its own when pretty.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    [open, close]: [char; 2],
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T, Option<usize>) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    let newline = |out: &mut String, level: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", level));
    };
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(level) = indent {
            newline(out, level + 1);
        }
        write_item(out, item, indent.map(|level| level + 1))?;
    }
    if let (Some(level), false) = (indent, items.is_empty()) {
        newline(out, level);
    }
    out.push(close);
    Ok(())
}

fn write_str(out: &mut String, s: &str) {
    use fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `value["key"]`; `null` when absent, as a lookup on a non-object is.
impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

/// `value[i]`; `null` when out of range or not an array.
impl std::ops::Index<usize> for Json {
    type Output = Json;
    fn index(&self, i: usize) -> &Json {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

/// Parse one JSON document.
pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
    let text = std::str::from_utf8(input).map_err(|e| JsonError {
        offset: e.valid_up_to(),
        kind: JsonErrorKind::BadUtf8,
    })?;
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    match p.peek() {
        None => Ok(value),
        Some(_) => Err(p.err(JsonErrorKind::TrailingData)),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            offset: self.pos,
            kind,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The error for the byte at `pos` not being what the grammar needs.
    fn unexpected(&self) -> JsonError {
        match self.peek() {
            Some(b) => self.err(JsonErrorKind::UnexpectedByte(b)),
            None => self.err(JsonErrorKind::UnexpectedEof),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, literal: &[u8]) -> Result<(), JsonError> {
        for &b in literal {
            if self.peek() != Some(b) {
                return Err(self.unexpected());
            }
            self.pos += 1;
        }
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.expect(b"null").map(|()| Json::Null),
            Some(b't') => self.expect(b"true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect(b"false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(self.err(JsonErrorKind::TooDeep)),
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.sequence(b'}', |p| {
                    p.skip_ws();
                    if p.peek() != Some(b'"') {
                        return Err(p.unexpected());
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b":")?;
                    fields.push((Cow::Owned(key), p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            _ => Err(self.unexpected()),
        }
    }

    /// The comma-separated body of an array or object, from its opening
    /// bracket through `close`.
    fn sequence(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.unexpected()),
            }
        }
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.unexpected());
        }
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            _ => self.digits()?,
        }
        let mut integer = true;
        if self.peek() == Some(b'.') {
            integer = false;
            self.pos += 1;
            self.digits()?;
        }
        if let Some(b'e' | b'E') = self.peek() {
            integer = false;
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            self.digits()?;
        }
        let literal = &self.text[start..self.pos];
        // `-0` is the float negative zero, as every other JSON reader has it.
        if integer && literal != "-0" {
            let exact = match negative {
                false => literal.parse().map(Json::U64).ok(),
                true => literal.parse().map(Json::I64).ok(),
            };
            if let Some(v) = exact {
                return Ok(v);
            }
        }
        match literal.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            _ => Err(JsonError {
                offset: start,
                kind: JsonErrorKind::NumberOutOfRange,
            }),
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| (b as char).to_digit(16));
            v = v * 16 + digit.ok_or_else(|| self.unexpected())?;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escape = self.pos;
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) {
                                self.expect(b"\\u")?;
                                let low = self.hex4()?;
                                code = match low {
                                    0xDC00..=0xDFFF => {
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                    }
                                    _ => 0xDC00, // a lone surrogate: rejected below
                                };
                            }
                            out.push(char::from_u32(code).ok_or(JsonError {
                                offset: escape,
                                kind: JsonErrorKind::BadEscape,
                            })?);
                            continue;
                        }
                        Some(_) => return Err(self.err(JsonErrorKind::BadEscape)),
                        None => return Err(self.unexpected()),
                    };
                    self.pos += 1;
                    out.push(c);
                }
                _ => return Err(self.unexpected()),
            }
        }
    }
}

/// Parse one JSON document and decode it as a `T`.
pub fn decode<T: FromJson>(input: &[u8]) -> Result<T, JsonError> {
    T::from_json(&parse(input)?)
}

/// Types that write themselves as JSON.
pub trait ToJson {
    /// The value as JSON.
    fn to_json(&self) -> Json;
}

/// Types that read themselves back from JSON.
pub trait FromJson: Sized {
    /// Decode `v`, or say which shape was expected.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

macro_rules! json_unsigned {
    ($($t:ident),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<$t, JsonError> {
                v.as_u64().and_then(|v| v.try_into().ok()).ok_or(expected(stringify!($t)))
            }
        }
    )*};
}
json_unsigned!(u16, u32, u64, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<f64, JsonError> {
        v.as_f64().ok_or(expected("number"))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<bool, JsonError> {
        match *v {
            Json::Bool(b) => Ok(b),
            _ => Err(expected("bool")),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<String, JsonError> {
        v.as_str().map(str::to_string).ok_or(expected("string"))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Option<T>, JsonError> {
        match v {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Vec<T>, JsonError> {
        v.as_array()
            .ok_or(expected("array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

/// `ToJson` + `FromJson` for a plain struct (with at most one type
/// parameter): an object keyed by the field names, in declaration order.
/// Absent keys read as `null`. `json_struct!(write T { .. })` implements
/// `ToJson` alone, for types that are only ever written.
#[macro_export]
macro_rules! json_struct {
    (write $t:ident $(<$g:ident>)? { $($field:ident),* $(,)? }) => {
        impl $(<$g: $crate::json::ToJson>)? $crate::json::ToJson for $t $(<$g>)? {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj([$((stringify!($field), $crate::json::ToJson::to_json(&self.$field))),*])
            }
        }
    };
    ($t:ident $(<$g:ident>)? { $($field:ident),* $(,)? }) => {
        $crate::json_struct!(write $t $(<$g>)? { $($field),* });
        impl $(<$g: $crate::json::FromJson>)? $crate::json::FromJson for $t $(<$g>)? {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok($t { $($field: v.field(stringify!($field))?),* })
            }
        }
    };
}

/// `ToJson` + `FromJson` for an enum of unit variants: the variant's name
/// as a string.
#[macro_export]
macro_rules! json_enum {
    ($t:ident { $($variant:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $t {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::ToJson::to_json(match self { $($t::$variant => stringify!($variant)),* })
            }
        }
        impl $crate::json::FromJson for $t {
            fn from_json(v: &$crate::json::Json) -> Result<$t, $crate::json::JsonError> {
                match v.as_str() {
                    $(Some(stringify!($variant)) => Ok($t::$variant),)*
                    _ => Err($crate::json::expected(stringify!($t))),
                }
            }
        }
    };
}

/// `ToJson` + `FromJson` for a one-field tuple struct: the field itself.
#[macro_export]
macro_rules! json_newtype {
    ($t:ident($inner:ty)) => {
        impl $crate::json::ToJson for $t {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::ToJson::to_json(&self.0)
            }
        }
        impl $crate::json::FromJson for $t {
            fn from_json(v: &$crate::json::Json) -> Result<$t, $crate::json::JsonError> {
                <$inner as $crate::json::FromJson>::from_json(v).map($t)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reparse(v: &Json) -> Json {
        let compact = parse(v.to_compact().unwrap().as_bytes()).unwrap();
        let pretty = parse(v.to_pretty().unwrap().as_bytes()).unwrap();
        assert_eq!(compact, pretty);
        compact
    }

    const SAMPLE: &str =
        r#"{"a":[1,-2,3.5e2,true,false,null],"b":{"c":"x\ny\u00e9\ud83d\ude00","d":[]},"e":{}}"#;

    #[test]
    fn values_survive_both_writers() {
        let v = parse(SAMPLE.as_bytes()).unwrap();
        assert_eq!(reparse(&v), v);
        assert_eq!(v["a"][0], Json::U64(1));
        assert_eq!(v["a"][1], Json::I64(-2));
        assert_eq!(v["a"][2], Json::F64(350.0));
        assert_eq!(v["b"]["c"].as_str(), Some("x\nyé😀"));
        assert_eq!(v["missing"]["deeper"][3], Json::Null);
        assert_eq!(
            v.to_compact().unwrap(),
            r#"{"a":[1,-2,350.0,true,false,null],"b":{"c":"x\nyé😀","d":[]},"e":{}}"#
        );
        assert_eq!(
            Json::obj([
                ("k", Json::Arr(vec![Json::U64(1), Json::Null])),
                ("e", Json::Arr(vec![]))
            ])
            .to_pretty()
            .unwrap(),
            "{\n  \"k\": [\n    1,\n    null\n  ],\n  \"e\": []\n}"
        );
    }

    #[test]
    fn numbers_are_exact() {
        for v in [u64::MAX, u64::MAX - 1, 0, 1 << 53, (1 << 53) + 1] {
            assert_eq!(u64::from_json(&reparse(&v.to_json())), Ok(v));
        }
        // No type the program writes is signed, so negative integers have
        // no trait impls; the value itself keeps them exact.
        for v in [i64::MIN, i64::MIN + 1, -1] {
            assert_eq!(parse(v.to_string().as_bytes()), Ok(Json::I64(v)));
            assert_eq!(reparse(&Json::I64(v)), Json::I64(v));
        }
        for v in [
            -0.0,
            0.0,
            1e-7,
            f64::MAX,
            f64::MIN_POSITIVE,
            0.1,
            1.0,
            -2.5e-300,
            1e21,
        ] {
            let back = f64::from_json(&reparse(&v.to_json())).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?}");
        }
        // Integers that fit no 64-bit type degrade to floats; the rest is exact.
        assert_eq!(
            parse(b"18446744073709551616"),
            Ok(Json::F64(18446744073709551616.0))
        );
        assert_eq!(
            parse(b"-9223372036854775809"),
            Ok(Json::F64(-9223372036854775809.0))
        );
        assert_eq!(
            parse(b"-0").map(|v| v.as_f64().map(f64::to_bits)),
            Ok(Some((-0.0f64).to_bits()))
        );
        assert_eq!(u16::from_json(&Json::U64(65_536)), Err(expected("u16")));
        assert_eq!(u64::from_json(&Json::I64(-1)), Err(expected("u64")));
    }

    #[test]
    fn non_finite_floats_are_a_typed_write_error() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::Arr(vec![Json::U64(1), Json::F64(v)]);
            let err = doc.to_compact().unwrap_err();
            assert_eq!((err.offset, err.kind), (3, JsonErrorKind::NonFinite));
            assert_eq!(doc.to_pretty().unwrap_err().kind, JsonErrorKind::NonFinite);
        }
        assert_eq!(
            parse(b"1e400").unwrap_err().kind,
            JsonErrorKind::NumberOutOfRange
        );
    }

    #[test]
    fn the_last_duplicate_key_wins() {
        let v = parse(br#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v["k"], Json::U64(2));
        assert_eq!(reparse(&v), v, "both occurrences are kept in the document");
    }

    #[test]
    fn nesting_is_capped_not_recursed() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(ok.as_bytes()).is_ok());
        for open in ["[", "{\"k\":"] {
            let err = parse(open.repeat(10_000).as_bytes()).unwrap_err();
            assert_eq!(err.kind, JsonErrorKind::TooDeep);
            assert_eq!(err.offset, open.len() * MAX_DEPTH);
        }
    }

    /// A NUL is legal nowhere in a JSON text, so writing one over any byte
    /// of a valid document must be reported at exactly that byte.
    #[test]
    fn the_error_offset_is_the_first_unacceptable_byte() {
        for doc in [
            SAMPLE,
            "  [ 1.5e+3 , -0.25 ]  ",
            r#""\u00e9\ud83d\ude00\\""#,
            "-12",
            "tru",
        ] {
            for at in 0..doc.len() {
                let mut bytes = doc.as_bytes().to_vec();
                bytes[at] = 0;
                let err = parse(&bytes).expect_err("a NUL is never valid");
                assert_eq!(err.offset, at, "{doc} with byte {at} zeroed: {err}");
            }
        }
        let cases: [(&[u8], usize, JsonErrorKind); 13] = [
            (b"", 0, JsonErrorKind::UnexpectedEof),
            (b"[1,", 3, JsonErrorKind::UnexpectedEof),
            (b"[1 2]", 3, JsonErrorKind::UnexpectedByte(b'2')),
            (b"{\"a\" 1}", 5, JsonErrorKind::UnexpectedByte(b'1')),
            (b"{1:2}", 1, JsonErrorKind::UnexpectedByte(b'1')),
            (b"01", 1, JsonErrorKind::TrailingData),
            (b"1.", 2, JsonErrorKind::UnexpectedEof),
            (b"\"\\x\"", 2, JsonErrorKind::BadEscape),
            (b"\"\\ud800\"", 7, JsonErrorKind::UnexpectedByte(b'"')),
            (b"\"\\ud800\\u0041\"", 1, JsonErrorKind::BadEscape),
            (b"\"\\udc00\"", 1, JsonErrorKind::BadEscape),
            (b"\"a\xffb\"", 2, JsonErrorKind::BadUtf8),
            (b"nul", 3, JsonErrorKind::UnexpectedEof),
        ];
        for (text, offset, kind) in cases {
            assert_eq!(parse(text), Err(JsonError { offset, kind }), "{text:?}");
        }
    }

    #[derive(Debug, PartialEq)]
    struct Point {
        x: u64,
        tag: Option<String>,
        kind: Kind,
        id: Id,
    }
    #[derive(Debug, PartialEq)]
    enum Kind {
        Near,
        Far,
    }
    #[derive(Debug, PartialEq)]
    struct Id(u16);
    json_struct!(Point { x, tag, kind, id });
    json_enum!(Kind { Near, Far });
    json_newtype!(Id(u16));

    #[test]
    fn the_helpers_write_field_names_variant_names_and_bare_newtypes() {
        let p = Point {
            x: 3,
            tag: None,
            kind: Kind::Far,
            id: Id(7),
        };
        assert_eq!(
            p.to_json().to_compact().unwrap(),
            r#"{"x":3,"tag":null,"kind":"Far","id":7}"#
        );
        assert_eq!(Point::from_json(&reparse(&p.to_json())), Ok(p));
        // An absent optional field reads as `None`; anything else absent or
        // misshapen names the field.
        let sparse = parse(br#"{"x":1,"kind":"Near","id":2}"#).unwrap();
        assert_eq!(Point::from_json(&sparse).unwrap().tag, None);
        let bad = parse(br#"{"x":1,"kind":"Middling","id":2}"#).unwrap();
        assert_eq!(Point::from_json(&bad), Err(expected("kind")));
        assert_eq!(Point::from_json(&Json::Null), Err(expected("x")));
        assert_eq!(Kind::from_json(&Json::U64(0)), Err(expected("Kind")));
    }
}
