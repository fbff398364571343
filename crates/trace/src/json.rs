//! The workspace's one JSON value, writer and parser.
//!
//! Every document the workspace writes (trace exports, calibration
//! profiles, cluster specs, plan-search reports, the `BENCH_*.json`
//! files) is built as a [`Value`] and rendered by its `Display` impl:
//! `{}` gives compact output, `{:#}` two-space-indented output. Every
//! document it reads goes through [`parse`], and schema readers take
//! their fields through [`Fields`], which fails closed: a missing,
//! unknown or mistyped key is an [`Error`] naming the key.
//!
//! Numbers keep their literal text, so a `u64` or an `f64` reads back
//! exactly what was written. Non-finite floats have no JSON spelling
//! and are written as `null`, which no typed numeric read accepts.

use std::collections::BTreeSet;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON number, stored as its literal text (always valid JSON number
/// syntax: built only by [`parse`] or from a finite Rust number).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number(String);

/// A JSON value. Objects keep their keys in insertion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as written.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in key order as written or built.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `x` rounded to `decimals` places (`null` when not finite), for
    /// reports where more digits would only be timing noise.
    pub fn fixed(x: f64, decimals: usize) -> Value {
        if x.is_finite() {
            Value::Number(Number(format!("{x:.decimals$}")))
        } else {
            Value::Null
        }
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Number(Number(n.to_string()))
            }
        }
    )*};
}
from_integer!(u16, u32, u64, usize, i64);

impl From<f64> for Value {
    /// Shortest text that reads back as exactly `x`; `null` when `x` is
    /// NaN or infinite.
    fn from(x: f64) -> Value {
        if x.is_finite() {
            Value::Number(Number(x.to_string()))
        } else {
            Value::Null
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        items.into_iter().collect()
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

// ------------------------------------------------------------------ writer

impl fmt::Display for Value {
    /// Compact JSON with `{}`; two-space-indented JSON with `{:#}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self, f.alternate().then_some(0))
    }
}

/// Writes `v`; `indent` is the current depth in pretty mode, `None` in
/// compact mode.
fn write_value(f: &mut fmt::Formatter<'_>, v: &Value, indent: Option<usize>) -> fmt::Result {
    match v {
        Value::Null => f.write_str("null"),
        Value::Bool(b) => write!(f, "{b}"),
        Value::Number(n) => f.write_str(&n.0),
        Value::String(s) => write_string(f, s),
        Value::Array(items) => write_items(f, ('[', ']'), items, indent, |f, item, inner| {
            write_value(f, item, inner)
        }),
        Value::Object(pairs) => write_items(f, ('{', '}'), pairs, indent, |f, (k, v), inner| {
            write_string(f, k)?;
            f.write_str(if inner.is_some() { ": " } else { ":" })?;
            write_value(f, v, inner)
        }),
    }
}

fn write_items<T>(
    f: &mut fmt::Formatter<'_>,
    (open, close): (char, char),
    items: &[T],
    indent: Option<usize>,
    mut item: impl FnMut(&mut fmt::Formatter<'_>, &T, Option<usize>) -> fmt::Result,
) -> fmt::Result {
    f.write_char(open)?;
    let inner = indent.map(|d| d + 1);
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            f.write_char(',')?;
        }
        if let Some(d) = inner {
            write!(f, "\n{:1$}", "", 2 * d)?;
        }
        item(f, it, inner)?;
    }
    if let (Some(d), false) = (indent, items.is_empty()) {
        write!(f, "\n{:1$}", "", 2 * d)?;
    }
    f.write_char(close)
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{8}' => f.write_str("\\b")?,
            '\u{c}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

// ------------------------------------------------------------------ errors

/// Why a document was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Not well-formed JSON (or a duplicate key, or nesting deeper than
    /// [`MAX_DEPTH`]) at byte `offset`.
    Syntax {
        /// Byte offset into the document.
        offset: usize,
        /// What the parser expected or found.
        reason: &'static str,
    },
    /// Well-formed JSON whose field `key` breaks the schema.
    Field {
        /// The offending key (empty for the document itself).
        key: String,
        /// What is wrong with it.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { offset, reason } => write!(f, "{reason} at byte {offset}"),
            Error::Field { key, reason } if key.is_empty() => write!(f, "document: {reason}"),
            Error::Field { key, reason } => write!(f, "field \"{key}\": {reason}"),
        }
    }
}

impl std::error::Error for Error {}

fn field_err(key: &str, reason: impl Into<String>) -> Error {
    Error::Field {
        key: key.to_string(),
        reason: reason.into(),
    }
}

// ------------------------------------------------------------------ parser

/// Parses one JSON document (RFC 8259; surrounding whitespace allowed,
/// anything else after the value rejected). Duplicate object keys and
/// nesting deeper than [`MAX_DEPTH`] are syntax errors.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { s: text, i: 0 };
    let v = p.value(0)?;
    p.ws();
    if p.i != text.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &'static str) -> Error {
        Error::Syntax {
            offset: self.i,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8, reason: &'static str) -> Result<(), Error> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.ws();
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.s[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("unknown literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.i += 1;
        let mut pairs = Vec::new();
        let mut seen = BTreeSet::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.ws();
            let at = self.i;
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            if !seen.insert(key.clone()) {
                return Err(Error::Syntax {
                    offset: at,
                    reason: "duplicate key",
                });
            }
            self.ws();
            self.eat(b':', "expected ':'")?;
            let v = self.value(depth + 1)?;
            pairs.push((key, v));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.i += 1;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Parses a string starting at its opening quote.
    fn string(&mut self) -> Result<String, Error> {
        self.i += 1;
        let mut out = String::new();
        let mut run = self.i;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("invalid escape")),
                    };
                    out.push(c);
                    self.i += 1;
                    run = self.i;
                }
                Some(0..=0x1f) => return Err(self.err("control character in string")),
                Some(_) => self.i += 1,
            }
        }
    }

    /// Decodes `\uXXXX` (with `self.i` on the `u`), joining a UTF-16
    /// surrogate pair; leaves `self.i` on the last hex digit.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        let code = match hi {
            0xd800..=0xdbff => {
                if !self.s[self.i + 1..].starts_with("\\u") {
                    return Err(self.err("unpaired surrogate"));
                }
                self.i += 2;
                let lo = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&lo) {
                    return Err(self.err("unpaired surrogate"));
                }
                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
            }
            0xdc00..=0xdfff => return Err(self.err("unpaired surrogate")),
            c => c,
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))
    }

    /// Reads the four hex digits after the `u` at `self.i`.
    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .s
            .get(self.i + 1..self.i + 5)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.i += 4;
        u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if self.peek() == Some(b'0') {
            self.i += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits()?;
        }
        Ok(Value::Number(Number(self.s[start..self.i].to_string())))
    }

    fn digits(&mut self) -> Result<(), Error> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            Err(self.err("expected digits"))
        } else {
            Ok(())
        }
    }
}

// ------------------------------------------------------------ typed reads

/// A Rust type a JSON value converts to exactly, or not at all.
pub trait FromValue: Sized {
    /// What the value must be, for error messages ("an unsigned
    /// integer").
    fn expected() -> String;
    /// The exact conversion; `None` for the wrong type, a fractional,
    /// negative or out-of-range number, or `null`.
    fn from_value(v: &Value) -> Option<Self>;
}

fn number(v: &Value) -> Option<&str> {
    match v {
        Value::Number(n) => Some(&n.0),
        _ => None,
    }
}

macro_rules! integer_from_value {
    ($($t:ty => $what:literal),*) => {$(
        impl FromValue for $t {
            fn expected() -> String {
                $what.to_string()
            }
            fn from_value(v: &Value) -> Option<$t> {
                number(v)?.parse().ok()
            }
        }
    )*};
}
integer_from_value!(
    u16 => "an integer in 0..=65535",
    u64 => "an unsigned 64-bit integer",
    usize => "an unsigned integer",
    i64 => "a signed 64-bit integer"
);

impl FromValue for f64 {
    fn expected() -> String {
        "a finite number".to_string()
    }
    fn from_value(v: &Value) -> Option<f64> {
        number(v)?.parse().ok().filter(|x: &f64| x.is_finite())
    }
}

impl FromValue for bool {
    fn expected() -> String {
        "a boolean".to_string()
    }
    fn from_value(v: &Value) -> Option<bool> {
        match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl FromValue for String {
    fn expected() -> String {
        "a string".to_string()
    }
    fn from_value(v: &Value) -> Option<String> {
        match v {
            Value::String(s) => Some(s.clone()),
            _ => None,
        }
    }
}

impl<T: FromValue> FromValue for Vec<T> {
    fn expected() -> String {
        format!("an array whose items are each {}", T::expected())
    }
    fn from_value(v: &Value) -> Option<Vec<T>> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => None,
        }
    }
}

/// The fields of one schema document, read fail-closed: each key is
/// taken at most once with [`Fields::get`] or [`Fields::get_or`], and
/// [`Fields::finish`] rejects any key nobody took.
pub struct Fields {
    pairs: Vec<(String, Value)>,
    taken: Vec<bool>,
}

impl Fields {
    /// Parses `text`, which must be an object whose `"schema"` field is
    /// `schema`.
    pub fn parse(text: &str, schema: &str) -> Result<Fields, Error> {
        let Value::Object(pairs) = parse(text)? else {
            return Err(field_err("", "expected an object"));
        };
        let mut fields = Fields {
            taken: vec![false; pairs.len()],
            pairs,
        };
        if fields.get::<String>("schema")? != schema {
            return Err(field_err("schema", format!("expected \"{schema}\"")));
        }
        Ok(fields)
    }

    /// The required field `key`, converted exactly.
    pub fn get<T: FromValue>(&mut self, key: &str) -> Result<T, Error> {
        self.take(key)?.ok_or_else(|| field_err(key, "missing"))
    }

    /// The optional field `key`, converted exactly; `default` when the
    /// key is absent (a present but mistyped value is still an error).
    pub fn get_or<T: FromValue>(&mut self, key: &str, default: T) -> Result<T, Error> {
        Ok(self.take(key)?.unwrap_or(default))
    }

    fn take<T: FromValue>(&mut self, key: &str) -> Result<Option<T>, Error> {
        let Some(at) = self.pairs.iter().position(|(k, _)| k == key) else {
            return Ok(None);
        };
        self.taken[at] = true;
        T::from_value(&self.pairs[at].1)
            .map(Some)
            .ok_or_else(|| field_err(key, format!("expected {}", T::expected())))
    }

    /// Rejects the first key no reader took.
    pub fn finish(self) -> Result<(), Error> {
        match self.taken.iter().position(|t| !t) {
            Some(at) => Err(field_err(&self.pairs[at].0, "unknown key")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* generator for the round-trip property.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Characters covering every escape the writer emits, raw control
    /// characters, multi-byte UTF-8 and a non-BMP (surrogate-pair) char.
    const CHARS: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{8}',
        '\u{c}',
        '\u{0}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '€',
        '\u{2028}',
        '😀',
        '\u{10ffff}',
    ];

    fn gen_string(rng: &mut Rng) -> String {
        (0..rng.below(8))
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
            .collect()
    }

    fn gen_f64(rng: &mut Rng) -> f64 {
        loop {
            let x = f64::from_bits(rng.next());
            if x.is_finite() {
                return x;
            }
        }
    }

    fn gen_value(rng: &mut Rng, depth: usize) -> Value {
        let kinds = if depth >= 4 { 8 } else { 10 };
        match rng.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => rng.next().into(),
            3 => (rng.next() as i64).into(),
            4 => [
                Value::from(u64::MAX),
                Value::from(i64::MIN),
                Value::from(0u64),
                Value::from(-0.0),
            ][rng.below(4) as usize]
                .clone(),
            5 => gen_f64(rng).into(),
            6 => (rng.below(1_000_000) as f64 / 1000.0).into(),
            7 => gen_string(rng).into(),
            8 => (0..rng.below(5))
                .map(|_| gen_value(rng, depth + 1))
                .collect(),
            _ => {
                let mut pairs: Vec<(String, Value)> = Vec::new();
                for _ in 0..rng.below(5) {
                    let key = gen_string(rng);
                    if pairs.iter().all(|(k, _)| *k != key) {
                        pairs.push((key, gen_value(rng, depth + 1)));
                    }
                }
                Value::Object(pairs)
            }
        }
    }

    #[test]
    fn writer_output_parses_back_to_the_same_value() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..2000 {
            let v = gen_value(&mut rng, 0);
            let compact = v.to_string();
            assert_eq!(parse(&compact), Ok(v.clone()), "compact: {compact}");
            let pretty = format!("{v:#}");
            assert_eq!(parse(&pretty), Ok(v.clone()), "pretty: {pretty}");
            assert!(
                !compact.contains('\n'),
                "compact output spans lines: {compact}"
            );
        }
    }

    #[test]
    fn numbers_read_back_exactly() {
        for n in [0, 1, (1 << 53) + 1, u64::MAX] {
            assert_eq!(
                u64::from_value(&parse(&Value::from(n).to_string()).unwrap()),
                Some(n)
            );
        }
        for n in [i64::MIN, -1, i64::MAX] {
            assert_eq!(
                i64::from_value(&parse(&Value::from(n).to_string()).unwrap()),
                Some(n)
            );
        }
        let mut rng = Rng(7);
        for _ in 0..2000 {
            let x = gen_f64(&mut rng);
            let back = f64::from_value(&parse(&Value::from(x).to_string()).unwrap()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x:e}");
        }
        // Shortest round-trip text, not a padded expansion.
        assert_eq!(Value::from(0.1).to_string(), "0.1");
        assert_eq!(Value::fixed(200.0, 1).to_string(), "200.0");
    }

    #[test]
    fn typed_reads_reject_inexact_numbers() {
        let read = |text: &str| u64::from_value(&parse(text).unwrap());
        assert_eq!(read("2"), Some(2));
        assert_eq!(read("2.7"), None);
        assert_eq!(read("2.0"), None);
        assert_eq!(read("2e3"), None);
        assert_eq!(read("-1"), None);
        assert_eq!(read("18446744073709551616"), None);
        assert_eq!(read("null"), None);
        assert_eq!(u16::from_value(&parse("65536").unwrap()), None);
        assert_eq!(f64::from_value(&parse("1e999").unwrap()), None);
        assert_eq!(f64::from_value(&Value::Null), None);
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::from(x), Value::Null);
            assert_eq!(Value::fixed(x, 3), Value::Null);
        }
        let doc = Value::from(vec![1.5, f64::NAN]).to_string();
        assert_eq!(doc, "[1.5,null]");
        assert_eq!(Vec::<f64>::from_value(&parse(&doc).unwrap()), None);
    }

    #[test]
    fn decodes_every_escape_including_surrogate_pairs() {
        let v = parse(r#""\"\\\/\b\f\n\r\té€😀\u0000""#).unwrap();
        assert_eq!(v, Value::from("\"\\/\u{8}\u{c}\n\r\té€😀\u{0}"));
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dA""#,
            r#""\ude00""#,
            r#""\u12""#,
            r#""\x""#,
        ] {
            assert!(matches!(parse(bad), Err(Error::Syntax { .. })), "{bad}");
        }
        // The writer escapes every control character.
        assert_eq!(Value::from("a\u{1}\n").to_string(), r#""a\u0001\n""#);
    }

    #[test]
    fn parser_rejects_malformed_documents_with_offsets() {
        parse("{\"a\":[1,2.5,-3e2,true,null,\"s\\n\"]}").unwrap();
        parse(" 42 ").unwrap();
        let offset = |text: &str| match parse(text) {
            Err(Error::Syntax { offset, .. }) => offset,
            other => panic!("{text}: expected a syntax error, got {other:?}"),
        };
        assert_eq!(offset("{\"a\":1,}"), 7);
        assert_eq!(offset("[1 2]"), 3);
        assert_eq!(offset("\"unterminated"), 13);
        assert_eq!(offset("{} trailing"), 3);
        assert_eq!(offset("01"), 1);
        assert_eq!(offset("\"raw\ncontrol\""), 4);
        assert_eq!(offset("{\"k\":1,\"k\":2}"), 7);
        assert_eq!(offset("[1.]"), 3);
        assert_eq!(offset("tru"), 0);
        assert_eq!(offset(""), 0);
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        parse(&deep(MAX_DEPTH)).unwrap();
        assert_eq!(offset(&deep(MAX_DEPTH + 1)), MAX_DEPTH);
    }

    #[test]
    fn pretty_output_is_two_space_indented() {
        let v = Value::object([
            ("a", Value::from(1u64)),
            ("b", Value::from(vec![true, false])),
            ("c", Value::Array(vec![])),
            ("d", Value::object([("e", Value::Null)])),
        ]);
        assert_eq!(
            format!("{v:#}"),
            "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    false\n  ],\n  \"c\": [],\n  \
             \"d\": {\n    \"e\": null\n  }\n}"
        );
        assert_eq!(
            v.to_string(),
            r#"{"a":1,"b":[true,false],"c":[],"d":{"e":null}}"#
        );
    }

    #[test]
    fn fields_fail_closed() {
        let doc = r#"{"schema":"s","n":3,"xs":[1,2],"name":"x","extra":{"n":9}}"#;
        let mut f = Fields::parse(doc, "s").unwrap();
        assert_eq!(f.get::<u64>("n"), Ok(3));
        assert_eq!(f.get::<Vec<f64>>("xs"), Ok(vec![1.0, 2.0]));
        assert_eq!(f.get_or("flag", true), Ok(true));
        assert!(matches!(f.get::<bool>("name"), Err(Error::Field { .. })));
        assert_eq!(
            f.finish().unwrap_err().to_string(),
            "field \"extra\": unknown key"
        );
        let err = |text: &str| Fields::parse(text, "s").err().unwrap().to_string();
        assert_eq!(err("[]"), "document: expected an object");
        assert_eq!(err(r#"{"schema":"t"}"#), "field \"schema\": expected \"s\"");
        assert_eq!(err("{}"), "field \"schema\": missing");
        let mut f = Fields::parse(r#"{"schema":"s","n":null}"#, "s").unwrap();
        assert_eq!(
            f.get::<f64>("n").unwrap_err().to_string(),
            "field \"n\": expected a finite number"
        );
        assert_eq!(
            f.get::<u64>("m").unwrap_err().to_string(),
            "field \"m\": missing"
        );
    }
}
