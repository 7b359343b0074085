//! A minimal JSON value model, writer, and parser.
//!
//! The workspace is hermetic (no external crates), but tools still want
//! machine-readable input and output: `baryon-cli run --json`, bench
//! summaries, and the `baryon-serve` job server, whose job specs arrive as
//! JSON request bodies. This module covers exactly that need — building,
//! *emitting* ([`Json::render`]), and *parsing* ([`parse`]) JSON — with
//! precise error positions on malformed input.
//!
//! # Examples
//!
//! ```
//! use baryon_sim::json::Json;
//!
//! let doc = Json::obj([
//!     ("workload", Json::from("505.mcf_r")),
//!     ("cycles", Json::from(123456u64)),
//!     ("ipc", Json::from(1.25)),
//!     ("fast", Json::from(true)),
//! ]);
//! assert_eq!(
//!     doc.render(),
//!     r#"{"workload":"505.mcf_r","cycles":123456,"ipc":1.25,"fast":true}"#
//! );
//! ```

/// A JSON value. Objects preserve insertion order so emitted documents are
/// stable and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, emitted without a fractional part.
    U64(u64),
    /// A signed integer, emitted without a fractional part.
    I64(i64),
    /// A floating-point number; non-finite values emit as `null` (JSON has
    /// no NaN/Infinity).
    F64(f64),
    /// A string (escaped on emit).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key–value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// The value of object key `key`; `None` when absent or when `self`
    /// is not an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (`U64`, or an `I64` ≥ 0).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the compact rendering to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let mut buf = [0u8; 20];
                out.push_str(format_u64(*n, &mut buf));
            }
            Json::I64(n) => {
                if *n < 0 {
                    out.push('-');
                }
                let mut buf = [0u8; 20];
                out.push_str(format_u64(n.unsigned_abs(), &mut buf));
            }
            Json::F64(x) => {
                if x.is_finite() {
                    // `{}` on f64 is the shortest roundtrip representation,
                    // which is valid JSON except it may omit the fraction.
                    let s = format!("{x}");
                    out.push_str(&s);
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn format_u64(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).expect("digits are ascii")
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::U64(n as u64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::U64(n as u64)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::I64(n)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::F64(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Maximum container nesting depth accepted by [`parse`]; deeper documents
/// are rejected instead of risking a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A parse failure with the exact input position where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number (bytes since the last newline).
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {}, column {}: {} (byte {})",
            self.line, self.col, self.message, self.offset
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document (surrounding whitespace allowed).
///
/// Numbers map onto the [`Json`] variants the emitter uses: integer
/// literals become [`Json::U64`] (or [`Json::I64`] when negative), and
/// anything with a fraction or exponent — or an integer too large for 64
/// bits — becomes [`Json::F64`]. Object key order and duplicate keys are
/// preserved, so `parse(v.render())` reproduces `v` exactly for every
/// value the emitter can produce.
///
/// # Examples
///
/// ```
/// use baryon_sim::json::{parse, Json};
///
/// let v = parse(r#"{"workload":"505.mcf_r","insts":1000}"#).unwrap();
/// assert_eq!(
///     v,
///     Json::obj([
///         ("workload", Json::from("505.mcf_r")),
///         ("insts", Json::from(1000u64)),
///     ])
/// );
///
/// let err = parse("{\"a\": nope}").unwrap_err();
/// assert_eq!((err.line, err.col), (1, 7));
/// ```
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the first offending byte for any
/// input that is not a single well-formed JSON value.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
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

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        self.err_at(self.pos, message)
    }

    fn err_at(&self, offset: usize, message: impl Into<String>) -> ParseError {
        let before = &self.bytes[..offset.min(self.bytes.len())];
        let line = 1 + before.iter().filter(|b| **b == b'\n').count();
        let col = offset
            - before
                .iter()
                .rposition(|b| *b == b'\n')
                .map_or(0, |i| i + 1)
            + 1;
        ParseError {
            offset,
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

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input, expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("invalid literal, expected `{word}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        let open = self.pos;
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            let run_start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[run_start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err_at(open, "unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, ParseError> {
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
                return self.unicode_escape();
            }
            _ => return Err(self.err("invalid escape sequence")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("lone low surrogate in \\u escape"));
        }
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a low surrogate escape must follow.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("expected low surrogate after high surrogate"));
                }
                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("unpaired high surrogate in \\u escape"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("expected four hex digits in \\u escape")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zeros are not allowed"));
                }
            }
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("expected digits in number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digits after decimal point"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digits in exponent"));
            }
            self.digits();
        }
        let token = &self.text[start..self.pos];
        if !is_float {
            if negative {
                if let Ok(n) = token.parse::<i64>() {
                    return Ok(Json::I64(n));
                }
            } else if let Ok(n) = token.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        token
            .parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err_at(start, "number out of range"))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::from(true).render(), "true");
        assert_eq!(Json::from(false).render(), "false");
        assert_eq!(Json::from(0u64).render(), "0");
        assert_eq!(Json::from(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::from(-42i64).render(), "-42");
        assert_eq!(Json::from(i64::MIN).render(), "-9223372036854775808");
        assert_eq!(Json::from(1.5).render(), "1.5");
        assert_eq!(Json::from("hi").render(), "\"hi\"");
    }

    #[test]
    fn accessors_read_typed_fields() {
        let doc = parse(r#"{"id":3,"state":"done","ops":42,"neg":-1}"#).expect("valid");
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(doc.get("missing"), None);
        // A wrong type is None.
        assert_eq!(doc.get("id").and_then(Json::as_str), None);
        assert_eq!(doc.get("state").and_then(Json::as_u64), None);
        // A non-negative I64 is a u64; a negative one is not.
        assert_eq!(Json::I64(7).as_u64(), Some(7));
        assert_eq!(doc.get("neg").and_then(Json::as_u64), None);
        assert_eq!(Json::I64(-5).as_u64(), None);
        // A non-object has no fields.
        assert_eq!(Json::arr([Json::from(1u64)]).get("id"), None);
        assert_eq!(Json::from("id").get("id"), None);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::from(f64::NAN).render(), "null");
        assert_eq!(Json::from(f64::INFINITY).render(), "null");
        assert_eq!(Json::from(f64::NEG_INFINITY).render(), "null");
    }

    #[test]
    fn strings_escape_control_and_quotes() {
        assert_eq!(
            Json::from("a\"b\\c\nd\te\r").render(),
            r#""a\"b\\c\nd\te\r""#
        );
        assert_eq!(Json::from("\u{1}").render(), r#""\u0001""#);
        // Non-ASCII passes through unescaped (JSON is UTF-8).
        assert_eq!(Json::from("µops").render(), "\"µops\"");
    }

    #[test]
    fn arrays_and_objects_nest() {
        let doc = Json::obj([
            ("xs", Json::arr([Json::from(1u64), Json::from(2u64)])),
            ("inner", Json::obj([("k", Json::Null)])),
            ("empty", Json::arr([])),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"xs":[1,2],"inner":{"k":null},"empty":[]}"#
        );
    }

    #[test]
    fn object_order_is_preserved() {
        let doc = Json::obj([("z", Json::from(1u64)), ("a", Json::from(2u64))]);
        assert_eq!(doc.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("0").unwrap(), Json::U64(0));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
        assert_eq!(parse("-42").unwrap(), Json::I64(-42));
        assert_eq!(parse("-9223372036854775808").unwrap(), Json::I64(i64::MIN));
        assert_eq!(parse("1.5").unwrap(), Json::F64(1.5));
        assert_eq!(parse("1e3").unwrap(), Json::F64(1000.0));
        assert_eq!(parse("-2.5e-1").unwrap(), Json::F64(-0.25));
        assert_eq!(parse(" \t\r\n\"hi\" ").unwrap(), Json::from("hi"));
    }

    #[test]
    fn parse_integer_overflow_falls_back_to_f64() {
        // One past u64::MAX / below i64::MIN: still numbers, just floats.
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Json::F64(18446744073709551616.0)
        );
        assert_eq!(
            parse("-9223372036854775809").unwrap(),
            Json::F64(-9223372036854775809.0)
        );
    }

    #[test]
    fn parse_nested_containers() {
        let v = parse(r#" { "xs" : [ 1 , -2 , {"k":null} ] , "b" : true } "#).unwrap();
        assert_eq!(
            v,
            Json::obj([
                (
                    "xs",
                    Json::arr([Json::U64(1), Json::I64(-2), Json::obj([("k", Json::Null)]),]),
                ),
                ("b", Json::Bool(true)),
            ])
        );
    }

    #[test]
    fn parse_string_escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\/d\nd\te\r\b\f""#).unwrap(),
            Json::from("a\"b\\c/d\nd\te\r\u{8}\u{c}")
        );
        assert_eq!(parse(r#""\u0041\u00b5""#).unwrap(), Json::from("Aµ"));
        // Surrogate pair for U+1F600.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::from("😀"));
        // Raw non-ASCII passes through.
        assert_eq!(parse("\"µops\"").unwrap(), Json::from("µops"));
    }

    #[test]
    fn parse_rejects_malformed_inputs() {
        for bad in [
            "",
            "   ",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":1,}",
            "{a:1}",
            "tru",
            "nul",
            "truex",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud83d\\u0041\"",
            "\"\\udc00\"",
            "01",
            "-",
            "1.",
            ".5",
            "+1",
            "1e",
            "1e+",
            "--1",
            "1 2",
            "[1] extra",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
        // Control characters must be escaped inside strings.
        assert!(parse("\"a\u{1}b\"").is_err());
    }

    #[test]
    fn parse_errors_carry_positions() {
        let err = parse("{\"a\": nope}").unwrap_err();
        assert_eq!((err.line, err.col, err.offset), (1, 7, 6));
        assert!(err.message.contains("expected"), "{}", err.message);

        let err = parse("[1,\n 2,\n x]").unwrap_err();
        assert_eq!((err.line, err.col), (3, 2));

        let display = format!("{err}");
        assert!(display.contains("line 3"), "{display}");
        assert!(display.contains("column 2"), "{display}");
    }

    #[test]
    fn parse_rejects_excessive_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{}", err.message);
        // One level short of the limit is fine.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn parse_preserves_duplicate_keys_and_order() {
        let v = parse(r#"{"z":1,"a":2,"z":3}"#).unwrap();
        assert_eq!(v.render(), r#"{"z":1,"a":2,"z":3}"#);
    }

    /// A generated value that renders to a *canonical* document: parsing it
    /// back yields the same variant. Negative integers use `I64`, floats
    /// are only kept as `F64` when their shortest rendering has a fraction
    /// or exponent (otherwise the emitter prints a plain integer, which the
    /// parser maps to `U64`/`I64`).
    fn gen_value(g: &mut crate::check::Gen, depth: usize) -> Json {
        let alternatives = if depth == 0 { 6 } else { 8 };
        match g.choice(alternatives) {
            0 => Json::Null,
            1 => Json::Bool(g.bool()),
            2 => Json::U64(g.u64()),
            3 => Json::I64(-(g.range(1, 1 << 62) as i64)),
            4 => {
                let magnitude = g.f64() * 1e9;
                let x = if g.bool() { -magnitude } else { magnitude };
                if format!("{x}").contains(['.', 'e', 'E']) {
                    Json::F64(x)
                } else if x < 0.0 {
                    Json::I64(x as i64)
                } else {
                    Json::U64(x as u64)
                }
            }
            5 => Json::Str(gen_string(g)),
            6 => Json::Arr(g.vec(0, 4, |g| gen_value(g, depth - 1))),
            7 => Json::Obj(g.vec(0, 4, |g| (gen_string(g), gen_value(g, depth - 1)))),
            _ => unreachable!(),
        }
    }

    fn gen_string(g: &mut crate::check::Gen) -> String {
        g.vec(0, 8, |g| match g.choice(5) {
            0 => '"',
            1 => '\\',
            2 => char::from(g.range(0, 0x20) as u8),
            3 => char::from_u32(g.range(0x20, 0xD800) as u32).expect("below surrogates"),
            _ => char::from_u32(g.range(0x1F300, 0x1F400) as u32).expect("astral plane"),
        })
        .into_iter()
        .collect()
    }

    #[test]
    fn prop_parse_inverts_render() {
        crate::check::props("json_parse_inverts_render").run(|g| {
            let v = gen_value(g, 3);
            let rendered = v.render();
            g.note(format!("doc = {rendered}"));
            let parsed = parse(&rendered).expect("emitter output must parse");
            assert_eq!(parsed, v, "parse(render(v)) != v for {rendered}");
            // And rendering is a fixpoint: re-rendering changes nothing.
            assert_eq!(parsed.render(), rendered);
        });
    }
}
