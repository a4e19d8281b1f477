//! A minimal JSON lexer, validator and parser.
//!
//! The exporters in this crate hand-roll their JSON (the workspace builds
//! offline, with no serde); this module is the matching safety net — a
//! strict parser used by tests (and callers that write `--metrics-out`
//! files) to prove the output is well-formed, and by the benchmark
//! regression gate to read baselines back. [`validate`] checks validity
//! only; [`parse`] builds a [`Value`] tree; the history reader pulls
//! tokens straight off the same `Lexer`. All apply one strict grammar
//! (no leading zeros, strict escapes, no raw control characters in
//! strings, no trailing data), and none recurses, however deep the
//! nesting.

use std::borrow::Cow;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order (duplicate keys are kept as written).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object, if present (first match wins).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional parts).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object's members.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Validates that `s` is exactly one well-formed JSON value (with optional
/// surrounding whitespace). Returns the byte offset and a message on error.
pub fn validate(s: &str) -> Result<(), String> {
    let mut lx = Lexer::new(s);
    lx.skip()?;
    lx.finish()
}

/// Parses `s` as exactly one JSON value under the same strict grammar as
/// [`validate`].
pub fn parse(s: &str) -> Result<Value, String> {
    let mut lx = Lexer::new(s);
    let v = lx.value()?;
    lx.finish()?;
    Ok(v)
}

/// The exact value of a JSON number token read as a `u64`. Plain digit
/// strings convert exactly and fail past `u64::MAX`; other spellings
/// (`2.0`, `1e3`, `-0`) count when they denote a non-negative integer
/// no larger than 2^53, where `f64` is still exact.
pub(crate) fn exact_u64(number: &str) -> Option<u64> {
    if number.bytes().all(|c| c.is_ascii_digit()) {
        return number.parse().ok();
    }
    let n: f64 = number.parse().ok()?;
    (n >= 0.0 && n.fract() == 0.0 && n <= (1u64 << 53) as f64).then_some(n as u64)
}

/// `s` as an owned string, or an empty one when the caller drops it.
fn owned(s: Cow<str>, keep: bool) -> String {
    if keep {
        s.into_owned()
    } else {
        String::new()
    }
}

fn err(pos: usize, msg: &str) -> String {
    format!("byte {pos}: {msg}")
}

/// A pull lexer over one JSON document. Callers step through it value
/// by value: [`Lexer::peek`] shows how the next value starts, containers
/// are walked with `begin_*`/`next_*`, scalars are read with
/// [`Lexer::string`] and [`Lexer::number`], and [`Lexer::skip`] steps
/// over any value whole. [`parse`] builds its tree on it, and
/// `History::parse` reads events off it without building one, so both
/// apply one grammar.
pub(crate) struct Lexer<'a> {
    s: &'a str,
    b: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(s: &'a str) -> Lexer<'a> {
        Lexer {
            s,
            b: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace and returns the first byte of the next token.
    pub(crate) fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.pos).copied()
    }

    /// Requires that only whitespace follows.
    pub(crate) fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.b.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(())
    }

    /// Consumes the `{` under the cursor; returns the first key, or
    /// `None` for an empty object.
    pub(crate) fn begin_object(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        self.pos += 1;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(None);
        }
        self.key().map(Some)
    }

    /// After a member's value: the next key, or `None` at the `}`.
    pub(crate) fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.key().map(Some)
            }
            Some(b'}') => {
                self.pos += 1;
                Ok(None)
            }
            _ => Err(err(self.pos, "expected ',' or '}'")),
        }
    }

    fn key(&mut self) -> Result<Cow<'a, str>, String> {
        if self.peek() != Some(b'"') {
            return Err(err(self.pos, "expected object key"));
        }
        let key = self.string()?;
        if self.peek() != Some(b':') {
            return Err(err(self.pos, "expected ':'"));
        }
        self.pos += 1;
        Ok(key)
    }

    /// Consumes the `[` under the cursor; returns whether an item follows.
    pub(crate) fn begin_array(&mut self) -> Result<bool, String> {
        self.pos += 1;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After an item: whether another follows (`false` at the `]`).
    pub(crate) fn next_item(&mut self) -> Result<bool, String> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b']') => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(err(self.pos, "expected ',' or ']'")),
        }
    }

    /// Reads the next value whole.
    fn value(&mut self) -> Result<Value, String> {
        self.read(true)
    }

    /// Checks the next value and steps over it, building nothing.
    pub(crate) fn skip(&mut self) -> Result<(), String> {
        self.read(false).map(drop)
    }

    /// Reads the next value without recursion: containers still open
    /// wait on an explicit stack. Unless `keep`, their contents are
    /// checked and dropped, so any depth costs O(depth) heap and nothing
    /// nested is left to drop.
    fn read(&mut self, keep: bool) -> Result<Value, String> {
        enum Open {
            Arr(Vec<Value>),
            Obj(Vec<(String, Value)>, String),
        }
        let mut open: Vec<Open> = Vec::new();
        loop {
            let mut v = match self.peek() {
                Some(b'{') => match self.begin_object()? {
                    Some(key) => {
                        open.push(Open::Obj(Vec::new(), owned(key, keep)));
                        continue;
                    }
                    None => Value::Obj(Vec::new()),
                },
                Some(b'[') => {
                    if self.begin_array()? {
                        open.push(Open::Arr(Vec::new()));
                        continue;
                    }
                    Value::Arr(Vec::new())
                }
                Some(b'"') => Value::Str(owned(self.string()?, keep)),
                Some(b't') => self.literal(b"true", Value::Bool(true))?,
                Some(b'f') => self.literal(b"false", Value::Bool(false))?,
                Some(b'n') => self.literal(b"null", Value::Null)?,
                Some(c) if c.is_ascii_digit() || c == b'-' => {
                    let start = self.pos;
                    let text = self.number()?;
                    Value::Num(
                        text.parse()
                            .map_err(|_| err(start, "unrepresentable number"))?,
                    )
                }
                Some(c) => return Err(err(self.pos, &format!("unexpected byte {c:#x}"))),
                None => return Err(err(self.pos, "unexpected end of input")),
            };
            // Close every container this value completes.
            loop {
                match open.pop() {
                    None => return Ok(v),
                    Some(Open::Arr(mut items)) => {
                        if keep {
                            items.push(v);
                        }
                        if self.next_item()? {
                            open.push(Open::Arr(items));
                            break;
                        }
                        v = Value::Arr(items);
                    }
                    Some(Open::Obj(mut members, key)) => {
                        if keep {
                            members.push((key, v));
                        }
                        match self.next_key()? {
                            Some(key) => {
                                open.push(Open::Obj(members, owned(key, keep)));
                                break;
                            }
                            None => v = Value::Obj(members),
                        }
                    }
                }
            }
        }
    }

    fn literal(&mut self, lit: &[u8], v: Value) -> Result<Value, String> {
        if self.b[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(err(self.pos, "bad literal"))
        }
    }

    /// Reads the string under the cursor. Runs of plain bytes are copied
    /// whole; a string without escapes is borrowed from the input.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.pos += 1; // '"'
        let mut out: Option<String> = None;
        let mut run = self.pos;
        loop {
            while self
                .b
                .get(self.pos)
                .is_some_and(|&c| c != b'"' && c != b'\\' && c >= 0x20)
            {
                self.pos += 1;
            }
            // The run ends at an ASCII byte (or the end), so it is a
            // whole number of UTF-8 code points.
            let plain = &self.s[run..self.pos];
            match self.b.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(plain),
                        Some(mut o) => {
                            o.push_str(plain);
                            Cow::Owned(o)
                        }
                    });
                }
                Some(b'\\') => {
                    let o = out.get_or_insert_with(String::new);
                    o.push_str(plain);
                    self.pos += 1;
                    let ch = self.escape()?;
                    o.push(ch);
                    run = self.pos;
                }
                Some(_) => return Err(err(self.pos, "raw control character in string")),
                None => return Err(err(self.pos, "unterminated string")),
            }
        }
    }

    /// Decodes the escape after a backslash (cursor on its letter).
    fn escape(&mut self) -> Result<char, String> {
        let simple = match self.b.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let cp = self.hex4()?;
                // Combine UTF-16 surrogate pairs; a lone surrogate
                // decodes to U+FFFD rather than failing.
                if !(0xD800..0xDC00).contains(&cp) {
                    return Ok(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                }
                if self.b.get(self.pos) != Some(&b'\\') || self.b.get(self.pos + 1) != Some(&b'u') {
                    return Ok('\u{FFFD}');
                }
                self.pos += 1;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Ok('\u{FFFD}');
                }
                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                return Ok(char::from_u32(c).unwrap_or('\u{FFFD}'));
            }
            _ => return Err(err(self.pos, "bad escape")),
        };
        self.pos += 1;
        Ok(simple)
    }

    /// Reads `\uXXXX`'s four hex digits (cursor on the `u`).
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.b.get(self.pos + 1..self.pos + 5);
        let Some(digits) = digits.filter(|d| d.iter().all(u8::is_ascii_hexdigit)) else {
            return Err(err(self.pos, "bad \\u escape"));
        };
        let s = std::str::from_utf8(digits).expect("hex digits");
        self.pos += 5;
        Ok(u32::from_str_radix(s, 16).expect("hex digits"))
    }

    /// Reads the number under the cursor and returns its text, checked
    /// against the JSON number grammar.
    pub(crate) fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        self.digits();
        if self.pos == int_start {
            return Err(err(start, "expected digits"));
        }
        // No leading zeros (JSON): "0" alone is fine, "01" is not.
        if self.b[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(err(int_start, "leading zero"));
        }
        if self.b.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(err(self.pos, "expected fraction digits"));
            }
        }
        if matches!(self.b.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.b.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(err(self.pos, "expected exponent digits"));
            }
        }
        Ok(&self.s[start..self.pos])
    }

    /// Skips a run of ASCII digits; returns whether there was one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos > start
    }
}

#[cfg(test)]
mod tests {
    use super::{parse, validate, Value};

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e+3",
            "0",
            r#""a\nbé""#,
            r#"{"a": [1, 2.5, {"b": null}], "c": "x"}"#,
            "  {\n \"k\" : -0.25 }\n",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok:?} rejected: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{]",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "nul",
            "{} extra",
            "\"bad \\x escape\"",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn parses_values_and_accessors() {
        let v = parse(r#"{"a": [1, 2.5], "s": "x\ty", "n": null, "b": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\ty"));
        assert_eq!(v.get("n"), Some(&Value::Null));
        assert_eq!(v.get("b"), Some(&Value::Bool(true)));
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(parse("2.5").unwrap().as_u64(), None);
    }

    #[test]
    fn decodes_escapes_and_surrogates() {
        assert_eq!(
            parse(r#""q\"b\\s\/fA""#).unwrap().as_str(),
            Some("q\"b\\s/fA")
        );
        // Surrogate pair → one astral code point; raw UTF-8 passes through.
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1F600}")
        );
        assert_eq!(parse("\"é😀\"").unwrap().as_str(), Some("é😀"));
        // Lone surrogate degrades to U+FFFD instead of failing.
        assert_eq!(parse(r#""\ud83d!""#).unwrap().as_str(), Some("\u{FFFD}!"));
    }
}
