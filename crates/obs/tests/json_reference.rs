//! Differential test of the JSON parser against the original recursive-
//! descent parser it replaced. The lexer-based parser must accept and
//! reject exactly the same documents, with the same values and the same
//! error messages, on random documents and on random byte-level damage
//! to them.

use cudele_obs::json::{self, Value};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The original parser, verbatim.
mod reference {
    use cudele_obs::json::Value;

    /// Parses `s` as exactly one JSON value under the same strict grammar as
    /// [`validate`].
    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        skip_ws(b, &mut pos);
        let v = value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn err(pos: usize, msg: &str) -> String {
        format!("byte {pos}: {msg}")
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => string(b, pos).map(Value::Str),
            Some(b't') => literal(b, pos, b"true").map(|_| Value::Bool(true)),
            Some(b'f') => literal(b, pos, b"false").map(|_| Value::Bool(false)),
            Some(b'n') => literal(b, pos, b"null").map(|_| Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
            Some(c) => Err(err(*pos, &format!("unexpected byte {c:#x}"))),
            None => Err(err(*pos, "unexpected end of input")),
        }
    }

    fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
        if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
            *pos += lit.len();
            Ok(())
        } else {
            Err(err(*pos, "bad literal"))
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // '{'
        skip_ws(b, pos);
        let mut members = Vec::new();
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b'"') {
                return Err(err(*pos, "expected object key"));
            }
            let key = string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(err(*pos, "expected ':'"));
            }
            *pos += 1;
            skip_ws(b, pos);
            let v = value(b, pos)?;
            members.push((key, v));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(err(*pos, "expected ',' or '}'")),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // '['
        skip_ws(b, pos);
        let mut items = Vec::new();
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            skip_ws(b, pos);
            items.push(value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(err(*pos, "expected ',' or ']'")),
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        let mut out = String::new();
        *pos += 1; // '"'
        while let Some(&c) = b.get(*pos) {
            match c {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => {
                            out.push('"');
                            *pos += 1;
                        }
                        Some(b'\\') => {
                            out.push('\\');
                            *pos += 1;
                        }
                        Some(b'/') => {
                            out.push('/');
                            *pos += 1;
                        }
                        Some(b'b') => {
                            out.push('\u{8}');
                            *pos += 1;
                        }
                        Some(b'f') => {
                            out.push('\u{c}');
                            *pos += 1;
                        }
                        Some(b'n') => {
                            out.push('\n');
                            *pos += 1;
                        }
                        Some(b'r') => {
                            out.push('\r');
                            *pos += 1;
                        }
                        Some(b't') => {
                            out.push('\t');
                            *pos += 1;
                        }
                        Some(b'u') => {
                            let cp = hex4(b, pos)?;
                            // Combine UTF-16 surrogate pairs; a lone surrogate
                            // decodes to U+FFFD rather than failing.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if b.get(*pos) == Some(&b'\\') && b.get(*pos + 1) == Some(&b'u') {
                                    *pos += 1;
                                    let lo = hex4(b, pos)?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                        char::from_u32(c).unwrap_or('\u{FFFD}')
                                    } else {
                                        '\u{FFFD}'
                                    }
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(cp).unwrap_or('\u{FFFD}')
                            };
                            out.push(ch);
                        }
                        _ => return Err(err(*pos, "bad escape")),
                    }
                }
                0x00..=0x1F => return Err(err(*pos, "raw control character in string")),
                _ => {
                    // `s` is &str, so multi-byte UTF-8 sequences are valid;
                    // copy the whole code point.
                    let start = *pos;
                    *pos += 1;
                    while b.get(*pos).is_some_and(|&x| x & 0xC0 == 0x80) {
                        *pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&b[start..*pos]).expect("input is str"));
                }
            }
        }
        Err(err(*pos, "unterminated string"))
    }

    /// Reads `\uXXXX`'s four hex digits (cursor on the `u`).
    fn hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
        if b.len() < *pos + 5 || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit) {
            return Err(err(*pos, "bad \\u escape"));
        }
        let s = std::str::from_utf8(&b[*pos + 1..*pos + 5]).expect("hex digits");
        *pos += 5;
        Ok(u32::from_str_radix(s, 16).expect("hex digits"))
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        let int_start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == int_start {
            return Err(err(start, "expected digits"));
        }
        // No leading zeros (JSON): "0" alone is fine, "01" is not.
        if b[int_start] == b'0' && *pos - int_start > 1 {
            return Err(err(int_start, "leading zero"));
        }
        if b.get(*pos) == Some(&b'.') {
            *pos += 1;
            let frac_start = *pos;
            while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            if *pos == frac_start {
                return Err(err(*pos, "expected fraction digits"));
            }
        }
        if matches!(b.get(*pos), Some(b'e' | b'E')) {
            *pos += 1;
            if matches!(b.get(*pos), Some(b'+' | b'-')) {
                *pos += 1;
            }
            let exp_start = *pos;
            while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            if *pos == exp_start {
                return Err(err(*pos, "expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| err(start, "unrepresentable number"))
    }
}

const ATOMS: [&str; 14] = [
    "null",
    "true",
    "false",
    "0",
    "-0",
    "12",
    "-3.25",
    "1e3",
    "2.5E-2",
    "1e400",
    "\"\"",
    "\"plain\"",
    "\"é😀 \\n\\t\\\\ \\\"q\\\"\"",
    "\"\\ud83d\\ude00 \\u00e9 \\ud800!\"",
];

const WS: [&str; 5] = ["", "", " ", "\n  ", "\t\r"];

fn pick<'s>(rng: &mut TestRng, xs: &[&'s str]) -> &'s str {
    xs[rng.index(xs.len())]
}

/// A random well-formed document of bounded depth.
fn document(rng: &mut TestRng, out: &mut String, depth: usize) {
    out.push_str(pick(rng, &WS));
    match rng.index(if depth == 0 { 1 } else { 4 }) {
        0 => out.push_str(pick(rng, &ATOMS)),
        1 => {
            out.push('[');
            for i in 0..rng.index(4) {
                if i > 0 {
                    out.push(',');
                }
                document(rng, out, depth - 1);
            }
            out.push_str(pick(rng, &WS));
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..rng.index(4) {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(pick(rng, &WS));
                out.push_str(pick(rng, &["\"k\"", "\"k\"", "\"\\u0041b\"", "\"\""]));
                out.push_str(pick(rng, &WS));
                out.push(':');
                document(rng, out, depth - 1);
            }
            out.push_str(pick(rng, &WS));
            out.push('}');
        }
    }
    out.push_str(pick(rng, &WS));
}

/// Damages `doc` at up to three random char positions: deletes a char,
/// or inserts one that matters to the grammar.
fn damage(rng: &mut TestRng, doc: &str) -> String {
    const BYTES: [&str; 22] = [
        "{", "}", "[", "]", "\"", ",", ":", "\\", "0", "1", "-", ".", "e", "+", "n", "t", "u", " ",
        "\u{1}", "é", "x", "\\u",
    ];
    let mut chars: Vec<String> = doc.chars().map(String::from).collect();
    for _ in 0..1 + rng.index(3) {
        let at = rng.index(chars.len() + 1);
        if at < chars.len() && rng.index(2) == 0 {
            chars.remove(at);
        } else {
            chars.insert(at, pick(rng, &BYTES).to_string());
        }
    }
    chars.concat()
}

fn same(doc: &str) -> Result<(), TestCaseError> {
    let got: Result<Value, String> = json::parse(doc);
    let want = reference::parse(doc);
    prop_assert_eq!(got, want, "document {:?}", doc);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn parser_matches_reference_on_random_documents(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let mut doc = String::new();
        document(&mut rng, &mut doc, 4);
        prop_assert!(json::parse(&doc).is_ok(), "{:?}", doc);
        same(&doc)?;
        let damaged = damage(&mut rng, &doc);
        same(&damaged)?;
    }
}

#[test]
fn parser_matches_reference_on_fixed_edge_cases() {
    for doc in [
        "",
        " ",
        "{",
        "}",
        "[",
        "]",
        "{]",
        "[}",
        "[1,]",
        "[,1]",
        "{\"a\":}",
        "{\"a\" 1}",
        "{\"a\":1,}",
        "{,}",
        "{1:2}",
        "01",
        "-",
        "-01",
        "1.",
        "1.e3",
        "1e",
        "1e+",
        ".5",
        "\"unterminated",
        "\"a\\",
        "\"\\x\"",
        "\"\\u12\"",
        "\"\\u12G4\"",
        "\"\u{1f}\"",
        "nul",
        "nulls",
        "tru",
        "{} extra",
        "[] []",
        "\"\\ud800\\u0041\"",
        "\"\\udc00\"",
        "\"\\ud83d\\ude0\"",
        "[[[[[]]]]]",
        "{\"a\":{\"b\":{\"c\":[null]}}}",
        "1e400",
        "-1e400",
    ] {
        same(doc).unwrap();
    }
}

#[test]
fn validating_deep_nesting_does_not_recurse() {
    // The original recursed once per level and overflowed the stack on
    // documents this deep; the lexer keeps open containers on the heap.
    let depth = 1_000_000;
    let doc = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(json::validate(&doc).is_ok());
    let doc = format!(
        "{}1{}",
        "[{\"k\":".repeat(depth / 2),
        "}]".repeat(depth / 2)
    );
    assert!(json::validate(&doc).is_ok());
    assert!(json::validate(&doc[..doc.len() - 1]).is_err());
}
