//! Minimal JSON value, parser, and writer (std only — the container the
//! workspace builds in has no registry access, so serde is out of
//! reach). Home of the renderer both the Chrome-trace exporter and the
//! `retime-serve` protocol use (serve re-exports this module).
//!
//! Two properties matter:
//!
//! * **Deterministic rendering** — objects keep insertion order and
//!   numbers print through Rust's shortest-roundtrip `f64` formatting,
//!   so rendering the same value twice yields byte-identical text (the
//!   serve cache's bit-identical-payload contract rests on this).
//! * **Raw splicing** — [`Json::Raw`] embeds an already-rendered
//!   fragment verbatim, letting responses carry a cached payload without
//!   a parse/re-render round trip that could perturb formatting.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers survive exactly up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
    /// An already-rendered fragment, spliced verbatim by [`Json::render`].
    /// Never produced by the parser.
    Raw(String),
}

impl Json {
    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as an integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders to compact JSON text (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => write_num(*x, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(text) => out.push_str(text),
        }
    }
}

fn write_num(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", x as i64);
    } else {
        // Rust's f64 Display is the shortest string that round-trips,
        // so render(parse(render(x))) is a fixed point.
        let _ = write!(out, "{x}");
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Parses one JSON value from `src` (trailing whitespace allowed,
/// trailing garbage is an error).
///
/// # Errors
/// Returns a one-line description of the first syntax error.
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad utf8".to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or escape in one call,
        // validating it as UTF-8 once.
        let run = *pos + run_len(&bytes[*pos..]);
        let text = std::str::from_utf8(&bytes[*pos..run])
            .map_err(|e| format!("bad utf8 at byte {}", *pos + e.valid_up_to()))?;
        out.push_str(text);
        *pos = run;
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
        }
    }
}

/// Length of the prefix of `bytes` before the first `"` or `\\`, eight
/// bytes per step: a byte equal to the target zeroes its lane of the XOR,
/// and the borrow trick flags the lowest zero lane exactly.
fn run_len(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    let zero_lanes = |x: u64| x.wrapping_sub(ONES) & !x & HIGH;
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        let hits =
            zero_lanes(w ^ (ONES * u64::from(b'"'))) | zero_lanes(w ^ (ONES * u64::from(b'\\')));
        if hits != 0 {
            return at + (hits.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    let tail = words.remainder();
    at + tail
        .iter()
        .position(|&b| b == b'"' || b == b'\\')
        .unwrap_or(tail.len())
}

/// Shorthand for building an object in field order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_is_a_fixed_point() {
        let cases = [
            r#"{"a":1,"b":[true,false,null],"c":"x\"y\n","d":1.25,"e":-3}"#,
            r#"[0.1,2e3,{"nested":{"k":"v"}}]"#,
            "3.141592653589793",
        ];
        for src in cases {
            let v = parse(src).unwrap();
            let rendered = v.render();
            let v2 = parse(&rendered).unwrap();
            assert_eq!(rendered, v2.render(), "render not a fixed point: {src}");
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn raw_splices_verbatim() {
        let v = obj(vec![
            ("ok", Json::Bool(true)),
            ("payload", Json::Raw(r#"{"x":1.5}"#.into())),
        ]);
        assert_eq!(v.render(), r#"{"ok":true,"payload":{"x":1.5}}"#);
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["{", "[1,", "\"x", "{\"a\" 1}", "1 2", "tru"] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn long_string_literal_parses() {
        // 1 MiB with a multi-byte scalar every 64 bytes: linear time.
        let chunk = format!("{}é", "x".repeat(62));
        let body = chunk.repeat((1 << 20) / chunk.len());
        let v = parse(&format!("{{\"s\":\"{body}\"}}")).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some(body.as_str()));
    }

    #[test]
    fn multi_byte_characters_round_trip() {
        let text = "ä€𝄞 — naïve ☃";
        let v = parse(&Json::Str(text.into()).render()).unwrap();
        assert_eq!(v.as_str(), Some(text));
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        for bad in [
            &b"\"\xff\""[..],         // not a lead byte
            &b"\"\x80\""[..],         // lone continuation byte
            &b"\"\xc3\""[..],         // truncated two-byte scalar
            &b"\"\xe2\x82\""[..],     // truncated three-byte scalar
            &b"\"\xed\xa0\x80\""[..], // encoded surrogate
            &b"\"\xf0\x9d"[..],       // truncated at end of input
        ] {
            let mut pos = 0;
            assert!(parse_string(bad, &mut pos).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(1.25).render(), "1.25");
        assert_eq!(Json::Num(-0.5).render(), "-0.5");
    }

    /// A string of `len` scalars drawn from escapes, control characters,
    /// multi-byte scalars and plain ASCII runs.
    fn tricky(seed: u64, len: usize) -> String {
        const POOL: &[&str] = &[
            "\"",
            "\\",
            "/",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{8}",
            "\u{c}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "€",
            "𝄞",
            "\u{fffd}",
            "\u{2028}",
            "a",
            "INPUT(G1)\n",
            "G10 = NAND(G0, G1)",
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| POOL[rng.random_range(0..POOL.len())])
            .collect()
    }

    /// The word-at-a-time scan stops where a byte-at-a-time one does,
    /// for a target at every offset among near misses.
    #[test]
    fn run_len_finds_the_first_quote_or_backslash() {
        for target in [b'"', b'\\'] {
            for at in 0..40 {
                let mut bytes: Vec<u8> = (0..40u8)
                    .map(|i| [0x21, 0x23, 0xa2, 0x5b, 0x5d, 0xdc, 0x00, 0xff][usize::from(i % 8)])
                    .collect();
                bytes[at] = target;
                if at + 3 < 40 {
                    bytes[at + 3] = b'"';
                }
                assert_eq!(run_len(&bytes), at);
                assert_eq!(run_len(&bytes[..at]), at);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn strings_round_trip_through_render(seed in any::<u64>(), len in 0usize..200) {
            let s = tricky(seed, len);
            let rendered = Json::Str(s.clone()).render();
            prop_assert_eq!(parse(&rendered), Ok(Json::Str(s.clone())));
            let field = obj(vec![("netlist", Json::Str(s.clone()))]).render();
            prop_assert_eq!(parse(&field).unwrap().get("netlist"), Some(&Json::Str(s)));
        }
    }
}
