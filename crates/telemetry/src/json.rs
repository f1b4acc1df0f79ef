//! Minimal hand-rolled JSON: a [`JsonValue`] tree, a recursive-descent
//! parser and string-escaping helpers.
//!
//! The crate has no dependencies, so the metrics exporter writes JSON
//! by hand; this parser reads it back for the `metrics_check` binary
//! and the round-trip tests. It accepts the JSON
//! this crate emits (and standard JSON generally); it is not meant to
//! be a full-spec validator. Nesting deeper than [`MAX_DEPTH`] is an
//! error, so hostile input cannot overflow the stack.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep first-wins semantics and are
/// stored ordered for deterministic traversal.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// An integer literal (no `.`, `e` or `E`) that fits an `i128`,
    /// exactly: every `u64` and `i64` the exporter writes reads back
    /// unrounded.
    Int(i128),
    /// Any other number, as the nearest `f64`.
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, integers rounded to the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Int(n) => Some(n as f64),
            JsonValue::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The number if it is a whole number in `u64`'s range, exactly;
    /// `None` for a negative, fractional or out-of-range number.
    pub fn as_u64(&self) -> Option<u64> {
        /// 2^64, exactly representable.
        const U64_END: f64 = 18_446_744_073_709_551_616.0;
        match *self {
            JsonValue::Int(n) => u64::try_from(n).ok(),
            JsonValue::Num(n) if (0.0..U64_END).contains(&n) && n.fract() == 0.0 => Some(n as u64),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The exported
/// documents nest at most a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document; trailing non-whitespace and
/// nesting deeper than [`MAX_DEPTH`] are errors.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value; `depth` is how many more arrays/objects may open.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == 0 => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_obj(b, pos, depth - 1),
        Some(b'[') => parse_arr(b, pos, depth - 1),
        Some(b'"') => parse_string(b, pos).map(JsonValue::Str),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(n) = text.parse::<i128>() {
            return Ok(JsonValue::Int(n));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Copy the full UTF-8 sequence starting at this byte.
                let ch_len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let s = std::str::from_utf8(b.get(*pos..*pos + ch_len).ok_or("bad utf8")?)
                    .map_err(|e| e.to_string())?;
                out.push_str(s);
                *pos += ch_len;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth)?;
        map.entry(key).or_insert(value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

/// Escapes a string for embedding in a JSON document (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Shortest-roundtrip float formatting (`{v:?}`): bit-exact, stable,
/// and valid JSON for finite values.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"t": true, "n": null}, "s": "x\"y"}"#)
            .expect("valid json");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("t"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\"y"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let at_bound = parse(&nested(MAX_DEPTH)).expect("nesting at the bound parses");
        let mut innermost = &at_bound;
        for _ in 1..MAX_DEPTH {
            innermost = &innermost.as_arr().expect("array level")[0];
        }
        assert_eq!(innermost, &JsonValue::Arr(Vec::new()));
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        let objects = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn escape_round_trips() {
        let s = "line\nwith \"quotes\" and \\slash\\ and tab\t.";
        let parsed = parse(&format!("\"{}\"", escape(s))).expect("parse escaped");
        assert_eq!(parsed.as_str(), Some(s));
    }

    #[test]
    fn u64_helper_rejects_fractions() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("3.0").unwrap().as_u64(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("-1.0").unwrap().as_u64(), None);
    }

    #[test]
    fn integers_stay_exact() {
        let two53 = 1u64 << 53;
        for n in [two53 + 1, u64::MAX - 1, u64::MAX] {
            let v = parse(&n.to_string()).unwrap();
            assert_eq!(v, JsonValue::Int(n.into()));
            assert_eq!(v.as_u64(), Some(n), "{n}");
        }
        assert_eq!(
            parse(&i64::MIN.to_string()).unwrap(),
            JsonValue::Int(i64::MIN.into())
        );
        // Out of `u64`'s range, as an integer literal or not.
        for text in ["18446744073709551616", "1e30", "1.8446744073709552e19"] {
            assert_eq!(parse(text).unwrap().as_u64(), None, "{text}");
        }
        assert_eq!(parse("1e30").unwrap().as_f64(), Some(1e30));
        assert_eq!(parse("2.5e0").unwrap(), JsonValue::Num(2.5));
    }

    #[test]
    fn fmt_f64_shortest_roundtrip() {
        assert_eq!(fmt_f64(1.85), "1.85");
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(f64::NAN), "null");
    }
}
