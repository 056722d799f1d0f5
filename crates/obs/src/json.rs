//! Minimal stable-JSON emission helpers (no serde in this workspace).
//!
//! [`JsonBuilder`] tracks nesting and comma placement so callers can
//! emit a deterministic, schema-stable document field by field. Key
//! order is exactly call order, which is what makes the schema stable
//! for the `verify.sh` greps and the bench sidecars.

use std::fmt::Write as _;

/// Escape `s` as a JSON string, including the surrounding quotes.
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Incremental JSON writer with automatic comma placement.
///
/// ```
/// use shield_core::json::JsonBuilder;
/// let mut j = JsonBuilder::new();
/// j.open_obj_item();
/// j.field_str("schema", "v1");
/// j.open_arr("xs");
/// j.item_u64(1);
/// j.item_u64(2);
/// j.close_arr();
/// j.close_obj();
/// assert_eq!(j.finish(), r#"{"schema":"v1","xs":[1,2]}"#);
/// ```
#[derive(Default)]
pub struct JsonBuilder {
    out: String,
    comma: Vec<bool>,
}

impl JsonBuilder {
    pub fn new() -> JsonBuilder {
        JsonBuilder::default()
    }

    fn item(&mut self) {
        if let Some(c) = self.comma.last_mut() {
            if *c {
                self.out.push(',');
            } else {
                *c = true;
            }
        }
    }

    fn keyed(&mut self, key: &str) {
        self.item();
        self.out.push_str(&escaped(key));
        self.out.push(':');
    }

    /// Open an object as an array element (or as the document root).
    pub fn open_obj_item(&mut self) {
        self.item();
        self.out.push('{');
        self.comma.push(false);
    }

    /// Open an object-valued field.
    pub fn open_obj(&mut self, key: &str) {
        self.keyed(key);
        self.out.push('{');
        self.comma.push(false);
    }

    pub fn close_obj(&mut self) {
        self.comma.pop();
        self.out.push('}');
    }

    /// Open an array-valued field.
    pub fn open_arr(&mut self, key: &str) {
        self.keyed(key);
        self.out.push('[');
        self.comma.push(false);
    }

    pub fn close_arr(&mut self) {
        self.comma.pop();
        self.out.push(']');
    }

    pub fn field_u64(&mut self, key: &str, v: u64) {
        self.keyed(key);
        let _ = write!(self.out, "{v}");
    }

    pub fn field_f64(&mut self, key: &str, v: f64) {
        self.keyed(key);
        if v.is_finite() {
            let _ = write!(self.out, "{v:.3}");
        } else {
            self.out.push_str("null");
        }
    }

    /// An unmeasured value: `null`, never a stand-in `0`.
    pub fn field_null(&mut self, key: &str) {
        self.keyed(key);
        self.out.push_str("null");
    }

    /// [`JsonBuilder::field_f64`], or `null` when `v` was not measured.
    pub fn field_opt_f64(&mut self, key: &str, v: Option<f64>) {
        match v {
            Some(v) => self.field_f64(key, v),
            None => self.field_null(key),
        }
    }

    pub fn field_str(&mut self, key: &str, v: &str) {
        self.keyed(key);
        self.out.push_str(&escaped(v));
    }

    pub fn field_bool(&mut self, key: &str, v: bool) {
        self.keyed(key);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Emit a bare number as an array element.
    pub fn item_u64(&mut self, v: u64) {
        self.item();
        let _ = write!(self.out, "{v}");
    }

    /// Emit pre-rendered JSON as an array element or field value; the
    /// caller guarantees `raw` is valid JSON.
    pub fn item_raw(&mut self, raw: &str) {
        self.item();
        self.out.push_str(raw);
    }

    /// Emit a field whose value is pre-rendered JSON (e.g. a nested
    /// document built by another builder); the caller guarantees `raw`
    /// is valid JSON.
    pub fn field_raw(&mut self, key: &str, raw: &str) {
        self.keyed(key);
        self.out.push_str(raw);
    }

    pub fn finish(self) -> String {
        self.out
    }
}

/// A parsed JSON value. Objects preserve key order (the schemas this
/// workspace emits are order-stable, and the golden-key tests assert on
/// that order).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup; `None` on non-objects and missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Object keys in document order; empty on non-objects.
    #[must_use]
    pub fn keys(&self) -> Vec<&str> {
        match self {
            JsonValue::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document (used by the schema golden-key tests and
/// `debug_bundle` validation; strict enough for our own emitters, not a
/// general-purpose validator).
pub fn parse(s: &str) -> Result<JsonValue, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
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

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|t| t.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => {
                return String::from_utf8(out).map_err(|_| "invalid utf-8".to_string());
            }
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("short \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // BMP only; our emitters never produce surrogates.
                        let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    _ => return Err(format!("bad escape \\{}", esc as char)),
                }
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes() {
        assert_eq!(escaped("a"), "\"a\"");
        assert_eq!(escaped("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(escaped("x\ny"), "\"x\\ny\"");
        assert_eq!(escaped("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn builds_nested_document() {
        let mut j = JsonBuilder::new();
        j.open_obj_item();
        j.field_str("schema", "shield_metrics_v1");
        j.field_u64("n", 3);
        j.field_f64("amp", 1.5);
        j.field_bool("ok", true);
        j.open_arr("levels");
        j.open_obj_item();
        j.field_u64("level", 0);
        j.close_obj();
        j.open_obj_item();
        j.field_u64("level", 1);
        j.close_obj();
        j.close_arr();
        j.open_obj("tickers");
        j.field_u64("writes", 10);
        j.field_u64("gets", 20);
        j.close_obj();
        j.close_obj();
        assert_eq!(
            j.finish(),
            r#"{"schema":"shield_metrics_v1","n":3,"amp":1.500,"ok":true,"levels":[{"level":0},{"level":1}],"tickers":{"writes":10,"gets":20}}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut j = JsonBuilder::new();
        j.open_obj_item();
        j.field_f64("x", f64::NAN);
        j.field_f64("y", f64::INFINITY);
        j.close_obj();
        assert_eq!(j.finish(), r#"{"x":null,"y":null}"#);
    }

    #[test]
    fn unmeasured_values_read_back_as_null() {
        let mut j = JsonBuilder::new();
        j.open_obj_item();
        j.field_null("never_ran");
        j.field_opt_f64("speedup_8", None);
        j.field_opt_f64("speedup_4", Some(2.5));
        j.close_obj();
        let text = j.finish();
        assert_eq!(text, r#"{"never_ran":null,"speedup_8":null,"speedup_4":2.500}"#);
        let doc = parse(&text).expect("parse");
        assert_eq!(doc.get("never_ran"), Some(&JsonValue::Null));
        assert_eq!(doc.get("speedup_8"), Some(&JsonValue::Null));
        assert_eq!(doc.get("speedup_4").and_then(JsonValue::as_f64), Some(2.5));
    }

    #[test]
    fn parses_what_the_builder_emits() {
        let mut j = JsonBuilder::new();
        j.open_obj_item();
        j.field_str("schema", "v1");
        j.field_u64("n", 3);
        j.field_f64("amp", 1.5);
        j.field_bool("ok", true);
        j.open_arr("xs");
        j.item_u64(1);
        j.item_u64(2);
        j.close_arr();
        j.open_obj("inner");
        j.field_str("quoted", "a \"b\"\nc");
        j.close_obj();
        j.close_obj();
        let doc = parse(&j.finish()).expect("round-trip");
        assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some("v1"));
        assert_eq!(doc.get("n").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("xs").and_then(JsonValue::as_arr).map(<[_]>::len), Some(2));
        assert_eq!(
            doc.get("inner").and_then(|i| i.get("quoted")).and_then(JsonValue::as_str),
            Some("a \"b\"\nc")
        );
        assert_eq!(doc.keys(), vec!["schema", "n", "amp", "ok", "xs", "inner"]);
    }

    #[test]
    fn parses_literals_whitespace_and_nesting() {
        let doc = parse(" { \"a\" : [ null , true , -1.5e2 ] , \"b\" : { } } ").expect("parse");
        let xs = doc.get("a").and_then(JsonValue::as_arr).expect("array");
        assert_eq!(xs[0], JsonValue::Null);
        assert_eq!(xs[1], JsonValue::Bool(true));
        assert_eq!(xs[2].as_f64(), Some(-150.0));
        assert_eq!(doc.get("b"), Some(&JsonValue::Obj(Vec::new())));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,", "{\"a\":1}x", "\"unterminated", "{'a':1}"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }
}
