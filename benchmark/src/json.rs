//! JSON output on top of `shield_core::JsonValue` (whose crate supplies the
//! parser): constructors and a serialiser that keeps every digit of a
//! measured number.

use shield_core::json::escaped;
use shield_core::JsonValue;

pub fn s(text: &str) -> JsonValue {
    JsonValue::Str(text.to_string())
}

pub fn num(v: f64) -> JsonValue {
    if v.is_finite() {
        JsonValue::Num(v)
    } else {
        JsonValue::Null
    }
}

/// A number, or `null` for a value that was not measured.
pub fn opt(v: Option<f64>) -> JsonValue {
    v.map_or(JsonValue::Null, num)
}

pub fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Serialises on one line.
pub fn compact(value: &JsonValue) -> String {
    let mut out = String::new();
    write(value, None, 0, &mut out);
    out
}

/// Serialises with two-space indentation and a trailing newline.
pub fn pretty(value: &JsonValue) -> String {
    let mut out = String::new();
    write(value, Some(2), 0, &mut out);
    out.push('\n');
    out
}

fn write(value: &JsonValue, indent: Option<usize>, depth: usize, out: &mut String) {
    let newline = |out: &mut String, depth: usize| {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * depth));
        }
    };
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Rust prints the shortest text that reads back as the same f64.
        JsonValue::Num(n) => out.push_str(&format!("{n}")),
        JsonValue::Str(text) => out.push_str(&escaped(text)),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                write(item, indent, depth + 1, out);
            }
            if !items.is_empty() {
                newline(out, depth);
            }
            out.push(']');
        }
        JsonValue::Obj(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                out.push_str(&escaped(key));
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write(item, indent, depth + 1, out);
            }
            if !members.is_empty() {
                newline(out, depth);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_the_product_parser_with_all_digits() {
        let doc = obj(vec![
            ("a", num(1.2034567891234)),
            (
                "b",
                JsonValue::Arr(vec![s("x\"y"), JsonValue::Bool(true), opt(None)]),
            ),
            ("c", obj(vec![])),
        ]);
        for text in [compact(&doc), pretty(&doc)] {
            assert_eq!(shield_core::json::parse(&text).unwrap(), doc, "{text}");
        }
        assert!(compact(&doc).contains("1.2034567891234"));
    }
}
