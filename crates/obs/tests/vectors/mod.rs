//! Emitter vectors: values whose exact compact and pretty text is
//! pinned, one per edge of the emit rules. `tests/emit.rs` checks them;
//! the workspace's `tests/json_fuzz.rs` mutates their text.

use flexsfp_obs::{json, Value};

/// One value and the exact text it emits.
pub struct Vector {
    /// What the vector pins.
    pub what: &'static str,
    pub value: Value,
    /// `value.to_string()`.
    pub compact: String,
    /// `value.to_string_pretty()`.
    pub pretty: String,
}

fn vector(what: &'static str, value: Value, compact: &str, pretty: &str) -> Vector {
    Vector {
        what,
        value,
        compact: compact.to_string(),
        pretty: pretty.to_string(),
    }
}

/// A scalar's text is the same compact and pretty.
fn scalar(what: &'static str, value: Value, text: &str) -> Vector {
    vector(what, value, text, text)
}

pub fn vectors() -> Vec<Vector> {
    let controls: String = (0u8..0x20).map(char::from).collect();
    let controls_escaped = concat!(
        r#"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007"#,
        r#"\b\t\n\u000b\f\r\u000e\u000f"#,
        r#"\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017"#,
        r#"\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f"#,
    );
    let text = format!("{controls}\"\\/\u{7f}é😀");
    let text_escaped = format!("\"{controls_escaped}\\\"\\\\/\u{7f}é😀\"");
    let key = json!({ "line\nbreak \"quoted\"": 1 });
    vec![
        scalar("u64::MAX", Value::UInt(u64::MAX), "18446744073709551615"),
        scalar("i64::MIN", Value::Int(i64::MIN), "-9223372036854775808"),
        scalar("negative zero", Value::Float(-0.0), "-0.0"),
        scalar(
            "the smallest subnormal",
            Value::Float(5e-324),
            &format!("0.{}5", "0".repeat(323)),
        ),
        scalar("1e21", Value::Float(1e21), "1000000000000000000000.0"),
        scalar(
            "f64::MAX",
            Value::Float(f64::MAX),
            &format!("17976931348623157{}.0", "0".repeat(292)),
        ),
        scalar("NaN", Value::Float(f64::NAN), "null"),
        scalar("+inf", Value::Float(f64::INFINITY), "null"),
        scalar("-inf", Value::Float(f64::NEG_INFINITY), "null"),
        scalar("every control character", Value::Str(text), &text_escaped),
        vector(
            "an escaped member name",
            key,
            r#"{"line\nbreak \"quoted\"":1}"#,
            "{\n  \"line\\nbreak \\\"quoted\\\"\": 1\n}",
        ),
        scalar("an empty array", json!([]), "[]"),
        scalar("an empty object", json!({}), "{}"),
        vector(
            "nested empty containers",
            json!([[], {}, [[]], {"a": {}}]),
            r#"[[],{},[[]],{"a":{}}]"#,
            "[\n  [],\n  {},\n  [\n    []\n  ],\n  {\n    \"a\": {}\n  }\n]",
        ),
        vector(
            "an array of objects",
            json!([{"b": [1, 2.5], "a": null}, {"c": {"d": true}}, {}]),
            r#"[{"a":null,"b":[1,2.5]},{"c":{"d":true}},{}]"#,
            "[\n  {\n    \"a\": null,\n    \"b\": [\n      1,\n      2.5\n    ]\n  },\n  \
             {\n    \"c\": {\n      \"d\": true\n    }\n  },\n  {}\n]",
        ),
        vector(
            "members in byte order of their names",
            json!({"é": 6, "counts": 5, "count": 4, "b": 3, "a": 2, "B": 1}),
            r#"{"B":1,"a":2,"b":3,"count":4,"counts":5,"é":6}"#,
            "{\n  \"B\": 1,\n  \"a\": 2,\n  \"b\": 3,\n  \"count\": 4,\n  \
             \"counts\": 5,\n  \"é\": 6\n}",
        ),
        vector(
            "non-finite floats inside containers",
            json!({"x": [f64::NAN, f64::INFINITY, -1.5]}),
            r#"{"x":[null,null,-1.5]}"#,
            "{\n  \"x\": [\n    null,\n    null,\n    -1.5\n  ]\n}",
        ),
    ]
}
