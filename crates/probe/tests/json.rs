//! Property tests for the workspace JSON codec: printing any value and
//! parsing the text back gives the same value, the printed text is one
//! line, because the wire protocol frames messages by newline, and it is
//! byte for byte what a printer writing one character at a time gives.

use proptest::prelude::*;
use record_probe::json::{parse, Json};
use std::fmt::Write;

/// Any Unicode scalar value.  ASCII (control characters included) gets a
/// third of the weight and `"` and `\` their own options, so strings
/// often hold something the printer must escape.
fn char_strategy() -> impl Strategy<Value = char> {
    prop_oneof![
        0u32..0x80,
        Just(u32::from('"')),
        Just(u32::from('\\')),
        0x80u32..0xd800,
        // The rest of the Basic Multilingual Plane and the planes above it.
        0xe000u32..0x11_0000,
    ]
    .prop_map(|c| char::from_u32(c).expect("surrogates are never generated"))
}

/// Up to 63 characters, so plain runs, escapes and multi-byte
/// characters interleave within one string.
fn string_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(char_strategy(), 0..64).prop_map(String::from_iter)
}

/// Trees up to four containers deep over every kind of leaf; numbers
/// are integers of magnitude up to 2^53, which `f64` holds exactly.
fn value_strategy() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (0u64..=1 << 53, any::<bool>()).prop_map(|(n, negative)| {
            let n = n as f64;
            Json::Num(if negative { -n } else { n })
        }),
        string_strategy().prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
            prop::collection::vec((string_strategy(), inner), 0..6).prop_map(Json::Obj),
        ]
    })
}

/// The reference printer: escapes and writes strings one character at
/// a time.
fn reference(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => write!(out, "{b}").unwrap(),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                write!(out, "{}", *n as i64).unwrap();
            } else {
                write!(out, "{n}").unwrap();
            }
        }
        Json::Str(s) => reference_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference(v, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_str(k, out);
                out.push(':');
                reference(v, out);
            }
            out.push('}');
        }
    }
}

fn reference_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

proptest! {
    #[test]
    fn printed_values_parse_back_unchanged(v in value_strategy()) {
        let text = v.to_string();
        prop_assert!(!text.contains('\n'), "raw newline in {}", text);
        prop_assert_eq!(parse(&text), Ok(v));
    }

    #[test]
    fn printed_text_matches_the_reference_printer(v in value_strategy()) {
        let mut want = String::new();
        reference(&v, &mut want);
        prop_assert_eq!(v.to_string(), want);
    }
}
