//! Property test for the workspace JSON codec: printing any value and
//! parsing the text back gives the same value, and the printed text is
//! one line, because the wire protocol frames messages by newline.

use proptest::prelude::*;
use record_probe::json::{parse, Json};

/// Any Unicode scalar value.  ASCII (control characters included) gets a
/// third of the weight and `"` and `\` their own options, so short
/// strings often hold something the printer must escape.
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

fn string_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(char_strategy(), 0..8).prop_map(String::from_iter)
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

proptest! {
    #[test]
    fn printed_values_parse_back_unchanged(v in value_strategy()) {
        let text = v.to_string();
        prop_assert!(!text.contains('\n'), "raw newline in {}", text);
        prop_assert_eq!(parse(&text), Ok(v));
    }
}
