//! Property tests: arbitrary trees survive a write→parse round trip,
//! and arbitrary text survives escaping.

use proptest::prelude::*;
#[path = "gen_tree/mod.rs"]
mod gen_tree;

use gen_tree::{element_strategy, GenElement};
use xmlparse::Element;

/// Strategy for XML names (conservative ASCII subset).
fn name_strategy() -> impl Strategy<Value = String> {
    "[A-Za-z_][A-Za-z0-9_.-]{0,11}".prop_filter("avoid xml-reserved names", |s| {
        !s.eq_ignore_ascii_case("xml") && !s.starts_with("xmlns")
    })
}

/// Strategy for text content, including characters that need escaping.
/// Excludes control characters, which are not legal XML chars.
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('<'),
            Just('>'),
            Just('&'),
            Just('"'),
            Just('\''),
            proptest::char::range('a', 'z'),
            proptest::char::range('A', 'Z'),
            proptest::char::range('0', '9'),
            Just(' '),
            Just('é'),
            Just('λ'),
        ],
        1..40,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn write_parse_round_trip_pretty(el in element_strategy(name_strategy, text_strategy)) {
        let xml = el.to_xml(true);
        prop_assert_eq!(GenElement::of(&Element::parse(&xml).unwrap()), el);
    }

    #[test]
    fn write_parse_round_trip_compact(el in element_strategy(name_strategy, text_strategy)) {
        let xml = el.to_xml(false);
        prop_assert_eq!(GenElement::of(&Element::parse(&xml).unwrap()), el);
    }

    #[test]
    fn escape_unescape_round_trip(text in text_strategy()) {
        let escaped = xmlparse::escape::escape_text(&text);
        let back = xmlparse::escape::unescape(&escaped, xmlparse::Position::start()).unwrap();
        prop_assert_eq!(back, text);
    }

    #[test]
    fn attribute_escape_round_trip(text in text_strategy()) {
        let escaped = xmlparse::escape::escape_attribute(&text);
        let back = xmlparse::escape::unescape(&escaped, xmlparse::Position::start()).unwrap();
        prop_assert_eq!(back, text);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in "\\PC{0,200}") {
        // Errors are fine; panics are not.
        let _ = Element::parse(&input);
    }
}
