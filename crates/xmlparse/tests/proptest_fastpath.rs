//! Differential property tests for the zero-copy fast path.
//!
//! The byte/SWAR tokenizer ([`xmlparse::Reader`]) must produce exactly
//! the event stream of the preserved `char`-at-a-time reference
//! implementation (`tests/classic_oracle`) — on serialized trees,
//! on arbitrary markup-ish byte soup (mostly ill-formed), and on inputs
//! truncated at every char boundary. Error *kinds* must agree; byte
//! positions may differ (the fast path reports byte columns and scans
//! lazily), so positions are not compared.

use proptest::prelude::*;
#[path = "classic_oracle/mod.rs"]
mod classic;
#[path = "gen_tree/mod.rs"]
mod gen_tree;

use gen_tree::{element_strategy, name_strategy, text_strategy, GenElement};
use xmlparse::{Element, Event, Reader, XmlError};

fn fast_events(input: &str) -> Result<Vec<Event>, XmlError> {
    Reader::new(input).collect_events()
}

fn classic_events(input: &str) -> Result<Vec<Event>, XmlError> {
    classic::Reader::new(input).collect_events()
}

/// Asserts both tokenizers agree on `input`: equal event streams on
/// success, same error kind (by variant) on failure. Returns whether the
/// input parsed successfully.
fn assert_agree(input: &str) -> bool {
    match (fast_events(input), classic_events(input)) {
        (Ok(fast), Ok(old)) => {
            assert_eq!(fast, old, "event streams diverge on {input:?}");
            true
        }
        (Err(fast), Err(old)) => {
            assert_eq!(
                std::mem::discriminant(fast.kind()),
                std::mem::discriminant(old.kind()),
                "error kinds diverge on {input:?}: fast={:?} classic={:?}",
                fast.kind(),
                old.kind()
            );
            false
        }
        (fast, old) => panic!(
            "acceptance diverges on {input:?}: fast={:?} classic={:?}",
            fast.map(|e| e.len()),
            old.map(|e| e.len())
        ),
    }
}

/// Markup-ish fragments for byte-soup documents: mostly ill-formed, some
/// accidentally valid, full of partial delimiters and entities.
fn fragment_strategy() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(vec![
        "<a>", "</a>", "<a/>", "<b x=\"1\">", "</b>", "<a x='v'/>",
        "&amp;", "&#65;", "&#x4e2d;", "&bogus;", "&", "&amp",
        "<![CDATA[", "]]>", "<![CDATA[x]]>",
        "<!--", "-->", "<!-- c -->",
        "<?pi data?>", "<?", "?>",
        "<!DOCTYPE a>", "<!DOCTYPE a [", "]",
        "text", "é", "λ", "\u{1F600}", " ", "\n", "\t",
        "\"", "'", "<", ">", "=", "/", "/>", "<1a>", "x=",
        "<?xml version=\"1.0\"?>",
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both tokenizers yield identical event streams for serialized
    /// trees (pretty and compact), and the tree built on the borrowed
    /// path round-trips them identically.
    #[test]
    fn tokenizers_agree_on_wellformed_documents(el in element_strategy(name_strategy, text_strategy)) {
        for pretty in [true, false] {
            let xml = el.to_xml(pretty);
            let ok = assert_agree(&xml);
            prop_assert!(ok, "serialized tree must parse: {:?}", xml);
            let root = Element::parse(&xml).unwrap();
            prop_assert_eq!(&GenElement::of(&root), &el, "tree round trip via {:?}", xml);
        }
    }

    /// Both tokenizers agree — same events or same error kind, never a
    /// panic — on arbitrary concatenations of markup fragments.
    #[test]
    fn tokenizers_agree_on_markup_soup(frags in proptest::collection::vec(fragment_strategy(), 0..24)) {
        let input: String = frags.concat();
        assert_agree(&input);
    }

    /// Truncating a valid document at every char boundary must never
    /// panic or split multibyte characters; the fast path must agree
    /// with the reference on every prefix (almost all of which must
    /// error).
    #[test]
    fn truncated_inputs_error_identically(el in element_strategy(name_strategy, text_strategy)) {
        let xml = el.to_xml(false);
        for end in (0..xml.len()).filter(|&i| xml.is_char_boundary(i)) {
            let prefix = &xml[..end];
            assert_agree(prefix);
        }
    }

    /// Truncation mid-construct must be reported as an error, not as a
    /// silently short event stream: a compact single-root serialization
    /// only becomes a complete document at its final byte, so every
    /// proper prefix must be rejected.
    #[test]
    fn truncation_never_silently_succeeds(el in element_strategy(name_strategy, text_strategy)) {
        let xml = el.to_xml(false);
        prop_assert!(fast_events(&xml).is_ok());
        for end in (0..xml.len()).filter(|&i| xml.is_char_boundary(i)) {
            if let Ok(events) = fast_events(&xml[..end]) {
                prop_assert!(
                    false,
                    "truncated prefix {:?} of {:?} parsed as {} events",
                    &xml[..end], xml, events.len()
                );
            }
        }
    }
}
