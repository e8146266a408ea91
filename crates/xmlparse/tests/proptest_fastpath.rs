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

use xmlparse::{Document, Element, Event, Reader, Writer, XmlError};

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

/// XML names, including multibyte starts and interiors (every non-ASCII
/// char is a name char in this dialect).
fn name_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        "[A-Za-z_][A-Za-z0-9_.-]{0,11}",
        "[A-Za-z_éλü][A-Za-z0-9_.éλü\u{4e2d}-]{0,9}",
    ]
    .prop_filter("avoid xml-reserved names", |s| {
        !s.eq_ignore_ascii_case("xml") && !s.starts_with("xmlns")
    })
}

/// Text content mixing escapables, multibyte chars (1–4 byte encodings)
/// and whitespace, so slices straddle SWAR word boundaries arbitrarily.
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('<'),
            Just('>'),
            Just('&'),
            Just('"'),
            Just('\''),
            proptest::char::range('a', 'z'),
            proptest::char::range('0', '9'),
            Just(' '),
            Just('\n'),
            Just('é'),       // 2-byte UTF-8
            Just('\u{4e2d}'), // 3-byte UTF-8
            Just('\u{1F600}'), // 4-byte UTF-8
        ],
        0..48,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn element_strategy() -> impl Strategy<Value = Element> {
    let leaf = (name_strategy(), proptest::collection::vec((name_strategy(), text_strategy()), 0..4))
        .prop_map(|(name, attrs)| {
            let mut el = Element::new(name);
            for (aname, avalue) in attrs {
                if el.attr(&aname).is_none() {
                    el = el.with_attr(aname, avalue);
                }
            }
            el
        });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            proptest::collection::vec((name_strategy(), text_strategy()), 0..3),
            proptest::collection::vec(inner, 0..4),
            proptest::option::of(text_strategy()),
        )
            .prop_map(|(name, attrs, children, text)| {
                let mut el = Element::new(name);
                for (aname, avalue) in attrs {
                    if el.attr(&aname).is_none() {
                        el = el.with_attr(aname, avalue);
                    }
                }
                if let Some(t) = text {
                    if !t.trim().is_empty() {
                        el = el.with_text(t);
                    }
                }
                for child in children {
                    el = el.with_child(child);
                }
                el
            })
    })
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
    /// trees (pretty and compact), and the DOM built on the borrowed
    /// path round-trips them identically.
    #[test]
    fn tokenizers_agree_on_wellformed_documents(el in element_strategy()) {
        for writer in [Writer::default(), Writer::compact()] {
            let xml = writer.element_to_string(&el);
            let ok = assert_agree(&xml);
            prop_assert!(ok, "serialized tree must parse: {:?}", xml);
            let doc = Document::parse_str(&xml).unwrap();
            prop_assert_eq!(&doc.root, &el, "DOM round trip via {:?}", xml);
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
    fn truncated_inputs_error_identically(el in element_strategy()) {
        let xml = Writer::compact().element_to_string(&el);
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
    fn truncation_never_silently_succeeds(el in element_strategy()) {
        let xml = Writer::compact().element_to_string(&el);
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
