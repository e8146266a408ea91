//! Differential property tests for the bounded-memory streaming path.
//!
//! The [`StreamingReader`] must produce exactly the event stream of the
//! in-memory [`Reader`] — on serialized trees, on markup soup, and on
//! truncated prefixes — under every chunk-split schedule: reads that
//! split tags, entities, multi-byte UTF-8 sequences and closing
//! delimiters at arbitrary byte offsets. Error *kinds* must agree;
//! positions are not compared (the streaming reader reports
//! window-relative positions).

use std::io::Read;

use proptest::prelude::*;
#[path = "gen_tree/mod.rs"]
mod gen_tree;

use gen_tree::{element_strategy, name_strategy, text_strategy};
use xmlparse::{Event, Reader, StreamingReader, XmlError};

fn reference_events(input: &str) -> Result<Vec<Event>, XmlError> {
    Reader::new(input).collect_events()
}

/// A byte source that honours an arbitrary split schedule: the n-th
/// `read` call returns at most `splits[n]` bytes (cycling), so chunk
/// boundaries land wherever proptest puts them — including inside
/// multi-byte characters and delimiter sequences.
struct Scheduled<'a> {
    data: &'a [u8],
    at: usize,
    splits: Vec<usize>,
    turn: usize,
}

impl Read for Scheduled<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let quota = if self.splits.is_empty() {
            out.len()
        } else {
            let q = self.splits[self.turn % self.splits.len()].max(1);
            self.turn += 1;
            q
        };
        let n = self
            .data
            .len()
            .saturating_sub(self.at)
            .min(quota)
            .min(out.len());
        out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

fn streaming_events(
    input: &str,
    window: usize,
    splits: Vec<usize>,
) -> Result<Vec<Event>, XmlError> {
    let source = Scheduled {
        data: input.as_bytes(),
        at: 0,
        splits,
        turn: 0,
    };
    StreamingReader::with_window(source, window).collect_events()
}

/// Asserts a candidate outcome matches the reference: equal event
/// streams on success, same error kind (by variant) on failure.
fn assert_matches_reference(
    label: &str,
    input: &str,
    candidate: Result<Vec<Event>, XmlError>,
    reference: &Result<Vec<Event>, XmlError>,
) {
    match (candidate, reference) {
        (Ok(new), Ok(old)) => {
            assert_eq!(&new, old, "{label} event stream diverges on {input:?}");
        }
        (Err(new), Err(old)) => {
            assert_eq!(
                std::mem::discriminant(new.kind()),
                std::mem::discriminant(old.kind()),
                "{label} error kind diverges on {input:?}: {:?} vs {:?}",
                new.kind(),
                old.kind()
            );
        }
        (new, old) => panic!(
            "{label} acceptance diverges on {input:?}: {:?} vs {:?}",
            new.map(|e| e.len()),
            old.as_ref().map(|e| e.len())
        ),
    }
}

/// Runs both readers over `input` and checks the streaming one, under
/// the given window/split schedule, against the in-memory one.
fn assert_all_agree(input: &str, window: usize, splits: Vec<usize>) {
    let reference = reference_events(input);
    assert_matches_reference(
        "streaming",
        input,
        streaming_events(input, window, splits),
        &reference,
    );
}

/// Markup-ish fragments: mostly ill-formed, some accidentally valid,
/// full of partial delimiters, split entity syntax, and declarations.
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
        "<a x=\"1>2\">",
    ])
}

fn window_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(16usize), Just(17), Just(31), Just(64), Just(4096)]
}

fn splits_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..24, 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both readers yield identical event streams for serialized
    /// trees, whatever the window size and read-split schedule.
    #[test]
    fn readers_agree_on_wellformed_documents(
        el in element_strategy(name_strategy, text_strategy),
        window in window_strategy(),
        splits in splits_strategy(),
    ) {
        for pretty in [true, false] {
            let xml = el.to_xml(pretty);
            prop_assert!(reference_events(&xml).is_ok(), "serialized tree must parse: {:?}", xml);
            assert_all_agree(&xml, window, splits.clone());
        }
    }

    /// Same events or same error kind — never a panic, never a hang —
    /// on arbitrary concatenations of markup fragments, across chunk
    /// schedules that split tags, entities and delimiters anywhere.
    #[test]
    fn readers_agree_on_markup_soup(
        frags in proptest::collection::vec(fragment_strategy(), 0..24),
        window in window_strategy(),
        splits in splits_strategy(),
    ) {
        let input: String = frags.concat();
        assert_all_agree(&input, window, splits);
    }

    /// Truncating a valid document at every char boundary must produce
    /// the same error kind from both readers.
    #[test]
    fn truncated_inputs_error_identically(el in element_strategy(name_strategy, text_strategy)) {
        let xml = el.to_xml(false);
        for end in (0..xml.len()).filter(|&i| xml.is_char_boundary(i)) {
            assert_all_agree(&xml[..end], 32, vec![5]);
        }
    }
}
