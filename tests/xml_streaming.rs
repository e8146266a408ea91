//! Integration: the bounded-memory `StreamingReader` is the in-memory
//! `Reader` over a window — same events, same error kinds — whatever
//! the window size and however the source hands its bytes over.
//!
//! Both readers call one construct scanner; what this file checks is
//! everything around it that only the streaming side has: refills that
//! cut tokens and UTF-8 sequences in two, validation of each window,
//! retry with more input, and the cap on window growth.

use std::io::Read;

use xmlparse::{ErrorKind, Event, Reader, StreamingReader, XmlError, DEFAULT_WINDOW};

const WINDOWS: [usize; 5] = [16, 17, 64, 4096, DEFAULT_WINDOW];

/// A source that returns at most `chunk` bytes per `read`.
struct Chunked<'a> {
    data: &'a [u8],
    chunk: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self.data.len().min(self.chunk).min(out.len());
        out[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn stream(bytes: &[u8], window: usize, chunk: usize) -> Result<Vec<Event>, XmlError> {
    StreamingReader::with_window(Chunked { data: bytes, chunk }, window).collect_events()
}

/// Same events, or the same kind of error.
fn assert_same(streamed: Result<Vec<Event>, XmlError>, doc: &str, context: &str) {
    match (streamed, Reader::new(doc).collect_events()) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "events differ: {context}"),
        (Err(a), Err(b)) => assert_eq!(
            std::mem::discriminant(a.kind()),
            std::mem::discriminant(b.kind()),
            "error kinds differ: {context}: {a:?} vs {b:?}"
        ),
        (a, b) => panic!("outcomes differ: {context}: {a:?} vs {b:?}"),
    }
}

/// Every file in `schemas/`, and a generated 65-type catalogue of about
/// the size a late joiner discovers.
fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/schemas");
    let mut docs: Vec<(String, String)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .map(|path| (path.display().to_string(), std::fs::read_to_string(&path).unwrap()))
        .collect();
    docs.sort();
    assert!(docs.len() >= 3, "schemas/ lost its fixtures");

    let mut catalogue = String::from(
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- generated catalogue -->\n\
         <xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\">\n",
    );
    for t in 0..65 {
        catalogue.push_str(&format!("  <xsd:complexType name=\"Type{t}\">\n"));
        for f in 0..16 {
            let ty = ["xsd:string", "xsd:integer", "xsd:double", "xsd:unsigned-long"][f % 4];
            catalogue.push_str(&format!(
                "    <xsd:element name=\"field{f}\" type=\"{ty}\" minOccurs=\"1\"/>\n"
            ));
        }
        catalogue.push_str("    <xsd:annotation>caf\u{e9} &amp; \u{4e2d}\u{1d11e}</xsd:annotation>\n");
        catalogue.push_str("  </xsd:complexType>\n");
    }
    catalogue.push_str("</xsd:schema>\n");
    docs.push(("catalogue".to_owned(), catalogue));
    docs
}

#[test]
fn every_window_and_feed_yields_the_readers_events() {
    for (name, doc) in corpus() {
        let expected = Reader::new(&doc).collect_events().unwrap();
        for window in WINDOWS {
            for chunk in [usize::MAX, 1, 7] {
                let got = stream(doc.as_bytes(), window, chunk).unwrap();
                assert_eq!(got, expected, "{name} window {window} chunk {chunk}");
            }
        }
    }
}

#[test]
fn truncation_yields_the_readers_error_kind() {
    for (name, doc) in corpus() {
        // Every offset of the small documents. Of the catalogue, every
        // offset of its head, a stride through its body and every
        // offset of its last tags: a cut late in it costs a parse of
        // nearly all of it.
        let sampled = |at: usize| at < 1024 || at.is_multiple_of(1009) || at + 64 > doc.len();
        let cuts = (0..doc.len()).filter(|&at| doc.len() < 4096 || sampled(at));
        for at in cuts.filter(|&at| doc.is_char_boundary(at)) {
            let cut = &doc[..at];
            let context = format!("{name} cut at {at}");
            assert_same(stream(cut.as_bytes(), 64, 7), cut, &context);
            if at < 4096 {
                assert_same(stream(cut.as_bytes(), DEFAULT_WINDOW, usize::MAX), cut, &context);
            }
        }
    }
}

#[test]
fn multibyte_scalars_parse_across_every_window_edge() {
    // A 3-byte and a 4-byte scalar, in text and in an attribute value,
    // pushed one byte at a time across the edge of each small window.
    for scalar in ["\u{4e2d}", "\u{1d11e}"] {
        for window in [16, 17, 64] {
            for pad in 0..window + 8 {
                let filler = "x".repeat(pad);
                let doc = format!("<a>{filler}{scalar}</a><!-- {filler}{scalar}{scalar} -->");
                let in_attr = format!("<a k=\"{filler}{scalar}\">{scalar}</a>");
                for doc in [doc, in_attr] {
                    for chunk in [usize::MAX, 1] {
                        let context = format!("{doc:?} window {window} chunk {chunk}");
                        assert_same(stream(doc.as_bytes(), window, chunk), &doc, &context);
                    }
                }
            }
        }
    }
}

#[test]
fn invalid_utf8_is_reported_where_the_scan_meets_it() {
    for window in WINDOWS {
        // The mismatched end tag comes first in the document: it wins.
        let err = stream(b"<a><b></a>\xff</a>", window, 3).unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::MismatchedTag { .. }), "window {window}: {err:?}");
        // The invalid byte comes first: the scan never gets to the tag.
        let err = stream(b"<a><b>\xff</a></a>", window, 3).unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::InvalidUtf8), "window {window}: {err:?}");
        // A sequence the end of input cuts short is invalid too.
        let err = stream(b"<a>\xe4\xb8", window, 3).unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::InvalidUtf8), "window {window}: {err:?}");
    }
}

#[test]
fn a_construct_larger_than_the_cap_is_an_error_and_the_cap_holds() {
    const CAP: usize = 256;
    let doc = format!("<a><!--{}--></a>", "c".repeat(4 * CAP));
    let mut reader = StreamingReader::with_limits(doc.as_bytes(), 16, CAP);
    assert!(matches!(reader.next_event().unwrap(), Event::StartElement { .. }));
    let err = reader.next_event().unwrap_err();
    assert!(matches!(err.kind(), ErrorKind::ConstructTooLarge { limit: CAP }), "{err:?}");
    assert!(reader.window_capacity() <= CAP, "grew to {}", reader.window_capacity());
}

#[test]
fn openers_and_closers_split_by_a_refill_still_parse() {
    // Each document is padded so that every byte boundary inside every
    // multi-byte opener and closer lands on the edge of a window.
    let in_root = [
        "<!-- c -->",
        "<![CDATA[ d ]]>",
        "<?pi data?>",
        "<b k=\"v\"></b>",
        "<b k=\"v\" />",
        "<b   k = 'v'   />",
    ];
    for window in [16, 17, 32] {
        for pad in 0..=window + 12 {
            let filler = " ".repeat(pad);
            let mut docs: Vec<String> = in_root
                .iter()
                .map(|construct| format!("<r>{}{construct}t</r>", "x".repeat(pad)))
                .collect();
            docs.push(format!("<?xml version=\"1.0\"{filler}?><r/>"));
            docs.push(format!("{filler}<!DOCTYPE r [<!ELEMENT r EMPTY>]><r/>"));
            docs.push(format!("{filler}<?pi?><!-- c --><r/>{filler}<!-- tail -->"));
            for doc in docs {
                let expected = Reader::new(&doc).collect_events().unwrap();
                for chunk in [usize::MAX, 1] {
                    let got = stream(doc.as_bytes(), window, chunk).unwrap();
                    assert_eq!(got, expected, "{doc:?} window {window} chunk {chunk}");
                }
            }
        }
    }
}
