//! A fuzz-style differential for the one tokenizer that takes untrusted
//! bytes, committed and deterministic: fixed seed, fixed iteration
//! count, no environment.
//!
//! Each iteration takes a document from the corpus (`schemas/*.xsd` and
//! a list of malformed ones) and mutates it — byte flips, deletions,
//! splices from another document, truncation, inserted markup openers
//! and closers. Two properties are held over the mutants:
//!
//! * **Streamed == in memory.** While the mutant is UTF-8 the in-memory
//!   [`Reader`] and the [`StreamingReader`] (random small window, random
//!   chunking) must agree on the events or on the kind of error; when it
//!   is not, the streaming reader alone takes it and must end in events
//!   or an [`XmlError`], never a panic or a hang.
//! * **Skipped == pulled.** At every start tag of every corpus document
//!   and every UTF-8 mutant, [`Reader::skip_element`] and pulling events
//!   to the matching end tag must leave the reader at the same offset or
//!   fail with the same error kind and position. Every error either way
//!   must sit at the line and column a plain newline count gives for its
//!   offset: the reader builds positions from offsets only when it
//!   reports an error, and this is what that must preserve.

use std::io::Read;

use xmlparse::{BorrowedEvent, Event, Position, Reader, StreamingReader, XmlError};

const SEED: u64 = 0x5eed_5eed_0b5e_55ed;
const ITERATIONS: usize = 40_000;

const MALFORMED: &[&str] = &[
    "",
    "   ",
    "<a>",
    "<a><b></a></b>",
    "<a/></b>",
    "<a/><b/>",
    "<a x=\"1\" x=\"2\"/>",
    "<a>oops ]]> here</a>",
    "<a x=\"1<2\"/>",
    "<a x=\"1>2\">gt in attr</a>",
    "junk<a/>",
    "<a/>junk",
    "<1a/>",
    "<a>t<!-- never closed",
    "<a>t<![CDATA[x",
    "<a>t<b x=\"1",
    "<!-",
    "<",
    "<a>&unknown;</a>",
    "<![CDATA[x]]>",
    "<?xml version=\"1.0?>\"?><a/>",
    "<!DOCTYPE note [<!ELEMENT note (#PCDATA)>]><note/>",
    "<h\u{e9}llo attr-\u{fc}=\"w\u{f6}rld\">\u{4e2d}\u{1d11e} &#xe9;</h\u{e9}llo>",
];

const TOKENS: &[&str] = &[
    "<", ">", "</", "/>", "<!--", "-->", "<![CDATA[", "]]>", "<!DOCTYPE", "<?", "?>", "<?xml ",
    "&", "&amp;", "\"", "'", "=", "[", "]", " ", "\n", "\u{e9}", "\u{4e2d}", "\u{1d11e}",
];

/// SplitMix64: a few lines, good enough to pick offsets.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound` > 0).
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

fn corpus() -> Vec<Vec<u8>> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../schemas");
    let mut paths: Vec<_> =
        std::fs::read_dir(dir).unwrap().map(|entry| entry.unwrap().path()).collect();
    paths.sort();
    assert!(!paths.is_empty(), "schemas/ lost its fixtures");
    let mut docs: Vec<Vec<u8>> = paths.iter().map(|path| std::fs::read(path).unwrap()).collect();
    docs.extend(MALFORMED.iter().map(|doc| doc.as_bytes().to_vec()));
    docs
}

fn mutate(doc: &mut Vec<u8>, corpus: &[Vec<u8>], rng: &mut Rng) {
    let at = rng.below(doc.len() + 1);
    match rng.below(6) {
        // Flip: to a printable byte (stays UTF-8 when it lands on ASCII)
        // or to any byte at all.
        0 if at < doc.len() => doc[at] = b' ' + rng.below(95) as u8,
        1 if at < doc.len() => doc[at] = rng.below(256) as u8,
        2 if at < doc.len() => {
            let end = (at + 1 + rng.below(8)).min(doc.len());
            doc.drain(at..end);
        }
        3 => {
            let donor = &corpus[rng.below(corpus.len())];
            let from = rng.below(donor.len() + 1);
            let to = (from + rng.below(40)).min(donor.len());
            doc.splice(at..at, donor[from..to].iter().copied());
        }
        4 => doc.truncate(at),
        _ => {
            let token = TOKENS[rng.below(TOKENS.len())];
            doc.splice(at..at, token.bytes());
        }
    }
}

/// Hands out `chunk` bytes at a time.
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

fn describe(outcome: &Result<Vec<Event>, XmlError>) -> String {
    match outcome {
        Ok(events) => format!("{} events", events.len()),
        Err(err) => format!("{err:?}"),
    }
}

/// One seeded mutant and the streaming schedule it is read with.
struct Case {
    iteration: usize,
    doc: Vec<u8>,
    window: usize,
    chunk: usize,
}

/// The `ITERATIONS` seeded mutants, always the same ones.
fn cases(corpus: &[Vec<u8>]) -> impl Iterator<Item = Case> + '_ {
    let mut rng = Rng(SEED);
    (0..ITERATIONS).map(move |iteration| {
        let mut doc = corpus[rng.below(corpus.len())].clone();
        for _ in 0..1 + rng.below(3) {
            mutate(&mut doc, corpus, &mut rng);
        }
        let window = 16 + rng.below(65);
        let chunk = 1 + rng.below(13);
        Case { iteration, doc, window, chunk }
    })
}

#[test]
fn mutants_parse_the_same_streamed_and_in_memory() {
    let corpus = corpus();
    let (mut compared, mut streamed_alone) = (0, 0);
    for Case { iteration, doc, window, chunk } in cases(&corpus) {
        let streamed =
            StreamingReader::with_window(Chunked { data: &doc, chunk }, window).collect_events();
        let Ok(text) = std::str::from_utf8(&doc) else {
            // Ending at all, in events or an error, is the property.
            streamed_alone += 1;
            continue;
        };
        compared += 1;
        let in_memory = Reader::new(text).collect_events();
        let agree = match (&streamed, &in_memory) {
            (Ok(a), Ok(b)) => a == b,
            (Err(a), Err(b)) => std::mem::discriminant(a.kind()) == std::mem::discriminant(b.kind()),
            _ => false,
        };
        assert!(
            agree,
            "iteration {iteration}, window {window}, chunk {chunk}, on {text:?}:\n  streamed:  {}\n  in memory: {}",
            describe(&streamed),
            describe(&in_memory),
        );
    }
    // The mutations must keep exercising both arms.
    assert!(compared > ITERATIONS / 2, "only {compared} mutants were UTF-8");
    assert!(streamed_alone > ITERATIONS / 20, "only {streamed_alone} mutants were not UTF-8");
}

#[test]
fn skipping_an_element_matches_pulling_its_events() {
    let corpus = corpus();
    let (mut starts, mut skips_failed) = (0, 0);
    let documents = corpus.iter().cloned().chain(cases(&corpus).map(|case| case.doc));
    for doc in documents {
        let Ok(text) = std::str::from_utf8(&doc) else { continue };
        let (tags, failed) = skip_at_every_start_tag(text);
        starts += tags;
        skips_failed += failed;
    }
    // Both outcomes must be exercised, and often.
    assert!(starts > ITERATIONS / 2, "only {starts} start tags were skipped");
    assert!(skips_failed > ITERATIONS / 8, "only {skips_failed} skips met an error");
}

/// Walks `text` with a [`Reader`]; at each start tag one copy of the
/// reader skips the element and another pulls its events to the matching
/// end tag, and the two must agree. Returns how many start tags were
/// tried and at how many of them the element was malformed.
fn skip_at_every_start_tag(text: &str) -> (usize, usize) {
    let mut reader = Reader::new(text);
    let (mut starts, mut failed) = (0, 0);
    loop {
        match reader.next_borrowed() {
            Ok(BorrowedEvent::StartElement { .. }) => {}
            Ok(BorrowedEvent::Eof) => return (starts, failed),
            Ok(_) => continue,
            Err(err) => {
                assert_counted(text, &err);
                return (starts, failed);
            }
        }
        starts += 1;
        let (mut skipped, mut pulled) = (reader.clone(), reader.clone());
        let skip = skipped.skip_element().map(|()| skipped.offset());
        let pull = pull_element(&mut pulled).map(|()| pulled.offset());
        assert_eq!(skip, pull, "skip vs pull at start tag {starts} of {text:?}");
        if let Err(err) = &skip {
            assert_counted(text, err);
            failed += 1;
        }
    }
}

/// Pulls events through the end tag of the element just opened.
fn pull_element(reader: &mut Reader<'_>) -> Result<(), XmlError> {
    let mut depth = 1;
    while depth > 0 {
        match reader.next_borrowed()? {
            BorrowedEvent::StartElement { .. } => depth += 1,
            BorrowedEvent::EndElement { .. } => depth -= 1,
            BorrowedEvent::Eof => panic!("end of document with an element open"),
            _ => {}
        }
    }
    Ok(())
}

/// `err`'s position is the line and column of its offset in `text`, as
/// counting newlines from the start gives them.
fn assert_counted(text: &str, err: &XmlError) {
    let offset = err.position().offset;
    let before = &text.as_bytes()[..offset];
    let line_start = before.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let counted = Position {
        offset,
        line: 1 + before.iter().filter(|&&b| b == b'\n').count() as u32,
        column: (offset - line_start + 1) as u32,
    };
    assert_eq!(err.position(), counted, "{err} in {text:?}");
}
