//! Bounded-memory streaming parse over any [`Read`] source.
//!
//! A [`StreamingReader`] runs the in-memory [`Reader`](crate::Reader)'s
//! construct scanner over a refill window (default 128 KiB) instead of
//! over the whole document. Peak memory is bounded by the window, or by
//! the largest single construct plus the markup up to the next `>` if
//! that is larger — independent of document size. A construct larger
//! than the window (a megabyte comment, say) grows the buffer to hold
//! that one construct and the buffer stays at the high-water mark
//! thereafter; schema documents, whose constructs are tags and short
//! text runs, stream at the configured window. Growth is not unbounded:
//! a hard cap (default [`DEFAULT_MAX_WINDOW`], configurable via
//! [`StreamingReader::with_limits`]) turns a construct that would
//! outgrow it into a clean [`ErrorKind::ConstructTooLarge`] parse error
//! instead of letting a hostile or corrupt source run the process out
//! of memory one doubling at a time.
//!
//! Three rules make a window parse exactly as the whole document would:
//!
//! * **Validated text.** Each refill validates the window as UTF-8
//!   once; events are sliced out of that `String`, never re-checked. A
//!   sequence the refill cut in two (at most 3 bytes) waits as bytes for
//!   the next one. Bytes that can never be valid end the text for good
//!   and are reported as [`ErrorKind::InvalidUtf8`] only when the scan
//!   gets to them, so an error earlier in the document is reported
//!   first.
//! * **Safe cut.** While more input may follow, a scan sees the window
//!   only up to its last `>`. No proper prefix of a markup opener or
//!   closer (`<!-`, `<![CDA`, `<?xm`, `/`, `?`, …) ends in `>`, so the
//!   scanner never mistakes a token the refill split for a malformed
//!   one: short of its `>` it can only run out of input.
//! * **Retry with more input.** [`ErrorKind::UnexpectedEof`] from such
//!   a scan, or a character-data run that reaches the cut (it has no
//!   terminator of its own), means the construct continues in the
//!   unread input: the window is refilled — doubled, up to the cap, if
//!   it was already full — and that one construct is scanned again.
//!
//! Events are owned [`Event`]s (the window shifts under them, so they
//! cannot borrow). Error *kinds* are identical to the in-memory
//! [`Reader`](crate::Reader)'s on every input and every chunk schedule —
//! pinned by `tests/proptest_index.rs` — while error positions are
//! window-relative (the reader does not retain consumed windows).

use std::io::Read;

use crate::cursor::Cursor;
use crate::error::{ErrorKind, Position, XmlError};
use crate::reader::{finish_text, scan_construct, BorrowedEvent, Construct, Event};

/// Default refill window: large enough that tag-dense documents spend
/// their time parsing rather than shifting carry bytes, small enough
/// that a metadata server can stream many documents concurrently.
pub const DEFAULT_WINDOW: usize = 128 * 1024;

/// Smallest permitted window. Tiny windows are only useful to tests
/// (they force carryover on every construct), but they must still make
/// progress on a multi-byte opener like `<![CDATA[`.
const MIN_WINDOW: usize = 16;

/// Default hard cap on window growth: 64 MiB, matching the largest
/// record the archive layer will ever hand a parser. A single tag,
/// comment or text run past this size is almost certainly a corrupt
/// length or an adversarial stream, not metadata.
pub const DEFAULT_MAX_WINDOW: usize = 64 * 1024 * 1024;

/// A pull parser over an incremental byte source with bounded peak
/// memory.
///
/// ```
/// use xmlparse::{Event, StreamingReader};
/// # fn main() -> Result<(), xmlparse::XmlError> {
/// let doc = b"<greeting kind=\"warm\">hello</greeting>";
/// let mut r = StreamingReader::new(&doc[..]);
/// assert!(matches!(r.next_event()?, Event::StartElement { name, .. } if name == "greeting"));
/// assert!(matches!(r.next_event()?, Event::Text(t) if t == "hello"));
/// assert!(matches!(r.next_event()?, Event::EndElement { name } if name == "greeting"));
/// assert!(matches!(r.next_event()?, Event::Eof));
/// # Ok(())
/// # }
/// ```
pub struct StreamingReader<R> {
    source: R,
    /// The window's validated text; `text[..consumed]` has been parsed.
    text: String,
    consumed: usize,
    /// How far a scan may look: all of `text` once it ends where the
    /// document does, until then just past its last `>`.
    limit: usize,
    /// Bytes read after `text` that are not valid UTF-8 yet: a sequence
    /// the next refill completes, or, once `bad_utf8` is set, the byte
    /// nothing can follow.
    tail: Vec<u8>,
    bad_utf8: bool,
    /// Refill target (exceeded only while one construct outsizes it).
    window: usize,
    /// Hard ceiling on window growth; exceeding it is a parse error.
    max_window: usize,
    /// The largest the window has been.
    high_water: usize,
    /// The source is exhausted: the window holds the document's tail.
    eof: bool,
    open: Vec<Box<str>>,
    /// A self-closing tag queued its synthetic end event (the name is
    /// the top of `open`).
    pending_end: bool,
    seen_root: bool,
    root_closed: bool,
    produced_first: bool,
    done: bool,
}

impl<R: Read> StreamingReader<R> {
    /// Streams `source` with the default 128 KiB window.
    pub fn new(source: R) -> Self {
        StreamingReader::with_window(source, DEFAULT_WINDOW)
    }

    /// Streams `source` with an explicit refill window (clamped to a
    /// small minimum) and the default growth cap. Peak buffer memory is
    /// `max(window, largest construct through the next '>')`, capped at
    /// [`DEFAULT_MAX_WINDOW`].
    pub fn with_window(source: R, window: usize) -> Self {
        StreamingReader::with_limits(source, window, DEFAULT_MAX_WINDOW)
    }

    /// Streams `source` with an explicit refill window and an explicit
    /// hard cap on window growth. A single construct that cannot be held
    /// in `max_window` bytes fails the parse with
    /// [`ErrorKind::ConstructTooLarge`] rather than growing the buffer
    /// further — the memory bound a server enforces per untrusted
    /// stream. `max_window` is clamped up to `window` so the reader can
    /// always hold at least one full refill.
    pub fn with_limits(source: R, window: usize, max_window: usize) -> Self {
        let window = window.max(MIN_WINDOW);
        StreamingReader {
            source,
            text: String::new(),
            consumed: 0,
            limit: 0,
            tail: Vec::new(),
            bad_utf8: false,
            window,
            max_window: max_window.max(window),
            high_water: window,
            eof: false,
            open: Vec::new(),
            pending_end: false,
            seen_root: false,
            root_closed: false,
            produced_first: false,
            done: false,
        }
    }

    /// The current window capacity in bytes (grows past the configured
    /// window only if a single construct exceeded it).
    pub fn window_capacity(&self) -> usize {
        self.high_water
    }

    /// Parses and returns the next event. After [`Event::Eof`] every
    /// further call returns `Eof` again.
    ///
    /// # Errors
    ///
    /// The same error kinds the in-memory reader reports, with
    /// window-relative positions; [`ErrorKind::InvalidUtf8`] for invalid
    /// input bytes; an [`ErrorKind::Custom`] error if the source fails.
    pub fn next_event(&mut self) -> Result<Event, XmlError> {
        if self.done {
            return Ok(Event::Eof);
        }
        if self.pending_end {
            self.pending_end = false;
            let name = self.open.pop().expect("pending end without an open element");
            self.root_closed = self.open.is_empty();
            return Ok(Event::EndElement { name: name.into() });
        }
        loop {
            // The window ends where the document does: what a scan
            // finds there is final.
            let complete = self.eof && !self.bad_utf8;
            if self.consumed == self.limit {
                if complete {
                    return self.finish();
                }
                self.refill()?;
                continue;
            }
            let base = self.consumed;
            let mut cursor = Cursor::new(&self.text[base..self.limit]);
            let mut attrs = Vec::new();
            let scanned =
                scan_construct(&mut cursor, &mut attrs, !self.produced_first, self.open.is_empty());
            // Short of the document's end, running out of window is not
            // an answer: character data has no terminator of its own, so
            // a run that reaches the cut may go on, and so may whatever
            // the scanner was in the middle of.
            let ran_out = match &scanned {
                Ok(Construct::Text { .. }) => cursor.is_at_end(),
                Ok(_) => false,
                Err(err) => matches!(err.kind(), ErrorKind::UnexpectedEof { .. }),
            };
            if ran_out && !complete {
                self.refill()?;
                continue;
            }
            let construct = scanned.map_err(|err| self.rebase(err, base))?;
            self.produced_first = true;
            self.consumed = base + cursor.offset();
            return Ok(match construct {
                Construct::Whitespace => continue,
                Construct::XmlDecl(decl) => Event::XmlDecl(decl),
                Construct::Text { raw, at } => match finish_text(raw) {
                    Ok(text) => Event::Text(text.into_owned()),
                    Err(kind) => return Err(self.error_at(kind, base + at)),
                },
                Construct::Comment(body) => Event::Comment(body.to_owned()),
                Construct::CData(body) => Event::CData(body.to_owned()),
                Construct::Doctype(body) => Event::Doctype(body.to_owned()),
                Construct::Pi { target, data } => Event::ProcessingInstruction {
                    target: target.to_owned(),
                    data: data.to_owned(),
                },
                Construct::Start { name, self_closing } => {
                    if self.open.is_empty() {
                        if self.root_closed {
                            return Err(self.error_at(ErrorKind::ContentOutsideRoot, self.consumed));
                        }
                        self.seen_root = true;
                    }
                    self.open.push(name.into());
                    self.pending_end = self_closing;
                    BorrowedEvent::StartElement { name, attributes: &attrs }.to_owned_event()
                }
                Construct::End { name, .. } => match self.open.pop() {
                    Some(expected) if *expected == *name => {
                        self.root_closed = self.open.is_empty();
                        Event::EndElement { name: name.to_owned() }
                    }
                    Some(expected) => {
                        let kind = ErrorKind::MismatchedTag {
                            expected: expected.into(),
                            found: name.to_owned(),
                        };
                        return Err(self.error_at(kind, base));
                    }
                    None => {
                        let kind = ErrorKind::UnmatchedCloseTag { name: name.to_owned() };
                        return Err(self.error_at(kind, base));
                    }
                },
            });
        }
    }

    /// Runs the reader to completion, collecting all events (excluding
    /// the final [`Event::Eof`]).
    ///
    /// # Errors
    ///
    /// Propagates the first parse error.
    pub fn collect_events(mut self) -> Result<Vec<Event>, XmlError> {
        let mut events = Vec::new();
        loop {
            match self.next_event()? {
                Event::Eof => return Ok(events),
                event => events.push(event),
            }
        }
    }

    /// Fetches more input for a scan that ran out of window: shifts out
    /// the parsed bytes, tops the window up from the source — doubled,
    /// up to the cap, if it was already full — and validates it.
    fn refill(&mut self) -> Result<(), XmlError> {
        if self.bad_utf8 {
            // The scan has reached the bytes no read can make valid.
            return Err(self.error_at(ErrorKind::InvalidUtf8, self.text.len()));
        }
        let carry = self.text.len() - self.consumed + self.tail.len();
        let mut target = self.window;
        if carry >= target {
            // A full window with nothing parseable in it: one construct
            // spans it whole, so grow — but never past the cap. A
            // construct the cap cannot hold is a parse error, not a
            // license to eat memory.
            target = carry.saturating_mul(2).min(self.max_window);
            if target <= carry {
                let kind = ErrorKind::ConstructTooLarge { limit: self.max_window };
                return Err(self.error_at(kind, self.text.len()));
            }
        }
        self.high_water = self.high_water.max(target);

        let mut bytes = std::mem::take(&mut self.text).into_bytes();
        bytes.drain(..self.consumed);
        bytes.append(&mut self.tail);
        self.consumed = 0;
        self.limit = 0;
        let want = target - bytes.len();
        bytes.reserve_exact(want);
        let got = (&mut self.source)
            .take(want as u64)
            .read_to_end(&mut bytes)
            .map_err(|e| {
                let pos = window_position(&bytes, bytes.len());
                XmlError::custom(format!("read error: {e}"), pos)
            })?;
        self.eof = got < want;

        match String::from_utf8(bytes) {
            Ok(text) => self.text = text,
            Err(e) => {
                let error = e.utf8_error();
                let mut bytes = e.into_bytes();
                self.tail = bytes.split_off(error.valid_up_to());
                // Invalid outright, or a sequence the end of input cut.
                self.bad_utf8 = error.error_len().is_some() || self.eof;
                self.text = String::from_utf8(bytes).expect("split at the end of the valid prefix");
            }
        }
        self.limit = if self.eof && !self.bad_utf8 {
            self.text.len()
        } else {
            self.text.rfind('>').map_or(0, |at| at + 1)
        };
        Ok(())
    }

    fn finish(&mut self) -> Result<Event, XmlError> {
        if let Some(name) = self.open.last() {
            let kind = ErrorKind::UnclosedElement { name: name.to_string() };
            return Err(self.error_at(kind, self.consumed));
        }
        if !self.seen_root {
            return Err(self.error_at(ErrorKind::NoRootElement, self.consumed));
        }
        self.done = true;
        Ok(Event::Eof)
    }

    fn error_at(&self, kind: ErrorKind, offset: usize) -> XmlError {
        XmlError::new(kind, window_position(self.text.as_bytes(), offset))
    }

    /// Re-bases an error whose position is relative to a scan that
    /// started at `base` onto window coordinates.
    fn rebase(&self, err: XmlError, base: usize) -> XmlError {
        self.error_at(err.kind().clone(), base + err.position().offset)
    }
}

/// A window-relative position: line/column computed over the current
/// window only (consumed windows are gone — that is the point of a
/// streaming reader). Only reached on error paths.
fn window_position(live: &[u8], offset: usize) -> Position {
    let upto = offset.min(live.len());
    let line = 1 + live[..upto].iter().filter(|&&b| b == b'\n').count() as u32;
    let line_start = live[..upto].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    Position { offset, line, column: (upto - line_start) as u32 + 1 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reader;

    /// A reader that returns at most `chunk` bytes per call, exercising
    /// short reads independently of the window size.
    struct Trickle<'a> {
        data: &'a [u8],
        at: usize,
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self
                .data
                .len()
                .saturating_sub(self.at)
                .min(self.chunk)
                .min(out.len());
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    fn agree(doc: &str, window: usize, chunk: usize) {
        let streamed = StreamingReader::with_window(
            Trickle {
                data: doc.as_bytes(),
                at: 0,
                chunk,
            },
            window,
        )
        .collect_events();
        let scanned = Reader::new(doc).collect_events();
        match (streamed, scanned) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "events differ on {doc:?} w={window} c={chunk}"),
            (Err(a), Err(b)) => assert_eq!(
                std::mem::discriminant(a.kind()),
                std::mem::discriminant(b.kind()),
                "error kinds differ on {doc:?} w={window} c={chunk}: {a:?} vs {b:?}"
            ),
            (a, b) => {
                panic!("outcomes differ on {doc:?} w={window} c={chunk}: {a:?} vs {b:?}")
            }
        }
    }

    #[test]
    fn agrees_with_the_scanning_reader_across_windows() {
        let docs = [
            "<a/>",
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><a x=\"1\" y='two &amp; three'>t</a>",
            "<?xml version=\"1.0?>\"?><a/>",
            "<!DOCTYPE note [<!ELEMENT note (#PCDATA)>]><note/>",
            "  <!-- head -->\n<a>pre<b>inner</b>post<![CDATA[1<2&3]]><?proc do it?></a>\n",
            "<h\u{e9}llo attr=\"w\u{f6}rld\">\u{fc}n\u{ef}code &#xe9;</h\u{e9}llo>",
            "<a x=\"1>2\">gt in attr</a>",
            "",
            "   ",
            "<a>",
            "<a><b></a></b>",
            "<a/><b/>",
            "<a x=\"1\" x=\"2\"/>",
            "<a>oops ]]> here</a>",
            "junk<a/>",
            "<a/>junk",
            "<a>t<!-- never closed",
            "<a>t<b x=\"1",
            "<a>&unknown;</a>",
            "<a><![CDATA[big ]] almost ]]>done</a>",
            "<?pi?><a/><?pi2 data?>",
            "<h\u{e9}llo attr-\u{fc}=\"w\u{f6}rld\">\u{fc}n\u{ef}code</h\u{e9}llo>",
            "<a/></b>",
            "<a x=\"1<2\"/>",
            "<1a/>",
            "<a>t<![CDATA[x",
            "<!-",
            "<",
            "<![CDATA[x]]>",
        ];
        for doc in docs {
            for window in [16, 23, 64, 4096] {
                for chunk in [1, 7, 4096] {
                    agree(doc, window, chunk);
                }
            }
        }
    }

    #[test]
    fn construct_larger_than_the_window_grows_the_buffer() {
        let big_text = "x".repeat(1000);
        let doc = format!("<a>{big_text}</a>");
        let mut r = StreamingReader::with_window(doc.as_bytes(), 16);
        assert!(matches!(r.next_event().unwrap(), Event::StartElement { .. }));
        assert!(matches!(r.next_event().unwrap(), Event::Text(t) if t == big_text));
        assert!(matches!(r.next_event().unwrap(), Event::EndElement { .. }));
        assert!(matches!(r.next_event().unwrap(), Event::Eof));
        assert!(r.window_capacity() >= 1000);
    }

    #[test]
    fn construct_at_the_cap_parses_and_one_past_it_errors() {
        // A comment must sit in the window whole before its closing
        // "-->" can be found, so the cap boundary is exact: a CAP-byte
        // comment parses under a CAP-byte cap, one byte more cannot.
        const CAP: usize = 64;
        let fits = format!("<!--{}--><a/>", "c".repeat(CAP - 7));
        let events = StreamingReader::with_limits(fits.as_bytes(), 16, CAP)
            .collect_events()
            .unwrap();
        assert!(matches!(&events[0], Event::Comment(body) if body.len() == CAP - 7));

        let over = format!("<!--{}--><a/>", "c".repeat(CAP - 6));
        let err = StreamingReader::with_limits(over.as_bytes(), 16, CAP)
            .collect_events()
            .unwrap_err();
        assert!(
            matches!(err.kind(), ErrorKind::ConstructTooLarge { limit: CAP }),
            "expected ConstructTooLarge at the cap, got {err:?}"
        );
    }

    #[test]
    fn the_cap_is_an_error_not_a_hang_on_an_endless_source() {
        // An adversarial source that streams an unterminated comment
        // forever must hit the cap and fail cleanly instead of growing
        // the buffer without bound (or spinning on zero progress).
        struct Endless;
        impl Read for Endless {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                out.fill(b'z');
                Ok(out.len())
            }
        }
        let mut r = StreamingReader::with_limits(
            std::io::Read::chain(&b"<!--"[..], Endless),
            16,
            1024,
        );
        let err = r.next_event().unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::ConstructTooLarge { limit: 1024 }));
        assert!(r.window_capacity() <= 1024, "grew past the cap: {}", r.window_capacity());
    }

    #[test]
    fn a_cap_below_the_window_is_clamped_up() {
        // max_window below window would make every refill an error;
        // the constructor clamps it so one full window always fits.
        let doc = "<a>some text that fits in one default window</a>";
        let events = StreamingReader::with_limits(doc.as_bytes(), 64, 1)
            .collect_events()
            .unwrap();
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn multibyte_utf8_survives_every_split() {
        // 2-, 3- and 4-byte sequences in names, text and attribute
        // values; byte-level trickle reads with tiny windows hit every
        // split point inside each sequence.
        let doc = "<\u{e9}\u{4e2d}\u{1d11e} a=\"\u{e9}\u{4e2d}\u{1d11e}\">\u{e9}\u{4e2d}\u{1d11e}<\u{e9}x/></\u{e9}\u{4e2d}\u{1d11e}>";
        for window in [16, 17, 18, 19, 33] {
            agree(doc, window, 1);
        }
    }

    #[test]
    fn invalid_utf8_is_reported() {
        let bytes: &[u8] = b"<a>\xffoops</a>";
        let mut r = StreamingReader::new(bytes);
        r.next_event().unwrap();
        let err = r.next_event().unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::InvalidUtf8));
    }

    #[test]
    fn eof_is_repeatable() {
        let mut r = StreamingReader::new(&b"<a/>"[..]);
        while !matches!(r.next_event().unwrap(), Event::Eof) {}
        assert!(matches!(r.next_event().unwrap(), Event::Eof));
    }

    #[test]
    fn large_document_streams_with_a_small_buffer() {
        let mut doc = String::from("<root>");
        for i in 0..2000 {
            doc.push_str(&format!("<item id=\"{i}\">value {i}</item>"));
        }
        doc.push_str("</root>");
        let mut r = StreamingReader::with_window(doc.as_bytes(), 256);
        let mut items = 0;
        loop {
            match r.next_event().unwrap() {
                Event::StartElement { name, .. } if name == "item" => items += 1,
                Event::Eof => break,
                _ => {}
            }
        }
        assert_eq!(items, 2000);
        assert!(
            r.window_capacity() <= 512,
            "buffer grew: {}",
            r.window_capacity()
        );
    }
}
