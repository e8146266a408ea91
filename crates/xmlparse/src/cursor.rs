//! A byte-oriented cursor over the input with lazy position tracking.
//!
//! This is the scanning core of the zero-copy fast path (DESIGN §6.8).
//! Delimiter searches (`<`, `>`, `&`, quotes) run word-at-a-time with
//! SWAR (SIMD-within-a-register) loops over `usize` words, and
//! name/whitespace classification is a 256-entry table lookup, so the
//! tokenizer only decodes full `char`s on cold paths (error reporting,
//! the legacy `char` helpers). All scanning is safe code: words are read
//! through `chunks_exact` + `from_ne_bytes`, which the compiler lowers
//! to single loads.
//!
//! The cursor tracks a byte offset only. The tokenizer notes where each
//! construct began as an offset and turns one into a line/column
//! [`Position`] only when it builds an error, so a document that parses
//! never has its newlines counted. Successive position queries scan on
//! from a cached checkpoint, amortized O(n) over the whole input.

use std::cell::Cell;

use crate::error::{ErrorKind, Position, XmlError};

const WORD: usize = std::mem::size_of::<usize>();
/// 0x0101..01 — one in every byte lane.
const LO: usize = usize::from_ne_bytes([0x01; WORD]);
/// 0x8080..80 — the high bit of every byte lane.
const HI: usize = usize::from_ne_bytes([0x80; WORD]);

/// Broadcasts `b` into every byte lane of a word.
#[inline]
fn splat(b: u8) -> usize {
    usize::from_ne_bytes([b; WORD])
}

/// Whether any byte lane of `w` is zero (the classic
/// `(w - 0x01..) & !w & 0x80..` trick). May not identify *which* lane on
/// its own — callers re-scan the eight bytes to locate the hit, which
/// keeps the test endian-agnostic and free of borrow-propagation false
/// positives.
#[inline]
fn any_zero_byte(w: usize) -> bool {
    w.wrapping_sub(LO) & !w & HI != 0
}

/// Finds the first occurrence of `b` in `hay` (a SWAR `memchr`).
#[inline]
pub fn find_byte(hay: &[u8], b: u8) -> Option<usize> {
    let sb = splat(b);
    let mut chunks = hay.chunks_exact(WORD);
    let mut base = 0;
    for chunk in &mut chunks {
        let w = usize::from_ne_bytes(chunk.try_into().expect("chunk is WORD bytes"));
        if any_zero_byte(w ^ sb) {
            for (j, &c) in chunk.iter().enumerate() {
                if c == b {
                    return Some(base + j);
                }
            }
        }
        base += WORD;
    }
    chunks.remainder().iter().position(|&c| c == b).map(|j| base + j)
}

/// Finds the first occurrence of `b1`, `b2` or `b3` in `hay`.
#[inline]
pub fn find_byte3(hay: &[u8], b1: u8, b2: u8, b3: u8) -> Option<usize> {
    let s1 = splat(b1);
    let s2 = splat(b2);
    let s3 = splat(b3);
    let mut chunks = hay.chunks_exact(WORD);
    let mut base = 0;
    for chunk in &mut chunks {
        let w = usize::from_ne_bytes(chunk.try_into().expect("chunk is WORD bytes"));
        if any_zero_byte(w ^ s1) || any_zero_byte(w ^ s2) || any_zero_byte(w ^ s3) {
            for (j, &c) in chunk.iter().enumerate() {
                if c == b1 || c == b2 || c == b3 {
                    return Some(base + j);
                }
            }
        }
        base += WORD;
    }
    chunks
        .remainder()
        .iter()
        .position(|&c| c == b1 || c == b2 || c == b3)
        .map(|j| base + j)
}

/// 256-entry class tables. Non-ASCII lead and continuation bytes
/// (`0x80..=0xFF`) are name bytes, mirroring the simplified XML 1.0
/// name productions in [`crate::qname`]: every non-ASCII `char` is a
/// name character, so every byte of its UTF-8 encoding can be consumed
/// without decoding. Because the tokenizer only ever *stops* on ASCII
/// bytes, byte-table scans always cut the input at `char` boundaries.
const fn build_tables() -> ([bool; 256], [bool; 256], [bool; 256]) {
    let mut ws = [false; 256];
    let mut name_start = [false; 256];
    let mut name = [false; 256];
    let mut b = 0usize;
    while b < 256 {
        let c = b as u8;
        ws[b] = matches!(c, b' ' | b'\t' | b'\r' | b'\n');
        name_start[b] =
            c.is_ascii_alphabetic() || c == b'_' || c == b':' || c >= 0x80;
        name[b] = name_start[b] || c.is_ascii_digit() || c == b'-' || c == b'.';
        b += 1;
    }
    (ws, name_start, name)
}

const TABLES: ([bool; 256], [bool; 256], [bool; 256]) = build_tables();
/// XML whitespace bytes (space, tab, CR, LF).
pub(crate) const WS_BYTE: [bool; 256] = TABLES.0;
/// Bytes that may start an XML name.
pub(crate) const NAME_START_BYTE: [bool; 256] = TABLES.1;
/// Bytes that may continue an XML name.
pub(crate) const NAME_BYTE: [bool; 256] = TABLES.2;

/// A forward-only cursor over a `&str` input.
///
/// The cursor maintains only a byte offset on the hot path; line/column
/// positions are derived on demand from a cached scan checkpoint. The
/// offset always sits on a `char` boundary: byte-level consumers only
/// stop at ASCII delimiters, and the `char` helpers advance by whole
/// encoded characters.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    input: &'a str,
    offset: usize,
    /// Lazy line/column checkpoint: (offset scanned to, line at that
    /// offset, byte offset where that line starts).
    mark: Cell<(usize, u32, usize)>,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Cursor { input, offset: 0, mark: Cell::new((0, 1, 0)) }
    }

    /// The current position (next byte to be read). Line and column are
    /// computed lazily; columns count bytes, as documented on
    /// [`Position`].
    pub fn position(&self) -> Position {
        self.position_at(self.offset)
    }

    /// The position of byte `offset` (at most the input's length): what
    /// an error about a construct that began there reports. The
    /// tokenizer keeps plain offsets and asks this only when it builds
    /// an error.
    pub(crate) fn position_at(&self, offset: usize) -> Position {
        let (mut scanned, mut line, mut line_start) = self.mark.get();
        if offset < scanned {
            // Behind the checkpoint (an earlier construct, or a cloned
            // cursor that rewound): count from the start.
            scanned = 0;
            line = 1;
            line_start = 0;
        }
        for (i, &b) in self.input.as_bytes()[scanned..offset].iter().enumerate() {
            if b == b'\n' {
                line += 1;
                line_start = scanned + i + 1;
            }
        }
        self.mark.set((offset, line, line_start));
        Position { offset, line, column: (offset - line_start + 1) as u32 }
    }

    /// Whether the entire input has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.offset >= self.input.len()
    }

    /// The current 0-based byte offset into the input.
    #[inline]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The unconsumed remainder of the input.
    pub fn rest(&self) -> &'a str {
        &self.input[self.offset..]
    }

    /// The unconsumed remainder as raw bytes.
    #[inline]
    pub fn rest_bytes(&self) -> &'a [u8] {
        &self.input.as_bytes()[self.offset..]
    }

    /// Peeks at the next byte without consuming it.
    #[inline]
    pub fn peek_byte(&self) -> Option<u8> {
        self.input.as_bytes().get(self.offset).copied()
    }

    /// Peeks at the next character without consuming it.
    pub fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    /// Advances the cursor by `n` bytes. The caller must ensure the new
    /// offset is a `char` boundary (true whenever `n` comes from a scan
    /// that stopped at an ASCII byte or the end of input).
    #[inline]
    pub fn advance(&mut self, n: usize) {
        debug_assert!(self.input.is_char_boundary(self.offset + n));
        self.offset += n;
    }

    /// Consumes and returns the next character.
    pub fn bump(&mut self) -> Option<char> {
        let ch = self.peek()?;
        self.offset += ch.len_utf8();
        Some(ch)
    }

    /// If the remaining input starts with `literal`, consumes it and
    /// returns `true`.
    #[inline]
    pub fn eat(&mut self, literal: &str) -> bool {
        if self.rest_bytes().starts_with(literal.as_bytes()) {
            self.offset += literal.len();
            true
        } else {
            false
        }
    }

    /// Requires that the remaining input starts with `literal` and
    /// consumes it.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::UnexpectedChar`] (or `UnexpectedEof`) naming
    /// `expecting` when the literal is absent.
    pub fn expect(&mut self, literal: &str, expecting: &'static str) -> Result<(), XmlError> {
        if self.eat(literal) {
            Ok(())
        } else {
            match self.peek() {
                Some(found) => Err(XmlError::new(
                    ErrorKind::UnexpectedChar { found, expecting },
                    self.position(),
                )),
                None => {
                    Err(XmlError::new(ErrorKind::UnexpectedEof { expecting }, self.position()))
                }
            }
        }
    }

    /// Consumes characters while `pred` holds and returns the consumed
    /// slice (possibly empty). This is the legacy `char` path; the
    /// tokenizer itself uses the byte-table scanners below.
    pub fn take_while(&mut self, mut pred: impl FnMut(char) -> bool) -> &'a str {
        let start = self.offset;
        while let Some(ch) = self.peek() {
            if !pred(ch) {
                break;
            }
            self.offset += ch.len_utf8();
        }
        &self.input[start..self.offset]
    }

    /// Consumes bytes while `table` classifies them as in-class and
    /// returns the consumed slice. The table must only admit runs that
    /// end at `char` boundaries (true for the name and whitespace tables,
    /// which either reject or accept all non-ASCII bytes uniformly).
    #[inline]
    pub(crate) fn take_class(&mut self, table: &[bool; 256]) -> &'a str {
        let start = self.offset;
        let bytes = self.input.as_bytes();
        let mut i = self.offset;
        while i < bytes.len() && table[bytes[i] as usize] {
            i += 1;
        }
        self.offset = i;
        &self.input[start..i]
    }

    /// Consumes XML whitespace (space, tab, CR, LF) and returns whether
    /// any was present.
    #[inline]
    pub fn skip_whitespace(&mut self) -> bool {
        !self.take_class(&WS_BYTE).is_empty()
    }

    /// Scans forward to the first occurrence of `delim` (using the SWAR
    /// byte search for its first byte), consumes up to and including it,
    /// and returns the slice before it.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::UnexpectedEof`] naming `expecting` if `delim`
    /// never occurs.
    pub fn take_until(
        &mut self,
        delim: &str,
        expecting: &'static str,
    ) -> Result<&'a str, XmlError> {
        debug_assert!(!delim.is_empty());
        let start = self.offset;
        let first = delim.as_bytes()[0];
        let mut search = start;
        loop {
            let hay = &self.input.as_bytes()[search..];
            match find_byte(hay, first) {
                Some(rel) => {
                    let at = search + rel;
                    if self.input.as_bytes()[at..].starts_with(delim.as_bytes()) {
                        self.offset = at + delim.len();
                        return Ok(&self.input[start..at]);
                    }
                    search = at + 1;
                }
                None => {
                    return Err(XmlError::new(
                        ErrorKind::UnexpectedEof { expecting },
                        self.position(),
                    ))
                }
            }
        }
    }
}

/// Whether `ch` is whitespace per XML 1.0 §2.3.
pub fn is_xml_whitespace(ch: char) -> bool {
    matches!(ch, ' ' | '\t' | '\r' | '\n')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_tracks_lines_and_columns() {
        let mut c = Cursor::new("ab\ncd");
        assert_eq!(c.bump(), Some('a'));
        assert_eq!(c.position().column, 2);
        c.bump();
        c.bump(); // newline
        let p = c.position();
        assert_eq!((p.line, p.column), (2, 1));
        assert_eq!(c.bump(), Some('c'));
        assert_eq!(c.position().column, 2);
    }

    #[test]
    fn eat_only_consumes_on_match() {
        let mut c = Cursor::new("<?xml");
        assert!(!c.eat("<!"));
        assert_eq!(c.position().offset, 0);
        assert!(c.eat("<?"));
        assert_eq!(c.rest(), "xml");
    }

    #[test]
    fn take_until_returns_prefix_and_eats_delimiter() {
        let mut c = Cursor::new("hello-->rest");
        let got = c.take_until("-->", "comment close").unwrap();
        assert_eq!(got, "hello");
        assert_eq!(c.rest(), "rest");
    }

    #[test]
    fn take_until_skips_partial_delimiter_matches() {
        let mut c = Cursor::new("a--b-->rest");
        let got = c.take_until("-->", "comment close").unwrap();
        assert_eq!(got, "a--b");
        assert_eq!(c.rest(), "rest");
    }

    #[test]
    fn take_until_missing_delimiter_is_eof_error() {
        let mut c = Cursor::new("hello");
        let err = c.take_until("-->", "comment close").unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::UnexpectedEof { .. }));
    }

    #[test]
    fn take_while_stops_at_predicate_boundary() {
        let mut c = Cursor::new("abc123");
        assert_eq!(c.take_while(|ch| ch.is_ascii_alphabetic()), "abc");
        assert_eq!(c.rest(), "123");
    }

    #[test]
    fn skip_whitespace_reports_presence() {
        let mut c = Cursor::new("  x");
        assert!(c.skip_whitespace());
        assert!(!c.skip_whitespace());
        assert_eq!(c.peek(), Some('x'));
    }

    #[test]
    fn multibyte_characters_advance_by_full_width() {
        let mut c = Cursor::new("é<");
        assert_eq!(c.bump(), Some('é'));
        assert_eq!(c.peek(), Some('<'));
        assert_eq!(c.position().offset, 'é'.len_utf8());
    }

    #[test]
    fn find_byte_agrees_with_naive_search() {
        // Exercise every alignment and placement across word boundaries.
        for len in 0..40usize {
            let mut hay = vec![b'x'; len];
            assert_eq!(find_byte(&hay, b'<'), None, "len {len}");
            for at in 0..len {
                hay[at] = b'<';
                assert_eq!(find_byte(&hay, b'<'), Some(at), "len {len} at {at}");
                assert_eq!(find_byte3(&hay, b'&', b'"', b'<'), Some(at));
                hay[at] = b'x';
            }
        }
    }

    #[test]
    fn find_byte_reports_first_of_multiple_hits() {
        let hay = b"aaaaaaaaaa<bb<cc";
        assert_eq!(find_byte(hay, b'<'), Some(10));
        assert_eq!(find_byte3(hay, b'c', b'b', b'<'), Some(10));
    }

    #[test]
    fn class_tables_match_char_predicates() {
        use crate::qname::{is_name_char, is_name_start_char};
        for b in 0u8..128 {
            let ch = b as char;
            assert_eq!(WS_BYTE[b as usize], is_xml_whitespace(ch), "ws {b:#x}");
            assert_eq!(NAME_START_BYTE[b as usize], is_name_start_char(ch), "start {b:#x}");
            assert_eq!(NAME_BYTE[b as usize], is_name_char(ch), "name {b:#x}");
        }
        for b in 128u16..256 {
            assert!(NAME_START_BYTE[b as usize] && NAME_BYTE[b as usize]);
            assert!(!WS_BYTE[b as usize]);
        }
    }

    #[test]
    fn position_is_lazy_but_correct_after_bulk_advances() {
        let mut c = Cursor::new("line1\nline2\nrest");
        let n = c.rest_bytes().len();
        c.advance(n - 4);
        let p = c.position();
        assert_eq!((p.line, p.column), (3, 1));
        // Monotonic re-query from the checkpoint.
        c.advance(2);
        assert_eq!(c.position().column, 3);
    }

    #[test]
    fn take_class_consumes_name_runs() {
        let mut c = Cursor::new("név-1.x=\"v\"");
        let name = c.take_class(&NAME_BYTE);
        assert_eq!(name, "név-1.x");
        assert_eq!(c.peek_byte(), Some(b'='));
    }
}
