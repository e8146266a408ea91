//! The pull parser: a streaming [`Reader`] producing events.
//!
//! The reader has two faces over one tokenizer:
//!
//! * [`Reader::next_borrowed`] — the zero-copy fast path. It yields
//!   [`BorrowedEvent`]s whose names and content are `&str` slices of the
//!   input (or `Cow::Borrowed` when no entity expansion was needed), and
//!   start-tag attributes live in a vector pooled inside the reader and
//!   reused across calls. Steady-state markup and entity-free text parse
//!   with zero allocations per event.
//! * [`Reader::next_event`] — the owned adapter. It wraps the borrowed
//!   path and copies each event into an owned [`Event`], which is what
//!   pre-existing callers consume.
//!
//! Scanning is byte-oriented: delimiters are found with the SWAR word
//! loops in [`crate::cursor`] and names/whitespace via 256-entry byte
//! tables, so no `char` decoding happens on the hot path.

use std::borrow::Cow;

use crate::cursor::{
    find_byte, find_byte3, is_xml_whitespace, Cursor, NAME_BYTE, NAME_START_BYTE, WS_BYTE,
};
use crate::error::{ErrorKind, Position, XmlError};
use crate::escape::unescape_kind;

/// A single `name="value"` attribute as parsed from a start tag, with
/// owned storage.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// The attribute name exactly as written (possibly prefixed).
    pub name: String,
    /// The attribute value with entities resolved.
    pub value: String,
}

impl Attribute {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Self {
        Attribute { name: name.into(), value: value.into() }
    }
}

/// A `name="value"` attribute borrowing the input: the name is a slice
/// of the document and the value only owns storage when entity expansion
/// forced a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BorrowedAttr<'a> {
    /// The attribute name exactly as written (possibly prefixed).
    pub name: &'a str,
    /// The attribute value with entities resolved; borrowed when the
    /// raw value contained no references.
    pub value: Cow<'a, str>,
}

/// The `<?xml ...?>` declaration, if the document has one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlDecl {
    /// The `version` pseudo-attribute (usually `"1.0"`).
    pub version: String,
    /// The `encoding` pseudo-attribute, if present.
    pub encoding: Option<String>,
    /// The `standalone` pseudo-attribute, if present.
    pub standalone: Option<String>,
}

/// A parse event produced by [`Reader::next_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The XML declaration. Emitted at most once, first.
    XmlDecl(XmlDecl),
    /// `<name attr="v" ...>`; for an empty-element tag (`<name/>`) this is
    /// immediately followed by a matching [`Event::EndElement`].
    StartElement {
        /// Element name as written.
        name: String,
        /// Attributes in document order.
        attributes: Vec<Attribute>,
    },
    /// `</name>` (or the synthetic end of an empty-element tag).
    EndElement {
        /// Element name as written.
        name: String,
    },
    /// Character data with entities resolved. Whitespace-only runs are
    /// still reported; tree construction decides what to keep.
    Text(String),
    /// A `<![CDATA[...]]>` section, verbatim.
    CData(String),
    /// A `<!-- ... -->` comment, verbatim (without delimiters).
    Comment(String),
    /// A `<?target data?>` processing instruction.
    ProcessingInstruction {
        /// The PI target.
        target: String,
        /// Everything between the target and `?>`, trimmed of one leading
        /// space.
        data: String,
    },
    /// A `<!DOCTYPE ...>` declaration; the raw body is preserved but not
    /// interpreted (this is a non-validating processor).
    Doctype(String),
    /// End of input after the root element closed.
    Eof,
}

/// A parse event produced by [`Reader::next_borrowed`]: the zero-copy
/// sibling of [`Event`]. Lifetime `'a` is the input document; `'r` is
/// the reader borrow (attribute slices live in the reader's pooled
/// vector and are only valid until the next event is pulled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BorrowedEvent<'r, 'a> {
    /// The XML declaration. Emitted at most once, first.
    XmlDecl(XmlDecl),
    /// `<name attr="v" ...>`; for an empty-element tag (`<name/>`) this is
    /// immediately followed by a matching [`BorrowedEvent::EndElement`].
    StartElement {
        /// Element name as written — a slice of the input.
        name: &'a str,
        /// Attributes in document order, pooled in the reader.
        attributes: &'r [BorrowedAttr<'a>],
    },
    /// `</name>` (or the synthetic end of an empty-element tag).
    EndElement {
        /// Element name as written — a slice of the input.
        name: &'a str,
    },
    /// Character data with entities resolved; borrowed from the input
    /// when no entity expansion was needed.
    Text(Cow<'a, str>),
    /// A `<![CDATA[...]]>` section, verbatim.
    CData(&'a str),
    /// A `<!-- ... -->` comment, verbatim (without delimiters).
    Comment(&'a str),
    /// A `<?target data?>` processing instruction.
    ProcessingInstruction {
        /// The PI target.
        target: &'a str,
        /// Everything between the target and `?>`, trimmed of one leading
        /// space.
        data: &'a str,
    },
    /// A `<!DOCTYPE ...>` declaration, raw and uninterpreted.
    Doctype(&'a str),
    /// End of input after the root element closed.
    Eof,
}

impl BorrowedEvent<'_, '_> {
    /// Copies this event into an owned [`Event`].
    pub fn to_owned_event(&self) -> Event {
        match self {
            BorrowedEvent::XmlDecl(decl) => Event::XmlDecl(decl.clone()),
            BorrowedEvent::StartElement { name, attributes } => Event::StartElement {
                name: (*name).to_owned(),
                attributes: attributes
                    .iter()
                    .map(|a| Attribute { name: a.name.to_owned(), value: a.value.as_ref().to_owned() })
                    .collect(),
            },
            BorrowedEvent::EndElement { name } => Event::EndElement { name: (*name).to_owned() },
            BorrowedEvent::Text(text) => Event::Text(text.as_ref().to_owned()),
            BorrowedEvent::CData(text) => Event::CData((*text).to_owned()),
            BorrowedEvent::Comment(text) => Event::Comment((*text).to_owned()),
            BorrowedEvent::ProcessingInstruction { target, data } => {
                Event::ProcessingInstruction { target: (*target).to_owned(), data: (*data).to_owned() }
            }
            BorrowedEvent::Doctype(body) => Event::Doctype((*body).to_owned()),
            BorrowedEvent::Eof => Event::Eof,
        }
    }
}

/// A streaming pull parser over a `&str`.
///
/// The reader enforces well-formedness: tags must nest and match, a
/// document has exactly one root element, attribute names are unique per
/// element, and names are syntactically valid.
///
/// ```
/// use xmlparse::{Event, Reader};
/// # fn main() -> Result<(), xmlparse::XmlError> {
/// let mut r = Reader::new("<a><b/>text</a>");
/// assert!(matches!(r.next_event()?, Event::StartElement { name, .. } if name == "a"));
/// assert!(matches!(r.next_event()?, Event::StartElement { name, .. } if name == "b"));
/// assert!(matches!(r.next_event()?, Event::EndElement { name } if name == "b"));
/// assert!(matches!(r.next_event()?, Event::Text(t) if t == "text"));
/// assert!(matches!(r.next_event()?, Event::EndElement { name } if name == "a"));
/// assert!(matches!(r.next_event()?, Event::Eof));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    cursor: Cursor<'a>,
    open: Vec<&'a str>,
    /// Synthetic end-tag queued by an empty-element tag.
    pending_end: Option<&'a str>,
    seen_root: bool,
    root_closed: bool,
    /// Attribute pool reused across start tags (cleared, never shrunk).
    attrs: Vec<BorrowedAttr<'a>>,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a str) -> Self {
        Reader {
            cursor: Cursor::new(input),
            open: Vec::new(),
            pending_end: None,
            seen_root: false,
            root_closed: false,
            attrs: Vec::new(),
        }
    }

    /// The current position in the input.
    pub fn position(&self) -> Position {
        self.cursor.position()
    }

    /// The byte offset of the first unread byte: just past the construct
    /// of the last event returned (past `/>` for both events of an
    /// empty-element tag). Inside the root element every byte belongs to
    /// some event, so the offset read before pulling a start tag there is
    /// that tag's `<`. Free, unlike [`position`](Self::position), which
    /// counts lines.
    pub fn offset(&self) -> usize {
        self.cursor.offset()
    }

    /// Parses and returns the next event as an owned [`Event`].
    ///
    /// This is a thin adapter over [`Reader::next_borrowed`].
    ///
    /// # Errors
    ///
    /// Any well-formedness violation is reported as an [`XmlError`] with
    /// the position of the offending construct. After an error the reader
    /// state is unspecified and parsing should not continue.
    pub fn next_event(&mut self) -> Result<Event, XmlError> {
        Ok(self.next_borrowed()?.to_owned_event())
    }

    /// Parses and returns the next event borrowing from the input (and,
    /// for attributes, from the reader's pooled storage).
    ///
    /// # Errors
    ///
    /// Any well-formedness violation is reported as an [`XmlError`] with
    /// the position of the offending construct. After an error the reader
    /// state is unspecified and parsing should not continue.
    pub fn next_borrowed(&mut self) -> Result<BorrowedEvent<'_, 'a>, XmlError> {
        if let Some(name) = self.close_pending() {
            return Ok(BorrowedEvent::EndElement { name });
        }

        loop {
            if self.cursor.is_at_end() {
                return self.finish();
            }
            // Only the reader's first scan starts at offset 0: every
            // construct is at least one byte long.
            let at_document_start = self.cursor.offset() == 0;
            let at_top_level = self.open.is_empty();
            let construct =
                scan_construct(&mut self.cursor, &mut self.attrs, at_document_start, at_top_level)?;
            return Ok(match construct {
                Construct::Whitespace => continue,
                Construct::XmlDecl(decl) => BorrowedEvent::XmlDecl(decl),
                Construct::Text { raw, at } => {
                    BorrowedEvent::Text(finish_text(raw).map_err(|kind| self.error_at(kind, at))?)
                }
                Construct::Comment(body) => BorrowedEvent::Comment(body),
                Construct::CData(body) => BorrowedEvent::CData(body),
                Construct::Doctype(body) => BorrowedEvent::Doctype(body),
                Construct::Pi { target, data } => {
                    BorrowedEvent::ProcessingInstruction { target, data }
                }
                Construct::Start { name, self_closing } => {
                    self.note_element_opened(name)?;
                    if self_closing {
                        self.pending_end = Some(name);
                    }
                    BorrowedEvent::StartElement { name, attributes: &self.attrs }
                }
                Construct::End { name, at } => {
                    self.close(name, at)?;
                    BorrowedEvent::EndElement { name }
                }
            });
        }
    }

    /// Consumes the rest of the innermost open element — the one whose
    /// [`BorrowedEvent::StartElement`] was just returned — through its
    /// end tag, without surfacing what is inside as events.
    ///
    /// The content is checked exactly as
    /// [`next_borrowed`](Self::next_borrowed) checks it: the same scanner
    /// reads it, under the same nesting, name, attribute, character-data
    /// and entity rules. The reader ends where pulling events up to the
    /// matching [`BorrowedEvent::EndElement`] would have left it, at the
    /// same [`offset`](Self::offset). With no element open it does
    /// nothing.
    ///
    /// ```
    /// use xmlparse::{BorrowedEvent, Reader};
    /// # fn main() -> Result<(), xmlparse::XmlError> {
    /// let mut r = Reader::new("<a><skip x='1'>t<b/></skip><keep/></a>");
    /// r.next_borrowed()?; // <a>
    /// r.next_borrowed()?; // <skip>
    /// r.skip_element()?;
    /// assert!(matches!(r.next_borrowed()?, BorrowedEvent::StartElement { name: "keep", .. }));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// The first error `next_borrowed` would have returned inside the
    /// element, with the same kind and position.
    pub fn skip_element(&mut self) -> Result<(), XmlError> {
        if self.close_pending().is_some() {
            return Ok(());
        }
        let depth = self.open.len();
        while depth > 0 && self.open.len() >= depth {
            if self.cursor.is_at_end() {
                return Err(self.unclosed(self.open.last().expect("an element is open")));
            }
            match scan_construct(&mut self.cursor, &mut self.attrs, false, false)? {
                Construct::Text { raw, at } => {
                    finish_text(raw).map_err(|kind| self.error_at(kind, at))?;
                }
                Construct::Start { name, self_closing: false } => self.open.push(name),
                Construct::End { name, at } => self.close(name, at)?,
                _ => {}
            }
        }
        Ok(())
    }

    /// Runs the reader to completion, collecting all events (excluding the
    /// final [`Event::Eof`]).
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

    fn finish(&mut self) -> Result<BorrowedEvent<'_, 'a>, XmlError> {
        if let Some(name) = self.open.last() {
            return Err(self.unclosed(name));
        }
        if !self.seen_root {
            return Err(XmlError::new(ErrorKind::NoRootElement, self.cursor.position()));
        }
        Ok(BorrowedEvent::Eof)
    }

    /// The input ended with `name` open.
    fn unclosed(&self, name: &str) -> XmlError {
        XmlError::new(ErrorKind::UnclosedElement { name: name.to_owned() }, self.cursor.position())
    }

    fn error_at(&self, kind: ErrorKind, offset: usize) -> XmlError {
        XmlError::new(kind, self.cursor.position_at(offset))
    }

    /// Closes the element an empty-element tag left open, if there is
    /// one, and returns its name.
    fn close_pending(&mut self) -> Option<&'a str> {
        let name = self.pending_end.take()?;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(name));
        self.note_element_closed();
        Some(name)
    }

    /// Matches the end tag `name`, which began at byte `at`, against the
    /// innermost open element.
    fn close(&mut self, name: &'a str, at: usize) -> Result<(), XmlError> {
        match self.open.pop() {
            Some(expected) if expected == name => {
                self.note_element_closed();
                Ok(())
            }
            Some(expected) => {
                let kind =
                    ErrorKind::MismatchedTag { expected: expected.to_owned(), found: name.to_owned() };
                Err(self.error_at(kind, at))
            }
            None => Err(self.error_at(ErrorKind::UnmatchedCloseTag { name: name.to_owned() }, at)),
        }
    }

    fn note_element_opened(&mut self, name: &'a str) -> Result<(), XmlError> {
        if self.open.is_empty() {
            if self.root_closed {
                return Err(XmlError::new(
                    ErrorKind::ContentOutsideRoot,
                    self.cursor.position(),
                ));
            }
            self.seen_root = true;
        }
        self.open.push(name);
        Ok(())
    }

    fn note_element_closed(&mut self) {
        if self.open.is_empty() {
            self.root_closed = true;
        }
    }
}

// ---------------------------------------------------------------------------
// The construct scanner.
//
// [`scan_construct`] is the one place that decides what the bytes at a
// cursor are. It knows nothing about nesting: [`Reader`] drives it over
// the whole document and [`StreamingReader`](crate::stream::StreamingReader)
// over a window of one, and each keeps its own open-element stack, so
// both produce the same events and the same error kinds by construction.

/// One construct of a document, borrowed from the input, before any
/// nesting rule has been applied to it. Where a caller may still have
/// to report an error about it, the construct carries the byte offset
/// it began at; a [`Position`] is built from that only for an error.
pub(crate) enum Construct<'a> {
    /// Whitespace between top-level constructs: consumed, not an event.
    Whitespace,
    XmlDecl(XmlDecl),
    /// A character-data run up to the next `<` or the end of the input,
    /// not yet checked or unescaped: [`finish_text`] does that once the
    /// caller knows the run is whole.
    Text { raw: &'a str, at: usize },
    Comment(&'a str),
    CData(&'a str),
    Doctype(&'a str),
    Pi { target: &'a str, data: &'a str },
    /// A start tag; its attributes are in the pool the caller passed.
    Start { name: &'a str, self_closing: bool },
    /// An end tag, and where it began for the caller's mismatch error.
    End { name: &'a str, at: usize },
}

/// Scans the one construct that starts at the cursor, which must not be
/// at the end of its input, and leaves the cursor just past it.
/// `at_document_start` admits the XML declaration, which is legal only
/// as the very first bytes; `at_top_level` (no element is open) admits
/// only whitespace as character data and no CDATA section.
///
/// Inlined so that each driver's match on the result fuses with the
/// scan: called out of line, the in-memory reader measured 12–16 % slower
/// on the 9.7 MiB E-index document. `always`, because a plain hint stops
/// being taken once the crate has two callers of its own
/// ([`Reader::next_borrowed`] and [`Reader::skip_element`]): that cost
/// `next_borrowed` a quarter of its speed on a text-heavy document.
#[inline(always)]
pub(crate) fn scan_construct<'a>(
    cursor: &mut Cursor<'a>,
    attrs: &mut Vec<BorrowedAttr<'a>>,
    at_document_start: bool,
    at_top_level: bool,
) -> Result<Construct<'a>, XmlError> {
    if cursor.peek_byte() != Some(b'<') {
        let at = cursor.offset();
        let rest = cursor.rest();
        let end = find_byte(rest.as_bytes(), b'<').unwrap_or(rest.len());
        let raw = &rest[..end];
        if at_top_level && !raw.bytes().all(|b| WS_BYTE[b as usize]) {
            return Err(XmlError::new(ErrorKind::ContentOutsideRoot, cursor.position()));
        }
        cursor.advance(end);
        return Ok(if at_top_level { Construct::Whitespace } else { Construct::Text { raw, at } });
    }
    // The byte after `<` picks the family; whatever fits none of them is
    // left to the start-tag parser to name the error.
    match cursor.rest_bytes().get(1) {
        Some(b'!') => {
            if cursor.eat("<!--") {
                let body = cursor.take_until("-->", "'-->' closing a comment")?;
                return Ok(Construct::Comment(body));
            }
            if cursor.eat("<![CDATA[") {
                if at_top_level {
                    return Err(XmlError::new(ErrorKind::ContentOutsideRoot, cursor.position()));
                }
                return Ok(Construct::CData(cursor.take_until("]]>", "']]>' closing CDATA")?));
            }
            if cursor.rest_bytes().starts_with(b"<!DOCTYPE") {
                return Ok(Construct::Doctype(parse_doctype(cursor)?));
            }
        }
        Some(b'?') => {
            let rest = cursor.rest_bytes();
            if at_document_start
                && rest.starts_with(b"<?xml")
                && rest.get(5).is_some_and(|&b| WS_BYTE[b as usize] || b == b'?')
            {
                return Ok(Construct::XmlDecl(parse_xml_decl(cursor)?));
            }
            cursor.advance(2);
            let (target, data) = parse_pi_rest(cursor)?;
            return Ok(Construct::Pi { target, data });
        }
        Some(b'/') => {
            let at = cursor.offset();
            return Ok(Construct::End { name: parse_end_tag_name(cursor)?, at });
        }
        _ => {}
    }
    let tag = parse_start_tag_into(cursor, attrs)?;
    Ok(Construct::Start { name: tag.name, self_closing: tag.self_closing })
}

/// Parses `<?xml ...?>` with the cursor at the leading `<`.
fn parse_xml_decl(cursor: &mut Cursor<'_>) -> Result<XmlDecl, XmlError> {
    cursor.expect("<?xml", "the XML declaration")?;
    let mut decl = XmlDecl { version: "1.0".to_owned(), ..XmlDecl::default() };
    loop {
        cursor.skip_whitespace();
        if cursor.eat("?>") {
            break;
        }
        let at = cursor.offset();
        let name = parse_name(cursor)?;
        cursor.skip_whitespace();
        cursor.expect("=", "'=' in the XML declaration")?;
        cursor.skip_whitespace();
        let value = parse_quoted_value(cursor)?.into_owned();
        match name {
            "version" => decl.version = value,
            "encoding" => decl.encoding = Some(value),
            "standalone" => decl.standalone = Some(value),
            _ => {
                return Err(XmlError::custom(
                    format!("unknown XML declaration attribute {name:?}"),
                    cursor.position_at(at),
                ))
            }
        }
    }
    Ok(decl)
}

/// Parses `<!DOCTYPE ...>` (cursor at the `<`), returning the trimmed
/// body. Honours an internal subset in `[...]`.
fn parse_doctype<'a>(cursor: &mut Cursor<'a>) -> Result<&'a str, XmlError> {
    let start = cursor.offset();
    cursor.expect("<!DOCTYPE", "a DOCTYPE declaration")?;
    // Scan to the matching '>', honouring an internal subset in [...].
    let rest = cursor.rest();
    let bytes = rest.as_bytes();
    let mut depth: usize = 0;
    let mut i = 0;
    loop {
        match crate::cursor::find_byte3(&bytes[i..], b'[', b']', b'>') {
            None => {
                return Err(XmlError::new(
                    ErrorKind::UnexpectedEof { expecting: "'>' closing DOCTYPE" },
                    cursor.position_at(start),
                ))
            }
            Some(rel) => {
                let at = i + rel;
                i = at + 1;
                match bytes[at] {
                    b'[' => depth += 1,
                    b']' => depth = depth.saturating_sub(1),
                    _ => {
                        if depth == 0 {
                            let body = rest[..at].trim();
                            cursor.advance(i);
                            return Ok(body);
                        }
                    }
                }
            }
        }
    }
}

/// Parses the target and data of a processing instruction with the
/// cursor just past the opening `<?`.
fn parse_pi_rest<'a>(cursor: &mut Cursor<'a>) -> Result<(&'a str, &'a str), XmlError> {
    let target = parse_name(cursor)?;
    let raw = cursor.take_until("?>", "'?>' closing a processing instruction")?;
    let data = raw.strip_prefix(is_xml_whitespace).unwrap_or(raw);
    Ok((target, data))
}

/// A parsed start tag: the name plus whether it was `<name .../>`.
/// Attributes land in the caller-pooled vector. Kept small: returning
/// the tag as a whole [`Construct`] cost the in-memory reader 5 %.
struct StartTag<'a> {
    name: &'a str,
    self_closing: bool,
}

/// Parses a full start tag (cursor at the `<`), clearing and filling
/// `attrs`. The cursor ends just past the closing `>`.
fn parse_start_tag_into<'a>(
    cursor: &mut Cursor<'a>,
    attrs: &mut Vec<BorrowedAttr<'a>>,
) -> Result<StartTag<'a>, XmlError> {
    cursor.expect("<", "a start tag")?;
    let name = parse_name(cursor)?;
    attrs.clear();
    loop {
        let had_space = cursor.skip_whitespace();
        if cursor.eat("/>") {
            return Ok(StartTag { name, self_closing: true });
        }
        if cursor.eat(">") {
            return Ok(StartTag { name, self_closing: false });
        }
        if !had_space {
            let pos = cursor.position();
            let found = cursor.peek().ok_or_else(|| {
                XmlError::new(
                    ErrorKind::UnexpectedEof { expecting: "'>' closing a start tag" },
                    pos,
                )
            })?;
            return Err(XmlError::new(
                ErrorKind::UnexpectedChar {
                    found,
                    expecting: "whitespace, '>' or '/>' in a start tag",
                },
                pos,
            ));
        }
        let attr_at = cursor.offset();
        let attr_name = parse_name(cursor)?;
        if attrs.iter().any(|a| a.name == attr_name) {
            return Err(XmlError::new(
                ErrorKind::DuplicateAttribute { name: attr_name.to_owned() },
                cursor.position_at(attr_at),
            ));
        }
        cursor.skip_whitespace();
        cursor.expect("=", "'=' after an attribute name")?;
        cursor.skip_whitespace();
        let value = parse_quoted_value(cursor)?;
        attrs.push(BorrowedAttr { name: attr_name, value });
    }
}

/// Parses `</name ... >` (cursor at the `<`) and returns the name; the
/// caller matches it against its open-element stack.
fn parse_end_tag_name<'a>(cursor: &mut Cursor<'a>) -> Result<&'a str, XmlError> {
    cursor.expect("</", "an end tag")?;
    let name = parse_name(cursor)?;
    cursor.skip_whitespace();
    cursor.expect(">", "'>' closing an end tag")?;
    Ok(name)
}

/// Validates and unescapes a raw character-data run; an error is
/// reported at the run's start, which the caller knows.
pub(crate) fn finish_text(raw: &str) -> Result<Cow<'_, str>, ErrorKind> {
    if raw.contains("]]>") {
        let message = "']]>' is not allowed in character data".to_owned();
        return Err(ErrorKind::Custom { message });
    }
    unescape_kind(raw)
}

/// Parses an XML name at the cursor.
fn parse_name<'a>(cursor: &mut Cursor<'a>) -> Result<&'a str, XmlError> {
    match cursor.peek_byte() {
        Some(b) if NAME_START_BYTE[b as usize] => {}
        Some(_) => {
            // Only ASCII bytes can be rejected (all non-ASCII bytes
            // are name bytes), so decoding the char here is safe.
            let found = cursor.peek().expect("peek_byte saw a byte");
            return Err(XmlError::new(
                ErrorKind::UnexpectedChar { found, expecting: "an XML name" },
                cursor.position(),
            ));
        }
        None => {
            return Err(XmlError::new(
                ErrorKind::UnexpectedEof { expecting: "an XML name" },
                cursor.position(),
            ))
        }
    }
    Ok(cursor.take_class(&NAME_BYTE))
}

/// Parses a quoted attribute value at the cursor, resolving entities.
fn parse_quoted_value<'a>(cursor: &mut Cursor<'a>) -> Result<Cow<'a, str>, XmlError> {
    let at = cursor.offset();
    let quote = match cursor.peek_byte() {
        Some(q @ (b'"' | b'\'')) => q,
        Some(_) => {
            let found = cursor.peek().expect("peek_byte saw a byte");
            return Err(XmlError::new(
                ErrorKind::UnexpectedChar { found, expecting: "a quoted attribute value" },
                cursor.position(),
            ));
        }
        None => {
            return Err(XmlError::new(
                ErrorKind::UnexpectedEof { expecting: "a quoted attribute value" },
                cursor.position(),
            ))
        }
    };
    cursor.advance(1);
    let rest = cursor.rest();
    // A value with neither markup nor a reference in it — nearly every
    // value — ends at the first hit of one pass; the rest take the checks
    // below.
    if let Some(end) = find_byte3(rest.as_bytes(), quote, b'<', b'&') {
        if rest.as_bytes()[end] == quote {
            cursor.advance(end + 1);
            return Ok(Cow::Borrowed(&rest[..end]));
        }
    }
    let end = find_byte(rest.as_bytes(), quote).ok_or_else(|| {
        XmlError::new(
            ErrorKind::UnexpectedEof { expecting: "the closing attribute quote" },
            cursor.position(),
        )
    })?;
    let raw = &rest[..end];
    if find_byte(raw.as_bytes(), b'<').is_some() {
        return Err(XmlError::custom("'<' is not allowed in attribute values", cursor.position_at(at)));
    }
    cursor.advance(end + 1);
    unescape_kind(raw).map_err(|kind| XmlError::new(kind, cursor.position_at(at)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Vec<Event> {
        Reader::new(input).collect_events().unwrap()
    }

    fn err_kind(input: &str) -> ErrorKind {
        Reader::new(input).collect_events().unwrap_err().kind().clone()
    }

    #[test]
    fn minimal_document() {
        assert_eq!(
            events("<a/>"),
            vec![
                Event::StartElement { name: "a".into(), attributes: vec![] },
                Event::EndElement { name: "a".into() },
            ]
        );
    }

    #[test]
    fn xml_declaration_is_parsed() {
        let evs = events("<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>");
        match &evs[0] {
            Event::XmlDecl(decl) => {
                assert_eq!(decl.version, "1.0");
                assert_eq!(decl.encoding.as_deref(), Some("UTF-8"));
                assert_eq!(decl.standalone, None);
            }
            other => panic!("expected XmlDecl, got {other:?}"),
        }
    }

    #[test]
    fn attributes_in_order_with_entities() {
        let evs = events("<a x=\"1\" y='two &amp; three'/>");
        match &evs[0] {
            Event::StartElement { attributes, .. } => {
                assert_eq!(attributes[0], Attribute::new("x", "1"));
                assert_eq!(attributes[1], Attribute::new("y", "two & three"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nested_elements_and_text() {
        let evs = events("<a>pre<b>inner</b>post</a>");
        let names: Vec<String> = evs
            .iter()
            .map(|e| match e {
                Event::StartElement { name, .. } => format!("+{name}"),
                Event::EndElement { name } => format!("-{name}"),
                Event::Text(t) => format!("t:{t}"),
                other => format!("{other:?}"),
            })
            .collect();
        assert_eq!(names, vec!["+a", "t:pre", "+b", "t:inner", "-b", "t:post", "-a"]);
    }

    #[test]
    fn comments_cdata_and_pi() {
        let evs = events("<a><!-- note --><![CDATA[1<2&3]]><?proc do it?></a>");
        assert!(evs.contains(&Event::Comment(" note ".into())));
        assert!(evs.contains(&Event::CData("1<2&3".into())));
        assert!(evs.contains(&Event::ProcessingInstruction {
            target: "proc".into(),
            data: "do it".into()
        }));
    }

    #[test]
    fn doctype_with_internal_subset() {
        let evs = events("<!DOCTYPE note [<!ELEMENT note (#PCDATA)>]><note/>");
        assert!(matches!(&evs[0], Event::Doctype(body) if body.contains("ELEMENT")));
    }

    #[test]
    fn mismatched_tags_are_rejected() {
        assert!(matches!(err_kind("<a><b></a></b>"), ErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn unmatched_close_is_rejected() {
        assert!(matches!(err_kind("<a/></b>"), ErrorKind::ContentOutsideRoot | ErrorKind::UnmatchedCloseTag { .. }));
    }

    #[test]
    fn unclosed_element_is_rejected() {
        assert!(matches!(err_kind("<a><b></b>"), ErrorKind::UnclosedElement { .. }));
    }

    #[test]
    fn two_roots_are_rejected() {
        assert!(matches!(err_kind("<a/><b/>"), ErrorKind::ContentOutsideRoot));
    }

    #[test]
    fn empty_input_has_no_root() {
        assert!(matches!(err_kind("   "), ErrorKind::NoRootElement));
    }

    #[test]
    fn duplicate_attribute_is_rejected() {
        assert!(matches!(err_kind("<a x=\"1\" x=\"2\"/>"), ErrorKind::DuplicateAttribute { .. }));
    }

    #[test]
    fn text_outside_root_is_rejected() {
        assert!(matches!(err_kind("<a/>junk"), ErrorKind::ContentOutsideRoot));
        assert!(matches!(err_kind("junk<a/>"), ErrorKind::ContentOutsideRoot));
    }

    #[test]
    fn whitespace_and_comments_outside_root_are_fine() {
        let evs = events("  <!-- head -->\n<a/>\n<!-- tail -->  ");
        assert!(evs.iter().any(|e| matches!(e, Event::Comment(_))));
    }

    #[test]
    fn bad_name_start_is_rejected() {
        assert!(matches!(err_kind("<1a/>"), ErrorKind::UnexpectedChar { .. }));
    }

    #[test]
    fn cdata_end_marker_in_text_is_rejected() {
        assert!(matches!(err_kind("<a>oops ]]> here</a>"), ErrorKind::Custom { .. }));
    }

    #[test]
    fn attribute_value_with_left_angle_is_rejected() {
        assert!(matches!(err_kind("<a x=\"1<2\"/>"), ErrorKind::Custom { .. }));
    }

    #[test]
    fn self_closing_with_attributes_and_space() {
        let evs = events("<a b=\"c\" />");
        assert_eq!(evs.len(), 2);
    }

    #[test]
    fn error_positions_point_at_the_problem() {
        let err = Reader::new("<a>\n  <b></c>\n</a>").collect_events().unwrap_err();
        assert_eq!(err.position().line, 2);
    }

    #[test]
    fn pi_named_xml_mid_document_is_a_plain_pi() {
        // Only the very first bytes form an XML declaration.
        let evs = events("<a><?xmlish data?></a>");
        assert!(evs
            .iter()
            .any(|e| matches!(e, Event::ProcessingInstruction { target, .. } if target == "xmlish")));
    }

    #[test]
    fn borrowed_events_reference_the_input() {
        let doc = "<a x=\"1\">plain &amp; fancy<b/></a>";
        let mut r = Reader::new(doc);
        match r.next_borrowed().unwrap() {
            BorrowedEvent::StartElement { name, attributes } => {
                assert_eq!(name, "a");
                // Name and entity-free value are slices of the document.
                assert_eq!(attributes[0].name.as_ptr(), doc[3..].as_ptr());
                assert!(matches!(attributes[0].value, Cow::Borrowed(_)));
            }
            other => panic!("{other:?}"),
        }
        match r.next_borrowed().unwrap() {
            // Entity expansion forces an owned copy.
            BorrowedEvent::Text(Cow::Owned(t)) => assert_eq!(t, "plain & fancy"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn offset_before_a_start_tag_is_its_angle_bracket() {
        let doc = "<a>\n  <b x='1'/>text<!-- c --><c>&amp;</c></a>";
        let mut r = Reader::new(doc);
        let mut starts = Vec::new();
        loop {
            let at = r.offset();
            match r.next_borrowed().unwrap() {
                BorrowedEvent::StartElement { name, .. } => starts.push((name, at)),
                BorrowedEvent::Eof => break,
                _ => {}
            }
        }
        for (name, at) in starts {
            assert!(doc[at..].starts_with(&format!("<{name}")), "{name} at {at}");
        }
        assert_eq!(r.offset(), doc.len());
    }

    #[test]
    fn entity_free_text_is_borrowed() {
        let mut r = Reader::new("<a>just text</a>");
        r.next_borrowed().unwrap();
        match r.next_borrowed().unwrap() {
            BorrowedEvent::Text(Cow::Borrowed(t)) => assert_eq!(t, "just text"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multibyte_names_and_text_parse_borrowed() {
        let doc = "<héllo attr-ü=\"wörld\">ünïcode</héllo>";
        let evs = Reader::new(doc).collect_events().unwrap();
        match &evs[0] {
            Event::StartElement { name, attributes } => {
                assert_eq!(name, "héllo");
                assert_eq!(attributes[0], Attribute::new("attr-ü", "wörld"));
            }
            other => panic!("{other:?}"),
        }
        assert!(evs.contains(&Event::Text("ünïcode".into())));
    }
}
