//! The original `char`-at-a-time tokenizer, preserved verbatim as a
//! test-side oracle (the `xsdlite/tests/dom_oracle` pattern).
//!
//! The production [`xmlparse::Reader`] scans bytes word-at-a-time (see
//! [`xmlparse::cursor`]); this module keeps the straightforward
//! `char`-walking implementation it replaced so that
//! `proptest_fastpath.rs`, which includes it by path, can assert the
//! two tokenizers produce identical event streams on arbitrary inputs.
//! It uses only the crate's public items.

#![allow(dead_code)]

use std::borrow::Cow;

use xmlparse::error::{ErrorKind, Position, XmlError};
use xmlparse::escape::unescape;
use xmlparse::qname::{is_name_char, is_name_start_char};
use xmlparse::reader::{Attribute, Event, XmlDecl};

/// Whether `ch` is whitespace per XML 1.0 §2.3.
fn is_xml_whitespace(ch: char) -> bool {
    matches!(ch, ' ' | '\t' | '\r' | '\n')
}

/// The original forward-only `char` cursor with eager line/column
/// tracking.
#[derive(Debug, Clone)]
struct Cursor<'a> {
    input: &'a str,
    pos: Position,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a str) -> Self {
        Cursor { input, pos: Position::start() }
    }

    fn position(&self) -> Position {
        self.pos
    }

    fn is_at_end(&self) -> bool {
        self.pos.offset >= self.input.len()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos.offset..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let ch = self.peek()?;
        self.pos.offset += ch.len_utf8();
        if ch == '\n' {
            self.pos.line += 1;
            self.pos.column = 1;
        } else {
            self.pos.column += 1;
        }
        Some(ch)
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.rest().starts_with(literal) {
            for _ in literal.chars() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn expect(&mut self, literal: &str, expecting: &'static str) -> Result<(), XmlError> {
        if self.eat(literal) {
            Ok(())
        } else {
            match self.peek() {
                Some(found) => Err(XmlError::new(
                    ErrorKind::UnexpectedChar { found, expecting },
                    self.pos,
                )),
                None => Err(XmlError::new(ErrorKind::UnexpectedEof { expecting }, self.pos)),
            }
        }
    }

    fn take_while(&mut self, mut pred: impl FnMut(char) -> bool) -> &'a str {
        let start = self.pos.offset;
        while let Some(ch) = self.peek() {
            if !pred(ch) {
                break;
            }
            self.bump();
        }
        &self.input[start..self.pos.offset]
    }

    fn skip_whitespace(&mut self) -> bool {
        !self.take_while(is_xml_whitespace).is_empty()
    }

    fn take_until(
        &mut self,
        delim: &str,
        expecting: &'static str,
    ) -> Result<&'a str, XmlError> {
        let start = self.pos.offset;
        match self.rest().find(delim) {
            Some(rel) => {
                let end = start + rel;
                while self.pos.offset < end {
                    self.bump();
                }
                let consumed = &self.input[start..end];
                let eaten = self.eat(delim);
                debug_assert!(eaten);
                Ok(consumed)
            }
            None => Err(XmlError::new(ErrorKind::UnexpectedEof { expecting }, self.pos)),
        }
    }
}

/// The original streaming pull parser, producing the same owned
/// [`Event`]s as [`xmlparse::Reader::next_event`].
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    cursor: Cursor<'a>,
    open: Vec<String>,
    pending_end: Option<String>,
    seen_root: bool,
    root_closed: bool,
    produced_first: bool,
}

impl<'a> Reader<'a> {
    /// Creates a reference reader over `input`.
    pub fn new(input: &'a str) -> Self {
        Reader {
            cursor: Cursor::new(input),
            open: Vec::new(),
            pending_end: None,
            seen_root: false,
            root_closed: false,
            produced_first: false,
        }
    }

    /// The current position in the input.
    pub fn position(&self) -> Position {
        self.cursor.position()
    }

    /// Parses and returns the next event (original implementation).
    ///
    /// # Errors
    ///
    /// As [`xmlparse::Reader::next_event`].
    pub fn next_event(&mut self) -> Result<Event, XmlError> {
        if let Some(name) = self.pending_end.take() {
            let popped = self.open.pop();
            debug_assert_eq!(popped.as_deref(), Some(name.as_str()));
            self.note_element_closed();
            return Ok(Event::EndElement { name });
        }

        if !self.produced_first {
            self.produced_first = true;
            if self.cursor.rest().starts_with("<?xml")
                && self
                    .cursor
                    .rest()
                    .chars()
                    .nth(5)
                    .is_some_and(|ch| is_xml_whitespace(ch) || ch == '?')
            {
                return self.parse_xml_decl();
            }
        }

        if self.cursor.is_at_end() {
            return self.finish();
        }

        if self.open.is_empty() {
            if self.cursor.peek() != Some('<') {
                let pos = self.cursor.position();
                let text = self.cursor.take_while(|ch| ch != '<');
                if text.chars().all(is_xml_whitespace) {
                    if self.cursor.is_at_end() {
                        return self.finish();
                    }
                } else {
                    return Err(XmlError::new(ErrorKind::ContentOutsideRoot, pos));
                }
            }
            return self.parse_markup();
        }

        match self.cursor.peek() {
            Some('<') => self.parse_markup(),
            Some(_) => self.parse_text(),
            None => self.finish(),
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

    fn finish(&mut self) -> Result<Event, XmlError> {
        if let Some(name) = self.open.last() {
            return Err(XmlError::new(
                ErrorKind::UnclosedElement { name: name.clone() },
                self.cursor.position(),
            ));
        }
        if !self.seen_root {
            return Err(XmlError::new(ErrorKind::NoRootElement, self.cursor.position()));
        }
        Ok(Event::Eof)
    }

    fn note_element_opened(&mut self, name: &str) -> Result<(), XmlError> {
        if self.open.is_empty() {
            if self.root_closed {
                return Err(XmlError::new(
                    ErrorKind::ContentOutsideRoot,
                    self.cursor.position(),
                ));
            }
            self.seen_root = true;
        }
        self.open.push(name.to_owned());
        Ok(())
    }

    fn note_element_closed(&mut self) {
        if self.open.is_empty() {
            self.root_closed = true;
        }
    }

    fn parse_xml_decl(&mut self) -> Result<Event, XmlError> {
        self.cursor.expect("<?xml", "the XML declaration")?;
        let mut decl = XmlDecl { version: "1.0".to_owned(), ..XmlDecl::default() };
        loop {
            self.cursor.skip_whitespace();
            if self.cursor.eat("?>") {
                break;
            }
            let pos = self.cursor.position();
            let name = self.parse_name()?;
            self.cursor.skip_whitespace();
            self.cursor.expect("=", "'=' in the XML declaration")?;
            self.cursor.skip_whitespace();
            let value = self.parse_quoted_value()?;
            match name.as_str() {
                "version" => decl.version = value,
                "encoding" => decl.encoding = Some(value),
                "standalone" => decl.standalone = Some(value),
                _ => {
                    return Err(XmlError::custom(
                        format!("unknown XML declaration attribute {name:?}"),
                        pos,
                    ))
                }
            }
        }
        Ok(Event::XmlDecl(decl))
    }

    fn parse_markup(&mut self) -> Result<Event, XmlError> {
        debug_assert_eq!(self.cursor.peek(), Some('<'));
        if self.cursor.eat("<!--") {
            let body = self.cursor.take_until("-->", "'-->' closing a comment")?;
            return Ok(Event::Comment(body.to_owned()));
        }
        if self.cursor.eat("<![CDATA[") {
            if self.open.is_empty() {
                return Err(XmlError::new(
                    ErrorKind::ContentOutsideRoot,
                    self.cursor.position(),
                ));
            }
            let body = self.cursor.take_until("]]>", "']]>' closing CDATA")?;
            return Ok(Event::CData(body.to_owned()));
        }
        if self.cursor.rest().starts_with("<!DOCTYPE") {
            return self.parse_doctype();
        }
        if self.cursor.eat("<?") {
            let target = self.parse_name()?;
            let raw = self.cursor.take_until("?>", "'?>' closing a processing instruction")?;
            let data = raw.strip_prefix(is_xml_whitespace).unwrap_or(raw);
            return Ok(Event::ProcessingInstruction { target, data: data.to_owned() });
        }
        if self.cursor.rest().starts_with("</") {
            return self.parse_end_tag();
        }
        self.parse_start_tag()
    }

    fn parse_doctype(&mut self) -> Result<Event, XmlError> {
        let start = self.cursor.position();
        self.cursor.expect("<!DOCTYPE", "a DOCTYPE declaration")?;
        let mut depth: usize = 0;
        let mut body = String::new();
        loop {
            let ch = self.cursor.bump().ok_or_else(|| {
                XmlError::new(
                    ErrorKind::UnexpectedEof { expecting: "'>' closing DOCTYPE" },
                    start,
                )
            })?;
            match ch {
                '[' => depth += 1,
                ']' => depth = depth.saturating_sub(1),
                '>' if depth == 0 => break,
                _ => {}
            }
            body.push(ch);
        }
        Ok(Event::Doctype(body.trim().to_owned()))
    }

    fn parse_start_tag(&mut self) -> Result<Event, XmlError> {
        self.cursor.expect("<", "a start tag")?;
        let name = self.parse_name()?;
        let mut attributes: Vec<Attribute> = Vec::new();
        loop {
            let had_space = self.cursor.skip_whitespace();
            if self.cursor.eat("/>") {
                self.note_element_opened(&name)?;
                self.pending_end = Some(name.clone());
                return Ok(Event::StartElement { name, attributes });
            }
            if self.cursor.eat(">") {
                self.note_element_opened(&name)?;
                return Ok(Event::StartElement { name, attributes });
            }
            if !had_space {
                let pos = self.cursor.position();
                let found = self.cursor.peek().ok_or_else(|| {
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
            let attr_pos = self.cursor.position();
            let attr_name = self.parse_name()?;
            if attributes.iter().any(|a| a.name == attr_name) {
                return Err(XmlError::new(
                    ErrorKind::DuplicateAttribute { name: attr_name },
                    attr_pos,
                ));
            }
            self.cursor.skip_whitespace();
            self.cursor.expect("=", "'=' after an attribute name")?;
            self.cursor.skip_whitespace();
            let value = self.parse_quoted_value()?;
            attributes.push(Attribute::new(attr_name, value));
        }
    }

    fn parse_end_tag(&mut self) -> Result<Event, XmlError> {
        let pos = self.cursor.position();
        self.cursor.expect("</", "an end tag")?;
        let name = self.parse_name()?;
        self.cursor.skip_whitespace();
        self.cursor.expect(">", "'>' closing an end tag")?;
        match self.open.pop() {
            Some(expected) if expected == name => {
                self.note_element_closed();
                Ok(Event::EndElement { name })
            }
            Some(expected) => {
                Err(XmlError::new(ErrorKind::MismatchedTag { expected, found: name }, pos))
            }
            None => Err(XmlError::new(ErrorKind::UnmatchedCloseTag { name }, pos)),
        }
    }

    fn parse_text(&mut self) -> Result<Event, XmlError> {
        let pos = self.cursor.position();
        let raw = self.cursor.take_while(|ch| ch != '<');
        if raw.contains("]]>") {
            return Err(XmlError::custom("']]>' is not allowed in character data", pos));
        }
        Ok(Event::Text(unescape(raw, pos)?.into_owned()))
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let pos = self.cursor.position();
        match self.cursor.peek() {
            Some(ch) if is_name_start_char(ch) => {}
            Some(found) => {
                return Err(XmlError::new(
                    ErrorKind::UnexpectedChar { found, expecting: "an XML name" },
                    pos,
                ))
            }
            None => {
                return Err(XmlError::new(
                    ErrorKind::UnexpectedEof { expecting: "an XML name" },
                    pos,
                ))
            }
        }
        let name = self.cursor.take_while(is_name_char);
        Ok(name.to_owned())
    }

    fn parse_quoted_value(&mut self) -> Result<String, XmlError> {
        let pos = self.cursor.position();
        let quote = match self.cursor.peek() {
            Some(q @ ('"' | '\'')) => q,
            Some(found) => {
                return Err(XmlError::new(
                    ErrorKind::UnexpectedChar { found, expecting: "a quoted attribute value" },
                    pos,
                ))
            }
            None => {
                return Err(XmlError::new(
                    ErrorKind::UnexpectedEof { expecting: "a quoted attribute value" },
                    pos,
                ))
            }
        };
        self.cursor.bump();
        let mut delim = [0u8; 4];
        let delim = quote.encode_utf8(&mut delim);
        let raw = self.cursor.take_until(delim, "the closing attribute quote")?;
        if raw.contains('<') {
            return Err(XmlError::custom("'<' is not allowed in attribute values", pos));
        }
        unescape(raw, pos).map(Cow::into_owned)
    }
}
