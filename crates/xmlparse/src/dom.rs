//! A small DOM built on top of the pull [`Reader`].
//!
//! Trees are built from the zero-copy borrowed event stream
//! ([`Reader::next_borrowed`]) and element/attribute names are interned
//! through an [`Atoms`] pool, so a schema document repeating
//! `xs:element` hundreds of times allocates that name once.

use std::fmt;
use std::path::Path;

use crate::atoms::{Atom, Atoms};
use crate::error::{ErrorKind, Position, XmlError};
use crate::reader::{Attribute, BorrowedEvent, Reader, XmlDecl};

/// A child node of an [`Element`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// Character data (entities already resolved).
    Text(String),
    /// A CDATA section (kept distinct so writers can round-trip it).
    CData(String),
    /// A comment.
    Comment(String),
    /// A processing instruction.
    ProcessingInstruction {
        /// The PI target.
        target: String,
        /// The PI data.
        data: String,
    },
}

/// An element with attributes and ordered children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// The element name exactly as written (possibly prefixed).
    pub name: Atom,
    /// Attributes in document order.
    pub attributes: Vec<Attribute>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<Atom>) -> Self {
        Element { name: name.into(), attributes: Vec::new(), children: Vec::new() }
    }

    /// Builder-style: adds an attribute.
    pub fn with_attr(mut self, name: impl Into<Atom>, value: impl Into<String>) -> Self {
        self.attributes.push(Attribute::new(name, value));
        self
    }

    /// Builder-style: adds a child element.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder-style: adds a text child.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// The value of attribute `name`, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes.iter().find(|a| a.name == *name).map(|a| a.value.as_str())
    }

    /// The value of attribute `name`, or an error naming the element.
    ///
    /// # Errors
    ///
    /// Returns a [`ErrorKind::Custom`] error when the attribute is absent.
    pub fn attr_required(&self, name: &str) -> Result<&str, XmlError> {
        self.attr(name).ok_or_else(|| {
            XmlError::custom(
                format!("element <{}> is missing required attribute {name:?}", self.name),
                Position::start(),
            )
        })
    }

    /// Iterates over child elements only.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|node| match node {
            Node::Element(el) => Some(el),
            _ => None,
        })
    }

    /// The first child element with local name `local` (prefix ignored).
    pub fn find_child(&self, local: &str) -> Option<&Element> {
        self.child_elements().find(|el| el.local_name() == local)
    }

    /// All child elements with local name `local` (prefix ignored).
    pub fn find_children<'a>(&'a self, local: &'a str) -> impl Iterator<Item = &'a Element> {
        self.child_elements().filter(move |el| el.local_name() == local)
    }

    /// The local part of this element's name (after any `prefix:`).
    pub fn local_name(&self) -> &str {
        crate::qname::split(&self.name).1
    }

    /// The namespace prefix of this element's name, if any.
    pub fn prefix(&self) -> Option<&str> {
        crate::qname::split(&self.name).0
    }

    /// Concatenated text content of this element and its descendants,
    /// CDATA included, comments/PIs excluded.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        for node in &self.children {
            match node {
                Node::Text(t) | Node::CData(t) => out.push_str(t),
                Node::Element(el) => el.collect_text(out),
                _ => {}
            }
        }
    }
}

impl fmt::Display for Element {
    /// Serializes with the default [`crate::WriterConfig`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::writer::Writer::default().element_to_string(self))
    }
}

/// A parsed XML document: optional declaration, prolog misc, one root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// The XML declaration, if the document had one.
    pub decl: Option<XmlDecl>,
    /// The DOCTYPE body, if any (uninterpreted).
    pub doctype: Option<String>,
    /// The single root element.
    pub root: Element,
}

impl Document {
    /// Creates a document around `root` with a standard declaration.
    pub fn new(root: Element) -> Self {
        Document {
            decl: Some(XmlDecl {
                version: "1.0".to_owned(),
                encoding: None,
                standalone: None,
            }),
            doctype: None,
            root,
        }
    }

    /// Parses a document from a string.
    ///
    /// Whitespace-only text nodes between elements are dropped; all other
    /// text (including mixed content) is preserved.
    ///
    /// # Errors
    ///
    /// Propagates any well-formedness error from the [`Reader`].
    pub fn parse_str(input: &str) -> Result<Document, XmlError> {
        let mut atoms = Atoms::new();
        Document::parse_str_interned(input, &mut atoms)
    }

    /// Parses a document, interning names through a caller-supplied pool
    /// so repeated parses of documents with a shared vocabulary (e.g.
    /// schema compiles) reuse name allocations.
    ///
    /// # Errors
    ///
    /// Propagates any well-formedness error from the [`Reader`].
    fn parse_str_interned(input: &str, atoms: &mut Atoms) -> Result<Document, XmlError> {
        let mut reader = Reader::new(input);
        let mut decl = None;
        let mut doctype = None;
        let mut stack: Vec<Element> = Vec::new();
        let mut root: Option<Element> = None;
        loop {
            let pos = reader.position();
            match reader.next_borrowed()? {
                BorrowedEvent::XmlDecl(d) => decl = Some(d),
                BorrowedEvent::Doctype(d) => doctype = Some(d.to_owned()),
                BorrowedEvent::StartElement { name, attributes } => {
                    let attributes = attributes
                        .iter()
                        .map(|a| Attribute {
                            name: atoms.intern(a.name),
                            value: a.value.as_ref().to_owned(),
                        })
                        .collect();
                    stack.push(Element { name: atoms.intern(name), attributes, children: Vec::new() });
                }
                BorrowedEvent::EndElement { .. } => {
                    let done = stack.pop().expect("reader guarantees matched tags");
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(Node::Element(done)),
                        None => root = Some(done),
                    }
                }
                BorrowedEvent::Text(text) => {
                    if let Some(parent) = stack.last_mut() {
                        let keep = !text.bytes().all(|b| b.is_ascii_whitespace());
                        if keep {
                            parent.children.push(Node::Text(text.into_owned()));
                        }
                    } else if !text.trim().is_empty() {
                        return Err(XmlError::new(ErrorKind::ContentOutsideRoot, pos));
                    }
                }
                BorrowedEvent::CData(text) => {
                    if let Some(parent) = stack.last_mut() {
                        parent.children.push(Node::CData(text.to_owned()));
                    }
                }
                BorrowedEvent::Comment(text) => {
                    if let Some(parent) = stack.last_mut() {
                        parent.children.push(Node::Comment(text.to_owned()));
                    }
                }
                BorrowedEvent::ProcessingInstruction { target, data } => {
                    if let Some(parent) = stack.last_mut() {
                        parent.children.push(Node::ProcessingInstruction {
                            target: target.to_owned(),
                            data: data.to_owned(),
                        });
                    }
                }
                BorrowedEvent::Eof => break,
            }
        }
        let root = root
            .ok_or_else(|| XmlError::new(ErrorKind::NoRootElement, reader.position()))?;
        Ok(Document { decl, doctype, root })
    }

    /// Parses a document from a file on disk.
    ///
    /// # Errors
    ///
    /// I/O failures and invalid UTF-8 are reported as [`XmlError`]s, as
    /// are parse errors.
    pub fn parse_file(path: impl AsRef<Path>) -> Result<Document, XmlError> {
        Document::parse_str(&read_file(path.as_ref())?)
    }

    /// Serializes with the default writer configuration.
    pub fn to_xml_string(&self) -> String {
        crate::writer::Writer::default().document_to_string(self)
    }
}

/// Reads a document's text from disk, for callers that parse it
/// themselves.
///
/// # Errors
///
/// I/O failures and invalid UTF-8 are reported as [`XmlError`]s.
pub fn read_file(path: &Path) -> Result<String, XmlError> {
    let bytes = std::fs::read(path).map_err(|e| {
        XmlError::custom(format!("cannot read {}: {e}", path.display()), Position::start())
    })?;
    String::from_utf8(bytes).map_err(|_| XmlError::new(ErrorKind::InvalidUtf8, Position::start()))
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_builds_tree() {
        let doc = Document::parse_str("<a x=\"1\"><b>hi</b><b>bye</b></a>").unwrap();
        assert_eq!(doc.root.name, "a");
        assert_eq!(doc.root.attr("x"), Some("1"));
        let bs: Vec<_> = doc.root.find_children("b").collect();
        assert_eq!(bs.len(), 2);
        assert_eq!(bs[0].text_content(), "hi");
    }

    #[test]
    fn whitespace_between_elements_is_dropped() {
        let doc = Document::parse_str("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(doc.root.children.len(), 2);
    }

    #[test]
    fn mixed_content_text_is_kept() {
        let doc = Document::parse_str("<a>one <b/> two</a>").unwrap();
        let texts: Vec<_> = doc
            .root
            .children
            .iter()
            .filter(|n| matches!(n, Node::Text(_)))
            .collect();
        assert_eq!(texts.len(), 2);
    }

    #[test]
    fn local_name_strips_prefix() {
        let doc = Document::parse_str("<xsd:schema xmlns:xsd=\"u\"/>").unwrap();
        assert_eq!(doc.root.local_name(), "schema");
        assert_eq!(doc.root.prefix(), Some("xsd"));
    }

    #[test]
    fn attr_required_reports_element_name() {
        let el = Element::new("widget");
        let err = el.attr_required("size").unwrap_err();
        assert!(err.to_string().contains("widget"));
        assert!(err.to_string().contains("size"));
    }

    #[test]
    fn builder_api_constructs_trees() {
        let el = Element::new("root")
            .with_attr("k", "v")
            .with_child(Element::new("leaf").with_text("x"));
        assert_eq!(el.find_child("leaf").unwrap().text_content(), "x");
    }

    #[test]
    fn cdata_contributes_to_text_content() {
        let doc = Document::parse_str("<a>one<![CDATA[ & two]]></a>").unwrap();
        assert_eq!(doc.root.text_content(), "one & two");
    }

    #[test]
    fn doctype_is_captured() {
        let doc = Document::parse_str("<!DOCTYPE a><a/>").unwrap();
        assert_eq!(doc.doctype.as_deref(), Some("a"));
    }

    #[test]
    fn display_round_trips_through_parser() {
        let doc = Document::parse_str("<a x=\"1\"><b>body</b></a>").unwrap();
        let reparsed = Document::parse_str(&doc.to_string()).unwrap();
        assert_eq!(doc.root, reparsed.root);
    }

    #[test]
    fn repeated_names_share_one_interned_allocation() {
        let mut atoms = Atoms::new();
        let doc = Document::parse_str_interned(
            "<list><item k=\"1\"/><item k=\"2\"/><item k=\"3\"/></list>",
            &mut atoms,
        )
        .unwrap();
        // list, item, k
        assert_eq!(atoms.len(), 3);
        let items: Vec<_> = doc.root.find_children("item").collect();
        assert!(std::ptr::eq(items[0].name.as_str(), items[1].name.as_str()));
    }
}
