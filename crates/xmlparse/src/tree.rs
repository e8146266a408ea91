//! The one XML tree: elements whose names, attributes and text borrow
//! the document they were parsed from.
//!
//! Built from the zero-copy event stream ([`Reader::next_borrowed`]), so
//! markup and entity-free text cost no string allocations. Content rules:
//! character data that is only whitespace is dropped (element-content
//! whitespace); a CDATA section is kept verbatim as text, even when it is
//! only whitespace; comments, processing instructions, the doctype and
//! the declaration are skipped.

use std::borrow::Cow;

use crate::error::XmlError;
use crate::reader::{BorrowedAttr, BorrowedEvent, Reader};

/// A child of an [`Element`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node<'a> {
    /// A nested element.
    Element(Element<'a>),
    /// Character data (entities resolved) or a CDATA section; borrowed
    /// from the input unless entity expansion forced a copy.
    Text(Cow<'a, str>),
}

/// An element with its attributes and children, in document order.
///
/// ```
/// # fn main() -> Result<(), xmlparse::XmlError> {
/// let root = xmlparse::Element::parse("<a k=\"v\"><b>one</b><b>two</b></a>")?;
/// assert_eq!(root.attr("k"), Some("v"));
/// assert_eq!(root.child_elements().count(), 2);
/// assert_eq!(root.text_content(), "onetwo");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element<'a> {
    /// The element name exactly as written (possibly prefixed).
    pub name: &'a str,
    /// Attributes in document order.
    pub attributes: Vec<BorrowedAttr<'a>>,
    /// Child elements and text in document order.
    pub children: Vec<Node<'a>>,
}

impl<'a> Element<'a> {
    /// Parses a document and returns its root element.
    ///
    /// # Errors
    ///
    /// Propagates any well-formedness error from the [`Reader`].
    pub fn parse(input: &'a str) -> Result<Element<'a>, XmlError> {
        let mut reader = Reader::new(input);
        let mut stack: Vec<Element<'a>> = Vec::new();
        let mut root = None;
        loop {
            match reader.next_borrowed()? {
                BorrowedEvent::StartElement { name, attributes } => {
                    stack.push(Element { name, attributes: attributes.to_vec(), children: Vec::new() });
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
                        if !text.bytes().all(|b| b.is_ascii_whitespace()) {
                            parent.children.push(Node::Text(text));
                        }
                    }
                }
                BorrowedEvent::CData(text) => {
                    if let Some(parent) = stack.last_mut() {
                        parent.children.push(Node::Text(Cow::Borrowed(text)));
                    }
                }
                BorrowedEvent::Eof => break,
                _ => {}
            }
        }
        Ok(root.expect("reader rejects documents without a root"))
    }

    /// The value of attribute `name`, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes.iter().find(|a| a.name == name).map(|a| a.value.as_ref())
    }

    /// Iterates over child elements only.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element<'a>> {
        self.children.iter().filter_map(|node| match node {
            Node::Element(el) => Some(el),
            Node::Text(_) => None,
        })
    }

    /// The local part of this element's name (after any `prefix:`).
    pub fn local_name(&self) -> &'a str {
        crate::qname::split(self.name).1
    }

    /// The text of this element and its descendants, concatenated;
    /// borrowed when the element has a single text child (or none).
    pub fn text_content(&self) -> Cow<'_, str> {
        match self.children.as_slice() {
            [] => Cow::Borrowed(""),
            [Node::Text(text)] => Cow::Borrowed(text),
            _ => {
                let mut out = String::new();
                self.collect_text(&mut out);
                Cow::Owned(out)
            }
        }
    }

    fn collect_text(&self, out: &mut String) {
        for node in &self.children {
            match node {
                Node::Text(text) => out.push_str(text),
                Node::Element(el) => el.collect_text(out),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_builds_tree() {
        let root = Element::parse("<a x=\"1\"><b>hi</b><b>bye</b></a>").unwrap();
        assert_eq!(root.name, "a");
        assert_eq!(root.attr("x"), Some("1"));
        let bs: Vec<_> = root.child_elements().filter(|el| el.local_name() == "b").collect();
        assert_eq!(bs.len(), 2);
        assert_eq!(bs[0].text_content(), "hi");
    }

    #[test]
    fn whitespace_between_elements_is_dropped() {
        let root = Element::parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(root.children.len(), 2);
    }

    #[test]
    fn mixed_content_text_is_kept() {
        let root = Element::parse("<a>one <b/> two</a>").unwrap();
        let texts = root.children.iter().filter(|n| matches!(n, Node::Text(_))).count();
        assert_eq!(texts, 2);
        assert_eq!(root.text_content(), "one  two");
    }

    #[test]
    fn local_name_strips_prefix() {
        let root = Element::parse("<xsd:schema xmlns:xsd=\"u\"/>").unwrap();
        assert_eq!(root.local_name(), "schema");
        assert_eq!(root.attr("xmlns:xsd"), Some("u"));
    }

    #[test]
    fn cdata_contributes_to_text_content() {
        let root = Element::parse("<a>one<![CDATA[ & two]]><b><![CDATA[ ]]></b></a>").unwrap();
        assert_eq!(root.text_content(), "one & two ");
        let b = root.child_elements().next().unwrap();
        assert_eq!(b.children, [Node::Text(Cow::Borrowed(" "))]);
    }

    #[test]
    fn comments_pis_doctype_and_declaration_are_skipped() {
        let root = Element::parse("<?xml version=\"1.0\"?><!DOCTYPE a><a><!--c--><?p d?>x</a>")
            .unwrap();
        assert_eq!(root.children, [Node::Text(Cow::Borrowed("x"))]);
    }

    #[test]
    fn text_content_borrows_a_single_text_child() {
        let root = Element::parse("<a>plain</a>").unwrap();
        assert!(matches!(root.text_content(), Cow::Borrowed("plain")));
        let root = Element::parse("<a>x &amp; y</a>").unwrap();
        assert!(matches!(root.children[0], Node::Text(Cow::Owned(_))));
        assert_eq!(root.text_content(), "x & y");
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in ["", "<a>", "<a></b>", "<a/><b/>", "text"] {
            assert!(Element::parse(bad).is_err(), "{bad:?}");
        }
    }
}
