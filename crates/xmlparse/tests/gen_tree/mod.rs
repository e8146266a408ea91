//! Generated XML trees for the property tests (included by `#[path]`,
//! like `classic_oracle`). A tree writes itself through the library
//! [`Writer`], pretty or compact, and an owned copy of what
//! [`Element::parse`] reads back ([`GenElement::of`]) must equal it. An
//! element holds at most one text child, first, and never one that is
//! only whitespace (which the tree drops).

#![allow(dead_code)]

use proptest::prelude::*;
use xmlparse::{Element, Node, Writer};

/// An owned element: what the generator makes and what a parsed tree is
/// compared as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenElement {
    pub name: String,
    pub attributes: Vec<(String, String)>,
    pub children: Vec<GenNode>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenNode {
    Element(GenElement),
    Text(String),
}

impl GenElement {
    /// An element with the first of any repeated attribute names, and
    /// `text` (when it is not only whitespace) before `children`.
    fn new(
        name: String,
        attrs: Vec<(String, String)>,
        text: Option<String>,
        children: Vec<GenElement>,
    ) -> Self {
        let mut attributes: Vec<(String, String)> = Vec::new();
        for (key, value) in attrs {
            if attributes.iter().all(|(seen, _)| *seen != key) {
                attributes.push((key, value));
            }
        }
        let text = text.filter(|t| !t.trim().is_empty()).map(GenNode::Text);
        let children = text.into_iter().chain(children.into_iter().map(GenNode::Element)).collect();
        GenElement { name, attributes, children }
    }

    /// An owned copy of a parsed tree.
    pub fn of(parsed: &Element<'_>) -> Self {
        GenElement {
            name: parsed.name.to_owned(),
            attributes: parsed
                .attributes
                .iter()
                .map(|a| (a.name.to_owned(), a.value.as_ref().to_owned()))
                .collect(),
            children: parsed
                .children
                .iter()
                .map(|node| match node {
                    Node::Element(el) => GenNode::Element(GenElement::of(el)),
                    Node::Text(text) => GenNode::Text(text.as_ref().to_owned()),
                })
                .collect(),
        }
    }

    pub fn write(&self, w: &mut Writer<'_>) {
        w.start(&self.name);
        for (name, value) in &self.attributes {
            w.attr(name, value);
        }
        for child in &self.children {
            match child {
                GenNode::Element(el) => el.write(w),
                GenNode::Text(text) => w.text(text),
            }
        }
        w.end();
    }

    pub fn to_xml(&self, pretty: bool) -> String {
        let mut xml = String::new();
        let mut w = if pretty { Writer::pretty(&mut xml) } else { Writer::compact(&mut xml) };
        self.write(&mut w);
        xml
    }
}

/// Trees up to three levels deep, names from `name` and attribute values
/// and text from `text`.
pub fn element_strategy<N, T>(name: fn() -> N, text: fn() -> T) -> BoxedStrategy<GenElement>
where
    N: Strategy<Value = String> + 'static,
    T: Strategy<Value = String> + 'static,
{
    let leaf = (name(), proptest::collection::vec((name(), text()), 0..4))
        .prop_map(|(name, attrs)| GenElement::new(name, attrs, None, Vec::new()));
    leaf.prop_recursive(3, 24, 4, move |inner| {
        (
            name(),
            proptest::collection::vec((name(), text()), 0..3),
            proptest::collection::vec(inner, 0..4),
            proptest::option::of(text()),
        )
            .prop_map(|(name, attrs, children, text)| GenElement::new(name, attrs, text, children))
    })
}

/// XML names, including multibyte starts and interiors (every non-ASCII
/// char is a name char in this dialect).
pub fn name_strategy() -> impl Strategy<Value = String> {
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
pub fn text_strategy() -> impl Strategy<Value = String> {
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
            Just('é'),         // 2-byte UTF-8
            Just('\u{4e2d}'),  // 3-byte UTF-8
            Just('\u{1F600}'), // 4-byte UTF-8
        ],
        0..48,
    )
    .prop_map(|chars| chars.into_iter().collect())
}
