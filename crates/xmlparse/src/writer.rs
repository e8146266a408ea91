//! XML serialization: a streaming writer into a `String`.

use std::ops::Range;

use crate::escape::{escape_attribute_into, escape_text_into};

/// Writes XML one construct at a time into a borrowed `String`, which
/// holds the document when the writer is done.
///
/// Two layouts: [`Writer::compact`] writes no whitespace of its own;
/// [`Writer::pretty`] puts a child's start tag and an element's end tag
/// on a line of their own, indented two spaces per level, unless the
/// open element has already had text, and ends the document with a
/// newline. An element with no content is written `<name/>`. Names of
/// open elements are kept as positions in the output, so a warm writer
/// appends to a `String` with room to spare without allocating.
///
/// ```
/// use xmlparse::Writer;
/// let mut xml = String::new();
/// let mut w = Writer::compact(&mut xml);
/// w.start("point");
/// w.attr("x", "1");
/// w.attr("y", "2");
/// w.end();
/// assert_eq!(xml, "<point x=\"1\" y=\"2\"/>");
/// ```
#[derive(Debug)]
pub struct Writer<'w> {
    out: &'w mut String,
    pretty: bool,
    /// One entry per open element, outermost first.
    open: Vec<Open>,
    /// The innermost start tag still lacks its `>`.
    in_tag: bool,
}

#[derive(Debug)]
struct Open {
    /// Where the element's name sits in the output.
    name: Range<usize>,
    had_text: bool,
}

impl<'w> Writer<'w> {
    /// A writer of indented, one-construct-per-line documents.
    pub fn pretty(out: &'w mut String) -> Self {
        Writer { out, pretty: true, open: Vec::new(), in_tag: false }
    }

    /// A writer of single-line output with no whitespace of its own
    /// (wire formats).
    pub fn compact(out: &'w mut String) -> Self {
        Writer { out, pretty: false, open: Vec::new(), in_tag: false }
    }

    /// Writes `<?xml version="1.0"?>`.
    pub fn declaration(&mut self) {
        self.out.push_str("<?xml version=\"1.0\"?>");
        if self.pretty {
            self.out.push('\n');
        }
    }

    /// Opens element `name`; attributes may follow until its content.
    pub fn start(&mut self, name: &str) {
        self.close_tag();
        if self.open.last().is_some_and(|parent| !parent.had_text) {
            self.indent(self.open.len());
        }
        self.out.push('<');
        let at = self.out.len();
        self.out.push_str(name);
        self.open.push(Open { name: at..self.out.len(), had_text: false });
        self.in_tag = true;
    }

    /// Adds an attribute to the element just started, escaping `value`.
    pub fn attr(&mut self, name: &str, value: &str) {
        debug_assert!(self.in_tag, "attribute {name:?} after the start tag closed");
        self.out.push(' ');
        self.out.push_str(name);
        self.out.push_str("=\"");
        escape_attribute_into(self.out, value);
        self.out.push('"');
    }

    /// Writes character data, escaping it.
    pub fn text(&mut self, text: &str) {
        self.content();
        escape_text_into(self.out, text);
    }

    /// Writes a CDATA section; `text` must not contain `]]>`.
    pub fn cdata(&mut self, text: &str) {
        debug_assert!(!text.contains("]]>"), "CDATA cannot hold ]]>");
        self.content();
        self.out.push_str("<![CDATA[");
        self.out.push_str(text);
        self.out.push_str("]]>");
    }

    /// Closes the innermost open element.
    ///
    /// # Panics
    ///
    /// Panics when no element is open.
    pub fn end(&mut self) {
        let open = self.open.pop().expect("end() with no open element");
        if std::mem::take(&mut self.in_tag) {
            self.out.push_str("/>");
        } else {
            if !open.had_text {
                self.indent(self.open.len());
            }
            self.out.push_str("</");
            self.out.extend_from_within(open.name);
            self.out.push('>');
        }
        if self.pretty && self.open.is_empty() {
            self.out.push('\n');
        }
    }

    fn close_tag(&mut self) {
        if std::mem::take(&mut self.in_tag) {
            self.out.push('>');
        }
    }

    fn content(&mut self) {
        self.close_tag();
        if let Some(open) = self.open.last_mut() {
            open.had_text = true;
        }
    }

    fn indent(&mut self, depth: usize) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..depth {
                self.out.push_str("  ");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{Element, Node};

    fn write(pretty: bool, f: impl FnOnce(&mut Writer<'_>)) -> String {
        let mut xml = String::new();
        let mut w = if pretty { Writer::pretty(&mut xml) } else { Writer::compact(&mut xml) };
        f(&mut w);
        xml
    }

    #[test]
    fn compact_output_has_no_extra_whitespace() {
        let xml = write(false, |w| {
            w.start("a");
            w.start("b");
            w.text("x");
            w.end();
            w.end();
        });
        assert_eq!(xml, "<a><b>x</b></a>");
    }

    #[test]
    fn pretty_output_indents_element_only_content() {
        let xml = write(true, |w| {
            w.start("a");
            w.start("b");
            w.start("c");
            w.text("x");
            w.end();
            w.end();
            w.start("d");
            w.end();
            w.end();
        });
        assert_eq!(xml, "<a>\n  <b>\n    <c>x</c>\n  </b>\n  <d/>\n</a>\n");
    }

    #[test]
    fn mixed_content_is_not_reindented() {
        let xml = write(true, |w| {
            w.start("a");
            w.text("one ");
            w.start("b");
            w.end();
            w.text(" two");
            w.end();
        });
        assert_eq!(xml, "<a>one <b/> two</a>\n");
    }

    #[test]
    fn attributes_and_text_are_escaped() {
        let xml = write(false, |w| {
            w.start("a");
            w.attr("q", "say \"hi\" & go");
            w.text("1 < 2");
            w.end();
        });
        assert_eq!(xml, "<a q=\"say &quot;hi&quot; &amp; go\">1 &lt; 2</a>");
    }

    #[test]
    fn declaration_is_emitted_for_documents() {
        let xml = write(true, |w| {
            w.declaration();
            w.start("root");
            w.end();
        });
        assert_eq!(xml, "<?xml version=\"1.0\"?>\n<root/>\n");
        let xml = write(false, |w| {
            w.declaration();
            w.start("root");
            w.end();
        });
        assert_eq!(xml, "<?xml version=\"1.0\"?><root/>");
    }

    #[test]
    fn cdata_round_trips() {
        let xml = write(false, |w| {
            w.start("a");
            w.cdata("x < y");
            w.end();
        });
        assert_eq!(xml, "<a><![CDATA[x < y]]></a>");
        assert_eq!(Element::parse(&xml).unwrap().text_content(), "x < y");
    }

    #[test]
    fn empty_text_still_counts_as_content() {
        let xml = write(true, |w| {
            w.start("a");
            w.text("");
            w.end();
        });
        assert_eq!(xml, "<a></a>\n");
    }

    #[test]
    fn write_then_parse_preserves_structure() {
        for pretty in [true, false] {
            let xml = write(pretty, |w| {
                w.start("schema");
                w.attr("targetNamespace", "urn:x");
                w.start("complexType");
                w.attr("name", "T");
                w.start("element");
                w.attr("name", "f");
                w.end();
                w.end();
                w.text("tail");
                w.end();
            });
            let root = Element::parse(&xml).unwrap();
            assert_eq!(root.attr("targetNamespace"), Some("urn:x"), "via {xml}");
            let ty = root.child_elements().next().unwrap();
            assert_eq!((ty.name, ty.attr("name")), ("complexType", Some("T")));
            let el = ty.child_elements().next().unwrap();
            assert_eq!((el.name, el.attr("name"), el.children.len()), ("element", Some("f"), 0));
            assert!(matches!(root.children.last(), Some(Node::Text(t)) if t == "tail"));
        }
    }
}
