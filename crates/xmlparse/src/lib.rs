//! A self-contained XML 1.0 parser and writer.
//!
//! This crate is the parsing substrate of the Open Metadata Formats
//! reproduction. The original `xml2wire` tool (Widener, Schwan &
//! Eisenhauer, GIT-CC-00-21) used off-the-shelf parsers such as expat or
//! Xerces; per the reproduction ground rules every substrate is built from
//! scratch, so this crate provides:
//!
//! * a byte-[`Cursor`](cursor::Cursor) scanning word-at-a-time (SWAR)
//!   with lazy line/column tracking,
//! * one construct scanner with two drivers: the in-memory pull
//!   [`Reader`], with a zero-copy borrowed event API ([`BorrowedEvent`],
//!   via [`Reader::next_borrowed`]) and an owned [`Event`] adapter
//!   (start/end tags, text, CDATA, comments, processing instructions,
//!   the XML declaration), and the bounded-memory [`StreamingReader`],
//!   which yields the same events and the same error kinds from any
//!   [`std::io::Read`] through a refill window validated once per
//!   refill,
//! * prefixed-name splitting ([`QName`]),
//! * one tree, [`Element`], whose names and text borrow the parsed
//!   document, built on the borrowed events,
//! * a streaming [`Writer`] that serializes into a `String`, compact or
//!   pretty-printed.
//!
//! The dialect implemented is the subset needed for metadata documents:
//! well-formed XML 1.0 with the five predefined entities, numeric
//! character references, CDATA sections, comments, processing
//! instructions, and a skipped-but-validated `<!DOCTYPE ...>` declaration.
//! It is a non-validating processor in the sense of the XML spec.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), xmlparse::XmlError> {
//! let root = xmlparse::Element::parse(
//!     "<greeting kind=\"warm\">hello <b>world</b></greeting>",
//! )?;
//! assert_eq!(root.name, "greeting");
//! assert_eq!(root.attr("kind"), Some("warm"));
//! assert_eq!(root.text_content(), "hello world");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cursor;
pub mod error;
pub mod escape;
pub mod qname;
pub mod reader;
pub mod stream;
pub mod tree;
pub mod writer;

pub use error::{ErrorKind, Position, XmlError};
pub use qname::QName;
pub use reader::{Attribute, BorrowedAttr, BorrowedEvent, Event, Reader, XmlDecl};
pub use stream::{StreamingReader, DEFAULT_MAX_WINDOW, DEFAULT_WINDOW};
pub use tree::{Element, Node};
pub use writer::Writer;
