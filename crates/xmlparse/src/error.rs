//! Error and source-position types for the XML parser.

use std::error::Error as StdError;
use std::fmt;

/// A position in the source text, tracked in bytes, lines and columns.
///
/// Lines and columns are 1-based; `offset` is the 0-based byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Position {
    /// 0-based byte offset into the input.
    pub offset: usize,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in bytes, not grapheme clusters).
    pub column: u32,
}

impl Position {
    /// The start of the input: offset 0, line 1, column 1.
    pub fn start() -> Self {
        Position { offset: 0, line: 1, column: 1 }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.column)
    }
}

/// The kind of failure the parser or writer encountered.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorKind {
    /// Input ended in the middle of a construct.
    UnexpectedEof {
        /// What the parser was in the middle of reading.
        expecting: &'static str,
    },
    /// A byte that cannot begin or continue the current construct.
    UnexpectedChar {
        /// The offending character.
        found: char,
        /// What would have been legal here.
        expecting: &'static str,
    },
    /// An element or attribute name violated XML name rules.
    InvalidName {
        /// The offending name as it appeared in the input.
        name: String,
    },
    /// A close tag did not match the innermost open tag.
    MismatchedTag {
        /// The name of the tag that is open.
        expected: String,
        /// The name found in the close tag.
        found: String,
    },
    /// A close tag appeared with no element open.
    UnmatchedCloseTag {
        /// The name in the stray close tag.
        name: String,
    },
    /// The document ended with elements still open.
    UnclosedElement {
        /// The innermost unclosed element.
        name: String,
    },
    /// An attribute appeared twice on the same element.
    DuplicateAttribute {
        /// The repeated attribute name.
        name: String,
    },
    /// An entity reference was not one of the predefined five or a
    /// well-formed character reference.
    UnknownEntity {
        /// The entity text between `&` and `;`.
        entity: String,
    },
    /// A numeric character reference named an invalid code point.
    InvalidCharRef {
        /// The reference text.
        reference: String,
    },
    /// The input was not valid UTF-8.
    InvalidUtf8,
    /// A document contained content outside the single root element.
    ContentOutsideRoot,
    /// The document contained no root element at all.
    NoRootElement,
    /// A single construct (tag, comment, CDATA, text run) exceeded the
    /// streaming reader's configured window cap. The document may be
    /// well-formed; it simply cannot be parsed within the memory bound
    /// the caller imposed.
    ConstructTooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
    /// Free-form error raised by consumers layering on the parser.
    Custom {
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorKind::UnexpectedEof { expecting } => {
                write!(f, "unexpected end of input while reading {expecting}")
            }
            ErrorKind::UnexpectedChar { found, expecting } => {
                write!(f, "unexpected character {found:?}, expecting {expecting}")
            }
            ErrorKind::InvalidName { name } => write!(f, "invalid XML name {name:?}"),
            ErrorKind::MismatchedTag { expected, found } => {
                write!(f, "mismatched close tag: expected </{expected}>, found </{found}>")
            }
            ErrorKind::UnmatchedCloseTag { name } => {
                write!(f, "close tag </{name}> with no open element")
            }
            ErrorKind::UnclosedElement { name } => {
                write!(f, "document ended with <{name}> still open")
            }
            ErrorKind::DuplicateAttribute { name } => {
                write!(f, "duplicate attribute {name:?}")
            }
            ErrorKind::UnknownEntity { entity } => write!(f, "unknown entity &{entity};"),
            ErrorKind::InvalidCharRef { reference } => {
                write!(f, "invalid character reference &{reference};")
            }
            ErrorKind::InvalidUtf8 => write!(f, "input is not valid UTF-8"),
            ErrorKind::ContentOutsideRoot => {
                write!(f, "content outside the document's root element")
            }
            ErrorKind::NoRootElement => write!(f, "document has no root element"),
            ErrorKind::ConstructTooLarge { limit } => {
                write!(f, "a single construct exceeded the {limit}-byte streaming window cap")
            }
            ErrorKind::Custom { message } => f.write_str(message),
        }
    }
}

/// An XML parse or serialization error with the position it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    kind: ErrorKind,
    position: Position,
}

impl XmlError {
    /// Creates an error of `kind` at `position`.
    pub fn new(kind: ErrorKind, position: Position) -> Self {
        XmlError { kind, position }
    }

    /// Creates a [`ErrorKind::Custom`] error at `position`.
    pub fn custom(message: impl Into<String>, position: Position) -> Self {
        XmlError::new(ErrorKind::Custom { message: message.into() }, position)
    }

    /// The kind of failure.
    pub fn kind(&self) -> &ErrorKind {
        &self.kind
    }

    /// Where in the input the failure happened.
    pub fn position(&self) -> Position {
        self.position
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.kind, self.position)
    }
}

impl StdError for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let err = XmlError::new(
            ErrorKind::UnexpectedEof { expecting: "a start tag" },
            Position { offset: 10, line: 2, column: 4 },
        );
        let shown = err.to_string();
        assert!(shown.contains("line 2"), "{shown}");
        assert!(shown.contains("start tag"), "{shown}");
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<XmlError>();
    }

    #[test]
    fn custom_constructor_round_trips_message() {
        let err = XmlError::custom("schema oddity", Position::start());
        assert_eq!(
            err.kind(),
            &ErrorKind::Custom { message: "schema oddity".to_owned() }
        );
    }

    #[test]
    fn position_start_is_line_one() {
        assert_eq!(Position::start(), Position { offset: 0, line: 1, column: 1 });
    }
}
