//! The error type shared by all PBIO codecs.

use std::error::Error as StdError;
use std::fmt;

use clayout::LayoutError;

/// A failure in format registration, encoding, decoding or conversion.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PbioError {
    /// A layout/image-level failure from the `clayout` substrate.
    Layout(LayoutError),
    /// A wire buffer did not start with the NDR magic.
    BadMagic {
        /// The two bytes found.
        found: [u8; 2],
    },
    /// A wire header declared a protocol version this build cannot read.
    UnsupportedVersion {
        /// The declared version.
        version: u8,
    },
    /// A buffer ended before the data its header declared.
    Truncated {
        /// Bytes needed.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// A message referenced a format the receiver does not know.
    UnknownFormat {
        /// The format name (or `#id`) that failed to resolve.
        name: String,
    },
    /// A message's format name did not match the format used to decode.
    FormatMismatch {
        /// The format the decoder expected.
        expected: String,
        /// The format named in the message.
        found: String,
    },
    /// Two formats that were supposed to describe the same messages
    /// disagree structurally (conversion planning failed).
    Incompatible {
        /// Explanation of the disagreement.
        detail: String,
    },
    /// The text (XML) codec met a document that does not match the
    /// format.
    Text {
        /// Explanation.
        detail: String,
    },
    /// A format name does not fit the wire header's 2-byte length field.
    ///
    /// Rejected at [`Format`](crate::format::Format) construction so a
    /// header that cannot round-trip is never written.
    FormatNameTooLong {
        /// The offending name length in bytes.
        len: usize,
        /// The maximum representable length (65535).
        max: usize,
    },
}

impl fmt::Display for PbioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PbioError::Layout(e) => write!(f, "{e}"),
            PbioError::BadMagic { found } => {
                write!(f, "buffer does not begin with the NDR magic (found {found:02x?})")
            }
            PbioError::UnsupportedVersion { version } => {
                write!(f, "unsupported NDR protocol version {version}")
            }
            PbioError::Truncated { need, have } => {
                write!(f, "buffer truncated: need {need} bytes, have {have}")
            }
            PbioError::UnknownFormat { name } => write!(f, "unknown format {name:?}"),
            PbioError::FormatMismatch { expected, found } => {
                write!(f, "message carries format {found:?}, expected {expected:?}")
            }
            PbioError::Incompatible { detail } => {
                write!(f, "formats are not convertible: {detail}")
            }
            PbioError::Text { detail } => write!(f, "text codec: {detail}"),
            PbioError::FormatNameTooLong { len, max } => {
                write!(f, "format name is {len} bytes; the wire header caps names at {max}")
            }
        }
    }
}

impl StdError for PbioError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            PbioError::Layout(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LayoutError> for PbioError {
    fn from(e: LayoutError) -> Self {
        PbioError::Layout(e)
    }
}

impl From<xmlparse::XmlError> for PbioError {
    fn from(e: xmlparse::XmlError) -> Self {
        PbioError::Text { detail: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<PbioError>();
    }

    #[test]
    fn layout_errors_chain_as_source() {
        let inner = LayoutError::MissingField { field: "x".into() };
        let err = PbioError::from(inner);
        assert!(StdError::source(&err).is_some());
    }

    #[test]
    fn messages_are_informative() {
        let err = PbioError::Truncated { need: 24, have: 3 };
        assert_eq!(err.to_string(), "buffer truncated: need 24 bytes, have 3");
    }
}
