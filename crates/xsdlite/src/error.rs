//! Errors raised while parsing or resolving schemas.

use std::error::Error as StdError;
use std::fmt;

use xmlparse::XmlError;

/// A failure to parse or resolve a schema document.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SchemaError {
    /// The underlying XML was malformed.
    Xml(XmlError),
    /// The document's root element is not an `xsd:schema`.
    NotASchema {
        /// The root element actually found.
        found: String,
    },
    /// A construct required an attribute that was absent.
    MissingAttribute {
        /// The element missing the attribute.
        element: String,
        /// The absent attribute.
        attribute: String,
    },
    /// A `type` attribute referenced something unresolvable.
    UnknownType {
        /// The referencing element.
        element: String,
        /// The unresolvable type name.
        type_name: String,
    },
    /// Two complex types share a name.
    DuplicateType {
        /// The repeated name.
        name: String,
    },
    /// Two elements of the same complex type share a name.
    DuplicateElement {
        /// The containing complex type.
        complex_type: String,
        /// The repeated element name.
        element: String,
    },
    /// Type definitions form a cycle (directly or mutually recursive
    /// types cannot be laid out).
    RecursiveType {
        /// A type on the cycle.
        name: String,
    },
    /// A `maxOccurs` string value names a count element that is missing
    /// or is not an integer type.
    BadCountReference {
        /// The array element.
        element: String,
        /// The named count element.
        count: String,
        /// Why the reference is bad.
        reason: &'static str,
    },
    /// `minOccurs`/`maxOccurs` values that the dialect cannot express.
    BadOccurs {
        /// The element with the bad occurrence constraint.
        element: String,
        /// Explanation.
        detail: String,
    },
    /// A schema-level structural problem not covered above.
    Invalid {
        /// Explanation.
        detail: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Xml(e) => write!(f, "schema document is not well-formed: {e}"),
            SchemaError::NotASchema { found } => {
                write!(f, "root element <{found}> is not an xsd:schema")
            }
            SchemaError::MissingAttribute { element, attribute } => {
                write!(f, "<{element}> is missing required attribute {attribute:?}")
            }
            SchemaError::UnknownType { element, type_name } => {
                write!(f, "element {element:?} references unknown type {type_name:?}")
            }
            SchemaError::DuplicateType { name } => {
                write!(f, "complex type {name:?} is defined more than once")
            }
            SchemaError::DuplicateElement { complex_type, element } => {
                write!(f, "complex type {complex_type:?} declares element {element:?} twice")
            }
            SchemaError::RecursiveType { name } => {
                write!(f, "type {name:?} is recursively defined and cannot be laid out")
            }
            SchemaError::BadCountReference { element, count, reason } => {
                write!(f, "array element {element:?} count reference {count:?}: {reason}")
            }
            SchemaError::BadOccurs { element, detail } => {
                write!(f, "element {element:?} has unsupported occurrence constraint: {detail}")
            }
            SchemaError::Invalid { detail } => f.write_str(detail),
        }
    }
}

impl StdError for SchemaError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            SchemaError::Xml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XmlError> for SchemaError {
    fn from(e: XmlError) -> Self {
        SchemaError::Xml(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<SchemaError>();
    }

    #[test]
    fn xml_errors_convert_and_chain() {
        let xml_err = xmlparse::Element::parse("<open>").unwrap_err();
        let err: SchemaError = xml_err.into();
        assert!(err.to_string().contains("not well-formed"));
        assert!(StdError::source(&err).is_some());
    }
}
