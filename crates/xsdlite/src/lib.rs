//! An XML Schema subset for describing message formats.
//!
//! This crate implements the metadata language of the Open Metadata
//! Formats paper (§4.1.1): message formats are `xsd:complexType`
//! definitions whose `xsd:element` children reference either XML Schema
//! primitive datatypes or previously defined complex types, with array
//! semantics expressed through `maxOccurs`:
//!
//! * a numeric `maxOccurs` is a **fixed-size array** laid out inline,
//! * `maxOccurs="*"` (also `"unbounded"`) is a **dynamically allocated
//!   array**, and
//! * a string-valued `maxOccurs` names a sibling integer element that
//!   holds the **runtime element count** (the paper's `eta`/`eta_count`
//!   idiom).
//!
//! Both the 1999-draft datatype spellings the paper uses
//! (`xsd:unsigned-long`) and the final 2001 recommendation spellings
//! (`xsd:unsignedLong`) are accepted, as are the corresponding namespace
//! URIs.
//!
//! The crate compiles schema documents into a [`Schema`] model
//! ([`parser`]), writes models back out as XML ([`writer`]) — used by the
//! metadata server to generate scoped schemas dynamically — and validates
//! XML *instance* documents against a schema ([`validate`]), which is the
//! paper's "schema-checking tools will be applicable to live messages".
//!
//! Reading a schema is what a joining client pays for open metadata, so
//! it is done at tokenizer speed: one compiler, driven by the XML
//! reader's events, builds the model directly — no tree in between. Use
//! [`Schema::parse_str`] when the document is in memory (the reader's
//! zero-copy events feed the compiler; only the names and values the
//! schema keeps are copied), [`Schema::parse_stream`] when it comes from
//! an [`std::io::Read`] too large or too remote to hold (bounded window),
//! [`Schema::parse_file`] for a path. All three give the same [`Schema`]
//! and the same [`SchemaError`] kinds for the same bytes; a document that
//! is not well-formed is reported as [`SchemaError::Xml`] whatever else
//! is wrong with it. [`Schema::parse_reachable`] reads a document in
//! memory the same way but compiles only its first complex type and the
//! types that one names — what a subscriber binding that type needs out
//! of a large catalogue.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), xsdlite::SchemaError> {
//! let doc = "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"
//!                        targetNamespace=\"urn:example\">
//!   <xsd:complexType name=\"Point\">
//!     <xsd:element name=\"x\" type=\"xsd:double\"/>
//!     <xsd:element name=\"y\" type=\"xsd:double\"/>
//!     <xsd:element name=\"label\" type=\"xsd:string\"/>
//!   </xsd:complexType>
//! </xsd:schema>";
//! let schema = xsdlite::Schema::parse_str(doc)?;
//! let point = schema.complex_type("Point").unwrap();
//! assert_eq!(point.elements.len(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datatypes;
pub mod error;
pub mod model;
pub mod parser;
pub mod validate;
pub mod writer;

pub use datatypes::XsdType;
pub use error::SchemaError;
pub use model::{ComplexType, ElementDecl, Occurs, Schema, TypeRef};
pub use validate::{best_match, match_score, validate_instance, ValidationIssue};
