//! The schema object model.

use std::fmt;

use xmlparse::{ErrorKind, Position, XmlError};

use crate::datatypes::XsdType;
use crate::error::SchemaError;

/// What an element's `type` attribute resolved to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeRef {
    /// An XML Schema primitive datatype (`xsd:*`).
    Primitive(XsdType),
    /// A previously defined complex type, referenced by name — the
    /// paper's "composition from user-defined types".
    Named(String),
    /// A user-defined simple type (restriction of a primitive) — the
    /// paper's footnote 1 feature. Binds like its base primitive;
    /// validation additionally applies the facets.
    Simple(String),
}

impl fmt::Display for TypeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeRef::Primitive(p) => write!(f, "{p}"),
            TypeRef::Named(n) | TypeRef::Simple(n) => f.write_str(n),
        }
    }
}

/// One restriction facet of a user-defined simple type.
///
/// Numeric bounds are carried as `f64` (exact for every integer the
/// metadata dialect can express) and applied by instance validation.
#[derive(Debug, Clone, PartialEq)]
pub enum Facet {
    /// `xsd:minInclusive`.
    MinInclusive(f64),
    /// `xsd:maxInclusive`.
    MaxInclusive(f64),
    /// `xsd:minExclusive`.
    MinExclusive(f64),
    /// `xsd:maxExclusive`.
    MaxExclusive(f64),
    /// `xsd:minLength` (string length in characters).
    MinLength(usize),
    /// `xsd:maxLength`.
    MaxLength(usize),
    /// `xsd:enumeration` — the set of allowed lexical values.
    Enumeration(Vec<String>),
}

impl fmt::Display for Facet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Facet::MinInclusive(v) => write!(f, "minInclusive={v}"),
            Facet::MaxInclusive(v) => write!(f, "maxInclusive={v}"),
            Facet::MinExclusive(v) => write!(f, "minExclusive={v}"),
            Facet::MaxExclusive(v) => write!(f, "maxExclusive={v}"),
            Facet::MinLength(v) => write!(f, "minLength={v}"),
            Facet::MaxLength(v) => write!(f, "maxLength={v}"),
            Facet::Enumeration(vs) => write!(f, "enumeration={vs:?}"),
        }
    }
}

/// A user-defined simple type: a restriction of a primitive base.
#[derive(Debug, Clone, PartialEq)]
pub struct SimpleType {
    /// The type name.
    pub name: String,
    /// The primitive the restriction bottoms out at.
    pub base: XsdType,
    /// Restriction facets, applied by instance validation.
    pub facets: Vec<Facet>,
}

impl SimpleType {
    /// Creates a simple type.
    pub fn new(name: impl Into<String>, base: XsdType, facets: Vec<Facet>) -> Self {
        SimpleType { name: name.into(), base, facets }
    }

    /// Whether `lexical` is a valid lexical form under the base type
    /// *and* every facet.
    pub fn accepts_lexical(&self, lexical: &str) -> bool {
        if !self.base.accepts_lexical(lexical) {
            return false;
        }
        let t = lexical.trim();
        for facet in &self.facets {
            let ok = match facet {
                Facet::MinInclusive(v) => t.parse::<f64>().is_ok_and(|x| x >= *v),
                Facet::MaxInclusive(v) => t.parse::<f64>().is_ok_and(|x| x <= *v),
                Facet::MinExclusive(v) => t.parse::<f64>().is_ok_and(|x| x > *v),
                Facet::MaxExclusive(v) => t.parse::<f64>().is_ok_and(|x| x < *v),
                Facet::MinLength(n) => t.chars().count() >= *n,
                Facet::MaxLength(n) => t.chars().count() <= *n,
                Facet::Enumeration(allowed) => allowed.iter().any(|a| a == t),
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Occurrence semantics of an element, per the paper's array rules.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Occurs {
    /// No (or `1/1`) occurrence constraints: a scalar field.
    Scalar,
    /// Numeric `maxOccurs`: a fixed-size array laid out inline.
    Fixed(usize),
    /// `maxOccurs="*"` / `"unbounded"`: a dynamically allocated array
    /// whose count field is synthesized at binding time.
    Unbounded,
    /// String `maxOccurs` naming a sibling integer element that carries
    /// the runtime count.
    CountField(String),
}

impl fmt::Display for Occurs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Occurs::Scalar => f.write_str("scalar"),
            Occurs::Fixed(n) => write!(f, "fixed[{n}]"),
            Occurs::Unbounded => f.write_str("unbounded"),
            Occurs::CountField(name) => write!(f, "counted[{name}]"),
        }
    }
}

/// One `xsd:element` declaration inside a complex type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ElementDecl {
    /// The element (field) name.
    pub name: String,
    /// The referenced type.
    pub type_ref: TypeRef,
    /// Occurrence semantics.
    pub occurs: Occurs,
}

impl ElementDecl {
    /// A scalar element of a primitive type.
    pub fn primitive(name: impl Into<String>, ty: XsdType) -> Self {
        ElementDecl { name: name.into(), type_ref: TypeRef::Primitive(ty), occurs: Occurs::Scalar }
    }

    /// A scalar element of a named complex type.
    pub fn named(name: impl Into<String>, type_name: impl Into<String>) -> Self {
        ElementDecl {
            name: name.into(),
            type_ref: TypeRef::Named(type_name.into()),
            occurs: Occurs::Scalar,
        }
    }

    /// Builder-style: sets the occurrence constraint.
    pub fn with_occurs(mut self, occurs: Occurs) -> Self {
        self.occurs = occurs;
        self
    }
}

/// A named `xsd:complexType`: one message format.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ComplexType {
    /// The type (message format) name.
    pub name: String,
    /// Element declarations in document order.
    pub elements: Vec<ElementDecl>,
    /// The `xsd:annotation/xsd:documentation` text, if any.
    pub documentation: Option<String>,
}

impl ComplexType {
    /// Creates a complex type.
    pub fn new(name: impl Into<String>, elements: Vec<ElementDecl>) -> Self {
        ComplexType { name: name.into(), elements, documentation: None }
    }

    /// Finds an element by name.
    pub fn element(&self, name: &str) -> Option<&ElementDecl> {
        self.elements.iter().find(|e| e.name == name)
    }
}

/// A parsed schema: a target namespace and an ordered list of complex
/// types (order matters — the paper requires types to be defined before
/// use *conceptually*, though this implementation resolves forward
/// references too).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    /// The `targetNamespace` attribute, if present.
    pub target_namespace: Option<String>,
    /// The schema-level documentation text, if any.
    pub documentation: Option<String>,
    /// Complex types in document order.
    pub complex_types: Vec<ComplexType>,
    /// User-defined simple types in document order.
    pub simple_types: Vec<SimpleType>,
}

impl Schema {
    /// Creates an empty schema with a target namespace.
    pub fn new(target_namespace: impl Into<String>) -> Self {
        Schema {
            target_namespace: Some(target_namespace.into()),
            documentation: None,
            complex_types: Vec::new(),
            simple_types: Vec::new(),
        }
    }

    /// Parses a schema document already in memory — the front-end for
    /// every caller that holds the text (discovery, registration,
    /// validation of uploads). The tokenizer's borrowed events drive the
    /// compiler directly; nothing of the document is copied but the
    /// names and values the schema keeps.
    ///
    /// # Errors
    ///
    /// See [`SchemaError`]; both XML-level and schema-level problems are
    /// reported, XML-level ones first.
    pub fn parse_str(input: &str) -> Result<Schema, SchemaError> {
        crate::parser::parse_schema_str(input)
    }

    /// Parses only what the document's first complex type — its root —
    /// needs: the root and every complex type it names, transitively, the
    /// types a stream bound to the root can carry. Complex types outside
    /// that closure are read but not compiled, so a joining client that
    /// binds one type of a large catalogue pays for tokenizing the
    /// catalogue, not for compiling all of it.
    ///
    /// The result is [`Schema::parse_str`]'s schema restricted to the
    /// closure: the same complex types in the same (document) order, every
    /// simple type, the same namespace and documentation. What is checked:
    ///
    /// * the whole document's well-formedness, reported first;
    /// * over the whole document, that every top-level complex type has a
    ///   name and no name is declared twice, and every simple type;
    /// * every other schema check, on the closure only — a defect in a
    ///   complex type the root never reaches is not an error here.
    ///
    /// A document without complex types gives an empty schema, as
    /// `parse_str` does.
    ///
    /// # Errors
    ///
    /// See [`SchemaError`].
    pub fn parse_reachable(input: &str) -> Result<Schema, SchemaError> {
        crate::parser::parse_reachable_str(input)
    }

    /// Parses a schema document from an incremental byte source at
    /// bounded peak memory (one refill window plus the schema itself) —
    /// the front-end for sources that are not in memory, such as
    /// multi-megabyte schema sets read off a socket or a file. The same
    /// compiler as [`Schema::parse_str`], so the same [`Schema`] and the
    /// same error kinds on the same bytes.
    ///
    /// # Errors
    ///
    /// See [`SchemaError`].
    pub fn parse_stream<R: std::io::Read>(source: R) -> Result<Schema, SchemaError> {
        crate::parser::parse_schema_stream(source)
    }

    /// Parses a schema document from a file.
    ///
    /// # Errors
    ///
    /// As [`Schema::parse_str`], plus I/O failures and invalid UTF-8
    /// (both reported as [`SchemaError::Xml`]).
    pub fn parse_file(path: impl AsRef<std::path::Path>) -> Result<Schema, SchemaError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| {
            XmlError::custom(format!("cannot read {}: {e}", path.display()), Position::start())
        })?;
        let text = String::from_utf8(bytes)
            .map_err(|_| XmlError::new(ErrorKind::InvalidUtf8, Position::start()))?;
        Schema::parse_str(&text)
    }

    /// Finds a complex type by name.
    pub fn complex_type(&self, name: &str) -> Option<&ComplexType> {
        self.complex_types.iter().find(|t| t.name == name)
    }

    /// Finds a simple type by name.
    pub fn simple_type(&self, name: &str) -> Option<&SimpleType> {
        self.simple_types.iter().find(|t| t.name == name)
    }

    /// Adds a simple type, rejecting duplicates (against both kinds).
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::DuplicateType`] if the name is taken.
    pub fn add_simple_type(&mut self, ty: SimpleType) -> Result<(), SchemaError> {
        if self.simple_type(&ty.name).is_some() || self.complex_type(&ty.name).is_some() {
            return Err(SchemaError::DuplicateType { name: ty.name });
        }
        self.simple_types.push(ty);
        Ok(())
    }

    /// Adds a complex type, rejecting duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::DuplicateType`] if the name is taken.
    pub fn add_complex_type(&mut self, ty: ComplexType) -> Result<(), SchemaError> {
        if self.complex_type(&ty.name).is_some() {
            return Err(SchemaError::DuplicateType { name: ty.name });
        }
        self.complex_types.push(ty);
        Ok(())
    }

    /// Serializes the schema back to an XML document string (2001
    /// spellings, pretty-printed).
    pub fn to_xml_string(&self) -> String {
        crate::writer::schema_to_xml(self)
    }

    /// Verifies the cross-type constraints: every named reference
    /// resolves, no recursion, count references are integer siblings.
    ///
    /// Called automatically by the parser; exposed for programmatically
    /// built schemas.
    ///
    /// # Errors
    ///
    /// See [`SchemaError`].
    pub fn resolve(&self) -> Result<(), SchemaError> {
        crate::parser::resolve_schema(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_rejects_duplicates() {
        let mut s = Schema::new("urn:x");
        s.add_complex_type(ComplexType::new("T", vec![])).unwrap();
        assert!(matches!(
            s.add_complex_type(ComplexType::new("T", vec![])),
            Err(SchemaError::DuplicateType { .. })
        ));
    }

    #[test]
    fn element_lookup() {
        let ty = ComplexType::new(
            "T",
            vec![ElementDecl::primitive("x", XsdType::Int)],
        );
        assert!(ty.element("x").is_some());
        assert!(ty.element("y").is_none());
    }

    #[test]
    fn display_of_occurs_and_typerefs() {
        assert_eq!(Occurs::Fixed(5).to_string(), "fixed[5]");
        assert_eq!(Occurs::CountField("n".into()).to_string(), "counted[n]");
        assert_eq!(TypeRef::Primitive(XsdType::UnsignedLong).to_string(), "xsd:unsignedLong");
        assert_eq!(TypeRef::Named("ASDOffEvent".into()).to_string(), "ASDOffEvent");
    }

    #[test]
    fn builders_compose() {
        let el = ElementDecl::primitive("off", XsdType::UnsignedLong)
            .with_occurs(Occurs::Fixed(5));
        assert_eq!(el.occurs, Occurs::Fixed(5));
    }
}
