//! Binding: XML Schema metadata → native struct types → registered
//! formats.
//!
//! This is §4.2.2 of the paper made executable. For each message field
//! the binder determines:
//!
//! * **Field Type** — "a straightforward mapping … between the `type`
//!   attribute (which denotes one of the XML Schema data types) and a
//!   corresponding PBIO type"; composed types are retrieved from the
//!   [`Catalog`].
//! * **Field Size** — "using the C `sizeof` operator on the native data
//!   type", i.e. taken from the *local* architecture, so `"integer"` can
//!   be 4 bytes here and 8 bytes elsewhere without the metadata saying
//!   either.
//! * **Field Offset** — computed "according to the structure layout
//!   produced by the compiler", including padding (the layout engine
//!   plays the role of the paper's C++ offset templates).

use std::sync::Arc;

use clayout::{Architecture, CType, Primitive, StructField, StructType};
use pbio::{Catalog, Format, FormatRegistry};
use xsdlite::{ComplexType, ElementDecl, Occurs, Schema, TypeRef, XsdType};

use crate::error::X2wError;

/// Maps an XML Schema primitive to the C primitive it binds to.
///
/// This is the paper's "straightforward mapping" table. `xsd:integer`
/// (unbounded in XML Schema) binds to C `int` exactly as the paper's
/// Figure 5/6 pair shows (`fltNum`: `xsd:integer` ⇒ `"integer",
/// sizeof(int)`), and `xsd:boolean` binds to `int` as C89 code did.
fn primitive_for(ty: XsdType) -> Option<Primitive> {
    Some(match ty {
        XsdType::String => return None,
        XsdType::Boolean => Primitive::Int,
        XsdType::Byte => Primitive::Char,
        XsdType::UnsignedByte => Primitive::UChar,
        XsdType::Short => Primitive::Short,
        XsdType::UnsignedShort => Primitive::UShort,
        XsdType::Int | XsdType::Integer => Primitive::Int,
        XsdType::UnsignedInt => Primitive::UInt,
        XsdType::Long => Primitive::Long,
        XsdType::UnsignedLong => Primitive::ULong,
        XsdType::Float => Primitive::Float,
        XsdType::Double => Primitive::Double,
    })
}

fn scalar_ctype(ty: XsdType) -> CType {
    match primitive_for(ty) {
        Some(p) => CType::Prim(p),
        None => CType::String,
    }
}

/// The binder: resolves complex types against a [`Catalog`] and
/// registers the results with a [`FormatRegistry`] for one architecture.
#[derive(Debug)]
pub struct Binder<'a> {
    catalog: &'a Catalog,
    registry: &'a FormatRegistry,
    arch: Architecture,
    simples: std::cell::RefCell<std::collections::HashMap<String, XsdType>>,
}

impl<'a> Binder<'a> {
    /// Creates a binder targeting `arch`.
    pub fn new(catalog: &'a Catalog, registry: &'a FormatRegistry, arch: Architecture) -> Self {
        Binder { catalog, registry, arch, simples: Default::default() }
    }

    /// Makes a user-defined simple type known to this binder (simple
    /// types bind as their base primitive). [`bind_schema`](Self::bind_schema)
    /// registers a schema's simple types automatically.
    fn register_simple(&self, name: impl Into<String>, base: XsdType) {
        self.simples.borrow_mut().insert(name.into(), base);
    }

    /// Binds every complex type of `schema` in order, registering each,
    /// and returns the registered formats.
    ///
    /// # Errors
    ///
    /// Fails on unmappable constructs or layout violations; formats bound
    /// before the failing one remain registered (as in the original tool,
    /// which registered formats as it parsed).
    pub fn bind_schema(&self, schema: &Schema) -> Result<Vec<Arc<Format>>, X2wError> {
        self.bind_schema_owned(schema.clone())
    }

    /// [`bind_schema`](Self::bind_schema) for a schema the caller is done
    /// with (one it has just parsed): type and field names move into the
    /// struct types instead of being copied.
    ///
    /// # Errors
    ///
    /// As [`bind_schema`](Self::bind_schema).
    pub fn bind_schema_owned(&self, schema: Schema) -> Result<Vec<Arc<Format>>, X2wError> {
        for simple in schema.simple_types {
            self.register_simple(simple.name, simple.base);
        }
        schema.complex_types.into_iter().map(|ty| self.bind(ty)).collect()
    }

    /// Binds one complex type: builds its [`StructType`], inserts it into
    /// the catalog, and registers it under the local architecture.
    ///
    /// # Errors
    ///
    /// See [`X2wError::Binding`] and the BCM errors.
    pub fn bind_complex_type(&self, ty: &ComplexType) -> Result<Arc<Format>, X2wError> {
        self.bind(ty.clone())
    }

    /// The struct type is built once; catalog, registry and format share
    /// it.
    fn bind(&self, ty: ComplexType) -> Result<Arc<Format>, X2wError> {
        let st = Arc::new(self.struct_for(ty)?);
        self.catalog.insert(Arc::clone(&st));
        Ok(self.registry.register(st, self.arch)?)
    }

    /// Builds the native struct type for a complex type without
    /// registering it; the type's names move into the result.
    ///
    /// # Errors
    ///
    /// As [`bind_complex_type`](Self::bind_complex_type).
    fn struct_for(&self, ty: ComplexType) -> Result<StructType, X2wError> {
        // `maxOccurs="*"`: dynamically allocated; synthesize the count
        // field the C struct needs (`eta` ⇒ `eta_count` in the paper's
        // Figure 7/8 pairing) unless the schema declares it itself.
        let count_name = |el: &ElementDecl| format!("{}_count", el.name);
        let synthesized_counts: Vec<String> = ty
            .elements
            .iter()
            .filter(|el| el.occurs == Occurs::Unbounded)
            .map(count_name)
            .filter(|count| ty.element(count).is_none())
            .collect();

        let mut fields: Vec<StructField> =
            Vec::with_capacity(ty.elements.len() + synthesized_counts.len());
        for el in ty.elements {
            let base = self.ctype_for_ref(&ty.name, &el)?;
            let ctype = match el.occurs {
                Occurs::Scalar => base,
                Occurs::Fixed(n) => CType::fixed_array(base, n),
                Occurs::Unbounded => CType::dynamic_array(base, count_name(&el)),
                Occurs::CountField(count) => CType::dynamic_array(base, count),
            };
            fields.push(StructField::new(el.name, ctype));
        }
        for count in synthesized_counts {
            fields.push(StructField::new(count, CType::Prim(Primitive::Int)));
        }
        Ok(StructType::new(ty.name, fields))
    }

    fn ctype_for_ref(&self, complex_type: &str, el: &ElementDecl) -> Result<CType, X2wError> {
        match &el.type_ref {
            TypeRef::Primitive(p) => Ok(scalar_ctype(*p)),
            TypeRef::Simple(name) => {
                let base = self.simples.borrow().get(name).copied().ok_or_else(|| {
                    X2wError::Binding {
                        complex_type: complex_type.to_owned(),
                        detail: format!(
                            "element {:?} references simple type {name:?} which this \
                             binder has not seen (bind the defining schema first)",
                            el.name
                        ),
                    }
                })?;
                Ok(scalar_ctype(base))
            }
            TypeRef::Named(name) => {
                let resolved =
                    self.catalog.get(name).ok_or_else(|| X2wError::Binding {
                        complex_type: complex_type.to_owned(),
                        detail: format!(
                            "element {:?} references type {name:?} which is not in the catalog \
                             (types must be defined or discovered before use)",
                            el.name
                        ),
                    })?;
                Ok(CType::Struct((*resolved).clone()))
            }
        }
    }
}

/// The inverse mapping: derives the schema complex type a bound struct
/// corresponds to, with dynamic arrays expressed in the declared
/// count-field form (`maxOccurs="<count>"`, count element included).
///
/// Useful for republishing bound formats as metadata (server-side
/// dynamic generation) and for schema-checking live messages whose wire
/// form includes synthesized count fields.
pub fn complex_type_for_struct(st: &StructType) -> ComplexType {
    fn xsd_for(p: Primitive) -> XsdType {
        match p {
            Primitive::Char => XsdType::Byte,
            Primitive::UChar => XsdType::UnsignedByte,
            Primitive::Short => XsdType::Short,
            Primitive::UShort => XsdType::UnsignedShort,
            Primitive::Int | Primitive::Enum => XsdType::Int,
            Primitive::UInt => XsdType::UnsignedInt,
            Primitive::Long | Primitive::LongLong => XsdType::Long,
            Primitive::ULong | Primitive::ULongLong => XsdType::UnsignedLong,
            Primitive::Float => XsdType::Float,
            Primitive::Double => XsdType::Double,
        }
    }
    fn type_ref_for(ty: &CType) -> TypeRef {
        match ty {
            CType::Prim(p) => TypeRef::Primitive(xsd_for(*p)),
            CType::String => TypeRef::Primitive(XsdType::String),
            CType::Struct(inner) => TypeRef::Named(inner.name.clone()),
            CType::Array { .. } => unreachable!("arrays of arrays cannot be bound"),
        }
    }
    let mut elements = Vec::with_capacity(st.fields.len());
    for field in &st.fields {
        let (type_ref, occurs) = match &field.ty {
            CType::Array { elem, len } => (
                type_ref_for(elem),
                match len {
                    clayout::ArrayLen::Fixed(n) => Occurs::Fixed(*n),
                    clayout::ArrayLen::CountField(c) => Occurs::CountField(c.clone()),
                },
            ),
            other => (type_ref_for(other), Occurs::Scalar),
        };
        elements.push(ElementDecl { name: field.name.clone(), type_ref, occurs });
    }
    ComplexType::new(st.name.clone(), elements)
}

/// Derives a complete schema (the struct's own type plus every nested
/// struct type it composes) from a bound struct type.
pub fn schema_for_struct(st: &StructType) -> Schema {
    fn collect<'a>(st: &'a StructType, out: &mut Vec<&'a StructType>) {
        for field in &st.fields {
            let inner = match &field.ty {
                CType::Struct(inner) => Some(inner),
                CType::Array { elem, .. } => match &**elem {
                    CType::Struct(inner) => Some(inner),
                    _ => None,
                },
                _ => None,
            };
            if let Some(inner) = inner {
                if !out.iter().any(|seen| seen.name == inner.name) {
                    collect(inner, out);
                    out.push(inner);
                }
            }
        }
    }
    let mut nested = Vec::new();
    collect(st, &mut nested);
    let mut schema = Schema::default();
    for inner in nested {
        let _ = schema.add_complex_type(complex_type_for_struct(inner));
    }
    let _ = schema.add_complex_type(complex_type_for_struct(st));
    schema
}

/// One-shot convenience: bind all of `schema` into fresh state.
///
/// # Errors
///
/// As [`Binder::bind_schema`].
pub fn bind_schema(
    schema: &Schema,
    catalog: &Catalog,
    registry: &FormatRegistry,
    arch: Architecture,
) -> Result<Vec<Arc<Format>>, X2wError> {
    Binder::new(catalog, registry, arch).bind_schema(schema)
}

/// One-shot convenience: bind a single complex type.
///
/// # Errors
///
/// As [`Binder::bind_complex_type`].
pub fn bind_complex_type(
    ty: &ComplexType,
    catalog: &Catalog,
    registry: &FormatRegistry,
    arch: Architecture,
) -> Result<Arc<Format>, X2wError> {
    Binder::new(catalog, registry, arch).bind_complex_type(ty)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE_9: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="ASDOffEvent">
    <xsd:element name="cntrID" type="xsd:string" />
    <xsd:element name="arln" type="xsd:string" />
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="equip" type="xsd:string" />
    <xsd:element name="org" type="xsd:string" />
    <xsd:element name="dest" type="xsd:string" />
    <xsd:element name="off" type="xsd:unsigned-long" minOccurs="5" maxOccurs="5" />
    <xsd:element name="eta" type="xsd:unsigned-long" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
</xsd:schema>"#;

    fn bind_on(arch: Architecture, schema_text: &str) -> Vec<Arc<Format>> {
        let schema = Schema::parse_str(schema_text).unwrap();
        let catalog = Catalog::new();
        let registry = FormatRegistry::new();
        bind_schema(&schema, &catalog, &registry, arch).unwrap()
    }

    #[test]
    fn figure_9_binds_to_the_papers_structure_b() {
        let formats = bind_on(Architecture::SPARC32, FIGURE_9);
        assert_eq!(formats.len(), 1);
        let f = &formats[0];
        let st = f.struct_type();
        // The dynamic array synthesized its count field at the end.
        let names: Vec<&str> = st.fields.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["cntrID", "arln", "fltNum", "equip", "org", "dest", "off", "eta", "eta_count"]
        );
        assert_eq!(st.field("off").unwrap().ty.to_string(), "unsigned long[5]");
        assert_eq!(st.field("eta").unwrap().ty.to_string(), "unsigned long[eta_count]");
        // On ILP32 with all 4-byte slots: 6*4 + 5*4 + 4 + 4 = 52, the
        // paper's Table 1 "52 byte" structure.
        assert_eq!(f.record_size(), 52);
    }

    #[test]
    fn absurdly_long_type_names_fail_binding_not_the_wire() {
        // A type name past the wire header's 2-byte length field must be
        // refused here, at binding time, with a telling error — not
        // silently truncated into a corrupt header later.
        let long = "T".repeat(u16::MAX as usize + 1);
        let doc = format!(
            r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="{long}">
    <xsd:element name="x" type="xsd:integer" />
  </xsd:complexType>
</xsd:schema>"#
        );
        let schema = Schema::parse_str(&doc).unwrap();
        let catalog = Catalog::new();
        let registry = FormatRegistry::new();
        let err = bind_schema(&schema, &catalog, &registry, Architecture::host()).unwrap_err();
        assert!(err.to_string().contains("wire header caps names"), "{err}");
        // The boundary itself is fine.
        let at_max = "T".repeat(u16::MAX as usize);
        let ok = format!(
            r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="{at_max}">
    <xsd:element name="x" type="xsd:integer" />
  </xsd:complexType>
</xsd:schema>"#
        );
        assert_eq!(bind_on(Architecture::host(), &ok).len(), 1);
    }

    #[test]
    fn field_size_tracks_local_architecture_not_metadata() {
        // The same document binds to different sizes on different
        // machines — the paper's architecture-independence argument.
        let on32 = bind_on(Architecture::SPARC32, FIGURE_9);
        let on64 = bind_on(Architecture::X86_64, FIGURE_9);
        assert_eq!(on32[0].record_size(), 52);
        assert_eq!(on64[0].record_size(), 104);
    }

    #[test]
    fn nested_composition_binds_via_the_catalog() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Inner">
    <xsd:element name="x" type="xsd:double"/>
  </xsd:complexType>
  <xsd:complexType name="Outer">
    <xsd:element name="one" type="Inner"/>
    <xsd:element name="bart" type="xsd:double"/>
    <xsd:element name="two" type="Inner"/>
  </xsd:complexType>
</xsd:schema>"#;
        let formats = bind_on(Architecture::X86_64, doc);
        assert_eq!(formats.len(), 2);
        let outer = &formats[1];
        assert_eq!(outer.record_size(), 24);
        assert!(matches!(
            outer.struct_type().field("one").unwrap().ty,
            CType::Struct(ref s) if s.name == "Inner"
        ));
    }

    #[test]
    fn forward_reference_within_one_schema_fails_cleanly() {
        // The catalog is filled in document order; referencing a type
        // declared later is a binding error with a helpful message (the
        // schema layer accepts it, the C layer cannot size it yet).
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Outer">
    <xsd:element name="in" type="Inner"/>
  </xsd:complexType>
  <xsd:complexType name="Inner">
    <xsd:element name="x" type="xsd:int"/>
  </xsd:complexType>
</xsd:schema>"#;
        let schema = Schema::parse_str(doc).unwrap();
        let catalog = Catalog::new();
        let registry = FormatRegistry::new();
        let err = bind_schema(&schema, &catalog, &registry, Architecture::X86_64).unwrap_err();
        assert!(matches!(err, X2wError::Binding { .. }), "{err}");
        assert!(err.to_string().contains("before use"), "{err}");
    }

    #[test]
    fn count_field_declared_in_schema_is_used_not_duplicated() {
        let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T">
    <xsd:element name="eta" type="xsd:unsignedLong" maxOccurs="eta_count"/>
    <xsd:element name="eta_count" type="xsd:integer"/>
  </xsd:complexType>
</xsd:schema>"#;
        let formats = bind_on(Architecture::X86_64, doc);
        let st = formats[0].struct_type();
        assert_eq!(st.fields.len(), 2);
        assert_eq!(st.fields[1].name, "eta_count");
    }

    #[test]
    fn primitive_mapping_covers_every_xsd_type() {
        for ty in XsdType::ALL {
            let ctype = scalar_ctype(ty);
            match ty {
                XsdType::String => assert_eq!(ctype, CType::String),
                _ => assert!(matches!(ctype, CType::Prim(_)), "{ty}"),
            }
        }
    }

    #[test]
    fn boolean_binds_to_c_int() {
        assert_eq!(primitive_for(XsdType::Boolean), Some(Primitive::Int));
    }

    #[test]
    fn bound_formats_are_usable_for_marshaling_immediately() {
        use clayout::Record;
        let formats = bind_on(Architecture::host(), FIGURE_9);
        let record = Record::new()
            .with("cntrID", "ZTL")
            .with("arln", "DL")
            .with("fltNum", 1202i64)
            .with("equip", "B752")
            .with("org", "ATL")
            .with("dest", "BOS")
            .with("off", vec![1u64, 2, 3, 4, 5])
            .with("eta", vec![9u64, 8, 7]);
        let wire = pbio::ndr::encode(&record, &formats[0]).unwrap();
        let back = pbio::ndr::decode_with(&wire, &formats[0]).unwrap();
        assert_eq!(back.get("eta_count").unwrap().as_i64(), Some(3));
    }
}
