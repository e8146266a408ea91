//! Generating schema documents from the model.
//!
//! The metadata server uses this to serve programmatically built or
//! *scoped* schemas (paper §4.4: "the server can also be extended to
//! dynamically generate metadata").

use xmlparse::Writer;

use crate::datatypes::XSD_NS_2001;
use crate::model::{Facet, Occurs, Schema, TypeRef};

/// Renders `schema` as a pretty-printed XML document using 2001
/// spellings and the `xsd:` prefix.
pub fn schema_to_xml(schema: &Schema) -> String {
    let mut xml = String::new();
    let mut w = Writer::pretty(&mut xml);
    w.declaration();
    w.start("xsd:schema");
    w.attr("xmlns:xsd", XSD_NS_2001);
    if let Some(tns) = &schema.target_namespace {
        w.attr("targetNamespace", tns);
    }
    if let Some(doc) = &schema.documentation {
        annotation(&mut w, doc);
    }
    for ty in &schema.simple_types {
        w.start("xsd:simpleType");
        w.attr("name", &ty.name);
        w.start("xsd:restriction");
        w.attr("base", &format!("xsd:{}", ty.base.canonical_name()));
        for facet in &ty.facets {
            let (name, value) = match facet {
                Facet::MinInclusive(v) => ("xsd:minInclusive", fmt_num(*v)),
                Facet::MaxInclusive(v) => ("xsd:maxInclusive", fmt_num(*v)),
                Facet::MinExclusive(v) => ("xsd:minExclusive", fmt_num(*v)),
                Facet::MaxExclusive(v) => ("xsd:maxExclusive", fmt_num(*v)),
                Facet::MinLength(n) => ("xsd:minLength", n.to_string()),
                Facet::MaxLength(n) => ("xsd:maxLength", n.to_string()),
                Facet::Enumeration(values) => {
                    for value in values {
                        facet_el(&mut w, "xsd:enumeration", value);
                    }
                    continue;
                }
            };
            facet_el(&mut w, name, &value);
        }
        w.end();
        w.end();
    }
    for ty in &schema.complex_types {
        w.start("xsd:complexType");
        w.attr("name", &ty.name);
        if let Some(doc) = &ty.documentation {
            annotation(&mut w, doc);
        }
        for el in &ty.elements {
            w.start("xsd:element");
            w.attr("name", &el.name);
            match &el.type_ref {
                TypeRef::Primitive(p) => w.attr("type", &format!("xsd:{}", p.canonical_name())),
                TypeRef::Named(n) | TypeRef::Simple(n) => w.attr("type", n),
            }
            match &el.occurs {
                Occurs::Scalar => {}
                Occurs::Fixed(n) => {
                    let n = n.to_string();
                    w.attr("minOccurs", &n);
                    w.attr("maxOccurs", &n);
                }
                Occurs::Unbounded => {
                    w.attr("minOccurs", "0");
                    w.attr("maxOccurs", "*");
                }
                Occurs::CountField(count) => w.attr("maxOccurs", count),
            }
            w.end();
        }
        w.end();
    }
    w.end();
    xml
}

fn facet_el(w: &mut Writer<'_>, name: &str, value: &str) {
    w.start(name);
    w.attr("value", value);
    w.end();
}

/// Integer-valued bounds print without a trailing `.0` so they re-parse
/// as the same number and read like the source document.
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn annotation(w: &mut Writer<'_>, text: &str) {
    w.start("xsd:annotation");
    w.start("xsd:documentation");
    w.text(text);
    w.end();
    w.end();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatypes::XsdType;
    use crate::model::{ComplexType, ElementDecl};

    fn sample_schema() -> Schema {
        let mut schema = Schema::new("urn:test");
        schema.documentation = Some("sample".to_owned());
        schema
            .add_complex_type(ComplexType::new(
                "Inner",
                vec![ElementDecl::primitive("x", XsdType::Double)],
            ))
            .unwrap();
        schema
            .add_complex_type(ComplexType::new(
                "Outer",
                vec![
                    ElementDecl::named("in", "Inner"),
                    ElementDecl::primitive("tag", XsdType::String),
                    ElementDecl::primitive("off", XsdType::UnsignedLong)
                        .with_occurs(Occurs::Fixed(5)),
                    ElementDecl::primitive("eta", XsdType::UnsignedLong)
                        .with_occurs(Occurs::CountField("eta_count".into())),
                    ElementDecl::primitive("eta_count", XsdType::Integer),
                    ElementDecl::primitive("extra", XsdType::Float)
                        .with_occurs(Occurs::Unbounded),
                ],
            ))
            .unwrap();
        schema
    }

    #[test]
    fn write_then_parse_round_trips_the_model() {
        let schema = sample_schema();
        let xml = schema.to_xml_string();
        let back = Schema::parse_str(&xml).unwrap();
        assert_eq!(back, schema);
    }

    #[test]
    fn output_contains_expected_constructs() {
        let xml = sample_schema().to_xml_string();
        assert!(xml.contains("targetNamespace=\"urn:test\""), "{xml}");
        assert!(xml.contains("maxOccurs=\"eta_count\""), "{xml}");
        assert!(xml.contains("maxOccurs=\"*\""), "{xml}");
        assert!(xml.contains("type=\"Inner\""), "{xml}");
        assert!(xml.contains("type=\"xsd:unsignedLong\""), "{xml}");
    }

    #[test]
    fn empty_schema_round_trips() {
        let schema = Schema::default();
        let back = Schema::parse_str(&schema.to_xml_string()).unwrap();
        assert_eq!(back, schema);
    }

    /// The exact bytes of a schema using every construct the writer
    /// emits. Schema documents are served, archived and fingerprinted,
    /// so a change here is a change on the wire.
    #[test]
    fn every_construct_is_written_as_these_bytes() {
        use crate::model::SimpleType;
        let mut schema = Schema::new("urn:golden");
        schema.documentation = Some("Flights & <gates> > 0".to_owned());
        schema
            .add_simple_type(SimpleType::new(
                "Gate",
                XsdType::Double,
                vec![
                    Facet::MinInclusive(0.0),
                    Facet::MaxInclusive(100.0),
                    Facet::MinExclusive(-0.5),
                    Facet::MaxExclusive(99.75),
                    Facet::MinLength(1),
                    Facet::MaxLength(6),
                    Facet::Enumeration(vec!["1".to_owned(), "a&b".to_owned()]),
                ],
            ))
            .unwrap();
        schema
            .add_complex_type(ComplexType::new(
                "Inner",
                vec![ElementDecl::primitive("x", XsdType::Int)],
            ))
            .unwrap();
        let mut outer = ComplexType::new(
            "Outer",
            vec![
                ElementDecl::named("in", "Inner"),
                ElementDecl {
                    name: "gate".to_owned(),
                    type_ref: TypeRef::Simple("Gate".to_owned()),
                    occurs: Occurs::Scalar,
                },
                ElementDecl::primitive("off", XsdType::UnsignedLong).with_occurs(Occurs::Fixed(3)),
                ElementDecl::primitive("eta", XsdType::UnsignedLong)
                    .with_occurs(Occurs::CountField("eta_count".into())),
                ElementDecl::primitive("eta_count", XsdType::Integer),
                ElementDecl::primitive("extra", XsdType::Float).with_occurs(Occurs::Unbounded),
            ],
        );
        outer.documentation = Some("<Outer> & \"its\" parts".to_owned());
        schema.add_complex_type(outer).unwrap();
        assert_eq!(
            schema.to_xml_string(),
            r#"<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:golden">
  <xsd:annotation>
    <xsd:documentation>Flights &amp; &lt;gates&gt; &gt; 0</xsd:documentation>
  </xsd:annotation>
  <xsd:simpleType name="Gate">
    <xsd:restriction base="xsd:double">
      <xsd:minInclusive value="0"/>
      <xsd:maxInclusive value="100"/>
      <xsd:minExclusive value="-0.5"/>
      <xsd:maxExclusive value="99.75"/>
      <xsd:minLength value="1"/>
      <xsd:maxLength value="6"/>
      <xsd:enumeration value="1"/>
      <xsd:enumeration value="a&amp;b"/>
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:complexType name="Inner">
    <xsd:element name="x" type="xsd:int"/>
  </xsd:complexType>
  <xsd:complexType name="Outer">
    <xsd:annotation>
      <xsd:documentation>&lt;Outer&gt; &amp; "its" parts</xsd:documentation>
    </xsd:annotation>
    <xsd:element name="in" type="Inner"/>
    <xsd:element name="gate" type="Gate"/>
    <xsd:element name="off" type="xsd:unsignedLong" minOccurs="3" maxOccurs="3"/>
    <xsd:element name="eta" type="xsd:unsignedLong" maxOccurs="eta_count"/>
    <xsd:element name="eta_count" type="xsd:integer"/>
    <xsd:element name="extra" type="xsd:float" minOccurs="0" maxOccurs="*"/>
  </xsd:complexType>
</xsd:schema>
"#
        );
    }
}
