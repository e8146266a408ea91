//! Tests for user-defined simple types (restriction of primitives) —
//! the paper's footnote 1 feature.

use xmlparse::Element;
use xsdlite::model::{Facet, SimpleType};
use xsdlite::{validate_instance, Schema, TypeRef, XsdType};

const DOC: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="Percent">
    <xsd:restriction base="xsd:int">
      <xsd:minInclusive value="0"/>
      <xsd:maxInclusive value="100"/>
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="NarrowPercent">
    <xsd:restriction base="Percent">
      <xsd:maxInclusive value="50"/>
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="AirlineCode">
    <xsd:restriction base="xsd:string">
      <xsd:minLength value="2"/>
      <xsd:maxLength value="2"/>
      <xsd:enumeration value="DL"/>
      <xsd:enumeration value="AA"/>
      <xsd:enumeration value="UA"/>
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:complexType name="LoadReport">
    <xsd:element name="arln" type="AirlineCode"/>
    <xsd:element name="loadFactor" type="Percent"/>
    <xsd:element name="standbyShare" type="NarrowPercent"/>
  </xsd:complexType>
</xsd:schema>"#;

#[test]
fn simple_types_parse_with_facets() {
    let schema = Schema::parse_str(DOC).unwrap();
    assert_eq!(schema.simple_types.len(), 3);
    let percent = schema.simple_type("Percent").unwrap();
    assert_eq!(percent.base, XsdType::Int);
    assert_eq!(percent.facets.len(), 2);
    let airline = schema.simple_type("AirlineCode").unwrap();
    assert_eq!(airline.base, XsdType::String);
    assert!(airline
        .facets
        .iter()
        .any(|f| matches!(f, Facet::Enumeration(vs) if vs.len() == 3)));
}

#[test]
fn chained_restrictions_accumulate_facets() {
    let schema = Schema::parse_str(DOC).unwrap();
    let narrow = schema.simple_type("NarrowPercent").unwrap();
    assert_eq!(narrow.base, XsdType::Int);
    // Inherits min/max from Percent and adds its own max.
    assert_eq!(narrow.facets.len(), 3);
    assert!(narrow.accepts_lexical("50"));
    assert!(!narrow.accepts_lexical("51"));
    assert!(!narrow.accepts_lexical("-1"));
}

#[test]
fn element_references_become_simple_refs() {
    let schema = Schema::parse_str(DOC).unwrap();
    let report = schema.complex_type("LoadReport").unwrap();
    assert_eq!(report.element("arln").unwrap().type_ref, TypeRef::Simple("AirlineCode".into()));
    assert_eq!(
        report.element("loadFactor").unwrap().type_ref,
        TypeRef::Simple("Percent".into())
    );
}

#[test]
fn lexical_acceptance_applies_base_and_facets() {
    let percent = SimpleType::new(
        "Percent",
        XsdType::Int,
        vec![Facet::MinInclusive(0.0), Facet::MaxInclusive(100.0)],
    );
    assert!(percent.accepts_lexical("0"));
    assert!(percent.accepts_lexical(" 100 "));
    assert!(!percent.accepts_lexical("101"));
    assert!(!percent.accepts_lexical("-1"));
    assert!(!percent.accepts_lexical("12.5")); // not an int at the base
    assert!(!percent.accepts_lexical("many"));
}

#[test]
fn instance_validation_enforces_facets() {
    let schema = Schema::parse_str(DOC).unwrap();
    let good = Element::parse(
        "<LoadReport><arln>DL</arln><loadFactor>85</loadFactor>\
         <standbyShare>10</standbyShare></LoadReport>",
    )
    .unwrap();
    assert!(validate_instance(&good, "LoadReport", &schema).is_empty());

    let bad = Element::parse(
        "<LoadReport><arln>ZZ</arln><loadFactor>130</loadFactor>\
         <standbyShare>90</standbyShare></LoadReport>",
    )
    .unwrap();
    let issues = validate_instance(&bad, "LoadReport", &schema);
    assert_eq!(issues.len(), 3, "{issues:?}");
    assert!(issues.iter().all(|i| i.message.contains("violates simple type")), "{issues:?}");
}

#[test]
fn writer_round_trips_simple_types() {
    let schema = Schema::parse_str(DOC).unwrap();
    let xml = schema.to_xml_string();
    let back = Schema::parse_str(&xml).unwrap();
    assert_eq!(back, schema);
}

#[test]
fn unknown_base_is_rejected() {
    let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="T"><xsd:restriction base="NoSuch"/></xsd:simpleType>
</xsd:schema>"#;
    assert!(Schema::parse_str(doc).is_err());
}

#[test]
fn unsupported_facets_are_rejected() {
    let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="T">
    <xsd:restriction base="xsd:string"><xsd:pattern value="[A-Z]+"/></xsd:restriction>
  </xsd:simpleType>
</xsd:schema>"#;
    assert!(Schema::parse_str(doc).is_err());
}

#[test]
fn duplicate_names_across_kinds_are_rejected() {
    let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T"><xsd:element name="x" type="xsd:int"/></xsd:complexType>
  <xsd:simpleType name="T"><xsd:restriction base="xsd:int"/></xsd:simpleType>
</xsd:schema>"#;
    assert!(Schema::parse_str(doc).is_err());
}

#[test]
fn simple_typed_count_fields_are_allowed() {
    let doc = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="SmallCount">
    <xsd:restriction base="xsd:int"><xsd:maxInclusive value="16"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:complexType name="T">
    <xsd:element name="xs" type="xsd:double" maxOccurs="n"/>
    <xsd:element name="n" type="SmallCount"/>
  </xsd:complexType>
</xsd:schema>"#;
    let schema = Schema::parse_str(doc).unwrap();
    assert!(schema.complex_type("T").is_some());
}
