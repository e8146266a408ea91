//! Integration: cross-crate metadata behaviours — schema-checking live
//! messages, Table-1 structures, and the orthogonality argument (§3.3).

use backbone::airline::{AirlineGenerator, ASD_SCHEMA, WEATHER_SCHEMA};
use openmeta::prelude::*;
use xmlparse::Element;
use xsdlite::{best_match, validate_instance};

/// §4.1.1: "schema-checking tools will be applicable to live messages" —
/// a live record encoded with the *text* codec is a valid instance of
/// its schema, and best-fit matching identifies which format an unknown
/// message carries.
#[test]
fn live_messages_validate_and_classify_against_schemas() {
    let session = Xml2Wire::builder().build();
    session.register_schema_str(ASD_SCHEMA).unwrap();
    session.register_schema_str(WEATHER_SCHEMA).unwrap();

    let mut generator = AirlineGenerator::seeded(12);
    let asd_format = session.require_format("ASDOffEvent").unwrap();
    let wx_format = session.require_format("WeatherObs").unwrap();

    // The live wire form includes synthesized count fields, so validate
    // against the schema derived from the *bound* formats (the inverse
    // mapping), merged into one classification schema.
    let mut schema = xml2wire::schema_for_struct(asd_format.struct_type());
    for ty in xml2wire::schema_for_struct(wx_format.struct_type()).complex_types {
        schema.add_complex_type(ty).unwrap();
    }

    for _ in 0..10 {
        let flight = generator.flight_event();
        let text =
            pbio::textxml::encode(&flight, asd_format.struct_type()).unwrap();
        let instance = Element::parse(&text).unwrap();
        let issues = validate_instance(&instance, "ASDOffEvent", &schema);
        assert!(issues.is_empty(), "{issues:?}");
        let (matched, score) = best_match(&instance, &schema).unwrap();
        assert_eq!(matched.name, "ASDOffEvent");
        assert!((score - 1.0).abs() < f64::EPSILON);

        let obs = generator.weather_event();
        let text = pbio::textxml::encode(&obs, wx_format.struct_type()).unwrap();
        let instance = Element::parse(&text).unwrap();
        let (matched, _) = best_match(&instance, &schema).unwrap();
        assert_eq!(matched.name, "WeatherObs");
    }
}

/// Table 1's three structures bind to exactly the paper's structure
/// sizes on the paper-era architecture (SPARC32).
#[test]
fn table_1_structure_sizes_reproduce_exactly() {
    // Structure A: Figure 6 (no arrays, no nesting).
    let a = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="ASDOffEvent">
    <xsd:element name="cntrID" type="xsd:string" />
    <xsd:element name="arln" type="xsd:string" />
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="equip" type="xsd:string" />
    <xsd:element name="org" type="xsd:string" />
    <xsd:element name="dest" type="xsd:string" />
    <xsd:element name="off" type="xsd:unsigned-long" />
    <xsd:element name="eta" type="xsd:unsigned-long" />
  </xsd:complexType>
</xsd:schema>"#;
    // Structures C+D: Figure 12 (arrays + composition by nesting).
    let cd = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="ASDOffEvent">
    <xsd:element name="cntrID" type="xsd:string" />
    <xsd:element name="arln" type="xsd:string" />
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="equip" type="xsd:string" />
    <xsd:element name="org" type="xsd:string" />
    <xsd:element name="dest" type="xsd:string" />
    <xsd:element name="off" type="xsd:unsigned-long" minOccurs="5" maxOccurs="5" />
    <xsd:element name="eta" type="xsd:unsigned-long" minOccurs="1" maxOccurs="*" />
  </xsd:complexType>
  <xsd:complexType name="threeASDOffs">
    <xsd:element name="one" type="ASDOffEvent" />
    <xsd:element name="bart" type="xsd:double" />
    <xsd:element name="two" type="ASDOffEvent" />
    <xsd:element name="lisa" type="xsd:double" />
    <xsd:element name="three" type="ASDOffEvent" />
  </xsd:complexType>
</xsd:schema>"#;

    let arch = Architecture::SPARC32;

    let sa = Xml2Wire::builder().arch(arch).build();
    let fa = sa.register_schema_str(a).unwrap();
    assert_eq!(fa[0].record_size(), 32, "Structure A");

    let sb = Xml2Wire::builder().arch(arch).build();
    let fb = sb.register_schema_str(ASD_SCHEMA).unwrap();
    assert_eq!(fb[0].record_size(), 52, "Structure B");

    let scd = Xml2Wire::builder().arch(arch).build();
    let fcd = scd.register_schema_str(cd).unwrap();
    // The paper's Table 1 reports 180 for threeASDOffs. Field offsets
    // match a strict SysV layout exactly (three at 128..180), but SysV
    // pads the tail out to the struct's 8-byte alignment, giving 184;
    // the authors' compiler evidently did not pad the tail. Documented
    // in EXPERIMENTS.md as the one deliberate deviation.
    assert_eq!(fcd[1].record_size(), 184, "Structure D (threeASDOffs)");
    let offsets: Vec<usize> =
        fcd[1].layout().fields.iter().map(|f| f.offset).collect();
    assert_eq!(offsets, vec![0, 56, 64, 120, 128]);
}

/// §3.3 orthogonality: the same bound format marshals identically no
/// matter which discovery path produced it — compiled-in, file, or URL.
#[test]
fn discovery_method_does_not_affect_marshaling() {
    let record = AirlineGenerator::seeded(77).flight_event();

    // Path 1: compiled-in struct registration (no XML at all).
    let compiled = Xml2Wire::builder().build();
    let schema = xsdlite::Schema::parse_str(ASD_SCHEMA).unwrap();
    let binder_session = Xml2Wire::builder().build();
    let via_xml = binder_session.register_schema_str(ASD_SCHEMA).unwrap();
    compiled.register_compiled(via_xml[0].struct_type().clone()).unwrap();

    // Path 2: schema text directly.
    let direct = Xml2Wire::builder().build();
    direct.register_schema(&schema).unwrap();

    // Path 3: over HTTP.
    let server = MetadataServer::bind("127.0.0.1:0").unwrap();
    server.publish("/asd.xsd", ASD_SCHEMA);
    let remote = Xml2Wire::builder().source(Box::new(UrlSource::new())).build();
    remote.discover(&server.url_for("/asd.xsd")).unwrap();

    let w1 = compiled.encode(&record, "ASDOffEvent").unwrap();
    let w2 = direct.encode(&record, "ASDOffEvent").unwrap();
    let w3 = remote.encode(&record, "ASDOffEvent").unwrap();
    // Identical bytes except the registry-local format id in the header.
    assert_eq!(w1.len(), w2.len());
    assert_eq!(w2.len(), w3.len());
    assert_eq!(w1[8..], w2[8..]);
    assert_eq!(w2[8..], w3[8..]);

    // And each decodes the others' messages.
    assert!(compiled.decode(&w3).is_ok());
    assert!(remote.decode(&w1).is_ok());
}

/// Encoded sizes are identical for xml2wire-discovered and compiled-in
/// metadata — Table 1's "Encoded Size" columns being equal is the
/// paper's point that xml2wire adds no per-message cost.
#[test]
fn encoded_sizes_match_between_pbio_and_xml2wire_paths() {
    let record = AirlineGenerator::seeded(3).flight_event();

    let xml_session = Xml2Wire::builder().arch(Architecture::SPARC32).build();
    let xml_format = xml_session.register_schema_str(ASD_SCHEMA).unwrap()[0].clone();

    let pbio_session = Xml2Wire::builder().arch(Architecture::SPARC32).build();
    let pbio_format =
        pbio_session.register_compiled(xml_format.struct_type().clone()).unwrap();

    let via_xml = pbio::ndr::encode(&record, &xml_format).unwrap();
    let via_pbio = pbio::ndr::encode(&record, &pbio_format).unwrap();
    assert_eq!(via_xml.len(), via_pbio.len());
}

/// A site catalogue the size a late joiner meets in the field — 65
/// message types of 24 fields, about 80 KiB of XSD — discovered over a
/// real `MetadataServer` binds every type to exactly what the same
/// types yield when built by hand and registered with no XML involved:
/// same struct definitions, same fingerprints, same layouts, on the
/// host and on the paper's big-endian ILP32 machine.
#[test]
fn discovered_catalogue_binds_like_hand_built_types() {
    const TYPES: usize = 65;
    const FIELDS: usize = 24;
    let field_types = [
        ("xsd:string", CType::String),
        ("xsd:integer", CType::Prim(Primitive::Int)),
        ("xsd:double", CType::Prim(Primitive::Double)),
        ("xsd:unsigned-long", CType::Prim(Primitive::ULong)),
    ];

    let mut document = String::from(
        "<?xml version=\"1.0\"?>\n<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"\n            \
         targetNamespace=\"http://www.cc.gatech.edu/~pmw/schemas\">\n",
    );
    let mut by_hand = Vec::with_capacity(TYPES);
    for t in 0..TYPES {
        document.push_str(&format!("  <xsd:complexType name=\"Catalogue{t:02}\">\n"));
        let mut fields = Vec::with_capacity(FIELDS);
        for f in 0..FIELDS {
            let (xsd, ctype) = &field_types[(f + t) % field_types.len()];
            document.push_str(&format!("    <xsd:element name=\"f{f:02}\" type=\"{xsd}\"/>\n"));
            fields.push(StructField::new(format!("f{f:02}"), ctype.clone()));
        }
        document.push_str("  </xsd:complexType>\n");
        by_hand.push(StructType::new(format!("Catalogue{t:02}"), fields));
    }
    document.push_str("</xsd:schema>\n");

    let server = MetadataServer::bind("127.0.0.1:0").unwrap();
    server.publish("/site/catalogue.xsd", document);
    let url = server.url_for("/site/catalogue.xsd");

    for arch in [Architecture::host(), Architecture::SPARC32] {
        let discovering =
            Xml2Wire::builder().arch(arch).source(Box::new(UrlSource::new())).build();
        let discovered = discovering.discover(&url).unwrap();
        assert_eq!(discovered.len(), TYPES);

        let compiled = Xml2Wire::builder().arch(arch).build();
        for (found, st) in discovered.iter().zip(&by_hand) {
            let expected = compiled.register_compiled(st.clone()).unwrap();
            assert_eq!(found.struct_type(), expected.struct_type(), "{} on {arch}", st.name);
            assert_eq!(found.fingerprint(), expected.fingerprint(), "{} on {arch}", st.name);
            assert_eq!(found.layout(), expected.layout(), "{} on {arch}", st.name);
            assert_eq!(found.arch(), &arch);
            // The catalog serves later compositions from the same definition.
            assert_eq!(*discovering.catalog().get(&st.name).unwrap(), *st);
        }
    }
}
