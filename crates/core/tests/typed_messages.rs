//! Tests for language-level message objects — plain structs bound by
//! `#[derive(Xml2WireRecord)]` — at the session level: registration,
//! the typed encode and decode primitives, and interop with the
//! dynamic `Record` API. (The broker-level twins, `TypedCapture` and
//! `TypedSubscriber`, are exercised by the workspace root's
//! `tests/typed_bindings.rs`; the descriptor conventions, range checks
//! and the six-architecture byte differential by
//! `crates/x2w-derive/tests/differential.rs`.)

use clayout::{Architecture, Record};
use pbio::format::struct_fingerprint;
use pbio::{Format, FormatId};
use xml2wire::{X2wError, Xml2Wire, Xml2WireRecord};

/// The paper's Structure B as a Rust struct.
#[derive(Debug, Clone, PartialEq, Xml2WireRecord)]
#[x2w(name = "ASDOffEvent")]
struct Flight {
    #[x2w(name = "cntrID")]
    cntr_id: String,
    arln: String,
    #[x2w(name = "fltNum")]
    flt_num: i32,
    equip: String,
    org: String,
    dest: String,
    off: [u64; 5],
    eta: Vec<u64>,
}

#[derive(Debug, Clone, PartialEq, Xml2WireRecord)]
#[x2w(name = "SensorFrame")]
struct Sensors {
    id: u32,
    scale: f32,
    offset: f64,
    flags: u8,
    deltas: Vec<i16>,
    labels: Vec<String>,
}

fn sample_flight() -> Flight {
    Flight {
        cntr_id: "ZTL".into(),
        arln: "DL".into(),
        flt_num: 1202,
        equip: "B752".into(),
        org: "ATL".into(),
        dest: "BOS".into(),
        off: [1, 2, 3, 4, 5],
        eta: vec![100, 200, 300],
    }
}

/// The typed send path: register the record's format with the session
/// (idempotent) and run its encode plan over the struct into a framed
/// message.
fn send<T: Xml2WireRecord>(session: &Xml2Wire, message: &T) -> Result<Vec<u8>, X2wError> {
    let format = session.register_record::<T>()?;
    let mut wire = Vec::new();
    pbio::ndr::encode_typed_into(&mut wire, message, &format)?;
    Ok(wire)
}

/// The typed receive path, as `TypedSubscriber` runs it: `T`'s format
/// on this host, whose name and fingerprint the header must carry, and
/// a view of the payload in the sender's architecture read into `T`.
fn receive<T: Xml2WireRecord>(wire: &[u8]) -> Result<T, X2wError> {
    let format = Format::new(FormatId(1), T::struct_type(), Architecture::host())?;
    Ok(pbio::ndr::decode_typed(wire, &format)?)
}

#[test]
fn struct_type_is_the_schema_bound_one() {
    // The derived struct type must equal what binding the paper's
    // Figure 9 schema produces — names, order, C types and the trailing
    // synthesized count — so typed and schema-discovered peers
    // interoperate bit-for-bit.
    const ASD_SCHEMA: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
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
    let session = Xml2Wire::builder().build();
    let via_schema = session.register_schema_str(ASD_SCHEMA).unwrap()[0].clone();
    assert_eq!(via_schema.struct_type(), &Flight::struct_type());
    // Registering the derived record on top is the same format, not a
    // new version of it.
    let via_derive = session.register_record::<Flight>().unwrap();
    assert_eq!(via_derive.fingerprint(), via_schema.fingerprint());
}

#[test]
fn typed_round_trip() {
    let session = Xml2Wire::builder().build();
    let msg = sample_flight();
    let wire = send(&session, &msg).unwrap();
    assert_eq!(receive::<Flight>(&wire).unwrap(), msg);
}

#[test]
fn typed_round_trip_across_architectures() {
    // The receiver is an x86-64 process: the typed view reads the
    // SPARC32 sender's image in place, receiver makes right.
    let sender = Xml2Wire::builder().arch(Architecture::SPARC32).build();
    let msg = sample_flight();
    let wire = send(&sender, &msg).unwrap();
    let (peek, _) = pbio::ndr::split(&wire).unwrap();
    assert!(peek.arch().layout_compatible(&Architecture::SPARC32));
    assert_eq!(receive::<Flight>(&wire).unwrap(), msg);
}

#[test]
fn mixed_field_kinds_round_trip() {
    let session = Xml2Wire::builder().build();
    for msg in [
        Sensors {
            id: 7,
            scale: 0.5,
            offset: -1.25,
            flags: 0b1010_0001,
            deltas: vec![-3, 0, 12, -150],
            labels: vec!["north".into(), "south".into()],
        },
        // Empty dynamic arrays: null pointers, zero counts.
        Sensors { id: 0, scale: 0.0, offset: 0.0, flags: 0, deltas: vec![], labels: vec![] },
    ] {
        let wire = send(&session, &msg).unwrap();
        assert_eq!(receive::<Sensors>(&wire).unwrap(), msg);
    }
}

#[test]
fn decoding_the_wrong_type_is_detected() {
    // A message names its type in its header — by name and by the
    // fingerprint of its definition — so a typed receiver can refuse
    // foreign bytes instead of misreading them.
    let session = Xml2Wire::builder().build();
    let wire = send(&session, &sample_flight()).unwrap();
    let (peek, _) = pbio::ndr::split(&wire).unwrap();
    assert_eq!(peek.format_name(&wire).unwrap(), Flight::FORMAT_NAME);
    assert_eq!(peek.fingerprint, struct_fingerprint(&Flight::struct_type()));
    assert_ne!(peek.fingerprint, struct_fingerprint(&Sensors::struct_type()));
    assert!(matches!(
        receive::<Sensors>(&wire),
        Err(X2wError::Bcm(pbio::PbioError::FormatMismatch { .. }))
    ));
}

#[test]
fn typed_and_dynamic_apis_interoperate() {
    // A typed sender and a Record-level receiver (e.g. a generic
    // monitoring tool) see the same data.
    let session = Xml2Wire::builder().build();
    let wire = send(&session, &sample_flight()).unwrap();
    let (format, record) = session.decode(&wire).unwrap();
    assert_eq!(format.name(), "ASDOffEvent");
    assert_eq!(record.get("fltNum").unwrap().as_i64(), Some(1202));
    assert_eq!(record.get("eta_count").unwrap().as_i64(), Some(3));

    // And the reverse: a dynamically encoded record reads as the typed
    // struct — the two encoders write the same bytes.
    let dynamic = session.encode(&record, Flight::FORMAT_NAME).unwrap();
    assert_eq!(dynamic, wire);
    assert_eq!(receive::<Flight>(&dynamic).unwrap(), sample_flight());
}

#[test]
fn binding_maps_simple_types_to_base_primitives() {
    // The paper's footnote-1 feature end to end: simple types bind as
    // their base primitive and the bound format marshals.
    const DOC: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="Percent">
    <xsd:restriction base="xsd:int">
      <xsd:minInclusive value="0"/>
      <xsd:maxInclusive value="100"/>
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="AirlineCode">
    <xsd:restriction base="xsd:string">
      <xsd:enumeration value="DL"/>
      <xsd:enumeration value="AA"/>
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:complexType name="LoadReport">
    <xsd:element name="arln" type="AirlineCode"/>
    <xsd:element name="loadFactor" type="Percent"/>
  </xsd:complexType>
</xsd:schema>"#;
    let session = Xml2Wire::builder().build();
    let formats = session.register_schema_str(DOC).unwrap();
    let st = formats[0].struct_type();
    assert_eq!(st.field("arln").unwrap().ty, clayout::CType::String);
    assert_eq!(
        st.field("loadFactor").unwrap().ty,
        clayout::CType::Prim(clayout::Primitive::Int)
    );
    let record = Record::new().with("arln", "DL").with("loadFactor", 85i64);
    let wire = session.encode(&record, "LoadReport").unwrap();
    assert!(session.decode(&wire).is_ok());
}
