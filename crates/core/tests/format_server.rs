//! Integration: formats resolved on the metadata server by the (name,
//! fingerprint) every message header carries — PBIO's format-server
//! behaviour, served by the one metadata server.

use std::time::{Duration, Instant};

use clayout::{Architecture, Record};
use xml2wire::{DiscoveryPolicy, MetadataServer, Xml2Wire};

const FLIGHT: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Flight">
    <xsd:element name="arln" type="xsd:string"/>
    <xsd:element name="fltNum" type="xsd:integer"/>
    <xsd:element name="eta" type="xsd:unsigned-long" maxOccurs="*"/>
  </xsd:complexType>
</xsd:schema>"#;

fn flight_record() -> Record {
    Record::new().with("arln", "DL").with("fltNum", 1202i64).with("eta", vec![9u64, 8])
}

/// The server's base URL.
fn base(server: &MetadataServer) -> String {
    server.url_for("")
}

/// The published paths under `/formats/{name}/`.
fn format_paths(server: &MetadataServer, name: &str) -> Vec<String> {
    let prefix = format!("/formats/{name}/");
    server.published_paths().into_iter().filter(|path| path.starts_with(&prefix)).collect()
}

#[test]
fn two_sessions_negotiate_the_same_id() {
    // Same structure, independently registered on two architectures: one
    // path, because it is named by structure, not by machine.
    let server = MetadataServer::bind("127.0.0.1:0").unwrap();
    let a = Xml2Wire::builder().arch(Architecture::X86_64).build();
    let b = Xml2Wire::builder().arch(Architecture::SPARC32).build();
    let fa = a.register_schema_via_server(FLIGHT, &base(&server)).unwrap();
    let fb = b.register_schema_via_server(FLIGHT, &base(&server)).unwrap();
    assert_eq!(fa[0].fingerprint(), fb[0].fingerprint());
    let paths = format_paths(&server, "Flight");
    assert_eq!(paths, [format!("/formats/Flight/{:016x}.xsd", fa[0].fingerprint())]);
}

#[test]
fn structurally_identical_documents_map_to_one_path() {
    // Same structure, different whitespace and formatting.
    let server = MetadataServer::bind("127.0.0.1:0").unwrap();
    let reformatted = xsdlite::Schema::parse_str(FLIGHT).unwrap().to_xml_string();
    assert_ne!(reformatted, FLIGHT);
    Xml2Wire::builder().build().register_schema_via_server(FLIGHT, &base(&server)).unwrap();
    Xml2Wire::builder().build().register_schema_via_server(&reformatted, &base(&server)).unwrap();
    assert_eq!(format_paths(&server, "Flight").len(), 1);
    // A different structure under the same name is a second path.
    let other = FLIGHT.replace("fltNum", "flightNumber");
    Xml2Wire::builder().build().register_schema_via_server(&other, &base(&server)).unwrap();
    assert_eq!(format_paths(&server, "Flight").len(), 2);
}

#[test]
fn receiver_resolves_an_unknown_id_through_the_server() {
    let server = MetadataServer::bind("127.0.0.1:0").unwrap();

    // The sender publishes its format and sends traffic.
    let sender = Xml2Wire::builder().arch(Architecture::SPARC32).build();
    sender.register_schema_via_server(FLIGHT, &base(&server)).unwrap();
    let wire = sender.encode(&flight_record(), "Flight").unwrap();

    // A receiver that has NEVER seen this format: plain decode fails...
    let receiver = Xml2Wire::builder().build();
    assert!(receiver.decode(&wire).is_err());

    // ...but decode_resolving asks the server, binds, and decodes.
    let (format, record) = receiver.decode_resolving(&wire, &base(&server)).unwrap();
    assert_eq!(format.name(), "Flight");
    assert_eq!(record.get("fltNum").unwrap().as_i64(), Some(1202));
    assert_eq!(record.get("eta_count").unwrap().as_i64(), Some(2));

    // Resolution happened once; a later message needs no fetch. The
    // server is gone before it arrives, so a fetch would fail it (an
    // accept count could not tell: the client reuses kept connections).
    let url = base(&server);
    drop(server);
    let wire2 = sender.encode(&flight_record(), "Flight").unwrap();
    assert!(receiver.decode_resolving(&wire2, &url).is_ok(), "the second message fetched");
    assert!(receiver.decode(&wire2).is_ok());
}

#[test]
fn resolving_fails_cleanly_when_the_server_is_gone() {
    let (url, wire) = {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        let sender = Xml2Wire::builder().build();
        sender.register_schema_via_server(FLIGHT, &base(&server)).unwrap();
        (base(&server), sender.encode(&flight_record(), "Flight").unwrap())
    }; // server down

    let receiver = Xml2Wire::builder().build();
    let start = Instant::now();
    let err = receiver.decode_resolving(&wire, &url).unwrap_err();
    let deadline = DiscoveryPolicy::default().total_deadline;
    assert!(start.elapsed() < deadline + Duration::from_millis(500), "{:?}", start.elapsed());
    assert!(err.to_string().contains("/formats/Flight/"), "{err}");
    assert!(receiver.registry().is_empty());
}

#[test]
fn server_ids_and_local_ids_coexist() {
    let server = MetadataServer::bind("127.0.0.1:0").unwrap();

    let session = Xml2Wire::builder().build();
    // A locally registered format...
    session
        .register_schema_str(
            r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Local"><xsd:element name="x" type="xsd:int"/></xsd:complexType>
</xsd:schema>"#,
        )
        .unwrap();
    // ...then a published one land in the same registry without
    // clashing, both stay decodable, and only the second is on the server.
    let flights = session.register_schema_via_server(FLIGHT, &base(&server)).unwrap();
    let w1 = session.encode(&Record::new().with("x", 1i64), "Local").unwrap();
    let w2 = session.encode(&flight_record(), "Flight").unwrap();
    assert!(session.decode(&w1).is_ok());
    assert!(session.decode(&w2).is_ok());
    assert_ne!(session.require_format("Local").unwrap().id(), flights[0].id());
    assert_eq!(server.published_paths().len(), 1);
    assert!(format_paths(&server, "Local").is_empty());
}

#[test]
fn a_fetched_document_that_does_not_match_is_not_bound() {
    let server = MetadataServer::bind("127.0.0.1:0").unwrap();
    let sender = Xml2Wire::builder().build();
    let flight = sender.register_schema_via_server(FLIGHT, &base(&server)).unwrap();
    let wire = sender.encode(&flight_record(), "Flight").unwrap();

    // Another struct named Flight, published at the first one's path.
    let path = format!("/formats/Flight/{:016x}.xsd", flight[0].fingerprint());
    server.publish(&path, FLIGHT.replace("fltNum", "flightNumber"));

    let receiver = Xml2Wire::builder().build();
    receiver
        .register_schema_str(
            r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Local"><xsd:element name="x" type="xsd:int"/></xsd:complexType>
</xsd:schema>"#,
        )
        .unwrap();
    let before = receiver.registry().len();
    let err = receiver.decode_resolving(&wire, &base(&server)).unwrap_err();
    assert!(err.to_string().contains("fingerprint"), "{err}");
    assert!(receiver.registry().by_name("Flight").is_none());
    assert_eq!(receiver.registry().len(), before);

    // With the right document back at the path, the same call decodes.
    server.publish(&path, FLIGHT);
    assert!(receiver.decode_resolving(&wire, &base(&server)).is_ok());
}
