//! The grand tour: every subsystem in one scenario.
//!
//! An airline deploys the full stack — one metadata server (with dynamic
//! scoped generation, HTTP-POST registration and formats resolved by
//! name and fingerprint), event backbone over real TCP, heterogeneous
//! producers, discovering consumers, format evolution, and archival —
//! and it all interoperates.

use std::sync::Arc;

use backbone::airline::AirlineGenerator;
use backbone::{EventClient, EventServer, Frame, FormatScope};
use openmeta::prelude::*;
use xml2wire::server::http_post;
use xml2wire::{ArchiveReader, ArchiveWriter};

const FLIGHT_V1: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="FlightOps">
    <xsd:element name="arln" type="xsd:string"/>
    <xsd:element name="fltNum" type="xsd:integer"/>
    <xsd:element name="dest" type="xsd:string"/>
    <xsd:element name="crewNotes" type="xsd:string"/>
    <xsd:element name="eta" type="xsd:unsigned-long" maxOccurs="eta_count"/>
    <xsd:element name="eta_count" type="xsd:integer"/>
  </xsd:complexType>
</xsd:schema>"#;

#[test]
fn the_whole_system_interoperates() {
    // --- Infrastructure --------------------------------------------------
    let metadata = MetadataServer::bind("127.0.0.1:0").unwrap();

    // The producer *pushes* its metadata to the server over HTTP (no
    // shared filesystem), the catalogue here and each format at the path
    // its name and fingerprint give it below.
    let full_url = metadata.url_for("/schemas/flight-ops.xsd");
    http_post(&full_url, FLIGHT_V1).unwrap();

    // A scoped variant is generated dynamically per requestor role.
    let full_schema = xsdlite::Schema::parse_str(FLIGHT_V1).unwrap();
    {
        let full_schema = full_schema.clone();
        metadata.publish_dynamic(
            "/scoped/flight-ops.xsd",
            Box::new(move |path| {
                let scope = FormatScope::new("public", ["arln", "fltNum", "dest", "eta"]);
                path.contains("role=public")
                    .then(|| scope.scoped_schema(&full_schema, "FlightOps").ok())
                    .flatten()
                    .map(|s| s.to_xml_string())
            }),
        );
    }

    // --- Producer (big-endian ILP32 machine) -------------------------------
    let producer = Arc::new(
        Xml2Wire::builder()
            .arch(Architecture::SPARC32)
            .source(Box::new(UrlSource::new()))
            .build(),
    );
    producer.register_schema_via_server(FLIGHT_V1, &metadata.url_for("")).unwrap();

    // --- Dispatcher consumer: full format, discovered over HTTP -----------
    let dispatcher = Arc::new(
        Xml2Wire::builder().source(Box::new(UrlSource::new())).build(),
    );
    dispatcher.discover(&full_url).unwrap();

    // --- Public consumer: scoped format ------------------------------------
    let public = Xml2Wire::builder().source(Box::new(UrlSource::new())).build();
    public
        .discover(&metadata.url_for("/scoped/flight-ops.xsd?role=public"))
        .unwrap();
    assert_eq!(
        public.require_format("FlightOps").unwrap().struct_type().fields.len(),
        5, // arln fltNum dest eta eta_count — crewNotes stripped
    );

    // --- TCP event distribution: dispatcher behind a real socket ----------
    let event_server = {
        let dispatcher = Arc::clone(&dispatcher);
        EventServer::bind(
            "127.0.0.1:0",
            Arc::new(move |frame: Frame| {
                let (_, record) = dispatcher.decode(&frame.payload).unwrap();
                // The dispatcher sees the sensitive field.
                assert!(record.get("crewNotes").is_some());
                Some(Frame::new(frame.stream, vec![1]))
            }),
        )
        .unwrap()
    };
    let mut wire_client = EventClient::connect(event_server.local_addr()).unwrap();

    let mut generator = AirlineGenerator::seeded(404);
    let scope = FormatScope::new("public", ["arln", "fltNum", "dest", "eta"]);
    let full_type = full_schema.complex_type("FlightOps").unwrap();
    let archive_session = Arc::new(Xml2Wire::builder().build());
    archive_session.register_schema_str(FLIGHT_V1).unwrap();
    let mut archive = ArchiveWriter::create(Vec::new(), Arc::clone(&archive_session));
    archive.declare_format("FlightOps").unwrap();

    for i in 0..10 {
        let base = generator.flight_event();
        let record = Record::new()
            .with("arln", base.get("arln").unwrap().clone())
            .with("fltNum", base.get("fltNum").unwrap().clone())
            .with("dest", base.get("dest").unwrap().clone())
            .with("crewNotes", format!("note {i}"))
            .with("eta", base.get("eta").unwrap().clone());

        // Full-fidelity message to the dispatcher over TCP.
        let wire = producer.encode(&record, "FlightOps").unwrap();
        let ack = wire_client.request(&Frame::new("ops", wire.clone())).unwrap();
        assert_eq!(ack.payload, vec![1]);

        // Projected message for the public subscriber class.
        let projected = scope.project(&record, full_type);
        let public_wire = public.encode(&projected, "FlightOps").unwrap();
        let (_, seen) = public.decode(&public_wire).unwrap();
        assert!(seen.get("crewNotes").is_none());

        // Archive the full record for later replay.
        archive.append(&record, "FlightOps").unwrap();
    }

    // --- A cold receiver resolves the producer's format on the server -----
    let cold = Xml2Wire::builder().build();
    let wire = producer
        .encode(
            &Record::new()
                .with("arln", "DL")
                .with("fltNum", 1i64)
                .with("dest", "BOS")
                .with("crewNotes", "")
                .with("eta", vec![1u64]),
            "FlightOps",
        )
        .unwrap();
    let (resolved, record) = cold.decode_resolving(&wire, &metadata.url_for("")).unwrap();
    assert_eq!(resolved.name(), "FlightOps");
    assert_eq!(record.get("dest").unwrap().as_str(), Some("BOS"));

    // --- Archive replays with zero prior knowledge ------------------------
    let bytes = archive.finish().unwrap();
    let mut replay = ArchiveReader::open(&bytes[..]).unwrap();
    let entries: Vec<_> = replay.records().collect::<Result<_, _>>().unwrap();
    assert_eq!(entries.len(), 10);
    assert_eq!(entries[3].1.get("crewNotes").unwrap().as_str(), Some("note 3"));

    // --- Evolution: the producer ships v2; the dispatcher reconciles ------
    let v2 = FLIGHT_V1.replace(
        "<xsd:element name=\"eta\"",
        "<xsd:element name=\"gate\" type=\"xsd:string\"/>\n    <xsd:element name=\"eta\"",
    );
    http_post(&full_url, &v2).unwrap();
    let producer_v2 = Xml2Wire::builder().source(Box::new(UrlSource::new())).build();
    producer_v2.discover(&full_url).unwrap();
    let v2_wire = producer_v2
        .encode(
            &Record::new()
                .with("arln", "DL")
                .with("fltNum", 2i64)
                .with("dest", "ORD")
                .with("crewNotes", "")
                .with("gate", "B9")
                .with("eta", vec![5u64]),
            "FlightOps",
        )
        .unwrap();
    // Dispatcher re-discovers, decodes v2, reconciles to the v1 shape its
    // application logic was written against.
    let v1_struct = dispatcher.require_format("FlightOps").unwrap().struct_type().clone();
    dispatcher.discover(&full_url).unwrap();
    let (_, v2_record) = dispatcher.decode(&v2_wire).unwrap();
    let as_v1 = pbio::evolution::reconcile(&v2_record, &v1_struct).unwrap();
    assert!(as_v1.get("gate").is_none());
    assert_eq!(as_v1.get("dest").unwrap().as_str(), Some("ORD"));
}
