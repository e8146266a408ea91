//! Integration: the full discover → bind → marshal → socket → unmarshal
//! pipeline across simulated heterogeneous machines and all three wire
//! codecs.

#[path = "../crates/pbio/tests/codecs/mod.rs"]
mod codecs;

use std::sync::Arc;
use std::time::Duration;

use backbone::airline::{AirlineGenerator, ASD_SCHEMA};
use backbone::{EventClient, EventServer, Frame};
use openmeta::prelude::*;

/// A full sender→TCP→receiver round trip where the two endpoints bound
/// the same discovered metadata for different architectures.
#[test]
fn ndr_round_trip_over_tcp_between_heterogeneous_peers() {
    let metadata = MetadataServer::bind("127.0.0.1:0").unwrap();
    metadata.publish("/asd.xsd", ASD_SCHEMA);
    let url = metadata.url_for("/asd.xsd");

    // Receiver: x86-64, discovers metadata, echoes decoded flight
    // numbers back as a tiny ack payload.
    let receiver = Arc::new(
        Xml2Wire::builder()
            .arch(Architecture::X86_64)
            .source(Box::new(UrlSource::new()))
            .build(),
    );
    receiver.discover(&url).unwrap();
    let server = {
        let receiver = Arc::clone(&receiver);
        EventServer::bind(
            "127.0.0.1:0",
            Arc::new(move |frame: Frame| {
                let (_, record) = receiver.decode(&frame.payload).unwrap();
                let flt = record.get("fltNum").unwrap().as_i64().unwrap();
                Some(Frame::new(frame.stream, flt.to_le_bytes().to_vec()))
            }),
        )
        .unwrap()
    };

    // Sender: big-endian 32-bit, discovers the same metadata.
    let sender = Xml2Wire::builder()
        .arch(Architecture::SPARC32)
        .source(Box::new(UrlSource::new()))
        .build();
    sender.discover(&url).unwrap();

    let mut client = EventClient::connect(server.local_addr()).unwrap();
    let mut generator = AirlineGenerator::seeded(99);
    for _ in 0..20 {
        let record = generator.flight_event();
        let wire = sender.encode(&record, "ASDOffEvent").unwrap();
        let reply = client.request(&Frame::new("asd", wire)).unwrap();
        let expected = record.get("fltNum").unwrap().as_i64().unwrap();
        assert_eq!(reply.payload, expected.to_le_bytes());
    }
}

/// Every codec delivers identical values through the backbone transport.
#[test]
fn all_codecs_deliver_identical_values_over_tcp() {
    let session = Xml2Wire::builder().build();
    session.register_schema_str(ASD_SCHEMA).unwrap();
    let format = session.require_format("ASDOffEvent").unwrap();
    let record = AirlineGenerator::seeded(5).flight_event();

    // Echo server: just bounces payloads.
    let server = EventServer::bind("127.0.0.1:0", Arc::new(Some)).unwrap();

    for (name, encode, decode) in codecs::CODECS {
        let mut client = EventClient::connect(server.local_addr()).unwrap();
        let wire = encode(&record, &format).unwrap();
        let reply = client.request(&Frame::new(name, wire)).unwrap();
        let decoded = decode(&reply.payload, &format).unwrap();
        assert_eq!(
            decoded.get("fltNum").unwrap().as_i64(),
            record.get("fltNum").unwrap().as_i64(),
            "codec {name}"
        );
        assert_eq!(
            decoded.get("cntrID").unwrap().as_str(),
            record.get("cntrID").unwrap().as_str(),
            "codec {name}"
        );
    }
}

/// One server, many concurrent clients — the paper's "single servers must
/// provide information to large numbers of clients" scalability shape.
#[test]
fn many_clients_share_one_receiver() {
    let session = Arc::new(Xml2Wire::builder().build());
    session.register_schema_str(ASD_SCHEMA).unwrap();
    let server = {
        let session = Arc::clone(&session);
        EventServer::bind(
            "127.0.0.1:0",
            Arc::new(move |frame: Frame| {
                let (_, record) = session.decode(&frame.payload).unwrap();
                Some(Frame::new(
                    frame.stream,
                    vec![record.get("eta_count").unwrap().as_u64().unwrap() as u8],
                ))
            }),
        )
        .unwrap()
    };

    let addr = server.local_addr();
    let handles: Vec<_> = (0..8)
        .map(|seed| {
            let session = Arc::clone(&session);
            std::thread::spawn(move || {
                let mut client = EventClient::connect(addr).unwrap();
                let mut generator = AirlineGenerator::seeded(seed);
                for _ in 0..10 {
                    let record = generator.flight_event();
                    let wire = session.encode(&record, "ASDOffEvent").unwrap();
                    let reply = client.request(&Frame::new("asd", wire)).unwrap();
                    let expected =
                        record.get("eta").unwrap().as_array().unwrap().len() as u8;
                    assert_eq!(reply.payload, vec![expected]);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// The broker + capture point + discovering consumer pipeline from the
/// scenario, kept flowing across an in-process backbone while the
/// metadata server serves two different schema documents.
#[test]
fn multi_stream_backbone_with_runtime_discovery() {
    use backbone::airline::{WEATHER_SCHEMA, WEATHER_STREAM};

    let metadata = MetadataServer::bind("127.0.0.1:0").unwrap();
    metadata.publish("/asd.xsd", ASD_SCHEMA);
    metadata.publish("/wx.xsd", WEATHER_SCHEMA);

    let broker = Arc::new(Broker::new());
    let producer = Arc::new(Xml2Wire::builder().build());
    producer.register_schema_str(ASD_SCHEMA).unwrap();
    producer.register_schema_str(WEATHER_SCHEMA).unwrap();

    let flights = CapturePoint::new(
        Arc::clone(&broker),
        Arc::clone(&producer),
        "asd",
        "ASDOffEvent",
        Some(metadata.url_for("/asd.xsd")),
    )
    .unwrap();
    let weather = CapturePoint::new(
        Arc::clone(&broker),
        Arc::clone(&producer),
        WEATHER_STREAM,
        "WeatherObs",
        Some(metadata.url_for("/wx.xsd")),
    )
    .unwrap();

    let consumer_session =
        Arc::new(Xml2Wire::builder().source(Box::new(UrlSource::new())).build());
    let consumer = Consumer::new(Arc::clone(&broker), consumer_session);
    let flight_sub = consumer.subscribe("asd").unwrap();
    let weather_sub = consumer.subscribe(WEATHER_STREAM).unwrap();

    let mut generator = AirlineGenerator::seeded(31);
    for _ in 0..10 {
        flights.publish(&generator.flight_event()).unwrap();
        weather.publish(&generator.weather_event()).unwrap();
    }
    for _ in 0..10 {
        let f = flight_sub.next_record_timeout(Duration::from_secs(2)).unwrap();
        assert!(f.get("fltNum").unwrap().as_i64().unwrap() > 0);
        let w = weather_sub.next_record_timeout(Duration::from_secs(2)).unwrap();
        assert!(w.get("station").unwrap().as_str().unwrap().starts_with('K'));
    }

    let infos = broker.streams();
    assert_eq!(infos.iter().map(|i| i.published).sum::<u64>(), 20);
}
