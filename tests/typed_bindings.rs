//! Integration: compile-time typed bindings interoperating with
//! dynamically-bound peers through the broker and the metadata server.
//!
//! The derive's wire-compatibility contract, end to end: a
//! `#[derive(Xml2WireRecord)]` producer publishes bytes a
//! schema-discovering dynamic consumer decodes (and vice versa), the
//! derived schema document round-trips through HTTP discovery into the
//! *same* struct type (fingerprint-identical), and compiled content
//! filters evaluate typed producers' messages unchanged.

use std::sync::Arc;
use std::time::Duration;

use backbone::{Broker, CapturePoint, Consumer, TypedCapture, TypedSubscriber};
use openmeta::prelude::*;
use xml2wire::Xml2WireRecord;

#[derive(Xml2WireRecord, Debug, Clone, PartialEq)]
struct FlightEvent {
    flt_num: i32,
    off: u32,
    dest: String,
    eta: Vec<u32>,
}

fn sample(i: i64) -> FlightEvent {
    FlightEvent {
        flt_num: 100 + i as i32,
        off: 7_000 + i as u32,
        dest: if i % 2 == 0 { "ATL".to_owned() } else { "BOS".to_owned() },
        eta: vec![10 + i as u32, 20 + i as u32],
    }
}

/// A typed producer feeds a dynamic consumer that knows *nothing* at
/// compile time: it discovers `FlightEvent`'s schema over HTTP,
/// binds it, and decodes the typed publisher's bytes — and the
/// discovered struct type is fingerprint-identical to the derived one.
#[test]
fn typed_producer_to_dynamic_consumer_via_discovery() {
    let metadata = MetadataServer::bind("127.0.0.1:0").unwrap();
    let schema = xml2wire::schema_for_struct(&FlightEvent::struct_type());
    metadata.publish("/flight.xsd", schema.to_xml_string());
    let url = metadata.url_for("/flight.xsd");

    let broker = Arc::new(Broker::new());
    let producer_session = Xml2Wire::builder().build();
    let capture = TypedCapture::<FlightEvent>::new(
        Arc::clone(&broker),
        &producer_session,
        "flights",
        Some(url),
    )
    .unwrap();

    let consumer_session =
        Arc::new(Xml2Wire::builder().source(Box::new(UrlSource::new())).build());
    let consumer = Consumer::new(Arc::clone(&broker), consumer_session);
    let sub = consumer.subscribe("flights").unwrap();

    // Discovery reproduced the derived binding exactly.
    assert_eq!(
        pbio::format::struct_fingerprint(sub.format().struct_type()),
        pbio::format::struct_fingerprint(&FlightEvent::struct_type()),
        "schema-discovered struct type must match the derived descriptor"
    );

    for i in 0..5 {
        let value = sample(i);
        capture.publish(&value).unwrap();
        let record = sub.next_record_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(record.get("flt_num").unwrap().as_i64().unwrap(), i64::from(value.flt_num));
        assert_eq!(record.get("off").unwrap().as_i64().unwrap(), i64::from(value.off));
        assert_eq!(
            record.get("dest"),
            Some(&Value::String(value.dest.clone()))
        );
        match record.get("eta") {
            Some(Value::Array(items)) => {
                let got: Vec<i64> = items.iter().map(|v| v.as_i64().unwrap()).collect();
                let want: Vec<i64> = value.eta.iter().map(|v| i64::from(*v)).collect();
                assert_eq!(got, want);
            }
            other => panic!("expected eta array, got {other:?}"),
        }
    }
}

/// The reverse direction: a dynamic `Record`-based capture point
/// publishes, and a `TypedSubscriber` decodes straight into the struct.
#[test]
fn dynamic_producer_to_typed_subscriber() {
    let broker = Arc::new(Broker::new());
    let session = Arc::new(Xml2Wire::builder().build());
    session.register_compiled(FlightEvent::struct_type()).unwrap();
    let capture = CapturePoint::new(
        Arc::clone(&broker),
        Arc::clone(&session),
        "flights-dyn",
        FlightEvent::FORMAT_NAME,
        None,
    )
    .unwrap();
    let sub = TypedSubscriber::<FlightEvent>::new(&broker, "flights-dyn").unwrap();

    for i in 0..5 {
        let want = sample(i);
        let mut record = Record::new();
        record.set("flt_num", Value::Int(i64::from(want.flt_num)));
        record.set("off", Value::UInt(u64::from(want.off)));
        record.set("dest", Value::String(want.dest.clone()));
        record.set(
            "eta",
            Value::Array(want.eta.iter().map(|v| Value::UInt(u64::from(*v))).collect()),
        );
        capture.publish(&record).unwrap();
        let got = sub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, want, "typed view must reproduce the dynamic record");
    }
}

/// Compiled content filters treat a typed producer like any other:
/// `TypedCapture` registers the derived struct type, so predicates
/// typecheck and evaluate against the typed publisher's bytes.
#[test]
fn typed_publish_through_compiled_filters() {
    let broker = Arc::new(Broker::new());
    let session = Xml2Wire::builder().build();
    let capture =
        TypedCapture::<FlightEvent>::new(Arc::clone(&broker), &session, "flights-filt", None)
            .unwrap();
    let atl =
        TypedSubscriber::<FlightEvent>::filtered(&broker, "flights-filt", "dest == \"ATL\"")
            .unwrap();

    let values: Vec<FlightEvent> = (0..6).map(sample).collect();
    capture.publish_batch(&values).unwrap();
    for want in values.iter().filter(|v| v.dest == "ATL") {
        let got = atl.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&got, want);
    }
    assert!(atl.raw().try_recv().is_none(), "non-ATL flights must be filtered out");
}

/// A typed subscriber bound to the wrong struct fails closed with a
/// fingerprint mismatch instead of misdecoding foreign bytes.
#[test]
fn typed_subscriber_rejects_foreign_streams() {
    #[derive(Xml2WireRecord, Debug)]
    struct WeatherObs {
        station: String,
        temp: f64,
    }

    let broker = Arc::new(Broker::new());
    let session = Xml2Wire::builder().build();
    let capture =
        TypedCapture::<FlightEvent>::new(Arc::clone(&broker), &session, "flights-x", None)
            .unwrap();
    let wrong = TypedSubscriber::<WeatherObs>::new(&broker, "flights-x").unwrap();
    capture.publish(&sample(1)).unwrap();
    match wrong.recv_timeout(Duration::from_secs(5)) {
        Err(backbone::BackboneError::BadFrame { detail }) => {
            assert!(detail.contains("fingerprint"), "unexpected detail: {detail}");
        }
        other => panic!("expected BadFrame on fingerprint mismatch, got {other:?}"),
    }
}
