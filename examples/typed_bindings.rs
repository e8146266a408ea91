//! Compile-time typed bindings against a dynamically-bound peer
//! (DESIGN §6.14).
//!
//! The dynamic pipeline discovers a producer's type at first contact.
//! When the producer's struct is known at compile time,
//! `#[derive(Xml2WireRecord)]` binds it at compile time instead: the
//! derived descriptor is exactly what the XSD binder would produce, and
//! the struct is marshaled through the same compiled layout as a
//! reflective `Record`, so it is byte-compatible with every
//! dynamically-bound peer. This example runs both sides of that bargain:
//!
//! 1. a *typed* producer publishes derived `FlightEvent`s while a
//!    *dynamic* consumer — which knows nothing at compile time —
//!    discovers the generated XSD over HTTP and decodes the stream;
//! 2. a *dynamic* producer publishes reflective `Record`s while a
//!    *typed* subscriber decodes them straight into the struct;
//! 3. a compiled content filter evaluates the typed producer's wire
//!    images like any other stream's.
//!
//! Run with: `cargo run --example typed_bindings`

use std::sync::Arc;
use std::time::Duration;

use backbone::{Broker, CapturePoint, Consumer, TypedCapture, TypedSubscriber};
use openmeta::prelude::*;
use xml2wire::Xml2WireRecord; // the trait *and* the derive macro

#[derive(Xml2WireRecord, Debug, Clone, PartialEq)]
struct FlightEvent {
    flt_num: i32,
    dest: String,
    eta: Vec<u32>,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Typed producer → dynamic consumer -----------------------
    //
    // The derived descriptor has a schema document; serving it from a
    // metadata server makes the compile-time type discoverable exactly
    // like a hand-written schema.
    let schema = xml2wire::schema_for_struct(&FlightEvent::struct_type()).to_xml_string();
    let metadata = MetadataServer::bind("127.0.0.1:0")?;
    metadata.publish("/flight.xsd", schema.clone());
    let url = metadata.url_for("/flight.xsd");
    println!("generated schema served at {url}:\n{schema}\n");

    let broker = Arc::new(Broker::new());
    let producer_session = Xml2Wire::builder().build();
    let capture = TypedCapture::<FlightEvent>::new(
        Arc::clone(&broker),
        &producer_session,
        "flights",
        Some(url),
    )?;

    // The consumer is fully dynamic: it discovers the schema over HTTP
    // and binds it with the same XSD binder any other peer would use.
    let consumer_session = Arc::new(Xml2Wire::builder().source(Box::new(UrlSource::new())).build());
    let consumer = Consumer::new(Arc::clone(&broker), consumer_session);
    let sub = consumer.subscribe("flights")?;
    println!(
        "dynamic consumer bound {} (fingerprint match with the derive: {})",
        sub.format().name(),
        pbio::format::struct_fingerprint(sub.format().struct_type())
            == pbio::format::struct_fingerprint(&FlightEvent::struct_type()),
    );

    capture.publish(&FlightEvent { flt_num: 1202, dest: "ATL".into(), eta: vec![10, 20] })?;
    let record = sub.next_record_timeout(Duration::from_secs(5))?;
    println!("dynamic consumer decoded the typed producer's bytes: {record}\n");

    // --- 2. Dynamic producer → typed subscriber ---------------------
    //
    // The reverse direction needs no ceremony either: registering the
    // derived descriptor gives the session the same format a schema
    // would, and the typed subscriber decodes the reflective
    // producer's wire image directly into the struct.
    let session = Arc::new(Xml2Wire::builder().build());
    session.register_compiled(FlightEvent::struct_type())?;
    let dynamic_capture = CapturePoint::new(
        Arc::clone(&broker),
        Arc::clone(&session),
        "flights-dyn",
        FlightEvent::FORMAT_NAME,
        None,
    )?;
    let typed_sub = TypedSubscriber::<FlightEvent>::new(&broker, "flights-dyn")?;

    dynamic_capture.publish(
        &Record::new()
            .with("flt_num", 88i64)
            .with("dest", "BOS")
            .with("eta", Value::Array(vec![Value::UInt(7)])),
    )?;
    let event: FlightEvent = typed_sub.recv_timeout(Duration::from_secs(5))?;
    println!("typed subscriber decoded the dynamic producer's bytes: {event:?}\n");

    // --- 3. Compiled filters see nothing special --------------------
    //
    // TypedCapture registered the struct type, so content predicates
    // typecheck and run against the typed producer's wire images
    // unchanged.
    let atl = TypedSubscriber::<FlightEvent>::filtered(&broker, "flights", "dest == \"ATL\"")?;
    capture.publish(&FlightEvent { flt_num: 1, dest: "BOS".into(), eta: vec![] })?;
    capture.publish(&FlightEvent { flt_num: 2, dest: "ATL".into(), eta: vec![9] })?;
    let matched = atl.recv_timeout(Duration::from_secs(5))?;
    println!("filtered typed subscriber received only the match: {matched:?}");
    Ok(())
}
