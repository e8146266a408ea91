//! Capture points and consumers: the discover → subscribe → decode
//! pipeline of Figure 3.

use std::sync::{Arc, Mutex};

use clayout::Record;
use pbio::Format;
use xml2wire::Xml2Wire;

use crate::broker::{Broker, PublishHandle, Spares, Subscription};
use crate::error::BackboneError;
use crate::unpoisoned;

/// A capture point: publishes records of one format onto one stream
/// (the FAA feed, the NOAA feed, the data-mining process of §2).
///
/// The hot path is allocation-pooled: records are encoded into a
/// retained scratch buffer (header prefix memoized in the resolved
/// [`Format`], payload built in place) and copied into an event the
/// capture point published earlier and every holder has dropped since,
/// so a warm publish allocates nothing; only while every earlier event
/// is still in flight does a message get a new exact-size payload and
/// [`Arc`]. The publish route itself is pinned too: a
/// [`PublishHandle`] resolved at creation time routes straight to the
/// stream's shard, so publishing touches neither the format registry
/// nor the broker's stream registry per message.
#[derive(Debug)]
pub struct CapturePoint {
    /// Kept so the broker's dispatch workers outlive every capture
    /// point that can still publish through them.
    _broker: Arc<Broker>,
    handle: PublishHandle,
    stream: Arc<str>,
    format_name: Arc<str>,
    format: Arc<Format>,
    /// The encode buffer and the events published from it.
    pool: Mutex<(Vec<u8>, Spares)>,
}

impl CapturePoint {
    /// Creates a capture point and registers its stream with the broker,
    /// advertising `metadata_locator` for subscribers to discover.
    ///
    /// The session must already know `format_name` (the producer always
    /// knows its own format — typically it *published* the metadata);
    /// the resolved format is pinned here so publishing skips the
    /// per-message registry lookup.
    ///
    /// # Errors
    ///
    /// Fails if the session does not know the format.
    pub fn new(
        broker: Arc<Broker>,
        session: Arc<Xml2Wire>,
        stream: impl Into<Arc<str>>,
        format_name: impl Into<Arc<str>>,
        metadata_locator: Option<String>,
    ) -> Result<Self, BackboneError> {
        let stream = stream.into();
        let format_name = format_name.into();
        let format = session.require_format(&format_name)?;
        broker.create_stream(stream.to_string(), metadata_locator);
        // Register the message schema so subscribers can attach
        // compiled content filters (`subscribe_filtered`) without the
        // producer doing anything extra.
        broker.register_stream_type(&stream, format.struct_type().clone())?;
        let handle = broker.publish_handle(&stream)?;
        Ok(CapturePoint {
            _broker: broker,
            handle,
            stream,
            format_name,
            format,
            pool: Mutex::default(),
        })
    }

    /// Encodes and publishes one record; returns the subscriber count
    /// it reached.
    ///
    /// # Errors
    ///
    /// Encoding or broker failures.
    pub fn publish(&self, record: &Record) -> Result<usize, BackboneError> {
        let mut pool = unpoisoned(self.pool.lock());
        self.publish_from(&mut pool, record)
    }

    /// Publishes a batch, returning the total deliveries. The pool is
    /// locked once for the whole batch.
    ///
    /// # Errors
    ///
    /// As [`publish`](Self::publish); stops at the first failure.
    pub fn publish_batch(&self, records: &[Record]) -> Result<usize, BackboneError> {
        let mut pool = unpoisoned(self.pool.lock());
        let mut total = 0;
        for record in records {
            total += self.publish_from(&mut pool, record)?;
        }
        Ok(total)
    }

    /// Encodes into the pool's buffer (reusing its capacity) and
    /// publishes a copy in one of the pool's events.
    fn publish_from(
        &self,
        (scratch, spares): &mut (Vec<u8>, Spares),
        record: &Record,
    ) -> Result<usize, BackboneError> {
        pbio::ndr::encode_into(scratch, record, &self.format)?;
        self.handle.publish_pooled(&self.format_name, scratch, spares)
    }

    /// The stream this capture point feeds.
    pub fn stream(&self) -> &str {
        &self.stream
    }
}

/// A consumer: subscribes to streams, discovering each stream's metadata
/// at subscription time through its session's discovery chain.
#[derive(Debug)]
pub struct Consumer {
    broker: Arc<Broker>,
    session: Arc<Xml2Wire>,
}

/// An active subscription with its discovered format.
#[derive(Debug)]
pub struct DecodedSubscription {
    subscription: Subscription,
    session: Arc<Xml2Wire>,
    format: Arc<Format>,
}

impl Consumer {
    /// Creates a consumer over `broker` using `session` for discovery
    /// and decoding.
    pub fn new(broker: Arc<Broker>, session: Arc<Xml2Wire>) -> Self {
        Consumer { broker, session }
    }

    /// Subscribes to `stream`: looks up the stream's advertised metadata
    /// locator, runs discovery (with whatever fallback the session's
    /// chain provides), binds the format, and returns a decoding
    /// subscription.
    ///
    /// The stream's format is the document's first complex type, and
    /// only it and the types it is composed of are fetched, compiled and
    /// bound ([`Xml2Wire::discover_root`]): the metadata server checked
    /// the whole catalogue once and sends the joiner that closure, so a
    /// catalogue of many formats costs a join what the stream's own types
    /// cost, and a defect in a type the stream never uses does not stop
    /// it. A malformed document, a type name declared twice, or a defect
    /// in the stream's own types does — reported as for the whole
    /// document, which is what a server that does not cut closures
    /// sends, and which the session then checks itself.
    ///
    /// This is the paper's claim made concrete: a brand-new consumer
    /// needs *no compiled-in knowledge* of the stream's message format.
    ///
    /// # Errors
    ///
    /// Unknown streams, discovery failures, binding failures.
    pub fn subscribe(&self, stream: &str) -> Result<DecodedSubscription, BackboneError> {
        let locator =
            self.broker.metadata_locator(stream).ok_or_else(|| BackboneError::UnknownStream {
                name: stream.to_owned(),
            })?;
        let formats = self.session.discover_root(&locator)?;
        let format = formats.into_iter().next().ok_or_else(|| BackboneError::Metadata(
            xml2wire::X2wError::Binding {
                complex_type: stream.to_owned(),
                detail: "discovered document defines no complex types".to_owned(),
            },
        ))?;
        let subscription = self.broker.subscribe(stream)?;
        Ok(DecodedSubscription {
            subscription,
            session: Arc::clone(&self.session),
            format,
        })
    }
}

impl DecodedSubscription {
    /// The discovered format for this stream.
    pub fn format(&self) -> &Arc<Format> {
        &self.format
    }

    /// Blocks for the next event and decodes it.
    ///
    /// # Errors
    ///
    /// Disconnection or decode failures.
    pub fn next_record(&self) -> Result<Record, BackboneError> {
        let event = self.subscription.recv()?;
        let (_, record) = self.session.decode(&event.payload)?;
        Ok(record)
    }

    /// Waits up to `timeout` for the next event and decodes it.
    ///
    /// # Errors
    ///
    /// Disconnection, timeout, or decode failures.
    pub fn next_record_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<Record, BackboneError> {
        let event = self.subscription.recv_timeout(timeout)?;
        let (_, record) = self.session.decode(&event.payload)?;
        Ok(record)
    }

    /// The raw subscription, for callers that want undecoded events.
    pub fn raw(&self) -> &Subscription {
        &self.subscription
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airline::{AirlineGenerator, ASD_SCHEMA, ASD_STREAM};
    use std::time::Duration;
    use xml2wire::{MetadataServer, UrlSource};

    /// Builds the full Figure 3 pipeline: metadata server + producer +
    /// discovering consumer.
    fn pipeline() -> (MetadataServer, Arc<Broker>, CapturePoint, Consumer) {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/schemas/asd.xsd", ASD_SCHEMA);

        let broker = Arc::new(Broker::new());

        let producer_session = Arc::new(xml2wire::Xml2Wire::builder().build());
        producer_session.register_schema_str(ASD_SCHEMA).unwrap();
        let capture = CapturePoint::new(
            Arc::clone(&broker),
            producer_session,
            ASD_STREAM,
            "ASDOffEvent",
            Some(server.url_for("/schemas/asd.xsd")),
        )
        .unwrap();

        let consumer_session = Arc::new(
            xml2wire::Xml2Wire::builder().source(Box::new(UrlSource::new())).build(),
        );
        let consumer = Consumer::new(Arc::clone(&broker), consumer_session);
        (server, broker, capture, consumer)
    }

    #[test]
    fn consumer_discovers_format_and_decodes_events() {
        let (_server, _broker, capture, consumer) = pipeline();
        let sub = consumer.subscribe(ASD_STREAM).unwrap();
        assert_eq!(sub.format().name(), "ASDOffEvent");

        let mut generator = AirlineGenerator::seeded(1);
        let record = generator.flight_event();
        capture.publish(&record).unwrap();

        let decoded = sub.next_record_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(
            decoded.get("arln").unwrap().as_str(),
            record.get("arln").unwrap().as_str()
        );
    }

    #[test]
    fn spare_lists_stay_within_their_byte_cap() {
        // A subscriber that never reads keeps every event in flight:
        // the capture point's spares fill to the cap and then keep
        // nothing more.
        let (_server, broker, capture, _consumer) = pipeline();
        let never_read = broker.subscribe(ASD_STREAM).unwrap();
        let records = AirlineGenerator::seeded(4).flight_events(64);
        let spare_bytes = || unpoisoned(capture.pool.lock()).1.bytes();
        let mut most = 0;
        for _ in 0..100 {
            capture.publish_batch(&records).unwrap();
            assert!(spare_bytes() <= crate::broker::SPARE_BYTES);
            most = most.max(spare_bytes());
        }
        assert!(most > crate::broker::SPARE_BYTES / 2, "the spares never filled: {most} bytes");
        drop(never_read);
    }

    #[test]
    fn capture_point_requires_a_known_format() {
        let broker = Arc::new(Broker::new());
        let session = Arc::new(xml2wire::Xml2Wire::builder().build());
        assert!(CapturePoint::new(broker, session, "s", "Unknown", None).is_err());
    }

    #[test]
    fn subscribing_to_a_stream_without_metadata_fails() {
        let broker = Arc::new(Broker::new());
        broker.create_stream("bare", None);
        let session = Arc::new(xml2wire::Xml2Wire::builder().build());
        let consumer = Consumer::new(broker, session);
        assert!(consumer.subscribe("bare").is_err());
    }

    #[test]
    fn batch_publish_reaches_all_subscribers() {
        let (_server, _broker, capture, consumer) = pipeline();
        let sub_a = consumer.subscribe(ASD_STREAM).unwrap();
        let sub_b = consumer.subscribe(ASD_STREAM).unwrap();
        let mut generator = AirlineGenerator::seeded(2);
        let records = generator.flight_events(5);
        let delivered = capture.publish_batch(&records).unwrap();
        assert_eq!(delivered, 10); // 5 events × 2 subscribers
        for _ in 0..5 {
            sub_a.next_record_timeout(Duration::from_secs(1)).unwrap();
            sub_b.next_record_timeout(Duration::from_secs(1)).unwrap();
        }
    }

    #[test]
    fn capture_point_registers_schema_for_content_filters() {
        let (_server, broker, capture, _consumer) = pipeline();
        // CapturePoint::new registered the struct type; subscribers can
        // attach compiled predicates with zero producer involvement.
        assert!(broker.stream_type(ASD_STREAM).is_some());
        let sub = broker
            .subscribe_filtered(ASD_STREAM, r#"fltNum > 5000 && dest == "ATL""#)
            .unwrap();

        let mut generator = AirlineGenerator::seeded(3);
        for (num, dest) in [(100i64, "ATL"), (7777, "ATL"), (9000, "ORD")] {
            let record =
                generator.flight_event().with("fltNum", num).with("dest", dest);
            capture.publish(&record).unwrap();
        }

        let session = xml2wire::Xml2Wire::builder().build();
        session.register_schema_str(ASD_SCHEMA).unwrap();
        let event = sub.recv_timeout(Duration::from_secs(2)).unwrap();
        let (_, decoded) = session.decode(&event.payload).unwrap();
        assert_eq!(decoded.get("fltNum").unwrap().as_i64(), Some(7777));
        assert!(sub.recv_timeout(Duration::from_millis(50)).is_err());
    }

    #[test]
    fn discovery_failure_surfaces_as_metadata_error() {
        let broker = Arc::new(Broker::new());
        broker.create_stream("s", Some("http://127.0.0.1:1/dead.xsd".to_owned()));
        let session = Arc::new(
            xml2wire::Xml2Wire::builder().source(Box::new(UrlSource::new())).build(),
        );
        let consumer = Consumer::new(broker, session);
        assert!(matches!(
            consumer.subscribe("s"),
            Err(BackboneError::Metadata(_))
        ));
    }

    /// [`ASD_SCHEMA`] with `types` declared after its `ASDOffEvent`.
    fn asd_catalogue(types: &str) -> String {
        ASD_SCHEMA.replace("</xsd:schema>", &format!("{types}\n</xsd:schema>"))
    }

    /// A consumer with a URL source, and a stream `s` whose metadata is
    /// `document`, served by the returned server.
    fn consumer_of(document: &str) -> (MetadataServer, Arc<Broker>, Consumer) {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/s.xsd", document);
        let broker = Arc::new(Broker::new());
        broker.create_stream("s", Some(server.url_for("/s.xsd")));
        let session = xml2wire::Xml2Wire::builder().source(Box::new(UrlSource::new())).build();
        let consumer = Consumer::new(Arc::clone(&broker), Arc::new(session));
        (server, broker, consumer)
    }

    fn schema_error(result: Result<DecodedSubscription, BackboneError>) -> xsdlite::SchemaError {
        match result {
            Err(BackboneError::Metadata(xml2wire::X2wError::Schema(e))) => e,
            other => panic!("expected a schema error, got {other:?}"),
        }
    }

    #[test]
    fn a_defect_in_a_type_the_stream_never_uses_does_not_stop_the_join() {
        let catalogue = asd_catalogue(
            r#"<xsd:complexType name="Filler"><xsd:element name="q" type="xsd:quaternion"/></xsd:complexType>"#,
        );
        assert!(xsdlite::Schema::parse_str(&catalogue).is_err());
        let (server, _broker, capture, consumer) = pipeline();
        server.publish("/schemas/asd.xsd", catalogue);
        let sub = consumer.subscribe(ASD_STREAM).unwrap();
        assert_eq!(sub.format().name(), "ASDOffEvent");
        let record = AirlineGenerator::seeded(4).flight_event();
        capture.publish(&record).unwrap();
        let decoded = sub.next_record_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(decoded.get("fltNum"), record.get("fltNum"));
    }

    #[test]
    fn malformed_xml_anywhere_in_the_catalogue_fails_the_join() {
        let catalogue = asd_catalogue(r#"<xsd:complexType name="Filler"><oops></xsd:complexType>"#);
        let (_server, _broker, consumer) = consumer_of(&catalogue);
        assert!(matches!(schema_error(consumer.subscribe("s")), xsdlite::SchemaError::Xml(_)));
        // So does a type name declared twice, reached or not.
        let twice = asd_catalogue(
            r#"<xsd:complexType name="F"><xsd:element name="a" type="xsd:int"/></xsd:complexType>
               <xsd:complexType name="F"><xsd:element name="b" type="xsd:int"/></xsd:complexType>"#,
        );
        let (_server, _broker, consumer) = consumer_of(&twice);
        assert!(matches!(
            schema_error(consumer.subscribe("s")),
            xsdlite::SchemaError::DuplicateType { .. }
        ));
    }

    /// The stream's type is the document's first complex type, so what it
    /// is composed of and declared before it is a simple type.
    #[test]
    fn a_root_composed_of_an_earlier_type_binds_both_and_decodes() {
        let document = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="Carrier">
    <xsd:restriction base="xsd:string"><xsd:maxLength value="3"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:complexType name="Leg">
    <xsd:element name="arln" type="Carrier"/>
    <xsd:element name="fltNum" type="xsd:integer"/>
  </xsd:complexType>
  <xsd:complexType name="Unrelated"><xsd:element name="z" type="xsd:double"/></xsd:complexType>
</xsd:schema>"#;
        let (_server, broker, consumer) = consumer_of(document);
        let producer = Arc::new(xml2wire::Xml2Wire::builder().build());
        producer.register_schema_str(document).unwrap();
        let capture = CapturePoint::new(broker, producer, "s", "Leg", None).unwrap();
        let sub = consumer.subscribe("s").unwrap();
        assert_eq!(sub.format().name(), "Leg");
        assert!(consumer.session.format("Unrelated").is_none());
        let record = Record::new().with("arln", "DL").with("fltNum", 1202i64);
        capture.publish(&record).unwrap();
        let decoded = sub.next_record_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(decoded.get("arln").and_then(|v| v.as_str()), Some("DL"));
        assert_eq!(decoded.get("fltNum").and_then(|v| v.as_i64()), Some(1202));
    }

    #[test]
    fn a_root_naming_a_later_type_fails_as_discover_does() {
        let document = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Outer"><xsd:element name="in" type="Inner"/></xsd:complexType>
  <xsd:complexType name="Inner"><xsd:element name="x" type="xsd:int"/></xsd:complexType>
</xsd:schema>"#;
        let (server, _broker, consumer) = consumer_of(document);
        let eager = xml2wire::Xml2Wire::builder().source(Box::new(UrlSource::new())).build();
        let discovered = eager.discover(&server.url_for("/s.xsd")).unwrap_err();
        assert!(discovered.to_string().contains("before use"), "{discovered}");
        let joined = consumer.subscribe("s").unwrap_err();
        assert_eq!(joined.to_string(), discovered.to_string());
    }

    #[test]
    fn a_document_without_complex_types_keeps_its_error() {
        let (_server, _broker, consumer) =
            consumer_of("<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"/>");
        match consumer.subscribe("s") {
            Err(BackboneError::Metadata(xml2wire::X2wError::Binding { detail, .. })) => {
                assert_eq!(detail, "discovered document defines no complex types");
            }
            other => panic!("expected the no-complex-types error, got {other:?}"),
        }
    }
}
