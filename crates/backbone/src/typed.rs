//! Typed capture points and subscribers for
//! `#[derive(Xml2WireRecord)]` records.
//!
//! [`TypedCapture`] and [`TypedSubscriber`] are the typed twins of
//! [`CapturePoint`](crate::CapturePoint) and the dynamic
//! subscribe/decode pipeline, on the same marshaler: registration
//! materializes the derived descriptor once, the publish path runs the
//! format's layout over the struct's fields
//! (`pbio::ndr::encode_typed_into`), and the receive path reads each
//! event's `RecordView` — over the subscriber's format's layout, or the
//! sender's for a foreign architecture — into `T`
//! (`pbio::ndr::decode_typed`).
//!
//! A typed producer's stream carries the bytes and the registered struct
//! type a dynamic one would, so dynamic consumers, compiled content
//! filters, federation links and durable logs all work unchanged.

use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use clayout::Architecture;
use pbio::{Format, FormatId, Xml2WireRecord};
use xml2wire::Xml2Wire;

use crate::broker::{Broker, Event, PublishHandle, Subscription};
use crate::error::BackboneError;
use crate::unpoisoned;

/// Publishes derived records of type `T` onto one stream.
///
/// Like [`CapturePoint`](crate::CapturePoint), the publish route is
/// pinned at creation time (resolved format, shard handle, pooled
/// scratch buffer), and a publish runs the format's layout over the
/// struct's fields instead of a `Record`'s.
#[derive(Debug)]
pub struct TypedCapture<T: Xml2WireRecord> {
    /// Kept so the broker's dispatch workers outlive the capture point.
    _broker: Arc<Broker>,
    handle: PublishHandle,
    stream: Arc<str>,
    format_name: Arc<str>,
    format: Arc<Format>,
    scratch: Mutex<Vec<u8>>,
    _record: PhantomData<fn(&T)>,
}

impl<T: Xml2WireRecord> TypedCapture<T> {
    /// Creates a typed capture point: registers `T`'s compile-time
    /// descriptor with the session, creates the stream, registers the
    /// struct type for content filters, and pins the publish route.
    ///
    /// Advertise `metadata_locator` (typically a metadata server URL
    /// serving `xml2wire::schema_for_struct(&T::struct_type())`) so
    /// dynamically-bound consumers can discover the format.
    ///
    /// # Errors
    ///
    /// Registration or broker failures.
    pub fn new(
        broker: Arc<Broker>,
        session: &Xml2Wire,
        stream: impl Into<Arc<str>>,
        metadata_locator: Option<String>,
    ) -> Result<Self, BackboneError> {
        let stream = stream.into();
        let format = session.register_record::<T>()?;
        broker.create_stream(stream.to_string(), metadata_locator);
        broker.register_stream_type(&stream, format.struct_type().clone())?;
        let handle = broker.publish_handle(&stream)?;
        Ok(TypedCapture {
            _broker: broker,
            handle,
            stream,
            format_name: Arc::from(T::FORMAT_NAME),
            format,
            scratch: Mutex::new(Vec::new()),
            _record: PhantomData,
        })
    }

    /// Encodes and publishes one record; returns the subscriber count
    /// it reached.
    ///
    /// # Errors
    ///
    /// Encoding or broker failures.
    pub fn publish(&self, value: &T) -> Result<usize, BackboneError> {
        let mut scratch = unpoisoned(self.scratch.lock());
        pbio::ndr::encode_typed_into(&mut scratch, value, &self.format)?;
        self.handle.publish(Arc::clone(&self.format_name), scratch.to_vec())
    }

    /// Publishes a batch, returning total deliveries; the scratch
    /// buffer is locked once for the whole batch.
    ///
    /// # Errors
    ///
    /// As [`publish`](Self::publish); stops at the first failure.
    pub fn publish_batch(&self, values: &[T]) -> Result<usize, BackboneError> {
        let mut scratch = unpoisoned(self.scratch.lock());
        let mut total = 0;
        for value in values {
            pbio::ndr::encode_typed_into(&mut scratch, value, &self.format)?;
            total += self.handle.publish(Arc::clone(&self.format_name), scratch.to_vec())?;
        }
        Ok(total)
    }

    /// The stream this capture point feeds.
    pub fn stream(&self) -> &str {
        &self.stream
    }

    /// The pinned format (for tests and interop tooling).
    pub fn format(&self) -> &Arc<Format> {
        &self.format
    }
}

/// Receives events from one stream decoded directly into `T`.
///
/// No discovery round trip is needed — the format is compiled in — but
/// the wire protocol is unchanged: each event's header carries the
/// sender's struct fingerprint and architecture descriptor, and a
/// message whose fingerprint is not `T`'s (a schema-evolved or foreign
/// stream) fails closed with [`BackboneError::BadFrame`] rather than
/// misdecoding.
#[derive(Debug)]
pub struct TypedSubscriber<T: Xml2WireRecord> {
    subscription: Subscription,
    /// `T` on this host: its layout reads host-architecture events.
    format: Format,
    _record: PhantomData<fn() -> T>,
}

impl<T: Xml2WireRecord> TypedSubscriber<T> {
    /// Subscribes to every event on `stream`.
    ///
    /// # Errors
    ///
    /// Unknown streams or broker failures.
    pub fn new(broker: &Broker, stream: &str) -> Result<Self, BackboneError> {
        Ok(Self::wrap(broker.subscribe(stream)?))
    }

    /// Subscribes with a compiled content filter evaluated against the
    /// wire image before delivery (see
    /// [`Broker::subscribe_filtered`]).
    ///
    /// # Errors
    ///
    /// Unknown streams, missing stream type, or filter
    /// parse/typecheck failures.
    pub fn filtered(broker: &Broker, stream: &str, expr: &str) -> Result<Self, BackboneError> {
        Ok(Self::wrap(broker.subscribe_filtered(stream, expr)?))
    }

    /// Wraps an existing raw subscription (e.g. a replay subscription)
    /// with typed decoding.
    ///
    /// # Panics
    ///
    /// Never for a derived `T`: its descriptor always lays out.
    pub fn wrap(subscription: Subscription) -> Self {
        let format = Format::new(FormatId(0), T::struct_type(), Architecture::host())
            .expect("a derived descriptor lays out");
        TypedSubscriber { subscription, format, _record: PhantomData }
    }

    /// Blocks for the next event and decodes it into `T`.
    ///
    /// # Errors
    ///
    /// Disconnection or decode failures.
    pub fn recv(&self) -> Result<T, BackboneError> {
        let event = self.subscription.recv()?;
        self.decode(&event)
    }

    /// Waits up to `timeout` for the next event and decodes it.
    ///
    /// # Errors
    ///
    /// Disconnection, timeout, or decode failures.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, BackboneError> {
        let event = self.subscription.recv_timeout(timeout)?;
        self.decode(&event)
    }

    /// Decodes one raw event into `T` through the event's
    /// [`RecordView`](pbio::RecordView), receiver makes right.
    ///
    /// # Errors
    ///
    /// [`BackboneError::BadFrame`] on a header that does not parse or a
    /// fingerprint that is not `T`'s; decode failures otherwise.
    pub fn decode(&self, event: &Event) -> Result<T, BackboneError> {
        pbio::ndr::decode_typed(&event.payload, &self.format).map_err(|e| {
            let fingerprint = self.format.fingerprint();
            match pbio::header::WireHeader::peek(&event.payload) {
                Err(e) => BackboneError::BadFrame { detail: e.to_string() },
                Ok(peek) if peek.fingerprint != fingerprint => BackboneError::BadFrame {
                    detail: format!(
                        "struct fingerprint mismatch for {}: stream sends {:#018x}, typed binding expects {:#018x} (schema evolved?)",
                        T::FORMAT_NAME, peek.fingerprint, fingerprint
                    ),
                },
                Ok(_) => BackboneError::Metadata(e.into()),
            }
        })
    }

    /// The raw subscription, for callers that want undecoded events.
    pub fn raw(&self) -> &Subscription {
        &self.subscription
    }
}
