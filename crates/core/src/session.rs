//! The [`Xml2Wire`] session: discovery + binding + marshaling in one
//! handle.

use std::sync::Arc;

use clayout::{Architecture, Record, StructType};
use pbio::header::WireHeader;
use pbio::{Catalog, Format, FormatRegistry, ImageCow, PlanCache};
use xsdlite::Schema;

use crate::binding::{schema_for_struct, Binder};
use crate::cache::SchemaCache;
use crate::discovery::{DiscoveryChain, DiscoverySource, DiscoveryStatsSnapshot, Extent};
use crate::error::X2wError;
use crate::server::{http_get, http_post};

/// A configured xml2wire instance: the runtime counterpart of the
/// paper's Figure 2 (XML metadata → Catalog of Formats and Fields → BCM
/// metadata and format descriptors).
///
/// The session is `Send + Sync`; clone the [`Arc`]s it hands out freely.
#[derive(Debug)]
pub struct Xml2Wire {
    registry: Arc<FormatRegistry>,
    catalog: Arc<Catalog>,
    plans: Arc<PlanCache>,
    cache: SchemaCache,
    arch: Architecture,
}

impl Xml2Wire {
    /// Starts building a session.
    pub fn builder() -> Xml2WireBuilder {
        Xml2WireBuilder::default()
    }

    /// The architecture formats are bound to (normally the host).
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The underlying format registry (shared with transports).
    pub fn registry(&self) -> &Arc<FormatRegistry> {
        &self.registry
    }

    /// The catalog of known struct definitions.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The receiver-side conversion plan cache.
    pub fn plans(&self) -> &Arc<PlanCache> {
        &self.plans
    }

    // -- discovery ---------------------------------------------------------

    /// Discovers metadata at `locator` through the source chain, then
    /// parses and binds every complex type in the document, in document
    /// order, and returns their formats in that order. Every type must
    /// be valid; a session that will only read one stream's type wants
    /// [`discover_root`](Self::discover_root).
    ///
    /// Every discovery asks the chain, so a document re-published at
    /// the same locator reaches the next one. Concurrent discoveries of
    /// one locator share one fetch (counted as `cache_hits`), and when
    /// every source fails, the document last fetched for the locator
    /// serves if it is at most five minutes old (`stale_serves`).
    ///
    /// ```
    /// # fn main() -> Result<(), xml2wire::X2wError> {
    /// let server = xml2wire::MetadataServer::bind("127.0.0.1:0")?;
    /// server.publish("/s.xsd", "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"/>");
    /// let x2w = xml2wire::Xml2Wire::builder()
    ///     .source(Box::new(xml2wire::UrlSource::new()))
    ///     .build();
    /// let url = server.url_for("/s.xsd");
    /// x2w.discover(&url)?; // fetched
    /// drop(server);
    /// x2w.discover(&url)?; // the server is gone: the last good document
    /// assert_eq!(x2w.discovery_stats().stale_serves, 1);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Discovery, schema and binding failures; see [`X2wError`].
    pub fn discover(&self, locator: &str) -> Result<Vec<Arc<Format>>, X2wError> {
        let document = self.cache.fetch(locator, Extent::Whole)?;
        self.register_schema_str(&document)
    }

    /// Discovers metadata at `locator` as [`discover`](Self::discover)
    /// does, but fetches, compiles and binds only the document's first
    /// complex type and the types it names, transitively
    /// ([`Schema::parse_reachable`]): what a subscriber to a stream of
    /// that type can be sent. The formats come back in document order, so
    /// the root is the first of them, and a type that names a later one
    /// fails to bind exactly as under `discover`.
    ///
    /// The request asks the source for that closure
    /// ([`DiscoverySource::fetch_closure`]). A [`MetadataServer`] checked
    /// the whole document when it cut the closure — a malformed one, or a
    /// type name declared twice, is sent whole, and fails here as it
    /// would have. A source that does not cut closures sends the whole
    /// document, which is checked here the same way. Either way what
    /// arrives is fully checked, and a type outside the closure is
    /// neither checked nor bound. The schema cache keeps closures apart
    /// from whole documents: neither is ever served for the other.
    ///
    /// [`MetadataServer`]: crate::MetadataServer
    ///
    /// # Errors
    ///
    /// As [`discover`](Self::discover), for the closure.
    pub fn discover_root(&self, locator: &str) -> Result<Vec<Arc<Format>>, X2wError> {
        let document = self.cache.fetch(locator, Extent::Closure)?;
        self.binder().bind_schema_owned(Schema::parse_reachable(&document)?)
    }

    /// A point-in-time copy of the session's discovery counters:
    /// per-source attempts and failures, retries, fetch latency, shared
    /// fetches, stale serves.
    pub fn discovery_stats(&self) -> DiscoveryStatsSnapshot {
        self.cache.stats().snapshot()
    }

    /// Parses a schema document already in hand and binds its types.
    ///
    /// # Errors
    ///
    /// Schema and binding failures.
    pub fn register_schema_str(&self, document: &str) -> Result<Vec<Arc<Format>>, X2wError> {
        let schema = Schema::parse_str(document)?;
        self.binder().bind_schema_owned(schema)
    }

    /// Binds an already-parsed schema.
    ///
    /// # Errors
    ///
    /// Binding failures.
    pub fn register_schema(&self, schema: &Schema) -> Result<Vec<Arc<Format>>, X2wError> {
        self.binder().bind_schema(schema)
    }

    /// Registers a compiled-in struct definition directly, bypassing XML
    /// (the degraded-mode path and the "plain PBIO" baseline in the
    /// benchmarks).
    ///
    /// # Errors
    ///
    /// Layout/registration failures.
    pub fn register_compiled(&self, st: StructType) -> Result<Arc<Format>, X2wError> {
        let st = self.catalog.insert(st);
        Ok(self.registry.register(st, self.arch)?)
    }

    fn binder(&self) -> Binder<'_> {
        Binder::new(&self.catalog, &self.registry, self.arch)
    }

    /// Registers a `#[derive(Xml2WireRecord)]` type: the compile-time
    /// descriptor is materialized once here, and the returned format is
    /// what the typed publish path (`pbio::ndr::encode_typed_into`)
    /// pins. Dynamically-bound peers can discover the same definition
    /// from `schema_for_struct(&T::struct_type())`.
    ///
    /// # Errors
    ///
    /// Layout/registration failures.
    pub fn register_record<T: pbio::Xml2WireRecord>(&self) -> Result<Arc<Format>, X2wError> {
        self.register_compiled(T::struct_type())
    }

    /// The current format registered under `name`, if any.
    pub fn format(&self, name: &str) -> Option<Arc<Format>> {
        self.registry.by_name(name)
    }

    /// The current format under `name`, or an error.
    ///
    /// # Errors
    ///
    /// [`pbio::PbioError::UnknownFormat`], wrapped.
    pub fn require_format(&self, name: &str) -> Result<Arc<Format>, X2wError> {
        Ok(self.registry.require(name)?)
    }

    // -- marshaling --------------------------------------------------------

    /// Encodes `record` in the named format as an NDR message.
    ///
    /// # Errors
    ///
    /// Unknown format or encoding failures.
    pub fn encode(&self, record: &Record, format_name: &str) -> Result<Vec<u8>, X2wError> {
        let format = self.require_format(format_name)?;
        Ok(pbio::ndr::encode(record, &format)?)
    }

    /// Encodes `record` into `out`, reusing the buffer's capacity — the
    /// pooled-buffer variant of [`encode`](Self::encode) for callers
    /// publishing at rate (see `pbio::ndr::encode_into`).
    ///
    /// # Errors
    ///
    /// Unknown format or encoding failures.
    pub fn encode_into(
        &self,
        out: &mut Vec<u8>,
        record: &Record,
        format_name: &str,
    ) -> Result<(), X2wError> {
        let format = self.require_format(format_name)?;
        Ok(pbio::ndr::encode_into(out, record, &format)?)
    }

    /// Decodes an NDR message, resolving its format by name in this
    /// session's registry.
    ///
    /// A message from a sender whose layout differs from this session's
    /// is read through the sender's layout in the session's conversion
    /// plan for that architecture ([`pbio::ndr::decode_planned`]): a
    /// session that only decodes builds that plan on its first foreign
    /// message, and one that also converts shares it with
    /// [`to_native_image`](Self::to_native_image). The sender's layout
    /// is compiled once per session, not once per message.
    ///
    /// # Errors
    ///
    /// Unknown formats or malformed messages.
    pub fn decode(&self, bytes: &[u8]) -> Result<(Arc<Format>, Record), X2wError> {
        Ok(pbio::ndr::decode_planned(bytes, &self.registry, &self.plans)?)
    }

    /// Converts a message to a native image for this session's
    /// architecture. The format is resolved exactly as
    /// [`decode`](Self::decode) resolves it — by the header's name *and*
    /// structure fingerprint — so a message of a version this session
    /// has not bound is refused, never converted with another version's
    /// plan. When the sender's layout matches, the returned
    /// [`ImageCow`] borrows the payload inside `bytes` — zero copies;
    /// call [`ImageCow::into_owned`] to detach.
    ///
    /// # Errors
    ///
    /// Unknown formats and versions, conversion overflow, malformed
    /// messages.
    pub fn to_native_image<'a>(&self, bytes: &'a [u8]) -> Result<ImageCow<'a>, X2wError> {
        let (format, peek, payload) = pbio::ndr::resolve(bytes, &self.registry)?;
        Ok(self.plans.plan_for_format(&format, &peek.arch())?.convert(payload)?)
    }

    /// Pooled-destination variant of
    /// [`to_native_image`](Self::to_native_image): converts the message
    /// into `out` (cleared first), reusing its allocation, and returns
    /// the fixed-part length. Steady-state heterogeneous delivery with a
    /// warm pool performs zero conversion allocations per message.
    ///
    /// # Errors
    ///
    /// As [`to_native_image`](Self::to_native_image); `out` contents are
    /// unspecified after an error.
    pub fn to_native_image_into(
        &self,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<usize, X2wError> {
        let (format, peek, payload) = pbio::ndr::resolve(bytes, &self.registry)?;
        Ok(self.plans.plan_for_format(&format, &peek.arch())?.convert_into(payload, out)?)
    }

    /// Snapshot of this session's conversion-plan cache counters
    /// (hits/misses/builds and resident plan count).
    pub fn plan_stats(&self) -> pbio::MemoStats {
        self.plans.stats()
    }

    // -- formats on the metadata server ------------------------------------

    /// Binds a schema document as [`register_schema_str`](Self::register_schema_str)
    /// does, then publishes each of its types as a standalone document on
    /// the metadata server at `base_url` (`http://host:port`), at the
    /// path named by the type's name and structure fingerprint — the two
    /// things every message header carries. The path does not depend on
    /// the architecture, so sessions publishing one structure from any
    /// machine write one document to one path.
    ///
    /// # Errors
    ///
    /// Schema, binding and layout failures; the server refusing the
    /// document or unreachable within [`DiscoveryPolicy`]'s deadline.
    ///
    /// [`DiscoveryPolicy`]: crate::DiscoveryPolicy
    pub fn register_schema_via_server(
        &self,
        document: &str,
        base_url: &str,
    ) -> Result<Vec<Arc<Format>>, X2wError> {
        let formats = self.register_schema_str(document)?;
        for format in &formats {
            let standalone = schema_for_struct(format.struct_type()).to_xml_string();
            http_post(&format_url(base_url, format.name(), format.fingerprint()), &standalone)?;
        }
        Ok(formats)
    }

    /// Decodes a message, resolving a format this session has never seen
    /// on the metadata server at `base_url`: the document at the path of
    /// the header's name and fingerprint (see
    /// [`register_schema_via_server`](Self::register_schema_via_server))
    /// is fetched, checked to define that structure, and bound — a
    /// receiver can decode a format it knew nothing of (PBIO's
    /// format-server behaviour, §4.2's broker fallback). Later messages of
    /// the format decode without a fetch.
    ///
    /// # Errors
    ///
    /// Malformed messages; no document at the path, or the server
    /// unreachable within [`DiscoveryPolicy`]'s deadline; a document that
    /// does not define the header's structure, which leaves the registry
    /// as it was.
    ///
    /// [`DiscoveryPolicy`]: crate::DiscoveryPolicy
    pub fn decode_resolving(
        &self,
        bytes: &[u8],
        base_url: &str,
    ) -> Result<(Arc<Format>, Record), X2wError> {
        match pbio::ndr::decode_planned(bytes, &self.registry, &self.plans) {
            Err(pbio::PbioError::UnknownFormat { .. }) => {}
            decoded => return Ok(decoded?),
        }
        let peek = WireHeader::peek(bytes)?;
        let name = peek.format_name(bytes)?;
        let url = format_url(base_url, name, peek.fingerprint);
        let schema = Schema::parse_str(&http_get(&url)?)?;
        // Bound into a scratch registry first: a document that does not
        // define this structure must leave this session's untouched.
        let scratch = FormatRegistry::new();
        Binder::new(&Catalog::new(), &scratch, self.arch).bind_schema(&schema)?;
        if scratch.by_fingerprint(name, peek.fingerprint).is_none() {
            let why = format!("it does not define {name:?} with fingerprint {:016x}", peek.fingerprint);
            return Err(X2wError::Discovery { locator: url, attempts: vec![why] });
        }
        self.binder().bind_schema_owned(schema)?;
        self.decode(bytes)
    }
}

/// Where the metadata server at `base_url` keeps the standalone schema
/// of the structure `name` with `fingerprint`.
fn format_url(base_url: &str, name: &str, fingerprint: u64) -> String {
    format!("{}/formats/{name}/{fingerprint:016x}.xsd", base_url.trim_end_matches('/'))
}

/// Builder for [`Xml2Wire`].
#[derive(Default)]
pub struct Xml2WireBuilder {
    arch: Option<Architecture>,
    chain: DiscoveryChain,
    shared_registry: Option<Arc<FormatRegistry>>,
}

impl std::fmt::Debug for Xml2WireBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Xml2WireBuilder")
            .field("arch", &self.arch)
            .field("chain", &self.chain)
            .finish_non_exhaustive()
    }
}

impl Xml2WireBuilder {
    /// Binds formats for `arch` instead of the host architecture (used
    /// to simulate heterogeneous peers in one process).
    #[must_use]
    pub fn arch(mut self, arch: Architecture) -> Self {
        self.arch = Some(arch);
        self
    }

    /// Appends a discovery source (consulted in insertion order).
    #[must_use]
    pub fn source(mut self, source: Box<dyn DiscoverySource>) -> Self {
        self.chain.push(source);
        self
    }

    /// Shares an existing registry (e.g. between a session and a raw
    /// transport).
    #[must_use]
    pub fn registry(mut self, registry: Arc<FormatRegistry>) -> Self {
        self.shared_registry = Some(registry);
        self
    }

    /// Finishes the session.
    pub fn build(self) -> Xml2Wire {
        Xml2Wire {
            registry: self.shared_registry.unwrap_or_default(),
            catalog: Arc::new(Catalog::new()),
            plans: Arc::new(PlanCache::new()),
            cache: SchemaCache::new(self.chain),
            arch: self.arch.unwrap_or_else(Architecture::host),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{CompiledSource, UrlSource};
    use crate::server::MetadataServer;

    const FLIGHT: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Flight">
    <xsd:element name="arln" type="xsd:string"/>
    <xsd:element name="fltNum" type="xsd:integer"/>
    <xsd:element name="eta" type="xsd:unsigned-long" maxOccurs="*"/>
  </xsd:complexType>
</xsd:schema>"#;

    fn flight_record() -> Record {
        Record::new().with("arln", "DL").with("fltNum", 1202i64).with("eta", vec![1u64, 2])
    }

    #[test]
    fn register_encode_decode_cycle() {
        let x2w = Xml2Wire::builder().build();
        let formats = x2w.register_schema_str(FLIGHT).unwrap();
        assert_eq!(formats.len(), 1);
        let wire = x2w.encode(&flight_record(), "Flight").unwrap();
        let (format, record) = x2w.decode(&wire).unwrap();
        assert_eq!(format.name(), "Flight");
        assert_eq!(record.get("eta_count").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn discovery_via_metadata_server() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/schemas/flight.xsd", FLIGHT);
        let x2w = Xml2Wire::builder()
            .source(Box::new(UrlSource::new()))
            .build();
        let formats = x2w.discover(&server.url_for("/schemas/flight.xsd")).unwrap();
        assert_eq!(formats[0].name(), "Flight");
    }

    #[test]
    fn discover_root_binds_the_first_types_closure_only() {
        let catalogue = FLIGHT.replace(
            "</xsd:schema>",
            r#"<xsd:complexType name="Broken"><xsd:element name="b" type="xsd:quaternion"/></xsd:complexType>
  <xsd:complexType name="Other"><xsd:element name="x" type="xsd:int"/></xsd:complexType>
</xsd:schema>"#,
        );
        let x2w = Xml2Wire::builder()
            .source(Box::new(CompiledSource::new().with_document("c.xsd", catalogue.as_str())))
            .build();
        assert!(matches!(x2w.discover("c.xsd"), Err(X2wError::Schema(_))));
        let formats = x2w.discover_root("c.xsd").unwrap();
        let names: Vec<&str> = formats.iter().map(|f| f.name()).collect();
        assert_eq!(names, ["Flight"]);
        assert!(x2w.format("Other").is_none());
        let wire = x2w.encode(&flight_record(), "Flight").unwrap();
        assert_eq!(x2w.decode(&wire).unwrap().1.get("fltNum").unwrap().as_i64(), Some(1202));

        // `discover` still binds every type of a sound catalogue.
        let sound = catalogue.replace("xsd:quaternion", "xsd:double");
        let x2w = Xml2Wire::builder()
            .source(Box::new(CompiledSource::new().with_document("c.xsd", sound)))
            .build();
        assert_eq!(x2w.discover("c.xsd").unwrap().len(), 3);
        assert_eq!(x2w.discover_root("c.xsd").unwrap().len(), 1);
    }

    #[test]
    fn fallback_to_compiled_in_when_server_is_down() {
        let dead_url;
        {
            let server = MetadataServer::bind("127.0.0.1:0").unwrap();
            dead_url = server.url_for("/schemas/flight.xsd");
        }
        let x2w = Xml2Wire::builder()
            .source(Box::new(UrlSource::new()))
            .source(Box::new(
                CompiledSource::new().with_document(dead_url.clone(), FLIGHT),
            ))
            .build();
        // Primary fails (connection refused), compiled-in serves it.
        let formats = x2w.discover(&dead_url).unwrap();
        assert_eq!(formats[0].name(), "Flight");
    }

    #[test]
    fn rediscovery_survives_a_server_outage_via_stale_cache() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/schemas/flight.xsd", FLIGHT);
        let url = server.url_for("/schemas/flight.xsd");
        let x2w = Xml2Wire::builder().source(Box::new(UrlSource::new())).build();
        x2w.discover(&url).unwrap();
        drop(server); // outage
        // The session revalidates, fails against the dead server, and
        // bridges with the document fetched before the outage — §3.3's
        // degraded mode without compiled-in fallbacks.
        let formats = x2w.discover(&url).unwrap();
        assert_eq!(formats[0].name(), "Flight");
        let snap = x2w.discovery_stats();
        assert_eq!(snap.stale_serves, 1, "{snap:?}");
        assert_eq!(snap.source("url").map(|s| s.failures), Some(1), "{snap:?}");
    }

    #[test]
    fn closures_and_whole_documents_are_cached_apart() {
        let fillers: String = (1..65)
            .map(|i| {
                format!(
                    "<xsd:complexType name=\"Filler{i}\"><xsd:element name=\"v\" type=\"xsd:int\"/></xsd:complexType>\n"
                )
            })
            .collect();
        let catalogue = FLIGHT.replace("</xsd:schema>", &format!("{fillers}</xsd:schema>"));
        let closure = Schema::parse_reachable(&catalogue).unwrap().to_xml_string();
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/site/catalogue.xsd", catalogue.as_str());
        let url = server.url_for("/site/catalogue.xsd");
        let x2w = Xml2Wire::builder().source(Box::new(UrlSource::new())).build();
        assert_eq!(x2w.discover_root(&url).unwrap().len(), 1);
        assert_eq!(x2w.discover(&url).unwrap().len(), 65);
        drop(server);
        // Each kind bridges the outage with its own last good document.
        assert_eq!(x2w.discover(&url).unwrap().len(), 65);
        assert_eq!(x2w.discover_root(&url).unwrap().len(), 1);
        assert_eq!(x2w.discovery_stats().stale_serves, 2);
        assert_eq!(*x2w.cache.fetch(&url, Extent::Whole).unwrap(), catalogue);
        assert_eq!(*x2w.cache.fetch(&url, Extent::Closure).unwrap(), closure);
    }

    #[test]
    fn unknown_format_is_an_error() {
        let x2w = Xml2Wire::builder().build();
        assert!(x2w.encode(&Record::new(), "NoSuch").is_err());
        assert!(x2w.require_format("NoSuch").is_err());
        assert!(x2w.format("NoSuch").is_none());
    }

    #[test]
    fn heterogeneous_sessions_interoperate() {
        // Sender binds on big-endian 32-bit, receiver on the host.
        let sender = Xml2Wire::builder().arch(Architecture::SPARC32).build();
        sender.register_schema_str(FLIGHT).unwrap();
        let receiver = Xml2Wire::builder().build();
        receiver.register_schema_str(FLIGHT).unwrap();

        let wire = sender.encode(&flight_record(), "Flight").unwrap();
        let (_, record) = receiver.decode(&wire).unwrap();
        assert_eq!(record.get("fltNum").unwrap().as_i64(), Some(1202));

        let image = receiver.to_native_image(&wire).unwrap();
        let native = receiver.format("Flight").unwrap();
        let via_image = pbio::RecordView::over(&image.bytes, &native, receiver.arch())
            .and_then(|view| view.to_record())
            .unwrap();
        assert_eq!(via_image.get("arln").unwrap().as_str(), Some("DL"));

        // Pooled delivery: same image bytes, reused buffer, plan cache
        // compiled exactly one plan and served the rest as hits.
        let mut pool = Vec::new();
        let fixed = receiver.to_native_image_into(&wire, &mut pool).unwrap();
        assert_eq!(fixed, image.fixed_len);
        assert_eq!(pool.as_slice(), image.bytes.as_ref());
        let cap = pool.capacity();
        for _ in 0..8 {
            receiver.to_native_image_into(&wire, &mut pool).unwrap();
        }
        assert_eq!(pool.capacity(), cap);
        let stats = receiver.plan_stats();
        assert_eq!(stats.built, 1, "{stats:?}");
        assert!(stats.hits >= 9, "{stats:?}");
    }

    #[test]
    fn native_conversion_pins_the_version_by_fingerprint() {
        use clayout::{CType, Primitive, StructField};
        // Two versions of one name; a sender of each on a foreign machine.
        let short = StructType::new(
            "T",
            vec![
                StructField::new("a", CType::Prim(Primitive::Int)),
                StructField::new("s", CType::String),
            ],
        );
        let mut long = short.clone();
        long.fields.insert(0, StructField::new("z", CType::Prim(Primitive::Double)));
        let message = |st: &StructType, record: &Record| {
            let sender = Xml2Wire::builder().arch(Architecture::SPARC32).build();
            sender.register_compiled(st.clone()).unwrap();
            sender.encode(record, "T").unwrap()
        };
        let short_record = Record::new().with("a", 7i64).with("s", "short");
        let long_record = Record::new().with("z", 2.5f64).with("a", 9i64).with("s", "long");
        let short_message = message(&short, &short_record);
        let long_message = message(&long, &long_record);

        // Whichever version is the name's current one, each message is
        // converted with its own version's plan.
        for order in [[&short, &long], [&long, &short]] {
            let host = Xml2Wire::builder().build();
            for st in order {
                host.register_compiled(st.clone()).unwrap();
            }
            let mut image = Vec::new();
            for _ in 0..3 {
                for (wire, expected) in
                    [(&short_message, &short_record), (&long_message, &long_record)]
                {
                    host.to_native_image_into(wire, &mut image).unwrap();
                    let (format, _, _) = pbio::ndr::resolve(wire, host.registry()).unwrap();
                    let record = pbio::RecordView::over(&image, &format, host.arch())
                        .and_then(|view| view.to_record())
                        .unwrap();
                    assert_eq!(&record, expected);
                    let borrowed = host.to_native_image(wire).unwrap();
                    assert_eq!(borrowed.bytes.as_ref(), image.as_slice());
                }
            }
            let stats = host.plan_stats();
            assert_eq!((stats.built, stats.resident), (2, 2), "one plan per version: {stats:?}");
        }

        // A session that only knows the other version refuses, as
        // `decode` does, instead of converting with the wrong struct.
        let host = Xml2Wire::builder().build();
        let native = host.register_compiled(short).unwrap();
        let mismatch = |e: X2wError| {
            matches!(e, X2wError::Bcm(pbio::PbioError::FormatMismatch { .. }))
        };
        let mut image = Vec::new();
        assert!(host.to_native_image_into(&long_message, &mut image).is_err_and(mismatch));
        assert!(host.to_native_image(&long_message).is_err_and(mismatch));
        assert!(host.decode(&long_message).is_err_and(mismatch));
        assert!(matches!(
            pbio::ndr::to_native_image_into(&long_message, &native, host.plans(), &mut image),
            Err(pbio::PbioError::FormatMismatch { .. })
        ));
        assert_eq!(host.plan_stats().built, 0);
        host.to_native_image_into(&short_message, &mut image).unwrap();
    }

    #[test]
    fn compiled_registration_bypasses_xml() {
        use clayout::{CType, Primitive, StructField};
        let x2w = Xml2Wire::builder().build();
        let st = StructType::new(
            "Boot",
            vec![StructField::new("seq", CType::Prim(Primitive::Int))],
        );
        let format = x2w.register_compiled(st).unwrap();
        assert_eq!(format.name(), "Boot");
        let wire = x2w.encode(&Record::new().with("seq", 1i64), "Boot").unwrap();
        assert!(x2w.decode(&wire).is_ok());
    }

    #[test]
    fn shared_registry_is_visible_to_both_holders() {
        let registry = Arc::new(FormatRegistry::new());
        let x2w = Xml2Wire::builder().registry(Arc::clone(&registry)).build();
        x2w.register_schema_str(FLIGHT).unwrap();
        assert!(registry.by_name("Flight").is_some());
    }
}
