//! The five workloads and what they share: a site's metadata service,
//! the reference check, and wire accounting.

use std::sync::Arc;

use backbone::CapturePoint;
use clayout::{Architecture, Record, Value};
use pbio::{FieldView, RecordView};
use xml2wire::{MetadataServer, UrlSource, Xml2Wire};

use crate::gen;
use crate::harness::{Fail, SetupClock, Workload};
use crate::trace::Tracer;

pub mod durable_replay;
pub mod fanout_filtered;
pub mod hetero_local;
pub mod late_join;
pub mod relay_small;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = [
    "relay_small",
    "hetero_local",
    "fanout_filtered",
    "durable_replay",
    "late_join",
];

/// Builds the named workload's inputs from `seed`. `quick` shrinks the
/// one input that is sized for time rather than shape (the durable
/// log's prefill) for the correctness smoke.
pub fn build(
    name: &str,
    seed: u64,
    quick: bool,
    work_dir: &std::path::Path,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "relay_small" => Box::new(relay_small::RelaySmall::new(seed)),
        "hetero_local" => Box::new(hetero_local::HeteroLocal::new(seed)),
        "fanout_filtered" => Box::new(fanout_filtered::FanoutFiltered::new(seed)),
        "durable_replay" => Box::new(durable_replay::DurableReplay::new(seed, quick, work_dir)),
        "late_join" => Box::new(late_join::LateJoin::new(seed)),
        _ => return None,
    })
}

/// Filler types in the site catalogue, and elements per type: with
/// Structure B in front, a ~80 KiB document.
pub const CATALOGUE_TYPES: usize = 64;
pub const CATALOGUE_FIELDS: usize = 24;

/// One site's metadata service plus the peer sessions attached to it.
pub struct Site {
    server: MetadataServer,
    pub catalogue_url: String,
    peers: Vec<Arc<Xml2Wire>>,
}

impl Site {
    /// Binds the metadata server and publishes `catalogue`.
    pub fn start(catalogue: &str) -> Result<Site, Fail> {
        let server = MetadataServer::bind("127.0.0.1:0")?;
        server.publish("/site/catalogue.xsd", catalogue);
        let catalogue_url = server.url_for("/site/catalogue.xsd");
        Ok(Site {
            server,
            catalogue_url,
            peers: Vec::new(),
        })
    }

    /// Publishes one more document; returns its URL.
    pub fn publish(&self, path: &str, document: &str) -> String {
        self.server.publish(path, document);
        self.server.url_for(path)
    }

    /// A fresh session bound for `arch` — its own registry, plan cache
    /// and schema cache — that has cold-discovered the catalogue over
    /// HTTP (fetch, XSD parse, bind of every type), as any peer does on
    /// start-up.
    pub fn peer(
        &mut self,
        arch: Architecture,
        clock: &mut SetupClock,
    ) -> Result<Arc<Xml2Wire>, Fail> {
        let session = Xml2Wire::builder()
            .arch(arch)
            .source(Box::new(UrlSource::new()))
            .build();
        session.discover(&self.catalogue_url)?;
        clock.tick();
        let session = Arc::new(session);
        self.peers.push(Arc::clone(&session));
        Ok(session)
    }

    /// Share of the peers' discoveries served from their schema caches
    /// (`DiscoveryStats`); each peer discovers a document once, so today
    /// this reads 0.
    pub fn cache_hit_ratio(&self) -> f64 {
        let (hits, fetches) = self
            .peers
            .iter()
            .map(|peer| peer.discovery_stats())
            .fold((0, 0), |(hits, fetches), stats| {
                (hits + stats.cache_hits, fetches + stats.fetches)
            });
        hits as f64 / (hits + fetches).max(1) as f64
    }
}

/// The catalogue every workload's site serves for `seed`.
pub fn site_catalogue(seed: u64) -> String {
    gen::catalogue(seed, CATALOGUE_TYPES, CATALOGUE_FIELDS)
}

/// Whether `view` decodes to exactly `reference`: every reference field
/// present with an equal value (array fields element by element).
/// Struct fields the reference lacks — synthesized `<array>_count`
/// fields — are read too, so the check doubles as "the consumer reads
/// every field".
pub fn view_matches(view: &RecordView<'_>, reference: &Record) -> bool {
    let mut matched = 0;
    for (name, field) in view.fields() {
        let Ok(field) = field else { return false };
        match reference.get(name) {
            Some(expected) => {
                if !field_matches(field, expected) {
                    return false;
                }
                matched += 1;
            }
            None => {
                std::hint::black_box(&field);
            }
        }
    }
    matched == reference.len()
}

fn field_matches(field: FieldView<'_>, expected: &Value) -> bool {
    match (field, expected) {
        (FieldView::Int(a), Value::Int(b)) => a == *b,
        (FieldView::UInt(a), Value::UInt(b)) => a == *b,
        (FieldView::Float(a), Value::Float(b)) => a == *b,
        (FieldView::Str(a), Value::String(b)) => a == b,
        (FieldView::Array(items), Value::Array(expected)) => {
            items.len() == expected.len()
                && items
                    .zip(expected)
                    .all(|(item, e)| item.is_ok_and(|item| field_matches(item, e)))
        }
        _ => false,
    }
}

/// Whether a Structure B `view`'s index field and its `dest` string
/// both equal the reference's — the two-field read of the workloads
/// that do not decode whole records. The index value is unique within
/// the pool, so a match also places the event in the stream's order.
pub fn index_and_dest_match(view: &RecordView<'_>, reference: &Record) -> bool {
    let same = |name: &str| match (view.get(name), reference.get(name)) {
        (Ok(field), Some(expected)) => field_matches(field, expected),
        _ => false,
    };
    same(gen::B_INDEX_FIELD) && same("dest")
}

/// Publishes the next `n` pool records of a stream through `capture`,
/// one span per call; `issued` counts the stream's events so far and
/// picks the pool entry. Returns how many could not be published.
pub fn publish_from_pool(
    capture: &CapturePoint,
    pool: &[Record],
    issued: &mut u64,
    n: usize,
    tracer: &mut Tracer,
) -> u64 {
    for done in 0..n {
        let record = &pool[(*issued % gen::POOL as u64) as usize];
        let sent = tracer.span("backbone.stream.CapturePoint::publish", *issued, || {
            capture.publish(record)
        });
        if sent.is_err() {
            return (n - done) as u64;
        }
        *issued += 1;
    }
    0
}

/// Bytes one event occupies inside a `backbone::net` frame on a
/// federation link, mirroring the two documented layouts: the frame
/// (`u32 name len ∥ name ∥ u32 payload len ∥ payload`) and the
/// forwarded-event payload (`u64 seq ∥ u8 hops ∥ u16 format-name len ∥
/// format name ∥ message`).
pub fn link_frame_bytes(stream: &str, format_name: &str, message_len: usize) -> u64 {
    (4 + stream.len() + 4 + 8 + 1 + 2 + format_name.len() + message_len) as u64
}

/// Total NDR bytes of `pool` encoded in `format`.
pub fn pool_message_bytes(pool: &[Record], format: &pbio::Format) -> Result<u64, Fail> {
    let mut total = 0u64;
    let mut scratch = Vec::new();
    for record in pool {
        pbio::ndr::encode_into(&mut scratch, record, format)?;
        total += scratch.len() as u64;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_check_accepts_the_reference_and_rejects_a_changed_field() {
        let seed = 5;
        let vocabulary = gen::Vocabulary::new(seed);
        let pool = gen::b_pool(seed, &vocabulary);
        for arch in [Architecture::host(), Architecture::SPARC32] {
            let session = Xml2Wire::builder().arch(arch).build();
            let format = session
                .register_schema_str(&gen::b_schema())
                .unwrap()
                .remove(0);
            let message = pbio::ndr::encode(&pool[17], &format).unwrap();
            let view = pbio::ndr::view_with(&message, &format).unwrap();
            assert!(view_matches(&view, &pool[17]));
            assert!(!view_matches(&view, &pool[18]));
            assert!(index_and_dest_match(&view, &pool[17]));
            assert!(!index_and_dest_match(&view, &pool[18]));
        }
    }

    #[test]
    fn wire_bytes_and_the_delivery_oracle_are_functions_of_the_seed() {
        use gen::{HOLD_OUT_SEED, REFERENCE_SEED};
        let relay = |seed| relay_small::RelaySmall::new(seed).wire_bytes(1_000_000);
        assert_eq!(relay(REFERENCE_SEED), relay(REFERENCE_SEED));
        assert_ne!(relay(REFERENCE_SEED), relay(HOLD_OUT_SEED));
        let oracle = |seed| fanout_filtered::FanoutFiltered::new(seed).oracle().to_vec();
        assert_eq!(oracle(REFERENCE_SEED), oracle(REFERENCE_SEED));
        assert_ne!(oracle(REFERENCE_SEED), oracle(HOLD_OUT_SEED));
    }

    #[test]
    fn link_frame_accounting_matches_the_transport() {
        // The frame half is checkable against the transport's own writer.
        let frame = backbone::Frame::new("asd", vec![0u8; 8 + 1 + 2 + 11 + 200]);
        let mut sink = Vec::new();
        backbone::net::write_frame(&mut sink, &frame).unwrap();
        assert_eq!(
            sink.len() as u64,
            link_frame_bytes("asd", "ASDOffEvent", 200)
        );
    }
}
