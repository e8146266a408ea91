//! `late_join` — the paper's Table 1 path, once per event.
//!
//! A live Structure B stream with a big-endian ILP32 sender. An *event*
//! is one cold join: a fresh `Xml2Wire` session (its own registry, plan
//! cache and schema cache — nothing shared) → `Consumer::subscribe`,
//! which looks the stream's locator up, runs `discover()` over HTTP
//! against the site's `MetadataServer` (Structure B plus a 64-type ×
//! 24-field catalogue, ~80 KiB), binds every type and subscribes → the
//! stream's next event → conversion-plan build (first contact with the
//! sender's architecture) → that event decoded to a `Record` and
//! checked against the reference, field by field.
//!
//! Joins run back to back in the saturation phase and arrive on a
//! schedule in the paced phase. `xmlparse`, `xsdlite`,
//! `core::{discovery, server, binding}` and plan build do all the work;
//! the steady-state layers do none.

use std::sync::Arc;

use backbone::{Broker, CapturePoint, Consumer};
use clayout::{Architecture, Record};
use xml2wire::{UrlSource, Xml2Wire};

use super::{site_catalogue, Site};
use crate::gen::{self, B_FORMAT, POOL};
use crate::harness::{
    CollectFn, Deployment, Fail, IssueFn, Plan, SetupClock, Workload, DEADLINE, SLICES,
};
use crate::trace::Tracer;

const STREAM: &str = "live.asd";

pub struct LateJoin {
    catalogue: String,
    pool: Vec<Record>,
}

impl LateJoin {
    pub fn new(seed: u64) -> LateJoin {
        let vocabulary = gen::Vocabulary::new(seed);
        LateJoin {
            catalogue: site_catalogue(seed),
            pool: gen::b_pool(seed, &vocabulary),
        }
    }
}

impl Workload for LateJoin {
    fn plan(&self) -> Plan {
        Plan {
            cold_starts: 18,
            setup_sensitivity: 1.0,
            round: 4,
            warmup_rounds: 8,
            rounds_per_slice: 3,
            paced_rate_eps: 110.0,
            paced_burst: 1,
            bursts_per_slice: 8,
            paced_slices: SLICES / 2,
        }
    }

    fn budget(&self) -> Vec<(&'static str, f64)> {
        vec![
            // Discovery contains the fetch, the parse and the bind.
            ("core.discover_us", 1.0),
            ("backbone.broker.subscribe_us", 1.0),
            ("backbone.stream.capture_publish_ns", 1.0),
            ("pbio.plan_build_us", 1.0),
            ("pbio.decode_record_ns", 1.0),
        ]
    }

    fn deploy(
        &self,
        _epoch: usize,
        clock: &mut SetupClock,
    ) -> Result<Box<dyn Deployment + '_>, Fail> {
        let mut site = Site::start(&self.catalogue)?;
        let sender = site.peer(Architecture::SPARC32, clock)?;
        let broker = Arc::new(Broker::new());
        let capture = CapturePoint::new(
            Arc::clone(&broker),
            sender,
            STREAM,
            B_FORMAT,
            Some(site.catalogue_url.clone()),
        )?;
        let response_bytes = xml2wire::server::http_get(&site.catalogue_url)?.len() as u64;
        Ok(Box::new(Joins {
            workload: self,
            capture,
            broker,
            site,
            response_bytes,
            arrivals: std::sync::mpsc::channel(),
            joined: 0,
        }))
    }
}

struct Joins<'w> {
    workload: &'w LateJoin,
    capture: CapturePoint,
    broker: Arc<Broker>,
    site: Site,
    /// Body bytes of one catalogue response.
    response_bytes: u64,
    /// Paced phase: the pacer announces arrivals, the collector joins.
    arrivals: (std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>),
    joined: u64,
}

/// One cold join, start to first decoded record.
fn join(
    broker: &Arc<Broker>,
    capture: &CapturePoint,
    pool: &[Record],
    joined: &mut u64,
    tracer: &mut Tracer,
) -> bool {
    let id = *joined;
    let open = tracer.enter("join", id);
    let reference = &pool[(id % POOL as u64) as usize];
    let session = Arc::new(
        Xml2Wire::builder()
            .source(Box::new(UrlSource::new()))
            .build(),
    );
    let consumer = Consumer::new(Arc::clone(broker), Arc::clone(&session));
    let ok = tracer
        .span("backbone.stream.Consumer::subscribe", id, || {
            consumer.subscribe(STREAM)
        })
        .is_ok_and(|subscription| {
            let sent = tracer.span("backbone.stream.CapturePoint::publish", id, || {
                capture.publish(reference)
            });
            let event = tracer.span("backbone.broker.Subscription::recv", id, || {
                subscription.raw().recv_timeout(DEADLINE)
            });
            let (Ok(_), Ok(event)) = (sent, event) else {
                return false;
            };
            // First contact with the sender's architecture: the plan
            // cache misses and compiles.
            let converted = tracer.span("core.session.Xml2Wire::to_native_image", id, || {
                session
                    .to_native_image(&event.payload)
                    .map(|image| image.fixed_len)
            });
            let decoded = tracer.span("core.session.Xml2Wire::decode", id, || {
                session.decode(&event.payload)
            });
            converted.is_ok()
                && session.plan_stats().built == 1
                && decoded.is_ok_and(|(_, record)| record_matches(&record, reference))
        });
    tracer.exit(open);
    *joined += 1;
    ok
}

/// A decoded record equals the reference when every reference field is
/// present and equal; the decoder adds the synthesized `eta_count`.
fn record_matches(decoded: &Record, reference: &Record) -> bool {
    reference
        .iter()
        .all(|(name, value)| decoded.get(name) == Some(value))
}

impl Deployment for Joins<'_> {
    fn round(&mut self, tracer: &mut Tracer) -> u64 {
        let round = self.workload.plan().round as u64;
        (0..round)
            .find(|_| {
                !join(
                    &self.broker,
                    &self.capture,
                    &self.workload.pool,
                    &mut self.joined,
                    tracer,
                )
            })
            .map_or(0, |done| round - done)
    }

    fn split(&mut self) -> (IssueFn<'_>, CollectFn<'_>) {
        let (broker, capture, pool) = (&self.broker, &self.capture, &self.workload.pool);
        let (announce, arrivals) = (&self.arrivals.0, &mut self.arrivals.1);
        let joined = &mut self.joined;
        (
            // A joiner arriving is not a call into the system; the work
            // starts when the collector picks the arrival up.
            Box::new(move |n, _| (0..n).filter(|_| announce.send(()).is_err()).count() as u64),
            Box::new(move |n, stamps, tracer| {
                for done in 0..n {
                    let arrived = arrivals.recv_timeout(DEADLINE).is_ok();
                    if !arrived || !join(broker, capture, pool, joined, tracer) {
                        return (n - done) as u64;
                    }
                    stamps.push(std::time::Instant::now());
                }
                0
            }),
        )
    }

    /// HTTP response body bytes per join.
    fn wire(&self) -> (u64, u64) {
        (self.response_bytes * self.joined, self.joined)
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        vec![("core.schema_cache_hit_ratio", self.site.cache_hit_ratio())]
    }
}
