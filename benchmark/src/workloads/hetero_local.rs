//! `hetero_local` — foreign-architecture senders, one in-process broker.
//!
//! Four streams on one `Broker`, no network: Structure B from a
//! big-endian ILP32 sender (General tier), fixed-size telemetry from a
//! big-endian LP64 sender (PureSwap), a mostly-variable-section note
//! from a little-endian ILP32 sender (General with a var section), and
//! a host-architecture stream published through `TypedCapture` and
//! decoded by `TypedSubscriber`. The consumer converts every foreign
//! message with `to_native_image_into` and reads every field. Here
//! `pbio::{ndr, convert, view}`, `clayout` and `x2w-derive` do most of
//! the work and `backbone::net` none — the mirror of `relay_small`.

use std::sync::Arc;

use backbone::{Broker, CapturePoint, Subscription, TypedCapture, TypedSubscriber};
use clayout::{Architecture, Record};
use pbio::{Format, RecordView};
use xml2wire::Xml2Wire;

use super::{site_catalogue, view_matches, Site};
use crate::gen::{self, Position, POOL};
use crate::harness::{
    CollectFn, Deployment, Fail, IssueFn, Plan, SetupClock, Workload, DEADLINE, SLICES,
};
use crate::trace::Tracer;

/// One dynamically-bound foreign stream's inputs.
struct ForeignInputs {
    stream: &'static str,
    format_name: &'static str,
    /// Path the stream's own schema is published under; `None` when the
    /// site catalogue already carries it.
    schema: Option<(&'static str, String)>,
    arch: Architecture,
    pool: Vec<Record>,
    /// Total NDR bytes of the pool on `arch`.
    pool_bytes: u64,
}

pub struct HeteroLocal {
    catalogue: String,
    foreign: Vec<ForeignInputs>,
    positions: Vec<Position>,
    position_bytes: u64,
}

const POSITION_STREAM: &str = "hetero.position";

impl HeteroLocal {
    pub fn new(seed: u64) -> HeteroLocal {
        let vocabulary = gen::Vocabulary::new(seed);
        let mut foreign = vec![
            ForeignInputs {
                stream: "hetero.asd",
                format_name: gen::B_FORMAT,
                schema: None,
                arch: Architecture::SPARC32,
                pool: gen::b_pool(seed, &vocabulary),
                pool_bytes: 0,
            },
            ForeignInputs {
                stream: "hetero.telemetry",
                format_name: gen::TELEMETRY_FORMAT,
                schema: Some(("/streams/telemetry.xsd", gen::telemetry_schema())),
                arch: gen::pick_arch(
                    seed,
                    "telemetry-arch",
                    [Architecture::POWER64, Architecture::SPARC64],
                ),
                pool: gen::telemetry_pool(seed),
                pool_bytes: 0,
            },
            ForeignInputs {
                stream: "hetero.note",
                format_name: gen::NOTE_FORMAT,
                schema: Some(("/streams/note.xsd", gen::note_schema())),
                arch: gen::pick_arch(seed, "note-arch", [Architecture::I386, Architecture::ARM32]),
                pool: gen::note_pool(seed),
                pool_bytes: 0,
            },
        ];
        for inputs in &mut foreign {
            let session = Xml2Wire::builder().arch(inputs.arch).build();
            let schema = inputs
                .schema
                .as_ref()
                .map_or_else(gen::b_schema, |(_, doc)| doc.clone());
            let format = session
                .register_schema_str(&schema)
                .expect("generated schemas bind")
                .remove(0);
            inputs.pool_bytes =
                super::pool_message_bytes(&inputs.pool, &format).expect("generated records encode");
        }
        let positions = gen::position_pool(seed);
        let session = Xml2Wire::builder().build();
        let format = session
            .register_record::<Position>()
            .expect("the derived descriptor registers");
        let mut scratch = Vec::new();
        let position_bytes = positions
            .iter()
            .map(|p| {
                pbio::ndr::encode_typed_into(&mut scratch, p, &format)
                    .expect("generated records encode");
                scratch.len() as u64
            })
            .sum();
        HeteroLocal {
            catalogue: site_catalogue(seed),
            foreign,
            positions,
            position_bytes,
        }
    }
}

impl Workload for HeteroLocal {
    fn plan(&self) -> Plan {
        Plan {
            cold_starts: 20,
            setup_sensitivity: 1.0,
            round: 256,
            warmup_rounds: 64,
            rounds_per_slice: 42,
            paced_rate_eps: 100_000.0,
            paced_burst: 128,
            bursts_per_slice: 24,
            paced_slices: SLICES,
        }
    }

    fn budget(&self) -> Vec<(&'static str, f64)> {
        vec![
            // Three of every four events are dynamic publishes, one typed.
            ("backbone.stream.capture_publish_ns", 0.75),
            ("backbone.typed.publish_ns", 0.25),
            ("pbio.plan_cache_hit_ns", 0.75),
            // Structure B and the note convert on the General tier.
            ("pbio.convert_general_ns", 0.5),
            ("pbio.convert_pureswap_ns", 0.25),
            ("pbio.view_ns", 0.75),
            ("x2w-derive.decode_view_ns", 0.25),
        ]
    }

    fn deploy(
        &self,
        _epoch: usize,
        clock: &mut SetupClock,
    ) -> Result<Box<dyn Deployment + '_>, Fail> {
        let mut site = Site::start(&self.catalogue)?;
        let broker = Arc::new(Broker::new());
        // The consumer: a host session that discovers the catalogue and
        // each stream's own schema, like any display point would.
        let consumer = site.peer(Architecture::host(), clock)?;
        let mut streams = Vec::with_capacity(self.foreign.len());
        for inputs in &self.foreign {
            let sender = site.peer(inputs.arch, clock)?;
            let locator = match &inputs.schema {
                Some((path, document)) => {
                    let url = site.publish(path, document);
                    sender.discover(&url)?;
                    consumer.discover(&url)?;
                    url
                }
                None => site.catalogue_url.clone(),
            };
            let capture = CapturePoint::new(
                Arc::clone(&broker),
                sender,
                inputs.stream,
                inputs.format_name,
                Some(locator),
            )?;
            streams.push(ForeignStream {
                inputs,
                capture,
                sub: broker.subscribe(inputs.stream)?,
                format: consumer.require_format(inputs.format_name)?,
            });
        }
        let typed_capture =
            TypedCapture::<Position>::new(Arc::clone(&broker), &consumer, POSITION_STREAM, None)?;
        let typed_sub = TypedSubscriber::<Position>::new(&broker, POSITION_STREAM)?;
        Ok(Box::new(Hetero {
            workload: self,
            streams,
            typed_sub,
            typed_capture,
            consumer,
            scratch: Vec::new(),
            site,
            issued: 0,
            collected: 0,
        }))
    }
}

struct ForeignStream<'w> {
    inputs: &'w ForeignInputs,
    capture: CapturePoint,
    sub: Subscription,
    /// The consumer's (host-architecture) binding of the stream's format.
    format: Arc<Format>,
}

struct Hetero<'w> {
    workload: &'w HeteroLocal,
    streams: Vec<ForeignStream<'w>>,
    typed_sub: TypedSubscriber<Position>,
    typed_capture: TypedCapture<Position>,
    consumer: Arc<Xml2Wire>,
    /// The pooled destination of `to_native_image_into`.
    scratch: Vec<u8>,
    site: Site,
    /// Events issued / collected so far, all four streams together;
    /// event `i` goes to stream `i % 4` as that stream's `i / 4`-th.
    issued: u64,
    collected: u64,
}

const STREAMS: u64 = 4;

fn issue(
    streams: &[ForeignStream<'_>],
    typed: &TypedCapture<Position>,
    positions: &[Position],
    issued: &mut u64,
    n: usize,
    tracer: &mut Tracer,
) -> u64 {
    for done in 0..n {
        let index = ((*issued / STREAMS) % POOL as u64) as usize;
        let sent = match streams.get((*issued % STREAMS) as usize) {
            Some(stream) => tracer.span("backbone.stream.CapturePoint::publish", *issued, || {
                stream.capture.publish(&stream.inputs.pool[index])
            }),
            None => tracer.span("backbone.typed.TypedCapture::publish", *issued, || {
                typed.publish(&positions[index])
            }),
        };
        if sent.is_err() {
            return (n - done) as u64;
        }
        *issued += 1;
    }
    0
}

#[allow(clippy::too_many_arguments)]
fn collect(
    streams: &[ForeignStream<'_>],
    typed: &TypedSubscriber<Position>,
    positions: &[Position],
    consumer: &Xml2Wire,
    scratch: &mut Vec<u8>,
    collected: &mut u64,
    n: usize,
    mut stamp: impl FnMut(),
    tracer: &mut Tracer,
) -> u64 {
    for done in 0..n {
        let index = ((*collected / STREAMS) % POOL as u64) as usize;
        let ok = match streams.get((*collected % STREAMS) as usize) {
            Some(stream) => {
                let event = tracer.span("backbone.broker.Subscription::recv", *collected, || {
                    stream.sub.recv_timeout(DEADLINE)
                });
                let Ok(event) = event else {
                    return (n - done) as u64;
                };
                let converted = tracer.span(
                    "core.session.Xml2Wire::to_native_image_into",
                    *collected,
                    || consumer.to_native_image_into(&event.payload, scratch),
                );
                converted.is_ok()
                    && tracer.span("pbio.view.RecordView::fields", *collected, || {
                        RecordView::over(scratch, &stream.format, consumer.arch())
                            .is_ok_and(|view| view_matches(&view, &stream.inputs.pool[index]))
                    })
            }
            None => {
                let event = tracer.span("backbone.broker.Subscription::recv", *collected, || {
                    typed.raw().recv_timeout(DEADLINE)
                });
                let Ok(event) = event else {
                    return (n - done) as u64;
                };
                tracer.span("backbone.typed.TypedSubscriber::decode", *collected, || {
                    typed
                        .decode(&event)
                        .is_ok_and(|position| position == positions[index])
                })
            }
        };
        if !ok {
            return (n - done) as u64;
        }
        stamp();
        *collected += 1;
    }
    0
}

impl Deployment for Hetero<'_> {
    fn round(&mut self, tracer: &mut Tracer) -> u64 {
        let open = tracer.enter("round", self.issued);
        let round = self.workload.plan().round;
        let positions = &self.workload.positions;
        let mut failed = issue(
            &self.streams,
            &self.typed_capture,
            positions,
            &mut self.issued,
            round,
            tracer,
        );
        if failed == 0 {
            failed = collect(
                &self.streams,
                &self.typed_sub,
                positions,
                &self.consumer,
                &mut self.scratch,
                &mut self.collected,
                round,
                || (),
                tracer,
            );
        }
        tracer.exit(open);
        failed
    }

    fn split(&mut self) -> (IssueFn<'_>, CollectFn<'_>) {
        let positions = &self.workload.positions;
        let streams = &self.streams;
        let (typed_capture, typed_sub, consumer) =
            (&self.typed_capture, &self.typed_sub, &self.consumer);
        let (issued, collected, scratch) =
            (&mut self.issued, &mut self.collected, &mut self.scratch);
        (
            Box::new(move |n, tracer| issue(streams, typed_capture, positions, issued, n, tracer)),
            Box::new(move |n, stamps, tracer| {
                let stamp = || stamps.push(std::time::Instant::now());
                collect(
                    streams, typed_sub, positions, consumer, scratch, collected, n, stamp, tracer,
                )
            }),
        )
    }

    /// In process nothing crosses a wire; what is counted is the NDR
    /// message handed to the broker. Every stream has sent the same
    /// number of whole pool cycles plus a prefix; the prefix is priced
    /// at the pool mean (exact at the cycle boundaries a run ends on
    /// to within one round).
    fn wire(&self) -> (u64, u64) {
        let per_stream = self.issued / STREAMS;
        let pool_total: u64 = self
            .streams
            .iter()
            .map(|s| s.inputs.pool_bytes)
            .sum::<u64>()
            + self.workload.position_bytes;
        (pool_total * per_stream / POOL as u64, per_stream * STREAMS)
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let plans = self.consumer.plan_stats();
        vec![
            ("core.schema_cache_hit_ratio", self.site.cache_hit_ratio()),
            (
                "pbio.plan_cache_hit_ratio",
                plans.hits as f64 / (plans.hits + plans.misses).max(1) as f64,
            ),
        ]
    }
}
