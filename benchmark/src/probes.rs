//! Isolated layer probes.
//!
//! Stages that run on the system's own threads — the shard queue,
//! `writev`, the socket read — cannot be bracketed by a span from
//! outside. For those, and for every layer's unit cost, the traced run
//! replays the seed's generated inputs through the layer's public
//! function in isolation and times it here. A probe repeats its batch
//! [`BATCHES`] times and reports the fastest by the wall clock (the
//! per-event time the layer budget is held against is the fastest
//! slice's, the same kind of number).
//!
//! The same kit runs on every workload (it is a property of the code
//! and the seed, not of the workload); which probes enter a workload's
//! per-event budget is the workload's `budget()`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use backbone::{Broker, CapturePoint, Event, Frame, StreamFilter, TypedCapture, TypedSubscriber};
use clayout::{Architecture, Layout};
use pbio::{ConversionPlan, PlanCache, PlanTier};
use xml2wire::{FsyncPolicy, MetadataServer, SegLogConfig, SegmentLog, UrlSource, Xml2Wire};

use crate::gen::{self, Position};
use crate::harness::{Deployment, Fail, SetupClock, DEADLINE};
use crate::report::Measured;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::relay_small::RelaySmall;
use crate::workloads::{site_catalogue, view_matches, CATALOGUE_TYPES};

/// Repeats of each probe's batch; the fastest is reported.
const BATCHES: usize = 7;

/// Fastest of [`BATCHES`] runs of `batch`, which performs `ops`
/// operations; returns nanoseconds per operation.
fn best_ns(ops: usize, mut batch: impl FnMut()) -> f64 {
    let mut best = Duration::MAX;
    for _ in 0..BATCHES {
        let started = Instant::now();
        batch();
        best = best.min(started.elapsed());
    }
    best.as_nanos() as f64 / ops as f64
}

/// Like [`best_ns`] for calls that queue work on the system's threads:
/// each batch is [`CALLS`] timed `call`s followed by an untimed
/// `settle` that takes what they queued back off.
fn best_call_ns(
    mut call: impl FnMut(usize) -> Result<(), Fail>,
    mut settle: impl FnMut() -> Result<(), Fail>,
) -> Result<f64, Fail> {
    let mut best = Duration::MAX;
    for _ in 0..BATCHES {
        let started = Instant::now();
        for i in 0..CALLS {
            call(i)?;
        }
        best = best.min(started.elapsed());
        settle()?;
    }
    Ok(best.as_nanos() as f64 / CALLS as f64)
}

/// Calls per batch of [`best_call_ns`].
const CALLS: usize = 256;

fn mib_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / (ns / 1e9)
}

/// Runs the whole kit for `seed`. `scratch_dir` hosts the segment-log
/// probes' files.
pub fn run(seed: u64, scratch_dir: &std::path::Path) -> Result<Vec<Measured>, Fail> {
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, samples: usize| {
        out.push(Measured::new(name, value, samples as u64));
    };

    // ---- metadata path: xmlparse, xsdlite, clayout, core ------------------
    let catalogue = site_catalogue(seed);
    let types = CATALOGUE_TYPES + 1;

    let ns = best_ns(1, || {
        let mut reader = xmlparse::Reader::new(&catalogue);
        while !matches!(
            reader.next_borrowed().expect("generated XML"),
            xmlparse::BorrowedEvent::Eof
        ) {}
    });
    push(
        "xmlparse.tokenize_mib_s",
        mib_per_s(catalogue.len(), ns),
        BATCHES,
    );

    let ns = best_ns(1, || {
        let mut reader = xmlparse::StreamingReader::new(catalogue.as_bytes());
        while !matches!(
            reader.next_event().expect("generated XML"),
            xmlparse::Event::Eof
        ) {}
    });
    push(
        "xmlparse.stream_mib_s",
        mib_per_s(catalogue.len(), ns),
        BATCHES,
    );

    let ns = best_ns(types, || {
        black_box(xsdlite::Schema::parse_stream(catalogue.as_bytes()).expect("generated schema"));
    });
    push("xsdlite.parse_us_per_type", ns / 1e3, BATCHES);

    let schema = xsdlite::Schema::parse_stream(catalogue.as_bytes())?;
    let host = Xml2Wire::builder().build();
    let formats = host.register_schema(&schema)?;
    let ns = best_ns(formats.len() * Architecture::ALL.len(), || {
        for format in &formats {
            for arch in &Architecture::ALL {
                black_box(
                    Layout::of_struct(format.struct_type(), arch).expect("lays out everywhere"),
                );
            }
        }
    });
    push("clayout.layout_us_per_type", ns / 1e3, BATCHES);

    let ns = best_ns(types, || {
        let session = Xml2Wire::builder().build();
        black_box(
            session
                .register_schema(&schema)
                .expect("generated schema binds"),
        );
    });
    push("core.register_us_per_type", ns / 1e3, BATCHES);

    let server = MetadataServer::bind("127.0.0.1:0")?;
    server.publish("/site/catalogue.xsd", catalogue.clone());
    let url = server.url_for("/site/catalogue.xsd");
    let ns = best_ns(4, || {
        for _ in 0..4 {
            black_box(xml2wire::server::http_get(&url).expect("local metadata server answers"));
        }
    });
    push("core.http_get_us", ns / 1e3, BATCHES);

    let ns = best_ns(4, || {
        for _ in 0..4 {
            let session = Xml2Wire::builder()
                .source(Box::new(UrlSource::new()))
                .build();
            black_box(
                session
                    .discover(&url)
                    .expect("local metadata server answers"),
            );
        }
    });
    push("core.discover_us", ns / 1e3, BATCHES);
    drop(server);

    // ---- marshaling: pbio, x2w-derive --------------------------------------
    let vocabulary = gen::Vocabulary::new(seed);
    let b_pool = gen::b_pool(seed, &vocabulary);
    let telemetry_pool = gen::telemetry_pool(seed);
    let positions = gen::position_pool(seed);
    let sample = 1024.min(gen::POOL);

    let b_host = host.require_format(gen::B_FORMAT)?;
    let mut scratch = Vec::new();
    let ns = best_ns(sample, || {
        for record in &b_pool[..sample] {
            pbio::ndr::encode_into(&mut scratch, record, &b_host)
                .expect("generated records encode");
            black_box(&scratch);
        }
    });
    push("pbio.encode_dyn_ns", ns, BATCHES);

    let position_format = host.register_record::<Position>()?;
    let ns = best_ns(sample, || {
        for position in &positions[..sample] {
            pbio::ndr::encode_typed_into(&mut scratch, position, &position_format)
                .expect("generated records encode");
            black_box(&scratch);
        }
    });
    push("x2w-derive.encode_ns", ns, BATCHES);

    // Wire images, as their senders would produce them.
    let encode_all = |pool: &[clayout::Record],
                      schema: &str,
                      arch: Architecture|
     -> Result<Vec<Vec<u8>>, Fail> {
        let session = Xml2Wire::builder().arch(arch).build();
        let format = session.register_schema_str(schema)?.remove(0);
        pool[..sample]
            .iter()
            .map(|r| Ok(pbio::ndr::encode(r, &format)?))
            .collect()
    };
    let b_schema = gen::b_schema();
    let b_from_host = encode_all(&b_pool, &b_schema, Architecture::host())?;
    let b_from_sparc = encode_all(&b_pool, &b_schema, Architecture::SPARC32)?;
    let telemetry_from_power = encode_all(
        &telemetry_pool,
        &gen::telemetry_schema(),
        Architecture::POWER64,
    )?;
    let telemetry_st = {
        let session = Xml2Wire::builder().build();
        session
            .register_schema_str(&gen::telemetry_schema())?
            .remove(0)
            .struct_type()
            .clone()
    };

    let ns = best_ns(16, || {
        for _ in 0..16 {
            black_box(
                ConversionPlan::build(
                    b_host.struct_type(),
                    &Architecture::SPARC32,
                    &Architecture::host(),
                )
                .expect("Structure B converts"),
            );
        }
    });
    push("pbio.plan_build_us", ns / 1e3, BATCHES);

    let plans = PlanCache::new();
    plans.plan_for(
        b_host.struct_type(),
        &Architecture::SPARC32,
        &Architecture::host(),
    )?;
    let ns = best_ns(sample, || {
        for _ in 0..sample {
            black_box(
                plans
                    .plan_for(
                        b_host.struct_type(),
                        &Architecture::SPARC32,
                        &Architecture::host(),
                    )
                    .expect("cached"),
            );
        }
    });
    push("pbio.plan_cache_hit_ns", ns, BATCHES);

    for (name, tier, struct_type, src, messages) in [
        (
            "pbio.convert_identity_ns",
            PlanTier::Identity,
            b_host.struct_type(),
            Architecture::host(),
            &b_from_host,
        ),
        (
            "pbio.convert_pureswap_ns",
            PlanTier::PureSwap,
            &telemetry_st,
            Architecture::POWER64,
            &telemetry_from_power,
        ),
        (
            "pbio.convert_general_ns",
            PlanTier::General,
            b_host.struct_type(),
            Architecture::SPARC32,
            &b_from_sparc,
        ),
    ] {
        let plan = ConversionPlan::build(struct_type, &src, &Architecture::host())?;
        if plan.tier() != tier {
            return Err(Fail(format!(
                "{name}: the plan is {:?}, not {tier:?}",
                plan.tier()
            )));
        }
        let payloads: Vec<&[u8]> = messages
            .iter()
            .map(|m| pbio::ndr::split(m).map(|(_, payload)| payload))
            .collect::<Result<_, _>>()?;
        let mut image = Vec::new();
        let ns = best_ns(payloads.len(), || {
            for payload in &payloads {
                black_box(
                    plan.convert_into(payload, &mut image)
                        .expect("generated images convert"),
                );
            }
        });
        push(name, ns, BATCHES);
    }

    let ns = best_ns(sample, || {
        for (message, reference) in b_from_host.iter().zip(&b_pool) {
            let view = pbio::ndr::view_with(message, &b_host).expect("generated messages view");
            assert!(
                view_matches(&view, reference),
                "a viewed message differs from its reference"
            );
        }
    });
    push("pbio.view_ns", ns, BATCHES);

    let ns = best_ns(sample, || {
        for message in &b_from_host {
            black_box(pbio::ndr::decode_with(message, &b_host).expect("generated messages decode"));
        }
    });
    push("pbio.decode_record_ns", ns, BATCHES);

    // ---- backbone: stream, typed, broker -----------------------------------
    let broker = Arc::new(Broker::new());
    let session = Arc::new(Xml2Wire::builder().build());
    session.register_schema_str(&b_schema)?;
    let capture = CapturePoint::new(
        Arc::clone(&broker),
        Arc::clone(&session),
        "probe.asd",
        gen::B_FORMAT,
        None,
    )?;
    let sub = broker.subscribe("probe.asd")?;
    let drain = || (0..CALLS).try_for_each(|_| sub.recv_timeout(DEADLINE).map(drop));
    let ns = best_call_ns(
        |i| Ok(capture.publish(&b_pool[i]).map(drop)?),
        || Ok(drain()?),
    )?;
    push("backbone.stream.capture_publish_ns", ns, BATCHES);

    let mut events = (0..BATCHES * CALLS)
        .map(|i| Event::new("probe.asd", gen::B_FORMAT, b_from_host[i % CALLS].clone()))
        .collect::<Vec<_>>()
        .into_iter();
    let ns = best_call_ns(
        |_| {
            Ok(broker
                .publish(events.next().expect("one event per call"))
                .map(drop)?)
        },
        || Ok(drain()?),
    )?;
    push("backbone.broker.publish_ns", ns, BATCHES);

    let mut handoffs = Vec::with_capacity(2048);
    for record in b_pool.iter().cycle().take(2048) {
        capture.publish(record)?;
        let published = Instant::now();
        sub.recv_timeout(DEADLINE)?;
        handoffs.push(published.elapsed().as_secs_f64() * 1e6);
    }
    push(
        "backbone.broker.handoff_us",
        stats::quantile(&handoffs, 0.1).unwrap_or(0.0),
        handoffs.len(),
    );

    let ns = best_ns(64, || {
        for _ in 0..64 {
            black_box(broker.subscribe("probe.asd").expect("the stream exists"));
        }
    });
    push("backbone.broker.subscribe_us", ns / 1e3, BATCHES);

    let typed_capture =
        TypedCapture::<Position>::new(Arc::clone(&broker), &session, "probe.position", None)?;
    let typed_sub = TypedSubscriber::<Position>::new(&broker, "probe.position")?;
    let mut typed_events = Vec::with_capacity(CALLS);
    let ns = best_call_ns(
        |i| Ok(typed_capture.publish(&positions[i]).map(drop)?),
        || {
            typed_events.clear();
            for _ in 0..CALLS {
                typed_events.push(typed_sub.raw().recv_timeout(DEADLINE)?);
            }
            Ok(())
        },
    )?;
    push("backbone.typed.publish_ns", ns, BATCHES);
    let ns = best_ns(typed_events.len(), || {
        for (event, reference) in typed_events.iter().zip(&positions) {
            let decoded = typed_sub.decode(event).expect("generated messages decode");
            assert!(
                &decoded == reference,
                "a decoded position differs from its reference"
            );
        }
    });
    push("x2w-derive.decode_view_ns", ns, BATCHES);

    // ---- backbone: filter ---------------------------------------------------
    let predicates = gen::predicates(seed, &vocabulary);
    let ns = best_ns(predicates.len(), || {
        for expr in &predicates {
            black_box(
                StreamFilter::compile(expr, b_host.struct_type())
                    .expect("generated predicates compile"),
            );
        }
    });
    push("backbone.filter.compile_us", ns / 1e3, BATCHES);
    let filters: Vec<StreamFilter> = predicates
        .iter()
        .map(|expr| StreamFilter::compile(expr, b_host.struct_type()))
        .collect::<Result<_, _>>()?;
    let ns = best_ns(filters.len() * b_from_host.len(), || {
        for filter in &filters {
            for message in &b_from_host {
                black_box(filter.matches_message(message));
            }
        }
    });
    push("backbone.filter.eval_ns", ns, BATCHES);

    // ---- backbone: net ------------------------------------------------------
    let frames: Vec<Frame> = b_from_host[..256]
        .iter()
        .map(|m| Frame::new("probe.asd", m.clone()))
        .collect();
    let ns = best_ns(frames.len(), || {
        for chunk in frames.chunks(64) {
            backbone::net::write_frame_batch(&mut std::io::sink(), chunk)
                .expect("a sink accepts everything");
        }
    });
    push("backbone.net.frame_write_ns", ns, BATCHES);
    let mut bytes = Vec::new();
    backbone::net::write_frames(&mut bytes, &frames)?;
    let ns = best_ns(frames.len(), || {
        let mut reader = bytes.as_slice();
        while let Some(frame) = backbone::net::read_frame(&mut reader).expect("frames just written")
        {
            black_box(frame);
        }
    });
    push("backbone.net.frame_read_ns", ns, BATCHES);

    // ---- backbone: federation ----------------------------------------------
    // The same events with and without the hop; the difference prices
    // the federation layer (forwarder, transport, link, second broker).
    let relay = RelaySmall::new(seed);
    let per_event_us = |hop: bool, round: usize, rounds: usize| -> Result<Vec<f64>, Fail> {
        let mut deployment = relay.deploy_with(hop, round, &mut SetupClock::off())?;
        let mut tracer = Tracer::off();
        let mut samples = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let started = Instant::now();
            if deployment.round(&mut tracer) != 0 {
                return Err(Fail("a probe relay round failed".to_owned()));
            }
            samples.push(started.elapsed().as_secs_f64() * 1e6 / round as f64);
        }
        Ok(samples)
    };
    let with_hop = per_event_us(true, 256, 200)?;
    let without = per_event_us(false, 256, 200)?;
    let quiet = |samples: &[f64]| stats::quantile(samples, 0.1).unwrap_or(0.0);
    push(
        "backbone.federation.us_per_event",
        quiet(&with_hop) - quiet(&without),
        with_hop.len(),
    );
    let rtt = per_event_us(true, 1, 2000)?;
    push(
        "diag.net_rtt_p50_us",
        stats::median(&rtt).unwrap_or(0.0),
        rtt.len(),
    );

    // ---- core: seglog -------------------------------------------------------
    let dir = scratch_dir.join("probe-seglog");
    let _ = std::fs::remove_dir_all(&dir);
    let config = SegLogConfig {
        fsync: FsyncPolicy::Never,
        ..SegLogConfig::default()
    };
    let records = 65_536u64;
    let mut log = SegmentLog::open(&dir, config)?;
    let mut next_seq = 1u64;
    let mut append_ns = f64::MAX;
    for _ in 0..BATCHES {
        let batch = records / BATCHES as u64;
        let started = Instant::now();
        for i in 0..batch {
            log.append(next_seq, &b_from_host[(i % sample as u64) as usize])?;
            next_seq += 1;
        }
        append_ns = append_ns.min(started.elapsed().as_nanos() as f64 / batch as f64);
    }
    push("core.seglog.append_ns", append_ns, BATCHES);
    let appended = next_seq - 1;
    let ns = best_ns(appended as usize, || {
        let mut replay = log.replay_from(1).expect("the log was just written");
        let mut seen = 0;
        while let Some((seq, record)) = replay.next_record().expect("the log was just written") {
            seen += 1;
            assert_eq!(seq, seen, "replay is 1..=N in order");
            black_box(record);
        }
        assert_eq!(seen, appended);
    });
    push("core.seglog.replay_ns", ns, BATCHES);
    drop(log);
    let ns = best_ns(1, || {
        black_box(SegmentLog::open(&dir, config).expect("the log reopens"));
    });
    push("core.seglog.open_ms", ns / 1e6, BATCHES);
    let _ = std::fs::remove_dir_all(&dir);

    Ok(out)
}
