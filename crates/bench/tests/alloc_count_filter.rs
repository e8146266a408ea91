//! Allocation accounting for compiled content filters (DESIGN §6.13).
//!
//! The `fanout_filtered` workload of the repo's benchmark rests on two
//! structural claims this test pins down with a counting global
//! allocator:
//!
//! 1. `StreamFilter::matches_message` performs **zero** allocations per
//!    event once the sender's architecture has been seen — on matches
//!    and non-matches alike — and neither does `StreamFilter::select`
//!    over a 128-message run of two sender architectures once its key
//!    list has grown, and
//! 2. a filtered broker publish allocates exactly what an unfiltered
//!    one does (the payload `Vec` and the `Arc<Event>` wrapper):
//!    predicate-indexed fanout adds nothing per event, independent of
//!    how many subscribers share the stream's programs, and
//! 3. on a stream of 16 programs and 256 subscribers — the stream's
//!    predicate set and its subscribers grouped by program — the
//!    publishing thread still allocates exactly those two per message,
//!    and dispatch on the shard worker allocates nothing.
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! disturb the counter. Claim 1 runs on the calling thread alone and
//! counts only its allocations (`thread_allocations`), so the test
//! harness's own threads cannot disturb it; claim 2 crosses the
//! broker's shard workers and counts the whole process.

use std::sync::Arc;

use backbone::{Broker, Event, StreamFilter, Subscription};
use clayout::{Architecture, CType, Primitive, Record, StructField, StructType, Value};
use omf_bench::{allocations, thread_allocations, CountingAllocator};
use pbio::format::{Format, FormatId};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn ticks() -> StructType {
    StructType::new(
        "Tick",
        vec![
            StructField::new("price", CType::Prim(Primitive::Long)),
            StructField::new("qty", CType::Prim(Primitive::UInt)),
            StructField::new("dest", CType::String),
        ],
    )
}

fn encode_tick(format: &Format, price: i64, dest: &str) -> Vec<u8> {
    let mut record = Record::new();
    record.set("price", Value::Int(price));
    record.set("qty", Value::UInt(3));
    record.set("dest", Value::String(dest.to_owned()));
    pbio::ndr::encode(&record, format).unwrap()
}

/// Steady-state allocations per published message on a stream with
/// `matching` always-matching and `rejecting` never-matching filtered
/// subscribers.
fn publish_allocs_per_message(matching: usize, rejecting: usize) -> usize {
    let st = ticks();
    let format = Format::new(FormatId(7), st.clone(), Architecture::host()).unwrap();
    // One shard: its worker delivers the warm-up events, so every broker
    // thread has started before counting. An idle second worker's first
    // run (thread start-up allocations) can land in the count on a
    // loaded machine.
    let broker = Arc::new(Broker::with_shards(1));
    broker.create_stream("hot", None);
    broker.register_stream_type("hot", st).unwrap();
    let keep: Vec<_> = (0..matching)
        .map(|_| broker.subscribe_filtered("hot", "price >= 0").unwrap())
        .collect();
    let _drop: Vec<_> = (0..rejecting)
        .map(|_| broker.subscribe_filtered("hot", "price > 1000000").unwrap())
        .collect();

    let payload = encode_tick(&format, 150, "ATL");
    // Pre-built Arc<str> names so the loop measures the publish path,
    // not `&str -> Arc<str>` conversions the real hot path (pinned
    // `PublishHandle`s) never performs.
    let stream: Arc<str> = Arc::from("hot");
    let fmt: Arc<str> = Arc::from("Tick");
    let event =
        || Event::new(Arc::clone(&stream), Arc::clone(&fmt), payload.clone());
    // Warm-up: lazily compile the per-arch programs, grow the shard
    // queue and the subscriber queues to working-set capacity.
    for _ in 0..16 {
        broker.publish(event()).unwrap();
        for sub in &keep {
            sub.recv().unwrap();
        }
    }
    let rounds = 50;
    let before = allocations();
    for _ in 0..rounds {
        broker.publish(event()).unwrap();
        for sub in &keep {
            sub.recv().unwrap();
        }
    }
    let total = allocations() - before;
    assert_eq!(total % rounds, 0, "allocation count {total} not uniform across {rounds} rounds");
    total / rounds
}

/// Steady-state allocations on a stream with 16 programs, each shared
/// by 16 subscribers: per message on the publishing thread, and in all
/// on every other thread. Each message matches one program, whose 16
/// subscribers take it on the publishing thread.
fn wide_fanout_allocs_per_message() -> (usize, usize) {
    const PROGRAMS: i64 = 16;
    let st = ticks();
    let format = Format::new(FormatId(7), st.clone(), Architecture::host()).unwrap();
    let broker = Arc::new(Broker::with_shards(1));
    broker.create_stream("wide", None);
    broker.register_stream_type("wide", st).unwrap();
    let groups: Vec<Vec<Subscription>> = (0..PROGRAMS)
        .map(|p| {
            let expr = format!("price >= {} && price < {}", 100 * p, 100 * (p + 1));
            (0..16)
                .map(|_| broker.subscribe_filtered("wide", &expr).unwrap())
                .collect()
        })
        .collect();
    let payloads: Vec<Vec<u8>> = (0..PROGRAMS)
        .map(|p| encode_tick(&format, 100 * p + 50, "ATL"))
        .collect();
    let stream: Arc<str> = Arc::from("wide");
    let fmt: Arc<str> = Arc::from("Tick");
    let round = || {
        for (payload, group) in payloads.iter().zip(&groups) {
            let event = Event::new(Arc::clone(&stream), Arc::clone(&fmt), payload.clone());
            broker.publish(event).unwrap();
            for sub in group {
                sub.recv().unwrap();
            }
        }
    };
    // Warm-up: grows the shard queue, the match lists and the
    // subscriber queues to working-set capacity.
    for _ in 0..4 {
        round();
    }
    let rounds = 8;
    let (before_thread, before) = (thread_allocations(), allocations());
    for _ in 0..rounds {
        round();
    }
    let messages = rounds * PROGRAMS as usize;
    let thread = thread_allocations() - before_thread;
    let others = allocations() - before - thread;
    assert_eq!(thread % messages, 0, "{thread} allocations not uniform across {messages} messages");
    (thread / messages, others)
}

#[test]
fn filtered_fanout_allocation_budget() {
    // --- Claim 1: matches_message is allocation-free at steady state. ---
    let st = ticks();
    let format = Format::new(FormatId(7), st.clone(), Architecture::host()).unwrap();
    let f = StreamFilter::compile("price > 100 && dest == \"ATL\"", &st).unwrap();
    let hit = encode_tick(&format, 150, "ATL");
    let miss = encode_tick(&format, 50, "BOS");
    assert!(f.matches_message(&hit)); // warm: compiles the per-arch program
    let before = thread_allocations();
    for _ in 0..1_000 {
        assert!(f.matches_message(&hit));
        assert!(!f.matches_message(&miss));
    }
    assert_eq!(
        thread_allocations() - before,
        0,
        "filter evaluation must not allocate per event"
    );
    // The batch form over a 128-message run: host messages interleaved
    // with runs of big-endian ones, whose program is compiled by the
    // warm-up call and shared, not rebuilt, afterwards.
    let sparc = Format::new(FormatId(7), st.clone(), Architecture::SPARC32).unwrap();
    let foreign_hit = encode_tick(&sparc, 150, "ATL");
    let run: Vec<&[u8]> = (0..128)
        .map(|k| match k % 8 {
            0..=2 => foreign_hit.as_slice(),
            3..=4 => hit.as_slice(),
            _ => miss.as_slice(),
        })
        .collect();
    let mut matched = Vec::new();
    f.select(run.iter().copied().enumerate(), &mut matched); // warm
    let want = matched.len();
    assert_eq!(want, 128 / 8 * 5);
    let before = thread_allocations();
    for _ in 0..100 {
        matched.clear();
        f.select(run.iter().copied().enumerate(), &mut matched);
        assert_eq!(matched.len(), want);
    }
    assert_eq!(
        thread_allocations() - before,
        0,
        "a warm select over a run must not allocate"
    );

    // --- Claim 2: filtered publish keeps the unfiltered budget — the
    // payload clone and the Arc<Event> — no matter the subscriber mix. ---
    let small = publish_allocs_per_message(1, 1);
    let wide = publish_allocs_per_message(32, 32);
    assert_eq!(
        small, wide,
        "filtered fan-out must not change the per-message allocation count"
    );
    assert_eq!(
        wide, 2,
        "filtered publish should allocate exactly the payload and its Arc<Event> wrapper"
    );

    // --- Claim 3: 16 programs over 256 subscribers: the same two on the
    // publishing thread, nothing in dispatch. ---
    let (publishing, dispatch) = wide_fanout_allocs_per_message();
    assert_eq!(
        publishing, 2,
        "a publish into a 16-program set should allocate the payload and its Arc<Event>"
    );
    assert_eq!(dispatch, 0, "dispatch through the stream's predicate set allocated");
}
