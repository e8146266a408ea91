//! Allocation accounting for the zero-copy hot path.
//!
//! The repo benchmark's `pbio.encode_dyn_ns` and
//! `backbone.stream.capture_publish_ns` rest on two structural claims
//! this test pins down with a counting global allocator:
//!
//! 1. `pbio::ndr::encode_into` performs **zero** allocations per message
//!    once its buffer has grown to the working-set size, and
//! 2. a warm `CapturePoint::publish` → `Broker::publish` allocates
//!    **nothing** per message, independent of the subscriber count: the
//!    capture point copies each message into an event it published
//!    earlier and every subscriber has dropped since.
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! disturb the counter. Claim 1 is made on the calling thread alone and
//! counts that thread only. Claim 2 counts the whole process — it is
//! about the shard worker's pushes, which a count of the calling thread
//! cannot see — so each pipeline's broker has one shard: a second, idle
//! shard worker's first run would land its thread start-up allocations
//! inside a window on a loaded machine.

use std::sync::Arc;

use backbone::{Broker, CapturePoint, Subscription};
use clayout::Architecture;
use omf_bench::{allocations, record_b, thread_allocations, CountingAllocator, SCHEMA_B};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Builds the same pipeline as the E-hot bench: a one-shard broker with
/// `subscribers` subscriptions on one stream and a capture point
/// publishing `ASDOffEvent` records.
fn pipeline(subscribers: usize) -> (CapturePoint, Vec<Subscription>) {
    let broker = Arc::new(Broker::with_shards(1));
    let session = Arc::new(xml2wire::Xml2Wire::builder().arch(Architecture::host()).build());
    session.register_schema_str(SCHEMA_B).unwrap();
    let capture =
        CapturePoint::new(Arc::clone(&broker), session, "hot", "ASDOffEvent", None).unwrap();
    let subs: Vec<_> = (0..subscribers).map(|_| broker.subscribe("hot").unwrap()).collect();
    (capture, subs)
}

/// Steady-state allocations per published message for a given fan-out:
/// publishes `rounds` messages (draining every subscriber each round so
/// queues stay at their warmed capacity) and returns the per-message
/// allocation count, which must divide evenly.
fn publish_allocs_per_message(capture: &CapturePoint, subs: &[Subscription]) -> usize {
    let record = record_b();
    // Warm-up: grow the scratch buffer, the shard queue, the dispatch
    // worker's reused batch buffers, and the subscriber queues.
    // Delivery is asynchronous (a shard worker fans out), so each round
    // blocks on recv() until the event lands. A burst first grows the
    // capture point's spares past one event: the shard worker may still
    // hold the last event a subscriber received, never the one before.
    for _ in 0..4 {
        capture.publish(&record).unwrap();
    }
    for sub in subs {
        for _ in 0..4 {
            sub.recv().unwrap();
        }
    }
    for _ in 0..16 {
        capture.publish(&record).unwrap();
        for sub in subs {
            sub.recv().unwrap();
        }
    }
    let rounds = 50;
    let before = allocations();
    for _ in 0..rounds {
        capture.publish(&record).unwrap();
        for sub in subs {
            sub.recv().unwrap();
        }
    }
    let total = allocations() - before;
    assert_eq!(total % rounds, 0, "allocation count {total} not uniform across {rounds} rounds");
    total / rounds
}

#[test]
fn hot_path_allocation_budget() {
    // --- Claim 1: encode_into is allocation-free at steady state. ---
    let session = xml2wire::Xml2Wire::builder().arch(Architecture::host()).build();
    session.register_schema_str(SCHEMA_B).unwrap();
    let format = session.require_format("ASDOffEvent").unwrap();
    let record = record_b();

    let mut buf = Vec::new();
    pbio::ndr::encode_into(&mut buf, &record, &format).unwrap(); // grows buf once
    let wire_len = buf.len();
    let before = thread_allocations();
    for _ in 0..100 {
        pbio::ndr::encode_into(&mut buf, &record, &format).unwrap();
    }
    let encode_allocs = thread_allocations() - before;
    assert_eq!(buf.len(), wire_len);
    assert_eq!(
        encode_allocs, 0,
        "pooled encode must not allocate per message at steady state"
    );

    // --- Claim 2: a warm publish allocates nothing, independent of
    // fan-out: the payload Vec and its Arc<Event> are reused. ---
    let (capture_1, subs_1) = pipeline(1);
    let per_message_1 = publish_allocs_per_message(&capture_1, &subs_1);

    let (capture_64, subs_64) = pipeline(64);
    let per_message_64 = publish_allocs_per_message(&capture_64, &subs_64);

    assert_eq!(
        per_message_1, per_message_64,
        "fan-out must not change the per-message allocation count"
    );
    assert_eq!(
        per_message_64, 0,
        "a warm publish should reuse an event its subscribers dropped"
    );
}
