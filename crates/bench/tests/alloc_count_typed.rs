//! Allocation accounting for the derived (typed-binding) paths.
//!
//! The repo benchmark's `x2w-derive.encode_ns`,
//! `backbone.typed.publish_ns` and `x2w-derive.decode_view_ns` rest on
//! the structural claims the dynamic path makes in `alloc_count.rs`, for
//! a `#[derive(Xml2WireRecord)]` struct marshaled by its format's plans:
//!
//! 1. `pbio::ndr::encode_typed_into` performs **zero** allocations per
//!    message once its buffer has grown to the working-set size;
//! 2. `TypedCapture::publish` allocates exactly what the dynamic
//!    `CapturePoint::publish` does — nothing once warm, the event its
//!    subscribers dropped being reused — independent of the subscriber
//!    count;
//! 3. a warm `TypedSubscriber::decode` of a host-architecture event
//!    allocates only the decoded value's own heap data (Structure B: its
//!    five `String`s and its one `Vec`) — the view borrows the
//!    subscriber format's plan instead of building one per message.
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! disturb the counter. Every claim counts the calling thread only
//! (`thread_allocations`): a publish allocates, if at all, on the
//! publishing thread, and a process-wide count also took in the
//! broker's shard workers, whose thread start-up could land inside the
//! counted rounds on a loaded machine. What a shard worker allocates
//! per delivery is `alloc_count.rs`'s process-wide claim; the typed
//! publish hands the broker the same event the dynamic one does.

use std::sync::Arc;

use backbone::{Broker, Subscription, TypedCapture, TypedSubscriber};
use clayout::Architecture;
use omf_bench::{thread_allocations, typed_b, ASDOffEvent, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The typed twin of `alloc_count.rs`'s pipeline: a broker with
/// `subscribers` subscriptions on one stream and a
/// `TypedCapture<ASDOffEvent>` publishing derived records.
fn pipeline(subscribers: usize) -> (Arc<Broker>, TypedCapture<ASDOffEvent>, Vec<Subscription>) {
    let broker = Arc::new(Broker::new());
    let session = xml2wire::Xml2Wire::builder().arch(Architecture::host()).build();
    let capture =
        TypedCapture::<ASDOffEvent>::new(Arc::clone(&broker), &session, "hot", None).unwrap();
    let subs: Vec<_> = (0..subscribers).map(|_| broker.subscribe("hot").unwrap()).collect();
    (broker, capture, subs)
}

/// Steady-state allocations per published message for a given fan-out
/// (see `alloc_count.rs` for the warm-up/drain discipline this copies).
fn publish_allocs_per_message(
    capture: &TypedCapture<ASDOffEvent>,
    subs: &[Subscription],
) -> usize {
    let value = typed_b();
    // A burst grows the capture point's spares past the one event a
    // shard worker may still hold (see `alloc_count.rs`).
    for _ in 0..4 {
        capture.publish(&value).unwrap();
    }
    for sub in subs {
        for _ in 0..4 {
            sub.recv().unwrap();
        }
    }
    for _ in 0..16 {
        capture.publish(&value).unwrap();
        for sub in subs {
            sub.recv().unwrap();
        }
    }
    let rounds = 50;
    let before = thread_allocations();
    for _ in 0..rounds {
        capture.publish(&value).unwrap();
        for sub in subs {
            sub.recv().unwrap();
        }
    }
    let total = thread_allocations() - before;
    assert_eq!(total % rounds, 0, "allocation count {total} not uniform across {rounds} rounds");
    total / rounds
}

#[test]
fn typed_path_allocation_budget() {
    // --- Claim 1: encode_typed_into is allocation-free at steady state. ---
    let session = xml2wire::Xml2Wire::builder().arch(Architecture::host()).build();
    let format = session.register_record::<ASDOffEvent>().unwrap();
    let value = typed_b();

    let mut buf = Vec::new();
    pbio::ndr::encode_typed_into(&mut buf, &value, &format).unwrap(); // grows buf once
    let wire_len = buf.len();
    let before = thread_allocations();
    for _ in 0..100 {
        pbio::ndr::encode_typed_into(&mut buf, &value, &format).unwrap();
    }
    let encode_allocs = thread_allocations() - before;
    assert_eq!(buf.len(), wire_len);
    assert_eq!(
        encode_allocs, 0,
        "derived encode must not allocate per message at steady state"
    );

    // --- Claim 2: typed publish matches the dynamic path's budget —
    // nothing once warm, regardless of fan-out. ---
    let (broker_1, capture_1, subs_1) = pipeline(1);
    let per_message_1 = publish_allocs_per_message(&capture_1, &subs_1);

    let (_, capture_64, subs_64) = pipeline(64);
    let per_message_64 = publish_allocs_per_message(&capture_64, &subs_64);

    assert_eq!(
        per_message_1, per_message_64,
        "fan-out must not change the per-message allocation count"
    );
    assert_eq!(
        per_message_64, 0,
        "a warm typed publish should reuse an event its subscribers dropped"
    );

    // --- Claim 3: a warm typed decode of a host-architecture event
    // allocates the value's strings and vector and nothing else. On the
    // warmed 1-subscriber pipeline, so no dispatch thread is still
    // starting up. ---
    let typed = TypedSubscriber::<ASDOffEvent>::new(&broker_1, "hot").unwrap();
    capture_1.publish(&value).unwrap();
    subs_1[0].recv().unwrap();
    let event = typed.raw().recv().unwrap();
    assert_eq!(typed.decode(&event).unwrap(), value); // builds the view plan
    let rounds = 50;
    let before = thread_allocations();
    for _ in 0..rounds {
        std::hint::black_box(typed.decode(&event).unwrap());
    }
    let decode_allocs = thread_allocations() - before;
    assert_eq!(
        decode_allocs,
        6 * rounds,
        "a typed decode of Structure B should allocate its five Strings and one Vec only"
    );
}
