//! Stress test for the sharded broker: concurrent publishers on
//! overlapping streams with subscribe/unsubscribe churn.
//!
//! Two properties must survive sharding and batched fanout:
//!
//! 1. **Per-stream ordering**: events from one publisher on one stream
//!    arrive at every subscriber in publish order (streams are pinned to
//!    shards, shard queues are FIFO, and batch dispatch groups with a
//!    stable order).
//! 2. **Synchronous unsubscribe**: `Subscription::unsubscribe()` returns
//!    the backlog the worker dispatched before it removed the subscriber;
//!    the events a churner received, followed by that backlog, run on
//!    from one publisher's sequence to the next without a gap or a
//!    repeat.
//!
//! Time-boxed via `SHARD_STRESS_SECS` (default 2) so CI stays fast.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use backbone::Broker;

const STREAMS: usize = 4;
const PUBLISHERS: usize = 8; // 2 per stream: overlapping publishers
const CHURNERS: usize = 4;

fn stress_secs() -> u64 {
    std::env::var("SHARD_STRESS_SECS").ok().and_then(|s| s.parse().ok()).unwrap_or(2)
}

/// Payload: publisher id (u32) ∥ per-publisher sequence number (u64).
fn encode(publisher: u32, seq: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(12);
    payload.extend_from_slice(&publisher.to_le_bytes());
    payload.extend_from_slice(&seq.to_le_bytes());
    payload
}

fn decode(payload: &[u8]) -> (u32, u64) {
    let publisher = u32::from_le_bytes(payload[..4].try_into().unwrap());
    let seq = u64::from_le_bytes(payload[4..12].try_into().unwrap());
    (publisher, seq)
}

#[test]
fn concurrent_publish_with_subscription_churn() {
    let broker = Arc::new(Broker::new());
    let streams: Vec<Arc<str>> = (0..STREAMS).map(|i| format!("stress-{i}").into()).collect();
    for stream in &streams {
        broker.create_stream(stream.to_string(), None);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + Duration::from_secs(stress_secs());

    // Long-lived subscribers: one per stream, verifying per-publisher
    // monotone sequence numbers for the whole run.
    let verifiers: Vec<_> = streams
        .iter()
        .map(|stream| {
            let sub = broker.subscribe(stream).unwrap();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_seq = [None::<u64>; PUBLISHERS];
                let mut seen = 0u64;
                loop {
                    match sub.recv_timeout(Duration::from_millis(50)) {
                        Ok(event) => {
                            let (publisher, seq) = decode(&event.payload);
                            let last = &mut last_seq[publisher as usize];
                            assert!(
                                last.is_none_or(|l| seq == l + 1),
                                "publisher {publisher} jumped {last:?} -> {seq}: \
                                 per-stream order broken"
                            );
                            *last = Some(seq);
                            seen += 1;
                        }
                        Err(_) => {
                            if stop.load(Ordering::SeqCst) && sub.backlog() == 0 {
                                return seen;
                            }
                        }
                    }
                }
            })
        })
        .collect();

    // Publishers: two per stream, each with its own id and sequence.
    let publishers: Vec<_> = (0..PUBLISHERS)
        .map(|publisher| {
            let broker = Arc::clone(&broker);
            let stream = Arc::clone(&streams[publisher % STREAMS]);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let handle = broker.publish_handle(&stream).unwrap();
                let mut seq = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    handle
                        .publish("F".into(), encode(publisher as u32, seq))
                        .unwrap();
                    seq += 1;
                }
                seq
            })
        })
        .collect();

    // Churners: subscribe, consume a few events, unsubscribe, and check
    // that what they received, then the returned backlog, is in order.
    let churn_cycles = Arc::new(AtomicUsize::new(0));
    let churners: Vec<_> = (0..CHURNERS)
        .map(|i| {
            let broker = Arc::clone(&broker);
            let stream = Arc::clone(&streams[i % STREAMS]);
            let stop = Arc::clone(&stop);
            let cycles = Arc::clone(&churn_cycles);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let sub = broker.subscribe(&stream).unwrap();
                    let mut received = Vec::new();
                    for _ in 0..16 {
                        if let Ok(event) = sub.recv_timeout(Duration::from_millis(20)) {
                            received.push(event);
                        }
                    }
                    let backlog = sub.unsubscribe();
                    let mut last_seq = [None::<u64>; PUBLISHERS];
                    for event in received.iter().chain(&backlog) {
                        let (publisher, seq) = decode(&event.payload);
                        let last = &mut last_seq[publisher as usize];
                        assert!(
                            last.is_none_or(|l| seq == l + 1),
                            "publisher {publisher} jumped {last:?} -> {seq} \
                             across received events and unsubscribe's backlog"
                        );
                        *last = Some(seq);
                    }
                    cycles.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();

    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::SeqCst);

    let published: u64 = publishers.into_iter().map(|h| h.join().unwrap()).sum();
    for churner in churners {
        churner.join().unwrap();
    }
    let seen: u64 = verifiers.into_iter().map(|h| h.join().unwrap()).sum();

    assert!(published > 0, "publishers made no progress");
    assert!(seen > 0, "verifiers saw no events");
    assert!(churn_cycles.load(Ordering::SeqCst) > 0, "churners made no progress");
    // Long-lived verifiers are lossless: they see every
    // event published to their stream.
    assert_eq!(seen, published, "verifier delivery incomplete");
}
