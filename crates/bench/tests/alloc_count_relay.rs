//! Allocation accounting for an event's whole path across one
//! federation hop, as the `relay_small` workload of the repo's
//! benchmark drives it — the path, not a layer:
//!
//! `CapturePoint::publish` → origin `Broker` → `FederatedBroker`
//! forwarder → event loop → 127.0.0.1 → `FederationLink` → leaf
//! `Broker` → `Subscription::recv_timeout` → drop, with every thread
//! of the process counted.
//!
//! A live event costs four allocations end to end: its payload `Vec`
//! and its `Arc<Event>` where it enters the origin broker, and the same
//! two where the link republishes it. An event replayed from a durable
//! stream's log costs only the link's two: the forwarder hands its
//! replay subscription each drained batch back, and the subscription
//! overwrites those events with the next records in place. Everything
//! between is per *batch*:
//! the forwarder writes a drained batch straight into one wire block
//! (one allocation, sized after the blocks before it), the loop thread
//! and the kernel move the block, and the link parses events in place
//! in its receive window and publishes each read with one queue
//! hand-off.
//!
//! How many events share a block is, on the live path, the scheduler's
//! decision — a forwarder that is woken for every event owes the wire a
//! block per event — so the pin has two halves:
//!
//! 1. **Live, under any schedule**: `T(2N) − T(N) ≤ 5N + N/16` — four
//!    per event and at most one more per block, however small the
//!    blocks come out. (What this path cost before blocks, ~10 per
//!    event, fails it twice over.)
//! 2. **Batches full by construction**: the same hop fed from a durable
//!    stream's log, where the forwarder's batches are whole (archived
//!    records do not wait): `T(2N) − T(N) ≤ 2N + N/16` across two
//!    catch-ups of N and 2N events — the link's two per event; the
//!    block per 64 events and the queues' growth fit in the sixteenth.
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! disturb the counter.

use std::sync::Arc;
use std::time::{Duration, Instant};

use backbone::{
    Broker, CapturePoint, DurableSpec, Event, FederatedBroker, FederationLink, LinkConfig,
    NetConfig, StreamConfig, Subscription,
};
use clayout::Architecture;
use omf_bench::{allocations, record_b, CountingAllocator, SCHEMA_B};
use xml2wire::{FsyncPolicy, SegLogConfig};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const STREAM: &str = "asd-offs";
/// Events per publish burst, as `relay_small` issues them.
const ROUND: usize = 256;

/// A leaf broker with a subscriber on `stream`, and a link feeding it
/// from `fed`. The subscriber is in place before the link exists.
fn leaf_of(fed: &FederatedBroker, stream: &str) -> (FederationLink, Subscription) {
    let leaf = Arc::new(Broker::new());
    leaf.create_stream(stream, None);
    let sub = leaf.subscribe(stream).expect("subscribe");
    let link = FederationLink::connect(fed.local_addr(), leaf, LinkConfig::new([stream]))
        .expect("link");
    (link, sub)
}

/// Allocations of `events` events relayed live in rounds: published in
/// a burst, then every one received on the leaf and dropped.
fn live_cost(capture: &CapturePoint, sub: &Subscription, events: usize) -> usize {
    let record = record_b();
    let before = allocations();
    for _ in 0..events / ROUND {
        for _ in 0..ROUND {
            capture.publish(&record).expect("publish");
        }
        for _ in 0..ROUND {
            let event = sub.recv_timeout(Duration::from_secs(5)).expect("relayed event");
            assert_eq!(event.hops, 1);
        }
    }
    allocations() - before
}

/// Allocations of one whole catch-up over the hop: a fresh leaf and
/// link on a durable stream holding `events` events, every one
/// received, all of it dropped.
fn catch_up_cost(fed: &FederatedBroker, stream: &str, events: u64) -> usize {
    let net = fed.net_stats();
    let before = allocations();
    let (link, sub) = leaf_of(fed, stream);
    for seq in 1..=events {
        let event = sub.recv_timeout(Duration::from_secs(5)).expect("replayed event");
        assert_eq!((event.seq, event.hops), (seq, 1));
    }
    assert_eq!(link.stats().duplicates_dropped, 0);
    drop((sub, link));
    let spent = allocations() - before;
    // Whole batches must share vectored writes. (The counters trail the
    // kernel write by microseconds; one write more or less does not move
    // a ratio that sits near the batch size.)
    let now = fed.net_stats();
    let (frames, writes) =
        (now.frames_written - net.frames_written, now.writev_calls - net.writev_calls);
    assert!(frames >= 2 * writes, "catch-up wrote {frames} frames in {writes} writev calls");
    spent
}

#[test]
fn relayed_event_allocation_budget() {
    const N: usize = 8 * ROUND;
    let dir = std::env::temp_dir().join(format!("x2w-alloc-relay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let session = Arc::new(xml2wire::Xml2Wire::builder().arch(Architecture::host()).build());
    session.register_schema_str(SCHEMA_B).expect("schema");
    let origin = Arc::new(Broker::new());
    let capture = CapturePoint::new(Arc::clone(&origin), session, STREAM, "ASDOffEvent", None)
        .expect("capture point");
    let logs = [("log-n", N as u64), ("log-2n", 2 * N as u64)];
    for (stream, events) in logs {
        let log = SegLogConfig { fsync: FsyncPolicy::Never, ..SegLogConfig::default() };
        let spec = DurableSpec { dir: dir.join(stream), log };
        origin.create_stream_durable(stream, StreamConfig::default(), spec).expect("durable stream");
        for seq in 1..=events {
            let payload = [&seq.to_le_bytes()[..], &[seq as u8; 220]].concat();
            origin.publish(Event::new(stream, "ASDOffEvent", payload)).expect("publish");
        }
    }
    let fed = FederatedBroker::bind(Arc::clone(&origin), "127.0.0.1:0", NetConfig::default())
        .expect("bind");

    // ---- live: four per event, at most one more per block -----------------
    let (link, sub) = leaf_of(&fed, STREAM);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !(link.is_connected() && fed.forwarder_count() == 1) {
        assert!(Instant::now() < deadline, "the link never came up");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Warm-up: queues, the receive window and the route's format name
    // reach their working state.
    live_cost(&capture, &sub, 2 * N);
    let short = live_cost(&capture, &sub, N);
    let long = live_cost(&capture, &sub, 2 * N);
    let marginal = long.saturating_sub(short);
    println!("live: {:.3} allocations per relayed event", marginal as f64 / N as f64);
    assert!(
        marginal <= 5 * N + N / 16,
        "relaying {N} more live events cost {marginal} allocations (short {short}, long {long})"
    );
    assert!(short <= 5 * N + N / 16 + 64, "a warm relay's fixed term: {short} for {N} events");
    let stats = link.stats();
    assert_eq!((stats.duplicates_dropped, stats.protocol_errors, stats.cycle_drops), (0, 0, 0));
    drop((sub, link));

    // ---- full batches from the log: two per event and a sixteenth ---------
    // Warm-up: whatever the first catch-up of a process pays once.
    catch_up_cost(&fed, logs[0].0, logs[0].1);
    let short = catch_up_cost(&fed, logs[0].0, logs[0].1);
    let long = catch_up_cost(&fed, logs[1].0, logs[1].1);
    let marginal = long.saturating_sub(short);
    println!("catch-up: {:.3} allocations per relayed event", marginal as f64 / N as f64);
    assert!(
        marginal <= 2 * N + N / 16,
        "catching up on {N} more events cost {marginal} allocations (short {short}, long {long})"
    );
    // What a catch-up pays beyond its events: a broker, a link, their
    // threads and queues.
    let fixed = short.saturating_sub(2 * N + N / 16);
    assert!(fixed <= 1024, "a catch-up's fixed term grew to {fixed} allocations");

    assert_eq!(fed.net_stats().pushes_dropped, 0);
    drop((fed, capture, origin));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
