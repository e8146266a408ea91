//! Allocation accounting for the durable log's two byte paths, as the
//! `durable_replay` workload of the repo's benchmark drives them.
//!
//! 1. **Replay**: `Broker::subscribe_replay` →
//!    `ReplaySubscription::recv_timeout` allocates nothing per archived
//!    event when the caller drops each event before it asks for the
//!    next: the log lends each record out of the window it was read and
//!    checked in, the subscription copies it into the event it handed
//!    out last (unique again, so `Arc::get_mut` lets it), and the format
//!    name's `Arc<str>` is shared between consecutive records that carry
//!    the same one. A longer history costs nothing more; what a replay
//!    costs at all (the read window, the live subscription, the first
//!    format name, the first event's payload and `Arc`) is a fixed term.
//! 2. **Group append**: `SegmentLog::append_group` of 128 records into
//!    a warm log allocates nothing — the frames are built in the log's
//!    own buffer and leave in one write.
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! disturb the counter.

use std::time::Duration;

use backbone::{Broker, DurableSpec, Event, StreamConfig};
use omf_bench::{allocations, CountingAllocator};
use xml2wire::{FsyncPolicy, SegLogConfig, SegmentLog};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("x2w-alloc-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn payload(seq: u64) -> Vec<u8> {
    [&seq.to_le_bytes()[..], &[seq as u8; 220]].concat()
}

/// Allocations of one whole catch-up over the last `events` events of
/// the stream: subscribe, read every archived event, drop.
fn replay_cost(broker: &Broker, total: u64, events: u64) -> usize {
    let before = allocations();
    let mut replay = broker.subscribe_replay("ops", total - events + 1).expect("subscribe_replay");
    assert_eq!(replay.cutover_seq(), total);
    for seq in total - events + 1..=total {
        let event = replay.recv_timeout(Duration::from_secs(5)).expect("archived event");
        assert_eq!(event.seq, seq);
        assert_eq!(event.payload.len(), 228);
    }
    drop(replay);
    allocations() - before
}

#[test]
fn durable_log_allocation_budget() {
    const N: u64 = 3_000;
    let fsync = FsyncPolicy::Never;

    // ---- replay -----------------------------------------------------------
    let dir = temp_dir("broker");
    let broker = Broker::new();
    let spec = DurableSpec { dir: dir.clone(), log: SegLogConfig { fsync, ..SegLogConfig::default() } };
    broker.create_stream_durable("ops", StreamConfig::default(), spec).expect("durable stream");
    for seq in 1..=3 * N {
        broker.publish(Event::new("ops", "AsdOffEvent", payload(seq))).expect("publish");
    }
    // Warm-up: whatever the first replay of a process pays once.
    replay_cost(&broker, 3 * N, 10);

    let short = replay_cost(&broker, 3 * N, N);
    let long = replay_cost(&broker, 3 * N, 2 * N);
    assert_eq!(
        long, short,
        "replaying {N} more events must cost no allocation (short {short}, long {long})"
    );
    assert!(short <= 16, "a replay's fixed term grew to {short} allocations");
    drop(broker);
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // ---- group append -----------------------------------------------------
    let dir = temp_dir("log");
    let mut log = SegmentLog::open(&dir, SegLogConfig { fsync, ..SegLogConfig::default() }).expect("open");
    let bodies: Vec<Vec<u8>> = (0..128).map(payload).collect();
    let mut next = 1u64;
    let mut group = |log: &mut SegmentLog| {
        let first = next;
        next += bodies.len() as u64;
        log.append_group(bodies.iter().enumerate().map(|(i, body)| {
            // In three pieces, as the broker hands a record over.
            (first + i as u64, move |put: &mut dyn FnMut(&[u8])| {
                put(&(body.len() as u16).to_le_bytes());
                put(&body[..8]);
                put(&body[8..]);
            })
        }))
        .expect("group append");
    };
    group(&mut log); // grows the log's frame buffer
    let before = allocations();
    group(&mut log);
    let spent = allocations() - before;
    assert_eq!(spent, 0, "a warm group append of 128 records allocated {spent} times");
    assert_eq!(log.last_seq(), 256);
    drop(log);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
