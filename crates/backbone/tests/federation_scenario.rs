//! The federation acceptance scenario: a three-broker chain
//! (origin → relay → leaf) with a hard broker kill in the middle of the
//! traffic, verified for **zero loss and zero duplication** end to end
//! by sequence number, and for once-per-link transmission by frame
//! count.
//!
//! The kill is the real thing the tentpole exists for: the origin
//! broker — durable segment log and all its connections — is dropped
//! while events are still being published, a *different* broker
//! instance recovers the same log directory and rebinds the same
//! address, and publishing continues. Events published during the
//! outage land only in the log; the relay's link must notice the loss,
//! reconnect under backoff, resubscribe from its high-water mark, and
//! receive the gap as replay. The leaf, one more hop away, must see
//! every origin-assigned sequence exactly once, in order, without ever
//! knowing anything happened.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use backbone::{
    Broker, DurableSpec, Event, FederatedBroker, FederationLink, LinkConfig, NetConfig,
    StreamConfig,
};

const STREAM: &str = "flights";

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "x2w-fedscen-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A link config with backoff tight enough for a CI time box.
fn tight_link(streams: &[&str]) -> LinkConfig {
    let mut config = LinkConfig::new(streams.iter().copied());
    config.policy.backoff_base = Duration::from_millis(5);
    config.policy.backoff_max = Duration::from_millis(50);
    config
}

fn durable_origin(dir: &std::path::Path) -> (Arc<Broker>, u64) {
    let broker = Arc::new(Broker::new());
    let recovered = broker
        .create_stream_durable(STREAM, StreamConfig::default(), DurableSpec::new(dir))
        .expect("durable stream");
    (broker, recovered)
}

fn publish_n(broker: &Broker, n: usize) {
    for _ in 0..n {
        broker
            .publish(Event::new(STREAM, "ASDOffEvent", b"flight".to_vec()))
            .expect("publish");
    }
}

#[test]
fn three_broker_chain_survives_an_origin_kill_with_zero_loss_or_dup() {
    let dir = temp_dir("chain");

    // Origin: durable stream, federation endpoint.
    let (origin1, recovered) = durable_origin(&dir);
    assert_eq!(recovered, 0, "fresh log must start empty");
    let fed1 = FederatedBroker::bind(Arc::clone(&origin1), "127.0.0.1:0", NetConfig::default())
        .expect("bind origin");
    let origin_addr = fed1.local_addr();

    // Relay: pulls from the origin, serves the leaf. Its local stream is
    // a plain live stream — durability lives at the origin only.
    let relay = Arc::new(Broker::new());
    let relay_link = FederationLink::connect(origin_addr, Arc::clone(&relay), tight_link(&[STREAM]))
        .expect("relay link");
    let fed_relay = FederatedBroker::bind(Arc::clone(&relay), "127.0.0.1:0", NetConfig::default())
        .expect("bind relay");

    // Leaf: subscribes locally, then links to the relay.
    let leaf = Arc::new(Broker::new());
    leaf.create_stream(STREAM, None);
    let leaf_sub = leaf.subscribe(STREAM).expect("leaf subscription");
    let leaf_link =
        FederationLink::connect(fed_relay.local_addr(), Arc::clone(&leaf), tight_link(&[STREAM]))
            .expect("leaf link");

    // Both subscriptions must be in place before anything is published:
    // the relay's stream is not durable, so what it republishes before
    // the leaf's forwarder exists is never forwarded to the leaf.
    let deadline = Instant::now() + Duration::from_secs(20);
    while fed1.forwarder_count() + fed_relay.forwarder_count() < 2 {
        assert!(Instant::now() < deadline, "the chain never came up");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Phase 1: live traffic flows two hops.
    publish_n(&origin1, 10);

    // Collect at the leaf until the first batch has crossed both hops.
    let mut seen: Vec<u64> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    while seen.len() < 10 && Instant::now() < deadline {
        if let Ok(event) = leaf_sub.recv_timeout(Duration::from_millis(200)) {
            seen.push(event.seq);
        }
    }
    assert_eq!(seen, (1..=10).collect::<Vec<u64>>(), "phase 1 lost or reordered events");

    // Hard kill: the origin's federation endpoint and broker go away
    // together, connections dropped, log directory left on disk.
    drop(fed1);
    drop(origin1);

    // Publishing continues during the outage: a recovery instance owns
    // the same log but has no network endpoint yet, so these events
    // exist *only* in the segment log.
    let (origin_gap, recovered) = durable_origin(&dir);
    assert_eq!(recovered, 10, "recovery must resume the sequence");
    publish_n(&origin_gap, 5);
    drop(origin_gap);

    // Full recovery: same log, same address, new broker instance. The
    // relay's link reconnects and resubscribes from seq 11; the origin
    // replays 11-15 from the log, then feeds 16-20 live.
    let (origin2, recovered) = durable_origin(&dir);
    assert_eq!(recovered, 15, "second recovery must see the outage events");
    let fed2 = FederatedBroker::bind(Arc::clone(&origin2), origin_addr, NetConfig::default())
        .expect("rebind origin address");
    publish_n(&origin2, 5);

    // The leaf must now receive 11..=20 — and nothing else, ever.
    let deadline = Instant::now() + Duration::from_secs(30);
    while seen.len() < 20 && Instant::now() < deadline {
        if let Ok(event) = leaf_sub.recv_timeout(Duration::from_millis(200)) {
            seen.push(event.seq);
        }
    }
    // Drain a grace period for duplicates that would arrive late.
    let grace = Instant::now() + Duration::from_millis(300);
    while Instant::now() < grace {
        if let Ok(event) = leaf_sub.recv_timeout(Duration::from_millis(50)) {
            seen.push(event.seq);
        }
    }

    let mut counts: HashMap<u64, usize> = HashMap::new();
    for seq in &seen {
        *counts.entry(*seq).or_default() += 1;
    }
    for seq in 1..=20u64 {
        assert_eq!(
            counts.get(&seq).copied().unwrap_or(0),
            1,
            "seq {seq} not delivered exactly once across the kill: {seen:?}"
        );
    }
    assert_eq!(seen.len(), 20, "spurious events beyond 1..=20: {seen:?}");
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "leaf saw events out of order: {seen:?}"
    );

    // The relay's link reconnected at least once and the kill produced
    // no protocol damage.
    let relay_stats = relay_link.stats();
    assert!(relay_stats.connects >= 2, "relay link never reconnected: {relay_stats:?}");
    assert_eq!(relay_stats.protocol_errors, 0, "{relay_stats:?}");
    let leaf_stats = leaf_link.stats();
    assert_eq!(leaf_stats.protocol_errors, 0, "{leaf_stats:?}");

    drop(leaf_link);
    drop(relay_link);
    drop(fed_relay);
    drop(fed2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn three_broker_ring_extinguishes_frames_at_the_hop_ceiling() {
    // A cyclic topology: A → B → C → A, each broker both serving and
    // consuming. The stream is non-durable, so every event carries seq
    // 0 and seq-based dedup cannot help — without the hop guard each
    // frame would orbit the ring forever, duplicating on every lap.
    // With max_hops = 2 an event born at A is republished at B (1 hop)
    // and C (2 hops), then dropped by the link feeding it back into A.
    let brokers: Vec<Arc<Broker>> = (0..3).map(|_| Arc::new(Broker::new())).collect();
    for broker in &brokers {
        broker.create_stream(STREAM, None);
    }
    let feds: Vec<FederatedBroker> = brokers
        .iter()
        .map(|b| {
            FederatedBroker::bind(Arc::clone(b), "127.0.0.1:0", NetConfig::default())
                .expect("bind")
        })
        .collect();
    let subs: Vec<_> =
        brokers.iter().map(|b| b.subscribe(STREAM).expect("subscribe")).collect();
    // links[i] pulls from broker i into broker (i + 1) % 3.
    let links: Vec<FederationLink> = (0..3)
        .map(|i| {
            FederationLink::connect(
                feds[i].local_addr(),
                Arc::clone(&brokers[(i + 1) % 3]),
                tight_link(&[STREAM]).with_max_hops(2),
            )
            .expect("link")
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while feds.iter().any(|f| f.forwarder_count() < 1) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    for n in 0..5u8 {
        brokers[0].publish(Event::new(STREAM, "ASDOffEvent", vec![n])).expect("publish");
    }

    // Every broker sees each event exactly once...
    for (site, sub) in subs.iter().enumerate() {
        for n in 0..5u8 {
            let event = sub.recv_timeout(Duration::from_secs(10)).expect("event");
            assert_eq!(event.payload, vec![n], "site {site} lost or reordered events");
            assert_eq!(event.hops as usize, if site == 0 { 0 } else { site });
        }
    }
    // ...and the ring goes quiet: the link closing the cycle (C → A)
    // drops each frame at the ceiling instead of re-injecting it.
    let cycle_link = &links[2];
    let deadline = Instant::now() + Duration::from_secs(10);
    while cycle_link.stats().cycle_drops < 5 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(cycle_link.stats().cycle_drops, 5, "{:?}", cycle_link.stats());
    for sub in &subs {
        assert!(
            sub.recv_timeout(Duration::from_millis(200)).is_err(),
            "a frame kept orbiting the ring"
        );
    }
    for link in &links {
        assert_eq!(link.stats().protocol_errors, 0, "{:?}", link.stats());
    }
}

#[test]
fn events_cross_each_link_once_regardless_of_local_fanout() {
    // Once-per-link accounting, pinned by the transport's own frame
    // counters: the origin serves ONE link subscription per stream per
    // remote broker, no matter how many subscribers sit behind it.
    let dir = temp_dir("fanout");
    let (origin, _) = durable_origin(&dir);
    let fed = FederatedBroker::bind(Arc::clone(&origin), "127.0.0.1:0", NetConfig::default())
        .expect("bind origin");

    let site = Arc::new(Broker::new());
    site.create_stream(STREAM, None);
    // Five local subscribers behind one link.
    let subs: Vec<_> = (0..5).map(|_| site.subscribe(STREAM).expect("subscribe")).collect();
    let link = FederationLink::connect(fed.local_addr(), Arc::clone(&site), tight_link(&[STREAM]))
        .expect("link");

    publish_n(&origin, 8);

    for sub in &subs {
        for want in 1..=8u64 {
            let event = sub.recv_timeout(Duration::from_secs(10)).expect("event");
            assert_eq!(event.seq, want);
        }
    }

    // 8 event frames + 1 subscribe ack crossed the wire — not 40. The
    // transport bumps frames_written just after the kernel write, so a
    // subscriber can observe the last event a beat before the counter;
    // read it after it stops moving.
    let frames = {
        let mut last = fed.net_stats().frames_written;
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let now = fed.net_stats().frames_written;
            if now == last {
                break now;
            }
            last = now;
        }
    };
    assert_eq!(frames, 9, "expected once-per-link transmission, saw {frames} frames");
    assert_eq!(link.stats().events_forwarded, 8);

    drop(link);
    drop(fed);
    let _ = std::fs::remove_dir_all(&dir);
}
