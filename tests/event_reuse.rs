//! A reused event is never overwritten while anyone holds it.
//!
//! Every producer of events keeps the ones it handed out and copies a
//! later message into the oldest once every other holder has dropped
//! it: a capture point, a typed capture point, a federation link's route
//! and a replay subscription. Here all four feed subscribers that keep
//! some of what they receive and drop it again in a seeded random order,
//! across thousands of publishes whose payload lengths vary. Every event
//! a subscriber still holds must decode to the record of its own seq,
//! and every subscriber must see every event exactly once, in order.

use std::sync::Arc;
use std::time::Duration;

use backbone::{
    Broker, CapturePoint, DurableSpec, Event, FederatedBroker, FederationLink, LinkConfig,
    NetConfig, ReplaySubscription, StreamConfig, Subscription, TypedCapture,
};
use openmeta::prelude::*;
use pbio::FormatId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xml2wire::Xml2WireRecord;

#[derive(Xml2WireRecord, Debug, Clone, PartialEq)]
struct Tick {
    seq: u64,
    note: String,
}

/// The record of seq `seq`: its note's length varies from 0 to 96
/// bytes, so a reused payload is written both shorter and longer.
fn tick(seq: u64) -> Tick {
    let len = (seq * 37 % 97) as usize;
    Tick {
        seq,
        note: char::from(b'a' + (seq % 26) as u8).to_string().repeat(len),
    }
}

/// Publishes per stream, in bursts of 1 to 64.
const EVENTS: u64 = 3_000;
const WAIT: Duration = Duration::from_secs(5);

/// Where a consumer takes its events from.
enum Feed {
    Live(Subscription),
    Replay(Box<ReplaySubscription>),
}

/// One consumer: its feed, the next seq it expects, and the events it
/// still holds.
struct Holder {
    name: &'static str,
    feed: Feed,
    hops: u8,
    next: u64,
    held: Vec<(u64, Arc<Event>)>,
}

impl Holder {
    fn new(name: &'static str, feed: Feed, hops: u8) -> Holder {
        Holder {
            name,
            feed,
            hops,
            next: 1,
            held: Vec::new(),
        }
    }

    /// Receives `n` events, checking each against the next seq, and
    /// keeps a random share of them; then drops a random share of what
    /// it holds and checks that the rest is unchanged.
    fn take(&mut self, n: u64, format: &Format, rng: &mut StdRng) {
        for _ in 0..n {
            let event = match &mut self.feed {
                Feed::Live(sub) => sub.recv_timeout(WAIT),
                Feed::Replay(sub) => sub.recv_timeout(WAIT),
            };
            let event = event.unwrap_or_else(|e| panic!("{}: seq {}: {e}", self.name, self.next));
            assert_eq!(
                (event.seq, event.hops),
                (self.next, self.hops),
                "{}",
                self.name
            );
            check(self.name, self.next, &event, format);
            if rng.gen_bool(0.3) {
                self.held.push((self.next, event));
            }
            self.next += 1;
        }
        let mut k = 0;
        while k < self.held.len() {
            // Most are let go soon; a few are held for hundreds of
            // publishes, long past the producer's cap.
            if rng.gen_bool(if self.held[k].0.is_multiple_of(50) {
                0.01
            } else {
                0.4
            }) {
                self.held.swap_remove(k);
            } else {
                k += 1;
            }
        }
        for (seq, event) in &self.held {
            check(self.name, *seq, event, format);
        }
    }

    /// Nothing beyond what was published arrives.
    fn finish(mut self) {
        assert_eq!(self.next, EVENTS + 1, "{}", self.name);
        let extra = match &mut self.feed {
            Feed::Live(sub) => sub.recv_timeout(Duration::from_millis(50)).ok(),
            Feed::Replay(sub) => sub.recv_timeout(Duration::from_millis(50)).ok(),
        };
        assert!(
            extra.is_none(),
            "{}: an event after the last: {extra:?}",
            self.name
        );
    }
}

fn check(name: &str, seq: u64, event: &Event, format: &Format) {
    let decoded = pbio::ndr::decode_typed::<Tick>(&event.payload, format);
    assert_eq!(
        decoded.as_ref().ok(),
        Some(&tick(seq)),
        "{name}: the event of seq {seq} changed"
    );
}

fn run(seed: u64) {
    let dir = std::env::temp_dir().join(format!("x2w-event-reuse-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let format = Format::new(FormatId(0), Tick::struct_type(), Architecture::host()).unwrap();

    let origin = Arc::new(Broker::new());
    for stream in ["dynamic", "typed"] {
        let spec = DurableSpec::new(dir.join(stream));
        origin
            .create_stream_durable(stream, StreamConfig::default(), spec)
            .unwrap();
    }
    let session = Arc::new(Xml2Wire::builder().build());
    session.register_record::<Tick>().unwrap();
    let capture = CapturePoint::new(
        Arc::clone(&origin),
        Arc::clone(&session),
        "dynamic",
        "Tick",
        None,
    )
    .unwrap();
    let typed = TypedCapture::<Tick>::new(Arc::clone(&origin), &session, "typed", None).unwrap();

    let fed =
        FederatedBroker::bind(Arc::clone(&origin), "127.0.0.1:0", NetConfig::default()).unwrap();
    let leaf = Arc::new(Broker::new());
    let leaf_feeds = ["dynamic", "typed"].map(|stream| {
        leaf.create_stream(stream, None);
        Feed::Live(leaf.subscribe(stream).unwrap())
    });
    let link = FederationLink::connect(
        fed.local_addr(),
        Arc::clone(&leaf),
        LinkConfig::new(["dynamic", "typed"]),
    )
    .unwrap();
    let deadline = std::time::Instant::now() + WAIT;
    while fed.forwarder_count() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "the link never subscribed"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let [leaf_dynamic, leaf_typed] = leaf_feeds;
    let mut holders = vec![
        Holder::new(
            "dynamic",
            Feed::Live(origin.subscribe("dynamic").unwrap()),
            0,
        ),
        Holder::new("typed", Feed::Live(origin.subscribe("typed").unwrap()), 0),
        Holder::new("dynamic over the link", leaf_dynamic, 1),
        Holder::new("typed over the link", leaf_typed, 1),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut published = 0;
    while published < EVENTS {
        let burst = rng.gen_range(1..=64).min(EVENTS - published);
        for seq in published + 1..=published + burst {
            let value = tick(seq);
            let record = Record::new()
                .with("seq", seq)
                .with("note", value.note.as_str());
            capture.publish(&record).unwrap();
            typed.publish(&value).unwrap();
        }
        published += burst;
        for holder in &mut holders {
            holder.take(burst, &format, &mut rng);
        }
        // Halfway, a replay joins: the archived half first, then live.
        if published >= EVENTS / 2 && holders.len() == 4 {
            let mut replay = Holder::new(
                "replayed",
                Feed::Replay(Box::new(origin.subscribe_replay("dynamic", 1).unwrap())),
                0,
            );
            replay.take(published, &format, &mut rng);
            holders.push(replay);
        }
    }
    for holder in holders {
        holder.finish();
    }
    let stats = link.stats();
    assert_eq!((stats.duplicates_dropped, stats.protocol_errors), (0, 0));
    drop((link, fed, capture, typed, origin));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reused_events_are_never_overwritten_while_held() {
    for seed in [1, 2, 3] {
        run(seed);
    }
}
