//! The transport's observable contract, over real sockets: every
//! expectation is derived from the test's own inputs — the reply byte
//! stream is `write_frame_batch` of the request frames, a transforming
//! handler's replies are the transform applied locally, every
//! subscriber sees the literal push sequence in issue order, the
//! traffic counters equal the workload's size, and a half-closed
//! connection still receives every queued reply before it is reaped.
//! (These were differential tests against a thread-per-connection
//! server until that server was deleted; each already carried, or here
//! gains, its input-derived expectation.)
//!
//! The last three tests hold the same contract where the transport
//! moves *batches*: a federation hop, whose forwarder hands the loop a
//! wire block per drained batch and whose link publishes once per
//! socket read, must deliver every event exactly once and in order
//! whatever the batch boundaries fall on — and replies and pushed
//! blocks sharing one connection must come out as exactly the frames
//! that went in, even when the kernel cuts the writes short.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use backbone::net::{
    read_frame, write_frame_batch, ConnId, EventClient, EventServer, Frame, NetConfig,
};
use backbone::{Broker, DurableSpec, Event, FederatedBroker, FederationLink, LinkConfig};

/// Two shards, so the sharded dispatch path is exercised, not just the
/// degenerate single-loop case.
fn config() -> NetConfig {
    NetConfig { shards: 2, ..NetConfig::default() }
}

/// Deterministic frame workload (LCG-driven): the same bytes on every
/// run without an RNG dependency.
fn workload(count: usize) -> Vec<Frame> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..count)
        .map(|i| {
            let name_len = (next() % 24) as usize;
            let stream: String =
                (0..name_len).map(|_| char::from(b'a' + (next() % 26) as u8)).collect();
            let payload_len = (next() % 512) as usize;
            let payload: Vec<u8> = (0..payload_len).map(|_| (next() & 0xFF) as u8).collect();
            Frame::new(format!("{stream}/{i}"), payload)
        })
        .collect()
}

fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn echo_reply_stream_is_byte_identical_to_the_framing_of_its_requests() {
    let frames = workload(120);
    let mut expected = Vec::new();
    write_frame_batch(&mut expected, &frames).unwrap();

    let server = EventServer::bind_with("127.0.0.1:0", Arc::new(Some), config()).unwrap();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    write_frame_batch(&mut sock, &frames).unwrap();
    sock.flush().unwrap();

    let mut raw = vec![0u8; expected.len()];
    sock.read_exact(&mut raw).unwrap();
    assert_eq!(raw, expected, "echo bytes diverge from the framing of the requests");
}

#[test]
fn transform_handlers_reply_frame_for_frame() {
    let frames = workload(60);
    // A handler that rewrites both sections, so reply equality is not
    // just echo equality.
    let transform = |f: Frame| {
        let mut payload = f.payload;
        payload.reverse();
        payload.push(payload.len() as u8);
        Some(Frame::new(format!("{}/ack", f.stream), payload))
    };

    let expected: Vec<Frame> = frames.iter().cloned().filter_map(transform).collect();
    assert_eq!(expected.len(), frames.len());

    let server = EventServer::bind_with("127.0.0.1:0", Arc::new(transform), config()).unwrap();
    let mut client = EventClient::connect(server.local_addr()).unwrap();
    let replies: Vec<Frame> =
        frames.iter().map(|frame| client.request(frame).unwrap()).collect();

    assert_eq!(replies, expected);
    for (reply, sent) in replies.iter().zip(&frames) {
        assert_eq!(reply.stream, format!("{}/ack", sent.stream));
    }
}

#[test]
fn fanout_pushes_preserve_per_subscriber_order() {
    const SUBSCRIBERS: usize = 4;
    const PUSHES: usize = 32;

    let subs: Arc<Mutex<Vec<ConnId>>> = Arc::new(Mutex::new(Vec::new()));
    let subs_in_handler = Arc::clone(&subs);
    let server = EventServer::bind_routed(
        "127.0.0.1:0",
        Arc::new(move |conn, frame| {
            if frame.stream == "subscribe" {
                subs_in_handler.lock().unwrap().push(conn);
            }
            None
        }),
        config(),
    )
    .unwrap();

    let mut clients = Vec::new();
    for _ in 0..SUBSCRIBERS {
        let mut client = EventClient::connect(server.local_addr()).unwrap();
        client.send(&Frame::new("subscribe", Vec::new())).unwrap();
        clients.push(client);
    }
    assert!(
        eventually(|| subs.lock().unwrap().len() == SUBSCRIBERS),
        "subscriptions never registered"
    );

    let handle = server.handle();
    let conns: Vec<ConnId> = subs.lock().unwrap().clone();
    for seq in 0..PUSHES {
        for &conn in &conns {
            assert!(handle.send(conn, Frame::new("tick", vec![seq as u8])));
        }
    }

    // Every subscriber sees every push, in the order the broker issued
    // them.
    let expected: Vec<Frame> =
        (0..PUSHES).map(|seq| Frame::new("tick", vec![seq as u8])).collect();
    for client in &mut clients {
        let seen: Vec<Frame> = (0..PUSHES)
            .map(|_| client.recv().unwrap().expect("push stream ended early"))
            .collect();
        assert_eq!(seen, expected);
    }
}

#[test]
fn traffic_totals_equal_the_workload() {
    let frames = workload(40);
    let served = Arc::new(AtomicU64::new(0));
    let served_in_handler = Arc::clone(&served);
    let server = EventServer::bind_with(
        "127.0.0.1:0",
        Arc::new(move |f| {
            served_in_handler.fetch_add(1, Ordering::Relaxed);
            Some(f)
        }),
        config(),
    )
    .unwrap();

    let mut client = EventClient::connect(server.local_addr()).unwrap();
    client.send_batch(&frames).unwrap();
    for _ in 0..frames.len() {
        client.recv().unwrap().expect("echo stream ended early");
    }

    // Counters trail the observable replies by a few instructions;
    // poll rather than assert immediately.
    assert!(
        eventually(|| server.net_stats().frames_written == frames.len() as u64),
        "frames_written never reached the workload size"
    );
    let stats = server.net_stats();
    assert_eq!(
        (stats.frames_read, stats.frames_written, stats.connections_accepted),
        (40, 40, 1)
    );
    assert_eq!(served.load(Ordering::Relaxed), frames.len() as u64);
    assert!(stats.writev_calls >= 1);
}

#[test]
fn reply_stream_parses_cleanly_after_half_close() {
    // After the client half-closes, the server must still drain every
    // queued reply before closing — no truncated tail frame.
    let frames = workload(80);
    let server = EventServer::bind_with("127.0.0.1:0", Arc::new(Some), config()).unwrap();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    write_frame_batch(&mut sock, &frames).unwrap();
    sock.shutdown(std::net::Shutdown::Write).unwrap();

    let mut raw = Vec::new();
    sock.read_to_end(&mut raw).unwrap();
    let mut cursor: &[u8] = &raw;
    for frame in &frames {
        let got = read_frame(&mut cursor).unwrap().expect("reply stream truncated");
        assert_eq!(&got, frame);
    }
    assert!(read_frame(&mut cursor).unwrap().is_none());

    assert!(
        eventually(|| server.connection_count() == 0),
        "half-closed connection never reaped"
    );
}

/// Origin broker → `FederatedBroker` → loopback → `FederationLink` →
/// leaf broker → subscriber. The subscriber is in place before the link
/// exists, so it sees everything the link republishes.
fn federation_hop(
    origin: &Arc<Broker>,
    stream: &str,
) -> (FederatedBroker, FederationLink, backbone::Subscription) {
    let fed = FederatedBroker::bind(Arc::clone(origin), "127.0.0.1:0", NetConfig::default()).unwrap();
    let leaf = Arc::new(Broker::new());
    leaf.create_stream(stream, None);
    let sub = leaf.subscribe(stream).unwrap();
    let link = FederationLink::connect(fed.local_addr(), leaf, LinkConfig::new([stream])).unwrap();
    (fed, link, sub)
}

#[test]
fn federation_hop_delivers_every_burst_once_and_in_order() {
    const EVENTS: u32 = 10_000;
    // Around the forwarder's batch size, below it, and several of it.
    const BURSTS: [u32; 5] = [1, 63, 64, 65, 300];

    let origin = Arc::new(Broker::new());
    origin.create_stream("asd", None);
    let (fed, link, sub) = federation_hop(&origin, "asd");
    assert!(eventually(|| link.is_connected() && fed.forwarder_count() == 1));

    let expect = |n: u32| {
        let event = sub.recv_timeout(Duration::from_secs(5)).expect("an event went missing");
        assert_eq!(event.payload[..4], n.to_le_bytes(), "lost, duplicated or reordered");
        assert_eq!((event.payload.len(), event.seq, event.hops), (4 + (n % 97) as usize, 0, 1));
        assert_eq!((&*event.stream, &*event.format_name), ("asd", "Tick"));
    };
    let (mut published, mut received, mut burst) = (0u32, 0u32, 0usize);
    while published < EVENTS {
        let size = BURSTS[burst % BURSTS.len()].min(EVENTS - published);
        for n in published..published + size {
            let mut payload = n.to_le_bytes().to_vec();
            payload.resize(4 + (n % 97) as usize, n as u8);
            origin.publish(Event::new("asd", "Tick", payload)).unwrap();
        }
        published += size;
        // Every other burst starts on a drained hop, so its size is the
        // batch the forwarder sees; the rest run into each other.
        if burst % 2 == 0 {
            (received..published).for_each(expect);
            received = published;
        }
        burst += 1;
    }
    (received..published).for_each(expect);
    assert!(sub.try_recv().is_none(), "an event arrived twice");

    let stats = link.stats();
    assert_eq!(
        (stats.events_forwarded, stats.duplicates_dropped, stats.protocol_errors, stats.connects),
        (u64::from(EVENTS), 0, 0, 1)
    );
    // Events plus the subscription's ack: each crossed the wire once.
    assert!(eventually(|| fed.net_stats().frames_written == u64::from(EVENTS) + 1));
    assert_eq!(fed.net_stats().pushes_dropped, 0);
}

#[test]
fn durable_catch_up_through_a_joining_link_is_exactly_once() {
    const PREFILL: u64 = 1_000;
    const LIVE: u64 = 3_000;
    let dir = std::env::temp_dir().join(format!("x2w-contract-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let origin = Arc::new(Broker::new());
    origin.create_stream_durable("ops", Default::default(), DurableSpec::new(&dir)).unwrap();
    let publish = |origin: &Broker, n: u64| {
        origin.publish(Event::new("ops", "Op", n.to_le_bytes().to_vec())).unwrap();
    };
    (1..=PREFILL).for_each(|n| publish(&origin, n));

    // The publisher keeps going while the link joins: the serving side
    // replays history, cuts over to the live feed mid-traffic, and the
    // batches it forwards straddle the boundary.
    let publisher = {
        let origin = Arc::clone(&origin);
        std::thread::spawn(move || {
            for n in PREFILL + 1..=PREFILL + LIVE {
                publish(&origin, n);
                if n % 50 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        })
    };
    let (fed, link, sub) = federation_hop(&origin, "ops");

    for n in 1..=PREFILL + LIVE {
        let event = sub.recv_timeout(Duration::from_secs(10)).expect("a sequence went missing");
        assert_eq!(event.seq, n, "gap, duplicate or reorder across replay → cut-over");
        assert_eq!(event.payload, n.to_le_bytes());
    }
    publisher.join().unwrap();
    assert!(sub.try_recv().is_none());
    let stats = link.stats();
    assert_eq!((stats.events_forwarded, stats.duplicates_dropped), (PREFILL + LIVE, 0));
    drop((link, fed, origin));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replies_and_pushed_blocks_share_a_connection_frame_for_frame() {
    // Requests echoed by the handler (replies, queued on the loop
    // thread) and batches pushed from outside (blocks, serialised on
    // the pusher's thread) interleave on one connection whose peer does
    // not read until the kernel has refused bytes — so the write cursor
    // stops inside blocks and resumes across them. What comes out must
    // parse back into exactly the frames that went in: each kind
    // complete, in its own order, no byte of one inside another.
    const EACH: u32 = 400;
    const BODY: usize = 24 * 1024;
    let frame = |stream: &str, n: u32| {
        let mut payload = n.to_le_bytes().to_vec();
        payload.resize(BODY + (n % 13) as usize, n as u8);
        Frame::new(stream, payload)
    };

    let conn_slot: Arc<Mutex<Option<ConnId>>> = Arc::new(Mutex::new(None));
    let slot_in_handler = Arc::clone(&conn_slot);
    let server = EventServer::bind_routed(
        "127.0.0.1:0",
        Arc::new(move |conn, frame| {
            *slot_in_handler.lock().unwrap() = Some(conn);
            (frame.stream == "req").then_some(frame)
        }),
        config(),
    )
    .unwrap();
    let sock = TcpStream::connect(server.local_addr()).unwrap();
    let mut hello = sock.try_clone().unwrap();
    write_frame_batch(&mut hello, &[Frame::new("hello", Vec::new())]).unwrap();
    assert!(eventually(|| conn_slot.lock().unwrap().is_some()));
    let conn = conn_slot.lock().unwrap().expect("handler saw the hello");

    let requester = {
        let mut sock = sock.try_clone().unwrap();
        std::thread::spawn(move || {
            for n in 0..EACH {
                write_frame_batch(&mut sock, &[frame("req", n)]).unwrap();
            }
        })
    };
    let pusher = {
        let handle = server.handle();
        std::thread::spawn(move || {
            let mut n = 0;
            while n < EACH {
                let batch: Vec<(ConnId, Frame)> =
                    (n..EACH.min(n + 5)).map(|n| (conn, frame("push", n))).collect();
                let offered = batch.len() as u32;
                // A full queue rejects a contiguous tail: offer it again.
                let rejected = handle.send_batch(batch).len() as u32;
                n += offered - rejected;
                if rejected > 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        })
    };

    assert!(
        eventually(|| server.net_stats().partial_writes > 0),
        "{} MiB against a peer that does not read never filled the socket: {:?}",
        (2 * EACH as usize * BODY) >> 20,
        server.net_stats()
    );
    let mut reader = std::io::BufReader::with_capacity(7 * 1024, sock);
    let (mut replies, mut pushes) = (0u32, 0u32);
    while replies < EACH || pushes < EACH {
        let got = read_frame(&mut reader).unwrap().expect("stream ended early");
        let next = if got.stream == "req" { &mut replies } else { &mut pushes };
        let kind = if got.stream == "req" { "req" } else { "push" };
        assert_eq!(got, frame(kind, *next), "{kind} {next} damaged, lost or out of order");
        *next += 1;
    }
    requester.join().unwrap();
    pusher.join().unwrap();
    assert!(eventually(|| server.net_stats().frames_written == u64::from(2 * EACH)));
    // Rejected pushes were offered again, so every one was counted as
    // dropped once per rejection and still delivered exactly once.
    assert_eq!(server.net_stats().frames_read, u64::from(EACH) + 1);
}
