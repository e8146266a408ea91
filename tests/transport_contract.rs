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

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use backbone::net::{
    read_frame, write_frame_batch, ConnId, EventClient, EventServer, Frame, NetConfig,
};

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
