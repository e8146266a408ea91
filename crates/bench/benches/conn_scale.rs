//! **E-net**: connection-scale and fanout cost of the readiness
//! transport.
//!
//! The paper's backplane serves many mostly-idle subscribers; a
//! thread-per-connection server pays two stacks (~16 MiB virtual, tens
//! of KiB resident) plus two schedulable threads per subscriber, which
//! caps a broker in the low thousands of connections. The readiness
//! transport pins per-connection cost to one socket plus one
//! `ConnMachine` on a shared event loop, so resident memory should
//! stay *flat per connection* as the count grows by 10x.
//!
//! Two measurements:
//!
//! * `idle_scale` — resident set (VmRSS) deltas while holding 1k, then
//!   N (default 10k) open idle connections on the epoll backend. The
//!   acceptance gate is per-connection flatness: bytes/conn at N must
//!   not exceed bytes/conn at 1k by more than 25% (superlinear growth
//!   would mean a hidden per-conn structure scaling with the table).
//! * `fanout_push` — wall time for the broker to push a frame batch to
//!   64 subscribers and for every subscriber to read it back, in
//!   µs/frame.
//!
//! Smoke mode (`--test`, used by CI) holds 2k connections and asserts
//! an absolute RSS ceiling instead of writing `BENCH_net.json`.

use std::io::Read;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use backbone::net::{write_frame_batch, ConnId, EventClient};
use backbone::{EventServer, Frame, NetConfig};

/// Resident set size in KiB from `/proc/self/status`, or 0 where /proc
/// is unavailable (the bench then reports zeros rather than lying).
fn rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
        .unwrap_or(0)
}

fn eventually(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

struct ScalePoint {
    conns: usize,
    rss_kb: u64,
    delta_kb: u64,
    bytes_per_conn: f64,
}

/// Holds `targets.last()` idle connections against one readiness
/// server, recording an RSS point as each intermediate target is
/// reached. Connections send one tiny frame (and read the echo) so
/// each has passed through the full register/parse/reply path before
/// being counted as "idle".
fn idle_scale(targets: &[usize]) -> Vec<ScalePoint> {
    let server = EventServer::bind_with(
        "127.0.0.1:0",
        Arc::new(Some),
        NetConfig { shards: 2, ..NetConfig::default() },
    )
    .expect("bind server");
    let addr = server.local_addr();

    let baseline = rss_kb();
    let mut held: Vec<TcpStream> = Vec::with_capacity(*targets.last().unwrap());
    let mut points = Vec::new();
    let hello = [Frame::new("hello", vec![0u8; 16])];
    let mut wire = Vec::new();
    write_frame_batch(&mut wire, &hello).unwrap();

    for &target in targets {
        while held.len() < target {
            let mut sock = TcpStream::connect(addr).expect("connect");
            write_frame_batch(&mut sock, &hello).unwrap();
            let mut echo = vec![0u8; wire.len()];
            sock.read_exact(&mut echo).expect("echo");
            held.push(sock);
        }
        assert!(
            eventually(Duration::from_secs(30), || server.connection_count() == target),
            "server never reached {target} tracked connections"
        );
        let now = rss_kb();
        let delta = now.saturating_sub(baseline);
        points.push(ScalePoint {
            conns: target,
            rss_kb: now,
            delta_kb: delta,
            bytes_per_conn: delta as f64 * 1024.0 / target as f64,
        });
    }

    let stats = server.net_stats();
    assert_eq!(stats.connections_accepted, *targets.last().unwrap() as u64);
    points
}

/// Pushes `rounds` frames to each of `subs` subscribers through the
/// broker handle and waits for every subscriber to read its full
/// backlog. Returns mean microseconds per delivered frame.
fn fanout_push(subs: usize, rounds: usize) -> f64 {
    let registered: Arc<Mutex<Vec<ConnId>>> = Arc::new(Mutex::new(Vec::new()));
    let reg = Arc::clone(&registered);
    let server = EventServer::bind_routed(
        "127.0.0.1:0",
        Arc::new(move |conn, frame| {
            if frame.stream == "subscribe" {
                reg.lock().unwrap().push(conn);
            }
            None
        }),
        NetConfig { shards: 2, ..NetConfig::default() },
    )
    .expect("bind server");

    let mut clients = Vec::new();
    for _ in 0..subs {
        let mut client = EventClient::connect(server.local_addr()).unwrap();
        client.send(&Frame::new("subscribe", Vec::new())).unwrap();
        clients.push(client);
    }
    assert!(
        eventually(Duration::from_secs(10), || registered.lock().unwrap().len() == subs),
        "subscriptions never registered"
    );
    let conns: Vec<ConnId> = registered.lock().unwrap().clone();
    let handle = server.handle();
    let payload = vec![0x42u8; 64];

    let start = Instant::now();
    for seq in 0..rounds {
        // One batched send per round: the transport coalesces this to
        // at most one eventfd write per shard instead of one per
        // subscriber. Bounded reply queues can reject under burst;
        // retrying the rejected remainder is the broker's own
        // backpressure contract.
        let mut batch: Vec<(ConnId, Frame)> = conns
            .iter()
            .map(|&conn| (conn, Frame::new(format!("tick/{seq}"), payload.clone())))
            .collect();
        loop {
            batch = handle.send_batch(batch);
            if batch.is_empty() {
                break;
            }
            std::thread::yield_now();
        }
    }
    for client in &mut clients {
        for _ in 0..rounds {
            client.recv().unwrap().expect("push stream ended early");
        }
    }
    let elapsed = start.elapsed();
    elapsed.as_micros() as f64 / (subs * rounds) as f64
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");

    // Client and server sockets share this process: two fds per
    // connection, plus headroom for the loops and the test harness.
    let mut max_conns: usize = if smoke {
        2_000
    } else {
        std::env::var("X2W_CONN_SCALE_MAX").ok().and_then(|v| v.parse().ok()).unwrap_or(10_000)
    };
    let fd_budget = (max_conns as u64) * 2 + 256;
    let granted = polling::raise_nofile_limit(fd_budget).expect("raise RLIMIT_NOFILE");
    if granted < fd_budget {
        // An unprivileged process cannot raise the hard limit; scale
        // the experiment to what the environment grants rather than
        // refusing to measure anything.
        max_conns = ((granted.saturating_sub(256)) / 2) as usize;
        println!("fd limit {granted}: clamping scale to {max_conns} connections");
        assert!(max_conns >= 2_000, "fd limit {granted} too low for a meaningful scale run");
    }

    println!("e_net conn_scale: readiness transport, {max_conns} idle connections");
    let targets: Vec<usize> =
        if smoke { vec![1_000, max_conns] } else { vec![1_000, max_conns / 2, max_conns] };
    let points = idle_scale(&targets);
    println!("{:<10} {:>12} {:>12} {:>14}", "conns", "rss_kb", "delta_kb", "bytes/conn");
    for p in &points {
        println!(
            "{:<10} {:>12} {:>12} {:>14.0}",
            p.conns, p.rss_kb, p.delta_kb, p.bytes_per_conn
        );
    }

    if smoke {
        // CI gate: 2k held connections must fit under an absolute
        // ceiling that thread-per-connection could not meet (2k conns
        // x 2 threads x 8 KiB of touched stack alone would exceed it).
        let last = points.last().unwrap();
        assert!(
            last.delta_kb < 64 * 1024,
            "RSS grew {} KiB for {} conns — over the 64 MiB smoke ceiling",
            last.delta_kb,
            last.conns
        );
        println!("smoke mode: ceiling held, no timings recorded");
        return;
    }

    // Flatness gate: per-connection cost must not inflate as the table
    // grows 10x. Allocator slack makes tiny variations noisy, so the
    // gate is 25%, not equality; superlinear structures fail it hard.
    let first = &points[0];
    let last = &points[points.len() - 1];
    if first.delta_kb > 0 {
        let growth = last.bytes_per_conn / first.bytes_per_conn;
        assert!(
            growth <= 1.25,
            "per-conn RSS grew {growth:.2}x between {} and {} conns",
            first.conns,
            last.conns
        );
    }

    println!("\ne_net fanout_push: 64 subscribers, 256 rounds");
    let readiness_us = fanout_push(64, 256);
    println!("readiness: {readiness_us:>8.2} us/frame");

    let mut json = String::from("{\n  \"bench\": \"conn_scale\",\n");
    json.push_str("  \"transport\": \"readiness-epoll\",\n  \"idle_scale\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"conns\": {}, \"rss_kb\": {}, \"delta_kb\": {}, \"bytes_per_conn\": {:.0}}}{}\n",
            p.conns,
            p.rss_kb,
            p.delta_kb,
            p.bytes_per_conn,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"flatness_growth\": {:.3},\n",
        if first.delta_kb > 0 { last.bytes_per_conn / first.bytes_per_conn } else { 0.0 }
    ));
    json.push_str(&format!(
        "  \"fanout_push\": {{\"subscribers\": 64, \"rounds\": 256, \
         \"readiness_us_per_frame\": {readiness_us:.2}}}\n}}\n"
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
    std::fs::write(path, json).expect("write BENCH_net.json");
    println!("\nwrote {path}");
}
