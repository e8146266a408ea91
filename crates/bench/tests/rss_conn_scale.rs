//! Resident-memory ceiling of idle connections on the readiness
//! transport: a connection costs one socket plus one `ConnMachine` on a
//! shared event loop, so 2 000 of them held against one `EventServer`
//! must fit under 64 MiB — which thread-per-connection could not (2 000
//! connections × 2 threads × 8 KiB of touched stack alone exceeds it).
//!
//! One `#[test]` in its own binary, so the RSS delta is this test's.
//! Client and server sockets share the process: two descriptors per
//! connection. CI runs it under `ulimit -n 16384`.

use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use backbone::net::write_frame_batch;
use backbone::{EventServer, Frame, NetConfig};

const CONNS: usize = 2_000;

/// Resident set size in KiB from `/proc/self/status`.
fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
        .expect("a VmRSS line")
}

#[test]
fn two_thousand_idle_connections_fit_under_64_mib() {
    let fd_budget = CONNS as u64 * 2 + 256;
    let granted = polling::raise_nofile_limit(fd_budget).expect("raise RLIMIT_NOFILE");
    if granted < fd_budget {
        println!("skipped: the environment grants {granted} descriptors, {fd_budget} needed");
        return;
    }

    let server = EventServer::bind(
        "127.0.0.1:0",
        Arc::new(|_, frame| Some(frame)),
        None,
        NetConfig::default(),
    )
    .expect("bind server");
    let hello = [Frame::new("hello", vec![0u8; 16])];
    let mut wire = Vec::new();
    write_frame_batch(&mut wire, &hello).unwrap();

    // Each connection sends one frame and reads the echo, so it has
    // been through register, parse and reply before it counts as idle.
    let baseline = rss_kb();
    let held: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
            write_frame_batch(&mut sock, &hello).unwrap();
            let mut echo = vec![0u8; wire.len()];
            sock.read_exact(&mut echo).expect("echo");
            assert_eq!(echo, wire);
            sock
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.connection_count() != CONNS {
        let tracked = server.connection_count();
        assert!(Instant::now() < deadline, "server tracks {tracked} of {CONNS} connections");
        std::thread::sleep(Duration::from_millis(10));
    }
    let delta_kb = rss_kb().saturating_sub(baseline);

    assert_eq!(server.net_stats().connections_accepted, CONNS as u64);
    println!("{CONNS} idle connections: RSS +{delta_kb} KiB");
    assert!(delta_kb < 64 * 1024, "RSS grew {delta_kb} KiB for {CONNS} idle connections");
    drop(held);
}
