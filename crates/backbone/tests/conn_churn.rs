//! Connection churn and file-descriptor hygiene.
//!
//! The readiness transport owns raw epoll/eventfd descriptors behind
//! safe wrappers; the invariant worth a test is that every descriptor
//! is closed exactly once — across mass mid-batch disconnects and
//! across server shutdown (the `poll(2)` backend's descriptors are held
//! to the same standard where they are owned, in `shims/polling`).
//! Linux makes the check direct: `/proc/self/fd` is ground truth for
//! the whole process — which is why the tests here must not overlap.

#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use backbone::net::{write_frame_batch, EventServer, Frame, NetConfig};

/// `/proc/self/fd` counts the whole process, and `cargo test` runs this
/// file's tests on parallel threads of one process: each test holds
/// this lock for its whole body so another test's sockets never land
/// between its baseline and its final count.
static FD_COUNT: Mutex<()> = Mutex::new(());

fn fd_count_lock() -> std::sync::MutexGuard<'static, ()> {
    // A failed test poisons the lock; the other one can still run.
    FD_COUNT.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Open descriptors in this process right now. The `read_dir` handle
/// itself briefly adds one fd, but it is open during every call, so
/// comparisons between two counts are unbiased.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

fn config() -> NetConfig {
    NetConfig { shards: 2, ..NetConfig::default() }
}

#[test]
fn killing_a_thousand_connections_mid_batch_leaks_no_fds() {
    const CONNS: usize = 1000;
    let _alone = fd_count_lock();

    let server =
        EventServer::bind_with("127.0.0.1:0", Arc::new(Some), config())
            .unwrap();
    let addr = server.local_addr();
    let baseline = open_fds();

    // Each client sends a batch and then dies without reading a single
    // reply, so the server is killed *mid-batch*: replies queued,
    // writes in flight, input possibly mid-frame. Both close paths get
    // exercised — clean EOF drain for sockets the server finishes
    // first, write errors (ECONNRESET/EPIPE) for the rest.
    let batch: Vec<Frame> =
        (0..8).map(|i| Frame::new(format!("churn/{i}"), vec![0x5A; 1024])).collect();
    let mut clients = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let mut sock = TcpStream::connect(addr).unwrap();
        write_frame_batch(&mut sock, &batch).unwrap();
        sock.flush().unwrap();
        clients.push(sock);
    }
    assert!(
        eventually(|| server.net_stats().connections_accepted == CONNS as u64),
        "acceptor never saw all {CONNS} connections"
    );
    drop(clients);

    assert!(
        eventually(|| server.connection_count() == 0),
        "server still tracks {} connections after the massacre",
        server.connection_count()
    );
    let stats = server.net_stats();
    assert_eq!(stats.connections_reaped, CONNS as u64);
    assert_eq!(stats.connections_open, 0);

    assert!(
        eventually(|| open_fds() == baseline),
        "fd leak: {} open vs baseline {}",
        open_fds(),
        baseline
    );
}

#[test]
fn server_shutdown_returns_every_descriptor() {
    // The server owns a listener, one epoll fd and one eventfd per
    // shard, plus any live connection sockets; dropping it must return
    // all of them — exactly once each (a double close would race other
    // threads' fd allocation and corrupt an unrelated descriptor).
    let _alone = fd_count_lock();
    let before = open_fds();
    {
        let server =
            EventServer::bind_with("127.0.0.1:0", Arc::new(Some), config())
                .unwrap();
        // Leave connections open across the shutdown so Drop has live
        // conns to tear down, not just the loop machinery.
        let mut held = Vec::new();
        for _ in 0..16 {
            let mut sock = TcpStream::connect(server.local_addr()).unwrap();
            write_frame_batch(&mut sock, &[Frame::new("x", vec![1, 2, 3])]).unwrap();
            held.push(sock);
        }
        assert!(eventually(|| server.connection_count() == 16));
        assert!(open_fds() > before);
        drop(server);
    }
    assert!(
        eventually(|| open_fds() == before),
        "shutdown leaked fds: {} open vs baseline {}",
        open_fds(),
        before
    );
}
