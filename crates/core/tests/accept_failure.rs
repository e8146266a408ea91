//! An accept that fails for want of a descriptor (`EMFILE`) must not
//! stall the connections the metadata server already holds, and the
//! server must accept again once a descriptor is free.
//!
//! The test binary re-invokes itself (the `squeezed_child` "test" below)
//! as a child process, because the descriptor limit it lowers is
//! process-wide. The child's server accepts one keep-alive connection;
//! then the child lowers its soft `RLIMIT_NOFILE` until one descriptor
//! is left, and a second client's connect takes it, so the server's
//! accept of that client fails. Twenty requests over the held connection
//! must then take well under the 200 ms a server that slept 10 ms per
//! failed accept needed. With the limit lifted, the second client is
//! accepted and served.

// The resource number below is Linux's.
#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::process::Command;
use std::time::{Duration, Instant};

use xml2wire::MetadataServer;

/// Env var that makes the re-invoked binary run the child.
const CHILD_ENV: &str = "X2W_ACCEPT_FAILURE_CHILD";
/// What the child prints last, so the parent knows it ran.
const CHILD_DONE: &str = "accepted again after EMFILE";

const RLIMIT_NOFILE: i32 = 7;

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

/// Sets the soft descriptor limit; returns the one it replaced.
fn set_soft_nofile(cur: u64) -> u64 {
    let mut old = Rlimit { cur: 0, max: 0 };
    // SAFETY: `old` is a valid, writable `struct rlimit` (two `rlim_t`,
    // which is `u64` on Linux).
    assert_eq!(
        unsafe { getrlimit(RLIMIT_NOFILE, &mut old) },
        0,
        "getrlimit"
    );
    let new = Rlimit { cur, max: old.max };
    // SAFETY: `new` is a valid `struct rlimit` that outlives the call.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &new) }, 0, "setrlimit");
    old.cur
}

const DOC: &str = "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"/>";

/// Sends `request` and reads one response: through the `Content-Length`
/// its head gives, or to EOF when it gives none.
fn exchange(stream: &mut TcpStream, request: &str) -> String {
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = Vec::new();
    let mut byte = [0u8; 1];
    while !response.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).unwrap();
        response.push(byte[0]);
    }
    let head = String::from_utf8(response).unwrap();
    let length = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .map(|length| length.parse::<usize>().unwrap());
    let mut body = Vec::new();
    match length {
        Some(length) => {
            body.resize(length, 0);
            stream.read_exact(&mut body).unwrap();
        }
        None => {
            stream.read_to_end(&mut body).unwrap();
        }
    }
    head + std::str::from_utf8(&body).unwrap()
}

/// The child body, disguised as a test: a no-op unless the parent set
/// the env var (so a normal `cargo test` run sails through it).
#[test]
fn squeezed_child() {
    if std::env::var_os(CHILD_ENV).is_none() {
        return;
    }
    let server = MetadataServer::bind("127.0.0.1:0").unwrap();
    server.publish("/a.xsd", DOC);
    let mut held = TcpStream::connect(server.local_addr()).unwrap();
    held.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let start = Instant::now();
    while server.accept_wakeups() < 1 {
        assert!(start.elapsed() < Duration::from_secs(5), "never accepted");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Every descriptor below the lowest free one is taken; a limit one
    // above it leaves that one only, and `pending` takes it.
    let spare = File::open("/dev/null").unwrap();
    let unlimited = set_soft_nofile(spare.as_raw_fd() as u64 + 1);
    drop(spare);
    let mut pending = TcpStream::connect(server.local_addr()).unwrap();
    pending
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(server.accept_wakeups(), 1, "accepted past the limit");

    let start = Instant::now();
    for _ in 0..20 {
        let response = exchange(
            &mut held,
            "GET /a.xsd HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        );
        assert!(response.starts_with("HTTP/1.0 200"), "{response}");
        assert!(response.ends_with(DOC), "{response}");
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "20 requests took {took:?}"
    );

    set_soft_nofile(unlimited);
    let response = exchange(&mut pending, "GET /a.xsd HTTP/1.0\r\n\r\n");
    assert!(response.starts_with("HTTP/1.0 200"), "{response}");
    assert_eq!(server.accept_wakeups(), 2);
    println!("{CHILD_DONE}");
}

#[test]
fn an_accept_error_does_not_stall_open_connections() {
    let output = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "squeezed_child",
            "--test-threads=1",
            "--nocapture",
        ])
        .env(CHILD_ENV, "1")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "child failed:\n{stdout}\n{stderr}");
    assert!(
        stdout.contains(CHILD_DONE),
        "the child did not run:\n{stdout}"
    );
}
