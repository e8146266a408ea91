//! The event server at the process's descriptor limit (`EMFILE`).
//!
//! Dropping a server must return when no descriptor is left: its loops
//! are woken through wakers they already hold, not by a connection to
//! itself. And an accept that fails for want of a descriptor must not
//! stall the connections the server already holds; it accepts again once
//! a descriptor is free.
//!
//! The descriptor limit is process-wide, so each test re-invokes this
//! binary as a child that runs one of the `*_child` "tests" below, which
//! lowers its soft `RLIMIT_NOFILE`. A child that hangs fails by its own
//! timeout, not by hanging the parent.

// The resource number below is Linux's.
#![cfg(target_os = "linux")]

use std::fs::File;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::process::Command;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use backbone::net::{read_frame, write_frame};
use backbone::{EventClient, EventServer, Frame, NetConfig};

/// Env var naming the child test the re-invoked binary runs.
const CHILD_ENV: &str = "BACKBONE_DESCRIPTOR_LIMIT_CHILD";
/// What a child prints last, so the parent knows it ran.
const CHILD_DONE: &str = "child finished";

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

fn echo(shards: usize) -> EventServer {
    EventServer::bind(
        "127.0.0.1:0",
        Arc::new(|_, frame| Some(frame)),
        None,
        NetConfig { shards },
    )
    .unwrap()
}

/// Runs `child` in a fresh process of this binary and checks it ran to
/// the end.
fn run_child(child: &str) {
    let output = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", child, "--test-threads=1", "--nocapture"])
        .env(CHILD_ENV, child)
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

/// Whether this process is the child asked to run `child`.
fn is_child(child: &str) -> bool {
    std::env::var(CHILD_ENV).is_ok_and(|asked| asked == child)
}

#[test]
fn drop_returns_at_the_descriptor_limit() {
    run_child("drop_child");
}

#[test]
fn drop_child() {
    if !is_child("drop_child") {
        return;
    }
    let server = echo(1);
    // A round trip first, so the server is up and serving when the
    // descriptors run out.
    let mut client = EventClient::connect(server.local_addr()).unwrap();
    let ping = Frame::new("ping", vec![1]);
    assert_eq!(client.request(&ping).unwrap(), ping);
    drop(client);
    let start = Instant::now();
    while server.connection_count() > 0 {
        assert!(start.elapsed() < Duration::from_secs(5), "never closed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let open = std::fs::read_dir("/proc/self/fd").unwrap().count() as u64;
    let unlimited = set_soft_nofile(open + 8);
    let mut hogs = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(file) => hogs.push(file),
            Err(e) => {
                assert_eq!(e.raw_os_error(), Some(24), "{e}"); // EMFILE
                break;
            }
        }
    }
    let (done, dropped) = mpsc::channel();
    std::thread::spawn(move || {
        drop(server);
        let _ = done.send(());
    });
    let returned = dropped.recv_timeout(Duration::from_secs(3));
    drop(hogs);
    set_soft_nofile(unlimited);
    assert!(
        returned.is_ok(),
        "dropping the server had not returned after 3 s"
    );
    println!("{CHILD_DONE}");
}

#[test]
fn an_accept_error_does_not_stall_open_connections() {
    run_child("squeezed_child");
}

/// One held connection, then a second whose accept fails with `EMFILE`:
/// twenty round trips on the first stay under the bound the metadata
/// server's `accept_failure` test uses, and once the limit is lifted the
/// second is accepted and served.
#[test]
fn squeezed_child() {
    if !is_child("squeezed_child") {
        return;
    }
    let server = echo(2);
    let mut held = EventClient::connect(server.local_addr()).unwrap();
    let ping = Frame::new("ping", vec![7; 16]);
    assert_eq!(held.request(&ping).unwrap(), ping);
    assert_eq!(server.accept_wakeups(), 1);

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
        assert_eq!(held.request(&ping).unwrap(), ping);
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "20 round trips took {took:?}"
    );

    set_soft_nofile(unlimited);
    write_frame(&mut pending, &ping).unwrap();
    let reply = read_frame(&mut pending).unwrap();
    assert_eq!(reply.as_ref(), Some(&ping));
    assert_eq!(server.accept_wakeups(), 2);
    println!("{CHILD_DONE}");
}
