//! A write that fails part-way must not bury the records appended after
//! it.
//!
//! The test binary re-invokes itself (the `writer_child` "test" below)
//! as a child process, because the file-size limit it lowers is
//! process-wide. The child ignores `SIGXFSZ` and sets a soft
//! `RLIMIT_FSIZE` of 10 000 bytes, so the kernel cuts the write that
//! crosses it short and fails the rest with `EFBIG` — what a full disk
//! does with `ENOSPC`. It appends 300-byte records until one append
//! fails, lifts the limit, appends five more, and prints each sequence
//! whose append returned `Ok`. Then:
//!
//! - a replay the child opens beside its writer ends cleanly, having
//!   read every acknowledged record;
//! - the parent reopens the log and replays every acknowledged record,
//!   in order, and nothing else.

// The resource and signal numbers below are Linux's.
#![cfg(target_os = "linux")]

use std::process::Command;

use xml2wire::{FsyncPolicy, SegLogConfig, SegmentLog};

/// Env var carrying the log directory to the re-invoked child.
const CHILD_DIR_ENV: &str = "X2W_SEGLOG_WRITE_FAILURE_DIR";
/// The child's file-size limit: 31 records fit under it, the 32nd is
/// cut short.
const LIMIT: u64 = 10_000;
/// Appends after the failure, with the limit lifted.
const AFTER: u64 = 5;
/// Payload bytes per record.
const PAYLOAD: u64 = 300;

const RLIMIT_FSIZE: i32 = 1;
const SIGXFSZ: i32 = 25;
const SIG_IGN: usize = 1;

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Sets the soft file-size limit; returns the one it replaced.
fn set_soft_fsize(cur: u64) -> u64 {
    let mut old = Rlimit { cur: 0, max: 0 };
    // SAFETY: `old` is a valid, writable `struct rlimit` (two `rlim_t`,
    // which is `u64` on Linux).
    assert_eq!(unsafe { getrlimit(RLIMIT_FSIZE, &mut old) }, 0, "getrlimit");
    let new = Rlimit { cur, max: old.max };
    // SAFETY: `new` is a valid `struct rlimit` that outlives the call.
    assert_eq!(unsafe { setrlimit(RLIMIT_FSIZE, &new) }, 0, "setrlimit");
    old.cur
}

fn config() -> SegLogConfig {
    SegLogConfig {
        fsync: FsyncPolicy::Never,
        ..SegLogConfig::default()
    }
}

fn payload(seq: u64) -> Vec<u8> {
    let mut body = format!("record-{seq}-").into_bytes();
    body.resize(PAYLOAD as usize, b'x');
    body
}

/// The child body, disguised as a test: a no-op unless the parent set
/// the env var (so a normal `cargo test` run sails through it).
#[test]
fn writer_child() {
    let Ok(dir) = std::env::var(CHILD_DIR_ENV) else {
        return;
    };
    let mut log = SegmentLog::open(&dir, config()).expect("child open");
    // SAFETY: `SIG_IGN` is a valid disposition for `SIGXFSZ`; no handler
    // code runs.
    unsafe { signal(SIGXFSZ, SIG_IGN) };
    let unlimited = set_soft_fsize(LIMIT);
    let mut seq = 1u64;
    loop {
        match log.append(seq, &payload(seq)) {
            Ok(()) => println!("acked {seq}"),
            Err(e) => {
                println!("failed {seq} ({e})");
                break;
            }
        }
        seq += 1;
        assert!(seq * PAYLOAD < 2 * LIMIT, "the file-size limit never bit");
    }
    set_soft_fsize(unlimited);
    for _ in 0..AFTER {
        log.append(seq, &payload(seq))
            .expect("an append with the limit lifted");
        println!("acked {seq}");
        seq += 1;
    }
    let mut replay = log.replay_from(1).expect("replay beside the writer");
    let mut expect = 1u64;
    while let Some((got, body)) = replay.next_record().expect("a replay beside the writer") {
        assert_eq!((got, body), (expect, &payload(expect)[..]));
        expect += 1;
    }
    assert_eq!(
        expect, seq,
        "the replay beside the writer read every acknowledged record"
    );
}

#[test]
fn a_failed_write_does_not_bury_the_records_acknowledged_after_it() {
    let dir = std::env::temp_dir().join(format!("x2w-seglog-write-failure-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--exact", "writer_child", "--nocapture", "--test-threads=1"])
        .env(CHILD_DIR_ENV, &dir)
        .output()
        .expect("run the writer child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "the writer child failed:\n{stdout}\n{stderr}"
    );

    let word = |tag: &str| -> Vec<u64> {
        // The harness's own "test writer_child ... " may start a line.
        let seq = |l: &str| l.split_once(tag)?.1.split_whitespace().next()?.parse().ok();
        stdout.lines().filter_map(seq).collect()
    };
    let acked = word("acked ");
    let failed = word("failed ");
    assert_eq!(failed.len(), 1, "exactly one append failed:\n{stdout}");
    let before = acked.iter().filter(|&&seq| seq < failed[0]).count() as u64;
    assert!(before > 0, "some appends fit under the limit");
    assert_eq!(
        acked,
        (1..=before + AFTER).collect::<Vec<_>>(),
        "acknowledged seqs"
    );

    let log = SegmentLog::open(&dir, config()).expect("reopen");
    assert_eq!(
        log.last_seq(),
        before + AFTER,
        "recovery kept every acknowledged record"
    );
    let mut replay = log.replay_from(1).expect("replay");
    let mut replayed = Vec::new();
    while let Some((seq, body)) = replay.next_record().expect("a clean replay") {
        assert_eq!(body, &payload(seq)[..], "payload of seq {seq}");
        replayed.push(seq);
    }
    assert_eq!(
        replayed, acked,
        "every acknowledged record replays, in order"
    );

    drop(replay);
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}
