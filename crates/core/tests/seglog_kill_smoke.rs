//! Archive-recovery smoke under a real `kill -9`.
//!
//! The seglog unit tests simulate torn tails by truncating files; this
//! test makes the operating system do it. The test binary re-invokes
//! itself (the `appender_child` "test" below) as a child process that
//! appends fsynced records as fast as it can, confirming each durable
//! sequence on stdout *after* `append` returns under
//! [`FsyncPolicy::Always`]. The parent SIGKILLs the child mid-append —
//! no destructors, no flushes, whatever half-written record the kill
//! leaves behind stays behind — then reopens the directory and holds
//! recovery to the contract:
//!
//! - reopen **succeeds** (a torn tail is truncated, not an error),
//! - every sequence the child confirmed durable is recovered,
//! - the recovered tail is contiguous and CRC-clean end to end,
//! - the log accepts new appends at exactly `last + 1`.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Duration;

use xml2wire::{FsyncPolicy, SegLogConfig, SegmentLog};

/// Env var carrying the log directory to the re-invoked child.
const CHILD_DIR_ENV: &str = "X2W_SEGLOG_KILL_DIR";

/// Small segments so the kill window covers rotation boundaries too.
fn config() -> SegLogConfig {
    SegLogConfig { segment_bytes: 16 * 1024, fsync: FsyncPolicy::Always, ..Default::default() }
}

/// The child body, disguised as a test: a no-op unless the parent set
/// the env var (so a normal `cargo test` run sails through it).
#[test]
fn appender_child() {
    let Ok(dir) = std::env::var(CHILD_DIR_ENV) else { return };
    let mut log = SegmentLog::open(&dir, config()).expect("child open");
    let mut seq = log.last_seq();
    loop {
        seq += 1;
        let payload = format!("record-{seq}-{}", "x".repeat((seq % 97) as usize));
        log.append(seq, payload.as_bytes()).expect("child append");
        // FsyncPolicy::Always: the record is on stable storage by the
        // time append returns, so this confirmation cannot overpromise.
        // Rust's stdout is line-buffered; the line is flushed to the
        // pipe before the next append starts.
        println!("{seq}");
    }
}

#[test]
fn sigkill_mid_append_truncates_the_torn_tail_and_keeps_fsynced_records() {
    let dir = std::env::temp_dir().join(format!(
        "x2w-seglog-kill-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Re-invoke this test binary, filtered down to the child body.
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(exe)
        .args(["--exact", "appender_child", "--nocapture", "--test-threads=1"])
        .env(CHILD_DIR_ENV, &dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn appender child");
    let stdout = child.stdout.take().expect("child stdout");

    // Read confirmations off the pipe until the child has some real
    // volume down, then SIGKILL it mid-flight.
    let mut confirmed = 0u64;
    let mut lines = BufReader::new(stdout).lines();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while std::time::Instant::now() < deadline {
        match lines.next() {
            Some(Ok(line)) => {
                if let Ok(seq) = line.trim().parse::<u64>() {
                    confirmed = confirmed.max(seq);
                }
                if confirmed >= 200 {
                    break;
                }
            }
            Some(Err(_)) | None => break,
        }
    }
    child.kill().expect("SIGKILL child");
    // Drain whatever was already in the pipe when the kill landed —
    // those confirmations are just as binding.
    for line in lines.map_while(Result::ok) {
        if let Ok(seq) = line.trim().parse::<u64>() {
            confirmed = confirmed.max(seq);
        }
    }
    let _ = child.wait();
    assert!(confirmed >= 200, "child confirmed only {confirmed} records before the kill");

    // Recovery: reopen must succeed and keep everything confirmed.
    let mut log = SegmentLog::open(&dir, config()).expect("reopen after SIGKILL");
    let last = log.last_seq();
    assert!(
        last >= confirmed,
        "recovery lost fsynced records: confirmed {confirmed}, recovered through {last}"
    );
    // At most one unconfirmed record can exist beyond the confirmations
    // (the one being appended when the kill landed, if it reached disk
    // whole before its stdout line was read).
    assert!(
        last <= confirmed + 1,
        "recovery invented records: confirmed {confirmed}, recovered through {last}"
    );

    // The whole recovered history replays contiguously and CRC-clean.
    let mut replay = log.replay_from(1).expect("replay");
    let mut expect = 1u64;
    while let Some((seq, payload)) = replay.next_record().expect("CRC-clean replay") {
        assert_eq!(seq, expect, "gap in recovered history");
        assert!(
            payload.starts_with(format!("record-{seq}-").as_bytes()),
            "payload for seq {seq} corrupted"
        );
        expect += 1;
    }
    assert_eq!(expect - 1, last, "replay ended before last_seq");

    // And the log is live again: appends continue at last + 1.
    log.append(last + 1, b"post-recovery").expect("append after recovery");
    let mut tail = log.replay_from(last + 1).expect("tail replay");
    assert_eq!(
        tail.next_record().expect("tail record"),
        Some((last + 1, &b"post-recovery"[..]))
    );

    drop(tail);
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}
