//! Server-push versus connection-kill churn.
//!
//! Broker fanout pushes frames at connections from threads the
//! transport does not control, while peers die at arbitrary moments —
//! including *between* a block being admitted and the shard landing it
//! on its connection. The invariant: a frame aimed at a dead or dying
//! connection is **counted** (its block handed back, or tallied in
//! `pushes_dropped`), never a panic, a wedge, or a leaked descriptor,
//! and the server keeps serving the survivors throughout.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use backbone::net::{Block, ConnId, EventClient, EventServer, Frame, NetConfig};

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
    NetConfig { shards: 2 }
}

#[test]
fn push_vs_kill_churn() {
    const CLIENTS: usize = 24;
    const PUSHERS: usize = 4;
    const ROUNDS: usize = 400;

    // The handler records which connection every frame arrived on, so
    // the pushers have real (and soon-to-be-dead) targets.
    let known: Arc<Mutex<Vec<ConnId>>> = Arc::new(Mutex::new(Vec::new()));
    let server = {
        let known = Arc::clone(&known);
        EventServer::bind(
            "127.0.0.1:0",
            Arc::new(move |conn, frame: Frame| {
                known.lock().unwrap().push(conn);
                Some(frame)
            }),
            None,
            config(),
        )
        .unwrap()
    };
    let addr = server.local_addr();

    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        let mut client = EventClient::connect(addr).unwrap();
        let _ = client.request(&Frame::new("hello", vec![1])).unwrap();
        clients.push(client);
    }
    assert!(eventually(|| known.lock().unwrap().len() >= CLIENTS));
    let targets: Vec<ConnId> = known.lock().unwrap().clone();

    // Pushers hammer one- and three-frame blocks at every known
    // connection while the killer drops clients under them. Refused
    // frames are tallied; nothing here may panic or block indefinitely.
    // A refusal can cost a pusher up to the push's bounded wait, so the
    // pushers also stop at a deadline: the test's wall time is bounded
    // whatever the schedule.
    let deadline = Instant::now() + Duration::from_secs(10);
    let attempted = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let pushers: Vec<_> = (0..PUSHERS)
        .map(|p| {
            let handle = server.handle();
            let targets = targets.clone();
            let attempted = Arc::clone(&attempted);
            let rejected = Arc::clone(&rejected);
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    if Instant::now() > deadline {
                        break;
                    }
                    let frames = if (round + p) % 2 == 0 { 3 } else { 1 };
                    for &conn in &targets {
                        let mut block = Block::default();
                        for _ in 0..frames {
                            block.push_frame(&Frame::new("push", vec![round as u8]));
                        }
                        attempted.fetch_add(frames, Ordering::Relaxed);
                        if let Err((_, back)) = handle.push(conn, block) {
                            rejected.fetch_add(back.frames() as u64, Ordering::Relaxed);
                        }
                    }
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    // Kill the peers in staggered waves mid-push.
    for (i, client) in clients.into_iter().enumerate() {
        drop(client);
        if i % 4 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    for pusher in pushers {
        pusher.join().expect("pusher panicked during churn");
    }

    // Every frame aimed at a dead connection must be accounted for:
    // handed back by push, or tallied in pushes_dropped once the owning
    // shard resolved the connection as gone.
    assert!(
        eventually(|| {
            server.net_stats().pushes_dropped + rejected.load(Ordering::SeqCst) > 0
        }),
        "no push at a dead connection was ever counted: {:?}",
        server.net_stats()
    );

    // The server must still serve new connections promptly.
    let mut probe = EventClient::connect(addr).unwrap();
    let reply = probe.request(&Frame::new("ping", vec![7])).unwrap();
    assert_eq!(reply.payload, vec![7]);
    drop(probe);

    assert!(
        eventually(|| server.connection_count() == 0),
        "dead connections never reaped: {} still tracked",
        server.connection_count()
    );
}

#[test]
fn pushes_racing_server_shutdown_are_counted_or_returned() {
    // Shutdown is the other half of the race: a block enqueued onto a
    // shard whose loop is exiting must come back refused or land in
    // pushes_dropped — never vanish. (The loop counts inbox survivors
    // at exit.)
    let known: Arc<Mutex<Vec<ConnId>>> = Arc::new(Mutex::new(Vec::new()));
    let server = {
        let known = Arc::clone(&known);
        EventServer::bind(
            "127.0.0.1:0",
            Arc::new(move |conn, frame: Frame| {
                known.lock().unwrap().push(conn);
                Some(frame)
            }),
            None,
            config(),
        )
        .unwrap()
    };
    let mut client = EventClient::connect(server.local_addr()).unwrap();
    let _ = client.request(&Frame::new("hello", vec![1])).unwrap();
    let conn = *known.lock().unwrap().first().expect("handler saw the hello");
    let handle = server.handle();

    let pusher = std::thread::spawn(move || {
        let mut returned = 0u64;
        for i in 0..100_000u32 {
            let block = Block::of(&Frame::new("p", i.to_le_bytes().to_vec()));
            if handle.push(conn, block).is_err() {
                returned += 1;
            }
        }
        returned
    });
    std::thread::sleep(Duration::from_millis(10));
    drop(server); // shut down mid-hammer
    let returned = pusher.join().expect("pusher panicked across shutdown");
    // After shutdown every further push is definitively returned.
    assert!(returned > 0, "no push was returned across a server shutdown");
}
