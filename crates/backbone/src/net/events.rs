//! The readiness event loop behind [`EventServer`](super::EventServer):
//! one acceptor plus a few loop shards, however many connections.
//!
//! Every accepted socket becomes **nonblocking** and is hashed (by
//! connection id, like broker streams) onto a loop shard. A shard owns
//! a [`Poller`] (epoll on Linux, `poll(2)` elsewhere — both via the
//! vendored `polling` shim), a [`Waker`] (eventfd, pipe fallback), an
//! inbox of commands from other threads, and the [`ConnMachine`] state
//! machine for each of its connections. The shard thread sleeps in the
//! kernel until a socket can make progress or another thread (the
//! acceptor registering a connection, broker fanout pushing frames)
//! pokes the waker.
//!
//! Invariants the loop maintains:
//!
//! * **`EPOLLOUT` interest exists only while a connection has queued
//!   output.** Writes are attempted eagerly; only a `WouldBlock`
//!   leaves residue that arms write interest, so an idle connection
//!   costs zero wakeups.
//! * **Reply-queue backpressure without blocking.** When a
//!   connection's outbound queue reaches the configured depth the
//!   shard stops *parsing* (and drops read interest), leaving unread
//!   bytes to TCP flow control. Parsing resumes at half depth.
//! * **Push admission is synchronous and admitted pushes are never
//!   silently dropped.** Pushers consult a per-connection inflight
//!   mirror before enqueueing: a full window surfaces as `Busy`
//!   *to the caller* (retry or drop, their choice), a closed
//!   connection as `Gone`. An admitted frame that finds the machine
//!   momentarily full parks in a bounded per-connection overflow
//!   buffer and enters the queue as writes drain it — fanout never
//!   stalls the loop, and a `true` from `send` is a real acceptance.
//! * **Each fd closes exactly once.** A connection dies only by being
//!   removed from its shard's table (poller deregistration, then the
//!   `TcpStream` drop closes the fd); the table removal is the
//!   once-guard, so peer resets racing mid-write cannot double-close.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;
use polling::{Interest, Poller, Waker};

use crate::error::BackboneError;

use super::machine::ConnMachine;
use super::{CloseHandler, ConnId, Frame, NetCounters, RoutedHandler, TrySendError};

/// Reserved poller key for each shard's waker (connection ids count up
/// from zero and can never reach it).
const WAKE_KEY: u64 = u64::MAX;

/// Most bytes one readiness notification reads from a single
/// connection before yielding — fairness under a firehose peer;
/// level-triggered polling re-reports the remainder immediately.
const READ_BUDGET: usize = 256 * 1024;

/// A command delivered to a loop shard from another thread.
enum Cmd {
    /// A freshly accepted socket to take ownership of.
    Register(ConnId, TcpStream),
    /// A server-initiated frame (broker fanout) for one connection.
    Push(ConnId, Frame),
}

/// The cross-thread face of one shard: its command inbox, waker, and
/// the push-admission mirror.
struct ShardShared {
    inbox: Mutex<VecDeque<Cmd>>,
    waker: Waker,
    /// Per-connection count of pushed frames admitted but not yet
    /// transferred into the connection's state machine (still in the
    /// inbox or the connection's overflow buffer). Entries are created
    /// at accept and removed at close, so presence doubles as the
    /// liveness check: pushers consult this map **synchronously**,
    /// which is what lets [`Shared::try_push`] distinguish a full
    /// queue (retryable) from a dead connection (permanent) without a
    /// round trip through the loop thread. Admission caps the count at
    /// the queue depth, bounding per-connection overflow memory.
    inflight: Mutex<HashMap<ConnId, usize>>,
}

impl ShardShared {
    /// Enqueues one command, writing the waker's eventfd only on the
    /// empty→non-empty transition. Safe because the shard's
    /// `drain_inbox` re-locks and loops until the inbox is observed
    /// empty: a command appended while the inbox is non-empty is
    /// collected by the drain already in flight, so a second kernel
    /// wakeup would be redundant.
    fn enqueue(&self, cmd: Cmd) {
        let was_empty = {
            let mut inbox = self.inbox.lock();
            let was_empty = inbox.is_empty();
            inbox.push_back(cmd);
            was_empty
        };
        if was_empty {
            self.waker.wake();
        }
    }

    /// Enqueues a whole command batch under one inbox lock with at most
    /// one waker write — the broker-fanout fast path (per-frame syscall
    /// cost becomes per-batch).
    fn enqueue_batch(&self, cmds: Vec<Cmd>) {
        if cmds.is_empty() {
            return;
        }
        let was_empty = {
            let mut inbox = self.inbox.lock();
            let was_empty = inbox.is_empty();
            inbox.extend(cmds);
            was_empty
        };
        if was_empty {
            self.waker.wake();
        }
    }
}

/// State shared between the server, acceptor, and push handles.
pub(super) struct Shared {
    shards: Vec<Arc<ShardShared>>,
    counters: Arc<NetCounters>,
    stop: Arc<AtomicBool>,
    queue_depth: usize,
}

impl Shared {
    fn shard_for(&self, conn: ConnId) -> &Arc<ShardShared> {
        &self.shards[(conn as usize) % self.shards.len()]
    }

    /// Admits a push against the owning shard's inflight mirror, then
    /// enqueues it and wakes the shard (the broker fanout → eventfd
    /// path). Admission is synchronous: an `Ok` here means the frame
    /// **will** enter the connection's queue unless the connection
    /// closes first — the loop shard never silently resolves an
    /// admitted push to a drop. `Busy` hands the frame back without
    /// counting anything; `Gone` is permanent and tallied.
    pub(super) fn try_push(&self, conn: ConnId, frame: Frame) -> Result<(), TrySendError> {
        if self.stop.load(Ordering::SeqCst) {
            self.counters.pushes_dropped.fetch_add(1, Ordering::Relaxed);
            return Err(TrySendError::Gone(frame));
        }
        let shard = self.shard_for(conn);
        {
            let mut inflight = shard.inflight.lock();
            match inflight.get_mut(&conn) {
                None => {
                    drop(inflight);
                    self.counters.pushes_dropped.fetch_add(1, Ordering::Relaxed);
                    return Err(TrySendError::Gone(frame));
                }
                Some(count) if *count >= self.queue_depth => {
                    return Err(TrySendError::Busy(frame));
                }
                Some(count) => *count += 1,
            }
        }
        shard.enqueue(Cmd::Push(conn, frame));
        Ok(())
    }

    /// The drop-on-overflow face of [`try_push`](Self::try_push):
    /// `false` means the frame went nowhere (and was counted in
    /// `pushes_dropped`), decided synchronously.
    pub(super) fn push(&self, conn: ConnId, frame: Frame) -> bool {
        match self.try_push(conn, frame) {
            Ok(()) => true,
            Err(TrySendError::Busy(_)) => {
                self.counters.pushes_dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
            Err(TrySendError::Gone(_)) => false, // counted in try_push
        }
    }

    /// Admits and enqueues a whole fanout batch, grouping frames by
    /// owning shard so each shard pays one inflight lock, one inbox
    /// lock, and at most one eventfd write for the batch instead of
    /// one of each per frame. Returns the frames that were definitely
    /// not enqueued — server shutting down, unknown/closed connection,
    /// or a full queue — all decided synchronously and counted in
    /// `pushes_dropped`, so callers can retry or drop them knowingly.
    ///
    /// Rejection is a contiguous per-connection *tail*: the inflight
    /// mirror is only ever decremented under the same shard lock this
    /// loop holds, so once a connection's queue reads full it stays
    /// full for the rest of its group — a retrying caller never sees
    /// a connection's frames reordered.
    pub(super) fn push_batch(&self, frames: Vec<(ConnId, Frame)>) -> Vec<(ConnId, Frame)> {
        if self.stop.load(Ordering::SeqCst) {
            let dropped = frames.len() as u64;
            self.counters.pushes_dropped.fetch_add(dropped, Ordering::Relaxed);
            return frames;
        }
        let shard_count = self.shards.len();
        let mut groups: Vec<Vec<(ConnId, Frame)>> =
            (0..shard_count).map(|_| Vec::new()).collect();
        for (conn, frame) in frames {
            groups[(conn as usize) % shard_count].push((conn, frame));
        }
        let mut rejected = Vec::new();
        for (index, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard = &self.shards[index];
            let mut cmds = Vec::with_capacity(group.len());
            {
                let mut inflight = shard.inflight.lock();
                for (conn, frame) in group {
                    match inflight.get_mut(&conn) {
                        Some(count) if *count < self.queue_depth => {
                            *count += 1;
                            cmds.push(Cmd::Push(conn, frame));
                        }
                        _ => {
                            self.counters.pushes_dropped.fetch_add(1, Ordering::Relaxed);
                            rejected.push((conn, frame));
                        }
                    }
                }
            }
            shard.enqueue_batch(cmds);
        }
        rejected
    }
}

/// The readiness event-loop server implementation.
pub(super) struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    shard_handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    wakeups: Arc<AtomicU64>,
    backend: &'static str,
}

impl Server {
    pub(super) fn bind(
        listener: TcpListener,
        handler: RoutedHandler,
        on_close: Option<CloseHandler>,
        shard_count: usize,
        queue_depth: usize,
    ) -> Result<Server, BackboneError> {
        let addr = listener.local_addr()?;
        let counters = Arc::new(NetCounters::default());
        let stop = Arc::new(AtomicBool::new(false));
        // Build every poller/waker pair before spawning anything so a
        // failure unwinds with no threads to clean up.
        let mut parts = Vec::with_capacity(shard_count);
        let mut shard_shared = Vec::with_capacity(shard_count);
        let mut backend = "poll";
        for _ in 0..shard_count {
            let poller = Poller::new()?;
            let waker = Waker::new()?;
            backend = poller.backend_name();
            poller.add(waker.read_fd(), WAKE_KEY, Interest::READ)?;
            let shared = Arc::new(ShardShared {
                inbox: Mutex::new(VecDeque::new()),
                waker,
                inflight: Mutex::new(HashMap::new()),
            });
            shard_shared.push(Arc::clone(&shared));
            parts.push((poller, shared));
        }
        let shared = Arc::new(Shared {
            shards: shard_shared,
            counters: Arc::clone(&counters),
            stop: Arc::clone(&stop),
            queue_depth,
        });
        let mut shard_handles = Vec::with_capacity(shard_count);
        for (index, (poller, shard)) in parts.into_iter().enumerate() {
            let shard = Shard {
                shared: shard,
                counters: Arc::clone(&counters),
                stop: Arc::clone(&stop),
                handler: Arc::clone(&handler),
                on_close: on_close.clone(),
                poller,
                queue_depth,
                conns: HashMap::new(),
                scratch: vec![0u8; 64 * 1024],
            };
            shard_handles.push(
                std::thread::Builder::new()
                    .name(format!("event-loop-{index}"))
                    .spawn(move || shard.run())?,
            );
        }
        let wakeups = Arc::new(AtomicU64::new(0));
        let accept_handle = {
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            let wakeups = Arc::clone(&wakeups);
            std::thread::Builder::new()
                .name("event-accept".to_owned())
                .spawn(move || accept_loop(&listener, &stop, &shared, &wakeups))?
        };
        Ok(Server {
            addr,
            stop,
            accept_handle: Some(accept_handle),
            shard_handles,
            shared,
            wakeups,
            backend,
        })
    }

    pub(super) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub(super) fn accept_wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::SeqCst)
    }

    pub(super) fn connection_count(&self) -> usize {
        self.shared.counters.connections_open.load(Ordering::SeqCst) as usize
    }

    pub(super) fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    pub(super) fn backend(&self) -> &'static str {
        self.backend
    }

    pub(super) fn counters(&self) -> &NetCounters {
        &self.shared.counters
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a self-connect, then pull every
        // shard out of its kernel wait.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for shard in &self.shared.shards {
            shard.waker.wake();
        }
        for handle in self.shard_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &Arc<AtomicBool>,
    shared: &Arc<Shared>,
    wakeups: &Arc<AtomicU64>,
) {
    let mut next_id: ConnId = 0;
    loop {
        // Blocking accept: no polling, no idle wakeups.
        match listener.accept() {
            Ok((stream, _)) => {
                wakeups.fetch_add(1, Ordering::SeqCst);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                shared.counters.note_accepted();
                let id = next_id;
                next_id += 1;
                let shard = shared.shard_for(id);
                // The inflight entry goes in before the Register
                // command: a handler-triggered push racing the accept
                // sees the connection as live, not Gone.
                shard.inflight.lock().insert(id, 0);
                shard.enqueue(Cmd::Register(id, stream));
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                // Error backoff: a persistent EMFILE must not busy-spin.
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    }
}

/// One connection owned by a loop shard.
struct Conn {
    stream: TcpStream,
    machine: ConnMachine,
    /// Admitted pushes waiting for machine-queue space. Bounded by the
    /// queue depth (admission caps the inflight mirror), drained into
    /// the machine as writes free space. This is what makes an
    /// accepted push an accepted push: the machine being momentarily
    /// full parks the frame here instead of dropping it.
    overflow: VecDeque<Frame>,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Peer closed its write side (or a socket read failed cleanly):
    /// no more socket reads, but buffered frames still get processed
    /// and queued output still drains before the close.
    eof: bool,
    /// A frame parse error poisoned the input: never parse again.
    input_dead: bool,
    /// Reply-queue backpressure engaged: read interest dropped and
    /// parsing suspended until the queue drains to half depth.
    paused: bool,
}

/// A loop shard: the single thread that owns `conns` and the poller.
struct Shard {
    shared: Arc<ShardShared>,
    counters: Arc<NetCounters>,
    stop: Arc<AtomicBool>,
    handler: RoutedHandler,
    on_close: Option<CloseHandler>,
    poller: Poller,
    queue_depth: usize,
    conns: HashMap<ConnId, Conn>,
    scratch: Vec<u8>,
}

impl Shard {
    fn run(mut self) {
        let mut events: Vec<polling::Event> = Vec::new();
        loop {
            events.clear();
            if self.poller.wait(&mut events, None).is_err() {
                break; // poller broken beyond repair; drop all conns
            }
            self.counters.loop_wakeups.fetch_add(1, Ordering::Relaxed);
            if events.iter().any(|ev| ev.key == WAKE_KEY) {
                self.shared.waker.drain();
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            // Commands first, so a push and its readiness coalesce into
            // one service pass.
            self.drain_inbox();
            for ev in &events {
                if ev.key != WAKE_KEY {
                    self.service(ev.key, ev.readable, ev.hangup);
                }
            }
        }
        // Shutdown: pushes still sitting in the inbox are definitively
        // dropped — count them so a fanout racing shutdown never loses
        // frames without trace.
        let pending: Vec<Cmd> = self.shared.inbox.lock().drain(..).collect();
        for cmd in pending {
            if matches!(cmd, Cmd::Push(..)) {
                self.counters.pushes_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Deregister and close every connection exactly once. Parked
        // pushes are definitive drops at this point too.
        self.shared.inflight.lock().clear();
        for (id, conn) in self.conns.drain() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            if !conn.overflow.is_empty() {
                self.counters
                    .pushes_dropped
                    .fetch_add(conn.overflow.len() as u64, Ordering::Relaxed);
            }
            self.counters.note_closed();
            if let Some(on_close) = &self.on_close {
                on_close(id);
            }
        }
    }

    fn drain_inbox(&mut self) {
        // Queue every pushed frame first, then service each touched
        // connection once: frames that accumulated for one connection
        // while the shard was busy leave in a single writev instead of
        // one syscall per frame.
        let mut touched: Vec<ConnId> = Vec::new();
        let mut seen: HashSet<ConnId> = HashSet::new();
        loop {
            let cmds: Vec<Cmd> = {
                let mut inbox = self.shared.inbox.lock();
                if inbox.is_empty() {
                    break;
                }
                inbox.drain(..).collect()
            };
            for cmd in cmds {
                match cmd {
                    Cmd::Register(id, stream) => self.register(id, stream),
                    Cmd::Push(id, frame) => {
                        if self.queue_push(id, frame) && seen.insert(id) {
                            touched.push(id);
                        }
                    }
                }
            }
        }
        for id in touched {
            // Flush eagerly: only a WouldBlock leaves residue (and arms
            // write interest).
            self.service(id, false, false);
        }
    }

    fn register(&mut self, id: ConnId, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err()
            || stream.set_nodelay(true).is_err()
            || self.poller.add(stream.as_raw_fd(), id, Interest::READ).is_err()
        {
            // Dropping the stream closes the only fd reference; the
            // accept-time inflight entry must go with it so pushers see
            // Gone instead of a connection that will never drain.
            self.shared.inflight.lock().remove(&id);
            return;
        }
        self.counters.note_open();
        self.conns.insert(
            id,
            Conn {
                stream,
                machine: ConnMachine::new(),
                overflow: VecDeque::new(),
                interest: Interest::READ,
                eof: false,
                input_dead: false,
                paused: false,
            },
        );
    }

    /// Lands one admitted push: straight into the machine when there
    /// is room (and the overflow buffer is empty, preserving FIFO),
    /// otherwise parked in the connection's overflow buffer — never
    /// dropped, because admission already promised the sender a slot.
    /// Returns whether the connection needs a service pass. The only
    /// drop left here is a push whose connection closed between
    /// admission and delivery, which is counted.
    fn queue_push(&mut self, id: ConnId, frame: Frame) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else {
            self.counters.pushes_dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        if conn.overflow.is_empty() && conn.machine.queued_frames() < self.queue_depth {
            conn.machine.queue(frame);
            self.counters.note_queue_depth(conn.machine.queued_frames());
            if let Some(count) = self.shared.inflight.lock().get_mut(&id) {
                *count -= 1;
            }
        } else {
            conn.overflow.push_back(frame);
        }
        true
    }

    /// Runs one connection's state machine forward: optional socket
    /// reads, frame processing under the queue bound, eager writes,
    /// backpressure pause/resume, interest resync, and the close
    /// decision.
    fn service(&mut self, id: ConnId, readable: bool, hangup: bool) {
        let Shard { shared, conns, counters, handler, on_close, poller, queue_depth, scratch, .. } =
            self;
        let depth = *queue_depth;
        let Some(conn) = conns.get_mut(&id) else { return };
        let mut dead = false;

        // 1. Socket reads. A paused connection leaves bytes to TCP flow
        // control, but a hangup forces a probe so a reset peer is
        // noticed even mid-backpressure.
        if !conn.eof && ((readable && !conn.paused) || hangup) {
            let mut taken = 0usize;
            loop {
                match conn.stream.read(scratch) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.machine.ingest(&scratch[..n]);
                        taken += n;
                        if taken >= READ_BUDGET {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }

        // 2. Process buffered frames and drain output, topping the
        // machine back up from parked pushes as writes free space.
        // Each drain shrinks the overflow buffer, so the loop is
        // bounded by its length.
        if !dead {
            loop {
                dead = !Self::process_and_flush(conn, handler, counters, depth, id);
                if dead {
                    break;
                }
                let mut moved = 0usize;
                while conn.machine.queued_frames() < depth {
                    let Some(frame) = conn.overflow.pop_front() else { break };
                    conn.machine.queue(frame);
                    moved += 1;
                }
                if moved == 0 {
                    break;
                }
                counters.note_queue_depth(conn.machine.queued_frames());
                if let Some(count) = shared.inflight.lock().get_mut(&id) {
                    *count -= moved;
                }
            }
        }

        // 3. Close or resync interest. A connection drains queued
        // output and processes already-received frames before an EOF
        // close, but an I/O error closes immediately.
        let drained = conn.eof && !conn.paused && !conn.machine.has_output();
        if dead || drained {
            let conn = conns.remove(&id).expect("serviced connection vanished");
            let _ = poller.delete(conn.stream.as_raw_fd());
            // Removing the inflight entry turns further pushes into
            // Gone; parked pushes die with the connection, counted.
            shared.inflight.lock().remove(&id);
            if !conn.overflow.is_empty() {
                counters.pushes_dropped.fetch_add(conn.overflow.len() as u64, Ordering::Relaxed);
            }
            counters.note_closed();
            if let Some(on_close) = on_close {
                on_close(id);
            }
            return;
        }
        let desired = Interest {
            read: !conn.eof && !conn.paused,
            write: conn.machine.has_output(),
        };
        if desired != conn.interest
            && poller.modify(conn.stream.as_raw_fd(), id, desired).is_ok()
        {
            conn.interest = desired;
        }
    }

    /// Parse → handle → write until nothing can move. Returns `false`
    /// on a fatal socket write error.
    fn process_and_flush(
        conn: &mut Conn,
        handler: &RoutedHandler,
        counters: &NetCounters,
        depth: usize,
        id: ConnId,
    ) -> bool {
        loop {
            if !conn.input_dead {
                while conn.machine.queued_frames() < depth {
                    match conn.machine.next_frame() {
                        Ok(Some(frame)) => {
                            counters.frames_read.fetch_add(1, Ordering::Relaxed);
                            if let Some(reply) = handler(id, frame) {
                                conn.machine.queue(reply);
                                counters.note_queue_depth(conn.machine.queued_frames());
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Poisoned input: stop reading and parsing;
                            // drain what was already queued, then close.
                            conn.input_dead = true;
                            conn.eof = true;
                            break;
                        }
                    }
                }
            }
            if conn.machine.queued_frames() >= depth && !conn.paused {
                conn.paused = true;
                counters.read_pauses.fetch_add(1, Ordering::Relaxed);
            }
            let mut blocked = false;
            while conn.machine.has_output() {
                match conn.machine.write_some(&mut conn.stream) {
                    Ok(outcome) => {
                        counters.writev_calls.fetch_add(1, Ordering::Relaxed);
                        counters
                            .frames_written
                            .fetch_add(outcome.frames_completed as u64, Ordering::Relaxed);
                        if outcome.partial {
                            counters.partial_writes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        blocked = true;
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
            if blocked {
                return true; // residue arms write interest in service()
            }
            if conn.paused && conn.machine.queued_frames() <= depth / 2 {
                conn.paused = false;
                continue; // parse the backlog skipped while paused
            }
            return true;
        }
    }
}
