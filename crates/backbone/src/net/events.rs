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
//!   connection's outbound queue reaches its depth the
//!   shard stops *parsing* (and drops read interest), leaving unread
//!   bytes to TCP flow control. Parsing resumes at half depth.
//! * **Push admission is synchronous and admitted pushes are never
//!   silently dropped.** A pusher consults a per-connection inflight
//!   mirror before enqueueing: a window that stays full for a bounded
//!   wait surfaces as `Busy` *to the caller* (retry or drop, their
//!   choice), a closed connection as `Gone`, and either hands the
//!   block back. An admitted push that finds the machine momentarily
//!   full parks in a bounded per-connection overflow buffer and enters
//!   the queue as writes drain it — fanout never stalls the loop, and
//!   an `Ok` from a push is a real acceptance.
//! * **A push is a [`Block`], whatever it carries.** Pushers serialise
//!   frames into blocks on their own thread (a federation forwarder
//!   hands over a whole drained batch as one), so the inbox, the
//!   overflow buffer and the machine's queue move blocks, the
//!   connection and inflight lookups happen once per block, and the
//!   kernel is offered one slice per block. Everything is still
//!   *counted* in frames: admission, the queue bound, the statistics.
//! * **Each fd closes exactly once.** A connection dies only by being
//!   removed from its shard's table (poller deregistration, then the
//!   `TcpStream` drop closes the fd); the table removal is the
//!   once-guard, so peer resets racing mid-write cannot double-close.

use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use polling::{Interest, Poller, Waker};

use crate::error::BackboneError;

use super::machine::{Block, ConnMachine};
use super::{CloseHandler, ConnId, NetCounters, RoutedHandler, WRITER_QUEUE_DEPTH};

/// Reserved poller key for each shard's waker (connection ids count up
/// from zero and can never reach it).
const WAKE_KEY: u64 = u64::MAX;

/// Most bytes one readiness notification reads from a single
/// connection before yielding — fairness under a firehose peer;
/// level-triggered polling re-reports the remainder immediately.
const READ_BUDGET: usize = 256 * 1024;

/// How long a refused [`Shared::push`] waits for the loop to make
/// room before it hands the block back — so a pusher never goes longer
/// than this without a look at its own stop flag.
const PUSH_PATIENCE: Duration = Duration::from_millis(25);

/// A command delivered to a loop shard from another thread.
enum Cmd {
    /// A freshly accepted socket to take ownership of.
    Register(ConnId, TcpStream),
    /// Server-initiated frames (broker fanout) for one connection.
    Push(ConnId, Block),
}

/// Why [`ServerHandle::push`](super::ServerHandle::push) handed its
/// block back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The connection's window is full: retryable.
    Busy,
    /// The connection is unknown or closed, or the server is shutting
    /// down: permanent.
    Gone,
}

/// One shard's push-admission mirror.
#[derive(Default)]
struct Inflight {
    /// Per-connection count of pushed frames admitted but not yet
    /// transferred into the connection's state machine (still in the
    /// inbox or the connection's overflow buffer). Entries are created
    /// at accept and removed at close, so presence doubles as the
    /// liveness check: pushers consult this map **synchronously**,
    /// which is what lets [`Shared::push`] distinguish a full queue
    /// (retryable) from a dead connection (permanent) without a round
    /// trip through the loop thread. Admission caps the count at the
    /// queue depth, bounding per-connection overflow memory.
    counts: HashMap<ConnId, usize>,
    /// Pushers blocked in [`Shared::push`]; the loop signals
    /// `drained` only while this is non-zero.
    waiting: usize,
}

/// The cross-thread face of one shard: its command inbox, waker, and
/// the push-admission mirror.
struct ShardShared {
    inbox: Mutex<VecDeque<Cmd>>,
    waker: Waker,
    inflight: Mutex<Inflight>,
    /// Signalled when a connection's inflight count falls or the
    /// connection goes away — what a back-pressured pusher waits on.
    drained: Condvar,
}

impl ShardShared {
    /// Enqueues a command, writing the waker's eventfd only on the
    /// empty→non-empty transition (per-push syscall cost becomes
    /// per-burst). Safe because the shard's `drain_inbox` re-locks and
    /// loops until the inbox is observed empty: a command appended
    /// while the inbox is non-empty is collected by the drain already
    /// in flight, so a second kernel wakeup would be redundant.
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

    /// Applies `change` to the admission mirror on the loop's behalf
    /// (frames landed in a machine, a connection removed) and wakes the
    /// pushers waiting for exactly that.
    fn release(&self, change: impl FnOnce(&mut HashMap<ConnId, usize>)) {
        let mut inflight = self.inflight.lock();
        change(&mut inflight.counts);
        if inflight.waiting > 0 {
            self.drained.notify_all();
        }
    }

    /// `conn` is gone: pushes at it read `Gone` from here on.
    fn forget(&self, conn: ConnId) {
        self.release(|counts| {
            counts.remove(&conn);
        });
    }

    /// `frames` of `conn`'s admitted pushes have entered its machine.
    fn landed(&self, conn: ConnId, frames: usize) {
        self.release(|counts| {
            if let Some(count) = counts.get_mut(&conn) {
                *count -= frames;
            }
        });
    }
}

/// State shared between the server, acceptor, and push handles.
pub(super) struct Shared {
    shards: Vec<Arc<ShardShared>>,
    counters: Arc<NetCounters>,
    stop: Arc<AtomicBool>,
}

impl Shared {
    fn shard_for(&self, conn: ConnId) -> &Arc<ShardShared> {
        &self.shards[(conn as usize) % self.shards.len()]
    }

    /// The admission rule, applied under the owning shard's inflight
    /// lock: a connection may have `WRITER_QUEUE_DEPTH` admitted frames
    /// waiting for its machine (a block larger than that is let
    /// through only onto an empty window, so it can neither be refused
    /// forever nor overshoot the bound by more than itself).
    fn admit(&self, inflight: &mut Inflight, conn: ConnId, frames: usize) -> Result<(), Refused> {
        if self.stop.load(Ordering::SeqCst) {
            return Err(Refused::Gone);
        }
        match inflight.counts.get_mut(&conn) {
            None => Err(Refused::Gone),
            Some(count) if *count > 0 && *count + frames > WRITER_QUEUE_DEPTH => {
                Err(Refused::Busy)
            }
            Some(count) => {
                *count += frames;
                Ok(())
            }
        }
    }

    /// Admits and enqueues a block — a single frame or a federation
    /// forwarder's drained batch: one admission, one inbox entry and at
    /// most one waker write for all its frames. Admission is
    /// synchronous: an `Ok` means the frames **will** enter the
    /// connection's queue unless the connection closes first — the loop
    /// shard never silently resolves an admitted push to a drop.
    /// A full window is back-pressure, not loss: the call waits on the
    /// shard's inflight mirror, up to [`PUSH_PATIENCE`], for the loop
    /// to land frames, and only then answers `Busy`; nothing sleeps and
    /// nothing polls. A refusal hands the block back as it was, so a
    /// retry re-encodes nothing; `Gone` is tallied in `pushes_dropped`.
    pub(super) fn push(&self, conn: ConnId, block: Block) -> Result<(), (Refused, Block)> {
        let shard = self.shard_for(conn);
        let mut inflight = shard.inflight.lock();
        let mut waited = false;
        loop {
            match self.admit(&mut inflight, conn, block.frames()) {
                Ok(()) => break,
                Err(Refused::Busy) if !waited => {
                    inflight.waiting += 1;
                    inflight = shard
                        .drained
                        .wait_timeout(inflight, PUSH_PATIENCE)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                    inflight.waiting -= 1;
                    waited = true;
                }
                Err(refused) => {
                    if matches!(refused, Refused::Gone) {
                        self.counters.note_dropped(block.frames());
                    }
                    return Err((refused, block));
                }
            }
        }
        drop(inflight);
        shard.enqueue(Cmd::Push(conn, block));
        Ok(())
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
                inflight: Mutex::new(Inflight::default()),
                drained: Condvar::new(),
            });
            shard_shared.push(Arc::clone(&shared));
            parts.push((poller, shared));
        }
        let shared = Arc::new(Shared {
            shards: shard_shared,
            counters: Arc::clone(&counters),
            stop: Arc::clone(&stop),
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
                conns: HashMap::new(),
                scratch: vec![0u8; 64 * 1024],
                cmds: VecDeque::new(),
                touched: Vec::new(),
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
                shard.inflight.lock().counts.insert(id, 0);
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
    /// full parks the block here instead of dropping it.
    overflow: VecDeque<Block>,
    /// Already on the shard's list of connections to service once the
    /// inbox is drained.
    touched: bool,
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
    conns: HashMap<ConnId, Conn>,
    scratch: Vec<u8>,
    /// Reused across wake-ups: the inbox is swapped out into `cmds`,
    /// and `touched` lists the connections its pushes landed on.
    cmds: VecDeque<Cmd>,
    touched: Vec<ConnId>,
}

/// Frames held by parked pushes.
fn parked_frames(overflow: &VecDeque<Block>) -> usize {
    overflow.iter().map(Block::frames).sum()
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
        let pending = std::mem::take(&mut *self.shared.inbox.lock());
        for cmd in pending {
            if let Cmd::Push(_, block) = cmd {
                self.counters.note_dropped(block.frames());
            }
        }
        // Deregister and close every connection exactly once. Parked
        // pushes are definitive drops at this point too.
        self.shared.release(HashMap::clear);
        for (id, conn) in self.conns.drain() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.counters.note_dropped(parked_frames(&conn.overflow));
            self.counters.note_closed();
            if let Some(on_close) = &self.on_close {
                on_close(id);
            }
        }
    }

    fn drain_inbox(&mut self) {
        // Queue every pushed block first, then service each touched
        // connection once: blocks that accumulated for one connection
        // while the shard was busy leave in a single writev instead of
        // one syscall each.
        loop {
            {
                let mut inbox = self.shared.inbox.lock();
                if inbox.is_empty() {
                    break;
                }
                std::mem::swap(&mut *inbox, &mut self.cmds);
            }
            while let Some(cmd) = self.cmds.pop_front() {
                match cmd {
                    Cmd::Register(id, stream) => self.register(id, stream),
                    Cmd::Push(id, block) => self.queue_push(id, block),
                }
            }
        }
        for at in 0..self.touched.len() {
            let id = self.touched[at];
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.touched = false;
            }
            // Flush eagerly: only a WouldBlock leaves residue (and arms
            // write interest).
            self.service(id, false, false);
        }
        self.touched.clear();
    }

    fn register(&mut self, id: ConnId, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err()
            || stream.set_nodelay(true).is_err()
            || self.poller.add(stream.as_raw_fd(), id, Interest::READ).is_err()
        {
            // Dropping the stream closes the only fd reference; the
            // accept-time inflight entry must go with it so pushers see
            // Gone instead of a connection that will never drain.
            self.shared.forget(id);
            return;
        }
        self.counters.note_open();
        self.conns.insert(
            id,
            Conn {
                stream,
                machine: ConnMachine::new(),
                overflow: VecDeque::new(),
                touched: false,
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
    /// dropped, because admission already promised the sender a slot —
    /// and marks the connection for a service pass. The only drop left
    /// here is a push whose connection closed between admission and
    /// delivery, which is counted.
    fn queue_push(&mut self, id: ConnId, block: Block) {
        let Some(conn) = self.conns.get_mut(&id) else {
            self.counters.note_dropped(block.frames());
            return;
        };
        if conn.overflow.is_empty() && conn.machine.queued_frames() < WRITER_QUEUE_DEPTH {
            let frames = block.frames();
            conn.machine.queue_block(block);
            self.counters.note_queue_depth(conn.machine.queued_frames());
            self.shared.landed(id, frames);
        } else {
            conn.overflow.push_back(block);
        }
        if !conn.touched {
            conn.touched = true;
            self.touched.push(id);
        }
    }

    /// Runs one connection's state machine forward: optional socket
    /// reads, frame processing under the queue bound, eager writes,
    /// backpressure pause/resume, interest resync, and the close
    /// decision.
    fn service(&mut self, id: ConnId, readable: bool, hangup: bool) {
        let Shard { shared, conns, counters, handler, on_close, poller, scratch, .. } = self;
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
                dead = !Self::process_and_flush(conn, handler, counters, id);
                if dead {
                    break;
                }
                let mut moved = 0usize;
                while conn.machine.queued_frames() < WRITER_QUEUE_DEPTH {
                    let Some(block) = conn.overflow.pop_front() else { break };
                    moved += block.frames();
                    conn.machine.queue_block(block);
                }
                if moved == 0 {
                    break;
                }
                counters.note_queue_depth(conn.machine.queued_frames());
                shared.landed(id, moved);
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
            shared.forget(id);
            counters.note_dropped(parked_frames(&conn.overflow));
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
        id: ConnId,
    ) -> bool {
        loop {
            if !conn.input_dead {
                while conn.machine.queued_frames() < WRITER_QUEUE_DEPTH {
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
            if conn.machine.queued_frames() >= WRITER_QUEUE_DEPTH && !conn.paused {
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
            if conn.paused && conn.machine.queued_frames() <= WRITER_QUEUE_DEPTH / 2 {
                conn.paused = false;
                continue; // parse the backlog skipped while paused
            }
            return true;
        }
    }
}
