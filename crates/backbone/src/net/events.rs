//! The event server's side of the readiness loop: N
//! [`Driver`](xml2wire::driver::Driver)s, each a thread over a share of
//! the connections, with a [`ConnMachine`] state machine per connection.
//!
//! Driver 0 owns the listener and accepts in its loop; connection `id`
//! lives on driver `id % N`, which driver 0 hands it to through that
//! driver's inbox. The accept policy, the wait, interest changes and the
//! close-once rule are the driver's (see `xml2wire::driver`); events have
//! no connection cap and no deadlines, so a driver with nothing to do
//! sleeps in the kernel until a socket can make progress or another
//! thread (broker fanout pushing frames, driver 0 handing over a
//! connection) pokes its waker.
//!
//! Invariants this side maintains:
//!
//! * **Write interest exists only while a connection has queued
//!   output.** Writes are attempted eagerly; only a `WouldBlock`
//!   leaves residue that arms write interest, so an idle connection
//!   costs zero wakeups.
//! * **Reply-queue backpressure without blocking.** When a
//!   connection's outbound queue reaches its depth the
//!   driver stops *parsing* (and drops read interest), leaving unread
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

use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use polling::Interest;
use xml2wire::driver::{Driver, Handle, Protocol, Ready, Want};

use crate::error::BackboneError;
use crate::unpoisoned;

use super::machine::{Block, ConnMachine};
use super::{
    CloseHandler, ConnId, NetConfig, NetCounters, NetStats, RoutedHandler, ServerHandle,
    WRITER_QUEUE_DEPTH,
};

/// Most bytes one readiness notification reads from a single
/// connection before yielding — fairness under a firehose peer;
/// level-triggered polling re-reports the remainder immediately.
const READ_BUDGET: usize = 256 * 1024;

/// How long a refused [`Shared::push`] waits for the loop to make
/// room before it hands the block back — so a pusher never goes longer
/// than this without a look at its own stop flag.
const PUSH_PATIENCE: Duration = Duration::from_millis(25);

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

/// The cross-thread face of one driver: its handle (inbox, waker, stop
/// flag) and the push-admission mirror.
struct Shard {
    driver: Arc<Handle<Block>>,
    inflight: Mutex<Inflight>,
    /// Signalled when a connection's inflight count falls or the
    /// connection goes away — what a back-pressured pusher waits on.
    drained: Condvar,
}

impl Shard {
    /// Applies `change` to the admission mirror on the loop's behalf
    /// (frames landed in a machine, a connection removed) and wakes the
    /// pushers waiting for exactly that.
    fn release(&self, change: impl FnOnce(&mut HashMap<ConnId, usize>)) {
        let mut inflight = unpoisoned(self.inflight.lock());
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

/// State shared between the server, its drivers and push handles.
pub(super) struct Shared {
    shards: Vec<Shard>,
    counters: NetCounters,
}

impl Shared {
    fn shard_for(&self, conn: ConnId) -> &Shard {
        &self.shards[(conn as usize) % self.shards.len()]
    }

    /// The admission rule, applied under the owning shard's inflight
    /// lock: a connection may have `WRITER_QUEUE_DEPTH` admitted frames
    /// waiting for its machine (a block larger than that is let
    /// through only onto an empty window, so it can neither be refused
    /// forever nor overshoot the bound by more than itself).
    fn admit(
        shard: &Shard,
        inflight: &mut Inflight,
        conn: ConnId,
        frames: usize,
    ) -> Result<(), Refused> {
        if shard.driver.stopped() {
            return Err(Refused::Gone);
        }
        match inflight.counts.get_mut(&conn) {
            None => Err(Refused::Gone),
            Some(count) if *count > 0 && *count + frames > WRITER_QUEUE_DEPTH => Err(Refused::Busy),
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
    /// connection's queue unless the connection closes first — the
    /// driver never silently resolves an admitted push to a drop.
    /// A full window is back-pressure, not loss: the call waits on the
    /// shard's inflight mirror, up to [`PUSH_PATIENCE`], for the loop
    /// to land frames, and only then answers `Busy`; nothing sleeps and
    /// nothing polls. A refusal hands the block back as it was, so a
    /// retry re-encodes nothing; `Gone` is tallied in `pushes_dropped`.
    pub(super) fn push(&self, conn: ConnId, block: Block) -> Result<(), (Refused, Block)> {
        let shard = self.shard_for(conn);
        let mut inflight = unpoisoned(shard.inflight.lock());
        let mut waited = false;
        loop {
            match Self::admit(shard, &mut inflight, conn, block.frames()) {
                Ok(()) => break,
                Err(Refused::Busy) if !waited => {
                    inflight.waiting += 1;
                    inflight = unpoisoned(shard.drained.wait_timeout(inflight, PUSH_PATIENCE)).0;
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
        shard.driver.deliver(conn, block);
        Ok(())
    }
}

/// A TCP event server: accepts connections and feeds frames to a
/// handler. Its drivers' threads are stopped through their wakers and
/// joined on drop.
pub struct EventServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for EventServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl EventServer {
    /// Binds and serves on `addr`: `handler` answers each inbound frame
    /// and learns which connection it came from, [`handle`](Self::handle)
    /// pushes frames to any of them, and `on_close` (if any) fires
    /// exactly once per connection when it is deregistered, on the loop
    /// thread that closed it — how a federated broker learns a remote
    /// link died without heartbeating it.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        handler: RoutedHandler,
        on_close: Option<CloseHandler>,
        config: NetConfig,
    ) -> Result<Self, BackboneError> {
        let listener = TcpListener::bind(addr)?;
        let drivers = match config.shards {
            0 => std::thread::available_parallelism()
                .map_or(1, usize::from)
                .min(4),
            shards => shards,
        };
        let mut shards = Vec::with_capacity(drivers);
        for _ in 0..drivers {
            shards.push(Shard {
                driver: Handle::new()?,
                inflight: Mutex::new(Inflight::default()),
                drained: Condvar::new(),
            });
        }
        let shared = Arc::new(Shared {
            shards,
            counters: NetCounters::default(),
        });
        // Built as it goes, so a failure part-way stops the drivers
        // already running.
        let mut server = EventServer {
            addr: listener.local_addr()?,
            shared: Arc::clone(&shared),
            threads: Vec::with_capacity(drivers),
        };
        let mut listener = Some(listener);
        for index in 0..drivers {
            let events = Events {
                shared: Arc::clone(&shared),
                index,
                handler: Arc::clone(&handler),
                on_close: on_close.clone(),
                scratch: vec![0u8; 64 * 1024],
            };
            let driver = Arc::clone(&shared.shards[index].driver);
            let driver = Driver::<Conn>::new(driver, listener.take(), events)?;
            server
                .threads
                .push(driver.spawn(format!("event-loop-{index}"))?);
        }
        Ok(server)
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many connections the server has accepted so far. The
    /// listener is watched by a loop that sleeps in the kernel, so this
    /// advances only when a connection actually arrives.
    pub fn accept_wakeups(&self) -> u64 {
        self.shared.shards[0].driver.accepted()
    }

    /// Number of currently tracked (not yet reaped) connections.
    pub fn connection_count(&self) -> usize {
        self.shared.counters.connection_count()
    }

    /// A snapshot of the transport counters.
    pub fn net_stats(&self) -> NetStats {
        let shards = &self.shared.shards;
        let wakeups = shards.iter().map(|shard| shard.driver.wakeups()).sum();
        self.shared
            .counters
            .snapshot(self.accept_wakeups(), wakeups)
    }

    /// A cloneable handle for pushing server-initiated frames (broker
    /// fanout). Outlives nothing: pushes after the server drops come
    /// back [`Refused::Gone`].
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for EventServer {
    fn drop(&mut self) {
        for shard in &self.shared.shards {
            shard.driver.stop();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// What the connections of one driver share.
struct Events {
    shared: Arc<Shared>,
    /// This driver's place in `shared.shards`.
    index: usize,
    handler: RoutedHandler,
    on_close: Option<CloseHandler>,
    scratch: Vec<u8>,
}

impl Events {
    fn shard(&self) -> &Shard {
        &self.shared.shards[self.index]
    }
}

/// One framed connection's state; its driver owns the socket.
struct Conn {
    machine: ConnMachine,
    /// Admitted pushes waiting for machine-queue space. Bounded by the
    /// queue depth (admission caps the inflight mirror), drained into
    /// the machine as writes free space. This is what makes an
    /// accepted push an accepted push: the machine being momentarily
    /// full parks the block here instead of dropping it.
    overflow: VecDeque<Block>,
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

/// Frames held by parked pushes.
fn parked_frames(overflow: &VecDeque<Block>) -> usize {
    overflow.iter().map(Block::frames).sum()
}

/// The event side of the driver: no connection cap, no deadlines, and
/// pushed blocks as the one command.
impl Protocol for Conn {
    type Context = Events;
    type Message = Block;
    const MAX_CONNECTIONS: usize = usize::MAX;
    const DEADLINES: bool = false;

    /// Connection `id` belongs to driver `id % N`. Its inflight entry goes
    /// in before the hand-over, so a push racing the accept sees the
    /// connection as live, not Gone.
    fn accepted(id: ConnId, stream: TcpStream, events: &mut Events) -> Option<TcpStream> {
        let index = (id as usize) % events.shared.shards.len();
        let shard = &events.shared.shards[index];
        unpoisoned(shard.inflight.lock()).counts.insert(id, 0);
        if index == events.index {
            return Some(stream);
        }
        shard.driver.register(id, stream);
        None
    }

    fn open(_: ConnId, events: &mut Events) -> (Conn, Option<Instant>) {
        events.shared.counters.note_open();
        let conn = Conn {
            machine: ConnMachine::new(),
            overflow: VecDeque::new(),
            eof: false,
            input_dead: false,
            paused: false,
        };
        (conn, None)
    }

    /// Runs the state machine forward: optional socket reads, frame
    /// processing under the queue bound, eager writes, backpressure
    /// pause/resume, and the close decision.
    fn ready(
        &mut self,
        id: ConnId,
        stream: &mut TcpStream,
        ready: Ready,
        events: &mut Events,
    ) -> Option<Want> {
        let counters = &events.shared.counters;
        // 1. Socket reads. A paused connection leaves bytes to TCP flow
        // control, but a hangup forces a probe so a reset peer is
        // noticed even mid-backpressure.
        if !self.eof && ((ready.readable && !self.paused) || ready.hangup) {
            let mut taken = 0usize;
            while taken < READ_BUDGET {
                match stream.read(&mut events.scratch) {
                    Ok(0) => self.eof = true,
                    Ok(n) => {
                        self.machine.ingest(&events.scratch[..n]);
                        taken += n;
                        continue;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return None,
                }
                break;
            }
        }

        // 2. Process buffered frames and drain output, topping the
        // machine back up from parked pushes as writes free space.
        // Each drain shrinks the overflow buffer, so the loop is
        // bounded by its length.
        loop {
            if !self.process_and_flush(stream, &events.handler, counters, id) {
                return None;
            }
            let mut moved = 0usize;
            while self.machine.queued_frames() < WRITER_QUEUE_DEPTH {
                let Some(block) = self.overflow.pop_front() else {
                    break;
                };
                moved += block.frames();
                self.machine.queue_block(block);
            }
            if moved == 0 {
                break;
            }
            counters.note_queue_depth(self.machine.queued_frames());
            events.shard().landed(id, moved);
        }

        // 3. A connection drains queued output and processes
        // already-received frames before an EOF close, but an I/O error
        // closes it at once (above).
        if self.eof && !self.paused && !self.machine.has_output() {
            return None;
        }
        let interest = Interest {
            read: !self.eof && !self.paused,
            write: self.machine.has_output(),
        };
        Some(Want {
            interest,
            deadline: None,
        })
    }

    /// Lands one admitted push: straight into the machine when there
    /// is room (and the overflow buffer is empty, preserving FIFO),
    /// otherwise parked in the connection's overflow buffer — never
    /// dropped, because admission already promised the sender a slot.
    fn deliver(&mut self, id: ConnId, block: Block, events: &mut Events) {
        if self.overflow.is_empty() && self.machine.queued_frames() < WRITER_QUEUE_DEPTH {
            let frames = block.frames();
            self.machine.queue_block(block);
            let counters = &events.shared.counters;
            counters.note_queue_depth(self.machine.queued_frames());
            events.shard().landed(id, frames);
        } else {
            self.overflow.push_back(block);
        }
    }

    /// The only drop left on the push path: a push whose connection
    /// closed between admission and delivery, which is counted.
    fn undelivered(block: Block, events: &mut Events) {
        events.shared.counters.note_dropped(block.frames());
    }

    /// Removing the inflight entry turns further pushes into Gone;
    /// parked pushes die with the connection, counted.
    fn closed(self, id: ConnId, events: &mut Events) {
        events.shard().forget(id);
        let counters = &events.shared.counters;
        counters.note_dropped(parked_frames(&self.overflow));
        counters.note_closed();
        if let Some(on_close) = &events.on_close {
            on_close(id);
        }
    }
}

impl Conn {
    /// Parse → handle → write until nothing can move. Returns `false`
    /// on a fatal socket write error.
    fn process_and_flush(
        &mut self,
        stream: &mut TcpStream,
        handler: &RoutedHandler,
        counters: &NetCounters,
        id: ConnId,
    ) -> bool {
        loop {
            if !self.input_dead {
                while self.machine.queued_frames() < WRITER_QUEUE_DEPTH {
                    match self.machine.next_frame() {
                        Ok(Some(frame)) => {
                            counters.note_read();
                            if let Some(reply) = handler(id, frame) {
                                self.machine.queue(reply);
                                counters.note_queue_depth(self.machine.queued_frames());
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Poisoned input: stop reading and parsing;
                            // drain what was already queued, then close.
                            self.input_dead = true;
                            self.eof = true;
                            break;
                        }
                    }
                }
            }
            if self.machine.queued_frames() >= WRITER_QUEUE_DEPTH && !self.paused {
                self.paused = true;
                counters.note_pause();
            }
            while self.machine.has_output() {
                match self.machine.write_some(stream) {
                    Ok(outcome) => counters.note_written(outcome),
                    // Residue arms write interest.
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
            if self.paused && self.machine.queued_frames() <= WRITER_QUEUE_DEPTH / 2 {
                self.paused = false;
                continue; // parse the backlog skipped while paused
            }
            return true;
        }
    }
}
