//! The in-process publish/subscribe broker: sharded, multi-core dispatch
//! with batched fan-out.
//!
//! Streams are partitioned by name hash across N independent **shards**
//! (N ≈ cores, configurable). Each shard owns a dispatch worker thread
//! that drains a bounded MPSC queue in batches and fans `Arc<Event>`s out
//! to that shard's subscribers, so publishers on different streams never
//! contend on a shared lock and a slow subscriber backpressures only its
//! own shard. Within a batch, events are grouped by stream and pushed to
//! each subscriber under a single lock acquisition (`send_many` and
//! friends), which is what makes high-rate fan-out cheap: per-event
//! subscriber-lock cost drops from O(subscribers) to
//! O(subscribers / batch).
//!
//! Subscribe and unsubscribe travel through the same shard queue as
//! events, so ordering is exact: a subscriber observes precisely the
//! events published after its subscription was enqueued, and
//! [`Subscription::unsubscribe`] does not return until the worker has
//! removed the subscriber — no event is delivered after it completes.
//!
//! Subscriber queues honour a per-stream [`Overflow`] policy: `Block`
//! (default; lossless, backpressures the shard), `DropOldest` (keep the
//! freshest events — the live-display policy) or `DropNewest` (keep the
//! oldest — the audit-log policy).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use clayout::StructType;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use pbio::header::MAX_FORMAT_NAME_LEN;
use pbio::PbioError;
use xml2wire::seglog::{SegLogConfig, SegReplay, SegmentLog};

use crate::error::BackboneError;
use crate::filter::{FilterCache, FilterError, StreamFilter};

/// One event on a stream: an encoded message plus routing metadata.
///
/// The payload is whatever the stream's codec produced (usually a full
/// NDR message); the broker never interprets it — that is the whole
/// point of keeping metadata handling orthogonal to transport. Routing
/// names are `Arc<str>` so a long-lived publisher hands them out by
/// reference-count bump instead of copying per message; the broker
/// likewise fans one `Arc<Event>` out to every subscriber, so the
/// payload bytes are allocated exactly once no matter the fan-out.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The stream this event was published on.
    pub stream: Arc<str>,
    /// The message format name (mirrors the wire header, but lets
    /// consumers route without parsing payloads).
    pub format_name: Arc<str>,
    /// The encoded message.
    pub payload: Vec<u8>,
    /// Per-stream sequence number. `0` marks a non-durable event;
    /// events on durable streams carry 1-based, contiguous, publish-order
    /// sequences assigned by the owning broker and *preserved* across
    /// federation hops, which is what makes replay/cutover dedup exact
    /// at any broker in a chain.
    pub seq: u64,
    /// Federation hop count: `0` for locally published events,
    /// incremented each time a [`crate::FederationLink`] republishes the
    /// event into another broker. Links drop events whose hop count
    /// reaches their configured ceiling, which is what keeps frames from
    /// circulating forever in mesh (cyclic) topologies — seq-based dedup
    /// only protects durable traffic.
    pub hops: u8,
}

impl Event {
    /// Creates a (non-durable, seq 0) event.
    pub fn new(
        stream: impl Into<Arc<str>>,
        format_name: impl Into<Arc<str>>,
        payload: Vec<u8>,
    ) -> Self {
        Event { stream: stream.into(), format_name: format_name.into(), payload, seq: 0, hops: 0 }
    }

    /// Creates an event carrying an already-assigned sequence number
    /// (forwarded traffic; locally published durable events get their
    /// seq from the broker, not the caller).
    pub fn with_seq(
        stream: impl Into<Arc<str>>,
        format_name: impl Into<Arc<str>>,
        payload: Vec<u8>,
        seq: u64,
    ) -> Self {
        Event { stream: stream.into(), format_name: format_name.into(), payload, seq, hops: 0 }
    }
}

/// What a dispatch worker does when a subscriber's bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Overflow {
    /// Wait for space: lossless delivery; the whole shard (and therefore
    /// publishers routed to it) backpressures on the slow subscriber.
    #[default]
    Block,
    /// Evict the oldest queued event to make room — subscribers always
    /// see the freshest data (the live flight-display policy).
    DropOldest,
    /// Drop the incoming event — subscribers keep what they already have
    /// (the audit-log policy).
    DropNewest,
}

/// Per-stream configuration supplied at creation time.
#[derive(Debug, Clone, Default)]
pub struct StreamConfig {
    /// Where subscribers can discover the stream's metadata.
    pub metadata_locator: Option<String>,
    /// Subscriber queue capacity; `None` (default) is unbounded, which
    /// makes the overflow policy moot. `Some(0)` is clamped to `Some(1)`
    /// at registration (rendezvous queues are not supported).
    pub capacity: Option<usize>,
    /// What to do when a bounded subscriber queue fills.
    pub overflow: Overflow,
}

/// Where (and how) a durable stream's segment log lives. Passed to
/// [`Broker::create_stream_durable`]; each durable stream owns one log
/// directory.
#[derive(Debug, Clone)]
pub struct DurableSpec {
    /// Directory holding the stream's segment files (created if absent).
    pub dir: PathBuf,
    /// Segment size / fsync policy.
    pub log: SegLogConfig,
}

impl DurableSpec {
    /// A spec with default segment-log tuning.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableSpec { dir: dir.into(), log: SegLogConfig::default() }
    }
}

/// The durable half of a stream: the segment log its shard worker
/// appends to, plus the publish-side sequence counter. The counter is a
/// mutex (not an atomic) because seq assignment and the shard-queue send
/// must be one critical section — queue order must equal seq order or
/// the log would see non-contiguous appends.
#[derive(Debug)]
struct DurableState {
    log: Arc<Mutex<SegmentLog>>,
    next_seq: Mutex<u64>,
}

/// Descriptive information about a registered stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamInfo {
    /// The stream name.
    pub name: String,
    /// Where subscribers can discover the stream's metadata (a locator
    /// for the discovery chain, typically a metadata-server URL).
    pub metadata_locator: Option<String>,
    /// Number of live subscribers.
    pub subscribers: usize,
    /// Number of events published so far.
    pub published: u64,
    /// Number of events dropped by overflow policies so far.
    pub dropped: u64,
    /// Highest sequence assigned on this (durable) stream; `0` for
    /// non-durable streams.
    pub durable_seq: u64,
    /// Number of events whose archive append failed (the event was
    /// still fanned out live, but is missing from replay).
    pub archive_errors: u64,
}

/// Synchronously queryable stream state; the subscriber *list* lives in
/// the shard worker, this is everything the lock-light query and publish
/// paths need.
#[derive(Debug)]
struct StreamMeta {
    name: Arc<str>,
    metadata_locator: Mutex<Option<String>>,
    subscribers: AtomicUsize,
    published: AtomicU64,
    dropped: AtomicU64,
    archive_errors: AtomicU64,
    capacity: Option<usize>,
    overflow: Overflow,
    durable: Option<DurableState>,
    /// The stream's clayout struct type, when registered — what
    /// subscription predicates resolve field names against. Capture
    /// points register it automatically; see
    /// [`Broker::register_stream_type`].
    filter_type: Mutex<Option<Arc<StructType>>>,
}

/// A subscriber as the shard worker sees it.
#[derive(Clone)]
struct SubEntry {
    id: u64,
    tx: Sender<Arc<Event>>,
    overflow: Overflow,
    meta: Arc<StreamMeta>,
    /// Content predicate; `None` delivers everything. Subscribers with
    /// equivalent predicates share one `Arc` (the [`FilterCache`]
    /// dedups), so fanout groups them and evaluates once per event.
    filter: Option<Arc<StreamFilter>>,
    /// Set by the shard worker when a stream-type swap invalidates this
    /// subscriber's filter, just before the entry is dropped; the
    /// subscription reads it to turn the resulting disconnection into
    /// the typed [`FilterError::TypeChanged`].
    poison: Arc<Mutex<Option<FilterError>>>,
}

/// Messages on a shard's dispatch queue. Control messages share the
/// queue with events so their ordering relative to publishes is exact.
enum ShardMsg {
    Event(Arc<Event>),
    Subscribe { entry: SubEntry, ack: Option<Sender<()>> },
    Unsubscribe { stream: Arc<str>, id: u64, ack: Option<Sender<()>> },
    /// Hands the worker a durable stream's segment log. Sent before the
    /// stream becomes publishable, so it always precedes the stream's
    /// first event on the queue.
    RegisterLog { meta: Arc<StreamMeta>, log: Arc<Mutex<SegmentLog>> },
    /// The stream's struct type was replaced: the worker recompiles
    /// each live subscriber's filter against the new type (via the
    /// shared cache) or, when an expression no longer typechecks,
    /// poisons and drops the subscriber. Travels the event queue, so
    /// events published before the swap are still evaluated under the
    /// old programs and events after it under the new ones.
    Retype { stream: Arc<str>, st: Arc<StructType>, cache: Arc<FilterCache> },
    Shutdown,
}

/// One shard: the sync-side stream registry plus the dispatch queue
/// feeding this shard's worker.
struct Shard {
    meta: RwLock<HashMap<String, Arc<StreamMeta>>>,
    tx: Sender<ShardMsg>,
}

/// How many messages a worker drains per queue lock.
const DISPATCH_BATCH: usize = 128;
/// How many cooperative yields a worker spins through an empty queue
/// before parking on the channel condvar. While the worker polls,
/// publishers pay zero wake syscalls (the channel only notifies parked
/// receivers), which keeps the steady-state publish path at
/// queue-push cost; only the first publish after an idle period pays a
/// wake. The budget bounds idle burn to a few microseconds of yields.
const IDLE_SPINS: usize = 64;
/// Dispatch queue depth per shard; publishers block (backpressure) when
/// their shard's queue is full.
const SHARD_QUEUE_DEPTH: usize = 8192;

/// A subscription: the consuming end of a stream.
///
/// Events arrive as [`Arc<Event>`]: every subscriber of a stream shares
/// the single allocation the publisher made, so receiving is free of
/// copies. `Arc<Event>` dereferences to [`Event`], so `.payload` et al.
/// read as before; clone the `Arc` (cheap) to retain an event, or clone
/// the `Event` (copies the payload) to mutate one.
///
/// Dropping a subscription lazily deregisters it (the shard worker
/// prunes it on the next delivery attempt); call
/// [`unsubscribe`](Subscription::unsubscribe) to deregister
/// synchronously.
#[derive(Debug)]
pub struct Subscription {
    receiver: Receiver<Arc<Event>>,
    meta: Arc<StreamMeta>,
    shard_tx: Sender<ShardMsg>,
    id: u64,
    poison: Arc<Mutex<Option<FilterError>>>,
}

impl Subscription {
    /// What a closed channel means for this subscription: normally the
    /// broker is gone, but a filtered subscriber whose predicate was
    /// invalidated by a stream-type swap gets the typed reason instead.
    fn disconnect_error(&self) -> BackboneError {
        match self.poison.lock().clone() {
            Some(e) => BackboneError::Filter(e),
            None => BackboneError::Disconnected,
        }
    }

    /// Blocks until the next event.
    ///
    /// # Errors
    ///
    /// Returns [`BackboneError::Disconnected`] when the broker is gone,
    /// or [`BackboneError::Filter`] with
    /// [`FilterError::TypeChanged`] when a stream-type swap invalidated
    /// this subscription's predicate.
    pub fn recv(&self) -> Result<Arc<Event>, BackboneError> {
        self.receiver.recv().map_err(|_| self.disconnect_error())
    }

    /// Waits up to `timeout` for the next event.
    ///
    /// # Errors
    ///
    /// Disconnection or timeout (reported as `Disconnected`), or the
    /// typed [`FilterError::TypeChanged`] as for [`recv`](Self::recv).
    pub fn recv_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<Arc<Event>, BackboneError> {
        match self.receiver.recv_timeout(timeout) {
            Ok(event) => Ok(event),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                Err(BackboneError::Disconnected)
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                Err(self.disconnect_error())
            }
        }
    }

    /// Refills `out` with up to `max` (≥ 1) events: everything already
    /// queued, under one lock and without reading the clock, or —
    /// after waiting up to `timeout` on an empty queue — the first
    /// arrival and whatever came with it. The batch is whatever is
    /// *already* there; nothing lingers to fill it. An interval that
    /// stays empty leaves `out` empty — the polling primitive for pump
    /// loops (federation forwarders) that must tell "nothing yet" apart
    /// from "never again".
    ///
    /// # Errors
    ///
    /// [`BackboneError::Disconnected`] (or the typed filter error) only
    /// on real disconnection.
    pub(crate) fn recv_batch(
        &self,
        out: &mut Vec<Arc<Event>>,
        max: usize,
        timeout: std::time::Duration,
    ) -> Result<(), BackboneError> {
        out.clear();
        if self.receiver.try_recv_batch(out, max) > 0 {
            return Ok(());
        }
        match self.receiver.recv_timeout(timeout) {
            Ok(event) => {
                out.push(event);
                self.receiver.try_recv_batch(out, max - 1);
                Ok(())
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Ok(()),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                Err(self.disconnect_error())
            }
        }
    }

    /// Non-blocking poll.
    pub fn try_recv(&self) -> Option<Arc<Event>> {
        self.receiver.try_recv().ok()
    }

    /// Number of events waiting.
    pub fn backlog(&self) -> usize {
        self.receiver.len()
    }

    /// Synchronously deregisters this subscription: sends the
    /// unsubscribe through the shard's dispatch queue and waits for the
    /// worker to acknowledge it. When this returns, no further event
    /// will be delivered to (or buffered for) this subscription; the
    /// returned receiver holds only events that were dispatched before
    /// deregistration took effect, for callers that want to drain them.
    pub fn unsubscribe(self) -> Receiver<Arc<Event>> {
        let receiver = self.receiver.clone();
        let (ack_tx, ack_rx) = bounded(1);
        let sent = self
            .shard_tx
            .send(ShardMsg::Unsubscribe {
                stream: Arc::clone(&self.meta.name),
                id: self.id,
                ack: Some(ack_tx),
            })
            .is_ok();
        if !sent {
            // The worker shut down, which deregisters us too.
            return receiver;
        }
        // Wait for the ack while draining our own queue: under the Block
        // policy the worker may be parked in send_many on this very
        // (full) queue, and it can only reach our Unsubscribe message
        // once we make room. Drained events are kept so the returned
        // receiver still holds the whole pre-deregistration backlog.
        let mut drained: Vec<Arc<Event>> = Vec::new();
        loop {
            match ack_rx.recv_timeout(std::time::Duration::from_millis(1)) {
                Ok(()) => break,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    while let Ok(event) = receiver.try_recv() {
                        drained.push(event);
                    }
                }
                // The worker shut down mid-wait; that deregisters us too.
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            }
        }
        // Drop runs next and decrements the subscriber count; the worker
        // ignores unsubscribes for ids it no longer knows.
        if drained.is_empty() {
            return receiver;
        }
        // Reassemble the backlog in order on a fresh channel: the events
        // drained while waiting, then whatever is still queued.
        let (tx, rx) = unbounded();
        for event in drained {
            let _ = tx.send(event);
        }
        while let Ok(event) = receiver.try_recv() {
            let _ = tx.send(event);
        }
        rx
    }
}

/// A catch-up subscription on a durable stream: replays archived
/// history first, then hands over to the live feed at the exact
/// sequence boundary, deduping by seq (see
/// [`Broker::subscribe_replay`]).
#[derive(Debug)]
pub struct ReplaySubscription {
    replay: Option<SegReplay>,
    /// Last seq the archive snapshot covers; live events at or below it
    /// are duplicates of replayed history and are skipped.
    cutover: u64,
    live: Subscription,
    stream: Arc<str>,
    /// Format name of the last archived record: one log is one stream
    /// and in practice one format, so its `Arc` is shared, not rebuilt.
    format_name: Arc<str>,
}

impl ReplaySubscription {
    /// The sequence boundary: the last event served from the archive;
    /// everything after comes from the live feed.
    pub fn cutover_seq(&self) -> u64 {
        self.cutover
    }

    /// `true` while events are still being served from the archive.
    pub fn replaying(&self) -> bool {
        self.replay.is_some()
    }

    /// The next archived event, or `None` once the snapshot is
    /// exhausted (the replay is dropped with it).
    fn next_archived(&mut self) -> Result<Option<Arc<Event>>, BackboneError> {
        let Some(replay) = &mut self.replay else {
            return Ok(None);
        };
        let Some((seq, record)) = replay.next_record()? else {
            self.replay = None;
            return Ok(None);
        };
        decode_log_record(&self.stream, &mut self.format_name, seq, record)
            .map(|event| Some(Arc::new(event)))
    }

    /// Next event: archived history until the snapshot is exhausted,
    /// live (seq-deduped) after. `timeout` applies to the live wait;
    /// archive reads don't block.
    ///
    /// # Errors
    ///
    /// Corrupt archive records, disconnection, or timeout (reported as
    /// `Disconnected`, matching [`Subscription::recv_timeout`]).
    pub fn recv_timeout(
        &mut self,
        timeout: std::time::Duration,
    ) -> Result<Arc<Event>, BackboneError> {
        if let Some(event) = self.next_archived()? {
            return Ok(event);
        }
        // A live event already queued is taken without reading the
        // clock; the deadline is fixed only when a wait begins.
        let mut deadline = None;
        loop {
            let event = match self.live.try_recv() {
                Some(event) => event,
                None => {
                    let deadline =
                        *deadline.get_or_insert_with(|| std::time::Instant::now() + timeout);
                    let remaining = deadline.saturating_duration_since(std::time::Instant::now());
                    self.live.recv_timeout(remaining)?
                }
            };
            if event.seq == 0 || event.seq > self.cutover {
                return Ok(event);
            }
            // seq ≤ cutover: already served from the archive — dedup.
        }
    }

    /// The batch form of [`recv_timeout`](Self::recv_timeout) (see
    /// [`Subscription::recv_batch`]): archived records first, without
    /// blocking, as many as `max` allows; once the snapshot is
    /// exhausted, a live batch with the replay duplicates (seq ≤
    /// cut-over) taken out — which may leave nothing of it.
    ///
    /// # Errors
    ///
    /// Corrupt archive records, or disconnection.
    pub(crate) fn recv_batch(
        &mut self,
        out: &mut Vec<Arc<Event>>,
        max: usize,
        timeout: std::time::Duration,
    ) -> Result<(), BackboneError> {
        out.clear();
        while out.len() < max {
            match self.next_archived()? {
                Some(event) => out.push(event),
                None => break,
            }
        }
        if out.is_empty() {
            self.live.recv_batch(out, max, timeout)?;
            out.retain(|event| event.seq == 0 || event.seq > self.cutover);
        }
        Ok(())
    }

    /// Blocking variant of [`recv_timeout`](Self::recv_timeout).
    ///
    /// # Errors
    ///
    /// Corrupt archive records or disconnection.
    pub fn recv(&mut self) -> Result<Arc<Event>, BackboneError> {
        if let Some(event) = self.next_archived()? {
            return Ok(event);
        }
        loop {
            let event = self.live.recv()?;
            if event.seq == 0 || event.seq > self.cutover {
                return Ok(event);
            }
        }
    }

}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.meta.subscribers.fetch_sub(1, Ordering::SeqCst);
        // Best effort eager prune; if the queue is full the worker will
        // prune on its next failed delivery instead.
        let _ = self.shard_tx.try_send(ShardMsg::Unsubscribe {
            stream: Arc::clone(&self.meta.name),
            id: self.id,
            ack: None,
        });
    }
}

/// A pinned publish route: stream metadata plus the shard queue, looked
/// up once. Publishing through a handle skips the per-message registry
/// read that [`Broker::publish`] pays, which matters at rate.
///
/// Handles keep the dispatch fabric alive; drop them (and the broker) to
/// stop the workers.
#[derive(Debug, Clone)]
pub struct PublishHandle {
    meta: Arc<StreamMeta>,
    shard_tx: Sender<ShardMsg>,
}

impl PublishHandle {
    /// Publishes a payload on the pinned stream, returning the current
    /// subscriber count (see [`Broker::publish`] for the counting
    /// semantics).
    ///
    /// # Errors
    ///
    /// [`BackboneError::Disconnected`] after the broker shuts down;
    /// `FormatNameTooLong` (as [`BackboneError::Metadata`]) for a format
    /// name over 65 535 bytes.
    pub fn publish(
        &self,
        format_name: Arc<str>,
        payload: Vec<u8>,
    ) -> Result<usize, BackboneError> {
        enqueue_event(&self.meta, &self.shard_tx, format_name, payload)
    }

    /// The stream this handle publishes to.
    pub fn stream(&self) -> &Arc<str> {
        &self.meta.name
    }

    /// Republishes events that arrived over a federation link,
    /// *preserving their sequence numbers*, so subscribers can dedup
    /// replay against live at any hop (the local stream is normally
    /// non-durable — the origin owns the log): the whole batch enters
    /// the shard queue under one lock and wakes its worker at most once.
    ///
    /// # Errors
    ///
    /// [`BackboneError::Disconnected`] after the broker shuts down.
    pub(crate) fn forward(
        &self,
        events: impl IntoIterator<Item = Arc<Event>>,
    ) -> Result<(), BackboneError> {
        let sent = self
            .shard_tx
            .send_many(events.into_iter().map(ShardMsg::Event))
            .map_err(|_| BackboneError::Disconnected)?;
        self.meta.published.fetch_add(sent as u64, Ordering::Relaxed);
        Ok(())
    }
}

/// The one publish path: assigns the next sequence for durable streams
/// (seq assignment and the queue send form one critical section so
/// queue order equals seq order) and enqueues on the stream's shard.
///
/// A format name longer than a wire header's `u16` length can say is
/// refused here, before it takes a seq: the segment log and a
/// federation hop both frame the name behind that length.
fn enqueue_event(
    meta: &Arc<StreamMeta>,
    shard_tx: &Sender<ShardMsg>,
    format_name: Arc<str>,
    payload: Vec<u8>,
) -> Result<usize, BackboneError> {
    if format_name.len() > MAX_FORMAT_NAME_LEN {
        let len = format_name.len();
        return Err(PbioError::FormatNameTooLong { len, max: MAX_FORMAT_NAME_LEN }.into());
    }
    if let Some(durable) = &meta.durable {
        let mut next = durable.next_seq.lock();
        let seq = *next + 1;
        let event =
            Event { stream: Arc::clone(&meta.name), format_name, payload, seq, hops: 0 };
        shard_tx
            .send(ShardMsg::Event(Arc::new(event)))
            .map_err(|_| BackboneError::Disconnected)?;
        // Commit the seq only on a successful send, so a failed publish
        // leaves no hole in the log's contiguous sequence.
        *next = seq;
    } else {
        let event =
            Event { stream: Arc::clone(&meta.name), format_name, payload, seq: 0, hops: 0 };
        shard_tx
            .send(ShardMsg::Event(Arc::new(event)))
            .map_err(|_| BackboneError::Disconnected)?;
    }
    meta.published.fetch_add(1, Ordering::Relaxed);
    Ok(meta.subscribers.load(Ordering::SeqCst))
}

/// The event backbone broker: named streams with sharded, batched
/// fan-out delivery (see the module docs for the dispatch model).
pub struct Broker {
    shards: Vec<Arc<Shard>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    filters: Arc<FilterCache>,
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker").field("shards", &self.shards.len()).finish_non_exhaustive()
    }
}

impl Default for Broker {
    fn default() -> Self {
        Broker::new()
    }
}

impl Broker {
    /// Creates a broker with one shard per available core (capped at 8).
    pub fn new() -> Self {
        let shards = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        Broker::with_shards(shards)
    }

    /// Creates a broker with an explicit shard count (≥ 1). Streams are
    /// hashed onto shards by name; each shard has its own dispatch
    /// worker and bounded queue.
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        let mut shard_vec = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for i in 0..shards {
            let (tx, rx) = bounded(SHARD_QUEUE_DEPTH);
            shard_vec.push(Arc::new(Shard { meta: RwLock::new(HashMap::new()), tx }));
            let handle = std::thread::Builder::new()
                .name(format!("broker-shard-{i}"))
                .spawn(move || dispatch_loop(&rx))
                .expect("spawning broker shard worker");
            workers.push(handle);
        }
        Broker {
            shards: shard_vec,
            workers: Mutex::new(workers),
            filters: Arc::new(FilterCache::new()),
        }
    }

    /// The number of shards this broker dispatches across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, stream: &str) -> &Arc<Shard> {
        // FNV-1a: allocation-free and plenty for partitioning names.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in stream.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// Registers a stream (idempotent; a later call may add a metadata
    /// locator but will not erase one). Equivalent to
    /// [`create_stream_with`](Self::create_stream_with) with default
    /// capacity/overflow (unbounded, lossless).
    pub fn create_stream(&self, name: impl Into<String>, metadata_locator: Option<String>) {
        self.create_stream_with(
            name,
            StreamConfig { metadata_locator, ..StreamConfig::default() },
        );
    }

    /// Registers a stream with explicit queueing configuration.
    /// Idempotent on the name: a repeat call may add a metadata locator,
    /// but capacity and overflow are fixed by the first registration.
    fn create_stream_with(&self, name: impl Into<String>, config: StreamConfig) {
        self.create_stream_inner(name.into(), config, None)
            .expect("non-durable stream creation is infallible");
    }

    /// Registers a **durable** stream: every published event is appended
    /// (with a contiguous 1-based sequence number and CRC) to a segment
    /// log under `spec.dir` before fan-out, and late subscribers may
    /// [`subscribe_replay`](Self::subscribe_replay) history.
    ///
    /// Reopening an existing log resumes its sequence; the recovered
    /// last seq is returned. Idempotent like
    /// [`create_stream_with`](Self::create_stream_with) — but a stream
    /// first registered non-durable cannot be upgraded.
    ///
    /// # Errors
    ///
    /// Log open/recovery I/O failures; re-registering a non-durable
    /// stream as durable.
    pub fn create_stream_durable(
        &self,
        name: impl Into<String>,
        config: StreamConfig,
        spec: DurableSpec,
    ) -> Result<u64, BackboneError> {
        let name = name.into();
        self.create_stream_inner(name.clone(), config, Some(spec))?;
        let (_, meta) = self.lookup(&name)?;
        match &meta.durable {
            Some(durable) => Ok(*durable.next_seq.lock()),
            None => Err(BackboneError::NotDurable { name }),
        }
    }

    fn create_stream_inner(
        &self,
        name: String,
        config: StreamConfig,
        spec: Option<DurableSpec>,
    ) -> Result<(), BackboneError> {
        let shard = self.shard_for(&name);
        {
            let meta = shard.meta.read();
            if let Some(existing) = meta.get(&name) {
                if config.metadata_locator.is_some() {
                    *existing.metadata_locator.lock() = config.metadata_locator;
                }
                return Ok(());
            }
        }
        // Open the log (possibly slow recovery I/O) outside any lock.
        let durable = match spec {
            None => None,
            Some(spec) => {
                let log = SegmentLog::open(&spec.dir, spec.log)?;
                let last = log.last_seq();
                Some(DurableState {
                    log: Arc::new(Mutex::new(log)),
                    next_seq: Mutex::new(last),
                })
            }
        };
        let name_arc: Arc<str> = name.as_str().into();
        let stream_meta = Arc::new(StreamMeta {
            name: name_arc,
            metadata_locator: Mutex::new(config.metadata_locator),
            subscribers: AtomicUsize::new(0),
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            archive_errors: AtomicU64::new(0),
            // Clamp here rather than panic in subscribe():
            // the channel shim rejects zero-capacity queues.
            capacity: config.capacity.map(|cap| cap.max(1)),
            overflow: config.overflow,
            durable,
            filter_type: Mutex::new(None),
        });
        // Hand the worker the log *before* the stream becomes
        // publishable, so RegisterLog precedes every event of the
        // stream on the shard queue.
        if let Some(durable) = &stream_meta.durable {
            shard
                .tx
                .send(ShardMsg::RegisterLog {
                    meta: Arc::clone(&stream_meta),
                    log: Arc::clone(&durable.log),
                })
                .map_err(|_| BackboneError::Disconnected)?;
        }
        let mut meta = shard.meta.write();
        // A racing create may have won; first registration wins (its
        // RegisterLog is already queued and both logs point at the same
        // recovered state only if specs agree, so keep the incumbent).
        meta.entry(name).or_insert(stream_meta);
        Ok(())
    }

    fn lookup(&self, stream: &str) -> Result<(&Arc<Shard>, Arc<StreamMeta>), BackboneError> {
        let shard = self.shard_for(stream);
        let meta = shard
            .meta
            .read()
            .get(stream)
            .cloned()
            .ok_or_else(|| BackboneError::UnknownStream { name: stream.to_owned() })?;
        Ok((shard, meta))
    }

    /// Subscribes to a stream.
    ///
    /// The subscription is enqueued on the stream's shard behind every
    /// event already published, so a late joiner sees exactly the events
    /// published after this call.
    ///
    /// # Errors
    ///
    /// Unknown streams are an error — subscribers are expected to learn
    /// stream names from [`streams`](Self::streams), as the scenario's
    /// applications do.
    pub fn subscribe(&self, stream: &str) -> Result<Subscription, BackboneError> {
        self.subscribe_inner(stream, None, None)
    }

    /// Subscribes to a stream with a **content predicate**: only events
    /// whose payload satisfies `expr` (e.g. `price > 100 && dest ==
    /// "ATL"`) are delivered. The expression is parsed, resolved against
    /// the stream's registered struct type (see
    /// [`register_stream_type`](Self::register_stream_type)) and
    /// compiled into a flat op program evaluated directly against the
    /// wire image — the broker never decodes filtered events, touches
    /// only the referenced bytes, and allocates nothing per event.
    ///
    /// Subscribers passing equivalent predicates (same format, same
    /// normalized expression) share one compiled program, and shard
    /// fanout evaluates each unique program **once per event** no
    /// matter how many subscribers share it.
    ///
    /// # Errors
    ///
    /// Unknown streams; [`BackboneError::NoFilterType`] when the stream
    /// has no registered struct type; [`BackboneError::Filter`] for
    /// parse/typecheck/compile failures.
    pub fn subscribe_filtered(
        &self,
        stream: &str,
        expr: &str,
    ) -> Result<Subscription, BackboneError> {
        let filter = self.compile_filter(stream, expr)?;
        self.subscribe_inner(stream, None, Some(filter))
    }

    /// Compiles (or fetches from the shared cache) the filter for
    /// `expr` against `stream`'s registered struct type, without
    /// subscribing. Federation uses this to filter server-side before
    /// frames reach the wire.
    pub fn compile_filter(
        &self,
        stream: &str,
        expr: &str,
    ) -> Result<Arc<StreamFilter>, BackboneError> {
        let (_, meta) = self.lookup(stream)?;
        let st = meta
            .filter_type
            .lock()
            .clone()
            .ok_or_else(|| BackboneError::NoFilterType { name: stream.to_owned() })?;
        Ok(self.filters.get_or_compile(&st, expr)?)
    }

    fn subscribe_with_ack(
        &self,
        stream: &str,
        ack: Option<Sender<()>>,
    ) -> Result<Subscription, BackboneError> {
        self.subscribe_inner(stream, ack, None)
    }

    fn subscribe_inner(
        &self,
        stream: &str,
        ack: Option<Sender<()>>,
        filter: Option<Arc<StreamFilter>>,
    ) -> Result<Subscription, BackboneError> {
        static NEXT_SUB_ID: AtomicU64 = AtomicU64::new(0);
        let (shard, meta) = self.lookup(stream)?;
        let (tx, rx) = match meta.capacity {
            Some(cap) => bounded(cap),
            None => unbounded(),
        };
        let id = NEXT_SUB_ID.fetch_add(1, Ordering::Relaxed);
        meta.subscribers.fetch_add(1, Ordering::SeqCst);
        let poison = Arc::new(Mutex::new(None));
        let entry = SubEntry {
            id,
            tx,
            overflow: meta.overflow,
            meta: Arc::clone(&meta),
            filter,
            poison: Arc::clone(&poison),
        };
        if shard.tx.send(ShardMsg::Subscribe { entry, ack }).is_err() {
            meta.subscribers.fetch_sub(1, Ordering::SeqCst);
            return Err(BackboneError::Disconnected);
        }
        Ok(Subscription { receiver: rx, meta, shard_tx: shard.tx.clone(), id, poison })
    }

    /// Registers (or replaces) the clayout struct type of a stream's
    /// messages — the schema that
    /// [`subscribe_filtered`](Self::subscribe_filtered) predicates
    /// resolve field names against. [`crate::CapturePoint`] registers
    /// its format's struct type automatically; call this directly for
    /// streams published by hand.
    ///
    /// Replacing a previously registered type with a *different* one
    /// (type evolution) re-binds live filtered subscribers instead of
    /// orphaning them: each predicate is recompiled against the new
    /// type through the shard's dispatch queue (so the cutover is
    /// exact with respect to in-flight events), and a predicate that no
    /// longer typechecks terminates its subscription with the typed
    /// [`FilterError::TypeChanged`] rather than silently matching
    /// nothing forever.
    ///
    /// # Errors
    ///
    /// Unknown streams.
    pub fn register_stream_type(
        &self,
        stream: &str,
        st: StructType,
    ) -> Result<(), BackboneError> {
        let (shard, meta) = self.lookup(stream)?;
        let st = Arc::new(st);
        let changed = {
            let mut guard = meta.filter_type.lock();
            let changed = guard.as_ref().is_some_and(|old| {
                pbio::format::struct_fingerprint(old) != pbio::format::struct_fingerprint(&st)
            });
            *guard = Some(Arc::clone(&st));
            changed
        };
        if changed {
            // A send failure means the shard worker is gone (broker
            // shutting down); nothing left to re-bind.
            let _ = shard.tx.send(ShardMsg::Retype {
                stream: Arc::clone(&meta.name),
                st,
                cache: Arc::clone(&self.filters),
            });
        }
        Ok(())
    }

    /// The registered struct type of a stream, if any.
    pub fn stream_type(&self, stream: &str) -> Option<Arc<StructType>> {
        let shard = self.shard_for(stream);
        let guard = shard.meta.read();
        guard.get(stream).and_then(|m| m.filter_type.lock().clone())
    }

    /// Counter snapshot of the broker's shared filter cache.
    pub fn filter_cache_stats(&self) -> pbio::MemoStats {
        self.filters.stats()
    }

    /// Subscribes to a durable stream with **catch-up replay**: events
    /// with seq ≥ `from_seq` stream from the segment log first, then
    /// delivery cuts over to the live feed at the exact sequence
    /// boundary — no gap, no duplicate (live events at or below the
    /// boundary are deduped by seq).
    ///
    /// The gap-free guarantee rests on two orderings: the shard worker
    /// appends a durable event to the log *before* fanning it out, and
    /// this call waits for the worker to acknowledge the subscription
    /// *before* snapshotting the log. Every event the live feed will
    /// not deliver is therefore already in the snapshot.
    ///
    /// # Errors
    ///
    /// Unknown or non-durable streams; log I/O failures.
    pub fn subscribe_replay(
        &self,
        stream: &str,
        from_seq: u64,
    ) -> Result<ReplaySubscription, BackboneError> {
        let (_, meta) = self.lookup(stream)?;
        if meta.durable.is_none() {
            return Err(BackboneError::NotDurable { name: stream.to_owned() });
        }
        let (ack_tx, ack_rx) = bounded(1);
        let live = self.subscribe_with_ack(stream, Some(ack_tx))?;
        ack_rx.recv().map_err(|_| BackboneError::Disconnected)?;
        let durable = meta.durable.as_ref().expect("checked above");
        let replay = durable.log.lock().replay_from(from_seq)?;
        let cutover = replay.end_seq();
        Ok(ReplaySubscription {
            replay: Some(replay),
            cutover,
            live,
            stream: Arc::clone(&meta.name),
            format_name: Arc::from(""),
        })
    }

    /// Publishes an event to its stream, returning the current
    /// subscriber count.
    ///
    /// Delivery is asynchronous: the event is enqueued (in one [`Arc`])
    /// on the stream's shard and the shard's worker fans it out, so the
    /// returned count is the number of live subscriptions at publish
    /// time, not a delivery receipt. Publishers block only when their
    /// shard's dispatch queue is full (a slow lossless subscriber
    /// backpressures just that shard).
    ///
    /// # Errors
    ///
    /// Unknown streams; `FormatNameTooLong` (as
    /// [`BackboneError::Metadata`]) for a format name over 65 535 bytes,
    /// which is refused before it takes a sequence number.
    pub fn publish(&self, event: Event) -> Result<usize, BackboneError> {
        let (shard, meta) = self.lookup(&event.stream)?;
        enqueue_event(&meta, &shard.tx, event.format_name, event.payload)
    }

    /// Pins a publish route for a stream: one registry lookup now, none
    /// per message after.
    ///
    /// # Errors
    ///
    /// Unknown streams.
    pub fn publish_handle(&self, stream: &str) -> Result<PublishHandle, BackboneError> {
        let (shard, meta) = self.lookup(stream)?;
        Ok(PublishHandle { meta, shard_tx: shard.tx.clone() })
    }

    /// The metadata locator registered for a stream.
    pub fn metadata_locator(&self, stream: &str) -> Option<String> {
        let shard = self.shard_for(stream);
        let guard = shard.meta.read();
        guard.get(stream).and_then(|m| m.metadata_locator.lock().clone())
    }

    /// Information about every stream, sorted by name.
    pub fn streams(&self) -> Vec<StreamInfo> {
        let mut infos: Vec<StreamInfo> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .meta
                    .read()
                    .values()
                    .map(|meta| StreamInfo {
                        name: meta.name.to_string(),
                        metadata_locator: meta.metadata_locator.lock().clone(),
                        subscribers: meta.subscribers.load(Ordering::SeqCst),
                        published: meta.published.load(Ordering::Relaxed),
                        dropped: meta.dropped.load(Ordering::Relaxed),
                        durable_seq: meta
                            .durable
                            .as_ref()
                            .map_or(0, |d| *d.next_seq.lock()),
                        archive_errors: meta.archive_errors.load(Ordering::Relaxed),
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        // Shutdown messages queue behind in-flight events, so pending
        // publishes still deliver; subscribers then observe disconnect.
        for shard in &self.shards {
            let _ = shard.tx.send(ShardMsg::Shutdown);
        }
        for worker in self.workers.lock().drain(..) {
            let _ = worker.join();
        }
    }
}

/// Subscriber lists for one shard, owned exclusively by its worker.
type ShardStreams = HashMap<Arc<str>, Vec<SubEntry>>;

/// A durable stream's log as the shard worker sees it.
struct DurableSink {
    log: Arc<Mutex<SegmentLog>>,
    meta: Arc<StreamMeta>,
}

/// Durable logs for one shard's streams.
type ShardSinks = HashMap<Arc<str>, DurableSink>;

/// Hands one event to the segment log as the pieces of its record:
/// `u16 LE format-name len ∥ format name ∥ payload`. The stream name is
/// implicit (one log per stream) and the seq lives in the record frame.
fn put_log_record(event: &Event, put: &mut dyn FnMut(&[u8])) {
    let name = event.format_name.as_bytes();
    debug_assert!(name.len() <= usize::from(u16::MAX));
    put(&(name.len() as u16).to_le_bytes());
    put(name);
    put(&event.payload);
}

/// Inverse of [`put_log_record`]: reconstructs the event from a
/// replayed `(seq, record)` pair the log lends, copying exactly the
/// payload. `last_name` is the previous record's format name, reused
/// when this record carries the same bytes.
fn decode_log_record(
    stream: &Arc<str>,
    last_name: &mut Arc<str>,
    seq: u64,
    record: &[u8],
) -> Result<Event, BackboneError> {
    let bad = |what: &str| BackboneError::BadFrame {
        detail: format!("archived record seq {seq} {what}"),
    };
    let (name_len, rest) =
        record.split_first_chunk::<2>().ok_or_else(|| bad("shorter than its header"))?;
    let (name, payload) = rest
        .split_at_checked(usize::from(u16::from_le_bytes(*name_len)))
        .ok_or_else(|| bad("truncates its format name"))?;
    if last_name.as_bytes() != name {
        let name = std::str::from_utf8(name).map_err(|_| bad("has a non-UTF-8 format name"))?;
        *last_name = name.into();
    }
    Ok(Event::with_seq(Arc::clone(stream), Arc::clone(last_name), payload.to_vec(), seq))
}

/// The dispatch worker: drains the shard queue in batches, applies
/// control messages in order, and fans event runs out to subscribers
/// with one subscriber-lock acquisition per (stream, batch) rather than
/// per event. Steady-state dispatch performs no allocation: the batch
/// and ordering buffers are reused across iterations.
fn dispatch_loop(rx: &Receiver<ShardMsg>) {
    let mut streams: ShardStreams = HashMap::new();
    let mut sinks: ShardSinks = HashMap::new();
    let mut batch: Vec<ShardMsg> = Vec::with_capacity(DISPATCH_BATCH);
    let mut buckets: Vec<Bucket> = Vec::new();
    let mut preds: Vec<PredBucket> = Vec::new();
    loop {
        batch.clear();
        // Spin-then-park: poll the queue through a bounded number of
        // yields before blocking, so a steadily publishing producer
        // never pays a wake syscall to hand us work.
        let mut spins = 0;
        while rx.try_recv_batch(&mut batch, DISPATCH_BATCH) == 0 {
            spins += 1;
            if spins > IDLE_SPINS {
                if rx.recv_batch(&mut batch, DISPATCH_BATCH).is_err() {
                    sync_sinks(&sinks);
                    return; // every sender (broker + handles + subs) gone
                }
                break;
            }
            std::thread::yield_now();
        }
        // Process the batch as segments: maximal runs of events are
        // delivered grouped; control messages are applied at their exact
        // position so subscribe/unsubscribe ordering stays strict.
        let mut i = 0;
        while i < batch.len() {
            match &batch[i] {
                ShardMsg::Event(_) => {
                    let start = i;
                    while i < batch.len() && matches!(batch[i], ShardMsg::Event(_)) {
                        i += 1;
                    }
                    deliver_events(
                        &mut streams,
                        &batch[start..i],
                        &mut buckets,
                        &mut preds,
                        &sinks,
                    );
                }
                ShardMsg::Subscribe { entry, ack } => {
                    let entry = entry.clone();
                    streams.entry(Arc::clone(&entry.meta.name)).or_default().push(entry);
                    // The ack certifies: every event dispatched before
                    // this subscription has already been appended to its
                    // stream's log (appends happen before fan-out, in
                    // queue order). subscribe_replay snapshots the log
                    // only after receiving it.
                    if let Some(ack) = ack {
                        let _ = ack.send(());
                    }
                    i += 1;
                }
                ShardMsg::Unsubscribe { stream, id, ack } => {
                    if let Some(subs) = streams.get_mut(stream.as_ref()) {
                        subs.retain(|entry| entry.id != *id);
                    }
                    if let Some(ack) = ack {
                        let _ = ack.send(());
                    }
                    i += 1;
                }
                ShardMsg::RegisterLog { meta, log } => {
                    sinks.insert(
                        Arc::clone(&meta.name),
                        DurableSink { log: Arc::clone(log), meta: Arc::clone(meta) },
                    );
                    i += 1;
                }
                ShardMsg::Retype { stream, st, cache } => {
                    retype_stream(&mut streams, stream, st, cache);
                    i += 1;
                }
                ShardMsg::Shutdown => {
                    sync_sinks(&sinks);
                    return;
                }
            }
        }
    }
}

/// Re-binds a stream's live filtered subscribers after a type swap:
/// each predicate is recompiled against the new struct type through the
/// shared cache (equivalent predicates still dedup to one program). An
/// expression that no longer typechecks poisons its subscriber with
/// [`FilterError::TypeChanged`] and drops the entry — closing the
/// channel so the subscriber observes the typed error instead of a
/// filter that can never match again. Unfiltered subscribers and
/// filters already bound to the new type are untouched.
fn retype_stream(
    streams: &mut ShardStreams,
    stream: &Arc<str>,
    st: &Arc<StructType>,
    cache: &Arc<FilterCache>,
) {
    let Some(subs) = streams.get_mut(stream.as_ref()) else {
        return;
    };
    let fingerprint = pbio::format::struct_fingerprint(st);
    subs.retain_mut(|entry| {
        let Some(filter) = &entry.filter else {
            return true;
        };
        if filter.fingerprint() == fingerprint {
            return true;
        }
        match cache.get_or_compile(st, filter.normalized()) {
            Ok(rebound) => {
                entry.filter = Some(rebound);
                true
            }
            Err(e) => {
                *entry.poison.lock() = Some(FilterError::TypeChanged {
                    expr: filter.normalized().to_owned(),
                    detail: e.to_string(),
                });
                false
            }
        }
    });
}

/// Best-effort fsync of every durable log this shard owns, run at
/// shutdown so a clean broker drop leaves nothing in page cache only.
fn sync_sinks(sinks: &ShardSinks) {
    for sink in sinks.values() {
        if sink.log.lock().sync().is_err() {
            sink.meta.archive_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One per-stream group of batch indices, reused across batches so
/// steady-state grouping allocates nothing.
struct Bucket {
    name: Option<Arc<str>>,
    idxs: Vec<u32>,
}

/// One unique predicate's match set within a (stream, batch) group,
/// reused across batches. Fanout groups filtered subscribers by shared
/// compiled program (`Arc` identity — the [`FilterCache`] dedups
/// equivalent predicates into one `Arc`), evaluates each program once
/// per event, and delivers the matching subset to every subscriber of
/// that program — per-event evaluation cost is per *unique program*,
/// not per subscriber.
struct PredBucket {
    filter: Option<Arc<StreamFilter>>,
    matched: Vec<u32>,
}

/// Fans a run of events out to their subscribers, grouped by stream:
/// events for the same stream are pushed to each subscriber under one
/// lock acquisition. Grouping is first-seen bucketing — shards host few
/// streams, so a linear scan with an `Arc` pointer-equality fast path
/// (publish handles reuse the stream's canonical `Arc<str>`) beats
/// sorting the batch by stream name. Bucket order is first-seen and
/// indices within a bucket stay ascending, so per-stream order is
/// preserved exactly.
fn deliver_events(
    streams: &mut ShardStreams,
    run: &[ShardMsg],
    buckets: &mut Vec<Bucket>,
    preds: &mut Vec<PredBucket>,
    sinks: &ShardSinks,
) {
    fn event_of(msg: &ShardMsg) -> &Arc<Event> {
        match msg {
            ShardMsg::Event(event) => event,
            _ => unreachable!("deliver_events is only called on event runs"),
        }
    }

    let mut active = 0usize;
    for (k, msg) in run.iter().enumerate() {
        let stream = &event_of(msg).stream;
        let slot = buckets[..active]
            .iter()
            .position(|bucket| {
                let name = bucket.name.as_ref().expect("active bucket has a name");
                Arc::ptr_eq(name, stream) || **name == **stream
            })
            .unwrap_or_else(|| {
                if active == buckets.len() {
                    buckets.push(Bucket { name: None, idxs: Vec::new() });
                }
                buckets[active].name = Some(Arc::clone(stream));
                active += 1;
                active - 1
            });
        buckets[slot].idxs.push(k as u32);
    }

    for bucket in buckets.iter_mut().take(active) {
        let stream = bucket.name.take().expect("active bucket has a name");
        let group: &[u32] = &bucket.idxs;
        // Durable streams: append (one lock and one write for the whole
        // group) BEFORE fan-out — the replay/cutover gap-free invariant
        // depends on it, and so does the fsync policy's promise.
        // Events forwarded from another broker (seq 0 is impossible
        // here: forwarded durable events keep their origin seq, local
        // ones were assigned at publish) append under the origin's
        // numbering, so a contiguity violation means lost link traffic
        // and is surfaced as an archive error, not a panic.
        if let Some(sink) = sinks.get(&stream) {
            let records = group.iter().filter_map(|&k| {
                let event: &Event = event_of(&run[k as usize]);
                let pieces = move |put: &mut dyn FnMut(&[u8])| put_log_record(event, put);
                (event.seq != 0).then_some((event.seq, pieces))
            });
            if let Err(e) = sink.log.lock().append_group(records) {
                sink.meta.archive_errors.fetch_add(e.lost as u64, Ordering::Relaxed);
            }
        }
        if let Some(subs) = streams.get_mut(&stream) {
            // Predicate-indexed fanout: find the unique compiled
            // programs among this stream's subscribers (Arc identity —
            // the FilterCache dedups equivalent predicates) and
            // evaluate each program once per event in the group, in one
            // `select` over the whole group. The
            // delivery loop below then reuses the match set for every
            // subscriber sharing the program.
            let mut pactive = 0usize;
            for entry in subs.iter() {
                let Some(filter) = &entry.filter else { continue };
                let known = preds[..pactive]
                    .iter()
                    .any(|pb| pb.filter.as_ref().is_some_and(|f| Arc::ptr_eq(f, filter)));
                if !known {
                    if pactive == preds.len() {
                        preds.push(PredBucket { filter: None, matched: Vec::new() });
                    }
                    preds[pactive].filter = Some(Arc::clone(filter));
                    pactive += 1;
                }
            }
            for pb in preds[..pactive].iter_mut() {
                let filter = pb.filter.as_ref().expect("active pred bucket has a filter");
                pb.matched.clear();
                let messages = group
                    .iter()
                    .map(|&k| (k, event_of(&run[k as usize]).payload.as_slice()));
                filter.select(messages, &mut pb.matched);
            }
            let mut pruned = false;
            for entry in subs.iter() {
                let idxs: &[u32] = match &entry.filter {
                    None => group,
                    Some(filter) => {
                        &preds[..pactive]
                            .iter()
                            .find(|pb| {
                                pb.filter.as_ref().is_some_and(|f| Arc::ptr_eq(f, filter))
                            })
                            .expect("every filter was bucketed above")
                            .matched
                    }
                };
                if idxs.is_empty() {
                    // Nothing matched this subscriber's predicate: no
                    // lock taken, no queue touched.
                    continue;
                }
                let events =
                    idxs.iter().map(|&k| Arc::clone(event_of(&run[k as usize])));
                let result = match entry.overflow {
                    Overflow::Block => entry.tx.send_many(events).map(|_| 0),
                    Overflow::DropNewest => entry
                        .tx
                        .try_send_many(events)
                        .map(|accepted| idxs.len() - accepted),
                    Overflow::DropOldest => entry.tx.force_send_many(events),
                };
                match result {
                    Ok(0) => {}
                    Ok(dropped) => {
                        entry
                            .meta
                            .dropped
                            .fetch_add(dropped as u64, Ordering::Relaxed);
                    }
                    // Receiver gone: the subscription's Drop already
                    // decremented the count; just prune the entry.
                    Err(_) => pruned = true,
                }
            }
            for pb in preds[..pactive].iter_mut() {
                pb.filter = None;
                pb.matched.clear();
            }
            if pruned {
                subs.retain(|entry| {
                    // A closed receiver rejects even a non-blocking probe.
                    !matches!(
                        entry.tx.try_send_many(std::iter::empty()),
                        Err(crossbeam::channel::SendError(_))
                    )
                });
            }
        }
        bucket.idxs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn event(stream: &str, n: u8) -> Event {
        Event::new(stream, "F", vec![n])
    }

    #[test]
    fn publish_fans_out_to_all_subscribers() {
        let broker = Broker::new();
        broker.create_stream("asd", None);
        let a = broker.subscribe("asd").unwrap();
        let b = broker.subscribe("asd").unwrap();
        let delivered = broker.publish(event("asd", 1)).unwrap();
        assert_eq!(delivered, 2);
        assert_eq!(a.recv().unwrap().payload, vec![1]);
        assert_eq!(b.recv().unwrap().payload, vec![1]);
    }

    #[test]
    fn subscribers_only_see_their_stream() {
        let broker = Broker::new();
        broker.create_stream("asd", None);
        broker.create_stream("wx", None);
        let wx = broker.subscribe("wx").unwrap();
        broker.publish(event("asd", 1)).unwrap();
        broker.publish(event("wx", 2)).unwrap();
        assert_eq!(wx.recv_timeout(Duration::from_millis(500)).unwrap().payload, vec![2]);
        assert!(wx.try_recv().is_none());
    }

    #[test]
    fn unknown_stream_operations_fail() {
        let broker = Broker::new();
        assert!(matches!(
            broker.subscribe("ghost"),
            Err(BackboneError::UnknownStream { .. })
        ));
        assert!(matches!(
            broker.publish(event("ghost", 0)),
            Err(BackboneError::UnknownStream { .. })
        ));
        assert!(matches!(
            broker.publish_handle("ghost"),
            Err(BackboneError::UnknownStream { .. })
        ));
    }

    #[test]
    fn dropped_subscriptions_leave_the_count() {
        let broker = Broker::new();
        broker.create_stream("asd", None);
        let a = broker.subscribe("asd").unwrap();
        {
            let _b = broker.subscribe("asd").unwrap();
        }
        // _b is gone; the count reflects it immediately.
        let delivered = broker.publish(event("asd", 1)).unwrap();
        assert_eq!(delivered, 1);
        assert_eq!(a.recv().unwrap().payload, vec![1]);
    }

    #[test]
    fn metadata_locator_is_kept_and_not_erased() {
        let broker = Broker::new();
        broker.create_stream("asd", Some("http://meta/asd.xsd".to_owned()));
        broker.create_stream("asd", None); // late idempotent create
        assert_eq!(broker.metadata_locator("asd").as_deref(), Some("http://meta/asd.xsd"));
    }

    #[test]
    fn stream_info_reports_counts() {
        let broker = Broker::new();
        broker.create_stream("b", None);
        broker.create_stream("a", None);
        let sub = broker.subscribe("a").unwrap();
        broker.publish(event("a", 1)).unwrap();
        sub.recv().unwrap();
        let infos = broker.streams();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].name, "a");
        assert_eq!(infos[0].subscribers, 1);
        assert_eq!(infos[0].published, 1);
        assert_eq!(infos[1].published, 0);
    }

    #[test]
    fn late_joining_subscriber_misses_earlier_events() {
        // The handheld-device scenario: joins late, sees only new data.
        // The subscribe queues behind the first publish on the shard, so
        // this is exact, not racy.
        let broker = Broker::new();
        broker.create_stream("asd", None);
        broker.publish(event("asd", 1)).unwrap();
        let late = broker.subscribe("asd").unwrap();
        broker.publish(event("asd", 2)).unwrap();
        assert_eq!(late.recv().unwrap().payload, vec![2]);
        assert!(late.try_recv().is_none());
    }

    #[test]
    fn concurrent_publishers_and_subscribers() {
        let broker = std::sync::Arc::new(Broker::new());
        broker.create_stream("asd", None);
        let sub = broker.subscribe("asd").unwrap();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let broker = std::sync::Arc::clone(&broker);
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        broker.publish(event("asd", i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = 0;
        while sub.recv_timeout(Duration::from_secs(2)).is_ok() {
            seen += 1;
            if seen == 100 {
                break;
            }
        }
        assert_eq!(seen, 100);
        assert!(sub.try_recv().is_none());
    }

    #[test]
    fn publish_handle_skips_the_registry() {
        let broker = Broker::new();
        broker.create_stream("asd", None);
        let handle = broker.publish_handle("asd").unwrap();
        let sub = broker.subscribe("asd").unwrap();
        assert_eq!(handle.publish("F".into(), vec![7]).unwrap(), 1);
        assert_eq!(sub.recv().unwrap().payload, vec![7]);
        assert_eq!(handle.stream().as_ref(), "asd");
    }

    #[test]
    fn unsubscribe_is_synchronous() {
        let broker = Broker::new();
        broker.create_stream("asd", None);
        let keep = broker.subscribe("asd").unwrap();
        let gone = broker.subscribe("asd").unwrap();
        gone.unsubscribe();
        let delivered = broker.publish(event("asd", 1)).unwrap();
        assert_eq!(delivered, 1);
        assert_eq!(keep.recv().unwrap().payload, vec![1]);
    }

    #[test]
    fn unsubscribe_with_full_blocking_queue_does_not_deadlock() {
        // The shard worker parks in send_many on the subscriber's full
        // queue; unsubscribe must make room while waiting for the ack or
        // the whole shard wedges.
        let broker = Broker::new();
        broker.create_stream_with(
            "full",
            StreamConfig { capacity: Some(1), overflow: Overflow::Block, ..Default::default() },
        );
        let sub = broker.subscribe("full").unwrap();
        for n in 0..4 {
            broker.publish(event("full", n)).unwrap();
        }
        // Let the worker fill the queue and block.
        std::thread::sleep(Duration::from_millis(50));
        let (done_tx, done_rx) = bounded(1);
        std::thread::spawn(move || {
            let rest = sub.unsubscribe();
            let mut got = Vec::new();
            while let Ok(event) = rest.recv() {
                got.push(event.payload[0]);
            }
            let _ = done_tx.send(got);
        });
        let got = done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("unsubscribe deadlocked on a full Block-policy queue");
        // The backlog survives deregistration, in order.
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_capacity_is_clamped_not_a_panic() {
        let broker = Broker::new();
        broker.create_stream_with(
            "tiny",
            StreamConfig { capacity: Some(0), overflow: Overflow::DropOldest, ..Default::default() },
        );
        let sub = broker.subscribe("tiny").unwrap(); // must not panic
        broker.publish(event("tiny", 7)).unwrap();
        assert_eq!(sub.recv_timeout(Duration::from_secs(2)).unwrap().payload, vec![7]);
    }

    #[test]
    fn drop_oldest_keeps_the_freshest_events() {
        let broker = Broker::new();
        broker.create_stream_with(
            "live",
            StreamConfig { capacity: Some(2), overflow: Overflow::DropOldest, ..Default::default() },
        );
        let sub = broker.subscribe("live").unwrap();
        for n in 0..5 {
            broker.publish(event("live", n)).unwrap();
        }
        // Wait for dispatch to settle: publishes are async.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while broker.streams()[0].dropped < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(sub.recv().unwrap().payload, vec![3]);
        assert_eq!(sub.recv().unwrap().payload, vec![4]);
        assert_eq!(broker.streams()[0].dropped, 3);
    }

    #[test]
    fn drop_newest_keeps_the_oldest_events() {
        let broker = Broker::new();
        broker.create_stream_with(
            "audit",
            StreamConfig { capacity: Some(2), overflow: Overflow::DropNewest, ..Default::default() },
        );
        let sub = broker.subscribe("audit").unwrap();
        for n in 0..5 {
            broker.publish(event("audit", n)).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while broker.streams()[0].dropped < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(sub.recv().unwrap().payload, vec![0]);
        assert_eq!(sub.recv().unwrap().payload, vec![1]);
        assert_eq!(broker.streams()[0].dropped, 3);
    }

    #[test]
    fn block_policy_backpressures_and_loses_nothing() {
        let broker = Arc::new(Broker::new());
        broker.create_stream_with(
            "lossless",
            StreamConfig { capacity: Some(4), overflow: Overflow::Block, ..Default::default() },
        );
        let sub = broker.subscribe("lossless").unwrap();
        let publisher = {
            let broker = Arc::clone(&broker);
            std::thread::spawn(move || {
                for n in 0..200u8 {
                    broker.publish(event("lossless", n)).unwrap();
                }
            })
        };
        for n in 0..200u8 {
            assert_eq!(
                sub.recv_timeout(Duration::from_secs(5)).unwrap().payload,
                vec![n]
            );
        }
        publisher.join().unwrap();
    }

    #[test]
    fn broker_drop_disconnects_subscribers() {
        let broker = Broker::new();
        broker.create_stream("asd", None);
        let sub = broker.subscribe("asd").unwrap();
        broker.publish(event("asd", 1)).unwrap();
        drop(broker);
        // The queued event still arrives, then the disconnect.
        assert_eq!(sub.recv().unwrap().payload, vec![1]);
        assert!(matches!(sub.recv(), Err(BackboneError::Disconnected)));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "x2w-broker-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_streams_assign_contiguous_seqs() {
        let dir = temp_dir("seqs");
        let broker = Broker::new();
        let recovered = broker
            .create_stream_durable("ops", StreamConfig::default(), DurableSpec::new(&dir))
            .unwrap();
        assert_eq!(recovered, 0);
        let sub = broker.subscribe("ops").unwrap();
        for n in 0..5u8 {
            broker.publish(event("ops", n)).unwrap();
        }
        for expect in 1..=5u64 {
            assert_eq!(sub.recv_timeout(Duration::from_secs(5)).unwrap().seq, expect);
        }
        assert_eq!(broker.streams()[0].durable_seq, 5);
        assert_eq!(broker.streams()[0].archive_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn format_names_a_u16_cannot_frame_are_refused_before_taking_a_seq() {
        // The log record and the federation frame both carry the format
        // name behind a u16 length: one byte more must be refused at
        // publish, not truncated on the shard worker.
        let dir = temp_dir("long-name");
        let broker = Broker::new();
        broker
            .create_stream_durable("ops", StreamConfig::default(), DurableSpec::new(&dir))
            .unwrap();
        let too_long: Arc<str> = "N".repeat(MAX_FORMAT_NAME_LEN + 1).into();
        let refused = broker.publish(Event::new("ops", Arc::clone(&too_long), b"payload".to_vec()));
        assert!(
            matches!(
                refused,
                Err(BackboneError::Metadata(xml2wire::X2wError::Bcm(
                    PbioError::FormatNameTooLong { len: 65_536, max: 65_535 }
                )))
            ),
            "{refused:?}"
        );
        let handle = broker.publish_handle("ops").unwrap();
        assert!(handle.publish(too_long, b"payload".to_vec()).is_err());
        let info = &broker.streams()[0];
        assert_eq!((info.published, info.durable_seq), (0, 0));

        let longest = "N".repeat(MAX_FORMAT_NAME_LEN);
        broker.publish(Event::new("ops", longest.as_str(), b"payload".to_vec())).unwrap();
        let mut replay = broker.subscribe_replay("ops", 1).unwrap();
        let event = replay.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(event.seq, 1);
        assert_eq!(&*event.format_name, longest);
        assert_eq!(event.payload, b"payload");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_serves_history_then_cuts_over_gap_free() {
        let dir = temp_dir("cutover");
        let broker = Broker::new();
        broker
            .create_stream_durable("ops", StreamConfig::default(), DurableSpec::new(&dir))
            .unwrap();
        for n in 0..10u8 {
            broker.publish(event("ops", n)).unwrap();
        }
        let mut replay = broker.subscribe_replay("ops", 1).unwrap();
        // Live traffic keeps flowing while history is consumed.
        for n in 10..15u8 {
            broker.publish(event("ops", n)).unwrap();
        }
        let mut seqs = Vec::new();
        let mut payloads = Vec::new();
        for _ in 0..15 {
            let event = replay.recv_timeout(Duration::from_secs(5)).unwrap();
            seqs.push(event.seq);
            payloads.push(event.payload[0]);
        }
        // Every event exactly once, in order — no gap at the boundary,
        // no duplicate from the live feed re-delivering replayed seqs.
        assert_eq!(seqs, (1..=15).collect::<Vec<u64>>());
        assert_eq!(payloads, (0..15).collect::<Vec<u8>>());
        assert!(replay.cutover_seq() >= 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replays_beside_group_appends_end_at_their_certified_bytes() {
        // A replay reads its segment in large slices while the shard
        // worker writes whole groups into it, so a slice can end
        // anywhere in a group whose write has not returned. Every
        // replay must still yield exactly 1..=cutover and then follow
        // the live feed — which holds because its snapshot is certified
        // in bytes, not because a write is atomic. A fresh stream every
        // few replays keeps the history that each replay re-reads from
        // seq 1 short while the appends never stop.
        const STREAMS: usize = 25;
        const REPLAYS_EACH: usize = 8;
        let body = |seq: u64| [&seq.to_le_bytes()[..], &[seq as u8; 600]].concat();
        let dir = temp_dir("beside");
        let broker = Arc::new(Broker::new());
        let log = SegLogConfig {
            segment_bytes: 32 * 1024,
            fsync: xml2wire::FsyncPolicy::Never,
            ..SegLogConfig::default()
        };
        for s in 0..STREAMS {
            let name = format!("ops-{s}");
            let spec = DurableSpec { dir: dir.join(&name), log };
            broker.create_stream_durable(&name, StreamConfig::default(), spec).unwrap();
            let stop = Arc::new(AtomicU64::new(0));
            let publisher = {
                let (broker, stop, name) = (Arc::clone(&broker), Arc::clone(&stop), name.clone());
                std::thread::spawn(move || {
                    let handle = broker.publish_handle(&name).unwrap();
                    // Its own subscriber clocks it: at most 32 events in
                    // the shard queue, so the worker always has a group
                    // to append and a subscribe never waits long.
                    let echo = broker.subscribe(&name).unwrap();
                    let format: Arc<str> = Arc::from("F");
                    for seq in 1.. {
                        if stop.load(Ordering::SeqCst) != 0 {
                            break;
                        }
                        handle.publish(Arc::clone(&format), body(seq)).unwrap();
                        if seq > 32 {
                            echo.recv_timeout(Duration::from_secs(5)).unwrap();
                        }
                        if seq > 1000 {
                            // Enough history; just keep the feed alive.
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                })
            };
            for round in 0..REPLAYS_EACH {
                let mut replay = broker.subscribe_replay(&name, 1).unwrap();
                let cutover = replay.cutover_seq();
                for seq in 1..=cutover {
                    let event = replay.recv_timeout(Duration::from_secs(5)).unwrap_or_else(|e| {
                        panic!("{name} replay {round} at seq {seq} of {cutover}: {e}")
                    });
                    assert_eq!((event.seq, &event.payload), (seq, &body(seq)), "{name} replay {round}");
                }
                // What is appended from here on arrives through the live
                // feed, gap-free.
                for seq in cutover + 1..=cutover + 3 {
                    let event = replay.recv_timeout(Duration::from_secs(5)).unwrap();
                    assert_eq!(event.seq, seq, "{name} replay {round} after cut-over at {cutover}");
                }
            }
            stop.store(1, Ordering::SeqCst);
            publisher.join().unwrap();
        }
        assert!(broker.streams().iter().all(|stream| stream.archive_errors == 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_from_mid_history_skips_earlier_seqs() {
        let dir = temp_dir("midway");
        let broker = Broker::new();
        broker
            .create_stream_durable("ops", StreamConfig::default(), DurableSpec::new(&dir))
            .unwrap();
        for n in 0..8u8 {
            broker.publish(event("ops", n)).unwrap();
        }
        let mut replay = broker.subscribe_replay("ops", 5).unwrap();
        let mut seqs = Vec::new();
        for _ in 5..=8 {
            seqs.push(replay.recv_timeout(Duration::from_secs(5)).unwrap().seq);
        }
        assert_eq!(seqs, vec![5, 6, 7, 8]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_a_durable_stream_resumes_its_sequence() {
        let dir = temp_dir("resume");
        {
            let broker = Broker::new();
            broker
                .create_stream_durable("ops", StreamConfig::default(), DurableSpec::new(&dir))
                .unwrap();
            for n in 0..4u8 {
                broker.publish(event("ops", n)).unwrap();
            }
            // Broker drop fsyncs and joins the workers.
        }
        let broker = Broker::new();
        let recovered = broker
            .create_stream_durable("ops", StreamConfig::default(), DurableSpec::new(&dir))
            .unwrap();
        assert_eq!(recovered, 4);
        broker.publish(event("ops", 4)).unwrap();
        let mut replay = broker.subscribe_replay("ops", 1).unwrap();
        let mut seqs = Vec::new();
        for _ in 0..5 {
            seqs.push(replay.recv_timeout(Duration::from_secs(5)).unwrap().seq);
        }
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_on_a_non_durable_stream_errors() {
        let broker = Broker::new();
        broker.create_stream("plain", None);
        assert!(matches!(
            broker.subscribe_replay("plain", 1),
            Err(BackboneError::NotDurable { .. })
        ));
        // And a non-durable stream cannot be silently upgraded.
        assert!(matches!(
            broker.create_stream_durable(
                "plain",
                StreamConfig::default(),
                DurableSpec::new(temp_dir("upgrade")),
            ),
            Err(BackboneError::NotDurable { .. })
        ));
    }

    #[test]
    fn forwarded_events_keep_their_origin_seq() {
        let broker = Broker::new();
        broker.create_stream("mirror", None);
        let sub = broker.subscribe("mirror").unwrap();
        let event = Event::with_seq("mirror", "F", vec![9], 42);
        broker.publish_handle("mirror").unwrap().forward([Arc::new(event)]).unwrap();
        let event = sub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(event.seq, 42);
        assert_eq!(event.payload, vec![9]);
    }

    #[test]
    fn sharding_spreads_streams() {
        let broker = Broker::with_shards(4);
        assert_eq!(broker.shard_count(), 4);
        for i in 0..32 {
            broker.create_stream(format!("s{i}"), None);
        }
        let subs: Vec<_> =
            (0..32).map(|i| broker.subscribe(&format!("s{i}")).unwrap()).collect();
        for i in 0..32u8 {
            broker.publish(event(&format!("s{i}"), i)).unwrap();
        }
        for (i, sub) in subs.iter().enumerate() {
            assert_eq!(sub.recv().unwrap().payload, vec![i as u8]);
        }
    }

    fn tick_type() -> clayout::StructType {
        clayout::StructType::new(
            "Tick",
            vec![
                clayout::StructField::new("price", clayout::CType::Prim(clayout::Primitive::Long)),
                clayout::StructField::new("dest", clayout::CType::String),
            ],
        )
    }

    fn tick_message(price: i64, dest: &str) -> Vec<u8> {
        let mut record = clayout::Record::new();
        record.set("price", clayout::Value::Int(price));
        record.set("dest", clayout::Value::String(dest.to_owned()));
        let format = pbio::format::Format::new(
            pbio::format::FormatId(7),
            tick_type(),
            clayout::Architecture::host(),
        )
        .unwrap();
        pbio::ndr::encode(&record, &format).unwrap()
    }

    #[test]
    fn filtered_subscription_delivers_only_matching_events() {
        let broker = Broker::new();
        broker.create_stream("ticks", None);
        broker.register_stream_type("ticks", tick_type()).unwrap();
        let all = broker.subscribe("ticks").unwrap();
        let atl = broker
            .subscribe_filtered("ticks", "price > 100 && dest == \"ATL\"")
            .unwrap();
        broker
            .publish(Event::new("ticks", "Tick", tick_message(150, "ATL")))
            .unwrap();
        broker
            .publish(Event::new("ticks", "Tick", tick_message(150, "SFO")))
            .unwrap();
        broker
            .publish(Event::new("ticks", "Tick", tick_message(50, "ATL")))
            .unwrap();
        broker
            .publish(Event::new("ticks", "Tick", tick_message(200, "ATL")))
            .unwrap();
        // Unfiltered subscriber sees everything.
        for _ in 0..4 {
            all.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        // Filtered subscriber sees only the two matches, in order.
        assert_eq!(
            atl.recv_timeout(Duration::from_secs(5)).unwrap().payload,
            tick_message(150, "ATL")
        );
        assert_eq!(
            atl.recv_timeout(Duration::from_secs(5)).unwrap().payload,
            tick_message(200, "ATL")
        );
        assert!(atl.try_recv().is_none());
    }

    /// A schema-evolution step for `tick_type`: `dest` is gone, `qty`
    /// is new, `price` survives.
    fn evolved_tick_type() -> clayout::StructType {
        clayout::StructType::new(
            "Tick",
            vec![
                clayout::StructField::new("price", clayout::CType::Prim(clayout::Primitive::Long)),
                clayout::StructField::new("qty", clayout::CType::Prim(clayout::Primitive::UInt)),
            ],
        )
    }

    fn evolved_tick_message(price: i64, qty: u64) -> Vec<u8> {
        let mut record = clayout::Record::new();
        record.set("price", clayout::Value::Int(price));
        record.set("qty", clayout::Value::UInt(qty));
        let format = pbio::format::Format::new(
            pbio::format::FormatId(8),
            evolved_tick_type(),
            clayout::Architecture::host(),
        )
        .unwrap();
        pbio::ndr::encode(&record, &format).unwrap()
    }

    #[test]
    fn type_swap_rebinds_or_poisons_live_filtered_subscribers() {
        let broker = Broker::new();
        broker.create_stream("ticks", None);
        broker.register_stream_type("ticks", tick_type()).unwrap();
        let all = broker.subscribe("ticks").unwrap();
        let by_price = broker.subscribe_filtered("ticks", "price > 100").unwrap();
        let by_dest = broker.subscribe_filtered("ticks", "dest == \"ATL\"").unwrap();

        broker.publish(Event::new("ticks", "Tick", tick_message(150, "ATL"))).unwrap();

        // Swap the stream's type: `price` survives, `dest` is gone.
        // The retype travels the shard queue, so it lands between the
        // old-type publish above and the new-type publish below.
        broker.register_stream_type("ticks", evolved_tick_type()).unwrap();
        broker.publish(Event::new("ticks", "Tick", evolved_tick_message(200, 3))).unwrap();
        broker.publish(Event::new("ticks", "Tick", evolved_tick_message(50, 4))).unwrap();

        // The price predicate was recompiled against the new type: it
        // keeps matching new-format events (the old compiled program
        // carries the old fingerprint and could never match them).
        assert_eq!(
            by_price.recv_timeout(Duration::from_secs(5)).unwrap().payload,
            tick_message(150, "ATL")
        );
        assert_eq!(
            by_price.recv_timeout(Duration::from_secs(5)).unwrap().payload,
            evolved_tick_message(200, 3)
        );
        assert!(by_price.try_recv().is_none(), "price 50 must not match");

        // The dest predicate no longer typechecks: it still gets the
        // event delivered before the swap, then the typed error.
        assert_eq!(
            by_dest.recv_timeout(Duration::from_secs(5)).unwrap().payload,
            tick_message(150, "ATL")
        );
        match by_dest.recv_timeout(Duration::from_secs(5)) {
            Err(BackboneError::Filter(crate::filter::FilterError::TypeChanged {
                expr,
                detail,
            })) => {
                assert_eq!(expr, "dest == \"ATL\"");
                assert!(detail.contains("dest"), "detail should name the lost field: {detail}");
            }
            other => panic!("expected TypeChanged, got {other:?}"),
        }

        // Unfiltered subscribers ride through the swap untouched.
        for _ in 0..3 {
            all.recv_timeout(Duration::from_secs(5)).unwrap();
        }
    }

    #[test]
    fn same_type_reregistration_leaves_filters_alone() {
        let broker = Broker::new();
        broker.create_stream("ticks", None);
        broker.register_stream_type("ticks", tick_type()).unwrap();
        let by_dest = broker.subscribe_filtered("ticks", "dest == \"ATL\"").unwrap();
        // Re-registering an identical type is a no-op for subscribers.
        broker.register_stream_type("ticks", tick_type()).unwrap();
        broker.publish(Event::new("ticks", "Tick", tick_message(1, "ATL"))).unwrap();
        assert_eq!(
            by_dest.recv_timeout(Duration::from_secs(5)).unwrap().payload,
            tick_message(1, "ATL")
        );
    }

    #[test]
    fn equivalent_predicates_share_one_compiled_program() {
        let broker = Broker::new();
        broker.create_stream("ticks", None);
        broker.register_stream_type("ticks", tick_type()).unwrap();
        // Three spellings of the same predicate: one compile, two hits.
        let _a = broker.subscribe_filtered("ticks", "price > 100").unwrap();
        let _b = broker.subscribe_filtered("ticks", "(price > 100)").unwrap();
        let _c = broker.subscribe_filtered("ticks", "  price  >  100 ").unwrap();
        let stats = broker.filter_cache_stats();
        assert_eq!(stats.built, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.resident, 1);
    }

    #[test]
    fn filtered_subscribe_needs_a_registered_type() {
        let broker = Broker::new();
        broker.create_stream("untyped", None);
        assert!(matches!(
            broker.subscribe_filtered("untyped", "price > 100"),
            Err(BackboneError::NoFilterType { .. })
        ));
        assert!(matches!(
            broker.subscribe_filtered("ghost", "price > 100"),
            Err(BackboneError::UnknownStream { .. })
        ));
        broker.register_stream_type("untyped", tick_type()).unwrap();
        assert!(matches!(
            broker.subscribe_filtered("untyped", "altitude > 100"),
            Err(BackboneError::Filter(crate::filter::FilterError::UnknownField { .. }))
        ));
    }

    #[test]
    fn filter_verdicts_survive_batched_dispatch() {
        // Push a burst through one shard so deliver_events sees multi-
        // event groups and exercises the per-batch predicate index.
        let broker = Broker::with_shards(1);
        broker.create_stream("ticks", None);
        broker.register_stream_type("ticks", tick_type()).unwrap();
        let odd = broker.subscribe_filtered("ticks", "price >= 500").unwrap();
        for n in 0..1000i64 {
            broker
                .publish(Event::new("ticks", "Tick", tick_message(n, "ATL")))
                .unwrap();
        }
        let mut got = 0;
        while odd.recv_timeout(Duration::from_millis(500)).is_ok() {
            got += 1;
        }
        assert_eq!(got, 500);
    }
}
