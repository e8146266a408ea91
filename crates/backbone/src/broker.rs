//! The in-process publish/subscribe broker: sharded, multi-core dispatch
//! with batched fan-out.
//!
//! Streams are partitioned by name hash across N independent **shards**
//! (N ≈ cores, configurable). Each shard owns a dispatch worker thread
//! that drains a bounded queue in batches and fans `Arc<Event>`s out to
//! that shard's subscribers, so publishers on different streams never
//! contend on a shared lock. Within a batch, events are grouped by stream
//! and pushed to each subscriber under a single lock acquisition
//! (`send_many`), which is what makes high-rate fan-out cheap: per-event
//! subscriber-lock cost drops from O(subscribers) to
//! O(subscribers / batch).
//!
//! Subscribe and unsubscribe travel through the same shard queue as
//! events, so ordering is exact: a subscriber observes precisely the
//! events published after its subscription was enqueued, and
//! [`Subscription::unsubscribe`] does not return until the worker has
//! removed the subscriber — no event is delivered after it completes.
//!
//! Delivery is lossless. Only the shard queue is bounded, so publishers
//! wait while their shard is behind; subscriber queues are unbounded,
//! so the dispatch worker never waits on a subscriber, and a slow one
//! grows its own queue ([`Subscription::backlog`]).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

use clayout::StructType;
use pbio::header::MAX_FORMAT_NAME_LEN;
use pbio::PbioError;
use xml2wire::seglog::{SegLogConfig, SegReplay, SegmentLog};

use crate::error::BackboneError;
use crate::federation::FORWARD_BATCH;
use crate::filter::{FilterCache, FilterError, FilterSet, StreamFilter};
use crate::queue::{self, Closed, Receiver, Sender};
use crate::unpoisoned;

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
        Event {
            stream: stream.into(),
            format_name: format_name.into(),
            payload,
            seq: 0,
            hops: 0,
        }
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
        Event {
            stream: stream.into(),
            format_name: format_name.into(),
            payload,
            seq,
            hops: 0,
        }
    }
}

/// Per-stream configuration supplied at creation time.
#[derive(Debug, Clone, Default)]
pub struct StreamConfig {
    /// Where subscribers can discover the stream's metadata.
    pub metadata_locator: Option<String>,
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
        DurableSpec {
            dir: dir.into(),
            log: SegLogConfig::default(),
        }
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
    archive_errors: AtomicU64,
    durable: Option<DurableState>,
    /// The stream's clayout struct type, when registered — what
    /// subscription predicates resolve field names against. Capture
    /// points register it automatically; see
    /// [`Broker::register_stream_type`].
    filter_type: Mutex<Option<Arc<StructType>>>,
}

/// A subscriber as the shard worker sees it. Its `tx` is the only
/// sender of the subscriber's queue, so the queue closes when the
/// worker drops the entry.
struct SubEntry {
    id: u64,
    tx: Sender<Arc<Event>>,
    meta: Arc<StreamMeta>,
    /// Content predicate; `None` delivers everything. Subscribers with
    /// equivalent predicates share one `Arc` (the [`FilterCache`]
    /// dedups), so the worker groups them under one program of the
    /// stream's [`FilterSet`].
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
    Subscribe {
        entry: SubEntry,
        ack: Option<SyncSender<()>>,
    },
    Unsubscribe {
        stream: Arc<str>,
        id: u64,
    },
    /// Hands the worker a durable stream's segment log. Sent before the
    /// stream becomes publishable, so it always precedes the stream's
    /// first event on the queue.
    RegisterLog {
        meta: Arc<StreamMeta>,
        log: Arc<Mutex<SegmentLog>>,
    },
    /// The stream's struct type was replaced: the worker recompiles
    /// each live subscriber's filter against the new type (via the
    /// shared cache) or, when an expression no longer typechecks,
    /// poisons and drops the subscriber. Travels the event queue, so
    /// events published before the swap are still evaluated under the
    /// old programs and events after it under the new ones.
    Retype {
        stream: Arc<str>,
        st: Arc<StructType>,
        cache: Arc<FilterCache>,
    },
    Shutdown,
}

/// One shard: the sync-side stream registry plus the dispatch queue
/// feeding this shard's worker.
struct Shard {
    meta: RwLock<HashMap<String, Arc<StreamMeta>>>,
    /// Held by a stream's creation from the registry check to the
    /// insert, so a durable stream's log is opened once and the log the
    /// registry holds is the one the worker appends to. Lookups and
    /// publishes never take it.
    create: Mutex<()>,
    tx: Sender<ShardMsg>,
    /// Unsubscribes that dropped subscriptions could not queue because
    /// the queue was full; the worker sweeps its closed entries when
    /// this is non-zero.
    lost: Arc<AtomicUsize>,
}

/// How many messages a worker drains per queue lock.
const DISPATCH_BATCH: usize = 128;
/// How many cooperative yields a worker spins through an empty queue
/// before parking on the queue's condvar. While the worker polls,
/// publishers pay zero wake syscalls (the queue only notifies parked
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
/// Dropping a subscription deregisters it without waiting: the
/// unsubscribe is queued behind the events already published, or, when
/// the shard's queue is full, counted for the worker to sweep at its
/// next batch. Call [`unsubscribe`](Subscription::unsubscribe) to
/// deregister synchronously.
#[derive(Debug)]
pub struct Subscription {
    receiver: Receiver<Arc<Event>>,
    meta: Arc<StreamMeta>,
    shard_tx: Sender<ShardMsg>,
    /// The shard's count of unsubscribes lost to a full queue.
    lost: Arc<AtomicUsize>,
    id: u64,
    poison: Arc<Mutex<Option<FilterError>>>,
}

impl Subscription {
    /// What a closed channel means for this subscription: normally the
    /// broker is gone, but a filtered subscriber whose predicate was
    /// invalidated by a stream-type swap gets the typed reason instead.
    fn disconnect_error(&self) -> BackboneError {
        match unpoisoned(self.poison.lock()).clone() {
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
        self.receiver
            .recv(None)
            .ok()
            .flatten()
            .ok_or_else(|| self.disconnect_error())
    }

    /// Waits up to `timeout` for the next event.
    ///
    /// # Errors
    ///
    /// Disconnection or timeout (reported as `Disconnected`), or the
    /// typed [`FilterError::TypeChanged`] as for [`recv`](Self::recv).
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Arc<Event>, BackboneError> {
        match self.receiver.recv(Some(timeout)) {
            Ok(Some(event)) => Ok(event),
            Ok(None) => Err(BackboneError::Disconnected),
            Err(Closed) => Err(self.disconnect_error()),
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
        match self.receiver.recv(Some(timeout)) {
            Ok(Some(event)) => {
                out.push(event);
                self.receiver.try_recv_batch(out, max - 1);
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(Closed) => Err(self.disconnect_error()),
        }
    }

    /// Non-blocking poll.
    pub fn try_recv(&self) -> Option<Arc<Event>> {
        self.receiver.try_recv()
    }

    /// Number of events waiting.
    pub fn backlog(&self) -> usize {
        self.receiver.len()
    }

    /// Synchronously deregisters this subscription and returns its
    /// backlog: every event dispatched to it before the shard worker
    /// removed it, in order. No event reaches it afterwards.
    pub fn unsubscribe(self) -> Vec<Arc<Event>> {
        // A failed send means the worker is gone, and its entries with
        // it. Either way the queue closes once the entry holding its
        // only sender is dropped, and the drain ends there.
        let _ = self.shard_tx.send(ShardMsg::Unsubscribe {
            stream: Arc::clone(&self.meta.name),
            id: self.id,
        });
        let mut backlog = Vec::new();
        while self.receiver.recv_batch(&mut backlog, usize::MAX).is_ok() {}
        backlog
    }
}

/// Payload capacity above which an archived event is not kept for
/// reuse: the log's own read window, so one oversized record does not
/// pin its buffer for the rest of a replay.
const SPARE_PAYLOAD_MAX: usize = 256 * 1024;

/// A catch-up subscription on a durable stream: replays archived
/// history first, then hands over to the live feed at the exact
/// sequence boundary, deduping by seq (see
/// [`Broker::subscribe_replay`]).
///
/// An archived event costs no allocation once its caller has dropped
/// the one before it: the subscription keeps the events it handed out
/// and overwrites one in place when [`Arc::get_mut`] finds it unique
/// again. An event the caller still holds is never written; the next
/// record then gets a new event. A malformed record's error is
/// returned by every later receive, so the records after it are never
/// served as if it were not there.
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
    /// Archived events handed out earlier, to overwrite once unique: the
    /// last one `recv`/`recv_timeout` returned, or what a batch gave
    /// back. At most [`FORWARD_BATCH`], each within
    /// [`SPARE_PAYLOAD_MAX`]; dropped when the snapshot is exhausted.
    spares: Vec<Arc<Event>>,
    /// What was wrong with a malformed archived record, once one came.
    failed: Option<String>,
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
    /// exhausted (the replay and the spares are dropped with it).
    fn next_archived(&mut self) -> Result<Option<Arc<Event>>, BackboneError> {
        if let Some(detail) = &self.failed {
            return Err(BackboneError::BadFrame {
                detail: detail.clone(),
            });
        }
        let Some(replay) = &mut self.replay else {
            return Ok(None);
        };
        let Some((seq, record)) = replay.next_record()? else {
            self.replay = None;
            self.spares = Vec::new();
            return Ok(None);
        };
        let spare = self.spares.pop();
        match decode_log_record(&self.stream, &mut self.format_name, seq, record, spare) {
            Ok(event) => Ok(Some(event)),
            Err(what) => {
                let detail = format!("archived record seq {seq} {what}");
                self.failed = Some(detail.clone());
                Err(BackboneError::BadFrame { detail })
            }
        }
    }

    /// Keeps an archived event to overwrite once its caller drops it,
    /// within the spares' bounds.
    fn keep(&mut self, event: Arc<Event>) {
        if self.replay.is_some()
            && self.spares.len() < FORWARD_BATCH
            && event.payload.capacity() <= SPARE_PAYLOAD_MAX
        {
            self.spares.push(event);
        }
    }

    /// The next archived event, kept for reuse.
    fn next_archived_kept(&mut self) -> Result<Option<Arc<Event>>, BackboneError> {
        let event = self.next_archived()?;
        if let Some(event) = &event {
            self.keep(Arc::clone(event));
        }
        Ok(event)
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
        if let Some(event) = self.next_archived_kept()? {
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
    /// cut-over) taken out — which may leave nothing of it. The
    /// archived events of the last batch that are unique again are
    /// taken back from `out` and overwritten by this one.
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
        for mut event in out.drain(..) {
            if Arc::get_mut(&mut event).is_some() {
                self.keep(event);
            }
        }
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
        if let Some(event) = self.next_archived_kept()? {
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
        // A full queue loses the unsubscribe: count it, or an entry whose
        // predicate never matches again, and whose sends therefore never
        // fail, would be evaluated for good. Closed first: the count's
        // `Release` pairs with the worker's `Acquire` swap, so a worker
        // that reads it finds this entry closed.
        self.receiver.close();
        let unsubscribe = ShardMsg::Unsubscribe {
            stream: Arc::clone(&self.meta.name),
            id: self.id,
        };
        if !self.shard_tx.try_send(unsubscribe) {
            self.lost.fetch_add(1, Ordering::Release);
        }
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
    pub fn publish(&self, format_name: Arc<str>, payload: Vec<u8>) -> Result<usize, BackboneError> {
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
        self.meta
            .published
            .fetch_add(sent as u64, Ordering::Relaxed);
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
        return Err(PbioError::FormatNameTooLong {
            len,
            max: MAX_FORMAT_NAME_LEN,
        }
        .into());
    }
    if let Some(durable) = &meta.durable {
        let mut next = unpoisoned(durable.next_seq.lock());
        let seq = *next + 1;
        let event = Event {
            stream: Arc::clone(&meta.name),
            format_name,
            payload,
            seq,
            hops: 0,
        };
        shard_tx
            .send(ShardMsg::Event(Arc::new(event)))
            .map_err(|_| BackboneError::Disconnected)?;
        // Commit the seq only on a successful send, so a failed publish
        // leaves no hole in the log's contiguous sequence.
        *next = seq;
    } else {
        let event = Event {
            stream: Arc::clone(&meta.name),
            format_name,
            payload,
            seq: 0,
            hops: 0,
        };
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
    workers: Vec<JoinHandle<()>>,
    filters: Arc<FilterCache>,
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
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
            let (tx, rx) = queue::bounded(SHARD_QUEUE_DEPTH);
            let (meta, create) = (RwLock::new(HashMap::new()), Mutex::new(()));
            let lost = Arc::new(AtomicUsize::new(0));
            let worker_lost = Arc::clone(&lost);
            shard_vec.push(Arc::new(Shard {
                meta,
                create,
                tx,
                lost,
            }));
            let handle = std::thread::Builder::new()
                .name(format!("broker-shard-{i}"))
                .spawn(move || dispatch_loop(&rx, &worker_lost))
                .expect("spawning broker shard worker");
            workers.push(handle);
        }
        Broker {
            shards: shard_vec,
            workers,
            filters: Arc::new(FilterCache::new()),
        }
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
    /// locator but will not erase one).
    pub fn create_stream(&self, name: impl Into<String>, metadata_locator: Option<String>) {
        self.create_stream_inner(name.into(), StreamConfig { metadata_locator }, None)
            .expect("non-durable stream creation is infallible");
    }

    /// Registers a **durable** stream: every published event is appended
    /// (with a contiguous 1-based sequence number and CRC) to a segment
    /// log under `spec.dir` before fan-out, and late subscribers may
    /// [`subscribe_replay`](Self::subscribe_replay) history.
    ///
    /// Reopening an existing log resumes its sequence; the recovered
    /// last seq is returned. Idempotent like
    /// [`create_stream`](Self::create_stream) — but a stream first
    /// registered non-durable cannot be upgraded.
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
            Some(durable) => Ok(*unpoisoned(durable.next_seq.lock())),
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
        let _creating = unpoisoned(shard.create.lock());
        {
            let meta = unpoisoned(shard.meta.read());
            if let Some(existing) = meta.get(&name) {
                if config.metadata_locator.is_some() {
                    *unpoisoned(existing.metadata_locator.lock()) = config.metadata_locator;
                }
                return Ok(());
            }
        }
        // Open the log (possibly slow recovery I/O) outside the registry
        // lock: lookups and publishes go on meanwhile.
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
            archive_errors: AtomicU64::new(0),
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
        unpoisoned(shard.meta.write()).insert(name, stream_meta);
        Ok(())
    }

    fn lookup(&self, stream: &str) -> Result<(&Arc<Shard>, Arc<StreamMeta>), BackboneError> {
        let shard = self.shard_for(stream);
        let meta = unpoisoned(shard.meta.read())
            .get(stream)
            .cloned()
            .ok_or_else(|| BackboneError::UnknownStream {
                name: stream.to_owned(),
            })?;
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
        let st = unpoisoned(meta.filter_type.lock()).clone().ok_or_else(|| {
            BackboneError::NoFilterType {
                name: stream.to_owned(),
            }
        })?;
        Ok(self.filters.get_or_compile(&st, expr)?)
    }

    fn subscribe_inner(
        &self,
        stream: &str,
        ack: Option<SyncSender<()>>,
        filter: Option<Arc<StreamFilter>>,
    ) -> Result<Subscription, BackboneError> {
        static NEXT_SUB_ID: AtomicU64 = AtomicU64::new(0);
        let (shard, meta) = self.lookup(stream)?;
        let (tx, rx) = queue::unbounded();
        let id = NEXT_SUB_ID.fetch_add(1, Ordering::Relaxed);
        meta.subscribers.fetch_add(1, Ordering::SeqCst);
        let poison = Arc::new(Mutex::new(None));
        let entry = SubEntry {
            id,
            tx,
            meta: Arc::clone(&meta),
            filter,
            poison: Arc::clone(&poison),
        };
        if shard.tx.send(ShardMsg::Subscribe { entry, ack }).is_err() {
            meta.subscribers.fetch_sub(1, Ordering::SeqCst);
            return Err(BackboneError::Disconnected);
        }
        Ok(Subscription {
            receiver: rx,
            meta,
            shard_tx: shard.tx.clone(),
            lost: Arc::clone(&shard.lost),
            id,
            poison,
        })
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
    pub fn register_stream_type(&self, stream: &str, st: StructType) -> Result<(), BackboneError> {
        let (shard, meta) = self.lookup(stream)?;
        let st = Arc::new(st);
        let changed = {
            let mut guard = unpoisoned(meta.filter_type.lock());
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
        let guard = unpoisoned(shard.meta.read());
        guard
            .get(stream)
            .and_then(|m| unpoisoned(m.filter_type.lock()).clone())
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
            return Err(BackboneError::NotDurable {
                name: stream.to_owned(),
            });
        }
        let (ack_tx, ack_rx) = sync_channel(1);
        let live = self.subscribe_inner(stream, Some(ack_tx), None)?;
        ack_rx.recv().map_err(|_| BackboneError::Disconnected)?;
        let durable = meta.durable.as_ref().expect("checked above");
        let replay = unpoisoned(durable.log.lock()).replay_from(from_seq)?;
        let cutover = replay.end_seq();
        Ok(ReplaySubscription {
            replay: Some(replay),
            cutover,
            live,
            stream: Arc::clone(&meta.name),
            format_name: Arc::from(""),
            spares: Vec::new(),
            failed: None,
        })
    }

    /// Publishes an event to its stream, returning the current
    /// subscriber count.
    ///
    /// Delivery is asynchronous: the event is enqueued (in one [`Arc`])
    /// on the stream's shard and the shard's worker fans it out, so the
    /// returned count is the number of live subscriptions at publish
    /// time, not a delivery receipt. Publishers block only when their
    /// shard's dispatch queue is full.
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
        Ok(PublishHandle {
            meta,
            shard_tx: shard.tx.clone(),
        })
    }

    /// The metadata locator registered for a stream.
    pub fn metadata_locator(&self, stream: &str) -> Option<String> {
        let shard = self.shard_for(stream);
        let guard = unpoisoned(shard.meta.read());
        guard
            .get(stream)
            .and_then(|m| unpoisoned(m.metadata_locator.lock()).clone())
    }

    /// Information about every stream, sorted by name.
    pub fn streams(&self) -> Vec<StreamInfo> {
        let mut infos: Vec<StreamInfo> = self
            .shards
            .iter()
            .flat_map(|shard| {
                unpoisoned(shard.meta.read())
                    .values()
                    .map(|meta| StreamInfo {
                        name: meta.name.to_string(),
                        metadata_locator: unpoisoned(meta.metadata_locator.lock()).clone(),
                        subscribers: meta.subscribers.load(Ordering::SeqCst),
                        published: meta.published.load(Ordering::Relaxed),
                        durable_seq: meta
                            .durable
                            .as_ref()
                            .map_or(0, |d| *unpoisoned(d.next_seq.lock())),
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
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Subscriber lists for one shard, owned exclusively by its worker.
type ShardStreams = HashMap<Arc<str>, StreamSubs>;

/// One stream's subscribers as its shard worker keeps them: the
/// unfiltered ones, and the filtered ones grouped by program beside the
/// [`FilterSet`] compiled from those programs. Regrouped and recompiled
/// only when a subscriber comes or goes or the stream's type changes,
/// never per batch; with no filtered subscriber there is no set.
#[derive(Default)]
struct StreamSubs {
    plain: Vec<SubEntry>,
    /// `groups[p]` subscribe through program `p` of `set`.
    groups: Vec<Vec<SubEntry>>,
    set: Option<FilterSet>,
    /// Per program: the indices of the dispatch run's events it matched,
    /// reused across batches.
    matched: Vec<Vec<u32>>,
}

impl StreamSubs {
    /// Files `entry` with the subscribers of its program; `true` when
    /// the program is new, which the set does not hold until
    /// [`rebuild`](Self::rebuild).
    fn insert(&mut self, entry: SubEntry) -> bool {
        let Some(filter) = &entry.filter else {
            self.plain.push(entry);
            return false;
        };
        let group = self.groups.iter_mut().find(|group| {
            group[0]
                .filter
                .as_ref()
                .is_some_and(|f| Arc::ptr_eq(f, filter))
        });
        match group {
            Some(group) => {
                group.push(entry);
                false
            }
            None => {
                self.groups.push(vec![entry]);
                true
            }
        }
    }

    /// Drops the entries `keep` refuses, and every program left without
    /// a subscriber.
    fn retain(&mut self, mut keep: impl FnMut(&SubEntry) -> bool) {
        self.plain.retain(&mut keep);
        let programs = self.groups.len();
        for group in &mut self.groups {
            group.retain(&mut keep);
        }
        self.groups.retain(|group| !group.is_empty());
        if self.groups.len() != programs {
            self.rebuild();
        }
    }

    /// Compiles the groups' programs into the stream's set.
    fn rebuild(&mut self) {
        let filters: Vec<_> = self
            .groups
            .iter()
            .filter_map(|group| group[0].filter.clone())
            .collect();
        self.set = (!filters.is_empty()).then(|| FilterSet::new(filters));
        self.matched.resize_with(self.groups.len(), Vec::new);
    }
}

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

/// Inverse of [`put_log_record`]: the event of a replayed `(seq,
/// record)` pair the log lends, or what is wrong with the record
/// (shorter than its header, a truncated or non-UTF-8 format name).
/// `last_name` is the previous record's format name, reused when this
/// record carries the same bytes. The payload is copied into `spare`
/// when [`Arc::get_mut`] finds it unique — the only gate, so an event
/// someone still holds is never written — and into a new event (two
/// allocations) otherwise.
fn decode_log_record(
    stream: &Arc<str>,
    last_name: &mut Arc<str>,
    seq: u64,
    record: &[u8],
    spare: Option<Arc<Event>>,
) -> Result<Arc<Event>, &'static str> {
    let (name_len, rest) = record
        .split_first_chunk::<2>()
        .ok_or("shorter than its header")?;
    let (name, payload) = rest
        .split_at_checked(usize::from(u16::from_le_bytes(*name_len)))
        .ok_or("truncates its format name")?;
    if last_name.as_bytes() != name {
        let name = std::str::from_utf8(name).map_err(|_| "has a non-UTF-8 format name")?;
        *last_name = name.into();
    }
    if let Some(mut spare) = spare {
        if let Some(event) = Arc::get_mut(&mut spare) {
            event.payload.clear();
            event.payload.extend_from_slice(payload);
            event.seq = seq;
            event.hops = 0;
            if !Arc::ptr_eq(&event.format_name, last_name) {
                event.format_name = Arc::clone(last_name);
            }
            if !Arc::ptr_eq(&event.stream, stream) {
                event.stream = Arc::clone(stream);
            }
            return Ok(spare);
        }
    }
    let event = Event::with_seq(
        Arc::clone(stream),
        Arc::clone(last_name),
        payload.to_vec(),
        seq,
    );
    Ok(Arc::new(event))
}

/// The dispatch worker: drains the shard queue in batches, applies
/// control messages in order, and fans event runs out to subscribers
/// with one subscriber-lock acquisition per (stream, batch) rather than
/// per event. Steady-state dispatch performs no allocation: the batch
/// and ordering buffers are reused across iterations.
fn dispatch_loop(rx: &Receiver<ShardMsg>, lost: &AtomicUsize) {
    let mut streams: ShardStreams = HashMap::new();
    let mut sinks: ShardSinks = HashMap::new();
    let mut batch: Vec<ShardMsg> = Vec::with_capacity(DISPATCH_BATCH);
    let mut run: Vec<Arc<Event>> = Vec::with_capacity(DISPATCH_BATCH);
    let mut buckets: Vec<Bucket> = Vec::new();
    loop {
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
        // Unsubscribes lost to a full queue: their receivers closed
        // before the count rose, so one sweep finds every entry already
        // filed, and a Subscribe still queued is not filed closed.
        if lost.load(Ordering::Relaxed) != 0 && lost.swap(0, Ordering::Acquire) != 0 {
            for subs in streams.values_mut() {
                subs.retain(|entry| !entry.tx.is_closed());
            }
        }
        // Maximal runs of events are delivered grouped; a control message
        // is applied at its exact position, after the run before it, so
        // subscribe/unsubscribe ordering stays strict.
        for msg in batch.drain(..) {
            if !matches!(msg, ShardMsg::Event(_)) {
                deliver_events(&mut streams, &mut run, &mut buckets, &sinks);
            }
            match msg {
                ShardMsg::Event(event) => run.push(event),
                ShardMsg::Subscribe { entry, ack } => {
                    // Dropped while this waited in the queue, its
                    // unsubscribe perhaps lost and already swept for.
                    if !entry.tx.is_closed() {
                        let subs = streams.entry(Arc::clone(&entry.meta.name)).or_default();
                        if subs.insert(entry) {
                            subs.rebuild();
                        }
                    }
                    // The ack certifies: every event dispatched before
                    // this subscription has already been appended to its
                    // stream's log (appends happen before fan-out, in
                    // queue order). subscribe_replay snapshots the log
                    // only after receiving it.
                    if let Some(ack) = ack {
                        let _ = ack.send(());
                    }
                }
                ShardMsg::Unsubscribe { stream, id } => {
                    if let Some(subs) = streams.get_mut(&stream) {
                        subs.retain(|entry| entry.id != id);
                    }
                }
                ShardMsg::RegisterLog { meta, log } => {
                    sinks.insert(Arc::clone(&meta.name), DurableSink { log, meta });
                }
                ShardMsg::Retype { stream, st, cache } => {
                    retype_stream(&mut streams, &stream, &st, &cache);
                }
                ShardMsg::Shutdown => {
                    sync_sinks(&sinks);
                    return;
                }
            }
        }
        deliver_events(&mut streams, &mut run, &mut buckets, &sinks);
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
    let filtered = std::mem::take(&mut subs.groups);
    for mut entry in filtered.into_iter().flatten() {
        let stale = entry
            .filter
            .as_ref()
            .filter(|f| f.fingerprint() != fingerprint);
        if let Some(filter) = stale {
            match cache.get_or_compile(st, filter.normalized()) {
                Ok(rebound) => entry.filter = Some(rebound),
                Err(e) => {
                    *unpoisoned(entry.poison.lock()) = Some(FilterError::TypeChanged {
                        expr: filter.normalized().to_owned(),
                        detail: e.to_string(),
                    });
                    continue;
                }
            }
        }
        subs.insert(entry);
    }
    subs.rebuild();
}

/// Best-effort fsync of every durable log this shard owns, run at
/// shutdown so a clean broker drop leaves nothing in page cache only.
fn sync_sinks(sinks: &ShardSinks) {
    for sink in sinks.values() {
        if unpoisoned(sink.log.lock()).sync().is_err() {
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

/// Fans a run of events out to their subscribers, grouped by stream:
/// events for the same stream are pushed to each subscriber under one
/// lock acquisition. Grouping is first-seen bucketing — shards host few
/// streams, so a linear scan with an `Arc` pointer-equality fast path
/// (publish handles reuse the stream's canonical `Arc<str>`) beats
/// sorting the batch by stream name. Bucket order is first-seen and
/// indices within a bucket stay ascending, so per-stream order is
/// preserved exactly. Leaves `run` empty.
fn deliver_events(
    streams: &mut ShardStreams,
    run: &mut Vec<Arc<Event>>,
    buckets: &mut Vec<Bucket>,
    sinks: &ShardSinks,
) {
    let mut active = 0usize;
    for (k, event) in run.iter().enumerate() {
        let stream = &event.stream;
        let slot = buckets[..active]
            .iter()
            .position(|bucket| {
                let name = bucket.name.as_ref().expect("active bucket has a name");
                Arc::ptr_eq(name, stream) || **name == **stream
            })
            .unwrap_or_else(|| {
                if active == buckets.len() {
                    buckets.push(Bucket {
                        name: None,
                        idxs: Vec::new(),
                    });
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
                let event: &Event = &run[k as usize];
                let pieces = move |put: &mut dyn FnMut(&[u8])| put_log_record(event, put);
                (event.seq != 0).then_some((event.seq, pieces))
            });
            if let Err(e) = unpoisoned(sink.log.lock()).append_group(records) {
                sink.meta
                    .archive_errors
                    .fetch_add(e.lost as u64, Ordering::Relaxed);
            }
        }
        if let Some(subs) = streams.get_mut(&stream) {
            // Predicate-indexed fanout: the stream's set evaluates its
            // unique programs over the group's events together, and each
            // program's subscribers share its match list.
            if let Some(set) = &mut subs.set {
                let messages = group
                    .iter()
                    .map(|&k| (k, run[k as usize].payload.as_slice()));
                set.select(messages, &mut subs.matched);
            }
            let mut pruned = false;
            let filtered = subs
                .groups
                .iter()
                .zip(subs.matched.iter().map(Vec::as_slice));
            for (entries, idxs) in filtered.chain([(&subs.plain, group)]) {
                // A program that matched nothing: no lock taken, no
                // queue touched.
                if idxs.is_empty() {
                    continue;
                }
                for entry in entries {
                    let events = idxs.iter().map(|&k| Arc::clone(&run[k as usize]));
                    if entry.tx.send_many(events).is_err() {
                        // Receiver gone: the subscription's Drop already
                        // decremented the count; just prune the entry.
                        pruned = true;
                    }
                }
            }
            for idxs in &mut subs.matched {
                idxs.clear();
            }
            if pruned {
                subs.retain(|entry| !entry.tx.is_closed());
            }
        }
        bucket.idxs.clear();
    }
    run.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Broker {
        /// The number of shards this broker dispatches across.
        fn shard_count(&self) -> usize {
            self.shards.len()
        }
    }
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
        assert_eq!(
            wx.recv_timeout(Duration::from_millis(500)).unwrap().payload,
            vec![2]
        );
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
        assert_eq!(
            broker.metadata_locator("asd").as_deref(),
            Some("http://meta/asd.xsd")
        );
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

    /// The worker never waits on a subscriber, so an unsubscribe sent
    /// while a publisher keeps the one shard's queue full is reached,
    /// and returns the whole backlog of a subscriber that read nothing.
    #[test]
    fn unsubscribe_returns_the_backlog_while_the_shard_queue_is_full() {
        const EVENTS: u64 = 4 * SHARD_QUEUE_DEPTH as u64;
        let broker = Arc::new(Broker::with_shards(1));
        broker.create_stream("flood", None);
        let sub = broker.subscribe("flood").unwrap();
        let published = Arc::new(AtomicU64::new(0));
        let publisher = {
            let (broker, published) = (Arc::clone(&broker), Arc::clone(&published));
            std::thread::spawn(move || {
                let handle = broker.publish_handle("flood").unwrap();
                for n in 0..EVENTS {
                    handle
                        .publish("F".into(), n.to_le_bytes().to_vec())
                        .unwrap();
                    published.store(n + 1, Ordering::SeqCst);
                }
            })
        };
        while published.load(Ordering::SeqCst) < SHARD_QUEUE_DEPTH as u64 {
            std::thread::yield_now();
        }
        let (done_tx, done) = sync_channel(1);
        std::thread::spawn(move || {
            let backlog = sub.unsubscribe();
            let _ = done_tx.send(backlog);
        });
        let backlog = done
            .recv_timeout(Duration::from_secs(10))
            .expect("unsubscribe wedged behind a full shard queue");
        assert!(
            backlog.len() >= SHARD_QUEUE_DEPTH,
            "backlog of {}",
            backlog.len()
        );
        for (n, event) in backlog.iter().enumerate() {
            assert_eq!(
                event.payload,
                (n as u64).to_le_bytes(),
                "backlog out of order"
            );
        }
        publisher.join().unwrap();
    }

    /// Two threads waiting on one shared subscription both wake on two
    /// publishes: a receiver is shared by reference, and the wake
    /// reaches every waiter.
    #[test]
    fn two_threads_in_recv_timeout_on_one_subscription_both_wake() {
        let broker = Broker::with_shards(1);
        broker.create_stream("asd", None);
        let sub = broker.subscribe("asd").unwrap();
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2)
                .map(|_| s.spawn(|| sub.recv_timeout(Duration::from_secs(10))))
                .collect();
            std::thread::sleep(Duration::from_millis(50));
            broker.publish(event("asd", 1)).unwrap();
            broker.publish(event("asd", 2)).unwrap();
            let mut got: Vec<u8> = waiters
                .into_iter()
                .map(|w| w.join().unwrap().unwrap().payload[0])
                .collect();
            got.sort_unstable();
            assert_eq!(got, vec![1, 2]);
        });
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
    fn racing_durable_creates_share_one_log() {
        // Two threads create the same durable streams at once, in the
        // same order. Each stream must be opened once: the log the
        // worker appends to is the log a replay snapshots, so a replay
        // after three publishes cuts over at seq 3. One shard keeps the
        // two creators on one registry; rounds make the race likely.
        const ROUNDS: usize = 20;
        const STREAMS: usize = 200;
        let log = SegLogConfig {
            fsync: xml2wire::FsyncPolicy::Never,
            ..SegLogConfig::default()
        };
        for round in 0..ROUNDS {
            let dir = temp_dir(&format!("race-{round}"));
            let broker = Arc::new(Broker::with_shards(1));
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let creators: Vec<_> = (0..2)
                .map(|_| {
                    let (broker, barrier, dir) =
                        (Arc::clone(&broker), Arc::clone(&barrier), dir.clone());
                    std::thread::spawn(move || {
                        barrier.wait();
                        for s in 0..STREAMS {
                            let (name, config) = (format!("s{s}"), StreamConfig::default());
                            let spec = DurableSpec {
                                dir: dir.join(&name),
                                log,
                            };
                            broker.create_stream_durable(&name, config, spec).unwrap();
                        }
                    })
                })
                .collect();
            for creator in creators {
                creator.join().unwrap();
            }
            for s in 0..STREAMS {
                let name = format!("s{s}");
                for n in 0..3 {
                    broker.publish(event(&name, n)).unwrap();
                }
                let replay = broker.subscribe_replay(&name, 1).unwrap();
                assert_eq!(replay.cutover_seq(), 3, "round {round}: {name}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
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
            assert_eq!(
                sub.recv_timeout(Duration::from_secs(5)).unwrap().seq,
                expect
            );
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
        let refused = broker.publish(Event::new(
            "ops",
            Arc::clone(&too_long),
            b"payload".to_vec(),
        ));
        assert!(
            matches!(
                refused,
                Err(BackboneError::Metadata(xml2wire::X2wError::Bcm(
                    PbioError::FormatNameTooLong {
                        len: 65_536,
                        max: 65_535
                    }
                )))
            ),
            "{refused:?}"
        );
        let handle = broker.publish_handle("ops").unwrap();
        assert!(handle.publish(too_long, b"payload".to_vec()).is_err());
        let info = &broker.streams()[0];
        assert_eq!((info.published, info.durable_seq), (0, 0));

        let longest = "N".repeat(MAX_FORMAT_NAME_LEN);
        broker
            .publish(Event::new("ops", longest.as_str(), b"payload".to_vec()))
            .unwrap();
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
            let spec = DurableSpec {
                dir: dir.join(&name),
                log,
            };
            broker
                .create_stream_durable(&name, StreamConfig::default(), spec)
                .unwrap();
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
                    let event = replay
                        .recv_timeout(Duration::from_secs(5))
                        .unwrap_or_else(|e| {
                            panic!("{name} replay {round} at seq {seq} of {cutover}: {e}")
                        });
                    assert_eq!(
                        (event.seq, &event.payload),
                        (seq, &body(seq)),
                        "{name} replay {round}"
                    );
                }
                // What is appended from here on arrives through the live
                // feed, gap-free.
                for seq in cutover + 1..=cutover + 3 {
                    let event = replay.recv_timeout(Duration::from_secs(5)).unwrap();
                    assert_eq!(
                        event.seq, seq,
                        "{name} replay {round} after cut-over at {cutover}"
                    );
                }
            }
            stop.store(1, Ordering::SeqCst);
            publisher.join().unwrap();
        }
        assert!(broker
            .streams()
            .iter()
            .all(|stream| stream.archive_errors == 0));
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

    /// The record a reuse test writes at `seq`: payload lengths vary
    /// with the seq, and the format name changes halfway through.
    fn reuse_record(seq: u64, events: u64) -> (&'static str, Vec<u8>) {
        let name = if seq <= events / 2 {
            "AsdOffEvent"
        } else {
            "Flight"
        };
        let len = 8 + (seq * 37 % 300) as usize;
        let mut payload = vec![seq as u8; len];
        payload[..8].copy_from_slice(&seq.to_le_bytes());
        (name, payload)
    }

    /// A durable stream holding `events` of [`reuse_record`].
    fn reuse_log(tag: &str, events: u64) -> (Broker, std::path::PathBuf) {
        let dir = temp_dir(tag);
        let broker = Broker::new();
        broker
            .create_stream_durable("ops", StreamConfig::default(), DurableSpec::new(&dir))
            .unwrap();
        for seq in 1..=events {
            let (name, payload) = reuse_record(seq, events);
            broker.publish(Event::new("ops", name, payload)).unwrap();
        }
        (broker, dir)
    }

    fn assert_is_record(event: &Event, seq: u64, events: u64) {
        let (name, payload) = reuse_record(seq, events);
        assert_eq!(
            (&*event.stream, &*event.format_name, event.seq, event.hops),
            ("ops", name, seq, 0),
            "event of seq {seq}"
        );
        assert_eq!(event.payload, payload, "payload of seq {seq}");
    }

    #[test]
    fn held_replayed_events_are_never_overwritten() {
        // Every 7th event is kept while the replay goes on; the rest
        // are dropped at once, so their records are overwritten in
        // place by the next ones. What is kept must not change.
        const EVENTS: u64 = 2_100;
        let (broker, dir) = reuse_log("reuse-held", EVENTS);
        let mut replay = broker.subscribe_replay("ops", 1).unwrap();
        let mut held = Vec::new();
        for seq in 1..=EVENTS {
            let event = replay.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_is_record(&event, seq, EVENTS);
            if seq % 7 == 0 {
                held.push((seq, event));
            }
        }
        assert_eq!(held.len(), 300);
        for (seq, event) in &held {
            assert_is_record(event, *seq, EVENTS);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn events_kept_out_of_a_replayed_batch_are_never_overwritten() {
        const EVENTS: u64 = 2_100;
        let (broker, dir) = reuse_log("reuse-batch", EVENTS);
        let mut replay = broker.subscribe_replay("ops", 1).unwrap();
        let (mut out, mut held, mut next) = (Vec::new(), Vec::new(), 1);
        while next <= EVENTS {
            replay
                .recv_batch(&mut out, FORWARD_BATCH, Duration::from_secs(5))
                .unwrap();
            assert!(!out.is_empty(), "nothing after seq {next}");
            for event in &out {
                assert_is_record(event, next, EVENTS);
                if next % 7 == 0 {
                    held.push((next, Arc::clone(event)));
                }
                next += 1;
            }
        }
        assert_eq!(held.len(), 300);
        for (seq, event) in &held {
            assert_is_record(event, *seq, EVENTS);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_over_the_spare_bound_does_not_stay_allocated() {
        // One record larger than the bound, then small ones: the buffer
        // that held it is not kept for them, on either receive path.
        let dir = temp_dir("reuse-bound");
        let broker = Broker::new();
        broker
            .create_stream_durable("ops", StreamConfig::default(), DurableSpec::new(&dir))
            .unwrap();
        let big = SPARE_PAYLOAD_MAX + 4096;
        broker.publish(event("ops", 1)).unwrap();
        broker
            .publish(Event::new("ops", "F", vec![2; big]))
            .unwrap();
        for n in 3..=200 {
            broker.publish(event("ops", n)).unwrap();
        }
        let mut replay = broker.subscribe_replay("ops", 1).unwrap();
        for seq in 1..=200u64 {
            let event = replay.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(event.seq, seq);
            if seq == 2 {
                assert_eq!(event.payload.len(), big);
            } else {
                assert!(event.payload.capacity() <= SPARE_PAYLOAD_MAX, "seq {seq}");
            }
        }
        let mut replay = broker.subscribe_replay("ops", 1).unwrap();
        let mut out = Vec::new();
        let mut next = 1;
        while next <= 200 {
            replay
                .recv_batch(&mut out, FORWARD_BATCH, Duration::from_secs(5))
                .unwrap();
            for event in &out {
                assert_eq!(event.seq, next);
                if next > 2 {
                    assert!(event.payload.capacity() <= SPARE_PAYLOAD_MAX, "seq {next}");
                }
                next += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_malformed_archived_record_fails_every_later_receive() {
        // Seq 1 passes the log's CRC but is shorter than the record
        // header; seq 2 is well formed. Seq 2 must not be served as if
        // seq 1 were not there.
        let dir = temp_dir("malformed");
        {
            let mut log = SegmentLog::open(&dir, SegLogConfig::default()).unwrap();
            log.append(1, b"\x05").unwrap();
            log.append(2, &[&1u16.to_le_bytes()[..], b"F", b"payload"].concat())
                .unwrap();
        }
        let broker = Broker::new();
        let recovered = broker
            .create_stream_durable("ops", StreamConfig::default(), DurableSpec::new(&dir))
            .unwrap();
        assert_eq!(recovered, 2);
        let mut replay = broker.subscribe_replay("ops", 1).unwrap();
        // Each receive is checked before the next is made, so a second
        // receive that serves seq 2 fails here rather than leaving the
        // blocking `recv` to wait on an idle live feed.
        let bad = |got: Result<u64, BackboneError>| match got {
            Err(BackboneError::BadFrame { detail }) => {
                assert_eq!(detail, "archived record seq 1 shorter than its header")
            }
            other => panic!("{other:?}"),
        };
        bad(replay.recv_timeout(Duration::from_secs(1)).map(|e| e.seq));
        bad(replay.recv_timeout(Duration::from_secs(1)).map(|e| e.seq));
        bad(replay.recv().map(|e| e.seq));
        let mut out = Vec::new();
        bad(replay
            .recv_batch(&mut out, FORWARD_BATCH, Duration::from_secs(1))
            .map(|()| 0));
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
        broker
            .publish_handle("mirror")
            .unwrap()
            .forward([Arc::new(event)])
            .unwrap();
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
        let subs: Vec<_> = (0..32)
            .map(|i| broker.subscribe(&format!("s{i}")).unwrap())
            .collect();
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
        let by_dest = broker
            .subscribe_filtered("ticks", "dest == \"ATL\"")
            .unwrap();

        broker
            .publish(Event::new("ticks", "Tick", tick_message(150, "ATL")))
            .unwrap();

        // Swap the stream's type: `price` survives, `dest` is gone.
        // The retype travels the shard queue, so it lands between the
        // old-type publish above and the new-type publish below.
        broker
            .register_stream_type("ticks", evolved_tick_type())
            .unwrap();
        broker
            .publish(Event::new("ticks", "Tick", evolved_tick_message(200, 3)))
            .unwrap();
        broker
            .publish(Event::new("ticks", "Tick", evolved_tick_message(50, 4)))
            .unwrap();

        // The price predicate was recompiled against the new type: it
        // keeps matching new-format events (the old compiled program
        // carries the old fingerprint and could never match them).
        assert_eq!(
            by_price
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .payload,
            tick_message(150, "ATL")
        );
        assert_eq!(
            by_price
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .payload,
            evolved_tick_message(200, 3)
        );
        assert!(by_price.try_recv().is_none(), "price 50 must not match");

        // The dest predicate no longer typechecks: it still gets the
        // event delivered before the swap, then the typed error.
        assert_eq!(
            by_dest
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .payload,
            tick_message(150, "ATL")
        );
        match by_dest.recv_timeout(Duration::from_secs(5)) {
            Err(BackboneError::Filter(crate::filter::FilterError::TypeChanged {
                expr,
                detail,
            })) => {
                assert_eq!(expr, "dest == \"ATL\"");
                assert!(
                    detail.contains("dest"),
                    "detail should name the lost field: {detail}"
                );
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
        let by_dest = broker
            .subscribe_filtered("ticks", "dest == \"ATL\"")
            .unwrap();
        // Re-registering an identical type is a no-op for subscribers.
        broker.register_stream_type("ticks", tick_type()).unwrap();
        broker
            .publish(Event::new("ticks", "Tick", tick_message(1, "ATL")))
            .unwrap();
        assert_eq!(
            by_dest
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .payload,
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
        let _c = broker
            .subscribe_filtered("ticks", "  price  >  100 ")
            .unwrap();
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
            Err(BackboneError::Filter(
                crate::filter::FilterError::UnknownField { .. }
            ))
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

    /// A filtered subscription dropped while a publisher holds the one
    /// shard's queue full cannot queue its unsubscribe. Its predicate
    /// never matches, so no send to it ever fails either: unless the
    /// worker learns of the loss, the entry stays and its program runs
    /// on every later event.
    #[test]
    fn a_subscription_dropped_behind_a_full_queue_stops_being_evaluated() {
        const EVENTS: u64 = 2 * SHARD_QUEUE_DEPTH as u64;
        let dir = temp_dir("lost-unsubscribe");
        let broker = Arc::new(Broker::with_shards(1));
        let spec = DurableSpec::new(&dir);
        broker
            .create_stream_durable("ticks", StreamConfig::default(), spec)
            .unwrap();
        broker.register_stream_type("ticks", tick_type()).unwrap();
        let all = broker.subscribe("ticks").unwrap();
        let never = broker
            .subscribe_filtered("ticks", "price > 1000000")
            .unwrap();
        let held = broker.compile_filter("ticks", "price > 1000000").unwrap();
        let (shard, meta) = broker.lookup("ticks").unwrap();
        // Holding the log stops the worker at its first append; the
        // queue fills behind it and stays full.
        let log = Arc::clone(&meta.durable.as_ref().unwrap().log);
        let held_log = log.lock().unwrap();
        let published = Arc::new(AtomicU64::new(0));
        let publisher = {
            let (broker, published) = (Arc::clone(&broker), Arc::clone(&published));
            std::thread::spawn(move || {
                let handle = broker.publish_handle("ticks").unwrap();
                for n in 0..EVENTS {
                    handle
                        .publish("Tick".into(), tick_message(n as i64, "ATL"))
                        .unwrap();
                    published.store(n + 1, Ordering::SeqCst);
                }
            })
        };
        while published.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // Full, and past the worker's one drain: a probe that finds room
        // is itself an unsubscribe of nobody.
        let mut probes = 0;
        loop {
            let probe = ShardMsg::Unsubscribe {
                stream: Arc::clone(&meta.name),
                id: u64::MAX,
            };
            if shard.tx.try_send(probe) {
                probes += 1;
            } else if published.load(Ordering::SeqCst) + probes > SHARD_QUEUE_DEPTH as u64 {
                break;
            }
            std::thread::yield_now();
        }
        drop(never);
        drop(held_log);
        publisher.join().unwrap();
        for _ in 0..EVENTS {
            all.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        let before = held.stats().evals;
        for n in 0..100 {
            broker
                .publish(Event::new("ticks", "Tick", tick_message(n, "ATL")))
                .unwrap();
        }
        for _ in 0..100 {
            all.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(
            held.stats().evals,
            before,
            "a dropped subscription's program still runs"
        );
        drop(all);
        drop(broker);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The other order of the same loss: the subscription is dropped
    /// while its own `Subscribe` still waits in the full queue, so the
    /// worker's sweep for the lost unsubscribe runs before the entry is
    /// filed. The entry must not be filed closed.
    #[test]
    fn a_subscription_dropped_before_its_subscribe_is_applied_is_never_evaluated() {
        let dir = temp_dir("lost-subscribe");
        let broker = Broker::with_shards(1);
        let spec = DurableSpec::new(&dir);
        broker
            .create_stream_durable("ticks", StreamConfig::default(), spec)
            .unwrap();
        broker.register_stream_type("ticks", tick_type()).unwrap();
        let all = broker.subscribe("ticks").unwrap();
        let (shard, meta) = broker.lookup("ticks").unwrap();
        let probe = || ShardMsg::Unsubscribe {
            stream: Arc::clone(&meta.name),
            id: u64::MAX,
        };
        // Holding the log stops the worker at its first append, inside
        // its first batch: that batch is at most the first
        // DISPATCH_BATCH messages, so the Subscribe queued after them
        // waits for a later one.
        let log = Arc::clone(&meta.durable.as_ref().unwrap().log);
        let held_log = log.lock().unwrap();
        broker
            .publish(Event::new("ticks", "Tick", tick_message(0, "ATL")))
            .unwrap();
        for _ in 1..DISPATCH_BATCH {
            shard.tx.send(probe()).unwrap();
        }
        let never = broker
            .subscribe_filtered("ticks", "price > 1000000")
            .unwrap();
        let held = broker.compile_filter("ticks", "price > 1000000").unwrap();
        while shard.tx.try_send(probe()) {}
        drop(never);
        drop(held_log);
        for n in 1..=100 {
            broker
                .publish(Event::new("ticks", "Tick", tick_message(n, "ATL")))
                .unwrap();
        }
        for _ in 0..=100 {
            all.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(
            held.stats().evals,
            0,
            "a subscription dropped before it was filed is evaluated"
        );
        drop(all);
        drop(broker);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `tick_type` with one more field: every predicate over `price` and
    /// `dest` rebinds across a swap between the two.
    fn wide_tick_type() -> clayout::StructType {
        let mut st = tick_type();
        st.fields.push(clayout::StructField::new(
            "qty",
            clayout::CType::Prim(clayout::Primitive::UInt),
        ));
        st
    }

    /// Subscribers that share programs come and go — subscribe,
    /// unsubscribe, drop — and the stream's type swaps back and forth,
    /// all between publishes on one shard. Every subscriber receives
    /// exactly the events its predicate accepts while it is subscribed,
    /// in order; a program whose subscribers are all gone is no longer
    /// evaluated.
    #[test]
    fn subscriber_churn_keeps_every_delivery_and_retires_unused_programs() {
        const EXPRS: [&str; 4] = [
            "price > 100",
            "dest == \"ATL\"",
            "price BETWEEN 0 AND 50 || dest ^= \"B\"",
            "price >= 20 && price < 140 && !(dest IN (\"SFO\", \"ATL\"))",
        ];
        const DESTS: [&str; 5] = ["ATL", "BOS", "SFO", "B", ""];
        struct Live {
            program: usize,
            sub: Subscription,
            want: Vec<Vec<u8>>,
        }
        let broker = Broker::with_shards(1);
        broker.create_stream("ticks", None);
        let types = [tick_type(), wide_tick_type()];
        let mut current = 0;
        broker
            .register_stream_type("ticks", types[current].clone())
            .unwrap();
        let formats = types.clone().map(|st| {
            pbio::format::Format::new(pbio::format::FormatId(7), st, clayout::Architecture::host())
                .unwrap()
        });
        let all = broker.subscribe("ticks").unwrap();
        let mut live: Vec<Live> = Vec::new();
        let mut mix = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            mix ^= mix << 13;
            mix ^= mix >> 7;
            mix ^= mix << 17;
            mix % n
        };
        let published = std::cell::Cell::new(0);
        let publish = |live: &mut Vec<Live>, current: usize, price: i64, dest: &str| {
            let mut record = clayout::Record::new();
            record.set("price", clayout::Value::Int(price));
            record.set("dest", clayout::Value::String(dest.to_owned()));
            record.set("qty", clayout::Value::UInt(price.unsigned_abs()));
            let payload = pbio::ndr::encode(&record, &formats[current]).unwrap();
            for entry in live.iter_mut() {
                let filter = broker
                    .compile_filter("ticks", EXPRS[entry.program])
                    .unwrap();
                if filter.eval_record(&record) {
                    entry.want.push(payload.clone());
                }
            }
            broker
                .publish(Event::new("ticks", "Tick", payload))
                .unwrap();
            published.set(published.get() + 1);
        };
        for _ in 0..600 {
            match next(20) {
                0..=3 => {
                    let program = next(EXPRS.len() as u64) as usize;
                    let sub = broker.subscribe_filtered("ticks", EXPRS[program]).unwrap();
                    live.push(Live {
                        program,
                        sub,
                        want: Vec::new(),
                    });
                }
                4 | 5 if !live.is_empty() => {
                    let entry = live.swap_remove(next(live.len() as u64) as usize);
                    let got: Vec<_> = entry
                        .sub
                        .unsubscribe()
                        .into_iter()
                        .map(|event| event.payload.clone())
                        .collect();
                    assert_eq!(got, entry.want, "{}", EXPRS[entry.program]);
                }
                6 if !live.is_empty() => {
                    drop(live.swap_remove(next(live.len() as u64) as usize));
                }
                7 => {
                    current = 1 - current;
                    broker
                        .register_stream_type("ticks", types[current].clone())
                        .unwrap();
                }
                _ => {
                    for _ in 0..1 + next(8) {
                        let price = next(200) as i64 - 20;
                        publish(&mut live, current, price, DESTS[next(5) as usize]);
                    }
                }
            }
        }
        // Retire the first program: its subscribers leave, half of them
        // by drop.
        let (retired, kept): (Vec<Live>, Vec<Live>) =
            live.into_iter().partition(|entry| entry.program == 0);
        for (k, entry) in retired.into_iter().enumerate() {
            if k % 2 == 0 {
                drop(entry);
            } else {
                let got: Vec<_> = entry
                    .sub
                    .unsubscribe()
                    .into_iter()
                    .map(|event| event.payload.clone())
                    .collect();
                assert_eq!(got, entry.want, "{}", EXPRS[0]);
            }
        }
        let mut live = kept;
        if !live.iter().any(|entry| entry.program == 1) {
            let sub = broker.subscribe_filtered("ticks", EXPRS[1]).unwrap();
            live.push(Live {
                program: 1,
                sub,
                want: Vec::new(),
            });
        }
        let evals = |program: usize| {
            let filter = broker.compile_filter("ticks", EXPRS[program]).unwrap();
            filter.stats().evals
        };
        // Once the unfiltered subscriber holds an event, every program
        // has counted it.
        for _ in 0..published.get() {
            all.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        let (retired_before, kept_before) = (evals(0), evals(1));
        for n in 0..50 {
            publish(&mut live, current, 150 + n, "ATL");
        }
        for _ in 0..50 {
            all.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(
            evals(0),
            retired_before,
            "a program without subscribers ran"
        );
        assert_eq!(evals(1), kept_before + 50);
        for entry in live {
            let got: Vec<_> = entry
                .sub
                .unsubscribe()
                .into_iter()
                .map(|event| event.payload.clone())
                .collect();
            assert_eq!(got, entry.want, "{}", EXPRS[entry.program]);
        }
    }
}
