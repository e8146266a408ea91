//! Broker-to-broker federation: aggregated per-stream links with
//! durable catch-up.
//!
//! The paper's backbone (§2) is system-wide: capture points and display
//! points hang off *different* brokers (per concourse, per data center),
//! and events must travel between them without every remote subscriber
//! opening its own firehose. A [`FederationLink`] is the answer to the
//! fan-out half of that problem, and the segment log
//! ([`xml2wire::seglog`]) to the durability half:
//!
//! * **Once per link, not once per subscriber.** The link subscribes to
//!   each configured stream *once* on the serving broker; the serving
//!   side runs one forwarder per (connection, stream) and each event
//!   crosses the TCP link exactly once regardless of how many local
//!   subscribers the receiving broker fans it out to. The
//!   [`NetStats::frames_written`](crate::NetStats) counter on the
//!   serving side is the observable proof.
//! * **A batch at a time, each byte touched once.** A forwarder takes
//!   whatever its subscription already holds (never waiting to fill a
//!   batch) and writes those events straight into one contiguous wire
//!   block; the block — not a frame per event — is what the transport
//!   admits, queues and hands the kernel, as one slice. A full
//!   connection queue is waited out on the transport's own progress,
//!   not slept through. The link reads the socket in large chunks into
//!   one window, parses every event where it lies, keeps one *route*
//!   per subscribed stream (the local stream's pinned publish handle,
//!   the last format name, the last seq seen) and republishes all the
//!   events of one socket read with one hand-off per stream to the
//!   local shard queue — never blocking on the socket while it holds
//!   parsed events. A live event costs two allocations on each side of
//!   the hop and nothing else that is not shared by its batch. An event
//!   replayed from a durable stream's log costs none on the serving
//!   side: the forwarder hands each drained batch back to its replay
//!   subscription, which overwrites those events with the next records.
//! * **Sequence numbers travel with events.** A durable stream's events
//!   keep the origin-assigned seq across hops, so dedup at the
//!   replay/live boundary is exact *anywhere* downstream, not just at
//!   the origin.
//! * **Link loss is survived, not hidden.** The serving side learns of
//!   a dead link from the transport's close notification (no
//!   heartbeats) and reaps its forwarders; the consuming side
//!   reconnects under the same jittered-exponential backoff discipline
//!   the discovery chain uses ([`DiscoveryPolicy`]), resubscribing from
//!   the last sequence it durably observed — the kill-a-broker
//!   scenario test drives exactly this path and asserts zero loss and
//!   zero duplication.
//!
//! ## Wire protocol
//!
//! Unchanged by the batching above — a block is nothing but its
//! events' frames end to end, and a golden-bytes test pins them — so
//! brokers and links of different builds interoperate. Four reserved
//! control streams ride the ordinary framed transport:
//!
//! | frame stream     | payload                                                    | direction |
//! |------------------|------------------------------------------------------------|-----------|
//! | `x2w.fed.sub`    | `u64 LE from_seq ∥ u16 LE stream len ∥ stream ∥ predicate` | link → broker |
//! | `x2w.fed.unsub`  | `stream name`                                              | link → broker |
//! | `x2w.fed.subok`  | `u64 LE cutover seq ∥ stream name`                         | broker → link |
//! | `x2w.fed.suberr` | `u16 LE stream len ∥ stream ∥ error text`                  | broker → link |
//!
//! A subscription's predicate (usually empty) is a [`crate::filter`]
//! expression the serving broker compiles against the stream's
//! registered struct type and evaluates **before** frames reach the
//! wire — filtering is pushed upstream of the link, so a 1%-selective
//! subscriber costs 1% of the link bandwidth. A predicate the serving
//! broker cannot compile (no registered type, parse/typecheck failure)
//! is refused with `x2w.fed.suberr`; the link counts it and falls back
//! to an unfiltered subscription, because downstream filtering is an
//! optimization, never a correctness requirement.
//!
//! Forwarded events use the stream's own name as the frame stream and
//! the payload `u64 LE seq ∥ u8 hops ∥ u16 LE format-name len ∥
//! format name ∥ event payload`. The hop count is incremented by each
//! link that republishes the event; a link drops events that arrive at
//! its configured ceiling ([`LinkConfig::max_hops`]), which is what
//! keeps frames from circulating forever in cyclic (mesh) topologies —
//! seq-based dedup only protects durable traffic.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xml2wire::DiscoveryPolicy;

use crate::broker::{Broker, Event, PublishHandle, ReplaySubscription, Subscription};
use crate::error::BackboneError;
use crate::filter::StreamFilter;
use crate::net::{
    Block, ClientCloser, CloseHandler, ConnId, EventClient, EventServer, Frame, NetConfig,
    Refused, RoutedHandler, ServerHandle,
};
use crate::unpoisoned;

/// Control stream: a link's aggregated subscription request.
const FED_SUB: &str = "x2w.fed.sub";
/// Control stream: a link's unsubscribe request.
const FED_UNSUB: &str = "x2w.fed.unsub";
/// Control stream: the serving broker's subscription acknowledgement.
const FED_SUBOK: &str = "x2w.fed.subok";
/// Control stream: the serving broker's refusal of a subscription's
/// predicate (the subscription itself is *not* established; the link
/// retries without the predicate).
const FED_SUBERR: &str = "x2w.fed.suberr";

/// How long a forwarder waits on its subscription per stop-flag check.
/// Bounds both reaction time to link loss and the cost of a clean stop.
const FORWARD_TICK: Duration = Duration::from_millis(25);

/// How many queued events a forwarder drains into one wire block.
/// Bounds per-block memory while letting a replay catch-up burst cross
/// as a few pushes instead of one push per event.
pub(crate) const FORWARD_BATCH: usize = 64;

/// A block is also closed once it holds this many wire bytes, so a
/// batch of large events does not become one oversized allocation.
const FORWARD_BLOCK_BYTES: usize = 64 * 1024;

/// Default [`LinkConfig::max_hops`]: far above any sane federation
/// diameter, small enough that an accidental cycle self-extinguishes.
const DEFAULT_MAX_HOPS: u8 = 8;

/// Seed of a link's reconnect jitter.
const JITTER_SEED: u64 = 0x5EED_11AC;

/// Bound on the exponential-backoff retry index so reconnect sleeps
/// plateau at the policy's `backoff_max` instead of overflowing.
const MAX_BACKOFF_ATTEMPT: u32 = 16;

/// Appends a forwarded event's frame to `block`, straight from the
/// event: `seq ∥ hops ∥ format-name len ∥ format name ∥ payload` under
/// the stream's own frame name. The one writer of that wire image.
fn put_event(block: &mut Block, event: &Event) {
    let name = event.format_name.as_bytes();
    block.push_with(&event.stream, 11 + name.len() + event.payload.len(), |bytes| {
        bytes.extend_from_slice(&event.seq.to_le_bytes());
        bytes.push(event.hops);
        bytes.extend_from_slice(&(name.len() as u16).to_le_bytes());
        bytes.extend_from_slice(name);
        bytes.extend_from_slice(&event.payload);
    });
}

/// Reads a forwarded event's frame payload in place: `(seq, hops,
/// message)`, with the format name left in `format_name` — the `Arc`
/// already there when the bytes repeat it (one link stream is in
/// practice one format), a new one otherwise. `None` for a payload
/// shorter than its header, one that truncates its format name, or a
/// format name that is not UTF-8.
fn decode_event<'a>(payload: &'a [u8], format_name: &mut Arc<str>) -> Option<(u64, u8, &'a [u8])> {
    let (seq, rest) = payload.split_first_chunk::<8>()?;
    let (&hops, rest) = rest.split_first()?;
    let (name_len, rest) = rest.split_first_chunk::<2>()?;
    let (name, message) = rest.split_at_checked(usize::from(u16::from_le_bytes(*name_len)))?;
    if format_name.as_bytes() != name {
        *format_name = std::str::from_utf8(name).ok()?.into();
    }
    Some((u64::from_le_bytes(*seq), hops, message))
}

/// Encodes a `u64 ∥ stream name` control payload (`x2w.fed.subok`).
fn encode_control(seq: u64, stream: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + stream.len());
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(stream.as_bytes());
    payload
}

/// Decodes a `u64 ∥ stream name` control payload.
fn decode_control(payload: &[u8]) -> Option<(u64, &str)> {
    if payload.len() < 8 {
        return None;
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().expect("length checked"));
    std::str::from_utf8(&payload[8..]).ok().map(|name| (seq, name))
}

/// Encodes a `x2w.fed.sub` payload: `from_seq ∥ stream len ∥ stream ∥
/// predicate` (the predicate may be empty — an unfiltered subscription).
fn encode_sub(from_seq: u64, stream: &str, predicate: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(10 + stream.len() + predicate.len());
    payload.extend_from_slice(&from_seq.to_le_bytes());
    payload.extend_from_slice(&(stream.len() as u16).to_le_bytes());
    payload.extend_from_slice(stream.as_bytes());
    payload.extend_from_slice(predicate.as_bytes());
    payload
}

/// Decodes a `x2w.fed.sub` payload into `(from_seq, stream, predicate)`.
fn decode_sub(payload: &[u8]) -> Option<(u64, &str, &str)> {
    if payload.len() < 10 {
        return None;
    }
    let from_seq = u64::from_le_bytes(payload[..8].try_into().expect("length checked"));
    let stream_len = usize::from(u16::from_le_bytes([payload[8], payload[9]]));
    let rest = payload.get(10..)?;
    if rest.len() < stream_len {
        return None;
    }
    let stream = std::str::from_utf8(&rest[..stream_len]).ok()?;
    let predicate = std::str::from_utf8(&rest[stream_len..]).ok()?;
    Some((from_seq, stream, predicate))
}

/// Encodes a `x2w.fed.suberr` payload: `stream len ∥ stream ∥ error`.
fn encode_suberr(stream: &str, detail: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(2 + stream.len() + detail.len());
    payload.extend_from_slice(&(stream.len() as u16).to_le_bytes());
    payload.extend_from_slice(stream.as_bytes());
    payload.extend_from_slice(detail.as_bytes());
    payload
}

/// Decodes a `x2w.fed.suberr` payload into `(stream, error text)`.
fn decode_suberr(payload: &[u8]) -> Option<(&str, &str)> {
    if payload.len() < 2 {
        return None;
    }
    let stream_len = usize::from(u16::from_le_bytes([payload[0], payload[1]]));
    let rest = payload.get(2..)?;
    if rest.len() < stream_len {
        return None;
    }
    let stream = std::str::from_utf8(&rest[..stream_len]).ok()?;
    let detail = std::str::from_utf8(&rest[stream_len..]).ok()?;
    Some((stream, detail))
}

/// Either face of a serving-side subscription: catch-up replay for
/// durable streams, plain live for the rest. The replay is boxed: it
/// carries its read window's cursor and spare events, several times a
/// live subscription's size.
enum Feed {
    Replay(Box<ReplaySubscription>),
    Live(Subscription),
}

impl Feed {
    /// Refills `out` with the next batch — up to [`FORWARD_BATCH`]
    /// events, archived history first, waiting at most a
    /// [`FORWARD_TICK`] when there is nothing (see
    /// [`Subscription::recv_batch`]).
    fn recv_batch(&mut self, out: &mut Vec<Arc<Event>>) -> Result<(), BackboneError> {
        match self {
            Feed::Replay(sub) => sub.recv_batch(out, FORWARD_BATCH, FORWARD_TICK),
            Feed::Live(sub) => sub.recv_batch(out, FORWARD_BATCH, FORWARD_TICK),
        }
    }
}

/// One serving-side forwarder: the thread pumping a local subscription
/// onto a link connection, plus the flag that stops it.
struct Forwarder {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Forwarder {
    /// Signals the pump to stop without waiting for it — the transport's
    /// close callback must not block; the thread notices within one
    /// [`FORWARD_TICK`] and exits on its own.
    fn stop_detached(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        drop(self.thread.take()); // detach
    }

    fn stop_joined(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

type ForwarderMap = Mutex<HashMap<(ConnId, String), Forwarder>>;

/// The serving half of federation: wraps a local [`Broker`] in an
/// [`EventServer`] that speaks the federation protocol. Remote
/// [`FederationLink`]s connect here; each of their stream subscriptions
/// becomes one local subscription (replay-backed when the stream is
/// durable) pumped over the link by a dedicated forwarder.
pub struct FederatedBroker {
    server: EventServer,
    broker: Arc<Broker>,
    forwarders: Arc<ForwarderMap>,
}

impl std::fmt::Debug for FederatedBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederatedBroker")
            .field("addr", &self.server.local_addr())
            .finish_non_exhaustive()
    }
}

impl FederatedBroker {
    /// Exposes `broker` for federation on `addr`.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn bind(
        broker: Arc<Broker>,
        addr: impl std::net::ToSocketAddrs,
        config: NetConfig,
    ) -> Result<Self, BackboneError> {
        let forwarders: Arc<ForwarderMap> = Arc::new(Mutex::new(HashMap::new()));
        // The handler needs the push handle, which exists only after
        // bind: a OnceLock filled immediately after closes the loop (a
        // subscribe racing the fill spins briefly in handle_subscribe).
        let handle_slot: Arc<std::sync::OnceLock<ServerHandle>> =
            Arc::new(std::sync::OnceLock::new());
        let handler: RoutedHandler = {
            let broker = Arc::clone(&broker);
            let forwarders = Arc::clone(&forwarders);
            let handle_slot = Arc::clone(&handle_slot);
            Arc::new(move |conn, frame| match frame.stream.as_str() {
                FED_SUB => handle_subscribe(
                    &broker,
                    &forwarders,
                    &handle_slot,
                    conn,
                    &frame.payload,
                ),
                FED_UNSUB => {
                    if let Ok(name) = std::str::from_utf8(&frame.payload) {
                        let key = (conn, name.to_owned());
                        if let Some(fwd) = unpoisoned(forwarders.lock()).remove(&key) {
                            fwd.stop_detached();
                        }
                    }
                    None
                }
                // Anything else is not federation traffic; ignore it
                // rather than tearing the link down.
                _ => None,
            })
        };
        let on_close: CloseHandler = {
            let forwarders = Arc::clone(&forwarders);
            Arc::new(move |conn| {
                // Runs on a transport thread: signal, never join.
                let mut map = unpoisoned(forwarders.lock());
                let keys: Vec<(ConnId, String)> =
                    map.keys().filter(|(c, _)| *c == conn).cloned().collect();
                for key in keys {
                    if let Some(fwd) = map.remove(&key) {
                        fwd.stop_detached();
                    }
                }
            })
        };
        let server = EventServer::bind(addr, handler, Some(on_close), config)?;
        let _ = handle_slot.set(server.handle());
        Ok(FederatedBroker { server, broker, forwarders })
    }

    /// The address links connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The wrapped broker.
    pub fn broker(&self) -> &Arc<Broker> {
        &self.broker
    }

    /// Transport counters — [`NetStats::frames_written`](crate::NetStats)
    /// here is the once-per-link evidence: it counts events that crossed
    /// the wire, independent of downstream fan-out.
    pub fn net_stats(&self) -> crate::NetStats {
        self.server.net_stats()
    }

    /// Number of live forwarders (one per (connection, stream)).
    pub fn forwarder_count(&self) -> usize {
        unpoisoned(self.forwarders.lock()).len()
    }
}

impl Drop for FederatedBroker {
    fn drop(&mut self) {
        // Stop forwarders first so nothing pushes at a dying server,
        // then let the server drop join its transport threads (its
        // close callbacks find an empty map).
        let drained: Vec<Forwarder> = {
            let mut map = unpoisoned(self.forwarders.lock());
            map.drain().map(|(_, fwd)| fwd).collect()
        };
        for fwd in drained {
            fwd.stop_joined();
        }
    }
}

/// Serves one `x2w.fed.sub`: compiles the predicate (if any), then
/// subscribes locally (replay-from-seq when the stream is durable) and
/// spawns the forwarder pump. Replies `x2w.fed.subok` carrying the
/// replay cutover seq (0 when live-only), or `x2w.fed.suberr` when the
/// predicate does not compile (no forwarder is created — the link
/// resubscribes without it).
fn handle_subscribe(
    broker: &Arc<Broker>,
    forwarders: &Arc<ForwarderMap>,
    handle_slot: &Arc<std::sync::OnceLock<ServerHandle>>,
    conn: ConnId,
    payload: &[u8],
) -> Option<Frame> {
    let (from_seq, name, predicate) = decode_sub(payload)?;
    let key = (conn, name.to_owned());
    if unpoisoned(forwarders.lock()).contains_key(&key) {
        // Duplicate subscribe on a live link: the existing forwarder
        // already covers it; re-acking keeps the operation idempotent.
        return Some(Frame::new(FED_SUBOK, encode_control(0, name)));
    }
    // Compile before subscribing, so a refused predicate leaves no
    // dangling local subscription behind.
    let filter = if predicate.is_empty() {
        None
    } else {
        match broker.compile_filter(name, predicate) {
            Ok(filter) => Some(filter),
            Err(err) => {
                return Some(Frame::new(FED_SUBERR, encode_suberr(name, &err.to_string())))
            }
        }
    };
    let (feed, cutover) = match broker.subscribe_replay(name, from_seq) {
        Ok(replay) => {
            let cutover = replay.cutover_seq();
            (Feed::Replay(Box::new(replay)), cutover)
        }
        Err(BackboneError::NotDurable { .. }) => match broker.subscribe(name) {
            Ok(live) => (Feed::Live(live), 0),
            Err(_) => return None,
        },
        Err(_) => return None,
    };
    // The handle is set right after bind returns; a subscribe arriving
    // in that window waits it out.
    let handle = loop {
        match handle_slot.get() {
            Some(handle) => break handle.clone(),
            None => std::thread::sleep(Duration::from_millis(1)),
        }
    };
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name(format!("fed-forward-{conn}"))
            .spawn(move || forward_loop(feed, filter, &handle, conn, &stop))
            .ok()?
    };
    unpoisoned(forwarders.lock()).insert(key, Forwarder { stop, thread: Some(thread) });
    Some(Frame::new(FED_SUBOK, encode_control(cutover, name)))
}

/// The forwarder pump: local subscription → link connection, a batch
/// at a time, until stopped (link closed, unsubscribe, server drop),
/// the broker disconnects, or the transport reports the push dead.
///
/// The pump takes whatever the subscription already holds (up to
/// [`FORWARD_BATCH`]; it blocks up to one [`FORWARD_TICK`] only on an
/// empty queue) and writes those events straight into one contiguous
/// wire block, which is what it hands the transport: one admission,
/// one inbox entry, at most one waker write and one `IoSlice` for the
/// whole batch, and no per-event frame in between. Nothing lingers to
/// fill a batch. Events a predicate-scoped subscription does not match
/// are dropped here, before they ever reach the wire. The batch stays
/// in `batch` until the next refill, where a replay subscription takes
/// its events back to overwrite.
fn forward_loop(
    mut feed: Feed,
    filter: Option<Arc<StreamFilter>>,
    handle: &ServerHandle,
    conn: ConnId,
    stop: &AtomicBool,
) {
    let mut batch: Vec<Arc<Event>> = Vec::with_capacity(FORWARD_BATCH);
    // The indices of the batch's events the predicate accepts.
    let mut keep: Vec<usize> = Vec::with_capacity(if filter.is_some() { FORWARD_BATCH } else { 0 });
    // Each block is sized for the largest so far (a batch and a byte
    // cap bound it): a steady stream pays one allocation per block, not
    // a doubling series.
    let mut block_bytes = 0;
    while !stop.load(Ordering::SeqCst) {
        // On an error (broker shut down, corrupt archive) the batch
        // holds what was read before it: forward that, then stop.
        let fed = feed.recv_batch(&mut batch);
        let mut block = Block::with_capacity(if batch.is_empty() { 0 } else { block_bytes });
        keep.clear();
        if let Some(filter) = &filter {
            let messages = batch.iter().map(|event| event.payload.as_slice());
            filter.select(messages.enumerate(), &mut keep);
        }
        // Unfiltered, the whole batch goes.
        let all = if filter.is_none() { batch.len() } else { 0 };
        for event in (0..all).chain(keep.iter().copied()).map(|k| &batch[k]) {
            put_event(&mut block, event);
            if block.len() >= FORWARD_BLOCK_BYTES
                && !push_block(handle, conn, std::mem::take(&mut block), stop)
            {
                return;
            }
        }
        block_bytes = block_bytes.max(block.len());
        if (block.frames() > 0 && !push_block(handle, conn, block, stop)) || fed.is_err() {
            return;
        }
    }
}

/// Hands one block to the transport without loss or reorder. A full
/// queue is backpressure, not loss — a replay catch-up burst outruns
/// the wire by orders of magnitude, and dropping here would shed
/// exactly the events the durable log just promised — so the pump
/// keeps the refused block and offers it again; each offer waits
/// (boundedly, so `stop` is still seen) on the connection's own drain,
/// not on a timer. Returns `false` when stopped, or when the
/// connection (or server) is definitively gone.
fn push_block(handle: &ServerHandle, conn: ConnId, mut block: Block, stop: &AtomicBool) -> bool {
    while !stop.load(Ordering::SeqCst) {
        match handle.push(conn, block) {
            Ok(()) => return true,
            Err((Refused::Busy, refused)) => block = refused,
            Err((Refused::Gone, _)) => return false,
        }
    }
    false
}

/// Configuration for one [`FederationLink`].
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Streams to pull from the remote broker. One link-side
    /// subscription each — local fan-out happens on the local broker.
    pub streams: Vec<String>,
    /// Per-stream predicates ([`crate::filter`] expressions) the
    /// serving broker evaluates *before* frames reach the wire. A
    /// predicate the remote refuses (`x2w.fed.suberr`) is dropped and
    /// the stream resubscribed unfiltered — filtering upstream is an
    /// optimization, never a correctness requirement.
    pub filters: HashMap<String, String>,
    /// Reconnect backoff discipline (`backoff_base`/`backoff_max`
    /// drive the jittered-exponential sleeps between attempts).
    pub policy: DiscoveryPolicy,
    /// Hop ceiling: events arriving over the link with this many hops
    /// already on them are dropped (counted in
    /// [`LinkStats::cycle_drops`]) instead of being republished, so a
    /// cyclic broker topology cannot circulate a frame forever.
    /// Defaults to [`DEFAULT_MAX_HOPS`].
    pub max_hops: u8,
}

impl LinkConfig {
    /// A config pulling `streams` under the default backoff policy.
    pub fn new<S: Into<String>>(streams: impl IntoIterator<Item = S>) -> Self {
        LinkConfig {
            streams: streams.into_iter().map(Into::into).collect(),
            filters: HashMap::new(),
            policy: DiscoveryPolicy::default(),
            max_hops: DEFAULT_MAX_HOPS,
        }
    }

    /// Sets the forwarded-event hop ceiling.
    #[must_use]
    pub fn with_max_hops(mut self, max_hops: u8) -> Self {
        self.max_hops = max_hops;
        self
    }
}

/// Link counters (the `DiscoveryStats` pattern at the federation layer).
#[derive(Debug, Default)]
struct LinkCounters {
    connects: AtomicU64,
    reconnect_attempts: AtomicU64,
    events_forwarded: AtomicU64,
    duplicates_dropped: AtomicU64,
    cycle_drops: AtomicU64,
    filter_rejected: AtomicU64,
    protocol_errors: AtomicU64,
    connected: AtomicBool,
}

/// A point-in-time snapshot of a link's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStats {
    /// Successful link establishments (1 for a healthy link; each
    /// reconnect adds one).
    pub connects: u64,
    /// Connection attempts that followed a loss (includes failures).
    pub reconnect_attempts: u64,
    /// Events received over the link and republished locally.
    pub events_forwarded: u64,
    /// Events dropped as replay/reconnect duplicates (seq already seen).
    pub duplicates_dropped: u64,
    /// Events dropped at the hop ceiling ([`LinkConfig::max_hops`]) —
    /// nonzero means a cyclic topology fed this link frames that had
    /// already been around.
    pub cycle_drops: u64,
    /// Subscription predicates the serving broker refused
    /// (`x2w.fed.suberr`); each was replaced by an unfiltered
    /// subscription.
    pub filter_rejected: u64,
    /// Malformed frames ignored.
    pub protocol_errors: u64,
    /// Whether the link is currently up.
    pub connected: bool,
}

/// The consuming half of federation: a client of a remote
/// [`FederatedBroker`] that republishes the remote's events onto a
/// local [`Broker`], preserving origin sequence numbers.
///
/// The link owns one background thread. On connect it subscribes each
/// configured stream *from the sequence after the last one it has
/// observed*, so the serving side replays exactly the gap; on link loss
/// it reconnects under jittered-exponential backoff and resubscribes,
/// deduping any overlap by seq. Dropping the link stops the thread
/// (shutting the socket down to unblock a blocking receive).
pub struct FederationLink {
    stop: Arc<AtomicBool>,
    closer: Arc<Mutex<Option<ClientCloser>>>,
    counters: Arc<LinkCounters>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for FederationLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederationLink")
            .field("connected", &self.counters.connected.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl FederationLink {
    /// Starts a link pulling `config.streams` from the federated broker
    /// at `addr` into `broker`. The configured streams are registered
    /// on the local broker (idempotently, non-durable — the origin owns
    /// the log) so local subscribers can attach immediately; connection
    /// establishment itself happens on the link thread and is retried
    /// forever, so a link may be created before its remote is up.
    ///
    /// # Errors
    ///
    /// Propagates thread-spawn failures.
    pub fn connect(
        addr: SocketAddr,
        broker: Arc<Broker>,
        config: LinkConfig,
    ) -> Result<Self, BackboneError> {
        for stream in &config.streams {
            broker.create_stream(stream.clone(), None);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let closer: Arc<Mutex<Option<ClientCloser>>> = Arc::new(Mutex::new(None));
        let counters = Arc::new(LinkCounters::default());
        let thread = {
            let stop = Arc::clone(&stop);
            let closer = Arc::clone(&closer);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("fed-link".to_owned())
                .spawn(move || link_loop(addr, &broker, &config, &stop, &closer, &counters))?
        };
        Ok(FederationLink { stop, closer, counters, thread: Some(thread) })
    }

    /// A snapshot of the link's counters.
    pub fn stats(&self) -> LinkStats {
        LinkStats {
            connects: self.counters.connects.load(Ordering::Relaxed),
            reconnect_attempts: self.counters.reconnect_attempts.load(Ordering::Relaxed),
            events_forwarded: self.counters.events_forwarded.load(Ordering::Relaxed),
            duplicates_dropped: self.counters.duplicates_dropped.load(Ordering::Relaxed),
            cycle_drops: self.counters.cycle_drops.load(Ordering::Relaxed),
            filter_rejected: self.counters.filter_rejected.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
            connected: self.counters.connected.load(Ordering::SeqCst),
        }
    }

    /// Whether the link is currently established.
    pub fn is_connected(&self) -> bool {
        self.counters.connected.load(Ordering::SeqCst)
    }
}

impl Drop for FederationLink {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock a receive in progress; the loop re-checks `stop`
        // before any reconnect, so this ends the thread promptly.
        if let Some(closer) = unpoisoned(self.closer.lock()).as_ref() {
            closer.close();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One subscribed stream as the link thread sees it: where its events
/// go and what has been seen of it. Routes outlive connections, so a
/// reconnect resumes from `last_seen`.
struct Route {
    /// The leaf stream's pinned publish route: its canonical name (the
    /// `Arc` every republished event shares) and its shard queue.
    handle: PublishHandle,
    /// Format name of the stream's last event, shared by every event
    /// that repeats it.
    format_name: Arc<str>,
    /// Highest durable seq observed: what a (re)subscription resumes
    /// after, and what dedups replay/reconnect overlap.
    last_seen: u64,
    /// Events parsed out of the current socket read, not yet published.
    pending: Vec<Arc<Event>>,
}

/// The route for `stream` (a link subscribes a handful of streams).
fn route_for<'r>(routes: &'r mut [Route], stream: &str) -> Option<&'r mut Route> {
    routes.iter_mut().find(|route| &**route.handle.stream() == stream)
}

/// The link thread: connect → subscribe-from-last-seen → pump → on
/// loss, jittered backoff and around again.
fn link_loop(
    addr: SocketAddr,
    broker: &Arc<Broker>,
    config: &LinkConfig,
    stop: &AtomicBool,
    closer: &Mutex<Option<ClientCloser>>,
    counters: &LinkCounters,
) {
    // `connect` registered every configured stream on the local broker.
    let mut routes: Vec<Route> = config
        .streams
        .iter()
        .filter_map(|stream| broker.publish_handle(stream).ok())
        .map(|handle| Route {
            handle,
            format_name: Arc::from(""),
            last_seen: 0,
            pending: Vec::new(),
        })
        .collect();
    // Predicates the remote has refused are dropped for the life of
    // the link, so every reconnect does not replay the same refusal.
    let mut filters = config.filters.clone();
    let mut rng = StdRng::seed_from_u64(JITTER_SEED);
    let mut attempt: u32 = 0;
    while !stop.load(Ordering::SeqCst) {
        if let Ok(mut client) = EventClient::connect(addr) {
            *unpoisoned(closer.lock()) = client.closer().ok();
            if stop.load(Ordering::SeqCst) {
                break; // raced Drop: its close may have missed the slot
            }
            let subscribed = routes.iter().all(|route| {
                let stream = route.handle.stream();
                let predicate = filters.get(&**stream).map_or("", String::as_str);
                let sub = encode_sub(route.last_seen + 1, stream, predicate);
                client.send(&Frame::new(FED_SUB, sub)).is_ok()
            });
            if subscribed {
                counters.connects.fetch_add(1, Ordering::Relaxed);
                counters.connected.store(true, Ordering::SeqCst);
                attempt = 0;
                pump_link(&mut client, &mut routes, config, &mut filters, stop, counters);
                counters.connected.store(false, Ordering::SeqCst);
            }
            *unpoisoned(closer.lock()) = None;
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        attempt = (attempt + 1).min(MAX_BACKOFF_ATTEMPT);
        counters.reconnect_attempts.fetch_add(1, Ordering::Relaxed);
        let backoff = config.policy.backoff_before(attempt, rng.gen_range(0.0..1.0));
        sleep_interruptible(backoff, stop);
    }
    counters.connected.store(false, Ordering::SeqCst);
}

/// Pumps the link until it drops (or `stop` closes the socket): every
/// frame one socket read delivered is parsed where it lies in the
/// client's receive window, and the events among them are republished
/// on the local broker — origin seq kept, hop count incremented — with
/// one shard-queue batch per stream per read. Nothing parsed is ever
/// held across the next (blocking) read.
fn pump_link(
    client: &mut EventClient,
    routes: &mut [Route],
    config: &LinkConfig,
    filters: &mut HashMap<String, String>,
    stop: &AtomicBool,
    counters: &LinkCounters,
) {
    loop {
        let alive = absorb_window(client, routes, config, filters, counters);
        for route in routes.iter_mut().filter(|route| !route.pending.is_empty()) {
            let events = route.pending.len() as u64;
            // Counted before the hand-off: the shard queue's lock orders
            // this add before any delivery of the batch, so whoever
            // received an event reads a count that includes it. A failure
            // is the local broker shutting down under the link.
            counters.events_forwarded.fetch_add(events, Ordering::Relaxed);
            if route.handle.forward(route.pending.drain(..)).is_err() {
                counters.events_forwarded.fetch_sub(events, Ordering::Relaxed);
                counters.protocol_errors.fetch_add(events, Ordering::Relaxed);
            }
        }
        // A failed or empty read is link loss (or our own Drop).
        if !alive || stop.load(Ordering::SeqCst) || !matches!(client.fill(), Ok(1..)) {
            return;
        }
    }
}

/// Handles every whole frame in the client's receive window: control
/// frames are acted on, events are checked (hop ceiling, seq dedup)
/// and built — payload `Vec` and `Arc<Event>`, nothing else — onto
/// their route's pending list. Returns `false` when the link is to be
/// dropped (a malformed transport frame, a failed send).
fn absorb_window(
    client: &mut EventClient,
    routes: &mut [Route],
    config: &LinkConfig,
    filters: &mut HashMap<String, String>,
    counters: &LinkCounters,
) -> bool {
    let protocol_error = || counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
    loop {
        let (stream, payload) = match client.buffered_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => return true,
            Err(_) => return false,
        };
        if stream == FED_SUBOK {
            // The cutover seq is informational (dedup is by seq), but
            // a subok that does not even parse is a protocol error.
            if decode_control(payload).is_none() {
                protocol_error();
            }
            continue;
        }
        if stream == FED_SUBERR {
            // The serving broker refused our predicate (no registered
            // struct type, parse/typecheck failure); no subscription
            // exists yet. Fall back to an unfiltered one — upstream
            // filtering is an optimization, events must flow either
            // way — and stop offering the predicate on reconnect.
            counters.filter_rejected.fetch_add(1, Ordering::Relaxed);
            match decode_suberr(payload) {
                Some((stream, _detail)) if filters.remove(stream).is_some() => {
                    let from = route_for(routes, stream).map_or(0, |route| route.last_seen) + 1;
                    let resub = Frame::new(FED_SUB, encode_sub(from, stream, ""));
                    if client.send(&resub).is_err() {
                        return false;
                    }
                }
                _ => {
                    protocol_error();
                }
            }
            continue;
        }
        // A stream we never subscribed, or a payload that is not an
        // event: drop the frame rather than kill the link.
        let Some(route) = route_for(routes, stream) else {
            protocol_error();
            continue;
        };
        let Some((seq, hops, message)) = decode_event(payload, &mut route.format_name) else {
            protocol_error();
            continue;
        };
        if hops >= config.max_hops {
            // The frame has been around too many brokers already —
            // almost certainly a cycle (seq dedup below only protects
            // durable traffic). Extinguish it here.
            counters.cycle_drops.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if seq != 0 {
            if seq <= route.last_seen {
                counters.duplicates_dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            route.last_seen = seq;
        }
        route.pending.push(Arc::new(Event {
            stream: Arc::clone(route.handle.stream()),
            format_name: Arc::clone(&route.format_name),
            payload: message.to_vec(),
            seq,
            hops: hops + 1,
        }));
    }
}

/// Sleeps `total` in small slices, returning early when `stop` is set —
/// a link being dropped must not wait out a full backoff.
fn sleep_interruptible(total: Duration, stop: &AtomicBool) {
    let deadline = std::time::Instant::now() + total;
    while !stop.load(Ordering::SeqCst) {
        let remaining = deadline
            .checked_duration_since(std::time::Instant::now())
            .unwrap_or_default();
        if remaining.is_zero() {
            return;
        }
        std::thread::sleep(remaining.min(Duration::from_millis(10)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::DurableSpec;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "x2w-fed-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn wait_for(cond: impl Fn() -> bool) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while std::time::Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    /// `event` through the forwarder's writer, the transport's frame
    /// decoder and the link's in-place event decoder.
    fn across_the_wire(event: &Event) -> Event {
        let mut block = Block::default();
        put_event(&mut block, event);
        let mut wire = Vec::new();
        let mut machine = crate::net::ConnMachine::new();
        machine.queue_block(block);
        machine.write_some(&mut wire).unwrap();
        let (stream, payload, total) = crate::net::machine::decode_frame(&wire).unwrap().unwrap();
        assert_eq!(total, wire.len());
        let mut format_name: Arc<str> = Arc::from("");
        let (seq, hops, message) = decode_event(payload, &mut format_name).unwrap();
        Event { stream: stream.into(), format_name, payload: message.to_vec(), seq, hops }
    }

    fn decode_event_payload(payload: &[u8]) -> Option<(u64, u8, &[u8])> {
        decode_event(payload, &mut Arc::from(""))
    }

    #[test]
    fn event_frames_round_trip() {
        let event = Event::with_seq("asd", "FlightOps", vec![1, 2, 3], 42);
        let back = across_the_wire(&event);
        assert_eq!(back, event);
        // Hop counts survive the wire.
        let hopped = Event {
            stream: "asd".into(),
            format_name: "F".into(),
            payload: vec![9],
            seq: 7,
            hops: 3,
        };
        let back = across_the_wire(&hopped);
        assert_eq!(back, hopped);
    }

    #[test]
    fn malformed_event_frames_error_not_panic() {
        for payload in [vec![], vec![0; 10], {
            let mut p = vec![0; 11];
            p[9] = 0xFF; // forged format-name length
            p
        }] {
            assert!(decode_event_payload(&payload).is_none());
        }
        // Non-UTF-8 format name.
        let mut payload = 7u64.to_le_bytes().to_vec();
        payload.push(0); // hops
        payload.extend_from_slice(&2u16.to_le_bytes());
        payload.extend_from_slice(&[0xFF, 0xFE]);
        assert!(decode_event_payload(&payload).is_none());
    }

    #[test]
    fn control_payloads_round_trip() {
        let payload = encode_control(99, "wx");
        assert_eq!(decode_control(&payload), Some((99, "wx")));
        assert_eq!(decode_control(&[1, 2]), None);
    }

    #[test]
    fn sub_and_suberr_payloads_round_trip() {
        let sub = encode_sub(42, "flights", "price > 100");
        assert_eq!(decode_sub(&sub), Some((42, "flights", "price > 100")));
        let bare = encode_sub(1, "wx", "");
        assert_eq!(decode_sub(&bare), Some((1, "wx", "")));
        assert_eq!(decode_sub(&[0; 9]), None);
        // Forged stream length pointing past the payload.
        let mut forged = encode_sub(1, "wx", "");
        forged[8] = 0xFF;
        assert_eq!(decode_sub(&forged), None);

        let err = encode_suberr("wx", "no registered type");
        assert_eq!(decode_suberr(&err), Some(("wx", "no registered type")));
        assert_eq!(decode_suberr(&[9]), None);
        let mut forged = encode_suberr("wx", "");
        forged[0] = 0xFF;
        assert_eq!(decode_suberr(&forged), None);
    }

    #[test]
    fn events_cross_a_link_once_and_fan_out_locally() {
        let origin = Arc::new(Broker::new());
        origin.create_stream("asd", None);
        let fed =
            FederatedBroker::bind(Arc::clone(&origin), "127.0.0.1:0", NetConfig::default())
                .unwrap();

        let local = Arc::new(Broker::new());
        let link = FederationLink::connect(
            fed.local_addr(),
            Arc::clone(&local),
            LinkConfig::new(["asd"]),
        )
        .unwrap();
        assert!(wait_for(|| fed.forwarder_count() == 1));

        // Three local subscribers; each event must cross the wire once.
        let subs: Vec<_> = (0..3).map(|_| local.subscribe("asd").unwrap()).collect();
        for n in 0..10u8 {
            origin.publish(Event::new("asd", "F", vec![n])).unwrap();
        }
        for sub in &subs {
            for n in 0..10u8 {
                assert_eq!(
                    sub.recv_timeout(Duration::from_secs(5)).unwrap().payload,
                    vec![n]
                );
            }
        }
        // 10 events + 1 subok: the link carried each event exactly once
        // despite the 3-way local fan-out.
        assert!(wait_for(|| fed.net_stats().frames_written == 11));
        assert_eq!(link.stats().events_forwarded, 10);
        assert_eq!(link.stats().connects, 1);
    }

    #[test]
    fn durable_streams_replay_across_the_link() {
        let dir = temp_dir("replay");
        let origin = Arc::new(Broker::new());
        origin
            .create_stream_durable("flights", Default::default(), DurableSpec::new(&dir))
            .unwrap();
        // History published before any link exists.
        for n in 0..5u8 {
            origin.publish(Event::new("flights", "F", vec![n])).unwrap();
        }
        let fed =
            FederatedBroker::bind(Arc::clone(&origin), "127.0.0.1:0", NetConfig::default())
                .unwrap();

        let local = Arc::new(Broker::new());
        let sub = {
            // Subscribe locally *before* the link so nothing is missed.
            local.create_stream("flights", None);
            local.subscribe("flights").unwrap()
        };
        let _link = FederationLink::connect(
            fed.local_addr(),
            Arc::clone(&local),
            LinkConfig::new(["flights"]),
        )
        .unwrap();
        // Live traffic continues while history replays.
        assert!(wait_for(|| fed.forwarder_count() == 1));
        for n in 5..8u8 {
            origin.publish(Event::new("flights", "F", vec![n])).unwrap();
        }
        let mut seqs = Vec::new();
        for _ in 0..8 {
            let event = sub.recv_timeout(Duration::from_secs(5)).unwrap();
            seqs.push(event.seq);
        }
        // Origin-assigned seqs arrive gap-free and duplicate-free.
        assert_eq!(seqs, (1..=8).collect::<Vec<u64>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn link_survives_a_broker_restart_with_no_loss_or_duplication() {
        let dir = temp_dir("restart");
        let local = Arc::new(Broker::new());
        let origin1 = Arc::new(Broker::new());
        origin1
            .create_stream_durable("ops", Default::default(), DurableSpec::new(&dir))
            .unwrap();
        let fed1 =
            FederatedBroker::bind(Arc::clone(&origin1), "127.0.0.1:0", NetConfig::default())
                .unwrap();
        let addr = fed1.local_addr();

        let mut config = LinkConfig::new(["ops"]);
        // Tight backoff so the reconnect happens within the test budget.
        config.policy.backoff_base = Duration::from_millis(5);
        config.policy.backoff_max = Duration::from_millis(50);
        let link = FederationLink::connect(addr, Arc::clone(&local), config).unwrap();
        let sub = local.subscribe("ops").unwrap();

        assert!(wait_for(|| link.is_connected()));
        for n in 0..5u8 {
            origin1.publish(Event::new("ops", "F", vec![n])).unwrap();
        }
        assert!(wait_for(|| link.stats().events_forwarded == 5));

        // Kill the serving broker mid-conversation...
        drop(fed1);
        drop(origin1);
        assert!(wait_for(|| !link.is_connected()));
        // ...publish more history while the link is down...
        {
            let origin_gap = Arc::new(Broker::new());
            origin_gap
                .create_stream_durable("ops", Default::default(), DurableSpec::new(&dir))
                .unwrap();
            for n in 5..8u8 {
                origin_gap.publish(Event::new("ops", "F", vec![n])).unwrap();
            }
        }
        // ...and restart it on the same port with the same log.
        let origin2 = Arc::new(Broker::new());
        let recovered = origin2
            .create_stream_durable("ops", Default::default(), DurableSpec::new(&dir))
            .unwrap();
        assert_eq!(recovered, 8);
        let fed2 = FederatedBroker::bind(Arc::clone(&origin2), addr, NetConfig::default())
            .unwrap();
        assert!(wait_for(|| link.is_connected()));
        for n in 8..10u8 {
            origin2.publish(Event::new("ops", "F", vec![n])).unwrap();
        }

        // The local subscriber sees every seq exactly once, in order.
        let mut seqs = Vec::new();
        for _ in 0..10 {
            seqs.push(sub.recv_timeout(Duration::from_secs(5)).unwrap().seq);
        }
        assert_eq!(seqs, (1..=10).collect::<Vec<u64>>());
        assert!(link.stats().connects >= 2);
        drop(fed2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsubscribe_stops_forwarding() {
        let origin = Arc::new(Broker::new());
        origin.create_stream("asd", None);
        let fed =
            FederatedBroker::bind(Arc::clone(&origin), "127.0.0.1:0", NetConfig::default())
                .unwrap();
        let mut client = EventClient::connect(fed.local_addr()).unwrap();
        client.send(&Frame::new(FED_SUB, encode_sub(1, "asd", ""))).unwrap();
        let ack = client.recv().unwrap().unwrap();
        assert_eq!(ack.stream, FED_SUBOK);
        assert!(wait_for(|| fed.forwarder_count() == 1));
        client.send(&Frame::new(FED_UNSUB, b"asd".to_vec())).unwrap();
        assert!(wait_for(|| fed.forwarder_count() == 0));
    }

    #[test]
    fn dead_link_reaps_forwarders() {
        let origin = Arc::new(Broker::new());
        origin.create_stream("asd", None);
        let fed =
            FederatedBroker::bind(Arc::clone(&origin), "127.0.0.1:0", NetConfig::default())
                .unwrap();
        {
            let mut client = EventClient::connect(fed.local_addr()).unwrap();
            client.send(&Frame::new(FED_SUB, encode_sub(1, "asd", ""))).unwrap();
            let _ = client.recv().unwrap().unwrap();
            assert!(wait_for(|| fed.forwarder_count() == 1));
        }
        // Client dropped: the transport's close notification must reap.
        assert!(wait_for(|| fed.forwarder_count() == 0));
    }

    #[test]
    fn predicate_scoped_links_filter_before_the_wire() {
        use clayout::{Architecture, CType, Primitive, StructField, StructType, Value};
        use pbio::format::{Format, FormatId};

        let st = StructType::new(
            "Tick",
            vec![
                StructField::new("price", CType::Prim(Primitive::Long)),
                StructField::new("dest", CType::String),
            ],
        );
        let format = Format::new(FormatId(7), st.clone(), Architecture::host()).unwrap();
        let origin = Arc::new(Broker::new());
        origin.create_stream("quotes", None);
        origin.register_stream_type("quotes", st).unwrap();
        let fed =
            FederatedBroker::bind(Arc::clone(&origin), "127.0.0.1:0", NetConfig::default())
                .unwrap();

        let local = Arc::new(Broker::new());
        let link = FederationLink::connect(
            fed.local_addr(),
            Arc::clone(&local),
            LinkConfig {
                filters: [("quotes".to_owned(), "price > 100".to_owned())].into(),
                ..LinkConfig::new(["quotes"])
            },
        )
        .unwrap();
        assert!(wait_for(|| fed.forwarder_count() == 1));
        let sub = local.subscribe("quotes").unwrap();

        let prices = [50i64, 150, 99, 101, 500, 100];
        for price in prices {
            let mut record = clayout::Record::new();
            record.set("price", Value::Int(price));
            record.set("dest", Value::String("ATL".to_owned()));
            let msg = pbio::ndr::encode(&record, &format).unwrap();
            origin.publish(Event::new("quotes", "Tick", msg)).unwrap();
        }
        // Only the matching events arrive, in publish order.
        let matching: Vec<i64> = prices.iter().copied().filter(|p| *p > 100).collect();
        for want in &matching {
            let event = sub.recv_timeout(Duration::from_secs(5)).unwrap();
            let record =
                pbio::ndr::decode_with(&event.payload, &format).unwrap();
            assert_eq!(record.get("price"), Some(&Value::Int(*want)));
        }
        // The rest never crossed the wire: matching events + 1 subok. The
        // counter moves after `write_some` returns, which can be after the
        // link has read every event, so it is waited for, not read once.
        assert!(wait_for(|| link.stats().events_forwarded == matching.len() as u64));
        let frames = matching.len() as u64 + 1;
        assert!(
            wait_for(|| fed.net_stats().frames_written == frames),
            "{} frames written, want {frames}",
            fed.net_stats().frames_written
        );
        assert!(sub.try_recv().is_none());
        assert_eq!(link.stats().filter_rejected, 0);
    }

    #[test]
    fn rejected_predicates_fall_back_to_unfiltered() {
        let origin = Arc::new(Broker::new());
        origin.create_stream("raw", None); // no struct type registered
        let fed =
            FederatedBroker::bind(Arc::clone(&origin), "127.0.0.1:0", NetConfig::default())
                .unwrap();
        let local = Arc::new(Broker::new());
        let link = FederationLink::connect(
            fed.local_addr(),
            Arc::clone(&local),
            LinkConfig {
                filters: [("raw".to_owned(), "price > 1".to_owned())].into(),
                ..LinkConfig::new(["raw"])
            },
        )
        .unwrap();
        let sub = local.subscribe("raw").unwrap();
        // The refusal lands, then the unfiltered resubscribe succeeds.
        assert!(wait_for(|| link.stats().filter_rejected == 1));
        assert!(wait_for(|| fed.forwarder_count() == 1));
        for n in 0..3u8 {
            origin.publish(Event::new("raw", "F", vec![n])).unwrap();
        }
        for n in 0..3u8 {
            assert_eq!(
                sub.recv_timeout(Duration::from_secs(5)).unwrap().payload,
                vec![n]
            );
        }
    }

    #[test]
    fn subscribing_an_unknown_stream_is_ignored() {
        let origin = Arc::new(Broker::new());
        let fed =
            FederatedBroker::bind(Arc::clone(&origin), "127.0.0.1:0", NetConfig::default())
                .unwrap();
        let mut client = EventClient::connect(fed.local_addr()).unwrap();
        client.send(&Frame::new(FED_SUB, encode_sub(1, "ghost", ""))).unwrap();
        // No ack, no forwarder, link stays usable.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(fed.forwarder_count(), 0);
    }
}
