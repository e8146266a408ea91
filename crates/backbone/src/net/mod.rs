//! Length-prefixed TCP event transport.
//!
//! A frame is `u32 stream-name length ∥ name bytes ∥ u32 payload length ∥
//! payload bytes` (lengths little-endian). The transport never inspects
//! payloads; the paper's argument is precisely that the *wire format of
//! the data* is a codec concern, not a transport concern, so TCP here
//! could be swapped for multicast or a cluster interconnect without
//! touching metadata handling.
//!
//! The server is a readiness event loop: one blocking acceptor plus a
//! few loop shards over epoll (`poll(2)` off Linux); each connection is
//! a nonblocking [`machine::ConnMachine`] state machine, so 100k
//! mostly-idle subscribers cost a handful of threads and flat memory
//! (see the `events` module's header for the loop's invariants). It
//! has one constructor, [`EventServer::bind`], and one way to push,
//! [`ServerHandle::push`] of a [`Block`]. It queues output as blocks of
//! ready wire bytes and offers the kernel a slice per block in vectored
//! writes, bounds each connection's queue (backpressuring slow
//! readers, handing a pusher its block back when the window stays
//! full), and exposes a [`NetStats`] observability snapshot. The
//! blocking framing functions below are what clients write with and
//! what the tests hold the machine's one frame decoder and its block
//! writer to. The observable contract is pinned by
//! `tests/transport_contract.rs` at the workspace root.

use std::io::{BufWriter, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::BackboneError;

mod events;
pub mod machine;

pub use events::Refused;
pub use machine::{Block, ConnMachine, WriteOutcome};

/// One transport frame: a stream name and an opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The stream (topic) name.
    pub stream: String,
    /// The encoded message.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Creates a frame.
    pub fn new(stream: impl Into<String>, payload: Vec<u8>) -> Self {
        Frame { stream: stream.into(), payload }
    }
}

/// Upper bound on frame section lengths (guards against hostile or
/// corrupt length prefixes).
const MAX_SECTION: u32 = 64 * 1024 * 1024;

/// Most frames a single `writev` covers: 4 `IoSlice`s per frame and
/// Linux caps an iovec at 1024 entries.
const MAX_FRAMES_PER_WRITEV: usize = 256;

/// Depth of a connection's outbound queue, in frames: reaching it
/// pauses request consumption on that connection (a slow reader is
/// backpressured, not buffered without bound), and it is the window a
/// push is admitted against.
const WRITER_QUEUE_DEPTH: usize = 512;

/// Writes one frame and flushes.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_frame(writer: &mut impl Write, frame: &Frame) -> Result<(), BackboneError> {
    write_frame_unflushed(writer, frame)?;
    writer.flush()?;
    Ok(())
}

/// Writes a batch of frames with a single flush at the end — the
/// transport-side half of batched publishing: the kernel sees one
/// coalesced write per buffer fill instead of one per frame section.
///
/// # Errors
///
/// Propagates I/O failures; frames before the failure may have been
/// sent.
pub fn write_frames(writer: &mut impl Write, frames: &[Frame]) -> Result<(), BackboneError> {
    for frame in frames {
        write_frame_unflushed(writer, frame)?;
    }
    writer.flush()?;
    Ok(())
}

/// Writes a frame's four sections (two length prefixes, name, payload)
/// as one vectored write instead of four `write_all` calls — on a
/// `BufWriter` the sections land in the buffer in one pass, and on a raw
/// socket the whole frame goes out in a single `writev`. Partial writes
/// loop, advancing across section boundaries.
fn write_frame_unflushed(writer: &mut impl Write, frame: &Frame) -> Result<(), BackboneError> {
    let name = frame.stream.as_bytes();
    let name_len = (name.len() as u32).to_le_bytes();
    let payload_len = (frame.payload.len() as u32).to_le_bytes();
    let slices = [
        IoSlice::new(&name_len),
        IoSlice::new(name),
        IoSlice::new(&payload_len),
        IoSlice::new(&frame.payload),
    ];
    write_all_vectored(writer, slices)
}

/// Coalesces a whole batch of frames into as few `writev` calls as
/// possible: every section of every frame (up to the iovec cap) goes out
/// in one vectored write, with no intermediate copying. This is what a
/// connection's writer calls on whatever its queue holds.
///
/// # Errors
///
/// Propagates I/O failures; frames before the failure may have been
/// partly sent.
pub fn write_frame_batch(
    writer: &mut impl Write,
    frames: &[Frame],
) -> Result<(), BackboneError> {
    for chunk in frames.chunks(MAX_FRAMES_PER_WRITEV) {
        // Length prefixes must live somewhere while the IoSlices borrow
        // them; one Vec of fixed arrays serves the whole chunk.
        let lens: Vec<[u8; 8]> = chunk
            .iter()
            .map(|frame| {
                let mut len8 = [0u8; 8];
                len8[..4].copy_from_slice(&(frame.stream.len() as u32).to_le_bytes());
                len8[4..].copy_from_slice(&(frame.payload.len() as u32).to_le_bytes());
                len8
            })
            .collect();
        let mut slices = Vec::with_capacity(chunk.len() * 4);
        for (frame, len8) in chunk.iter().zip(&lens) {
            slices.push(IoSlice::new(&len8[..4]));
            slices.push(IoSlice::new(frame.stream.as_bytes()));
            slices.push(IoSlice::new(&len8[4..]));
            slices.push(IoSlice::new(&frame.payload));
        }
        write_all_vectored_slices(writer, &mut slices)?;
    }
    writer.flush()?;
    Ok(())
}

fn write_all_vectored<const N: usize>(
    writer: &mut impl Write,
    mut slices: [IoSlice<'_>; N],
) -> Result<(), BackboneError> {
    write_all_vectored_slices(writer, &mut slices)
}

fn write_all_vectored_slices(
    writer: &mut impl Write,
    slices: &mut [IoSlice<'_>],
) -> Result<(), BackboneError> {
    let mut remaining: usize = slices.iter().map(|s| s.len()).sum();
    let mut bufs: &mut [IoSlice<'_>] = slices;
    while remaining > 0 {
        match writer.write_vectored(bufs) {
            Ok(0) => {
                return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into());
            }
            Ok(n) => {
                remaining -= n.min(remaining);
                IoSlice::advance_slices(&mut bufs, n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Reads one frame; returns `None` on a clean end-of-stream boundary.
///
/// # Errors
///
/// Propagates I/O failures and rejects implausible lengths.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Frame>, BackboneError> {
    let mut len4 = [0u8; 4];
    match reader.read_exact(&mut len4) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let name_len = u32::from_le_bytes(len4);
    if name_len > MAX_SECTION {
        return Err(BackboneError::BadFrame {
            detail: format!("stream name length {name_len} exceeds limit"),
        });
    }
    let mut name = vec![0u8; name_len as usize];
    reader.read_exact(&mut name)?;
    let stream = String::from_utf8(name)
        .map_err(|_| BackboneError::BadFrame { detail: "stream name is not UTF-8".into() })?;
    reader.read_exact(&mut len4)?;
    let payload_len = u32::from_le_bytes(len4);
    if payload_len > MAX_SECTION {
        return Err(BackboneError::BadFrame {
            detail: format!("payload length {payload_len} exceeds limit"),
        });
    }
    let mut payload = vec![0u8; payload_len as usize];
    reader.read_exact(&mut payload)?;
    Ok(Some(Frame { stream, payload }))
}

/// Identifies one accepted connection for the life of a server
/// (monotonic, never reused).
pub type ConnId = u64;

/// The handler invoked for each inbound frame, with the [`ConnId`] it
/// arrived on (so a broker can track subscribers and push to them later
/// via [`ServerHandle::push`]); the returned frame (if any) is written
/// back on the same connection (request/reply).
pub type RoutedHandler = Arc<dyn Fn(ConnId, Frame) -> Option<Frame> + Send + Sync>;

/// Invoked exactly once when a connection is fully closed and
/// deregistered (peer disconnect, I/O error, or server shutdown).
/// Runs on a transport thread — it must not block. Brokers use this to
/// reap per-connection state (subscriptions, forwarders) without
/// heartbeats: a push reports a dead peer only when one is attempted,
/// this callback reports it as it happens.
pub type CloseHandler = Arc<dyn Fn(ConnId) + Send + Sync>;

/// Server construction knobs. The kernel backend is not one of them:
/// the loop runs on epoll where the platform has it and on `poll(2)`
/// elsewhere.
#[derive(Debug, Clone, Default)]
pub struct NetConfig {
    /// Event-loop shard count; `0` sizes to available parallelism
    /// (capped at 4 — shards are I/O bound, not compute bound).
    pub shards: usize,
}

fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(4)
}

/// Internal atomic tallies behind [`NetStats`]: one instance per
/// server, shared by every loop thread. Relaxed ordering — these
/// are monotonic counters, not synchronization.
#[derive(Debug, Default)]
pub(crate) struct NetCounters {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) connections_open: AtomicU64,
    pub(crate) connections_reaped: AtomicU64,
    pub(crate) loop_wakeups: AtomicU64,
    pub(crate) frames_read: AtomicU64,
    pub(crate) frames_written: AtomicU64,
    pub(crate) writev_calls: AtomicU64,
    pub(crate) partial_writes: AtomicU64,
    pub(crate) reply_queue_high_water: AtomicU64,
    pub(crate) read_pauses: AtomicU64,
    pub(crate) pushes_dropped: AtomicU64,
}

impl NetCounters {
    pub(crate) fn note_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_open(&self) {
        self.connections_open.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_closed(&self) {
        self.connections_reaped.fetch_add(1, Ordering::Relaxed);
        let _ = self.connections_open.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            v.checked_sub(1)
        });
    }

    pub(crate) fn note_dropped(&self, frames: usize) {
        self.pushes_dropped.fetch_add(frames as u64, Ordering::Relaxed);
    }

    pub(crate) fn note_queue_depth(&self, depth: usize) {
        self.reply_queue_high_water.fetch_max(depth as u64, Ordering::Relaxed);
    }

    fn snapshot(&self, transport: &'static str) -> NetStats {
        NetStats {
            transport,
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            connections_reaped: self.connections_reaped.load(Ordering::Relaxed),
            loop_wakeups: self.loop_wakeups.load(Ordering::Relaxed),
            frames_read: self.frames_read.load(Ordering::Relaxed),
            frames_written: self.frames_written.load(Ordering::Relaxed),
            writev_calls: self.writev_calls.load(Ordering::Relaxed),
            partial_writes: self.partial_writes.load(Ordering::Relaxed),
            reply_queue_high_water: self.reply_queue_high_water.load(Ordering::Relaxed),
            read_pauses: self.read_pauses.load(Ordering::Relaxed),
            pushes_dropped: self.pushes_dropped.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of a server's transport counters (the
/// `DiscoveryStats` pattern from `xml2wire` applied to the socket
/// layer). Cheap to take — a handful of relaxed atomic loads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// Which kernel backend the loop shards wait on:
    /// `"readiness-epoll"` or `"readiness-poll"`.
    pub transport: &'static str,
    /// Connections the acceptor has handed to the transport.
    pub connections_accepted: u64,
    /// Connections currently registered (a gauge, not a tally).
    pub connections_open: u64,
    /// Connections fully closed and deregistered — each one closed its
    /// fd exactly once.
    pub connections_reaped: u64,
    /// Kernel-wait returns across all loop shards. An idle server's
    /// loops stay asleep, so this advancing at rest indicates a spin
    /// bug.
    pub loop_wakeups: u64,
    /// Frames parsed off sockets and handed to the handler.
    pub frames_read: u64,
    /// Frames fully drained onto sockets.
    pub frames_written: u64,
    /// Vectored writes issued — `frames_written / writev_calls` is the
    /// realized coalescing factor.
    pub writev_calls: u64,
    /// Vectored writes the kernel cut short (resumed later from the
    /// write cursor).
    pub partial_writes: u64,
    /// Deepest any connection's reply queue has been.
    pub reply_queue_high_water: u64,
    /// Times backpressure suspended request consumption on a
    /// connection.
    pub read_pauses: u64,
    /// Server pushes dropped because the target was unknown, closed, or
    /// its queue was full.
    pub pushes_dropped: u64,
}

/// A TCP event server: accepts connections and feeds frames to a
/// handler.
pub struct EventServer {
    server: events::Server,
}

impl std::fmt::Debug for EventServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventServer")
            .field("addr", &self.local_addr())
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
        let shards = if config.shards == 0 { default_shards() } else { config.shards };
        let server = events::Server::bind(listener, handler, on_close, shards)?;
        Ok(EventServer { server })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// How many times the accept loop has woken so far. The acceptor
    /// blocks in `accept(2)`, so this advances only when a connection
    /// actually arrives — an idle server stays at zero instead of
    /// burning CPU in a sleep-poll cycle.
    pub fn accept_wakeups(&self) -> u64 {
        self.server.accept_wakeups()
    }

    /// Number of currently tracked (not yet reaped) connections.
    pub fn connection_count(&self) -> usize {
        self.server.connection_count()
    }

    /// A snapshot of the transport counters.
    pub fn net_stats(&self) -> NetStats {
        let label = match self.server.backend() {
            "epoll" => "readiness-epoll",
            _ => "readiness-poll",
        };
        self.server.counters().snapshot(label)
    }

    /// A cloneable handle for pushing server-initiated frames (broker
    /// fanout). Outlives nothing: pushes after the server drops come
    /// back [`Refused::Gone`].
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: self.server.shared() }
    }
}

/// Pushes frames to specific connections from outside the handler — the
/// broker fanout path. Cloneable and thread-safe.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<events::Shared>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle").finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// Queues a block of frames to connection `conn`: one admission
    /// against the connection's window, one inbox entry and at most one
    /// waker write, however many frames the block holds. `Ok` is a real
    /// acceptance, decided synchronously: the frames reach the socket
    /// unless the connection closes first, and then they are counted in
    /// [`NetStats::pushes_dropped`]. A full window is waited out on the
    /// loop's own progress for a bounded moment before the answer is
    /// `Busy`.
    ///
    /// # Errors
    ///
    /// The block comes back untouched, so a retry re-encodes nothing:
    /// with [`Refused::Busy`] when the window stayed full (nothing is
    /// counted; offer it again or drop it), with [`Refused::Gone`] when
    /// the connection is unknown or closed or the server is shutting
    /// down (permanent; its frames are counted in
    /// [`NetStats::pushes_dropped`]).
    pub fn push(&self, conn: ConnId, block: Block) -> Result<(), (Refused, Block)> {
        self.shared.push(conn, block)
    }
}

/// How much an [`EventClient`] asks the socket for per read, and the
/// size its receive window starts at (and returns to).
const CLIENT_READ_CHUNK: usize = 64 * 1024;

/// A TCP event client: a framed connection to an [`EventServer`].
///
/// Receiving reads the socket in large chunks into one reusable window
/// and decodes frames in place with the transport's one decoder;
/// [`recv`](Self::recv) copies the next frame out of it, the federation
/// link borrows frames from it.
#[derive(Debug)]
pub struct EventClient {
    stream: TcpStream,
    writer: BufWriter<TcpStream>,
    /// Received bytes: `window[head..tail]` is not yet consumed, the
    /// rest is free space (kept initialised so reads can land in it).
    window: Vec<u8>,
    head: usize,
    tail: usize,
}

impl EventClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, BackboneError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(EventClient {
            writer: BufWriter::new(stream.try_clone()?),
            stream,
            window: vec![0; CLIENT_READ_CHUNK],
            head: 0,
            tail: 0,
        })
    }

    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn send(&mut self, frame: &Frame) -> Result<(), BackboneError> {
        write_frame(&mut self.writer, frame)
    }

    /// Sends a batch of frames as one coalesced vectored write (see
    /// [`write_frame_batch`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn send_all(&mut self, frames: &[Frame]) -> Result<(), BackboneError> {
        write_frame_batch(&mut self.writer, frames)
    }

    /// The next frame already received, lent out of the receive window
    /// as `(stream, payload)`; `None` when the window holds no whole
    /// frame (call [`fill`](Self::fill)). Never touches the socket.
    ///
    /// # Errors
    ///
    /// `BadFrame`, as [`read_frame`].
    pub(crate) fn buffered_frame(&mut self) -> Result<Option<(&str, &[u8])>, BackboneError> {
        let buffered = &self.window[self.head..self.tail];
        Ok(machine::decode_frame(buffered)?.map(|(stream, payload, total)| {
            self.head += total;
            (stream, payload)
        }))
    }

    /// One blocking socket read into the window's free space, after
    /// moving what is left unconsumed (less than a frame, when the
    /// caller drained [`buffered_frame`](Self::buffered_frame) first)
    /// to the front. The window grows only while a single frame is
    /// larger than it, as that frame's bytes actually arrive, and
    /// shrinks back once empty. Returns the bytes read; `0` is
    /// end-of-stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub(crate) fn fill(&mut self) -> Result<usize, BackboneError> {
        if self.head > 0 {
            self.window.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.tail == self.window.len() {
            self.window.resize(self.window.len() * 2, 0);
        } else if self.tail == 0 && self.window.len() > CLIENT_READ_CHUNK {
            self.window.truncate(CLIENT_READ_CHUNK);
            self.window.shrink_to_fit();
        }
        loop {
            match self.stream.read(&mut self.window[self.tail..]) {
                Ok(n) => {
                    self.tail += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Receives one frame; `None` means the server closed the
    /// connection.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (a stream that ends inside a frame is an
    /// `UnexpectedEof`, as with [`read_frame`]).
    pub fn recv(&mut self) -> Result<Option<Frame>, BackboneError> {
        loop {
            if let Some((stream, payload)) = self.buffered_frame()? {
                return Ok(Some(Frame { stream: stream.to_owned(), payload: payload.to_vec() }));
            }
            if self.fill()? == 0 {
                return if self.tail - self.head < 4 {
                    Ok(None)
                } else {
                    Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into())
                };
            }
        }
    }

    /// Sends a frame and waits for the reply (request/reply round trip,
    /// the end-to-end latency primitive).
    ///
    /// # Errors
    ///
    /// I/O failures, or `BadFrame` if the server closed without
    /// replying.
    pub fn request(&mut self, frame: &Frame) -> Result<Frame, BackboneError> {
        self.send(frame)?;
        self.recv()?.ok_or(BackboneError::BadFrame {
            detail: "server closed the connection without replying".to_owned(),
        })
    }

    /// A handle that can shut this connection down from another thread.
    /// Read timeouts would desynchronize the framing (a timeout
    /// mid-frame discards bytes already consumed), so a thread blocked
    /// in [`recv`](Self::recv) is instead unblocked by shutting the
    /// socket down: the blocked read observes a clean end-of-stream.
    ///
    /// # Errors
    ///
    /// Propagates the descriptor-duplication failure.
    pub fn closer(&self) -> Result<ClientCloser, BackboneError> {
        Ok(ClientCloser { stream: self.stream.try_clone()? })
    }
}

/// Shuts down an [`EventClient`]'s socket from outside the thread that
/// owns it — the only safe way to interrupt a blocking `recv` without
/// corrupting frame alignment. Cloneable via `try_clone` on the
/// underlying descriptor; idempotent.
#[derive(Debug)]
pub struct ClientCloser {
    stream: TcpStream,
}

impl ClientCloser {
    /// Shuts the connection down in both directions. Any thread blocked
    /// in [`EventClient::recv`] returns `Ok(None)` (clean EOF) or an
    /// I/O error; subsequent sends fail.
    pub fn close(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::io::BufReader;
    use std::net::Shutdown;
    use std::time::Duration;

    /// Two shards, so the sharded dispatch path is exercised and not
    /// only the degenerate single-loop case.
    fn config() -> NetConfig {
        NetConfig { shards: 2 }
    }

    fn serve(handler: impl Fn(Frame) -> Option<Frame> + Send + Sync + 'static) -> EventServer {
        EventServer::bind("127.0.0.1:0", Arc::new(move |_, frame| handler(frame)), None, config())
            .unwrap()
    }

    fn echo_with(config: NetConfig) -> EventServer {
        EventServer::bind("127.0.0.1:0", Arc::new(|_, frame| Some(frame)), None, config).unwrap()
    }

    /// An echo server that remembers the connection it last heard from,
    /// a client on it, and that connection's id once a hello went
    /// through — a subscriber to push at.
    fn subscribed() -> (EventServer, EventClient, ConnId) {
        let subscriber: Arc<Mutex<Option<ConnId>>> = Arc::new(Mutex::new(None));
        let server = {
            let subscriber = Arc::clone(&subscriber);
            EventServer::bind(
                "127.0.0.1:0",
                Arc::new(move |conn, frame: Frame| {
                    *subscriber.lock() = Some(conn);
                    Some(frame) // ack the subscribe
                }),
                None,
                config(),
            )
            .unwrap()
        };
        let mut client = EventClient::connect(server.local_addr()).unwrap();
        let _ = client.request(&Frame::new("subscribe", vec![])).unwrap();
        let conn = subscriber.lock().expect("handler saw the subscribe");
        (server, client, conn)
    }

    /// Polls `cond` for up to a second — for counters that are
    /// incremented just after the observable effect they count.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        for _ in 0..200 {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    #[test]
    fn round_trip_over_a_real_socket() {
        let server = echo_with(config());
        let mut client = EventClient::connect(server.local_addr()).unwrap();
        let frame = Frame::new("asd", b"payload bytes".to_vec());
        let reply = client.request(&frame).unwrap();
        assert_eq!(reply, frame);
    }

    #[test]
    fn many_frames_on_one_connection() {
        let server = echo_with(config());
        let mut client = EventClient::connect(server.local_addr()).unwrap();
        for i in 0..100u32 {
            let frame = Frame::new("s", i.to_le_bytes().to_vec());
            assert_eq!(client.request(&frame).unwrap().payload, i.to_le_bytes());
        }
    }

    #[test]
    fn batched_frames_round_trip_with_one_flush() {
        let server = echo_with(config());
        let mut client = EventClient::connect(server.local_addr()).unwrap();
        let frames: Vec<Frame> =
            (0..10u8).map(|i| Frame::new("batch", vec![i; i as usize])).collect();
        client.send_all(&frames).unwrap();
        for frame in &frames {
            assert_eq!(client.recv().unwrap().unwrap(), *frame);
        }
    }

    #[test]
    fn large_batches_cross_the_writev_chunk_limit() {
        // More frames than fit in one iovec: the batch writer must chunk.
        let frames: Vec<Frame> = (0..(MAX_FRAMES_PER_WRITEV + 10) as u32)
            .map(|i| Frame::new(format!("s{i}"), i.to_le_bytes().to_vec()))
            .collect();
        let mut buf = Vec::new();
        write_frame_batch(&mut buf, &frames).unwrap();
        let mut cursor: &[u8] = &buf;
        for frame in &frames {
            assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), *frame);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn vectored_write_survives_partial_writes() {
        /// A writer accepting at most 3 bytes per call; its default
        /// `write_vectored` forwards only the first non-empty slice, so
        /// this exercises both the partial-write loop and slice
        /// advancing across section boundaries.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut writer = Trickle(Vec::new());
        let frame = Frame::new("stream-name", (0..100u8).collect());
        write_frame(&mut writer, &frame).unwrap();
        let got = read_frame(&mut writer.0.as_slice()).unwrap().unwrap();
        assert_eq!(got, frame);
    }

    #[test]
    fn server_can_transform_frames() {
        let server = serve(|mut frame: Frame| {
            frame.payload.reverse();
            Some(frame)
        });
        let mut client = EventClient::connect(server.local_addr()).unwrap();
        let reply = client.request(&Frame::new("s", vec![1, 2, 3])).unwrap();
        assert_eq!(reply.payload, vec![3, 2, 1]);
    }

    #[test]
    fn one_way_frames_are_allowed() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let seen = Arc::new(AtomicUsize::new(0));
        let server = {
            let seen = Arc::clone(&seen);
            serve(move |_frame| {
                seen.fetch_add(1, Ordering::SeqCst);
                None
            })
        };
        let mut client = EventClient::connect(server.local_addr()).unwrap();
        for _ in 0..10 {
            client.send(&Frame::new("s", vec![0])).unwrap();
        }
        drop(client);
        // Wait for the connection to drain.
        for _ in 0..100 {
            if seen.load(Ordering::SeqCst) == 10 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(seen.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn empty_payload_and_empty_stream_name() {
        let server = echo_with(config());
        let mut client = EventClient::connect(server.local_addr()).unwrap();
        let frame = Frame::new("", Vec::new());
        assert_eq!(client.request(&frame).unwrap(), frame);
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut bytes: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
        assert!(matches!(
            read_frame(&mut bytes),
            Err(BackboneError::BadFrame { .. })
        ));
    }

    #[test]
    fn clean_eof_yields_none() {
        let mut bytes: &[u8] = &[];
        assert!(read_frame(&mut bytes).unwrap().is_none());
    }

    #[test]
    fn frame_bytes_round_trip_without_sockets() {
        let frame = Frame::new("stream-α", vec![0, 1, 2, 255]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut cursor: &[u8] = &buf;
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), frame);
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn idle_server_never_wakes() {
        // The accept loop blocks in accept(2) and event-loop shards
        // sleep in the kernel; an idle server must not spin. Give it
        // time to misbehave, then check the counters.
        let server = echo_with(config());
        let settle_wakeups = server.net_stats().loop_wakeups;
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(server.accept_wakeups(), 0, "idle accept loop woke up");
        assert_eq!(
            server.net_stats().loop_wakeups,
            settle_wakeups,
            "idle event loop woke up"
        );
        // A real connection wakes the acceptor exactly once.
        let mut client = EventClient::connect(server.local_addr()).unwrap();
        let _ = client.request(&Frame::new("s", vec![1])).unwrap();
        assert_eq!(server.accept_wakeups(), 1);
    }

    #[test]
    fn blocked_writer_does_not_stall_the_accept_loop() {
        // A peer that sends requests, half-closes, and never reads
        // its replies leaves megabytes of output waiting on a socket
        // that can't take them. That must not stall other clients:
        // the event loop parks the connection on write interest and
        // moves on.
        let server = echo_with(config());
        let wedged = TcpStream::connect(server.local_addr()).unwrap();
        {
            let mut tx = BufWriter::new(wedged.try_clone().unwrap());
            let big = Frame::new("big", vec![0xAB; 1 << 20]);
            for _ in 0..32 {
                write_frame(&mut tx, &big).unwrap();
            }
        }
        // Half-close: the server sees EOF on the read side while the
        // replies (32 MiB, unread by us) remain queued.
        wedged.shutdown(Shutdown::Write).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        // A fresh client must still get served promptly.
        let probe = TcpStream::connect(server.local_addr()).unwrap();
        probe.set_nodelay(true).unwrap();
        probe.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut writer = BufWriter::new(probe.try_clone().unwrap());
        write_frame(&mut writer, &Frame::new("ping", vec![1])).unwrap();
        let mut reader = BufReader::new(probe);
        let reply = read_frame(&mut reader)
            .expect("server stalled behind a blocked writer")
            .unwrap();
        assert_eq!(reply.payload, vec![1]);
        drop(wedged); // keep the wedged socket alive until here
    }

    #[test]
    fn dead_connections_are_reaped() {
        let server = echo_with(config());
        for _ in 0..3 {
            let mut client = EventClient::connect(server.local_addr()).unwrap();
            let _ = client.request(&Frame::new("s", vec![1])).unwrap();
            drop(client);
        }
        // The event loop closes on EOF directly, with no later accept
        // needed to trigger a sweep.
        assert!(
            eventually(|| server.connection_count() == 0),
            "dead connections not reaped: {}",
            server.connection_count()
        );
        assert_eq!(server.net_stats().connections_reaped, 3);
    }

    #[test]
    fn net_stats_track_traffic() {
        let server = echo_with(config());
        let mut client = EventClient::connect(server.local_addr()).unwrap();
        for i in 0..10u32 {
            let _ = client.request(&Frame::new("s", i.to_le_bytes().to_vec())).unwrap();
        }
        // Counters are bumped just after their observable effect
        // (the reply reaching the client), so poll briefly.
        assert!(
            eventually(|| server.net_stats().frames_written == 10),
            "frames_written never reached 10: {:?}",
            server.net_stats()
        );
        let stats = server.net_stats();
        assert_eq!(stats.connections_accepted, 1);
        assert_eq!(stats.connections_open, 1);
        assert_eq!(stats.frames_read, 10);
        assert!(stats.writev_calls >= 1);
        assert!(stats.reply_queue_high_water >= 1);
        let backend = if cfg!(target_os = "linux") { "readiness-epoll" } else { "readiness-poll" };
        assert_eq!(stats.transport, backend);
    }

    #[test]
    fn server_push_reaches_subscribers() {
        // The server pushes frames unprompted to the connection that
        // subscribed (broker fanout).
        let (server, mut client, conn) = subscribed();
        let handle = server.handle();
        for i in 0..5u8 {
            assert!(handle.push(conn, Block::of(&Frame::new("push", vec![i]))).is_ok());
        }
        for i in 0..5u8 {
            let frame = client.recv().unwrap().unwrap();
            assert_eq!(frame.stream, "push");
            assert_eq!(frame.payload, vec![i]);
        }
        // A push at a connection that never existed comes back Gone and
        // counted — decided synchronously.
        let refused = handle.push(9999, Block::of(&Frame::new("push", vec![0])));
        assert!(matches!(refused, Err((Refused::Gone, _))));
        assert_eq!(server.net_stats().pushes_dropped, 1);
    }

    #[test]
    fn bulk_pushes_survive_backpressure_without_loss() {
        // The federation-replay regression: a producer bursting far past
        // the queue depth delivers every frame by offering a Busy block
        // again, with nothing landing in pushes_dropped.
        const BURST: u32 = 4 * WRITER_QUEUE_DEPTH as u32;
        let (server, mut client, conn) = subscribed();
        let handle = server.handle();
        let pusher = std::thread::spawn(move || {
            for i in 0..BURST {
                let mut block = Block::of(&Frame::new("push", i.to_le_bytes().to_vec()));
                loop {
                    match handle.push(conn, block) {
                        Ok(()) => break,
                        Err((Refused::Busy, refused)) => block = refused,
                        Err((Refused::Gone, _)) => panic!("connection died mid-burst at frame {i}"),
                    }
                }
            }
        });
        for i in 0..BURST {
            let frame = client.recv().unwrap().expect("burst ended early");
            assert_eq!(frame.payload, i.to_le_bytes().to_vec(), "loss or reorder at {i}");
        }
        pusher.join().expect("pusher panicked");
        assert_eq!(server.net_stats().pushes_dropped, 0, "a retried burst must never shed frames");

        // A push at a connection that never existed hands its block back.
        let handle = server.handle();
        match handle.push(9999, Block::of(&Frame::new("push", vec![7]))) {
            Err((Refused::Gone, block)) => assert_eq!(block.frames(), 1),
            other => panic!("expected Gone for an unknown connection, got {other:?}"),
        }
    }

    #[test]
    fn batched_pushes_reach_subscribers() {
        let (server, mut client, conn) = subscribed();
        let handle = server.handle();
        // One block, many frames: one admission, delivered in order.
        let mut block = Block::default();
        for i in 0..16u8 {
            block.push_frame(&Frame::new("push", vec![i]));
        }
        assert!(handle.push(conn, block).is_ok());
        for i in 0..16u8 {
            let frame = client.recv().unwrap().unwrap();
            assert_eq!(frame.stream, "push");
            assert_eq!(frame.payload, vec![i]);
        }
        // A block aimed at a connection that never existed comes back
        // refused and its frames counted — never silently lost.
        let mut bogus = Block::of(&Frame::new("push", vec![0]));
        bogus.push_frame(&Frame::new("push", vec![1]));
        let Err((Refused::Gone, bogus)) = handle.push(9999, bogus) else {
            panic!("a push at an unknown connection was admitted")
        };
        assert_eq!(bogus.frames(), 2);
        assert_eq!(server.net_stats().pushes_dropped, 2);
    }

    #[test]
    fn backpressure_pauses_reads_instead_of_unbounded_buffering() {
        // A peer that floods requests without reading a reply fills the
        // kernel's buffers and then the connection's queue: the event
        // loop must suspend parsing (read_pauses) rather than queue
        // replies without bound — and every reply must still arrive, in
        // order, once the peer starts reading.
        let server = echo_with(NetConfig { shards: 1 });
        let sock = TcpStream::connect(server.local_addr()).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flooder = {
            let mut sock = BufWriter::new(sock.try_clone().unwrap());
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut sent = 0u32;
                while !stop.load(Ordering::SeqCst) {
                    write_frame(&mut sock, &Frame::new("flood", sent.to_le_bytes().repeat(1024)))
                        .unwrap();
                    sent += 1;
                }
                write_frame(&mut sock, &Frame::new("end", Vec::new())).unwrap();
            })
        };
        let paused = (0..2_000).any(|_| {
            std::thread::sleep(Duration::from_millis(5));
            server.net_stats().read_pauses >= 1
        });
        stop.store(true, Ordering::SeqCst);
        let mut reader = BufReader::new(sock);
        let mut next = 0u32;
        loop {
            let frame = read_frame(&mut reader).unwrap().expect("reply stream ended early");
            if frame.stream == "end" {
                break;
            }
            assert_eq!(frame.payload, next.to_le_bytes().repeat(1024), "reply {next}");
            next += 1;
        }
        flooder.join().unwrap();
        assert!(paused, "flood never engaged backpressure");
        let stats = server.net_stats();
        assert!(stats.reply_queue_high_water <= WRITER_QUEUE_DEPTH as u64);
    }
}
