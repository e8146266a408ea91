//! The metadata server and its HTTP client.
//!
//! §4.4: "Newly created streams can make their metadata available as XML
//! Schema documents on a publicly known intranet server. The server can
//! also be extended to dynamically generate metadata…". This module is
//! that server: a small HTTP/1.0 GET subset over TCP (built from scratch
//! — no HTTP crates), serving registered schema documents and invoking
//! dynamic generators for prefix-matched paths. It is the system's one
//! metadata service: documents are also registered over POST (§7), and
//! each format a session publishes lives at
//! `/formats/{name}/{fingerprint:016x}.xsd`, where a receiver that meets
//! it in a message header finds it
//! ([`Xml2Wire::decode_resolving`](crate::Xml2Wire::decode_resolving)).
//!
//! A GET carrying `X-Xsd-Closure: first` asks a static document for
//! the closure of its first complex type — what
//! [`Xml2Wire::discover_root`](crate::Xml2Wire::discover_root) binds —
//! instead of the whole document. The server computes it with
//! [`Schema::parse_reachable`], which checks the whole document once, and
//! keeps it until the document is replaced.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xsdlite::Schema;

use crate::discovery::{DiscoveryPolicy, DiscoveryStats, Extent};
use crate::error::X2wError;
use crate::unpoisoned;
use crate::url::Locator;

/// Cap on the request line + headers of one inbound request. A
/// slow-loris client feeding header bytes that never end must not grow
/// server memory without bound; past this budget the server answers
/// `431 Request Header Fields Too Large` and closes.
const MAX_HEADER_BYTES: usize = 8 * 1024;

/// Cap on one HTTP response body accepted by the client side
/// ([`http_get_with`]); a hostile or broken server cannot balloon a
/// discovery fetch into an unbounded buffer.
const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

/// The request header that asks for the closure of a static document's
/// first complex type; `first` is its one value. A server that does not
/// know it sends the whole document, which the client checks the same way.
const CLOSURE_HEADER: &str = "X-Xsd-Closure";

/// A dynamic document generator: receives the full request path (with
/// query string, if any) and produces a document, or `None` for 404.
type Generator = Box<dyn Fn(&str) -> Option<String> + Send + Sync>;

#[derive(Default)]
struct Routes {
    /// Shared, so serving a document is a reference count, not a copy.
    documents: HashMap<String, Arc<Published>>,
    generators: Vec<(String, Generator)>,
}

/// A static document, and the closure of its first complex type once a
/// client has asked for it. Republishing replaces the whole value, so a
/// closure never outlives the document it was cut from.
struct Published {
    whole: Arc<str>,
    closure: OnceLock<Arc<str>>,
}

impl Published {
    fn new(whole: String) -> Arc<Published> {
        Arc::new(Published {
            whole: whole.into(),
            closure: OnceLock::new(),
        })
    }

    /// The root's closure as a standalone document, computed on the first
    /// call. A document [`Schema::parse_reachable`] refuses is its own
    /// "closure": the client's parse then reports the very error, at the
    /// same position, that it reports for the whole document.
    fn closure(&self) -> &Arc<str> {
        self.closure
            .get_or_init(|| match Schema::parse_reachable(&self.whole) {
                Ok(schema) => schema.to_xml_string().into(),
                Err(_) => Arc::clone(&self.whole),
            })
    }
}

/// A metadata server: serves schema documents over HTTP/1.0.
///
/// The listener thread runs until the server is dropped.
///
/// ```
/// # fn main() -> Result<(), xml2wire::X2wError> {
/// let server = xml2wire::MetadataServer::bind("127.0.0.1:0")?;
/// server.publish("/schemas/demo.xsd", "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"/>");
/// let url = server.url_for("/schemas/demo.xsd");
/// let body = xml2wire::server::http_get(&url)?;
/// assert!(body.contains("xsd:schema"));
/// # Ok(())
/// # }
/// ```
pub struct MetadataServer {
    addr: SocketAddr,
    routes: Arc<RwLock<Routes>>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    wakeups: Arc<AtomicU64>,
    /// Closing the sender (in `Drop`) is what tells the worker pool to
    /// finish its queue and exit.
    work_tx: Option<SyncSender<TcpStream>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for MetadataServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetadataServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl MetadataServer {
    /// Binds and starts serving on `addr` (use port 0 for an ephemeral
    /// port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: impl ToSocketAddrs) -> Result<MetadataServer, X2wError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let routes: Arc<RwLock<Routes>> = Arc::new(RwLock::new(Routes::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let wakeups = Arc::new(AtomicU64::new(0));
        // A small bounded worker pool instead of a thread per
        // connection: discovery fetches are rare but can stampede when
        // a fleet of subscribers restarts, and an accept storm must not
        // translate into an unbounded thread storm. The acceptor blocks
        // on a full queue, which parks the overflow in the TCP backlog.
        // Connection handling keeps its per-request read deadlines (the
        // PR-3 slow-loris hardening), so one dripping client stalls one
        // worker for at most ~5s, not forever.
        let (work_tx, work_rx) = sync_channel::<TcpStream>(WORKER_QUEUE_DEPTH);
        let work_rx: Arc<Mutex<Receiver<TcpStream>>> = Arc::new(Mutex::new(work_rx));
        let mut workers = Vec::with_capacity(WORKER_POOL_SIZE);
        for index in 0..WORKER_POOL_SIZE {
            let routes = Arc::clone(&routes);
            let work_rx = Arc::clone(&work_rx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("metadata-worker-{index}"))
                    .spawn(move || loop {
                        // One statement, so the lock is released before
                        // the connection is served.
                        let next = unpoisoned(work_rx.lock()).recv();
                        let Ok(stream) = next else { break };
                        let _ = handle_connection(stream, &routes);
                    })?,
            );
        }
        let handle = {
            let stop = Arc::clone(&stop);
            let wakeups = Arc::clone(&wakeups);
            let work_tx = work_tx.clone();
            std::thread::Builder::new()
                .name("metadata-server".to_owned())
                .spawn(move || serve_loop(&listener, &work_tx, &stop, &wakeups))?
        };
        Ok(MetadataServer {
            addr,
            routes,
            stop,
            handle: Some(handle),
            wakeups,
            work_tx: Some(work_tx),
            workers,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The full URL for a server path.
    pub fn url_for(&self, path: &str) -> String {
        format!("http://{}{}", self.addr, path)
    }

    /// Publishes a static document at `path` (replacing any previous
    /// one — metadata updates are how format evolution propagates).
    pub fn publish(&self, path: &str, document: impl Into<String>) {
        unpoisoned(self.routes.write())
            .documents
            .insert(path.to_owned(), Published::new(document.into()));
    }

    /// Registers a dynamic generator for every path starting with
    /// `prefix` (checked after static documents). The generator sees the
    /// full request path including any query string, enabling
    /// "format-scoping" responses based on requestor attributes.
    pub fn publish_dynamic(&self, prefix: &str, generator: Generator) {
        unpoisoned(self.routes.write())
            .generators
            .push((prefix.to_owned(), generator));
    }

    /// How many times the accept loop has woken so far. The loop blocks
    /// in `accept(2)` — it advances only when a connection arrives, so
    /// an idle server stays at zero (no sleep-polling).
    pub fn accept_wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::SeqCst)
    }

    /// Paths of all static documents currently published.
    pub fn published_paths(&self) -> Vec<String> {
        let mut paths: Vec<String> = unpoisoned(self.routes.read())
            .documents
            .keys()
            .cloned()
            .collect();
        paths.sort();
        paths
    }
}

impl Drop for MetadataServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Kick the accept loop awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        // With the acceptor gone, dropping the last sender lets the
        // workers drain whatever was queued and exit.
        self.work_tx = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Handler threads serving accepted connections; requests are short
/// (one document each) so a handful of workers covers a discovery
/// stampede without spawning a thread per socket.
const WORKER_POOL_SIZE: usize = 4;

/// Accepted-but-unserved connections the acceptor will hold before it
/// leans on the TCP backlog.
const WORKER_QUEUE_DEPTH: usize = 64;

fn serve_loop(
    listener: &TcpListener,
    work_tx: &SyncSender<TcpStream>,
    stop: &Arc<AtomicBool>,
    wakeups: &Arc<AtomicU64>,
) {
    loop {
        // Blocking accept: zero idle wakeups. Drop wakes it by
        // self-connecting after setting `stop`.
        match listener.accept() {
            Ok((stream, _)) => {
                wakeups.fetch_add(1, Ordering::SeqCst);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                // A full queue blocks here, parking further clients in
                // the TCP backlog — bounded memory under an accept
                // storm.
                if work_tx.send(stream).is_err() {
                    break;
                }
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                // Error backoff (not idle polling — the idle path blocks
                // in accept): a persistent failure such as EMFILE would
                // otherwise busy-spin this loop at 100% CPU.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Reads a request head — the request line, then header lines through
/// the blank line that ends them — into one buffer of at most
/// [`MAX_HEADER_BYTES`]. Returns `Ok(None)` when the budget ran out
/// first — the slow-loris case — and what arrived otherwise (cut short
/// at EOF). Bytes are consumed incrementally, so memory is bounded by
/// the budget no matter how the client drips them.
fn read_request_head(reader: &mut impl BufRead) -> std::io::Result<Option<Vec<u8>>> {
    let mut head = Vec::new();
    let mut line_start = 0;
    loop {
        if head.len() == MAX_HEADER_BYTES {
            return Ok(None);
        }
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(Some(head));
        }
        let window = buf.len().min(MAX_HEADER_BYTES - head.len());
        let Some(pos) = buf[..window].iter().position(|b| *b == b'\n') else {
            head.extend_from_slice(&buf[..window]);
            reader.consume(window);
            continue;
        };
        head.extend_from_slice(&buf[..=pos]);
        reader.consume(pos + 1);
        // The request line cannot end the head, however short it is.
        if line_start > 0 && matches!(&head[line_start..], b"\r\n" | b"\n") {
            return Ok(Some(head));
        }
        line_start = head.len();
    }
}

/// Answers a header-flooding client with `431` in a way it can actually
/// read: the write side is shut down so the client sees EOF after the
/// response, and a bounded amount of its remaining input is drained so
/// closing the socket does not RST the response out of its receive
/// buffer.
fn refuse_oversized_header(
    stream: &mut TcpStream,
    reader: &mut impl BufRead,
) -> std::io::Result<()> {
    respond(stream, 431, "request header too large", "text/plain")?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut sink = [0u8; 4096];
    for _ in 0..64 {
        match reader.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    Ok(())
}

/// What the server acts on in a request head, borrowed from its bytes.
#[derive(Debug, PartialEq, Eq)]
struct RequestHead<'a> {
    method: &'a str,
    /// The request target, query string included.
    path: &'a str,
    content_length: usize,
    /// [`CLOSURE_HEADER`] came with the value `first`.
    closure: bool,
}

/// Parses a request head as [`read_request_head`] returns it: the request
/// line, then `name: value` header lines. Header names match without
/// regard to case, and a header the server does not know is skipped, as
/// is a line without a colon. Refuses, with the reason to answer `400`
/// with, a request line that is not UTF-8 and a `Content-Length` that is
/// not a number.
fn parse_request_head(head: &[u8]) -> Result<RequestHead<'_>, &'static str> {
    let mut lines = head.split(|b| *b == b'\n');
    let request_line = std::str::from_utf8(lines.next().unwrap_or_default())
        .map_err(|_| "request line is not UTF-8")?;
    let mut parts = request_line.split_whitespace();
    let mut request = RequestHead {
        method: parts.next().unwrap_or(""),
        path: parts.next().unwrap_or("/"),
        content_length: 0,
        closure: false,
    };
    for line in lines {
        let Some(colon) = line.iter().position(|b| *b == b':') else {
            continue;
        };
        let (name, value) = (&line[..colon], line[colon + 1..].trim_ascii());
        if name.eq_ignore_ascii_case(b"content-length") {
            request.content_length = std::str::from_utf8(value)
                .ok()
                .and_then(|value| value.parse().ok())
                .ok_or("malformed Content-Length")?;
        } else if name.eq_ignore_ascii_case(CLOSURE_HEADER.as_bytes()) {
            request.closure = value.eq_ignore_ascii_case(b"first");
        }
    }
    Ok(request)
}

fn handle_connection(stream: TcpStream, routes: &RwLock<Routes>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let Some(head) = read_request_head(&mut reader)? else {
        return refuse_oversized_header(&mut stream, &mut reader);
    };
    let RequestHead {
        method,
        path,
        content_length,
        closure,
    } = match parse_request_head(&head) {
        Ok(request) => request,
        Err(why) => return respond(&mut stream, 400, why, "text/plain"),
    };

    // Remote format registration (paper §7's "format registration
    // mechanism … that incorporates the HTTP protocol"): POST/PUT a
    // schema document to publish it at the request path.
    if method == "POST" || method == "PUT" {
        if content_length > 16 * 1024 * 1024 {
            return respond(&mut stream, 413, "document too large", "text/plain");
        }
        // The buffer grows with the bytes that arrive, not with the
        // claim: a forged Content-Length pins nothing.
        let mut body = Vec::new();
        reader.take(content_length as u64).read_to_end(&mut body)?;
        if body.len() < content_length {
            return respond(
                &mut stream,
                400,
                "body shorter than its Content-Length",
                "text/plain",
            );
        }
        let Ok(document) = String::from_utf8(body) else {
            return respond(&mut stream, 400, "document is not UTF-8", "text/plain");
        };
        // Reject documents that are not well-formed schemas: a central
        // metadata server should not propagate garbage to subscribers.
        if let Err(e) = Schema::parse_str(&document) {
            return respond(
                &mut stream,
                422,
                &format!("not a schema: {e}"),
                "text/plain",
            );
        }
        let bare = path.split('?').next().unwrap_or(path).to_owned();
        unpoisoned(routes.write())
            .documents
            .insert(bare, Published::new(document));
        return respond(&mut stream, 201, "registered", "text/plain");
    }
    if method != "GET" {
        return respond(&mut stream, 405, "method not allowed", "text/plain");
    }

    // A static document is shared, a generated one is sent as generated:
    // neither is copied. A generator serves what it generates, whatever
    // the request asked.
    let bare = path.split('?').next().unwrap_or(path);
    let published = unpoisoned(routes.read()).documents.get(bare).cloned();
    if let Some(published) = published {
        let document = if closure {
            published.closure()
        } else {
            &published.whole
        };
        return respond(&mut stream, 200, document, "text/xml");
    }
    let generated = {
        let routes = unpoisoned(routes.read());
        routes
            .generators
            .iter()
            .find(|(prefix, _)| path.starts_with(prefix.as_str()))
            .and_then(|(_, generator)| generator(path))
    };
    match generated {
        Some(document) => respond(&mut stream, 200, &document, "text/xml"),
        None => respond(&mut stream, 404, "no such metadata document", "text/plain"),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    content_type: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    let header = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // Head and body leave in one gathered write: two `write_all`s under
    // TCP_NODELAY put the head in a segment of its own.
    let mut slices = [
        IoSlice::new(header.as_bytes()),
        IoSlice::new(body.as_bytes()),
    ];
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match stream.write_vectored(unsent) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

/// Registers a metadata document at `url` with a minimal HTTP/1.0 POST
/// — the remote half of the paper's future-work "format registration
/// mechanism … that incorporates the HTTP protocol".
///
/// # Errors
///
/// Connection failures, malformed responses, or a non-2xx status (the
/// server rejects documents that are not well-formed schemas).
pub fn http_post(url: &str, document: &str) -> Result<(), X2wError> {
    http_post_with(url, document, &DiscoveryPolicy::default())
}

/// [`http_post`] under an explicit [`DiscoveryPolicy`]: connect, write
/// and read deadlines, bounded retries, and a total wall-clock cap.
///
/// # Errors
///
/// As [`http_post`]; transport failures are retried per the policy, a
/// definitive HTTP status (even 5xx) is returned immediately.
pub fn http_post_with(url: &str, document: &str, policy: &DiscoveryPolicy) -> Result<(), X2wError> {
    let locator = Locator::parse(url)?;
    let Locator::Http { host, path, .. } = &locator else {
        return Err(X2wError::BadLocator {
            locator: url.to_owned(),
            reason: "http_post requires an http:// URL".to_owned(),
        });
    };
    let head = format!(
        "POST {path} HTTP/1.0\r\nHost: {host}\r\nContent-Type: text/xml\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        document.len()
    );
    let response = http_exchange(&locator, url, &head, document.as_bytes(), policy, None)?;
    let text = String::from_utf8_lossy(&response);
    let status: u16 = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| X2wError::BadLocator {
            locator: url.to_owned(),
            reason: "malformed HTTP response".to_owned(),
        })?;
    if (200..300).contains(&status) {
        Ok(())
    } else {
        let detail = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.trim())
            .unwrap_or("");
        Err(X2wError::Discovery {
            locator: url.to_owned(),
            attempts: vec![format!("server answered HTTP {status}: {detail}")],
        })
    }
}

/// Fetches `url` with a minimal HTTP/1.0 GET and returns the body.
///
/// # Errors
///
/// Reports connection failures, malformed responses and non-200
/// statuses.
pub fn http_get(url: &str) -> Result<String, X2wError> {
    http_get_with(url, &DiscoveryPolicy::default())
}

/// [`http_get`] under an explicit [`DiscoveryPolicy`]: connect, write
/// and read deadlines, bounded retries with jittered exponential
/// backoff, and a total wall-clock cap across all of them.
///
/// # Errors
///
/// As [`http_get`]; transport failures are retried per the policy, a
/// definitive HTTP status (even 5xx) is returned immediately.
pub fn http_get_with(url: &str, policy: &DiscoveryPolicy) -> Result<String, X2wError> {
    http_get_observed(url, policy, None, Extent::Whole)
}

/// [`http_get_with`] that additionally records retries into `stats` and,
/// for [`Extent::Closure`], asks the server for the closure of the
/// document's first complex type.
pub(crate) fn http_get_observed(
    url: &str,
    policy: &DiscoveryPolicy,
    stats: Option<&DiscoveryStats>,
    extent: Extent,
) -> Result<String, X2wError> {
    let locator = Locator::parse(url)?;
    let Locator::Http { host, path, .. } = &locator else {
        return Err(X2wError::BadLocator {
            locator: url.to_owned(),
            reason: "http_get requires an http:// URL".to_owned(),
        });
    };
    let head = match extent {
        Extent::Whole => format!("GET {path} HTTP/1.0\r\nHost: {host}\r\nConnection: close\r\n\r\n"),
        Extent::Closure => format!(
            "GET {path} HTTP/1.0\r\nHost: {host}\r\n{CLOSURE_HEADER}: first\r\nConnection: close\r\n\r\n"
        ),
    };
    let response = http_exchange(&locator, url, &head, b"", policy, stats)?;
    parse_http_response(response, url)
}

/// Runs one request/response exchange under `policy`: up to
/// `policy.attempts` tries, exponential backoff with jitter between
/// them, everything clamped to one total deadline. Transport failures
/// accumulate into the final [`X2wError::Discovery`] so a caller sees
/// *why* every attempt failed, not just that the last one did.
fn http_exchange(
    locator: &Locator,
    url: &str,
    head: &str,
    body: &[u8],
    policy: &DiscoveryPolicy,
    stats: Option<&DiscoveryStats>,
) -> Result<Vec<u8>, X2wError> {
    let deadline = Instant::now() + policy.total_deadline;
    let mut failures = Vec::new();
    for attempt in 0..policy.attempts.max(1) {
        if attempt > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                failures.push("total deadline exhausted before retry".to_owned());
                break;
            }
            if let Some(stats) = stats {
                stats.note_retry();
            }
            std::thread::sleep(policy.backoff_before(attempt, jitter_unit()).min(remaining));
        }
        match attempt_exchange(locator, head, body, policy, deadline) {
            Ok(response) => return Ok(response),
            Err(e) => failures.push(format!("attempt {}: {e}", attempt + 1)),
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    Err(X2wError::Discovery {
        locator: url.to_owned(),
        attempts: failures,
    })
}

fn timed_out(message: &str) -> X2wError {
    X2wError::Io(std::io::Error::new(
        std::io::ErrorKind::TimedOut,
        message.to_owned(),
    ))
}

/// One connect/write/read round trip, every socket operation clamped to
/// the time left before `deadline`.
fn attempt_exchange(
    locator: &Locator,
    head: &str,
    body: &[u8],
    policy: &DiscoveryPolicy,
    deadline: Instant,
) -> Result<Vec<u8>, X2wError> {
    // `set_*_timeout(ZERO)` is an invalid argument, so deadline clamps
    // floor at one millisecond; the explicit deadline checks around them
    // keep that floor from compounding into real overrun.
    const MIN_TIMEOUT: Duration = Duration::from_millis(1);
    let addrs = locator.socket_addrs()?;
    let mut stream = None;
    let mut last_err = None;
    for addr in &addrs {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(timed_out(
                "total discovery deadline exhausted before connect",
            ));
        }
        match TcpStream::connect_timeout(addr, policy.connect_timeout.min(left).max(MIN_TIMEOUT)) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) => last_err = Some(e),
        }
    }
    let mut stream = stream.ok_or_else(|| {
        X2wError::Io(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, "no address to connect to")
        }))
    })?;
    stream.set_nodelay(true)?;
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(timed_out("total discovery deadline exhausted before write"));
    }
    stream.set_write_timeout(Some(policy.write_timeout.min(left).max(MIN_TIMEOUT)))?;
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    // Bounded read loop: the timeout is re-armed against the remaining
    // total deadline between reads, so a server drip-feeding one byte
    // per read cannot stretch the fetch past `policy.total_deadline`.
    // The socket is told only when the clamped value changes — until the
    // deadline is closer than `read_timeout`, that is once.
    //
    // The response is read straight into one buffer: `response[..filled]`
    // has been received, and the zeroed rest, grown by doubling, is where
    // the next read lands. At most one byte past the cap is ever asked
    // for, which is enough to refuse the response.
    let mut armed = None;
    let mut response = vec![0u8; 8 * 1024];
    let mut filled = 0;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(timed_out("total discovery deadline exhausted mid-read"));
        }
        let timeout = Some(policy.read_timeout.min(left).max(MIN_TIMEOUT));
        if timeout != armed {
            stream.set_read_timeout(timeout)?;
            armed = timeout;
        }
        if filled == response.len() {
            response.resize((2 * filled).min(MAX_RESPONSE_BYTES + 1), 0);
        }
        match stream.read(&mut response[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                if filled > MAX_RESPONSE_BYTES {
                    return Err(X2wError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "response exceeds the discovery response cap",
                    )));
                }
            }
            Err(e) => return Err(X2wError::Io(e)),
        }
    }
    response.truncate(filled);
    Ok(response)
}

/// A jitter sample in `[0, 1)` xorshifted from the clock's subsecond
/// nanoseconds — enough to de-correlate retry stampedes across
/// processes without pulling in an RNG dependency.
fn jitter_unit() -> f64 {
    let nanos = u64::from(
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0),
    ) | 1;
    let mut x = nanos.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
}

/// The body of a `200` response, which becomes the returned `String`
/// in place: the head is drained off the front and each byte is checked
/// as UTF-8 once.
fn parse_http_response(mut response: Vec<u8>, url: &str) -> Result<String, X2wError> {
    let not_utf8 = || X2wError::BadLocator {
        locator: url.to_owned(),
        reason: "response is not UTF-8".to_owned(),
    };
    let find = |needle: &[u8]| response.windows(needle.len()).position(|w| w == needle);
    let (head_len, body_start) = find(b"\r\n\r\n")
        .map(|at| (at, at + 4))
        .or_else(|| find(b"\n\n").map(|at| (at, at + 2)))
        .ok_or(X2wError::BadLocator {
            locator: url.to_owned(),
            reason: "malformed HTTP response (no header terminator)".to_owned(),
        })?;
    let head = std::str::from_utf8(&response[..head_len]).map_err(|_| not_utf8())?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| X2wError::BadLocator {
            locator: url.to_owned(),
            reason: format!("malformed status line {status_line:?}"),
        })?;
    if status != 200 {
        return Err(X2wError::Discovery {
            locator: url.to_owned(),
            attempts: vec![format!("server answered HTTP {status}")],
        });
    }
    response.drain(..body_start);
    String::from_utf8(response).map_err(|_| not_utf8())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"/>";

    #[test]
    fn publish_then_get() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/schemas/a.xsd", DOC);
        let body = http_get(&server.url_for("/schemas/a.xsd")).unwrap();
        assert_eq!(body, DOC);
    }

    #[test]
    fn missing_documents_are_404() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        let err = http_get(&server.url_for("/nope.xsd")).unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");
    }

    #[test]
    fn republish_updates_content() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/a.xsd", "v1");
        server.publish("/a.xsd", "v2");
        assert_eq!(http_get(&server.url_for("/a.xsd")).unwrap(), "v2");
    }

    #[test]
    fn dynamic_generators_see_query_strings() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish_dynamic(
            "/scoped/",
            Box::new(|path| {
                path.split_once('?')
                    .map(|(_, query)| format!("<scoped for=\"{query}\"/>"))
            }),
        );
        let body = http_get(&server.url_for("/scoped/flights.xsd?role=dispatcher")).unwrap();
        assert!(body.contains("role=dispatcher"), "{body}");
        // No query -> generator returns None -> 404.
        assert!(http_get(&server.url_for("/scoped/flights.xsd")).is_err());
    }

    #[test]
    fn static_documents_win_over_generators() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish_dynamic("/", Box::new(|_| Some("generated".to_owned())));
        server.publish("/a.xsd", "static");
        assert_eq!(http_get(&server.url_for("/a.xsd")).unwrap(), "static");
        assert_eq!(http_get(&server.url_for("/other")).unwrap(), "generated");
    }

    #[test]
    fn concurrent_requests_are_served() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/a.xsd", DOC);
        let url = server.url_for("/a.xsd");
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let url = url.clone();
                std::thread::spawn(move || http_get(&url).unwrap())
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), DOC);
        }
    }

    #[test]
    fn published_paths_lists_sorted() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/z.xsd", DOC);
        server.publish("/a.xsd", DOC);
        assert_eq!(server.published_paths(), vec!["/a.xsd", "/z.xsd"]);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn connection_handling_does_not_spawn_per_request_threads() {
        fn thread_count() -> usize {
            std::fs::read_to_string("/proc/self/status")
                .unwrap()
                .lines()
                .find_map(|line| line.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
                .unwrap()
        }
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/a.xsd", DOC);
        let baseline = thread_count();
        for _ in 0..50 {
            assert_eq!(http_get(&server.url_for("/a.xsd")).unwrap(), DOC);
        }
        // The worker pool was fully spawned at bind: request traffic
        // must not create any further threads.
        assert!(
            thread_count() <= baseline,
            "requests spawned threads: {baseline} -> {}",
            thread_count()
        );
    }

    #[test]
    fn idle_server_never_wakes() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/a.xsd", DOC);
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(server.accept_wakeups(), 0, "idle accept loop woke up");
        assert!(http_get(&server.url_for("/a.xsd")).is_ok());
        assert_eq!(server.accept_wakeups(), 1);
    }

    #[test]
    fn slow_loris_headers_are_cut_off_with_431() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/a.xsd", DOC);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"GET /a.xsd HTTP/1.0\r\n").unwrap();
        // Feed unterminated header bytes past the budget: the server
        // must answer 431 and close instead of buffering forever.
        let filler = vec![b'x'; MAX_HEADER_BYTES + 1024];
        stream.write_all(b"X-Flood: ").unwrap();
        stream.write_all(&filler).unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.0 431"), "{text}");
        // The server itself is still healthy for well-formed requests.
        assert_eq!(http_get(&server.url_for("/a.xsd")).unwrap(), DOC);
    }

    #[test]
    fn a_post_body_shorter_than_its_claim_is_refused_with_400() {
        // A 16 MiB claim, four bytes and a half-close: the server must
        // answer from the bytes that came, not wait for or reserve the
        // claim.
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/a.xsd", DOC);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let head = format!(
            "POST /b.xsd HTTP/1.0\r\nContent-Length: {}\r\n\r\n",
            16 << 20
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(b"tiny").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let start = Instant::now();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.0 400"), "{text}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "answered after {:?}",
            start.elapsed()
        );
        assert_eq!(server.published_paths(), vec!["/a.xsd"]);
        assert_eq!(http_get(&server.url_for("/a.xsd")).unwrap(), DOC);
    }

    #[test]
    fn header_lines_up_to_the_budget_still_work() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/a.xsd", DOC);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // A large-but-legal header set (well under the budget).
        let mut request = String::from("GET /a.xsd HTTP/1.0\r\n");
        for i in 0..20 {
            request.push_str(&format!("X-Pad-{i}: {}\r\n", "y".repeat(200)));
        }
        request.push_str("\r\n");
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.0 200"), "{text}");
    }

    #[test]
    fn http_status_failures_are_not_retried() {
        // A definitive HTTP response — even an error — must come back
        // immediately, without burning the policy's retry budget.
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        let policy = DiscoveryPolicy {
            attempts: 3,
            backoff_base: Duration::from_millis(200),
            ..DiscoveryPolicy::default()
        };
        let start = Instant::now();
        let err = http_get_with(&server.url_for("/missing.xsd"), &policy).unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "definitive status took {:?} — was it retried?",
            start.elapsed()
        );
    }

    #[test]
    fn dead_port_fails_within_the_policy_deadline() {
        // Bind then drop: the port now answers RST. Every attempt fails
        // fast and the error lists each one.
        let port = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let policy = DiscoveryPolicy::default();
        let start = Instant::now();
        let err = http_get_with(&format!("http://127.0.0.1:{port}/x"), &policy).unwrap_err();
        assert!(start.elapsed() < policy.total_deadline + Duration::from_millis(500));
        let X2wError::Discovery { attempts, .. } = err else {
            panic!("expected Discovery, got {err}");
        };
        assert_eq!(attempts.len(), policy.attempts as usize, "{attempts:?}");
    }

    /// Serves one connection on a fresh port: reads the request head,
    /// then hands the socket to `reply`. Returns a URL on that port and
    /// the serving thread.
    fn serve_once(reply: impl FnOnce(&mut TcpStream) + Send + 'static) -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let url = format!("http://{}/doc.xsd", listener.local_addr().unwrap());
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut head = Vec::new();
            while !head.ends_with(b"\r\n\r\n") {
                let mut byte = [0u8; 1];
                stream.read_exact(&mut byte).unwrap();
                head.push(byte[0]);
            }
            stream.set_nodelay(true).unwrap();
            reply(&mut stream);
        });
        (url, server)
    }

    /// One attempt, so each fetch is one connection to [`serve_once`].
    fn one_attempt() -> DiscoveryPolicy {
        DiscoveryPolicy::one_shot(Duration::from_secs(10))
    }

    #[test]
    fn a_response_dripped_a_byte_at_a_time_is_read_whole() {
        let (url, server) = serve_once(|stream| {
            let response = format!(
                "HTTP/1.0 200 OK\r\nContent-Length: {}\r\n\r\n{DOC}",
                DOC.len()
            );
            for byte in response.as_bytes() {
                stream.write_all(std::slice::from_ref(byte)).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert_eq!(http_get_with(&url, &one_attempt()).unwrap(), DOC);
        server.join().unwrap();
    }

    #[test]
    fn a_response_at_the_cap_is_read_and_one_byte_more_is_refused() {
        const HEAD: &str = "HTTP/1.0 200 OK\r\n\r\n";
        for extra in [0, 1] {
            let body_len = MAX_RESPONSE_BYTES - HEAD.len() + extra;
            let (url, server) = serve_once(move |stream| {
                // The client hangs up on a response over the cap, so
                // writes may fail.
                let _ = stream.write_all(HEAD.as_bytes());
                let chunk = vec![b'x'; 1 << 20];
                let mut left = body_len;
                while left > 0 {
                    let n = left.min(chunk.len());
                    if stream.write_all(&chunk[..n]).is_err() {
                        break;
                    }
                    left -= n;
                }
            });
            let fetched = http_get_with(&url, &one_attempt());
            server.join().unwrap();
            match fetched {
                Ok(body) => assert_eq!((extra, body.len()), (0, body_len)),
                Err(err) => {
                    assert_eq!(extra, 1, "a response at the cap was refused: {err}");
                    assert!(err.to_string().contains("response cap"), "{err}");
                }
            }
        }
    }

    #[test]
    fn a_response_that_is_not_utf8_is_refused_in_body_or_head() {
        let responses: [&[u8]; 2] = [
            b"HTTP/1.0 200 OK\r\n\r\n<a>\xff</a>",
            b"HTTP/1.0 200 O\xffK\r\n\r\n<a/>",
        ];
        for response in responses {
            let (url, server) = serve_once(move |stream| stream.write_all(response).unwrap());
            let err = http_get_with(&url, &one_attempt()).unwrap_err();
            server.join().unwrap();
            assert!(err.to_string().contains("not UTF-8"), "{err}");
        }
    }

    #[test]
    fn error_statuses_are_reported_as_such() {
        for status in [404, 500] {
            let (url, server) = serve_once(move |stream| {
                let response = format!("HTTP/1.0 {status} Whatever\r\n\r\nno document here");
                stream.write_all(response.as_bytes()).unwrap();
            });
            let err = http_get_with(&url, &one_attempt()).unwrap_err();
            server.join().unwrap();
            let X2wError::Discovery { attempts, .. } = &err else {
                panic!("expected Discovery, got {err}");
            };
            assert_eq!(attempts, &[format!("server answered HTTP {status}")]);
        }
    }

    #[test]
    fn server_shuts_down_on_drop() {
        let url;
        {
            let server = MetadataServer::bind("127.0.0.1:0").unwrap();
            server.publish("/a.xsd", DOC);
            url = server.url_for("/a.xsd");
            assert!(http_get(&url).is_ok());
        }
        // After drop the port no longer accepts (connection refused or
        // immediate failure).
        assert!(http_get(&url).is_err());
    }

    const CATALOGUE: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Root"><xsd:element name="x" type="xsd:int"/></xsd:complexType>
  <xsd:complexType name="Filler"><xsd:element name="y" type="xsd:double"/></xsd:complexType>
</xsd:schema>"#;

    fn get(url: &str, extent: Extent) -> Result<String, X2wError> {
        http_get_observed(url, &DiscoveryPolicy::default(), None, extent)
    }

    #[test]
    fn a_closure_request_gets_the_roots_closure_and_follows_republishing() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        let url = server.url_for("/c.xsd");
        for catalogue in [
            CATALOGUE.to_owned(),
            CATALOGUE.replace("xsd:int", "xsd:long"),
        ] {
            server.publish("/c.xsd", catalogue.as_str());
            let closure = Schema::parse_reachable(&catalogue).unwrap().to_xml_string();
            assert!(!closure.contains("Filler"), "{closure}");
            assert_eq!(get(&url, Extent::Closure).unwrap(), closure);
            assert_eq!(get(&url, Extent::Closure).unwrap(), closure);
            assert_eq!(get(&url, Extent::Whole).unwrap(), catalogue);
        }
    }

    #[test]
    fn a_document_the_server_cannot_cut_is_sent_whole() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        let torn = CATALOGUE.replace("</xsd:schema>", "");
        let twice = CATALOGUE.replace("Filler", "Root");
        for (path, document) in [("/torn.xsd", torn), ("/twice.xsd", twice)] {
            assert!(Schema::parse_reachable(&document).is_err());
            server.publish(path, document.as_str());
            assert_eq!(
                get(&server.url_for(path), Extent::Closure).unwrap(),
                document
            );
        }
    }

    #[test]
    fn generators_ignore_a_closure_request() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish_dynamic("/gen/", Box::new(|_| Some(CATALOGUE.to_owned())));
        let url = server.url_for("/gen/c.xsd");
        assert_eq!(get(&url, Extent::Closure).unwrap(), CATALOGUE);
    }

    #[test]
    fn request_heads_parse_into_method_path_length_and_closure() {
        let head = "GET /a.xsd?v=1 HTTP/1.0\r\nHost: h\r\nX-Xsd-Closure: first\r\n\r\n";
        let get = |closure| RequestHead {
            method: "GET",
            path: "/a.xsd?v=1",
            content_length: 0,
            closure,
        };
        assert_eq!(parse_request_head(head.as_bytes()), Ok(get(true)));
        let whole = head.replace("X-Xsd-Closure: first\r\n", "");
        assert_eq!(parse_request_head(whole.as_bytes()), Ok(get(false)));
        let post = "POST /b.xsd HTTP/1.0\r\ncontent-LENGTH:  12 \r\n\r\n";
        let parsed = parse_request_head(post.as_bytes()).unwrap();
        assert_eq!(
            (parsed.method, parsed.path, parsed.content_length),
            ("POST", "/b.xsd", 12)
        );
        for refused in [
            &b"GET /\xff HTTP/1.0\r\n\r\n"[..],
            b"POST / HTTP/1.0\r\nContent-Length: -1\r\n\r\n",
        ] {
            assert!(parse_request_head(refused).is_err());
        }
        // Nothing at all is a request for nothing, which is refused later.
        assert_eq!(
            parse_request_head(b"").map(|r| (r.method, r.path)),
            Ok(("", "/"))
        );
    }

    /// splitmix64, for repeatable mutants.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Seeded mutants of real request heads. A byte flip or a cut gives a
    /// parse or a refusal, never a panic. Changing the case of a header
    /// name changes nothing. An unknown header, whatever its name and
    /// value, leaves the method, path and closure request as they were —
    /// and over a real server, the document served.
    #[test]
    fn request_head_mutants_parse_or_refuse() {
        const HEADS: [&str; 3] = [
            "GET /c.xsd HTTP/1.0\r\nHost: 127.0.0.1\r\nX-Xsd-Closure: first\r\nConnection: close\r\n\r\n",
            "GET /c.xsd HTTP/1.0\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n",
            "POST /d.xsd HTTP/1.0\r\nContent-Type: text/xml\r\nContent-Length: 57\r\n\r\n",
        ];
        let unknown = |mix: &mut Mix| -> Vec<u8> {
            const NAME: &[u8] = b"abcdefxyzXYZ-0123456789";
            let mut line = b"X-".to_vec();
            line.extend((0..1 + mix.below(12)).map(|_| NAME[mix.below(NAME.len())]));
            line.push(b':');
            line.extend((0..mix.below(24)).map(|_| match mix.below(255) as u8 {
                b'\n' => b' ',
                byte => byte,
            }));
            line.extend_from_slice(b"\r\n");
            line
        };
        let mut mix = Mix(0x0dd5_eed5);
        let (mut parsed, mut refused) = (0, 0);
        for _ in 0..30_000 {
            let head = HEADS[mix.below(HEADS.len())].as_bytes();
            let base = parse_request_head(head).unwrap();
            let mut mutant = head.to_vec();
            match mix.below(4) {
                0 => {
                    let at = mix.below(mutant.len());
                    mutant[at] ^= 1 + mix.below(255) as u8;
                }
                1 => mutant.truncate(mix.below(mutant.len())),
                2 => {
                    // Header names only: the request line and values are
                    // case-sensitive.
                    let line_end = mutant.iter().position(|b| *b == b'\n').unwrap();
                    for at in line_end..mutant.len() {
                        let in_name = mutant[..at]
                            .iter()
                            .rposition(|b| *b == b'\n')
                            .is_some_and(|start| !mutant[start..at].contains(&b':'));
                        if in_name && mix.below(2) == 0 {
                            mutant[at] ^= 0x20 * u8::from(mutant[at].is_ascii_alphabetic());
                        }
                    }
                    assert_eq!(
                        parse_request_head(&mutant),
                        Ok(base),
                        "{:?}",
                        String::from_utf8_lossy(&mutant)
                    );
                }
                _ => {
                    let lines: Vec<usize> =
                        (0..mutant.len()).filter(|&i| mutant[i] == b'\n').collect();
                    let at = lines[mix.below(lines.len() - 1)] + 1;
                    mutant.splice(at..at, unknown(&mut mix));
                    let got = parse_request_head(&mutant).unwrap();
                    assert_eq!(
                        (got.method, got.path, got.closure),
                        (base.method, base.path, base.closure),
                        "{:?}",
                        String::from_utf8_lossy(&mutant)
                    );
                }
            }
            match parse_request_head(&mutant) {
                Ok(_) => parsed += 1,
                Err(_) => refused += 1,
            }
        }
        assert!(
            parsed > 20_000 && refused > 100,
            "{parsed} parsed, {refused} refused"
        );

        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/c.xsd", CATALOGUE);
        let served = |head: &[u8]| {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream.write_all(head).unwrap();
            let mut response = Vec::new();
            stream.read_to_end(&mut response).unwrap();
            response
        };
        for head in &HEADS[..2] {
            let expected = served(head.as_bytes());
            for _ in 0..8 {
                let mut mutant = head.as_bytes().to_vec();
                let at = mutant.iter().position(|b| *b == b'\n').unwrap() + 1;
                mutant.splice(at..at, unknown(&mut mix));
                assert_eq!(
                    served(&mutant),
                    expected,
                    "{:?}",
                    String::from_utf8_lossy(&mutant)
                );
            }
        }
    }
}
