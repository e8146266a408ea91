//! The metadata server.
//!
//! §4.4: "Newly created streams can make their metadata available as XML
//! Schema documents on a publicly known intranet server. The server can
//! also be extended to dynamically generate metadata…". This module is
//! that server: a small HTTP/1.0 subset over TCP with persistent
//! connections (built from scratch — no HTTP crates), serving registered
//! schema documents and invoking dynamic generators for prefix-matched
//! paths. It is the system's one metadata service: documents are also
//! registered over POST (§7), and each format a session publishes lives
//! at `/formats/{name}/{fingerprint:016x}.xsd`, where a receiver that
//! meets it in a message header finds it
//! ([`Xml2Wire::decode_resolving`](crate::Xml2Wire::decode_resolving)).
//!
//! A GET carrying `X-Xsd-Closure: first` asks a static document for
//! the closure of its first complex type — what
//! [`Xml2Wire::discover_root`](crate::Xml2Wire::discover_root) binds —
//! instead of the whole document. The server computes it with
//! [`Schema::parse_reachable`], which checks the whole document once, and
//! keeps it until the document is replaced.
//!
//! A request carrying `Connection: keep-alive` leaves its connection open
//! for the next one; the client ([`http_get`] and the rest, re-exported
//! here from their own module) asks that of every GET. The server is one
//! [`Driver`] thread over its listener and every connection, so an idle
//! or slow client costs a table entry, not a thread. Each connection is
//! a `Conn`, the HTTP side of the driver's [`Protocol`].

use std::collections::HashMap;
use std::convert::Infallible;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use polling::Interest;
use xsdlite::Schema;

pub use crate::client::{http_get, http_get_with, http_post, http_post_with};
use crate::driver::{Driver, Handle, Protocol, Ready, Want};
use crate::error::X2wError;
use crate::unpoisoned;

/// Cap on the request line + headers of one inbound request, and on the
/// head of a response the client reads. A slow-loris client feeding
/// header bytes that never end must not grow server memory without
/// bound; past this budget the server answers `431 Request Header Fields
/// Too Large` and closes.
pub(crate) const MAX_HEADER_BYTES: usize = 8 * 1024;

/// The request header that asks for the closure of a static document's
/// first complex type; `first` is its one value. A server that does not
/// know it sends the whole document, which the client checks the same way.
pub(crate) const CLOSURE_HEADER: &str = "X-Xsd-Closure";

/// Connections the server holds open at once. When the table is full the
/// longest-idle connection is closed for a new one; when none is idle,
/// new clients wait in the TCP backlog until one closes.
const MAX_CONNECTIONS: usize = 256;

/// A request must arrive whole, head and body, within this of its first
/// byte.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// An idle connection, or one whose client stopped reading its response,
/// is closed after this long.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// After a `431`, how long and for how many reads the server discards
/// what the client still sends, so that closing does not reset the
/// response out of the client's receive buffer.
const DRAIN_DEADLINE: Duration = Duration::from_millis(200);
const DRAIN_READS: u32 = 64;

const WRITE: Interest = Interest {
    read: false,
    write: true,
};

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
/// One thread serves every connection until the server is dropped.
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
    driver: Arc<Handle<Infallible>>,
    /// How many times the loop's wait has returned.
    wakeups: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for MetadataServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetadataServer")
            .field("addr", &self.addr)
            .field("accepted", &self.driver.accepted())
            .field("wakeups", &self.wakeups.load(Ordering::SeqCst))
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
        let driver = Handle::new()?;
        let http = Http {
            routes: Arc::clone(&routes),
            scratch: vec![0; 16 * 1024],
        };
        let thread = Driver::<Conn>::new(Arc::clone(&driver), Some(listener), http)?
            .spawn("metadata-server".to_owned())?;
        Ok(MetadataServer {
            addr,
            routes,
            wakeups: Arc::clone(&driver.wakeups),
            driver,
            thread: Some(thread),
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

    /// How many connections the server has accepted so far. A client
    /// that reuses a kept connection sends requests without adding to
    /// it.
    pub fn accept_wakeups(&self) -> u64 {
        self.driver.accepted()
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
        // The loop closes every connection and the listener as it exits.
        self.driver.stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// What every connection of the server shares. Generators, the one-time
/// closure cut and a POST's schema check run on the loop's thread, so a
/// slow one delays every client; they are rare and bounded by the
/// document.
struct Http {
    routes: Arc<RwLock<Routes>>,
    /// Where every read lands before it is appended to a request.
    scratch: Vec<u8>,
}

/// One connection's place in the request/response cycle.
enum Phase {
    /// Waiting for a request, with nothing of one buffered.
    Idle,
    /// Reading a request. `line_start` is where the search for the end
    /// of its head resumes ([`head_end`]); `head_len` is set once the
    /// head is in and a POST body is still arriving.
    Reading {
        line_start: usize,
        head_len: Option<usize>,
    },
    /// Sending a response.
    Writing(Response),
    /// A `431` was sent and the write side shut down: the client's
    /// remaining input is read and discarded.
    Draining { reads: u32 },
}

impl Phase {
    /// The first byte of a request has arrived.
    const READING: Phase = Phase::Reading {
        line_start: 0,
        head_len: None,
    };
}

/// One HTTP connection: the bytes of the request being read and where it
/// is in the request/response cycle. The driver owns its socket.
struct Conn {
    /// The request being read: its head, then a POST body. It grows only
    /// with the bytes that arrive, and the head at most to
    /// [`MAX_HEADER_BYTES`].
    input: Vec<u8>,
    phase: Phase,
    /// When the connection is closed unless its phase moves on first.
    deadline: Instant,
}

/// The HTTP side of the driver: at most [`MAX_CONNECTIONS`], each with a
/// deadline, and no commands.
impl Protocol for Conn {
    type Context = Http;
    type Message = Infallible;
    const MAX_CONNECTIONS: usize = MAX_CONNECTIONS;
    const DEADLINES: bool = true;

    fn open(_: u64, _: &mut Http) -> (Conn, Option<Instant>) {
        let deadline = Instant::now() + IDLE_TIMEOUT;
        let conn = Conn {
            input: Vec::new(),
            phase: Phase::Idle,
            deadline,
        };
        (conn, Some(deadline))
    }

    /// Waits for writability, not input, while a response is blocked on
    /// a full socket.
    fn ready(&mut self, _: u64, stream: &mut TcpStream, _: Ready, http: &mut Http) -> Option<Want> {
        let open = match self.phase {
            Phase::Writing(_) => self.send(stream, &http.routes),
            _ => self.advance(stream, &http.routes, &mut http.scratch),
        };
        let interest = match self.phase {
            Phase::Writing(_) => WRITE,
            _ => Interest::READ,
        };
        open.then_some(Want {
            interest,
            deadline: Some(self.deadline),
        })
    }

    fn deliver(&mut self, _: u64, message: Infallible, _: &mut Http) {
        match message {}
    }

    fn undelivered(message: Infallible, _: &mut Http) {
        match message {}
    }

    fn closed(self, _: u64, _: &mut Http) {}

    fn idle(&self) -> bool {
        matches!(self.phase, Phase::Idle)
    }
}

impl Conn {
    /// Reads what has arrived and answers the request once it is whole.
    /// Returns whether the connection stays open.
    fn advance(
        &mut self,
        stream: &mut TcpStream,
        routes: &RwLock<Routes>,
        scratch: &mut [u8],
    ) -> bool {
        loop {
            let n = match stream.read(scratch) {
                Ok(0) => return self.at_eof(stream, routes),
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            };
            if let Phase::Draining { reads } = &mut self.phase {
                *reads += 1;
                if *reads >= DRAIN_READS {
                    return false;
                }
                continue;
            }
            if matches!(self.phase, Phase::Idle) {
                self.phase = Phase::READING;
                self.deadline = Instant::now() + REQUEST_DEADLINE;
            }
            self.input.extend_from_slice(&scratch[..n]);
            // The head can only have ended if a line did.
            let ended_a_line = scratch[..n].contains(&b'\n');
            if let Some(response) = self.request(routes, ended_a_line, false) {
                self.phase = Phase::Writing(response);
                return self.send(stream, routes);
            }
        }
    }

    /// The client closed its side: a request cut short is answered as it
    /// stands, as a blocking reader at EOF would.
    fn at_eof(&mut self, stream: &mut TcpStream, routes: &RwLock<Routes>) -> bool {
        if !matches!(self.phase, Phase::Reading { .. }) {
            return false;
        }
        match self.request(routes, true, true) {
            Some(response) => {
                self.phase = Phase::Writing(response);
                self.send(stream, routes)
            }
            None => false,
        }
    }

    /// The response to the request in `input` once enough of it has
    /// arrived (or, `at_eof`, as it stands), consuming its bytes; `None`
    /// while more are needed.
    fn request(&mut self, routes: &RwLock<Routes>, scan: bool, at_eof: bool) -> Option<Response> {
        let Phase::Reading {
            line_start,
            head_len,
        } = &mut self.phase
        else {
            return None;
        };
        let head_len = match *head_len {
            Some(len) => len,
            None => {
                let budget = &self.input[..self.input.len().min(MAX_HEADER_BYTES)];
                match scan.then(|| head_end(budget, line_start)).flatten() {
                    Some(len) => *head_len.insert(len),
                    None if self.input.len() >= MAX_HEADER_BYTES => {
                        return Some(Response::text(
                            "HTTP/1.0",
                            431,
                            "request header too large",
                            Then::Drain,
                        ));
                    }
                    None if at_eof => self.input.len(),
                    None => return None,
                }
            }
        };
        let request = match parse_request_head(&self.input[..head_len]) {
            Ok(request) => request,
            Err(why) => return Some(Response::text("HTTP/1.0", 400, why, Then::Close)),
        };
        let version = match request.version {
            "HTTP/1.1" => "HTTP/1.1",
            _ => "HTTP/1.0",
        };
        let has_body = matches!(request.method, "POST" | "PUT");
        let body_len = if has_body { request.content_length } else { 0 };
        if body_len > 16 * 1024 * 1024 {
            return Some(Response::text(
                version,
                413,
                "document too large",
                Then::Close,
            ));
        }
        if self.input.len() - head_len < body_len {
            if at_eof {
                let why = "body shorter than its Content-Length";
                return Some(Response::text(version, 400, why, Then::Close));
            }
            return None;
        }
        // A body the server does not read would be taken for the next
        // request, so a GET that claims one ends its connection.
        let then = if request.keep_alive && !at_eof && body_len == request.content_length {
            Then::KeepAlive
        } else {
            Then::Close
        };
        let body = &self.input[head_len..head_len + body_len];
        let (status, document, content_type) = answer(&request, body, routes);
        let response = Response::new(version, status, document, content_type, then);
        self.input.drain(..head_len + body_len);
        Some(response)
    }

    /// Writes what the socket takes of the response, then moves on to
    /// what follows it. Returns whether the connection stays open.
    fn send(&mut self, stream: &mut TcpStream, routes: &RwLock<Routes>) -> bool {
        loop {
            let Phase::Writing(response) = &mut self.phase else {
                return true;
            };
            match response.write_to(stream) {
                Ok(true) => {}
                Ok(false) => {
                    // Blocked: resume when the socket drains. A client
                    // that stops reading is cut off after IDLE_TIMEOUT.
                    self.deadline = Instant::now() + IDLE_TIMEOUT;
                    return true;
                }
                Err(_) => return false,
            }
            match response.then {
                Then::Close => return false,
                Then::Drain => {
                    let _ = stream.shutdown(Shutdown::Write);
                    self.input = Vec::new();
                    self.phase = Phase::Draining { reads: 0 };
                    self.deadline = Instant::now() + DRAIN_DEADLINE;
                    return true;
                }
                Then::KeepAlive if self.input.is_empty() => {
                    self.phase = Phase::Idle;
                    self.deadline = Instant::now() + IDLE_TIMEOUT;
                    return true;
                }
                Then::KeepAlive => {
                    // The client sent its next request early.
                    self.phase = Phase::READING;
                    self.deadline = Instant::now() + REQUEST_DEADLINE;
                    match self.request(routes, true, false) {
                        Some(next) => self.phase = Phase::Writing(next),
                        None => return true,
                    }
                }
            }
        }
    }
}

/// What a connection does once its response is sent.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Then {
    /// Wait for the next request.
    KeepAlive,
    Close,
    /// Shut the write side and discard input for a while, then close.
    Drain,
}

/// A response on its way out: the head, then the document, which for a
/// static document is shared with the routes, not copied.
struct Response {
    head: String,
    body: Arc<str>,
    /// Bytes of head and body written so far.
    sent: usize,
    then: Then,
}

impl Response {
    fn new(version: &str, status: u16, body: Arc<str>, content_type: &str, then: Then) -> Self {
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
        let connection = match then {
            Then::KeepAlive => "keep-alive",
            Then::Close | Then::Drain => "close",
        };
        let head = format!(
            "{version} {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
            body.len()
        );
        Response {
            head,
            body,
            sent: 0,
            then,
        }
    }

    fn text(version: &str, status: u16, message: &str, then: Then) -> Self {
        Response::new(version, status, message.into(), "text/plain", then)
    }

    /// Writes until the socket would block; `Ok(true)` once all is sent.
    /// Head and body leave in one gathered write: two writes under
    /// TCP_NODELAY put the head in a segment of its own.
    fn write_to(&mut self, stream: &mut TcpStream) -> std::io::Result<bool> {
        let (head, body) = (self.head.as_bytes(), self.body.as_bytes());
        while self.sent < head.len() + body.len() {
            let written = match head.get(self.sent..) {
                Some(rest) if !rest.is_empty() => {
                    stream.write_vectored(&[IoSlice::new(rest), IoSlice::new(body)])
                }
                _ => stream.write(&body[self.sent - head.len()..]),
            };
            match written {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// The status, body and content type that answer a parsed request whose
/// body (for a POST or PUT) is `body`.
fn answer(
    request: &RequestHead<'_>,
    body: &[u8],
    routes: &RwLock<Routes>,
) -> (u16, Arc<str>, &'static str) {
    let text = |status, message: &str| (status, Arc::from(message), "text/plain");
    let path = request.path;
    let bare = path.split('?').next().unwrap_or(path);
    // Remote format registration (paper §7's "format registration
    // mechanism … that incorporates the HTTP protocol"): POST/PUT a
    // schema document to publish it at the request path.
    if matches!(request.method, "POST" | "PUT") {
        let Ok(document) = std::str::from_utf8(body) else {
            return text(400, "document is not UTF-8");
        };
        // Reject documents that are not well-formed schemas: a central
        // metadata server should not propagate garbage to subscribers.
        if let Err(e) = Schema::parse_str(document) {
            return text(422, &format!("not a schema: {e}"));
        }
        unpoisoned(routes.write())
            .documents
            .insert(bare.to_owned(), Published::new(document.to_owned()));
        return text(201, "registered");
    }
    if request.method != "GET" {
        return text(405, "method not allowed");
    }
    // A static document is shared; a generator serves what it
    // generates, whatever the request asked.
    let published = unpoisoned(routes.read()).documents.get(bare).cloned();
    if let Some(published) = published {
        let document = if request.closure {
            published.closure()
        } else {
            &published.whole
        };
        return (200, Arc::clone(document), "text/xml");
    }
    let generated = unpoisoned(routes.read())
        .generators
        .iter()
        .find(|(prefix, _)| path.starts_with(prefix.as_str()))
        .and_then(|(_, generator)| generator(path));
    match generated {
        Some(document) => (200, document.into(), "text/xml"),
        None => text(404, "no such metadata document"),
    }
}

/// The length of the head at the front of `bytes` — its first line, then
/// lines through the first empty one (`\r\n` or `\n`) — once that line
/// has arrived. The search starts at `*line_start`, the start of the
/// first line not yet seen whole (0: the first line, which cannot end
/// the head however short it is), and leaves it there for the next call,
/// so bytes that arrive a few at a time are scanned once.
pub(crate) fn head_end(bytes: &[u8], line_start: &mut usize) -> Option<usize> {
    while let Some(at) = bytes[*line_start..].iter().position(|b| *b == b'\n') {
        let line = &bytes[*line_start..=*line_start + at];
        let first = *line_start == 0;
        *line_start += at + 1;
        if !first && matches!(line, b"\r\n" | b"\n") {
            return Some(*line_start);
        }
    }
    None
}

/// Whether a comma-separated header value lists `token`, in any case.
pub(crate) fn lists_token(value: &[u8], token: &[u8]) -> bool {
    value
        .split(|b| *b == b',')
        .any(|item| item.trim_ascii().eq_ignore_ascii_case(token))
}

/// What the server acts on in a request head, borrowed from its bytes.
#[derive(Debug, PartialEq, Eq)]
struct RequestHead<'a> {
    method: &'a str,
    /// The request target, query string included.
    path: &'a str,
    /// The request line's third word, `HTTP/1.0` or `HTTP/1.1`.
    version: &'a str,
    content_length: usize,
    /// [`CLOSURE_HEADER`] came with the value `first`.
    closure: bool,
    /// `Connection` lists `keep-alive`.
    keep_alive: bool,
}

/// Parses a request head as [`head_end`] delimits it: the request line,
/// then `name: value` header lines. Header names match without regard to
/// case, and a header the server does not know is skipped, as is a line
/// without a colon. Refuses, with the reason to answer `400` with, a
/// request line that is not UTF-8 and a `Content-Length` that is not a
/// number.
fn parse_request_head(head: &[u8]) -> Result<RequestHead<'_>, &'static str> {
    let mut lines = head.split(|b| *b == b'\n');
    let request_line = std::str::from_utf8(lines.next().unwrap_or_default())
        .map_err(|_| "request line is not UTF-8")?;
    let mut parts = request_line.split_whitespace();
    let mut request = RequestHead {
        method: parts.next().unwrap_or(""),
        path: parts.next().unwrap_or("/"),
        version: parts.next().unwrap_or(""),
        content_length: 0,
        closure: false,
        keep_alive: false,
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
        } else if name.eq_ignore_ascii_case(b"connection") {
            request.keep_alive = lists_token(value, b"keep-alive");
        }
    }
    Ok(request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{http_get_observed, MAX_RESPONSE_BYTES};
    use crate::discovery::{DiscoveryPolicy, Extent};

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

    /// `accept_wakeups` counts connections, so the loop's own wake-ups
    /// are counted apart: with no connection open it waits without a
    /// timeout, before its first client and after its last.
    #[test]
    fn a_loop_without_connections_never_wakes() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/a.xsd", DOC);
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(server.wakeups.load(Ordering::SeqCst), 0);
        // Not through the client, which would keep the connection open.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"GET /a.xsd HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200"), "{response}");
        std::thread::sleep(Duration::from_millis(50));
        let settled = server.wakeups.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(server.wakeups.load(Ordering::SeqCst), settled);
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
            version: "HTTP/1.0",
            content_length: 0,
            closure,
            keep_alive: false,
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

    /// Eight clients each hold half a request head. A server of four
    /// blocking workers gave each of them a worker for its 5 s read
    /// deadline, and a ninth client failed both attempts of the default
    /// policy.
    #[test]
    fn half_sent_heads_do_not_starve_other_clients() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/a.xsd", DOC);
        let held: Vec<TcpStream> = (0..8)
            .map(|_| {
                let mut stream = TcpStream::connect(server.local_addr()).unwrap();
                stream.write_all(b"GET /a.xsd HTTP/1.0\r\nHo").unwrap();
                stream
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        assert_eq!(http_get(&server.url_for("/a.xsd")).unwrap(), DOC);
        assert!(
            start.elapsed() < Duration::from_millis(200),
            "{:?}",
            start.elapsed()
        );
        drop(held);
    }

    #[test]
    fn idle_connections_do_not_delay_a_fresh_get() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/a.xsd", DOC);
        let idle: Vec<TcpStream> = (0..200)
            .map(|_| TcpStream::connect(server.local_addr()).unwrap())
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        assert_eq!(http_get(&server.url_for("/a.xsd")).unwrap(), DOC);
        assert!(
            start.elapsed() < Duration::from_millis(200),
            "{:?}",
            start.elapsed()
        );
        drop(idle);
    }

    /// A keep-alive response whose `Content-Length` is past the cap is
    /// refused from its head: the client does not wait for a body the
    /// server is still holding back.
    #[test]
    fn a_content_length_past_the_cap_is_refused_from_the_head() {
        let (url, server) = serve_once(|stream| {
            let head = format!(
                "HTTP/1.0 200 OK\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n<a",
                MAX_RESPONSE_BYTES
            );
            stream.write_all(head.as_bytes()).unwrap();
            std::thread::sleep(Duration::from_secs(2));
        });
        let start = Instant::now();
        let err = http_get_with(&url, &one_attempt()).unwrap_err();
        assert!(err.to_string().contains("response cap"), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
        server.join().unwrap();
    }
}
