//! The format server: globally negotiated format ids.
//!
//! PBIO proper negotiated format ids with a *format server* so that an
//! id in a wire header meant the same thing to every process; §4.2 of
//! the paper also leans on this for degraded-mode operation ("such
//! formats could allow communication with a configuration server or
//! broker"). This module reproduces that piece:
//!
//! * [`FormatIdServer`] assigns one id per distinct (name, structure)
//!   pair, idempotently, and serves the metadata back *by id* — so a
//!   receiver that sees an unknown id in a message header can fetch the
//!   format's schema and bind it on the spot, having known nothing in
//!   advance.
//! * [`FormatIdClient`] talks to the server; sessions use it through
//!   [`Xml2Wire::register_schema_via_server`] and
//!   [`Xml2Wire::decode_resolving`].
//!
//! [`Xml2Wire::register_schema_via_server`]: crate::Xml2Wire::register_schema_via_server
//! [`Xml2Wire::decode_resolving`]: crate::Xml2Wire::decode_resolving
//!
//! The protocol is deliberately tiny (length-prefixed binary over TCP,
//! one request per connection): ids are negotiated once per format, not
//! per message, so simplicity beats cleverness.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::RwLock;

use crate::error::X2wError;

const OP_REGISTER: u8 = 1;
const OP_LOOKUP: u8 = 2;
const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;
const MAX_DOC: u32 = 16 * 1024 * 1024;

#[derive(Default)]
struct State {
    /// fingerprint → id (idempotent registration).
    by_fingerprint: HashMap<String, u32>,
    /// id → (format name, schema document).
    by_id: HashMap<u32, (String, String)>,
    next: u32,
}

/// The server side: assigns and resolves global format ids.
pub struct FormatIdServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    state: Arc<RwLock<State>>,
    wakeups: Arc<AtomicU64>,
}

impl std::fmt::Debug for FormatIdServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FormatIdServer").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl FormatIdServer {
    /// Binds and starts serving (port 0 for ephemeral).
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn bind(addr: impl ToSocketAddrs) -> Result<FormatIdServer, X2wError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state: Arc<RwLock<State>> = Arc::new(RwLock::new(State {
            by_fingerprint: HashMap::new(),
            by_id: HashMap::new(),
            // Id 0 is reserved so an uninitialized header id never
            // resolves by accident.
            next: 1,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let wakeups = Arc::new(AtomicU64::new(0));
        let handle = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let wakeups = Arc::clone(&wakeups);
            std::thread::Builder::new()
                .name("format-id-server".to_owned())
                .spawn(move || accept_loop(&listener, &state, &stop, &wakeups))?
        };
        Ok(FormatIdServer { addr, stop, handle: Some(handle), state, wakeups })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of distinct formats registered.
    pub fn format_count(&self) -> usize {
        self.state.read().by_id.len()
    }

    /// How many times the accept loop has woken. It blocks in
    /// `accept(2)` (no sleep-polling), so an idle server stays at zero;
    /// shutdown wakes it once via a self-connect.
    pub fn accept_wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::SeqCst)
    }
}

impl Drop for FormatIdServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<RwLock<State>>,
    stop: &Arc<AtomicBool>,
    wakeups: &Arc<AtomicU64>,
) {
    loop {
        // Blocking accept: an idle format server sleeps in the kernel
        // instead of burning a 500µs sleep-poll cycle. `Drop` sets
        // `stop` and self-connects to wake it for shutdown.
        match listener.accept() {
            Ok((stream, _)) => {
                wakeups.fetch_add(1, Ordering::SeqCst);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let state = Arc::clone(state);
                std::thread::spawn(move || {
                    let _ = handle_request(stream, &state);
                });
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                // Error backoff so a persistent EMFILE cannot busy-spin.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn read_u32(stream: &mut TcpStream) -> std::io::Result<u32> {
    let mut buf = [0u8; 4];
    stream.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_block(stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let len = read_u32(stream)?;
    if len > MAX_DOC {
        return Ok(None);
    }
    let mut buf = vec![0u8; len as usize];
    stream.read_exact(&mut buf)?;
    Ok(Some(buf))
}

fn write_block(out: &mut Vec<u8>, block: &[u8]) {
    out.extend_from_slice(&(block.len() as u32).to_le_bytes());
    out.extend_from_slice(block);
}

fn handle_request(mut stream: TcpStream, state: &RwLock<State>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_nodelay(true)?;
    let mut op = [0u8; 1];
    stream.read_exact(&mut op)?;
    let mut response = Vec::new();
    match op[0] {
        OP_REGISTER => {
            let name = read_block(&mut stream)?;
            let doc = read_block(&mut stream)?;
            match (name, doc) {
                (Some(name), Some(doc)) => {
                    match register(state, &name, &doc) {
                        Ok(id) => {
                            response.push(STATUS_OK);
                            response.extend_from_slice(&id.to_le_bytes());
                        }
                        Err(message) => {
                            response.push(STATUS_ERR);
                            write_block(&mut response, message.as_bytes());
                        }
                    }
                }
                _ => {
                    response.push(STATUS_ERR);
                    write_block(&mut response, b"oversized request");
                }
            }
        }
        OP_LOOKUP => {
            let id = read_u32(&mut stream)?;
            match state.read().by_id.get(&id) {
                Some((name, doc)) => {
                    response.push(STATUS_OK);
                    write_block(&mut response, name.as_bytes());
                    write_block(&mut response, doc.as_bytes());
                }
                None => {
                    response.push(STATUS_ERR);
                    write_block(
                        &mut response,
                        format!("no format registered under id {id}").as_bytes(),
                    );
                }
            }
        }
        other => {
            response.push(STATUS_ERR);
            write_block(&mut response, format!("unknown op {other}").as_bytes());
        }
    }
    stream.write_all(&response)?;
    stream.flush()
}

fn register(state: &RwLock<State>, name: &[u8], doc: &[u8]) -> Result<u32, String> {
    let name = std::str::from_utf8(name).map_err(|_| "name is not UTF-8".to_owned())?;
    let doc = std::str::from_utf8(doc).map_err(|_| "document is not UTF-8".to_owned())?;
    // Validate and fingerprint structurally: two documents describing the
    // same structure (whitespace/order of attributes aside) get one id.
    let schema = xsdlite::Schema::parse_str(doc).map_err(|e| format!("not a schema: {e}"))?;
    let ty = schema
        .complex_type(name)
        .ok_or_else(|| format!("document does not define complex type {name:?}"))?;
    let fingerprint = format!("{name}\n{ty:?}");
    let mut state = state.write();
    if let Some(id) = state.by_fingerprint.get(&fingerprint) {
        return Ok(*id);
    }
    let id = state.next;
    state.next += 1;
    state.by_fingerprint.insert(fingerprint, id);
    state.by_id.insert(id, (name.to_owned(), doc.to_owned()));
    Ok(id)
}

/// The client side of the format server protocol.
///
/// Connections are per-request: negotiation happens once per format.
#[derive(Debug, Clone)]
pub struct FormatIdClient {
    addr: SocketAddr,
}

impl FormatIdClient {
    /// A client for the server at `addr`.
    ///
    /// # Errors
    ///
    /// Address resolution failures.
    pub fn new(addr: impl ToSocketAddrs) -> Result<FormatIdClient, X2wError> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| X2wError::BadLocator {
            locator: "<format id server>".to_owned(),
            reason: "address resolved to nothing".to_owned(),
        })?;
        Ok(FormatIdClient { addr })
    }

    fn roundtrip(&self, request: &[u8]) -> Result<Vec<u8>, X2wError> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_nodelay(true)?;
        stream.write_all(request)?;
        stream.shutdown(std::net::Shutdown::Write)?;
        let mut response = Vec::new();
        stream.read_to_end(&mut response)?;
        Ok(response)
    }

    fn check(response: &[u8]) -> Result<&[u8], X2wError> {
        match response.split_first() {
            Some((&STATUS_OK, rest)) => Ok(rest),
            Some((&STATUS_ERR, rest)) => {
                let message = rest
                    .get(4..)
                    .map(|m| String::from_utf8_lossy(m).into_owned())
                    .unwrap_or_default();
                Err(X2wError::Discovery {
                    locator: "<format id server>".to_owned(),
                    attempts: vec![message],
                })
            }
            _ => Err(X2wError::Discovery {
                locator: "<format id server>".to_owned(),
                attempts: vec!["empty or malformed response".to_owned()],
            }),
        }
    }

    /// Registers `(name, schema document)` and returns the global id
    /// (idempotent: identical structures share one id).
    ///
    /// # Errors
    ///
    /// Connection failures or server-side rejection.
    pub fn register(&self, name: &str, schema_doc: &str) -> Result<u32, X2wError> {
        let mut request = vec![OP_REGISTER];
        write_block(&mut request, name.as_bytes());
        write_block(&mut request, schema_doc.as_bytes());
        let response = self.roundtrip(&request)?;
        let body = Self::check(&response)?;
        body.get(..4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .ok_or_else(|| X2wError::Discovery {
                locator: "<format id server>".to_owned(),
                attempts: vec!["short response".to_owned()],
            })
    }

    /// Fetches the `(name, schema document)` registered under `id`.
    ///
    /// # Errors
    ///
    /// Connection failures or unknown ids.
    pub fn lookup(&self, id: u32) -> Result<(String, String), X2wError> {
        let mut request = vec![OP_LOOKUP];
        request.extend_from_slice(&id.to_le_bytes());
        let response = self.roundtrip(&request)?;
        let mut body = Self::check(&response)?;
        let mut take = |what: &str| -> Result<String, X2wError> {
            let err = || X2wError::Discovery {
                locator: "<format id server>".to_owned(),
                attempts: vec![format!("short response reading {what}")],
            };
            let len = body.get(..4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .ok_or_else(err)? as usize;
            let bytes = body.get(4..4 + len).ok_or_else(err)?;
            body = &body[4 + len..];
            String::from_utf8(bytes.to_vec()).map_err(|_| err())
        };
        let name = take("name")?;
        let doc = take("document")?;
        Ok((name, doc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLIGHT: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Flight">
    <xsd:element name="arln" type="xsd:string"/>
    <xsd:element name="fltNum" type="xsd:integer"/>
  </xsd:complexType>
</xsd:schema>"#;

    #[test]
    fn register_is_idempotent_and_lookup_round_trips() {
        let server = FormatIdServer::bind("127.0.0.1:0").unwrap();
        let client = FormatIdClient::new(server.local_addr()).unwrap();
        let id1 = client.register("Flight", FLIGHT).unwrap();
        let id2 = client.register("Flight", FLIGHT).unwrap();
        assert_eq!(id1, id2);
        assert!(id1 >= 1, "id 0 is reserved");
        assert_eq!(server.format_count(), 1);

        let (name, doc) = client.lookup(id1).unwrap();
        assert_eq!(name, "Flight");
        assert_eq!(doc, FLIGHT);
    }

    #[test]
    fn distinct_structures_get_distinct_ids() {
        let server = FormatIdServer::bind("127.0.0.1:0").unwrap();
        let client = FormatIdClient::new(server.local_addr()).unwrap();
        let id1 = client.register("Flight", FLIGHT).unwrap();
        let other = FLIGHT.replace("fltNum", "flightNumber");
        let id2 = client.register("Flight", &other).unwrap();
        assert_ne!(id1, id2);
    }

    #[test]
    fn structurally_identical_documents_share_an_id() {
        // Same structure, different whitespace/formatting.
        let server = FormatIdServer::bind("127.0.0.1:0").unwrap();
        let client = FormatIdClient::new(server.local_addr()).unwrap();
        let id1 = client.register("Flight", FLIGHT).unwrap();
        let reformatted = xsdlite::Schema::parse_str(FLIGHT).unwrap().to_xml_string();
        assert_ne!(reformatted, FLIGHT);
        let id2 = client.register("Flight", &reformatted).unwrap();
        assert_eq!(id1, id2);
    }

    #[test]
    fn unknown_ids_and_garbage_are_rejected() {
        let server = FormatIdServer::bind("127.0.0.1:0").unwrap();
        let client = FormatIdClient::new(server.local_addr()).unwrap();
        assert!(client.lookup(999).is_err());
        assert!(client.register("Flight", "<garbage").is_err());
        assert!(client.register("NoSuchType", FLIGHT).is_err());
    }

    #[test]
    fn many_concurrent_clients_agree_on_ids() {
        let server = FormatIdServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    FormatIdClient::new(addr).unwrap().register("Flight", FLIGHT).unwrap()
                })
            })
            .collect();
        let ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "{ids:?}");
        assert_eq!(server.format_count(), 1);
    }

    #[test]
    fn idle_id_server_never_wakes() {
        // The accept loop must block in accept(2), not sleep-poll: an
        // idle format server that wakes 2000 times a second would drag
        // down exactly the constrained devices §4.2 cares about.
        let server = FormatIdServer::bind("127.0.0.1:0").unwrap();
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(server.accept_wakeups(), 0, "idle accept loop woke up");
        // A real request wakes it exactly once.
        let client = FormatIdClient::new(server.local_addr()).unwrap();
        let _ = client.register("Flight", FLIGHT).unwrap();
        assert_eq!(server.accept_wakeups(), 1);
    }

    #[test]
    fn dead_server_fails_cleanly() {
        let addr;
        {
            let server = FormatIdServer::bind("127.0.0.1:0").unwrap();
            addr = server.local_addr();
        }
        let client = FormatIdClient::new(addr).unwrap();
        assert!(client.register("Flight", FLIGHT).is_err());
    }
}
