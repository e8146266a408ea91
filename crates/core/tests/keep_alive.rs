//! Persistent connections between the metadata server and its client.
//!
//! The client keeps idle connections in one process-wide cache, and
//! these tests count what reaches the server (`accept_wakeups`) and, on
//! Linux, the process's open descriptors: each test holds [`ALONE`] for
//! its whole body so another test's connections never land in its
//! counts. Accept counts are exact, so they pin reuse without timing.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use xml2wire::server::http_get;
use xml2wire::{MetadataServer, UrlSource, Xml2Wire};

static ALONE: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ALONE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const CATALOGUE: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Root"><xsd:element name="x" type="xsd:int"/></xsd:complexType>
  <xsd:complexType name="Filler"><xsd:element name="y" type="xsd:double"/></xsd:complexType>
</xsd:schema>"#;

fn joiner() -> Xml2Wire {
    Xml2Wire::builder()
        .source(Box::new(UrlSource::new()))
        .build()
}

/// Sends `request` over `stream` and reads one response: to EOF when
/// `whole`, else through the `Content-Length` its head gives.
fn exchange(stream: &mut TcpStream, request: &str, whole: bool) -> String {
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = Vec::new();
    if whole {
        stream.read_to_end(&mut response).unwrap();
        return String::from_utf8(response).unwrap();
    }
    let mut byte = [0u8; 1];
    while !response.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).unwrap();
        response.push(byte[0]);
    }
    let head = String::from_utf8(response).unwrap();
    let length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .unwrap()
        .parse()
        .unwrap();
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).unwrap();
    head + std::str::from_utf8(&body).unwrap()
}

#[test]
fn a_hundred_cold_joins_make_one_accept() {
    let _alone = alone();
    let server = MetadataServer::bind("127.0.0.1:0").unwrap();
    server.publish("/c.xsd", CATALOGUE);
    let url = server.url_for("/c.xsd");
    for _ in 0..100 {
        // A fresh session each time: its own registry and schema cache,
        // so every join sends a request and parses what comes back.
        let formats = joiner().discover_root(&url).unwrap();
        assert_eq!(formats.len(), 1);
    }
    assert_eq!(server.accept_wakeups(), 1);
}

#[test]
fn requests_that_do_not_ask_to_keep_the_connection_are_closed_after_the_response() {
    let _alone = alone();
    let server = MetadataServer::bind("127.0.0.1:0").unwrap();
    server.publish("/c.xsd", CATALOGUE);
    for request in [
        "GET /c.xsd HTTP/1.0\r\n\r\n",
        "GET /c.xsd HTTP/1.0\r\nConnection: close\r\n\r\n",
        "GET /c.xsd HTTP/1.1\r\nConnection: close\r\n\r\n",
    ] {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Read to EOF: the server closes.
        let response = exchange(&mut stream, request, true);
        let version = &request[request.find("HTTP/").unwrap()..][..8];
        assert!(
            response.starts_with(&format!("{version} 200 OK")),
            "{response}"
        );
        assert!(response.contains("\r\nConnection: close\r\n"), "{response}");
        assert!(response.ends_with(CATALOGUE), "{response}");
    }
    // Asked to, the server keeps it: two requests, one connection.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    for path in ["/c.xsd", "/missing.xsd"] {
        let request = format!("GET {path} HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        let response = exchange(&mut stream, &request, false);
        assert!(
            response.contains("\r\nConnection: keep-alive\r\n"),
            "{response}"
        );
    }
    assert_eq!(server.accept_wakeups(), 4);
}

#[test]
fn a_large_document_is_served_whole_through_partial_writes() {
    let _alone = alone();
    let server = MetadataServer::bind("127.0.0.1:0").unwrap();
    let big: String = (0..4 << 20)
        .map(|i| char::from(b'a' + (i % 26) as u8))
        .collect();
    server.publish("/big.xsd", big.as_str());
    server.publish("/c.xsd", CATALOGUE);
    // A client that asks and does not read yet: the response is more
    // than loopback's socket buffers hold (they took about 3.9 MB on
    // Linux 6.x), so the server's writes stop part way, and the loop
    // must go on serving others meanwhile.
    let mut slow = TcpStream::connect(server.local_addr()).unwrap();
    slow.write_all(b"GET /big.xsd HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let start = Instant::now();
    assert_eq!(http_get(&server.url_for("/c.xsd")).unwrap(), CATALOGUE);
    assert!(
        start.elapsed() < Duration::from_millis(200),
        "{:?}",
        start.elapsed()
    );
    let response = exchange(&mut slow, "", false);
    assert!(
        response.ends_with(&big),
        "a {}-byte response",
        response.len()
    );
    // And the connection carries the next request.
    let again = exchange(
        &mut slow,
        "GET /c.xsd HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        false,
    );
    assert!(again.ends_with(CATALOGUE), "{again}");
    assert_eq!(http_get(&server.url_for("/big.xsd")).unwrap(), big);
}

#[test]
fn drop_returns_promptly_with_keep_alive_clients_connected() {
    let _alone = alone();
    let server = MetadataServer::bind("127.0.0.1:0").unwrap();
    server.publish("/c.xsd", CATALOGUE);
    assert_eq!(http_get(&server.url_for("/c.xsd")).unwrap(), CATALOGUE);
    let mut held = Vec::new();
    for request in [
        "",
        "GET /c.xsd HTTP/1.0\r\nHost:",
        "GET /c.xsd HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    ] {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        held.push(stream);
    }
    std::thread::sleep(Duration::from_millis(50));
    let start = Instant::now();
    drop(server);
    assert!(
        start.elapsed() < Duration::from_millis(100),
        "drop took {:?}",
        start.elapsed()
    );
    // Every connection was closed: each held client reads to EOF.
    for mut stream in held {
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        if let Err(e) = stream.read_to_end(&mut Vec::new()) {
            assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}");
        }
    }
}

#[test]
fn a_kept_connection_to_a_dropped_server_falls_back_to_a_fresh_connect() {
    let _alone = alone();
    let first = MetadataServer::bind("127.0.0.1:0").unwrap();
    first.publish("/c.xsd", CATALOGUE);
    let url = first.url_for("/c.xsd");
    joiner().discover_root(&url).unwrap();
    // The client keeps a connection to this address; the server that
    // held its other end goes, and a new one takes the port.
    let addr = first.local_addr();
    drop(first);
    let second = MetadataServer::bind(addr).unwrap();
    second.publish("/c.xsd", CATALOGUE);
    let session = joiner();
    assert_eq!(session.discover_root(&url).unwrap().len(), 1);
    assert_eq!(second.accept_wakeups(), 1);
    // The re-send on a fresh connection is not a policy retry.
    let stats = session.discovery_stats();
    assert_eq!((stats.retries, stats.fetches), (0, 1), "{stats:?}");
}

/// Open descriptors in this process.
#[cfg(target_os = "linux")]
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

#[cfg(target_os = "linux")]
#[test]
fn the_cache_keeps_the_eight_most_recent_connections() {
    let _alone = alone();
    let fetch_from_a_new_server = || {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/c.xsd", CATALOGUE);
        assert_eq!(http_get(&server.url_for("/c.xsd")).unwrap(), CATALOGUE);
        server
    };
    // Eight servers come and go: the cache now holds eight connections
    // of this test's, each to a server that is gone.
    for _ in 0..8 {
        drop(fetch_from_a_new_server());
    }
    let full = open_fds();
    for _ in 0..3 {
        drop(fetch_from_a_new_server());
    }
    // The twelfth stays: its connection, the newest, is the one reused.
    let newest = fetch_from_a_new_server();
    assert_eq!(http_get(&newest.url_for("/c.xsd")).unwrap(), CATALOGUE);
    assert_eq!(newest.accept_wakeups(), 1);
    drop(newest);
    // Each new connection pushed out the least recently used one.
    assert!(
        open_fds() <= full,
        "{} descriptors open, {full} with eight kept",
        open_fds()
    );
}
