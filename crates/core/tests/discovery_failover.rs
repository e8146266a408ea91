//! Failure-mode matrix for fault-tolerant discovery (§3.3's degraded
//! mode): a remote primary that is dead, black-holed, slow, or broken
//! must fail over to the compiled-in source within the policy's
//! deadlines — never hang, and never mask what happened from the
//! stats.
//!
//! Every test asserts three things: the fetch still succeeds (the
//! fallback serves), the wall clock stayed inside the policy's bound,
//! and the [`DiscoveryStats`] recorded who failed and how.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use xml2wire::discovery::DiscoveryStatsSnapshot;
use xml2wire::{CompiledSource, DiscoveryChain, DiscoveryPolicy, UrlSource, Xml2Wire};

const DOC: &str = "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"/>";

/// A fast-failing policy shared by the matrix: two attempts, short
/// deadlines, all bounded well under the 2 s acceptance ceiling.
fn tight_policy() -> DiscoveryPolicy {
    DiscoveryPolicy {
        connect_timeout: Duration::from_millis(150),
        read_timeout: Duration::from_millis(200),
        write_timeout: Duration::from_millis(200),
        attempts: 2,
        backoff_base: Duration::from_millis(20),
        backoff_max: Duration::from_millis(80),
        total_deadline: Duration::from_millis(800),
    }
}

/// A chain whose primary is `url` (under `policy`) and whose fallback
/// is a compiled-in document keyed by the same locator.
fn chain_with_fallback(policy: DiscoveryPolicy, locator: &str) -> DiscoveryChain {
    let mut chain = DiscoveryChain::new();
    chain.push(Box::new(UrlSource::new().policy(policy)));
    chain.push(Box::new(CompiledSource::new().with_document(locator, DOC)));
    chain
}

/// Asserts the primary failed, the fallback served, and exactly one
/// chain fetch completed.
fn assert_failover_shape(snap: &DiscoveryStatsSnapshot) {
    let url = snap.source("url").expect("url source was never consulted");
    assert_eq!((url.attempts, url.failures), (1, 1), "{snap:?}");
    let compiled = snap.source("compiled-in").expect("fallback was never consulted");
    assert_eq!((compiled.attempts, compiled.failures), (1, 0), "{snap:?}");
    assert_eq!(snap.fetches, 1);
}

#[test]
fn dead_server_rst_fails_over_fast() {
    // Bind then drop: the kernel answers connects with RST. The
    // cheapest failure — both attempts burn almost no wall clock.
    let locator = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        format!("http://{}/s.xsd", listener.local_addr().unwrap())
    };
    let chain = chain_with_fallback(tight_policy(), &locator);
    let start = Instant::now();
    assert_eq!(chain.fetch(&locator).unwrap(), DOC);
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(2), "failover took {elapsed:?}");
    let snap = chain.stats().snapshot();
    assert_failover_shape(&snap);
    // RST is a transport failure, so the policy's retry fired.
    assert_eq!(snap.retries, 1, "{snap:?}");
}

#[test]
fn black_holed_server_fails_over_within_the_deadline() {
    // A listener that never accepts, its backlog pre-filled: further
    // connects get no SYN-ACK handling and just hang — the failure mode
    // that costs ~2 minutes under the OS default connect timeout.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut filler = Vec::new();
    for _ in 0..600 {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(50)) {
            Ok(stream) => filler.push(stream),
            Err(_) => break, // backlog is full: the hole is black
        }
    }
    assert!(filler.len() < 600, "backlog never filled; black hole not established");

    let locator = format!("http://{addr}/s.xsd");
    let policy = tight_policy();
    let chain = chain_with_fallback(policy.clone(), &locator);
    let start = Instant::now();
    assert_eq!(chain.fetch(&locator).unwrap(), DOC, "fallback did not serve");
    let elapsed = start.elapsed();
    // The acceptance bound: a black-holed primary must still resolve
    // from the fallback in under two seconds.
    assert!(elapsed < Duration::from_secs(2), "failover took {elapsed:?}");
    let snap = chain.stats().snapshot();
    assert_failover_shape(&snap);
    assert_eq!(snap.retries, 1, "connect timeouts should burn the retry: {snap:?}");
    drop(filler);
}

#[test]
fn slow_server_drip_feeding_bytes_is_cut_off_by_the_total_deadline() {
    // A server that accepts and then drips one byte per 100 ms: each
    // read succeeds inside `read_timeout`, so only the re-armed clamp
    // against `total_deadline` can stop the bleed.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        while let Ok((mut stream, _)) = listener.accept() {
            for byte in b"HTTP/1.0 200 OK\r\nContent-Type: text/xml\r\n\r\ndrip".iter() {
                if stream.write_all(&[*byte]).is_err() {
                    break;
                }
                let _ = stream.flush();
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    });

    let locator = format!("http://{addr}/s.xsd");
    let policy = tight_policy();
    let chain = chain_with_fallback(policy.clone(), &locator);
    let start = Instant::now();
    assert_eq!(chain.fetch(&locator).unwrap(), DOC, "fallback did not serve");
    let elapsed = start.elapsed();
    // One drip-fed attempt consumes the whole total_deadline, so the
    // bound is deadline + fallback, with margin for a loaded machine.
    assert!(elapsed < Duration::from_secs(2), "drip feed stalled discovery for {elapsed:?}");
    assert!(
        elapsed >= Duration::from_millis(100),
        "suspiciously fast — did the drip server even run?"
    );
    assert_failover_shape(&chain.stats().snapshot());
}

#[test]
fn http_500_is_definitive_and_not_retried() {
    // A broken-but-alive server: definitive HTTP statuses come back
    // immediately, with no retries, and the chain falls through.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        while let Ok((mut stream, _)) = listener.accept() {
            // Drain the request before answering; closing with unread
            // input would RST the response out from under the client.
            let mut buf = [0u8; 1024];
            let _ = std::io::Read::read(&mut stream, &mut buf);
            let _ = stream
                .write_all(b"HTTP/1.0 500 Internal Server Error\r\n\r\nboom");
        }
    });

    let locator = format!("http://{addr}/s.xsd");
    let chain = chain_with_fallback(tight_policy(), &locator);
    let start = Instant::now();
    assert_eq!(chain.fetch(&locator).unwrap(), DOC);
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_millis(800), "500 took {elapsed:?} — was it retried?");
    let snap = chain.stats().snapshot();
    assert_failover_shape(&snap);
    assert_eq!(snap.retries, 0, "definitive statuses must not retry: {snap:?}");
}

#[test]
fn stale_cache_survives_a_primary_that_dies_after_first_fetch() {
    // End-to-end degraded mode through a session: discover once while
    // the server lives, lose the server — the last good copy still
    // serves, and the stats say so.
    let server = xml2wire::MetadataServer::bind("127.0.0.1:0").unwrap();
    server.publish("/s.xsd", DOC);
    let locator = server.url_for("/s.xsd");

    let x2w = Xml2Wire::builder().source(Box::new(UrlSource::new().policy(tight_policy()))).build();
    x2w.discover(&locator).unwrap();
    drop(server); // primary dies

    let start = Instant::now();
    x2w.discover(&locator).expect("stale copy did not serve");
    assert!(start.elapsed() < Duration::from_secs(2));
    let snap = x2w.discovery_stats();
    assert_eq!(snap.stale_serves, 1, "{snap:?}");
    let url = snap.source("url").unwrap();
    assert_eq!((url.attempts, url.failures), (2, 1), "{snap:?}");
}

#[test]
fn mean_fetch_latency_is_reported() {
    let server = xml2wire::MetadataServer::bind("127.0.0.1:0").unwrap();
    server.publish("/s.xsd", DOC);
    let locator = server.url_for("/s.xsd");
    let mut chain = DiscoveryChain::new();
    chain.push(Box::new(UrlSource::new().policy(tight_policy())));
    chain.fetch(&locator).unwrap();
    chain.fetch(&locator).unwrap();
    let snap = chain.stats().snapshot();
    assert_eq!(snap.fetches, 2);
    let mean = snap.mean_fetch_latency().expect("no latency recorded");
    assert!(mean > Duration::ZERO && mean < Duration::from_secs(1), "{mean:?}");
}
