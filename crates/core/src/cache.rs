//! A schema-document cache over a [`DiscoveryChain`].
//!
//! Discovery is a *control-plane* operation — rare, but on the
//! connection-setup path — so a failing metadata server must cost each
//! process one bounded fetch, not one per thread per binding. This
//! layer adds the standard cache defenses around the chain:
//!
//! - **Positive TTL**: a fetched document is served from memory until
//!   it expires, so format evolution still propagates.
//! - **Negative caching**: a definitive miss short-circuits repeat
//!   fetches for a (shorter) TTL instead of hammering a server that
//!   just said no.
//! - **Stale-while-revalidate**: when every source fails and an
//!   *expired* document is still on hand, the stale copy is served —
//!   the paper's §3.3 degraded mode, generalized from compiled-in
//!   fallbacks to anything fetched before the outage — and one
//!   background refresh is spawned to repair the entry.
//! - **Singleflight**: N threads binding the same locator trigger one
//!   chain fetch; the rest wait for its result.
//!
//! All of it is observable through the chain's shared
//! [`DiscoveryStats`].

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use crate::discovery::{DiscoveryChain, DiscoveryStats};
use crate::error::X2wError;

/// How long a singleflight waiter will wait for the leading fetch
/// before giving up. Chain fetches are themselves deadline-bounded, so
/// this only fires if the leader dies; it exists to turn that into an
/// error instead of a hang.
const FLIGHT_WAIT_CAP: Duration = Duration::from_secs(30);

/// TTLs and refresh behaviour for a [`SchemaCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachePolicy {
    /// How long a fetched document is served without re-consulting the
    /// chain. Shorter = faster format-evolution propagation; longer =
    /// fewer control-plane fetches.
    pub positive_ttl: Duration,
    /// How long a definitive miss suppresses repeat fetches of the same
    /// locator.
    pub negative_ttl: Duration,
    /// How far past `positive_ttl` an expired document may still be
    /// served when every source fails (the stale-while-revalidate
    /// window).
    pub stale_grace: Duration,
    /// Whether a stale serve spawns one background refresh attempt to
    /// repair the entry without blocking the caller.
    pub background_refresh: bool,
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy {
            positive_ttl: Duration::from_secs(60),
            negative_ttl: Duration::from_secs(2),
            stale_grace: Duration::from_secs(300),
            background_refresh: true,
        }
    }
}

impl CachePolicy {
    /// Always revalidate against the chain — no positive or negative
    /// TTL — but keep the stale fallback and singleflight. Metadata
    /// updates propagate immediately (re-publishing a document at the
    /// same locator is how format evolution reaches subscribers), while
    /// an outage still serves the last good document. This is the
    /// default for [`Xml2Wire`](crate::Xml2Wire) sessions.
    pub fn revalidating() -> Self {
        CachePolicy {
            positive_ttl: Duration::ZERO,
            negative_ttl: Duration::ZERO,
            ..CachePolicy::default()
        }
    }
}

/// One cached outcome for a locator.
enum Entry {
    /// A document and when it was fetched.
    Document { document: Arc<String>, fetched_at: Instant },
    /// A definitive failure and when it happened.
    Miss { error: String, at: Instant },
}

/// An in-flight fetch that late arrivals join instead of duplicating.
/// `Result`'s error half is a rendered string because [`X2wError`] is
/// not `Clone`; waiters rebuild a Discovery error around it.
struct Flight {
    done: Mutex<Option<Result<Arc<String>, String>>>,
    cv: Condvar,
}

struct CacheInner {
    chain: DiscoveryChain,
    policy: CachePolicy,
    entries: RwLock<HashMap<String, Entry>>,
    flights: Mutex<HashMap<String, Arc<Flight>>>,
    refreshing: Mutex<HashSet<String>>,
}

/// The cache; cheap to clone (all clones share one store).
///
/// ```
/// # fn main() -> Result<(), xml2wire::X2wError> {
/// let server = xml2wire::MetadataServer::bind("127.0.0.1:0")?;
/// server.publish("/s.xsd", "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"/>");
/// let mut chain = xml2wire::DiscoveryChain::new();
/// chain.push(Box::new(xml2wire::UrlSource::new()));
/// let cache = xml2wire::SchemaCache::new(chain);
/// let url = server.url_for("/s.xsd");
/// let first = cache.fetch(&url)?;   // chain fetch
/// let second = cache.fetch(&url)?;  // served from memory
/// assert_eq!(first, second);
/// assert_eq!(cache.stats().snapshot().cache_hits, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SchemaCache {
    inner: Arc<CacheInner>,
}

impl std::fmt::Debug for SchemaCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchemaCache")
            .field("chain", &self.inner.chain)
            .field("policy", &self.inner.policy)
            .field("entries", &self.inner.entries.read().len())
            .finish()
    }
}

impl SchemaCache {
    /// Wraps `chain` with the default [`CachePolicy`].
    pub fn new(chain: DiscoveryChain) -> Self {
        SchemaCache::with_policy(chain, CachePolicy::default())
    }

    /// Wraps `chain` with an explicit policy.
    pub fn with_policy(chain: DiscoveryChain, policy: CachePolicy) -> Self {
        SchemaCache {
            inner: Arc::new(CacheInner {
                chain,
                policy,
                entries: RwLock::new(HashMap::new()),
                flights: Mutex::new(HashMap::new()),
                refreshing: Mutex::new(HashSet::new()),
            }),
        }
    }

    /// The shared counters (same instance as the wrapped chain's).
    pub fn stats(&self) -> &Arc<DiscoveryStats> {
        self.inner.chain.stats()
    }

    /// The wrapped chain, for callers that need to bypass the cache.
    pub fn chain(&self) -> &DiscoveryChain {
        &self.inner.chain
    }

    /// Drops the cached outcome for `locator`; returns whether one was
    /// present.
    pub fn invalidate(&self, locator: &str) -> bool {
        self.inner.entries.write().remove(locator).is_some()
    }

    /// Drops every cached outcome.
    pub fn clear(&self) {
        self.inner.entries.write().clear();
    }

    /// Fetches `locator`: from a fresh cache entry if possible, else
    /// through the chain (one flight per locator no matter how many
    /// threads ask), serving a stale entry if the chain fails inside
    /// the grace window.
    ///
    /// # Errors
    ///
    /// [`X2wError::Discovery`] when every source fails and no stale
    /// document is available, or replayed from a live negative entry.
    pub fn fetch(&self, locator: &str) -> Result<Arc<String>, X2wError> {
        let stats = Arc::clone(self.inner.chain.stats());
        let now = Instant::now();
        match self.inner.entries.read().get(locator) {
            Some(Entry::Document { document, fetched_at })
                if now.duration_since(*fetched_at) <= self.inner.policy.positive_ttl =>
            {
                stats.note_cache_hit();
                return Ok(Arc::clone(document));
            }
            Some(Entry::Miss { error, at })
                if now.duration_since(*at) <= self.inner.policy.negative_ttl =>
            {
                stats.note_negative_hit();
                return Err(X2wError::Discovery {
                    locator: locator.to_owned(),
                    attempts: vec![format!("cached miss: {error}")],
                });
            }
            _ => {}
        }

        // Entry absent or expired: join or start the flight.
        let (flight, leader) = {
            let mut flights = self.inner.flights.lock().expect("flights lock");
            match flights.get(locator) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight { done: Mutex::new(None), cv: Condvar::new() });
                    flights.insert(locator.to_owned(), Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if !leader {
            stats.note_singleflight_wait();
            return wait_for_flight(&flight, locator);
        }

        let outcome = self.lead_fetch(locator, &stats);
        // Publish before unregistering so arrivals in between still see
        // the result instantly.
        {
            let mut done = flight.done.lock().expect("flight lock");
            *done = Some(match &outcome {
                Ok(document) => Ok(Arc::clone(document)),
                Err(e) => Err(e.to_string()),
            });
        }
        flight.cv.notify_all();
        self.inner.flights.lock().expect("flights lock").remove(locator);
        outcome
    }

    /// The leading thread's path: consult the chain, fall back to a
    /// stale entry inside the grace window, record the outcome.
    fn lead_fetch(
        &self,
        locator: &str,
        stats: &Arc<DiscoveryStats>,
    ) -> Result<Arc<String>, X2wError> {
        match self.inner.chain.fetch(locator) {
            Ok(document) => {
                let document = Arc::new(document);
                self.inner.entries.write().insert(
                    locator.to_owned(),
                    Entry::Document {
                        document: Arc::clone(&document),
                        fetched_at: Instant::now(),
                    },
                );
                Ok(document)
            }
            Err(e) => {
                let stale_cap = self.inner.policy.positive_ttl + self.inner.policy.stale_grace;
                let stale = match self.inner.entries.read().get(locator) {
                    Some(Entry::Document { document, fetched_at })
                        if fetched_at.elapsed() <= stale_cap =>
                    {
                        Some(Arc::clone(document))
                    }
                    _ => None,
                };
                if let Some(document) = stale {
                    stats.note_stale_serve();
                    if self.inner.policy.background_refresh {
                        self.spawn_refresh(locator, stats);
                    }
                    return Ok(document);
                }
                self.inner.entries.write().insert(
                    locator.to_owned(),
                    Entry::Miss { error: e.to_string(), at: Instant::now() },
                );
                Err(e)
            }
        }
    }

    /// Spawns (at most one per locator at a time) a background chain
    /// fetch to repair a stale entry. The refresh does *not* recurse
    /// through the stale-serve path: it either replaces the entry with
    /// a fresh document or leaves the stale one for the next caller.
    fn spawn_refresh(&self, locator: &str, stats: &Arc<DiscoveryStats>) {
        {
            let mut refreshing = self.inner.refreshing.lock().expect("refreshing lock");
            if !refreshing.insert(locator.to_owned()) {
                return;
            }
        }
        stats.note_background_refresh();
        let inner = Arc::clone(&self.inner);
        let locator = locator.to_owned();
        std::thread::spawn(move || {
            if let Ok(document) = inner.chain.fetch(&locator) {
                inner.entries.write().insert(
                    locator.clone(),
                    Entry::Document {
                        document: Arc::new(document),
                        fetched_at: Instant::now(),
                    },
                );
            }
            inner.refreshing.lock().expect("refreshing lock").remove(&locator);
        });
    }
}

/// Blocks on a flight until its leader publishes, rebuilding the error
/// for the waiter's own locator.
fn wait_for_flight(flight: &Flight, locator: &str) -> Result<Arc<String>, X2wError> {
    let deadline = Instant::now() + FLIGHT_WAIT_CAP;
    let mut done = flight.done.lock().expect("flight lock");
    loop {
        if let Some(outcome) = done.as_ref() {
            return match outcome {
                Ok(document) => Ok(Arc::clone(document)),
                Err(error) => Err(X2wError::Discovery {
                    locator: locator.to_owned(),
                    attempts: vec![format!("shared in-flight fetch failed: {error}")],
                }),
            };
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(X2wError::Discovery {
                locator: locator.to_owned(),
                attempts: vec!["timed out waiting on an in-flight fetch".to_owned()],
            });
        }
        let (guard, _) = flight.cv.wait_timeout(done, left).expect("flight lock");
        done = guard;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{CompiledSource, DiscoverySource, UrlSource};
    use crate::server::MetadataServer;
    use std::sync::atomic::{AtomicU64, Ordering};

    const DOC: &str = "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"/>";

    /// A source that counts fetches and can be told to start failing.
    struct FlakySource {
        fetches: Arc<AtomicU64>,
        fail: Arc<std::sync::atomic::AtomicBool>,
    }

    impl DiscoverySource for FlakySource {
        fn source_name(&self) -> &'static str {
            "flaky"
        }

        fn fetch(&self, locator: &str) -> Result<String, X2wError> {
            self.fetches.fetch_add(1, Ordering::SeqCst);
            if self.fail.load(Ordering::SeqCst) {
                Err(X2wError::Discovery {
                    locator: locator.to_owned(),
                    attempts: vec!["flaky source is down".to_owned()],
                })
            } else {
                Ok(DOC.to_owned())
            }
        }
    }

    fn flaky_cache(
        policy: CachePolicy,
    ) -> (SchemaCache, Arc<AtomicU64>, Arc<std::sync::atomic::AtomicBool>) {
        let fetches = Arc::new(AtomicU64::new(0));
        let fail = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut chain = DiscoveryChain::new();
        chain.push(Box::new(FlakySource {
            fetches: Arc::clone(&fetches),
            fail: Arc::clone(&fail),
        }));
        (SchemaCache::with_policy(chain, policy), fetches, fail)
    }

    #[test]
    fn fresh_entries_bypass_the_chain() {
        let (cache, fetches, _) = flaky_cache(CachePolicy::default());
        assert_eq!(*cache.fetch("a.xsd").unwrap(), DOC);
        assert_eq!(*cache.fetch("a.xsd").unwrap(), DOC);
        assert_eq!(*cache.fetch("a.xsd").unwrap(), DOC);
        assert_eq!(fetches.load(Ordering::SeqCst), 1, "chain consulted more than once");
        let snap = cache.stats().snapshot();
        assert_eq!(snap.cache_hits, 2);
    }

    #[test]
    fn negative_entries_suppress_repeat_misses() {
        let (cache, fetches, fail) = flaky_cache(CachePolicy::default());
        fail.store(true, Ordering::SeqCst);
        assert!(cache.fetch("a.xsd").is_err());
        let err = cache.fetch("a.xsd").unwrap_err();
        assert!(err.to_string().contains("cached miss"), "{err}");
        assert_eq!(fetches.load(Ordering::SeqCst), 1, "negative entry did not hold");
        assert_eq!(cache.stats().snapshot().negative_hits, 1);
    }

    #[test]
    fn negative_entries_expire() {
        let policy =
            CachePolicy { negative_ttl: Duration::from_millis(30), ..CachePolicy::default() };
        let (cache, fetches, fail) = flaky_cache(policy);
        fail.store(true, Ordering::SeqCst);
        assert!(cache.fetch("a.xsd").is_err());
        std::thread::sleep(Duration::from_millis(60));
        fail.store(false, Ordering::SeqCst);
        assert_eq!(*cache.fetch("a.xsd").unwrap(), DOC);
        assert_eq!(fetches.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn stale_documents_are_served_when_the_chain_fails() {
        let policy = CachePolicy {
            positive_ttl: Duration::from_millis(20),
            stale_grace: Duration::from_secs(60),
            background_refresh: false,
            ..CachePolicy::default()
        };
        let (cache, _, fail) = flaky_cache(policy);
        assert_eq!(*cache.fetch("a.xsd").unwrap(), DOC);
        std::thread::sleep(Duration::from_millis(40)); // expire it
        fail.store(true, Ordering::SeqCst);
        // Chain fails, but the stale copy keeps the caller alive.
        assert_eq!(*cache.fetch("a.xsd").unwrap(), DOC);
        assert_eq!(cache.stats().snapshot().stale_serves, 1);
    }

    #[test]
    fn stale_serve_spawns_one_background_refresh() {
        let policy = CachePolicy {
            positive_ttl: Duration::from_millis(50),
            stale_grace: Duration::from_secs(60),
            background_refresh: true,
            ..CachePolicy::default()
        };
        let (cache, fetches, fail) = flaky_cache(policy);
        assert_eq!(*cache.fetch("a.xsd").unwrap(), DOC);
        std::thread::sleep(Duration::from_millis(80)); // expire it
        fail.store(true, Ordering::SeqCst);
        assert_eq!(*cache.fetch("a.xsd").unwrap(), DOC);
        // Let the refresh thread run; it fails (source still down) and
        // must leave the stale entry in place.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(cache.stats().snapshot().background_refreshes, 1);
        assert_eq!(*cache.fetch("a.xsd").unwrap(), DOC, "stale entry was lost");
        // Let that second refresh settle, then recover the source: the
        // next fetch succeeds directly and repairs the entry.
        std::thread::sleep(Duration::from_millis(50));
        fail.store(false, Ordering::SeqCst);
        let before = fetches.load(Ordering::SeqCst);
        assert_eq!(*cache.fetch("a.xsd").unwrap(), DOC);
        let repaired = fetches.load(Ordering::SeqCst);
        assert!(repaired > before);
        // The repaired entry is fresh again: no chain fetch this time.
        assert_eq!(*cache.fetch("a.xsd").unwrap(), DOC);
        assert_eq!(fetches.load(Ordering::SeqCst), repaired);
    }

    #[test]
    fn concurrent_expiry_stale_serves_with_exactly_one_refresh() {
        // The stale-while-revalidate worst case: N threads hit one
        // *expired* entry at the same instant while the chain is down.
        // Exactly one must lead the flight (serving stale and spawning
        // the background refresh); every other thread must ride the
        // flight instead of stampeding the chain or stacking refreshes.
        const THREADS: usize = 8;

        struct SlowFail {
            fetches: Arc<AtomicU64>,
            fail: Arc<std::sync::atomic::AtomicBool>,
        }

        impl DiscoverySource for SlowFail {
            fn source_name(&self) -> &'static str {
                "slow-fail"
            }

            fn fetch(&self, locator: &str) -> Result<String, X2wError> {
                self.fetches.fetch_add(1, Ordering::SeqCst);
                if self.fail.load(Ordering::SeqCst) {
                    // A slow failure holds the singleflight open long
                    // enough for every thread past the barrier to join
                    // it, and holds the refreshing guard so no second
                    // stale serve can double the refresh.
                    std::thread::sleep(Duration::from_millis(150));
                    Err(X2wError::Discovery {
                        locator: locator.to_owned(),
                        attempts: vec!["source is down".to_owned()],
                    })
                } else {
                    Ok(DOC.to_owned())
                }
            }
        }

        let fetches = Arc::new(AtomicU64::new(0));
        let fail = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut chain = DiscoveryChain::new();
        chain.push(Box::new(SlowFail {
            fetches: Arc::clone(&fetches),
            fail: Arc::clone(&fail),
        }));
        let cache = SchemaCache::with_policy(
            chain,
            CachePolicy {
                positive_ttl: Duration::from_millis(10),
                stale_grace: Duration::from_secs(60),
                background_refresh: true,
                ..CachePolicy::default()
            },
        );

        assert_eq!(*cache.fetch("a.xsd").unwrap(), DOC);
        std::thread::sleep(Duration::from_millis(30)); // expire the entry
        fail.store(true, Ordering::SeqCst);

        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = cache.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.fetch("a.xsd").unwrap()
                })
            })
            .collect();
        for t in threads {
            assert_eq!(*t.join().unwrap(), DOC, "a thread lost the stale document");
        }

        // Let the (failing) background refresh settle before reading the
        // counters.
        std::thread::sleep(Duration::from_millis(200));
        let snap = cache.stats().snapshot();
        assert_eq!(
            snap.background_refreshes, 1,
            "expired entry under concurrency must spawn exactly one refresh: {snap:?}"
        );
        assert!(snap.stale_serves >= 1, "no thread was served stale: {snap:?}");
        // Every thread either led a flight (stale serve) or joined one —
        // none slipped through to hammer the chain directly.
        assert_eq!(
            snap.stale_serves + snap.singleflight_waits,
            THREADS as u64,
            "a thread bypassed the flight: {snap:?}"
        );
        // Chain traffic: the priming fetch, one fetch per flight leader,
        // one background refresh — nothing more.
        assert_eq!(
            fetches.load(Ordering::SeqCst),
            2 + snap.stale_serves,
            "the chain was stampeded: {snap:?}"
        );
    }

    #[test]
    fn singleflight_collapses_concurrent_fetches() {
        // A server whose generator stalls long enough for all threads to
        // pile onto one locator, then counts how many requests arrived.
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        let hits = Arc::new(AtomicU64::new(0));
        {
            let hits = Arc::clone(&hits);
            server.publish_dynamic(
                "/slow/",
                Box::new(move |_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(100));
                    Some(DOC.to_owned())
                }),
            );
        }
        let mut chain = DiscoveryChain::new();
        chain.push(Box::new(UrlSource::new()));
        let cache = SchemaCache::new(chain);
        let url = server.url_for("/slow/s.xsd");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                let url = url.clone();
                std::thread::spawn(move || cache.fetch(&url).unwrap())
            })
            .collect();
        for t in threads {
            assert_eq!(*t.join().unwrap(), DOC);
        }
        assert_eq!(hits.load(Ordering::SeqCst), 1, "concurrent fetches were not collapsed");
        let snap = cache.stats().snapshot();
        assert_eq!(snap.singleflight_waits, 7);
        assert_eq!(snap.fetches, 1);
    }

    #[test]
    fn invalidate_forces_a_refetch() {
        let (cache, fetches, _) = flaky_cache(CachePolicy::default());
        cache.fetch("a.xsd").unwrap();
        assert!(cache.invalidate("a.xsd"));
        assert!(!cache.invalidate("a.xsd"));
        cache.fetch("a.xsd").unwrap();
        assert_eq!(fetches.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn compiled_fallback_still_works_through_the_cache() {
        let mut chain = DiscoveryChain::new();
        chain.push(Box::new(UrlSource::new()));
        chain.push(Box::new(CompiledSource::new().with_document("http://127.0.0.1:1/x.xsd", DOC)));
        let cache = SchemaCache::new(chain);
        // Primary refused (port 1), fallback serves; second call hits
        // the cache without touching the network at all.
        assert_eq!(*cache.fetch("http://127.0.0.1:1/x.xsd").unwrap(), DOC);
        assert_eq!(*cache.fetch("http://127.0.0.1:1/x.xsd").unwrap(), DOC);
        let snap = cache.stats().snapshot();
        assert_eq!(snap.cache_hits, 1);
        let url = snap.source("url").unwrap();
        assert_eq!((url.attempts, url.failures), (1, 1));
        let compiled = snap.source("compiled-in").unwrap();
        assert_eq!((compiled.attempts, compiled.failures), (1, 0));
    }
}
