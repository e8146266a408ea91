//! The schema-document cache a session discovers through.
//!
//! Every discovery goes to the [`DiscoveryChain`], so a document
//! re-published at the same locator reaches the next discovery. Two
//! defences sit around the chain, both counted in its
//! [`DiscoveryStats`]:
//!
//! - **One fetch per locator in flight**: threads discovering a locator
//!   another thread is fetching wait for that fetch instead of
//!   repeating it (`cache_hits`). A fetch that unwinds still lands its
//!   flight, as an error, so later discoveries start their own.
//! - **The last good document**: when every source fails, the document
//!   last fetched for the locator is served if it is at most
//!   [`STALE_GRACE`] old (`stale_serves`) — the paper's §3.3 degraded
//!   mode, generalized from compiled-in fallbacks to anything fetched
//!   before the outage.
//!
//! A locator has one slot per [`Extent`]: a whole-document discovery
//! never shares a flight with a closure discovery, nor is it served a
//! closure when the chain fails, and the other way round.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::discovery::{DiscoveryChain, DiscoveryStats, Extent};
use crate::error::X2wError;

/// How long a thread waits on another thread's fetch before giving up.
/// Chain fetches are themselves deadline-bounded, so this only turns a
/// leader that never lands into an error instead of a hang.
const FLIGHT_WAIT_CAP: Duration = Duration::from_secs(30);

/// How old the last good document may be and still bridge an outage.
const STALE_GRACE: Duration = Duration::from_secs(300);

/// What a flight lands with. The error is rendered because [`X2wError`]
/// is not `Clone`; waiters rebuild a Discovery error around it.
type Outcome = Result<Arc<String>, String>;

/// A fetch in flight, which other threads wait on. `done` is written in
/// one store, so even a poisoned lock holds a whole value.
#[derive(Debug, Default)]
struct Flight {
    done: Mutex<Option<Outcome>>,
    cv: Condvar,
}

/// What the cache holds for one locator and [`Extent`].
#[derive(Debug, Default)]
struct Slot {
    flight: Option<Arc<Flight>>,
    /// The last document fetched, and when.
    last_good: Option<(Arc<String>, Instant)>,
}

/// The cache; see the module docs.
#[derive(Debug)]
pub(crate) struct SchemaCache {
    chain: DiscoveryChain,
    /// Each locator's slots, indexed by [`Extent`].
    slots: parking_lot::Mutex<HashMap<String, [Slot; 2]>>,
}

impl SchemaCache {
    pub(crate) fn new(chain: DiscoveryChain) -> Self {
        let slots = parking_lot::Mutex::default();
        SchemaCache { chain, slots }
    }

    /// The shared counters (the chain's).
    pub(crate) fn stats(&self) -> &Arc<DiscoveryStats> {
        self.chain.stats()
    }

    /// Fetches `extent` of `locator` through the chain, or waits for the
    /// fetch another thread has in flight for it; serves the last good
    /// document of that extent if the chain fails inside [`STALE_GRACE`].
    ///
    /// # Errors
    ///
    /// [`X2wError::Discovery`] when every source fails and no document
    /// young enough is on hand.
    pub(crate) fn fetch(&self, locator: &str, extent: Extent) -> Result<Arc<String>, X2wError> {
        let flight = {
            let mut slots = self.slots.lock();
            let slot = &mut slots.entry(locator.to_owned()).or_default()[extent as usize];
            if let Some(flight) = &slot.flight {
                let flight = Arc::clone(flight);
                drop(slots);
                self.stats().note_cache_hit();
                return wait_for(&flight, locator);
            }
            Arc::clone(slot.flight.insert(Arc::default()))
        };
        let mut landing = Landing {
            cache: self,
            locator,
            extent,
            flight,
            outcome: None,
        };
        let result = self.lead_fetch(locator, extent);
        landing.outcome = Some(result.as_ref().map(Arc::clone).map_err(ToString::to_string));
        result
    }

    fn lead_fetch(&self, locator: &str, extent: Extent) -> Result<Arc<String>, X2wError> {
        let fetched = self.chain.fetch_extent(locator, extent);
        let mut slots = self.slots.lock();
        let slot = &mut slots.get_mut(locator).expect("a flight's slot stays")[extent as usize];
        match (fetched, &slot.last_good) {
            (Ok(document), _) => {
                let document = Arc::new(document);
                slot.last_good = Some((Arc::clone(&document), Instant::now()));
                Ok(document)
            }
            (Err(_), Some((document, fetched_at))) if fetched_at.elapsed() <= STALE_GRACE => {
                self.stats().note_stale_serve();
                Ok(Arc::clone(document))
            }
            (Err(error), _) => Err(error),
        }
    }
}

/// Lands a flight when its leader is done, returning or unwinding
/// (`outcome` still `None`): publishes the outcome to the waiters, then
/// unregisters the flight.
struct Landing<'a> {
    cache: &'a SchemaCache,
    locator: &'a str,
    extent: Extent,
    flight: Arc<Flight>,
    outcome: Option<Outcome>,
}

impl Drop for Landing<'_> {
    fn drop(&mut self) {
        // Published before unregistering, so threads that join in
        // between still get the outcome at once.
        let outcome = self.outcome.take();
        let outcome = outcome.unwrap_or_else(|| Err("the fetch in flight panicked".to_owned()));
        let flight = &self.flight;
        *flight.done.lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        flight.cv.notify_all();
        if let Some(slots) = self.cache.slots.lock().get_mut(self.locator) {
            slots[self.extent as usize].flight = None;
        }
    }
}

/// Waits for `flight` to land, rebuilding its error for `locator`.
fn wait_for(flight: &Flight, locator: &str) -> Result<Arc<String>, X2wError> {
    let done = flight.done.lock().unwrap_or_else(PoisonError::into_inner);
    let (done, _) = flight
        .cv
        .wait_timeout_while(done, FLIGHT_WAIT_CAP, |done| done.is_none())
        .unwrap_or_else(PoisonError::into_inner);
    let why = match done.as_ref() {
        Some(Ok(document)) => return Ok(Arc::clone(document)),
        Some(Err(error)) => format!("shared in-flight fetch failed: {error}"),
        None => "timed out waiting on an in-flight fetch".to_owned(),
    };
    Err(X2wError::Discovery {
        locator: locator.to_owned(),
        attempts: vec![why],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{CompiledSource, DiscoverySource, UrlSource};
    use crate::server::MetadataServer;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    const DOC: &str = "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"/>";

    /// A source that counts fetches and can be told to start failing,
    /// slowly if `delay` is set.
    #[derive(Default)]
    struct FlakySource {
        fetches: Arc<AtomicU64>,
        fail: Arc<AtomicBool>,
        delay: Duration,
    }

    impl DiscoverySource for FlakySource {
        fn source_name(&self) -> &'static str {
            "flaky"
        }

        fn fetch(&self, locator: &str) -> Result<String, X2wError> {
            self.fetches.fetch_add(1, Ordering::SeqCst);
            if self.fail.load(Ordering::SeqCst) {
                std::thread::sleep(self.delay);
                Err(X2wError::Discovery {
                    locator: locator.to_owned(),
                    attempts: vec!["flaky source is down".to_owned()],
                })
            } else {
                Ok(DOC.to_owned())
            }
        }
    }

    fn flaky_cache(delay: Duration) -> (SchemaCache, Arc<AtomicU64>, Arc<AtomicBool>) {
        let source = FlakySource {
            delay,
            ..FlakySource::default()
        };
        let (fetches, fail) = (Arc::clone(&source.fetches), Arc::clone(&source.fail));
        let mut chain = DiscoveryChain::new();
        chain.push(Box::new(source));
        (SchemaCache::new(chain), fetches, fail)
    }

    #[test]
    fn stale_documents_are_served_when_the_chain_fails() {
        let (cache, fetches, fail) = flaky_cache(Duration::ZERO);
        assert_eq!(*cache.fetch("a.xsd", Extent::Whole).unwrap(), DOC);
        fail.store(true, Ordering::SeqCst);
        // Chain fails, but the last good copy keeps the caller alive.
        assert_eq!(*cache.fetch("a.xsd", Extent::Whole).unwrap(), DOC);
        assert_eq!(
            fetches.load(Ordering::SeqCst),
            2,
            "the chain was not revalidated"
        );
        assert_eq!(cache.stats().snapshot().stale_serves, 1);
        // A locator never fetched has nothing to bridge with.
        assert!(cache.fetch("b.xsd", Extent::Whole).is_err());
    }

    #[test]
    fn concurrent_expiry_stale_serves_with_exactly_one_refresh() {
        // N threads discover one locator at the same instant while the
        // chain is down. One leads the flight and serves the last good
        // document; every other thread must ride that flight instead of
        // stampeding the chain.
        const THREADS: usize = 8;
        // A slow failure holds the flight open long enough for every
        // thread past the barrier to join it.
        let (cache, fetches, fail) = flaky_cache(Duration::from_millis(150));
        assert_eq!(*cache.fetch("a.xsd", Extent::Whole).unwrap(), DOC);
        fail.store(true, Ordering::SeqCst);

        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.fetch("a.xsd", Extent::Whole).unwrap()
                    })
                })
                .collect();
            for t in threads {
                assert_eq!(*t.join().unwrap(), DOC, "a thread lost the stale document");
            }
        });

        let snap = cache.stats().snapshot();
        assert!(
            snap.stale_serves >= 1,
            "no thread was served stale: {snap:?}"
        );
        // Every thread either led a flight (stale serve) or joined one —
        // none slipped through to hammer the chain directly.
        assert_eq!(
            snap.stale_serves + snap.cache_hits,
            THREADS as u64,
            "a thread bypassed the flight: {snap:?}"
        );
        // Chain traffic: the priming fetch and one fetch per flight
        // leader — nothing more.
        assert_eq!(
            fetches.load(Ordering::SeqCst),
            1 + snap.stale_serves,
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
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| cache.fetch(&url, Extent::Whole).unwrap()))
                .collect();
            for t in threads {
                assert_eq!(*t.join().unwrap(), DOC);
            }
        });
        assert_eq!(
            hits.load(Ordering::SeqCst),
            1,
            "concurrent fetches were not collapsed"
        );
        let snap = cache.stats().snapshot();
        assert_eq!(snap.cache_hits, 7);
        assert_eq!(snap.fetches, 1);
    }

    #[test]
    fn a_leader_that_unwinds_leaves_no_flight_behind() {
        /// Panics on its first fetch, serves afterwards.
        struct PanicsOnce(AtomicBool);

        impl DiscoverySource for PanicsOnce {
            fn source_name(&self) -> &'static str {
                "panics-once"
            }

            fn fetch(&self, _: &str) -> Result<String, X2wError> {
                if !self.0.swap(true, Ordering::SeqCst) {
                    panic!("source bug");
                }
                Ok(DOC.to_owned())
            }
        }

        let mut chain = DiscoveryChain::new();
        chain.push(Box::new(PanicsOnce(AtomicBool::new(false))));
        let cache = SchemaCache::new(chain);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.fetch("a.xsd", Extent::Whole)
        }));
        assert!(unwound.is_err());
        let start = Instant::now();
        assert_eq!(*cache.fetch("a.xsd", Extent::Whole).unwrap(), DOC);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "joined a dead flight"
        );
    }

    #[test]
    fn compiled_fallback_still_works_through_the_cache() {
        let mut chain = DiscoveryChain::new();
        chain.push(Box::new(UrlSource::new()));
        chain.push(Box::new(
            CompiledSource::new().with_document("http://127.0.0.1:1/x.xsd", DOC),
        ));
        let cache = SchemaCache::new(chain);
        // Primary refused (port 1), the fallback serves, every time: a
        // fallback's answer is a fetch, not a stale serve.
        assert_eq!(
            *cache
                .fetch("http://127.0.0.1:1/x.xsd", Extent::Whole)
                .unwrap(),
            DOC
        );
        assert_eq!(
            *cache
                .fetch("http://127.0.0.1:1/x.xsd", Extent::Whole)
                .unwrap(),
            DOC
        );
        let snap = cache.stats().snapshot();
        assert_eq!((snap.fetches, snap.stale_serves), (2, 0));
        let url = snap.source("url").unwrap();
        assert_eq!((url.attempts, url.failures), (2, 2));
        let compiled = snap.source("compiled-in").unwrap();
        assert_eq!((compiled.attempts, compiled.failures), (2, 0));
    }

    #[test]
    fn closure_and_whole_fetches_of_one_locator_do_not_share_a_flight() {
        /// Answers each kind with its own text, but only once a fetch of
        /// each kind is in flight at the same time: if the two kinds
        /// shared a flight, the one fetch would wait alone and fail.
        #[derive(Default)]
        struct Rendezvous {
            entered: Mutex<u32>,
            cv: Condvar,
        }

        impl Rendezvous {
            fn meet(&self, answer: &str) -> Result<String, X2wError> {
                let mut entered = self.entered.lock().unwrap();
                *entered += 1;
                self.cv.notify_all();
                let (entered, _) = self
                    .cv
                    .wait_timeout_while(entered, Duration::from_secs(5), |n| *n < 2)
                    .unwrap();
                if *entered < 2 {
                    return Err(X2wError::Discovery {
                        locator: answer.to_owned(),
                        attempts: vec!["the other kind never fetched".to_owned()],
                    });
                }
                Ok(answer.to_owned())
            }
        }

        impl DiscoverySource for Arc<Rendezvous> {
            fn source_name(&self) -> &'static str {
                "rendezvous"
            }

            fn fetch(&self, _: &str) -> Result<String, X2wError> {
                self.meet("whole")
            }

            fn fetch_closure(&self, _: &str, _: &DiscoveryStats) -> Result<String, X2wError> {
                self.meet("closure")
            }
        }

        let source = Arc::new(Rendezvous::default());
        let mut chain = DiscoveryChain::new();
        chain.push(Box::new(Arc::clone(&source)));
        let cache = SchemaCache::new(chain);
        std::thread::scope(|scope| {
            let threads: Vec<_> = [(Extent::Whole, "whole"), (Extent::Closure, "closure")]
                .into_iter()
                .map(|(extent, expected)| {
                    let cache = &cache;
                    scope.spawn(move || (expected, cache.fetch("a.xsd", extent)))
                })
                .collect();
            for t in threads {
                let (expected, document) = t.join().unwrap();
                assert_eq!(*document.unwrap(), expected);
            }
        });
        assert_eq!(*source.entered.lock().unwrap(), 2);
        assert_eq!(cache.stats().snapshot().cache_hits, 0);
    }
}
