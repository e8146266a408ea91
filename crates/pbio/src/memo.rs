//! [`Memo`]: values built once per key and shared.
//!
//! PBIO generates a conversion routine on first contact with a (format,
//! architecture) pair and reuses it for every later message; this is
//! that reuse, for anything keyed. [`PlanCache`](crate::PlanCache) keeps
//! conversion plans in one, and the backbone's filter cache and each
//! filter's per-architecture programs keep theirs in one too.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::unpoisoned;

/// Counter snapshot of a [`Memo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered by a resident value.
    pub hits: u64,
    /// Lookups that found no value and took the write lock.
    pub misses: u64,
    /// Values built (≤ misses: racing first contacts on one key all
    /// miss, but one of them builds; failed builds are not counted).
    pub built: u64,
    /// Values resident now.
    pub resident: usize,
}

/// A map whose values are built once per key and handed out as `Arc`s.
///
/// A hit is one read lock, one probe and one `Arc` clone: no
/// allocation. A miss checks again under the write lock and builds
/// there, so racing first contacts build once (what is memoized builds
/// in microseconds). A failed build leaves nothing behind; the next
/// lookup of its key builds again.
#[derive(Debug)]
pub struct Memo<K, V> {
    map: RwLock<HashMap<K, Arc<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    built: AtomicU64,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            map: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            built: AtomicU64::new(0),
        }
    }
}

impl<K: Eq + Hash, V> Memo<K, V> {
    /// The value for `key`, built by `build` if none is resident.
    ///
    /// # Errors
    ///
    /// `build`'s error, when it ran and failed.
    pub fn get_or_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        if let Some(value) = unpoisoned(self.map.read()).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(value));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = unpoisoned(self.map.write());
        if let Some(value) = map.get(&key) {
            return Ok(Arc::clone(value));
        }
        let value = Arc::new(build()?);
        self.built.fetch_add(1, Ordering::Relaxed);
        map.insert(key, Arc::clone(&value));
        Ok(value)
    }

    /// Drops every resident value `keep` refuses.
    pub fn retain(&self, mut keep: impl FnMut(&Arc<V>) -> bool) {
        unpoisoned(self.map.write()).retain(|_, value| keep(value));
    }

    /// The resident entries, in no particular order.
    pub fn entries(&self) -> Vec<(K, Arc<V>)>
    where
        K: Clone,
    {
        unpoisoned(self.map.read())
            .iter()
            .map(|(key, value)| (key.clone(), Arc::clone(value)))
            .collect()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            built: self.built.load(Ordering::Relaxed),
            resident: unpoisoned(self.map.read()).len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn a_failed_build_is_not_cached_and_is_retried() {
        let memo: Memo<u8, String> = Memo::default();
        assert_eq!(memo.get_or_build(1, || Err("no")), Err("no"));
        assert_eq!(memo.stats().resident, 0);
        let value = memo
            .get_or_build(1, || Ok::<_, &str>("yes".to_owned()))
            .unwrap();
        assert_eq!(*value, "yes");
        let again = memo.get_or_build(1, || Err("not called")).unwrap();
        assert!(Arc::ptr_eq(&value, &again));
        let stats = memo.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.built, stats.resident),
            (1, 2, 1, 1)
        );
    }

    #[test]
    fn racing_first_contacts_build_once() {
        const THREADS: usize = 8;
        let memo: Memo<u8, u64> = Memo::default();
        let builds = AtomicU64::new(0);
        let barrier = Barrier::new(THREADS);
        let values: Vec<Arc<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        memo.get_or_build(7, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            Ok::<_, ()>(42)
                        })
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])));
        let stats = memo.stats();
        assert_eq!((stats.built, stats.resident), (1, 1));
        assert_eq!(stats.hits + stats.misses, THREADS as u64);
    }

    #[test]
    fn retain_drops_the_refused_values() {
        let memo: Memo<u8, u8> = Memo::default();
        let held = memo.get_or_build(1, || Ok::<_, ()>(1)).unwrap();
        memo.get_or_build(2, || Ok::<_, ()>(2)).unwrap();
        memo.retain(|value| Arc::strong_count(value) > 1);
        assert_eq!(memo.stats().resident, 1);
        assert!(Arc::ptr_eq(
            &held,
            &memo.get_or_build(1, || Err(())).unwrap()
        ));
    }
}
