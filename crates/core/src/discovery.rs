//! Metadata discovery sources and the fault-tolerant discovery chain.
//!
//! §3.3 of the paper: remote discovery maximizes flexibility but "a
//! broken network link or hardware failure could leave a remote
//! discovery system without any way of finding the metadata it needs";
//! the answer is "a system that uses remote discovery as a primary
//! discovery method and compiled-in information as a fault-tolerant
//! discovery method". [`DiscoveryChain`] implements exactly that policy:
//! sources are consulted in order and the first success wins, with every
//! failure recorded for diagnosis.

use std::collections::HashMap;
use std::convert::Infallible;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use pbio::Memo;

use crate::error::X2wError;
use crate::url::Locator;

/// Deadlines and retry discipline for one remote metadata fetch.
///
/// §3.3's degraded mode only works if remote failures are *fast*: a
/// blackholed metadata server (dropped SYNs, dead link) must not stall
/// discovery for the OS connect timeout (~2 minutes) before the chain
/// can fall through to its compiled-in source. Every network operation
/// in [`crate::server::http_get_with`]/[`crate::server::http_post_with`]
/// is bounded by this policy, and the whole fetch — all retries, all
/// backoff sleeps — is capped by `total_deadline`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryPolicy {
    /// Per-address TCP connect deadline.
    pub connect_timeout: Duration,
    /// Socket read deadline (also re-armed between reads so a
    /// drip-feeding server cannot extend a response past
    /// `total_deadline`).
    pub read_timeout: Duration,
    /// Socket write deadline.
    pub write_timeout: Duration,
    /// Total attempts per fetch (1 = no retries). Only transport-level
    /// failures are retried; a definitive HTTP response — any status —
    /// is returned immediately.
    pub attempts: u32,
    /// Backoff before retry `k` starts at `backoff_base * 2^(k-1)`…
    pub backoff_base: Duration,
    /// …and is capped here. Up to 50% deterministic-per-process jitter
    /// is added so restarting fleets do not retry in lockstep.
    pub backoff_max: Duration,
    /// Hard wall-clock cap on one fetch: connects, writes, reads and
    /// backoff sleeps all clamp to the time remaining under it.
    pub total_deadline: Duration,
}

impl Default for DiscoveryPolicy {
    /// Defaults tuned so a completely unresponsive primary still lets a
    /// [`DiscoveryChain`] resolve from its fallback in well under two
    /// seconds: 250 ms connects, 750 ms reads, two attempts, 1.5 s
    /// total.
    fn default() -> Self {
        DiscoveryPolicy {
            connect_timeout: Duration::from_millis(250),
            read_timeout: Duration::from_millis(750),
            write_timeout: Duration::from_millis(500),
            attempts: 2,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_millis(400),
            total_deadline: Duration::from_millis(1500),
        }
    }
}

impl DiscoveryPolicy {
    /// A policy that never retries and allows `deadline` overall (each
    /// socket operation is clamped to it as well).
    pub fn one_shot(deadline: Duration) -> Self {
        DiscoveryPolicy {
            connect_timeout: deadline,
            read_timeout: deadline,
            write_timeout: deadline,
            attempts: 1,
            backoff_base: Duration::ZERO,
            backoff_max: Duration::ZERO,
            total_deadline: deadline,
        }
    }

    /// The backoff to sleep before attempt `attempt` (1-based retry
    /// index), jittered by `jitter` in `[0, 1)`. Public so other layers
    /// (broker federation reconnect) reuse the same jittered-exponential
    /// discipline instead of reinventing it.
    pub fn backoff_before(&self, attempt: u32, jitter: f64) -> Duration {
        let base = self
            .backoff_base
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.backoff_max);
        base + base.mul_f64(jitter * 0.5)
    }
}

/// Per-source attempt/failure counters inside [`DiscoveryStats`].
#[derive(Debug, Default)]
struct SourceCounters {
    attempts: AtomicU64,
    failures: AtomicU64,
}

/// Shared counters making degraded discovery *observable*: which
/// sources are failing, how often fetches retry, how long they take,
/// and how the session's schema cache is absorbing the damage (shared
/// fetches, stale serves).
///
/// One instance is shared by a [`DiscoveryChain`] and the session
/// discovering through it; read it with [`snapshot`](Self::snapshot).
#[derive(Debug, Default)]
pub struct DiscoveryStats {
    per_source: Memo<&'static str, SourceCounters>,
    retries: AtomicU64,
    fetches: AtomicU64,
    fetch_nanos: AtomicU64,
    cache_hits: AtomicU64,
    stale_serves: AtomicU64,
}

impl DiscoveryStats {
    /// Counts one attempt against `source`, and the failure if it
    /// failed.
    fn note_source_attempt(&self, source: &'static str, failed: bool) {
        let new = || Ok::<_, Infallible>(SourceCounters::default());
        let Ok(c) = self.per_source.get_or_build(source, new);
        c.attempts.fetch_add(1, Ordering::Relaxed);
        if failed {
            c.failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one transport-level retry inside a fetch.
    pub fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one completed chain fetch and its wall-clock latency.
    fn note_fetch(&self, elapsed: Duration) {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        self.fetch_nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn note_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_stale_serve(&self) {
        self.stale_serves.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> DiscoveryStatsSnapshot {
        let mut sources: Vec<SourceStatsSnapshot> = self
            .per_source
            .entries()
            .into_iter()
            .map(|(source, c)| SourceStatsSnapshot {
                source,
                attempts: c.attempts.load(Ordering::Relaxed),
                failures: c.failures.load(Ordering::Relaxed),
            })
            .collect();
        sources.sort_by_key(|s| s.source);
        DiscoveryStatsSnapshot {
            sources,
            retries: self.retries.load(Ordering::Relaxed),
            fetches: self.fetches.load(Ordering::Relaxed),
            fetch_nanos: self.fetch_nanos.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            stale_serves: self.stale_serves.load(Ordering::Relaxed),
        }
    }
}

/// Attempts and failures for one named source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceStatsSnapshot {
    /// The source's [`DiscoverySource::source_name`].
    pub source: &'static str,
    /// Fetches routed to this source.
    pub attempts: u64,
    /// How many of them failed.
    pub failures: u64,
}

/// Point-in-time [`DiscoveryStats`] (see [`DiscoveryStats::snapshot`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiscoveryStatsSnapshot {
    /// Per-source attempts/failures, sorted by source name.
    pub sources: Vec<SourceStatsSnapshot>,
    /// Transport-level retries across all fetches.
    pub retries: u64,
    /// Completed chain fetches (hits served from cache not included).
    pub fetches: u64,
    /// Total wall-clock nanoseconds across those fetches.
    pub fetch_nanos: u64,
    /// Discoveries answered by another thread's in-flight fetch of the
    /// same locator instead of a fetch of their own.
    pub cache_hits: u64,
    /// Discoveries answered with the last good document because every
    /// source failed — the paper's degraded mode, generalized.
    pub stale_serves: u64,
}

impl DiscoveryStatsSnapshot {
    /// The attempt/failure counters for `source`, if it was ever tried.
    pub fn source(&self, name: &str) -> Option<&SourceStatsSnapshot> {
        self.sources.iter().find(|s| s.source == name)
    }

    /// Mean fetch latency, if any fetch completed.
    pub fn mean_fetch_latency(&self) -> Option<Duration> {
        (self.fetches > 0).then(|| Duration::from_nanos(self.fetch_nanos / self.fetches))
    }
}

/// How much of a schema document a discovery asks its sources for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Extent {
    /// The document as published, for [`Xml2Wire::discover`].
    ///
    /// [`Xml2Wire::discover`]: crate::Xml2Wire::discover
    Whole,
    /// The closure of its first complex type as a standalone document,
    /// or the whole document from a source that does not cut closures,
    /// for [`Xml2Wire::discover_root`].
    ///
    /// [`Xml2Wire::discover_root`]: crate::Xml2Wire::discover_root
    Closure,
}

/// A source of metadata documents.
pub trait DiscoverySource: Send + Sync {
    /// A short name for diagnostics (`"file"`, `"url"`, `"compiled-in"`).
    fn source_name(&self) -> &'static str;

    /// Fetches the document for `locator`, or explains why it cannot.
    ///
    /// # Errors
    ///
    /// Any failure; the chain records it and moves on.
    fn fetch(&self, locator: &str) -> Result<String, X2wError>;

    /// As [`fetch`](Self::fetch), with a [`DiscoveryStats`] handle for
    /// sources that can report internal retries. The default ignores the
    /// stats (the chain still records the attempt and its outcome).
    fn fetch_observed(
        &self,
        locator: &str,
        stats: &DiscoveryStats,
    ) -> Result<String, X2wError> {
        let _ = stats;
        self.fetch(locator)
    }

    /// As [`fetch_observed`](Self::fetch_observed), for a caller that
    /// binds only the closure of the document's first complex type: a
    /// source that can cut the document down returns that closure as a
    /// standalone document. The default returns the whole document. The
    /// caller checks either with `Schema::parse_reachable`, so the two
    /// bind the same types.
    ///
    /// # Errors
    ///
    /// As [`fetch`](Self::fetch).
    fn fetch_closure(
        &self,
        locator: &str,
        stats: &DiscoveryStats,
    ) -> Result<String, X2wError> {
        self.fetch_observed(locator, stats)
    }
}

/// Reads schema documents from the local filesystem, resolving relative
/// locators against a base directory.
#[derive(Debug, Clone)]
pub struct FileSource {
    base: PathBuf,
}

impl FileSource {
    /// A source rooted at `base` (used for relative locators).
    pub fn new(base: impl Into<PathBuf>) -> Self {
        FileSource { base: base.into() }
    }

    /// A source resolving relative locators against the current
    /// directory.
    pub fn current_dir() -> Self {
        FileSource { base: PathBuf::from(".") }
    }
}

impl DiscoverySource for FileSource {
    fn source_name(&self) -> &'static str {
        "file"
    }

    fn fetch(&self, locator: &str) -> Result<String, X2wError> {
        let path = match Locator::parse(locator)? {
            Locator::File(path) => {
                if path.is_absolute() {
                    path
                } else {
                    self.base.join(path)
                }
            }
            other => {
                return Err(X2wError::BadLocator {
                    locator: other.to_string(),
                    reason: "file source only handles paths".to_owned(),
                })
            }
        };
        Ok(std::fs::read_to_string(path)?)
    }
}

/// Fetches schema documents over HTTP from a metadata server, under a
/// [`DiscoveryPolicy`]'s deadlines and retry discipline.
#[derive(Debug, Clone, Default)]
pub struct UrlSource {
    policy: DiscoveryPolicy,
}

impl UrlSource {
    /// A source that only accepts absolute `http://` locators.
    pub fn new() -> Self {
        UrlSource::default()
    }

    /// Replaces the fetch policy (builder style).
    #[must_use]
    pub fn policy(mut self, policy: DiscoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// GETs `extent` of `locator`, which must be an absolute `http://`
    /// URL.
    fn get(
        &self,
        locator: &str,
        stats: Option<&DiscoveryStats>,
        extent: Extent,
    ) -> Result<String, X2wError> {
        if !locator.starts_with("http://") {
            return Err(X2wError::BadLocator {
                locator: locator.to_owned(),
                reason: "url source requires an absolute http:// locator".to_owned(),
            });
        }
        crate::server::http_get_observed(locator, &self.policy, stats, extent)
    }
}

impl DiscoverySource for UrlSource {
    fn source_name(&self) -> &'static str {
        "url"
    }

    fn fetch(&self, locator: &str) -> Result<String, X2wError> {
        self.get(locator, None, Extent::Whole)
    }

    fn fetch_observed(
        &self,
        locator: &str,
        stats: &DiscoveryStats,
    ) -> Result<String, X2wError> {
        self.get(locator, Some(stats), Extent::Whole)
    }

    /// Asks the metadata server for the closure; a server that does not
    /// cut closures sends the whole document.
    fn fetch_closure(
        &self,
        locator: &str,
        stats: &DiscoveryStats,
    ) -> Result<String, X2wError> {
        self.get(locator, Some(stats), Extent::Closure)
    }
}

/// Compiled-in metadata: documents embedded in the binary at build time,
/// the degraded-mode fallback of §3.3 (and how PBIO programs always
/// worked).
#[derive(Default)]
pub struct CompiledSource {
    documents: RwLock<HashMap<String, String>>,
}

impl std::fmt::Debug for CompiledSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledSource")
            .field("documents", &self.documents.read().len())
            .finish()
    }
}

impl CompiledSource {
    /// An empty compiled-in set.
    pub fn new() -> Self {
        CompiledSource::default()
    }

    /// Adds a compiled-in document for `locator` (builder style).
    #[must_use]
    pub fn with_document(self, locator: impl Into<String>, document: impl Into<String>) -> Self {
        self.documents.write().insert(locator.into(), document.into());
        self
    }

    /// Adds a compiled-in document for `locator`.
    pub fn add(&self, locator: impl Into<String>, document: impl Into<String>) {
        self.documents.write().insert(locator.into(), document.into());
    }
}

impl DiscoverySource for CompiledSource {
    fn source_name(&self) -> &'static str {
        "compiled-in"
    }

    fn fetch(&self, locator: &str) -> Result<String, X2wError> {
        self.documents.read().get(locator).cloned().ok_or_else(|| X2wError::Discovery {
            locator: locator.to_owned(),
            attempts: vec!["no compiled-in document under that locator".to_owned()],
        })
    }
}

/// An ordered chain of sources with first-success semantics.
#[derive(Default)]
pub struct DiscoveryChain {
    sources: Vec<Box<dyn DiscoverySource>>,
    stats: Arc<DiscoveryStats>,
}

impl std::fmt::Debug for DiscoveryChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.sources.iter().map(|s| s.source_name()).collect();
        f.debug_struct("DiscoveryChain").field("sources", &names).finish()
    }
}

impl DiscoveryChain {
    /// An empty chain (every fetch fails).
    pub fn new() -> Self {
        DiscoveryChain::default()
    }

    /// Appends a source (consulted after all earlier ones).
    pub fn push(&mut self, source: Box<dyn DiscoverySource>) {
        self.sources.push(source);
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the chain has no sources.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// The chain's shared counters (also the counters of the session
    /// discovering through this chain).
    pub fn stats(&self) -> &Arc<DiscoveryStats> {
        &self.stats
    }

    /// Fetches `locator` from the first source that succeeds, recording
    /// per-source attempts/failures and the fetch latency in
    /// [`stats`](Self::stats).
    ///
    /// # Errors
    ///
    /// Returns [`X2wError::Discovery`] carrying one line per failed
    /// source when every source fails.
    pub fn fetch(&self, locator: &str) -> Result<String, X2wError> {
        self.fetch_extent(locator, Extent::Whole)
    }

    /// [`fetch`](Self::fetch) of `extent` of the document.
    pub(crate) fn fetch_extent(&self, locator: &str, extent: Extent) -> Result<String, X2wError> {
        let start = Instant::now();
        let mut attempts = Vec::new();
        for source in &self.sources {
            let result = match extent {
                Extent::Whole => source.fetch_observed(locator, &self.stats),
                Extent::Closure => source.fetch_closure(locator, &self.stats),
            };
            self.stats.note_source_attempt(source.source_name(), result.is_err());
            match result {
                Ok(document) => {
                    self.stats.note_fetch(start.elapsed());
                    return Ok(document);
                }
                Err(e) => attempts.push(format!("{}: {e}", source.source_name())),
            }
        }
        if attempts.is_empty() {
            attempts.push("no discovery sources configured".to_owned());
        }
        self.stats.note_fetch(start.elapsed());
        Err(X2wError::Discovery { locator: locator.to_owned(), attempts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::MetadataServer;

    const DOC: &str = "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"/>";

    #[test]
    fn file_source_reads_relative_and_absolute() {
        let dir = std::env::temp_dir().join(format!("x2w-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.xsd");
        std::fs::write(&path, DOC).unwrap();

        let source = FileSource::new(&dir);
        assert_eq!(source.fetch("s.xsd").unwrap(), DOC);
        assert_eq!(source.fetch(path.to_str().unwrap()).unwrap(), DOC);
        assert!(source.fetch("missing.xsd").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn url_source_fetches_from_a_server() {
        let server = MetadataServer::bind("127.0.0.1:0").unwrap();
        server.publish("/schemas/s.xsd", DOC);
        let absolute = UrlSource::new();
        assert_eq!(absolute.fetch(&server.url_for("/schemas/s.xsd")).unwrap(), DOC);
    }

    #[test]
    fn url_source_without_base_rejects_relative() {
        assert!(UrlSource::new().fetch("s.xsd").is_err());
    }

    #[test]
    fn compiled_source_serves_embedded_documents() {
        let source = CompiledSource::new().with_document("boot.xsd", DOC);
        assert_eq!(source.fetch("boot.xsd").unwrap(), DOC);
        assert!(source.fetch("other.xsd").is_err());
    }

    #[test]
    fn chain_falls_back_in_order() {
        // Primary: a URL pointing at a dead server. Fallback:
        // compiled-in. This is the paper's degraded-mode scenario.
        let dead_url;
        {
            let server = MetadataServer::bind("127.0.0.1:0").unwrap();
            dead_url = server.url_for("/boot.xsd");
        } // server dropped: connections now fail
        let mut chain = DiscoveryChain::new();
        chain.push(Box::new(UrlSource::new()));
        chain.push(Box::new(CompiledSource::new().with_document(dead_url.as_str(), DOC)));

        assert_eq!(chain.fetch(&dead_url).unwrap(), DOC);

        // A locator neither source has reports both failures.
        let err = chain.fetch("unknown.xsd").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("url:"), "{text}");
        assert!(text.contains("compiled-in:"), "{text}");
    }

    #[test]
    fn first_success_wins() {
        let mut chain = DiscoveryChain::new();
        chain.push(Box::new(CompiledSource::new().with_document("a.xsd", "primary")));
        chain.push(Box::new(CompiledSource::new().with_document("a.xsd", "fallback")));
        assert_eq!(chain.fetch("a.xsd").unwrap(), "primary");
    }

    #[test]
    fn empty_chain_reports_no_sources() {
        let chain = DiscoveryChain::new();
        let err = chain.fetch("x.xsd").unwrap_err();
        assert!(err.to_string().contains("no discovery sources"), "{err}");
    }
}
