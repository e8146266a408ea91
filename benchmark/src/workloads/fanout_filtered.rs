//! `fanout_filtered` — one stream, 260 in-process subscribers.
//!
//! One Structure B stream; 256 subscribers spread over 16 distinct
//! predicates (comparison chains, `BETWEEN`, `IN`, string equality —
//! each about 1/16 selective) plus 4 unfiltered. An *event* is one
//! publish fully fanned out: about 20 deliveries. The expected
//! deliveries come from the decode-then-`eval_record` oracle, computed
//! once per seed; the drain takes exactly the expected count off each
//! subscriber with blocking receives and checks each delivery's index.
//! `backbone::broker` shard dispatch and `backbone::filter` dominate;
//! encode is 1/20 of the deliveries and `net`/`convert` are bypassed.

use std::sync::Arc;

use backbone::{Broker, CapturePoint, StreamFilter, Subscription};
use clayout::{Architecture, Record};
use pbio::Format;

use super::{publish_from_pool, site_catalogue, Site};
use crate::gen::{self, B_FORMAT, B_INDEX_FIELD, POOL};
use crate::harness::{
    CollectFn, Deployment, Fail, IssueFn, Plan, SetupClock, Workload, DEADLINE, SLICES,
};
use crate::trace::Tracer;

const STREAM: &str = "fanout.asd";
/// Subscribers sharing each predicate, and unfiltered subscribers.
const PER_PREDICATE: usize = 16;
const UNFILTERED: usize = 4;

pub struct FanoutFiltered {
    catalogue: String,
    pool: Vec<Record>,
    predicates: Vec<String>,
    /// The oracle: `matches[p][k]` — predicate `p` selects pool entry `k`.
    matches: Vec<Vec<bool>>,
    /// Each pool entry's index-field value.
    numbers: Vec<i64>,
    /// Total NDR bytes of the pool.
    pool_bytes: u64,
}

impl FanoutFiltered {
    pub fn new(seed: u64) -> FanoutFiltered {
        let vocabulary = gen::Vocabulary::new(seed);
        let pool = gen::b_pool(seed, &vocabulary);
        let predicates = gen::predicates(seed, &vocabulary);
        let session = xml2wire::Xml2Wire::builder().build();
        let format = session
            .register_schema_str(&gen::b_schema())
            .expect("generated schema binds")
            .remove(0);
        // The reference: decode, then evaluate the typechecked
        // expression over the decoded record.
        let matches: Vec<Vec<bool>> = predicates
            .iter()
            .map(|expr| {
                let filter = StreamFilter::compile(expr, format.struct_type())
                    .expect("generated predicates compile");
                pool.iter()
                    .map(|record| filter.eval_record(record))
                    .collect()
            })
            .collect();
        let pool_bytes =
            super::pool_message_bytes(&pool, &format).expect("generated records encode");
        let numbers = pool
            .iter()
            .map(|record| {
                record
                    .get(B_INDEX_FIELD)
                    .and_then(clayout::Value::as_i64)
                    .expect("generated with one")
            })
            .collect();
        FanoutFiltered {
            catalogue: site_catalogue(seed),
            pool,
            predicates,
            matches,
            numbers,
            pool_bytes,
        }
    }

    /// The oracle's answer for this seed, for the determinism tests.
    #[cfg(test)]
    pub fn oracle(&self) -> &[Vec<bool>] {
        &self.matches
    }
}

impl Workload for FanoutFiltered {
    fn plan(&self) -> Plan {
        Plan {
            cold_starts: 30,
            setup_sensitivity: 1.0,
            round: 256,
            warmup_rounds: 16,
            rounds_per_slice: 18,
            paced_rate_eps: 45_000.0,
            paced_burst: 16,
            bursts_per_slice: 84,
            paced_slices: SLICES,
        }
    }

    fn budget(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("backbone.stream.capture_publish_ns", 1.0),
            // One evaluation per unique program, not per subscriber.
            ("backbone.filter.eval_ns", 16.0),
            // ~20 deliveries, each subscriber reading one field of eight.
            ("pbio.view_ns", 2.5),
        ]
    }

    fn deploy(
        &self,
        _epoch: usize,
        clock: &mut SetupClock,
    ) -> Result<Box<dyn Deployment + '_>, Fail> {
        let mut site = Site::start(&self.catalogue)?;
        let producer = site.peer(Architecture::host(), clock)?;
        let broker = Arc::new(Broker::new());
        let capture = CapturePoint::new(
            Arc::clone(&broker),
            producer,
            STREAM,
            B_FORMAT,
            Some(site.catalogue_url.clone()),
        )?;
        let viewer = site.peer(Architecture::host(), clock)?;
        let format = viewer.require_format(B_FORMAT)?;
        // 256 filtered subscriptions compile 16 programs between them
        // (the broker's filter cache dedups the rest).
        let mut groups = Vec::with_capacity(self.predicates.len() + 1);
        for (p, expr) in self.predicates.iter().enumerate() {
            let subs = (0..PER_PREDICATE)
                .map(|_| broker.subscribe_filtered(STREAM, expr))
                .collect::<Result<Vec<_>, _>>()?;
            groups.push(Group {
                predicate: Some(p),
                subs,
            });
        }
        let subs = (0..UNFILTERED)
            .map(|_| broker.subscribe(STREAM))
            .collect::<Result<Vec<_>, _>>()?;
        groups.push(Group {
            predicate: None,
            subs,
        });
        Ok(Box::new(Fanout {
            workload: self,
            groups,
            capture,
            broker,
            format,
            site,
            expected: Vec::new(),
            issued: 0,
            collected: 0,
        }))
    }
}

/// The subscribers of one predicate (or the unfiltered ones).
struct Group {
    predicate: Option<usize>,
    subs: Vec<Subscription>,
}

struct Fanout<'w> {
    workload: &'w FanoutFiltered,
    groups: Vec<Group>,
    capture: CapturePoint,
    broker: Arc<Broker>,
    format: Arc<Format>,
    site: Site,
    /// Scratch: the pool indices one group expects from the events
    /// being drained.
    expected: Vec<u16>,
    issued: u64,
    collected: u64,
}

/// Drains events `collected..collected + n` off every subscriber: group
/// by group, the oracle's matching pool entries in order, each delivery
/// viewed and its index value checked. Any miss fails all `n` events —
/// once a subscriber's sequence is off, nothing after it can be
/// attributed.
///
/// Subscribers are drained last-registered first. The collector shares
/// one core with the shard worker; draining in the worker's own
/// delivery order made the two threads trade the core at every one of
/// the 260 subscribers (a 3x slower mode that came and went by the
/// epoch), while starting at the far end lets the worker finish a
/// dispatch pass before the collector has anything to take.
#[allow(clippy::too_many_arguments)]
fn collect(
    workload: &FanoutFiltered,
    groups: &[Group],
    format: &Format,
    expected: &mut Vec<u16>,
    collected: &mut u64,
    n: usize,
    tracer: &mut Tracer,
) -> u64 {
    let first = *collected;
    for group in groups.iter().rev() {
        expected.clear();
        expected.extend((first..first + n as u64).filter_map(|event| {
            let k = (event % POOL as u64) as usize;
            group
                .predicate
                .is_none_or(|p| workload.matches[p][k])
                .then_some(k as u16)
        }));
        for sub in group.subs.iter().rev() {
            for &k in expected.iter() {
                let event = tracer.span("backbone.broker.Subscription::recv", first, || {
                    sub.recv_timeout(DEADLINE)
                });
                let Ok(event) = event else { return n as u64 };
                let ok = tracer.span("pbio.ndr::view_with", first, || {
                    pbio::ndr::view_with(&event.payload, format)
                        .and_then(|view| view.get(B_INDEX_FIELD))
                        .is_ok_and(|index| index.as_i64() == Some(workload.numbers[usize::from(k)]))
                });
                if !ok {
                    return n as u64;
                }
            }
        }
    }
    *collected += n as u64;
    0
}

impl Deployment for Fanout<'_> {
    fn round(&mut self, tracer: &mut Tracer) -> u64 {
        let open = tracer.enter("round", self.issued);
        let round = self.workload.plan().round;
        let mut failed = publish_from_pool(
            &self.capture,
            &self.workload.pool,
            &mut self.issued,
            round,
            tracer,
        );
        if failed == 0 {
            failed = collect(
                self.workload,
                &self.groups,
                &self.format,
                &mut self.expected,
                &mut self.collected,
                round,
                tracer,
            );
        }
        tracer.exit(open);
        failed
    }

    fn split(&mut self) -> (IssueFn<'_>, CollectFn<'_>) {
        let workload = self.workload;
        let (capture, groups, format) = (&self.capture, &self.groups, &self.format);
        let (issued, collected, expected) =
            (&mut self.issued, &mut self.collected, &mut self.expected);
        (
            Box::new(move |n, tracer| {
                publish_from_pool(capture, &workload.pool, issued, n, tracer)
            }),
            // A burst is drained subscriber by subscriber, so all its
            // events are fully fanned out at the same instant: the end
            // of the drain.
            Box::new(move |n, stamps, tracer| {
                let failed = collect(workload, groups, format, expected, collected, n, tracer);
                if failed == 0 {
                    let done = std::time::Instant::now();
                    stamps.extend(std::iter::repeat_n(done, n));
                }
                failed
            }),
        )
    }

    /// In process nothing crosses a wire; what is counted is the NDR
    /// message handed to the broker once per event (fan-out shares it),
    /// priced at the pool mean.
    fn wire(&self) -> (u64, u64) {
        (
            self.workload.pool_bytes * self.issued / POOL as u64,
            self.issued,
        )
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let cache = self.broker.filter_cache_stats();
        let evals: u64 = self
            .workload
            .predicates
            .iter()
            .filter_map(|expr| self.broker.compile_filter(STREAM, expr).ok())
            .map(|filter| filter.stats().evals)
            .sum();
        vec![
            ("core.schema_cache_hit_ratio", self.site.cache_hit_ratio()),
            (
                "backbone.filter.evals_per_event",
                evals as f64 / self.issued.max(1) as f64,
            ),
            // Taken before the lookups above added 16 hits of their own.
            (
                "backbone.filter.cache_hit_ratio",
                cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
            ),
        ]
    }
}
