//! `durable_replay` — the segment log's read path beside its write path.
//!
//! A durable Structure B stream (`create_stream_durable`,
//! `FsyncPolicy::Never`, a directory under the build directory — what
//! this box can measure is the page cache, not a disk). Set-up prefills
//! [`PREFILL`] events through the broker, drops it, and reopens the log
//! on a fresh broker (recovery scan).
//!
//! * Saturation phase — the *read* path: late subscribers, one after
//!   another, `subscribe_replay(from 1)` and read the whole history —
//!   the prefill and every live event published since — up to their
//!   cut-over point, then cut over to live (checked with one live
//!   publish each). An event is one replayed event.
//! * Paced phase — the *write* path: live publishes with a live
//!   subscriber; the shard appends to the log before it fans out.
//!
//! `core::seglog` does most of the work. Writes sit beside reads so a
//! replay gain paid for by appends, or by set-up recovery time, shows in
//! `latency_p50_us` or `setup_s`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use backbone::{Broker, CapturePoint, DurableSpec, ReplaySubscription, StreamConfig, Subscription};
use clayout::{Architecture, Record};
use pbio::Format;
use xml2wire::{FsyncPolicy, SegLogConfig};

use super::{index_and_dest_match, publish_from_pool, site_catalogue, Site};
use crate::gen::{self, B_FORMAT, POOL};
use crate::harness::{
    CollectFn, Deployment, Fail, IssueFn, Plan, SetupClock, Workload, DEADLINE, SLICES,
};
use crate::trace::Tracer;

const STREAM: &str = "durable.asd";
/// Events in the log before the first measured one: 800 rounds of 256.
pub const PREFILL: u64 = 204_800;
const QUICK_PREFILL: u64 = 4_096;

pub struct DurableReplay {
    quick: bool,
    catalogue: String,
    pool: Vec<Record>,
    work_dir: PathBuf,
}

impl DurableReplay {
    pub fn new(seed: u64, quick: bool, work_dir: &Path) -> DurableReplay {
        let vocabulary = gen::Vocabulary::new(seed);
        DurableReplay {
            quick,
            catalogue: site_catalogue(seed),
            pool: gen::b_pool(seed, &vocabulary),
            work_dir: work_dir.to_owned(),
        }
    }

    fn prefill(&self) -> u64 {
        if self.quick {
            QUICK_PREFILL
        } else {
            PREFILL
        }
    }
}

fn spec(dir: &Path) -> DurableSpec {
    DurableSpec {
        dir: dir.to_owned(),
        log: SegLogConfig {
            fsync: FsyncPolicy::Never,
            ..SegLogConfig::default()
        },
    }
}

/// Bytes of every segment file under `dir`.
fn log_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

impl Workload for DurableReplay {
    fn plan(&self) -> Plan {
        Plan {
            // One cold start prefills and recovers a 47 MB log: well
            // over 0.2 s on its own.
            cold_starts: 1,
            // Mostly 204 800 publishes and appends, not discovery:
            // log–log slopes of 0.5–0.6 against the reference unit.
            setup_sensitivity: 0.6,
            round: 256,
            warmup_rounds: 80,
            rounds_per_slice: 62,
            paced_rate_eps: 60_000.0,
            paced_burst: 64,
            bursts_per_slice: 28,
            paced_slices: SLICES,
        }
    }

    fn budget(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("core.seglog.replay_ns", 1.0),
            // Two of the record's eight fields are read.
            ("pbio.view_ns", 0.25),
        ]
    }

    fn deploy(
        &self,
        epoch: usize,
        clock: &mut SetupClock,
    ) -> Result<Box<dyn Deployment + '_>, Fail> {
        let dir = self.work_dir.join(format!("durable-epoch-{epoch}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut site = Site::start(&self.catalogue)?;
        let producer = site.peer(Architecture::host(), clock)?;
        let locator = Some(site.catalogue_url.clone());

        // Prefill through a first broker, then let it go: its drop
        // queues behind the publishes, so every event is in the log.
        {
            let broker = Arc::new(Broker::new());
            broker.create_stream_durable(STREAM, StreamConfig::default(), spec(&dir))?;
            let capture = CapturePoint::new(
                Arc::clone(&broker),
                Arc::clone(&producer),
                STREAM,
                B_FORMAT,
                locator.clone(),
            )?;
            for _ in 0..self.prefill() / POOL as u64 {
                self.pool
                    .iter()
                    .try_for_each(|record| capture.publish(record).map(drop))?;
                clock.tick();
            }
        }
        clock.tick();
        let prefilled_bytes = log_bytes(&dir)?;

        // Reopen: recovery scans the log's tail and resumes its sequence.
        let broker = Arc::new(Broker::new());
        let recovered =
            broker.create_stream_durable(STREAM, StreamConfig::default(), spec(&dir))?;
        clock.tick();
        if recovered != self.prefill() {
            return Err(Fail(format!(
                "recovered seq {recovered}, prefilled {}",
                self.prefill()
            )));
        }
        let capture = CapturePoint::new(Arc::clone(&broker), producer, STREAM, B_FORMAT, locator)?;
        let viewer = site.peer(Architecture::host(), clock)?;
        let format = viewer.require_format(B_FORMAT)?;
        let live = broker.subscribe(STREAM)?;
        Ok(Box::new(Durable {
            workload: self,
            replay: None,
            live,
            capture,
            broker,
            format,
            site,
            dir,
            prefilled_bytes,
            last_seq: recovered,
            live_seen: recovered,
            replayed: 0,
        }))
    }
}

struct Durable<'w> {
    workload: &'w DurableReplay,
    /// The late subscriber currently reading history, and the next
    /// sequence number it must yield.
    replay: Option<(ReplaySubscription, u64)>,
    live: Subscription,
    capture: CapturePoint,
    broker: Arc<Broker>,
    format: Arc<Format>,
    site: Site,
    dir: PathBuf,
    prefilled_bytes: u64,
    /// Highest sequence published so far.
    last_seq: u64,
    /// Highest sequence the live subscriber has been checked up to.
    live_seen: u64,
    replayed: u64,
}

impl Drop for Durable<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Whether `event` is sequence `seq` of the stream: the log's number,
/// and the pool entry that was published under it.
fn is_seq(event: &backbone::Event, seq: u64, format: &Format, pool: &[Record]) -> bool {
    let index = ((seq - 1) % POOL as u64) as usize;
    event.seq == seq
        && pbio::ndr::view_with(&event.payload, format)
            .is_ok_and(|view| index_and_dest_match(&view, &pool[index]))
}

fn collect_live(
    live: &Subscription,
    format: &Format,
    pool: &[Record],
    live_seen: &mut u64,
    n: usize,
    mut stamp: impl FnMut(),
    tracer: &mut Tracer,
) -> u64 {
    for done in 0..n {
        let seq = *live_seen + 1;
        let event = tracer.span("backbone.broker.Subscription::recv", seq, || {
            live.recv_timeout(DEADLINE)
        });
        let ok = event.is_ok_and(|event| {
            tracer.span("pbio.ndr::view_with", seq, || {
                is_seq(&event, seq, format, pool)
            })
        });
        if !ok {
            return (n - done) as u64;
        }
        stamp();
        *live_seen = seq;
    }
    0
}

impl Durable<'_> {
    /// One event of history through the current late subscriber,
    /// opening one first if there is none. A late subscriber's history
    /// is everything logged before it subscribed; every event of it
    /// counts, so every slice is the same number of replayed events
    /// however much the paced phase has appended meanwhile.
    fn replay_one(&mut self, tracer: &mut Tracer) -> bool {
        if self.replay.is_none() {
            let late = tracer.span(
                "backbone.broker.Broker::subscribe_replay",
                self.replayed,
                || self.broker.subscribe_replay(STREAM, 1),
            );
            let Ok(late) = late else { return false };
            if late.cutover_seq() != self.last_seq {
                return false; // the snapshot must end at the last publish
            }
            self.replay = Some((late, 1));
        }
        let (late, next) = self.replay.as_mut().expect("opened above");
        let seq = *next;
        let event = tracer.span("backbone.broker.ReplaySubscription::recv", seq, || {
            late.recv_timeout(DEADLINE)
        });
        let ok = event.is_ok_and(|event| {
            tracer.span("pbio.ndr::view_with", seq, || {
                is_seq(&event, seq, &self.format, &self.workload.pool)
            })
        });
        if !ok {
            return false;
        }
        *next += 1;
        self.replayed += 1;
        seq != self.last_seq || self.cut_over(tracer)
    }

    /// The current late subscriber has yielded all of its history. One
    /// live publish must now reach it through the live feed, gap-free,
    /// and the live subscriber too.
    fn cut_over(&mut self, tracer: &mut Tracer) -> bool {
        let (mut late, _) = self.replay.take().expect("called with a subscriber open");
        let pool = &self.workload.pool;
        if publish_from_pool(&self.capture, pool, &mut self.last_seq, 1, tracer) != 0 {
            return false;
        }
        let seq = self.last_seq;
        late.recv_timeout(DEADLINE)
            .is_ok_and(|event| is_seq(&event, seq, &self.format, pool))
            && collect_live(
                &self.live,
                &self.format,
                pool,
                &mut self.live_seen,
                1,
                || (),
                tracer,
            ) == 0
    }
}

impl Deployment for Durable<'_> {
    /// The next `round` events of history, through late subscribers
    /// one after another.
    fn round(&mut self, tracer: &mut Tracer) -> u64 {
        let round = self.workload.plan().round as u64;
        let open = tracer.enter("round", self.replayed);
        let failed = (0..round)
            .find(|_| !self.replay_one(tracer))
            .map_or(0, |done| round - done);
        tracer.exit(open);
        failed
    }

    fn split(&mut self) -> (IssueFn<'_>, CollectFn<'_>) {
        let pool = &self.workload.pool;
        let (capture, live, format) = (&self.capture, &self.live, &self.format);
        let (last_seq, live_seen) = (&mut self.last_seq, &mut self.live_seen);
        (
            Box::new(move |n, tracer| publish_from_pool(capture, pool, last_seq, n, tracer)),
            Box::new(move |n, stamps, tracer| {
                collect_live(
                    live,
                    format,
                    pool,
                    live_seen,
                    n,
                    || stamps.push(std::time::Instant::now()),
                    tracer,
                )
            }),
        )
    }

    /// Log bytes per logged event, from the prefilled log's size on
    /// disk: exact for a seed, and untouched by how far the run got.
    fn wire(&self) -> (u64, u64) {
        (self.prefilled_bytes, self.workload.prefill())
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        vec![("core.schema_cache_hit_ratio", self.site.cache_hit_ratio())]
    }
}
