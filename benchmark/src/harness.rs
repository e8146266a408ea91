//! The shape every workload's run shares.
//!
//! A run is [`EPOCHS`] fresh deployments — new brokers, sockets and
//! threads each time, so one unlucky thread placement cannot own a
//! whole run. Each epoch is set-up → warm-up (discarded) → [`SLICES`]
//! blocks of one saturation slice and one paced slice → teardown. Work
//! per slice is a fixed event count, never a fixed time, so every slice
//! of a phase is the same amount of work; a reference unit
//! ([`crate::reference`]) runs between any two slices, so every slice is
//! known in reference seconds as well as wall seconds.
//!
//! * **Set-up** — [`Plan::cold_starts`] cold starts of the deployment,
//!   one after another, each from nothing to its first round of events
//!   accepted and checked; the last one stays up and carries the epoch.
//! * **Saturation slice** — closed loop. One generator thread issues a
//!   round of events, then takes every result of the round off itself
//!   with blocking receives; [`Plan::rounds_per_slice`] rounds.
//! * **Paced slice** — open loop. A pacer thread issues bursts at fixed
//!   due times ([`crate::pacer`]); a collector thread takes the results
//!   and stamps them. Latency counts from the due time.
//!
//! Every receive a workload makes carries [`DEADLINE`], so a lost event
//! is a failed operation, not a hang.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::pacer::Schedule;
use crate::reference::{Reference, NOMINAL_UNIT_S};
use crate::stats::Stretch;
use crate::trace::{self, Tracer};

/// Fresh deployments per run.
pub const EPOCHS: usize = 3;
/// Saturation slices per epoch, and paced slices too (a workload whose
/// events are milliseconds long may run fewer paced ones, see
/// [`Plan::paced_slices`]). The two kinds alternate, so whatever stretch
/// of the box's time a run gets serves both.
pub const SLICES: usize = 64;
/// How long any single receive may block before it counts as a loss.
pub const DEADLINE: Duration = Duration::from_secs(5);
/// The `--seconds` the per-workload work constants are sized for:
/// `run_seconds` in `BENCHMARK.json`, and about what a run takes on
/// this box, start to exit.
pub const REFERENCE_SECONDS: u64 = 14;

/// Times cold starts in wall seconds and in reference seconds.
///
/// From [`SetupClock::resume`] to [`SetupClock::pause`] is one lap — one
/// cold start. A lap is cut into segments, each bracketed by a reference
/// unit at either end and converted with the mean of the two. A stage
/// that runs long calls [`SetupClock::tick`] at its natural seams (after
/// a discovery, after a chunk of prefill) to let the clock cut there.
pub struct SetupClock<'r> {
    reference: Option<&'r mut Reference>,
    /// [`Plan::setup_sensitivity`].
    sensitivity: f64,
    /// The latest reference unit: what it took and when it ended.
    unit_s: f64,
    unit_ended: Instant,
    /// When the open segment started; `None` while paused.
    segment: Option<Instant>,
    /// The open lap so far: wall seconds, reference seconds.
    lap: (f64, f64),
    laps: Vec<Stretch>,
    units_s: Vec<f64>,
}

/// A segment shorter than this is not worth a reference unit of its own.
const SHORTEST_SEGMENT: Duration = Duration::from_millis(5);

impl<'r> SetupClock<'r> {
    pub fn new(reference: &'r mut Reference, sensitivity: f64) -> SetupClock<'r> {
        let unit_s = reference.unit();
        SetupClock {
            reference: Some(reference),
            sensitivity,
            unit_s,
            unit_ended: Instant::now(),
            segment: None,
            lap: (0.0, 0.0),
            laps: Vec::new(),
            units_s: vec![unit_s],
        }
    }

    /// A clock that times nothing, for deployments brought up outside
    /// an epoch (the isolated probes).
    pub fn off() -> SetupClock<'static> {
        SetupClock {
            reference: None,
            sensitivity: 1.0,
            unit_s: 0.0,
            unit_ended: Instant::now(),
            segment: None,
            lap: (0.0, 0.0),
            laps: Vec::new(),
            units_s: Vec::new(),
        }
    }

    fn take_unit(&mut self) -> f64 {
        let Some(reference) = self.reference.as_deref_mut() else {
            return 0.0;
        };
        let unit_s = reference.unit();
        self.units_s.push(unit_s);
        self.unit_ended = Instant::now();
        std::mem::replace(&mut self.unit_s, unit_s)
    }

    fn close_segment(&mut self) {
        let Some(started) = self.segment.take() else {
            return;
        };
        let wall = started.elapsed().as_secs_f64();
        let before_s = self.take_unit();
        self.lap.0 += wall;
        self.lap.1 += Stretch {
            wall,
            unit_s: (before_s + self.unit_s) / 2.0,
        }
        .in_reference_time(self.sensitivity);
    }

    /// Starts a lap.
    pub fn resume(&mut self) {
        if self.reference.is_none() || self.segment.is_some() {
            return;
        }
        if self.unit_ended.elapsed() > SHORTEST_SEGMENT {
            self.take_unit();
        }
        self.segment = Some(Instant::now());
    }

    /// Cuts the running segment here, if it has run long enough.
    pub fn tick(&mut self) {
        if self
            .segment
            .is_some_and(|started| started.elapsed() >= SHORTEST_SEGMENT)
        {
            self.close_segment();
            self.segment = Some(Instant::now());
        }
    }

    /// Ends the lap. It is recorded with the one reference unit that
    /// would convert its wall seconds to its reference seconds.
    pub fn pause(&mut self) {
        if self.segment.is_none() {
            return;
        }
        self.close_segment();
        let (wall, reference_s) = std::mem::take(&mut self.lap);
        self.laps.push(Stretch {
            wall,
            unit_s: NOMINAL_UNIT_S * (wall / reference_s).powf(1.0 / self.sensitivity),
        });
    }
}

/// A run that cannot go on (a deployment failed to come up).
#[derive(Debug)]
pub struct Fail(pub String);

impl<E: std::error::Error> From<E> for Fail {
    fn from(e: E) -> Fail {
        Fail(e.to_string())
    }
}

/// Per-workload work constants, sized on this box for a run of
/// [`REFERENCE_SECONDS`] and never calibrated at run time.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Cold starts per set-up: enough that set-up is at least 0.2 s of
    /// real work on this box.
    pub cold_starts: usize,
    /// How much of the reference unit's slowdown under a busy
    /// neighbour a cold start shares ([`crate::reference`]): 1 where it
    /// is discovery and binding, less where it is mostly steady-state
    /// work.
    pub setup_sensitivity: f64,
    /// Events one closed-loop round issues and then drains.
    pub round: usize,
    /// Rounds discarded after set-up.
    pub warmup_rounds: usize,
    /// Rounds per saturation slice.
    pub rounds_per_slice: usize,
    /// Offered rate of the paced phase, events per second — about a
    /// quarter of the saturation rate measured on this box, so that a
    /// stretch in which the box runs at a third of its speed still
    /// leaves the queues stable.
    pub paced_rate_eps: f64,
    /// Events per paced burst — large enough that `latency_p50_us`
    /// stays at or above 100 µs, so wake-up jitter is a small share.
    pub paced_burst: usize,
    /// Bursts per paced slice.
    pub bursts_per_slice: usize,
    /// Paced slices per epoch: [`SLICES`], unless that would leave a
    /// slice too few events for its median to mean anything.
    pub paced_slices: usize,
}

impl Plan {
    /// The plan scaled to a run of `seconds` of [`REFERENCE_SECONDS`]
    /// (slices stay [`SLICES`]; each holds proportionally more or less
    /// work, never less than one round or burst).
    pub fn scaled(self, seconds: u64) -> Plan {
        let scale = |n: usize| ((n as u64 * seconds).div_ceil(REFERENCE_SECONDS) as usize).max(1);
        Plan {
            rounds_per_slice: scale(self.rounds_per_slice),
            bursts_per_slice: scale(self.bursts_per_slice),
            ..self
        }
    }

    /// The smallest plan that still runs every phase: the `--quick`
    /// correctness smoke.
    pub fn quick(self) -> Plan {
        Plan {
            cold_starts: self.cold_starts.min(2),
            warmup_rounds: 1,
            rounds_per_slice: 1,
            bursts_per_slice: 2,
            ..self
        }
    }
}

/// The open-loop issuing half: issues the next `n` events, returns how
/// many it could not.
pub type IssueFn<'a> = Box<dyn FnMut(usize, &mut Tracer) -> u64 + Send + 'a>;
/// The open-loop collecting half: takes the next `n` results, pushes
/// the instant each was decoded and checked, returns how many failed.
pub type CollectFn<'a> = Box<dyn FnMut(usize, &mut Vec<Instant>, &mut Tracer) -> u64 + Send + 'a>;

/// One deployed system under test.
pub trait Deployment {
    /// One closed-loop round: issue [`Plan::round`] events, then take
    /// every result off with blocking, deadline-bounded receives and
    /// check each against the reference. Returns the number of events
    /// that failed (lost, duplicated, reordered, mis-decoded, late).
    fn round(&mut self, tracer: &mut Tracer) -> u64;

    /// Splits into the two halves of the open loop.
    fn split(&mut self) -> (IssueFn<'_>, CollectFn<'_>);

    /// Bytes this deployment has put on the wire (or log, or HTTP
    /// response) and the events they carried, counted by the harness.
    fn wire(&self) -> (u64, u64);

    /// Counts read from the system's own `*Stats` snapshots, by layer
    /// metric name.
    fn counters(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// A workload: seeded inputs plus the recipe for deploying them.
pub trait Workload {
    fn plan(&self) -> Plan;
    /// Which isolated layer probes one event of the saturation phase
    /// passes through, and how many times: `(layer metric, calls per
    /// event)`. The traced run prices these and calls what is left of
    /// the per-event time the residual — queueing, wake-ups, hand-offs
    /// and whatever runs on the system's own threads.
    fn budget(&self) -> Vec<(&'static str, f64)>;
    /// Brings a fresh deployment up, ready for its first event. All
    /// cold-start work (discovery by each peer session, log prefill
    /// and recovery, link set-up, filter compilation) happens here.
    fn deploy(
        &self,
        epoch: usize,
        clock: &mut SetupClock,
    ) -> Result<Box<dyn Deployment + '_>, Fail>;
}

/// What one epoch measured.
#[derive(Debug, Default)]
pub struct EpochOutcome {
    /// Each cold start, from nothing to its first round accepted.
    pub cold_starts: Vec<Stretch>,
    /// Each saturation slice.
    pub slices: Vec<Stretch>,
    pub events_per_slice: usize,
    /// Each paced slice: every event's latency in µs (wall clock), and
    /// the reference unit around the slice, seconds.
    pub paced: Vec<(Vec<f64>, f64)>,
    /// How late the pacer woke for each burst, µs.
    pub pacer_late_us: Vec<f64>,
    /// Events issued but not yet collected when a pacer finished.
    pub backlog_end: u64,
    /// Every reference unit the epoch took, seconds.
    pub units_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wire_bytes: u64,
    pub wire_events: u64,
    pub counters: Vec<(&'static str, f64)>,
    /// Heap allocations during the saturation slices (counted only when
    /// traced) and the process's CPU seconds over them.
    pub sat_allocations: u64,
    pub sat_cpu_s: f64,
    /// Spans recorded (empty unless traced).
    pub tracers: Vec<Tracer>,
}

/// Runs one epoch of `workload` under `plan`. With `trace_origin` set,
/// spans are recorded around the workload's calls into the layers.
pub fn run_epoch(
    workload: &dyn Workload,
    plan: Plan,
    epoch: usize,
    reference: &mut Reference,
    trace_origin: Option<Instant>,
) -> Result<EpochOutcome, Fail> {
    let tracer_for = |thread: &'static str| match trace_origin {
        Some(origin) => Tracer::new(true, origin, thread),
        None => Tracer::off(),
    };
    let mut out = EpochOutcome {
        events_per_slice: plan.round * plan.rounds_per_slice,
        ..Default::default()
    };
    let mut untraced = Tracer::off();

    // Set-up: cold starts, each torn down (untimed) before the next;
    // the last stays up.
    let mut clock = SetupClock::new(reference, plan.setup_sensitivity);
    let mut deployment = None;
    for _ in 0..plan.cold_starts.max(1) {
        drop(deployment.take());
        clock.resume();
        let mut fresh = workload.deploy(epoch, &mut clock)?;
        let failed = fresh.round(&mut untraced);
        clock.pause();
        out.attempted += plan.round as u64;
        out.failed += failed;
        deployment = Some(fresh);
        if failed > 0 {
            break;
        }
    }
    out.cold_starts = clock.laps;
    out.units_s = clock.units_s;
    let mut deployment = deployment.expect("at least one cold start");
    if out.failed > 0 {
        return Ok(out); // the deployment never carried a clean round
    }

    for _ in 0..plan.warmup_rounds {
        out.failed += deployment.round(&mut untraced);
        out.attempted += plan.round as u64;
    }

    let mut generator = tracer_for("generator");
    let mut pacer = tracer_for("pacer");
    let mut collector = tracer_for("collector");
    let mut unit = |out: &mut EpochOutcome| {
        let unit_s = reference.unit();
        out.units_s.push(unit_s);
        unit_s
    };
    let mut unit_before = unit(&mut out);
    for slice in 0..SLICES {
        trace::count_allocations(generator.enabled());
        let (allocations, cpu_s) = (trace::allocations(), trace::cpu_seconds());
        let started = Instant::now();
        let mut failed = 0;
        for _ in 0..plan.rounds_per_slice {
            failed = deployment.round(&mut generator);
            out.attempted += plan.round as u64;
            if failed > 0 {
                break; // results no longer line up; stop timing
            }
        }
        let wall = started.elapsed().as_secs_f64();
        trace::count_allocations(false);
        out.failed += failed;
        if failed > 0 {
            break;
        }
        out.sat_allocations += trace::allocations() - allocations;
        out.sat_cpu_s += trace::cpu_seconds()
            .zip(cpu_s)
            .map_or(0.0, |(after, before)| after - before);
        let unit_between = unit(&mut out);
        out.slices.push(Stretch {
            wall,
            unit_s: (unit_before + unit_between) / 2.0,
        });
        unit_before = unit_between;

        // A workload with fewer paced slices runs one every few blocks.
        if slice % (SLICES / plan.paced_slices) != 0 {
            continue;
        }
        let (issue, collect) = deployment.split();
        let paced = paced_slice(plan, issue, collect, &mut pacer, &mut collector);
        out.attempted += paced.attempted;
        out.failed += paced.failed;
        out.pacer_late_us.extend(paced.pacer_late_us);
        out.backlog_end = out.backlog_end.max(paced.backlog_end);
        if paced.failed > 0 {
            break;
        }
        let unit_after = unit(&mut out);
        out.paced
            .push((paced.latency_us, (unit_between + unit_after) / 2.0));
        unit_before = unit_after;
    }
    out.tracers.extend([generator, pacer, collector]);

    (out.wire_bytes, out.wire_events) = deployment.wire();
    out.counters = deployment.counters();
    Ok(out)
}

struct PacedOutcome {
    latency_us: Vec<f64>,
    pacer_late_us: Vec<f64>,
    backlog_end: u64,
    attempted: u64,
    failed: u64,
}

/// One paced slice: [`Plan::bursts_per_slice`] bursts on a schedule of
/// its own.
fn paced_slice(
    plan: Plan,
    mut issue: IssueFn<'_>,
    mut collect: CollectFn<'_>,
    pacer_tracer: &mut Tracer,
    collector_tracer: &mut Tracer,
) -> PacedOutcome {
    let bursts = plan.bursts_per_slice;
    let burst = plan.paced_burst;
    // Start a moment ahead so both threads are parked on the schedule
    // before the first burst is due.
    let schedule = Schedule::new(
        Instant::now() + Duration::from_millis(2),
        plan.paced_rate_eps,
        burst,
    );
    let issued = AtomicU64::new(0);
    let collected = AtomicU64::new(0);
    let abort = AtomicBool::new(false);

    let (pacer_late_us, backlog_end, unissued, latency_us, miscollected) =
        std::thread::scope(|scope| {
            let pacer = scope.spawn(|| {
                let mut late_us = Vec::with_capacity(bursts);
                let mut unissued = 0u64;
                for b in 0..bursts {
                    // SeqCst on the abort flag and both counters: they
                    // carry no other data, and three plain flags are not
                    // worth a weaker ordering's proof.
                    if abort.load(Ordering::SeqCst) {
                        break;
                    }
                    late_us.push(schedule.wait(b).as_secs_f64() * 1e6);
                    let failed = issue(burst, pacer_tracer);
                    issued.fetch_add(burst as u64, Ordering::SeqCst);
                    if failed > 0 {
                        unissued += failed;
                        abort.store(true, Ordering::SeqCst);
                        break;
                    }
                }
                let backlog = issued
                    .load(Ordering::SeqCst)
                    .saturating_sub(collected.load(Ordering::SeqCst));
                (late_us, backlog, unissued)
            });
            let collector = scope.spawn(|| {
                let mut latency_us = Vec::with_capacity(bursts * burst);
                let mut stamps = Vec::with_capacity(burst);
                let mut failed = 0u64;
                for b in 0..bursts {
                    stamps.clear();
                    failed += collect(burst, &mut stamps, collector_tracer);
                    latency_us.extend(stamps.iter().map(|&at| schedule.latency_us(b, at)));
                    collected.fetch_add(burst as u64, Ordering::SeqCst);
                    if failed > 0 || abort.load(Ordering::SeqCst) {
                        abort.store(true, Ordering::SeqCst);
                        break;
                    }
                }
                (latency_us, failed)
            });
            let (late_us, backlog, unissued) = pacer.join().expect("pacer thread panicked");
            let (latency_us, miscollected) = collector.join().expect("collector thread panicked");
            (late_us, backlog, unissued, latency_us, miscollected)
        });

    let attempted = (bursts * burst) as u64;
    // After a failure the slice stops, and everything it did not get
    // to — never issued, lost, or queued behind the failure — failed.
    let failed = if unissued + miscollected > 0 {
        attempted.saturating_sub(latency_us.len() as u64).max(1)
    } else {
        0
    };
    PacedOutcome {
        latency_us,
        pacer_late_us,
        backlog_end,
        attempted,
        failed,
    }
}

/// Polls `ready` until it holds, yielding between polls (a few
/// microseconds apart on this box — no sleeps, so set-up time is work,
/// not timer slack). `Err` after [`DEADLINE`].
pub fn wait_ready(what: &str, ready: impl Fn() -> bool) -> Result<(), Fail> {
    let deadline = Instant::now() + DEADLINE;
    while !ready() {
        if Instant::now() >= deadline {
            return Err(Fail(format!("{what} not ready within {DEADLINE:?}")));
        }
        std::thread::yield_now();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deployment that completes every event instantly.
    struct Instant0 {
        issued: AtomicU64,
    }

    impl Deployment for Instant0 {
        fn round(&mut self, _: &mut Tracer) -> u64 {
            0
        }
        fn split(&mut self) -> (IssueFn<'_>, CollectFn<'_>) {
            let issued = &self.issued;
            (
                Box::new(move |n, _| {
                    issued.fetch_add(n as u64, Ordering::SeqCst);
                    0
                }),
                Box::new(move |n, stamps, _| {
                    let mut taken = 0;
                    let deadline = Instant::now() + Duration::from_secs(2);
                    while taken < n {
                        if issued
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                            .is_ok()
                        {
                            stamps.push(Instant::now());
                            taken += 1;
                        } else if Instant::now() > deadline {
                            return (n - taken) as u64;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    0
                }),
            )
        }
        fn wire(&self) -> (u64, u64) {
            (0, 1)
        }
    }

    #[test]
    fn a_paced_slice_times_every_event_from_its_due_time() {
        let plan = Plan {
            cold_starts: 1,
            setup_sensitivity: 1.0,
            round: 1,
            warmup_rounds: 0,
            rounds_per_slice: 1,
            paced_rate_eps: 20_000.0,
            paced_burst: 4,
            bursts_per_slice: 50,
            paced_slices: SLICES,
        };
        let mut deployment = Instant0 {
            issued: AtomicU64::new(0),
        };
        let (issue, collect) = deployment.split();
        let out = paced_slice(plan, issue, collect, &mut Tracer::off(), &mut Tracer::off());
        assert_eq!(out.attempted, 200);
        assert_eq!(out.failed, 0);
        assert_eq!(out.latency_us.len(), 200);
        assert_eq!(out.pacer_late_us.len(), 50);
        // Nothing can complete before it was due.
        assert!(out.latency_us.iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn plans_scale_with_seconds_and_shrink_for_quick() {
        let plan = Plan {
            cold_starts: 30,
            setup_sensitivity: 1.0,
            round: 256,
            warmup_rounds: 8,
            rounds_per_slice: 10,
            paced_rate_eps: 1e5,
            paced_burst: 64,
            bursts_per_slice: 40,
            paced_slices: SLICES,
        };
        assert_eq!(plan.scaled(REFERENCE_SECONDS).rounds_per_slice, 10);
        assert_eq!(plan.scaled(REFERENCE_SECONDS / 2).rounds_per_slice, 5);
        assert_eq!(plan.scaled(1).bursts_per_slice, 3);
        assert_eq!(plan.scaled(1).cold_starts, 30);
        assert_eq!(plan.quick().rounds_per_slice, 1);
    }

    #[test]
    fn the_setup_clock_counts_only_between_resume_and_pause() {
        let mut reference = Reference::new();
        let mut clock = SetupClock::new(&mut reference, 1.0);
        let nap = Duration::from_millis(12);
        clock.resume();
        std::thread::sleep(nap);
        clock.tick(); // long enough: cut here
        std::thread::sleep(nap);
        clock.tick();
        clock.tick(); // too soon after the last cut: ignored
        clock.pause();
        std::thread::sleep(nap); // a teardown: not counted
        clock.resume();
        std::thread::sleep(nap);
        clock.pause();
        // Two laps: two naps, then one.
        assert_eq!(clock.laps.len(), 2);
        assert!(clock.laps[0].wall >= 2.0 * nap.as_secs_f64());
        assert!(clock.laps[0].wall < 3.0 * nap.as_secs_f64());
        assert!(clock.laps[1].wall >= nap.as_secs_f64());
        assert!(clock.laps[1].wall < 2.0 * nap.as_secs_f64());
        assert!(clock
            .laps
            .iter()
            .all(|lap| lap.in_reference_time(1.0) > 0.0));
        // One unit at the start, one closing each of the four segments,
        // one reopening after the teardown.
        assert_eq!(clock.units_s.len(), 6);
        let mut off = SetupClock::off();
        off.resume();
        off.tick();
        off.pause();
        assert_eq!((off.laps.len(), off.units_s.len()), (0, 0));
    }
}
