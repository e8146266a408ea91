//! One run of one workload: epochs in, named metrics out.

use std::time::Instant;

use crate::harness::{run_epoch, EpochOutcome, Fail, Plan, Workload, EPOCHS, SLICES};
use crate::probes;
use crate::reference::{Reference, SLICE_SENSITIVITY};
use crate::report::{self, Measured};
use crate::stats::{self, Stretch};
use crate::trace;

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub measured: Vec<Measured>,
}

impl RunReport {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.measured
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn push(&mut self, name: &str, value: Option<f64>, samples: usize) {
        if let Some(value) = value {
            self.measured
                .push(Measured::new(name, value, samples as u64));
        }
    }
}

/// What the epochs of a run measured, pooled.
struct Pooled {
    cold_starts: Vec<Stretch>,
    /// Per epoch, the wall seconds its cold starts took together.
    setup_wall_s: Vec<f64>,
    slices: Vec<Stretch>,
    events_per_slice: usize,
    paced: Vec<(Vec<f64>, f64)>,
    pacer_late_us: Vec<f64>,
    units_s: Vec<f64>,
    backlog_end: u64,
    wire_bytes: u64,
    wire_events: u64,
}

fn pool(report: &mut RunReport, epochs: &[EpochOutcome]) -> Pooled {
    let mut pooled = Pooled {
        cold_starts: Vec::new(),
        setup_wall_s: Vec::new(),
        slices: Vec::new(),
        events_per_slice: epochs.first().map_or(0, |e| e.events_per_slice),
        paced: Vec::new(),
        pacer_late_us: Vec::new(),
        units_s: Vec::new(),
        backlog_end: 0,
        wire_bytes: 0,
        wire_events: 0,
    };
    for epoch in epochs {
        report.attempted += epoch.attempted;
        report.failed += epoch.failed;
        pooled.cold_starts.extend(&epoch.cold_starts);
        pooled
            .setup_wall_s
            .push(epoch.cold_starts.iter().map(|lap| lap.wall).sum());
        pooled.slices.extend(&epoch.slices);
        pooled.paced.extend(epoch.paced.iter().cloned());
        pooled.pacer_late_us.extend(&epoch.pacer_late_us);
        pooled.units_s.extend(&epoch.units_s);
        pooled.backlog_end = pooled.backlog_end.max(epoch.backlog_end);
        pooled.wire_bytes += epoch.wire_bytes;
        pooled.wire_events += epoch.wire_events;
    }
    pooled
}

/// The end-to-end metrics and their wall-clock companions.
fn summarize(report: &mut RunReport, pooled: &Pooled, plan: Plan) {
    let slices = pooled.slices.len();
    let paced = pooled.paced.len();
    let slice_medians: Vec<Stretch> = pooled
        .paced
        .iter()
        .filter_map(|(latencies_us, unit_s)| {
            Some(Stretch {
                wall: stats::median(latencies_us)?,
                unit_s: *unit_s,
            })
        })
        .collect();
    report.push(
        "setup_s",
        stats::typical(&pooled.cold_starts, plan.setup_sensitivity)
            .map(|lap_s| lap_s * plan.cold_starts as f64),
        pooled.cold_starts.len(),
    );
    report.push(
        "throughput_eps",
        stats::throughput(pooled.events_per_slice, &pooled.slices),
        slices,
    );
    report.push(
        "latency_p50_us",
        stats::typical(&slice_medians, SLICE_SENSITIVITY),
        paced,
    );
    if pooled.wire_events > 0 {
        report.push(
            "wire_bytes_per_event",
            Some(pooled.wire_bytes as f64 / pooled.wire_events as f64),
            pooled.wire_events as usize,
        );
    }
    report.push("peak_rss_mib", trace::peak_rss_mib(), 1);

    // The same three by the wall clock: whole run, the issue's
    // percentiles over slices, and the best slice.
    report.push(
        "diag.setup_whole_s",
        stats::median(&pooled.setup_wall_s),
        pooled.setup_wall_s.len(),
    );
    let slice_wall_s: Vec<f64> = pooled.slices.iter().map(|s| s.wall).collect();
    let sat_events = pooled.events_per_slice * slices;
    let sat_seconds: f64 = slice_wall_s.iter().sum();
    if sat_seconds > 0.0 {
        report.push(
            "diag.throughput_whole_eps",
            Some(sat_events as f64 / sat_seconds),
            sat_events,
        );
    }
    report.push(
        "diag.throughput_p90_eps",
        stats::quantile(&slice_wall_s, 0.1).map(|s| pooled.events_per_slice as f64 / s),
        slices,
    );
    report.push(
        "diag.throughput_best_eps",
        stats::best_throughput(pooled.events_per_slice, &pooled.slices),
        slices,
    );
    let all_latencies: Vec<f64> = pooled
        .paced
        .iter()
        .flat_map(|(latencies_us, _)| latencies_us)
        .copied()
        .collect();
    let slice_medians: Vec<f64> = slice_medians.iter().map(|s| s.wall).collect();
    report.push(
        "diag.latency_p50_whole_us",
        stats::median(&all_latencies),
        all_latencies.len(),
    );
    report.push(
        "diag.latency_p10_us",
        stats::quantile(&slice_medians, 0.1),
        paced,
    );
    report.push(
        "diag.latency_best_us",
        stats::quantile(&slice_medians, 0.0),
        paced,
    );
    report.push(
        "diag.latency_p99_us",
        stats::quantile(&all_latencies, 0.99),
        all_latencies.len(),
    );
    report.push(
        "diag.pacer_late_p99_us",
        stats::quantile(&pooled.pacer_late_us, 0.99),
        pooled.pacer_late_us.len(),
    );
    report.push("diag.backlog_end", Some(pooled.backlog_end as f64), 1);
    // How busy the neighbours were: the run's median reference unit
    // (the nominal one is `reference::NOMINAL_UNIT_S`).
    report.push(
        "diag.reference_unit_ms",
        stats::median(&pooled.units_s).map(|s| s * 1e3),
        pooled.units_s.len(),
    );
    let attempted = report.attempted.max(1);
    report.push(
        "diag.failed_share",
        Some(report.failed as f64 / attempted as f64),
        attempted as usize,
    );
}

/// An untraced run: [`EPOCHS`] epochs, end-to-end metrics.
pub fn untraced(workload: &dyn Workload, plan: Plan) -> Result<RunReport, Fail> {
    let mut report = RunReport::default();
    let mut reference = Reference::new();
    let mut epochs = Vec::with_capacity(EPOCHS);
    for epoch in 0..EPOCHS {
        epochs.push(run_epoch(workload, plan, epoch, &mut reference, None)?);
    }
    let pooled = pool(&mut report, &epochs);
    summarize(&mut report, &pooled, plan);
    if report.failed == 0 {
        assert_eq!(
            pooled.slices.len(),
            EPOCHS * SLICES,
            "a clean run times every slice"
        );
        assert_eq!(pooled.paced.len(), EPOCHS * plan.paced_slices);
    }
    Ok(report)
}

/// Span names ending in `::publish` are the issuing side, `::recv` is
/// time blocked waiting for the system, `round`/`join` are the
/// harness's own bookkeeping, everything else consumes a result.
fn span_class(name: &str) -> Option<&'static str> {
    if name.ends_with("::publish") {
        Some("span.issue_self_us_per_event")
    } else if name.ends_with("::recv") {
        Some("span.wait_self_us_per_event")
    } else if name == "round" || name == "join" {
        None
    } else {
        Some("span.consume_self_us_per_event")
    }
}

/// A layer metric's value in microseconds.
fn as_us(name: &str, value: f64) -> f64 {
    match report::find(name).map(|m| m.unit) {
        Some("ns") => value / 1e3,
        Some("ms") => value * 1e3,
        _ => value,
    }
}

/// A traced run: one untraced epoch (the reference), one epoch with
/// spans and the counting allocator on, then the isolated probes.
/// `span_file` receives the spans (the head of each thread's record).
pub fn traced(
    workload: &dyn Workload,
    plan: Plan,
    seed: u64,
    scratch_dir: &std::path::Path,
    span_file: &std::path::Path,
) -> Result<RunReport, Fail> {
    let mut report = RunReport::default();
    let mut units = Reference::new();
    let reference = run_epoch(workload, plan, 0, &mut units, None)?;
    // A fraction of the work per slice: spans cost memory (and dozens
    // are recorded per fanned-out event), and what is read off them are
    // per-call means, which need no more.
    let traced = run_epoch(
        workload,
        plan.scaled(1),
        1,
        &mut units,
        Some(Instant::now()),
    )?;

    // The untraced epoch: the end-to-end and wall-clock numbers as an
    // untraced run would report them (from one epoch, not three).
    let pooled = pool(&mut report, std::slice::from_ref(&reference));
    summarize(&mut report, &pooled, plan);
    for metric in &report::END_TO_END {
        if let Some(found) = report.measured.iter_mut().find(|m| m.name == metric.name) {
            found.name = format!("diag.{}", metric.name);
        }
    }
    // The budget below is priced with isolated probes, each the fastest
    // of a few batches by the wall clock; the per-event time it is held
    // against is the same kind of number, the fastest slice's.
    let per_event_us =
        stats::best_throughput(reference.events_per_slice, &reference.slices).map(|eps| 1e6 / eps);
    let gated = |epoch: &EpochOutcome| stats::throughput(epoch.events_per_slice, &epoch.slices);
    if let (Some(untraced), Some(with_spans)) = (gated(&reference), gated(&traced)) {
        report.push(
            "diag.trace_overhead_ratio",
            Some(with_spans / untraced),
            traced.slices.len(),
        );
    }
    report.attempted += traced.attempted;
    report.failed += traced.failed;

    // Counts at the layer boundaries.
    let sat_events = |epoch: &EpochOutcome| (epoch.events_per_slice * epoch.slices.len()).max(1);
    report.push(
        "alloc.per_event",
        Some(traced.sat_allocations as f64 / sat_events(&traced) as f64),
        sat_events(&traced),
    );
    report.push(
        "cpu_us_per_event",
        Some(reference.sat_cpu_s * 1e6 / sat_events(&reference) as f64),
        sat_events(&reference),
    );
    for (name, value) in &traced.counters {
        report.push(name, Some(*value), 1);
    }

    // Spans: self time per class and per function.
    let paced_events: usize = traced
        .paced
        .iter()
        .map(|(latencies, _)| latencies.len())
        .sum();
    let traced_events = (sat_events(&traced) + paced_events) as f64;
    let totals = trace::totals(&traced.tracers);
    for class in [
        "span.issue_self_us_per_event",
        "span.wait_self_us_per_event",
        "span.consume_self_us_per_event",
    ] {
        let self_ns: u64 = totals
            .iter()
            .filter(|t| span_class(t.name) == Some(class))
            .map(|t| t.self_ns)
            .sum();
        report.push(
            class,
            Some(self_ns as f64 / 1e3 / traced_events),
            traced_events as usize,
        );
    }
    for total in &totals {
        let name = format!("span.{}.self_ns", total.name);
        report.push(
            &name,
            Some(total.self_ns as f64 / total.calls.max(1) as f64),
            total.calls as usize,
        );
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(span_file)?);
    let spans = trace::write_spans(&traced.tracers, &mut file)?;
    std::io::Write::flush(&mut file)?;
    report.push("diag.spans_recorded", Some(spans as f64), spans);

    // Isolated probes, and the budget they make for this workload.
    let probes = probes::run(seed, scratch_dir)?;
    report.measured.extend(probes);
    if let Some(per_event_us) = per_event_us {
        let layers_us: f64 = workload
            .budget()
            .iter()
            .map(|(name, calls)| calls * report.get(name).map_or(0.0, |value| as_us(name, value)))
            .sum();
        report.push("layers_us_per_event", Some(layers_us), 1);
        report.push("residual_us_per_event", Some(per_event_us - layers_us), 1);
    }
    Ok(report)
}
