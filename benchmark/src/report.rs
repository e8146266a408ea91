//! Metric definitions and the one record shape.
//!
//! Every line the benchmark prints or writes about a measurement is one
//! JSON object with the same keys — `bench`, `workload`, `metric`,
//! `value`, `unit`, `direction`, `bound`, `samples`, `nproc`, `commit`,
//! `rustc`, `date`, `seed`, `loopback` — so numbers from different
//! sites and dates can be laid side by side (the schema ROADMAP item 1
//! asks `omf_bench::record` to adopt). The last line of a run is the
//! summary object the driver's contract asks for.

use std::fmt::Write as _;

pub const BENCH: &str = "omf-benchmark";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's definition. `bound` is the share of the parent's median
/// by which a gated metric may worsen; ungated metrics have none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics, the same on every workload. Failures are
/// reported the way the driver's contract asks — `attempted` and
/// `failed` on the summary line — because a metric that reads 0 on
/// every good run cannot carry a relative bound; `failed_share` is
/// still printed as a record.
pub const END_TO_END: [Metric; 5] = [
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("throughput_eps", "1/s", Better::Higher, 0.15),
    gated("latency_p50_us", "us", Better::Lower, 0.25),
    gated("wire_bytes_per_event", "B", Better::Lower, 0.005),
    gated("peak_rss_mib", "MiB", Better::Lower, 0.1),
];

use Better::{Higher, Lower};

/// The per-layer metrics of a traced run; module names are the layer
/// names. Timings are isolated probes of public functions over the
/// seed's inputs; counts come from the system's own `*Stats` and read
/// 0 on a workload that does not run the layer.
pub const PER_LAYER: [Metric; 63] = [
    layer("xmlparse.tokenize_mib_s", "MiB/s", Higher),
    layer("xmlparse.stream_mib_s", "MiB/s", Higher),
    layer("xsdlite.parse_us_per_type", "us", Lower),
    layer("clayout.layout_us_per_type", "us", Lower),
    layer("core.http_get_us", "us", Lower),
    layer("core.discover_us", "us", Lower),
    layer("core.register_us_per_type", "us", Lower),
    layer("core.schema_cache_hit_ratio", "ratio", Higher),
    layer("pbio.encode_dyn_ns", "ns", Lower),
    layer("x2w-derive.encode_ns", "ns", Lower),
    layer("pbio.plan_build_us", "us", Lower),
    layer("pbio.plan_cache_hit_ns", "ns", Lower),
    layer("pbio.plan_cache_hit_ratio", "ratio", Higher),
    layer("pbio.convert_identity_ns", "ns", Lower),
    layer("pbio.convert_pureswap_ns", "ns", Lower),
    layer("pbio.convert_general_ns", "ns", Lower),
    layer("pbio.view_ns", "ns", Lower),
    layer("pbio.decode_record_ns", "ns", Lower),
    layer("x2w-derive.decode_view_ns", "ns", Lower),
    layer("backbone.stream.capture_publish_ns", "ns", Lower),
    layer("backbone.typed.publish_ns", "ns", Lower),
    layer("backbone.broker.publish_ns", "ns", Lower),
    layer("backbone.broker.handoff_us", "us", Lower),
    layer("backbone.broker.subscribe_us", "us", Lower),
    layer("backbone.filter.compile_us", "us", Lower),
    layer("backbone.filter.eval_ns", "ns", Lower),
    layer("backbone.filter.evals_per_event", "count", Lower),
    layer("backbone.filter.cache_hit_ratio", "ratio", Higher),
    layer("backbone.net.frame_write_ns", "ns", Lower),
    layer("backbone.net.frame_read_ns", "ns", Lower),
    layer("backbone.net.frames_per_writev", "count", Higher),
    layer("backbone.net.partial_writes", "count", Lower),
    layer("backbone.net.pushes_dropped", "count", Lower),
    layer("backbone.federation.us_per_event", "us", Lower),
    layer("backbone.federation.duplicates_dropped", "count", Lower),
    layer("backbone.federation.reconnects", "count", Lower),
    layer("core.seglog.append_ns", "ns", Lower),
    layer("core.seglog.replay_ns", "ns", Lower),
    layer("core.seglog.open_ms", "ms", Lower),
    layer("alloc.per_event", "count", Lower),
    layer("cpu_us_per_event", "us", Lower),
    layer("layers_us_per_event", "us", Lower),
    layer("residual_us_per_event", "us", Lower),
    layer("span.issue_self_us_per_event", "us", Lower),
    layer("span.wait_self_us_per_event", "us", Lower),
    layer("span.consume_self_us_per_event", "us", Lower),
    layer("diag.setup_whole_s", "s", Lower),
    layer("diag.throughput_whole_eps", "1/s", Higher),
    layer("diag.throughput_p90_eps", "1/s", Higher),
    layer("diag.throughput_best_eps", "1/s", Higher),
    layer("diag.latency_p50_whole_us", "us", Lower),
    layer("diag.latency_p10_us", "us", Lower),
    layer("diag.latency_best_us", "us", Lower),
    layer("diag.latency_p99_us", "us", Lower),
    layer("diag.reference_unit_ms", "ms", Lower),
    layer("diag.net_rtt_p50_us", "us", Lower),
    layer("diag.pacer_late_p99_us", "us", Lower),
    layer("diag.backlog_end", "count", Lower),
    layer("diag.trace_overhead_ratio", "ratio", Higher),
    layer("diag.failed_share", "ratio", Lower),
    layer("diag.throughput_eps", "1/s", Higher),
    layer("diag.latency_p50_us", "us", Lower),
    layer("diag.spans_recorded", "count", Higher),
];

/// The definition of `name`. A traced run reports its untraced epoch's
/// end-to-end numbers under `diag.<name>`: same unit and direction, no
/// bound.
pub fn find(name: &str) -> Option<Metric> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .copied()
        .find(|m| m.name == name)
        .or_else(|| {
            let plain = name.strip_prefix("diag.")?;
            END_TO_END
                .iter()
                .find(|m| m.name == plain)
                .map(|m| Metric { bound: None, ..*m })
        })
}

/// One measured value: a metric name, what was measured, and from how
/// many samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub samples: u64,
}

impl Measured {
    pub fn new(name: impl Into<String>, value: f64, samples: u64) -> Measured {
        Measured {
            name: name.into(),
            value,
            samples,
        }
    }
}

/// Where and when a record was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub nproc: usize,
    pub commit: String,
    pub rustc: &'static str,
    pub date: String,
}

impl Provenance {
    /// `nproc` is the box's core count, taken before the process
    /// confined itself to one.
    pub fn here(nproc: usize) -> Provenance {
        Provenance {
            nproc,
            commit: commit(),
            rustc: env!("OMF_BENCH_RUSTC"),
            date: utc_date(),
        }
    }
}

/// The checked-out commit, read from `.git` without running git; the
/// driver's checkout is not a repository, and reads "unknown".
fn commit() -> String {
    if let Ok(commit) = std::env::var("OMF_BENCH_COMMIT") {
        return commit;
    }
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_owned())
    };
    let head = ["", "../"].iter().find_map(|up| {
        let git = format!("{up}.git");
        let head = read(&format!("{git}/HEAD"))?;
        match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!("{git}/{reference}")),
            None => Some(head),
        }
    });
    head.map_or_else(|| "unknown".to_owned(), |h| h.chars().take(12).collect())
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, Gregorian).
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// A JSON number: every digit the measurement has, never NaN or
/// infinity (those read as `null`).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One record line. Metrics outside the tables (span self times) print
/// with the unit and direction given by `fallback`.
pub fn record_line(
    provenance: &Provenance,
    workload: &str,
    seed: u64,
    measured: &Measured,
    fallback: (&str, Better),
) -> String {
    let (unit, better, bound) = match find(&measured.name) {
        Some(metric) => (metric.unit, metric.better, metric.bound),
        None => (fallback.0, fallback.1, None),
    };
    format!(
        "{{\"bench\":{},\"workload\":{},\"metric\":{},\"value\":{},\"unit\":{},\"direction\":{},\"bound\":{},\
         \"samples\":{},\"nproc\":{},\"commit\":{},\"rustc\":{},\"date\":{},\"seed\":{},\"loopback\":true}}",
        json_string(BENCH),
        json_string(workload),
        json_string(&measured.name),
        json_number(measured.value),
        json_string(unit),
        json_string(better.as_str()),
        bound.map_or_else(|| "null".to_owned(), json_number),
        measured.samples,
        provenance.nproc,
        json_string(&provenance.commit),
        json_string(provenance.rustc),
        json_string(&provenance.date),
        seed,
    )
}

/// The summary object the driver reads from the last line of stdout:
/// exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn summary_line(
    attempted: u64,
    failed: u64,
    table: &[Metric],
    measured: &[Measured],
) -> String {
    let mut metrics = String::new();
    for metric in table {
        let value = measured
            .iter()
            .find(|m| m.name == metric.name)
            .map_or(0.0, |m| m.value);
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(metric.name),
            json_number(value),
            json_string(metric.unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
            assert!(metric.name.len() <= 64 && metric.unit.len() <= 16);
            assert!(metric.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(metric
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(metric
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(metric.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(find("setup_s").unwrap().bound, Some(largest));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables the program prints from.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str, next: &str| {
            let from = text
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("no {key}"));
            let to = text[from..]
                .find(&format!("\"{next}\""))
                .map_or(text.len(), |i| from + i);
            &text[from..to]
        };
        let entries = |section: &str, table: &[Metric]| {
            assert_eq!(section.matches("\"name\"").count(), table.len());
            for metric in table {
                let bound = metric
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                let entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    metric.name,
                    metric.unit,
                    metric.better.as_str()
                );
                assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        };
        entries(section("end_to_end", "per_layer"), &END_TO_END);
        entries(section("per_layer", "\u{0}"), &PER_LAYER);
        let workloads = section("workloads", "end_to_end");
        assert_eq!(
            workloads.matches("\"name\"").count(),
            crate::workloads::NAMES.len()
        );
        for name in crate::workloads::NAMES {
            assert!(
                workloads.contains(&format!("{{\"name\": \"{name}\", \"why\": ")),
                "{name}"
            );
        }
        let seconds = format!("\"run_seconds\": {}", crate::harness::REFERENCE_SECONDS);
        assert!(
            text.contains(&seconds),
            "run_seconds must equal REFERENCE_SECONDS"
        );
    }

    #[test]
    fn record_lines_carry_every_key_and_summary_lines_exactly_four() {
        let provenance = Provenance {
            nproc: 2,
            commit: "abc".into(),
            rustc: "rustc 1.0",
            date: "2026-01-01".into(),
        };
        let line = record_line(
            &provenance,
            "relay_small",
            7,
            &Measured::new("throughput_eps", 123.5, 96),
            ("", Lower),
        );
        for key in [
            "bench",
            "workload",
            "metric",
            "value",
            "unit",
            "direction",
            "bound",
            "samples",
            "nproc",
            "commit",
            "rustc",
            "date",
            "seed",
            "loopback",
        ] {
            assert!(
                line.contains(&format!("\"{key}\":")),
                "{key} missing from {line}"
            );
        }
        assert!(line
            .contains("\"value\":123.5,\"unit\":\"1/s\",\"direction\":\"higher\",\"bound\":0.15,"));
        let summary = summary_line(
            10,
            0,
            &END_TO_END[..1],
            &[Measured::new("setup_s", 0.25, 3)],
        );
        assert_eq!(
            summary,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn dates_are_civil() {
        let date = utc_date();
        assert_eq!(date.len(), 10);
        assert!(date.as_str() >= "2024-01-01");
    }
}
