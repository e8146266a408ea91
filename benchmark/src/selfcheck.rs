//! `selfcheck`: does the benchmark repeat?
//!
//! Runs each workload [`RUNS`] times, twice over, every run a fresh
//! process with its own seed — the procedure the acceptance check
//! applies — and prints, per end-to-end metric, each set's minimum,
//! median, maximum, quartile spread and min–max spread, and how far the
//! second set's median moved from the first's in the metric's bad
//! direction. Fails when, for any metric on any workload — `setup_s`
//! too — a set's quartile spread or the move between the sets exceeds
//! the metric's bound. A min–max spread above the bound is marked
//! `wide` and does not fail the check: about one run in eight of
//! `hetero_local` comes up 10–20 % slow in every epoch at a normal
//! reference unit — a property of that process's address-space layout,
//! not of the box (with ASLR switched off twelve runs in a row agreed
//! within 3 %; it stays on, so that a median over runs samples layouts
//! instead of freezing one) — and a median of ten shrugs that off
//! where a range over ten cannot. The wall-clock companions of the
//! timed metrics ([`WALL_CLOCK`]) are printed the same way, ungated:
//! they are why the gated ones are in reference time.

use std::process::Command;

use crate::report::{self, Better, Metric, END_TO_END};
use crate::stats;

/// Runs per set: the acceptance check's ten (the issue's five make a
/// set's quartiles its extremes).
const RUNS: usize = 10;

/// Ungated values printed beside the gated ones.
const WALL_CLOCK: [&str; 7] = [
    "diag.setup_whole_s",
    "diag.throughput_whole_eps",
    "diag.throughput_p90_eps",
    "diag.throughput_best_eps",
    "diag.latency_p50_whole_us",
    "diag.latency_p10_us",
    "diag.reference_unit_ms",
];

/// The value of `metric` on a run's summary line.
fn summary_value(line: &str, metric: &str) -> Option<f64> {
    let key = format!("\"{metric}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// The value of `metric` among a run's record lines.
fn record_value(stdout: &str, metric: &str) -> Option<f64> {
    let key = format!("\"metric\":\"{metric}\",\"value\":");
    let rest = &stdout[stdout.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// The metrics a selfcheck follows: the gated ones, then the ungated.
fn followed() -> Vec<Metric> {
    let wall_clock = WALL_CLOCK
        .iter()
        .map(|name| report::find(name).expect("listed in PER_LAYER"));
    END_TO_END.iter().copied().chain(wall_clock).collect()
}

/// One run in a child process; its values in [`followed`] order.
fn one_run(workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() || !last.contains("\"correct\": true") {
        return Err(format!(
            "{workload} seed {seed} failed: {last} {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    followed()
        .iter()
        .map(|m| {
            match m.bound {
                Some(_) => summary_value(last, m.name),
                None => record_value(&stdout, m.name),
            }
            .ok_or_else(|| format!("{workload}: no {} in the run's output", m.name))
        })
        .collect()
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(metric: &Metric, first: f64, second: f64) -> f64 {
    match metric.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Returns whether every workload passed.
pub fn run(workloads: &[&str]) -> Result<bool, String> {
    let metrics = followed();
    let mut all_ok = true;
    println!(
        "| workload | metric | set | min | median | max | quartile spread | min–max spread | second set worse by | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for workload in workloads {
        // sets[s][m]: metric m's values over the runs of set s.
        let mut sets = vec![vec![Vec::with_capacity(RUNS); metrics.len()]; 2];
        for (s, set) in sets.iter_mut().enumerate() {
            for r in 0..RUNS {
                let seed = (s * RUNS + r + 1) as u64;
                for (m, value) in one_run(workload, seed)?.into_iter().enumerate() {
                    set[m].push(value);
                }
            }
        }
        for (m, metric) in metrics.iter().enumerate() {
            let medians: Vec<f64> = sets
                .iter()
                .map(|set| stats::median(&set[m]).unwrap_or(f64::NAN))
                .collect();
            let moved = worsening(metric, medians[0], medians[1]);
            for (s, set) in sets.iter().enumerate() {
                let values = &set[m];
                let quartiles = stats::quartile_spread(values).unwrap_or(0.0);
                let extremes = stats::min_max_spread(values).unwrap_or(0.0);
                let (bound, verdict) = match metric.bound {
                    Some(bound) => {
                        let ok = quartiles <= bound && (s == 0 || moved <= bound);
                        all_ok &= ok;
                        let verdict = match (ok, extremes <= bound) {
                            (false, _) => "FAIL",
                            (true, false) => "ok (wide)",
                            (true, true) => "ok",
                        };
                        (format!("{:.1} %", bound * 100.0), verdict)
                    }
                    None => (String::new(), "not gated"),
                };
                println!(
                    "| {workload} | {} ({}) | {} | {:.4} | {:.4} | {:.4} | {:.2} % | {:.2} % | {} | {bound} | {verdict} |",
                    metric.name,
                    metric.unit,
                    s + 1,
                    stats::quantile(values, 0.0).unwrap_or(f64::NAN),
                    medians[s],
                    stats::quantile(values, 1.0).unwrap_or(f64::NAN),
                    quartiles * 100.0,
                    extremes * 100.0,
                    if s == 0 {
                        String::new()
                    } else {
                        format!("{:+.2} %", moved * 100.0)
                    },
                );
            }
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_and_record_values_parse() {
        let measured = [
            crate::report::Measured::new("setup_s", 0.25, 3),
            crate::report::Measured::new("throughput_eps", 1.5e5, 9),
        ];
        let line = crate::report::summary_line(5, 0, &END_TO_END[..2], &measured);
        assert_eq!(summary_value(&line, "setup_s"), Some(0.25));
        assert_eq!(summary_value(&line, "throughput_eps"), Some(150_000.0));
        assert_eq!(summary_value(&line, "latency_p50_us"), None);

        let provenance = crate::report::Provenance::here(2);
        let record = crate::report::record_line(
            &provenance,
            "relay_small",
            1,
            &crate::report::Measured::new("diag.setup_whole_s", 0.31, 3),
            ("", Better::Lower),
        );
        assert_eq!(record_value(&record, "diag.setup_whole_s"), Some(0.31));
        assert_eq!(record_value(&record, "setup_s"), None);
    }

    #[test]
    fn every_followed_metric_is_defined() {
        assert_eq!(followed().len(), END_TO_END.len() + WALL_CLOCK.len());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = END_TO_END
            .iter()
            .find(|m| m.name == "latency_p50_us")
            .unwrap();
        let higher = END_TO_END
            .iter()
            .find(|m| m.name == "throughput_eps")
            .unwrap();
        assert!((worsening(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
    }
}
