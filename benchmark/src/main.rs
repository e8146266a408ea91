//! The repo's benchmark. See `benchmark/README.md`.

mod gen;
mod harness;
mod pacer;
mod pin;
mod probes;
mod reference;
mod report;
mod run;
mod selfcheck;
mod stats;
mod trace;
mod workloads;

#[global_allocator]
static ALLOCATOR: trace::CountingAllocator = trace::CountingAllocator;

use report::{Better, Provenance};

const USAGE: &str = "usage:
  omf-benchmark run --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--quick]
  omf-benchmark selfcheck [--workload <name>]
workloads: relay_small hetero_local fanout_filtered durable_replay late_join";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: gen::REFERENCE_SEED,
        seconds: harness::REFERENCE_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => out.workload = Some(value("a name")?),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&out.seconds) {
                    return Err("--seconds must be 1..=60".to_owned());
                }
            }
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// A scratch directory next to the executable — inside the build
/// directory, so inside the checkout — removed when the run ends.
struct WorkDir(std::path::PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(std::path::Path::new("."));
        let dir = base.join(format!("omf-benchmark-work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<bool, String> {
    // The box's core count, for the record, before this process gives
    // all but one of them up; then confinement, before any thread
    // exists, so every later thread inherits it.
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if pin::confine_to_one_core().is_none() {
        eprintln!("omf-benchmark: could not confine the process to one core; timings will wander");
    }
    // Detached on purpose: it must fire exactly when the main thread
    // can no longer be relied on to join it.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("omf-benchmark: no result after {WATCHDOG:?}; the system under test hung");
        std::process::exit(3);
    });
    let name = args.workload.as_deref().ok_or("run needs --workload")?;
    let work = WorkDir::create().map_err(|e| format!("work directory: {e}"))?;
    let workload = workloads::build(name, args.seed, args.quick, &work.0)
        .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    let plan = if args.quick {
        workload.plan().quick()
    } else {
        workload.plan().scaled(args.seconds)
    };
    let started = std::time::Instant::now();
    let report = if args.trace {
        // Spans outlive the run: they go next to the work directory,
        // not inside it.
        let span_file = work
            .0
            .with_file_name(format!("omf-benchmark-spans-{name}-{}.csv", args.seed));
        run::traced(workload.as_ref(), plan, args.seed, &work.0, &span_file)
    } else {
        run::untraced(workload.as_ref(), plan)
    }
    .map_err(|e| format!("{name}: {}", e.0))?;
    eprintln!(
        "{name}: seed {} wall {:.1}s attempted {} failed {}",
        args.seed,
        started.elapsed().as_secs_f64(),
        report.attempted,
        report.failed
    );

    // `--quick` is a correctness smoke: it prints no timings.
    if args.quick {
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}}}",
            report.failed == 0,
            report.attempted,
            report.failed
        );
        return Ok(report.failed == 0);
    }
    let provenance = Provenance::here(nproc);
    for measured in &report.measured {
        // Only per-function span self times are outside the tables.
        println!(
            "{}",
            report::record_line(
                &provenance,
                name,
                args.seed,
                measured,
                ("ns", Better::Lower)
            )
        );
    }
    let table: &[report::Metric] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    println!(
        "{}",
        report::summary_line(report.attempted, report.failed, table, &report.measured)
    );
    Ok(report.failed == 0)
}

/// `selfcheck [--workload <name>]`: run length and run count are the
/// benchmark's, not the caller's.
fn selfcheck(args: &[String]) -> Result<bool, String> {
    let names: Vec<&str> = match args {
        [] => workloads::NAMES.to_vec(),
        [flag, name] if flag == "--workload" && workloads::NAMES.contains(&name.as_str()) => {
            vec![name.as_str()]
        }
        _ => return Err(USAGE.to_owned()),
    };
    selfcheck::run(&names)
}

/// A hang in the system under test must not outlive the driver's
/// patience: past this the process reports it and exits.
const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(150);

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => parse(rest).and_then(|args| run(&args)),
        Some((command, rest)) if command == "selfcheck" => selfcheck(rest),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => std::process::ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            std::process::ExitCode::from(2)
        }
    }
}
