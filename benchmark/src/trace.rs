//! The from-outside trace: spans around the harness's own calls into
//! the layers, a counting allocator, and process counters.
//!
//! Nothing here touches a layer's source. A span brackets one call the
//! harness makes into a public function; spans nest (a round holds its
//! publishes, waits and decodes), and a span's *self* time is its
//! duration minus the time its children cover. Spans stay in memory
//! and are written out once, when the traced run ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// Counts heap allocations while [`count_allocations`] is on. Untraced
/// runs pay one relaxed load per allocation and count nothing.
pub struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; `ptr` came from `System` above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off (process-wide, all threads).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Process counters
// ---------------------------------------------------------------------------

/// CPU seconds this process has used, all threads, from
/// `CLOCK_PROCESS_CPUTIME_ID` (`/proc/self/stat` counts in 10 ms ticks,
/// too coarse for a 15 ms slice); `None` where there is no such clock.
pub fn cpu_seconds() -> Option<f64> {
    cpu_clock::read()
}

#[cfg(target_os = "linux")]
mod cpu_clock {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    #[cfg(target_pointer_width = "64")]
    pub fn read() -> Option<f64> {
        let mut time = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `time` is a live, writable `timespec` of the layout
        // 64-bit Linux uses, and the clock id is a constant the kernel
        // defines.
        (unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) } == 0)
            .then(|| time.tv_sec as f64 + time.tv_nsec as f64 / 1e9)
    }

    #[cfg(not(target_pointer_width = "64"))]
    pub fn read() -> Option<f64> {
        None
    }
}

#[cfg(not(target_os = "linux"))]
mod cpu_clock {
    pub fn read() -> Option<f64> {
        None
    }
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// Index of the enclosing span in the same tracer, if any.
    parent: Option<u32>,
    /// The event (or round, or join) the call served.
    event: u64,
    start_ns: u64,
    end_ns: u64,
    /// Time covered by direct children.
    children_ns: u64,
}

/// An open span; closing it needs the tracer back (see [`Tracer::exit`]).
#[derive(Debug, Clone, Copy)]
#[must_use = "a span records nothing until it is closed with Tracer::exit"]
pub struct Open(Option<u32>);

/// A per-thread span recorder. Disabled tracers record nothing and
/// cost one branch per call, so the same workload code serves traced
/// and untraced runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    thread: &'static str,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), "")
    }

    /// A tracer stamping relative to `origin` (share one origin across
    /// the threads of a run so their spans line up).
    pub fn new(enabled: bool, origin: Instant, thread: &'static str) -> Tracer {
        Tracer {
            enabled,
            origin,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named after the public function about to be called.
    #[inline]
    pub fn enter(&mut self, name: &'static str, event: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            event,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            children_ns: 0,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open`. Spans close in the reverse of the order they
    /// opened.
    #[inline]
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(index), "spans must close innermost first");
        let span = &mut self.spans[index as usize];
        span.end_ns = now;
        let duration = now - span.start_ns;
        if let Some(parent) = span.parent {
            self.spans[parent as usize].children_ns += duration;
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, event: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, event);
        let out = f();
        self.exit(open);
        out
    }
}

/// Per-name totals over a set of tracers.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotal {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Totals per span name, in first-seen order.
pub fn totals(tracers: &[Tracer]) -> Vec<SpanTotal> {
    let mut out: Vec<SpanTotal> = Vec::new();
    for span in tracers.iter().flat_map(|t| &t.spans) {
        let duration = span.end_ns.saturating_sub(span.start_ns);
        let entry = match out.iter_mut().find(|t| t.name == span.name) {
            Some(entry) => entry,
            None => {
                out.push(SpanTotal {
                    name: span.name,
                    calls: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        entry.calls += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(span.children_ns);
    }
    out
}

/// Most spans written per thread; a fan-out workload records dozens
/// per event, and the head of each thread's record shows the pattern.
pub const SPANS_WRITTEN_PER_THREAD: usize = 250_000;

/// Writes spans as CSV lines
/// (`thread,index,parent,name,event,start_ns,end_ns`), the first
/// [`SPANS_WRITTEN_PER_THREAD`] of each thread; returns the number
/// recorded (not written).
pub fn write_spans(tracers: &[Tracer], out: &mut impl Write) -> std::io::Result<usize> {
    writeln!(out, "thread,index,parent,name,event,start_ns,end_ns")?;
    let mut recorded = 0;
    for tracer in tracers {
        recorded += tracer.spans.len();
        for (index, span) in tracer
            .spans
            .iter()
            .enumerate()
            .take(SPANS_WRITTEN_PER_THREAD)
        {
            let parent = span.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{},{index},{parent},{},{},{},{}",
                tracer.thread, span.name, span.event, span.start_ns, span.end_ns
            )?;
        }
    }
    Ok(recorded)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tracer = Tracer::new(true, Instant::now(), "t");
        let round = tracer.enter("round", 0);
        for event in 0..3 {
            tracer.span("publish", event, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        }
        tracer.exit(round);
        let totals = totals(&[tracer]);
        let round = totals.iter().find(|t| t.name == "round").unwrap();
        let publish = totals.iter().find(|t| t.name == "publish").unwrap();
        assert_eq!((round.calls, publish.calls), (1, 3));
        assert_eq!(publish.self_ns, publish.total_ns);
        assert_eq!(round.self_ns, round.total_ns - publish.total_ns);
        assert!(
            round.self_ns < 1_000_000,
            "round did nothing itself: {}",
            round.self_ns
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        assert_eq!(tracer.span("x", 1, || 7), 7);
        assert!(totals(&[tracer]).is_empty());
    }

    #[test]
    fn spans_are_written_one_per_line_with_their_parent() {
        let mut tracer = Tracer::new(true, Instant::now(), "gen");
        let outer = tracer.enter("outer", 9);
        tracer.span("inner", 9, || ());
        tracer.exit(outer);
        let mut buf = Vec::new();
        assert_eq!(write_spans(&[tracer], &mut buf).unwrap(), 2);
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].starts_with("gen,0,,outer,9,"));
        assert!(lines[2].starts_with("gen,1,0,inner,9,"));
    }

    #[test]
    fn process_counters_read() {
        assert!(cpu_seconds().is_some());
        assert!(peak_rss_mib().unwrap() > 0.5);
    }
}
