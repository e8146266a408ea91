//! Bounded-memory streaming ingest: an ≥ 8 MiB schema-set document
//! flows from its generator through `StreamingReader` without ever
//! being materialised, and the parse must not raise the process's peak
//! resident set (VmHWM) by more than 2 MiB — the reader holds a window,
//! not the document.
//!
//! One `#[test]` in its own binary, so the peak is attributable to the
//! streaming parse alone.

use std::io::Read;

use omf_bench::SchemaSetSource;
use xmlparse::{Event, StreamingReader};

/// Peak resident set (VmHWM) in KiB from `/proc/self/status`.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
        .expect("a VmHWM line")
}

/// Counts the bytes a source produced, to prove the streamed document
/// really was ≥ 8 MiB.
struct CountingRead<R> {
    inner: R,
    bytes: u64,
}

impl<R: Read> Read for CountingRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

#[test]
fn an_8_mib_schema_set_streams_within_2_mib_of_peak_rss() {
    let before = vm_hwm_kb();
    let mut source = CountingRead { inner: SchemaSetSource::new(2_400, 80), bytes: 0 };
    let mut reader = StreamingReader::new(&mut source);
    let mut events = 0u64;
    while reader.next_event().expect("generated schema set is well-formed") != Event::Eof {
        events += 1;
    }
    let delta_kb = vm_hwm_kb().saturating_sub(before);

    println!("streamed {} bytes, {events} events, peak-RSS delta {delta_kb} KiB", source.bytes);
    assert!(source.bytes >= 8 * 1024 * 1024, "corpus only {} bytes", source.bytes);
    assert!(events > 0, "streaming produced no events");
    assert!(delta_kb <= 2 * 1024, "streaming raised peak RSS by {delta_kb} KiB");
}
