//! **E-xml**: raw XML tokenization throughput of the byte/SWAR
//! [`xmlparse::Reader`], measured through three API tiers (borrowed
//! events, owned events, DOM) plus the consumers that ride on it
//! (interned DOM, `pbio::textxml` decode). The `char`-at-a-time
//! tokenizer it replaced is a test oracle now
//! (`xmlparse/tests/classic_oracle`); the last before/after comparison
//! (3.8–6.1×) is recorded in EXPERIMENTS.md E-xml.
//!
//! Writes `BENCH_xml.json` at the repository root with the measured
//! numbers (skipped in `--test` smoke mode).

use std::hint::black_box;
use std::time::{Duration, Instant};

use clayout::Architecture;
use omf_bench::{
    bind, fmt_ns, generated_schema, generated_schema_set, record_cd, SchemaSetSource, SCHEMA_A,
    SCHEMA_B, SCHEMA_CD,
};
use xmlparse::{Atoms, BorrowedEvent, Document, Event, Reader, StreamingReader};

/// Measures `f` repeatedly and returns ns/iteration. In smoke mode runs
/// the routine exactly once (correctness only).
fn time<O>(smoke: bool, mut f: impl FnMut() -> O) -> f64 {
    if smoke {
        black_box(f());
        return 0.0;
    }
    // Warm up, then size batches to ~50ms and take the best of 5.
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(50) {
            let mut best = elapsed.as_nanos() as f64 / iters as f64;
            for _ in 0..4 {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
            }
            return best;
        }
        iters = iters.saturating_mul(4);
    }
}

fn mib_per_s(bytes: usize, ns_per_iter: f64) -> f64 {
    if ns_per_iter == 0.0 {
        return 0.0;
    }
    bytes as f64 / (1024.0 * 1024.0) / (ns_per_iter / 1e9)
}

/// One corpus document's measurements, all in ns/iteration.
struct Row {
    name: String,
    bytes: usize,
    borrowed: f64,
    owned: f64,
    dom: f64,
}

fn measure(name: &str, doc: &str, smoke: bool) -> Row {
    // Every generation parses to completion; results are consumed via
    // black_box so the work cannot be elided.
    let borrowed = time(smoke, || {
        let mut reader = Reader::new(doc);
        let mut events = 0usize;
        loop {
            match reader.next_borrowed().unwrap() {
                BorrowedEvent::Eof => break,
                ev => {
                    black_box(&ev);
                    events += 1;
                }
            }
        }
        events
    });
    let owned = time(smoke, || Reader::new(doc).collect_events().unwrap());
    let dom = time(smoke, || Document::parse_str(doc).unwrap());
    Row {
        name: name.to_owned(),
        bytes: doc.len(),
        borrowed,
        owned,
        dom,
    }
}

/// Peak resident set (VmHWM) in KiB from `/proc/self/status`, or 0
/// where /proc is unavailable.
fn vm_hwm_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
        .unwrap_or(0)
}

/// FNV-1a over the debug form of one event — a canonical event-stream
/// fingerprint that two readers can compute without both event vectors
/// being alive at once.
fn fnv_event(hash: &mut u64, ev: &Event) {
    for b in format!("{ev:?}").bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Tracks how many bytes a source produced, so the RSS gate can prove
/// the streamed document really was ≥ 8 MiB.
struct CountingRead<R> {
    inner: R,
    bytes: u64,
}

impl<R: std::io::Read> std::io::Read for CountingRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// Streams the generated schema set straight out of the generator —
/// the document never exists in memory — counting events and hashing
/// the event stream, with the VmHWM delta across the run.
fn stream_schema_set(types: usize, fields: usize) -> (u64, u64, u64, u64) {
    let before = vm_hwm_kb();
    let mut source = CountingRead { inner: SchemaSetSource::new(types, fields), bytes: 0 };
    let mut reader = StreamingReader::new(&mut source);
    let mut events = 0u64;
    let mut hash = FNV_OFFSET;
    loop {
        match reader.next_event().expect("generated schema set is well-formed") {
            Event::Eof => break,
            ev => {
                fnv_event(&mut hash, &ev);
                events += 1;
            }
        }
    }
    let bytes = source.bytes;
    let delta = vm_hwm_kb().saturating_sub(before);
    (events, hash, bytes, delta)
}

/// `--rss-smoke`: the CI bounded-memory gate, run in a clean process so
/// the peak-RSS delta is attributable to the streaming parse alone. An
/// ≥ 8 MiB schema document flows from the generator through
/// [`StreamingReader`] without ever being materialized; the parse must
/// not raise the process peak RSS by more than 2 MiB.
fn rss_streaming_smoke() {
    let (events, hash, bytes, delta_kb) = stream_schema_set(2_400, 80);
    println!(
        "rss-smoke: streamed {bytes} bytes, {events} events, fnv {hash:016x}, \
         peak-RSS delta {delta_kb} KiB"
    );
    assert!(bytes >= 8 * 1024 * 1024, "corpus only {bytes} bytes — below the 8 MiB floor");
    assert!(events > 0, "streaming produced no events");
    assert!(
        delta_kb <= 2 * 1024,
        "streaming raised peak RSS by {delta_kb} KiB — over the 2 MiB ceiling"
    );
    println!("rss-smoke: ceiling held");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    if std::env::args().any(|a| a == "--rss-smoke") {
        rss_streaming_smoke();
        return;
    }

    let gen256 = generated_schema(256);
    let record_doc = {
        let format = bind(SCHEMA_CD, 1, Architecture::X86_64);
        pbio::textxml::encode(&record_cd(), format.struct_type()).unwrap()
    };
    let corpus: Vec<(&str, &str)> = vec![
        ("schemaA", SCHEMA_A),
        ("schemaB", SCHEMA_B),
        ("schemaCD", SCHEMA_CD),
        ("gen256", &gen256),
        ("recordCD-doc", &record_doc),
    ];

    println!("e_xml_parse: SWAR/borrowed tokenizer");
    println!(
        "{:<14} {:>7} {:>12} {:>12} {:>12} {:>11}",
        "doc", "bytes", "borrowed", "owned", "dom", "borrowed"
    );
    let mut rows = Vec::new();
    for (name, doc) in &corpus {
        let row = measure(name, doc, smoke);
        println!(
            "{:<14} {:>7} {:>12} {:>12} {:>12} {:>9.1}MiB/s",
            row.name,
            row.bytes,
            fmt_ns(row.borrowed),
            fmt_ns(row.owned),
            fmt_ns(row.dom),
            mib_per_s(row.bytes, row.borrowed),
        );
        rows.push(row);
    }

    // Downstream consumers of the fast path.
    let interned = time(smoke, || {
        let mut atoms = Atoms::new();
        Document::parse_str_interned(&gen256, &mut atoms).unwrap()
    });
    let textxml_decode = {
        let format = bind(SCHEMA_CD, 1, Architecture::X86_64);
        time(smoke, || pbio::textxml::decode(&record_doc, format.struct_type()).unwrap())
    };
    println!();
    println!("dom-interned (gen256):     {}", fmt_ns(interned));
    println!("textxml-decode (recordCD): {}", fmt_ns(textxml_decode));

    // ---- E-index: bounded-memory streaming of a multi-MB schema set ----
    // Smoke mode shrinks the corpus (correctness only); timed runs use
    // the full ≥ 8 MiB document.
    let (set_types, set_fields) = if smoke { (300, 40) } else { (2_400, 80) };

    // Bounded-memory streaming first, before the in-memory corpus and
    // event vectors inflate the process peak: the document flows out of
    // the generator, never materialized.
    let (stream_events_n, stream_fnv, stream_bytes, rss_delta_kb) =
        stream_schema_set(set_types, set_fields);

    let schema_set = generated_schema_set(set_types, set_fields);
    assert_eq!(schema_set.len() as u64, stream_bytes);

    // The in-memory reader on the same document.
    let set_borrowed_ns = time(smoke, || {
        let mut reader = Reader::new(&schema_set);
        let mut events = 0usize;
        loop {
            match reader.next_borrowed().unwrap() {
                BorrowedEvent::Eof => break,
                ev => {
                    black_box(&ev);
                    events += 1;
                }
            }
        }
        events
    });
    // Windowed streaming over in-memory bytes (owned events).
    let set_stream_ns = time(smoke, || {
        let mut reader = StreamingReader::new(schema_set.as_bytes());
        let mut events = 0usize;
        loop {
            match reader.next_event().unwrap() {
                Event::Eof => break,
                ev => {
                    black_box(&ev);
                    events += 1;
                }
            }
        }
        events
    });

    // Fidelity: both readers must produce identical event streams on
    // the same bytes.
    let reader_events = Reader::new(&schema_set).collect_events().unwrap();
    let streaming_events =
        StreamingReader::new(schema_set.as_bytes()).collect_events().unwrap();
    assert_eq!(reader_events, streaming_events, "streaming reader diverged from in-memory reader");
    drop(streaming_events);
    let mut reader_fnv = FNV_OFFSET;
    let mut reader_events_n = 0u64;
    for ev in &reader_events {
        fnv_event(&mut reader_fnv, ev);
        reader_events_n += 1;
    }
    assert_eq!(
        (stream_events_n, stream_fnv),
        (reader_events_n, reader_fnv),
        "generator-fed streaming events diverged from the in-memory reader"
    );
    drop(reader_events);

    println!();
    println!(
        "e_index: schema set {} bytes ({set_types} types x {set_fields} fields), {} events",
        schema_set.len(),
        reader_events_n
    );
    println!(
        "borrowed events: {:>12} {:>9.1} MiB/s",
        fmt_ns(set_borrowed_ns),
        mib_per_s(schema_set.len(), set_borrowed_ns)
    );
    println!(
        "streaming:       {:>12} {:>9.1} MiB/s (peak-RSS delta {rss_delta_kb} KiB from generator)",
        fmt_ns(set_stream_ns),
        mib_per_s(schema_set.len(), set_stream_ns)
    );

    if smoke {
        println!("smoke mode: each routine ran once, no timings recorded");
        return;
    }

    // Acceptance gate for bounded-memory streaming: generator-fed
    // streaming must stay under the 2 MiB peak-RSS ceiling (the
    // clean-process version of this gate runs as `--rss-smoke` in CI).
    assert!(
        rss_delta_kb <= 2 * 1024,
        "streaming raised peak RSS by {rss_delta_kb} KiB — over the 2 MiB ceiling"
    );

    // Machine-readable record at the repo root.
    let mut json = String::from("{\n  \"bench\": \"xml_parse\",\n  \"unit\": \"ns/iter\",\n  \"docs\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"doc\": \"{}\", \"bytes\": {}, \
             \"after_borrowed\": {:.1}, \"after_owned\": {:.1}, \"after_dom\": {:.1}, \
             \"after_borrowed_mib_s\": {:.1}}}{}\n",
            row.name,
            row.bytes,
            row.borrowed,
            row.owned,
            row.dom,
            mib_per_s(row.bytes, row.borrowed),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"consumers\": {{\"dom_interned_gen256\": {interned:.1}, \
         \"textxml_decode_recordCD\": {textxml_decode:.1}}},\n"
    ));
    json.push_str(&format!(
        "  \"index\": {{\"doc_bytes\": {}, \"events\": {reader_events_n}, \
         \"event_stream_fnv\": \"{stream_fnv:016x}\", \
         \"borrowed_events_mib_s\": {:.1}, \"streaming_mib_s\": {:.1}, \
         \"streaming_window_bytes\": {}, \
         \"streaming_peak_rss_delta_kb\": {rss_delta_kb}}}\n}}\n",
        schema_set.len(),
        mib_per_s(schema_set.len(), set_borrowed_ns),
        mib_per_s(schema_set.len(), set_stream_ns),
        xmlparse::DEFAULT_WINDOW,
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_xml.json");
    std::fs::write(path, json).expect("write BENCH_xml.json");
    println!("\nwrote {path}");
}
