//! Fixtures and the counting allocator behind the allocation and RSS
//! gates in `tests/`: the paper's Structure B (schema, a matching
//! dynamic record and its derived twin), a pure-scalar conversion
//! workload, and a generated schema-set document that can be streamed
//! without ever existing in memory.
//!
//! How fast the system is, is `benchmark/`'s question; the paper's
//! tables are `examples/repro_report.rs`'s. This crate holds the
//! structural budgets both rest on (see DESIGN.md §5).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use clayout::{CType, Primitive, Record, StructField, StructType, Value};

/// Counts every allocation (alloc/alloc_zeroed/realloc) of the process
/// and delegates to the system allocator. Deallocations are free and
/// uncounted. A test installs it with its own `#[global_allocator]`
/// static and reads the count with [`allocations`] (every thread) or
/// [`thread_allocations`] (the calling thread only).
pub struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reaching it from
    // inside the allocator never allocates or registers anything.
    static THREAD_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations counted so far by an installed [`CountingAllocator`].
pub fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Allocations the calling thread has made so far under an installed
/// [`CountingAllocator`] — what a single-threaded claim counts, immune
/// to the test harness's and other threads' allocations.
pub fn thread_allocations() -> usize {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Structure B (paper Fig. 7/9): static + dynamic arrays — 52 bytes on
/// sparc32.
pub const SCHEMA_B: &str = backbone::airline::ASD_SCHEMA;

/// A record matching Structure B.
pub fn record_b() -> Record {
    Record::new()
        .with("cntrID", "ZTL")
        .with("arln", "DL")
        .with("fltNum", 1202i64)
        .with("equip", "B752")
        .with("org", "ATL")
        .with("dest", "BOS")
        .with("off", vec![10u64, 20, 30, 40, 50])
        .with("eta", vec![100u64, 200, 300])
}

/// Structure B as a compile-time typed binding: the derived twin of
/// `SCHEMA_B`'s dynamically-bound `ASDOffEvent`.
#[derive(Debug, Clone, PartialEq, xml2wire::Xml2WireRecord)]
#[allow(missing_docs)]
pub struct ASDOffEvent {
    #[x2w(name = "cntrID")]
    pub cntr_id: String,
    pub arln: String,
    #[x2w(name = "fltNum")]
    pub flt_num: i32,
    pub equip: String,
    pub org: String,
    pub dest: String,
    pub off: [u64; 5],
    pub eta: Vec<u64>,
}

/// The typed twin of [`record_b`]: same field values.
pub fn typed_b() -> ASDOffEvent {
    ASDOffEvent {
        cntr_id: "ZTL".to_owned(),
        arln: "DL".to_owned(),
        flt_num: 1202,
        equip: "B752".to_owned(),
        org: "ATL".to_owned(),
        dest: "BOS".to_owned(),
        off: [10, 20, 30, 40, 50],
        eta: vec![100, 200, 300],
    }
}

/// A pure-scalar telemetry workload: no pointer-bearing fields, so
/// same-size/opposite-endianness pairs (x86-64 <-> POWER64) land on the
/// PureSwap conversion tier.
pub fn swap_workload() -> (StructType, Record) {
    let st = StructType::new(
        "Telemetry",
        vec![
            StructField::new("seq", CType::Prim(Primitive::ULongLong)),
            StructField::new("ts", CType::Prim(Primitive::ULongLong)),
            StructField::new("temp", CType::Prim(Primitive::Double)),
            StructField::new("lat", CType::Prim(Primitive::Double)),
            StructField::new("lon", CType::Prim(Primitive::Double)),
            StructField::new("flags", CType::Prim(Primitive::UInt)),
            StructField::new("mode", CType::Prim(Primitive::UInt)),
            StructField::new(
                "samples",
                CType::fixed_array(CType::Prim(Primitive::Double), 32),
            ),
            StructField::new(
                "counters",
                CType::fixed_array(CType::Prim(Primitive::ULongLong), 16),
            ),
        ],
    );
    let record = Record::new()
        .with("seq", 7_654_321u64)
        .with("ts", 1_748_710_800u64)
        .with("temp", 21.5f64)
        .with("lat", 33.6367f64)
        .with("lon", -84.4281f64)
        .with("flags", 0x5Au64)
        .with("mode", 3u64)
        .with(
            "samples",
            (0..32).map(|i| Value::Float(f64::from(i) * 0.25 - 3.0)).collect::<Vec<_>>(),
        )
        .with(
            "counters",
            (0..16).map(|i| Value::UInt(1 << i)).collect::<Vec<_>>(),
        );
    (st, record)
}

/// Incremental generator for a large schema-*set* document: `types`
/// complex types of `fields` elements each, produced as an
/// [`std::io::Read`] stream one line at a time so arbitrarily large
/// documents never exist in memory — the fixture for the
/// bounded-memory streaming-ingest gate (`tests/rss_streaming.rs`).
///
/// The byte stream is exactly what [`generated_schema_set`] returns,
/// so in-memory readers and the streaming reader can be compared on
/// identical input.
pub struct SchemaSetSource {
    types: usize,
    fields: usize,
    state: SchemaSetState,
    pending: Vec<u8>,
    cursor: usize,
}

enum SchemaSetState {
    Preamble,
    TypeOpen(usize),
    Field(usize, usize),
    Done,
}

impl SchemaSetSource {
    /// A source producing `types` complex types of `fields` fields each.
    pub fn new(types: usize, fields: usize) -> Self {
        SchemaSetSource {
            types,
            fields,
            state: SchemaSetState::Preamble,
            pending: Vec::new(),
            cursor: 0,
        }
    }

    fn next_chunk(&mut self) -> Option<String> {
        match self.state {
            SchemaSetState::Preamble => {
                self.state = SchemaSetState::TypeOpen(0);
                Some(
                    "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\">\n"
                        .to_owned(),
                )
            }
            SchemaSetState::TypeOpen(t) if t == self.types => {
                self.state = SchemaSetState::Done;
                Some("</xsd:schema>\n".to_owned())
            }
            SchemaSetState::TypeOpen(t) => {
                self.state = SchemaSetState::Field(t, 0);
                Some(format!("  <xsd:complexType name=\"T{t}\">\n"))
            }
            SchemaSetState::Field(t, f) if f == self.fields => {
                self.state = SchemaSetState::TypeOpen(t + 1);
                Some("  </xsd:complexType>\n".to_owned())
            }
            SchemaSetState::Field(t, f) => {
                self.state = SchemaSetState::Field(t, f + 1);
                let ty = match f % 4 {
                    0 => "xsd:string",
                    1 => "xsd:integer",
                    2 => "xsd:double",
                    _ => "xsd:unsigned-long",
                };
                Some(format!("    <xsd:element name=\"f{f}\" type=\"{ty}\"/>\n"))
            }
            SchemaSetState::Done => None,
        }
    }
}

impl std::io::Read for SchemaSetSource {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.cursor < self.pending.len() {
                let n = (self.pending.len() - self.cursor).min(buf.len());
                buf[..n].copy_from_slice(&self.pending[self.cursor..self.cursor + n]);
                self.cursor += n;
                return Ok(n);
            }
            match self.next_chunk() {
                Some(chunk) => {
                    self.pending = chunk.into_bytes();
                    self.cursor = 0;
                }
                None => return Ok(0),
            }
        }
    }
}

/// Materializes the full schema-set document [`SchemaSetSource`]
/// streams, for in-memory readers and byte-level comparisons.
pub fn generated_schema_set(types: usize, fields: usize) -> String {
    use std::io::Read;
    let mut doc = String::new();
    SchemaSetSource::new(types, fields)
        .read_to_string(&mut doc)
        .expect("schema-set generator is valid UTF-8");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_set_source_streams_the_materialized_document() {
        use std::io::Read;
        // Byte identity between the incremental source and the
        // materialized string, across awkward read sizes.
        let doc = generated_schema_set(7, 5);
        for cap in [1usize, 3, 64, 8192] {
            let mut src = SchemaSetSource::new(7, 5);
            let mut buf = vec![0u8; cap];
            let mut streamed = Vec::new();
            loop {
                let n = src.read(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                streamed.extend_from_slice(&buf[..n]);
            }
            assert_eq!(streamed, doc.as_bytes());
        }
        // And the streamed bytes compile as a schema set.
        let schema = xsdlite::Schema::parse_stream(SchemaSetSource::new(7, 5)).unwrap();
        assert_eq!(schema.complex_types.len(), 7);
    }
}
