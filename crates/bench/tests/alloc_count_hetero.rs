//! Allocation accounting for the whole heterogeneous receive path, and
//! the size pin that keeps its views cheap to hand around.
//!
//! The per-layer pins (`alloc_count.rs`: 0 per encode, 2 per publish;
//! `alloc_count_convert.rs`: 0 per pooled conversion) never added up to
//! what one event costs end to end: between them sat a route that parsed
//! the wire header twice, allocating the format name each time. Here the
//! path the `hetero_local` workload of the repo's benchmark drives is
//! counted as one piece, for a pointer-rich record (Structure B, General
//! tier), a fixed-size one (telemetry, PureSwap tier) and a mostly
//! variable-section one (a note with a dynamic array):
//!
//! foreign-architecture `CapturePoint::publish` → broker →
//! `Xml2Wire::to_native_image_into` (warm pool) → `RecordView::over` →
//! `fields()` with every array iterated
//!
//! 1. costs the publish side's two allocations (the exact-size payload
//!    and its `Arc<Event>`) and **nothing on the consumer side**;
//! 2. `ndr::view_with` on a same-architecture message allocates nothing;
//! 3. `FieldView` fits in 64 bytes — an array view is a payload slice,
//!    an element accessor, a cursor and a count, not a copy of the
//!    sender's `Architecture` and `Layout` — so the per-element moves
//!    the compiled view plan removed cannot come back unnoticed.
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! disturb the counter.

use std::hint::black_box;
use std::sync::Arc;

use backbone::{Broker, CapturePoint};
use clayout::{Architecture, Record, Value};
use omf_bench::{allocations, record_b, CountingAllocator, SCHEMA_B};
use pbio::{FieldView, RecordView};
use xml2wire::Xml2Wire;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const TELEMETRY: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Telemetry">
    <xsd:element name="seq" type="xsd:unsigned-long" />
    <xsd:element name="temp" type="xsd:double" />
    <xsd:element name="flags" type="xsd:unsigned-int" />
    <xsd:element name="samples" type="xsd:double" minOccurs="32" maxOccurs="32" />
    <xsd:element name="counters" type="xsd:unsigned-long" minOccurs="16" maxOccurs="16" />
  </xsd:complexType>
</xsd:schema>"#;

const NOTE: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="GateNote">
    <xsd:element name="serial" type="xsd:unsigned-int" />
    <xsd:element name="gate" type="xsd:string" />
    <xsd:element name="text" type="xsd:string" />
    <xsd:element name="codes" type="xsd:int" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
</xsd:schema>"#;

fn telemetry() -> Record {
    Record::new()
        .with("seq", 7u64)
        .with("temp", 21.5f64)
        .with("flags", 3u64)
        .with(
            "samples",
            (0..32)
                .map(|i| Value::Float(f64::from(i) * 0.5))
                .collect::<Vec<_>>(),
        )
        .with(
            "counters",
            (0..16).map(|i| Value::UInt(1 << i)).collect::<Vec<_>>(),
        )
}

fn note() -> Record {
    Record::new()
        .with("serial", 41u64)
        .with("gate", "B17")
        .with("text", "boarding moved forward by twenty minutes")
        .with(
            "codes",
            (0..9)
                .map(|i| Value::Int(i * 100 - 400))
                .collect::<Vec<_>>(),
        )
}

/// Reads every field of `view`, every array element included; returns
/// how many scalars and strings it saw.
fn read_all(view: &RecordView<'_>) -> usize {
    let mut seen = 0;
    for (_, field) in view.fields() {
        match field.expect("a well-formed image") {
            FieldView::Array(items) => {
                for item in items {
                    black_box(item.expect("a well-formed element"));
                    seen += 1;
                }
            }
            other => {
                black_box(other);
                seen += 1;
            }
        }
    }
    seen
}

/// Allocations per event of the whole path for one stream, as
/// `(whole path, consumer side)`.
fn per_event(
    schema: &str,
    format_name: &str,
    sender_arch: Architecture,
    record: &Record,
) -> (usize, usize) {
    let broker = Arc::new(Broker::new());
    let sender = Arc::new(Xml2Wire::builder().arch(sender_arch).build());
    sender.register_schema_str(schema).unwrap();
    let host = Xml2Wire::builder().build();
    let native = host.register_schema_str(schema).unwrap().remove(0);
    let capture =
        CapturePoint::new(Arc::clone(&broker), sender, "hetero", format_name, None).unwrap();
    let sub = broker.subscribe("hetero").unwrap();
    let mut image = Vec::new();
    let mut consume = |consumer_allocs: &mut usize| {
        let event = sub.recv().unwrap();
        let before = allocations();
        host.to_native_image_into(&event.payload, &mut image)
            .unwrap();
        let view = RecordView::over(&image, &native, host.arch()).unwrap();
        assert!(read_all(&view) >= record.len());
        *consumer_allocs += allocations() - before;
    };
    // Warm-up: the publisher's scratch, the shard queue and worker, the
    // subscriber queue, the conversion plan, the view plan, the pool.
    for _ in 0..16 {
        capture.publish(record).unwrap();
        consume(&mut 0);
    }
    let rounds = 50;
    let mut consumer_allocs = 0;
    let before = allocations();
    for _ in 0..rounds {
        capture.publish(record).unwrap();
        consume(&mut consumer_allocs);
    }
    let total = allocations() - before;
    assert_eq!(
        total % rounds,
        0,
        "allocation count {total} not uniform across {rounds} rounds"
    );
    let stats = host.plan_stats();
    assert_eq!(stats.built, 1, "{stats:?}");
    assert_eq!(
        stats.hits,
        (16 + rounds - 1) as u64,
        "one hit per converted message: {stats:?}"
    );
    (total / rounds, consumer_allocs)
}

#[test]
fn heterogeneous_path_allocation_budget() {
    for (schema, format_name, arch, record) in [
        (SCHEMA_B, "ASDOffEvent", Architecture::SPARC32, record_b()),
        (TELEMETRY, "Telemetry", Architecture::POWER64, telemetry()),
        (NOTE, "GateNote", Architecture::I386, note()),
    ] {
        let (whole_path, consumer_side) = per_event(schema, format_name, arch, &record);
        assert_eq!(
            consumer_side, 0,
            "{format_name}: convert + view must not allocate"
        );
        assert_eq!(
            whole_path, 2,
            "{format_name}: the path should allocate exactly the published payload and its \
             Arc<Event> wrapper"
        );
    }

    // A same-architecture message is viewed in place, header and all.
    let host = Xml2Wire::builder().build();
    let format = host.register_schema_str(SCHEMA_B).unwrap().remove(0);
    let wire = pbio::ndr::encode(&record_b(), &format).unwrap();
    read_all(&pbio::ndr::view_with(&wire, &format).unwrap()); // builds the view plan
    let before = allocations();
    for _ in 0..100 {
        let view = pbio::ndr::view_with(&wire, &format).unwrap();
        assert_eq!(read_all(&view), 5 + 1 + 5 + 3 + 1);
    }
    assert_eq!(
        allocations() - before,
        0,
        "view_with on a same-arch message must not allocate"
    );

    assert!(
        std::mem::size_of::<FieldView<'_>>() <= 64,
        "FieldView grew to {} bytes",
        std::mem::size_of::<FieldView<'_>>()
    );
}
