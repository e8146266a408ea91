//! **T1 — Table 1**: format registration costs, PBIO-direct vs xml2wire.
//!
//! Paper: "Format registration time for xml2wire includes the time
//! necessary to parse the XML description of the format and register the
//! format with PBIO" — for structures of 32, 52 and 180 bytes, xml2wire
//! cost ≈ 1.9–2× the PBIO-direct cost, both sub-millisecond, growing
//! proportionally with structure size. Encoded sizes are identical for
//! the two paths.
//!
//! This bench reproduces the whole table: the encoded-size columns are
//! printed up front (they are exact quantities, not timings), and the
//! two time columns are the criterion groups `table1/pbio/*` and
//! `table1/xml2wire/*`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use clayout::Architecture;
use omf_bench::{bind, table1_record, table1_rows};
use pbio::FormatRegistry;
use xsdlite::Schema;

fn print_encoded_sizes(arch: Architecture) {
    println!("\nTable 1 (encoded sizes, {} layout):", arch.name);
    println!(
        "{:<12} {:>14} {:>14} {:>18}",
        "structure", "struct bytes", "paper struct", "encoded (NDR)"
    );
    let paper_sizes = [32usize, 52, 180];
    for ((label, schema, index, size), paper) in table1_rows().into_iter().zip(paper_sizes) {
        let format = bind(schema, index, arch);
        let record = table1_record(label);
        let encoded = pbio::ndr::encode(&record, &format).unwrap().len();
        println!("{label:<12} {size:>14} {paper:>14} {encoded:>18}");
    }
    println!();
}

fn registration(c: &mut Criterion) {
    let arch = Architecture::SPARC32; // the paper's machines
    print_encoded_sizes(arch);

    let mut group = c.benchmark_group("table1");
    group.sample_size(60).measurement_time(Duration::from_secs(2));

    for (label, schema, index, _) in table1_rows() {
        // The struct type the metadata describes, pre-extracted so the
        // PBIO-direct path measures only registration (the paper's PBIO
        // column: field lists already exist as compiled C arrays).
        let struct_type = bind(schema, index, arch).struct_type().clone();

        group.bench_with_input(
            BenchmarkId::new("pbio", label),
            &struct_type,
            |b, st| {
                b.iter(|| {
                    let registry = FormatRegistry::new();
                    registry.register(st.clone(), arch).unwrap()
                });
            },
        );

        // The xml2wire column: parse the XML document, bind every type
        // in it, register with the BCM.
        group.bench_with_input(BenchmarkId::new("xml2wire", label), &schema, |b, doc| {
            b.iter(|| {
                let session = xml2wire::Xml2Wire::builder().arch(arch).build();
                session.register_schema_str(doc).unwrap()
            });
        });

        // Decomposition of the xml2wire cost (not in the paper's table,
        // but it substantiates the "time grows with document size"
        // claim): tokenization alone (the borrowed events the schema
        // compiler is driven by), then the schema model on top.
        group.bench_with_input(BenchmarkId::new("tokenize-only", label), &schema, |b, doc| {
            b.iter(|| {
                let mut reader = xmlparse::Reader::new(doc);
                while !matches!(reader.next_borrowed().unwrap(), xmlparse::BorrowedEvent::Eof) {}
            });
        });
        group.bench_with_input(BenchmarkId::new("schema-only", label), &schema, |b, doc| {
            b.iter(|| Schema::parse_str(doc).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, registration);
criterion_main!(benches);
