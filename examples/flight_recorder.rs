//! Flight recorder: typed message objects + self-contained archives.
//!
//! Combines two future-work features of the paper (§7): language-level
//! message objects (`#[derive(Xml2WireRecord)]`) and open metadata
//! applied to *storage* — the archive embeds its own XML Schema
//! documents, so a reader with zero prior knowledge (even the `x2w cat`
//! command-line tool) can decode it years later.
//!
//! Run with: `cargo run --example flight_recorder`

use std::sync::Arc;

use openmeta::prelude::*;
use xml2wire::{ArchiveReader, ArchiveWriter, Xml2WireRecord};

/// A position report, declared once as a plain Rust struct.
#[derive(Debug, Xml2WireRecord)]
struct PositionReport {
    arln: String,
    #[x2w(name = "fltNum")]
    flt_num: i32,
    lat: f64,
    lon: f64,
    #[x2w(name = "altitudeFt")]
    altitude_ft: u32,
    waypoints: Vec<String>,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::temp_dir().join("flight_recorder_demo.x2w");

    // --- Recording side -------------------------------------------------
    let session = Arc::new(Xml2Wire::builder().build());
    let position = session.register_record::<PositionReport>()?;

    let file = std::fs::File::create(&path)?;
    let mut recorder = ArchiveWriter::create(file, Arc::clone(&session));
    recorder.declare_format(PositionReport::FORMAT_NAME)?;

    let mut wire = Vec::new();
    for i in 0..5 {
        let report = PositionReport {
            arln: "DL".into(),
            flt_num: 1200 + i,
            lat: 33.6367 + f64::from(i) * 0.25,
            lon: -84.4281 + f64::from(i) * 0.4,
            altitude_ft: 31_000 + (i as u32) * 500,
            waypoints: vec!["ODF".into(), "SPA".into()],
        };
        // The archive stores reflective records; the typed struct gets
        // there through its own wire image (typed encode, then the
        // dynamic decoder every untyped peer would run).
        pbio::ndr::encode_typed_into(&mut wire, &report, &position)?;
        let (_, record) = session.decode(&wire)?;
        recorder.append(&record, PositionReport::FORMAT_NAME)?;
    }
    recorder.finish()?;
    println!("recorded 5 position reports to {}", path.display());

    // --- Replay side: a fresh process with NO prior knowledge ------------
    let file = std::fs::File::open(&path)?;
    let mut replay = ArchiveReader::open(file)?;
    println!("archive self-describes formats: {:?}", replay.format_names());
    while let Some((format, record)) = replay.next_record()? {
        // Generic consumers read the dynamic record...
        println!("[{format}] {record}");
        // ...and typed consumers can still reconstruct the struct from
        // the image the dynamic encoder writes.
        let wire = session.encode(&record, PositionReport::FORMAT_NAME)?;
        let report: PositionReport = pbio::ndr::decode_typed(&wire, &position)?;
        assert!(report.altitude_ft >= 31_000);
    }

    println!(
        "\ntry it from the shell too:  cargo run --bin x2w -- cat {}",
        path.display()
    );
    std::fs::remove_file(&path)?;
    Ok(())
}
