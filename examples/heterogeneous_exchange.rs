//! Heterogeneous exchange: the "reader makes right" pipeline in detail.
//!
//! A big-endian 32-bit sender (SPARC V8) and a little-endian 64-bit
//! receiver (x86-64) exchange the paper's Structure B. The example shows
//! what NDR puts on the wire, what the receiver's conversion plan does,
//! and the homogeneous fast path where conversion degenerates to a copy.
//!
//! Run with: `cargo run --example heterogeneous_exchange`

use backbone::airline::{AirlineGenerator, ASD_SCHEMA};
use openmeta::prelude::*;
use pbio::ConversionPlan;

fn hex_preview(bytes: &[u8], n: usize) -> String {
    let shown: Vec<String> =
        bytes.iter().take(n).map(|b| format!("{b:02x}")).collect();
    format!("{}{}", shown.join(" "), if bytes.len() > n { " …" } else { "" })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two peers bind the same XML metadata for different machines.
    let sender = Xml2Wire::builder().arch(Architecture::SPARC32).build();
    sender.register_schema_str(ASD_SCHEMA)?;
    let receiver = Xml2Wire::builder().arch(Architecture::X86_64).build();
    receiver.register_schema_str(ASD_SCHEMA)?;

    let sender_format = sender.require_format("ASDOffEvent")?;
    let receiver_format = receiver.require_format("ASDOffEvent")?;
    println!("sender : {sender_format}");
    println!("receiver: {receiver_format}");
    println!(
        "same metadata, different layouts: {} vs {} bytes fixed part\n",
        sender_format.record_size(),
        receiver_format.record_size()
    );

    // The sender encodes in ITS OWN layout — no canonical translation.
    let record = AirlineGenerator::seeded(7).flight_event();
    let wire = sender.encode(&record, "ASDOffEvent")?;
    println!("wire message ({} bytes): {}", wire.len(), hex_preview(&wire, 24));
    println!(
        "sender arch from header: {}\n",
        pbio::ndr::peek_arch(&wire)?
    );

    // Receiver path A: read values straight out of the sender-layout
    // image (per-field reader-makes-right).
    let (_, decoded) = receiver.decode(&wire)?;
    println!("decoded record: {decoded}\n");

    // Receiver path B: convert to a native image once, then access like
    // local memory. The conversion plan compiles on first contact.
    let plan = ConversionPlan::build(
        receiver_format.struct_type(),
        &Architecture::SPARC32,
        &Architecture::X86_64,
    )?;
    println!(
        "conversion plan sparc32 -> x86_64: {} ops, identity = {}",
        plan.op_count(),
        plan.is_identity()
    );
    let native = receiver.to_native_image(&wire)?;
    println!(
        "native image: {} bytes fixed + {} bytes variable",
        native.fixed_len,
        native.bytes.len() - native.fixed_len
    );
    let via_native =
        pbio::RecordView::over(&native.bytes, &receiver_format, receiver.arch())?.to_record()?;
    assert_eq!(
        via_native.get("fltNum").unwrap().as_i64(),
        decoded.get("fltNum").unwrap().as_i64()
    );

    // The homogeneous fast path: identical layouts need zero conversion —
    // this is where NDR wins hardest over canonical formats like XDR,
    // which translate even between identical machines.
    let identity = ConversionPlan::build(
        receiver_format.struct_type(),
        &Architecture::X86_64,
        &Architecture::X86_64,
    )?;
    println!(
        "\nconversion plan x86_64 -> x86_64: {} ops, identity = {}",
        identity.op_count(),
        identity.is_identity()
    );

    // Show the full matrix the test suite exercises.
    println!("\nconversion plan op counts across the architecture matrix:");
    print!("{:>10}", "");
    for dst in Architecture::ALL {
        print!("{:>10}", dst.name);
    }
    println!();
    for src in Architecture::ALL {
        print!("{:>10}", src.name);
        for dst in Architecture::ALL {
            let plan =
                ConversionPlan::build(receiver_format.struct_type(), &src, &dst)?;
            if plan.is_identity() {
                print!("{:>10}", "copy");
            } else {
                print!("{:>10}", plan.op_count());
            }
        }
        println!();
    }
    Ok(())
}
