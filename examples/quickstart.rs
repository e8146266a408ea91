//! Quickstart: define a message format in XML Schema, bind it at
//! runtime, and move records across simulated heterogeneous machines.
//!
//! Run with: `cargo run --example quickstart`

use openmeta::prelude::*;

const SCHEMA: &str = r#"<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"
            targetNamespace="urn:quickstart">
  <xsd:complexType name="StockQuote">
    <xsd:element name="symbol" type="xsd:string"/>
    <xsd:element name="price" type="xsd:double"/>
    <xsd:element name="volume" type="xsd:unsigned-long"/>
    <xsd:element name="history" type="xsd:double" minOccurs="0" maxOccurs="*"/>
  </xsd:complexType>
</xsd:schema>"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Discovery + binding: hand the XML metadata to xml2wire. No code
    //    was compiled against StockQuote anywhere in this program.
    let session = Xml2Wire::builder().build();
    let formats = session.register_schema_str(SCHEMA)?;
    let format = &formats[0];
    println!("bound format: {format}");
    println!("field table (the paper's IOField array, computed at runtime):");
    for field in format.field_table() {
        println!("  {field}");
    }

    // 2. Marshal a record into NDR wire form.
    let record = Record::new()
        .with("symbol", "GT")
        .with("price", 101.25f64)
        .with("volume", 1_250_000u64)
        .with("history", vec![99.5f64, 100.75, 101.0]);
    let wire = session.encode(&record, "StockQuote")?;
    println!("\nNDR message: {} bytes on the wire", wire.len());

    // 3. Decode — same process here, but the header makes the message
    //    self-describing across processes and machines.
    let (resolved, decoded) = session.decode(&wire)?;
    println!("decoded via format {}: {decoded}", resolved.name());

    // 4. The same metadata binds differently on a different machine:
    //    a big-endian 32-bit peer computes its own sizes and offsets.
    let sparc = Xml2Wire::builder().arch(Architecture::SPARC32).build();
    let sparc_formats = sparc.register_schema_str(SCHEMA)?;
    println!(
        "\nsame metadata, two machines: {} bytes on {}, {} bytes on {}",
        format.record_size(),
        format.arch(),
        sparc_formats[0].record_size(),
        sparc_formats[0].arch(),
    );

    // 5. And messages cross that gap without agreement on layout: the
    //    sparc sender encodes, we decode.
    let from_sparc = sparc.encode(&record, "StockQuote")?;
    let (_, via_wire) = session.decode(&from_sparc)?;
    assert_eq!(via_wire.get("price").unwrap().as_f64(), Some(101.25));
    println!("cross-architecture decode OK: price = {}", via_wire.get("price").unwrap());

    Ok(())
}
