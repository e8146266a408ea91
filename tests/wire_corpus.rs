//! The golden wire corpus: the paper's Structures A, B and C+D, each an
//! XSD in `tests/corpus/` beside its record encoded by every codec —
//! NDR on each of the six architectures, XDR, CDR in both byte orders
//! and text XML. Every encoder must reproduce its file byte for byte,
//! and every decoder must read every file back to the record.
//!
//! The files are the wire formats' memory: a change to any encoding is
//! a change to these bytes, made on purpose and reviewed as such. This
//! test only reads them.

use std::path::Path;
use std::sync::Arc;

use clayout::Endianness;
use openmeta::prelude::*;
use pbio::{cdr, ndr, textxml, xdr};

fn corpus(file: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus").join(file);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn asd(fltnum: i64, dest: &str, off: Value, eta: Value) -> Record {
    Record::new()
        .with("cntrID", "ZTL")
        .with("arln", "DL")
        .with("fltNum", fltnum)
        .with("equip", "B752")
        .with("org", "ATL")
        .with("dest", dest)
        .with("off", off)
        .with("eta", eta)
}

/// Structure B's record, its count field supplied (a decoder fills it
/// in, so the record read back has it).
fn asd_b(fltnum: i64, dest: &str, eta: &[u64]) -> Record {
    asd(fltnum, dest, vec![10u64, 20, 30, 40, 50].into(), eta.to_vec().into())
        .with("eta_count", eta.len() as i64)
}

/// `(file stem, which of the document's types is the root, record)`.
fn cases() -> [(&'static str, usize, Record); 3] {
    [
        ("a", 0, asd(1202, "BOS", 1_748_707_200u64.into(), 1_748_710_800u64.into())),
        ("b", 0, asd_b(1202, "BOS", &[100, 200, 300])),
        (
            // Structure C is B with its dynamic array empty; D nests it
            // between doubles.
            "cd",
            1,
            Record::new()
                .with("one", asd_b(1202, "BOS", &[100, 200, 300]))
                .with("bart", 1.5f64)
                .with("two", asd_b(-7, "SFO", &[]))
                .with("lisa", -2.5f64)
                .with("three", asd_b(88, "<&>", &[u64::from(u32::MAX)])),
        ),
    ]
}

/// The root format of `stem`'s schema, bound for `arch`.
fn bind(stem: &str, root: usize, arch: Architecture) -> Arc<Format> {
    let xsd = String::from_utf8(corpus(&format!("{stem}.xsd"))).unwrap();
    let session = Xml2Wire::builder().arch(arch).build();
    session.register_schema_str(&xsd).unwrap().swap_remove(root)
}

#[test]
fn every_encoder_reproduces_the_corpus_and_every_decoder_reads_it() {
    for (stem, root, record) in cases() {
        let formats: Vec<Arc<Format>> =
            Architecture::ALL.iter().map(|arch| bind(stem, root, *arch)).collect();
        for format in &formats {
            let file = format!("{stem}.{}.ndr", format.arch().name);
            let wire = corpus(&file);
            assert_eq!(ndr::encode(&record, format).unwrap(), wire, "{file}");
            // Read on its own architecture and on every other one.
            for receiver in &formats {
                assert_eq!(ndr::decode_with(&wire, receiver).unwrap(), record, "{file}");
            }
        }

        let st = formats[0].struct_type();
        let file = format!("{stem}.xdr");
        let wire = corpus(&file);
        assert_eq!(xdr::encode(&record, st).unwrap(), wire, "{file}");
        assert_eq!(xdr::decode(&wire, st).unwrap(), record, "{file}");
        for (order, tag) in [(Endianness::Big, "be"), (Endianness::Little, "le")] {
            let file = format!("{stem}.{tag}.cdr");
            let wire = corpus(&file);
            assert_eq!(cdr::encode(&record, st, order).unwrap(), wire, "{file}");
            assert_eq!(cdr::decode(&wire, st).unwrap(), record, "{file}");
        }
        let file = format!("{stem}.xml");
        let wire = String::from_utf8(corpus(&file)).unwrap();
        assert_eq!(textxml::encode(&record, st).unwrap(), wire, "{file}");
        assert_eq!(textxml::decode(&wire, st).unwrap(), record, "{file}");
    }
}
