//! The golden wire corpus: the paper's Structures A, B and C+D, each an
//! XSD in `tests/corpus/` beside its record encoded by every codec —
//! NDR on each of the six architectures, XDR, CDR in both byte orders
//! and text XML. Every encoder must reproduce its file byte for byte,
//! and every decoder must read every file back to the record.
//!
//! The files are the wire formats' memory: a change to any encoding is
//! a change to these bytes, made on purpose and reviewed as such. This
//! test only reads them.
//!
//! Structures B and C+D also have derived twins (`#[derive(Xml2WireRecord)]`):
//! their typed encode must write the same NDR files, and their typed
//! decode must read every one of them back to the typed value.

use std::path::Path;
use std::sync::Arc;

use backbone::TypedSubscriber;
use clayout::Endianness;
use openmeta::prelude::*;
use pbio::{cdr, ndr, textxml, xdr};
use xml2wire::Xml2WireRecord;

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

/// `b.xsd`'s `ASDOffEvent`, and the element type of `cd.xsd`'s
/// `threeASDOffs`.
#[derive(Debug, Clone, PartialEq, Xml2WireRecord)]
struct ASDOffEvent {
    #[x2w(name = "cntrID")]
    cntr_id: String,
    arln: String,
    #[x2w(name = "fltNum")]
    flt_num: i32,
    equip: String,
    org: String,
    dest: String,
    off: [u64; 5],
    eta: Vec<u64>,
}

#[derive(Debug, Clone, PartialEq, Xml2WireRecord)]
#[x2w(name = "threeASDOffs")]
struct ThreeAsdOffs {
    one: ASDOffEvent,
    bart: f64,
    two: ASDOffEvent,
    lisa: f64,
    three: ASDOffEvent,
}

/// The typed twin of [`asd_b`].
fn typed_b(flt_num: i32, dest: &str, eta: &[u64]) -> ASDOffEvent {
    ASDOffEvent {
        cntr_id: "ZTL".to_owned(),
        arln: "DL".to_owned(),
        flt_num,
        equip: "B752".to_owned(),
        org: "ATL".to_owned(),
        dest: dest.to_owned(),
        off: [10, 20, 30, 40, 50],
        eta: eta.to_vec(),
    }
}

/// Decodes `wire` as a typed subscriber on this host does.
fn typed_decode<T: Xml2WireRecord>(broker: &Broker, name: &str, wire: Vec<u8>) -> T {
    let sub = TypedSubscriber::<T>::new(broker, "corpus").unwrap();
    sub.decode(&Event::new("corpus", name, wire)).unwrap()
}

#[test]
fn derived_twins_reproduce_the_ndr_corpus_and_read_it_back() {
    let b = typed_b(1202, "BOS", &[100, 200, 300]);
    let cd = ThreeAsdOffs {
        one: b.clone(),
        bart: 1.5,
        two: typed_b(-7, "SFO", &[]),
        lisa: -2.5,
        three: typed_b(88, "<&>", &[u64::from(u32::MAX)]),
    };
    let broker = Broker::new();
    broker.create_stream("corpus", None);
    for arch in Architecture::ALL {
        // Registered in document order, so the local ids in the headers
        // are the ones the corpus files carry.
        let session = Xml2Wire::builder().arch(arch).build();
        let asd = session.register_record::<ASDOffEvent>().unwrap();
        let three = session.register_record::<ThreeAsdOffs>().unwrap();
        let mut wire = Vec::new();

        let file = format!("b.{}.ndr", arch.name);
        ndr::encode_typed_into(&mut wire, &b, &asd).unwrap();
        assert_eq!(wire, corpus(&file), "{file}");
        assert_eq!(typed_decode::<ASDOffEvent>(&broker, "ASDOffEvent", corpus(&file)), b, "{file}");

        let file = format!("cd.{}.ndr", arch.name);
        ndr::encode_typed_into(&mut wire, &cd, &three).unwrap();
        assert_eq!(wire, corpus(&file), "{file}");
        assert_eq!(typed_decode::<ThreeAsdOffs>(&broker, "threeASDOffs", corpus(&file)), cd, "{file}");
    }
}
