//! Round trips of the planned encoder through the oracle decoder — the
//! image tests that need a reader (the library's own reader is pbio's
//! `RecordView`, whose fail-closed cases are tested there).

mod oracle;

use clayout::{encode_record, Architecture, CType, Primitive, Record, StructField, StructType};
use oracle::decode_record;

fn prim(p: Primitive) -> CType {
    CType::Prim(p)
}

/// Paper Appendix A structure B: strings, a fixed array, and a
/// count-field dynamic array.
fn structure_b() -> StructType {
    StructType::new(
        "asdOff",
        vec![
            StructField::new("cntrId", CType::String),
            StructField::new("arln", CType::String),
            StructField::new("fltNum", prim(Primitive::Int)),
            StructField::new("equip", CType::String),
            StructField::new("org", CType::String),
            StructField::new("dest", CType::String),
            StructField::new("off", CType::fixed_array(prim(Primitive::ULong), 5)),
            StructField::new(
                "eta",
                CType::dynamic_array(prim(Primitive::ULong), "eta_count"),
            ),
            StructField::new("eta_count", prim(Primitive::Int)),
        ],
    )
}

fn sample_b() -> Record {
    Record::new()
        .with("cntrId", "ZTL")
        .with("arln", "DL")
        .with("fltNum", 1202i64)
        .with("equip", "B752")
        .with("org", "ATL")
        .with("dest", "BOS")
        .with("off", vec![1u64, 2, 3, 4, 5])
        .with("eta", vec![100u64, 200, 300])
}

#[test]
fn round_trip_on_every_architecture() {
    let st = structure_b();
    let rec = sample_b();
    for arch in Architecture::ALL {
        let image = encode_record(&rec, &st, &arch).unwrap();
        let back = decode_record(&image.bytes, &st, &arch).unwrap();
        assert_eq!(back.get("cntrId").unwrap().as_str(), Some("ZTL"), "{arch}");
        assert_eq!(back.get("fltNum").unwrap().as_i64(), Some(1202), "{arch}");
        assert_eq!(
            back.get("off").unwrap().as_array().unwrap().len(),
            5,
            "{arch}"
        );
        let eta = back.get("eta").unwrap().as_array().unwrap();
        assert_eq!(
            eta.iter().map(|v| v.as_u64().unwrap()).collect::<Vec<_>>(),
            vec![100, 200, 300]
        );
        // The count field was synthesized from the array length.
        assert_eq!(back.get("eta_count").unwrap().as_i64(), Some(3), "{arch}");
    }
}

#[test]
fn negative_integers_sign_extend() {
    let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::Short))]);
    let rec = Record::new().with("x", -2i64);
    for arch in Architecture::ALL {
        let image = encode_record(&rec, &st, &arch).unwrap();
        let back = decode_record(&image.bytes, &st, &arch).unwrap();
        assert_eq!(back.get("x").unwrap().as_i64(), Some(-2), "{arch}");
    }
}

#[test]
fn floats_round_trip_both_widths() {
    let st = StructType::new(
        "t",
        vec![
            StructField::new("f", prim(Primitive::Float)),
            StructField::new("d", prim(Primitive::Double)),
        ],
    );
    let rec = Record::new().with("f", 1.5f64).with("d", -2.25f64);
    for arch in [Architecture::X86_64, Architecture::SPARC32] {
        let image = encode_record(&rec, &st, &arch).unwrap();
        let back = decode_record(&image.bytes, &st, &arch).unwrap();
        assert_eq!(back.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(back.get("d").unwrap().as_f64(), Some(-2.25));
    }
}

#[test]
fn float_narrowing_loses_precision_gracefully() {
    let st = StructType::new("t", vec![StructField::new("f", prim(Primitive::Float))]);
    let rec = Record::new().with("f", 1.0000001f64);
    let image = encode_record(&rec, &st, &Architecture::X86_64).unwrap();
    let back = decode_record(&image.bytes, &st, &Architecture::X86_64).unwrap();
    let got = back.get("f").unwrap().as_f64().unwrap();
    assert!((got - 1.0).abs() < 1e-6);
}

#[test]
fn empty_dynamic_array_uses_null_pointer() {
    let st = StructType::new(
        "t",
        vec![
            StructField::new("a", CType::dynamic_array(prim(Primitive::Int), "n")),
            StructField::new("n", prim(Primitive::Int)),
        ],
    );
    let rec = Record::new().with("a", Vec::<i64>::new());
    let image = encode_record(&rec, &st, &Architecture::X86_64).unwrap();
    assert!(image.bytes[..8].iter().all(|b| *b == 0));
    let back = decode_record(&image.bytes, &st, &Architecture::X86_64).unwrap();
    assert_eq!(back.get("a").unwrap().as_array().unwrap().len(), 0);
    assert_eq!(back.get("n").unwrap().as_i64(), Some(0));
}

#[test]
fn nested_structs_round_trip() {
    let inner = StructType::new(
        "pt",
        vec![
            StructField::new("x", prim(Primitive::Double)),
            StructField::new("label", CType::String),
        ],
    );
    let outer = StructType::new(
        "wrap",
        vec![
            StructField::new("head", prim(Primitive::Int)),
            StructField::new("p", CType::Struct(inner)),
        ],
    );
    let rec = Record::new()
        .with("head", 7i64)
        .with("p", Record::new().with("x", 3.5f64).with("label", "origin"));
    for arch in Architecture::ALL {
        let image = encode_record(&rec, &outer, &arch).unwrap();
        let back = decode_record(&image.bytes, &outer, &arch).unwrap();
        let p = back.get("p").unwrap().as_record().unwrap();
        assert_eq!(p.get("x").unwrap().as_f64(), Some(3.5), "{arch}");
        assert_eq!(p.get("label").unwrap().as_str(), Some("origin"), "{arch}");
    }
}

#[test]
fn dynamic_array_of_strings_round_trips() {
    let st = StructType::new(
        "t",
        vec![
            StructField::new("names", CType::dynamic_array(CType::String, "n")),
            StructField::new("n", prim(Primitive::Int)),
        ],
    );
    let rec = Record::new().with("names", vec!["alpha", "beta", "gamma"]);
    let image = encode_record(&rec, &st, &Architecture::SPARC32).unwrap();
    let back = decode_record(&image.bytes, &st, &Architecture::SPARC32).unwrap();
    let names: Vec<&str> = back
        .get("names")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap())
        .collect();
    assert_eq!(names, vec!["alpha", "beta", "gamma"]);
}
