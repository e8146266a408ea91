//! Property tests across all four wire codecs and the conversion
//! machinery: arbitrary records — nested structs among them — round-trip
//! through every codec, no codec panics on a corrupted message, every
//! codec holds a count field to its array, and NDR + conversion agrees
//! with direct decoding for every architecture pair.

mod codecs;
#[path = "../../clayout/tests/oracle/mod.rs"]
mod oracle;

use clayout::{
    Architecture, CType, LayoutError, Primitive, Record, StructField, StructType, Value,
};
use codecs::CODECS;
use pbio::format::{Format, FormatId};
use pbio::{ConversionPlan, PbioError};
use proptest::prelude::*;

/// Primitives restricted to values that fit every modelled architecture
/// (ILP32 `long` is 32-bit).
fn prim_strategy() -> impl Strategy<Value = Primitive> {
    proptest::sample::select(vec![
        Primitive::Char,
        Primitive::UChar,
        Primitive::Short,
        Primitive::UShort,
        Primitive::Int,
        Primitive::UInt,
        Primitive::Long,
        Primitive::ULong,
        Primitive::Float,
        Primitive::Double,
    ])
}

fn arch_strategy() -> impl Strategy<Value = Architecture> {
    proptest::sample::select(Architecture::ALL.to_vec())
}

#[derive(Debug, Clone)]
enum Spec {
    Prim(Primitive, i64),
    Str(String),
    FixedArr(Primitive, Vec<i64>),
    DynArr(Primitive, Vec<i64>),
    /// A struct of a `char` and then a `double`: CDR aligns the double
    /// relative to the message body, below the root too.
    Nested(i64, i64),
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    prop_oneof![
        3 => (prim_strategy(), any::<i64>()).prop_map(|(p, s)| Spec::Prim(p, s)),
        2 => "[ -~]{0,20}".prop_map(Spec::Str),
        1 => (prim_strategy(), proptest::collection::vec(any::<i64>(), 1..5))
            .prop_map(|(p, xs)| Spec::FixedArr(p, xs)),
        1 => (prim_strategy(), proptest::collection::vec(any::<i64>(), 0..5))
            .prop_map(|(p, xs)| Spec::DynArr(p, xs)),
        1 => (any::<i64>(), any::<i64>()).prop_map(|(c, d)| Spec::Nested(c, d)),
    ]
}

fn prim_value(p: Primitive, seed: i64) -> Value {
    if p.is_float() {
        // Stay in f32-exact territory so Float fields compare exactly.
        return Value::Float((seed % 4096) as f64 * 0.5);
    }
    let m = match p {
        Primitive::Char => seed.rem_euclid(128),
        Primitive::UChar => seed.rem_euclid(256),
        Primitive::Short => seed.rem_euclid(1 << 15),
        Primitive::UShort => seed.rem_euclid(1 << 16),
        _ => seed.rem_euclid(1 << 31),
    };
    if p.is_unsigned_integer() {
        Value::UInt(m as u64)
    } else if seed % 2 == 0 {
        Value::Int(m)
    } else {
        Value::Int(-(m / 2) - 1)
    }
}

fn build(specs: &[Spec]) -> (StructType, Record) {
    let mut fields = Vec::new();
    let mut record = Record::new();
    for (i, spec) in specs.iter().enumerate() {
        let name = format!("f{i}");
        match spec {
            Spec::Prim(p, seed) => {
                fields.push(StructField::new(&name, CType::Prim(*p)));
                record.set(name, prim_value(*p, *seed));
            }
            Spec::Str(s) => {
                fields.push(StructField::new(&name, CType::String));
                record.set(name, s.clone());
            }
            Spec::FixedArr(p, seeds) => {
                fields.push(StructField::new(
                    &name,
                    CType::fixed_array(CType::Prim(*p), seeds.len()),
                ));
                record.set(
                    name,
                    Value::Array(seeds.iter().map(|s| prim_value(*p, *s)).collect()),
                );
            }
            Spec::DynArr(p, seeds) => {
                let count = format!("{name}_count");
                fields.push(StructField::new(
                    &name,
                    CType::dynamic_array(CType::Prim(*p), count.clone()),
                ));
                fields.push(StructField::new(count, CType::Prim(Primitive::Int)));
                record.set(
                    name,
                    Value::Array(seeds.iter().map(|s| prim_value(*p, *s)).collect()),
                );
            }
            Spec::Nested(c, d) => {
                let inner = StructType::new(
                    "Inner",
                    vec![
                        StructField::new("c", CType::Prim(Primitive::Char)),
                        StructField::new("d", CType::Prim(Primitive::Double)),
                    ],
                );
                fields.push(StructField::new(&name, CType::Struct(inner)));
                record.set(
                    name,
                    Record::new()
                        .with("c", prim_value(Primitive::Char, *c))
                        .with("d", prim_value(Primitive::Double, *d)),
                );
            }
        }
    }
    (StructType::new("Gen", fields), record)
}

fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(_) | Value::UInt(_), Value::Int(_) | Value::UInt(_)) => {
            a.as_i64() == b.as_i64() && a.as_u64() == b.as_u64()
        }
        (Value::Float(x), Value::Float(y)) => {
            // f32 narrowing may apply on Float fields.
            (*x - *y).abs() < 1e-3
        }
        (Value::String(x), Value::String(y)) => x == y,
        (Value::Record(x), Value::Record(y)) => records_agree(x, y),
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| values_equal(x, y))
        }
        _ => false,
    }
}

fn records_agree(original: &Record, decoded: &Record) -> bool {
    original.iter().all(|(name, value)| {
        decoded.get(name).is_some_and(|other| values_equal(value, other))
    })
}

fn round_trips_through_every_codec(specs: &[Spec], arch: Architecture) {
    let (st, record) = build(specs);
    let format = Format::new(FormatId(1), st, arch).unwrap();
    for (name, encode, decode) in CODECS {
        let wire = encode(&record, &format).unwrap();
        let back = decode(&wire, &format).unwrap();
        assert!(records_agree(&record, &back), "codec {name}");
    }
}

/// Encodes a record of `specs` on `arch` with `codec`, XORs `flips`
/// into the wire, cuts it at `cut` (modulo its length + 1) and decodes
/// the rest.
fn decode_corrupted(
    codec: &str,
    specs: &[Spec],
    arch: Architecture,
    flips: &[(u16, u8)],
    cut: u16,
) -> Result<Record, PbioError> {
    let (_, encode, decode) = CODECS.into_iter().find(|(name, ..)| *name == codec).unwrap();
    let (st, record) = build(specs);
    let format = Format::new(FormatId(1), st, arch).unwrap();
    let mut wire = encode(&record, &format).unwrap();
    for &(pos, val) in flips {
        if !wire.is_empty() {
            let idx = pos as usize % wire.len();
            wire[idx] ^= val;
        }
    }
    wire.truncate(cut as usize % (wire.len() + 1));
    decode(&wire, &format)
}

// Failures the properties below once found, kept as named cases.

/// A whitespace-only string: the case `textxml`'s CDATA edge rule exists
/// for, since a text node of only whitespace is dropped on decode.
#[test]
fn a_whitespace_only_string_round_trips_through_every_codec() {
    round_trips_through_every_codec(&[Spec::Str(" ".to_owned())], Architecture::X86_64);
}

/// A flipped and cut SPARC32 image of one double fails to decode, and
/// does not panic.
#[test]
fn a_flipped_and_cut_sparc32_double_fails_ndr_decode_without_panicking() {
    let decoded = decode_corrupted(
        "ndr",
        &[Spec::Prim(Primitive::Double, 0)],
        Architecture::SPARC32,
        &[(59088, 1)],
        15206,
    );
    assert!(decoded.is_err(), "{decoded:?}");
}

/// A supplied count that contradicts its array is refused by every
/// codec with NDR's error, reported at whichever of the count and the
/// array comes first — so a wrong-typed field before both is reported
/// instead; a count that agrees is accepted and read back.
#[test]
fn every_codec_holds_a_supplied_count_to_its_array() {
    let field = |name: &str| match name {
        "eta" => StructField::new("eta", CType::dynamic_array(CType::Prim(Primitive::ULong), "n")),
        "n" => StructField::new("n", CType::Prim(Primitive::Int)),
        _ => StructField::new(name, CType::String),
    };
    let record = |n: i64, tag: Value| {
        Record::new().with("eta", vec![1u64, 2, 3]).with("n", n).with("tag", tag)
    };
    let contradiction = PbioError::Layout(LayoutError::ArrayLengthMismatch {
        field: "eta".to_owned(),
        declared: 7,
        actual: 3,
    });
    let wrong_tag = PbioError::Layout(LayoutError::TypeMismatch {
        field: "tag".to_owned(),
        expected: "string".to_owned(),
        found: "float".to_owned(),
    });
    for (order, first) in [
        (["eta", "tag", "n"], &contradiction),
        (["n", "tag", "eta"], &contradiction),
        (["tag", "eta", "n"], &wrong_tag),
    ] {
        let st = StructType::new("Counted", order.iter().map(|name| field(name)).collect());
        let format = Format::new(FormatId(1), st, Architecture::SPARC32).unwrap();
        for (name, encode, decode) in CODECS {
            let refused = encode(&record(7, Value::Float(1.5)), &format);
            assert_eq!(refused.as_ref(), Err(first), "{name}, fields {order:?}");
            assert_eq!(
                encode(&record(7, "x".into()), &format),
                Err(contradiction.clone()),
                "{name}, fields {order:?}"
            );
            let agreed = record(3, "x".into());
            let wire = encode(&agreed, &format).unwrap();
            assert!(records_agree(&agreed, &decode(&wire, &format).unwrap()), "{name}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_codec_round_trips(
        specs in proptest::collection::vec(spec_strategy(), 1..7),
        arch in arch_strategy(),
    ) {
        round_trips_through_every_codec(&specs, arch);
    }

    #[test]
    fn conversion_agrees_with_direct_decode(
        specs in proptest::collection::vec(spec_strategy(), 1..6),
        src in arch_strategy(),
        dst in arch_strategy(),
    ) {
        let (st, record) = build(&specs);
        let image = clayout::encode_record(&record, &st, &src).unwrap();
        let plan = ConversionPlan::build(&st, &src, &dst).unwrap();
        let native = plan.convert(&image.bytes).unwrap();
        let via_conversion = oracle::decode_record(&native.bytes, &st, &dst).unwrap();
        let direct = oracle::decode_record(&image.bytes, &st, &src).unwrap();
        prop_assert!(records_agree(&direct, &via_conversion), "{src} -> {dst}");
    }

    #[test]
    fn ndr_decode_never_panics_on_corruption(
        specs in proptest::collection::vec(spec_strategy(), 1..5),
        arch in arch_strategy(),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..10),
        cut in any::<u16>(),
    ) {
        let _ = decode_corrupted("ndr", &specs, arch, &flips, cut);
    }

    #[test]
    fn xdr_decode_never_panics_on_corruption(
        specs in proptest::collection::vec(spec_strategy(), 1..5),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..10),
        cut in any::<u16>(),
    ) {
        let _ = decode_corrupted("xdr", &specs, Architecture::SPARC32, &flips, cut);
    }

    #[test]
    fn cdr_and_text_decode_never_panic_on_corruption(
        specs in proptest::collection::vec(spec_strategy(), 1..5),
        arch in arch_strategy(),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..10),
        cut in any::<u16>(),
    ) {
        for codec in ["cdr", "xml-text"] {
            let _ = decode_corrupted(codec, &specs, arch, &flips, cut);
        }
    }

    #[test]
    fn conversion_plan_never_panics_on_corruption(
        specs in proptest::collection::vec(spec_strategy(), 1..5),
        src in arch_strategy(),
        dst in arch_strategy(),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..10),
        cut in any::<u16>(),
    ) {
        let (st, record) = build(&specs);
        let mut image = clayout::encode_record(&record, &st, &src).unwrap().bytes;
        for (pos, val) in flips {
            if !image.is_empty() {
                let idx = pos as usize % image.len();
                image[idx] ^= val;
            }
        }
        image.truncate(cut as usize % (image.len() + 1));
        let plan = ConversionPlan::build(&st, &src, &dst).unwrap();
        match plan.convert(&image) {
            Ok(_) => {}
            Err(PbioError::Layout(_) | PbioError::Truncated { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }

    #[test]
    fn evolution_reconcile_is_total_for_added_fields(
        specs in proptest::collection::vec(spec_strategy(), 1..5),
        keep in 1usize..5,
    ) {
        let (st, record) = build(&specs);
        // Target = first `keep` fields of the generated struct.
        let target = StructType::new(
            "Gen",
            st.fields.iter().take(keep.min(st.fields.len())).cloned().collect(),
        );
        let decoded = {
            let image = clayout::encode_record(&record, &st, &Architecture::X86_64).unwrap();
            oracle::decode_record(&image.bytes, &st, &Architecture::X86_64).unwrap()
        };
        let out = pbio::evolution::reconcile(&decoded, &target).unwrap();
        prop_assert_eq!(out.len(), target.fields.len());
    }
}
