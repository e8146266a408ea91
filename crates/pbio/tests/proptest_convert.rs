//! Differential property tests for the conversion engine:
//! [`pbio::ConversionPlan::build`] (fused swap runs, hoisted checks,
//! unchecked widenings) against the interpretive image codec in
//! `clayout/tests/oracle`, which shares no code with it — a converted
//! image is byte for byte what the oracle writes for the same record on
//! the destination and reads back as what the oracle reads from the
//! source; a corrupt one is refused as the oracle refuses it — across
//! random struct types and the full architecture matrix. The tier a
//! plan lands on is a property of the plan and asserted directly.

#[path = "../../clayout/tests/oracle/mod.rs"]
mod oracle;

use clayout::{
    Architecture, CType, LayoutError, Primitive, Record, StructField, StructType, Value,
};
use pbio::format::{Format, FormatId};
use pbio::{ConversionPlan, PbioError, PlanTier, RecordView};
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

/// The whole matrix, not just its extremes: every (src, dst) pair of
/// the six modelled architectures can be drawn.
fn arch_strategy() -> impl Strategy<Value = Architecture> {
    proptest::sample::select(Architecture::ALL.to_vec())
}

#[derive(Debug, Clone)]
enum Spec {
    Prim(Primitive, i64),
    Str(String),
    FixedArr(Primitive, Vec<i64>),
    DynArr(Primitive, Vec<i64>),
    Nested(Vec<(Primitive, i64)>),
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    prop_oneof![
        3 => (prim_strategy(), any::<i64>()).prop_map(|(p, s)| Spec::Prim(p, s)),
        2 => "[ -~]{0,20}".prop_map(Spec::Str),
        1 => (prim_strategy(), proptest::collection::vec(any::<i64>(), 1..6))
            .prop_map(|(p, xs)| Spec::FixedArr(p, xs)),
        1 => (prim_strategy(), proptest::collection::vec(any::<i64>(), 0..5))
            .prop_map(|(p, xs)| Spec::DynArr(p, xs)),
        1 => proptest::collection::vec((prim_strategy(), any::<i64>()), 1..4)
            .prop_map(Spec::Nested),
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
            Spec::Nested(inner_specs) => {
                let mut inner_fields = Vec::new();
                let mut inner_record = Record::new();
                for (j, (p, seed)) in inner_specs.iter().enumerate() {
                    let iname = format!("g{j}");
                    inner_fields.push(StructField::new(&iname, CType::Prim(*p)));
                    inner_record.set(iname, prim_value(*p, *seed));
                }
                fields.push(StructField::new(
                    &name,
                    CType::Struct(StructType::new(format!("N{i}"), inner_fields)),
                ));
                record.set(name, Value::Record(inner_record));
            }
        }
    }
    (StructType::new("Gen", fields), record)
}

/// Whether any field (recursively) carries a pointer — strings and
/// dynamic arrays (their slot is a swizzled pointer). Such structs can
/// never reach the PureSwap tier.
fn has_pointers(st: &StructType) -> bool {
    st.fields.iter().any(|f| match &f.ty {
        CType::String => true,
        CType::Struct(inner) => has_pointers(inner),
        CType::Array { len: clayout::ArrayLen::CountField(_), .. } => true,
        CType::Array { elem, .. } => {
            matches!(**elem, CType::String) || matches!(&**elem, CType::Struct(i) if has_pointers(i))
        }
        CType::Prim(_) => false,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On honest encodes the converted image is the one the oracle
    /// writes directly on the destination (encoders zero padding, so
    /// bulk copies that bridge padding match), a view of it reads what
    /// the oracle reads from the source image, and the pooled
    /// `convert_into` equals `convert`. A plan is `Identity` exactly on
    /// layout-compatible pairs; x86-64 <-> POWER64 pairs without
    /// pointer-bearing fields land on the PureSwap tier.
    #[test]
    fn converted_image_is_the_oracles(
        specs in proptest::collection::vec(spec_strategy(), 1..6),
        src in arch_strategy(),
        dst in arch_strategy(),
    ) {
        let (st, record) = build(&specs);
        let wire = oracle::encode_record(&record, &st, &src).unwrap();
        let direct = oracle::encode_record(&record, &st, &dst).unwrap();
        let plan = ConversionPlan::build(&st, &src, &dst).unwrap();

        let converted = plan.convert(&wire.bytes).unwrap();
        prop_assert_eq!(converted.fixed_len, direct.fixed_len, "{} -> {}", src, dst);
        prop_assert_eq!(converted.bytes.as_ref(), direct.bytes.as_slice(), "{} -> {}", src, dst);

        let native = Format::new(FormatId(1), st.clone(), dst).unwrap();
        let viewed = RecordView::over(&converted.bytes, &native, &dst).unwrap().to_record().unwrap();
        prop_assert_eq!(viewed, oracle::decode_record(&wire.bytes, &st, &src).unwrap());

        let mut pool = Vec::new();
        let fixed = plan.convert_into(&wire.bytes, &mut pool).unwrap();
        prop_assert_eq!(fixed, converted.fixed_len);
        prop_assert_eq!(pool.as_slice(), converted.bytes.as_ref());

        // Tier classification is a plan property, assert it directly.
        prop_assert_eq!(plan.tier() == PlanTier::Identity, src.layout_compatible(&dst));
        prop_assert_eq!(plan.is_identity(), converted.is_borrowed());
        let swap_pair = (src == Architecture::X86_64 && dst == Architecture::POWER64)
            || (src == Architecture::POWER64 && dst == Architecture::X86_64);
        if swap_pair && !has_pointers(&st) {
            prop_assert_eq!(plan.tier(), PlanTier::PureSwap);
        }
    }

    /// Corrupting by truncation: at every cut point conversion must
    /// fail (never panic), and with the oracle's kind of error — the
    /// hoisted checks may *coarsen* where truncation is noticed, but
    /// not what is reported or whether it is.
    #[test]
    fn every_cut_is_refused_as_the_oracle_refuses_it(
        specs in proptest::collection::vec(spec_strategy(), 1..5),
        src in arch_strategy(),
        dst in arch_strategy(),
    ) {
        let (st, record) = build(&specs);
        let wire = oracle::encode_record(&record, &st, &src).unwrap();
        let plan = ConversionPlan::build(&st, &src, &dst).unwrap();
        // Identity plans borrow without inspecting the variable section;
        // nothing to compare beyond the entry check.
        let cuts = if plan.is_identity() { 0 } else { wire.bytes.len() };
        for cut in 0..cuts {
            let refused = match plan.convert(&wire.bytes[..cut]) {
                Err(PbioError::Truncated { .. })
                | Err(PbioError::Layout(LayoutError::Truncated { .. })) => "truncated",
                Err(PbioError::Layout(LayoutError::BadCount { .. })) => "bad count",
                Err(PbioError::Layout(LayoutError::BadPointer { .. })) => "bad pointer",
                other => panic!("cut {cut} ({src} -> {dst}): {other:?}"),
            };
            // A prefix shorter than the fixed part is refused before any
            // field is read; the oracle may not miss trailing padding.
            let expected = if cut < wire.fixed_len {
                "truncated"
            } else {
                match oracle::decode_record(&wire.bytes[..cut], &st, &src) {
                    // The plan checks a count by the view's rule, which
                    // is the oracle's: payload length over element size.
                    Err(LayoutError::Truncated { .. }) => "truncated",
                    Err(LayoutError::BadCount { .. }) => "bad count",
                    Err(LayoutError::BadPointer { .. }) => "bad pointer",
                    other => panic!("cut {cut} on {src}: the oracle says {other:?}"),
                }
            };
            prop_assert_eq!(refused, expected, "cut {} ({} -> {})", cut, src, dst);
        }
    }
}

#[test]
fn narrowing_overflow_is_the_oracles_out_of_range() {
    let st = StructType::new("t", vec![StructField::new("big", CType::Prim(Primitive::ULong))]);
    let rec = Record::new().with("big", (1u64 << 40) + 5);
    let wire = oracle::encode_record(&rec, &st, &Architecture::X86_64).unwrap();
    let plan = ConversionPlan::build(&st, &Architecture::X86_64, &Architecture::I386).unwrap();
    match plan.convert(&wire.bytes) {
        Err(PbioError::Layout(LayoutError::ValueOutOfRange { field, .. })) => {
            assert_eq!(field, "big")
        }
        other => panic!("expected out of range, got {other:?}"),
    }
    let sent = oracle::decode_record(&wire.bytes, &st, &Architecture::X86_64).unwrap();
    match oracle::encode_record(&sent, &st, &Architecture::I386) {
        Err(LayoutError::ValueOutOfRange { field, .. }) => assert_eq!(field, "big"),
        other => panic!("expected out of range, got {other:?}"),
    }
}

#[test]
fn pure_swap_matches_oracle_bytes() {
    let prim = CType::Prim;
    let st = StructType::new(
        "tele",
        vec![
            StructField::new("a", prim(Primitive::ULongLong)),
            StructField::new("b", prim(Primitive::Double)),
            StructField::new("c", prim(Primitive::UInt)),
            StructField::new("d", prim(Primitive::UInt)),
            StructField::new("pts", CType::fixed_array(prim(Primitive::Double), 8)),
        ],
    );
    let rec = Record::new()
        .with("a", 0x0102_0304_0506_0708u64)
        .with("b", -2.5f64)
        .with("c", 7u64)
        .with("d", 0xDEAD_BEEFu64)
        .with("pts", vec![1.5f64, -0.0, 3.25, 4.0, 5.0, 6.0, 7.0, 8.0]);
    for (src, dst) in [
        (Architecture::X86_64, Architecture::POWER64),
        (Architecture::POWER64, Architecture::X86_64),
    ] {
        let wire = oracle::encode_record(&rec, &st, &src).unwrap();
        let plan = ConversionPlan::build(&st, &src, &dst).unwrap();
        assert_eq!(plan.tier(), PlanTier::PureSwap);
        let converted = plan.convert(&wire.bytes).unwrap();
        let direct = oracle::encode_record(&rec, &st, &dst).unwrap();
        assert_eq!(converted.bytes.as_ref(), direct.bytes.as_slice(), "{src} -> {dst}");
        assert_eq!(converted.fixed_len, direct.fixed_len);
    }
}
