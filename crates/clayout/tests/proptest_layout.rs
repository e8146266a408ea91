//! Property tests: layout invariants hold for arbitrary struct types, and
//! encode→decode is the identity for matching records, on every
//! architecture — the planned encoder against the interpretive oracle,
//! byte for byte, read back by the oracle decoder. (Corrupted images are
//! pbio's `plan_differential`: the library's reader lives there.)

mod oracle;

use clayout::{
    encode_record, ArrayLen, Architecture, CType, Layout, Primitive, Record, StructField,
    StructType, Value,
};
use oracle::decode_record;
use proptest::prelude::*;

/// Scalar-capable primitives (everything; enum behaves like int).
fn primitive_strategy() -> impl Strategy<Value = Primitive> {
    proptest::sample::select(Primitive::ALL.to_vec())
}

fn arch_strategy() -> impl Strategy<Value = Architecture> {
    proptest::sample::select(Architecture::ALL.to_vec())
}

/// A struct type paired with a generator for matching records.
///
/// Field kinds: primitive scalar, string, fixed array of primitives,
/// dynamic array of primitives (with its count field), nested flat struct.
#[derive(Debug, Clone)]
enum FieldSpec {
    Prim(Primitive),
    Str,
    FixedArray(Primitive, usize),
    DynArray(Primitive),
    Nested(Vec<(String, Primitive)>),
}

fn field_spec_strategy() -> impl Strategy<Value = FieldSpec> {
    prop_oneof![
        4 => primitive_strategy().prop_map(FieldSpec::Prim),
        2 => Just(FieldSpec::Str),
        1 => (primitive_strategy(), 1usize..6).prop_map(|(p, n)| FieldSpec::FixedArray(p, n)),
        1 => primitive_strategy().prop_map(FieldSpec::DynArray),
        1 => proptest::collection::vec(("f[a-z]{1,4}", primitive_strategy()), 1..4)
            .prop_map(|fields| {
                let mut seen = Vec::new();
                for (i, (name, p)) in fields.into_iter().enumerate() {
                    seen.push((format!("{name}{i}"), p));
                }
                FieldSpec::Nested(seen)
            }),
    ]
}

fn build_struct(specs: &[FieldSpec]) -> StructType {
    let mut fields = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let name = format!("field{i}");
        match spec {
            FieldSpec::Prim(p) => fields.push(StructField::new(name, CType::Prim(*p))),
            FieldSpec::Str => fields.push(StructField::new(name, CType::String)),
            FieldSpec::FixedArray(p, n) => fields.push(StructField::new(
                name,
                CType::Array { elem: Box::new(CType::Prim(*p)), len: ArrayLen::Fixed(*n) },
            )),
            FieldSpec::DynArray(p) => {
                let count = format!("{name}_count");
                fields.push(StructField::new(
                    &name,
                    CType::Array {
                        elem: Box::new(CType::Prim(*p)),
                        len: ArrayLen::CountField(count.clone()),
                    },
                ));
                fields.push(StructField::new(count, CType::Prim(Primitive::Int)));
            }
            FieldSpec::Nested(inner_fields) => {
                let inner = StructType::new(
                    format!("inner{i}"),
                    inner_fields
                        .iter()
                        .map(|(n, p)| StructField::new(n.clone(), CType::Prim(*p)))
                        .collect(),
                );
                fields.push(StructField::new(name, CType::Struct(inner)));
            }
        }
    }
    StructType::new("generated", fields)
}

/// A value guaranteed to fit the primitive on every architecture (ILP32
/// `long` is the narrowest long, so stay within 32 bits for longs).
fn prim_value(p: Primitive, seed: i64) -> Value {
    if p.is_float() {
        return Value::Float((seed as f64) * 0.5);
    }
    let magnitude: i64 = match p {
        Primitive::Char => seed.rem_euclid(128),
        Primitive::UChar => seed.rem_euclid(256),
        Primitive::Short => seed.rem_euclid(1 << 15),
        Primitive::UShort => seed.rem_euclid(1 << 16),
        _ => seed.rem_euclid(1 << 31),
    };
    if p.is_unsigned_integer() {
        Value::UInt(magnitude as u64)
    } else {
        let signed = if seed % 2 == 0 { magnitude } else { -magnitude - 1 };
        let signed = match p {
            Primitive::Char => signed.clamp(-128, 127),
            Primitive::Short => signed.clamp(-(1 << 15), (1 << 15) - 1),
            _ => signed,
        };
        Value::Int(signed)
    }
}

fn build_record(specs: &[FieldSpec], seeds: &[i64], strings: &[String]) -> Record {
    let mut record = Record::new();
    for (i, spec) in specs.iter().enumerate() {
        let name = format!("field{i}");
        let seed = seeds[i % seeds.len()];
        match spec {
            FieldSpec::Prim(p) => record.set(name, prim_value(*p, seed)),
            FieldSpec::Str => {
                record.set(name, strings[i % strings.len()].clone());
            }
            FieldSpec::FixedArray(p, n) => {
                let items: Vec<Value> =
                    (0..*n).map(|k| prim_value(*p, seed.wrapping_add(k as i64))).collect();
                record.set(name, Value::Array(items));
            }
            FieldSpec::DynArray(p) => {
                let len = seed.rem_euclid(5) as usize;
                let items: Vec<Value> =
                    (0..len).map(|k| prim_value(*p, seed.wrapping_mul(3).wrapping_add(k as i64))).collect();
                record.set(name, Value::Array(items));
            }
            FieldSpec::Nested(inner_fields) => {
                let mut inner = Record::new();
                for (k, (n, p)) in inner_fields.iter().enumerate() {
                    inner.set(n.clone(), prim_value(*p, seed.wrapping_add(k as i64)));
                }
                record.set(name, Value::Record(inner));
            }
        }
    }
    record
}

/// Compares records allowing for representation-level equivalences
/// (floats narrow through `float` fields; count fields are synthesized).
fn assert_equivalent(spec: &FieldSpec, idx: usize, original: &Record, decoded: &Record) {
    let name = format!("field{idx}");
    let a = original.get(&name);
    let b = decoded.get(&name);
    match spec {
        FieldSpec::Prim(p) => assert_prim_eq(*p, a.unwrap(), b.unwrap(), &name),
        FieldSpec::Str => assert_eq!(a.unwrap().as_str(), b.unwrap().as_str(), "{name}"),
        FieldSpec::FixedArray(p, _) | FieldSpec::DynArray(p) => {
            let xs = a.unwrap().as_array().unwrap();
            let ys = b.unwrap().as_array().unwrap();
            assert_eq!(xs.len(), ys.len(), "{name}");
            for (x, y) in xs.iter().zip(ys) {
                assert_prim_eq(*p, x, y, &name);
            }
        }
        FieldSpec::Nested(inner_fields) => {
            let x = a.unwrap().as_record().unwrap();
            let y = b.unwrap().as_record().unwrap();
            for (n, p) in inner_fields {
                assert_prim_eq(*p, x.get(n).unwrap(), y.get(n).unwrap(), n);
            }
        }
    }
}

fn assert_prim_eq(p: Primitive, a: &Value, b: &Value, name: &str) {
    if p == Primitive::Float {
        let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
        assert!(((x as f32) as f64 - y).abs() < 1e-6, "{name}: {x} vs {y}");
    } else if p == Primitive::Double {
        assert_eq!(a.as_f64(), b.as_f64(), "{name}");
    } else if p.is_unsigned_integer() {
        assert_eq!(a.as_u64(), b.as_u64(), "{name}");
    } else {
        assert_eq!(a.as_i64(), b.as_i64(), "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn layout_invariants_hold(
        specs in proptest::collection::vec(field_spec_strategy(), 1..8),
        arch in arch_strategy(),
    ) {
        let st = build_struct(&specs);
        let layout = Layout::of_struct(&st, &arch).unwrap();
        let mut prev_end = 0usize;
        for f in &layout.fields {
            prop_assert_eq!(f.offset % f.align, 0);
            prop_assert!(f.offset >= prev_end);
            // Padding gaps never exceed align - 1.
            prop_assert!(f.offset - prev_end < f.align.max(1));
            prev_end = f.offset + f.size;
        }
        prop_assert!(layout.size >= prev_end);
        prop_assert_eq!(layout.size % layout.align.max(1), 0);
    }

    #[test]
    fn encode_decode_round_trip(
        specs in proptest::collection::vec(field_spec_strategy(), 1..8),
        seeds in proptest::collection::vec(any::<i64>(), 1..8),
        strings in proptest::collection::vec("[ -~]{0,24}", 1..4),
        arch in arch_strategy(),
    ) {
        let st = build_struct(&specs);
        let record = build_record(&specs, &seeds, &strings);
        let image = encode_record(&record, &st, &arch).unwrap();
        prop_assert_eq!(&image, &oracle::encode_record(&record, &st, &arch).unwrap());
        let decoded = decode_record(&image.bytes, &st, &arch).unwrap();
        for (i, spec) in specs.iter().enumerate() {
            assert_equivalent(spec, i, &record, &decoded);
        }
    }
}
