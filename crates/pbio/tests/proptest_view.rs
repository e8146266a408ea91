//! Property tests for the borrowed decoder: [`pbio::RecordView`] must
//! agree field-for-field with the allocating [`pbio::ndr::decode_with`]
//! path on the architecture matrix the paper exercises (little-endian
//! LP64 x86-64 and big-endian ILP32 sparc32), and must reject truncated
//! buffers cleanly at every cut point.

use clayout::{
    Architecture, CType, Endianness, Primitive, Record, SizeAlign, StructField, StructType, Value,
};
use pbio::format::{Format, FormatId};
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

/// The paper's heterogeneity axis in miniature: opposite endianness,
/// word size and pointer width.
fn arch_strategy() -> impl Strategy<Value = Architecture> {
    proptest::sample::select(vec![Architecture::X86_64, Architecture::SPARC32])
}

#[derive(Debug, Clone)]
enum Spec {
    Prim(Primitive, i64),
    Str(String),
    FixedArr(Primitive, Vec<i64>),
    DynArr(Primitive, Vec<i64>),
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    prop_oneof![
        3 => (prim_strategy(), any::<i64>()).prop_map(|(p, s)| Spec::Prim(p, s)),
        2 => "[ -~]{0,20}".prop_map(Spec::Str),
        1 => (prim_strategy(), proptest::collection::vec(any::<i64>(), 1..5))
            .prop_map(|(p, xs)| Spec::FixedArr(p, xs)),
        1 => (prim_strategy(), proptest::collection::vec(any::<i64>(), 0..5))
            .prop_map(|(p, xs)| Spec::DynArr(p, xs)),
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
        }
    }
    (StructType::new("Gen", fields), record)
}

/// A 68k-like ABI: big-endian ILP32 with every multi-byte scalar
/// 2-aligned. Its wire descriptor cannot say "2-aligned `int`", so it
/// maps back to a different (naturally aligned) architecture.
fn unmapped_custom_arch() -> Architecture {
    let two = |size| SizeAlign::with_align(size, 2);
    let arch = Architecture {
        name: "m68k",
        endianness: Endianness::Big,
        short: two(2),
        int: two(4),
        long: two(4),
        long_long: two(8),
        pointer: two(4),
        float: two(4),
        double: two(8),
    };
    assert!(!Architecture::from_descriptor(arch.descriptor()).layout_compatible(&arch));
    arch
}

/// The message itself, every cut of its payload (the header's lengths
/// patched to match, so the payload is what is short) and every single
/// byte flip of its payload.
fn payload_mutants(wire: &[u8], header_len: usize) -> Vec<Vec<u8>> {
    use pbio::header::{FIXED_LEN_OFFSET, PAYLOAD_LEN_OFFSET};
    let fixed_len = u32::from_le_bytes(wire[FIXED_LEN_OFFSET..][..4].try_into().unwrap());
    let mut mutants = vec![wire.to_vec()];
    for cut in 0..wire.len() - header_len {
        let mut m = wire[..header_len + cut].to_vec();
        m[PAYLOAD_LEN_OFFSET..][..4].copy_from_slice(&(cut as u32).to_le_bytes());
        m[FIXED_LEN_OFFSET..][..4].copy_from_slice(&fixed_len.min(cut as u32).to_le_bytes());
        mutants.push(m);
    }
    for at in header_len..wire.len() {
        let mut m = wire.to_vec();
        m[at] ^= 0xA5;
        mutants.push(m);
    }
    mutants
}

/// What a view yields, compared whole: the arch it reports and its
/// record, or the error (by its debug form: kind and detail).
fn outcome(
    view: Result<pbio::RecordView<'_>, pbio::PbioError>,
) -> Result<(String, Record), String> {
    let view = view.map_err(|e| format!("{e:?}"))?;
    let record = view.to_record().map_err(|e| format!("{e:?}"))?;
    Ok((format!("{:?}", view.arch()), record))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lazy view and the eager decoder read the same wire bytes, so
    /// they must produce identical values — per field through
    /// `RecordView::get`, and wholesale through `to_record` — for every
    /// (sender, receiver) pair in the matrix, including the
    /// heterogeneous ones where the view falls back to an owned layout.
    #[test]
    fn view_agrees_with_decode(
        specs in proptest::collection::vec(spec_strategy(), 1..6),
        sender in arch_strategy(),
        receiver in arch_strategy(),
    ) {
        let (st, record) = build(&specs);
        let sender_fmt = Format::new(FormatId(1), st.clone(), sender).unwrap();
        let wire = pbio::ndr::encode(&record, &sender_fmt).unwrap();

        // The receiver resolves the same struct type on its own arch.
        let receiver_fmt = Format::new(FormatId(1), st, receiver).unwrap();
        let decoded = pbio::ndr::decode_with(&wire, &receiver_fmt).unwrap();
        let view = pbio::ndr::view_with(&wire, &receiver_fmt).unwrap();

        prop_assert_eq!(view.arch(), &sender, "view reports the sender arch");
        for (name, _) in decoded.iter() {
            let via_view = view.get(name).unwrap().to_value().unwrap();
            prop_assert_eq!(
                Some(&via_view), decoded.get(name),
                "field {} ({} -> {})", name, sender, receiver
            );
        }
        prop_assert_eq!(&view.to_record().unwrap(), &decoded);
    }

    /// `view_with` borrows the format's plan straight from a header
    /// descriptor equal to the format's own; that shortcut must be
    /// invisible. For every (format arch, sender arch) pair — the six
    /// presets and a custom ABI whose descriptor does not map back to
    /// it — the record, the reported arch and the error of every
    /// payload cut and byte flip equal `RecordView::over` with the
    /// architecture rebuilt from the header.
    #[test]
    fn view_with_equals_over_the_rebuilt_sender_arch(
        specs in proptest::collection::vec(spec_strategy(), 1..5),
    ) {
        let (st, record) = build(&specs);
        let archs: Vec<Architecture> =
            Architecture::ALL.into_iter().chain([unmapped_custom_arch()]).collect();
        for sender in &archs {
            let wire =
                pbio::ndr::encode(&record, &Format::new(FormatId(1), st.clone(), *sender).unwrap())
                    .unwrap();
            let peek = pbio::header::WireHeader::peek(&wire).unwrap();
            for format_arch in &archs {
                let format = Format::new(FormatId(1), st.clone(), *format_arch).unwrap();
                for mutant in payload_mutants(&wire, peek.header_len) {
                    let (peek, payload) = pbio::ndr::split(&mutant).unwrap();
                    let want = outcome(pbio::RecordView::over(payload, &format, &peek.arch()));
                    let got = outcome(pbio::ndr::view_with(&mutant, &format));
                    prop_assert_eq!(got, want, "{} -> {}", sender, format_arch);
                }
            }
        }
    }

    /// Cutting the wire buffer anywhere must never panic: either view
    /// construction fails, or some field access reports an error —
    /// truncation is always detected because the variable section
    /// carries no trailing don't-care bytes.
    #[test]
    fn view_rejects_truncation_at_every_cut(
        specs in proptest::collection::vec(spec_strategy(), 1..5),
        sender in arch_strategy(),
    ) {
        let (st, record) = build(&specs);
        let format = Format::new(FormatId(1), st, sender).unwrap();
        let wire = pbio::ndr::encode(&record, &format).unwrap();

        for cut in 0..wire.len() {
            match pbio::ndr::view_with(&wire[..cut], &format) {
                Err(_) => {}
                Ok(view) => {
                    prop_assert!(
                        view.to_record().is_err(),
                        "cut {} of {} produced a fully readable view",
                        cut,
                        wire.len()
                    );
                }
            }
        }
    }
}
