//! Seeded differential of the compiled plans against the interpretive
//! codec they replaced (`clayout/tests/oracle`), committed and
//! deterministic: fixed seed, fixed counts, no environment.
//!
//! For generated struct types — every primitive width, strings, fixed
//! and dynamic arrays of primitives, strings and structs, nested
//! structs, empty arrays — on the six architectures:
//!
//! * the **encode plan** writes the oracle's bytes, for records in
//!   declaration order, shuffled, and with count fields omitted or
//!   supplied; a record with one defect (a wrong count, a missing field,
//!   a value of the wrong type or out of range, a fixed array of the
//!   wrong length) is refused with the oracle's error;
//! * the **view plan** — borrowed from the format, and owned by a view
//!   of a foreign-architecture payload — materializes the oracle's
//!   record, and `get(name)` is the `fields()` entry;
//! * on every **mutant** of an image (each truncation, flipped bytes in
//!   the fixed part where pointers and counts live, strings made
//!   non-UTF-8 or unterminated, random flips) both readers reach the
//!   same verdict: equal records, or the same kind of error. Reading
//!   outside the payload would be a panic, and fails the test.
//! * the **conversion plan** — the one engine behind every
//!   heterogeneous receive, for each of the 36 architecture pairs that
//!   is not an identity — turns an honest image into the bytes the
//!   oracle writes for the same record on the destination, which a view
//!   reads back as the record the oracle reads from the source;
//!   `convert_into` a used pool does what `convert` does; and every
//!   mutant is refused by conversion-then-view exactly when the oracle
//!   refuses to read it on the source or to write what it read on the
//!   destination (`ValueOutOfRange`, on both sides), with the same kind
//!   of error but for the one ordering `same_outcome` names.
//!
//! One difference is by design and asserted as such: a payload shorter
//! than the struct's fixed part is refused by `RecordView::over` as
//! truncated before any field is read, where the oracle reports
//! whatever the first unreadable field runs into (or nothing, when only
//! trailing padding is missing).

mod generator;
#[path = "../../clayout/tests/oracle/mod.rs"]
mod oracle;

use clayout::{Architecture, LayoutError, Record, StructType, Value};
use generator::{record_of, shuffled, structure, with_counts, with_one_defect, Rng};
use pbio::format::{Format, FormatId};
use pbio::{ConversionPlan, PbioError, RecordView};

const SEED: u64 = 0x91a7_d1ff_5eed_0016;
const TYPES: usize = 160;
const MIN_MUTANTS: usize = 20_000;

/// What a reader made of a payload: the record, or the kind of error.
#[derive(Debug)]
enum Verdict {
    Read(Record),
    Refused(&'static str),
}

/// Floats compare by bits: a mutant may well hold a NaN.
impl PartialEq for Verdict {
    fn eq(&self, other: &Verdict) -> bool {
        fn same(a: &Value, b: &Value) -> bool {
            match (a, b) {
                (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
                (Value::Array(a), Value::Array(b)) => {
                    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same(a, b))
                }
                (Value::Record(a), Value::Record(b)) => same_record(a, b),
                (a, b) => a == b,
            }
        }
        fn same_record(a: &Record, b: &Record) -> bool {
            a.len() == b.len()
                && a.iter()
                    .zip(b.iter())
                    .all(|((an, av), (bn, bv))| an == bn && same(av, bv))
        }
        match (self, other) {
            (Verdict::Read(a), Verdict::Read(b)) => same_record(a, b),
            (Verdict::Refused(a), Verdict::Refused(b)) => a == b,
            _ => false,
        }
    }
}

fn layout_kind(e: &LayoutError) -> &'static str {
    match e {
        LayoutError::Truncated { .. } => "truncated",
        LayoutError::BadPointer { .. } => "bad pointer",
        LayoutError::BadString { .. } => "bad string",
        LayoutError::BadCount { .. } => "bad count",
        LayoutError::ValueOutOfRange { .. } => "out of range",
        _ => "not a payload error",
    }
}

fn oracle_verdict(payload: &[u8], st: &StructType, arch: &Architecture) -> Verdict {
    match oracle::decode_record(payload, st, arch) {
        Ok(record) => Verdict::Read(record),
        Err(e) => Verdict::Refused(layout_kind(&e)),
    }
}

fn pbio_kind(e: &PbioError) -> &'static str {
    match e {
        PbioError::Truncated { .. } => "truncated",
        PbioError::Layout(e) => layout_kind(e),
        _ => "not a payload error",
    }
}

fn planned_verdict(payload: &[u8], format: &Format, arch: &Architecture) -> Verdict {
    match RecordView::over(payload, format, arch).and_then(|view| view.to_record()) {
        Ok(record) => Verdict::Read(record),
        Err(e) => Verdict::Refused(pbio_kind(&e)),
    }
}

/// What the oracle makes of a source-architecture payload that is to be
/// read on `native`'s architecture: the record it decodes, unless that
/// record cannot be written there (a `long` that needs 64 bits, on an
/// ILP32 reader).
fn oracle_conversion_verdict(payload: &[u8], src: &Architecture, native: &Format) -> Verdict {
    let st = native.struct_type();
    match oracle::decode_record(payload, st, src) {
        Ok(record) => match oracle::encode_record(&record, st, native.arch()) {
            Err(LayoutError::ValueOutOfRange { .. }) => Verdict::Refused("out of range"),
            _ => Verdict::Read(record),
        },
        Err(e) => Verdict::Refused(layout_kind(&e)),
    }
}

/// Equal verdicts — or a payload both refuse, for the one reason the
/// two-stage reader (convert, then view) names differently from the
/// one-pass oracle: a count field declared before its array and
/// narrower on the destination is converted, and found out of range,
/// before the array op reads it as a count. Conversion checks counts,
/// regions and strings by the view's rules, which are the oracle's.
fn same_outcome(converted: &Verdict, oracle: &Verdict) -> bool {
    converted == oracle
        || matches!(
            (converted, oracle),
            (Verdict::Refused("out of range"), Verdict::Refused("bad count"))
        )
}

/// What the conversion plan followed by a view of its output makes of
/// the same payload; `convert_into` a used pool must do what `convert`
/// does.
fn converted_verdict(
    payload: &[u8],
    plan: &ConversionPlan,
    native: &Format,
    pool: &mut Vec<u8>,
) -> Verdict {
    let converted = plan.convert(payload);
    let pooled = plan.convert_into(payload, pool);
    match (converted, pooled) {
        (Ok(image), Ok(fixed_len)) => {
            assert_eq!(image.fixed_len, fixed_len);
            assert_eq!(image.bytes.as_ref(), pool.as_slice());
            planned_verdict(&image.bytes, native, native.arch())
        }
        (Err(e), Err(pooled)) => {
            assert_eq!(pbio_kind(&e), pbio_kind(&pooled));
            Verdict::Refused(pbio_kind(&e))
        }
        (converted, pooled) => panic!("convert {converted:?} but convert_into {pooled:?}"),
    }
}

/// Mutants of `image`: every truncation, then seeded damage.
fn mutants(rng: &mut Rng, image: &[u8], fixed_len: usize) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..image.len()).map(|cut| image[..cut].to_vec()).collect();
    let mut damaged = |edit: &mut dyn FnMut(&mut Rng, &mut Vec<u8>)| {
        let mut mutant = image.to_vec();
        edit(rng, &mut mutant);
        out.push(mutant);
    };
    if image.is_empty() {
        return out;
    }
    for _ in 0..12 {
        // Pointer, count and length slots all live in the fixed part.
        if fixed_len > 0 {
            damaged(&mut |rng, m| m[rng.below(fixed_len)] = rng.next() as u8);
            damaged(&mut |rng, m| m[rng.below(fixed_len)] ^= 1 << rng.below(8));
        }
        // Anywhere: dynamic regions hold pointers and counts too.
        damaged(&mut |rng, m| {
            let at = rng.below(m.len());
            m[at] = rng.next() as u8;
        });
    }
    if image.len() > fixed_len {
        for _ in 0..6 {
            // Strings: not UTF-8, and unterminated.
            damaged(&mut |rng, m| {
                let at = fixed_len + rng.below(m.len() - fixed_len);
                m[at] = rng.pick(&[0xff, 0xc0, 0x80, 0xf8]);
            });
            damaged(&mut |rng, m| {
                let nuls: Vec<usize> = (fixed_len..m.len()).filter(|i| m[*i] == 0).collect();
                if !nuls.is_empty() {
                    m[rng.pick(&nuls)] = b'x';
                }
            });
        }
    }
    out
}

#[test]
fn plans_agree_with_the_interpretive_oracle() {
    let mut rng = Rng(SEED);
    let mut mutants_read = 0usize;
    let mut defects_refused = 0usize;
    for case in 0..TYPES {
        let st = structure(&mut rng, 0);
        let omitted = record_of(&mut rng, &st);
        let supplied = with_counts(&omitted, &st);
        let shuffled = shuffled(&mut rng, &supplied);
        let broken = with_one_defect(&mut rng, &supplied, &st);
        let foreign_arch = Architecture::ALL[case % Architecture::ALL.len()];

        for arch in &Architecture::ALL {
            let expected = oracle::encode_record(&omitted, &st, arch)
                .unwrap_or_else(|e| panic!("case {case} on {arch}: the oracle refuses {st}: {e}"));
            for (what, record) in [
                ("omitted", &omitted),
                ("supplied", &supplied),
                ("shuffled", &shuffled),
            ] {
                assert_eq!(
                    clayout::encode_record(record, &st, arch).as_ref(),
                    Ok(&expected),
                    "case {case} on {arch}, counts {what}: {st}\n{record}"
                );
                assert_eq!(
                    oracle::encode_record(record, &st, arch).as_ref(),
                    Ok(&expected)
                );
            }
            let refused = clayout::encode_record(&broken, &st, arch);
            assert_eq!(
                refused,
                oracle::encode_record(&broken, &st, arch),
                "case {case} on {arch}: {st}\n{broken}"
            );
            defects_refused += usize::from(refused.is_err());

            // The same payload read through the format's own plan and
            // through a plan a foreign-architecture view builds.
            let own = Format::new(FormatId(1), st.clone(), *arch).unwrap();
            let foreign = Format::new(FormatId(1), st.clone(), foreign_arch).unwrap();
            let read = oracle_verdict(&expected.bytes, &st, arch);
            assert!(
                matches!(read, Verdict::Read(_)),
                "case {case} on {arch}: {read:?}"
            );
            for format in [&own, &foreign] {
                assert_eq!(
                    planned_verdict(&expected.bytes, format, arch),
                    read,
                    "case {case} on {arch}"
                );
                let view = RecordView::over(&expected.bytes, format, arch).unwrap();
                assert!(view.arch().layout_compatible(arch));
                for (name, field) in view.fields() {
                    let by_index = field.unwrap().to_value().unwrap();
                    assert_eq!(
                        view.get(name).unwrap().to_value().unwrap(),
                        by_index,
                        "{name}"
                    );
                }
            }

            for mutant in mutants(&mut rng, &expected.bytes, expected.fixed_len) {
                let oracle = oracle_verdict(&mutant, &st, arch);
                for format in [&own, &foreign] {
                    let planned = planned_verdict(&mutant, format, arch);
                    if mutant.len() < expected.fixed_len {
                        assert_eq!(planned, Verdict::Refused("truncated"));
                    } else {
                        assert_eq!(
                            planned, oracle,
                            "case {case} on {arch}: {st}\nimage  {:02x?}\nmutant {mutant:02x?}",
                            expected.bytes
                        );
                    }
                }
                mutants_read += 1;
            }
        }
    }
    println!("{mutants_read} mutants read, {defects_refused} defective records refused");
    assert!(mutants_read >= MIN_MUTANTS, "only {mutants_read} mutants");
    // The generated defects are real ones, nearly always.
    assert!(
        defects_refused > TYPES * Architecture::ALL.len() * 9 / 10,
        "{defects_refused}"
    );
}

#[test]
fn conversion_agrees_with_the_interpretive_oracle() {
    let mut rng = Rng(SEED);
    let mut mutants_converted = 0usize;
    let mut pool = Vec::new();
    for case in 0..TYPES {
        let st = structure(&mut rng, 0);
        let record = record_of(&mut rng, &st);
        let natives: Vec<Format> = Architecture::ALL
            .iter()
            .map(|arch| Format::new(FormatId(1), st.clone(), *arch).unwrap())
            .collect();
        for src in &Architecture::ALL {
            let image = oracle::encode_record(&record, &st, src).unwrap();
            let sent = oracle::decode_record(&image.bytes, &st, src).unwrap();
            let mutants = mutants(&mut rng, &image.bytes, image.fixed_len);
            for native in &natives {
                let dst = native.arch();
                let plan = ConversionPlan::build(&st, src, dst).unwrap();
                // An identity plan hands the payload on untouched; the
                // view arm above is what reads it.
                if plan.is_identity() {
                    continue;
                }
                let context = || format!("case {case}, {src} -> {dst}: {st}");

                // An honest image converts to the bytes the oracle
                // writes for the same record on the destination, and
                // reads back as the record that was sent.
                let converted = plan.convert(&image.bytes).unwrap();
                let direct = oracle::encode_record(&record, &st, dst).unwrap();
                assert_eq!(converted.fixed_len, direct.fixed_len, "{}", context());
                assert_eq!(converted.bytes.as_ref(), direct.bytes.as_slice(), "{}", context());
                assert_eq!(
                    converted_verdict(&image.bytes, &plan, native, &mut pool),
                    Verdict::Read(sent.clone()),
                    "{}",
                    context()
                );

                for mutant in &mutants {
                    let converted = converted_verdict(mutant, &plan, native, &mut pool);
                    if mutant.len() < image.fixed_len {
                        assert_eq!(converted, Verdict::Refused("truncated"));
                    } else {
                        let oracle = oracle_conversion_verdict(mutant, src, native);
                        assert!(
                            same_outcome(&converted, &oracle),
                            "{}: converted {converted:?}, oracle {oracle:?}\nimage  {:02x?}\nmutant {mutant:02x?}",
                            context(),
                            image.bytes
                        );
                    }
                    mutants_converted += 1;
                }
            }
        }
    }
    println!("{mutants_converted} mutants converted");
    assert!(mutants_converted >= MIN_MUTANTS, "only {mutants_converted} mutants");
}
