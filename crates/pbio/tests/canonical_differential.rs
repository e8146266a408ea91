//! Seeded differential of the canonical walk behind `pbio::xdr` and
//! `pbio::cdr` against the hand-written walkers it replaced
//! (`canonical_oracle/`), committed and deterministic: fixed seed, fixed
//! counts, no environment.
//!
//! For generated struct types (`generator/`: every primitive width,
//! strings, fixed and dynamic arrays of primitives, strings and structs,
//! nested structs, empty arrays), under XDR and CDR in both byte orders:
//!
//! * **encode** writes the oracle's bytes for records with their count
//!   fields omitted, supplied and shuffled; a record with one defect is
//!   refused with the oracle's error, compared as its `Debug` text. The
//!   one exception is by design: a supplied count that contradicts its
//!   array, which the oracle writes as given, is refused with the error
//!   NDR's encode plan gives the same record.
//! * **decode** of every cut and of seeded byte flips of each honest
//!   message reaches the oracle's verdict: the same record, or the same
//!   error, compared as `Debug` text (so a NaN equals a NaN).

mod canonical_oracle;
mod generator;
#[path = "../../clayout/tests/oracle/mod.rs"]
mod oracle;

use clayout::{Architecture, ArrayLen, CType, Endianness, LayoutError, Record, StructType};
use generator::{record_of, shuffled, structure, with_counts, with_one_defect, Rng};
use pbio::{cdr, xdr, PbioError};

const SEED: u64 = 0x0ca4_0be1_5eed_0024;
const TYPES: usize = 160;
const FLIPS: usize = 24;
const MIN_MUTANTS: usize = 20_000;

type Encode = fn(&Record, &StructType) -> Result<Vec<u8>, PbioError>;
type Decode = fn(&[u8], &StructType) -> Result<Record, PbioError>;
type Codec = (Encode, Decode);

/// `(name, the library's codec, the oracle's)`.
const CODECS: [(&str, Codec, Codec); 3] = [
    (
        "xdr",
        (xdr::encode, xdr::decode),
        (canonical_oracle::xdr::encode, canonical_oracle::xdr::decode),
    ),
    (
        "cdr big-endian",
        (|r, st| cdr::encode(r, st, Endianness::Big), cdr::decode),
        (
            |r, st| canonical_oracle::cdr::encode(r, st, Endianness::Big),
            canonical_oracle::cdr::decode,
        ),
    ),
    (
        "cdr little-endian",
        (|r, st| cdr::encode(r, st, Endianness::Little), cdr::decode),
        (
            |r, st| canonical_oracle::cdr::encode(r, st, Endianness::Little),
            canonical_oracle::cdr::decode,
        ),
    ),
];

/// The error NDR gives a record whose supplied count contradicts its
/// dynamic array — the one defect the oracle does not look for.
fn count_contradiction(record: &Record, st: &StructType) -> Option<LayoutError> {
    st.fields.iter().find_map(|field| match &field.ty {
        CType::Array { len: ArrayLen::CountField(count), .. } => {
            let declared = record.get(count)?.as_u64()?;
            let actual = record.get(&field.name)?.as_array()?.len();
            (declared != actual as u64).then(|| LayoutError::ArrayLengthMismatch {
                field: field.name.clone(),
                declared: declared as usize,
                actual,
            })
        }
        _ => None,
    })
}

/// `wire` and every cut of it, then `FLIPS` seeded corruptions of it: a
/// byte replaced, a bit flipped, or a run of up to four bytes overwritten.
fn mutants(rng: &mut Rng, wire: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..=wire.len()).map(|cut| wire[..cut].to_vec()).collect();
    if wire.is_empty() {
        return out;
    }
    for i in 0..FLIPS {
        let mut mutant = wire.to_vec();
        let at = rng.below(wire.len());
        match i % 3 {
            0 => mutant[at] = rng.next() as u8,
            1 => mutant[at] ^= 1 << rng.below(8),
            _ => {
                for byte in mutant.iter_mut().skip(at).take(1 + rng.below(4)) {
                    *byte = rng.pick(&[0x00, 0xff, 0x7f, 0x80, 0x01]);
                }
            }
        }
        out.push(mutant);
    }
    out
}

#[test]
fn the_canonical_walk_agrees_with_the_hand_written_walkers() {
    let mut rng = Rng(SEED);
    let mut mutants_read = 0usize;
    let mut defects_refused = 0usize;
    let mut contradictions = 0usize;
    for case in 0..TYPES {
        let st = structure(&mut rng, 0);
        let omitted = record_of(&mut rng, &st);
        let supplied = with_counts(&omitted, &st);
        let shuffled = shuffled(&mut rng, &supplied);
        let broken = with_one_defect(&mut rng, &supplied, &st);
        let contradiction = count_contradiction(&broken, &st);
        if let Some(error) = &contradiction {
            // NDR refuses it so, on every architecture.
            for arch in &Architecture::ALL {
                assert_eq!(clayout::encode_record(&broken, &st, arch), Err(error.clone()));
            }
            contradictions += 1;
        }

        for (codec, (encode, decode), (oracle_encode, oracle_decode)) in CODECS {
            let context = || format!("case {case}, {codec}: {st}");
            let expected = oracle_encode(&omitted, &st)
                .unwrap_or_else(|e| panic!("{}: the oracle refuses it: {e}", context()));
            for record in [&omitted, &supplied, &shuffled] {
                assert_eq!(encode(record, &st).as_ref(), Ok(&expected), "{}\n{record}", context());
            }
            let refused = encode(&broken, &st);
            let oracle = match &contradiction {
                Some(error) => Err(PbioError::Layout(error.clone())),
                None => oracle_encode(&broken, &st),
            };
            assert_eq!(format!("{refused:?}"), format!("{oracle:?}"), "{}\n{broken}", context());
            defects_refused += usize::from(refused.is_err());

            assert!(decode(&expected, &st).is_ok(), "{}", context());
            for mutant in mutants(&mut rng, &expected) {
                let read = format!("{:?}", decode(&mutant, &st));
                let oracle = format!("{:?}", oracle_decode(&mutant, &st));
                assert_eq!(
                    read,
                    oracle,
                    "{}\nwire   {expected:02x?}\nmutant {mutant:02x?}",
                    context()
                );
                mutants_read += 1;
            }
        }
    }
    println!(
        "{mutants_read} mutants read, {defects_refused} defective records refused \
         ({contradictions} types with a contradicting count)"
    );
    assert!(mutants_read >= MIN_MUTANTS, "only {mutants_read} mutants");
    assert!(contradictions > 0, "no contradicting count was generated");
    // The generated defects are real ones, nearly always.
    assert!(defects_refused > TYPES * CODECS.len() * 8 / 10, "{defects_refused}");
}
