//! An XDR (RFC 1014) codec — the canonical-wire-format baseline.
//!
//! XDR is the "common wire format" the paper positions NDR against: every
//! value is translated to a canonical big-endian representation in 4-byte
//! units on the way out and translated again on the way in, *regardless*
//! of whether sender and receiver already agreed on representation. That
//! double translation (plus the copying it implies) is exactly the cost
//! NDR avoids.
//!
//! The walk and the reader are the shared canonical ones
//! (`canonical.rs`); what this module decides is the rules they follow:
//! big endian, every number at least one 4-byte unit wide and unaligned
//! beyond that, strings as length ∥ bytes ∥ zero padding to the unit.
//! Type mapping (following rpcgen conventions, widened where the C type
//! may be 8 bytes so no architecture loses data):
//!
//! | C type                  | XDR                                |
//! |-------------------------|------------------------------------|
//! | `char`..`int`, `enum`   | `int` (4 bytes)                    |
//! | `unsigned` variants     | `unsigned int` (4 bytes)           |
//! | `long`, `long long`     | `hyper` (8 bytes)                  |
//! | `float` / `double`      | 4 / 8 bytes IEEE                   |
//! | `char*`                 | `string` (length + bytes + pad)    |
//! | fixed array             | elements back to back              |
//! | dynamic array           | `unsigned int` count + elements    |
//! | nested struct           | fields back to back                |

use clayout::{Endianness, Record, StructType};

use crate::canonical::{self, Rules};
use crate::error::PbioError;

const RULES: Rules = Rules { order: Endianness::Big, unit: 4, align: false, nul: false };

/// Encodes `record` as an XDR stream for `st`.
///
/// A count field of a dynamic array the record omits is written from
/// the array's length; one it supplies must equal that length, as in
/// the NDR encoder.
///
/// # Errors
///
/// Reports missing fields, type mismatches, range overflows and array
/// lengths that disagree with the schema or with their count field.
pub fn encode(record: &Record, st: &StructType) -> Result<Vec<u8>, PbioError> {
    canonical::to_bytes(record, st, RULES, Vec::with_capacity(64))
}

/// Decodes an XDR stream produced by [`encode`] for `st`.
///
/// # Errors
///
/// Reports truncation, bad counts and malformed strings.
pub fn decode(bytes: &[u8], st: &StructType) -> Result<Record, PbioError> {
    canonical::decode(bytes, 0, RULES, st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clayout::{CType, LayoutError, Primitive, StructField};

    fn prim(p: Primitive) -> CType {
        CType::Prim(p)
    }

    fn structure_b() -> StructType {
        StructType::new(
            "asdOff",
            vec![
                StructField::new("cntrId", CType::String),
                StructField::new("fltNum", prim(Primitive::Int)),
                StructField::new("off", CType::fixed_array(prim(Primitive::ULong), 5)),
                StructField::new("eta", CType::dynamic_array(prim(Primitive::ULong), "eta_count")),
                StructField::new("eta_count", prim(Primitive::Int)),
            ],
        )
    }

    fn sample() -> Record {
        Record::new()
            .with("cntrId", "ZTL")
            .with("fltNum", -1202i64)
            .with("off", vec![1u64, 2, 3, 4, 5])
            .with("eta", vec![100u64, 200])
    }

    #[test]
    fn round_trip() {
        let st = structure_b();
        let wire = encode(&sample(), &st).unwrap();
        let back = decode(&wire, &st).unwrap();
        assert_eq!(back.get("cntrId").unwrap().as_str(), Some("ZTL"));
        assert_eq!(back.get("fltNum").unwrap().as_i64(), Some(-1202));
        assert_eq!(back.get("eta").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(back.get("eta_count").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn canonical_representation_is_big_endian_4_byte_units() {
        let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::Int))]);
        let wire = encode(&Record::new().with("x", 1i64), &st).unwrap();
        assert_eq!(wire, vec![0, 0, 0, 1]);
    }

    #[test]
    fn strings_are_length_prefixed_and_padded() {
        let st = StructType::new("t", vec![StructField::new("s", CType::String)]);
        let wire = encode(&Record::new().with("s", "abcde"), &st).unwrap();
        // 4 length + 5 bytes + 3 pad.
        assert_eq!(wire.len(), 12);
        assert_eq!(&wire[..4], &[0, 0, 0, 5]);
        assert_eq!(&wire[4..9], b"abcde");
        assert_eq!(&wire[9..], &[0, 0, 0]);
    }

    #[test]
    fn longs_are_hyper_8_bytes() {
        let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::ULong))]);
        let wire = encode(&Record::new().with("x", 1u64 << 40), &st).unwrap();
        assert_eq!(wire.len(), 8);
        let back = decode(&wire, &st).unwrap();
        assert_eq!(back.get("x").unwrap().as_u64(), Some(1 << 40));
    }

    #[test]
    fn small_ints_widen_to_4_bytes() {
        let st = StructType::new(
            "t",
            vec![
                StructField::new("c", prim(Primitive::Char)),
                StructField::new("s", prim(Primitive::Short)),
            ],
        );
        let wire = encode(&Record::new().with("c", -1i64).with("s", -2i64), &st).unwrap();
        assert_eq!(wire.len(), 8);
        let back = decode(&wire, &st).unwrap();
        assert_eq!(back.get("c").unwrap().as_i64(), Some(-1));
        assert_eq!(back.get("s").unwrap().as_i64(), Some(-2));
    }

    #[test]
    fn the_representation_is_architecture_independent() {
        // XDR has no architecture parameter at all; this is the point of
        // a canonical format and the reason it always pays translation.
        let st = structure_b();
        let wire = encode(&sample(), &st).unwrap();
        let again = encode(&sample(), &st).unwrap();
        assert_eq!(wire, again);
    }

    #[test]
    fn dynamic_arrays_carry_their_count() {
        let st = structure_b();
        let wire = encode(&sample(), &st).unwrap();
        // Find the count by decoding; also ensure empty arrays work.
        let empty = Record::new()
            .with("cntrId", "")
            .with("fltNum", 0i64)
            .with("off", vec![0u64; 5])
            .with("eta", Vec::<u64>::new());
        let wire_empty = encode(&empty, &st).unwrap();
        assert!(wire_empty.len() < wire.len());
        let back = decode(&wire_empty, &st).unwrap();
        assert_eq!(back.get("eta").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn nested_structs_round_trip() {
        let inner = StructType::new("pt", vec![StructField::new("x", prim(Primitive::Double))]);
        let outer = StructType::new(
            "w",
            vec![
                StructField::new("p", CType::Struct(inner)),
                StructField::new("tag", CType::String),
            ],
        );
        let rec = Record::new()
            .with("p", Record::new().with("x", 6.25f64))
            .with("tag", "t");
        let wire = encode(&rec, &outer).unwrap();
        let back = decode(&wire, &outer).unwrap();
        assert_eq!(back.get("p").unwrap().as_record().unwrap().get("x").unwrap().as_f64(), Some(6.25));
    }

    #[test]
    fn truncation_is_rejected_at_every_cut() {
        let st = structure_b();
        let wire = encode(&sample(), &st).unwrap();
        for cut in 0..wire.len() {
            assert!(decode(&wire[..cut], &st).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn absurd_counts_are_rejected() {
        let st = StructType::new(
            "t",
            vec![
                StructField::new("xs", CType::dynamic_array(prim(Primitive::Int), "n")),
                StructField::new("n", prim(Primitive::Int)),
            ],
        );
        // Hand-craft: count u32 = huge.
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF];
        assert!(matches!(
            decode(&bytes, &st),
            Err(PbioError::Layout(LayoutError::BadCount { .. }))
        ));
    }

    #[test]
    fn claimed_lengths_are_clamped_against_remaining_not_total_input() {
        // String: the length word claims 10 bytes when only 8 remain
        // (but the whole buffer is 16) — must fail as BadCount, before
        // any read or allocation.
        let st = StructType::new(
            "t",
            vec![
                StructField::new("a", prim(Primitive::Int)),
                StructField::new("s", CType::String),
            ],
        );
        let mut bytes = vec![0u8; 4]; // a = 0
        bytes.extend_from_slice(&10u32.to_be_bytes()); // s claims 10
        bytes.extend_from_slice(&[0u8; 8]); // only 8 bytes remain
        assert!(matches!(
            decode(&bytes, &st),
            Err(PbioError::Layout(LayoutError::BadCount { .. }))
        ));

        // Array: 8-byte elements, 16 bytes remain, count claims 3 —
        // bounded by remaining/elem_size = 2, so rejected up front.
        let st = StructType::new(
            "t",
            vec![
                StructField::new("xs", CType::dynamic_array(prim(Primitive::ULong), "n")),
                StructField::new("n", prim(Primitive::Int)),
            ],
        );
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&3u32.to_be_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            decode(&bytes, &st),
            Err(PbioError::Layout(LayoutError::BadCount { .. }))
        ));
    }

    #[test]
    fn hostile_u32_max_count_is_rejected_without_allocation() {
        let st = StructType::new(
            "t",
            vec![
                StructField::new("xs", CType::dynamic_array(prim(Primitive::Int), "n")),
                StructField::new("n", prim(Primitive::Int)),
            ],
        );
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            decode(&bytes, &st),
            Err(PbioError::Layout(LayoutError::BadCount { count, .. })) if count == u32::MAX as i64
        ));
    }

    #[test]
    fn out_of_range_values_are_rejected_on_encode() {
        let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::Int))]);
        let rec = Record::new().with("x", i64::MAX);
        assert!(matches!(
            encode(&rec, &st),
            Err(PbioError::Layout(LayoutError::ValueOutOfRange { .. }))
        ));
    }

    #[test]
    fn missing_count_field_is_derived() {
        let st = structure_b();
        // `eta_count` never set explicitly in sample(); encode succeeded.
        let wire = encode(&sample(), &st).unwrap();
        let back = decode(&wire, &st).unwrap();
        assert_eq!(back.get("eta_count").unwrap().as_u64(), Some(2));
    }
}
