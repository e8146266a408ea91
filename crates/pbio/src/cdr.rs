//! A CDR codec in the style of CORBA/IIOP — the object-system baseline.
//!
//! Paper §6: "CORBA-based object systems use IIOP as a wire format. IIOP
//! attempts to reduce marshalling overhead by adopting a
//! 'reader-makes-right' approach with respect to byte order (the actual
//! byte order used in a message is specified by a header field). This
//! additional flexibility … allows CORBA to avoid unnecessary
//! byte-swapping in message exchanges between homogeneous systems but is
//! not sufficient to allow such message exchanges without copying of
//! data at both sender and receiver."
//!
//! This module reproduces that exact middle ground: the sender writes in
//! its own byte order behind a flag byte (so homogeneous pairs skip
//! swaps), but the representation is still a *canonical walk* of the
//! structure with CDR alignment — every field is visited and copied on
//! both ends, unlike NDR's image transmission.
//!
//! Encoding: `flag ∥ 3 pad bytes ∥ body`. The walk and the reader are the
//! shared canonical ones (`canonical.rs`); what this module decides is
//! the rules the body follows: the sender's byte order; primitives at
//! their C size (`char` 1, `short` 2, `int`/`enum`/`float` 4, and both C
//! `long` and `long long` as CDR `long long`, 8) aligned to that size
//! relative to the body's start; strings as `u32 length (incl. NUL) ∥
//! bytes ∥ NUL`; sequences as `u32 count ∥ elements`; structs as their
//! members in order.

use clayout::{Endianness, Record, StructType};

use crate::canonical::{self, Rules};
use crate::error::PbioError;

fn rules(order: Endianness) -> Rules {
    Rules { order, unit: 1, align: true, nul: true }
}

/// Encodes `record` as a CDR message in `order` byte order (the sender
/// passes its native order — that is the IIOP trick).
///
/// Count fields are synthesized or checked as by [`crate::xdr::encode`].
///
/// # Errors
///
/// Reports missing fields, type mismatches, range overflows and array
/// lengths that disagree with the schema or with their count field.
pub fn encode(
    record: &Record,
    st: &StructType,
    order: Endianness,
) -> Result<Vec<u8>, PbioError> {
    let mut out = Vec::with_capacity(64);
    out.push(match order {
        Endianness::Big => 0,
        Endianness::Little => 1,
    });
    out.resize(4, 0); // pad so the body starts aligned
    canonical::to_bytes(record, st, rules(order), out)
}

/// Decodes a CDR message (the byte-order flag selects swap or no-swap —
/// but the walk and the copy always happen, which is the cost the paper
/// calls out).
///
/// # Errors
///
/// Reports truncation, bad counts and malformed strings.
pub fn decode(bytes: &[u8], st: &StructType) -> Result<Record, PbioError> {
    if bytes.len() < 4 {
        return Err(PbioError::Truncated { need: 4, have: bytes.len() });
    }
    let order = match bytes[0] {
        0 => Endianness::Big,
        1 => Endianness::Little,
        other => {
            return Err(PbioError::Text {
                detail: format!("invalid CDR byte-order flag {other}"),
            })
        }
    };
    canonical::decode(bytes, 4, rules(order), st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clayout::{CType, LayoutError, Primitive, StructField};

    fn prim(p: Primitive) -> CType {
        CType::Prim(p)
    }

    fn structure() -> StructType {
        StructType::new(
            "t",
            vec![
                StructField::new("tag", prim(Primitive::Char)),
                StructField::new("count", prim(Primitive::Int)),
                StructField::new("label", CType::String),
                StructField::new("weights", CType::dynamic_array(prim(Primitive::Double), "n")),
                StructField::new("n", prim(Primitive::Int)),
            ],
        )
    }

    fn sample() -> Record {
        Record::new()
            .with("tag", 7i64)
            .with("count", -42i64)
            .with("label", "gate B12")
            .with("weights", vec![1.5f64, -2.25])
    }

    #[test]
    fn round_trips_in_both_byte_orders() {
        let st = structure();
        for order in [Endianness::Little, Endianness::Big] {
            let wire = encode(&sample(), &st, order).unwrap();
            let back = decode(&wire, &st).unwrap();
            assert_eq!(back.get("count").unwrap().as_i64(), Some(-42), "{order}");
            assert_eq!(back.get("label").unwrap().as_str(), Some("gate B12"), "{order}");
            assert_eq!(back.get("weights").unwrap().as_array().unwrap().len(), 2);
            assert_eq!(back.get("n").unwrap().as_u64(), Some(2));
        }
    }

    #[test]
    fn byte_order_flag_controls_representation() {
        let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::Int))]);
        let rec = Record::new().with("x", 1i64);
        let le = encode(&rec, &st, Endianness::Little).unwrap();
        let be = encode(&rec, &st, Endianness::Big).unwrap();
        assert_eq!(le[0], 1);
        assert_eq!(be[0], 0);
        assert_eq!(&le[4..8], &[1, 0, 0, 0]);
        assert_eq!(&be[4..8], &[0, 0, 0, 1]);
        // Either decodes to the same value: reader makes right.
        assert_eq!(decode(&le, &st).unwrap(), decode(&be, &st).unwrap());
    }

    #[test]
    fn cdr_alignment_is_relative_to_body() {
        // char at 0, then int must align to 4 within the body.
        let st = StructType::new(
            "t",
            vec![
                StructField::new("c", prim(Primitive::Char)),
                StructField::new("x", prim(Primitive::Int)),
            ],
        );
        let rec = Record::new().with("c", 1i64).with("x", 2i64);
        let wire = encode(&rec, &st, Endianness::Little).unwrap();
        // 4 header + 1 char + 3 pad + 4 int = 12.
        assert_eq!(wire.len(), 12);
        assert_eq!(wire[4], 1);
        assert_eq!(&wire[8..12], &[2, 0, 0, 0]);
    }

    #[test]
    fn strings_carry_length_including_nul() {
        let st = StructType::new("t", vec![StructField::new("s", CType::String)]);
        let wire = encode(&Record::new().with("s", "abc"), &st, Endianness::Big).unwrap();
        assert_eq!(&wire[4..8], &[0, 0, 0, 4]); // 3 chars + NUL
        assert_eq!(&wire[8..12], b"abc\0");
    }

    #[test]
    fn doubles_align_to_eight() {
        let st = StructType::new(
            "t",
            vec![
                StructField::new("x", prim(Primitive::Int)),
                StructField::new("d", prim(Primitive::Double)),
            ],
        );
        let rec = Record::new().with("x", 1i64).with("d", 2.0f64);
        let wire = encode(&rec, &st, Endianness::Little).unwrap();
        // body: int at 0..4, pad to 8, double at 8..16 → 4 + 16 = 20.
        assert_eq!(wire.len(), 20);
    }

    #[test]
    fn c_long_travels_as_8_bytes_regardless_of_abi() {
        let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::ULong))]);
        let rec = Record::new().with("x", 1u64 << 40);
        let wire = encode(&rec, &st, Endianness::Little).unwrap();
        let back = decode(&wire, &st).unwrap();
        assert_eq!(back.get("x").unwrap().as_u64(), Some(1 << 40));
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let st = structure();
        let wire = encode(&sample(), &st, Endianness::Little).unwrap();
        for cut in 0..wire.len() {
            assert!(decode(&wire[..cut], &st).is_err(), "cut {cut}");
        }
        let mut bad_flag = wire.clone();
        bad_flag[0] = 9;
        assert!(decode(&bad_flag, &st).is_err());
    }

    #[test]
    fn hostile_claimed_lengths_are_clamped_against_remaining_input() {
        // Array of doubles: count claims u32::MAX with 64 bytes of body.
        let st = StructType::new(
            "t",
            vec![
                StructField::new("xs", CType::dynamic_array(prim(Primitive::Double), "n")),
                StructField::new("n", prim(Primitive::Int)),
            ],
        );
        let mut bytes = vec![0u8, 0, 0, 0]; // big-endian flag + pad
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            decode(&bytes, &st),
            Err(PbioError::Layout(LayoutError::BadCount { .. }))
        ));

        // String: length (incl. NUL) claims more than remains.
        let st = StructType::new("t", vec![StructField::new("s", CType::String)]);
        let mut bytes = vec![0u8, 0, 0, 0];
        bytes.extend_from_slice(&100u32.to_be_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decode(&bytes, &st),
            Err(PbioError::Layout(LayoutError::BadCount { .. }))
        ));
    }

    #[test]
    fn nested_structs_round_trip() {
        let inner = StructType::new(
            "pt",
            vec![
                StructField::new("a", prim(Primitive::Char)),
                StructField::new("b", prim(Primitive::Double)),
            ],
        );
        let outer = StructType::new(
            "w",
            vec![
                StructField::new("head", prim(Primitive::Char)),
                StructField::new("p", CType::Struct(inner)),
            ],
        );
        let rec = Record::new()
            .with("head", 3i64)
            .with("p", Record::new().with("a", 1i64).with("b", 0.5f64));
        let wire = encode(&rec, &outer, Endianness::Big).unwrap();
        let back = decode(&wire, &outer).unwrap();
        let p = back.get("p").unwrap().as_record().unwrap();
        assert_eq!(p.get("b").unwrap().as_f64(), Some(0.5));
    }

    #[test]
    fn empty_dynamic_array() {
        let st = StructType::new(
            "t",
            vec![
                StructField::new("xs", CType::dynamic_array(prim(Primitive::Int), "n")),
                StructField::new("n", prim(Primitive::Int)),
            ],
        );
        let rec = Record::new().with("xs", Vec::<i64>::new());
        let wire = encode(&rec, &st, Endianness::Little).unwrap();
        let back = decode(&wire, &st).unwrap();
        assert!(back.get("xs").unwrap().as_array().unwrap().is_empty());
    }
}
