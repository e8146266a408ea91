//! An XDR (RFC 1014) codec — the canonical-wire-format baseline.
//!
//! XDR is the "common wire format" the paper positions NDR against: every
//! value is translated to a canonical big-endian representation in 4-byte
//! units on the way out and translated again on the way in, *regardless*
//! of whether sender and receiver already agreed on representation. That
//! double translation (plus the copying it implies) is exactly the cost
//! NDR avoids.
//!
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

use clayout::image::{fits_signed, fits_unsigned};
use clayout::{ArrayLen, CType, LayoutError, Primitive, Record, StructType, Value};

use crate::error::PbioError;

/// XDR unit size: everything is padded to 4 bytes.
const UNIT: usize = 4;

fn xdr_width(p: Primitive) -> usize {
    match p {
        Primitive::Long | Primitive::ULong | Primitive::LongLong | Primitive::ULongLong => 8,
        Primitive::Double => 8,
        _ => 4,
    }
}

/// Encodes `record` as an XDR stream for `st`.
///
/// Count fields of dynamic arrays are synchronized from array lengths,
/// as in the NDR encoder.
///
/// # Errors
///
/// Reports missing fields, type mismatches and range overflows.
pub fn encode(record: &Record, st: &StructType) -> Result<Vec<u8>, PbioError> {
    let mut out = Vec::with_capacity(64);
    encode_struct(record, st, &mut out)?;
    Ok(out)
}

fn encode_struct(record: &Record, st: &StructType, out: &mut Vec<u8>) -> Result<(), PbioError> {
    for field in &st.fields {
        match record.get(&field.name) {
            Some(value) => encode_value(value, &field.ty, &field.name, out)?,
            None => {
                // Count fields may be absent from the record; derive them.
                let derived = derive_count(record, st, &field.name)?.ok_or_else(|| {
                    PbioError::Layout(LayoutError::MissingField { field: field.name.clone() })
                })?;
                encode_value(&derived, &field.ty, &field.name, out)?;
            }
        }
    }
    Ok(())
}

/// If `name` is the count field of some dynamic array in `st`, returns
/// the array's length as a value.
fn derive_count(
    record: &Record,
    st: &StructType,
    name: &str,
) -> Result<Option<Value>, PbioError> {
    for field in &st.fields {
        if let CType::Array { len: ArrayLen::CountField(count), .. } = &field.ty {
            if count == name {
                let arr = record
                    .get(&field.name)
                    .and_then(Value::as_array)
                    .ok_or_else(|| {
                        PbioError::Layout(LayoutError::MissingField {
                            field: field.name.clone(),
                        })
                    })?;
                return Ok(Some(Value::UInt(arr.len() as u64)));
            }
        }
    }
    Ok(None)
}

fn encode_value(
    value: &Value,
    ty: &CType,
    field: &str,
    out: &mut Vec<u8>,
) -> Result<(), PbioError> {
    match ty {
        CType::Prim(p) => encode_prim(value, *p, field, out),
        CType::String => {
            let s = value.as_str().ok_or_else(|| type_mismatch(field, "string", value))?;
            out.extend_from_slice(&(s.len() as u32).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
            pad(out, s.len());
            Ok(())
        }
        CType::Array { elem, len } => {
            let items = value.as_array().ok_or_else(|| type_mismatch(field, "array", value))?;
            match len {
                ArrayLen::Fixed(n) => {
                    if items.len() != *n {
                        return Err(PbioError::Layout(LayoutError::ArrayLengthMismatch {
                            field: field.to_owned(),
                            declared: *n,
                            actual: items.len(),
                        }));
                    }
                }
                ArrayLen::CountField(_) => {
                    out.extend_from_slice(&(items.len() as u32).to_be_bytes());
                }
            }
            for item in items {
                encode_value(item, elem, field, out)?;
            }
            Ok(())
        }
        CType::Struct(inner) => {
            let rec =
                value.as_record().ok_or_else(|| type_mismatch(field, "record", value))?;
            encode_struct(rec, inner, out)
        }
    }
}

fn encode_prim(
    value: &Value,
    p: Primitive,
    field: &str,
    out: &mut Vec<u8>,
) -> Result<(), PbioError> {
    let width = xdr_width(p);
    if p.is_float() {
        let v = value.as_f64().ok_or_else(|| type_mismatch(field, "float", value))?;
        match p {
            Primitive::Float => out.extend_from_slice(&(v as f32).to_bits().to_be_bytes()),
            _ => out.extend_from_slice(&v.to_bits().to_be_bytes()),
        }
        return Ok(());
    }
    if p.is_signed_integer() {
        let v = value.as_i64().ok_or_else(|| type_mismatch(field, "int", value))?;
        if !fits_signed(v, width) {
            return Err(PbioError::Layout(LayoutError::ValueOutOfRange {
                field: field.to_owned(),
                value: v.to_string(),
                width,
            }));
        }
        match width {
            8 => out.extend_from_slice(&v.to_be_bytes()),
            _ => out.extend_from_slice(&(v as i32).to_be_bytes()),
        }
        return Ok(());
    }
    let v = value.as_u64().ok_or_else(|| type_mismatch(field, "uint", value))?;
    if !fits_unsigned(v, width) {
        return Err(PbioError::Layout(LayoutError::ValueOutOfRange {
            field: field.to_owned(),
            value: v.to_string(),
            width,
        }));
    }
    match width {
        8 => out.extend_from_slice(&v.to_be_bytes()),
        _ => out.extend_from_slice(&(v as u32).to_be_bytes()),
    }
    Ok(())
}

fn type_mismatch(field: &str, expected: &str, value: &Value) -> PbioError {
    PbioError::Layout(LayoutError::TypeMismatch {
        field: field.to_owned(),
        expected: expected.to_owned(),
        found: value.type_name().to_owned(),
    })
}

fn pad(out: &mut Vec<u8>, written: usize) {
    let rem = written % UNIT;
    if rem != 0 {
        out.resize(out.len() + (UNIT - rem), 0);
    }
}

/// Decodes an XDR stream produced by [`encode`] for `st`.
///
/// # Errors
///
/// Reports truncation, bad counts and malformed strings.
pub fn decode(bytes: &[u8], st: &StructType) -> Result<Record, PbioError> {
    let mut reader = XdrReader { bytes, at: 0 };
    let record = decode_struct(&mut reader, st)?;
    Ok(record)
}

/// The smallest number of wire bytes any value of `ty` can occupy in
/// this encoding — the divisor for clamping a hostile claimed count
/// against the remaining input *before* any allocation or decode loop.
fn min_wire_size(ty: &CType) -> usize {
    match ty {
        CType::Prim(p) => xdr_width(*p),
        CType::String => UNIT, // length word; the body may be empty
        CType::Array { elem, len } => match len {
            ArrayLen::Fixed(n) => n.saturating_mul(min_wire_size(elem)),
            ArrayLen::CountField(_) => UNIT, // count word; may be empty
        },
        CType::Struct(inner) => {
            inner.fields.iter().map(|f| min_wire_size(&f.ty)).sum()
        }
    }
}

struct XdrReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl XdrReader<'_> {
    /// Bytes left between the cursor and the end of input.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&[u8], PbioError> {
        match self.at.checked_add(n) {
            Some(end) if end <= self.bytes.len() => {
                let slice = &self.bytes[self.at..end];
                self.at = end;
                Ok(slice)
            }
            _ => Err(PbioError::Truncated {
                need: self.at.saturating_add(n),
                have: self.bytes.len(),
            }),
        }
    }

    fn u32(&mut self) -> Result<u32, PbioError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, PbioError> {
        let b = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_be_bytes(buf))
    }

    fn skip_pad(&mut self, written: usize) -> Result<(), PbioError> {
        let rem = written % UNIT;
        if rem != 0 {
            self.take(UNIT - rem)?;
        }
        Ok(())
    }
}

fn decode_struct(reader: &mut XdrReader<'_>, st: &StructType) -> Result<Record, PbioError> {
    let mut record = Record::new();
    for field in &st.fields {
        let value = decode_value(reader, &field.ty, &field.name)?;
        record.set(field.name.clone(), value);
    }
    Ok(record)
}

fn decode_value(
    reader: &mut XdrReader<'_>,
    ty: &CType,
    field: &str,
) -> Result<Value, PbioError> {
    match ty {
        CType::Prim(p) => decode_prim(reader, *p),
        CType::String => {
            let len = reader.u32()? as usize;
            // Clamp against the *remaining* input, not the whole buffer:
            // a hostile length must be rejected before the allocation in
            // `to_vec`, and bytes already consumed cannot back it.
            if len > reader.remaining() {
                return Err(PbioError::Layout(LayoutError::BadCount {
                    field: field.to_owned(),
                    count: len as i64,
                }));
            }
            let raw = reader.take(len)?.to_vec();
            reader.skip_pad(len)?;
            let s = String::from_utf8(raw).map_err(|_| {
                PbioError::Layout(LayoutError::BadString { field: field.to_owned() })
            })?;
            Ok(Value::String(s))
        }
        CType::Array { elem, len } => {
            let count = match len {
                ArrayLen::Fixed(n) => *n,
                ArrayLen::CountField(_) => {
                    let c = reader.u32()? as usize;
                    // Each element occupies at least `min_wire_size`
                    // bytes, so any honest count is bounded by the
                    // remaining input divided by that size (`max(1)`
                    // guards degenerate zero-size elements). A message
                    // claiming 0xFFFFFFFF elements fails here, before
                    // the allocation below.
                    if c > reader.remaining() / min_wire_size(elem).max(1) {
                        return Err(PbioError::Layout(LayoutError::BadCount {
                            field: field.to_owned(),
                            count: c as i64,
                        }));
                    }
                    c
                }
            };
            let mut items = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                items.push(decode_value(reader, elem, field)?);
            }
            Ok(Value::Array(items))
        }
        CType::Struct(inner) => Ok(Value::Record(decode_struct(reader, inner)?)),
    }
}

fn decode_prim(reader: &mut XdrReader<'_>, p: Primitive) -> Result<Value, PbioError> {
    if p.is_float() {
        return Ok(Value::Float(match p {
            Primitive::Float => f32::from_bits(reader.u32()?) as f64,
            _ => f64::from_bits(reader.u64()?),
        }));
    }
    let width = xdr_width(p);
    if p.is_signed_integer() {
        let v = match width {
            8 => reader.u64()? as i64,
            _ => reader.u32()? as i32 as i64,
        };
        Ok(Value::Int(v))
    } else {
        let v = match width {
            8 => reader.u64()?,
            _ => reader.u32()? as u64,
        };
        Ok(Value::UInt(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clayout::StructField;

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
