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

use crate::oracle::{fits_signed, fits_unsigned};
use clayout::{ArrayLen, CType, LayoutError, Primitive, Record, StructType, Value};

use pbio::PbioError;

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
