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
//! Encoding: `flag ∥ 3 pad bytes ∥ body`, where the body is a CDR stream
//! with primitives aligned to their size relative to the body start,
//! strings as `u32 length (incl. NUL) ∥ bytes ∥ NUL`, sequences as
//! `u32 count ∥ elements`, and structs as their members in order.

use crate::oracle::{fits_signed, fits_unsigned, get_uint, put_uint};
use clayout::{ArrayLen, CType, Endianness, LayoutError, Primitive, Record, StructType, Value};

use pbio::PbioError;

/// CDR width of a C primitive (CDR `long` is 4 bytes; both C `long` and
/// `long long` travel as CDR `long long` so no ABI loses data).
fn cdr_width(p: Primitive) -> usize {
    match p {
        Primitive::Char | Primitive::UChar => 1,
        Primitive::Short | Primitive::UShort => 2,
        Primitive::Int | Primitive::UInt | Primitive::Enum | Primitive::Float => 4,
        _ => 8,
    }
}

/// Encodes `record` as a CDR message in `order` byte order (the sender
/// passes its native order — that is the IIOP trick).
///
/// # Errors
///
/// Reports missing fields, type mismatches and range overflows.
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
    let mut body = CdrWriter { out, base: 4, order };
    encode_struct(record, st, &mut body)?;
    Ok(body.out)
}

struct CdrWriter {
    out: Vec<u8>,
    base: usize,
    order: Endianness,
}

impl CdrWriter {
    fn align(&mut self, align: usize) {
        let pos = self.out.len() - self.base;
        let aligned = clayout::layout::align_up(pos, align);
        self.out.resize(self.base + aligned, 0);
    }

    fn put(&mut self, width: usize, value: u64) {
        self.align(width);
        let at = self.out.len();
        self.out.resize(at + width, 0);
        put_uint(&mut self.out, at, width, self.order, value);
    }
}

fn encode_struct(
    record: &Record,
    st: &StructType,
    out: &mut CdrWriter,
) -> Result<(), PbioError> {
    for field in &st.fields {
        match record.get(&field.name) {
            Some(value) => encode_value(value, &field.ty, &field.name, out)?,
            None => {
                let derived = derive_count(record, st, &field.name)?.ok_or_else(|| {
                    PbioError::Layout(LayoutError::MissingField { field: field.name.clone() })
                })?;
                encode_value(&derived, &field.ty, &field.name, out)?;
            }
        }
    }
    Ok(())
}

fn derive_count(
    record: &Record,
    st: &StructType,
    name: &str,
) -> Result<Option<Value>, PbioError> {
    for field in &st.fields {
        if let CType::Array { len: ArrayLen::CountField(count), .. } = &field.ty {
            if count == name {
                let arr = record.get(&field.name).and_then(Value::as_array).ok_or_else(
                    || PbioError::Layout(LayoutError::MissingField { field: field.name.clone() }),
                )?;
                return Ok(Some(Value::UInt(arr.len() as u64)));
            }
        }
    }
    Ok(None)
}

fn type_mismatch(field: &str, expected: &str, value: &Value) -> PbioError {
    PbioError::Layout(LayoutError::TypeMismatch {
        field: field.to_owned(),
        expected: expected.to_owned(),
        found: value.type_name().to_owned(),
    })
}

fn encode_value(
    value: &Value,
    ty: &CType,
    field: &str,
    out: &mut CdrWriter,
) -> Result<(), PbioError> {
    match ty {
        CType::Prim(p) => {
            let width = cdr_width(*p);
            if p.is_float() {
                let v = value.as_f64().ok_or_else(|| type_mismatch(field, "float", value))?;
                match width {
                    4 => out.put(4, (v as f32).to_bits() as u64),
                    _ => out.put(8, v.to_bits()),
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
                out.put(width, v as u64);
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
            out.put(width, v);
            Ok(())
        }
        CType::String => {
            let s = value.as_str().ok_or_else(|| type_mismatch(field, "string", value))?;
            out.put(4, s.len() as u64 + 1); // CDR length includes the NUL
            out.out.extend_from_slice(s.as_bytes());
            out.out.push(0);
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
                ArrayLen::CountField(_) => out.put(4, items.len() as u64),
            }
            for item in items {
                encode_value(item, elem, field, out)?;
            }
            Ok(())
        }
        CType::Struct(inner) => {
            let rec = value.as_record().ok_or_else(|| type_mismatch(field, "record", value))?;
            encode_struct(rec, inner, out)
        }
    }
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
    let mut reader = CdrReader { bytes, at: 4, base: 4, order };
    decode_struct(&mut reader, st)
}

/// The smallest number of wire bytes any value of `ty` can occupy in
/// CDR (alignment padding ignored — undercounting only makes the clamp
/// more permissive, never less safe). Used to bound hostile claimed
/// counts against the remaining input before allocating.
fn min_wire_size(ty: &CType) -> usize {
    match ty {
        CType::Prim(p) => cdr_width(*p),
        CType::String => 5, // u32 length + the mandatory NUL
        CType::Array { elem, len } => match len {
            ArrayLen::Fixed(n) => n.saturating_mul(min_wire_size(elem)),
            ArrayLen::CountField(_) => 4, // count word; may be empty
        },
        CType::Struct(inner) => {
            inner.fields.iter().map(|f| min_wire_size(&f.ty)).sum()
        }
    }
}

struct CdrReader<'a> {
    bytes: &'a [u8],
    at: usize,
    base: usize,
    order: Endianness,
}

impl CdrReader<'_> {
    /// Bytes left between the cursor and the end of input.
    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.at)
    }

    fn align(&mut self, align: usize) {
        let pos = self.at - self.base;
        self.at = self.base + clayout::layout::align_up(pos, align);
    }

    fn take(&mut self, width: usize) -> Result<u64, PbioError> {
        self.align(width);
        match self.at.checked_add(width) {
            Some(end) if end <= self.bytes.len() => {
                let v = get_uint(self.bytes, self.at, width, self.order);
                self.at = end;
                Ok(v)
            }
            _ => Err(PbioError::Truncated {
                need: self.at.saturating_add(width),
                have: self.bytes.len(),
            }),
        }
    }

    fn take_bytes(&mut self, n: usize) -> Result<&[u8], PbioError> {
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
}

fn decode_struct(reader: &mut CdrReader<'_>, st: &StructType) -> Result<Record, PbioError> {
    let mut record = Record::new();
    for field in &st.fields {
        let value = decode_value(reader, &field.ty, &field.name)?;
        record.set(field.name.clone(), value);
    }
    Ok(record)
}

fn decode_value(
    reader: &mut CdrReader<'_>,
    ty: &CType,
    field: &str,
) -> Result<Value, PbioError> {
    match ty {
        CType::Prim(p) => {
            let width = cdr_width(*p);
            let raw = reader.take(width)?;
            if p.is_float() {
                return Ok(Value::Float(match width {
                    4 => f32::from_bits(raw as u32) as f64,
                    _ => f64::from_bits(raw),
                }));
            }
            if p.is_signed_integer() {
                let shift = 64 - width as u32 * 8;
                let signed =
                    if shift == 0 { raw as i64 } else { ((raw << shift) as i64) >> shift };
                return Ok(Value::Int(signed));
            }
            Ok(Value::UInt(raw))
        }
        CType::String => {
            let len = reader.take(4)? as usize;
            // CDR lengths include the NUL, so zero is malformed; clamp
            // against the *remaining* input before `take_bytes` so a
            // hostile length is rejected prior to any allocation.
            if len == 0 || len > reader.remaining() {
                return Err(PbioError::Layout(LayoutError::BadCount {
                    field: field.to_owned(),
                    count: len as i64,
                }));
            }
            let raw = reader.take_bytes(len)?;
            let without_nul = raw.strip_suffix(&[0]).ok_or_else(|| {
                PbioError::Layout(LayoutError::BadString { field: field.to_owned() })
            })?;
            let s = std::str::from_utf8(without_nul).map_err(|_| {
                PbioError::Layout(LayoutError::BadString { field: field.to_owned() })
            })?;
            Ok(Value::String(s.to_owned()))
        }
        CType::Array { elem, len } => {
            let count = match len {
                ArrayLen::Fixed(n) => *n,
                ArrayLen::CountField(_) => {
                    let c = reader.take(4)? as usize;
                    // Any honest count is bounded by the remaining input
                    // over the element's minimum wire size (`max(1)`
                    // guards zero-size elements); a claimed 0xFFFFFFFF
                    // fails here before the allocation below.
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
