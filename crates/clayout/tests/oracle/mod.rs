//! The interpretive image codec the compiled plans replaced, kept as a
//! test-side oracle (the `xsdlite/tests/dom_oracle` pattern).
//!
//! [`encode_record`] / [`encode_record_into`] walk the field table per
//! call — a validation pass, one `Record::get` per field, a fully
//! generic `encode_value_at` per array element; [`decode_record`]
//! re-derives every offset, width and count slot from the layout as it
//! reads. `clayout::encode_record` and pbio's `RecordView`, both
//! reading the accessors `clayout::Layout` compiles, must agree with
//! them byte for byte, value for value and error kind for error kind;
//! the differential suites in `clayout` and `pbio` include this file by
//! path.
//!
//! It reads, writes and range-checks numbers with its own helpers (at
//! the end of this file), the raw accessors the library once exported:
//! sharing `clayout::ScalarCode` with what it judges would let a bug in
//! that codec pass on both sides. Other test suites that need raw
//! integer bytes take these too.

#![allow(dead_code)]

use clayout::layout::align_up;
use clayout::{
    Architecture, ArrayLen, CType, Endianness, FieldLayout, Image, Layout, LayoutError, Primitive,
    Record, StructType, Value,
};

/// Encodes `record` as a native byte image of `st` under `arch`.
///
/// Count fields of dynamic arrays are synchronized automatically: if the
/// record omits the count field it is filled from the array length; if it
/// supplies one it must match.
///
/// # Errors
///
/// Reports missing fields, type mismatches, range overflows and array
/// length mismatches; see [`LayoutError`].
pub fn encode_record(
    record: &Record,
    st: &StructType,
    arch: &Architecture,
) -> Result<Image, LayoutError> {
    let layout = Layout::of_struct(st, arch)?;
    let mut buf = Vec::with_capacity(layout.size);
    let fixed_len = encode_record_into(&mut buf, record, &layout, st, arch)?;
    Ok(Image {
        bytes: buf,
        fixed_len,
    })
}

/// Appends a native byte image of `record` to `buf`, reusing the
/// caller's buffer (and its capacity) instead of allocating one — the
/// zero-allocation encode primitive behind [`encode_record`] and pbio's
/// pooled message encoder.
///
/// The image starts at `buf.len()` at entry; image-relative pointers
/// (strings, dynamic arrays) are measured from there, so the appended
/// bytes are exactly what [`encode_record`] would have produced on an
/// empty buffer. `layout` must be `st`'s layout on `arch` — passing it
/// in lets callers with a precomputed layout (pbio's `Format`) skip the
/// per-message layout computation. Returns the image's fixed-part
/// length (`layout.size`).
///
/// # Errors
///
/// As [`encode_record`]. On error the buffer's length beyond the entry
/// point is unspecified; callers reusing buffers should truncate back.
pub fn encode_record_into(
    buf: &mut Vec<u8>,
    record: &Record,
    layout: &Layout,
    st: &StructType,
    arch: &Architecture,
) -> Result<usize, LayoutError> {
    let image_start = buf.len();
    buf.resize(image_start + layout.size, 0);
    encode_struct_at(buf, image_start, image_start, record, layout, st, arch)?;
    Ok(layout.size)
}

fn encode_struct_at(
    buf: &mut Vec<u8>,
    image_start: usize,
    base: usize,
    record: &Record,
    layout: &Layout,
    st: &StructType,
    arch: &Architecture,
) -> Result<(), LayoutError> {
    // Validate supplied counts against their dynamic arrays' lengths.
    for (field, decl) in layout.fields.iter().zip(&st.fields) {
        if let CType::Array {
            len: ArrayLen::CountField(count_name),
            ..
        } = &decl.ty
        {
            let value = record
                .get(&field.name)
                .ok_or_else(|| LayoutError::MissingField {
                    field: field.name.clone(),
                })?;
            let arr = value.as_array().ok_or_else(|| LayoutError::TypeMismatch {
                field: field.name.clone(),
                expected: "array".into(),
                found: value.type_name().into(),
            })?;
            if let Some(supplied) = record.get(count_name).and_then(Value::as_u64) {
                if supplied != arr.len() as u64 {
                    return Err(LayoutError::ArrayLengthMismatch {
                        field: field.name.clone(),
                        declared: supplied as usize,
                        actual: arr.len(),
                    });
                }
            }
        }
    }

    for (field, decl) in layout.fields.iter().zip(&st.fields) {
        // Borrow the value where present; a count field the record omits
        // is synthesized in place from its array's length (no side table
        // — this loop must not allocate on the pooled encode path).
        match record.get(&field.name) {
            Some(value) => encode_value_at(
                buf,
                image_start,
                base + field.offset,
                value,
                &decl.ty,
                &field.name,
                arch,
            )?,
            None => {
                let n = st
                    .fields
                    .iter()
                    .find_map(|f| match &f.ty {
                        CType::Array {
                            len: ArrayLen::CountField(c),
                            ..
                        } if *c == field.name => record
                            .get(&f.name)
                            .and_then(Value::as_array)
                            .map(|a| a.len() as u64),
                        _ => None,
                    })
                    .ok_or_else(|| LayoutError::MissingField {
                        field: field.name.clone(),
                    })?;
                encode_value_at(
                    buf,
                    image_start,
                    base + field.offset,
                    &Value::UInt(n),
                    &decl.ty,
                    &field.name,
                    arch,
                )?
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn encode_value_at(
    buf: &mut Vec<u8>,
    image_start: usize,
    at: usize,
    value: &Value,
    ty: &CType,
    field: &str,
    arch: &Architecture,
) -> Result<(), LayoutError> {
    match ty {
        CType::Prim(p) => encode_prim_at(buf, at, value, *p, field, arch),
        CType::String => {
            let s = value.as_str().ok_or_else(|| LayoutError::TypeMismatch {
                field: field.to_owned(),
                expected: "string".into(),
                found: value.type_name().into(),
            })?;
            // Pointers are image-relative, not buffer-relative: the image
            // may sit after other content (e.g. a wire header).
            let target = (buf.len() - image_start) as u64;
            buf.extend_from_slice(s.as_bytes());
            buf.push(0);
            put_uint(buf, at, arch.pointer.size, arch.endianness, target);
            check_pointer_width(target, arch, field)
        }
        CType::Array { elem, len } => {
            let items = value.as_array().ok_or_else(|| LayoutError::TypeMismatch {
                field: field.to_owned(),
                expected: "array".into(),
                found: value.type_name().into(),
            })?;
            let elem_sa = Layout::size_align(elem, arch)?;
            match len {
                ArrayLen::Fixed(n) => {
                    if items.len() != *n {
                        return Err(LayoutError::ArrayLengthMismatch {
                            field: field.to_owned(),
                            declared: *n,
                            actual: items.len(),
                        });
                    }
                    for (i, item) in items.iter().enumerate() {
                        encode_value_at(
                            buf,
                            image_start,
                            at + i * elem_sa.size,
                            item,
                            elem,
                            field,
                            arch,
                        )?;
                    }
                    Ok(())
                }
                ArrayLen::CountField(_) => {
                    if items.is_empty() {
                        // Null pointer for an empty dynamic array.
                        put_uint(buf, at, arch.pointer.size, arch.endianness, 0);
                        return Ok(());
                    }
                    // Align the region within the *image*, not the buffer.
                    let region_rel = align_up(buf.len() - image_start, elem_sa.align);
                    let region = image_start + region_rel;
                    buf.resize(region + items.len() * elem_sa.size, 0);
                    put_uint(
                        buf,
                        at,
                        arch.pointer.size,
                        arch.endianness,
                        region_rel as u64,
                    );
                    check_pointer_width(region_rel as u64, arch, field)?;
                    for (i, item) in items.iter().enumerate() {
                        encode_value_at(
                            buf,
                            image_start,
                            region + i * elem_sa.size,
                            item,
                            elem,
                            field,
                            arch,
                        )?;
                    }
                    Ok(())
                }
            }
        }
        CType::Struct(inner) => {
            let rec = value.as_record().ok_or_else(|| LayoutError::TypeMismatch {
                field: field.to_owned(),
                expected: format!("record of struct {}", inner.name),
                found: value.type_name().into(),
            })?;
            let inner_layout = Layout::of_struct(inner, arch)?;
            encode_struct_at(buf, image_start, at, rec, &inner_layout, inner, arch)
        }
    }
}

fn check_pointer_width(target: u64, arch: &Architecture, field: &str) -> Result<(), LayoutError> {
    if fits_unsigned(target, arch.pointer.size) {
        Ok(())
    } else {
        Err(LayoutError::BadPointer {
            field: field.to_owned(),
            target,
        })
    }
}

fn encode_prim_at(
    buf: &mut [u8],
    at: usize,
    value: &Value,
    prim: Primitive,
    field: &str,
    arch: &Architecture,
) -> Result<(), LayoutError> {
    let sa = arch.primitive(prim);
    if prim.is_float() {
        let v = value.as_f64().ok_or_else(|| LayoutError::TypeMismatch {
            field: field.to_owned(),
            expected: "float".into(),
            found: value.type_name().into(),
        })?;
        match sa.size {
            4 => put_uint(buf, at, 4, arch.endianness, (v as f32).to_bits() as u64),
            _ => put_uint(buf, at, 8, arch.endianness, v.to_bits()),
        }
        return Ok(());
    }
    if prim.is_signed_integer() {
        let v = value.as_i64().ok_or_else(|| LayoutError::TypeMismatch {
            field: field.to_owned(),
            expected: "int".into(),
            found: value.type_name().into(),
        })?;
        if !fits_signed(v, sa.size) {
            return Err(LayoutError::ValueOutOfRange {
                field: field.to_owned(),
                value: v.to_string(),
                width: sa.size,
            });
        }
        put_int(buf, at, sa.size, arch.endianness, v);
        return Ok(());
    }
    let v = value.as_u64().ok_or_else(|| LayoutError::TypeMismatch {
        field: field.to_owned(),
        expected: "uint".into(),
        found: value.type_name().into(),
    })?;
    if !fits_unsigned(v, sa.size) {
        return Err(LayoutError::ValueOutOfRange {
            field: field.to_owned(),
            value: v.to_string(),
            width: sa.size,
        });
    }
    put_uint(buf, at, sa.size, arch.endianness, v);
    Ok(())
}

/// Decodes a native byte image of `st` under `arch` back into a
/// [`Record`].
///
/// This is the receiver-side "reader-makes-right" primitive: given the
/// *sender's* architecture and layout it recovers the values regardless of
/// the local machine.
///
/// # Errors
///
/// Reports truncation, out-of-bounds pointers, malformed strings and
/// implausible counts; see [`LayoutError`].
pub fn decode_record(
    bytes: &[u8],
    st: &StructType,
    arch: &Architecture,
) -> Result<Record, LayoutError> {
    let layout = Layout::of_struct(st, arch)?;
    decode_struct_at(bytes, 0, &layout, st, arch)
}

fn decode_struct_at(
    bytes: &[u8],
    base: usize,
    layout: &Layout,
    st: &StructType,
    arch: &Architecture,
) -> Result<Record, LayoutError> {
    let mut record = Record::new();
    for (field, decl) in layout.fields.iter().zip(&st.fields) {
        let at = base + field.offset;
        let value = decode_value_at(bytes, at, &decl.ty, field, layout, st, arch)?;
        record.set(field.name.clone(), value);
    }
    Ok(record)
}

fn bounds_check(bytes: &[u8], at: usize, need: usize, what: &str) -> Result<(), LayoutError> {
    if at.checked_add(need).is_none_or(|end| end > bytes.len()) {
        Err(LayoutError::Truncated {
            reading: what.to_owned(),
            offset: at,
            len: bytes.len(),
        })
    } else {
        Ok(())
    }
}

fn decode_value_at(
    bytes: &[u8],
    at: usize,
    ty: &CType,
    field: &FieldLayout,
    parent: &Layout,
    parent_type: &StructType,
    arch: &Architecture,
) -> Result<Value, LayoutError> {
    match ty {
        CType::Prim(p) => decode_prim_at(bytes, at, *p, &field.name, arch),
        CType::String => {
            bounds_check(bytes, at, arch.pointer.size, &field.name)?;
            let target = get_uint(bytes, at, arch.pointer.size, arch.endianness);
            read_string(bytes, target, &field.name)
        }
        CType::Array { elem, len } => {
            let elem_sa = Layout::size_align(elem, arch)?;
            match len {
                ArrayLen::Fixed(n) => {
                    let mut items = Vec::with_capacity(*n);
                    for i in 0..*n {
                        items.push(decode_element(
                            bytes,
                            at + i * elem_sa.size,
                            elem,
                            field,
                            arch,
                        )?);
                    }
                    Ok(Value::Array(items))
                }
                ArrayLen::CountField(count_name) => {
                    let (count_field, count_decl) = parent_type
                        .field_index(count_name)
                        .map(|i| (&parent.fields[i], &parent_type.fields[i]))
                        .ok_or_else(|| LayoutError::MissingCountField {
                            array: field.name.clone(),
                            count_field: count_name.clone(),
                        })?;
                    // The count field lives in the same fixed region as
                    // this pointer; `at` is the pointer's absolute offset.
                    let struct_base = at - field.offset;
                    let count_at = struct_base + count_field.offset;
                    bounds_check(bytes, count_at, count_field.size, count_name)?;
                    // (The one edit since this code left the library: it
                    // read every count as signed, so an `unsigned char`
                    // count above 127 — which the encoder writes — was
                    // refused as negative.)
                    let unsigned =
                        matches!(&count_decl.ty, CType::Prim(p) if p.is_unsigned_integer());
                    let count = if unsigned {
                        let raw = get_uint(bytes, count_at, count_field.size, arch.endianness);
                        i64::try_from(raw).unwrap_or(-1)
                    } else {
                        get_int(bytes, count_at, count_field.size, arch.endianness)
                    };
                    // An honest count is bounded by the image size over
                    // the element size; clamping here (rather than only
                    // at the region bounds check) also keeps the
                    // `count * size` products below from overflowing.
                    if count < 0 || count as usize > bytes.len() / elem_sa.size.max(1) {
                        return Err(LayoutError::BadCount {
                            field: count_name.clone(),
                            count,
                        });
                    }
                    let count = count as usize;
                    bounds_check(bytes, at, arch.pointer.size, &field.name)?;
                    let target = get_uint(bytes, at, arch.pointer.size, arch.endianness);
                    if count == 0 {
                        return Ok(Value::Array(Vec::new()));
                    }
                    let target = usize::try_from(target).map_err(|_| LayoutError::BadPointer {
                        field: field.name.clone(),
                        target,
                    })?;
                    bounds_check(bytes, target, count * elem_sa.size, &field.name)?;
                    let mut items = Vec::with_capacity(count);
                    for i in 0..count {
                        items.push(decode_element(
                            bytes,
                            target + i * elem_sa.size,
                            elem,
                            field,
                            arch,
                        )?);
                    }
                    Ok(Value::Array(items))
                }
            }
        }
        CType::Struct(inner) => {
            let inner_layout = Layout::of_struct(inner, arch)?;
            bounds_check(bytes, at, inner_layout.size, &field.name)?;
            Ok(Value::Record(decode_struct_at(
                bytes,
                at,
                &inner_layout,
                inner,
                arch,
            )?))
        }
    }
}

/// Decodes one array element (primitives, strings and nested structs; the
/// layout engine guarantees no arrays-of-arrays reach here).
fn decode_element(
    bytes: &[u8],
    at: usize,
    elem: &CType,
    field: &FieldLayout,
    arch: &Architecture,
) -> Result<Value, LayoutError> {
    match elem {
        CType::Prim(p) => decode_prim_at(bytes, at, *p, &field.name, arch),
        CType::String => {
            bounds_check(bytes, at, arch.pointer.size, &field.name)?;
            let target = get_uint(bytes, at, arch.pointer.size, arch.endianness);
            read_string(bytes, target, &field.name)
        }
        CType::Struct(inner) => {
            let inner_layout = Layout::of_struct(inner, arch)?;
            bounds_check(bytes, at, inner_layout.size, &field.name)?;
            Ok(Value::Record(decode_struct_at(
                bytes,
                at,
                &inner_layout,
                inner,
                arch,
            )?))
        }
        CType::Array { .. } => Err(LayoutError::NestedArray {
            field: field.name.clone(),
        }),
    }
}

fn read_string(bytes: &[u8], target: u64, field: &str) -> Result<Value, LayoutError> {
    if target == 0 {
        // Null pointer decodes as the empty string.
        return Ok(Value::String(String::new()));
    }
    let start = usize::try_from(target)
        .ok()
        .filter(|t| *t < bytes.len())
        .ok_or(LayoutError::BadPointer {
            field: field.to_owned(),
            target,
        })?;
    let end = bytes[start..]
        .iter()
        .position(|b| *b == 0)
        .map(|rel| start + rel)
        .ok_or_else(|| LayoutError::Truncated {
            reading: format!("string field {field}"),
            offset: start,
            len: bytes.len(),
        })?;
    let s = std::str::from_utf8(&bytes[start..end]).map_err(|_| LayoutError::BadString {
        field: field.to_owned(),
    })?;
    Ok(Value::String(s.to_owned()))
}

fn decode_prim_at(
    bytes: &[u8],
    at: usize,
    prim: Primitive,
    field: &str,
    arch: &Architecture,
) -> Result<Value, LayoutError> {
    let sa = arch.primitive(prim);
    bounds_check(bytes, at, sa.size, field)?;
    if prim.is_float() {
        let value = match sa.size {
            4 => f32::from_bits(get_uint(bytes, at, 4, arch.endianness) as u32) as f64,
            _ => f64::from_bits(get_uint(bytes, at, 8, arch.endianness)),
        };
        return Ok(Value::Float(value));
    }
    if prim.is_signed_integer() {
        return Ok(Value::Int(get_int(bytes, at, sa.size, arch.endianness)));
    }
    Ok(Value::UInt(get_uint(bytes, at, sa.size, arch.endianness)))
}

// ---------------------------------------------------------------------------
// Raw integer accessors: the oracle's own number codec.
// ---------------------------------------------------------------------------

/// Writes `value` as an unsigned integer of `size` bytes at `offset`.
pub fn put_uint(buf: &mut [u8], offset: usize, size: usize, endianness: Endianness, value: u64) {
    let dst = &mut buf[offset..offset + size];
    match endianness {
        Endianness::Little => dst.copy_from_slice(&value.to_le_bytes()[..size]),
        // The low `size` bytes of a big-endian u64 are its trailing ones.
        Endianness::Big => dst.copy_from_slice(&value.to_be_bytes()[8 - size..]),
    }
}

/// Writes `value` as a two's-complement signed integer of `size` bytes.
pub fn put_int(buf: &mut [u8], offset: usize, size: usize, endianness: Endianness, value: i64) {
    put_uint(buf, offset, size, endianness, value as u64);
}

/// Reads an unsigned integer of `size` bytes at `offset`.
pub fn get_uint(buf: &[u8], offset: usize, size: usize, endianness: Endianness) -> u64 {
    let src = &buf[offset..offset + size];
    let mut out = [0u8; 8];
    match endianness {
        Endianness::Little => {
            out[..size].copy_from_slice(src);
            u64::from_le_bytes(out)
        }
        Endianness::Big => {
            out[8 - size..].copy_from_slice(src);
            u64::from_be_bytes(out)
        }
    }
}

/// Reads a sign-extended integer of `size` bytes at `offset`.
pub fn get_int(buf: &[u8], offset: usize, size: usize, endianness: Endianness) -> i64 {
    let raw = get_uint(buf, offset, size, endianness);
    let shift = 64 - size * 8;
    if shift == 0 {
        raw as i64
    } else {
        ((raw << shift) as i64) >> shift
    }
}

/// Whether `value` fits in a signed integer of `size` bytes.
pub fn fits_signed(value: i64, size: usize) -> bool {
    if size >= 8 {
        return true;
    }
    let bits = size as u32 * 8;
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    (min..=max).contains(&value)
}

/// Whether `value` fits in an unsigned integer of `size` bytes.
pub fn fits_unsigned(value: u64, size: usize) -> bool {
    if size >= 8 {
        return true;
    }
    value < (1u64 << (size as u32 * 8))
}
