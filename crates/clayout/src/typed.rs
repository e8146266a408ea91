//! Compile-time typed bindings: const struct descriptors and the
//! [`Xml2WireRecord`] trait that `#[derive(Xml2WireRecord)]` implements.
//!
//! The dynamic pipeline discovers a struct definition at runtime, lays
//! it out, and marshals through the reflective [`Record`](crate::Record) model. For
//! the common "both ends are Rust" case all of that is knowable at
//! compile time: the derive macro (crate `x2w-derive`) emits the field
//! list as a [`ConstStructType`] in static memory, the XSD fragment for
//! metadata-server registration as a string literal, and straight-line
//! `encode`/`decode` code that writes the native byte image directly —
//! no field table walk, no `Record` construction, no plan-cache lookup.
//!
//! Byte compatibility is the contract: for the same values and
//! architecture, [`Xml2WireRecord::encode_image`] must produce exactly
//! the bytes [`encode_record_into`](crate::image::encode_record_into)
//! produces from the equivalent [`Record`](crate::Record) — the derive's differential
//! test suite pins this across the six-architecture matrix. The helper
//! functions in this module are the single place those byte-level
//! conventions (pointer swizzling, region alignment, count clamps) are
//! written down for generated code.

use crate::arch::{Architecture, Endianness};
use crate::ctype::{ArrayLen, CType, Primitive, StructField, StructType};
use crate::error::LayoutError;
use crate::image::{fits_signed, fits_unsigned, get_int, get_uint, put_int, put_uint};
use crate::layout::align_up;

// ---------------------------------------------------------------------------
// Const-constructible descriptors
// ---------------------------------------------------------------------------

/// A C type expressible in `const` context: the `'static` mirror of
/// [`CType`], with boxes replaced by `&'static` references so a derive
/// macro can build the whole tree in static memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstCType {
    /// A C primitive.
    Prim(Primitive),
    /// A NUL-terminated `char*` string.
    String,
    /// A fixed-length array.
    FixedArray {
        /// The element type.
        elem: &'static ConstCType,
        /// The declared length.
        len: usize,
    },
    /// A dynamically sized array whose length lives in a sibling count
    /// field.
    DynArray {
        /// The element type.
        elem: &'static ConstCType,
        /// The sibling count field's name.
        count: &'static str,
    },
    /// A nested record.
    Struct(&'static ConstStructType),
}

impl ConstCType {
    /// Converts to the runtime [`CType`] model.
    pub fn to_ctype(&self) -> CType {
        match self {
            ConstCType::Prim(p) => CType::Prim(*p),
            ConstCType::String => CType::String,
            ConstCType::FixedArray { elem, len } => CType::Array {
                elem: Box::new(elem.to_ctype()),
                len: ArrayLen::Fixed(*len),
            },
            ConstCType::DynArray { elem, count } => CType::Array {
                elem: Box::new(elem.to_ctype()),
                len: ArrayLen::CountField((*count).to_owned()),
            },
            ConstCType::Struct(inner) => CType::Struct(inner.to_struct_type()),
        }
    }
}

/// One field of a [`ConstStructType`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstField {
    /// The wire field name.
    pub name: &'static str,
    /// The field's C type.
    pub ty: ConstCType,
}

/// A struct definition in static memory: the `const`-constructible
/// mirror of [`StructType`], emitted by `#[derive(Xml2WireRecord)]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstStructType {
    /// The format (complex type) name.
    pub name: &'static str,
    /// The fields, in declaration order, with synthesized count fields
    /// appended after the declared ones (the XSD binder's convention
    /// for `maxOccurs="*"` elements).
    pub fields: &'static [ConstField],
}

impl ConstStructType {
    /// Materializes the runtime [`StructType`] — used once at
    /// registration time; the per-message paths never touch it.
    pub fn to_struct_type(&self) -> StructType {
        StructType::new(
            self.name,
            self.fields
                .iter()
                .map(|f| StructField::new(f.name, f.ty.to_ctype()))
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// The derived-record trait
// ---------------------------------------------------------------------------

/// A Rust struct with a compile-time generated wire binding.
///
/// Implemented by `#[derive(Xml2WireRecord)]` (crate `x2w-derive`,
/// re-exported by `xml2wire`); the derive emits the required items and
/// the provided methods assemble them. Field type conventions match the
/// dynamic XSD binding exactly, so a schema-discovered peer binds to an
/// identical [`StructType`] (same structure fingerprint, byte-identical
/// wire images):
///
/// | Rust | C type | XSD |
/// |------|--------|-----|
/// | `i8` / `u8` | `char` / `unsigned char` | `xsd:byte` / `xsd:unsignedByte` |
/// | `i16` / `u16` | `short` / `unsigned short` | `xsd:short` / `xsd:unsignedShort` |
/// | `i32` / `u32` | `int` / `unsigned int` | `xsd:int` / `xsd:unsignedInt` |
/// | `i64` / `u64` | `long` / `unsigned long` | `xsd:long` / `xsd:unsignedLong` |
/// | `f32` / `f64` | `float` / `double` | `xsd:float` / `xsd:double` |
/// | `String` | `char*` | `xsd:string` |
/// | `[T; N]` | fixed array | `minOccurs="N" maxOccurs="N"` |
/// | `Vec<T>` | pointer + `<field>_count` | `maxOccurs="<field>_count"` |
/// | nested record | struct | named complex type |
///
/// `i64`/`u64` bind to C `long`, which is 4 bytes on the ILP32
/// architectures in the matrix — values outside that range fail
/// encoding there with [`LayoutError::ValueOutOfRange`], exactly as the
/// dynamic binding does for `xsd:long`.
pub trait Xml2WireRecord: Sized {
    /// The format (complex type) name messages carry.
    const FORMAT_NAME: &'static str;

    /// The struct definition, const-constructed in static memory.
    const DESCRIPTOR: &'static ConstStructType;

    /// This type's `<xsd:complexType>` fragment (one per type;
    /// [`schema_xml`](Self::schema_xml) assembles the document).
    const COMPLEX_TYPE_XML: &'static str;

    /// Collects `(name, fragment)` pairs for every complex type this
    /// record needs, nested types first, deduplicated by name.
    fn collect_complex_types(out: &mut Vec<(&'static str, &'static str)>);

    /// `sizeof`/`alignof` of the record's fixed part on `arch`,
    /// computed by generated straight-line code (identical to
    /// [`Layout::of_struct`](crate::layout::Layout::of_struct)).
    fn layout_size_align(arch: &Architecture) -> (usize, usize);

    /// Encodes this record's fields into an image whose fixed part
    /// begins at `image_start + base` in `buf` (already zero-resized by
    /// the caller). Generated code; use
    /// [`encode_image`](Self::encode_image).
    ///
    /// # Errors
    ///
    /// Range overflows and pointer-width overflows.
    fn encode_fields(
        &self,
        buf: &mut Vec<u8>,
        image_start: usize,
        base: usize,
        arch: &Architecture,
    ) -> Result<(), LayoutError>;

    /// Decodes this record from the image region starting at `base` in
    /// `payload`. Generated code; use
    /// [`decode_view`](Self::decode_view).
    ///
    /// # Errors
    ///
    /// Truncation, bad pointers/counts, malformed strings.
    fn decode_fields(
        payload: &[u8],
        base: usize,
        arch: &Architecture,
    ) -> Result<Self, LayoutError>;

    /// The runtime [`StructType`] (for registration, filters and
    /// interop with dynamically-bound peers).
    fn struct_type() -> StructType {
        Self::DESCRIPTOR.to_struct_type()
    }

    /// The XSD schema document describing this record (and its nested
    /// records), ready for metadata-server registration. Parsing it
    /// with the dynamic binder yields [`struct_type`](Self::struct_type)
    /// exactly.
    fn schema_xml() -> String {
        let mut types = Vec::new();
        Self::collect_complex_types(&mut types);
        let mut out =
            String::from("<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">\n");
        for (_, fragment) in &types {
            out.push_str(fragment);
        }
        out.push_str("</xsd:schema>\n");
        out
    }

    /// Appends this record's native byte image to `buf` and returns the
    /// fixed-part length — the typed twin of
    /// [`encode_record_into`](crate::image::encode_record_into),
    /// byte-identical to it for equivalent values.
    ///
    /// # Errors
    ///
    /// As [`encode_fields`](Self::encode_fields); on error the bytes
    /// appended beyond the entry length are unspecified.
    fn encode_image(&self, buf: &mut Vec<u8>, arch: &Architecture) -> Result<usize, LayoutError> {
        let image_start = buf.len();
        let (size, _) = Self::layout_size_align(arch);
        buf.resize(image_start + size, 0);
        self.encode_fields(buf, image_start, 0, arch)?;
        Ok(size)
    }

    /// Decodes a payload image (header already stripped) produced on
    /// `arch` — the typed twin of pbio's `RecordView::to_record`.
    ///
    /// # Errors
    ///
    /// Truncation, bad pointers/counts, malformed strings.
    fn decode_view(payload: &[u8], arch: &Architecture) -> Result<Self, LayoutError> {
        let (size, _) = Self::layout_size_align(arch);
        if payload.len() < size {
            return Err(LayoutError::Truncated {
                reading: format!("fixed part of {}", Self::FORMAT_NAME),
                offset: size,
                len: payload.len(),
            });
        }
        Self::decode_fields(payload, 0, arch)
    }
}

// ---------------------------------------------------------------------------
// Byte-level helpers for generated code
// ---------------------------------------------------------------------------
//
// Each helper mirrors one op of `image::EncodePlan` or one accessor of
// pbio's view plan exactly; the derive emits calls to these so
// the wire conventions live in one audited place instead of being
// re-expanded into every generated impl.

/// Compile-time string equality, used by generated code to assert that
/// a nested record's format name matches the Rust identifier it is
/// referenced by (the emitted XSD names nested complex types by their
/// Rust ident, so a divergent `#[x2w(name)]` must be a compile error).
#[must_use]
pub const fn const_name_matches(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Writes a signed integer field, range-checked against its width.
///
/// # Errors
///
/// [`LayoutError::ValueOutOfRange`] when `value` does not fit.
pub fn put_signed(
    buf: &mut [u8],
    at: usize,
    size: usize,
    endianness: Endianness,
    value: i64,
    field: &str,
) -> Result<(), LayoutError> {
    if !fits_signed(value, size) {
        return Err(LayoutError::ValueOutOfRange {
            field: field.to_owned(),
            value: value.to_string(),
            width: size,
        });
    }
    put_int(buf, at, size, endianness, value);
    Ok(())
}

/// Writes an unsigned integer field, range-checked against its width.
///
/// # Errors
///
/// [`LayoutError::ValueOutOfRange`] when `value` does not fit.
pub fn put_unsigned(
    buf: &mut [u8],
    at: usize,
    size: usize,
    endianness: Endianness,
    value: u64,
    field: &str,
) -> Result<(), LayoutError> {
    if !fits_unsigned(value, size) {
        return Err(LayoutError::ValueOutOfRange {
            field: field.to_owned(),
            value: value.to_string(),
            width: size,
        });
    }
    put_uint(buf, at, size, endianness, value);
    Ok(())
}

/// Writes a float field at the architecture's width for the primitive
/// (4 bytes narrows through `f32`, as the dynamic encoder does).
pub fn put_float(buf: &mut [u8], at: usize, size: usize, endianness: Endianness, value: f64) {
    match size {
        4 => put_uint(buf, at, 4, endianness, u64::from((value as f32).to_bits())),
        _ => put_uint(buf, at, 8, endianness, value.to_bits()),
    }
}

/// Appends a string's bytes (NUL-terminated) to the variable section
/// and stores the image-relative swizzled pointer at `at`.
///
/// # Errors
///
/// [`LayoutError::BadPointer`] when the offset exceeds the pointer
/// width.
pub fn put_string(
    buf: &mut Vec<u8>,
    image_start: usize,
    at: usize,
    arch: &Architecture,
    value: &str,
    field: &str,
) -> Result<(), LayoutError> {
    let target = (buf.len() - image_start) as u64;
    buf.extend_from_slice(value.as_bytes());
    buf.push(0);
    put_uint(buf, at, arch.pointer.size, arch.endianness, target);
    if fits_unsigned(target, arch.pointer.size) {
        Ok(())
    } else {
        Err(LayoutError::BadPointer { field: field.to_owned(), target })
    }
}

/// Opens the variable-section region for a dynamic array: aligns it
/// within the image, zero-extends the buffer over it, and stores the
/// swizzled pointer at `at`. Returns the region's absolute buffer
/// offset, or `None` for an empty array (which stores a null pointer).
///
/// # Errors
///
/// [`LayoutError::BadPointer`] when the region offset exceeds the
/// pointer width.
#[allow(clippy::too_many_arguments)]
pub fn begin_dyn_region(
    buf: &mut Vec<u8>,
    image_start: usize,
    at: usize,
    arch: &Architecture,
    elem_size: usize,
    elem_align: usize,
    count: usize,
    field: &str,
) -> Result<Option<usize>, LayoutError> {
    if count == 0 {
        put_uint(buf, at, arch.pointer.size, arch.endianness, 0);
        return Ok(None);
    }
    let region_rel = align_up(buf.len() - image_start, elem_align);
    let region = image_start + region_rel;
    buf.resize(region + count * elem_size, 0);
    put_uint(buf, at, arch.pointer.size, arch.endianness, region_rel as u64);
    if fits_unsigned(region_rel as u64, arch.pointer.size) {
        Ok(Some(region))
    } else {
        Err(LayoutError::BadPointer { field: field.to_owned(), target: region_rel as u64 })
    }
}

/// Bounds-checks a read of `need` bytes at `at`.
///
/// # Errors
///
/// [`LayoutError::Truncated`] when the image is too short.
pub fn check_range(
    payload: &[u8],
    at: usize,
    need: usize,
    field: &str,
) -> Result<(), LayoutError> {
    if at.checked_add(need).is_none_or(|end| end > payload.len()) {
        Err(LayoutError::Truncated {
            reading: field.to_owned(),
            offset: at,
            len: payload.len(),
        })
    } else {
        Ok(())
    }
}

/// Reads a sign-extended integer field.
///
/// # Errors
///
/// [`LayoutError::Truncated`] on out-of-bounds reads.
pub fn get_signed(
    payload: &[u8],
    at: usize,
    size: usize,
    endianness: Endianness,
    field: &str,
) -> Result<i64, LayoutError> {
    check_range(payload, at, size, field)?;
    Ok(get_int(payload, at, size, endianness))
}

/// Reads an unsigned integer field.
///
/// # Errors
///
/// [`LayoutError::Truncated`] on out-of-bounds reads.
pub fn get_unsigned(
    payload: &[u8],
    at: usize,
    size: usize,
    endianness: Endianness,
    field: &str,
) -> Result<u64, LayoutError> {
    check_range(payload, at, size, field)?;
    Ok(get_uint(payload, at, size, endianness))
}

/// Reads a float field at the architecture's width for the primitive.
///
/// # Errors
///
/// [`LayoutError::Truncated`] on out-of-bounds reads.
pub fn get_float(
    payload: &[u8],
    at: usize,
    size: usize,
    endianness: Endianness,
    field: &str,
) -> Result<f64, LayoutError> {
    check_range(payload, at, size, field)?;
    Ok(match size {
        4 => f64::from(f32::from_bits(get_uint(payload, at, 4, endianness) as u32)),
        _ => f64::from_bits(get_uint(payload, at, 8, endianness)),
    })
}

/// Reads a swizzled string field: follows the image-relative pointer at
/// `at` to the NUL-terminated UTF-8 bytes (a null pointer decodes as
/// the empty string).
///
/// # Errors
///
/// Bad pointers, missing terminators, and non-UTF-8 content.
pub fn read_str(
    payload: &[u8],
    at: usize,
    arch: &Architecture,
    field: &str,
) -> Result<String, LayoutError> {
    check_range(payload, at, arch.pointer.size, field)?;
    let target = get_uint(payload, at, arch.pointer.size, arch.endianness);
    if target == 0 {
        return Ok(String::new());
    }
    let start = usize::try_from(target)
        .ok()
        .filter(|t| *t < payload.len())
        .ok_or_else(|| LayoutError::BadPointer { field: field.to_owned(), target })?;
    let end = payload[start..]
        .iter()
        .position(|b| *b == 0)
        .map(|rel| start + rel)
        .ok_or_else(|| LayoutError::Truncated {
            reading: format!("string field {field}"),
            offset: start,
            len: payload.len(),
        })?;
    std::str::from_utf8(&payload[start..end])
        .map(str::to_owned)
        .map_err(|_| LayoutError::BadString { field: field.to_owned() })
}

/// Resolves a dynamic array's region for decoding: reads and clamps the
/// count, follows the swizzled pointer, and bounds-checks the region.
/// Returns `(region_offset, count)`, or `None` for an empty array.
///
/// # Errors
///
/// [`LayoutError::BadCount`] for negative or implausible counts,
/// [`LayoutError::BadPointer`]/[`LayoutError::Truncated`] for bad
/// regions — the same order of checks as the dynamic decoder.
#[allow(clippy::too_many_arguments)]
pub fn dyn_array_region(
    payload: &[u8],
    ptr_at: usize,
    count_at: usize,
    count_size: usize,
    elem_size: usize,
    arch: &Architecture,
    field: &str,
    count_field: &str,
) -> Result<Option<(usize, usize)>, LayoutError> {
    check_range(payload, count_at, count_size, count_field)?;
    let count = get_int(payload, count_at, count_size, arch.endianness);
    if count < 0 || count as usize > payload.len() / elem_size.max(1) {
        return Err(LayoutError::BadCount { field: count_field.to_owned(), count });
    }
    let count = count as usize;
    check_range(payload, ptr_at, arch.pointer.size, field)?;
    let target = get_uint(payload, ptr_at, arch.pointer.size, arch.endianness);
    if count == 0 {
        return Ok(None);
    }
    let target = usize::try_from(target)
        .map_err(|_| LayoutError::BadPointer { field: field.to_owned(), target })?;
    check_range(payload, target, count * elem_size, field)?;
    Ok(Some((target, count)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_descriptor_materializes_the_struct_type() {
        static ETA: ConstCType = ConstCType::Prim(Primitive::ULong);
        static INNER: ConstStructType = ConstStructType {
            name: "Inner",
            fields: &[ConstField { name: "x", ty: ConstCType::Prim(Primitive::Double) }],
        };
        static DESC: ConstStructType = ConstStructType {
            name: "Outer",
            fields: &[
                ConstField { name: "tag", ty: ConstCType::String },
                ConstField {
                    name: "off",
                    ty: ConstCType::FixedArray { elem: &ETA, len: 5 },
                },
                ConstField {
                    name: "eta",
                    ty: ConstCType::DynArray { elem: &ETA, count: "eta_count" },
                },
                ConstField { name: "in", ty: ConstCType::Struct(&INNER) },
                ConstField { name: "eta_count", ty: ConstCType::Prim(Primitive::Int) },
            ],
        };
        let st = DESC.to_struct_type();
        assert_eq!(st.name, "Outer");
        assert_eq!(st.fields.len(), 5);
        assert_eq!(st.fields[0].ty, CType::String);
        assert_eq!(
            st.fields[1].ty,
            CType::Array {
                elem: Box::new(CType::Prim(Primitive::ULong)),
                len: ArrayLen::Fixed(5)
            }
        );
        assert_eq!(
            st.fields[2].ty,
            CType::Array {
                elem: Box::new(CType::Prim(Primitive::ULong)),
                len: ArrayLen::CountField("eta_count".to_owned())
            }
        );
        match &st.fields[3].ty {
            CType::Struct(inner) => assert_eq!(inner.name, "Inner"),
            other => panic!("expected struct, got {other:?}"),
        }
    }

    #[test]
    fn helpers_enforce_ranges_and_pointers() {
        let mut buf = vec![0u8; 4];
        assert!(put_signed(&mut buf, 0, 2, Endianness::Little, 40000, "x").is_err());
        assert!(put_signed(&mut buf, 0, 2, Endianness::Little, -2, "x").is_ok());
        assert_eq!(get_signed(&buf, 0, 2, Endianness::Little, "x").unwrap(), -2);
        assert!(get_signed(&buf, 3, 2, Endianness::Little, "x").is_err());
        assert!(put_unsigned(&mut buf, 0, 1, Endianness::Little, 256, "x").is_err());
    }
}
