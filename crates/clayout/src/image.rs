//! Native byte images: building and reading the exact bytes a C struct
//! instance occupies on a given architecture.
//!
//! An [`Image`] is what PBIO's encode step produces and what NDR puts on
//! the wire: the struct's fixed part in native layout, followed by a
//! variable section holding string bytes and dynamically-sized array
//! elements. Pointer-valued slots (strings, dynamic arrays) hold offsets
//! from the start of the image instead of virtual addresses — exactly the
//! pointer swizzling PBIO performs so a buffer is position-independent.

use crate::arch::Architecture;
use crate::ctype::StructType;
use crate::error::LayoutError;
use crate::layout::{
    align_up, Access, ArrayAccess, ArrayCount, Layout, Scalar, ScalarCode, ScalarKind,
};
use crate::value::{Record, Value};

/// A native byte image of one record on one architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// The raw bytes: fixed part first, then the variable section.
    pub bytes: Vec<u8>,
    /// Length of the fixed part (`sizeof` the root struct).
    pub fixed_len: usize,
}

impl Image {
    /// The variable-section bytes (everything after the fixed part).
    pub fn var_section(&self) -> &[u8] {
        &self.bytes[self.fixed_len.min(self.bytes.len())..]
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// What the encoder ([`encode_record_into`]) reads a record's values
/// from.
///
/// A [`Record`] is one source, and so is every struct
/// `#[derive(Xml2WireRecord)]` binds, answering field `idx` with its
/// `idx`-th declared field.
pub trait Source {
    /// Field `idx`, named `name`, or `None` when the record lacks it. A
    /// dynamic array's count field may be absent: the encoder writes it
    /// from the array's length.
    fn field(&self, idx: usize, name: &str) -> Option<SourceValue<'_>>;
}

/// One value a [`Source`] hands the encoder, which checks its kind and
/// range against the slot it is written to.
#[derive(Clone, Copy)]
pub enum SourceValue<'a> {
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(&'a str),
    /// An array.
    Array(Items<'a>),
    /// A nested record.
    Record(&'a dyn Source),
    /// A dynamic value, which may be any of the above.
    Value(&'a Value),
}

// The accessors convert exactly as `Value`'s do.
impl<'a> SourceValue<'a> {
    /// The name [`Value::type_name`] gives the same kind of value.
    fn type_name(self) -> &'static str {
        match self {
            SourceValue::Int(_) => "int",
            SourceValue::UInt(_) => "uint",
            SourceValue::Float(_) => "float",
            SourceValue::Str(_) => "string",
            SourceValue::Array(_) => "array",
            SourceValue::Record(_) => "record",
            SourceValue::Value(v) => v.type_name(),
        }
    }

    #[inline]
    fn as_i64(self) -> Option<i64> {
        match self {
            SourceValue::Int(v) => Some(v),
            SourceValue::UInt(v) => i64::try_from(v).ok(),
            SourceValue::Value(v) => v.as_i64(),
            _ => None,
        }
    }

    #[inline]
    fn as_u64(self) -> Option<u64> {
        match self {
            SourceValue::UInt(v) => Some(v),
            SourceValue::Int(v) => u64::try_from(v).ok(),
            SourceValue::Value(v) => v.as_u64(),
            _ => None,
        }
    }

    #[inline]
    fn as_f64(self) -> Option<f64> {
        match self {
            SourceValue::Float(v) => Some(v),
            SourceValue::Value(v) => v.as_f64(),
            _ => None,
        }
    }

    fn as_str(self) -> Option<&'a str> {
        match self {
            SourceValue::Str(s) => Some(s),
            SourceValue::Value(v) => v.as_str(),
            _ => None,
        }
    }

    /// The items of an array value, or a type mismatch on `field`.
    fn items(self, field: &str) -> Result<Items<'a>, LayoutError> {
        match self {
            SourceValue::Array(items) => Ok(items),
            SourceValue::Value(Value::Array(v)) => Ok(Items::Values(v)),
            _ => Err(mismatch(field, "array", self)),
        }
    }

    fn as_record(self) -> Option<&'a dyn Source> {
        match self {
            SourceValue::Record(record) => Some(record),
            SourceValue::Value(v) => v.as_record().map(|record| record as &dyn Source),
            _ => None,
        }
    }
}

// One slice type per item type, so the encoder walks an array's items with
// no call per item; each item type converts to a `SourceValue` as given.
macro_rules! items {
    ($($variant:ident($t:ty): |$v:ident| $value:expr,)*) => {
        /// The items of an array [`SourceValue`]: a slice of dynamic
        /// values, of one scalar type, or of strings.
        #[derive(Clone, Copy)]
        pub enum Items<'a> {
            $(
                #[doc = concat!("A `", stringify!($t), "` slice.")]
                $variant(&'a [$t]),
            )*
        }

        impl<'a> Items<'a> {
            #[inline]
            fn len(self) -> usize {
                match self {
                    $(Items::$variant(items) => items.len(),)*
                }
            }

            /// Hands `f` each item and its index, in order, stopping at
            /// the first error.
            #[inline]
            fn each<E>(
                self,
                mut f: impl FnMut(usize, SourceValue<'a>) -> Result<(), E>,
            ) -> Result<(), E> {
                match self {
                    $(Items::$variant(items) => {
                        for (i, item) in items.iter().enumerate() {
                            f(i, item.into())?;
                        }
                    })*
                }
                Ok(())
            }
        }

        $(
            impl<'a> From<&'a $t> for SourceValue<'a> {
                #[inline]
                fn from($v: &'a $t) -> Self {
                    $value
                }
            }

            impl<'a> From<&'a [$t]> for SourceValue<'a> {
                #[inline]
                fn from(items: &'a [$t]) -> Self {
                    SourceValue::Array(Items::$variant(items))
                }
            }
        )*
    };
}

items! {
    Values(Value): |v| SourceValue::Value(v),
    I8(i8): |v| SourceValue::Int(i64::from(*v)),
    U8(u8): |v| SourceValue::UInt(u64::from(*v)),
    I16(i16): |v| SourceValue::Int(i64::from(*v)),
    U16(u16): |v| SourceValue::UInt(u64::from(*v)),
    I32(i32): |v| SourceValue::Int(i64::from(*v)),
    U32(u32): |v| SourceValue::UInt(u64::from(*v)),
    I64(i64): |v| SourceValue::Int(*v),
    U64(u64): |v| SourceValue::UInt(*v),
    F32(f32): |v| SourceValue::Float(f64::from(*v)),
    F64(f64): |v| SourceValue::Float(*v),
    Strings(String): |v| SourceValue::Str(v),
}

impl Source for Record {
    #[inline]
    fn field(&self, idx: usize, name: &str) -> Option<SourceValue<'_>> {
        self.get_hinted(idx, name).map(SourceValue::from)
    }
}

// The encoder: one pass of a struct type's [`Layout`] over a `Source`,
// every width, byte order, stride, alignment and count-field link read
// from the layout's accessors; per message only the values are
// type-checked and range-checked.
impl Layout {
    /// Writes `record` into the struct slot at `base`; the image began
    /// at `image_start` (pointers are image-relative, not
    /// buffer-relative: the image may sit after other content, e.g. a
    /// wire header).
    fn encode_struct<S: Source + ?Sized>(
        &self,
        buf: &mut Vec<u8>,
        image_start: usize,
        base: usize,
        record: &S,
    ) -> Result<(), LayoutError> {
        for (idx, field) in self.fields.iter().enumerate() {
            let (at, name) = (base + field.offset, &field.name);
            let value = record.field(idx, name);
            if let Some(array) = field.count_of {
                // A wrong count is reported where the count or its
                // array comes first, as one validation pass up front
                // would report it.
                let items = self.items_of(record, array)?;
                self.check_count(value, array, items)?;
                let value = value.unwrap_or(SourceValue::UInt(items.len() as u64));
                encode_at(buf, image_start, at, value, &field.access, name)?;
                continue;
            }
            let value = value.ok_or_else(|| LayoutError::MissingField {
                field: name.clone(),
            })?;
            let Access::Array(array) = &field.access else {
                encode_at(buf, image_start, at, value, &field.access, name)?;
                continue;
            };
            let ArrayCount::Counted(slot) = array.count else {
                encode_at(buf, image_start, at, value, &field.access, name)?;
                continue;
            };
            let items = value.items(name)?;
            let supplied = record.field(slot.field, &self.fields[slot.field].name);
            self.check_count(supplied, idx, items)?;
            if items.len() == 0 {
                // The slot stays the null pointer it was zero-filled to.
                continue;
            }
            // Align the region within the *image*, not the buffer.
            let region_rel = align_up(buf.len() - image_start, array.align);
            let region = image_start + region_rel;
            buf.resize(region + items.len() * array.stride, 0);
            point(buf, at, slot.pointer, region_rel, name)?;
            encode_elements(buf, image_start, region, array, items, name)?;
        }
        Ok(())
    }

    /// The items the record holds for the dynamic array at field index
    /// `array`.
    fn items_of<'r, S: Source + ?Sized>(
        &self,
        record: &'r S,
        array: usize,
    ) -> Result<Items<'r>, LayoutError> {
        let name = &self.fields[array].name;
        let missing = || LayoutError::MissingField {
            field: name.clone(),
        };
        record.field(array, name).ok_or_else(missing)?.items(name)
    }

    /// Refuses a count the record supplies that is not the length of
    /// `items`, the array at field index `array`.
    #[inline]
    fn check_count(
        &self,
        supplied: Option<SourceValue<'_>>,
        array: usize,
        items: Items<'_>,
    ) -> Result<(), LayoutError> {
        let actual = items.len();
        match supplied.and_then(SourceValue::as_u64) {
            Some(count) if count != actual as u64 => Err(LayoutError::ArrayLengthMismatch {
                field: self.fields[array].name.clone(),
                declared: count as usize,
                actual,
            }),
            _ => Ok(()),
        }
    }
}

/// Points the slot at `at`, of code `pointer`, to image-relative
/// `target`, if the slot can hold it.
#[inline]
fn point(
    buf: &mut [u8],
    at: usize,
    pointer: ScalarCode,
    target: usize,
    field: &str,
) -> Result<(), LayoutError> {
    let target = target as u64;
    pointer
        .write(buf, at, Scalar::UInt(target), field)
        .map_err(|_| LayoutError::BadPointer {
            field: field.to_owned(),
            target,
        })
}

/// Writes one value at `at`: anything but a dynamic array, which only a
/// struct's own field can be and `encode_struct` writes.
#[inline]
fn encode_at(
    buf: &mut Vec<u8>,
    image_start: usize,
    at: usize,
    value: SourceValue<'_>,
    access: &Access,
    field: &str,
) -> Result<(), LayoutError> {
    match access {
        Access::Scalar(code) => encode_scalar(buf, at, *code, value, field),
        Access::Str(pointer) => {
            let s = value
                .as_str()
                .ok_or_else(|| mismatch(field, "string", value))?;
            let target = buf.len() - image_start;
            point(buf, at, *pointer, target, field)?;
            buf.extend_from_slice(s.as_bytes());
            buf.push(0);
            Ok(())
        }
        Access::Struct(inner) => {
            let rec = value.as_record().ok_or_else(|| {
                mismatch(field, &format!("record of struct {}", inner.name), value)
            })?;
            inner.encode_struct(buf, image_start, at, rec)
        }
        Access::Array(array) => match array.count {
            ArrayCount::Fixed(len) => {
                let items = value.items(field)?;
                if items.len() != len {
                    return Err(LayoutError::ArrayLengthMismatch {
                        field: field.to_owned(),
                        declared: len,
                        actual: items.len(),
                    });
                }
                encode_elements(buf, image_start, at, array, items, field)
            }
            // The layout engine admits no arrays of arrays.
            ArrayCount::Counted(_) => Err(LayoutError::NestedArray {
                field: field.to_owned(),
            }),
        },
    }
}

/// Writes `items`, the elements of `array`, from `start`.
#[inline]
fn encode_elements(
    buf: &mut Vec<u8>,
    image_start: usize,
    start: usize,
    array: &ArrayAccess,
    items: Items<'_>,
    field: &str,
) -> Result<(), LayoutError> {
    let (elem, stride) = (&array.elem, array.stride);
    if let Access::Scalar(code) = *elem {
        let slots = &mut buf[start..start + items.len() * stride];
        return items.each(|i, item| encode_scalar(slots, i * stride, code, item, field));
    }
    items.each(|i, item| encode_at(buf, image_start, start + i * stride, item, elem, field))
}

fn mismatch(field: &str, expected: &str, found: SourceValue<'_>) -> LayoutError {
    LayoutError::TypeMismatch {
        field: field.to_owned(),
        expected: expected.to_owned(),
        found: found.type_name().into(),
    }
}

/// Type-checks `value` against `code` and stores it, range-checked.
#[inline]
fn encode_scalar(
    buf: &mut [u8],
    at: usize,
    code: ScalarCode,
    value: SourceValue<'_>,
    field: &str,
) -> Result<(), LayoutError> {
    let (number, expected) = match code.kind {
        ScalarKind::Float => (value.as_f64().map(Scalar::Float), "float"),
        ScalarKind::Int => (value.as_i64().map(Scalar::Int), "int"),
        ScalarKind::UInt => (value.as_u64().map(Scalar::UInt), "uint"),
    };
    let number = number.ok_or_else(|| mismatch(field, expected, value))?;
    code.write(buf, at, number, field)
}

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
    let mut bytes = Vec::with_capacity(layout.size);
    let fixed_len = encode_record_into(&mut bytes, record, &layout)?;
    Ok(Image { bytes, fixed_len })
}

/// Appends a native byte image of `record` to `buf`, reusing the
/// caller's buffer (and its capacity) instead of allocating one — the
/// zero-allocation encode primitive behind [`encode_record`] and pbio's
/// pooled message encoders, dynamic and typed.
///
/// The image starts at `buf.len()` at entry; image-relative pointers
/// (strings, dynamic arrays) are measured from there, so the appended
/// bytes are exactly what [`encode_record`] would have produced on an
/// empty buffer. `layout` is the struct type's layout on the target
/// architecture — callers that encode at rate (pbio's `Format`) build it
/// once. Each field is
/// asked of the source at the field's own index, so a [`Record`] built
/// in declaration order is never searched by name. Returns the image's
/// fixed-part length.
///
/// # Errors
///
/// As [`encode_record`]. On error the buffer's length beyond the entry
/// point is unspecified; callers reusing buffers should truncate back.
pub fn encode_record_into<S: Source + ?Sized>(
    buf: &mut Vec<u8>,
    record: &S,
    layout: &Layout,
) -> Result<usize, LayoutError> {
    let image_start = buf.len();
    buf.resize(image_start + layout.size, 0);
    layout.encode_struct(buf, image_start, image_start, record)?;
    Ok(layout.size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctype::{CType, Primitive, StructField};

    fn prim(p: Primitive) -> CType {
        CType::Prim(p)
    }

    #[test]
    fn field_order_of_the_record_does_not_matter() {
        // Slots are tried positionally first; a shuffled record falls
        // back to the name search and encodes the same bytes.
        let st = StructType::new(
            "t",
            vec![
                StructField::new("a", CType::dynamic_array(prim(Primitive::Short), "n")),
                StructField::new("s", CType::String),
                StructField::new("n", prim(Primitive::Int)),
            ],
        );
        let declared = Record::new()
            .with("a", vec![7i64, -8])
            .with("s", "hi")
            .with("n", 2i64);
        let shuffled = Record::new()
            .with("n", 2i64)
            .with("s", "hi")
            .with("a", vec![7i64, -8]);
        let count_omitted = Record::new().with("s", "hi").with("a", vec![7i64, -8]);
        for arch in Architecture::ALL {
            let image = encode_record(&declared, &st, &arch).unwrap();
            assert_eq!(
                encode_record(&shuffled, &st, &arch).unwrap(),
                image,
                "{arch}"
            );
            assert_eq!(
                encode_record(&count_omitted, &st, &arch).unwrap(),
                image,
                "{arch}"
            );
        }
    }

    #[test]
    fn integer_endianness_is_respected() {
        let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::Int))]);
        let rec = Record::new().with("x", 0x01020304i64);
        let le = encode_record(&rec, &st, &Architecture::X86_64).unwrap();
        let be = encode_record(&rec, &st, &Architecture::SPARC64).unwrap();
        assert_eq!(&le.bytes[..4], &[0x04, 0x03, 0x02, 0x01]);
        assert_eq!(&be.bytes[..4], &[0x01, 0x02, 0x03, 0x04]);
    }

    #[test]
    fn value_out_of_range_is_rejected() {
        let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::Short))]);
        let rec = Record::new().with("x", 70000i64);
        assert!(matches!(
            encode_record(&rec, &st, &Architecture::X86_64),
            Err(LayoutError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn ulong_overflow_depends_on_architecture() {
        // 2^40 fits an LP64 unsigned long but not an ILP32 one.
        let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::ULong))]);
        let rec = Record::new().with("x", 1u64 << 40);
        assert!(encode_record(&rec, &st, &Architecture::X86_64).is_ok());
        assert!(matches!(
            encode_record(&rec, &st, &Architecture::I386),
            Err(LayoutError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn missing_field_is_rejected() {
        let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::Int))]);
        assert!(matches!(
            encode_record(&Record::new(), &st, &Architecture::X86_64),
            Err(LayoutError::MissingField { .. })
        ));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::Int))]);
        let rec = Record::new().with("x", "not a number");
        assert!(matches!(
            encode_record(&rec, &st, &Architecture::X86_64),
            Err(LayoutError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn fixed_array_length_mismatch_is_rejected() {
        let st = StructType::new(
            "t",
            vec![StructField::new(
                "a",
                CType::fixed_array(prim(Primitive::Int), 3),
            )],
        );
        let rec = Record::new().with("a", vec![1i64, 2]);
        assert!(matches!(
            encode_record(&rec, &st, &Architecture::X86_64),
            Err(LayoutError::ArrayLengthMismatch {
                declared: 3,
                actual: 2,
                ..
            })
        ));
    }

    #[test]
    fn supplied_count_must_match_array_length() {
        let st = StructType::new(
            "t",
            vec![
                StructField::new("a", CType::dynamic_array(prim(Primitive::Int), "n")),
                StructField::new("n", prim(Primitive::Int)),
            ],
        );
        let rec = Record::new().with("a", vec![1i64, 2]).with("n", 5u64);
        assert!(matches!(
            encode_record(&rec, &st, &Architecture::X86_64),
            Err(LayoutError::ArrayLengthMismatch { .. })
        ));
        let ok = Record::new().with("a", vec![1i64, 2]).with("n", 2u64);
        assert!(encode_record(&ok, &st, &Architecture::X86_64).is_ok());
    }

    #[test]
    fn var_section_view() {
        let st = StructType::new("t", vec![StructField::new("s", CType::String)]);
        let rec = Record::new().with("s", "xyz");
        let image = encode_record(&rec, &st, &Architecture::X86_64).unwrap();
        assert_eq!(image.var_section(), b"xyz\0");
    }
}
