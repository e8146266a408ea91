//! Typed records: Rust structs bound at compile time by
//! `#[derive(Xml2WireRecord)]` (crate `x2w-derive`, re-exported by
//! `xml2wire`).
//!
//! A derived struct is marshaled through the same compiled
//! [`Layout`](clayout::Layout) as every other record of its format. The
//! derive emits data and glue only: the struct's definition as a
//! [`ConstStructType`], a [`Source`](clayout::Source) that answers the
//! encoder field by field
//! ([`ndr::encode_typed_into`](crate::ndr::encode_typed_into)), and
//! [`Xml2WireRecord::from_view`], which reads a [`RecordView`] over the
//! format's layout in declaration order
//! ([`ndr::decode_typed`](crate::ndr::decode_typed)). So typed and
//! dynamic peers exchange the same bytes by construction.

use clayout::{ConstStructType, LayoutError, Source, StructType};

use crate::error::PbioError;
use crate::view::{FieldView, RecordView};

/// A Rust struct with a compile-time wire binding, implemented by
/// `#[derive(Xml2WireRecord)]`.
///
/// Field types bind as the XSD binder binds their schema types, so a
/// schema-discovered peer binds an identical [`StructType`] (same
/// structure fingerprint, same bytes):
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
/// architectures in the matrix: a value outside that range fails
/// encoding there with [`LayoutError::ValueOutOfRange`], as it does for
/// a dynamic `xsd:long`. The schema document of a type is
/// `xml2wire::schema_for_struct(&T::struct_type())`.
pub trait Xml2WireRecord: Source + Sized {
    /// The struct definition, const-constructed in static memory.
    const DESCRIPTOR: &'static ConstStructType;

    /// The format (complex type) name messages carry.
    const FORMAT_NAME: &'static str = Self::DESCRIPTOR.name;

    /// Reads a record of this type out of `view`, whose struct type must
    /// be this type's: its declared fields in order, each converted to
    /// the Rust field's type.
    ///
    /// # Errors
    ///
    /// The view's own decode errors (bad pointers, counts, strings), and
    /// a type mismatch for a field this type cannot hold.
    fn from_view(view: &RecordView<'_>) -> Result<Self, PbioError>;

    /// The runtime [`StructType`], for registration, filters and
    /// dynamically-bound peers.
    fn struct_type() -> StructType {
        Self::DESCRIPTOR.to_struct_type()
    }
}

/// One Rust field shape read from a [`RecordView`]'s field: the glue
/// [`Xml2WireRecord::from_view`] calls once per declared field, in
/// declaration order. The scalar and string shapes are inlined into the
/// generated `from_view`, for the reason `field_at` is.
#[doc(hidden)]
pub trait FromField: Sized {
    /// Converts the view of field `name`.
    ///
    /// # Errors
    ///
    /// A field this shape cannot hold, or the view's decode errors.
    fn from_field(field: FieldView<'_>, name: &str) -> Result<Self, PbioError>;

    /// Reads field `idx` of `view`.
    ///
    /// # Errors
    ///
    /// As [`from_field`](Self::from_field), the field's own decode
    /// error, or a view with no field `idx`.
    #[inline(always)]
    fn read(view: &RecordView<'_>, idx: usize) -> Result<Self, PbioError> {
        let Some(field) = view.struct_type().fields.get(idx) else {
            return Err(LayoutError::MissingField {
                field: format!("#{idx}"),
            }
            .into());
        };
        Self::from_field(view.field_at(idx)?, &field.name)
    }
}

fn mismatch(name: &str, expected: &str, found: &FieldView<'_>) -> PbioError {
    LayoutError::TypeMismatch {
        field: name.to_owned(),
        expected: expected.to_owned(),
        found: found.type_name().to_owned(),
    }
    .into()
}

macro_rules! scalar_fields {
    ($($read:ident: $($t:ty),*;)*) => {$($(
        impl FromField for $t {
            #[inline]
            fn from_field(field: FieldView<'_>, name: &str) -> Result<Self, PbioError> {
                field
                    .$read()
                    .and_then(|v| <$t>::try_from(v).ok())
                    .ok_or_else(|| mismatch(name, stringify!($t), &field))
            }
        }
    )*)*};
}

scalar_fields! {
    as_i64: i8, i16, i32, i64;
    as_u64: u8, u16, u32, u64;
}

impl FromField for f32 {
    #[inline(always)]
    fn from_field(field: FieldView<'_>, name: &str) -> Result<Self, PbioError> {
        // A `float` slot widened to f64 narrows back exactly.
        field
            .as_f64()
            .map(|v| v as f32)
            .ok_or_else(|| mismatch(name, "f32", &field))
    }
}

impl FromField for f64 {
    #[inline(always)]
    fn from_field(field: FieldView<'_>, name: &str) -> Result<Self, PbioError> {
        field.as_f64().ok_or_else(|| mismatch(name, "f64", &field))
    }
}

impl FromField for String {
    #[inline(always)]
    fn from_field(field: FieldView<'_>, name: &str) -> Result<Self, PbioError> {
        field
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| mismatch(name, "string", &field))
    }
}

impl<T: FromField + Default, const N: usize> FromField for [T; N] {
    #[inline]
    fn from_field(field: FieldView<'_>, name: &str) -> Result<Self, PbioError> {
        let items = match field {
            FieldView::Array(items) if items.len() == N => items,
            other => return Err(mismatch(name, &format!("array of {N}"), &other)),
        };
        let mut out: [T; N] = std::array::from_fn(|_| T::default());
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = T::from_field(item?, name)?;
        }
        Ok(out)
    }
}

impl<T: FromField> FromField for Vec<T> {
    #[inline]
    fn from_field(field: FieldView<'_>, name: &str) -> Result<Self, PbioError> {
        let FieldView::Array(items) = field else {
            return Err(mismatch(name, "array", &field));
        };
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(T::from_field(item?, name)?);
        }
        Ok(out)
    }
}

impl<T: Xml2WireRecord> FromField for T {
    #[inline]
    fn from_field(field: FieldView<'_>, name: &str) -> Result<Self, PbioError> {
        let view = field
            .as_record()
            .ok_or_else(|| mismatch(name, T::FORMAT_NAME, &field))?;
        T::from_view(view)
    }
}
