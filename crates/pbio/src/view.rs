//! Borrowed decode views over NDR payloads.
//!
//! [`RecordView`] wraps a wire payload and decodes fields on access —
//! NDR's whole point is that the payload *is* the sender's native memory
//! image, so a receiver that knows the sender's layout can read values
//! straight out of it. Strings come back as validated `&str` slices of
//! the payload, arrays as iterators that decode one element per step,
//! and nested structs as nested views. [`RecordView::to_record`]
//! materializes the whole view as a [`Record`]; it is the one dynamic
//! decoder behind [`ndr::decode_with`](crate::ndr::decode_with).
//!
//! A view reads through the sender's [`Layout`]: per field, the slot
//! offset and the accessor `Layout::of_struct` compiled — a
//! [`ScalarCode`] that fixes width, signedness, float-ness and byte
//! order; a string's pointer code; an array with its element accessor,
//! stride and (for a dynamic array) the offset and code of its count
//! slot; or a nested layout. Everything the layout decides is resolved
//! when it is compiled; per message only the data-dependent checks
//! remain (the payload covers the fixed part, counts are plausible,
//! pointers and regions lie inside the payload, strings are terminated
//! UTF-8).
//!
//! A [`Format`] compiles its own architecture's layout when it is bound,
//! and every view of a layout-compatible payload borrows it; a message
//! whose header carries the format's own architecture descriptor reaches
//! it without the sender's architecture being rebuilt from the header. A
//! view of a foreign-architecture payload lays the struct type out for
//! the sender and owns that layout for its own lifetime.

use std::ops::Deref;
use std::sync::Arc;

use clayout::{
    Access, Architecture, ArrayAccess, ArrayCount, CType, Layout, LayoutError, Record, Scalar,
    ScalarCode, StructField, StructType, Value,
};

use crate::convert::ConversionPlan;
use crate::error::PbioError;
use crate::format::Format;

/// A layout node a view reads through: borrowed from the [`Format`]
/// that compiled it, or a share of a layout the root view compiled for a
/// foreign architecture.
#[derive(Debug, Clone)]
enum LayoutRef<'a, T> {
    Borrowed(&'a T),
    Shared(Arc<T>),
}

impl<'a, T> LayoutRef<'a, T> {
    /// A reference of the same kind to the composite node `part` picks
    /// out of this one.
    fn project<U>(&self, part: impl for<'p> FnOnce(&'p T) -> &'p Arc<U>) -> LayoutRef<'a, U> {
        match self {
            LayoutRef::Borrowed(whole) => LayoutRef::Borrowed(part(whole)),
            LayoutRef::Shared(whole) => LayoutRef::Shared(Arc::clone(part(whole))),
        }
    }
}

impl<T> Deref for LayoutRef<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            LayoutRef::Borrowed(node) => node,
            LayoutRef::Shared(node) => node,
        }
    }
}

/// A lazily-decoded view of one record's NDR payload.
///
/// Obtained from [`ndr::view_with`](crate::ndr::view_with) (whole wire
/// message) or [`RecordView::over`] (bare payload). Field access via
/// [`get`](Self::get) or [`fields`](Self::fields) decodes on demand and
/// borrows from the payload wherever the data allows it.
///
/// Bounds checks are hoisted, not per access: [`over`](Self::over)
/// verifies the whole fixed part once, every dynamic array verifies its
/// region once before handing out an iterator, and nested views inherit
/// their parent's verified extent (the layout engine guarantees each
/// field's extent lies inside its enclosing struct's size). Only
/// pointer chases ([`str_at`]) still check per access — their targets
/// are data, not layout.
#[derive(Debug, Clone)]
pub struct RecordView<'a> {
    payload: &'a [u8],
    struct_type: &'a StructType,
    layout: LayoutRef<'a, Layout>,
    /// Offset of this struct's fixed part within `payload` (non-zero for
    /// nested struct views; pointers stay payload-relative throughout).
    base: usize,
}

/// One field of a [`RecordView`], decoded on access.
///
/// The borrowing variants ([`Str`](Self::Str), [`Array`](Self::Array),
/// [`Record`](Self::Record)) reference the wire payload directly; the
/// accessors mirror [`Value`]'s so eager and lazy decoding can be
/// compared field-for-field.
#[derive(Debug, Clone)]
pub enum FieldView<'a> {
    /// A signed integer (sign-extended from its wire width).
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A floating-point number (widened from `float` if necessary).
    Float(f64),
    /// A string, borrowed from the payload's variable section and
    /// validated as UTF-8. A null pointer views as `""`.
    Str(&'a str),
    /// An array; elements decode as the iterator advances.
    Array(ArrayView<'a>),
    /// A nested struct, viewed lazily like its parent.
    Record(RecordView<'a>),
}

/// An iterator over one array field's elements, decoding each element
/// from the payload as it is consumed: the payload, the array's
/// accessor (element code, stride), a cursor and a count.
#[derive(Debug, Clone)]
pub struct ArrayView<'a> {
    payload: &'a [u8],
    access: LayoutRef<'a, ArrayAccess>,
    /// The array field: its name for error reports, its element type
    /// for nested views.
    field: &'a StructField,
    at: usize,
    remaining: usize,
}

impl From<Scalar> for FieldView<'_> {
    fn from(scalar: Scalar) -> Self {
        match scalar {
            Scalar::Int(v) => FieldView::Int(v),
            Scalar::UInt(v) => FieldView::UInt(v),
            Scalar::Float(v) => FieldView::Float(v),
        }
    }
}

impl<'a> RecordView<'a> {
    /// Wraps a bare NDR payload (no wire header) written by a sender on
    /// `sender_arch` in `format`'s struct type.
    ///
    /// When `sender_arch` is layout-compatible with the format's
    /// architecture the format's layout is borrowed and constructing the
    /// view allocates nothing; otherwise the sender's layout is compiled
    /// once here and lives as long as the view.
    ///
    /// # Errors
    ///
    /// Reports layout failures on the sender's architecture and payloads
    /// shorter than the fixed part.
    #[inline]
    pub fn over(
        payload: &'a [u8],
        format: &'a Format,
        sender_arch: &Architecture,
    ) -> Result<RecordView<'a>, PbioError> {
        let layout = if sender_arch.layout_compatible(format.arch()) {
            LayoutRef::Borrowed(format.layout())
        } else {
            LayoutRef::Shared(Arc::new(Layout::of_struct(
                format.struct_type(),
                sender_arch,
            )?))
        };
        RecordView::with_layout(payload, format, layout)
    }

    /// [`over`](Self::over) for a sender named by its wire-header
    /// descriptor. The format's own descriptor — which `Format::new`
    /// checked maps back to a layout-compatible architecture — borrows
    /// the format's layout without rebuilding the sender's architecture;
    /// any other is reconstructed and goes through `over`.
    #[inline]
    pub(crate) fn over_descriptor(
        payload: &'a [u8],
        format: &'a Format,
        descriptor: [u8; 6],
    ) -> Result<RecordView<'a>, PbioError> {
        if format.own_descriptor() == Some(descriptor) {
            RecordView::with_layout(payload, format, LayoutRef::Borrowed(format.layout()))
        } else {
            RecordView::over(payload, format, &Architecture::from_descriptor(descriptor))
        }
    }

    /// [`over`](Self::over) for the sender whose layout `plan` was
    /// compiled from (`plan` converts `format`'s struct type): the
    /// plan's source layout is shared instead of compiled again, and an
    /// identity plan's sender reads through the format's own layout.
    pub(crate) fn over_plan(
        payload: &'a [u8],
        format: &'a Format,
        plan: &ConversionPlan,
    ) -> Result<RecordView<'a>, PbioError> {
        let layout = match plan.source_layout() {
            Some(src) => LayoutRef::Shared(Arc::clone(src)),
            None => LayoutRef::Borrowed(format.layout()),
        };
        RecordView::with_layout(payload, format, layout)
    }

    #[inline]
    fn with_layout(
        payload: &'a [u8],
        format: &'a Format,
        layout: LayoutRef<'a, Layout>,
    ) -> Result<RecordView<'a>, PbioError> {
        if payload.len() < layout.size {
            return Err(PbioError::Truncated {
                need: layout.size,
                have: payload.len(),
            });
        }
        Ok(RecordView {
            payload,
            struct_type: format.struct_type(),
            layout,
            base: 0,
        })
    }

    /// The struct type this view decodes.
    pub fn struct_type(&self) -> &'a StructType {
        self.struct_type
    }

    /// The architecture the payload is laid out for (the sender's).
    pub fn arch(&self) -> &Architecture {
        self.layout.arch()
    }

    /// Decodes one field by name: one name search, then the field's
    /// compiled accessor.
    ///
    /// # Errors
    ///
    /// Reports unknown fields, and for a known one bad counts, pointers
    /// and regions outside the payload, and unterminated or non-UTF-8
    /// strings.
    #[inline]
    pub fn get(&self, name: &str) -> Result<FieldView<'a>, PbioError> {
        let idx = self.struct_type.field_index(name).ok_or_else(|| {
            PbioError::Layout(LayoutError::MissingField {
                field: name.to_owned(),
            })
        })?;
        self.field_at(idx)
    }

    /// Decodes every field in declaration order, yielding
    /// `(name, field)` pairs; no name is searched for.
    #[inline]
    pub fn fields(&self) -> impl Iterator<Item = (&'a str, Result<FieldView<'a>, PbioError>)> + '_ {
        let names = self.struct_type.fields.iter().map(|f| f.name.as_str());
        names
            .enumerate()
            .map(move |(idx, name)| (name, self.field_at(idx)))
    }

    /// Eagerly decodes the whole view into a [`Record`] — the one
    /// dynamic decoder: what [`ndr::decode_with`](crate::ndr::decode_with)
    /// returns.
    ///
    /// # Errors
    ///
    /// As [`get`](Self::get), for whichever field fails first.
    pub fn to_record(&self) -> Result<Record, PbioError> {
        // The struct type's names are distinct (the layout walk checked).
        let fields = self
            .fields()
            .map(|(name, field)| Ok((name.to_owned(), field?.to_value()?)));
        Ok(Record::from_distinct(
            fields.collect::<Result<_, PbioError>>()?,
        ))
    }

    /// Decodes the `idx`-th field through its accessor.
    // Always inlined, like `ArrayView::next`: a typed read of a scalar
    // field then keeps the value in registers instead of taking a 72-byte
    // `Result` back through memory (measured: a struct of seven scalars
    // decodes in ~85 ns so, ~130 ns otherwise).
    #[inline(always)]
    pub(crate) fn field_at(&self, idx: usize) -> Result<FieldView<'a>, PbioError> {
        let field = &self.layout.fields[idx];
        match field.access {
            // Covered by this view's verified extent.
            Access::Scalar(code) => Ok(code.read(self.payload, self.base + field.offset).into()),
            _ => self.composite_at(idx),
        }
    }

    /// Views the `idx`-th field, a string, array or nested struct.
    fn composite_at(&self, idx: usize) -> Result<FieldView<'a>, PbioError> {
        let field = &self.struct_type.fields[idx];
        let slot_at = &self.layout.fields[idx];
        let at = self.base + slot_at.offset;
        match &slot_at.access {
            Access::Scalar(code) => Ok(code.read(self.payload, at).into()),
            // Slot read covered by this view's verified extent; only
            // the chase needs checking.
            Access::Str(pointer) => {
                str_at(self.payload, slot(*pointer, self.payload, at), &field.name)
                    .map(FieldView::Str)
            }
            Access::Struct(_) => Ok(FieldView::Record(RecordView {
                payload: self.payload,
                struct_type: struct_of(&field.ty),
                layout: self
                    .layout
                    .project(|layout| match &layout.fields[idx].access {
                        Access::Struct(inner) => inner,
                        _ => unreachable!("the accessor matched as a struct"),
                    }),
                // The nested extent lies inside this view's verified one.
                base: at,
            })),
            Access::Array(array) => {
                let (start, count) = match array.count {
                    ArrayCount::Fixed(n) => (at, n),
                    ArrayCount::Counted(c) => {
                        let count = c.code.read(self.payload, self.base + c.offset);
                        let target = slot(c.pointer, self.payload, at);
                        let counter = &self.layout.fields[c.field].name;
                        let stride = array.stride;
                        dynamic_region(self.payload, count, target, stride, &field.name, counter)?
                    }
                };
                Ok(FieldView::Array(ArrayView {
                    payload: self.payload,
                    access: self
                        .layout
                        .project(|layout| match &layout.fields[idx].access {
                            Access::Array(array) => array,
                            _ => unreachable!("the accessor matched as an array"),
                        }),
                    field,
                    at: start,
                    remaining: count,
                }))
            }
        }
    }
}

/// Verifies the region of `payload` that the count and pointer slots of
/// dynamic array `array`, counted by `count_field`, name; returns
/// `(start, count)`. The one check behind every dynamic array a view
/// hands out and every one a conversion copies.
pub(crate) fn dynamic_region(
    payload: &[u8],
    count: Scalar,
    target: u64,
    stride: usize,
    array: &str,
    count_field: &str,
) -> Result<(usize, usize), PbioError> {
    let count = match count {
        Scalar::Int(n) => n,
        Scalar::UInt(n) => i64::try_from(n).unwrap_or(-1),
        Scalar::Float(_) => -1,
    };
    // An honest count is bounded by the payload size over the element
    // size; clamping here also keeps `count * stride` from overflowing
    // and makes absurd counts fail fast.
    if count < 0 || count as usize > payload.len() / stride.max(1) {
        return Err(LayoutError::BadCount {
            field: count_field.to_owned(),
            count,
        }
        .into());
    }
    if count == 0 {
        return Ok((0, 0));
    }
    let start = usize::try_from(target).map_err(|_| LayoutError::BadPointer {
        field: array.to_owned(),
        target,
    })?;
    // The one dynamic-region check: covers every element read from it.
    let count = count as usize;
    bounds_check(payload, start, count * stride, array)?;
    Ok((start, count))
}

/// The unsigned value of the slot of code `pointer` at `at`.
pub(crate) fn slot(pointer: ScalarCode, payload: &[u8], at: usize) -> u64 {
    match pointer.read(payload, at) {
        Scalar::UInt(target) => target,
        Scalar::Int(_) | Scalar::Float(_) => unreachable!("pointer codes are unsigned"),
    }
}

/// The struct type of a struct field, or of an array-of-structs field's
/// elements.
fn struct_of(ty: &CType) -> &StructType {
    match ty {
        CType::Struct(inner) => inner,
        CType::Array { elem, .. } => struct_of(elem),
        _ => unreachable!("a struct accessor is compiled from a struct type"),
    }
}

impl<'a> FieldView<'a> {
    /// A short name for the field's runtime type, used in error messages
    /// (matches [`Value::type_name`] for the corresponding value).
    pub fn type_name(&self) -> &'static str {
        match self {
            FieldView::Int(_) => "int",
            FieldView::UInt(_) => "uint",
            FieldView::Float(_) => "float",
            FieldView::Str(_) => "string",
            FieldView::Array(_) => "array",
            FieldView::Record(_) => "record",
        }
    }

    /// The field as `i64` if it is an integer of either signedness that
    /// fits (same semantics as [`Value::as_i64`]).
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            FieldView::Int(v) => Some(*v),
            FieldView::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The field as `u64` if it is a non-negative integer.
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldView::UInt(v) => Some(*v),
            FieldView::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The field as `f64` if it is a float.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldView::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The field as a payload-borrowed `&str` if it is a string.
    #[inline]
    pub fn as_str(&self) -> Option<&'a str> {
        match self {
            FieldView::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The field as an element iterator if it is an array.
    #[inline]
    pub fn as_array(&self) -> Option<ArrayView<'a>> {
        match self {
            FieldView::Array(a) => Some(a.clone()),
            _ => None,
        }
    }

    /// The field as a nested view if it is a struct.
    #[inline]
    pub fn as_record(&self) -> Option<&RecordView<'a>> {
        match self {
            FieldView::Record(r) => Some(r),
            _ => None,
        }
    }

    /// Eagerly converts this field into a [`Value`] (allocating for
    /// strings, arrays and nested records).
    ///
    /// # Errors
    ///
    /// Array and record conversion can hit the same decode errors as
    /// element access.
    pub fn to_value(&self) -> Result<Value, PbioError> {
        Ok(match self {
            FieldView::Int(v) => Value::Int(*v),
            FieldView::UInt(v) => Value::UInt(*v),
            FieldView::Float(v) => Value::Float(*v),
            FieldView::Str(s) => Value::String((*s).to_owned()),
            FieldView::Array(a) => Value::Array(a.to_values()?),
            FieldView::Record(r) => Value::Record(r.to_record()?),
        })
    }
}

impl<'a> ArrayView<'a> {
    /// Elements not yet consumed.
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// Whether no elements remain.
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }

    /// The remaining elements, eagerly converted.
    fn to_values(&self) -> Result<Vec<Value>, PbioError> {
        if let Access::Scalar(code) = self.access.elem {
            let slots = (0..self.remaining).map(|i| self.at + i * self.access.stride);
            return Ok(slots.map(|at| code.read(self.payload, at).into()).collect());
        }
        self.clone().map(|item| item?.to_value()).collect()
    }
}

impl<'a> Iterator for ArrayView<'a> {
    type Item = Result<FieldView<'a>, PbioError>;

    // Always inlined, and every kind of element built here rather than
    // behind a call: an element comes back as a ~90-byte `Result`, and
    // only when no path hands that back through memory can the
    // optimizer keep a scalar in registers in the caller's loop
    // (measured: 13 ns per element otherwise, 3 ns so).
    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let access = &*self.access;
        let at = self.at;
        self.at += access.stride;
        self.remaining -= 1;
        // The element's extent is covered by the array's verified
        // region (or the enclosing fixed part).
        Some(match &access.elem {
            Access::Scalar(code) => Ok(code.read(self.payload, at).into()),
            // (Not built inside `str_at`: a callee writing the element
            // would pin every element to memory again.)
            Access::Str(pointer) => str_at(
                self.payload,
                slot(*pointer, self.payload, at),
                &self.field.name,
            )
            .map(FieldView::Str),
            Access::Struct(_) => Ok(FieldView::Record(RecordView {
                payload: self.payload,
                struct_type: struct_of(&self.field.ty),
                layout: self.access.project(|array| match &array.elem {
                    Access::Struct(inner) => inner,
                    _ => unreachable!("the element accessor matched as a struct"),
                }),
                base: at,
            })),
            Access::Array(_) => Err(LayoutError::NestedArray {
                field: self.field.name.clone(),
            }
            .into()),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ArrayView<'_> {}

/// Borrows the NUL-terminated string at payload-relative `target` (a
/// swizzled pointer slot value; `0` is the null pointer and views as
/// the empty string).
pub(crate) fn str_at<'a>(
    payload: &'a [u8],
    target: u64,
    field: &str,
) -> Result<&'a str, PbioError> {
    if target == 0 {
        return Ok("");
    }
    let start = usize::try_from(target)
        .ok()
        .filter(|t| *t < payload.len())
        .ok_or_else(|| LayoutError::BadPointer {
            field: field.to_owned(),
            target,
        })?;
    let Some(len) = payload[start..].iter().position(|b| *b == 0) else {
        return Err(LayoutError::Truncated {
            reading: format!("string field {field}"),
            offset: start,
            len: payload.len(),
        }
        .into());
    };
    std::str::from_utf8(&payload[start..start + len]).map_err(|_| {
        LayoutError::BadString {
            field: field.to_owned(),
        }
        .into()
    })
}

fn bounds_check(payload: &[u8], at: usize, need: usize, what: &str) -> Result<(), PbioError> {
    if at.checked_add(need).is_none_or(|end| end > payload.len()) {
        Err(PbioError::Layout(LayoutError::Truncated {
            reading: what.to_owned(),
            offset: at,
            len: payload.len(),
        }))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FormatId;
    use crate::ndr;
    use clayout::Primitive;

    fn prim(p: Primitive) -> CType {
        CType::Prim(p)
    }

    /// Paper Appendix A structure B.
    fn structure_b() -> StructType {
        StructType::new(
            "ASDOffEvent",
            vec![
                StructField::new("cntrId", CType::String),
                StructField::new("arln", CType::String),
                StructField::new("fltNum", prim(Primitive::Int)),
                StructField::new("equip", CType::String),
                StructField::new("org", CType::String),
                StructField::new("dest", CType::String),
                StructField::new("off", CType::fixed_array(prim(Primitive::ULong), 5)),
                StructField::new(
                    "eta",
                    CType::dynamic_array(prim(Primitive::ULong), "eta_count"),
                ),
                StructField::new("eta_count", prim(Primitive::Int)),
            ],
        )
    }

    fn sample_b() -> Record {
        Record::new()
            .with("cntrId", "ZTL")
            .with("arln", "DL")
            .with("fltNum", 1202i64)
            .with("equip", "B752")
            .with("org", "ATL")
            .with("dest", "BOS")
            .with("off", vec![1u64, 2, 3, 4, 5])
            .with("eta", vec![100u64, 200, 300])
    }

    fn format_on(arch: Architecture) -> Format {
        Format::new(FormatId(1), structure_b(), arch).unwrap()
    }

    #[test]
    fn view_reads_scalars_and_strings_without_copying() {
        let format = format_on(Architecture::X86_64);
        let wire = ndr::encode(&sample_b(), &format).unwrap();
        let view = ndr::view_with(&wire, &format).unwrap();
        assert_eq!(view.get("fltNum").unwrap().as_i64(), Some(1202));
        let arln = view.get("arln").unwrap().as_str().unwrap();
        assert_eq!(arln, "DL");
        // The string is a slice of the wire buffer itself.
        let wire_range = wire.as_ptr() as usize..wire.as_ptr() as usize + wire.len();
        assert!(wire_range.contains(&(arln.as_ptr() as usize)));
    }

    #[test]
    fn arrays_iterate_with_exact_len() {
        let format = format_on(Architecture::X86_64);
        let wire = ndr::encode(&sample_b(), &format).unwrap();
        let view = ndr::view_with(&wire, &format).unwrap();
        let off = view.get("off").unwrap().as_array().unwrap();
        assert_eq!(off.len(), 5);
        let values: Vec<u64> = off.map(|v| v.unwrap().as_u64().unwrap()).collect();
        assert_eq!(values, vec![1, 2, 3, 4, 5]);
        let eta = view.get("eta").unwrap().as_array().unwrap();
        assert_eq!(eta.len(), 3);
        let values: Vec<u64> = eta.map(|v| v.unwrap().as_u64().unwrap()).collect();
        assert_eq!(values, vec![100, 200, 300]);
    }

    #[test]
    fn view_agrees_with_eager_decode_cross_architecture() {
        // A big-endian ILP32 sender read by an x86-64 receiver: the view
        // must lay the struct out for the sender and still agree with the
        // materialized decode.
        let sender = format_on(Architecture::SPARC32);
        let receiver = format_on(Architecture::X86_64);
        let wire = ndr::encode(&sample_b(), &sender).unwrap();
        let eager = ndr::decode_with(&wire, &receiver).unwrap();
        let view = ndr::view_with(&wire, &receiver).unwrap();
        assert_eq!(view.to_record().unwrap(), eager);
    }

    #[test]
    fn nested_structs_view_lazily() {
        let inner = StructType::new(
            "pt",
            vec![
                StructField::new("x", prim(Primitive::Double)),
                StructField::new("label", CType::String),
            ],
        );
        let outer = StructType::new(
            "wrap",
            vec![
                StructField::new("head", prim(Primitive::Int)),
                StructField::new("p", CType::Struct(inner)),
            ],
        );
        let rec = Record::new()
            .with("head", 7i64)
            .with("p", Record::new().with("x", 3.5f64).with("label", "origin"));
        for arch in [Architecture::X86_64, Architecture::SPARC32] {
            let format = Format::new(FormatId(9), outer.clone(), arch).unwrap();
            let wire = ndr::encode(&rec, &format).unwrap();
            let view = ndr::view_with(&wire, &format).unwrap();
            let field = view.get("p").unwrap();
            let p = field.as_record().unwrap();
            assert_eq!(p.get("x").unwrap().as_f64(), Some(3.5), "{arch}");
            assert_eq!(p.get("label").unwrap().as_str(), Some("origin"), "{arch}");
        }
    }

    #[test]
    fn empty_dynamic_array_views_as_empty() {
        let st = StructType::new(
            "t",
            vec![
                StructField::new("a", CType::dynamic_array(prim(Primitive::Int), "n")),
                StructField::new("n", prim(Primitive::Int)),
            ],
        );
        let format = Format::new(FormatId(2), st, Architecture::X86_64).unwrap();
        let rec = Record::new().with("a", Vec::<i64>::new());
        let wire = ndr::encode(&rec, &format).unwrap();
        let view = ndr::view_with(&wire, &format).unwrap();
        let a = view.get("a").unwrap().as_array().unwrap();
        assert!(a.is_empty());
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn truncated_payload_is_rejected_not_panicking() {
        let format = format_on(Architecture::X86_64);
        let rec = sample_b();
        let image = clayout::encode_record(&rec, format.struct_type(), format.arch()).unwrap();
        for cut in 0..image.bytes.len() {
            let view = match RecordView::over(&image.bytes[..cut], &format, format.arch()) {
                Ok(view) => view,
                Err(_) => continue, // fixed part missing: rejected at construction
            };
            // Whatever survives construction must fail cleanly (or
            // legitimately succeed for cuts inside trailing bytes).
            for (_, field) in view.fields() {
                let _ = field.and_then(|f| f.to_value());
            }
        }
    }

    #[test]
    fn unknown_field_is_an_error() {
        let format = format_on(Architecture::X86_64);
        let wire = ndr::encode(&sample_b(), &format).unwrap();
        let view = ndr::view_with(&wire, &format).unwrap();
        assert!(view.get("nope").is_err());
    }

    #[test]
    fn an_unsigned_count_is_read_as_unsigned() {
        // 200 elements counted by an `unsigned char`: the count's top
        // bit is set, and it is not a negative count.
        let st = StructType::new(
            "t",
            vec![
                StructField::new("a", CType::dynamic_array(prim(Primitive::Short), "n")),
                StructField::new("n", prim(Primitive::UChar)),
            ],
        );
        let items: Vec<i64> = (0..200).collect();
        let rec = Record::new().with("a", items.clone());
        for arch in [Architecture::X86_64, Architecture::SPARC32] {
            let format = Format::new(FormatId(4), st.clone(), arch).unwrap();
            let wire = ndr::encode(&rec, &format).unwrap();
            let view = ndr::view_with(&wire, &format).unwrap();
            assert_eq!(view.get("n").unwrap().as_u64(), Some(200));
            let a = view.get("a").unwrap().as_array().unwrap();
            assert_eq!(
                a.map(|v| v.unwrap().as_i64().unwrap()).collect::<Vec<_>>(),
                items
            );
        }
    }

    #[test]
    fn unterminated_string_is_rejected() {
        let st = StructType::new("t", vec![StructField::new("s", CType::String)]);
        let format = Format::new(FormatId(3), st, Architecture::X86_64).unwrap();
        let rec = Record::new().with("s", "hello");
        let image = clayout::encode_record(&rec, format.struct_type(), format.arch()).unwrap();
        // Drop the trailing NUL.
        let cut = &image.bytes[..image.bytes.len() - 1];
        let view = RecordView::over(cut, &format, format.arch()).unwrap();
        assert!(matches!(
            view.get("s"),
            Err(PbioError::Layout(LayoutError::Truncated { .. }))
        ));
    }

    #[test]
    fn corrupt_string_pointer_is_rejected() {
        let st = StructType::new("t", vec![StructField::new("s", CType::String)]);
        let format = Format::new(FormatId(3), st, Architecture::X86_64).unwrap();
        let rec = Record::new().with("s", "hi");
        let mut wire = ndr::encode(&rec, &format).unwrap();
        let payload_at = wire.len() - (format.record_size() + 3); // fixed + "hi\0"
        let pointer = ScalarCode::unsigned(8, clayout::Endianness::Little);
        pointer.write_raw(&mut wire, payload_at, 1 << 40);
        let view = ndr::view_with(&wire, &format).unwrap();
        assert!(matches!(
            view.get("s"),
            Err(PbioError::Layout(LayoutError::BadPointer { .. }))
        ));
    }
}
