//! The C struct layout algorithm: `sizeof`, `alignof`, field offsets,
//! and the accessor every reader of an image goes through.

use std::collections::HashSet;
use std::sync::Arc;

use crate::arch::{Architecture, Endianness, SizeAlign};
use crate::ctype::{ArrayLen, CType, Primitive, StructField, StructType};
use crate::error::LayoutError;

/// How one primitive is stored — width, signedness, float-ness and byte
/// order resolved once into a small `Copy` code, so the readers of a
/// [`Layout`] (the encoder, pbio's views, conversion plans and filter
/// programs) read and write scalars without consulting the
/// [`Architecture`] again. It is the one codec for numbers in an image,
/// and in XDR and CDR bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalarCode {
    pub(crate) kind: ScalarKind,
    /// Stored width in bytes: 1, 2, 4 or 8.
    width: u8,
    big_endian: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScalarKind {
    Int,
    UInt,
    Float,
}

/// One decoded scalar: integers widened to 64 bits, `float` to `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// A signed integer, sign-extended from its stored width.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
}

/// The `N` bytes at `at`. Panics out of bounds, like slice indexing;
/// callers verify extents first.
#[inline(always)]
fn bytes_at<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    bytes[at..at + N]
        .try_into()
        .expect("the range is N bytes long")
}

impl ScalarCode {
    /// The code for `prim` as `arch` stores it.
    ///
    /// # Panics
    ///
    /// Panics if `arch` gives the primitive a width other than 1, 2, 4
    /// or 8 bytes (4 or 8 for floats); no such machine is modelled.
    pub fn of(prim: Primitive, arch: &Architecture) -> ScalarCode {
        ScalarCode::new(prim, arch.primitive(prim).size, arch.endianness)
    }

    /// The code of a `prim` stored in `width` bytes in `endianness`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8 (4 or 8 for floats).
    pub fn new(prim: Primitive, width: usize, endianness: Endianness) -> ScalarCode {
        let kind = if prim.is_float() {
            assert!(
                matches!(width, 4 | 8),
                "no scalar code for a {width}-byte {prim}"
            );
            ScalarKind::Float
        } else if prim.is_signed_integer() {
            ScalarKind::Int
        } else {
            ScalarKind::UInt
        };
        ScalarCode {
            kind,
            ..ScalarCode::unsigned(width, endianness)
        }
    }

    /// The code of a `size`-byte unsigned slot (pointer slots, unsigned
    /// primitives).
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn unsigned(size: usize, endianness: Endianness) -> ScalarCode {
        assert!(
            matches!(size, 1 | 2 | 4 | 8),
            "no scalar code for a {size}-byte integer"
        );
        ScalarCode {
            kind: ScalarKind::UInt,
            width: size as u8,
            big_endian: endianness == Endianness::Big,
        }
    }

    /// Stored width in bytes.
    pub fn size(self) -> usize {
        usize::from(self.width)
    }

    /// Decodes the scalar stored at `at`: one width-sized load in the
    /// stored byte order, then a sign extension or float widening.
    ///
    /// # Panics
    ///
    /// Panics out of bounds; callers verify extents first.
    #[inline(always)]
    pub fn read(self, bytes: &[u8], at: usize) -> Scalar {
        let big = self.big_endian;
        let raw: u64 = match self.width {
            1 => bytes[at].into(),
            2 if big => u16::from_be_bytes(bytes_at(bytes, at)).into(),
            2 => u16::from_le_bytes(bytes_at(bytes, at)).into(),
            4 if big => u32::from_be_bytes(bytes_at(bytes, at)).into(),
            4 => u32::from_le_bytes(bytes_at(bytes, at)).into(),
            _ if big => u64::from_be_bytes(bytes_at(bytes, at)),
            _ => u64::from_le_bytes(bytes_at(bytes, at)),
        };
        match self.kind {
            ScalarKind::UInt => Scalar::UInt(raw),
            ScalarKind::Int => {
                let shift = 64 - 8 * u32::from(self.width);
                Scalar::Int(((raw << shift) as i64) >> shift)
            }
            ScalarKind::Float if self.width == 4 => {
                Scalar::Float(f32::from_bits(raw as u32).into())
            }
            ScalarKind::Float => Scalar::Float(f64::from_bits(raw)),
        }
    }

    /// Stores the low [`size`](Self::size) bytes of `raw` (an integer's
    /// two's-complement bits, or a float's IEEE bits) at `at`.
    ///
    /// # Panics
    ///
    /// Panics out of bounds; callers size buffers from layout data.
    #[inline(always)]
    pub fn write_raw(self, buf: &mut [u8], at: usize, raw: u64) {
        let big = self.big_endian;
        let (le, be) = (raw.to_le_bytes(), raw.to_be_bytes());
        match self.width {
            1 => buf[at] = le[0],
            2 => buf[at..at + 2].copy_from_slice(if big { &be[6..] } else { &le[..2] }),
            4 => buf[at..at + 4].copy_from_slice(if big { &be[4..] } else { &le[..4] }),
            _ => buf[at..at + 8].copy_from_slice(if big { &be } else { &le }),
        }
    }

    /// Stores the number `value` at `at` in this code's width and byte
    /// order: an integer if it fits [`size`](Self::size) bytes at its own
    /// signedness, a float as binary32 or binary64. The number's own
    /// kind decides the check; the code's kind only matters to
    /// [`read`](Self::read). Every store of a number that may not fit —
    /// an encoded value, a converted one — comes through here.
    ///
    /// # Errors
    ///
    /// [`LayoutError::ValueOutOfRange`], naming `field`, for an integer
    /// too wide for the slot; nothing is written then.
    ///
    /// # Panics
    ///
    /// Panics out of bounds; callers size buffers from layout data.
    #[inline(always)]
    pub fn write(
        self,
        buf: &mut [u8],
        at: usize,
        value: Scalar,
        field: &str,
    ) -> Result<(), LayoutError> {
        // An integer fits when its low `width` bytes, extended at its
        // signedness, give it back.
        let shift = 64 - 8 * u32::from(self.width);
        let raw = match value {
            Scalar::Int(v) if (v << shift) >> shift == v => v as u64,
            Scalar::UInt(v) if (v << shift) >> shift == v => v,
            Scalar::Float(v) if self.width == 4 => u64::from((v as f32).to_bits()),
            Scalar::Float(v) => v.to_bits(),
            _ => return Err(out_of_range(value, field, self.size())),
        };
        self.write_raw(buf, at, raw);
        Ok(())
    }
}

#[cold]
fn out_of_range(value: Scalar, field: &str, width: usize) -> LayoutError {
    let value = match value {
        Scalar::Int(v) => v.to_string(),
        Scalar::UInt(v) => v.to_string(),
        Scalar::Float(v) => v.to_string(),
    };
    LayoutError::ValueOutOfRange {
        field: field.to_owned(),
        value,
        width,
    }
}

/// The placement of one field inside a laid-out struct, and how its
/// slot is read and written.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldLayout {
    /// Field name.
    pub name: String,
    /// Byte offset from the start of the struct (what `IOOffset` computed
    /// in the paper's PBIO metadata).
    pub offset: usize,
    /// Size in bytes of the field's slot in the fixed part. For strings
    /// and dynamic arrays this is the pointer size, not the data size.
    pub size: usize,
    /// Alignment requirement of the field.
    pub align: usize,
    /// How the slot is read and written.
    pub access: Access,
    /// The field index of the first dynamic array that names this field
    /// as its count: the encoder writes the field from that array's
    /// length when a record omits it.
    pub(crate) count_of: Option<usize>,
}

/// How one value is read and written on a layout's architecture.
// Composite accessors sit behind their own `Arc` so a reader that owns a
// layout can hand a nested view or an array iterator a share of exactly
// the node it reads through.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// A number, stored as this code says.
    Scalar(ScalarCode),
    /// A string, behind a pointer slot of this code.
    Str(ScalarCode),
    /// A nested struct.
    Struct(Arc<Layout>),
    /// An array.
    Array(Arc<ArrayAccess>),
}

/// How an array field's elements are laid out.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayAccess {
    /// How each element is read and written.
    pub elem: Access,
    /// Bytes from one element to the next.
    pub stride: usize,
    /// The element's alignment: where a dynamic array's region starts.
    pub align: usize,
    /// How many elements there are.
    pub count: ArrayCount,
}

/// An array's element count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrayCount {
    /// A fixed array, inline in the fixed part.
    Fixed(usize),
    /// A dynamic array, behind a pointer slot, counted by a field of the
    /// enclosing struct.
    Counted(CountSlot),
}

/// Where a dynamic array's count and elements are found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountSlot {
    /// The count field's index in the enclosing struct.
    pub field: usize,
    /// The count slot's offset in the enclosing struct.
    pub offset: usize,
    /// How the count is stored.
    pub code: ScalarCode,
    /// The code of the array's own pointer slot.
    pub pointer: ScalarCode,
}

/// A struct type laid out on one architecture: its size, alignment and
/// every field's placement and accessor, compiled once. The encoder,
/// pbio's views, conversion plans and filter programs all read it.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    /// The struct type's name, for the encoder's error texts.
    pub(crate) name: String,
    /// `sizeof` the struct, including trailing padding.
    pub size: usize,
    /// `alignof` the struct (max field alignment, min 1).
    pub align: usize,
    /// Field placements in declaration order.
    pub fields: Vec<FieldLayout>,
    arch: Architecture,
}

impl Layout {
    /// Computes the size and alignment of any [`CType`] under `arch`.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::NestedArray`] for arrays of arrays, and
    /// propagates errors from nested struct layout.
    pub fn size_align(ty: &CType, arch: &Architecture) -> Result<SizeAlign, LayoutError> {
        match ty {
            CType::Prim(p) => Ok(arch.primitive(*p)),
            CType::String => Ok(arch.pointer),
            CType::Array { elem, len } => {
                if matches!(**elem, CType::Array { .. }) {
                    return Err(LayoutError::NestedArray {
                        field: String::new(),
                    });
                }
                match len {
                    ArrayLen::Fixed(n) => {
                        let elem_sa = Layout::size_align(elem, arch)?;
                        Ok(SizeAlign {
                            size: elem_sa.size * n,
                            align: elem_sa.align,
                        })
                    }
                    // Dynamic arrays occupy a pointer slot in the struct.
                    ArrayLen::CountField(_) => Ok(arch.pointer),
                }
            }
            CType::Struct(st) => Layout::place(st, arch, |_, _, _| Ok(())),
        }
    }

    /// Places `st`'s fields on `arch` using the standard C algorithm —
    /// each field at the next offset aligned to its requirement, the
    /// total size padded up to the struct's own alignment — handing
    /// `slot` every field with its offset and size/alignment in
    /// declaration order (an error from `slot` ends the walk), and
    /// returns the struct's own size and alignment. Allocates nothing:
    /// this is the walk behind [`of_struct`](Self::of_struct) and
    /// [`size_align`](Self::size_align).
    ///
    /// # Errors
    ///
    /// [`LayoutError::NestedArray`], naming the innermost field, and
    /// whatever `slot` reports; nothing is reported for an empty struct,
    /// which (as in C with the usual extension) has size 0.
    fn place(
        st: &StructType,
        arch: &Architecture,
        mut slot: impl FnMut(&StructField, usize, SizeAlign) -> Result<(), LayoutError>,
    ) -> Result<SizeAlign, LayoutError> {
        let mut offset = 0usize;
        let mut max_align = 1usize;
        for field in &st.fields {
            let sa = Layout::size_align(&field.ty, arch).map_err(|e| match e {
                LayoutError::NestedArray { field: inner } if inner.is_empty() => {
                    LayoutError::NestedArray {
                        field: field.name.clone(),
                    }
                }
                other => other,
            })?;
            offset = align_up(offset, sa.align);
            slot(field, offset, sa)?;
            offset += sa.size;
            max_align = max_align.max(sa.align);
        }
        Ok(SizeAlign {
            size: align_up(offset, max_align),
            align: max_align,
        })
    }

    /// Lays out `st` on `arch`, walking it with [`place`](Self::place)
    /// and recording every field's placement and accessor. The walk
    /// checks the metadata-level constraints the paper's tool enforced,
    /// in `st` and in every struct nested in it: unique field names, no
    /// arrays of arrays, and every count-field reference naming an
    /// integer field of the same struct.
    ///
    /// # Errors
    ///
    /// See [`LayoutError`].
    pub fn of_struct(st: &StructType, arch: &Architecture) -> Result<Layout, LayoutError> {
        check_unique_names(st)?;
        let pointer = ScalarCode::unsigned(arch.pointer.size, arch.endianness);
        let access = |ty: &CType| -> Result<Access, LayoutError> {
            Ok(match ty {
                CType::Prim(p) => Access::Scalar(ScalarCode::of(*p, arch)),
                CType::String => Access::Str(pointer),
                CType::Struct(inner) => Access::Struct(Arc::new(Layout::of_struct(inner, arch)?)),
                // `place` refuses arrays of arrays before an element
                // gets here.
                CType::Array { .. } => unreachable!("an array's element is no array"),
            })
        };
        let mut fields = Vec::with_capacity(st.fields.len());
        let SizeAlign { size, align } = Layout::place(st, arch, |field, offset, sa| {
            let access = match &field.ty {
                CType::Array { elem, len } => {
                    let elem_sa = Layout::size_align(elem, arch)?;
                    let count = match len {
                        ArrayLen::Fixed(n) => ArrayCount::Fixed(*n),
                        ArrayLen::CountField(count) => {
                            Layout::count_slot(st, arch, &field.name, count, pointer)?
                        }
                    };
                    Access::Array(Arc::new(ArrayAccess {
                        elem: access(elem)?,
                        stride: elem_sa.size,
                        align: elem_sa.align,
                        count,
                    }))
                }
                other => access(other)?,
            };
            fields.push(FieldLayout {
                name: field.name.clone(),
                offset,
                size: sa.size,
                align: sa.align,
                access,
                count_of: None,
            });
            Ok(())
        })?;
        // A count field counts the first dynamic array naming it.
        for array in (0..fields.len()).rev() {
            if let Access::Array(elems) = &fields[array].access {
                if let ArrayCount::Counted(slot) = elems.count {
                    fields[slot.field].count_of = Some(array);
                }
            }
        }
        Ok(Layout {
            name: st.name.clone(),
            size,
            align,
            fields,
            arch: *arch,
        })
    }

    /// The count slot of dynamic array `array` of `st`, counted by field
    /// `count`, whose pointer slot is of code `pointer`.
    fn count_slot(
        st: &StructType,
        arch: &Architecture,
        array: &str,
        count: &str,
        pointer: ScalarCode,
    ) -> Result<ArrayCount, LayoutError> {
        let Some(field) = st.field_index(count) else {
            let (array, count_field) = (array.to_owned(), count.to_owned());
            return Err(LayoutError::MissingCountField { array, count_field });
        };
        let code = match st.fields[field].ty {
            CType::Prim(p) if p.is_signed_integer() || p.is_unsigned_integer() => {
                ScalarCode::of(p, arch)
            }
            _ => {
                return Err(LayoutError::BadCountFieldType {
                    count_field: count.to_owned(),
                })
            }
        };
        // The count may follow its array, so it is placed on its own.
        let mut offset = 0;
        Layout::place(st, arch, |f, at, _| {
            if f.name == count {
                offset = at;
            }
            Ok(())
        })?;
        Ok(ArrayCount::Counted(CountSlot {
            field,
            offset,
            code,
            pointer,
        }))
    }

    /// The architecture this layout is for.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }
}

/// Sibling counts up to this are checked for a repeated name by
/// scanning: allocation-free, and faster than hashing on the structs
/// messages actually have. Wider structs pay for one set.
const NAME_SCAN_LIMIT: usize = 32;

/// Reports the first field name `st` declares twice.
fn check_unique_names(st: &StructType) -> Result<(), LayoutError> {
    let mut seen = HashSet::new();
    let repeated = st.fields.iter().enumerate().find(|(idx, field)| {
        if st.fields.len() <= NAME_SCAN_LIMIT {
            st.fields[..*idx]
                .iter()
                .any(|earlier| earlier.name == field.name)
        } else {
            !seen.insert(field.name.as_str())
        }
    });
    match repeated {
        Some((_, field)) => Err(LayoutError::DuplicateField {
            name: field.name.clone(),
        }),
        None => Ok(()),
    }
}

/// Rounds `offset` up to the next multiple of `align` (which must be a
/// power of two ≥ 1).
pub fn align_up(offset: usize, align: usize) -> usize {
    debug_assert!(align.is_power_of_two());
    (offset + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;

    impl Layout {
        /// Total bytes of padding inserted between and after fields.
        fn padding(&self) -> usize {
            let used: usize = self.fields.iter().map(|f| f.size).sum();
            self.size - used
        }
    }

    fn prim(p: Primitive) -> CType {
        CType::Prim(p)
    }

    /// The paper's Structure A (Appendix A, Fig. 4): six strings, an int,
    /// and two unsigned longs.
    fn structure_a() -> StructType {
        StructType::new(
            "asdOff",
            vec![
                StructField::new("cntrId", CType::String),
                StructField::new("arln", CType::String),
                StructField::new("fltNum", prim(Primitive::Int)),
                StructField::new("equip", CType::String),
                StructField::new("org", CType::String),
                StructField::new("dest", CType::String),
                StructField::new("off", prim(Primitive::ULong)),
                StructField::new("eta", prim(Primitive::ULong)),
            ],
        )
    }

    #[test]
    fn structure_a_matches_hand_layout_on_lp64() {
        let layout = Layout::of_struct(&structure_a(), &Architecture::X86_64).unwrap();
        let offsets: Vec<usize> = layout.fields.iter().map(|f| f.offset).collect();
        // ptr ptr int(+4 pad) ptr ptr ptr ulong ulong
        assert_eq!(offsets, vec![0, 8, 16, 24, 32, 40, 48, 56]);
        assert_eq!(layout.size, 64);
        assert_eq!(layout.align, 8);
        assert_eq!(layout.padding(), 4);
    }

    #[test]
    fn structure_a_matches_hand_layout_on_ilp32() {
        let layout = Layout::of_struct(&structure_a(), &Architecture::SPARC32).unwrap();
        let offsets: Vec<usize> = layout.fields.iter().map(|f| f.offset).collect();
        assert_eq!(offsets, vec![0, 4, 8, 12, 16, 20, 24, 28]);
        // All 4-byte slots: exactly the paper's "32 byte" structure size.
        assert_eq!(layout.size, 32);
        assert_eq!(layout.padding(), 0);
    }

    #[test]
    fn padding_is_inserted_before_wider_fields() {
        let st = StructType::new(
            "mix",
            vec![
                StructField::new("c", prim(Primitive::Char)),
                StructField::new("d", prim(Primitive::Double)),
            ],
        );
        let x86 = Layout::of_struct(&st, &Architecture::X86_64).unwrap();
        assert_eq!(x86.fields[1].offset, 8);
        assert_eq!(x86.size, 16);
        // Classic i386 aligns double to 4.
        let i386 = Layout::of_struct(&st, &Architecture::I386).unwrap();
        assert_eq!(i386.fields[1].offset, 4);
        assert_eq!(i386.size, 12);
    }

    #[test]
    fn fixed_arrays_are_inline() {
        let st = StructType::new(
            "arr",
            vec![StructField::new(
                "off",
                CType::fixed_array(prim(Primitive::ULong), 5),
            )],
        );
        let l64 = Layout::of_struct(&st, &Architecture::X86_64).unwrap();
        assert_eq!(l64.size, 40);
        let l32 = Layout::of_struct(&st, &Architecture::ARM32).unwrap();
        assert_eq!(l32.size, 20);
    }

    #[test]
    fn dynamic_arrays_are_pointer_slots() {
        let st = StructType::new(
            "dyn",
            vec![
                StructField::new(
                    "eta",
                    CType::dynamic_array(prim(Primitive::ULong), "eta_count"),
                ),
                StructField::new("eta_count", prim(Primitive::Int)),
            ],
        );
        let l = Layout::of_struct(&st, &Architecture::X86_64).unwrap();
        assert_eq!(l.fields[0].size, 8);
        assert_eq!(l.fields[1].offset, 8);
        assert_eq!(l.size, 16);
    }

    #[test]
    fn nested_struct_alignment_propagates() {
        let inner = StructType::new(
            "inner",
            vec![
                StructField::new("a", prim(Primitive::Char)),
                StructField::new("b", prim(Primitive::Double)),
            ],
        );
        let outer = StructType::new(
            "outer",
            vec![
                StructField::new("flag", prim(Primitive::Char)),
                StructField::new("in", CType::Struct(inner)),
            ],
        );
        let l = Layout::of_struct(&outer, &Architecture::X86_64).unwrap();
        assert_eq!(l.fields[1].offset, 8);
        assert_eq!(l.size, 24);
        assert_eq!(l.align, 8);
    }

    #[test]
    fn missing_count_field_is_rejected() {
        let st = StructType::new(
            "bad",
            vec![StructField::new(
                "xs",
                CType::dynamic_array(prim(Primitive::Int), "n"),
            )],
        );
        assert!(matches!(
            Layout::of_struct(&st, &Architecture::X86_64),
            Err(LayoutError::MissingCountField { .. })
        ));
    }

    #[test]
    fn non_integer_count_field_is_rejected() {
        let st = StructType::new(
            "bad",
            vec![
                StructField::new("xs", CType::dynamic_array(prim(Primitive::Int), "n")),
                StructField::new("n", prim(Primitive::Double)),
            ],
        );
        assert!(matches!(
            Layout::of_struct(&st, &Architecture::X86_64),
            Err(LayoutError::BadCountFieldType { .. })
        ));
    }

    #[test]
    fn duplicate_fields_are_rejected() {
        let st = StructType::new(
            "bad",
            vec![
                StructField::new("x", prim(Primitive::Int)),
                StructField::new("x", prim(Primitive::Int)),
            ],
        );
        assert!(matches!(
            Layout::of_struct(&st, &Architecture::X86_64),
            Err(LayoutError::DuplicateField { .. })
        ));
    }

    #[test]
    fn arrays_of_arrays_are_rejected() {
        let st = StructType::new(
            "bad",
            vec![StructField::new(
                "m",
                CType::fixed_array(CType::fixed_array(prim(Primitive::Int), 2), 3),
            )],
        );
        assert!(matches!(
            Layout::of_struct(&st, &Architecture::X86_64),
            Err(LayoutError::NestedArray { .. })
        ));
    }

    #[test]
    fn empty_struct_has_zero_size() {
        let st = StructType::new("empty", vec![]);
        let l = Layout::of_struct(&st, &Architecture::X86_64).unwrap();
        assert_eq!((l.size, l.align), (0, 1));
    }

    #[test]
    fn align_up_basics() {
        assert_eq!(align_up(0, 8), 0);
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(9, 4), 12);
        assert_eq!(align_up(13, 1), 13);
    }

    #[test]
    fn offsets_are_aligned_and_monotonic_across_presets() {
        let st = structure_a();
        for arch in Architecture::ALL {
            let l = Layout::of_struct(&st, &arch).unwrap();
            let mut prev_end = 0;
            for f in &l.fields {
                assert_eq!(f.offset % f.align, 0, "{arch} {}", f.name);
                assert!(f.offset >= prev_end, "{arch} {}", f.name);
                prev_end = f.offset + f.size;
            }
            assert!(l.size >= prev_end);
            assert_eq!(l.size % l.align, 0);
        }
    }
}
