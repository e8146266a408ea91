//! Compile-time struct descriptors: the `const`-constructible mirror of
//! [`StructType`] that `#[derive(Xml2WireRecord)]` emits.
//!
//! The dynamic pipeline discovers a struct definition at runtime; for a
//! Rust struct the definition is known at compile time, so the derive
//! macro (crate `x2w-derive`) writes it as a [`ConstStructType`] in
//! static memory and the binding materializes the runtime [`StructType`]
//! from it once, at registration. Marshaling is not here: a derived
//! struct is a [`Source`](crate::Source) the format's
//! [`EncodePlan`](crate::EncodePlan) reads, and it is decoded through
//! pbio's view plan, like every other record.

use crate::ctype::{ArrayLen, CType, Primitive, StructField, StructType};

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
    fn to_ctype(self) -> CType {
        match self {
            ConstCType::Prim(p) => CType::Prim(p),
            ConstCType::String => CType::String,
            ConstCType::FixedArray { elem, len } => CType::Array {
                elem: Box::new(elem.to_ctype()),
                len: ArrayLen::Fixed(len),
            },
            ConstCType::DynArray { elem, count } => CType::Array {
                elem: Box::new(elem.to_ctype()),
                len: ArrayLen::CountField(count.to_owned()),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_descriptor_materializes_the_struct_type() {
        static ETA: ConstCType = ConstCType::Prim(Primitive::ULong);
        static INNER: ConstStructType = ConstStructType {
            name: "Inner",
            fields: &[ConstField {
                name: "x",
                ty: ConstCType::Prim(Primitive::Double),
            }],
        };
        static DESC: ConstStructType = ConstStructType {
            name: "Outer",
            fields: &[
                ConstField {
                    name: "tag",
                    ty: ConstCType::String,
                },
                ConstField {
                    name: "off",
                    ty: ConstCType::FixedArray { elem: &ETA, len: 5 },
                },
                ConstField {
                    name: "eta",
                    ty: ConstCType::DynArray {
                        elem: &ETA,
                        count: "eta_count",
                    },
                },
                ConstField {
                    name: "in",
                    ty: ConstCType::Struct(&INNER),
                },
                ConstField {
                    name: "eta_count",
                    ty: ConstCType::Prim(Primitive::Int),
                },
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
}
