//! The C-level type model that message metadata binds to.

use std::fmt;

/// A C primitive type.
///
/// `Enum` is carried separately from `Int` so metadata can preserve the
/// distinction, but it lays out exactly like `int` (as mainstream C
/// compilers do).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// `char` (one byte, treated as a small integer).
    Char,
    /// `unsigned char`.
    UChar,
    /// `short`.
    Short,
    /// `unsigned short`.
    UShort,
    /// `int`.
    Int,
    /// `unsigned int`.
    UInt,
    /// `long` — 4 bytes on ILP32 ABIs, 8 on LP64.
    Long,
    /// `unsigned long`.
    ULong,
    /// `long long` (8 bytes everywhere we model).
    LongLong,
    /// `unsigned long long`.
    ULongLong,
    /// `float` (IEEE 754 binary32).
    Float,
    /// `double` (IEEE 754 binary64).
    Double,
    /// A C `enum`, laid out as `int`.
    Enum,
}

impl Primitive {
    /// Every primitive, for exhaustive tests.
    pub const ALL: [Primitive; 13] = [
        Primitive::Char,
        Primitive::UChar,
        Primitive::Short,
        Primitive::UShort,
        Primitive::Int,
        Primitive::UInt,
        Primitive::Long,
        Primitive::ULong,
        Primitive::LongLong,
        Primitive::ULongLong,
        Primitive::Float,
        Primitive::Double,
        Primitive::Enum,
    ];

    /// Whether this primitive is a signed integer (or enum).
    pub fn is_signed_integer(self) -> bool {
        matches!(
            self,
            Primitive::Char
                | Primitive::Short
                | Primitive::Int
                | Primitive::Long
                | Primitive::LongLong
                | Primitive::Enum
        )
    }

    /// Whether this primitive is an unsigned integer.
    pub fn is_unsigned_integer(self) -> bool {
        matches!(
            self,
            Primitive::UChar
                | Primitive::UShort
                | Primitive::UInt
                | Primitive::ULong
                | Primitive::ULongLong
        )
    }

    /// Whether this primitive is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, Primitive::Float | Primitive::Double)
    }

    /// The C spelling of this primitive.
    fn c_name(self) -> &'static str {
        match self {
            Primitive::Char => "char",
            Primitive::UChar => "unsigned char",
            Primitive::Short => "short",
            Primitive::UShort => "unsigned short",
            Primitive::Int => "int",
            Primitive::UInt => "unsigned int",
            Primitive::Long => "long",
            Primitive::ULong => "unsigned long",
            Primitive::LongLong => "long long",
            Primitive::ULongLong => "unsigned long long",
            Primitive::Float => "float",
            Primitive::Double => "double",
            Primitive::Enum => "enum",
        }
    }
}

impl fmt::Display for Primitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.c_name())
    }
}

/// The length specification of an array field, mirroring the paper's
/// `maxOccurs` semantics (§4.1.1 "Array Types").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArrayLen {
    /// `maxOccurs="5"` — a fixed-size array laid out inline.
    Fixed(usize),
    /// `maxOccurs="*"` or `maxOccurs="eta_count"` — a dynamically
    /// allocated array: the struct holds a pointer, and the named sibling
    /// integer field holds the element count at runtime.
    CountField(String),
}

impl fmt::Display for ArrayLen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayLen::Fixed(n) => write!(f, "[{n}]"),
            ArrayLen::CountField(name) => write!(f, "[{name}]"),
        }
    }
}

/// A C-level type as expressible by the paper's metadata language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CType {
    /// A primitive scalar.
    Prim(Primitive),
    /// A `char*` NUL-terminated string (stored out of line).
    String,
    /// An array of `elem`, fixed-size (inline) or dynamic (pointer +
    /// count field).
    Array {
        /// Element type. Arrays of strings and of nested structs are
        /// allowed; arrays of arrays are not (as in PBIO).
        elem: Box<CType>,
        /// Length specification.
        len: ArrayLen,
    },
    /// A nested struct, fully resolved.
    Struct(StructType),
}

impl CType {
    /// Convenience: a fixed-size array of `elem`.
    pub fn fixed_array(elem: CType, len: usize) -> CType {
        CType::Array { elem: Box::new(elem), len: ArrayLen::Fixed(len) }
    }

    /// Convenience: a dynamic array whose length lives in `count_field`.
    pub fn dynamic_array(elem: CType, count_field: impl Into<String>) -> CType {
        CType::Array { elem: Box::new(elem), len: ArrayLen::CountField(count_field.into()) }
    }
}

impl fmt::Display for CType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CType::Prim(p) => write!(f, "{p}"),
            CType::String => f.write_str("char*"),
            CType::Array { elem, len } => write!(f, "{elem}{len}"),
            CType::Struct(st) => write!(f, "struct {}", st.name),
        }
    }
}

/// One named field of a struct.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructField {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: CType,
}

impl StructField {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: CType) -> Self {
        StructField { name: name.into(), ty }
    }
}

/// A named C struct: an ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructType {
    /// Struct (message format) name.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<StructField>,
}

impl StructType {
    /// Creates a struct type.
    pub fn new(name: impl Into<String>, fields: Vec<StructField>) -> Self {
        StructType { name: name.into(), fields }
    }

    /// Finds a field by name.
    pub fn field(&self, name: &str) -> Option<&StructField> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Index of a field by name.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

impl fmt::Display for StructType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "struct {} {{", self.name)?;
        for field in &self.fields {
            writeln!(f, "    {} {};", field.ty, field.name)?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_classification_is_partitioned() {
        for p in Primitive::ALL {
            let classes = [p.is_signed_integer(), p.is_unsigned_integer(), p.is_float()];
            assert_eq!(classes.iter().filter(|c| **c).count(), 1, "{p:?}");
        }
    }

    #[test]
    fn display_renders_c_like_declarations() {
        let st = StructType::new(
            "asdOff",
            vec![
                StructField::new("cntrId", CType::String),
                StructField::new("off", CType::fixed_array(CType::Prim(Primitive::ULong), 5)),
                StructField::new(
                    "eta",
                    CType::dynamic_array(CType::Prim(Primitive::ULong), "eta_count"),
                ),
            ],
        );
        let shown = st.to_string();
        assert!(shown.contains("char* cntrId;"), "{shown}");
        assert!(shown.contains("unsigned long[5] off;"), "{shown}");
        assert!(shown.contains("unsigned long[eta_count] eta;"), "{shown}");
    }

    #[test]
    fn field_lookup() {
        let st = StructType::new("t", vec![StructField::new("a", CType::Prim(Primitive::Int))]);
        assert!(st.field("a").is_some());
        assert_eq!(st.field_index("a"), Some(0));
        assert!(st.field("b").is_none());
    }
}
