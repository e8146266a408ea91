//! PBIO-style field tables (`IOField` in the paper's listings).

use std::fmt;

use clayout::{ArrayLen, Architecture, CType, Layout, Primitive, StructType};

use crate::error::PbioError;

/// One row of a PBIO field table — the runtime equivalent of the paper's
/// `IOField` initializers (Figures 5, 8, 11):
///
/// ```c
/// { "fltNum", "integer", sizeof (int), IOOffset (asdOffptr, fltNum) },
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoField {
    /// Field name.
    pub name: String,
    /// The PBIO type string: `"integer"`, `"unsigned integer"`,
    /// `"float"`, `"char"`, `"string"`, a subformat name, or any of these
    /// with `[n]` / `[count_field]` array suffixes.
    pub type_string: String,
    /// `sizeof` the field's *element* on the bound architecture (PBIO
    /// separates type from size — §4.2.2 "Field Type").
    pub size: usize,
    /// Byte offset of the field in the struct (what `IOOffset` computes).
    pub offset: usize,
}

impl fmt::Display for IoField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{ \"{}\", \"{}\", {}, {} }}",
            self.name, self.type_string, self.size, self.offset
        )
    }
}

/// The PBIO type string for a primitive (PBIO collapses widths into a
/// handful of marshaling classes; the *size* column carries the width).
fn primitive_type_string(p: Primitive) -> &'static str {
    match p {
        Primitive::Char => "char",
        Primitive::UChar => "unsigned char",
        Primitive::Float | Primitive::Double => "float",
        Primitive::Enum => "enumeration",
        p if p.is_unsigned_integer() => "unsigned integer",
        _ => "integer",
    }
}

fn base_type_string(ty: &CType) -> String {
    match ty {
        CType::Prim(p) => primitive_type_string(*p).to_owned(),
        CType::String => "string".to_owned(),
        CType::Struct(st) => st.name.clone(),
        CType::Array { .. } => unreachable!("arrays of arrays are rejected by layout"),
    }
}

/// Builds the PBIO field table for `st` as laid out on `arch` — exactly
/// the information the paper's hand-written `IOField` arrays carry, but
/// computed at runtime (which is xml2wire's contribution).
///
/// # Errors
///
/// Propagates layout validation failures.
pub fn field_table(st: &StructType, arch: &Architecture) -> Result<Vec<IoField>, PbioError> {
    let layout = Layout::of_struct(st, arch)?;
    let mut rows = Vec::with_capacity(layout.fields.len());
    for fl in &layout.fields {
        let (type_string, elem_size) = match &fl.ty {
            CType::Array { elem, len } => {
                let base = base_type_string(elem);
                let elem_size = Layout::size_align(elem, arch)?.size;
                let suffix = match len {
                    ArrayLen::Fixed(n) => format!("[{n}]"),
                    ArrayLen::CountField(c) => format!("[{c}]"),
                };
                (format!("{base}{suffix}"), elem_size)
            }
            other => (base_type_string(other), fl.size),
        };
        rows.push(IoField {
            name: fl.name.clone(),
            type_string,
            size: elem_size,
            offset: fl.offset,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clayout::StructField;

    /// The paper's Structure B field table (Figure 8) reproduced at
    /// runtime on a 32-bit big-endian machine (where `sizeof` values in
    /// the listing hold).
    #[test]
    fn structure_b_table_matches_figure_8() {
        let st = StructType::new(
            "asdOff",
            vec![
                StructField::new("cntrID", CType::String),
                StructField::new("arln", CType::String),
                StructField::new("fltNum", CType::Prim(Primitive::Int)),
                StructField::new("equip", CType::String),
                StructField::new("org", CType::String),
                StructField::new("dest", CType::String),
                StructField::new("off", CType::fixed_array(CType::Prim(Primitive::ULong), 5)),
                StructField::new(
                    "eta",
                    CType::dynamic_array(CType::Prim(Primitive::ULong), "eta_count"),
                ),
                StructField::new("eta_count", CType::Prim(Primitive::Int)),
            ],
        );
        let table = field_table(&st, &Architecture::SPARC32).unwrap();
        let rendered: Vec<String> = table.iter().map(ToString::to_string).collect();
        assert_eq!(rendered[0], "{ \"cntrID\", \"string\", 4, 0 }");
        assert_eq!(rendered[2], "{ \"fltNum\", \"integer\", 4, 8 }");
        assert_eq!(rendered[6], "{ \"off\", \"unsigned integer[5]\", 4, 24 }");
        assert_eq!(rendered[7], "{ \"eta\", \"unsigned integer[eta_count]\", 4, 44 }");
        assert_eq!(rendered[8], "{ \"eta_count\", \"integer\", 4, 48 }");
    }

    #[test]
    fn subformat_fields_use_the_format_name() {
        let inner = StructType::new("ASDOffEvent", vec![
            StructField::new("x", CType::Prim(Primitive::Int)),
        ]);
        let outer = StructType::new("threeASDOffs", vec![
            StructField::new("one", CType::Struct(inner)),
            StructField::new("bart", CType::Prim(Primitive::Double)),
        ]);
        let table = field_table(&outer, &Architecture::X86_64).unwrap();
        assert_eq!(table[0].type_string, "ASDOffEvent");
        assert_eq!(table[1].type_string, "float");
        assert_eq!(table[1].size, 8);
    }

    #[test]
    fn sizes_track_the_architecture() {
        let st = StructType::new("t", vec![StructField::new("x", CType::Prim(Primitive::Long))]);
        assert_eq!(field_table(&st, &Architecture::X86_64).unwrap()[0].size, 8);
        assert_eq!(field_table(&st, &Architecture::I386).unwrap()[0].size, 4);
    }
}
