//! Restricted format evolution.
//!
//! PBIO "does support a form of restricted evolution in message formats
//! in which elements may be added to message formats without causing
//! receivers of previous versions of the message to fail" (§6). The
//! mechanism is name matching: a receiver written against one version of
//! a format [`reconcile`]s records decoded with a *newer* (or older)
//! version against the structure it expects — added fields are dropped,
//! missing fields take zero defaults.

use clayout::{ArrayLen, CType, Record, StructType, Value};

use crate::error::PbioError;

/// The zero/default value for a C type (what PBIO receivers observe for
/// fields the sender did not transmit).
fn default_value(ty: &CType) -> Value {
    match ty {
        CType::Prim(p) if p.is_float() => Value::Float(0.0),
        CType::Prim(p) if p.is_unsigned_integer() => Value::UInt(0),
        CType::Prim(_) => Value::Int(0),
        CType::String => Value::String(String::new()),
        CType::Array { elem, len } => match len {
            ArrayLen::Fixed(n) => Value::Array((0..*n).map(|_| default_value(elem)).collect()),
            ArrayLen::CountField(_) => Value::Array(Vec::new()),
        },
        CType::Struct(inner) => {
            let mut rec = Record::new();
            for field in &inner.fields {
                rec.set(field.name.clone(), default_value(&field.ty));
            }
            Value::Record(rec)
        }
    }
}

/// Whether a value's runtime shape is plausible for a C type (used to
/// detect a field whose *meaning* changed between versions, which
/// restricted evolution does not cover).
fn shape_matches(value: &Value, ty: &CType) -> bool {
    match (ty, value) {
        (CType::Prim(p), Value::Float(_)) => p.is_float(),
        (CType::Prim(p), Value::Int(_)) => !p.is_float(),
        (CType::Prim(p), Value::UInt(_)) => !p.is_float(),
        (CType::String, Value::String(_)) => true,
        (CType::Array { elem, .. }, Value::Array(items)) => {
            items.iter().all(|item| shape_matches(item, elem))
        }
        (CType::Struct(_), Value::Record(_)) => true,
        _ => false,
    }
}

/// Projects `record` (decoded with whatever version the sender used)
/// onto `target`, the structure this receiver was written against.
///
/// * Fields present in both: carried over (nested records reconciled
///   recursively).
/// * Fields only in `target` (sender predates them): zero defaults.
/// * Fields only in the record (sender is newer): dropped.
///
/// # Errors
///
/// Returns [`PbioError::Incompatible`] when a shared field's type shape
/// changed — that is beyond "restricted" evolution.
pub fn reconcile(record: &Record, target: &StructType) -> Result<Record, PbioError> {
    let mut out = Record::new();
    for field in &target.fields {
        match record.get(&field.name) {
            None => out.set(field.name.clone(), default_value(&field.ty)),
            Some(value) => {
                if !shape_matches(value, &field.ty) {
                    return Err(PbioError::Incompatible {
                        detail: format!(
                            "field {:?} changed type across format versions (value is {}, \
                             target expects {})",
                            field.name,
                            value.type_name(),
                            field.ty
                        ),
                    });
                }
                let value = match (&field.ty, value) {
                    (CType::Struct(inner), Value::Record(rec)) => {
                        Value::Record(reconcile(rec, inner)?)
                    }
                    (CType::Array { elem, .. }, Value::Array(items)) => {
                        if let CType::Struct(inner) = &**elem {
                            let mut converted = Vec::with_capacity(items.len());
                            for item in items {
                                match item {
                                    Value::Record(rec) => {
                                        converted.push(Value::Record(reconcile(rec, inner)?))
                                    }
                                    other => converted.push(other.clone()),
                                }
                            }
                            Value::Array(converted)
                        } else {
                            value.clone()
                        }
                    }
                    _ => value.clone(),
                };
                out.set(field.name.clone(), value);
            }
        }
    }
    // Fixed arrays in the target must end up the declared length even if
    // the sender's version declared a different one.
    for field in &target.fields {
        if let CType::Array { elem, len: ArrayLen::Fixed(n) } = &field.ty {
            if let Some(Value::Array(items)) = out.get(&field.name).cloned() {
                if items.len() != *n {
                    let mut fixed = items;
                    fixed.truncate(*n);
                    while fixed.len() < *n {
                        fixed.push(default_value(elem));
                    }
                    out.set(field.name.clone(), Value::Array(fixed));
                }
            }
        }
    }
    Ok(out)
}

/// Whether `new` is a restricted-evolution-compatible successor of
/// `old`: every field of `old` still exists in `new` with the same type.
pub fn is_compatible_evolution(old: &StructType, new: &StructType) -> bool {
    old.fields.iter().all(|of| {
        new.field(&of.name).is_some_and(|nf| nf.ty == of.ty)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clayout::{Primitive, StructField};

    fn prim(p: Primitive) -> CType {
        CType::Prim(p)
    }

    fn v1() -> StructType {
        StructType::new(
            "Flight",
            vec![
                StructField::new("arln", CType::String),
                StructField::new("fltNum", prim(Primitive::Int)),
            ],
        )
    }

    fn v2() -> StructType {
        StructType::new(
            "Flight",
            vec![
                StructField::new("arln", CType::String),
                StructField::new("fltNum", prim(Primitive::Int)),
                StructField::new("gate", CType::String),
                StructField::new("delayMin", prim(Primitive::Int)),
            ],
        )
    }

    #[test]
    fn new_receiver_defaults_missing_fields_from_old_sender() {
        let old_record = Record::new().with("arln", "DL").with("fltNum", 7i64);
        let out = reconcile(&old_record, &v2()).unwrap();
        assert_eq!(out.get("gate").unwrap().as_str(), Some(""));
        assert_eq!(out.get("delayMin").unwrap().as_i64(), Some(0));
        assert_eq!(out.get("arln").unwrap().as_str(), Some("DL"));
    }

    #[test]
    fn old_receiver_drops_added_fields_from_new_sender() {
        let new_record = Record::new()
            .with("arln", "DL")
            .with("fltNum", 7i64)
            .with("gate", "B12")
            .with("delayMin", 15i64);
        let out = reconcile(&new_record, &v1()).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.get("gate").is_none());
    }

    #[test]
    fn type_change_is_rejected() {
        let mutated = Record::new().with("arln", 42i64).with("fltNum", 7i64);
        assert!(matches!(
            reconcile(&mutated, &v1()),
            Err(PbioError::Incompatible { .. })
        ));
    }

    #[test]
    fn compatibility_predicate() {
        assert!(is_compatible_evolution(&v1(), &v2()));
        assert!(!is_compatible_evolution(&v2(), &v1()));
        let renamed = StructType::new(
            "Flight",
            vec![
                StructField::new("airline", CType::String),
                StructField::new("fltNum", prim(Primitive::Int)),
            ],
        );
        assert!(!is_compatible_evolution(&v1(), &renamed));
    }

    #[test]
    fn defaults_cover_all_type_shapes() {
        let inner = StructType::new("in", vec![StructField::new("x", prim(Primitive::Double))]);
        let cases = vec![
            (prim(Primitive::Int), Value::Int(0)),
            (prim(Primitive::ULong), Value::UInt(0)),
            (prim(Primitive::Double), Value::Float(0.0)),
            (CType::String, Value::String(String::new())),
            (CType::dynamic_array(prim(Primitive::Int), "n"), Value::Array(vec![])),
        ];
        for (ty, expected) in cases {
            assert_eq!(default_value(&ty), expected, "{ty}");
        }
        let fixed = default_value(&CType::fixed_array(prim(Primitive::Int), 3));
        assert_eq!(fixed.as_array().unwrap().len(), 3);
        let nested = default_value(&CType::Struct(inner));
        assert_eq!(
            nested.as_record().unwrap().get("x").unwrap().as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn nested_records_reconcile_recursively() {
        let inner_v2 = StructType::new(
            "pos",
            vec![
                StructField::new("lat", prim(Primitive::Double)),
                StructField::new("lon", prim(Primitive::Double)),
            ],
        );
        let outer_v2 = StructType::new(
            "T",
            vec![StructField::new("p", CType::Struct(inner_v2))],
        );
        // Sender only knew `lat`.
        let record =
            Record::new().with("p", Record::new().with("lat", 33.6367f64));
        let out = reconcile(&record, &outer_v2).unwrap();
        let p = out.get("p").unwrap().as_record().unwrap();
        assert_eq!(p.get("lat").unwrap().as_f64(), Some(33.6367));
        assert_eq!(p.get("lon").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn fixed_array_length_changes_are_adjusted() {
        let target = StructType::new(
            "T",
            vec![StructField::new("xs", CType::fixed_array(prim(Primitive::Int), 4))],
        );
        let shorter = Record::new().with("xs", vec![1i64, 2]);
        let out = reconcile(&shorter, &target).unwrap();
        let xs = out.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs.len(), 4);
        assert_eq!(xs[3].as_i64(), Some(0));
        let longer = Record::new().with("xs", vec![1i64, 2, 3, 4, 5, 6]);
        let out = reconcile(&longer, &target).unwrap();
        assert_eq!(out.get("xs").unwrap().as_array().unwrap().len(), 4);
    }

    #[test]
    fn end_to_end_with_ndr_wire() {
        use crate::format::{Format, FormatId};
        // Sender uses v2 on sparc32; receiver app written against v1 on
        // x86-64. Receiver discovered sender's v2 metadata, decodes with
        // it, then reconciles down to its compiled expectations.
        let sender = Format::new(
            FormatId(1),
            v2(),
            clayout::Architecture::SPARC32,
        )
        .unwrap();
        let record = Record::new()
            .with("arln", "DL")
            .with("fltNum", 88i64)
            .with("gate", "A1")
            .with("delayMin", 3i64);
        let wire = crate::ndr::encode(&record, &sender).unwrap();
        let decoded = crate::ndr::decode_with(&wire, &sender.rebind(clayout::Architecture::X86_64).unwrap()).unwrap();
        let as_v1 = reconcile(&decoded, &v1()).unwrap();
        assert_eq!(as_v1.get("fltNum").unwrap().as_i64(), Some(88));
        assert!(as_v1.get("gate").is_none());
    }
}
