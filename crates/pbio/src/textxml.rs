//! The XML text wire format — the paper's text-encoding baseline.
//!
//! Systems like XML-RPC transmit each record as ASCII text "with header
//! and trailer information identifying each field" (§6). This codec
//! reproduces that approach over the same type model as the binary
//! codecs: the record becomes an XML element tree, numbers become decimal
//! text, and arrays become repeated elements. The costs the paper
//! attributes to this style — binary↔ASCII translation on both ends and a
//! 6–8× expansion of the wire image — fall directly out of this encoding
//! and are measured by the `wire_sizes` and `binary_vs_text` benchmarks.

use std::borrow::Cow;

use clayout::{ArrayLen, CType, LayoutError, Record, StructType, Value};
#[cfg(test)]
use clayout::Primitive;
use xmlparse::{BorrowedEvent, Element, Reader, Writer};

use crate::error::PbioError;

/// Encodes `record` as a single-line XML document for `st`.
///
/// Count fields of dynamic arrays are synchronized from array lengths,
/// as in the binary codecs.
///
/// # Errors
///
/// Reports missing fields and type mismatches.
pub fn encode(record: &Record, st: &StructType) -> Result<String, PbioError> {
    let root = element_for_struct(record, st)?;
    Ok(Writer::compact().element_to_string(&root))
}

fn element_for_struct(record: &Record, st: &StructType) -> Result<Element, PbioError> {
    let mut root = Element::new(st.name.clone());
    for field in &st.fields {
        match record.get(&field.name) {
            Some(value) => append_field(&mut root, value, &field.ty, &field.name)?,
            None => {
                let derived = derive_count(record, st, &field.name)?.ok_or_else(|| {
                    PbioError::Layout(LayoutError::MissingField { field: field.name.clone() })
                })?;
                append_field(&mut root, &derived, &field.ty, &field.name)?;
            }
        }
    }
    Ok(root)
}

fn derive_count(
    record: &Record,
    st: &StructType,
    name: &str,
) -> Result<Option<Value>, PbioError> {
    for field in &st.fields {
        if let CType::Array { len: ArrayLen::CountField(count), .. } = &field.ty {
            if count == name {
                let arr = record.get(&field.name).and_then(Value::as_array).ok_or_else(
                    || PbioError::Layout(LayoutError::MissingField { field: field.name.clone() }),
                )?;
                return Ok(Some(Value::UInt(arr.len() as u64)));
            }
        }
    }
    Ok(None)
}

fn append_field(
    parent: &mut Element,
    value: &Value,
    ty: &CType,
    name: &str,
) -> Result<(), PbioError> {
    match ty {
        CType::Prim(_) | CType::String => {
            let text = scalar_text(value, ty, name)?;
            let mut el = Element::new(name);
            // Whitespace-only text nodes are dropped by DOM parsing (as
            // element-content whitespace), which would silently corrupt
            // strings like " ". CDATA sections are always preserved, so
            // use them whenever the string's edges are at risk.
            let edges_at_risk =
                matches!(ty, CType::String) && !text.is_empty() && text.trim() != text;
            if edges_at_risk {
                push_cdata(&mut el, &text);
            } else if !text.is_empty() {
                el = el.with_text(text);
            }
            parent.children.push(xmlparse::Node::Element(el));
            Ok(())
        }
        CType::Array { elem, len } => {
            let items =
                value.as_array().ok_or_else(|| type_mismatch(name, "array", value))?;
            if let ArrayLen::Fixed(n) = len {
                if items.len() != *n {
                    return Err(PbioError::Layout(LayoutError::ArrayLengthMismatch {
                        field: name.to_owned(),
                        declared: *n,
                        actual: items.len(),
                    }));
                }
            }
            for item in items {
                append_field(parent, item, elem, name)?;
            }
            Ok(())
        }
        CType::Struct(inner) => {
            let rec = value.as_record().ok_or_else(|| type_mismatch(name, "record", value))?;
            let mut el = element_for_struct(rec, inner)?;
            el.name = name.into();
            parent.children.push(xmlparse::Node::Element(el));
            Ok(())
        }
    }
}


/// Appends `text` as CDATA children, splitting around any literal `]]>`
/// (which cannot appear inside one CDATA section).
fn push_cdata(el: &mut Element, text: &str) {
    for (i, part) in text.split("]]>").enumerate() {
        if i > 0 {
            el.children.push(xmlparse::Node::Text("]]>".to_owned()));
        }
        if !part.is_empty() {
            el.children.push(xmlparse::Node::CData(part.to_owned()));
        }
    }
}

fn scalar_text(value: &Value, ty: &CType, name: &str) -> Result<String, PbioError> {
    match ty {
        CType::String => {
            Ok(value.as_str().ok_or_else(|| type_mismatch(name, "string", value))?.to_owned())
        }
        CType::Prim(p) if p.is_float() => {
            let v = value.as_f64().ok_or_else(|| type_mismatch(name, "float", value))?;
            Ok(format_float(v))
        }
        CType::Prim(p) if p.is_signed_integer() => {
            Ok(value.as_i64().ok_or_else(|| type_mismatch(name, "int", value))?.to_string())
        }
        CType::Prim(_) => {
            Ok(value.as_u64().ok_or_else(|| type_mismatch(name, "uint", value))?.to_string())
        }
        _ => unreachable!("scalar_text only sees scalars"),
    }
}

/// Full-precision float formatting (`{:?}` style round-trips f64).
fn format_float(v: f64) -> String {
    let mut s = format!("{v}");
    if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
        s.push_str(".0");
    }
    s
}

fn type_mismatch(field: &str, expected: &str, value: &Value) -> PbioError {
    PbioError::Layout(LayoutError::TypeMismatch {
        field: field.to_owned(),
        expected: expected.to_owned(),
        found: value.type_name().to_owned(),
    })
}

/// Decodes an XML document produced by [`encode`] back into a record.
///
/// The document is parsed through the zero-copy borrowed pull API
/// ([`Reader::next_borrowed`]) into a lightweight tree whose names and
/// text are slices of the input, so markup and entity-free content cost
/// no string allocations; owned storage is only created for the decoded
/// [`Value`]s themselves.
///
/// # Errors
///
/// Reports malformed XML, wrong root elements, occurrence mismatches and
/// unparseable values.
pub fn decode(text: &str, st: &StructType) -> Result<Record, PbioError> {
    let root = parse_tree(text)?;
    if root.name != st.name {
        return Err(PbioError::FormatMismatch {
            expected: st.name.clone(),
            found: root.name.to_owned(),
        });
    }
    record_from_element(&root, st)
}

/// An element of the borrowed decode tree: the name is a slice of the
/// input and text children borrow it unless entity expansion forced a
/// copy. Mirrors the DOM's content model for decoding purposes —
/// whitespace-only text is dropped (element-content whitespace), CDATA
/// is kept verbatim, comments/PIs are skipped.
struct XElem<'a> {
    name: &'a str,
    children: Vec<XChild<'a>>,
}

enum XChild<'a> {
    Elem(XElem<'a>),
    Text(Cow<'a, str>),
}

fn parse_tree(text: &str) -> Result<XElem<'_>, PbioError> {
    let mut reader = Reader::new(text);
    let mut stack: Vec<XElem<'_>> = Vec::new();
    let mut root = None;
    loop {
        match reader.next_borrowed()? {
            BorrowedEvent::StartElement { name, .. } => {
                stack.push(XElem { name, children: Vec::new() });
            }
            BorrowedEvent::EndElement { .. } => {
                let done = stack.pop().expect("reader guarantees matched tags");
                match stack.last_mut() {
                    Some(parent) => parent.children.push(XChild::Elem(done)),
                    None => root = Some(done),
                }
            }
            BorrowedEvent::Text(t) => {
                if let Some(parent) = stack.last_mut() {
                    if !t.bytes().all(|b| b.is_ascii_whitespace()) {
                        parent.children.push(XChild::Text(t));
                    }
                }
            }
            BorrowedEvent::CData(t) => {
                if let Some(parent) = stack.last_mut() {
                    parent.children.push(XChild::Text(Cow::Borrowed(t)));
                }
            }
            BorrowedEvent::XmlDecl(_)
            | BorrowedEvent::Comment(_)
            | BorrowedEvent::ProcessingInstruction { .. }
            | BorrowedEvent::Doctype(_) => {}
            BorrowedEvent::Eof => break,
        }
    }
    Ok(root.expect("reader rejects documents without a root"))
}

impl<'a> XElem<'a> {
    fn child_elements(&self) -> impl Iterator<Item = &XElem<'a>> {
        self.children.iter().filter_map(|c| match c {
            XChild::Elem(el) => Some(el),
            XChild::Text(_) => None,
        })
    }

    /// Concatenated text of this element and its descendants (CDATA
    /// included), borrowed when a single text child makes that possible.
    fn text_content(&self) -> Cow<'_, str> {
        match self.children.as_slice() {
            [] => Cow::Borrowed(""),
            [XChild::Text(t)] => Cow::Borrowed(t.as_ref()),
            _ => {
                let mut out = String::new();
                self.collect_text(&mut out);
                Cow::Owned(out)
            }
        }
    }

    fn collect_text(&self, out: &mut String) {
        for child in &self.children {
            match child {
                XChild::Text(t) => out.push_str(t),
                XChild::Elem(el) => el.collect_text(out),
            }
        }
    }
}

fn record_from_element(el: &XElem<'_>, st: &StructType) -> Result<Record, PbioError> {
    let mut record = Record::new();
    for field in &st.fields {
        let occurrences: Vec<&XElem<'_>> =
            el.child_elements().filter(|c| c.name == field.name).collect();
        let value = match &field.ty {
            CType::Prim(_) | CType::String => {
                let one = single(&occurrences, &field.name)?;
                parse_scalar(&one.text_content(), &field.ty, &field.name)?
            }
            CType::Array { elem, len } => {
                if let ArrayLen::Fixed(n) = len {
                    if occurrences.len() != *n {
                        return Err(PbioError::Text {
                            detail: format!(
                                "field {:?}: expected {n} occurrences, found {}",
                                field.name,
                                occurrences.len()
                            ),
                        });
                    }
                }
                let mut items = Vec::with_capacity(occurrences.len());
                for occ in &occurrences {
                    items.push(match &**elem {
                        CType::Struct(inner) => Value::Record(record_from_element(occ, inner)?),
                        scalar => parse_scalar(&occ.text_content(), scalar, &field.name)?,
                    });
                }
                Value::Array(items)
            }
            CType::Struct(inner) => {
                let one = single(&occurrences, &field.name)?;
                Value::Record(record_from_element(one, inner)?)
            }
        };
        record.set(field.name.clone(), value);
    }
    Ok(record)
}

fn single<'a, 'b>(
    occurrences: &[&'a XElem<'b>],
    field: &str,
) -> Result<&'a XElem<'b>, PbioError> {
    match occurrences {
        [one] => Ok(one),
        other => Err(PbioError::Text {
            detail: format!("field {field:?}: expected 1 occurrence, found {}", other.len()),
        }),
    }
}

fn parse_scalar(text: &str, ty: &CType, field: &str) -> Result<Value, PbioError> {
    match ty {
        CType::String => Ok(Value::String(text.to_owned())),
        CType::Prim(p) if p.is_float() => text
            .trim()
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| bad_lexical(field, text, "a float")),
        CType::Prim(p) if p.is_signed_integer() => text
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| bad_lexical(field, text, "an integer")),
        CType::Prim(_) => text
            .trim()
            .parse::<u64>()
            .map(Value::UInt)
            .map_err(|_| bad_lexical(field, text, "an unsigned integer")),
        _ => unreachable!("parse_scalar only sees scalars"),
    }
}

fn bad_lexical(field: &str, text: &str, expected: &str) -> PbioError {
    PbioError::Text { detail: format!("field {field:?}: {text:?} is not {expected}") }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clayout::StructField;

    fn prim(p: Primitive) -> CType {
        CType::Prim(p)
    }

    fn structure_b() -> StructType {
        StructType::new(
            "asdOff",
            vec![
                StructField::new("cntrId", CType::String),
                StructField::new("fltNum", prim(Primitive::Int)),
                StructField::new("off", CType::fixed_array(prim(Primitive::ULong), 3)),
                StructField::new("eta", CType::dynamic_array(prim(Primitive::ULong), "eta_count")),
                StructField::new("eta_count", prim(Primitive::Int)),
            ],
        )
    }

    fn sample() -> Record {
        Record::new()
            .with("cntrId", "ZTL")
            .with("fltNum", -7i64)
            .with("off", vec![1u64, 2, 3])
            .with("eta", vec![100u64, 200])
    }

    #[test]
    fn round_trip() {
        let st = structure_b();
        let text = encode(&sample(), &st).unwrap();
        let back = decode(&text, &st).unwrap();
        assert_eq!(back.get("cntrId").unwrap().as_str(), Some("ZTL"));
        assert_eq!(back.get("fltNum").unwrap().as_i64(), Some(-7));
        assert_eq!(back.get("off").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(back.get("eta_count").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn wire_form_is_readable_xml() {
        let st = structure_b();
        let text = encode(&sample(), &st).unwrap();
        assert!(text.starts_with("<asdOff>"), "{text}");
        assert!(text.contains("<cntrId>ZTL</cntrId>"), "{text}");
        assert!(text.contains("<eta>100</eta><eta>200</eta>"), "{text}");
    }

    #[test]
    fn whitespace_edged_strings_survive() {
        // Regression: whitespace-only text nodes are element-content
        // whitespace to a DOM parser; CDATA keeps them intact.
        let st = StructType::new("t", vec![StructField::new("s", CType::String)]);
        for raw in [" ", "  x  ", "\ttabbed\t", "", "inner only", " ]]> tricky "] {
            let rec = Record::new().with("s", raw);
            let text = encode(&rec, &st).unwrap();
            let back = decode(&text, &st).unwrap();
            assert_eq!(back.get("s").unwrap().as_str(), Some(raw), "{text}");
        }
    }

    #[test]
    fn large_documents_round_trip() {
        // A record whose encoding is far larger than any stream record
        // decodes whole.
        let st = StructType::new(
            "big",
            vec![
                StructField::new("eta", CType::dynamic_array(prim(Primitive::ULong), "n")),
                StructField::new("n", prim(Primitive::Int)),
            ],
        );
        let vals: Vec<u64> = (0..4000).map(|i| i * 37 + 1).collect();
        let rec = Record::new().with("eta", vals.clone());
        let text = encode(&rec, &st).unwrap();
        assert!(text.len() >= 16 * 1024, "corpus too small: {}", text.len());
        let back = decode(&text, &st).unwrap();
        let got: Vec<u64> = back
            .get("eta")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(got, vals);
        assert_eq!(back.get("n").unwrap().as_u64(), Some(4000));
        let tree = parse_tree(&text).unwrap();
        assert_eq!(tree.name, "big");
        assert_eq!(tree.children.len(), 4001);
    }

    #[test]
    fn special_characters_survive() {
        let st = StructType::new("t", vec![StructField::new("s", CType::String)]);
        let rec = Record::new().with("s", "a<b & \"c\"");
        let text = encode(&rec, &st).unwrap();
        let back = decode(&text, &st).unwrap();
        assert_eq!(back.get("s").unwrap().as_str(), Some("a<b & \"c\""));
    }

    #[test]
    fn floats_round_trip_exactly() {
        let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::Double))]);
        for v in [0.1, -2.5e-10, 12345.6789, 3.0] {
            let text = encode(&Record::new().with("x", v), &st).unwrap();
            let back = decode(&text, &st).unwrap();
            assert_eq!(back.get("x").unwrap().as_f64(), Some(v), "{text}");
        }
    }

    #[test]
    fn nested_structs_become_nested_elements() {
        let inner = StructType::new("pt", vec![StructField::new("x", prim(Primitive::Int))]);
        let outer = StructType::new(
            "w",
            vec![StructField::new("p", CType::Struct(inner))],
        );
        let rec = Record::new().with("p", Record::new().with("x", 4i64));
        let text = encode(&rec, &outer).unwrap();
        assert!(text.contains("<p><x>4</x></p>"), "{text}");
        let back = decode(&text, &outer).unwrap();
        assert_eq!(
            back.get("p").unwrap().as_record().unwrap().get("x").unwrap().as_i64(),
            Some(4)
        );
    }

    #[test]
    fn wrong_root_is_rejected() {
        let st = structure_b();
        assert!(matches!(
            decode("<other/>", &st),
            Err(PbioError::FormatMismatch { .. })
        ));
    }

    #[test]
    fn occurrence_mismatch_is_rejected() {
        let st = structure_b();
        let text = "<asdOff><cntrId>x</cntrId><fltNum>1</fltNum>\
             <off>1</off><off>2</off><eta_count>0</eta_count></asdOff>";
        assert!(matches!(decode(text, &st), Err(PbioError::Text { .. })));
    }

    #[test]
    fn bad_lexical_form_is_rejected() {
        let st = StructType::new("t", vec![StructField::new("x", prim(Primitive::Int))]);
        assert!(matches!(
            decode("<t><x>twelve</x></t>", &st),
            Err(PbioError::Text { .. })
        ));
    }

    #[test]
    fn malformed_xml_is_rejected() {
        let st = structure_b();
        assert!(decode("<asdOff><cntrId>", &st).is_err());
    }

    #[test]
    fn text_is_substantially_larger_than_binary() {
        // The 6-8x expansion claim, sanity-checked at unit level with a
        // numeric payload.
        let st = StructType::new(
            "nums",
            vec![StructField::new(
                "xs",
                CType::dynamic_array(prim(Primitive::Double), "n"),
            ),
            StructField::new("n", prim(Primitive::Int))],
        );
        let rec = Record::new().with(
            "xs",
            (0..64).map(|i| Value::Float(i as f64 * 0.7310586)).collect::<Vec<_>>(),
        );
        let text_len = encode(&rec, &st).unwrap().len();
        let binary_len = crate::xdr::encode(&rec, &st).unwrap().len();
        assert!(
            text_len > 2 * binary_len,
            "text {text_len} vs binary {binary_len}"
        );
    }
}
