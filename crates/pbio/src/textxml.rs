//! The XML text wire format — the paper's text-encoding baseline.
//!
//! Systems like XML-RPC transmit each record as ASCII text "with header
//! and trailer information identifying each field" (§6). This codec
//! reproduces that approach over the same type model as the binary
//! codecs: the record becomes an XML element tree, numbers become decimal
//! text, and arrays become repeated elements. The costs the paper
//! attributes to this style — binary↔ASCII translation on both ends and a
//! 6–8× expansion of the wire image — fall directly out of this encoding
//! and are measured by `repro_report`'s E3 (time) and E4 (size) tables.
//!
//! Encoding is the shared canonical walk (`canonical.rs`) into the
//! compact `xmlparse` writer, which is this codec's sink: it decides the
//! element names and the decimal and CDATA forms (text holds any number,
//! so none is out of range). Decoding is this module's own walk over the
//! parsed [`Element`] tree, because it finds each field by name.

use clayout::{ArrayLen, CType, Primitive, Record, Scalar, StructType, Value};
use xmlparse::{Element, Writer};

use crate::canonical::{self, Sink};
use crate::error::PbioError;

/// Encodes `record` as a single-line XML document for `st`.
///
/// Count fields are synthesized or checked as by [`crate::xdr::encode`].
///
/// # Errors
///
/// Reports missing fields, type mismatches and array lengths that
/// disagree with the schema or with their count field.
pub fn encode(record: &Record, st: &StructType) -> Result<String, PbioError> {
    let mut xml = String::new();
    canonical::encode(record, st, &st.name, &mut Writer::compact(&mut xml))?;
    Ok(xml)
}

/// The text sink: a struct is an element named for its field (the root
/// for its type), a scalar is an element holding its decimal or string
/// text, an array is its elements repeated under the field's name, and
/// a dynamic array's length is carried by its count field alone.
impl Sink for Writer<'_> {
    fn open(&mut self, name: &str) {
        self.start(name);
    }

    fn close(&mut self) {
        self.end();
    }

    /// Text holds any number: nothing is out of range.
    fn num(&mut self, field: &str, _: Primitive, n: Scalar) -> Result<(), PbioError> {
        self.start(field);
        self.text(&match n {
            Scalar::Int(v) => v.to_string(),
            Scalar::UInt(v) => v.to_string(),
            Scalar::Float(v) => format_float(v),
        });
        self.end();
        Ok(())
    }

    fn string(&mut self, field: &str, s: &str) {
        self.start(field);
        // Whitespace-only text is dropped on decode (as element-content
        // whitespace), which would silently corrupt strings like " ".
        // CDATA sections are always kept, so use them whenever the
        // string's edges are at risk — split around any literal `]]>`,
        // which one CDATA section cannot hold.
        if s.trim() != s {
            for (i, part) in s.split("]]>").enumerate() {
                if i > 0 {
                    self.text("]]>");
                }
                if !part.is_empty() {
                    self.cdata(part);
                }
            }
        } else if !s.is_empty() {
            self.text(s);
        }
        self.end();
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

/// Decodes an XML document produced by [`encode`] back into a record.
///
/// The document is parsed into an [`Element`] tree whose names and text
/// are slices of the input, so markup and entity-free content cost no
/// string allocations; owned storage is only created for the decoded
/// [`Value`]s themselves.
///
/// # Errors
///
/// Reports malformed XML, wrong root elements, occurrence mismatches and
/// unparseable values.
pub fn decode(text: &str, st: &StructType) -> Result<Record, PbioError> {
    let root = Element::parse(text)?;
    if root.name != st.name {
        return Err(PbioError::FormatMismatch {
            expected: st.name.clone(),
            found: root.name.to_owned(),
        });
    }
    record_from_element(&root, st)
}

fn record_from_element(el: &Element<'_>, st: &StructType) -> Result<Record, PbioError> {
    let mut record = Record::new();
    for field in &st.fields {
        let occurrences: Vec<&Element<'_>> =
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
    occurrences: &[&'a Element<'b>],
    field: &str,
) -> Result<&'a Element<'b>, PbioError> {
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
        // whitespace to the tree; CDATA keeps them intact.
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
        let tree = Element::parse(&text).unwrap();
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

    /// The exact bytes of the paper's Structures A–D and of the string
    /// edges the CDATA rule exists for: empty, whitespace at either
    /// edge, and `]]>` (which one CDATA section cannot hold).
    #[test]
    fn structures_and_string_edges_are_written_as_these_bytes() {
        let strings = ["cntrID", "arln", "equip", "org", "dest"];
        let flat = |off: CType, eta: CType| {
            let mut fields: Vec<StructField> =
                strings.iter().map(|s| StructField::new(*s, CType::String)).collect();
            fields.insert(2, StructField::new("fltNum", prim(Primitive::Int)));
            fields.push(StructField::new("off", off));
            fields.push(StructField::new("eta", eta));
            fields
        };
        let ulong = || prim(Primitive::ULong);
        let a = StructType::new("ASDOffEvent", flat(ulong(), ulong()));
        let mut b_fields =
            flat(CType::fixed_array(ulong(), 5), CType::dynamic_array(ulong(), "eta_count"));
        b_fields.push(StructField::new("eta_count", prim(Primitive::Int)));
        let b = StructType::new("ASDOffEvent", b_fields);
        let d = StructType::new(
            "threeASDOffs",
            vec![
                StructField::new("one", CType::Struct(b.clone())),
                StructField::new("bart", prim(Primitive::Double)),
                StructField::new("two", CType::Struct(b.clone())),
                StructField::new("lisa", prim(Primitive::Double)),
                StructField::new("three", CType::Struct(b.clone())),
            ],
        );
        let base = || {
            Record::new()
                .with("cntrID", "ZTL")
                .with("arln", "DL")
                .with("fltNum", 1202i64)
                .with("equip", "B752")
                .with("org", "ATL")
                .with("dest", "BOS")
        };
        let rec_a = base().with("off", 1_748_707_200u64).with("eta", 1_748_710_800u64);
        let rec_b = base().with("off", vec![10u64, 20, 30, 40, 50]).with("eta", vec![100u64, 200, 300]);
        // Structure C is B's layout with its dynamic array empty.
        let rec_c = base().with("fltNum", -7i64).with("off", vec![0u64; 5]).with("eta", Vec::<u64>::new());
        let rec_d = Record::new()
            .with("one", rec_b.clone())
            .with("bart", 1.5f64)
            .with("two", rec_c.clone())
            .with("lisa", -2.0f64)
            .with("three", rec_b.clone());
        let edges = ["", " ", " x", "x ", "a]]>b", "]]>", "<&\"'>", " a]]>b ", "]]> "];
        let e = StructType::new(
            "edges",
            (0..edges.len()).map(|i| StructField::new(format!("s{i}"), CType::String)).collect(),
        );
        let mut rec_e = Record::new();
        for (i, s) in edges.iter().enumerate() {
            rec_e.set(format!("s{i}"), *s);
        }
        let got: Vec<String> = [(&rec_a, &a), (&rec_b, &b), (&rec_c, &b), (&rec_d, &d), (&rec_e, &e)]
            .iter()
            .map(|(rec, st)| encode(rec, st).unwrap())
            .collect();
        const HEAD: &str = "<cntrID>ZTL</cntrID><arln>DL</arln>";
        const TAIL: &str = "<equip>B752</equip><org>ATL</org><dest>BOS</dest>";
        let body_b = format!(
            "{HEAD}<fltNum>1202</fltNum>{TAIL}<off>10</off><off>20</off><off>30</off>\
             <off>40</off><off>50</off><eta>100</eta><eta>200</eta><eta>300</eta>\
             <eta_count>3</eta_count>"
        );
        let body_c = format!(
            "{HEAD}<fltNum>-7</fltNum>{TAIL}<off>0</off><off>0</off><off>0</off><off>0</off>\
             <off>0</off><eta_count>0</eta_count>"
        );
        let expected = [
            format!(
                "<ASDOffEvent>{HEAD}<fltNum>1202</fltNum>{TAIL}<off>1748707200</off>\
                 <eta>1748710800</eta></ASDOffEvent>"
            ),
            format!("<ASDOffEvent>{body_b}</ASDOffEvent>"),
            format!("<ASDOffEvent>{body_c}</ASDOffEvent>"),
            format!(
                "<threeASDOffs><one>{body_b}</one><bart>1.5</bart><two>{body_c}</two>\
                 <lisa>-2.0</lisa><three>{body_b}</three></threeASDOffs>"
            ),
            "<edges><s0/><s1><![CDATA[ ]]></s1><s2><![CDATA[ x]]></s2><s3><![CDATA[x ]]></s3>\
             <s4>a]]&gt;b</s4><s5>]]&gt;</s5><s6>&lt;&amp;\"'&gt;</s6>\
             <s7><![CDATA[ a]]>]]&gt;<![CDATA[b ]]></s7><s8>]]&gt;<![CDATA[ ]]></s8></edges>"
                .to_owned(),
        ];
        assert_eq!(got, expected);
        for ((rec, st), text) in [(&rec_b, &b), (&rec_c, &b), (&rec_e, &e)].iter().zip([1, 2, 4]) {
            let back = decode(&expected[text], st).unwrap();
            for field in &st.fields {
                if field.name != "eta_count" {
                    assert_eq!(back.get(&field.name), rec.get(&field.name), "{}", field.name);
                }
            }
        }
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
