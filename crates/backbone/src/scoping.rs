//! Format scoping: exposing per-subscriber "slices" of a stream.
//!
//! §4.4: with server-side dynamic metadata generation, "certain 'slices'
//! of each information stream are exposed or hidden based on attributes
//! of each subscribing application". A [`FormatScope`] names the visible
//! fields; from it the server derives a scoped schema to serve, and the
//! publisher derives a projection that strips hidden fields before
//! encoding for that subscriber class.

use clayout::{Record, Value};
use xsdlite::{ComplexType, ElementDecl, Occurs, Schema};

use crate::error::BackboneError;
use crate::filter::{FilterError, StreamFilter};

/// A visibility scope over one message format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatScope {
    /// A label for the subscriber class (e.g. `"public"`,
    /// `"dispatcher"`).
    pub label: String,
    visible: Vec<String>,
}

impl FormatScope {
    /// Creates a scope exposing exactly `visible` fields.
    pub fn new(label: impl Into<String>, visible: impl IntoIterator<Item = impl Into<String>>) -> Self {
        FormatScope {
            label: label.into(),
            visible: visible.into_iter().map(Into::into).collect(),
        }
    }

    /// Whether `field` is visible in this scope.
    fn is_visible(&self, field: &str) -> bool {
        self.visible.iter().any(|v| v == field)
    }

    /// Checks a compiled content filter against this scope: every field
    /// the predicate reads must be visible. Content filtering must not
    /// become a side channel — a subscriber that cannot *see* `salary`
    /// must not learn it by probing `salary > x` thresholds either.
    ///
    /// # Errors
    ///
    /// [`FilterError::HiddenField`] naming the first hidden field the
    /// predicate references.
    pub fn permits_filter(&self, filter: &StreamFilter) -> Result<(), FilterError> {
        for field in filter.referenced_fields() {
            if !self.is_visible(field) {
                return Err(FilterError::HiddenField {
                    field: field.clone(),
                    scope: self.label.clone(),
                });
            }
        }
        Ok(())
    }

    /// Derives the scoped complex type: declared fields restricted to the
    /// visible set, plus any count elements that visible arrays
    /// reference (hiding an array's count would make the slice
    /// unmarshalable).
    ///
    /// # Errors
    ///
    /// Rejects scopes naming fields the type does not declare.
    fn apply(&self, full: &ComplexType) -> Result<ComplexType, BackboneError> {
        for name in &self.visible {
            if full.element(name).is_none() {
                return Err(BackboneError::BadFrame {
                    detail: format!(
                        "scope {:?} names field {name:?} which {:?} does not declare",
                        self.label, full.name
                    ),
                });
            }
        }
        let mut required_counts: Vec<&str> = Vec::new();
        for el in &full.elements {
            if self.is_visible(&el.name) {
                if let Occurs::CountField(count) = &el.occurs {
                    required_counts.push(count);
                }
            }
        }
        let elements: Vec<ElementDecl> = full
            .elements
            .iter()
            .filter(|el| {
                self.is_visible(&el.name) || required_counts.contains(&el.name.as_str())
            })
            .cloned()
            .collect();
        let mut scoped = ComplexType::new(full.name.clone(), elements);
        scoped.documentation =
            Some(format!("scope {:?} of {}", self.label, full.name));
        Ok(scoped)
    }

    /// Derives a complete scoped schema document for serving from a
    /// metadata server.
    ///
    /// # Errors
    ///
    /// Rejects a type the document does not define, and scopes naming
    /// fields the type does not declare.
    pub fn scoped_schema(
        &self,
        full: &Schema,
        type_name: &str,
    ) -> Result<Schema, BackboneError> {
        let ty = full.complex_type(type_name).ok_or_else(|| BackboneError::BadFrame {
            detail: format!("schema does not define {type_name:?}"),
        })?;
        let mut schema = Schema {
            target_namespace: full.target_namespace.clone(),
            documentation: full.documentation.clone(),
            complex_types: Vec::new(),
            // Simple types referenced by retained elements must travel
            // with the scoped schema.
            simple_types: full.simple_types.clone(),
        };
        schema
            .add_complex_type(self.apply(ty)?)
            .map_err(|e| BackboneError::Metadata(e.into()))?;
        Ok(schema)
    }

    /// Projects a full record onto this scope (dropping hidden fields,
    /// keeping required count fields consistent with their arrays).
    pub fn project(&self, record: &Record, full: &ComplexType) -> Record {
        let mut out = Record::new();
        let mut required_counts: Vec<&str> = Vec::new();
        for el in &full.elements {
            if self.is_visible(&el.name) {
                if let Occurs::CountField(count) = &el.occurs {
                    required_counts.push(count);
                }
            }
        }
        for (name, value) in record.iter() {
            let keep = self.is_visible(name) || required_counts.contains(&name);
            if keep {
                out.set(name.to_owned(), value.clone());
            }
        }
        // Re-derive counts that were not present in the source record.
        for count in required_counts {
            if out.get(count).is_none() {
                let len = full
                    .elements
                    .iter()
                    .find(|el| matches!(&el.occurs, Occurs::CountField(c) if c == count))
                    .and_then(|el| record.get(&el.name))
                    .and_then(Value::as_array)
                    .map(|a| a.len() as u64)
                    .unwrap_or(0);
                out.set(count.to_owned(), Value::UInt(len));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flight_schema() -> Schema {
        Schema::parse_str(
            r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Flight">
    <xsd:element name="arln" type="xsd:string"/>
    <xsd:element name="fltNum" type="xsd:integer"/>
    <xsd:element name="paxCount" type="xsd:integer"/>
    <xsd:element name="crewNotes" type="xsd:string"/>
    <xsd:element name="eta" type="xsd:unsigned-long" maxOccurs="eta_count"/>
    <xsd:element name="eta_count" type="xsd:integer"/>
  </xsd:complexType>
</xsd:schema>"#,
        )
        .unwrap()
    }

    fn public_scope() -> FormatScope {
        FormatScope::new("public", ["arln", "fltNum", "eta"])
    }

    #[test]
    fn apply_keeps_visible_fields_and_needed_counts() {
        let schema = flight_schema();
        let scoped = public_scope().apply(schema.complex_type("Flight").unwrap()).unwrap();
        let names: Vec<&str> = scoped.elements.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["arln", "fltNum", "eta", "eta_count"]);
    }

    #[test]
    fn hidden_fields_disappear_from_the_schema() {
        let schema = flight_schema();
        let scoped = public_scope().scoped_schema(&schema, "Flight").unwrap();
        let xml = scoped.to_xml_string();
        assert!(!xml.contains("crewNotes"), "{xml}");
        assert!(!xml.contains("paxCount"), "{xml}");
        // The scoped schema is itself valid and bindable.
        let reparsed = Schema::parse_str(&xml).unwrap();
        assert_eq!(reparsed.complex_types.len(), 1);
    }

    #[test]
    fn unknown_fields_in_scope_are_rejected() {
        let schema = flight_schema();
        let scope = FormatScope::new("bad", ["noSuchField"]);
        assert!(scope.apply(schema.complex_type("Flight").unwrap()).is_err());
    }

    #[test]
    fn project_strips_hidden_values() {
        let schema = flight_schema();
        let full = schema.complex_type("Flight").unwrap();
        let record = Record::new()
            .with("arln", "DL")
            .with("fltNum", 1202i64)
            .with("paxCount", 148i64)
            .with("crewNotes", "medical on board")
            .with("eta", vec![1u64, 2, 3]);
        let projected = public_scope().project(&record, full);
        assert!(projected.get("crewNotes").is_none());
        assert!(projected.get("paxCount").is_none());
        assert_eq!(projected.get("arln").unwrap().as_str(), Some("DL"));
        // Count derived from the visible array.
        assert_eq!(projected.get("eta_count").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn scoped_pipeline_is_end_to_end_usable() {
        // Bind the scoped schema and marshal a projected record — the
        // full path a scoped subscriber exercises.
        let schema = flight_schema();
        let full = schema.complex_type("Flight").unwrap();
        let scope = public_scope();
        let scoped_schema = scope.scoped_schema(&schema, "Flight").unwrap();

        let x2w = xml2wire::Xml2Wire::builder().build();
        x2w.register_schema_str(&scoped_schema.to_xml_string()).unwrap();

        let record = Record::new()
            .with("arln", "DL")
            .with("fltNum", 7i64)
            .with("paxCount", 99i64)
            .with("crewNotes", "hidden")
            .with("eta", vec![5u64]);
        let projected = scope.project(&record, full);
        let wire = x2w.encode(&projected, "Flight").unwrap();
        let (_, decoded) = x2w.decode(&wire).unwrap();
        assert_eq!(decoded.get("arln").unwrap().as_str(), Some("DL"));
        assert!(decoded.get("crewNotes").is_none());
    }

    #[test]
    fn filters_may_only_reference_visible_fields() {
        use clayout::{CType, Primitive, StructField, StructType};
        let st = StructType::new(
            "Flight",
            vec![
                StructField::new("fltNum", CType::Prim(Primitive::Long)),
                StructField::new("paxCount", CType::Prim(Primitive::Long)),
            ],
        );
        let scope = FormatScope::new("public", ["fltNum"]);

        let allowed = StreamFilter::compile("fltNum > 100", &st).unwrap();
        assert!(scope.permits_filter(&allowed).is_ok());

        // `paxCount` is typecheckable against the full struct but hidden
        // from this scope: the probe must be refused.
        let probe = StreamFilter::compile("paxCount > 140", &st).unwrap();
        match scope.permits_filter(&probe) {
            Err(FilterError::HiddenField { field, scope }) => {
                assert_eq!(field, "paxCount");
                assert_eq!(scope, "public");
            }
            other => panic!("expected HiddenField, got {other:?}"),
        }
    }

    #[test]
    fn scope_visibility_queries() {
        let scope = public_scope();
        assert!(scope.is_visible("arln"));
        assert!(!scope.is_visible("crewNotes"));
    }
}
