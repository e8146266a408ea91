//! Validating XML *instance* documents against a schema, and scoring how
//! well a message fits each known format.
//!
//! The paper (§4.1.1) argues that representing message structure in XML
//! makes "schema-checking tools … applicable to live messages received
//! from other parties", and that this "could be used to determine which
//! of a set of structure definitions a message most closely fits". This
//! module implements both: strict validation ([`validate_instance`]) and
//! best-fit scoring ([`match_score`], [`best_match`]). Instances are
//! parsed [`Element`] trees rather than event streams: a count field's
//! check reads a sibling that follows the array it counts, and
//! [`best_match`] scores every type against one parse.

use std::fmt;

use xmlparse::Element;

use crate::model::{ComplexType, Occurs, Schema, TypeRef};

/// One problem found while validating an instance against a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationIssue {
    /// Slash-separated path from the instance root to the problem site.
    pub path: String,
    /// Human-readable description of the problem.
    pub message: String,
}

impl ValidationIssue {
    fn new(path: &str, message: impl Into<String>) -> Self {
        ValidationIssue { path: path.to_owned(), message: message.into() }
    }
}

impl fmt::Display for ValidationIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

/// Validates `instance` against complex type `type_name` of `schema`.
///
/// Returns all problems found (an empty vector means the instance
/// conforms). Occurrence constraints, element order, unknown elements,
/// count-field consistency and primitive lexical forms are all checked.
pub fn validate_instance(
    instance: &Element<'_>,
    type_name: &str,
    schema: &Schema,
) -> Vec<ValidationIssue> {
    let mut issues = Vec::new();
    match schema.complex_type(type_name) {
        Some(ty) => validate_against(instance, ty, schema, type_name, &mut issues),
        None => issues.push(ValidationIssue::new(
            type_name,
            format!("schema does not define complex type {type_name:?}"),
        )),
    }
    issues
}

fn validate_against(
    instance: &Element<'_>,
    ty: &ComplexType,
    schema: &Schema,
    path: &str,
    issues: &mut Vec<ValidationIssue>,
) {
    let children: Vec<&Element<'_>> = instance.child_elements().collect();

    // Unknown children.
    for child in &children {
        if ty.element(child.local_name()).is_none() {
            issues.push(ValidationIssue::new(
                path,
                format!("unexpected element <{}>", child.name),
            ));
        }
    }

    // Order: the sequence of distinct declared names among children must
    // be non-decreasing in declaration order.
    let mut last_index = 0usize;
    for child in &children {
        if let Some(idx) = ty.elements.iter().position(|e| e.name == child.local_name()) {
            if idx < last_index {
                issues.push(ValidationIssue::new(
                    path,
                    format!("element <{}> appears out of declared order", child.name),
                ));
            }
            last_index = last_index.max(idx);
        }
    }

    for decl in &ty.elements {
        let matches: Vec<&&Element<'_>> =
            children.iter().filter(|c| c.local_name() == decl.name).collect();
        let child_path = format!("{path}/{}", decl.name);

        // Occurrence counts.
        match &decl.occurs {
            Occurs::Scalar => {
                if matches.len() != 1 {
                    issues.push(ValidationIssue::new(
                        &child_path,
                        format!("expected exactly 1 occurrence, found {}", matches.len()),
                    ));
                }
            }
            Occurs::Fixed(n) => {
                if matches.len() != *n {
                    issues.push(ValidationIssue::new(
                        &child_path,
                        format!("expected exactly {n} occurrences, found {}", matches.len()),
                    ));
                }
            }
            Occurs::Unbounded => {}
            Occurs::CountField(count_name) => {
                let declared = children
                    .iter()
                    .find(|c| c.local_name() == count_name.as_str())
                    .map(|c| c.text_content().trim().parse::<i64>());
                match declared {
                    Some(Ok(n)) if n >= 0 && n as usize == matches.len() => {}
                    Some(Ok(n)) => issues.push(ValidationIssue::new(
                        &child_path,
                        format!(
                            "count field {count_name:?} says {n} but {} occurrences found",
                            matches.len()
                        ),
                    )),
                    Some(Err(_)) => issues.push(ValidationIssue::new(
                        &child_path,
                        format!("count field {count_name:?} is not an integer"),
                    )),
                    None => issues.push(ValidationIssue::new(
                        &child_path,
                        format!("count field {count_name:?} is missing from the instance"),
                    )),
                }
            }
        }

        // Content of each occurrence.
        for occurrence in matches {
            match &decl.type_ref {
                TypeRef::Primitive(p) => {
                    let text = occurrence.text_content();
                    if !p.accepts_lexical(&text) {
                        issues.push(ValidationIssue::new(
                            &child_path,
                            format!("{text:?} is not a valid {p}"),
                        ));
                    }
                }
                TypeRef::Simple(simple_name) => {
                    let text = occurrence.text_content();
                    match schema.simple_type(simple_name) {
                        Some(simple) => {
                            if !simple.accepts_lexical(&text) {
                                issues.push(ValidationIssue::new(
                                    &child_path,
                                    format!(
                                        "{text:?} violates simple type {simple_name:?} \
                                         (base {}, {} facet(s))",
                                        simple.base,
                                        simple.facets.len()
                                    ),
                                ));
                            }
                        }
                        None => issues.push(ValidationIssue::new(
                            &child_path,
                            format!("references unknown simple type {simple_name:?}"),
                        )),
                    }
                }
                TypeRef::Named(inner_name) => match schema.complex_type(inner_name) {
                    Some(inner) => {
                        validate_against(occurrence, inner, schema, &child_path, issues)
                    }
                    None => issues.push(ValidationIssue::new(
                        &child_path,
                        format!("references unknown type {inner_name:?}"),
                    )),
                },
            }
        }
    }
}

/// Scores how well `instance` fits complex type `type_name`: `1.0` is a
/// perfect fit, decreasing with each issue relative to the size of the
/// type. Returns `0.0` for unknown types.
pub fn match_score(instance: &Element<'_>, type_name: &str, schema: &Schema) -> f64 {
    let Some(ty) = schema.complex_type(type_name) else {
        return 0.0;
    };
    let issues = validate_instance(instance, type_name, schema).len() as f64;
    let weight = (ty.elements.len().max(1) + instance.child_elements().count()) as f64;
    (1.0 - issues / weight).max(0.0)
}

/// Finds the complex type of `schema` that `instance` most closely fits,
/// together with its score — the paper's "which of a set of structure
/// definitions a message most closely fits".
///
/// Ties break toward the earliest-declared type. Returns `None` for an
/// empty schema.
pub fn best_match<'s>(instance: &Element<'_>, schema: &'s Schema) -> Option<(&'s ComplexType, f64)> {
    let mut best: Option<(&ComplexType, f64)> = None;
    for ty in &schema.complex_types {
        let score = match_score(instance, &ty.name, schema);
        let better = match best {
            None => true,
            Some((_, best_score)) => score > best_score,
        };
        if better {
            best = Some((ty, score));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::parse_str(
            r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Flight">
    <xsd:element name="arln" type="xsd:string"/>
    <xsd:element name="fltNum" type="xsd:integer"/>
    <xsd:element name="off" type="xsd:unsigned-long" minOccurs="2" maxOccurs="2"/>
    <xsd:element name="eta" type="xsd:unsigned-long" maxOccurs="eta_count"/>
    <xsd:element name="eta_count" type="xsd:integer"/>
  </xsd:complexType>
  <xsd:complexType name="Weather">
    <xsd:element name="station" type="xsd:string"/>
    <xsd:element name="tempC" type="xsd:double"/>
  </xsd:complexType>
</xsd:schema>"#,
        )
        .unwrap()
    }

    fn parse(xml: &str) -> Element<'_> {
        Element::parse(xml).unwrap()
    }

    const GOOD: &str = "<Flight><arln>DL</arln><fltNum>1202</fltNum>\
         <off>1</off><off>2</off><eta>9</eta><eta>10</eta><eta_count>2</eta_count></Flight>";

    #[test]
    fn conforming_instance_has_no_issues() {
        let issues = validate_instance(&parse(GOOD), "Flight", &schema());
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn missing_scalar_is_reported() {
        let xml = "<Flight><fltNum>1</fltNum><off>1</off><off>2</off><eta_count>0</eta_count></Flight>";
        let issues = validate_instance(&parse(xml), "Flight", &schema());
        assert!(issues.iter().any(|i| i.path.ends_with("/arln")), "{issues:?}");
    }

    #[test]
    fn wrong_fixed_count_is_reported() {
        let xml = "<Flight><arln>DL</arln><fltNum>1</fltNum><off>1</off><eta_count>0</eta_count></Flight>";
        let issues = validate_instance(&parse(xml), "Flight", &schema());
        assert!(
            issues.iter().any(|i| i.message.contains("expected exactly 2")),
            "{issues:?}"
        );
    }

    #[test]
    fn count_field_mismatch_is_reported() {
        let xml = "<Flight><arln>DL</arln><fltNum>1</fltNum><off>1</off><off>2</off>\
             <eta>5</eta><eta_count>3</eta_count></Flight>";
        let issues = validate_instance(&parse(xml), "Flight", &schema());
        assert!(issues.iter().any(|i| i.message.contains("says 3 but 1")), "{issues:?}");
    }

    #[test]
    fn bad_lexical_form_is_reported() {
        let xml = "<Flight><arln>DL</arln><fltNum>twelve</fltNum><off>1</off><off>2</off>\
             <eta_count>0</eta_count></Flight>";
        let issues = validate_instance(&parse(xml), "Flight", &schema());
        assert!(issues.iter().any(|i| i.message.contains("not a valid xsd:integer")), "{issues:?}");
    }

    #[test]
    fn unexpected_element_is_reported() {
        let xml = "<Flight><arln>DL</arln><fltNum>1</fltNum><off>1</off><off>2</off>\
             <eta_count>0</eta_count><smuggled>x</smuggled></Flight>";
        let issues = validate_instance(&parse(xml), "Flight", &schema());
        assert!(issues.iter().any(|i| i.message.contains("unexpected element")), "{issues:?}");
    }

    #[test]
    fn out_of_order_elements_are_reported() {
        let xml = "<Flight><fltNum>1</fltNum><arln>DL</arln><off>1</off><off>2</off>\
             <eta_count>0</eta_count></Flight>";
        let issues = validate_instance(&parse(xml), "Flight", &schema());
        assert!(issues.iter().any(|i| i.message.contains("out of declared order")), "{issues:?}");
    }

    #[test]
    fn unknown_type_is_one_issue() {
        let issues = validate_instance(&parse("<X/>"), "NoSuch", &schema());
        assert_eq!(issues.len(), 1);
    }

    #[test]
    fn best_match_picks_the_fitting_type() {
        let s = schema();
        let (ty, score) = best_match(&parse(GOOD), &s).unwrap();
        assert_eq!(ty.name, "Flight");
        assert!((score - 1.0).abs() < f64::EPSILON);

        let weather = "<Weather><station>KATL</station><tempC>31.5</tempC></Weather>";
        let (ty, _) = best_match(&parse(weather), &s).unwrap();
        assert_eq!(ty.name, "Weather");
    }

    #[test]
    fn scores_degrade_with_damage() {
        let s = schema();
        let pristine = match_score(&parse(GOOD), "Flight", &s);
        let damaged = "<Flight><arln>DL</arln><off>1</off><eta_count>0</eta_count></Flight>";
        let worse = match_score(&parse(damaged), "Flight", &s);
        assert!(pristine > worse, "{pristine} vs {worse}");
        assert!(worse > 0.0);
    }
}
