//! Binding cost is linear in a type's field count: the sibling-name
//! checks of the XSD compiler and of the layout engine scan while a
//! type is small and hash above 32 siblings, so one very wide type
//! costs what the same fields cost spread over narrower types — and a
//! repeated name is still reported by name however late it comes.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use xml2wire::{X2wError, Xml2Wire};

/// A schema of `types` complex types with `fields` integer elements
/// each; `rename` can replace one element's name in the first type.
fn schema(types: usize, fields: usize, rename: Option<(usize, &str)>) -> String {
    let mut doc = String::from("<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">\n");
    for t in 0..types {
        writeln!(doc, "<xsd:complexType name=\"Wide{t}\">").unwrap();
        for f in 0..fields {
            match rename {
                Some((at, name)) if t == 0 && at == f => {
                    writeln!(doc, "<xsd:element name=\"{name}\" type=\"xsd:int\"/>").unwrap()
                }
                _ => writeln!(doc, "<xsd:element name=\"field{f}\" type=\"xsd:int\"/>").unwrap(),
            }
        }
        doc.push_str("</xsd:complexType>\n");
    }
    doc.push_str("</xsd:schema>\n");
    doc
}

/// The fastest of five cold registrations of `document`.
fn bind_time(document: &str, types: usize) -> Duration {
    (0..5)
        .map(|_| {
            let session = Xml2Wire::builder().build();
            let started = Instant::now();
            let formats = session
                .register_schema_str(document)
                .expect("the schema binds");
            let elapsed = started.elapsed();
            assert_eq!(formats.len(), types);
            elapsed
        })
        .min()
        .expect("five runs")
}

#[test]
fn one_wide_type_binds_like_the_same_fields_in_narrow_types() {
    let wide = bind_time(&schema(1, 4096, None), 1);
    let narrow = bind_time(&schema(8, 512, None), 8);
    // Linear: about 1x. A scan per sibling would make the wide type's
    // 8.4 M name comparisons against the narrow types' 1 M dominate.
    assert!(
        wide < narrow * 3,
        "a 4096-field type took {wide:?} to bind, 8 x 512-field types {narrow:?}"
    );
}

#[test]
fn a_repeated_name_is_reported_by_name_at_any_position() {
    for fields in [8, 32, 33, 4096] {
        let document = schema(1, fields, Some((fields - 1, "field3")));
        let session = Xml2Wire::builder().build();
        match session.register_schema_str(&document) {
            Err(X2wError::Schema(e)) => {
                let shown = e.to_string();
                assert!(
                    shown.contains("field3") && shown.contains("Wide0"),
                    "{fields}: {shown}"
                );
            }
            other => panic!("{fields} fields: expected a duplicate-element error, got {other:?}"),
        }
    }
}
