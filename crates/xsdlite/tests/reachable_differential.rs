//! Differential tests of `Schema::parse_reachable` against
//! `Schema::parse_str` on the generator `compiler_differential.rs` uses.
//! `parse_reachable` compiles the closure of a document's first complex
//! type, so every declared complex type is tried as the root by moving it
//! in front of the others, in the document both parsers then read:
//!
//! * a document `parse_str` compiles gives `parse_str`'s schema
//!   restricted to the root's closure, in document order;
//! * an XML error, on every char-boundary truncation too, is the same
//!   error;
//! * a duplicate or nameless type, a simple-type defect and a root
//!   element that is not a schema are the same error whatever the root —
//!   those are checked over the whole document;
//! * a defect inside a complex type is the same error when the root
//!   reaches that type, and no error when it does not.
//!
//! The closure is computed here from the document's tree, not from
//! anything the compiler under test says.

mod generator;

use std::collections::HashSet;

use generator::{document, every_root, generate, Defect};
use proptest::prelude::*;
use xmlparse::Element;
use xsdlite::{Schema, SchemaError};

/// The document's top-level complex types in document order: each one's
/// name, if it has one, and the unprefixed type names its element
/// declarations reference.
type Graph = Vec<(Option<String>, Vec<String>)>;

fn type_graph(doc: &str) -> Graph {
    fn references(el: &Element<'_>, out: &mut Vec<String>) {
        for child in el.child_elements() {
            if child.local_name() != "element" {
                references(child, out);
            } else if let Some(ty) = child.attr("type").filter(|ty| !ty.contains(':')) {
                out.push(ty.to_owned());
            }
        }
    }
    let Ok(root) = Element::parse(doc) else {
        return Graph::new();
    };
    root.child_elements()
        .filter(|el| el.local_name() == "complexType")
        .map(|ty| {
            let mut refs = Vec::new();
            references(ty, &mut refs);
            (ty.attr("name").map(str::to_owned), refs)
        })
        .collect()
}

/// Every name `root` reaches, itself included.
fn closure(graph: &Graph, root: &str) -> HashSet<String> {
    let mut reached = HashSet::from([root.to_owned()]);
    let mut work = vec![root.to_owned()];
    while let Some(name) = work.pop() {
        for (_, refs) in graph.iter().filter(|(n, _)| n.as_deref() == Some(name.as_str())) {
            for target in refs {
                if reached.insert(target.clone()) {
                    work.push(target.clone());
                }
            }
        }
    }
    reached
}

/// Whether the generator put `defect` inside `Type0`'s body, rather than
/// in a simple type, a type's name or the root element.
fn inside_type0(defect: Defect) -> bool {
    matches!(
        defect,
        Defect::ElementWithoutName
            | Defect::ElementWithoutType
            | Defect::UnknownPrimitive
            | Defect::UnknownNamedType
            | Defect::DuplicateElement
            | Defect::UnsupportedConstruct
            | Defect::ZeroMaxOccurs
            | Defect::MismatchedOccurs
            | Defect::MissingCountField
            | Defect::NonIntegerCountField
            | Defect::Recursion
    )
}

/// How many documents took each branch of [`check`].
#[derive(Default, Debug)]
struct Tally {
    restricted: usize,
    same_error: usize,
    defect_outside: usize,
}

/// Holds `parse_reachable` to `parse_str` on `doc`, whose first complex
/// type is the root.
fn check(doc: &str, defect: Defect, tally: &mut Tally) {
    let full = Schema::parse_str(doc);
    let reachable = Schema::parse_reachable(doc);
    let graph = type_graph(doc);
    let reached = match graph.first() {
        Some((Some(root), _)) => closure(&graph, root),
        _ => HashSet::new(),
    };
    let in_closure = |name: &str| reached.contains(name);
    match &full {
        Ok(schema) => {
            let mut expected = schema.clone();
            expected.complex_types.retain(|ty| in_closure(&ty.name));
            prop_assert_eq!(&reachable, &Ok(expected), "{}", doc);
            tally.restricted += 1;
        }
        Err(_) if inside_type0(defect) && !in_closure("Type0") => {
            let compiled = reachable
                .unwrap_or_else(|e| panic!("{defect:?} outside the closure failed: {e}\n{doc}"));
            let names: Vec<&str> = compiled.complex_types.iter().map(|ty| &*ty.name).collect();
            let wanted: Vec<&str> =
                graph.iter().filter_map(|(name, _)| name.as_deref()).filter(|n| in_closure(n)).collect();
            prop_assert_eq!(names, wanted, "{}", doc);
            tally.defect_outside += 1;
        }
        Err(_) => {
            prop_assert_eq!(&reachable, &full, "{:?}:\n{}", defect, doc);
            tally.same_error += 1;
        }
    }
}

/// [`check`] with each of `doc`'s complex types as the root in turn.
fn check_every_root(doc: &str, defect: Defect, tally: &mut Tally) {
    for doc in every_root(doc) {
        check(&doc, defect, tally);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn reachable_agrees_with_parse_str(seed in any::<u64>()) {
        let (doc, defect) = generate(seed, true);
        check_every_root(&doc, defect, &mut Tally::default());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every prefix of a valid document ending on a char boundary fails
    /// (or, cut inside the trailer, compiles) exactly as `parse_str` says,
    /// with the first type as the root and with the last, whose closure
    /// is wherever its references point.
    #[test]
    fn truncations_fail_alike(seed in any::<u64>()) {
        let doc = document(seed, false);
        let last = every_root(&doc).pop().expect("a document has a root");
        for doc in [doc, last] {
            for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
                let prefix = &doc[..cut];
                let full = Schema::parse_str(prefix);
                if matches!(full, Err(SchemaError::Xml(_))) {
                    prop_assert_eq!(&Schema::parse_reachable(prefix), &full, "seed {} cut {}", seed, cut);
                } else {
                    check(prefix, Defect::None, &mut Tally::default());
                }
            }
        }
    }
}

/// Every branch above is taken, on a fixed set of seeds: restricted
/// schemas, the same schema errors, and defects the root never reaches.
#[test]
fn every_branch_is_exercised() {
    let mut tally = Tally::default();
    for seed in 0..2000u64 {
        let (doc, defect) = generate(seed, true);
        check_every_root(&doc, defect, &mut tally);
    }
    assert!(tally.restricted > 3500, "{tally:?}");
    assert!(tally.same_error > 1300, "{tally:?}");
    assert!(tally.defect_outside > 450, "{tally:?}");
}

/// What a joining client sees on a catalogue: the first type's closure
/// only, a defect it does not reach ignored, a forward reference kept.
#[test]
fn the_first_type_compiles_its_closure_and_nothing_else() {
    const PART: &str =
        r#"<xsd:complexType name="Part"><xsd:element name="x" type="xsd:int"/></xsd:complexType>"#;
    const WHOLE: &str = r#"<xsd:complexType name="Whole">
    <xsd:element name="part" type="Part"/>
    <xsd:element name="code" type="Code"/>
    <xsd:element name="later" type="Later"/>
  </xsd:complexType>"#;
    const BROKEN: &str = r#"<xsd:complexType name="Broken"><xsd:element name="b" type="xsd:quaternion"/></xsd:complexType>"#;
    const LATER: &str =
        r#"<xsd:complexType name="Later"><xsd:element name="y" type="xsd:double"/></xsd:complexType>"#;
    let catalogue = |types: &[&str]| {
        format!(
            r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="Code"><xsd:restriction base="xsd:string"/></xsd:simpleType>
  {}
</xsd:schema>"#,
            types.join("\n  ")
        )
    };
    let names = |schema: &Schema| -> Vec<String> {
        schema.complex_types.iter().map(|ty| ty.name.clone()).collect()
    };
    let doc = catalogue(&[WHOLE, PART, BROKEN, LATER]);
    let whole = Schema::parse_reachable(&doc).unwrap();
    assert_eq!(names(&whole), ["Whole", "Part", "Later"]);
    assert_eq!(whole.simple_types.len(), 1);
    assert!(matches!(Schema::parse_str(&doc), Err(SchemaError::UnknownType { .. })));
    let part = Schema::parse_reachable(&catalogue(&[PART, WHOLE, BROKEN, LATER])).unwrap();
    assert_eq!(names(&part), ["Part"]);
    assert!(matches!(
        Schema::parse_reachable(&catalogue(&[BROKEN, PART])),
        Err(SchemaError::UnknownType { .. })
    ));
    // No complex type at all: the simple types, as `parse_str` gives them.
    assert_eq!(Schema::parse_reachable(&catalogue(&[])), Schema::parse_str(&catalogue(&[])));
    // Malformed anywhere is malformed, reachable or not.
    let torn = doc.replace(r#"type="xsd:double"/>"#, r#"type="xsd:double">"#);
    assert!(matches!(Schema::parse_reachable(&torn), Err(SchemaError::Xml(_))));
}
