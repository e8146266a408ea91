//! Differential tests of the event-driven schema compiler against the
//! DOM-walking compile it replaced (`dom_oracle`), and of its two
//! front-ends against each other.
//!
//! Documents come from a seeded generator rather than from a model
//! round trip, because what is under test is the *reading*: prefixes,
//! default namespaces, re-bound prefixes, wrappers, annotations with
//! mixed content, declaration order, ignored subtrees, and one injected
//! defect in about a third of the documents.

mod dom_oracle;
mod generator;

use std::io::Read;

use generator::document;
use proptest::prelude::*;
use xsdlite::{Schema, SchemaError};

/// Hands out one byte per `read` call.
struct Trickle<'a>(&'a [u8]);

impl Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        match (self.0.split_first(), out.first_mut()) {
            (Some((&byte, rest)), Some(slot)) => {
                *slot = byte;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// Same outcome, where XML errors are the same kind of XML error
/// (positions differ between readers by design).
fn same_kind(a: &Result<Schema, SchemaError>, b: &Result<Schema, SchemaError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a == b,
        (Err(SchemaError::Xml(a)), Err(SchemaError::Xml(b))) => {
            std::mem::discriminant(a.kind()) == std::mem::discriminant(b.kind())
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// The malformed documents the unit tests of `parser.rs` and the old
/// streaming-parity test were written around.
const MALFORMED: [&str; 12] = [
    "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"><xsd:complexType name=\"T\"/>",
    "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"><xsd:complexType/></xsd:schema>",
    "<notaschema/>",
    "<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\"><xsd:complexType name=\"T\">\
     <xsd:element name=\"f\" type=\"xsd:nosuch\"/></xsd:complexType></xsd:schema>",
    "junk",
    "",
    "<xsd:schema",
    "<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\"><xsd:complexType name=\"A\">\
     <xsd:element name=\"b\" type=\"B\"/></xsd:complexType><xsd:complexType name=\"B\">\
     <xsd:element name=\"a\" type=\"A\"/></xsd:complexType></xsd:schema>",
    // Doubly invalid: a schema-level defect, then malformed XML. The
    // document is not well-formed, and that is what gets reported.
    "<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\"><xsd:complexType/><oops></xsd:schema>",
    "<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\"><xsd:complexType name=\"T\">\
     <xsd:element name=\"x\" type=\"xsd:int\"/><xsd:element name=\"x\" type=\"xsd:int\"/>\
     </xsd:complexType></xsd:schema> trailing",
    "<xml:schema/>",
    "<xsd:schema xmlns:xsd=\"urn:not-xml-schema\"/>",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// New compiler ≡ DOM oracle: equal schemas, equal errors (message
    /// and all), on valid and defective documents alike.
    #[test]
    fn compiler_agrees_with_the_dom_oracle(seed in any::<u64>()) {
        let doc = document(seed, true);
        let compiled = Schema::parse_str(&doc);
        let oracle = dom_oracle::parse_schema_str(&doc);
        prop_assert_eq!(&compiled, &oracle, "seed {} document:\n{}", seed, doc);
    }

    /// Both front-ends feed one compiler: `parse_stream` — whole, and
    /// trickled a byte at a time — agrees with `parse_str`.
    #[test]
    fn front_ends_agree(seed in any::<u64>()) {
        let doc = document(seed, true);
        let by_str = Schema::parse_str(&doc);
        let by_stream = Schema::parse_stream(doc.as_bytes());
        let by_trickle = Schema::parse_stream(Trickle(doc.as_bytes()));
        prop_assert!(same_kind(&by_str, &by_stream), "seed {}: {:?} vs {:?}\n{}", seed, by_str, by_stream, doc);
        prop_assert!(same_kind(&by_str, &by_trickle), "seed {}: {:?} vs {:?}\n{}", seed, by_str, by_trickle, doc);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every prefix of a valid document ending on a char boundary: the
    /// same error from the compiler as from the oracle, and the same
    /// kind of error from the streaming front-end.
    #[test]
    fn truncations_fail_alike(seed in any::<u64>()) {
        let doc = document(seed, false);
        prop_assert!(Schema::parse_str(&doc).is_ok(), "seed {}: generator made an invalid document\n{}", seed, doc);
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            let prefix = &doc[..cut];
            let compiled = Schema::parse_str(prefix);
            let oracle = dom_oracle::parse_schema_str(prefix);
            prop_assert_eq!(&compiled, &oracle, "seed {} cut {}", seed, cut);
            let streamed = Schema::parse_stream(prefix.as_bytes());
            prop_assert!(same_kind(&compiled, &streamed), "seed {} cut {}: {:?} vs {:?}", seed, cut, compiled, streamed);
        }
    }
}

#[test]
fn malformed_corpus_fails_alike() {
    for doc in MALFORMED {
        let compiled = Schema::parse_str(doc);
        assert!(compiled.is_err(), "{doc:?} compiled");
        assert_eq!(compiled, dom_oracle::parse_schema_str(doc), "on {doc:?}");
        for streamed in
            [Schema::parse_stream(doc.as_bytes()), Schema::parse_stream(Trickle(doc.as_bytes()))]
        {
            assert!(same_kind(&compiled, &streamed), "on {doc:?}: {compiled:?} vs {streamed:?}");
        }
    }
}

/// The generator reaches what it is meant to reach: most documents
/// compile, and every defect it can inject is refused.
#[test]
fn generator_covers_valid_and_defective_documents() {
    let (mut ok, mut failed) = (0, 0);
    let mut kinds = std::collections::HashSet::new();
    for seed in 0..2000u64 {
        match Schema::parse_str(&document(seed, true)) {
            Ok(schema) => {
                ok += 1;
                assert!(!schema.complex_types.is_empty());
            }
            Err(e) => {
                failed += 1;
                kinds.insert(std::mem::discriminant(&e));
            }
        }
    }
    assert!(ok > 1000, "only {ok} of 2000 generated documents compile");
    assert!(failed > 300, "only {failed} of 2000 generated documents are refused");
    // NotASchema, MissingAttribute, UnknownType, DuplicateType,
    // DuplicateElement, RecursiveType, BadCountReference, BadOccurs, Invalid.
    assert_eq!(kinds.len(), 9, "defects reach {} error kinds", kinds.len());
    for seed in 0..500u64 {
        let doc = document(seed, false);
        assert!(Schema::parse_str(&doc).is_ok(), "seed {seed} without defects:\n{doc}");
    }
}
