//! The closure a `MetadataServer` serves is the closure the client would
//! have cut itself. `Xml2Wire::discover_root` asks the server for the
//! closure of a document's first complex type; the server computes it
//! with `Schema::parse_reachable` over the whole document and writes it
//! out with `Schema::to_xml_string`, and the client runs
//! `parse_reachable` again on what arrives. On the generator's documents
//! (`xsdlite/tests/generator`), every complex type moved to the front in
//! turn and defects included, this holds `discover_root` through a real
//! server to a local `parse_reachable` of the whole document, bound on
//! each of the six architectures:
//!
//! * a document that binds gives the same formats — names,
//!   fingerprints, struct types and layouts;
//! * a document that fails gives the same error `Display`: a defect the
//!   server's parse refuses is sent whole and refused again, at the same
//!   position; a binding failure is the same failure.
//!
//! Under it sits the writer's round trip, which the served closure rests
//! on: `parse_reachable(to_xml_string(s)) == s` for every schema `s`
//! `parse_reachable` returns.

#[path = "../../xsdlite/tests/generator/mod.rs"]
mod generator;

use std::sync::Arc;

use clayout::{Architecture, Layout, StructType};
use generator::{document, every_root};
use pbio::{Catalog, Format, FormatRegistry};
use xml2wire::{Binder, MetadataServer, UrlSource, X2wError, Xml2Wire};
use xsdlite::Schema;

/// What a discovery is compared by: each format's name, fingerprint,
/// struct type and layout, or the error's text.
type Outcome = Result<Vec<(String, u64, StructType, Layout)>, String>;

fn outcome(formats: Result<Vec<Arc<Format>>, X2wError>) -> Outcome {
    formats
        .map(|formats| {
            formats
                .iter()
                .map(|f| {
                    (
                        f.name().to_owned(),
                        f.fingerprint(),
                        f.struct_type().clone(),
                        f.layout().clone(),
                    )
                })
                .collect()
        })
        .map_err(|e| e.to_string())
}

/// What the client gets with the whole document in hand.
fn local(doc: &str, arch: Architecture) -> Outcome {
    let (catalog, registry) = (Catalog::new(), FormatRegistry::new());
    let binder = Binder::new(&catalog, &registry, arch);
    outcome(
        Schema::parse_reachable(doc)
            .map_err(X2wError::from)
            .and_then(|s| binder.bind_schema_owned(s)),
    )
}

/// What a fresh session gets from the server.
fn served(url: &str, arch: Architecture) -> Outcome {
    let session = Xml2Wire::builder()
        .arch(arch)
        .source(Box::new(UrlSource::new()))
        .build();
    outcome(session.discover_root(url))
}

/// How many documents bound and how many failed, over all roots.
#[derive(Debug, Default)]
struct Tally {
    bound: usize,
    failed: usize,
}

/// Publishes `doc` at `path` (replacing what was there) and holds every
/// architecture's served discovery to the local one.
fn check(server: &MetadataServer, path: &str, doc: &str, tally: &mut Tally) {
    server.publish(path, doc);
    let url = server.url_for(path);
    for arch in Architecture::ALL {
        let expected = local(doc, arch);
        assert_eq!(
            served(&url, arch),
            expected,
            "{} on {}:\n{doc}",
            path,
            arch.name
        );
        if arch == Architecture::ALL[0] {
            match expected {
                Ok(_) => tally.bound += 1,
                Err(_) => tally.failed += 1,
            }
        }
    }
}

#[test]
fn served_closures_bind_as_the_local_closure() {
    let server = MetadataServer::bind("127.0.0.1:0").expect("a loopback port");
    let mut tally = Tally::default();
    for seed in 0..160u64 {
        let doc = document(seed, true);
        for (k, doc) in every_root(&doc).iter().enumerate() {
            // One path per root, and the path of the seed's first root
            // republished by every later seed: both fresh documents and
            // replaced ones are cut.
            check(&server, &format!("/gen/{seed}/{k}.xsd"), doc, &mut tally);
            check(&server, "/gen/replaced.xsd", doc, &mut tally);
        }
    }
    assert!(tally.bound > 300 && tally.failed > 100, "{tally:?}");
}

#[test]
fn the_writer_round_trips_every_reachable_schema() {
    let mut written = 0;
    for seed in 0..1000u64 {
        let doc = document(seed, true);
        for doc in every_root(&doc) {
            let Ok(schema) = Schema::parse_reachable(&doc) else {
                continue;
            };
            let text = schema.to_xml_string();
            assert_eq!(
                Schema::parse_reachable(&text),
                Ok(schema),
                "{text}\nfrom\n{doc}"
            );
            written += 1;
        }
    }
    assert!(written > 1500, "only {written} schemas written");
}

#[test]
fn a_republished_document_gets_a_new_closure() {
    const V1: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Tick"><xsd:element name="px" type="xsd:double"/><xsd:element name="venue" type="xsd:string"/></xsd:complexType>
  <xsd:complexType name="Unused"><xsd:element name="u" type="xsd:int"/></xsd:complexType>
</xsd:schema>"#;
    let v2 = V1.replace(
        r#"name="venue" type="xsd:string""#,
        r#"name="venue" type="xsd:int""#,
    );
    let server = MetadataServer::bind("127.0.0.1:0").expect("a loopback port");
    let url = server.url_for("/ticks.xsd");
    let host = Architecture::host();
    for doc in [V1, &v2, V1] {
        server.publish("/ticks.xsd", doc);
        let (served, expected) = (served(&url, host), local(doc, host));
        assert_eq!(served, expected);
        let names: Vec<String> = served.unwrap().into_iter().map(|(name, ..)| name).collect();
        assert_eq!(names, ["Tick"]);
    }
    assert_ne!(local(V1, host), local(&v2, host), "the two versions differ");
}
