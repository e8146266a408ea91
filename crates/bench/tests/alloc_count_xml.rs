//! Allocation accounting for the zero-copy XML parse path.
//!
//! The `xml_parse` bench's throughput claims rest on structural
//! properties this test pins down with a counting global allocator:
//!
//! 1. the borrowed pull API ([`xmlparse::Reader::next_borrowed`]) does
//!    **zero** allocations per event for markup and entity-free text —
//!    the only allocations in a parse are the O(depth) reader state
//!    (open-tag stack, pooled attribute vector), so the total is
//!    independent of how many events the document contains;
//! 2. `escape::unescape` is allocation-free when the input has no `&`,
//!    and the escape helpers are allocation-free for clean input;
//! 3. `NamespaceResolver` lookups borrow, and entering an element that
//!    declares no namespace costs nothing.
//!
//! Runs in its own test binary (one `#[test]`) so no other test can
//! disturb the counter — same discipline as `alloc_count.rs`.

use omf_bench::{allocations, CountingAllocator};
use xmlparse::escape::{escape_attribute, escape_text, unescape};
use xmlparse::{BorrowedEvent, Position, Reader};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A flat document with `items` identical children: same nesting depth
/// and attribute count regardless of `items`, so any per-event
/// allocation would show up as a difference in parse totals.
fn flat_doc(items: usize) -> String {
    let mut doc = String::from("<root>");
    for _ in 0..items {
        doc.push_str("<item kind=\"sample\" idx=\"fixed\">plain text content</item>");
    }
    doc.push_str("</root>");
    doc
}

/// Total allocations for one full borrowed-API parse, and the event
/// count it produced.
fn parse_allocs(doc: &str) -> (usize, usize) {
    let mut reader = Reader::new(doc);
    let mut events = 0usize;
    let before = allocations();
    loop {
        match reader.next_borrowed().expect("corpus is well-formed") {
            BorrowedEvent::Eof => break,
            _ => events += 1,
        }
    }
    (allocations() - before, events)
}

#[test]
fn xml_parse_allocation_budget() {
    // --- Claim 1: zero marginal allocations per borrowed event. ---
    // Warm up lazily-initialized runtime machinery outside the windows.
    let small_doc = flat_doc(16);
    let large_doc = flat_doc(160);
    parse_allocs(&small_doc);

    let (small_allocs, small_events) = parse_allocs(&small_doc);
    let (large_allocs, large_events) = parse_allocs(&large_doc);

    assert!(large_events > small_events * 9, "corpus shapes are off");
    assert_eq!(
        small_allocs, large_allocs,
        "borrowed-API parse totals must not grow with event count \
         ({small_events} events: {small_allocs} allocs, \
         {large_events} events: {large_allocs} allocs)"
    );
    // The per-parse constant is the reader's own state: the open-tag
    // stack and the pooled attribute vector, a handful of Vec growths.
    assert!(
        small_allocs <= 8,
        "per-parse constant should be O(depth), got {small_allocs}"
    );

    // --- Claim 2: escaping/unescaping clean text is allocation-free. ---
    let pos = Position::start();
    let clean = "a perfectly ordinary run of text with no markup at all";
    let before = allocations();
    for _ in 0..100 {
        assert_eq!(unescape(clean, pos).unwrap(), clean);
        assert_eq!(escape_text(clean), clean);
        assert_eq!(escape_attribute(clean), clean);
    }
    assert_eq!(
        allocations() - before,
        0,
        "Cow fast paths must not allocate for clean input"
    );

    // Entity expansion still works (and is allowed to allocate).
    assert_eq!(unescape("a &amp; b", pos).unwrap(), "a & b");

    // --- Claim 3: namespace scopes and lookups are allocation-free. ---
    let declaring = xmlparse::Element::new("xsd:schema").with_attr("xmlns:xsd", "urn:schema");
    let plain = xmlparse::Element::new("xsd:element").with_attr("name", "f");
    let mut resolver = xmlparse::namespace::NamespaceResolver::new();
    resolver.push_scope(&declaring);
    // One warm-up round sizes the scope stack.
    resolver.push_scope(&plain);
    resolver.pop_scope();
    let before = allocations();
    for _ in 0..100 {
        resolver.push_scope(&plain);
        assert_eq!(resolver.resolve("xsd:element").unwrap(), (Some("urn:schema"), "element"));
        assert_eq!(resolver.uri_for(Some("xsd")), Some("urn:schema"));
        assert_eq!(resolver.prefix_for("urn:schema"), Some(Some("xsd")));
        assert_eq!(resolver.resolve("unprefixed").unwrap(), (None, "unprefixed"));
        resolver.pop_scope();
    }
    assert_eq!(
        allocations() - before,
        0,
        "declaration-free scopes and namespace lookups must not allocate"
    );
}
