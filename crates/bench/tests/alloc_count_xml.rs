//! Allocation accounting for the XML layer's zero-copy paths, pinned
//! with a counting global allocator (the schema ingest that
//! `late_join` measures tokenizes through claim 1):
//!
//! 1. the borrowed pull API ([`xmlparse::Reader::next_borrowed`]) does
//!    **zero** allocations per event for markup and entity-free text —
//!    the only allocations in a parse are the O(depth) reader state
//!    (open-tag stack, pooled attribute vector), so the total is
//!    independent of how many events the document contains;
//! 2. `escape::unescape` is allocation-free when the input has no `&`,
//!    and the escape helpers are allocation-free for clean input;
//! 3. the streaming [`Writer`] keeps open elements' names as positions
//!    in its output, so writing clean names and text into a `String`
//!    with room to spare, once its element stack is warm, allocates
//!    nothing — whatever the element count.
//!
//! Runs in its own test binary (one `#[test]`) so no other test can
//! disturb the counter — same discipline as `alloc_count.rs`.

use omf_bench::{allocations, CountingAllocator};
use xmlparse::escape::{escape_attribute, escape_text, unescape};
use xmlparse::{BorrowedEvent, Element, Position, Reader, Writer};

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

/// Writes one `<item>` three elements deep, with an attribute and text
/// that need no escaping.
fn write_item(w: &mut Writer<'_>) {
    w.start("item");
    w.attr("kind", "sample");
    w.start("name");
    w.text("plain");
    w.end();
    w.start("payload");
    w.start("value");
    w.text("text content");
    w.end();
    w.end();
    w.end();
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

    // --- Claim 3: a warm writer allocates nothing. ---
    for pretty in [false, true] {
        let mut xml = String::with_capacity(64 * 1024);
        let mut w = if pretty { Writer::pretty(&mut xml) } else { Writer::compact(&mut xml) };
        w.start("root");
        // One warm-up item sizes the element stack.
        write_item(&mut w);
        let before = allocations();
        for _ in 0..100 {
            write_item(&mut w);
        }
        w.end();
        let allocs = allocations() - before;
        assert_eq!(allocs, 0, "writing 100 items (pretty: {pretty}) allocated {allocs} times");
        let root = Element::parse(&xml).unwrap();
        assert_eq!(root.child_elements().count(), 101, "{xml}");
    }
}
