//! Allocation accounting for the cold discovery paths:
//!
//! * `discover()` — compiled schema → every type bound and registered
//!   (`Xml2Wire::register_schema_str`, which is what it runs on the
//!   fetched document);
//! * `discover_root()` — `Schema::parse_reachable` → the root's closure
//!   bound (what `Consumer::subscribe` runs on the fetched document),
//!   document in hand and then fetched over HTTP.
//!
//! The `late_join` workload of the repo's benchmark pays one of these
//! per join on a 65-type × 24-field catalogue. What keeps them cheap is
//! structural and pinned here with a counting global allocator:
//!
//! 1. at most [`BUDGET_PER_ELEMENT`] allocations per element
//!    declaration compiled, end to end — the compiler reads borrowed
//!    events (no DOM, no owned event, no per-element namespace map) and
//!    the binder shares one `Arc<StructType>` between catalog, registry
//!    and format instead of deep-copying it;
//! 2. for `discover()`, the cost of one more field is the same in an
//!    8-field type as in a 24-field one: nothing on the path
//!    re-allocates as a type grows;
//! 3. for `discover_root()`, a type outside the closure costs at most
//!    [`INDEX_PER_TYPE`] allocations however many fields it has: its
//!    elements are read, not compiled;
//! 4. fetching the catalogue from a real `MetadataServer` adds at most
//!    [`FETCH_ALLOCATIONS`] to `discover_root()`, counting the server's
//!    allocations with the client's: the response is read into one
//!    buffer that becomes the document, never copied whole.
//!
//! Runs in its own test binary as one `#[test]`, the paths in turn, so
//! no other test can disturb the process-wide counter — same discipline
//! as `alloc_count.rs`.

use clayout::Architecture;
use omf_bench::{allocations, generated_schema_set, CountingAllocator, SCHEMA_B};
use pbio::{Catalog, FormatRegistry};
use xml2wire::{Binder, MetadataServer, UrlSource, Xml2Wire};
use xsdlite::Schema;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The catalogue's shape.
const TYPES: usize = 65;

/// Allocations allowed per `xsd:element`, parse and bind together.
/// (The DOM-based path this replaced spent about 21.)
const BUDGET_PER_ELEMENT: usize = 6;

/// Allocations allowed per complex type a reachable-only parse indexes:
/// its name, and its share of the index's growth.
const INDEX_PER_TYPE: usize = 2;

/// Allocations a cold fetch adds to `discover_root()`'s parse and bind,
/// client and server together: the request, the response read into one
/// buffer that doubles from 8 KiB (five allocations for the catalogue)
/// and becomes the document in place, the schema cache's entry and
/// singleflight, and the server's request and response heads. A copy of
/// the document anywhere on the way would be one more.
const FETCH_ALLOCATIONS: usize = 24;

/// Element declarations of Structure B, the root `Consumer` binds.
const ROOT_DECLARATIONS: usize = 8;

/// Allocations of one cold registration of a `TYPES` × `fields`
/// catalogue into a fresh session.
fn registration_allocs(fields: usize) -> usize {
    let document = generated_schema_set(TYPES, fields);
    let session = Xml2Wire::builder().build();
    let before = allocations();
    let formats = session.register_schema_str(&document).expect("generated catalogue binds");
    let spent = allocations() - before;
    assert_eq!(formats.len(), TYPES);
    assert_eq!(formats[0].struct_type().fields.len(), fields);
    spent
}

#[test]
fn cold_registration_allocation_budget() {
    discover_pays_per_element();
    discover_root_pays_for_the_closure_only();
    discover_root_fetches_without_copying();
}

fn discover_pays_per_element() {
    // Warm up lazily-initialized runtime machinery outside the windows.
    registration_allocs(8);

    let (at_8, at_16, at_24) =
        (registration_allocs(8), registration_allocs(16), registration_allocs(24));

    let per_element = at_24 as f64 / (TYPES * 24) as f64;
    assert!(
        at_24 <= BUDGET_PER_ELEMENT * TYPES * 24,
        "{at_24} allocations for {TYPES} x 24 element declarations = {per_element:.2} each, \
         budget {BUDGET_PER_ELEMENT}"
    );

    // Eight more fields per type cost the same from 8 as from 16: the
    // totals are linear in the field count (the per-type and per-document
    // parts — hash-map growth, reader state — depend on TYPES alone and
    // cancel).
    assert_eq!(
        at_16 - at_8,
        at_24 - at_16,
        "marginal allocations per added field differ: 8 -> 16 fields costs {}, 16 -> 24 costs {} \
         (totals {at_8}, {at_16}, {at_24})",
        at_16 - at_8,
        at_24 - at_16
    );
    let per_added_field = (at_24 - at_16) as f64 / (TYPES * 8) as f64;
    assert!(
        per_added_field <= 2.5,
        "one more field costs {per_added_field:.2} allocations; a name in the schema and a name \
         in the layout are all it should need"
    );
}

/// Structure B, then `TYPES - 1` generated filler types of `fields`
/// elements each: the site catalogue's shape, root first.
fn catalogue(fields: usize) -> String {
    let set = generated_schema_set(TYPES - 1, fields);
    let (_, rest) = set.split_once('\n').expect("the set opens with its schema tag");
    let fillers = rest.strip_suffix("</xsd:schema>\n").expect("the set closes its schema");
    SCHEMA_B.replace("</xsd:schema>", &format!("{fillers}</xsd:schema>"))
}

/// Allocations of one reachable-only registration of the catalogue with
/// `fields`-element fillers into fresh state: `discover_root()` without
/// the fetch.
fn root_registration_allocs(fields: usize) -> usize {
    let document = catalogue(fields);
    let (catalog, registry) = (Catalog::new(), FormatRegistry::new());
    let binder = Binder::new(&catalog, &registry, Architecture::host());
    let before = allocations();
    let schema = Schema::parse_reachable(&document).expect("the catalogue's root compiles");
    let formats = binder.bind_schema_owned(schema).expect("the catalogue's root binds");
    let spent = allocations() - before;
    assert_eq!(formats.len(), 1);
    assert_eq!(formats[0].struct_type().fields.len(), ROOT_DECLARATIONS + 1, "eta_count");
    spent
}

fn discover_root_pays_for_the_closure_only() {
    root_registration_allocs(8);

    let (at_8, at_16, at_24) =
        (root_registration_allocs(8), root_registration_allocs(16), root_registration_allocs(24));

    // The fillers are indexed, never compiled: their size is invisible.
    assert_eq!(
        (at_8, at_16),
        (at_24, at_24),
        "filler field count moved the allocations: 8 -> {at_8}, 16 -> {at_16}, 24 -> {at_24}"
    );
    let budget = BUDGET_PER_ELEMENT * ROOT_DECLARATIONS + INDEX_PER_TYPE * TYPES;
    assert!(
        at_24 <= budget,
        "{at_24} allocations for a {ROOT_DECLARATIONS}-element root among {TYPES} types, budget \
         {budget} ({BUDGET_PER_ELEMENT} per root element + {INDEX_PER_TYPE} per indexed type)"
    );
}

fn discover_root_fetches_without_copying() {
    let server = MetadataServer::bind("127.0.0.1:0").expect("a loopback port");
    server.publish("/site/catalogue.xsd", catalogue(24));
    let url = server.url_for("/site/catalogue.xsd");
    let parse_and_bind = root_registration_allocs(24);
    // The first fetch warms the server's worker threads; of the next
    // ones the cheapest counts, so a stray allocation on a thread this
    // test does not control cannot fail it, while a copy made on every
    // fetch still does.
    fetched_root_allocs(&url);
    let fetched = (0..3).map(|_| fetched_root_allocs(&url)).min().expect("three fetches");
    let fetch = fetched - parse_and_bind;
    assert!(
        fetch <= FETCH_ALLOCATIONS,
        "{fetched} allocations for a cold discover_root() over HTTP, {parse_and_bind} of them \
         the parse and bind: the fetch made {fetch}, budget {FETCH_ALLOCATIONS} (another copy \
         of the {}-byte document would be one more)",
        catalogue(24).len()
    );
}

/// Allocations of one cold `discover_root()` of the catalogue from a
/// metadata server in this process: the client's and the server's, as
/// the counter is process-wide.
fn fetched_root_allocs(url: &str) -> usize {
    let session = Xml2Wire::builder().source(Box::new(UrlSource::new())).build();
    let before = allocations();
    let formats = session.discover_root(url).expect("the served catalogue's root binds");
    let spent = allocations() - before;
    assert_eq!(formats.len(), 1);
    spent
}
