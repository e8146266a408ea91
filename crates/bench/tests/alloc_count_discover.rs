//! Allocation accounting for the cold discovery path: schema document in
//! hand → compiled schema → every type bound and registered
//! (`Xml2Wire::register_schema_str`, which is what `discover()` runs on
//! the fetched document).
//!
//! The `late_join` workload of the repo's benchmark pays this once per
//! join on a 65-type × 24-field catalogue. What keeps it cheap is
//! structural and pinned here with a counting global allocator:
//!
//! 1. at most [`BUDGET_PER_ELEMENT`] allocations per element
//!    declaration end to end — the compiler reads borrowed events (no
//!    DOM, no owned event, no per-element namespace map) and the binder
//!    shares one `Arc<StructType>` between catalog, registry and format
//!    instead of deep-copying it;
//! 2. the cost of one more field is the same in an 8-field type as in a
//!    24-field one: nothing on the path re-allocates as a type grows.
//!
//! Runs in its own test binary (one `#[test]`) so no other test can
//! disturb the counter — same discipline as `alloc_count.rs`.

use omf_bench::{allocations, generated_schema_set, CountingAllocator};
use xml2wire::Xml2Wire;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The catalogue's shape.
const TYPES: usize = 65;

/// Allocations allowed per `xsd:element`, parse and bind together.
/// (The DOM-based path this replaced spent about 21.)
const BUDGET_PER_ELEMENT: usize = 6;

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
