//! Allocation accounting for the tiered conversion engine.
//!
//! The E-conv throughput numbers rest on the claim that steady-state
//! heterogeneous receive does **zero** allocations per message: the
//! plan is cached (alloc-free lookup), and `convert_into` reuses the
//! caller's buffer on every tier. This pins it with a counting global
//! allocator, for both the PureSwap tier (x86-64 <- POWER64 telemetry)
//! and the General tier (structure B with strings and a dynamic array).
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! disturb the counter.

use clayout::Architecture;
use omf_bench::{allocations, record_b, swap_workload, CountingAllocator, SCHEMA_B};
use pbio::{PlanCache, PlanTier};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Steady-state allocations for 100 `plan_for` + `convert_into` rounds
/// against a warm cache and buffer.
fn steady_state_allocs(
    st: &clayout::StructType,
    payload: &[u8],
    src: &Architecture,
    dst: &Architecture,
) -> usize {
    let plans = PlanCache::new();
    let mut buf = Vec::new();
    // Warm-up: compile and cache the plan, grow the buffer.
    for _ in 0..4 {
        let plan = plans.plan_for(st, src, dst).unwrap();
        plan.convert_into(payload, &mut buf).unwrap();
    }
    let before = allocations();
    for _ in 0..100 {
        let plan = plans.plan_for(st, src, dst).unwrap();
        plan.convert_into(payload, &mut buf).unwrap();
    }
    allocations() - before
}

#[test]
fn conversion_allocation_budget() {
    // --- PureSwap tier: pure-scalar telemetry, opposite endianness. ---
    let (tele, tele_rec) = swap_workload();
    let src = Architecture::POWER64;
    let dst = Architecture::X86_64;
    let wire = clayout::encode_record(&tele_rec, &tele, &src).unwrap();
    {
        let plan = PlanCache::new().plan_for(&tele, &src, &dst).unwrap();
        assert_eq!(plan.tier(), PlanTier::PureSwap, "workload must land on PureSwap");
    }
    assert_eq!(
        steady_state_allocs(&tele, &wire.bytes, &src, &dst),
        0,
        "PureSwap convert_into must not allocate per message at steady state"
    );

    // --- General tier: strings + dynamic array (structure B). ---
    let session = xml2wire::Xml2Wire::builder().arch(Architecture::host()).build();
    session.register_schema_str(SCHEMA_B).unwrap();
    let format = session.require_format("ASDOffEvent").unwrap();
    let st = format.struct_type().clone();
    let wire = clayout::encode_record(&record_b(), &st, &src).unwrap();
    {
        let plan = PlanCache::new().plan_for(&st, &src, &dst).unwrap();
        assert_eq!(plan.tier(), PlanTier::General, "structure B must stay General");
    }
    assert_eq!(
        steady_state_allocs(&st, &wire.bytes, &src, &dst),
        0,
        "General-tier convert_into must not allocate per message at steady state"
    );

    // --- Identity tier for completeness: pooled copy, no allocs. ---
    assert_eq!(
        steady_state_allocs(&st, &wire.bytes, &src, &src),
        0,
        "identity convert_into must not allocate per message at steady state"
    );
}
