//! The reference unit: how fast is this box right now?
//!
//! The box this benchmark was built on shares its cores with other
//! tenants. When a neighbour is busy, everything here runs 1.2–1.8×
//! slower — in stretches of a few hundred milliseconds, or for hours on
//! end — with no steal time to show for it; when the neighbour is idle
//! it runs at full speed. Wall-clock numbers taken an hour apart
//! disagreed by 15–30 % on unchanged code, on every workload at once,
//! and nothing read from inside one run (best slice, percentiles over
//! slices) can tell "the box is slow today" from "the code got slower".
//!
//! So every timed stretch of a run is bracketed by *reference units*: a
//! fixed piece of work that belongs to the benchmark, never changes, and
//! slows down under a busy neighbour about as much as the system does
//! (string formatting, hashing, tree and hash-map inserts, allocation,
//! sorting — ordinary branchy, cache-hungry code; a tight arithmetic loop
//! hardly notices a neighbour and is useless here). A stretch that took
//! `t` wall seconds while the units around it took `u` seconds is
//! reported as `t × (NOMINAL_UNIT_S / u)^k` *reference seconds*: what it
//! would have taken with the box at its nominal speed. `k` says how much
//! of the unit's slowdown the timed work shares. Cold starts that are
//! discovery and binding (parse, bind, allocate) slow down exactly as
//! the unit does, `k = 1` ([`crate::harness::Plan::setup_sensitivity`]);
//! the steady-state paths are a little less cache-hungry than the unit
//! and slow down less — log–log slopes of slice time against unit time,
//! measured here while a neighbour came and went, were 0.6–1.0 over the
//! five workloads and both phases, lower between a calm hour and a busy
//! one, higher between a busy hour and a very bad one — so slices use
//! one middle value, [`SLICE_SENSITIVITY`]. The gated timings are in reference seconds;
//! their wall-clock values are printed beside them as `diag.*`.
//!
//! The unit touches none of the repository's code, so it is the same on
//! both sides of any comparison between two commits, and a ratio of two
//! reference-second timings equals the ratio of the wall-clock timings
//! the two commits would show side by side on an undisturbed box.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// What one unit takes on this box with no neighbour active (the 10th
/// percentile of units taken between slices over a calm hour). Only a
/// scale: it puts reference seconds next to wall seconds on a calm box
/// and cancels out of every comparison.
pub const NOMINAL_UNIT_S: f64 = 1.3e-3;

/// How much of the unit's slowdown a saturation or paced slice shares
/// (see the module text).
pub const SLICE_SENSITIVITY: f64 = 0.75;

/// Entries one unit builds, sorts and reads back.
const ENTRIES: u64 = 1500;
const TEXT_BYTES: usize = 256 * 1024;

/// Fixed hash keys: the same probe sequences in every process.
type FixedState = BuildHasherDefault<DefaultHasher>;

pub struct Reference {
    text: Vec<u8>,
    /// What the first unit computed; every later unit must agree, or
    /// the units were not the same work.
    checksum: Option<u64>,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

impl Reference {
    pub fn new() -> Reference {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let text = (0..TEXT_BYTES)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b'a' + (state % 26) as u8
            })
            .collect();
        Reference {
            text,
            checksum: None,
        }
    }

    /// Runs one unit and returns the seconds it took.
    pub fn unit(&mut self) -> f64 {
        let started = Instant::now();
        let checksum = self.work();
        let seconds = started.elapsed().as_secs_f64();
        assert_eq!(
            *self.checksum.get_or_insert(checksum),
            checksum,
            "reference units must be identical work"
        );
        seconds
    }

    fn work(&self) -> u64 {
        let mut by_hash: HashMap<String, Vec<u8>, FixedState> = HashMap::default();
        let mut by_order: BTreeMap<String, u64> = BTreeMap::new();
        let mut x = 12_345_u64;
        for i in 0..ENTRIES {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let key = format!("{:x}-{i}", x >> 20);
            let at = (x >> 8) as usize % (TEXT_BYTES - 512);
            let len = 64 + (x & 255) as usize;
            by_order.insert(key.clone(), x);
            by_hash.insert(key, self.text[at..at + len].to_vec());
        }
        let mut keys: Vec<&String> = by_hash.keys().collect();
        keys.sort();
        let mut total = 0_u64;
        for key in keys {
            let index: u64 = key
                .split('-')
                .nth(1)
                .and_then(|digits| digits.parse().ok())
                .expect("keys end in their index");
            total = total
                .wrapping_add(index)
                .wrapping_add(by_order[key])
                .wrapping_add(by_hash[key].iter().map(|&b| u64::from(b)).sum::<u64>());
        }
        std::hint::black_box(total)
    }
}

/// `wall` (seconds, or any unit of time) of wall clock, taken while
/// reference units took `unit_s` seconds, in reference time, for work
/// that shares `sensitivity` of the unit's slowdown.
pub fn reference_time(wall: f64, unit_s: f64, sensitivity: f64) -> f64 {
    wall * (NOMINAL_UNIT_S / unit_s).powf(sensitivity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_are_identical_work_in_every_instance() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        assert!(a.unit() > 0.0 && a.unit() > 0.0 && b.unit() > 0.0);
        assert_eq!(a.checksum, b.checksum);
        assert!(a.checksum.is_some());
    }

    #[test]
    fn a_box_at_half_speed_reads_the_same_in_reference_seconds() {
        // 10 ms of work while units take the nominal time...
        let calm = reference_time(0.010, NOMINAL_UNIT_S, 1.0);
        // ...is 20 ms of wall clock while units take twice as long.
        let busy = reference_time(0.020, 2.0 * NOMINAL_UNIT_S, 1.0);
        assert!((calm - 0.010).abs() < 1e-15);
        assert!((busy - calm).abs() < 1e-15);
        // Work that shares half of the slowdown takes 10 ms × √2 then.
        let half = reference_time(0.010 * 2f64.sqrt(), 2.0 * NOMINAL_UNIT_S, 0.5);
        assert!((half - calm).abs() < 1e-15);
    }
}
