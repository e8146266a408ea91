//! Offline shim for `rand`: a deterministic SplitMix64 generator behind
//! the `Rng`/`SeedableRng` trait surface the workspace uses
//! (`StdRng::seed_from_u64` + `gen_range` over integer and float ranges).
//!
//! Statistical quality is far beyond what seeded test-data generation
//! needs; the crate exists only because the build environment cannot
//! reach crates.io.

use std::ops::{Range, RangeInclusive};

/// Construction from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types with a uniform sampling rule over half-open and inclusive
/// ranges. The blanket [`SampleRange`] impls below hang off this trait
/// so type inference flows from a `gen_range` call site into integer
/// literals, matching real rand.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`.
    fn sample_half_open<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_inclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

/// Range types [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws a value uniformly from the range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range on empty range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "gen_range on empty range");
        T::sample_inclusive(start, end, rng)
    }
}

/// A randomness source — a 64-bit word per call — and the draws made
/// from it.
pub trait Rng {
    /// The next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Draws a value uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// A uniformly random `bool` that is `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

macro_rules! int_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: Rng + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                let span = (hi as i128 - lo as i128) as u128;
                let draw = ((rng.next_u64() as u128) % span) as i128;
                (lo as i128 + draw) as $t
            }
            fn sample_inclusive<R: Rng + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let draw = ((rng.next_u64() as u128) % span) as i128;
                (lo as i128 + draw) as $t
            }
        }
    )*};
}

int_sample_uniform!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! float_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: Rng + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                let unit = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                lo + (hi - lo) * unit
            }
            fn sample_inclusive<R: Rng + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                Self::sample_half_open(lo, hi, rng)
            }
        }
    )*};
}

float_sample_uniform!(f32, f64);

/// Standard generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The shim's standard generator: SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03 }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.gen_range(0u64..1_000_000)).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen_range(0u64..1_000_000)).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.gen_range(0u64..1_000_000)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let x = rng.gen_range(-5i64..7);
            assert!((-5..7).contains(&x));
            let f = rng.gen_range(-2.0f64..3.5);
            assert!((-2.0..3.5).contains(&f));
            let u = rng.gen_range(0usize..3);
            assert!(u < 3);
            let inc = rng.gen_range(1u8..=6);
            assert!((1..=6).contains(&inc));
        }
    }

    #[test]
    fn values_vary() {
        let mut rng = StdRng::seed_from_u64(1);
        let distinct: std::collections::HashSet<u64> =
            (0..100).map(|_| rng.gen_range(0u64..1_000_000_000)).collect();
        assert!(distinct.len() > 90);
    }
}
