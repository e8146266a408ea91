//! Estimators.
//!
//! A run is cut into many stretches of equal work — saturation slices,
//! paced slices, cold starts — each bracketed by reference units
//! ([`crate::reference`]) and so known in reference time: the box's
//! speed at that moment is divided out stretch by stretch. The division
//! is good but not perfect (no fixed piece of work slows down exactly
//! as much as every workload does), so the estimate is read where it
//! has least to correct: from the third of the stretches whose
//! reference units were fastest. Which stretches those are is decided
//! by the units alone, never by how long the stretch itself took, so
//! the choice does not favour lucky stretches, and a periodic cost (a
//! batch flush, a segment roll) is as likely to fall inside the chosen
//! third as outside it. The gated number is the median of that third.
//! Best-slice, percentile-over-slices and whole-run wall-clock values
//! are reported beside it as diagnostics.

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

use crate::reference::SLICE_SENSITIVITY;

/// One timed stretch of work: how long it took by the wall clock
/// (seconds, or µs for a latency) and the mean of the reference units
/// taken right before and right after it, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stretch {
    pub wall: f64,
    pub unit_s: f64,
}

impl Stretch {
    /// The stretch in reference time (same unit as `wall`), for work
    /// that shares `sensitivity` of the reference unit's slowdown.
    pub fn in_reference_time(&self, sensitivity: f64) -> f64 {
        crate::reference::reference_time(self.wall, self.unit_s, sensitivity)
    }
}

/// What a stretch of this kind takes in reference time: the median over
/// the calmest third of `stretches` (those with the fastest reference
/// units; at least one), all of them the same work.
pub fn typical(stretches: &[Stretch], sensitivity: f64) -> Option<f64> {
    let mut by_unit = stretches.to_vec();
    by_unit.sort_by(|a, b| a.unit_s.total_cmp(&b.unit_s));
    by_unit.truncate(stretches.len().div_ceil(3));
    let calmest: Vec<f64> = by_unit
        .iter()
        .map(|stretch| stretch.in_reference_time(sensitivity))
        .collect();
    median(&calmest)
}

/// Gated throughput: `events_per_slice` over the typical slice.
pub fn throughput(events_per_slice: usize, slices: &[Stretch]) -> Option<f64> {
    Some(events_per_slice as f64 / typical(slices, SLICE_SENSITIVITY)?)
}

/// Best-slice wall-clock throughput, a diagnostic: the quiet-window
/// value a run reaches when the box leaves it a quiet window.
pub fn best_throughput(events_per_slice: usize, slices: &[Stretch]) -> Option<f64> {
    let fastest = slices.iter().map(|s| s.wall).min_by(f64::total_cmp)?;
    Some(events_per_slice as f64 / fastest)
}

/// `(max − min) / median`: the spread the issue's acceptance criterion
/// names.
pub fn min_max_spread(values: &[f64]) -> Option<f64> {
    let mid = median(values)?;
    Some((quantile(values, 1.0)? - quantile(values, 0.0)?) / mid.abs())
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the exclusive method) — the spread the acceptance check uses.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    let mid = median(&sorted)?;
    Some((cut(3) - cut(1)).abs() / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    /// A slice that takes `nominal` at nominal speed, run while the
    /// reference unit ran at `speed` times its own.
    fn stretch(nominal: f64, speed: f64) -> Stretch {
        Stretch {
            wall: nominal / speed.powf(SLICE_SENSITIVITY),
            unit_s: crate::reference::NOMINAL_UNIT_S / speed,
        }
    }

    #[test]
    fn throughput_divides_the_box_speed_out_stretch_by_stretch() {
        // 64 slices of 1000 events, 10 ms each at nominal speed; 40 of
        // them ran with the reference unit at half its speed.
        let mut slices: Vec<Stretch> = (0..24).map(|_| stretch(0.010, 1.0)).collect();
        slices.extend((0..40).map(|_| stretch(0.010, 0.5)));
        let gated = throughput(1000, &slices).unwrap();
        assert!((gated - 100_000.0).abs() < 1e-6, "{gated}");
        // Wall clock says a quarter less, and only the best slice knows better.
        let wall: f64 = slices.iter().map(|s| s.wall).sum();
        assert!(64_000.0 / wall < 0.8 * gated);
        assert!((best_throughput(1000, &slices).unwrap() - 100_000.0).abs() < 1e-6);
        // A run that never saw the box at nominal speed reads the same.
        let slow: Vec<Stretch> = (0..64).map(|_| stretch(0.010, 0.6)).collect();
        assert!((throughput(1000, &slow).unwrap() - 100_000.0).abs() < 1e-6);
        assert_eq!(throughput(1000, &[]), None);
    }

    #[test]
    fn the_typical_stretch_is_read_from_the_calmest_third() {
        // The workload slows down less than the reference unit does: at
        // half speed by the unit, stretches take 1.5x, not 2x. The
        // estimate comes from the calm third, where nothing needs
        // correcting.
        let mut stretches: Vec<Stretch> = (0..20).map(|_| stretch(0.010, 1.0)).collect();
        stretches.extend((0..40).map(|_| Stretch {
            wall: 0.015,
            ..stretch(0.010, 0.5)
        }));
        assert!((typical(&stretches, 1.0).unwrap() - 0.010).abs() < 1e-12);
        assert_eq!(typical(&[], 1.0), None);
        assert_eq!(typical(&[stretch(3.0, 1.0)], 1.0), Some(3.0));
    }

    #[test]
    fn the_typical_stretch_is_a_median_not_the_luckiest() {
        // One slice in ten pays a periodic cost; one slice is a fluke.
        // Units are equal, so which third is chosen says nothing about
        // the slices themselves.
        let mut slices: Vec<Stretch> = (0..63)
            .map(|i| stretch(if i % 10 == 9 { 0.014 } else { 0.010 }, 1.0))
            .collect();
        slices.push(stretch(0.004, 1.0));
        assert!((throughput(1000, &slices).unwrap() - 100_000.0).abs() < 1e-6);
        assert!(best_throughput(1000, &slices).unwrap() > 200_000.0);
    }

    #[test]
    fn min_max_spread_is_the_range_over_the_median() {
        assert!((min_max_spread(&[9.0, 10.0, 12.0]).unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(min_max_spread(&[]), None);
    }

    #[test]
    fn quartile_spread_matches_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 12, 13, 14], n=4) == [10.5, 12.0, 13.5]
        let v = [10.0, 11.0, 12.0, 13.0, 14.0];
        assert!((quartile_spread(&v).unwrap() - 3.0 / 12.0).abs() < 1e-12);
    }
}
