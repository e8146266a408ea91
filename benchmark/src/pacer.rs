//! The open-loop schedule.
//!
//! Bursts are due at fixed instants that do not move when the system
//! (or the generator) falls behind. Every event of a burst is timed
//! from the instant its burst was *due*, so a stall charges its delay
//! to each event that had to wait behind it, and how late the generator
//! itself ran is reported separately.

use std::time::{Duration, Instant};

/// How long before a due time the pacer stops sleeping and spins.
/// Timer wake-ups on this box land tens of microseconds late; spinning
/// the last stretch keeps issue times within a microsecond or two.
pub const SPIN_WINDOW: Duration = Duration::from_micros(100);

/// Fixed due times: burst `b` is due at `start + b * interval`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    /// A schedule issuing `burst` events per due time at `rate_eps`
    /// events per second overall.
    pub fn new(start: Instant, rate_eps: f64, burst: usize) -> Schedule {
        Schedule {
            start,
            interval: Duration::from_secs_f64(burst as f64 / rate_eps),
        }
    }

    pub fn due(&self, burst: usize) -> Instant {
        self.start + self.interval.mul_f64(burst as f64)
    }

    /// Microseconds from burst `burst`'s due time to `stamp` — the
    /// latency of an event of that burst completed at `stamp`. Zero if
    /// the stamp precedes the due time (it cannot, unless clocks are
    /// misused).
    pub fn latency_us(&self, burst: usize, stamp: Instant) -> f64 {
        stamp
            .saturating_duration_since(self.due(burst))
            .as_secs_f64()
            * 1e6
    }

    /// Blocks until burst `burst` is due — sleeping until
    /// [`SPIN_WINDOW`] before, spinning after — and returns how late
    /// the pacer woke. A pacer that is already behind does not wait at
    /// all: it issues at once and reports the lag.
    pub fn wait(&self, burst: usize) -> Duration {
        let due = self.due(burst);
        loop {
            let now = Instant::now();
            if now >= due {
                return now - due;
            }
            let remaining = due - now;
            if remaining > SPIN_WINDOW {
                std::thread::sleep(remaining - SPIN_WINDOW);
            } else {
                // The process owns one core (see `crate::pin`): yield,
                // so the system's threads run first if they have work.
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_fixed_multiples_of_the_interval() {
        let start = Instant::now();
        let schedule = Schedule::new(start, 100_000.0, 32);
        assert_eq!(schedule.interval, Duration::from_micros(320));
        assert_eq!(schedule.due(0), start);
        assert_eq!(schedule.due(1000), start + Duration::from_micros(320_000));
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_issue_time() {
        let start = Instant::now();
        let schedule = Schedule::new(start, 1_000.0, 1);
        // Burst 3 is due at +3 ms. Suppose the pacer stalled and issued
        // it at +5 ms, and the event completed at +5.2 ms: the event
        // waited 2.2 ms, not 0.2 ms.
        let done = start + Duration::from_micros(5_200);
        assert!((schedule.latency_us(3, done) - 2_200.0).abs() < 1e-6);
        assert_eq!(schedule.latency_us(3, start), 0.0);
    }

    #[test]
    fn a_late_pacer_reports_its_lag_and_does_not_wait() {
        let schedule = Schedule::new(Instant::now() - Duration::from_millis(50), 1_000.0, 1);
        let late = schedule.wait(10); // due 40 ms ago
        let after = Instant::now();
        // The lag it reports is the lag at the moment it looked — it
        // did not sit out some other interval first.
        assert!(late >= Duration::from_millis(40), "{late:?}");
        assert!(late <= after - schedule.due(10), "{late:?}");
    }

    #[test]
    fn an_early_pacer_waits_for_the_due_time() {
        let schedule = Schedule::new(Instant::now(), 1_000.0, 1);
        let before = Instant::now();
        let late = schedule.wait(3);
        let after = Instant::now();
        assert!(after >= schedule.due(3));
        // How late it reports is how late it was, whatever the other
        // tests sharing the machine did to it meanwhile.
        assert!(late <= after - schedule.due(3));
        assert!(before < schedule.due(3), "the test itself started late");
    }
}
