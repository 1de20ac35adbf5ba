//! Host-speed calibration.
//!
//! The box this benchmark runs on is shared: the same code runs 10–30 %
//! faster or slower from one minute to the next, in phases of seconds to
//! minutes, and wall-clock medians of a 20 s run follow those phases. So
//! every client thread interleaves its ops with a fixed piece of work of
//! the benchmark's own — one *unit*, shaped like the solver's inner loops
//! (log-sum-exp and a multiply-add sweep over a small array) but sharing
//! no code with the program under test — and every timing is reported at
//! *nominal host speed*: measured time × nominal unit time ÷ measured
//! unit time, pass by pass. A change to the program moves op time and not
//! unit time, so it shows in full; a slow phase of the box moves both and
//! cancels.

use std::hint::black_box;
use std::time::Instant;

/// Time of one unit on the box the benchmark was sized on. Only a scale:
/// it makes normalised and raw times read alike there, and it divides out
/// of any comparison of two commits built by one toolchain on one box.
pub const NOMINAL_UNIT_NS: f64 = 900_000.0;

/// Share of a client's busy time spent on calibration units.
const SHARE: f64 = 0.05;

/// Runs calibration units and keeps their count and total time.
pub struct Calibrator {
    buf: [f64; 256],
    units: u64,
    nanos: u64,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut buf = [0.0; 256];
        for (k, v) in buf.iter_mut().enumerate() {
            *v = (k as f64 * 0.37) % 5.0;
        }
        Calibrator { buf, units: 0, nanos: 0 }
    }

    /// One unit of fixed work, timed.
    pub fn unit(&mut self) {
        let t0 = Instant::now();
        let mut acc = 0.0;
        for round in 0..400 {
            let max = self.buf.iter().copied().fold(f64::MIN, f64::max);
            let sum: f64 = self.buf.iter().map(|v| (v - max).exp()).sum();
            let lse = max + sum.ln();
            for (k, v) in self.buf.iter_mut().enumerate() {
                *v = (*v * 0.999 + 0.001 * lse + k as f64 * 1e-6 + f64::from(round) * 1e-9) % 8.0;
            }
            acc += lse;
        }
        black_box(acc);
        self.units += 1;
        self.nanos += t0.elapsed().as_nanos() as u64;
    }

    /// Run units until calibration has had its share of `busy_ns`, the
    /// time the caller has spent on ops so far.
    pub fn catch_up(&mut self, busy_ns: u64) {
        while (self.nanos as f64) < SHARE * busy_ns as f64 {
            self.unit();
        }
    }

    /// Units run and the time they took.
    pub fn totals(&self) -> (u64, u64) {
        (self.units, self.nanos)
    }
}

/// How much slower than nominal the host ran `units` units in `nanos`
/// (1.0 = nominal speed, 1.2 = everything takes 20 % longer).
pub fn slowdown(units: u64, nanos: u64) -> f64 {
    assert!(units > 0, "no calibration unit was run");
    nanos as f64 / units as f64 / NOMINAL_UNIT_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_up_keeps_calibration_at_its_share_of_busy_time() {
        let mut cal = Calibrator::new();
        cal.catch_up(0);
        assert_eq!(cal.totals(), (0, 0));
        cal.unit();
        let (_, one) = cal.totals();
        // Enough busy time for about ten more units.
        cal.catch_up((10.0 * one as f64 / SHARE) as u64);
        let (units, nanos) = cal.totals();
        assert!(units >= 3, "{units} units");
        assert!(nanos as f64 >= 10.0 * one as f64);
        // Nothing is owed once the share is met.
        cal.catch_up((10.0 * one as f64 / SHARE) as u64);
        assert_eq!(cal.totals().0, units);
    }

    #[test]
    fn slowdown_is_measured_over_nominal_unit_time() {
        assert_eq!(slowdown(4, 4 * NOMINAL_UNIT_NS as u64), 1.0);
        assert_eq!(slowdown(2, 3 * NOMINAL_UNIT_NS as u64), 1.5);
    }

    #[test]
    fn the_unit_does_the_same_work_every_time() {
        // Same state after the same number of units: fixed work, no
        // dependence on timing.
        let (mut a, mut b) = (Calibrator::new(), Calibrator::new());
        for _ in 0..3 {
            a.unit();
            b.unit();
        }
        assert_eq!(a.buf, b.buf);
        assert!(a.buf.iter().all(|v| v.is_finite()));
    }
}
