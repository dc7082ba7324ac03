//! Simulation time: clock cycles and operating frequencies.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A count of clock cycles.
///
/// `Cycle` is the unit of time everywhere in the simulator; wall-clock time
/// only appears when a [`Frequency`] converts a cycle count at a given
/// operating point (e.g. 666 MHz at 0.8 V in the paper).
///
/// # Example
///
/// ```
/// use redmule_hwsim::{Cycle, Frequency};
///
/// let cycles = Cycle::new(666_000);
/// let time = Frequency::mhz(666.0).cycles_to_seconds(cycles);
/// assert!((time - 1e-3).abs() < 1e-12); // one millisecond
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// Cycle zero (reset).
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle count.
    pub const fn new(count: u64) -> Cycle {
        Cycle(count)
    }

    /// The raw count.
    pub const fn count(self) -> u64 {
        self.0
    }

    /// Advances by one cycle.
    #[must_use]
    pub const fn next(self) -> Cycle {
        Cycle(self.0 + 1)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for Cycle {
    type Output = u64;
    fn sub(self, rhs: Cycle) -> u64 {
        // modelcheck-allow: RM-PANIC-001 -- monotonic-time invariant: Cycle
        // differences are only taken between ordered timestamps; silent
        // wrap-around would corrupt every latency statistic downstream.
        self.0
            .checked_sub(rhs.0)
            .expect("cycle subtraction underflow")
    }
}

impl Sum<Cycle> for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        Cycle(iter.map(|c| c.0).sum())
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Cycle {
        Cycle(v)
    }
}

impl From<Cycle> for u64 {
    fn from(v: Cycle) -> u64 {
        v.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// A clock frequency, used to convert cycle counts into seconds and
/// throughput figures (GOPS, GFLOPS) at a given operating point.
///
/// # Example
///
/// ```
/// use redmule_hwsim::Frequency;
///
/// let f = Frequency::mhz(476.0);
/// assert_eq!(f.hz(), 476e6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency {
    hz: f64,
}

impl Frequency {
    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not a positive finite number.
    pub fn mhz(mhz: f64) -> Frequency {
        assert!(
            mhz.is_finite() && mhz > 0.0,
            "frequency must be positive and finite"
        );
        Frequency { hz: mhz * 1e6 }
    }

    /// Frequency in hertz.
    pub fn hz(self) -> f64 {
        self.hz
    }

    /// Frequency in megahertz.
    pub fn as_mhz(self) -> f64 {
        self.hz / 1e6
    }

    /// Converts a cycle count to seconds at this frequency.
    pub fn cycles_to_seconds(self, cycles: Cycle) -> f64 {
        cycles.count() as f64 / self.hz
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} MHz", self.as_mhz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let c = Cycle::new(10);
        assert_eq!(c + 5, Cycle::new(15));
        assert_eq!(c.next(), Cycle::new(11));
        assert_eq!(Cycle::new(15) - c, 5);
        let mut c = Cycle::ZERO;
        c += 4;
        assert_eq!(c.count(), 4);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn cycle_sub_underflow_panics() {
        let _ = Cycle::new(1) - Cycle::new(2);
    }

    #[test]
    fn cycle_sum_and_conversions() {
        let total: Cycle = [1u64, 2, 3].into_iter().map(Cycle::new).sum();
        assert_eq!(total.count(), 6);
        assert_eq!(u64::from(Cycle::from(9u64)), 9);
        assert_eq!(Cycle::new(5).to_string(), "5 cyc");
    }

    #[test]
    fn frequency_conversions() {
        let f = Frequency::mhz(666.0);
        assert!((f.as_mhz() - 666.0).abs() < 1e-9);
        assert!((f.cycles_to_seconds(Cycle::new(666)) - 1e-6).abs() < 1e-15);
        assert_eq!(f.to_string(), "666 MHz");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn frequency_rejects_zero() {
        let _ = Frequency::mhz(0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn frequency_rejects_nan() {
        let _ = Frequency::mhz(f64::NAN);
    }
}
