//! Named operating points from the paper.

use redmule_hwsim::Frequency;
use std::fmt;

/// A voltage/frequency operating corner.
///
/// The paper reports three measurement points plus the synthesis corner:
///
/// | point | V_DD | f | use |
/// |---|---|---|---|
/// | peak efficiency | 0.65 V | 476 MHz | 688 GFLOPS/W row of Table I |
/// | peak performance | 0.80 V | 666 MHz | 42 GFLOPS row of Table I |
/// | 65 nm | 1.20 V | 200 MHz | Table I last row |
/// | slow corner | 0.59 V | 208 MHz | synthesis target only |
///
/// # Example
///
/// ```
/// use redmule_energy::OperatingPoint;
///
/// let op = OperatingPoint::peak_performance();
/// assert_eq!(op.frequency().as_mhz(), 666.0);
/// assert_eq!(op.vdd(), 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    name: &'static str,
    vdd: f64,
    freq_mhz: f64,
}

impl OperatingPoint {
    /// 0.65 V / 476 MHz: maximum energy efficiency (typical corner, 25 °C).
    pub fn peak_efficiency() -> OperatingPoint {
        OperatingPoint {
            name: "peak-efficiency",
            vdd: 0.65,
            freq_mhz: 476.0,
        }
    }

    /// 0.80 V / 666 MHz: maximum throughput and frequency.
    pub fn peak_performance() -> OperatingPoint {
        OperatingPoint {
            name: "peak-performance",
            vdd: 0.8,
            freq_mhz: 666.0,
        }
    }

    /// 1.2 V / 200 MHz: the 65 nm prototype's corner.
    pub fn node65() -> OperatingPoint {
        OperatingPoint {
            name: "65nm",
            vdd: 1.2,
            freq_mhz: 200.0,
        }
    }

    /// A corner at an arbitrary supply voltage on the 22 nm DVFS curve,
    /// with the maximum frequency predicted by an alpha-power-law fit
    /// through the paper's two measured typical-corner points
    /// (0.65 V / 476 MHz and 0.80 V / 666 MHz):
    ///
    /// `f(V) = k * (V - Vt)^alpha / V`, `Vt = 0.35 V`, `alpha ~= 1.34`.
    ///
    /// # Panics
    ///
    /// Panics unless `vdd` is above the fitted threshold voltage plus
    /// margin (0.45 V) and at most 1.0 V (beyond the validated range).
    ///
    /// # Example
    ///
    /// ```
    /// use redmule_energy::OperatingPoint;
    /// // Reproduces the paper's measured corners to within 1 %.
    /// let at_065 = OperatingPoint::at_vdd(0.65);
    /// assert!((at_065.frequency().as_mhz() - 476.0).abs() < 5.0);
    /// let at_080 = OperatingPoint::at_vdd(0.80);
    /// assert!((at_080.frequency().as_mhz() - 666.0).abs() < 5.0);
    /// ```
    pub fn at_vdd(vdd: f64) -> OperatingPoint {
        assert!(
            (0.45..=1.0).contains(&vdd),
            "vdd {vdd} outside the fitted DVFS range 0.45..=1.0 V"
        );
        const VT: f64 = 0.35;
        const ALPHA: f64 = 1.340_463_5;
        // k chosen so f(0.65) = 476 MHz, i.e. k = 476*0.65/(0.30^alpha).
        const K: f64 = 1_553.889_694;
        let f = K * (vdd - VT).powf(ALPHA) / vdd;
        OperatingPoint {
            name: "dvfs",
            vdd,
            freq_mhz: f,
        }
    }

    /// A custom corner.
    ///
    /// # Panics
    ///
    /// Panics unless voltage and frequency are positive and finite.
    pub fn custom(name: &'static str, vdd: f64, freq_mhz: f64) -> OperatingPoint {
        assert!(vdd.is_finite() && vdd > 0.0, "V_DD must be positive");
        let _ = Frequency::mhz(freq_mhz); // validates
        OperatingPoint {
            name,
            vdd,
            freq_mhz,
        }
    }

    /// Corner name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Supply voltage in volts.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Clock frequency.
    pub fn frequency(&self) -> Frequency {
        Frequency::mhz(self.freq_mhz)
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:.2} V, {:.0} MHz)",
            self.name, self.vdd, self.freq_mhz
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_corners() {
        assert_eq!(OperatingPoint::peak_efficiency().vdd(), 0.65);
        assert_eq!(
            OperatingPoint::peak_efficiency().frequency().as_mhz(),
            476.0
        );
        assert_eq!(OperatingPoint::peak_performance().vdd(), 0.8);
        assert_eq!(OperatingPoint::node65().frequency().as_mhz(), 200.0);
    }

    #[test]
    fn dvfs_curve_hits_both_measured_corners() {
        let f65 = OperatingPoint::at_vdd(0.65).frequency().as_mhz();
        let f80 = OperatingPoint::at_vdd(0.80).frequency().as_mhz();
        assert!((f65 - 476.0).abs() < 2.0, "f(0.65) = {f65}");
        assert!((f80 - 666.0).abs() < 5.0, "f(0.80) = {f80}");
        // Monotone in voltage.
        let mut last = 0.0;
        for mv in (450..=1000).step_by(50) {
            let f = OperatingPoint::at_vdd(mv as f64 / 1000.0)
                .frequency()
                .as_mhz();
            assert!(f > last);
            last = f;
        }
    }

    #[test]
    fn dvfs_efficiency_improves_at_lower_voltage() {
        use crate::{PowerModel, Technology};
        // Under C·V²·f, efficiency scales as 1/V²: the paper's "peak
        // efficiency" point is simply its lowest validated voltage.
        let lo = PowerModel::new(Technology::Gf22Fdx, OperatingPoint::at_vdd(0.55));
        let hi = PowerModel::new(Technology::Gf22Fdx, OperatingPoint::at_vdd(0.9));
        assert!(lo.efficiency_gflops_w(31.6, 0.988) > hi.efficiency_gflops_w(31.6, 0.988));
    }

    #[test]
    #[should_panic(expected = "DVFS range")]
    fn dvfs_rejects_out_of_range_voltage() {
        let _ = OperatingPoint::at_vdd(0.3);
    }

    #[test]
    fn custom_corner() {
        let op = OperatingPoint::custom("test", 0.7, 300.0);
        assert_eq!(op.name(), "test");
        assert!(op.to_string().contains("0.70 V"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn custom_rejects_zero_vdd() {
        let _ = OperatingPoint::custom("bad", 0.0, 100.0);
    }
}
