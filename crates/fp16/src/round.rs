//! Rounding modes for binary16 arithmetic.

use std::fmt;

/// IEEE 754 / RISC-V rounding mode.
///
/// The variants mirror the RISC-V `frm` encoding used by FPnew, the FPU that
/// implements RedMulE's FMA units. The accelerator itself always runs in
/// [`Round::NearestEven`]; the other modes exist so the softfloat can be
/// validated as a complete FPnew stand-in.
///
/// # Example
///
/// ```
/// use redmule_fp16::{arith, F16, Round};
///
/// let (a, tiny) = (F16::ONE.to_bits(), F16::MIN_POSITIVE_SUBNORMAL.to_bits());
/// // 1.0 + tiny rounds back down to 1.0 with RNE, but up with RUP.
/// assert_eq!(arith::add(a, tiny, Round::NearestEven), a);
/// assert!(F16::from_bits(arith::add(a, tiny, Round::Up)) > F16::ONE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Round {
    /// Round to nearest, ties to even (RNE, `frm = 000`). IEEE default.
    #[default]
    NearestEven,
    /// Round towards zero (RTZ, `frm = 001`).
    TowardZero,
    /// Round down, towards negative infinity (RDN, `frm = 010`).
    Down,
    /// Round up, towards positive infinity (RUP, `frm = 011`).
    Up,
    /// Round to nearest, ties away from zero (RMM, `frm = 100`).
    NearestMaxMagnitude,
}

impl Round {
    /// All rounding modes, in RISC-V `frm` encoding order.
    pub const ALL: [Round; 5] = [
        Round::NearestEven,
        Round::TowardZero,
        Round::Down,
        Round::Up,
        Round::NearestMaxMagnitude,
    ];

    /// Whether a truncated significand must be incremented by one ulp.
    ///
    /// `sign` is the sign of the value being rounded, `lsb` the least
    /// significant kept bit, `round` the first discarded bit and `sticky` the
    /// OR of all remaining discarded bits.
    pub(crate) fn increments(self, sign: bool, lsb: bool, round: bool, sticky: bool) -> bool {
        match self {
            Round::NearestEven => round && (sticky || lsb),
            Round::TowardZero => false,
            Round::Down => sign && (round || sticky),
            Round::Up => !sign && (round || sticky),
            Round::NearestMaxMagnitude => round,
        }
    }

    /// Result chosen on overflow: `true` means saturate to the largest finite
    /// value, `false` means produce infinity.
    pub(crate) fn overflow_saturates(self, sign: bool) -> bool {
        match self {
            Round::NearestEven | Round::NearestMaxMagnitude => false,
            Round::TowardZero => true,
            Round::Down => !sign,
            Round::Up => sign,
        }
    }

    /// Sign of an exact-zero sum of operands with opposite signs.
    ///
    /// IEEE 754-2019 §6.3: the sign is `+0`, except in round-down where it is
    /// `-0`.
    pub(crate) fn exact_zero_sign(self) -> bool {
        matches!(self, Round::Down)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Round::NearestEven => "rne",
            Round::TowardZero => "rtz",
            Round::Down => "rdn",
            Round::Up => "rup",
            Round::NearestMaxMagnitude => "rmm",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_nearest_even() {
        assert_eq!(Round::default(), Round::NearestEven);
    }

    #[test]
    fn rne_ties_to_even() {
        // lsb=0: tie stays (no increment); lsb=1: tie increments.
        assert!(!Round::NearestEven.increments(false, false, true, false));
        assert!(Round::NearestEven.increments(false, true, true, false));
        // Non-tie above half always increments.
        assert!(Round::NearestEven.increments(false, false, true, true));
        // Below half never increments.
        assert!(!Round::NearestEven.increments(false, true, false, true));
    }

    #[test]
    fn rmm_ties_away() {
        assert!(Round::NearestMaxMagnitude.increments(true, false, true, false));
        assert!(!Round::NearestMaxMagnitude.increments(true, false, false, true));
    }

    #[test]
    fn directed_modes_respect_sign() {
        // RDN rounds negative results away from zero (more negative).
        assert!(Round::Down.increments(true, false, false, true));
        assert!(!Round::Down.increments(false, false, false, true));
        // RUP is the mirror image.
        assert!(Round::Up.increments(false, false, false, true));
        assert!(!Round::Up.increments(true, false, false, true));
        // RTZ never increments.
        for &(s, l, r, st) in &[(false, true, true, true), (true, true, true, true)] {
            assert!(!Round::TowardZero.increments(s, l, r, st));
        }
    }

    #[test]
    fn overflow_behaviour_matches_ieee() {
        assert!(!Round::NearestEven.overflow_saturates(false));
        assert!(Round::TowardZero.overflow_saturates(true));
        assert!(Round::Down.overflow_saturates(false));
        assert!(!Round::Down.overflow_saturates(true));
        assert!(Round::Up.overflow_saturates(true));
        assert!(!Round::Up.overflow_saturates(false));
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = Round::ALL.iter().map(|m| m.to_string()).collect();
        assert_eq!(names, ["rne", "rtz", "rdn", "rup", "rmm"]);
    }
}
