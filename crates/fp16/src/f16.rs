//! The [`F16`] storage type: IEEE 754 binary16.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::arith;
use crate::CANONICAL_QNAN;

/// An IEEE 754 `binary16` ("half precision", FP16) floating-point number.
///
/// `F16` stores the raw 16-bit pattern and performs all arithmetic through
/// the exact softfloat in [`crate::arith`], so results are bit-identical to
/// IEEE-compliant FP16 hardware such as the FPnew FMA units inside RedMulE.
///
/// Every operation rounds to nearest, ties to even: the one mode RedMulE's
/// FMA array and castout stage use.
///
/// # Example
///
/// ```
/// use redmule_fp16::F16;
///
/// let x = F16::from_f32(0.1);
/// // binary16 has ~3 decimal digits of precision:
/// assert!((x.to_f32() - 0.1).abs() < 1e-4);
/// assert_eq!(F16::from_f32(2.0) * F16::from_f32(3.0), F16::from_f32(6.0));
/// ```
#[derive(Clone, Copy, Default)]
pub struct F16(u16);

/// Classification of an [`F16`] value, mirroring [`std::num::FpCategory`].
///
/// # Example
///
/// ```
/// use redmule_fp16::{F16, FpCategory16};
/// assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.classify(), FpCategory16::Subnormal);
/// assert_eq!(F16::INFINITY.classify(), FpCategory16::Infinite);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpCategory16 {
    /// Positive or negative zero.
    Zero,
    /// A denormalised value (no hidden bit, exponent field zero).
    Subnormal,
    /// A regular normalised value.
    Normal,
    /// Positive or negative infinity.
    Infinite,
    /// Not a number.
    Nan,
}

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Two.
    pub const TWO: F16 = F16(0x4000);
    /// One half.
    pub const HALF: F16 = F16(0x3800);
    /// Largest finite value, `65504.0`.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value, `-65504.0`.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, `2^-14`.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, `2^-24`.
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// Machine epsilon, `2^-10`.
    pub const EPSILON: F16 = F16(0x1400);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// The canonical quiet NaN (`0x7E00`), as produced by FPnew.
    pub const NAN: F16 = F16(CANONICAL_QNAN);

    /// Creates an `F16` from its raw bit pattern.
    ///
    /// # Example
    ///
    /// ```
    /// use redmule_fp16::F16;
    /// assert_eq!(F16::from_bits(0x3C00), F16::ONE);
    /// ```
    #[inline]
    pub const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    ///
    /// # Example
    ///
    /// ```
    /// use redmule_fp16::F16;
    /// assert_eq!(F16::ONE.to_bits(), 0x3C00);
    /// ```
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even.
    // modelcheck-allow: RM-FP-001 -- host-float conversion boundary:
    // delegates to the bit-pattern converter in `arith`.
    #[inline]
    pub fn from_f32(v: f32) -> F16 {
        F16(arith::from_f32(v))
    }

    /// Converts from `f64` with round-to-nearest-even.
    // modelcheck-allow: RM-FP-001 -- host-float conversion boundary:
    // delegates to the bit-pattern converter in `arith`.
    #[inline]
    pub fn from_f64(v: f64) -> F16 {
        F16(arith::from_f64(v))
    }

    /// Converts to `f32`. This widening conversion is always exact.
    // modelcheck-allow: RM-FP-001 -- host-float conversion boundary: exact
    // binary16 -> f32 widening via `arith::to_f32`.
    #[inline]
    pub fn to_f32(self) -> f32 {
        arith::to_f32(self.0)
    }

    /// Converts to `f64`. This widening conversion is always exact.
    // modelcheck-allow: RM-FP-001 -- host-float conversion boundary: exact
    // binary16 -> f64 widening via `arith::to_f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        arith::to_f64(self.0)
    }

    /// Fused multiply-add, `self * b + c`, with a single rounding
    /// (round-to-nearest-even).
    ///
    /// This is the primitive each of RedMulE's FMA units executes per cycle.
    ///
    /// # Example
    ///
    /// ```
    /// use redmule_fp16::F16;
    /// let acc = F16::from_f32(10.0).mul_add(F16::from_f32(0.5), F16::ONE);
    /// assert_eq!(acc, F16::from_f32(6.0));
    /// ```
    #[inline]
    pub fn mul_add(self, b: F16, c: F16) -> F16 {
        F16(arith::fma(self.0, b.0, c.0))
    }

    /// `true` if this value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// `true` if this value is positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// `true` if this value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// `true` if this value is positive or negative zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & 0x7FFF) == 0
    }

    /// `true` if this value is subnormal (denormalised).
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & 0x7C00) == 0 && (self.0 & 0x03FF) != 0
    }

    /// `true` if this value is a normal number (not zero, subnormal,
    /// infinite or NaN).
    #[inline]
    pub fn is_normal(self) -> bool {
        let exp = self.0 & 0x7C00;
        exp != 0 && exp != 0x7C00
    }

    /// `true` if the sign bit is set (including `-0` and negative NaN
    /// patterns).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        self.0 & 0x8000 != 0
    }

    /// Classifies the value.
    pub fn classify(self) -> FpCategory16 {
        let exp = self.0 & 0x7C00;
        let frac = self.0 & 0x03FF;
        match (exp, frac) {
            (0x7C00, 0) => FpCategory16::Infinite,
            (0x7C00, _) => FpCategory16::Nan,
            (0, 0) => FpCategory16::Zero,
            (0, _) => FpCategory16::Subnormal,
            _ => FpCategory16::Normal,
        }
    }

    /// Absolute value (clears the sign bit; a NaN stays NaN).
    #[inline]
    pub fn abs(self) -> F16 {
        F16(self.0 & 0x7FFF)
    }

    /// IEEE `minNum`: the smaller operand; a single NaN loses.
    pub fn min(self, other: F16) -> F16 {
        match (self.is_nan(), other.is_nan()) {
            (true, true) => F16::NAN,
            (true, false) => other,
            (false, true) => self,
            (false, false) => {
                // -0 < +0 for min/max purposes.
                if self.total_key() <= other.total_key() {
                    self
                } else {
                    other
                }
            }
        }
    }

    /// IEEE `maxNum`: the larger operand; a single NaN loses.
    pub fn max(self, other: F16) -> F16 {
        match (self.is_nan(), other.is_nan()) {
            (true, true) => F16::NAN,
            (true, false) => other,
            (false, true) => self,
            (false, false) => {
                if self.total_key() >= other.total_key() {
                    self
                } else {
                    other
                }
            }
        }
    }

    /// Clamps `self` into `[lo, hi]` (NaN propagates).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN.
    pub fn clamp(self, lo: F16, hi: F16) -> F16 {
        assert!(
            !lo.is_nan() && !hi.is_nan() && lo.total_key() <= hi.total_key(),
            "clamp requires ordered, non-NaN bounds"
        );
        if self.is_nan() {
            F16::NAN
        } else if self.total_key() < lo.total_key() {
            lo
        } else if self.total_key() > hi.total_key() {
            hi
        } else {
            self
        }
    }

    /// IEEE 754 `totalOrder` comparison (like [`f32::total_cmp`]).
    ///
    /// # Example
    ///
    /// ```
    /// use redmule_fp16::F16;
    /// use std::cmp::Ordering;
    /// assert_eq!(F16::NEG_ZERO.total_cmp(F16::ZERO), Ordering::Less);
    /// ```
    pub fn total_cmp(self, other: F16) -> Ordering {
        self.total_key().cmp(&other.total_key())
    }

    /// Monotone integer key implementing the IEEE total order.
    fn total_key(self) -> i32 {
        let bits = self.0 as i32;
        if bits & 0x8000 != 0 {
            // Negative range reversed and mapped strictly below zero, so
            // -0 (0x8000) becomes -1 and negative NaNs sort lowest.
            -(bits & 0x7FFF) - 1
        } else {
            bits
        }
    }
}

impl PartialEq for F16 {
    /// IEEE equality: NaN compares unequal to everything (including itself)
    /// and `+0 == -0`.
    fn eq(&self, other: &F16) -> bool {
        if self.is_nan() || other.is_nan() {
            false
        } else if self.is_zero() && other.is_zero() {
            true
        } else {
            self.0 == other.0
        }
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &F16) -> Option<Ordering> {
        if self.is_nan() || other.is_nan() {
            None
        } else if self.is_zero() && other.is_zero() {
            Some(Ordering::Equal)
        } else {
            Some(self.total_key().cmp(&other.total_key()))
        }
    }
}

impl Neg for F16 {
    type Output = F16;
    fn neg(self) -> F16 {
        F16(self.0 ^ 0x8000)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $func:path) => {
        impl $trait for F16 {
            type Output = F16;
            fn $method(self, rhs: F16) -> F16 {
                F16($func(self.0, rhs.0))
            }
        }
        impl $assign_trait for F16 {
            fn $assign_method(&mut self, rhs: F16) {
                *self = $trait::$method(*self, rhs);
            }
        }
    };
}

impl_binop!(Add, add, AddAssign, add_assign, arith::add);
impl_binop!(Sub, sub, SubAssign, sub_assign, arith::sub);
impl_binop!(Mul, mul, MulAssign, mul_assign, arith::mul);

// modelcheck-allow: RM-FP-001 -- host-float conversion boundary: exact
// widening, delegates to `to_f32`.
impl From<F16> for f32 {
    fn from(v: F16) -> f32 {
        v.to_f32()
    }
}

// modelcheck-allow: RM-FP-001 -- host-float conversion boundary: exact
// widening, delegates to `to_f64`.
impl From<F16> for f64 {
    fn from(v: F16) -> f64 {
        v.to_f64()
    }
}

// modelcheck-allow: RM-FP-001 -- host-float conversion boundary: every i8 is
// exactly representable in f32 and in binary16; one exact hop each.
impl From<i8> for F16 {
    /// Lossless: every `i8` is exactly representable in binary16.
    fn from(v: i8) -> F16 {
        F16::from_f32(f32::from(v))
    }
}

// modelcheck-allow: RM-FP-001 -- host-float conversion boundary: every u8 is
// exactly representable in f32 and in binary16; one exact hop each.
impl From<u8> for F16 {
    /// Lossless: every `u8` is exactly representable in binary16.
    fn from(v: u8) -> F16 {
        F16::from_f32(f32::from(v))
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({}; {:#06x})", self.to_f32(), self.0)
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl fmt::LowerHex for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_expected_values() {
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::TWO.to_f32(), 2.0);
        assert_eq!(F16::HALF.to_f32(), 0.5);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f64(), 2.0f64.powi(-14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f64(), 2.0f64.powi(-24));
        assert_eq!(F16::EPSILON.to_f64(), 2.0f64.powi(-10));
        assert!(F16::NAN.is_nan());
        assert!(F16::INFINITY.is_infinite());
    }

    #[test]
    fn ieee_equality_semantics() {
        assert_ne!(F16::NAN, F16::NAN);
        assert_eq!(F16::ZERO, F16::NEG_ZERO);
        assert_eq!(F16::ONE, F16::ONE);
        assert_ne!(F16::ONE, F16::TWO);
    }

    #[test]
    fn partial_ord_semantics() {
        assert!(F16::ONE < F16::TWO);
        assert!(F16::NEG_ONE < F16::ONE);
        assert!(F16::NEG_INFINITY < F16::MIN);
        assert!(F16::MAX < F16::INFINITY);
        assert_eq!(F16::NAN.partial_cmp(&F16::ONE), None);
        assert_eq!(F16::ZERO.partial_cmp(&F16::NEG_ZERO), Some(Ordering::Equal));
    }

    #[test]
    fn total_cmp_orders_zeros_and_nan() {
        assert_eq!(F16::NEG_ZERO.total_cmp(F16::ZERO), Ordering::Less);
        assert_eq!(F16::NAN.total_cmp(F16::INFINITY), Ordering::Greater);
        assert_eq!(F16::NEG_INFINITY.total_cmp(F16::MIN), Ordering::Less);
    }

    #[test]
    fn classification() {
        assert_eq!(F16::ZERO.classify(), FpCategory16::Zero);
        assert_eq!(F16::NEG_ZERO.classify(), FpCategory16::Zero);
        assert_eq!(F16::ONE.classify(), FpCategory16::Normal);
        assert_eq!(
            F16::MIN_POSITIVE_SUBNORMAL.classify(),
            FpCategory16::Subnormal
        );
        assert_eq!(F16::INFINITY.classify(), FpCategory16::Infinite);
        assert_eq!(F16::NAN.classify(), FpCategory16::Nan);
        assert!(F16::MIN_POSITIVE_SUBNORMAL.is_subnormal());
        assert!(!F16::MIN_POSITIVE.is_subnormal());
        assert!(F16::MIN_POSITIVE.is_normal());
    }

    #[test]
    fn sign_helpers() {
        assert!(F16::NEG_ZERO.is_sign_negative());
        assert_eq!((-F16::ONE).to_f32(), -1.0);
        assert_eq!(F16::NEG_ONE.abs(), F16::ONE);
    }

    #[test]
    fn min_max_nan_loses() {
        let a = F16::from_f32(3.0);
        assert_eq!(a.min(F16::NAN), a);
        assert_eq!(F16::NAN.max(a), a);
        assert!(F16::NAN.min(F16::NAN).is_nan());
        assert_eq!(F16::ONE.min(F16::TWO), F16::ONE);
        assert_eq!(F16::ONE.max(F16::TWO), F16::TWO);
        // min(-0, +0) must pick -0 by bit pattern.
        assert_eq!(F16::ZERO.min(F16::NEG_ZERO).to_bits(), 0x8000);
        assert_eq!(F16::NEG_ZERO.max(F16::ZERO).to_bits(), 0x0000);
    }

    #[test]
    fn clamp_behaviour() {
        let lo = F16::from_f32(-1.0);
        let hi = F16::ONE;
        assert_eq!(F16::from_f32(5.0).clamp(lo, hi), hi);
        assert_eq!(F16::from_f32(-5.0).clamp(lo, hi), lo);
        assert_eq!(F16::HALF.clamp(lo, hi), F16::HALF);
        assert!(F16::NAN.clamp(lo, hi).is_nan());
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn clamp_panics_on_inverted_bounds() {
        let _ = F16::ONE.clamp(F16::TWO, F16::ONE);
    }

    #[test]
    fn operators_round_to_nearest_even() {
        assert_eq!(F16::ONE + F16::ONE, F16::TWO);
        assert_eq!(F16::TWO - F16::ONE, F16::ONE);
        assert_eq!(F16::TWO * F16::HALF, F16::ONE);
        let mut acc = F16::ZERO;
        acc += F16::ONE;
        acc *= F16::TWO;
        acc -= F16::HALF;
        assert_eq!(acc.to_f32(), 1.5);
    }

    #[test]
    fn display_and_bit_formatting() {
        assert_eq!(F16::from_f32(1.5).to_string(), "1.5");
        assert_eq!(format!("{:#06x}", F16::ONE), "0x3c00");
        assert_eq!(format!("{:b}", F16::TWO), "100000000000000");
    }

    #[test]
    fn lossless_integer_conversions() {
        for v in i8::MIN..=i8::MAX {
            assert_eq!(F16::from(v).to_f32(), f32::from(v));
        }
        for v in u8::MIN..=u8::MAX {
            assert_eq!(F16::from(v).to_f32(), f32::from(v));
        }
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", F16::NAN).is_empty());
        assert_eq!(format!("{:?}", F16::ONE), "F16(1; 0x3c00)");
    }
}
