//! Correctly rounded binary16 arithmetic on raw bit patterns.
//!
//! Everything in this module operates on `u16` IEEE 754 binary16 bit
//! patterns and performs **exact integer arithmetic** followed by a single
//! round-to-nearest-even step, exactly like a hardware FPU datapath. The fused
//! multiply-add ([`fma`]) is the operation RedMulE's datapath is made of;
//! add, sub and mul serve the software baseline and the golden models.
//!
//! The functions here are the free-function layer; prefer the methods on
//! [`F16`](crate::F16) (e.g. [`F16::mul_add`](crate::F16::mul_add)) in
//! application code.

use crate::CANONICAL_QNAN;

/// Number of fraction bits in binary16.
pub const FRAC_BITS: u32 = 10;
/// Exponent bias of binary16.
pub const EXP_BIAS: i32 = 15;
/// Maximum unbiased exponent of a finite binary16 value.
pub const EXP_MAX: i32 = 15;
/// Minimum unbiased exponent of a *normal* binary16 value.
pub const EXP_MIN: i32 = -14;

const SIGN_MASK: u16 = 0x8000;
const EXP_MASK: u16 = 0x7C00;
const FRAC_MASK: u16 = 0x03FF;
const HIDDEN_BIT: u32 = 1 << FRAC_BITS;

/// A finite, non-zero binary16 value decomposed as `(-1)^sign * sig * 2^q`
/// with `sig` in `[2^10, 2^11)` (i.e. normalised).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Unpacked {
    sign: bool,
    /// Exponent of the least significant bit of `sig`.
    q: i32,
    /// Normalised significand, `2^10 <= sig < 2^11`.
    sig: u32,
}

/// Coarse class of a raw binary16 bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Nan,
    Inf { sign: bool },
    Zero { sign: bool },
    Finite(Unpacked),
}

/// Classifies and unpacks a raw bit pattern.
fn classify(bits: u16) -> Class {
    let sign = bits & SIGN_MASK != 0;
    let exp_field = (bits & EXP_MASK) >> FRAC_BITS;
    let frac = u32::from(bits & FRAC_MASK);
    match exp_field {
        0x1F => {
            if frac != 0 {
                Class::Nan
            } else {
                Class::Inf { sign }
            }
        }
        0 => {
            if frac == 0 {
                Class::Zero { sign }
            } else {
                // Subnormal: value = frac * 2^-24. Normalise.
                let shift = frac.leading_zeros() - HIDDEN_BIT.leading_zeros();
                Class::Finite(Unpacked {
                    sign,
                    q: 1 - EXP_BIAS - FRAC_BITS as i32 - shift as i32,
                    sig: frac << shift,
                })
            }
        }
        e => Class::Finite(Unpacked {
            sign,
            q: i32::from(e) - EXP_BIAS - FRAC_BITS as i32,
            sig: HIDDEN_BIT | frac,
        }),
    }
}

fn pack_inf(sign: bool) -> u16 {
    if sign {
        SIGN_MASK | EXP_MASK
    } else {
        EXP_MASK
    }
}

fn pack_zero(sign: bool) -> u16 {
    if sign {
        SIGN_MASK
    } else {
        0
    }
}

/// Rounds the exact value `(-1)^sign * mag * 2^q` (with `mag != 0`) to the
/// nearest binary16, ties to even, and encodes the result.
///
/// This is the single rounding step shared by every operation: it
/// normalises, underflows gradually into subnormals (a magnitude that
/// rounds all the way down keeps its sign as a signed zero), propagates a
/// round-up carry into the exponent, and overflows to infinity.
fn round_pack(sign: bool, mag: u128, q: i32) -> u16 {
    debug_assert!(mag != 0, "round_pack requires a non-zero magnitude");
    let msb = 127 - mag.leading_zeros() as i32;
    let e = msb + q; // value is in [2^e, 2^(e+1))

    if e > EXP_MAX {
        return pack_inf(sign);
    }

    // Number of low bits to discard so the kept significand has its leading
    // bit at position 10 (normal) or is expressed in units of 2^-24
    // (subnormal).
    let drop = if e >= EXP_MIN {
        msb - FRAC_BITS as i32
    } else {
        -(EXP_BIAS - 1 + FRAC_BITS as i32) - q // = -24 - q
    };

    let (mut kept, round, sticky) = if drop <= 0 {
        // Exact: shift left cannot lose bits (drop >= -127 always in range).
        ((mag << (-drop) as u32) as u32, false, false)
    } else {
        let d = drop as u32;
        let kept = shr_or_zero(mag, d) as u32;
        let round = d >= 1 && (shr_or_zero(mag, d - 1) & 1) != 0;
        let sticky = if d >= 2 {
            mag & low_mask(d - 1) != 0
        } else {
            false
        };
        (kept, round, sticky)
    };

    // Round to nearest, ties to even.
    if round && (sticky || kept & 1 != 0) {
        kept += 1;
    }

    if e < EXP_MIN {
        // Subnormal result; `kept` counts units of 2^-24. If rounding carried
        // into 2^10 the encoding is, conveniently, exactly the minimum normal
        // number; if it rounded to 0 the result is a signed zero.
        debug_assert!(kept <= HIDDEN_BIT);
        return pack_zero(sign) | kept as u16;
    }
    let mut e = e;
    if kept == (HIDDEN_BIT << 1) {
        kept >>= 1;
        e += 1;
        if e > EXP_MAX {
            return pack_inf(sign);
        }
    }
    debug_assert!((HIDDEN_BIT..HIDDEN_BIT << 1).contains(&kept));
    let exp_field = (e + EXP_BIAS) as u16;
    pack_zero(sign) | (exp_field << FRAC_BITS) | (kept as u16 & FRAC_MASK)
}

fn shr_or_zero(v: u128, by: u32) -> u128 {
    if by >= 128 {
        0
    } else {
        v >> by
    }
}

fn low_mask(bits: u32) -> u128 {
    if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

/// Fused multiply-add: computes `a * b + c` with a **single** rounding.
///
/// This is the exact operation performed by each FMA unit in RedMulE's
/// datapath every cycle. All IEEE 754 special cases are handled:
///
/// * any NaN input (or an invalid operation) produces the canonical quiet
///   NaN `0x7E00`;
/// * `0 * inf` is invalid regardless of `c`;
/// * `inf * finite + inf` of opposite signs is invalid;
/// * an exact zero sum of opposite-signed terms is `+0` (IEEE 754 §6.3
///   under round-to-nearest-even);
/// * a result past the largest finite value overflows to infinity.
pub fn fma(a: u16, b: u16, c: u16) -> u16 {
    let (ca, cb, cc) = (classify(a), classify(b), classify(c));

    if matches!(ca, Class::Nan) || matches!(cb, Class::Nan) || matches!(cc, Class::Nan) {
        return CANONICAL_QNAN;
    }

    // Product sign (valid for all non-NaN inputs).
    let sa = sign_of(ca);
    let sb = sign_of(cb);
    let sp = sa ^ sb;

    // Infinity handling in the product.
    let a_inf = matches!(ca, Class::Inf { .. });
    let b_inf = matches!(cb, Class::Inf { .. });
    let a_zero = matches!(ca, Class::Zero { .. });
    let b_zero = matches!(cb, Class::Zero { .. });

    if (a_inf && b_zero) || (a_zero && b_inf) {
        return CANONICAL_QNAN; // 0 * inf
    }
    if a_inf || b_inf {
        // Product is +-inf.
        return match cc {
            Class::Inf { sign } if sign != sp => CANONICAL_QNAN,
            _ => pack_inf(sp),
        };
    }
    if let Class::Inf { sign } = cc {
        return pack_inf(sign);
    }

    // Product is finite. Compute it exactly.
    let prod = match (ca, cb) {
        (Class::Finite(ua), Class::Finite(ub)) => {
            Some((u64::from(ua.sig) * u64::from(ub.sig), ua.q + ub.q))
        }
        _ => None, // a or b is zero
    };

    match (prod, cc) {
        (None, Class::Zero { sign: sc }) => {
            // (+-0 * x) + +-0: exact zero, -0 only when both terms are -0.
            pack_zero(sp && sc)
        }
        (None, Class::Finite(_)) => {
            // 0 + c: result is c (re-packed verbatim).
            c
        }
        (Some((mp, qp)), Class::Zero { .. }) => round_pack(sp, u128::from(mp), qp),
        (Some((mp, qp)), Class::Finite(uc)) => {
            let sc = uc.sign;
            let qc = uc.q;
            let q_min = qp.min(qc);
            // Exact signed sum in fixed point at scale 2^q_min. The largest
            // alignment span is ~58 bits against a 22-bit product, well
            // within i128.
            let vp = i128::from(mp) << (qp - q_min) as u32;
            let vc = i128::from(uc.sig) << (qc - q_min) as u32;
            let sum = sgn(sp, vp) + sgn(sc, vc);
            if sum == 0 {
                // Exact cancellation of nonzero terms is +0.
                pack_zero(false)
            } else {
                let sign = sum < 0;
                round_pack(sign, sum.unsigned_abs(), q_min)
            }
        }
        // modelcheck-allow: RM-PANIC-001 -- NaN/Inf operands are classified and
        // returned before this match; the arm is statically dead.
        (_, Class::Nan | Class::Inf { .. }) => unreachable!("handled above"),
    }
}

fn sgn(negative: bool, v: i128) -> i128 {
    if negative {
        -v
    } else {
        v
    }
}

fn sign_of(c: Class) -> bool {
    match c {
        Class::Nan => false,
        Class::Inf { sign } | Class::Zero { sign } => sign,
        Class::Finite(u) => u.sign,
    }
}

/// Correctly rounded addition `a + b`.
///
/// Implemented as `fma(a, 1.0, b)`; the FMA path is exact, so this is a true
/// single-rounding IEEE addition.
pub fn add(a: u16, b: u16) -> u16 {
    const ONE: u16 = 0x3C00;
    fma(a, ONE, b)
}

/// Correctly rounded subtraction `a - b`.
pub fn sub(a: u16, b: u16) -> u16 {
    add(a, b ^ SIGN_MASK)
}

/// Correctly rounded multiplication `a * b`.
///
/// Not implemented via [`fma`] with a zero addend: the addition step would
/// rewrite the sign of an exact `-0` product (`-0 + +0 = +0` in RNE), while
/// IEEE multiplication must preserve the product sign.
pub fn mul(a: u16, b: u16) -> u16 {
    let (ca, cb) = (classify(a), classify(b));
    if matches!(ca, Class::Nan) || matches!(cb, Class::Nan) {
        return CANONICAL_QNAN;
    }
    let sign = sign_of(ca) ^ sign_of(cb);
    match (ca, cb) {
        (Class::Inf { .. }, Class::Zero { .. }) | (Class::Zero { .. }, Class::Inf { .. }) => {
            CANONICAL_QNAN
        }
        (Class::Inf { .. }, _) | (_, Class::Inf { .. }) => pack_inf(sign),
        (Class::Zero { .. }, _) | (_, Class::Zero { .. }) => pack_zero(sign),
        (Class::Finite(ua), Class::Finite(ub)) => {
            let prod = u64::from(ua.sig) * u64::from(ub.sig);
            round_pack(sign, u128::from(prod), ua.q + ub.q)
        }
        // modelcheck-allow: RM-PANIC-001 -- NaN operands are classified and
        // returned before this match; the arm is statically dead.
        (Class::Nan, _) | (_, Class::Nan) => unreachable!("NaN handled above"),
    }
}

/// Converts an `f32` to binary16 bits with a single correct rounding.
// modelcheck-allow: RM-FP-001 -- host-float conversion boundary: operates on
// IEEE bit patterns only (to_bits + integer round_pack), no native arithmetic.
pub fn from_f32(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = bits >> 31 != 0;
    let exp_field = (bits >> 23) & 0xFF;
    let frac = bits & 0x7F_FFFF;
    match exp_field {
        0xFF => {
            if frac != 0 {
                CANONICAL_QNAN
            } else {
                pack_inf(sign)
            }
        }
        0 => {
            if frac == 0 {
                pack_zero(sign)
            } else {
                round_pack(sign, u128::from(frac), -149)
            }
        }
        e => round_pack(sign, u128::from(frac | 0x80_0000), e as i32 - 127 - 23),
    }
}

/// Converts an `f64` to binary16 bits with a single correct rounding.
// modelcheck-allow: RM-FP-001 -- host-float conversion boundary: operates on
// IEEE bit patterns only (to_bits + integer round_pack), no native arithmetic.
pub fn from_f64(v: f64) -> u16 {
    let bits = v.to_bits();
    let sign = bits >> 63 != 0;
    let exp_field = (bits >> 52) & 0x7FF;
    let frac = bits & 0xF_FFFF_FFFF_FFFF;
    match exp_field {
        0x7FF => {
            if frac != 0 {
                CANONICAL_QNAN
            } else {
                pack_inf(sign)
            }
        }
        0 => {
            if frac == 0 {
                pack_zero(sign)
            } else {
                round_pack(sign, u128::from(frac), -1074)
            }
        }
        e => round_pack(sign, u128::from(frac | (1u64 << 52)), e as i32 - 1023 - 52),
    }
}

/// Converts binary16 bits to `f32` (always exact).
// modelcheck-allow: RM-FP-001 -- host-float conversion boundary: every
// binary16 value is exactly representable in f32, so widening is lossless.
pub fn to_f32(bits: u16) -> f32 {
    match classify(bits) {
        Class::Nan => f32::NAN,
        Class::Inf { sign } => {
            if sign {
                f32::NEG_INFINITY
            } else {
                f32::INFINITY
            }
        }
        Class::Zero { sign } => {
            if sign {
                -0.0
            } else {
                0.0
            }
        }
        Class::Finite(u) => {
            let mag = u.sig as f32 * (u.q as f32).exp2();
            if u.sign {
                -mag
            } else {
                mag
            }
        }
    }
}

/// Converts binary16 bits to `f64` (always exact).
// modelcheck-allow: RM-FP-001 -- host-float conversion boundary: every
// binary16 value is exactly representable in f64, so widening is lossless.
pub fn to_f64(bits: u16) -> f64 {
    match classify(bits) {
        Class::Nan => f64::NAN,
        Class::Inf { sign } => {
            if sign {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        }
        Class::Zero { sign } => {
            if sign {
                -0.0
            } else {
                0.0
            }
        }
        Class::Finite(u) => {
            let mag = u.sig as f64 * (u.q as f64).exp2();
            if u.sign {
                -mag
            } else {
                mag
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE: u16 = 0x3C00;
    const TWO: u16 = 0x4000;
    const HALF: u16 = 0x3800;
    const MAX: u16 = 0x7BFF; // 65504
    const MIN_SUB: u16 = 0x0001; // 2^-24
    const INF: u16 = 0x7C00;
    const NINF: u16 = 0xFC00;
    const NZERO: u16 = 0x8000;

    fn f(v: f32) -> u16 {
        from_f32(v)
    }

    #[test]
    fn unpack_normal() {
        let Class::Finite(u) = classify(ONE) else {
            panic!("1.0 must be finite")
        };
        assert!(!u.sign);
        assert_eq!(u.sig, 1 << 10);
        assert_eq!(u.q, -10);
    }

    #[test]
    fn unpack_subnormal_normalises() {
        let Class::Finite(u) = classify(MIN_SUB) else {
            panic!("min subnormal must be finite")
        };
        assert_eq!(u.sig, 1 << 10);
        assert_eq!(u.q, -34); // 2^10 * 2^-34 = 2^-24
    }

    #[test]
    fn simple_products() {
        assert_eq!(mul(TWO, TWO), f(4.0));
        assert_eq!(mul(HALF, HALF), f(0.25));
        assert_eq!(mul(f(-3.0), f(3.0)), f(-9.0));
    }

    #[test]
    fn simple_sums() {
        assert_eq!(add(ONE, ONE), TWO);
        assert_eq!(add(f(1.5), f(2.5)), f(4.0));
        assert_eq!(sub(f(2.5), f(1.5)), ONE);
    }

    #[test]
    fn fma_single_rounding_differs_from_two_roundings() {
        // Choose a, b, c so that round(a*b) + c differs from fma(a, b, c).
        // a = 1 + 2^-10 (ulp above one), b = 1 + 2^-10:
        // a*b = 1 + 2^-9 + 2^-20 exactly; rounded mul gives 1 + 2^-9.
        // With c = -(1 + 2^-9), fma = 2^-20 but mul-then-add = 0.
        let a = 0x3C01;
        let b = 0x3C01;
        let c = from_f64(-(1.0 + 2.0f64.powi(-9)));
        let fused = fma(a, b, c);
        let split = add(mul(a, b), c);
        assert_eq!(to_f64(fused), 2.0f64.powi(-20));
        assert_eq!(to_f64(split), 0.0);
    }

    #[test]
    fn nan_propagates_canonically() {
        for op in [add, sub, mul] {
            assert_eq!(op(CANONICAL_QNAN, ONE), CANONICAL_QNAN);
            assert_eq!(op(ONE, 0x7E01), CANONICAL_QNAN);
        }
        assert_eq!(fma(ONE, ONE, 0xFFFF), CANONICAL_QNAN);
    }

    #[test]
    fn invalid_operations_produce_qnan() {
        assert_eq!(fma(0, INF, ONE), CANONICAL_QNAN); // 0*inf
        assert_eq!(fma(INF, NZERO, ONE), CANONICAL_QNAN);
        assert_eq!(fma(INF, ONE, NINF), CANONICAL_QNAN); // inf - inf
        assert_eq!(add(INF, NINF), CANONICAL_QNAN);
    }

    #[test]
    fn infinity_arithmetic() {
        assert_eq!(add(INF, ONE), INF);
        assert_eq!(fma(INF, TWO, f(-5.0)), INF);
        assert_eq!(fma(NINF, TWO, NINF), NINF);
    }

    #[test]
    fn exact_zero_sign_rules() {
        // (+1 * +1) + (-1) = exact +0.
        assert_eq!(fma(ONE, ONE, f(-1.0)), 0);
        // (+0) + (+0) keeps the sign; (+0) + (-0) is +0.
        assert_eq!(add(0, 0), 0);
        assert_eq!(add(NZERO, NZERO), NZERO);
        assert_eq!(add(0, NZERO), 0);
        // 0 * x + (-0), product +0: signs differ -> +0 in RNE.
        assert_eq!(fma(0, ONE, NZERO), 0);
        // 0 * x + (-0), product -0: signs agree -> -0.
        assert_eq!(fma(NZERO, ONE, NZERO), NZERO);
    }

    #[test]
    fn overflow_goes_to_infinity() {
        assert_eq!(mul(MAX, TWO), INF);
        assert_eq!(mul(MAX | NZERO, TWO), NINF);
    }

    #[test]
    fn overflow_by_rounding_at_binade_edge() {
        // 65520 is the midpoint between 65504 (max) and 65536: RNE rounds to
        // even = 65536 -> infinity. 65519 rounds down to 65504.
        assert_eq!(from_f32(65520.0), INF);
        assert_eq!(from_f32(65519.0), MAX);
    }

    #[test]
    fn gradual_underflow() {
        // min_normal / 2 is the largest subnormal's neighbourhood; halving
        // is the exact product with 0.5.
        const HALF: u16 = 0x3800;
        let min_normal = 0x0400;
        let half_min = mul(min_normal, HALF);
        assert_eq!(half_min, 0x0200); // 2^-15 = subnormal 0.1000000000
                                      // Smallest subnormal halves to zero (tie to even).
        assert_eq!(mul(MIN_SUB, HALF), 0);
        // Subnormal + subnormal is exact.
        assert_eq!(add(MIN_SUB, MIN_SUB), 0x0002);
    }

    #[test]
    fn subnormal_rounds_up_to_min_normal() {
        // Largest subnormal + smallest subnormal = min normal exactly.
        let max_sub = 0x03FF;
        assert_eq!(add(max_sub, MIN_SUB), 0x0400);
    }

    #[test]
    fn conversion_round_trips_all_finite_values() {
        for bits in 0u16..=0xFFFF {
            match classify(bits) {
                Class::Nan => continue,
                _ => {
                    assert_eq!(from_f32(to_f32(bits)), bits);
                    assert_eq!(from_f64(to_f64(bits)), bits);
                }
            }
        }
    }

    #[test]
    fn f32_conversion_rounds_correctly() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1 + 2^-10: ties to even.
        assert_eq!(from_f32(1.0 + 2.0f32.powi(-11)), ONE);
        // Slightly above the tie rounds up.
        assert_eq!(from_f32(1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20)), 0x3C01);
    }

    #[test]
    fn tiny_f32_flushes_by_rounding_only() {
        // 2^-25 is halfway to the smallest subnormal: RNE ties to even = 0.
        assert_eq!(from_f32(2.0f32.powi(-25)), 0);
        // Just above the halfway point rounds to the min subnormal.
        assert_eq!(from_f32(2.0f32.powi(-25) * 1.0001), MIN_SUB);
    }

    /// Exhaustive check of `add` against an f64 reference. The sum of two
    /// binary16 values is exactly representable in f64, so rounding the f64
    /// sum once is the correctly rounded result.
    #[test]
    fn add_matches_f64_reference_exhaustive_slice() {
        // Full 2^32 is too slow for a unit test; stride through the space and
        // concentrate on interesting neighbourhoods.
        let interesting: Vec<u16> = (0u16..=0xFFFF).step_by(251).chain(0x03F8..0x0408).collect();
        for &a in &interesting {
            for &b in &interesting {
                if matches!(classify(a), Class::Nan) || matches!(classify(b), Class::Nan) {
                    continue;
                }
                let got = add(a, b);
                let want = from_f64(to_f64(a) + to_f64(b));
                // Skip invalid (inf - inf): reference produces NaN too but
                // compares unequal bitwise only if non-canonical.
                let ref_nan = (to_f64(a) + to_f64(b)).is_nan();
                if ref_nan {
                    assert_eq!(got, CANONICAL_QNAN, "a={a:#06x} b={b:#06x}");
                } else {
                    assert_eq!(got, want, "a={a:#06x} b={b:#06x}");
                }
            }
        }
    }

    /// Exhaustive check of `mul` against an f64 reference (products of two
    /// 11-bit significands are exact in f64).
    #[test]
    fn mul_matches_f64_reference_exhaustive_slice() {
        let interesting: Vec<u16> = (0u16..=0xFFFF).step_by(257).chain(0x7BF0..0x7C00).collect();
        for &a in &interesting {
            for &b in &interesting {
                if matches!(classify(a), Class::Nan) || matches!(classify(b), Class::Nan) {
                    continue;
                }
                let ref_val = to_f64(a) * to_f64(b);
                let got = mul(a, b);
                if ref_val.is_nan() {
                    assert_eq!(got, CANONICAL_QNAN, "a={a:#06x} b={b:#06x}");
                } else {
                    let want = from_f64(ref_val);
                    assert_eq!(got, want, "a={a:#06x} b={b:#06x}");
                }
            }
        }
    }
}
