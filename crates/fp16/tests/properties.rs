//! Property-based tests for the binary16 softfloat.
//!
//! The key oracle here is independent of the implementation: exact values of
//! FP16 operands (and of FP16 products) are integers when scaled by `2^48`,
//! so `a*b + c` can be evaluated exactly in `i128` and rounded by a
//! brute-force scan over every finite binary16 value. If the production
//! `fma` agrees with that scan on random inputs (including subnormals), the
//! single-rounding claim holds.

use proptest::prelude::*;
use redmule_fp16::{arith, kernel, F16};

/// Exact value of a finite F16 scaled by 2^48, as an integer.
fn scaled_exact(v: F16) -> i128 {
    let f = v.to_f64();
    let scaled = f * 2f64.powi(48);
    // Every finite f16 times 2^48 is an integer <= 65504 * 2^48 < 2^65,
    // exactly representable in f64? No: 65504*2^48 has 17+48 bits = 65 bits
    // of magnitude but only 11 significant bits, so it IS exact in f64.
    debug_assert_eq!(scaled.fract(), 0.0);
    scaled as i128
}

/// Brute-force correctly rounded FP16 (RNE) of `v / 2^48`.
fn round_scaled_rne(v: i128) -> F16 {
    if v == 0 {
        return F16::ZERO;
    }
    let (sign, mag) = (v < 0, v.unsigned_abs());
    // Overflow threshold: 65520 * 2^48 (midpoint between 65504 and 65536).
    let max_scaled = 65504u128 << 48;
    let threshold = 65520u128 << 48;
    if mag >= threshold {
        // At the exact midpoint RNE ties to the "even" 65536, i.e. infinity.
        return if sign {
            F16::NEG_INFINITY
        } else {
            F16::INFINITY
        };
    }
    if mag > max_scaled {
        // Between max finite and the tie point: rounds to max finite.
        return if sign { F16::MIN } else { F16::MAX };
    }
    // Scan all finite non-negative patterns for the nearest value.
    let mut best_bits = 0u16;
    let mut best_dist = u128::MAX;
    for bits in 0u16..0x7C00 {
        let val = F16::from_bits(bits);
        let scaled = scaled_exact(val).unsigned_abs();
        let dist = scaled.abs_diff(mag);
        if dist < best_dist {
            best_dist = dist;
            best_bits = bits;
        } else if dist == best_dist {
            // Tie: choose even significand.
            if bits & 1 == 0 {
                best_bits = bits;
            }
        }
    }
    let out = F16::from_bits(best_bits);
    if sign && best_bits != 0 {
        -out
    } else if sign {
        // Exactly -0 never reaches here (v != 0), but keep the sign anyway.
        F16::NEG_ZERO
    } else {
        out
    }
}

/// Strategy over all finite FP16 bit patterns (normals and subnormals).
fn finite_f16() -> impl Strategy<Value = F16> {
    any::<u16>().prop_filter_map("finite", |bits| {
        let v = F16::from_bits(bits);
        v.is_finite().then_some(v)
    })
}

/// Strategy biased towards small exponents so subnormal paths get exercised.
fn tiny_f16() -> impl Strategy<Value = F16> {
    (0u16..0x0C00, any::<bool>()).prop_map(|(mag, neg)| {
        let v = F16::from_bits(mag);
        if neg {
            -v
        } else {
            v
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// FMA must equal the exact i128 computation rounded once (RNE).
    /// Operands are scaled by 2^24 (exact integers), so `a*b + c` in units
    /// of 2^-48 fits comfortably in i128.
    #[test]
    fn fma_is_correctly_rounded(a in finite_f16(), b in finite_f16(), c in finite_f16()) {
        let exact48 = scale24(a) * scale24(b) + (scale24(c) << 24);
        let want = round_scaled_rne(exact48);
        let got = a.mul_add(b, c);
        if want.is_zero() && got.is_zero() {
            // Sign-of-zero is covered by dedicated unit tests.
        } else {
            prop_assert_eq!(got.to_bits(), want.to_bits(),
                "a={:?} b={:?} c={:?}", a, b, c);
        }
    }

    /// Same check concentrated in the subnormal neighbourhood.
    #[test]
    fn fma_is_correctly_rounded_near_zero(a in tiny_f16(), b in tiny_f16(), c in tiny_f16()) {
        let exact48 = scale24(a) * scale24(b) + (scale24(c) << 24);
        let want = round_scaled_rne(exact48);
        let got = a.mul_add(b, c);
        if !(want.is_zero() && got.is_zero()) {
            prop_assert_eq!(got.to_bits(), want.to_bits(),
                "a={:?} b={:?} c={:?}", a, b, c);
        }
    }

    /// Addition agrees with the exact f64 sum rounded once.
    #[test]
    fn add_matches_f64(a in finite_f16(), b in finite_f16()) {
        let want = F16::from_f64(a.to_f64() + b.to_f64());
        let got = a + b;
        if !(want.is_zero() && got.is_zero()) {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    /// Multiplication agrees with the exact f64 product rounded once.
    #[test]
    fn mul_matches_f64(a in finite_f16(), b in finite_f16()) {
        let want = F16::from_f64(a.to_f64() * b.to_f64());
        prop_assert_eq!((a * b).to_bits(), want.to_bits());
    }

    /// Widening then narrowing is the identity for every finite value.
    #[test]
    fn f32_round_trip(a in finite_f16()) {
        prop_assert_eq!(F16::from_f32(a.to_f32()).to_bits(), a.to_bits());
        prop_assert_eq!(F16::from_f64(a.to_f64()).to_bits(), a.to_bits());
    }

    /// Narrowing an arbitrary f64 lands on a nearest binary16.
    #[test]
    fn f64_narrowing_brackets(v in -1e6f64..1e6f64) {
        let r = F16::from_f64(v).to_f64();
        // Nearest: |r - v| <= half an ulp of r's binade; cheap bound:
        // within one f16 epsilon relative error or one min-subnormal.
        let tol = (r.abs() * 2f64.powi(-10)).max(2f64.powi(-25));
        prop_assert!((r - v).abs() <= tol, "v={v} r={r}");
    }

    /// Addition and multiplication are bitwise commutative for non-NaN.
    #[test]
    fn add_mul_commute(a in finite_f16(), b in finite_f16()) {
        prop_assert_eq!((a + b).to_bits(), (b + a).to_bits());
        prop_assert_eq!((a * b).to_bits(), (b * a).to_bits());
    }

    /// Comparisons agree with the f64 ordering.
    #[test]
    fn ordering_matches_f64(a in finite_f16(), b in finite_f16()) {
        prop_assert_eq!(a.partial_cmp(&b), a.to_f64().partial_cmp(&b.to_f64()));
    }
}

/// Exact value of a finite F16 scaled by 2^24 (fits in i64 range easily).
fn scale24(v: F16) -> i128 {
    let f = v.to_f64() * 2f64.powi(24);
    debug_assert_eq!(f.fract(), 0.0, "f16 * 2^24 must be an integer");
    f as i128
}

/// Strategy over *any* FP16 bit pattern, weighted so the special classes
/// (NaN, infinities, zeros, subnormals) appear often enough to exercise
/// every kernel dispatch arm in a short run.
fn any_class_f16() -> impl Strategy<Value = u16> {
    prop_oneof![
        4 => any::<u16>(),
        1 => prop::sample::select(vec![
            0x0000u16, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0x7C01, 0xFE55,
            0x0001, 0x8001, 0x03FF, 0x83FF, 0x0400, 0x7BFF, 0xFBFF,
        ]),
        1 => (0u16..0x0400).prop_map(|m| m | 0x8000), // negative subnormals
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The block kernel must equal the scalar fold of `fma` under RNE,
    /// element by element, on random ragged bands: any-class operands and
    /// an optional any-class `Y`, with a varying share of them tamed into
    /// `[0.5, 1)` so that whole blocks also stay on the fast path, single
    /// wild lanes send their block to the scalar redo, and everything in
    /// between.
    #[test]
    fn gemm_staged_matches_scalar_fma_fold(
        m in 0usize..10,
        n in 0usize..25,
        k in 0usize..18,
        pool in prop::collection::vec(any_class_f16(), 9 * 24 + 24 * 17 + 9 * 17),
        accumulate in any::<bool>(),
        wild_one_in in prop::sample::select(vec![1usize, 16, 256, usize::MAX]),
    ) {
        let pick = |i: usize| {
            let v = pool[i];
            if i.wrapping_mul(0x9E37_79B9).is_multiple_of(wild_one_in) { v } else { (v & 0x83FF) | 0x3800 }
        };
        let xs: Vec<u16> = (0..m * n).map(pick).collect();
        let ws: Vec<u16> = (m * n..m * n + n * k).map(pick).collect();
        let y: Vec<u16> = if accumulate {
            (m * n + n * k..m * n + n * k + m * k).map(pick).collect()
        } else {
            vec![0; m * k]
        };
        let x = kernel::Staged::from_bits_iter(xs.iter().copied());
        let w = kernel::Staged::from_bits_iter(ws.iter().copied());
        let mut acc: Vec<kernel::Acc> = y.iter().map(|&b| kernel::Acc::from_bits(b)).collect();
        kernel::gemm_staged(&x, 0, n, &w, k, &mut acc);
        for (idx, (a, &init)) in acc.iter().zip(y.iter()).enumerate() {
            let (r, j) = (idx / k, idx % k);
            let mut slow = init;
            for l in 0..n {
                slow = arith::fma(xs[r * n + l], ws[l * k + j], slow);
            }
            // A NaN that survives zero steps stays un-canonicalised in the
            // scalar fold but canonicalises through Acc; both encode the
            // same value class.
            if n == 0 && F16::from_bits(init).is_nan() {
                prop_assert!(F16::from_bits(a.to_bits()).is_nan());
            } else {
                prop_assert_eq!(a.to_bits(), slow, "{}x{}x{} at ({}, {})", m, n, k, r, j);
            }
        }
    }

    /// Step-level agreement on fully random (possibly special) operands.
    #[test]
    fn fma_acc_step_matches_fma(a in any_class_f16(), b in any_class_f16(), c in any_class_f16()) {
        let got = kernel::fma_acc(
            kernel::Operand::from_bits(a),
            kernel::Operand::from_bits(b),
            kernel::Acc::from_bits(c),
        ).to_bits();
        prop_assert_eq!(got, arith::fma(a, b, c));
    }
}
