//! Exhaustive verification of single-operand operations over the entire
//! binary16 space, plus dense grids for two-operand operations.
//!
//! The f64 references are valid oracles: every FP16 value converts to f64
//! exactly, and sums and products of two FP16 values are exact in f64, so
//! round(f64-op) is the correctly rounded FP16 result.

use redmule_fp16::{arith, CANONICAL_QNAN, E4M3, E5M2, F16};

fn all_patterns() -> impl Iterator<Item = u16> {
    0u16..=0xFFFF
}

fn is_nan_bits(bits: u16) -> bool {
    (bits & 0x7C00) == 0x7C00 && (bits & 0x03FF) != 0
}

#[test]
fn negation_and_abs_exhaustive() {
    for bits in all_patterns() {
        let v = F16::from_bits(bits);
        assert_eq!((-v).to_bits(), bits ^ 0x8000);
        assert_eq!(v.abs().to_bits(), bits & 0x7FFF);
        assert_eq!((-(-v)).to_bits(), bits);
    }
}

#[test]
fn classification_is_total_and_consistent() {
    for bits in all_patterns() {
        let v = F16::from_bits(bits);
        let cats = [
            v.is_nan(),
            v.is_infinite(),
            v.is_zero(),
            v.is_subnormal(),
            v.is_normal(),
        ];
        assert_eq!(
            cats.iter().filter(|&&c| c).count(),
            1,
            "exactly one class at {bits:#06x}"
        );
        assert_eq!(v.is_finite(), !v.is_nan() && !v.is_infinite());
        // Agreement with the f32 classification.
        if !v.is_nan() {
            let f = v.to_f32();
            assert_eq!(v.is_infinite(), f.is_infinite(), "{bits:#06x}");
            assert_eq!(v.is_zero(), f == 0.0, "{bits:#06x}");
        }
    }
}

#[test]
fn doubling_and_halving_exhaustive_vs_f64() {
    const TWO: u16 = 0x4000;
    const HALF: u16 = 0x3800;
    for bits in all_patterns() {
        if is_nan_bits(bits) {
            continue;
        }
        let x = arith::to_f64(bits);
        let doubled = arith::mul(bits, TWO);
        assert_eq!(doubled, arith::from_f64(x * 2.0), "2*{x}");
        let halved = arith::mul(bits, HALF);
        assert_eq!(halved, arith::from_f64(x / 2.0), "{x}/2");
    }
}

#[test]
fn addition_dense_grid_vs_f64() {
    // A structured set of second operands covering every regime.
    let b_set: Vec<u16> = vec![
        0x0000, 0x8000, 0x0001, 0x8001, 0x03FF, 0x0400, 0x3C00, 0xBC00, 0x3C01, 0x4000, 0x7BFF,
        0xFBFF, 0x7C00, 0xFC00, 0x1400, 0x9400,
    ];
    for a in all_patterns().step_by(7) {
        if is_nan_bits(a) {
            continue;
        }
        let av = arith::to_f64(a);
        for &b in &b_set {
            let got = arith::add(a, b);
            let exact = av + arith::to_f64(b);
            if exact.is_nan() {
                assert_eq!(got, CANONICAL_QNAN, "a={a:#06x} b={b:#06x}");
            } else {
                let want = arith::from_f64(exact);
                // +0/-0 compare equal numerically; bit-compare except when
                // both are zeros of different sign conventions.
                if !(got & 0x7FFF == 0 && want & 0x7FFF == 0) {
                    assert_eq!(got, want, "a={a:#06x} b={b:#06x}");
                }
            }
        }
    }
}

#[test]
fn fma_dense_grid_has_single_rounding() {
    // fma(a, b, c) with c = -round(a*b) never loses the residual unless it
    // is exactly zero: a classic single-rounding witness applied densely.
    for a in (0x3C00u16..0x4400).step_by(3) {
        for b in (0x3C00u16..0x4400).step_by(7) {
            let prod = arith::mul(a, b);
            let c = prod ^ 0x8000; // -round(a*b)
            let fused = arith::fma(a, b, c);
            // Exact residual: a*b - round(a*b) in f64 (all values exact).
            let exact = arith::to_f64(a) * arith::to_f64(b) + arith::to_f64(c);
            let want = arith::from_f64(exact);
            // The residual has few significant bits, so the f64 reference
            // is exact here.
            if !(fused & 0x7FFF == 0 && want & 0x7FFF == 0) {
                assert_eq!(fused, want, "a={a:#06x} b={b:#06x}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// FP8 casts: the E4M3/E5M2 spaces are tiny (256 patterns) and the binary16
// space is small (65536 patterns), so both directions are verified over
// their *entire* domains against first-principles f64 references. Every FP8
// and FP16 value converts to f64 exactly, and the midpoint of two adjacent
// FP8 values is exactly representable, so f64 comparison is a valid oracle.
// ---------------------------------------------------------------------------

/// Magnitude of the FP8 encoding `enc` (sign bit stripped), from the
/// IEEE interchange formula — independent of the library's bit fiddling.
fn fp8_mag(enc: u32, man_bits: i32, bias: i32) -> f64 {
    let man = (enc & ((1u32 << man_bits) - 1)) as f64;
    let exp = (enc >> man_bits) as i32;
    if exp == 0 {
        man * (2f64).powi(1 - bias - man_bits)
    } else {
        (1.0 + man * (2f64).powi(-man_bits)) * (2f64).powi(exp - bias)
    }
}

/// The magnitude ladder `enc -> |value|` for encodings `0..=top`, where
/// `top` is the first non-finite code (E4M3's NaN 0x7F, E5M2's Inf 0x7C)
/// treated as the virtual next rung: 480 and 65536 respectively. Rounding
/// *onto* the top rung is exactly the overflow condition.
fn fp8_ladder(man_bits: i32, bias: i32, top: usize) -> Vec<f64> {
    (0..=top)
        .map(|e| fp8_mag(e as u32, man_bits, bias))
        .collect()
}

/// Reference narrowing of a finite binary16 pattern: walk the magnitude
/// ladder in f64, pick the nearest rung (ties to the even code), then
/// apply the OFP8 overflow policy when the rounding lands on the virtual
/// top rung.
fn fp8_narrow_ref(bits: u16, mags: &[f64], overflow_code: u8) -> u8 {
    let neg = bits & 0x8000 != 0;
    let sign8 = if neg { 0x80u8 } else { 0 };
    let a = arith::to_f64(bits).abs();
    let top = mags.len() - 1;

    let chosen = if a >= mags[top] {
        top
    } else {
        let lo = mags.partition_point(|&m| m <= a) - 1;
        if mags[lo] == a {
            lo
        } else {
            let hi = lo + 1;
            let mid = 0.5 * (mags[lo] + mags[hi]); // exact: few significand bits
            if a < mid {
                lo
            } else if a > mid {
                hi
            } else if lo % 2 == 0 {
                lo
            } else {
                hi
            }
        }
    };

    if chosen == top {
        // IEEE overflow: the format's overflow code (NaN for E4M3, Inf
        // for E5M2).
        sign8 | overflow_code
    } else {
        sign8 | chosen as u8
    }
}

#[test]
fn fp8_widen_is_exact_for_all_256_patterns() {
    let e4 = fp8_ladder(3, 7, 0x7F);
    let e5 = fp8_ladder(2, 15, 0x7C);
    for p in 0..=0xFFu8 {
        let sign = if p & 0x80 != 0 { -1.0 } else { 1.0 };
        let enc = (p & 0x7F) as usize;

        // E4M3: one NaN per sign, everything else finite.
        let w = E4M3::from_bits(p).to_f16();
        if enc == 0x7F {
            assert!(w.is_nan(), "E4M3 NaN widen at {p:#04x}");
            assert_eq!(w.to_bits() & 0x8000 != 0, p & 0x80 != 0, "{p:#04x}");
        } else {
            assert_eq!(
                arith::to_f64(w.to_bits()),
                sign * e4[enc],
                "E4M3 widen at {p:#04x}"
            );
        }

        // E5M2: widening is the pure shift its docs promise, and the
        // shifted value is numerically the ladder value.
        let w = E5M2::from_bits(p).to_f16();
        assert_eq!(w.to_bits(), u16::from(p) << 8, "E5M2 widen at {p:#04x}");
        if enc < 0x7C {
            assert_eq!(
                arith::to_f64(w.to_bits()),
                sign * e5[enc],
                "E5M2 widen at {p:#04x}"
            );
        } else if enc == 0x7C {
            assert!(w.is_infinite(), "E5M2 Inf widen at {p:#04x}");
        } else {
            assert!(w.is_nan(), "E5M2 NaN widen at {p:#04x}");
        }
    }
}

#[test]
fn fp8_round_trips_all_256_patterns() {
    // Widen-then-narrow must be the identity on the full FP8 space: the
    // widened value is exact, so no rounding may move it, and the NaN
    // narrowing must reproduce the original payload.
    for p in 0..=0xFFu8 {
        assert_eq!(
            E4M3::from_f16(E4M3::from_bits(p).to_f16()).to_bits(),
            p,
            "E4M3 round trip at {p:#04x}"
        );
        assert_eq!(
            E5M2::from_f16(E5M2::from_bits(p).to_f16()).to_bits(),
            p,
            "E5M2 round trip at {p:#04x}"
        );
    }
}

#[test]
fn e4m3_narrow_exhaustive_vs_f64_reference() {
    let mags = fp8_ladder(3, 7, 0x7F);
    for bits in all_patterns() {
        let sign8 = ((bits >> 8) as u8) & 0x80;
        let got = E4M3::from_f16(F16::from_bits(bits)).to_bits();
        // E4M3 has no infinities: both NaN and Inf inputs collapse to
        // the format's single signed NaN code.
        let want = if is_nan_bits(bits) || (bits & 0x7FFF) == 0x7C00 {
            sign8 | 0x7F
        } else {
            fp8_narrow_ref(bits, &mags, 0x7F)
        };
        assert_eq!(got, want, "E4M3 narrow at {bits:#06x}");
    }
}

#[test]
fn e5m2_narrow_exhaustive_vs_f64_reference() {
    let mags = fp8_ladder(2, 15, 0x7C);
    for bits in all_patterns() {
        let sign8 = ((bits >> 8) as u8) & 0x80;
        let got = E5M2::from_f16(F16::from_bits(bits)).to_bits();
        let want = if is_nan_bits(bits) {
            // Sign and top payload bits survive, quietened so the
            // result never collides with the infinity code.
            let payload = ((bits >> 8) as u8) & 0x3;
            sign8 | 0x7C | if payload == 0 { 0x2 } else { payload }
        } else if (bits & 0x7FFF) == 0x7C00 {
            sign8 | 0x7C
        } else {
            fp8_narrow_ref(bits, &mags, 0x7C)
        };
        assert_eq!(got, want, "E5M2 narrow at {bits:#06x}");
    }
}

#[test]
fn fp8_narrow_landmark_values() {
    // Pin the textbook OFP8 cases by hand, independent of the ladder.
    let f = |v: f32| F16::from_f32(v);
    // 464 is the exact midpoint of E4M3's 448 and the virtual 480 rung.
    assert_eq!(E4M3::from_f16(f(464.0)).to_bits(), 0x7E);
    assert!(E4M3::from_f16(f(500.0)).is_nan());
    // 61440 is the midpoint of E5M2's 57344 and the virtual 65536 rung;
    // the even side is the infinity, so RNE overflows.
    assert!(E5M2::from_f16(f(61440.0)).is_infinite());
    // Smallest subnormals: E4M3 2^-9, E5M2 2^-16.
    assert_eq!(
        E4M3::MIN_POSITIVE_SUBNORMAL.to_f16().to_bits(),
        arith::from_f64((2f64).powi(-9))
    );
    assert_eq!(
        E5M2::MIN_POSITIVE_SUBNORMAL.to_f16().to_bits(),
        arith::from_f64((2f64).powi(-16))
    );
}
