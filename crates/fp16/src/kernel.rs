//! Batched softfloat FMA kernel: the wall-clock-fast path under
//! `FunctionalGemm`.
//!
//! The scalar [`arith::fma`](crate::arith::fma) re-classifies all three
//! operands, aligns and normalises with portable integer arithmetic, and
//! re-packs the result on every call. A GEMM reduction reuses the same
//! operands thousands of times — every X element against a whole panel of
//! outputs, every W element against a whole column of rows — and feeds
//! each FMA's output straight into the next one's addend. This module
//! exploits that structure while preserving the result bits exactly:
//!
//! * [`Operand`] classifies an input **once**; rows of pre-classified
//!   operands are built with [`Operand::classify_slice`] and reused freely.
//! * [`Acc`] keeps the running accumulator in `f64` form between FMA
//!   steps. Every step still performs the mandatory FP16 round — rounding
//!   order is the contract — but the pack-to-bits / classify-from-bits
//!   round trip between steps is gone.
//! * [`fma_acc`] dispatches on one combined tag test: the finite (zeros
//!   included) round-to-nearest-even common case runs a short branch-free
//!   hardware path, everything else (infinite or NaN multiplicands,
//!   directed rounding modes) falls back to the scalar softfloat `fma` on
//!   the packed encodings.
//!
//! # Why hardware `f64` is bit-exact here
//!
//! The fast path computes `t = a*b + acc` in `f64`. The product of two
//! binary16 significands has at most 22 bits, so `a*b` is **exact** in
//! `f64` (a zero multiplicand gives an exact, correctly signed zero, and
//! the IEEE zero-sum sign rule is the same at both precisions); the
//! addition then performs a single IEEE rounding of the exact sum to 53
//! bits. Rounding that 53-bit result again to binary16's 11-bit
//! significand is an *innocuous double rounding*: a double-rounding
//! mismatch needs the exact sum to sit within half a 53-bit ulp of an
//! 11-bit rounding boundary without lying on it, and a sum of a 22-bit
//! product and an 11-bit addend never has enough significant bits to get
//! that close (53 well exceeds the 3·11+2 bound for FMA). The claim is
//! not taken on faith: every `fma_acc` in a debug build re-checks itself
//! against `arith::fma`, and the release kernel is locked by the frozen
//! FMA vectors, an exhaustive-pairs differential sweep and a class-aware
//! proptest.
//!
//! The equivalence contract:
//!
//! ```text
//! fma_acc(classify(a), classify(b), Acc::from_bits(c)).to_bits()
//!     == arith::fma(a, b, c)          for all a, b, c, and every mode
//! ```

use crate::arith::from_f64;
use crate::round::Round;

/// Tag ordering chosen so `Finite` is 0 and `Zero` is 1: the hot-path
/// test for "neither multiplicand infinite or NaN" is a single `|` of the
/// tags against `TAG_ZERO`. (The accumulator needs no tag at all: IEEE
/// `f64` arithmetic propagates its infinities and NaNs exactly as the
/// scalar FMA rules require once the multiplicands are known finite, and
/// the fast path's exponent-range check routes every such result to the
/// conversion tail.)
const TAG_FINITE: u8 = 0;
const TAG_ZERO: u8 = 1;
const TAG_INF: u8 = 2;
const TAG_NAN: u8 = 3;

/// Exact widening of a binary16 bit pattern to `f64`.
///
/// Branch-free for every finite value: reinterpreting the sign-stripped
/// halfword as the top of an `f32` significand and rescaling by `2^112`
/// is exact (power-of-two multiply), maps subnormals onto normal `f32`
/// values, and the `f32 -> f64` widening is lossless. Only the shared
/// infinity/NaN exponent takes a (well-predicted) branch.
// modelcheck-allow: RM-FP-001 -- lossless binary16 -> f64 widening via an
// exact power-of-two rescale; locked against `arith::to_f64` by the debug
// assertion below and the kernel differential tests.
#[inline]
fn widen(bits: u16) -> f64 {
    let out = if bits & 0x7C00 == 0x7C00 {
        if bits & 0x3FF != 0 {
            f64::NAN
        } else if bits >> 15 != 0 {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        }
    } else {
        let mag = f32::from_bits(u32::from(bits & 0x7FFF) << 13) * f32::from_bits(0x7780_0000);
        f64::from_bits(f64::from(mag).to_bits() | u64::from(bits >> 15) << 63)
    };
    debug_assert!(
        (out.is_nan() && crate::F16::from_bits(bits).is_nan())
            || out.to_bits() == crate::arith::to_f64(bits).to_bits(),
        "widen({bits:#06x}) diverged from arith::to_f64"
    );
    out
}

/// Exact narrowing of an `f64` value *known to be binary16-representable*
/// (or an infinity / NaN) back to its binary16 bit pattern — the inverse
/// of [`widen`], by the same power-of-two rescale run backwards. Because
/// the value never rounds, this replaces the general `from_f64`
/// conversion on the accumulator store path.
// modelcheck-allow: RM-FP-001 -- exact f64 -> binary16 narrowing of
// already-representable values; locked against `arith::from_f64` by the
// debug assertion in `Acc::to_bits` and the exhaustive round-trip test.
#[inline]
fn narrow(v: f64) -> u16 {
    let vb = v.to_bits();
    let sign = ((vb >> 63) as u16) << 15;
    if (vb >> 52) & 0x7FF == 0x7FF {
        if v.is_nan() {
            return crate::CANONICAL_QNAN;
        }
        return sign | 0x7C00;
    }
    // The magnitude rescaled by 2^-112 lands binary16 normals on f32
    // normals with the same biased exponent pattern and binary16
    // subnormals on f32 subnormals with the same fraction — both exact —
    // so the binary16 encoding is the f32 encoding shifted down 13 bits.
    let mag = (f64::from_bits(vb & !(1u64 << 63)) as f32) * f32::from_bits(0x0780_0000);
    sign | (mag.to_bits() >> 13) as u16
}

/// An FP16 input pre-classified for repeated use as an FMA multiplicand.
///
/// Classify once with [`Operand::from_bits`] (or a whole row with
/// [`Operand::classify_slice`]), then feed the copy to as many
/// [`fma_acc`] / [`fma_row`] steps as the schedule needs.
// modelcheck-allow: RM-FP-001 -- the f64 field is the exact (lossless)
// widening of a binary16 value; see the module docs for the bit-exactness
// argument and the differential locks.
#[derive(Debug, Clone, Copy)]
pub struct Operand {
    /// Exact `f64` widening of the value.
    v: f64,
    /// Original packed encoding, for the scalar fallback path.
    bits: u16,
    tag: u8,
}

impl Operand {
    /// Classifies a raw binary16 bit pattern.
    #[inline]
    pub fn from_bits(bits: u16) -> Operand {
        let tag = if bits & 0x7C00 == 0x7C00 {
            if bits & 0x3FF != 0 {
                TAG_NAN
            } else {
                TAG_INF
            }
        } else if bits & 0x7FFF == 0 {
            TAG_ZERO
        } else {
            TAG_FINITE
        };
        Operand {
            v: widen(bits),
            bits,
            tag,
        }
    }

    /// Classifies a whole row of values in one pass.
    pub fn classify_slice(row: &[crate::F16]) -> Vec<Operand> {
        row.iter()
            .map(|v| Operand::from_bits(v.to_bits()))
            .collect()
    }
}

/// A running FMA accumulator held as the exact `f64` widening of a
/// binary16 value.
///
/// The value is always exactly one representable binary16 (or its
/// infinity / NaN) — the kernel rounds on every step, identically to the
/// scalar path — only the *encoding* work between steps is skipped. The
/// accumulator carries no class tag: with both multiplicands known finite,
/// IEEE `f64` arithmetic propagates an infinite or NaN accumulator exactly
/// as the scalar FMA rules require, and every such result lands in the
/// fast path's out-of-range conversion tail.
// modelcheck-allow: RM-FP-001 -- the f64 field always holds an exactly
// binary16-representable value (or inf/NaN); see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct Acc {
    v: f64,
}

impl Acc {
    /// The accumulator for a fresh reduction (`+0`).
    pub const ZERO: Acc = Acc { v: 0.0 };

    /// Unpacks an initial accumulator value (the `Y` operand of
    /// `Z = X*W + Y`).
    #[inline]
    pub fn from_bits(bits: u16) -> Acc {
        Acc { v: widen(bits) }
    }

    /// Encodes the accumulated value back to binary16 bits. For any
    /// non-NaN input this inverts [`Acc::from_bits`] exactly (the value
    /// is always binary16-representable, so the conversion never rounds);
    /// NaNs encode to the canonical quiet NaN, matching every scalar
    /// operation.
    #[inline]
    pub fn to_bits(self) -> u16 {
        let out = narrow(self.v);
        debug_assert_eq!(
            out,
            from_f64(self.v, Round::NearestEven),
            "narrow diverged from from_f64 on {:#018x}",
            self.v.to_bits()
        );
        out
    }
}

/// One fused multiply-add step on pre-classified operands:
/// `a * b + acc`, rounded once under `mode`, result kept unpacked.
///
/// Bit-for-bit equivalent to `arith::fma(a, b, acc, mode)` on the packed
/// encodings — same single rounding, same NaN canonicalisation, same IEEE
/// zero- and infinity-sign rules. Debug builds assert exactly that on
/// every single call.
// modelcheck-allow: RM-FP-001 -- f64 fast path: exact 22-bit product, one
// hardware rounding, innocuous double rounding to binary16 (module docs);
// bit-exactness locked by per-call debug assertions and the exhaustive
// differential suite.
#[inline(always)]
pub fn fma_acc(a: Operand, b: Operand, acc: Acc, mode: Round) -> Acc {
    let out = if a.tag | b.tag <= TAG_ZERO && matches!(mode, Round::NearestEven) {
        // Finite-multiplicand RNE fast path. `a.v * b.v` is exact (22-bit
        // product, or a signed zero; never inf/NaN), the addition is the
        // single hardware rounding of the exact sum. An infinite or NaN
        // accumulator propagates through the addition per IEEE rules —
        // identical to the scalar FMA's special-value rules here — and
        // surfaces as an out-of-range exponent handled by the cold tail.
        let t = a.v * b.v + acc.v;
        let tb = t.to_bits();
        let biased = ((tb >> 52) & 0x7FF) as i32;
        // Binary16 normal results have unbiased exponent in [-14, 15],
        // i.e. biased (f64) exponent in [1009, 1038]. Zero, subnormal and
        // overflowing results take the cold conversion path.
        if (biased - 1009) as u32 > 29 {
            round_out_of_range(t)
        } else {
            // Round the 52-bit fraction to binary16's 10 fraction bits in
            // place (kept lsb at bit 42, round bit at 41, sticky below)
            // with the add-and-truncate formulation of round-to-nearest-
            // even: adding `lsb + (half - 1)` carries into bit 42 exactly
            // when the discarded fraction exceeds half an ulp, or equals
            // it with an odd kept lsb. A significand carry ripples
            // straight into the exponent field, which is exactly the IEEE
            // renormalisation; only the overflow re-check remains.
            let lsb = (tb >> 42) & 1;
            let rb = (tb + lsb + ((1u64 << 41) - 1)) & !((1u64 << 42) - 1);
            if (rb >> 52) & 0x7FF > 1038 {
                inf_acc(tb >> 63 != 0)
            } else {
                Acc {
                    v: f64::from_bits(rb),
                }
            }
        }
    } else {
        fma_acc_slow(a, b, acc, mode)
    };
    debug_assert_eq!(
        out.to_bits(),
        crate::arith::fma(a.bits, b.bits, acc.to_bits(), mode),
        "fma_acc drifted from scalar fma: a={:#06x} b={:#06x} c={:#06x} mode={mode:?}",
        a.bits,
        b.bits,
        acc.to_bits(),
    );
    out
}

/// Cold tail of the fast path: the exact-to-53-bits sum `t` rounds to a
/// zero, subnormal or out-of-range binary16, or the accumulator carried
/// in an infinity / NaN that the hardware addition propagated. `from_f64`
/// performs exactly the required second rounding (gradual underflow and
/// NaN canonicalisation included); the double rounding stays innocuous
/// because subnormal results keep *fewer* than 11 bits.
// modelcheck-allow: RM-FP-001 -- re-uses the trusted f64-to-binary16
// conversion for the rare out-of-range results.
#[cold]
fn round_out_of_range(t: f64) -> Acc {
    Acc::from_bits(from_f64(t, Round::NearestEven))
}

// modelcheck-allow: RM-FP-001 -- constant f64 infinities.
#[inline]
fn inf_acc(sign: bool) -> Acc {
    // Round-to-nearest-even overflows to infinity (never saturates).
    Acc {
        v: if sign {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        },
    }
}

/// Fallback for special values and directed rounding modes: one scalar
/// softfloat `fma` on the packed encodings. This is the exact pre-kernel
/// code path, so every NaN / infinity / signed-zero rule and every
/// rounding mode agrees by construction.
#[cold]
fn fma_acc_slow(a: Operand, b: Operand, acc: Acc, mode: Round) -> Acc {
    Acc::from_bits(crate::arith::fma(a.bits, b.bits, acc.to_bits(), mode))
}

/// One reduction step for a whole row of accumulators:
/// `acc[j] = a * w[j] + acc[j]` for every `j`.
///
/// This is the GEMM inner loop shape: one X element (classified once) is
/// broadcast against a contiguous row of pre-classified W operands. The
/// per-element FMA order of each accumulator chain is untouched — the row
/// form only reorders *between* independent output elements.
#[inline]
pub fn fma_row(a: Operand, w: &[Operand], acc: &mut [Acc], mode: Round) {
    debug_assert_eq!(w.len(), acc.len());
    for (acc, &b) in acc.iter_mut().zip(w.iter()) {
        *acc = fma_acc(a, b, *acc, mode);
    }
}

/// An operand matrix staged in structure-of-arrays form: the exact `f64`
/// widening of every element for the vector fast path, plus the original
/// packed encodings for the scalar fallback.
///
/// Built once per matrix with [`Staged::from_bits_iter`]; consumed by
/// [`fma_row_staged`], which reads a contiguous row slice per reduction
/// step. Unlike [`Operand`] rows, the value lane is a flat `f64` array —
/// stride 8, no tags interleaved — which is what lets the compiler
/// vectorise the row kernel.
// modelcheck-allow: RM-FP-001 -- the f64 lane holds exact (lossless)
// widenings of the binary16 elements; see the module docs for the
// bit-exactness argument and the differential locks.
#[derive(Debug, Clone)]
pub struct Staged {
    vals: Vec<f64>,
    bits: Vec<u16>,
}

impl Staged {
    /// Stages a matrix from its packed binary16 encodings.
    pub fn from_bits_iter(it: impl Iterator<Item = u16>) -> Staged {
        let bits: Vec<u16> = it.collect();
        Staged {
            vals: bits.iter().map(|&b| widen(b)).collect(),
            bits,
        }
    }

    /// Number of staged elements.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }
}

/// One broadcast reduction step over a whole row of accumulators with
/// staged operands: `acc[j] = x[xi] * w[w0 + j] + acc[j]`, each lane
/// rounded once under `mode` — bit-for-bit `arith::fma` per lane, exactly
/// like [`fma_row`].
///
/// The round-to-nearest-even common case runs a branchless two-pass
/// vector kernel over the flat `f64` lanes; any lane whose result leaves
/// the binary16 normal range — which includes every special operand or
/// accumulator, since infinities and NaNs surface as an all-ones `f64`
/// exponent in the sum — reverts the whole row to the scalar
/// [`fma_acc`] path on the packed encodings.
#[inline]
pub fn fma_row_staged(x: &Staged, xi: usize, w: &Staged, w0: usize, acc: &mut [Acc], mode: Round) {
    if !matches!(mode, Round::NearestEven) {
        fma_row_slow(x, xi, w, w0, acc, mode);
        return;
    }
    let a = x.vals[xi];
    let n = acc.len();
    let mut j = 0;
    while j < n {
        let c = CHUNK.min(n - j);
        if !fma_chunk_fast(a, &w.vals[w0 + j..w0 + j + c], &mut acc[j..j + c]) {
            fma_row_slow(x, xi, w, w0 + j, &mut acc[j..j + c], mode);
        }
        j += c;
    }
}

/// Scalar redo of a (sub)row on the packed encodings: the pre-kernel code
/// path, handling every special value and rounding mode.
#[cold]
fn fma_row_slow(x: &Staged, xi: usize, w: &Staged, w0: usize, acc: &mut [Acc], mode: Round) {
    let a = Operand::from_bits(x.bits[xi]);
    let wb = &w.bits[w0..w0 + acc.len()];
    for (c, &b) in acc.iter_mut().zip(wb.iter()) {
        *c = fma_acc(a, Operand::from_bits(b), *c, mode);
    }
}

/// Maximum lanes per vector-kernel chunk: bounds the stack undo buffer
/// and the blast radius of a scalar redo.
const CHUNK: usize = 32;

/// Branchless vector core of [`fma_row_staged`]: attempts one chunk of at
/// most [`CHUNK`] lanes on the `f64` fast path, restoring `acc` untouched
/// and returning `false` if *any* lane falls outside the binary16
/// normal-result range.
///
/// Every lane is verified as it is computed: the sum's biased exponent
/// must sit in the binary16 normal window `[1009, 1038]` before rounding
/// and at most `1038` after the rounding carry. Zero, subnormal and
/// overflowing results fail the window, and so does every infinity or NaN
/// in any operand or accumulator (their sums carry the all-ones
/// exponent), which is why the loop needs no classification tags. The
/// loop is straight-line arithmetic over stride-8 lanes, which the
/// compiler vectorises; original accumulator values are spilled to a
/// stack buffer so a failed chunk unwinds exactly.
// modelcheck-allow: RM-FP-001 -- f64 vector fast path dispatcher; see
// `fma_chunk_fast_portable` for the bit-exactness argument.
#[inline]
fn fma_chunk_fast(a: f64, w: &[f64], acc: &mut [Acc]) -> bool {
    // The portable loop is straight-line IEEE f64 arithmetic and integer
    // bit manipulation, so recompiling it with wider vector units changes
    // which instructions execute but not a single result bit. The x86-64
    // baseline (SSE2) lacks the 64-bit vector compares the range check
    // needs, so the loop only vectorises when AVX2 is known available —
    // detected once at runtime, skipped under Miri (which interprets the
    // portable path).
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 availability is verified by the runtime detection
        // above; the function body is the safe portable loop, merely
        // compiled with the wider instruction set enabled.
        return unsafe { fma_chunk_fast_avx2(a, w, acc) };
    }
    fma_chunk_fast_portable(a, w, acc)
}

/// The portable chunk loop recompiled with AVX2 codegen enabled, so the
/// compiler auto-vectorises it four `f64` lanes wide.
// modelcheck-allow: RM-FP-001 -- identical safe code to
// `fma_chunk_fast_portable`, only the enabled instruction set differs.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn fma_chunk_fast_avx2(a: f64, w: &[f64], acc: &mut [Acc]) -> bool {
    fma_chunk_fast_portable(a, w, acc)
}

// modelcheck-allow: RM-FP-001 -- f64 vector fast path: exact 22-bit
// products, one hardware rounding per lane, innocuous double rounding to
// binary16 (module docs); locked lane-for-lane against `arith::fma` by
// the debug assertion below and the kernel differential tests.
#[inline(always)]
fn fma_chunk_fast_portable(a: f64, w: &[f64], acc: &mut [Acc]) -> bool {
    const HALF_M1: u64 = (1u64 << 41) - 1;
    const TRUNC: u64 = !((1u64 << 42) - 1);
    debug_assert!(w.len() == acc.len() && acc.len() <= CHUNK);
    let mut saved = [0.0f64; CHUNK];
    let mut ok = true;
    for ((c, &b), s) in acc.iter_mut().zip(w.iter()).zip(saved.iter_mut()) {
        *s = c.v;
        let tb = (a * b + c.v).to_bits();
        let pre = ((tb >> 52) & 0x7FF).wrapping_sub(1009);
        let rb = tb + ((tb >> 42) & 1) + HALF_M1;
        // Bitwise `&`, not `&&`: keeps the check branch-free so the loop
        // stays straight-line vector code.
        ok &= (pre <= 29) & ((rb >> 52) & 0x7FF <= 1038);
        #[cfg(debug_assertions)]
        if pre <= 29 && (rb >> 52) & 0x7FF <= 1038 {
            debug_assert_eq!(
                narrow(f64::from_bits(rb & TRUNC)),
                crate::arith::fma(narrow(a), narrow(b), narrow(c.v), Round::NearestEven),
                "vector lane drifted from scalar fma: a={a} b={b} c={}",
                c.v,
            );
        }
        c.v = f64::from_bits(rb & TRUNC);
    }
    if !ok {
        // Rare unwind: put the chunk back exactly as it was so the caller
        // can redo it on the scalar path.
        for (c, &s) in acc.iter_mut().zip(saved.iter()) {
            c.v = s;
        }
    }
    ok
}

/// Full dot-product fold: `init + sum_i x[i] * w[i]`, accumulating through
/// one FP16 rounding per step in index order — exactly
/// `fold(fma)` on the packed encodings.
pub fn dot_acc(x: &[Operand], w: &[Operand], init: Acc, mode: Round) -> Acc {
    debug_assert_eq!(x.len(), w.len());
    let mut acc = init;
    for (&a, &b) in x.iter().zip(w.iter()) {
        acc = fma_acc(a, b, acc, mode);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::fma;
    use crate::{CANONICAL_QNAN, F16};

    fn step(a: u16, b: u16, c: u16, mode: Round) -> u16 {
        fma_acc(
            Operand::from_bits(a),
            Operand::from_bits(b),
            Acc::from_bits(c),
            mode,
        )
        .to_bits()
    }

    #[test]
    fn acc_round_trips_every_non_nan_pattern() {
        for bits in 0u16..=0xFFFF {
            let acc = Acc::from_bits(bits);
            if F16::from_bits(bits).is_nan() {
                assert_eq!(acc.to_bits(), CANONICAL_QNAN);
            } else {
                assert_eq!(acc.to_bits(), bits, "bits={bits:#06x}");
            }
        }
    }

    #[test]
    fn matches_scalar_fma_on_directed_specials() {
        let specials = [
            0x0000u16, 0x8000, 0x3C00, 0xBC00, 0x0001, 0x8001, 0x03FF, 0x0400, 0x7BFF, 0xFBFF,
            0x7C00, 0xFC00, 0x7E00, 0x7C01, 0x3C01, 0x4000,
        ];
        for &a in &specials {
            for &b in &specials {
                for &c in &specials {
                    for mode in Round::ALL {
                        assert_eq!(
                            step(a, b, c, mode),
                            fma(a, b, c, mode),
                            "a={a:#06x} b={b:#06x} c={c:#06x} mode={mode:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chained_accumulation_matches_fold_of_fma() {
        // A long alternating-sign chain with cancellation, kept unpacked
        // throughout, must match feeding every intermediate through bits.
        let xs: Vec<u16> = (0..64u16).map(|i| 0x3C00 + (i * 37) % 512).collect();
        let ws: Vec<u16> = (0..64u16)
            .map(|i| (0xBC00 + (i * 91) % 512) ^ ((i & 1) << 15))
            .collect();
        for mode in Round::ALL {
            let xo: Vec<Operand> = xs.iter().map(|&v| Operand::from_bits(v)).collect();
            let wo: Vec<Operand> = ws.iter().map(|&v| Operand::from_bits(v)).collect();
            let fast = dot_acc(&xo, &wo, Acc::ZERO, mode).to_bits();
            let mut slow = 0u16;
            for (&a, &b) in xs.iter().zip(ws.iter()) {
                slow = fma(a, b, slow, mode);
            }
            assert_eq!(fast, slow, "mode={mode:?}");
        }
    }

    #[test]
    fn staged_rows_match_scalar_fma_lane_for_lane() {
        // Mixed rows: normals, zeros, subnormals, infinities, NaNs and
        // near-boundary exponents, walked as repeated broadcast steps with
        // every accumulator chain checked against fold-of-`fma`.
        let pool = [
            0x3C00u16, 0xBC00, 0x0000, 0x8000, 0x0001, 0x83FF, 0x0400, 0x7BFF, 0xFBFF, 0x7C00,
            0xFC00, 0x7E00, 0x3C01, 0x4000, 0x1400, 0x2E66,
        ];
        let n = 24;
        let k = 16;
        let xs: Vec<u16> = (0..n).map(|i| pool[(i * 7 + 3) % pool.len()]).collect();
        let ws: Vec<u16> = (0..n * k).map(|i| pool[(i * 5 + 1) % pool.len()]).collect();
        let x = Staged::from_bits_iter(xs.iter().copied());
        let w = Staged::from_bits_iter(ws.iter().copied());
        assert_eq!((x.len(), w.len()), (n, n * k));
        assert!(!x.is_empty());
        for mode in Round::ALL {
            let mut acc = vec![Acc::ZERO; k];
            let mut slow = vec![0u16; k];
            for l in 0..n {
                fma_row_staged(&x, l, &w, l * k, &mut acc, mode);
                for (j, s) in slow.iter_mut().enumerate() {
                    *s = fma(xs[l], ws[l * k + j], *s, mode);
                }
            }
            let got: Vec<u16> = acc.iter().map(|a| a.to_bits()).collect();
            assert_eq!(got, slow, "mode={mode:?}");
        }
    }

    #[test]
    fn staged_rows_handle_range_edges() {
        // Rows engineered to straddle the fast path's exponent window:
        // overflow to infinity, cancellation to zero, gradual underflow.
        let cases: [(&[u16], &[u16], u16); 3] = [
            // 60000 * 2 overflows binary16 -> +inf.
            (&[0x7BFF], &[0x4000], 0x0000),
            // 1.0 * 1.0 + (-1.0) cancels to exactly +0.
            (&[0x3C00], &[0x3C00], 0xBC00),
            // min_subnormal * 0.5 underflows onto the subnormal grid.
            (&[0x0001], &[0x3800], 0x0000),
        ];
        for (xs, ws, y0) in cases {
            let x = Staged::from_bits_iter(xs.iter().copied());
            let w = Staged::from_bits_iter(ws.iter().copied());
            let mut acc = [Acc::from_bits(y0)];
            fma_row_staged(&x, 0, &w, 0, &mut acc, Round::NearestEven);
            assert_eq!(
                acc[0].to_bits(),
                fma(xs[0], ws[0], y0, Round::NearestEven),
                "xs={xs:#06x?} ws={ws:#06x?} y0={y0:#06x}"
            );
        }
    }

    #[test]
    fn fma_row_applies_one_step_per_column() {
        let a = Operand::from_bits(0x4000); // 2.0
        let w: Vec<Operand> = [0x3C00u16, 0xBC00, 0x0000, 0x7C00]
            .iter()
            .map(|&v| Operand::from_bits(v))
            .collect();
        let mut acc = vec![Acc::from_bits(0x3800); 4]; // 0.5
        fma_row(a, &w, &mut acc, Round::NearestEven);
        let got: Vec<u16> = acc.iter().map(|a| a.to_bits()).collect();
        let want: Vec<u16> = [0x3C00u16, 0xBC00, 0x0000, 0x7C00]
            .iter()
            .map(|&b| fma(0x4000, b, 0x3800, Round::NearestEven))
            .collect();
        assert_eq!(got, want);
    }
}
