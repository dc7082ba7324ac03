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
//! * [`Operand`] classifies an input **once** and is reused freely.
//! * [`Acc`] keeps the running accumulator in `f64` form between FMA
//!   steps. Every step still performs the mandatory FP16 round — rounding
//!   order is the contract — but the pack-to-bits / classify-from-bits
//!   round trip between steps is gone.
//! * [`fma_acc`] dispatches on one combined tag test: the finite (zeros
//!   included) common case runs a short branch-free hardware path;
//!   infinite or NaN multiplicands fall back to the scalar softfloat `fma`
//!   on the packed encodings.
//! * [`fma_column`] is one cycle of one column of the engine's FMA array:
//!   every lane's X against the column's broadcast W, on accumulators kept
//!   as raw binary16 bits, with [`gemm_staged`]'s window check and round
//!   and a scalar [`fma_acc`] redo of any lane group that left the window.
//! * [`gemm_staged`] folds a whole band of outputs over the full
//!   reduction the way the array does: [`Staged`] operands, a register
//!   block of accumulators kept for all steps, each W-row segment loaded
//!   once per step for every row of the block, and a whole-block scalar
//!   redo in the rare case a lane leaves the range its fast rounding
//!   covers.
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
//! not taken on faith: in a debug build every `fma_acc` and every
//! in-window lane of a `gemm_staged` block re-checks itself against
//! `arith::fma`, and the release kernel is locked by the frozen FMA
//! vectors, an exhaustive-pairs differential sweep, a window-edge sweep
//! over every ragged block shape and class-aware proptests.
//!
//! The equivalence contracts:
//!
//! ```text
//! fma_acc(classify(a), classify(b), Acc::from_bits(c)).to_bits()
//!     == arith::fma(a, b, c)          for all a, b, c
//! gemm_staged(X, r0, n, W, k, Y)[r][j]
//!     == fold over l in 0..n of arith::fma(X[r0+r][l], W[l][j], ·)
//!        starting from Y[r][j]        for every element
//! fma_column(x, w, acc, out) leaves out[r]
//!     == arith::fma(x[r], w, acc[r])  for every lane, bit for bit
//! ```

use crate::arith::from_f64;

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
/// Classify once with [`Operand::from_bits`], then feed the copy to as
/// many [`fma_acc`] steps as the schedule needs.
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
            from_f64(self.v),
            "narrow diverged from from_f64 on {:#018x}",
            self.v.to_bits()
        );
        out
    }
}

/// One fused multiply-add step on pre-classified operands:
/// `a * b + acc`, rounded once, result kept unpacked.
///
/// Bit-for-bit equivalent to `arith::fma(a, b, acc)` on the packed
/// encodings — same single rounding, same NaN canonicalisation, same IEEE
/// zero- and infinity-sign rules. Debug builds assert exactly that on
/// every single call.
// modelcheck-allow: RM-FP-001 -- f64 fast path: exact 22-bit product, one
// hardware rounding, innocuous double rounding to binary16 (module docs);
// bit-exactness locked by per-call debug assertions and the exhaustive
// differential suite.
#[inline(always)]
pub fn fma_acc(a: Operand, b: Operand, acc: Acc) -> Acc {
    let out = if a.tag | b.tag <= TAG_ZERO {
        // Finite-multiplicand fast path. `a.v * b.v` is exact (22-bit
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
        fma_acc_slow(a, b, acc)
    };
    debug_assert_eq!(
        out.to_bits(),
        crate::arith::fma(a.bits, b.bits, acc.to_bits()),
        "fma_acc drifted from scalar fma: a={:#06x} b={:#06x} c={:#06x}",
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
    Acc::from_bits(from_f64(t))
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

/// Fallback for infinite and NaN multiplicands: one scalar softfloat
/// `fma` on the packed encodings. This is the exact pre-kernel code path,
/// so every NaN / infinity / signed-zero rule agrees by construction.
#[cold]
fn fma_acc_slow(a: Operand, b: Operand, acc: Acc) -> Acc {
    Acc::from_bits(crate::arith::fma(a.bits, b.bits, acc.to_bits()))
}

/// An operand matrix staged in structure-of-arrays form: the exact `f64`
/// widening of every element for the block kernel's fast path, plus the
/// original packed encodings for its scalar fallback.
///
/// Built once per matrix with [`Staged::from_bits_iter`] and consumed by
/// [`gemm_staged`], which reads contiguous row segments of it. Unlike
/// [`Operand`] rows, the value lane is a flat `f64` array — stride 8, no
/// tags interleaved — which is what lets the compiler vectorise the
/// register block.
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

/// Output rows of one register block: the rows that share each W-row
/// segment.
const BR: usize = 4;
/// Output columns of one register block: two 4-lane AVX2 vectors.
const BC: usize = 8;

/// Magnitude bits of 2^-14, binary16's smallest normal: the window's
/// lower bound.
const WIN_MIN: u64 = 0x3F10_0000_0000_0000;
/// Magnitude bits of 65520, the window's exclusive upper bound: the
/// midpoint between 65504 (binary16's largest finite) and 2^16, which
/// round-to-nearest-even ties up to infinity.
const WIN_LIMIT: u64 = 0x40EF_FE00_0000_0000;

/// The sign bit of an `f64` encoding.
const SIGN: u64 = 1 << 63;

/// One lane's window verdict and round-to-nearest-even: given the
/// unrounded `f64` sum `t`, returns `(out, rb)`.
///
/// The sign bit of `out` is set iff the lane is outside the window:
/// nonzero below 2^-14 (first term), or at least 65520 (second), which
/// covers infinity and NaN. Integer subtract, and-not and or keep the
/// check one vector word per lane.
///
/// `rb` is `t` with its 52-bit fraction rounded in place to binary16's 10
/// fraction bits (kept lsb at bit 42, round bit at 41, sticky below):
/// adding `lsb + (half - 1)` carries into bit 42 exactly when the
/// discarded fraction exceeds half an ulp, or equals it with an odd kept
/// lsb, and a significand carry ripples into the exponent as IEEE
/// renormalisation requires. Exact zeros pass through unchanged, with the
/// IEEE zero-sum sign the hardware addition gave them. Inside the window,
/// `rb` encodes the binary16 result.
// modelcheck-allow: RM-FP-001 -- reads the bits of the f64 fast-path sum;
// the window check and the round are integer operations on them.
#[inline(always)]
fn round_lane(t: f64) -> (u64, u64) {
    const HALF_M1: u64 = (1u64 << 41) - 1;
    const TRUNC: u64 = !((1u64 << 42) - 1);
    let tb = t.to_bits();
    let mag = tb & !SIGN;
    let out =
        (mag.wrapping_sub(WIN_MIN) & !mag.wrapping_sub(1)) | (WIN_LIMIT - 1).wrapping_sub(mag);
    let rb = tb.wrapping_add(((tb >> 42) & 1) + HALF_M1) & TRUNC;
    (out, rb)
}

/// The operands of one band: everything the blocks read but the
/// accumulators.
#[derive(Clone, Copy)]
struct Band<'a> {
    x: &'a Staged,
    x_row0: usize,
    n: usize,
    w: &'a Staged,
    k: usize,
}

/// One register block of a band: `rows_live x cols_live` outputs at
/// band row `r0`, column `c0`.
#[derive(Clone, Copy)]
struct Block {
    r0: usize,
    rows_live: usize,
    c0: usize,
    cols_live: usize,
}

/// Folds a whole band of GEMM outputs over the full reduction under
/// round-to-nearest-even: for every band row `r` (`acc.len() / k` of
/// them) and column `j`,
/// `acc[r*k + j] = fma(x[x_row0+r][n-1], w[n-1][j], … fma(x[x_row0+r][0], w[0][j], acc[r*k + j]))`,
/// rounded to binary16 after every step — bit for bit the scalar fold of
/// `arith::fma` per element.
///
/// `x` is a staged row-major X with `n` columns (the band's rows start at
/// `x_row0`), `w` the staged row-major `n x k` W, and `acc` the band's
/// `rows x k` accumulators: the initial values (`Y`, or zeros) on entry,
/// the results on return.
///
/// The band is cut into `4 x 8` register blocks, the FMA array's
/// broadcast pattern in miniature. A block's accumulators live in a
/// local array for all `n` steps; each step loads the block's W-row
/// segment once and uses it for all four rows. Per lane, the unrounded
/// `f64` sum is checked against the window — an exact zero, or a
/// magnitude in `[2^-14, 65520)` — where rounding at bit 42 is the
/// binary16 result; one integer word per column collects the verdicts.
/// If any live lane ever left the window, the block is redone on the
/// scalar [`fma_acc`] from its initial accumulators, which stay untouched
/// in `acc` until the block succeeds.
///
/// # Panics
///
/// If `acc` does not hold whole rows of `k`, `w` holds fewer than `n`
/// rows of `k`, or `x` ends before the band's last row.
pub fn gemm_staged(x: &Staged, x_row0: usize, n: usize, w: &Staged, k: usize, acc: &mut [Acc]) {
    if k == 0 {
        return;
    }
    assert!(
        acc.len().is_multiple_of(k) && w.len() / k >= n,
        "gemm_staged: {} accumulators or {} W elements do not fit k = {k}, n = {n}",
        acc.len(),
        w.len()
    );
    let band = Band { x, x_row0, n, w, k };
    // The portable body is straight-line IEEE f64 arithmetic and integer
    // bit manipulation, so recompiling it with wider vector units changes
    // which instructions execute but not a single result bit. The x86-64
    // baseline (SSE2) lacks the 64-bit vector arithmetic the window check
    // vectorises to, so the blocks only run 4 lanes wide when AVX2 is
    // known available — detected at runtime once per band, skipped under
    // Miri (which interprets the portable path).
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 availability is verified by the runtime detection
        // above; the function body is the safe portable walk, merely
        // compiled with the wider instruction set enabled.
        return unsafe { gemm_staged_avx2(band, acc) };
    }
    gemm_staged_portable(band, acc);
}

/// The portable band walk recompiled with AVX2 codegen enabled, so the
/// compiler vectorises each block row four `f64` lanes wide.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn gemm_staged_avx2(band: Band<'_>, acc: &mut [Acc]) {
    gemm_staged_portable(band, acc);
}

#[inline(always)]
fn gemm_staged_portable(band: Band<'_>, acc: &mut [Acc]) {
    let rows = acc.len() / band.k;
    for r0 in (0..rows).step_by(BR) {
        for c0 in (0..band.k).step_by(BC) {
            let blk = Block {
                r0,
                rows_live: BR.min(rows - r0),
                c0,
                cols_live: BC.min(band.k - c0),
            };
            // Full-width blocks load their W segment as one fixed-size
            // array; a variable-length copy would cost a `memcpy` call
            // per step.
            let done = if blk.cols_live == BC {
                block_fast::<true>(band, acc, blk)
            } else {
                block_fast::<false>(band, acc, blk)
            };
            if !done {
                block_scalar(band, acc, blk);
            }
        }
    }
}

/// The block's fast path: all `n` steps in registers, then one
/// write-back. Returns `false`, leaving `acc` untouched, if any live lane
/// left the window at any step.
///
/// Missing rows of a ragged block alias the last live row — same
/// operands, same initial accumulators, so the same verdicts. Missing
/// columns are `+0.0` lanes: a finite X element keeps them at `+0`,
/// which is in the window, and an infinite or NaN one also throws every
/// live lane of its row out of it. The results of both are discarded.
// modelcheck-allow: RM-FP-001 -- f64 vector fast path: exact 22-bit
// products, one hardware rounding per lane, innocuous double rounding to
// binary16 inside the window (module docs); locked lane-for-lane against
// `arith::fma` by the debug assertion below and the kernel differential
// tests.
#[inline(always)]
fn block_fast<const FULL: bool>(band: Band<'_>, acc: &mut [Acc], blk: Block) -> bool {
    let Band { x, x_row0, n, w, k } = band;
    let Block {
        r0,
        rows_live,
        c0,
        cols_live,
    } = blk;
    // A constant width lets full blocks load and store their accumulators
    // without a `memcpy` call.
    let cols_live = if FULL { BC } else { cols_live };
    let row = |i: usize| r0 + i.min(rows_live - 1);
    let xr: [&[f64]; BR] = std::array::from_fn(|i| &x.vals[(x_row0 + row(i)) * n..][..n]);
    let mut z = [[0.0; BC]; BR];
    for (i, zrow) in z.iter_mut().enumerate() {
        for (zv, a) in zrow.iter_mut().zip(&acc[row(i) * k + c0..][..cols_live]) {
            *zv = a.v;
        }
    }
    // One word per column; a set sign bit means some lane of the column
    // left the window at some step.
    let mut flags = [0u64; BC];
    #[cfg(debug_assertions)]
    let mut clean = [[true; BC]; BR];
    for (l, wrow) in w.vals.chunks_exact(k).take(n).enumerate() {
        let seg: [f64; BC] = if FULL {
            let s = &wrow[c0..][..BC];
            std::array::from_fn(|j| s[j])
        } else {
            let s = &wrow[c0..][..cols_live];
            std::array::from_fn(|j| if j < cols_live { s[j] } else { 0.0 })
        };
        for (i, zrow) in z.iter_mut().enumerate() {
            let a = xr[i][l];
            for (j, zv) in zrow.iter_mut().enumerate() {
                let (out, rb) = round_lane(a * seg[j] + *zv);
                flags[j] |= out;
                #[cfg(debug_assertions)]
                {
                    let inside = out & SIGN == 0;
                    if clean[i][j] && inside && i < rows_live && j < cols_live {
                        debug_assert_eq!(
                            narrow(f64::from_bits(rb)),
                            crate::arith::fma(narrow(a), narrow(seg[j]), narrow(*zv)),
                            "block lane drifted from scalar fma: a={a} b={} c={}",
                            seg[j],
                            *zv,
                        );
                    }
                    clean[i][j] &= inside;
                }
                *zv = f64::from_bits(rb);
            }
        }
    }
    if flags.iter().fold(0, |f, &g| f | g) & SIGN != 0 {
        return false;
    }
    for (i, zrow) in z.iter().enumerate().take(rows_live) {
        for (a, &zv) in acc[(r0 + i) * k + c0..][..cols_live].iter_mut().zip(zrow) {
            a.v = zv;
        }
    }
    true
}

/// Scalar redo of one block on the packed encodings, from the initial
/// accumulators still in `acc`: every special value and range edge goes
/// through [`fma_acc`]'s own checks.
#[cold]
#[inline(never)]
fn block_scalar(band: Band<'_>, acc: &mut [Acc], blk: Block) {
    let Band { x, x_row0, n, w, k } = band;
    for r in blk.r0..blk.r0 + blk.rows_live {
        let xrow = &x.bits[(x_row0 + r) * n..][..n];
        for j in blk.c0..blk.c0 + blk.cols_live {
            let mut c = acc[r * k + j];
            for (l, &a) in xrow.iter().enumerate() {
                let b = Operand::from_bits(w.bits[l * k + j]);
                c = fma_acc(Operand::from_bits(a), b, c);
            }
            acc[r * k + j] = c;
        }
    }
}

/// Lanes the column step computes as one group: the paper's `L = 8` rows,
/// two 256-bit AVX2 registers of `f64`.
const CW: usize = 8;

/// One FMA step down a column of the engine's array under
/// round-to-nearest-even: `out[r] = fma(x[r], w, acc[r])` for every lane
/// `r`, on raw binary16 bits — bit for bit `arith::fma` per lane.
///
/// Each lane widens its X element and its accumulator exactly to `f64`,
/// computes `x·w + acc` there (an exact product and one hardware rounding
/// of the sum), takes the same window check and in-place round as
/// [`gemm_staged`]'s blocks, and narrows back to bits, eight lanes at a
/// time (a short last group pads with `+0` lanes whose results are
/// discarded). If any lane left the window — a result in the subnormal
/// range or past the largest finite value, or an infinite or NaN operand
/// — the whole column is redone lane by lane on the scalar [`fma_acc`]
/// from `acc`, which the fast pass never writes.
///
/// The accumulator bits are taken as they are: a non-canonical NaN (a
/// struck pipeline register) yields the canonical NaN, as in `arith::fma`.
/// Debug builds assert every lane of a fast column against `arith::fma`.
///
/// # Panics
///
/// If `x`, `acc` and `out` differ in length.
pub fn fma_column(x: &[u16], w: u16, acc: &[u16], out: &mut [u16]) {
    assert!(
        x.len() == acc.len() && acc.len() == out.len(),
        "fma_column: one X operand, accumulator and result per lane"
    );
    // The same dispatch as `gemm_staged`: the portable body recompiled
    // with AVX2 computes the same bits, four lanes per instruction.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 availability is verified by the runtime detection
        // above; the function body is the safe portable step, merely
        // compiled with the wider instruction set enabled.
        return unsafe { fma_column_avx2(x, w, acc, out) };
    }
    fma_column_portable(x, w, acc, out);
}

/// The portable column step recompiled with AVX2 codegen enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn fma_column_avx2(x: &[u16], w: u16, acc: &[u16], out: &mut [u16]) {
    fma_column_portable(x, w, acc, out);
}

#[inline(always)]
fn fma_column_portable(x: &[u16], w: u16, acc: &[u16], out: &mut [u16]) {
    let wv = widen_lane(w);
    let (xg, xt) = x.as_chunks::<CW>();
    let (ag, at) = acc.as_chunks::<CW>();
    let (og, ot) = out.as_chunks_mut::<CW>();
    // The fast path writes every group's results, the inputs stay intact,
    // and one word collects the window verdicts.
    let mut flags = 0;
    for ((xs, cs), zs) in xg.iter().zip(ag).zip(og) {
        flags |= group_fast(xs, wv, cs, zs);
    }
    if !xt.is_empty() {
        let pad = |s: &[u16]| -> [u16; CW] { std::array::from_fn(|j| s.get(j).map_or(0, |&b| b)) };
        let mut z = [0; CW];
        flags |= group_fast(&pad(xt), wv, &pad(at), &mut z);
        ot.copy_from_slice(&z[..ot.len()]);
    }
    if flags & SIGN == 0 {
        debug_check_lanes(x, w, acc, out);
    } else {
        lanes_scalar(x, w, acc, out);
    }
}

/// The fast path of one lane group: writes the rounded bits of every lane
/// and returns the or of the lanes' window verdicts (sign bit set if any
/// lane left the window, whose results are then not binary16 results).
// modelcheck-allow: RM-FP-001 -- f64 fast path: exact 22-bit products, one
// hardware rounding per lane, innocuous double rounding to binary16 inside
// the window (module docs); locked lane for lane against `arith::fma` by
// the debug check and the column differential tests.
#[inline(always)]
fn group_fast(x: &[u16; CW], w: f64, acc: &[u16; CW], out: &mut [u16; CW]) -> u64 {
    let mut flags = 0u64;
    for ((z, &a), &c) in out.iter_mut().zip(x).zip(acc) {
        let (o, rb) = round_lane(widen_lane(a) * w + widen_lane(c));
        flags |= o;
        *z = narrow_lane(rb);
    }
    flags
}

/// Debug builds: every lane of a fast column equals `arith::fma` on the
/// raw bits.
#[inline(always)]
fn debug_check_lanes(x: &[u16], w: u16, acc: &[u16], out: &[u16]) {
    for ((&a, &c), &z) in x.iter().zip(acc).zip(out) {
        debug_assert_eq!(
            z,
            crate::arith::fma(a, w, c),
            "column lane drifted from scalar fma: x={a:#06x} w={w:#06x} acc={c:#06x}"
        );
    }
}

/// Scalar redo of a column on the packed encodings: every special value
/// and range edge goes through [`fma_acc`]'s own checks.
#[cold]
#[inline(never)]
fn lanes_scalar(x: &[u16], w: u16, acc: &[u16], out: &mut [u16]) {
    let b = Operand::from_bits(w);
    for ((&a, &c), z) in x.iter().zip(acc).zip(out) {
        *z = fma_acc(Operand::from_bits(a), b, Acc::from_bits(c)).to_bits();
    }
}

/// Exact widening of a binary16 bit pattern to `f64` without a branch,
/// by [`widen`]'s rescale: the halfword's sign, exponent and fraction
/// moved into an `f32` encoding (sign-extended, then masked) are the value
/// times 2^-112, so one power-of-two multiply gives every finite value
/// exactly (a binary16 subnormal starts as an `f32` subnormal) and the
/// `f32 -> f64` widening is lossless; infinities and NaNs select the
/// all-ones `f32` exponent instead.
// modelcheck-allow: RM-FP-001 -- lossless binary16 -> f64 widening by an
// exact power-of-two rescale; locked by the column differential tests.
#[inline(always)]
fn widen_lane(bits: u16) -> f64 {
    let moved = ((i32::from(bits as i16) << 13) as u32) & 0x8FFF_E000;
    let v = if moved & 0x0F80_0000 == 0x0F80_0000 {
        f32::from_bits(moved | 0x7F80_0000)
    } else {
        f32::from_bits(moved) * f32::from_bits(0x7780_0000)
    };
    f64::from(v)
}

/// The binary16 encoding of an in-window rounded lane (an exact zero or a
/// normal binary16 value): narrowed to `f32`, which is exact, its
/// magnitude's top bits rebiased from the `f32` exponent to binary16's.
/// Lanes outside the window yield bits the callers discard.
// modelcheck-allow: RM-FP-001 -- exact f64 -> f32 narrowing of a value
// already rounded to binary16; the re-encoding is integer arithmetic.
#[inline(always)]
fn narrow_lane(rb: u64) -> u16 {
    let fb = (f64::from_bits(rb) as f32).to_bits();
    let mag = fb & 0x7FFF_FFFF;
    let m = if mag == 0 {
        0
    } else {
        (mag >> 13).wrapping_sub(112 << 10)
    };
    ((fb >> 16) & 0x8000 | m) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::fma;
    use crate::{CANONICAL_QNAN, F16};

    fn step(a: u16, b: u16, c: u16) -> u16 {
        fma_acc(
            Operand::from_bits(a),
            Operand::from_bits(b),
            Acc::from_bits(c),
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
                    assert_eq!(
                        step(a, b, c),
                        fma(a, b, c),
                        "a={a:#06x} b={b:#06x} c={c:#06x}"
                    );
                }
            }
        }
    }

    /// Runs `gemm_staged` on a fresh band: X is `rows x n`, W is `n x k`,
    /// the accumulators start from `y`.
    fn band(xs: &[u16], n: usize, ws: &[u16], k: usize, y: &[u16]) -> Vec<u16> {
        let x = Staged::from_bits_iter(xs.iter().copied());
        let w = Staged::from_bits_iter(ws.iter().copied());
        let mut acc: Vec<Acc> = y.iter().map(|&b| Acc::from_bits(b)).collect();
        gemm_staged(&x, 0, n, &w, k, &mut acc);
        acc.iter().map(|a| a.to_bits()).collect()
    }

    /// The scalar reference: each output folds `fma` over the reduction.
    fn fold(xs: &[u16], n: usize, ws: &[u16], k: usize, y: &[u16]) -> Vec<u16> {
        let mut z = y.to_vec();
        for (idx, zv) in z.iter_mut().enumerate() {
            let (r, j) = (idx / k, idx % k);
            for l in 0..n {
                *zv = fma(xs[r * n + l], ws[l * k + j], *zv);
            }
        }
        z
    }

    #[test]
    fn chained_accumulation_matches_fold_of_fma() {
        // A long alternating-sign chain with cancellation, kept unpacked
        // throughout, must match feeding every intermediate through bits:
        // through `fma_acc`, and as a one-element band through
        // `gemm_staged`.
        let xs: Vec<u16> = (0..64u16).map(|i| 0x3C00 + (i * 37) % 512).collect();
        let ws: Vec<u16> = (0..64u16)
            .map(|i| (0xBC00 + (i * 91) % 512) ^ ((i & 1) << 15))
            .collect();
        let mut fast = Acc::ZERO;
        for (&a, &b) in xs.iter().zip(ws.iter()) {
            fast = fma_acc(Operand::from_bits(a), Operand::from_bits(b), fast);
        }
        let mut slow = 0u16;
        for (&a, &b) in xs.iter().zip(ws.iter()) {
            slow = fma(a, b, slow);
        }
        assert_eq!(fast.to_bits(), slow);
        assert_eq!(band(&xs, 64, &ws, 1, &[0]), [slow]);
    }

    #[test]
    fn staged_rows_match_scalar_fma_lane_for_lane() {
        // Mixed operands: normals, zeros, subnormals, infinities, NaNs and
        // near-boundary exponents, folded as one ragged band (two row
        // blocks, the second one row high) with every accumulator chain
        // checked against fold-of-`fma`.
        let pool = [
            0x3C00u16, 0xBC00, 0x0000, 0x8000, 0x0001, 0x83FF, 0x0400, 0x7BFF, 0xFBFF, 0x7C00,
            0xFC00, 0x7E00, 0x3C01, 0x4000, 0x1400, 0x2E66,
        ];
        let (m, n, k) = (5, 24, 16);
        let xs: Vec<u16> = (0..m * n).map(|i| pool[(i * 7 + 3) % pool.len()]).collect();
        let ws: Vec<u16> = (0..n * k).map(|i| pool[(i * 5 + 1) % pool.len()]).collect();
        let x = Staged::from_bits_iter(xs.iter().copied());
        assert_eq!(x.len(), m * n);
        assert!(!x.is_empty());
        let y = vec![0u16; m * k];
        assert_eq!(band(&xs, n, &ws, k, &y), fold(&xs, n, &ws, k, &y));
    }

    #[test]
    fn staged_rows_handle_range_edges() {
        // Bands engineered to straddle the fast path's window: overflow
        // to infinity, cancellation to zero, gradual underflow.
        let cases: [(u16, u16, u16); 3] = [
            // 60000 * 2 overflows binary16 -> +inf.
            (0x7BFF, 0x4000, 0x0000),
            // 1.0 * 1.0 + (-1.0) cancels to exactly +0.
            (0x3C00, 0x3C00, 0xBC00),
            // min_subnormal * 0.5 underflows onto the subnormal grid.
            (0x0001, 0x3800, 0x0000),
        ];
        for (a, b, y0) in cases {
            assert_eq!(
                band(&[a], 1, &[b], 1, &[y0]),
                [fma(a, b, y0)],
                "a={a:#06x} b={b:#06x} y0={y0:#06x}"
            );
        }
    }

    #[test]
    fn fma_row_applies_one_step_per_column() {
        // One X element broadcast against a W row: one step per column.
        let ws = [0x3C00u16, 0xBC00, 0x0000, 0x7C00];
        let got = band(&[0x4000], 1, &ws, 4, &[0x3800; 4]); // 2.0, 0.5
        let want: Vec<u16> = ws.iter().map(|&b| fma(0x4000, b, 0x3800)).collect();
        assert_eq!(got, want);
    }
}
