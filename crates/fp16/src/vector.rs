//! Slice-level FP16 kernels and the golden-model GEMM.
//!
//! The functions here define the *numerical contract* of the RedMulE
//! reproduction: the cycle-accurate accelerator model and the software
//! baseline must both produce results bit-identical to
//! [`gemm_golden`], because all three accumulate along the inner (`N`)
//! dimension in the same order with fused multiply-adds.

use crate::F16;

/// Element-wise maximum of each entry with zero (ReLU), preserving NaN.
pub fn relu(x: &mut [F16]) {
    for v in x.iter_mut() {
        if !v.is_nan() && v.is_sign_negative() && !v.is_zero() {
            *v = F16::ZERO;
        }
    }
}

/// Row-major matrix dimensions for [`gemm_golden`] and friends.
///
/// `Z (m x k) = X (m x n) * W (n x k)`, using the paper's naming: `X` is
/// `M x N`, `W` is `N x K`, `Z` is `M x K`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Rows of `X` and `Z`.
    pub m: usize,
    /// Columns of `X` / rows of `W` (the reduction dimension).
    pub n: usize,
    /// Columns of `W` and `Z`.
    pub k: usize,
}

impl GemmShape {
    /// Creates a shape; any dimension may be zero (producing empty outputs).
    pub const fn new(m: usize, n: usize, k: usize) -> GemmShape {
        GemmShape { m, n, k }
    }

    /// Total number of MAC operations in the multiplication, `m * n * k`.
    pub const fn macs(&self) -> u64 {
        self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Number of FP16 elements in `X`.
    pub const fn x_len(&self) -> usize {
        self.m * self.n
    }

    /// Number of FP16 elements in `W`.
    pub const fn w_len(&self) -> usize {
        self.n * self.k
    }

    /// Number of FP16 elements in `Z`.
    pub const fn z_len(&self) -> usize {
        self.m * self.k
    }

    /// Total FP16 memory footprint in bytes (`X + W + Z`).
    pub const fn footprint_bytes(&self) -> usize {
        2 * (self.x_len() + self.w_len() + self.z_len())
    }

    /// The shape's operand element counts and the bytes its staged TCDM
    /// workspace needs with `elem_bytes`-wide elements, or `None` when the
    /// shape is too large to run: a count overflows `usize`, or the
    /// workspace (`elem_bytes * (x + w + z)` plus 256 bytes of slack) does
    /// not fit the TCDM's 32-bit address space.
    ///
    /// Every entry point that accepts a caller's shape checks it here
    /// first, so oversized shapes get a typed error — the same one on
    /// every backend — before anything multiplies unchecked.
    ///
    /// ```
    /// use redmule_fp16::vector::GemmShape;
    /// let sizes = GemmShape::new(2, 3, 4).checked_sizes(2).expect("small shape");
    /// assert_eq!((sizes.x_len, sizes.w_len, sizes.z_len), (6, 12, 8));
    /// assert_eq!(sizes.workspace_bytes, 2 * 26 + 256);
    /// assert!(GemmShape::new(1 << 31, 0, 1 << 31).checked_sizes(2).is_none());
    /// ```
    pub fn checked_sizes(&self, elem_bytes: usize) -> Option<GemmSizes> {
        let x_len = self.m.checked_mul(self.n)?;
        let w_len = self.n.checked_mul(self.k)?;
        let z_len = self.m.checked_mul(self.k)?;
        let workspace_bytes = x_len
            .checked_add(w_len)?
            .checked_add(z_len)?
            .checked_mul(elem_bytes)?
            .checked_add(WORKSPACE_SLACK_BYTES)?;
        (workspace_bytes as u64 <= 1 << 32).then_some(GemmSizes {
            x_len,
            w_len,
            z_len,
            workspace_bytes,
        })
    }
}

/// Bytes a staged workspace reserves past its operands.
const WORKSPACE_SLACK_BYTES: usize = 256;

/// The sizes of a shape that passed [`GemmShape::checked_sizes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmSizes {
    /// Elements of `X` (`m * n`).
    pub x_len: usize,
    /// Elements of `W` (`n * k`).
    pub w_len: usize,
    /// Elements of `Z`, and of `Y` when accumulating (`m * k`).
    pub z_len: usize,
    /// Bytes of the staged TCDM workspace; at most 2^32.
    pub workspace_bytes: usize,
}

impl std::fmt::Display for GemmShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}x{}] * [{}x{}]", self.m, self.n, self.n, self.k)
    }
}

/// Golden-model GEMM: `Z = X * W` with sequential FMA accumulation over `N`.
///
/// Matrices are row-major. Every simulated execution path (accelerator
/// datapath, software baseline) must be bit-identical to this function.
///
/// # Panics
///
/// Panics if slice lengths do not match `shape`.
///
/// # Example
///
/// ```
/// use redmule_fp16::{F16, vector::{gemm_golden, GemmShape}};
/// let shape = GemmShape::new(2, 2, 2);
/// let x = vec![F16::ONE; 4];
/// let w = vec![F16::TWO; 4];
/// let z = gemm_golden(shape, &x, &w);
/// assert!(z.iter().all(|v| v.to_f32() == 4.0));
/// ```
pub fn gemm_golden(shape: GemmShape, x: &[F16], w: &[F16]) -> Vec<F16> {
    gemm_golden_accumulate(shape, x, w, None)
}

/// Golden-model GEMM with an optional initial accumulator: `Z = X * W + Y`.
///
/// When `y` is `Some`, each output element starts from the corresponding `Y`
/// element instead of zero — RedMulE's "Z += X·W" accumulate mode (the
/// journal follow-up's GEMM extension).
///
/// # Panics
///
/// Panics if slice lengths do not match `shape`.
pub fn gemm_golden_accumulate(
    shape: GemmShape,
    x: &[F16],
    w: &[F16],
    y: Option<&[F16]>,
) -> Vec<F16> {
    assert_eq!(x.len(), shape.x_len(), "X has wrong length for {shape}");
    assert_eq!(w.len(), shape.w_len(), "W has wrong length for {shape}");
    if let Some(y) = y {
        assert_eq!(y.len(), shape.z_len(), "Y has wrong length for {shape}");
    }
    let mut z = vec![F16::ZERO; shape.z_len()];
    for i in 0..shape.m {
        for j in 0..shape.k {
            let mut acc = y.map_or(F16::ZERO, |y| y[i * shape.k + j]);
            for l in 0..shape.n {
                acc = x[i * shape.n + l].mul_add(w[l * shape.k + j], acc);
            }
            z[i * shape.k + j] = acc;
        }
    }
    z
}

/// Golden model for the **SIMD-2** software kernel (`vfmac.h`-style):
/// even and odd reduction indices accumulate in separate lanes that are
/// added once at the end, with a scalar tail when `N` is odd.
///
/// This is a *different numerical contract* than [`gemm_golden`] (lane
/// splitting changes the FP16 accumulation order); the SIMD baseline
/// variant in `redmule-cluster` is verified against this function.
///
/// # Panics
///
/// Panics if slice lengths do not match `shape`.
///
/// # Example
///
/// ```
/// use redmule_fp16::{F16, vector::{gemm_golden_simd2, GemmShape}};
/// let shape = GemmShape::new(1, 4, 1);
/// let x = vec![F16::ONE; 4];
/// let w = vec![F16::TWO; 4];
/// assert_eq!(gemm_golden_simd2(shape, &x, &w)[0].to_f32(), 8.0);
/// ```
// modelcheck-allow: RM-DEAD-001 -- golden model that the cluster's SIMD-2
// baseline kernel is verified against, from its unit tests only.
pub fn gemm_golden_simd2(shape: GemmShape, x: &[F16], w: &[F16]) -> Vec<F16> {
    assert_eq!(x.len(), shape.x_len(), "X has wrong length for {shape}");
    assert_eq!(w.len(), shape.w_len(), "W has wrong length for {shape}");
    let mut z = vec![F16::ZERO; shape.z_len()];
    for i in 0..shape.m {
        for j in 0..shape.k {
            let pairs = shape.n / 2;
            let mut acc0 = F16::ZERO;
            let mut acc1 = F16::ZERO;
            for p in 0..pairs {
                let l = 2 * p;
                acc0 = x[i * shape.n + l].mul_add(w[l * shape.k + j], acc0);
                acc1 = x[i * shape.n + l + 1].mul_add(w[(l + 1) * shape.k + j], acc1);
            }
            let mut acc = acc0 + acc1;
            if shape.n % 2 == 1 {
                let l = shape.n - 1;
                acc = x[i * shape.n + l].mul_add(w[l * shape.k + j], acc);
            }
            z[i * shape.k + j] = acc;
        }
    }
    z
}

/// Transposes a row-major `rows x cols` matrix.
///
/// # Panics
///
/// Panics if `data.len() != rows * cols`.
pub fn transpose(data: &[F16], rows: usize, cols: usize) -> Vec<F16> {
    assert_eq!(data.len(), rows * cols, "transpose dimensions mismatch");
    let mut out = vec![F16::ZERO; data.len()];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = data[r * cols + c];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(v: f32) -> F16 {
        F16::from_f32(v)
    }

    #[test]
    fn relu_zeroes_negatives_only() {
        let mut v = [f(-2.0), f(3.0), F16::NEG_ZERO, F16::NAN, F16::NEG_INFINITY];
        relu(&mut v);
        assert_eq!(v[0], F16::ZERO);
        assert_eq!(v[1], f(3.0));
        // -0 is not negative-valued; ReLU(x) = max(x, 0) keeps it as zero.
        assert!(v[2].is_zero());
        assert!(v[3].is_nan());
        assert_eq!(v[4], F16::ZERO);
    }

    #[test]
    fn shape_accounting() {
        let s = GemmShape::new(3, 4, 5);
        assert_eq!(s.macs(), 60);
        assert_eq!(s.x_len(), 12);
        assert_eq!(s.w_len(), 20);
        assert_eq!(s.z_len(), 15);
        assert_eq!(s.footprint_bytes(), 2 * (12 + 20 + 15));
        assert_eq!(s.to_string(), "[3x4] * [4x5]");
    }

    #[test]
    fn gemm_identity() {
        // X * I = X for a 3x3 identity.
        let shape = GemmShape::new(2, 3, 3);
        let x: Vec<F16> = (1..=6).map(|v| f(v as f32)).collect();
        let mut w = vec![F16::ZERO; 9];
        for i in 0..3 {
            w[i * 3 + i] = F16::ONE;
        }
        assert_eq!(gemm_golden(shape, &x, &w), x);
    }

    #[test]
    fn gemm_known_values() {
        // [[1,2],[3,4]] * [[5,6],[7,8]] = [[19,22],[43,50]]
        let shape = GemmShape::new(2, 2, 2);
        let x: Vec<F16> = [1.0, 2.0, 3.0, 4.0].iter().map(|&v| f(v)).collect();
        let w: Vec<F16> = [5.0, 6.0, 7.0, 8.0].iter().map(|&v| f(v)).collect();
        let z = gemm_golden(shape, &x, &w);
        let expect = [19.0, 22.0, 43.0, 50.0];
        for (zi, &e) in z.iter().zip(&expect) {
            assert_eq!(zi.to_f32(), e);
        }
    }

    #[test]
    fn gemm_zero_dimensions_produce_empty_or_zero() {
        let z = gemm_golden(GemmShape::new(0, 4, 4), &[], &[F16::ONE; 16]);
        assert!(z.is_empty());
        // n = 0: inner loop is empty, so Z is all zeros.
        let z = gemm_golden(GemmShape::new(2, 0, 2), &[], &[]);
        assert_eq!(z, vec![F16::ZERO; 4]);
    }

    #[test]
    fn gemm_accumulate_starts_from_y() {
        let shape = GemmShape::new(1, 1, 1);
        let z = gemm_golden_accumulate(shape, &[f(3.0)], &[f(4.0)], Some(&[f(100.0)]));
        assert_eq!(z[0].to_f32(), 112.0);
    }

    #[test]
    #[should_panic(expected = "X has wrong length")]
    fn gemm_validates_input_lengths() {
        let _ = gemm_golden(GemmShape::new(2, 2, 2), &[F16::ONE], &[F16::ONE; 4]);
    }

    #[test]
    fn transpose_round_trips() {
        let data: Vec<F16> = (0..12).map(|v| f(v as f32)).collect();
        let t = transpose(&data, 3, 4);
        assert_eq!(transpose(&t, 4, 3), data);
        assert_eq!(t[0], data[0]);
        assert_eq!(t[1], data[4]); // (1,0) of original
    }

    #[test]
    fn simd2_golden_differs_only_by_lane_order() {
        // Values close to the FP16 precision edge expose the order change.
        let shape = GemmShape::new(2, 9, 3);
        let x: Vec<F16> = (0..shape.x_len())
            .map(|i| f(1.0 + (i % 5) as f32 / 1024.0))
            .collect();
        let w: Vec<F16> = (0..shape.w_len())
            .map(|i| f(1.0 - (i % 7) as f32 / 512.0))
            .collect();
        let scalar = gemm_golden(shape, &x, &w);
        let simd = gemm_golden_simd2(shape, &x, &w);
        // Same values to ~1 ulp, though not necessarily bit-identical.
        for (a, b) in scalar.iter().zip(&simd) {
            assert!((a.to_f64() - b.to_f64()).abs() <= 2.0 * 2f64.powi(-10) * a.to_f64().abs());
        }
    }

    #[test]
    fn simd2_golden_even_and_odd_n() {
        // Exact small cases, computable by hand.
        let x: Vec<F16> = [1.0, 2.0, 3.0, 4.0, 5.0].iter().map(|&v| f(v)).collect();
        let w: Vec<F16> = [1.0; 5].iter().map(|&v| f(v)).collect();
        // n = 4: lanes (1+3) and (2+4) -> 10.
        let z = gemm_golden_simd2(GemmShape::new(1, 4, 1), &x[..4], &w[..4]);
        assert_eq!(z[0].to_f32(), 10.0);
        // n = 5: lanes then tail 5 -> 15.
        let z = gemm_golden_simd2(GemmShape::new(1, 5, 1), &x, &w);
        assert_eq!(z[0].to_f32(), 15.0);
        // n = 1: pure tail.
        let z = gemm_golden_simd2(GemmShape::new(1, 1, 1), &x[..1], &w[..1]);
        assert_eq!(z[0].to_f32(), 1.0);
        // n = 0: zero.
        let z = gemm_golden_simd2(GemmShape::new(1, 0, 1), &[], &[]);
        assert_eq!(z[0], F16::ZERO);
    }

    /// GEMM computed entirely in `f64` and rounded once at the end — a
    /// *different* (more accurate) contract than [`gemm_golden`], to bound
    /// FP16 accumulation error rather than to check bit-identity.
    fn gemm_f64_reference(shape: GemmShape, x: &[F16], w: &[F16]) -> Vec<F16> {
        assert_eq!(x.len(), shape.x_len(), "X has wrong length for {shape}");
        assert_eq!(w.len(), shape.w_len(), "W has wrong length for {shape}");
        let mut z = vec![F16::ZERO; shape.z_len()];
        for i in 0..shape.m {
            for j in 0..shape.k {
                let mut acc = 0.0f64;
                for l in 0..shape.n {
                    acc += x[i * shape.n + l].to_f64() * w[l * shape.k + j].to_f64();
                }
                z[i * shape.k + j] = F16::from_f64(acc);
            }
        }
        z
    }

    #[test]
    fn fp16_accumulation_error_is_bounded_for_benign_data() {
        // For data in [0, 1) with n = 64, sequential FP16 accumulation stays
        // within a few ulps of the f64 reference.
        let shape = GemmShape::new(4, 64, 4);
        let x: Vec<F16> = (0..shape.x_len())
            .map(|i| f((i % 17) as f32 / 32.0))
            .collect();
        let w: Vec<F16> = (0..shape.w_len())
            .map(|i| f((i % 13) as f32 / 64.0))
            .collect();
        let z16 = gemm_golden(shape, &x, &w);
        let z64 = gemm_f64_reference(shape, &x, &w);
        for (a, b) in z16.iter().zip(&z64) {
            let rel = (a.to_f64() - b.to_f64()).abs() / b.to_f64().abs().max(1e-6);
            assert!(rel < 0.02, "relative error too large: {a:?} vs {b:?}");
        }
    }
}
