//! A minimal row-major FP16 matrix.

use redmule_fp16::F16;
use std::fmt;

/// A dense, row-major `rows x cols` FP16 matrix.
///
/// Activations in this crate use the *features-as-rows* convention
/// (`features x batch`), matching the GEMM orientation the paper uses
/// (`K = B` in forward passes).
///
/// # Example
///
/// ```
/// use redmule_nn::Tensor;
///
/// let t = Tensor::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(t.get(1, 2).to_f32(), 5.0);
/// assert_eq!(t.transposed().get(2, 1).to_f32(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<F16>,
}

impl Tensor {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor {
            rows,
            cols,
            data: vec![F16::ZERO; rows * cols],
        }
    }

    /// Builds a matrix element-wise from `f(row, col)` (values rounded to
    /// FP16).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Tensor {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(F16::from_f32(f(r, c)));
            }
        }
        Tensor { rows, cols, data }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<F16>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "buffer does not match dimensions");
        Tensor { rows, cols, data }
    }

    /// Deterministic uniform initialisation in `[-scale, scale]`
    /// (xorshift; reproducible across platforms, no external RNG).
    pub fn random(rows: usize, cols: usize, scale: f32, seed: u64) -> Tensor {
        let mut state = seed | 1;
        Tensor::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let unit = (state >> 11) as f32 / (1u64 << 53) as f32; // [0,1)
            (2.0 * unit - 1.0) * scale
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` for zero-sized matrices.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Memory footprint in bytes (2 per FP16 element).
    pub fn bytes(&self) -> usize {
        2 * self.data.len()
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, r: usize, c: usize) -> F16 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, r: usize, c: usize, v: F16) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.cols + c] = v;
    }

    /// The underlying row-major storage.
    pub fn as_slice(&self) -> &[F16] {
        &self.data
    }

    /// Mutable access to the storage.
    pub fn as_mut_slice(&mut self) -> &mut [F16] {
        &mut self.data
    }

    /// A new transposed matrix.
    pub fn transposed(&self) -> Tensor {
        Tensor {
            rows: self.cols,
            cols: self.rows,
            data: redmule_fp16::vector::transpose(&self.data, self.rows, self.cols),
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self.get(r, c).to_f32())?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut t = Tensor::zeros(2, 3);
        assert_eq!((t.rows(), t.cols(), t.len()), (2, 3, 6));
        assert_eq!(t.bytes(), 12);
        t.set(1, 2, F16::ONE);
        assert_eq!(t.get(1, 2), F16::ONE);
        assert_eq!(t.get(0, 0), F16::ZERO);
    }

    #[test]
    fn from_fn_row_major_order() {
        let t = Tensor::from_fn(2, 2, |r, c| (10 * r + c) as f32);
        let vals: Vec<f32> = t.as_slice().iter().map(|v| v.to_f32()).collect();
        assert_eq!(vals, [0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_bounds_checked() {
        let _ = Tensor::zeros(1, 1).get(0, 1);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_length_checked() {
        let _ = Tensor::from_vec(2, 2, vec![F16::ZERO; 3]);
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let tt = t.transposed();
        assert_eq!(tt.rows(), 4);
        assert_eq!(tt.get(3, 2), t.get(2, 3));
        assert_eq!(tt.transposed(), t);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = Tensor::random(8, 8, 0.5, 7);
        let b = Tensor::random(8, 8, 0.5, 7);
        let c = Tensor::random(8, 8, 0.5, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|v| v.to_f32().abs() <= 0.5));
        // Not degenerate: some spread (mean square above 1e-4).
        let sq: f64 = a.as_slice().iter().map(|v| v.to_f64() * v.to_f64()).sum();
        assert!(sq / a.len() as f64 > 1e-4);
    }

    #[test]
    fn zero_row_tensor_is_empty() {
        assert!(Tensor::zeros(0, 5).is_empty());
    }

    #[test]
    fn display_truncates_large() {
        let t = Tensor::zeros(20, 20);
        let s = t.to_string();
        assert!(s.contains("[20x20]"));
        assert!(s.contains("..."));
    }
}
