//! Bit-accurate IEEE 754 `binary16` ("FP16") software floating point.
//!
//! This crate is the numerical substrate of the RedMulE reproduction. The
//! paper's accelerator is built from FPnew fused multiply-add (FMA) units
//! operating on IEEE `binary16`; every arithmetic result produced by the
//! simulated datapath must therefore be *bit-identical* to what IEEE-compliant
//! FP16 hardware computes. Rust has no native `f16`, so this crate implements
//! the format from scratch with exact integer arithmetic:
//!
//! * [`F16`] — the 16-bit storage type with full classification,
//!   conversion, comparison and formatting support.
//! * [`arith`] — correctly rounded add/sub/mul, and crucially a
//!   correctly rounded **fused** multiply-add ([`F16::mul_add`]) with a
//!   single rounding step.
//! * [`vector`] — slice-level helpers (ReLU, transpose) and the
//!   **golden-model GEMM** ([`vector::gemm_golden`]) that the cycle-accurate
//!   accelerator model is verified against.
//! * [`E4M3`] / [`E5M2`] — bit-accurate OFP8 8-bit formats with exact
//!   widening and correctly rounded narrowing casts, and the storage
//!   [`Format`] selector for the accelerator's cast-in/cast-out datapath.
//!
//! # Fidelity notes
//!
//! * Subnormals are fully supported (FPnew in the PULP cluster configuration
//!   does not flush to zero for FP16).
//! * All NaN results are canonicalised to the quiet NaN `0x7E00`, matching
//!   FPnew's NaN-boxing-free canonical output.
//! * Every operation rounds to nearest, ties to even: the one mode the
//!   accelerator's FMA array and castout stage use (FPnew's `frm = 000`).
//!   Overflow therefore goes to ±infinity and an exact zero sum of
//!   opposite-signed terms is `+0`.
//!
//! # Example
//!
//! ```
//! use redmule_fp16::F16;
//!
//! let a = F16::from_f32(1.5);
//! let b = F16::from_f32(2.25);
//! let c = F16::from_f32(-3.0);
//! // Fused multiply-add: a * b + c with a single rounding.
//! let z = a.mul_add(b, c);
//! assert_eq!(z.to_f32(), 1.5 * 2.25 - 3.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod arith;
mod f16;
mod fp8;
pub mod kernel;
pub mod vector;

pub use f16::{FpCategory16, F16};
pub use fp8::{Format, E4M3, E5M2};

/// Canonical quiet NaN produced by all invalid operations (matches FPnew).
pub const CANONICAL_QNAN: u16 = 0x7E00;
