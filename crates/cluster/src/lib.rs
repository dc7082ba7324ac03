//! Behavioural + cycle-cost model of a PULP cluster.
//!
//! RedMulE is not a standalone chip: it is a Hardware Processing Engine
//! (HWPE) living inside an 8-core RISC-V PULP cluster, sharing a
//! Tightly-Coupled Data Memory (TCDM) with the cores through the
//! Heterogeneous Cluster Interconnect (HCI). This crate models that
//! substrate:
//!
//! * [`ClusterConfig`] — the parametric cluster (cores, banks, interconnect
//!   widths, core instruction timings).
//! * [`Tcdm`] — word-interleaved multi-banked scratchpad memory.
//! * [`Hci`] — the two-branch interconnect: a *logarithmic* branch giving
//!   every 32-bit initiator single-cycle access with per-bank round-robin
//!   arbitration, and a *shallow* branch exposing one 288-bit port over 9
//!   adjacent banks to the accelerator, with a starvation-free rotation
//!   between the branches.
//! * [`CoreTimings`] and [`baseline`] — an in-order single-issue RISC-V
//!   core cost model and the parallel FP16 GEMM kernel the paper uses as
//!   its software baseline ("SW execution on 8 RISC-V cores").
//!
//! The software baseline is both *numerically* exact (it computes with the
//! bit-accurate [`redmule_fp16`] softfloat in the same accumulation order as
//! the accelerator) and *cycle-accounted* (every TCDM access goes through
//! the banking and arbitration model), so HW/SW speedup numbers emerge from
//! structure, not curve fitting.
//!
//! # Example
//!
//! ```
//! use redmule_cluster::{baseline::SwGemm, ClusterConfig};
//! use redmule_fp16::{vector::GemmShape, F16};
//!
//! let cfg = ClusterConfig::default();
//! let shape = GemmShape::new(8, 16, 8);
//! let x = vec![F16::ONE; shape.x_len()];
//! let w = vec![F16::HALF; shape.w_len()];
//! let run = SwGemm::new(&cfg).run(shape, &x, &w)?;
//! assert_eq!(run.z[0].to_f32(), 8.0);
//! assert!(run.cycles.count() > 0);
//! # Ok::<(), redmule_cluster::MemError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod baseline;
mod config;
mod hci;
mod tcdm;

pub use config::{ClusterConfig, CoreTimings};
pub use hci::{Hci, HciGrants, Initiator};
pub use tcdm::{MemError, Tcdm, TcdmImage};
