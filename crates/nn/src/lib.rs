//! FP16 neural-network substrate for the RedMulE use-case experiments.
//!
//! The paper evaluates RedMulE on training the TinyMLPerf (MLPerf Tiny)
//! anomaly-detection **deep autoencoder** — forward and backward passes of
//! a 640-128-...-8-...-640 MLP — comparing the accelerator against the
//! 8-core software baseline at batch sizes 1 and 16 (Fig. 4c/4d). This
//! crate provides everything those experiments need:
//!
//! * [`Tensor`] — a row-major FP16 matrix.
//! * [`backend`] — the [`backend::Backend`] dispatcher sending every GEMM
//!   either to the cycle-accurate accelerator model or to the software
//!   kernel, plus elementwise-op cycle costs and a
//!   [`backend::CycleLedger`] recording per-layer, per-operation costs.
//! * [`mlp`] — dense layers with bias and ReLU, forward/backward/SGD.
//! * [`autoencoder`] — the MLPerf-Tiny topology and its memory footprint.
//!
//! Layer data is laid out activations-as-columns (`features x batch`), so
//! a forward GEMM has the paper's orientation `K = B` — which is exactly
//! why small batches underutilise the accelerator in Fig. 4c and batching
//! recovers almost 16x in Fig. 4d.
//!
//! # Example
//!
//! ```
//! use redmule_nn::autoencoder;
//! use redmule_nn::backend::{Backend, CycleLedger};
//!
//! let mut net = autoencoder::mlperf_tiny(42);
//! let mut backend = Backend::hw();
//! let mut ledger = CycleLedger::new();
//! let x = redmule_nn::Tensor::from_fn(640, 1, |i, _| ((i % 7) as f32 - 3.0) / 8.0);
//! let report = net.train_step(&x, 0.001, &mut backend, &mut ledger)?;
//! assert!(report.loss >= 0.0);
//! assert!(ledger.total_cycles().count() > 0);
//! # Ok::<(), redmule::EngineError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod autoencoder;
pub mod backend;
pub mod mlp;
mod tensor;

pub use tensor::Tensor;
