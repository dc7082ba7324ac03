//! Supervised job runtime for the RedMulE cycle-accurate model.
//!
//! Long fault-injection campaigns and design-space sweeps run the engine
//! for millions of cycles; this crate wraps those runs in the reliability
//! layer a real deployment would have:
//!
//! * [`Checkpoint`] — a versioned, checksummed snapshot of an in-flight
//!   job (engine session + TCDM + HCI arbiter state), taken at tile
//!   boundaries. Resuming from any checkpoint is **bit-identical** to
//!   never having interrupted the run: results, cycle counts and fault
//!   telemetry all match.
//! * [`Supervisor`] — drives an [`redmule::EngineSession`] under cycle
//!   budgets and wall-clock deadlines ([`Limits`]), with cooperative
//!   cancellation ([`CancelToken`]), per-job panic isolation and bounded
//!   retry-with-backoff ([`RetryPolicy`]) on recoverable engine errors
//!   (watchdog trips from dropped interconnect beats).
//! * **Graceful degradation** — an over-budget job is checkpointed at the
//!   next tile boundary and returns a partial [`redmule::RunReport`] plus
//!   an analytical estimate of the remaining cycles, flagged
//!   [`SupervisedRun::degraded`], instead of an error.
//!
//! # Example
//!
//! ```
//! use redmule::{AccelConfig, Engine};
//! use redmule_fp16::vector::GemmShape;
//! use redmule_fp16::F16;
//! use redmule_runtime::{Limits, StopReason, Supervisor};
//!
//! let shape = GemmShape::new(16, 16, 16);
//! let x = vec![F16::ONE; shape.x_len()];
//! let w = vec![F16::ONE; shape.w_len()];
//! let supervisor = Supervisor::new(Engine::new(AccelConfig::paper()));
//! let (z, run) = supervisor.gemm(shape, &x, &w)?;
//! assert!(matches!(run.stop, StopReason::Completed));
//! assert!(!run.degraded);
//! assert_eq!(z[0].to_f32(), 16.0);
//! # Ok::<(), redmule::EngineError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod checkpoint;
mod supervisor;

pub use checkpoint::{Checkpoint, CHECKPOINT_VERSION};
pub use supervisor::{CancelToken, Limits, RetryPolicy, StopReason, SupervisedRun, Supervisor};
