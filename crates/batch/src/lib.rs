//! Host-side parallel batch execution of independent RedMulE GEMM jobs.
//!
//! The model crates (`fp16`, `hwsim`, `cluster`, `redmule`, `runtime`)
//! simulate *one* accelerator deterministically. A deployed system runs
//! *many* GEMMs back to back — training steps over a batch, multi-tenant
//! inference — and the host has cores to spare while each simulated (or
//! functional) job is single-threaded. This crate is the host-side bridge:
//!
//! * [`GemmJob`] — one independent `Z = X * W (+ Y)` work item with its
//!   own execution model ([`BackendKind`]), supervision
//!   [`Limits`](redmule_runtime::Limits), fault plan and checkpoint
//!   cadence.
//! * [`BatchExecutor`] — a persistent pool: the workers take jobs
//!   longest first (by modeled cycles, ties by id) from one shared
//!   cursor, whichever is free taking the next, so an imbalanced mix of
//!   heavy and light jobs still keeps every worker busy. The calling
//!   thread works as worker 0; the helper threads, capped by the host's
//!   parallelism, start on the first run with work for them and park
//!   between runs. Every job runs on its own engine/workspace instance;
//!   nothing is shared between jobs, so the parallelism cannot perturb
//!   the simulated results.
//! * [`BatchReport`] — per-job results **keyed by job id, never by
//!   completion order**, plus aggregated cycles, utilization and fault
//!   telemetry. Its canonical serialization is byte-identical for any
//!   worker count (the determinism regression test in
//!   `tests/determinism.rs` runs the same job set on 1, 2 and 8 workers).
//! * [`ScheduleStats`] — what the batch costs on `workers` dedicated
//!   workers: per-worker busy cycles and the makespan, from which
//!   throughput scaling is derived. A deterministic replay of a
//!   deal-then-steal policy over the report's per-job simulated cycles,
//!   so it models `workers` dedicated workers whatever number of threads
//!   the host ran. It is intentionally kept outside [`BatchReport`],
//!   because it legitimately varies with the worker count.
//!
//! Cycle-accurate jobs are driven through
//! [`redmule_runtime::Supervisor`], so per-job cycle budgets, panics and
//! watchdog hangs degrade or fail that one job without taking down the
//! batch.
//!
//! # Example
//!
//! ```
//! use redmule_batch::{BatchExecutor, GemmJob};
//! use redmule::BackendKind;
//! use redmule_fp16::{vector::GemmShape, F16};
//!
//! let shape = GemmShape::new(8, 16, 16);
//! let jobs: Vec<GemmJob> = (0..4)
//!     .map(|id| {
//!         let x = vec![F16::from_f32(0.5); shape.x_len()];
//!         let w = vec![F16::from_f32(2.0); shape.w_len()];
//!         GemmJob::new(id, shape, x, w).with_backend(BackendKind::Functional)
//!     })
//!     .collect();
//! let outcome = BatchExecutor::new(2).run(jobs)?;
//! assert_eq!(outcome.report.jobs.len(), 4);
//! assert!(outcome.report.all_completed());
//! # Ok::<(), redmule_batch::BatchError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod executor;
mod job;
mod report;

pub use executor::{BatchError, BatchExecutor, BatchOutcome, ScheduleStats};
pub use job::{fnv1a64_f16, GemmJob, JobFaults, JobResult, JobStatus};
pub use redmule::{BackendKind, Format};
pub use report::BatchReport;
