//! Cycle-accurate behavioural model of **RedMulE** — the Reduced-precision
//! matrix Multiplication Engine (DATE 2022).
//!
//! RedMulE is a parametric FP16 matrix-multiplication accelerator designed
//! as a Hardware Processing Engine tightly coupled to a PULP cluster. This
//! crate reproduces it at cycle granularity:
//!
//! * [`AccelConfig`] — the design-time parameters `H` (columns), `L`
//!   (rows), `P` (FMA pipeline registers); the paper instance is
//!   `H=4, L=8, P=3` (32 FMAs, 9 TCDM ports).
//! * [`datapath`] — the semi-systolic FMA array with row-ring
//!   accumulation, bit-accurate through [`redmule_fp16`].
//! * [`buffers`] — the X / W / Z buffers of Fig. 1.
//! * [`cast`] — the castin/castout stages of the journal follow-up:
//!   FP8 ([`Format`] E4M3 / E5M2) operand storage widened and narrowed
//!   around the unchanged FP16 datapath.
//! * [`faults`] — seeded fault injection and the RedMulE-FT replay /
//!   redundancy protection modes.
//! * [`Engine`] — scheduler + streamer + controller implementing the
//!   memory-access schedule of Fig. 2c against the cluster TCDM/HCI.
//! * [`RegFile`] and [`Job`] — the HWPE peripheral interface the cores
//!   program.
//! * [`Accelerator`] — the top-level facade.
//! * [`FunctionalGemm`] — the fast functional backend: bit-identical
//!   results without per-cycle simulation, selected via [`BackendKind`].
//! * [`Schedule`] — the tile grid and analytical cycle model both
//!   backends share.
//!
//! # Quick start
//!
//! ```
//! use redmule::Accelerator;
//! use redmule_fp16::{vector::GemmShape, F16};
//!
//! let accel = Accelerator::paper_instance();
//! let shape = GemmShape::new(16, 32, 16);
//! let x = vec![F16::from_f32(0.5); shape.x_len()];
//! let w = vec![F16::from_f32(2.0); shape.w_len()];
//! let run = accel.gemm(shape, &x, &w)?;
//! assert_eq!(run.z[0].to_f32(), 32.0);
//! println!(
//!     "{} cycles, {:.1} MAC/cycle",
//!     run.report.cycles,
//!     run.report.macs_per_cycle()
//! );
//! # Ok::<(), redmule::EngineError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod accelerator;
pub mod buffers;
pub mod cast;
mod config;
pub mod datapath;
pub mod decode;
mod engine;
pub mod faults;
mod functional;
pub mod regfile;
mod schedule;

pub use accelerator::{stage_gemm_workspace_in, Accelerator, GemmRun};
pub use config::AccelConfig;
pub use decode::DecodeError;
pub use engine::{
    shape_sizes, Engine, EngineError, EngineSession, RunReport, SessionState, StreamerPolicy,
    TickResult, DEFAULT_WATCHDOG, SESSION_STATE_VERSION,
};
pub use faults::{
    FaultInjector, FaultPlan, FaultSite, FaultSpec, FtConfig, FtMode, TransientTarget,
};
pub use functional::{BackendKind, FunctionalGemm, FunctionalPlan, FunctionalRun};
pub use regfile::{Job, RegFile};
pub use schedule::{Schedule, Tile};

/// Operand storage [`Format`] re-exported from [`redmule_fp16`]: jobs can
/// keep X/W/Z in TCDM as FP16 or as OFP8 FP8 (E4M3 / E5M2), cast at the
/// [`cast`] stages around the FP16 datapath.
///
/// [`Format`]: redmule_fp16::Format
pub use redmule_fp16::Format;

/// Observability vocabulary re-exported from [`redmule_obs`] so engine
/// callers can record events and consume [`RunReport::phases`] without a
/// direct dependency on the obs crate.
pub mod obs {
    pub use redmule_obs::{
        chrome_trace, validate_chrome_trace, Channel, ChromeTraceSummary, EventKind, EventLog,
        Phase, PhaseCycles, TraceEvent, TraceLane,
    };
}
