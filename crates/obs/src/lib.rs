//! Deterministic observability layer for the RedMulE reproduction.
//!
//! The paper's evaluation hinges on *where cycles go*: a W-buffer refill
//! every `H×(P+1)` cycles, X loads and Z stores interleaved into the spare
//! memory slots (Fig. 2c), pipeline fill at the start of a tile and store
//! drain at the end. End-of-run aggregates (`RunReport` totals) cannot tell
//! a schedule regression from a workload change — this crate closes that
//! gap with three pieces:
//!
//! * [`TraceEvent`] — a sim-cycle timestamp plus a typed [`EventKind`]
//!   (tile start/end, W/X/Z buffer traffic, HCI stalls, faults,
//!   checkpoints, watchdog trips), recorded straight into an
//!   [`EventLog`]. The kinds are the engine's alone: the service and its
//!   recovery record their decisions in their own reports.
//! * [`PhaseCycles`] — an always-on per-cycle attribution ledger
//!   (compute / refill / stall / fill / drain) whose categories sum
//!   *exactly* to the run's total cycle count.
//! * [`chrome_trace`] — a Chrome trace-event JSON exporter (loadable in
//!   Perfetto / `chrome://tracing`), one lane per job.
//!
//! Everything is keyed off simulated cycles — no wall clock, no host
//! timing — so traces and metrics are byte-deterministic at any worker
//! count. The crate is checked as a *model* crate by `modelcheck`
//! (RM-DET-001/002, RM-PANIC-001 apply).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(missing_docs)]

pub mod chrome;
pub mod event;
pub mod phase;

pub use chrome::{chrome_trace, validate_chrome_trace, ChromeTraceSummary, TraceLane};
pub use event::{Channel, EventKind, EventLog, TraceEvent};
pub use phase::{Phase, PhaseCycles};
