//! Cycle-driven hardware-simulation kernel for the RedMulE reproduction.
//!
//! The RedMulE paper describes synthesisable RTL; this crate provides the
//! building blocks a behavioural-but-cycle-accurate Rust model needs to
//! mirror that RTL faithfully:
//!
//! * [`Cycle`] and [`Frequency`] — simulation time and its conversion to
//!   wall-clock time at an operating point.
//! * [`arbiter`] — round-robin arbitration (HCI logarithmic branch) and the
//!   starvation-free rotating multiplexer between interconnect branches.
//! * [`Stats`] — named event counters with utilization helpers.
//! * [`faults`] — bit-flip and stuck-at primitives and the cycle-stamped
//!   [`FaultLog`].
//! * [`rng`] — seeded PRNGs for reproducible fault campaigns.
//! * [`snapshot`] — versioned state serialisation so long simulations can
//!   checkpoint and resume bit-exactly.
//! * [`vcd`] — a waveform writer producing standard VCD files viewable in
//!   GTKWave, the observability substitute for RTL waveform inspection.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod arbiter;
mod counters;
mod cycle;
pub mod faults;
pub mod rng;
pub mod snapshot;
pub mod vcd;

pub use counters::Stats;
pub use cycle::{Cycle, Frequency};
pub use faults::{FaultClass, FaultEvent, FaultLog, FaultPhase, StuckBit};
pub use rng::{SplitMix64, Xoshiro256};
pub use snapshot::{fnv1a64, Persist, Snapshot, SnapshotError, StateReader, StateWriter};
