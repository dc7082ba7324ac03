//! Crash-consistent persistence for the RedMulE service layer.
//!
//! The service simulator ([`redmule-service`]) keeps every admission
//! decision and checkpoint in host memory; this crate makes that state
//! durable so a host crash no longer loses accepted work:
//!
//! * [`StorageBackend`] — a flat object namespace with `append`,
//!   atomic `publish` and `remove`. [`MemBackend`] is the deterministic
//!   in-memory implementation used by every test (it can die at an
//!   exact write, leaving a torn append); [`FileBackend`] is the
//!   directory-backed one whose publish is write-temp → fsync → rename.
//! * [`frame`] — the on-storage record frame (`RMFR` magic, version,
//!   kind, length, payload, CRC-32) shared by the journal and the
//!   checkpoint store, with a scanner that reports typed damage.
//! * [`Journal`] — the append-only write-ahead log; a torn tail is
//!   detected by CRC and cut by an atomic repair.
//! * [`CheckpointStore`] — generation-numbered checkpoint records with
//!   identity headers; a corrupt generation falls back to its
//!   predecessor.
//! * [`StorageFaultPlan`] — seeded storage faults (torn writes, bit
//!   flips, truncations, lost objects, duplicated records) layered on
//!   [`MemBackend`], mirroring the accelerator's fault-plan idiom.
//!
//! The service ties these together: `DurableService` journals phase-1
//! decisions ahead of execution and `ServiceSim::recover` replays the
//! journal back into a byte-identical `ServiceReport`.
//!
//! [`redmule-service`]: ../redmule_service/index.html

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod backend;
mod checkpoints;
pub mod crc;
mod faults;
pub mod frame;
mod journal;

pub use backend::{CrashPlan, FileBackend, MemBackend, StorageBackend};
pub use checkpoints::{
    CheckpointDamage, CheckpointStore, DamagedGeneration, LatestLoad, CHECKPOINT_FRAME_KIND,
};
pub use faults::{AppliedStorageFault, StorageFault, StorageFaultPlan};
pub use frame::{FrameDamage, FRAME_HEADER_LEN, FRAME_MAGIC, FRAME_VERSION};
pub use journal::{Journal, JournalScan};

/// Storage-layer failure. Damage to stored *content* is not an error —
/// the scanners report it as typed data — so this enum covers only the
/// backend itself misbehaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The named object does not exist.
    NotFound(String),
    /// The object name is not usable: empty, `.`/`..`, in the reserved
    /// `tmp.` namespace or outside ASCII `[A-Za-z0-9._-]`.
    InvalidName(String),
    /// A simulated backend crashed; writes fail until recovery clears
    /// the crash, reads keep working.
    Crashed,
    /// A real-storage I/O failure.
    Io {
        /// The object (or directory) the operation targeted.
        name: String,
        /// The OS error text.
        message: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(name) => write!(f, "object {name:?} not found"),
            StoreError::InvalidName(why) => write!(f, "invalid object name: {why}"),
            StoreError::Crashed => write!(f, "storage backend crashed (simulated)"),
            StoreError::Io { name, message } => write!(f, "i/o error on {name:?}: {message}"),
        }
    }
}

impl std::error::Error for StoreError {}
