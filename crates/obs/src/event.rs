//! Typed trace events, timestamped in simulated cycles, and the log that
//! records them.

use crate::phase::Phase;
use redmule_hwsim::{FaultClass, FaultPhase};
use std::fmt;

/// Which streamer channel a buffer-traffic event belongs to.
///
/// Mirrors the four request kinds of the engine's streamer: W-buffer
/// refills (one row every `P+1` cycles), X-buffer loads and Z preloads
/// (interleaved into the spare slots of Fig. 2c), and Z store drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Channel {
    /// W-buffer row refill.
    W,
    /// X-buffer block load.
    X,
    /// Z-buffer accumulate preload (Y row).
    ZPre,
    /// Z-buffer store drain (computed row written back).
    ZStore,
}

impl Channel {
    /// Stable lowercase label, used in exported event names.
    pub fn label(self) -> &'static str {
        match self {
            Channel::W => "w",
            Channel::X => "x",
            Channel::ZPre => "zpre",
            Channel::ZStore => "zstore",
        }
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One sim-cycle-timestamped observation from the engine.
///
/// `cycle` is the value of the session's cycle counter when the event was
/// emitted. Because the engine is cycle-deterministic, the event stream
/// for a given job is a pure function of the job — host thread count and
/// wall-clock timing never appear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle the event is stamped with.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

/// What a [`TraceEvent`] observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A compute tile left the stall-at-start state and began issuing
    /// FMA phases (or, for empty-reduction jobs, flushed in one cycle).
    /// Stamped with the tile's first compute tick.
    TileStart {
        /// Tile index in schedule order.
        tile: u32,
        /// First output row covered by the tile.
        row0: u32,
        /// Live output rows in the tile (≤ L).
        rows: u32,
        /// Live output columns in the tile (≤ phase width).
        cols: u32,
    },
    /// A compute tile finished its last FMA tick and enqueued its stores.
    /// Stamped with the tile's last compute tick.
    TileEnd {
        /// Tile index in schedule order.
        tile: u32,
    },
    /// The streamer completed a buffer load on a channel (`W`, `X` or
    /// `ZPre`).
    Refill {
        /// Which buffer was refilled.
        channel: Channel,
        /// Running per-channel sequence number (1-based).
        seq: u64,
    },
    /// The streamer drained one computed row from the store queue.
    StoreDrain {
        /// Store-queue depth after the drain.
        pending: u32,
    },
    /// The HCI (or the streamer policy) denied this cycle's memory
    /// request — interconnect contention, not a schedule hazard.
    HciStall,
    /// The datapath could not advance this cycle; `phase` records the
    /// attribution category the ledger charged it to.
    Stall {
        /// Attribution category (`Fill`, `Refill`, `Stall` or `Drain`).
        phase: Phase,
    },
    /// A fault lifecycle observation (injection, detection, correction).
    Fault {
        /// Fault kind.
        class: FaultClass,
        /// Lifecycle stage.
        phase: FaultPhase,
    },
    /// A checkpoint container was captured at a tile boundary.
    Checkpoint {
        /// Next tile to compute after resume.
        tile: u32,
    },
    /// The progress-signature watchdog (or the structural cycle bound)
    /// tripped; the session aborts after emitting this.
    Watchdog {
        /// Consecutive cycles without forward progress.
        stalled_for: u64,
    },
}

/// In-order event recorder: what the engine, the supervisor and the batch
/// executor write their events into.
///
/// Comparable with `==` so determinism tests can assert two runs produced
/// the *identical* stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<TraceEvent>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Appends one event.
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// All recorded events in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_labels_are_distinct() {
        let labels = [
            Channel::W.label(),
            Channel::X.label(),
            Channel::ZPre.label(),
            Channel::ZStore.label(),
        ];
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
