//! Per-phase cycle attribution: where did every cycle of a run go?

use redmule_hwsim::{Snapshot, SnapshotError, StateReader, StateWriter};
use std::fmt;

/// The attribution category a single engine cycle is charged to.
///
/// The engine charges **exactly one** category per tick, so the five
/// counters of a [`PhaseCycles`] ledger always sum to the run's total
/// cycle count — a schedule invariant the test-suite pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// The datapath advanced: an FMA phase issued (or an empty-reduction
    /// tile flushed).
    Compute,
    /// The datapath waited for a scheduled buffer refill (W row at a
    /// column-phase boundary, X chunk at a chunk boundary, Z preload).
    Refill,
    /// The datapath waited because the interconnect denied this cycle's
    /// memory request — contention, not a schedule hazard.
    Stall,
    /// Pipeline fill: initial operand loads before the first FMA of a
    /// tile's first phase can issue.
    Fill,
    /// Store drain: compute finished (or the Z buffer was still draining)
    /// and only writebacks progressed.
    Drain,
}

impl Phase {
    /// All categories, in the canonical reporting order.
    pub const ALL: [Phase; 5] = [
        Phase::Compute,
        Phase::Refill,
        Phase::Stall,
        Phase::Fill,
        Phase::Drain,
    ];

    /// Stable lowercase label, used for stats keys and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::Refill => "refill",
            Phase::Stall => "stall",
            Phase::Fill => "fill",
            Phase::Drain => "drain",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An always-on ledger counting how many cycles went to each [`Phase`].
///
/// Lives inside the engine's `Sim` state, is serialised into session
/// checkpoints (so a resumed run keeps exact attribution), and surfaces in
/// `RunReport::phases`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCycles {
    /// Cycles in which the datapath issued an FMA phase (or flushed an
    /// empty-reduction tile).
    pub compute: u64,
    /// Cycles stalled on a scheduled buffer refill.
    pub refill: u64,
    /// Cycles stalled on interconnect contention.
    pub stall: u64,
    /// Cycles of pipeline fill before a tile's first FMA.
    pub fill: u64,
    /// Cycles in which only store drain progressed.
    pub drain: u64,
}

impl PhaseCycles {
    /// Creates a zeroed ledger.
    pub fn new() -> PhaseCycles {
        PhaseCycles::default()
    }

    /// Charges one cycle to `phase`.
    pub fn add(&mut self, phase: Phase) {
        self.add_many(phase, 1);
    }

    /// Charges `cycles` cycles to `phase`.
    pub fn add_many(&mut self, phase: Phase, cycles: u64) {
        *self.get_mut(phase) += cycles;
    }

    /// Cycles charged to `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Compute => self.compute,
            Phase::Refill => self.refill,
            Phase::Stall => self.stall,
            Phase::Fill => self.fill,
            Phase::Drain => self.drain,
        }
    }

    fn get_mut(&mut self, phase: Phase) -> &mut u64 {
        match phase {
            Phase::Compute => &mut self.compute,
            Phase::Refill => &mut self.refill,
            Phase::Stall => &mut self.stall,
            Phase::Fill => &mut self.fill,
            Phase::Drain => &mut self.drain,
        }
    }

    /// Sum of all categories. By construction this equals the number of
    /// engine ticks attributed so far.
    pub fn total(&self) -> u64 {
        self.compute + self.refill + self.stall + self.fill + self.drain
    }

    /// Iterates `(label, cycles)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Phase::ALL.into_iter().map(|p| (p.label(), self.get(p)))
    }
}

impl fmt::Display for PhaseCycles {
    /// Writes `compute=… refill=… stall=… fill=… drain=…`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (label, cycles) in self.iter() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{label}={cycles}")?;
            first = false;
        }
        Ok(())
    }
}

impl Snapshot for PhaseCycles {
    fn save_state(&self, w: &mut StateWriter) {
        w.put(&self.compute);
        w.put(&self.refill);
        w.put(&self.stall);
        w.put(&self.fill);
        w.put(&self.drain);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.compute = r.get()?;
        self.refill = r.get()?;
        self.stall = r.get()?;
        self.fill = r.get()?;
        self.drain = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redmule_hwsim::{StateReader, StateWriter};

    #[test]
    fn total_is_sum_of_categories() {
        let mut p = PhaseCycles::new();
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            p.add_many(phase, (i as u64 + 1) * 10);
        }
        assert_eq!(p.total(), 10 + 20 + 30 + 40 + 50);
        assert_eq!(p.get(Phase::Fill), 40);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut b = PhaseCycles::new();
        b.add(Phase::Compute);
        b.add(Phase::Drain);
        b.add_many(Phase::Stall, 7);
        assert_eq!(b.total(), 9);

        let mut w = StateWriter::new();
        b.save_state(&mut w);
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes);
        let mut c = PhaseCycles::new();
        c.restore_state(&mut r).expect("restore");
        assert_eq!(b, c);
    }

    #[test]
    fn labels_render_in_canonical_order() {
        let mut p = PhaseCycles::new();
        p.add(Phase::Refill);
        assert_eq!(p.to_string(), "compute=0 refill=1 stall=0 fill=0 drain=0");
    }
}
