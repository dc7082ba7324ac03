//! Generic fault-injection primitives shared by the hardware models.
//!
//! The RedMulE-FT follow-up paper studies transient bit-flips and stuck-at
//! faults in the accelerator datapath. This module holds the pieces every
//! layer of the model needs to participate: bit-level corruption helpers, a
//! stuck-at mask that can be applied on each read of a storage element, and
//! a cycle-stamped [`FaultLog`] that the VCD tracer turns into waveform
//! signals.

use crate::snapshot::{Snapshot, SnapshotError, StateReader, StateWriter};
use std::fmt;

/// Flips bit `bit` (0 = LSB) of a 16-bit storage element.
pub fn flip_bit16(value: u16, bit: u8) -> u16 {
    value ^ (1u16 << (bit % 16))
}

/// Flips bit `bit` (0 = LSB) of a 32-bit storage element.
pub fn flip_bit32(value: u32, bit: u8) -> u32 {
    value ^ (1u32 << (bit % 32))
}

/// A stuck-at fault on one bit of a storage element, applied on every read
/// until cleared — the permanent counterpart of a transient flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckBit {
    /// Bit position, 0 = LSB.
    pub bit: u8,
    /// The value the bit is stuck at.
    pub value: bool,
}

impl StuckBit {
    /// Applies the fault to a 32-bit read.
    pub fn apply32(self, value: u32) -> u32 {
        let mask = 1u32 << (self.bit % 32);
        if self.value {
            value | mask
        } else {
            value & !mask
        }
    }
}

/// What kind of fault an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A single-cycle bit flip in a register, buffer word or transaction.
    TransientFlip,
    /// A persistent stuck-at-0/1 bit.
    StuckAt,
    /// A memory/interconnect transaction that never completed.
    DropTransaction,
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultClass::TransientFlip => write!(f, "transient-flip"),
            FaultClass::StuckAt => write!(f, "stuck-at"),
            FaultClass::DropTransaction => write!(f, "drop-transaction"),
        }
    }
}

/// Lifecycle stage of a fault as the model observes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPhase {
    /// The fault was injected into live state.
    Injected,
    /// A checker (ABFT, DMR vote, watchdog) noticed the corruption.
    Detected,
    /// A recovery mechanism (replay, vote) restored correct state.
    Corrected,
}

impl fmt::Display for FaultPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPhase::Injected => write!(f, "injected"),
            FaultPhase::Detected => write!(f, "detected"),
            FaultPhase::Corrected => write!(f, "corrected"),
        }
    }
}

/// One cycle-stamped fault observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulation cycle at which the event happened.
    pub cycle: u64,
    /// Human-readable site, e.g. `"wbuf[2][5]"` or `"tcdm@0x1a40"`.
    pub site: String,
    /// Fault kind.
    pub class: FaultClass,
    /// Lifecycle stage.
    pub phase: FaultPhase,
}

/// An append-only, cycle-stamped record of fault activity.
///
/// The log is the bridge between injection (which happens deep inside
/// buffers and memories) and observability: `RunReport` summarises it and
/// the VCD tracer replays it as `fault_injected` / `fault_detected` /
/// `fault_corrected` wire pulses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
}

impl FaultLog {
    /// Creates an empty log.
    pub fn new() -> FaultLog {
        FaultLog::default()
    }

    /// Appends one event.
    pub fn record(
        &mut self,
        cycle: u64,
        site: impl Into<String>,
        class: FaultClass,
        phase: FaultPhase,
    ) {
        self.events.push(FaultEvent {
            cycle,
            site: site.into(),
            class,
            phase,
        });
    }

    /// All events in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events with the given phase.
    pub fn count(&self, phase: FaultPhase) -> u64 {
        self.events.iter().filter(|e| e.phase == phase).count() as u64
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replays the log as a VCD waveform: three 1-bit wires
    /// (`fault_injected`, `fault_detected`, `fault_corrected`) pulse high
    /// on every cycle that recorded an event of the matching phase.
    ///
    /// Events on consecutive cycles merge into one longer pulse, exactly
    /// as a sampled hardware signal would.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn dump_vcd<W: std::io::Write>(&self, out: W, timescale_ns: u32) -> std::io::Result<()> {
        let mut vcd = crate::vcd::VcdWriter::new(out, timescale_ns);
        vcd.scope("faults")?;
        let wires = [
            (FaultPhase::Injected, vcd.add_wire(1, "fault_injected")?),
            (FaultPhase::Detected, vcd.add_wire(1, "fault_detected")?),
            (FaultPhase::Corrected, vcd.add_wire(1, "fault_corrected")?),
        ];
        vcd.upscope()?;
        vcd.begin_dump()?;

        let mut cycles: Vec<u64> = self.events.iter().map(|e| e.cycle).collect();
        cycles.sort_unstable();
        cycles.dedup();

        if cycles.first() != Some(&0) {
            for &(_, id) in &wires {
                vcd.set(id, 0);
            }
            vcd.tick(0)?;
        }
        let mut prev: Option<u64> = None;
        for &c in &cycles {
            // Drop the previous pulse unless this event directly extends it.
            if let Some(p) = prev {
                if p + 1 < c {
                    for &(_, id) in &wires {
                        vcd.set(id, 0);
                    }
                    vcd.tick(p + 1)?;
                }
            }
            for &(phase, id) in &wires {
                let active = self.events.iter().any(|e| e.cycle == c && e.phase == phase);
                vcd.set(id, u64::from(active));
            }
            vcd.tick(c)?;
            prev = Some(c);
        }
        if let Some(p) = prev {
            for &(_, id) in &wires {
                vcd.set(id, 0);
            }
            vcd.tick(p + 1)?;
        }
        Ok(())
    }
}

impl FaultClass {
    fn to_tag(self) -> u8 {
        match self {
            FaultClass::TransientFlip => 0,
            FaultClass::StuckAt => 1,
            FaultClass::DropTransaction => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<FaultClass, SnapshotError> {
        match tag {
            0 => Ok(FaultClass::TransientFlip),
            1 => Ok(FaultClass::StuckAt),
            2 => Ok(FaultClass::DropTransaction),
            other => Err(SnapshotError::Corrupt(format!("fault class tag {other}"))),
        }
    }
}

impl FaultPhase {
    fn to_tag(self) -> u8 {
        match self {
            FaultPhase::Injected => 0,
            FaultPhase::Detected => 1,
            FaultPhase::Corrected => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<FaultPhase, SnapshotError> {
        match tag {
            0 => Ok(FaultPhase::Injected),
            1 => Ok(FaultPhase::Detected),
            2 => Ok(FaultPhase::Corrected),
            other => Err(SnapshotError::Corrupt(format!("fault phase tag {other}"))),
        }
    }
}

impl Snapshot for FaultLog {
    fn save_state(&self, w: &mut StateWriter) {
        w.put(&self.events.len());
        for e in &self.events {
            w.put(&e.cycle);
            w.put(&e.site);
            w.put(&e.class.to_tag());
            w.put(&e.phase.to_tag());
        }
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let len: usize = r.get()?;
        self.events.clear();
        for _ in 0..len {
            let cycle: u64 = r.get()?;
            let site: String = r.get()?;
            let class = FaultClass::from_tag(r.get()?)?;
            let phase = FaultPhase::from_tag(r.get()?)?;
            self.events.push(FaultEvent {
                cycle,
                site,
                class,
                phase,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flips_toggle_exactly_one_bit() {
        assert_eq!(flip_bit16(0, 0), 1);
        assert_eq!(flip_bit16(0xFFFF, 15), 0x7FFF);
        assert_eq!(flip_bit16(flip_bit16(0x1234, 7), 7), 0x1234);
        assert_eq!(flip_bit32(0, 31), 0x8000_0000);
        assert_eq!(flip_bit32(flip_bit32(0xDEAD_BEEF, 13), 13), 0xDEAD_BEEF);
    }

    #[test]
    fn stuck_bits_pin_reads() {
        let s1 = StuckBit {
            bit: 3,
            value: true,
        };
        assert_eq!(s1.apply32(0), 0b1000);
        assert_eq!(s1.apply32(0b1000), 0b1000);
        let s0 = StuckBit {
            bit: 3,
            value: false,
        };
        assert_eq!(s0.apply32(0xFFFF_FFFF), 0xFFFF_FFF7);
    }

    #[test]
    fn log_counts_by_phase() {
        let mut log = FaultLog::new();
        log.record(
            5,
            "wbuf[0][1]",
            FaultClass::TransientFlip,
            FaultPhase::Injected,
        );
        log.record(
            9,
            "tile(0,0)",
            FaultClass::TransientFlip,
            FaultPhase::Detected,
        );
        log.record(
            9,
            "tile(0,0)",
            FaultClass::TransientFlip,
            FaultPhase::Corrected,
        );
        assert_eq!(log.count(FaultPhase::Injected), 1);
        assert_eq!(log.count(FaultPhase::Detected), 1);
        assert_eq!(log.count(FaultPhase::Corrected), 1);
        assert_eq!(log.events().len(), 3);
    }

    #[test]
    fn vcd_dump_pulses_each_phase() {
        let mut log = FaultLog::new();
        log.record(5, "a", FaultClass::TransientFlip, FaultPhase::Injected);
        log.record(6, "a", FaultClass::TransientFlip, FaultPhase::Detected);
        log.record(
            20,
            "tile0",
            FaultClass::TransientFlip,
            FaultPhase::Corrected,
        );
        let mut out = Vec::new();
        log.dump_vcd(&mut out, 1).expect("in-memory write");
        let text = String::from_utf8(out).expect("VCD is ASCII");
        for wire in ["fault_injected", "fault_detected", "fault_corrected"] {
            assert!(text.contains(wire), "missing wire {wire}");
        }
        for stamp in ["#0", "#5", "#6", "#20", "#21"] {
            assert!(text.contains(stamp), "missing timestamp {stamp}");
        }
        // Consecutive events (5 then 6) merge: no drop at #7's predecessor
        // other than the one scheduled at #7.
        assert!(text.contains("#7"), "pulse must drop after the 5-6 burst");
    }

    #[test]
    fn vcd_dump_of_empty_log_is_valid() {
        let log = FaultLog::new();
        let mut out = Vec::new();
        log.dump_vcd(&mut out, 1).expect("in-memory write");
        let text = String::from_utf8(out).expect("VCD is ASCII");
        assert!(text.contains("$enddefinitions"));
    }
}
