//! Word-interleaved Tightly-Coupled Data Memory.

use crate::config::ClusterConfig;
use redmule_fp16::F16;
use redmule_hwsim::snapshot::{Snapshot, SnapshotError, StateReader, StateWriter};
use redmule_hwsim::StuckBit;
use std::collections::BTreeMap;
use std::fmt;

/// Error for invalid TCDM accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Address beyond the end of the scratchpad.
    OutOfBounds {
        /// Offending byte address.
        addr: u32,
        /// Memory size in bytes.
        size: u32,
    },
    /// Address not aligned to the access width.
    Misaligned {
        /// Offending byte address.
        addr: u32,
        /// Required alignment in bytes.
        align: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr, size } => {
                write!(f, "address {addr:#x} outside TCDM of {size} bytes")
            }
            MemError::Misaligned { addr, align } => {
                write!(f, "address {addr:#x} not aligned to {align} bytes")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// The cluster scratchpad: `n_banks` single-ported 32-bit banks,
/// word-interleaved so consecutive words live in consecutive banks.
///
/// Interleaving is what makes both access patterns of the paper work:
/// cores spread scalar accesses across banks (logarithmic branch), and a
/// 256-bit accelerator row access touches [`ClusterConfig::shallow_banks`]
/// *adjacent* banks exactly once each (shallow branch).
///
/// # Example
///
/// ```
/// use redmule_cluster::{ClusterConfig, Tcdm};
///
/// let mut mem = Tcdm::new(&ClusterConfig::default());
/// mem.write_u32(0x40, 0xDEAD_BEEF)?;
/// assert_eq!(mem.read_u32(0x40)?, 0xDEAD_BEEF);
/// assert_eq!(mem.bank_of(0x40), (0x40 / 4) % 16);
/// # Ok::<(), redmule_cluster::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Tcdm {
    n_banks: usize,
    words: Vec<u32>,
    /// Stuck-at faults by word index, applied to every read until cleared.
    stuck: BTreeMap<usize, StuckBit>,
}

impl Tcdm {
    /// Allocates a zero-initialised scratchpad per the cluster config.
    pub fn new(cfg: &ClusterConfig) -> Tcdm {
        Tcdm {
            n_banks: cfg.n_banks,
            words: vec![0; cfg.n_banks * cfg.bank_words],
            stuck: BTreeMap::new(),
        }
    }

    /// The stored word at `idx` as a read port observes it: stuck-at
    /// faults pin their bit on every read.
    fn observe(&self, idx: usize) -> u32 {
        let raw = self.words[idx];
        match self.stuck.get(&idx) {
            Some(s) => s.apply32(raw),
            None => raw,
        }
    }

    /// Injects a transient single-bit flip into the stored word containing
    /// byte address `addr` (`bit` counts from the word's LSB).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if `addr` is beyond the scratchpad.
    pub fn flip_bit(&mut self, addr: u32, bit: u8) -> Result<(), MemError> {
        let idx = self.word_index(addr & !3, 4)?;
        self.words[idx] = redmule_hwsim::faults::flip_bit32(self.words[idx], bit);
        Ok(())
    }

    /// Pins one bit of the word containing `addr` to a fixed value on every
    /// subsequent read (a stuck-at fault); writes still update the cell
    /// underneath.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if `addr` is beyond the scratchpad.
    pub fn set_stuck(&mut self, addr: u32, fault: StuckBit) -> Result<(), MemError> {
        let idx = self.word_index(addr & !3, 4)?;
        self.stuck.insert(idx, fault);
        Ok(())
    }

    /// Capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Number of banks.
    pub fn n_banks(&self) -> usize {
        self.n_banks
    }

    /// Bank index serving byte address `addr`.
    pub fn bank_of(&self, addr: u32) -> usize {
        (addr as usize / 4) % self.n_banks
    }

    fn word_index(&self, addr: u32, align: u32) -> Result<usize, MemError> {
        if !addr.is_multiple_of(align) {
            return Err(MemError::Misaligned { addr, align });
        }
        let idx = addr as usize / 4;
        if idx >= self.words.len() {
            return Err(MemError::OutOfBounds {
                addr,
                size: self.size_bytes() as u32,
            });
        }
        Ok(idx)
    }

    /// The words spanning the `len`-byte run that starts at `addr`, or
    /// `None` when the run leaves the scratchpad.
    fn span(&self, addr: u32, len: usize) -> Option<std::ops::Range<usize>> {
        let first = addr as usize / 4;
        let end = (addr as usize).checked_add(len)?.div_ceil(4);
        (end <= self.words.len()).then_some(first..end)
    }

    /// The stored words holding the `len`-byte run that starts at byte
    /// `addr`, so a caller can decode the whole run with one bounds
    /// check. `None` when the run leaves the scratchpad or any stuck-at
    /// fault is armed: such reads take the per-access path, which applies
    /// the fault and reports the first failing address.
    pub fn run(&self, addr: u32, len: usize) -> Option<&[u32]> {
        if !self.stuck.is_empty() {
            return None;
        }
        self.span(addr, len).map(|span| &self.words[span])
    }

    /// The stored words holding the `len`-byte run that starts at byte
    /// `addr`, for writing the whole run with one bounds check; `None`
    /// when the run leaves the scratchpad. (Stuck-at faults pin reads
    /// only, so they do not matter here.)
    pub fn run_mut(&mut self, addr: u32, len: usize) -> Option<&mut [u32]> {
        self.span(addr, len).map(|span| &mut self.words[span])
    }

    /// Reads an aligned 32-bit word.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::OutOfBounds`].
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemError> {
        Ok(self.observe(self.word_index(addr, 4)?))
    }

    /// Writes an aligned 32-bit word.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::OutOfBounds`].
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let idx = self.word_index(addr, 4)?;
        self.words[idx] = value;
        Ok(())
    }

    /// Reads an aligned 16-bit halfword (an FP16 element).
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::OutOfBounds`].
    pub fn read_u16(&self, addr: u32) -> Result<u16, MemError> {
        if !addr.is_multiple_of(2) {
            return Err(MemError::Misaligned { addr, align: 2 });
        }
        let word = self.observe(self.word_index(addr & !3, 4)?);
        Ok(if addr & 2 == 0 {
            word as u16
        } else {
            (word >> 16) as u16
        })
    }

    /// Writes an aligned 16-bit halfword.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::OutOfBounds`].
    pub fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), MemError> {
        if !addr.is_multiple_of(2) {
            return Err(MemError::Misaligned { addr, align: 2 });
        }
        let idx = self.word_index(addr & !3, 4)?;
        let word = &mut self.words[idx];
        if addr & 2 == 0 {
            *word = (*word & 0xFFFF_0000) | u32::from(value);
        } else {
            *word = (*word & 0x0000_FFFF) | (u32::from(value) << 16);
        }
        Ok(())
    }

    /// Reads a single byte (an FP8 element). Any address is aligned.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`].
    pub fn read_u8(&self, addr: u32) -> Result<u8, MemError> {
        let word = self.observe(self.word_index(addr & !3, 4)?);
        Ok((word >> ((addr & 3) * 8)) as u8)
    }

    /// Writes a single byte (an FP8 element). Any address is aligned.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`].
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        let idx = self.word_index(addr & !3, 4)?;
        let shift = (addr & 3) * 8;
        let word = &mut self.words[idx];
        *word = (*word & !(0xFF << shift)) | (u32::from(value) << shift);
        Ok(())
    }

    /// Reads an FP16 element.
    ///
    /// # Errors
    ///
    /// As [`Tcdm::read_u16`].
    pub fn read_f16(&self, addr: u32) -> Result<F16, MemError> {
        Ok(F16::from_bits(self.read_u16(addr)?))
    }

    /// Writes an FP16 element.
    ///
    /// # Errors
    ///
    /// As [`Tcdm::write_u16`].
    pub fn write_f16(&mut self, addr: u32, value: F16) -> Result<(), MemError> {
        self.write_u16(addr, value.to_bits())
    }

    /// Copies a slice of FP16 values into memory starting at `addr`.
    ///
    /// # Errors
    ///
    /// As [`Tcdm::write_u16`]; partial writes are possible on error.
    pub fn store_f16_slice(&mut self, addr: u32, data: &[F16]) -> Result<(), MemError> {
        for (i, v) in data.iter().enumerate() {
            self.write_f16(addr + 2 * i as u32, *v)?;
        }
        Ok(())
    }

    /// Reads `n` FP16 values starting at `addr`.
    ///
    /// # Errors
    ///
    /// As [`Tcdm::read_u16`].
    pub fn load_f16_slice(&self, addr: u32, n: usize) -> Result<Vec<F16>, MemError> {
        (0..n).map(|i| self.read_f16(addr + 2 * i as u32)).collect()
    }
}

impl Snapshot for Tcdm {
    fn save_state(&self, w: &mut StateWriter) {
        w.put(&self.n_banks);
        w.put_u32s(&self.words);
        w.put(&self.stuck.len());
        for (&idx, fault) in &self.stuck {
            w.put(&idx);
            w.put(&fault.bit);
            w.put(&fault.value);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let n_banks: usize = r.get()?;
        if n_banks != self.n_banks {
            return Err(SnapshotError::ConfigMismatch(format!(
                "TCDM has {n_banks} banks, target has {}",
                self.n_banks
            )));
        }
        let words = r.get_u32s()?;
        if words.len() != self.words.len() {
            return Err(SnapshotError::ConfigMismatch(format!(
                "TCDM holds {} words, target holds {}",
                words.len(),
                self.words.len()
            )));
        }
        self.words = words;
        let n_stuck: usize = r.get()?;
        self.stuck.clear();
        for _ in 0..n_stuck {
            let idx: usize = r.get()?;
            if idx >= self.words.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "stuck-at fault on word {idx} beyond TCDM"
                )));
            }
            let bit: u8 = r.get()?;
            let value: bool = r.get()?;
            self.stuck.insert(idx, StuckBit { bit, value });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Tcdm {
        Tcdm::new(&ClusterConfig::default())
    }

    #[test]
    fn sizes_match_config() {
        let m = mem();
        assert_eq!(m.size_bytes(), 128 * 1024);
        assert_eq!(m.n_banks(), 16);
    }

    #[test]
    fn word_interleaving() {
        let m = mem();
        assert_eq!(m.bank_of(0), 0);
        assert_eq!(m.bank_of(4), 1);
        assert_eq!(m.bank_of(60), 15);
        assert_eq!(m.bank_of(64), 0); // wraps after 16 banks
    }

    #[test]
    fn u32_round_trip() {
        let mut m = mem();
        m.write_u32(0, 0x1234_5678).unwrap();
        m.write_u32(4, 0x9ABC_DEF0).unwrap();
        assert_eq!(m.read_u32(0).unwrap(), 0x1234_5678);
        assert_eq!(m.read_u32(4).unwrap(), 0x9ABC_DEF0);
    }

    #[test]
    fn u16_halves_pack_into_words() {
        let mut m = mem();
        m.write_u16(8, 0xAAAA).unwrap();
        m.write_u16(10, 0x5555).unwrap();
        assert_eq!(m.read_u32(8).unwrap(), 0x5555_AAAA); // little-endian halves
        assert_eq!(m.read_u16(8).unwrap(), 0xAAAA);
        assert_eq!(m.read_u16(10).unwrap(), 0x5555);
        // Writing one half must not clobber the other.
        m.write_u16(8, 0x1111).unwrap();
        assert_eq!(m.read_u16(10).unwrap(), 0x5555);
    }

    #[test]
    fn u8_bytes_pack_into_words_at_any_offset() {
        let mut m = mem();
        for (i, b) in [0x11u8, 0x22, 0x33, 0x44].into_iter().enumerate() {
            m.write_u8(12 + i as u32, b).unwrap();
        }
        assert_eq!(m.read_u32(12).unwrap(), 0x4433_2211); // little-endian bytes
        for (i, b) in [0x11u8, 0x22, 0x33, 0x44].into_iter().enumerate() {
            assert_eq!(m.read_u8(12 + i as u32).unwrap(), b);
        }
        // Writing one byte must not clobber its neighbours.
        m.write_u8(13, 0xEE).unwrap();
        assert_eq!(m.read_u32(12).unwrap(), 0x4433_EE11);
        assert!(matches!(
            m.read_u8(m.size_bytes() as u32),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn alignment_enforced() {
        let mut m = mem();
        assert!(matches!(
            m.read_u32(2),
            Err(MemError::Misaligned { align: 4, .. })
        ));
        assert!(matches!(
            m.write_u16(1, 0),
            Err(MemError::Misaligned { align: 2, .. })
        ));
    }

    #[test]
    fn bounds_enforced() {
        let mut m = mem();
        let size = m.size_bytes() as u32;
        assert!(matches!(
            m.read_u32(size),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(m.write_u32(size - 4, 1).is_ok());
        assert!(matches!(
            m.read_u16(size),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn f16_slices_round_trip() {
        let mut m = mem();
        let data: Vec<F16> = (0..20).map(|i| F16::from_f32(i as f32 * 0.5)).collect();
        m.store_f16_slice(100 * 2, &data).unwrap();
        let back = m.load_f16_slice(100 * 2, 20).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn runs_cover_their_bytes_or_refuse() {
        let mut m = mem();
        let size = m.size_bytes() as u32;
        m.write_u32(8, 0x1111_2222).unwrap();
        m.write_u32(12, 0x3333_4444).unwrap();
        // Bytes 10..13 straddle two words.
        assert_eq!(m.run(10, 3), Some(&[0x1111_2222, 0x3333_4444][..]));
        assert_eq!(m.run(8, 4).map(<[u32]>::len), Some(1));
        assert_eq!(m.run(size - 2, 2).map(<[u32]>::len), Some(1));
        assert_eq!(m.run(size - 2, 3), None, "run leaves the TCDM");
        assert_eq!(m.run(u32::MAX, 2), None);
        m.run_mut(12, 4).unwrap()[0] = 7;
        assert_eq!(m.read_u32(12).unwrap(), 7);
        assert!(m.run_mut(size, 1).is_none());
        // A stuck-at fault anywhere sends reads through the access path.
        m.set_stuck(
            0,
            StuckBit {
                bit: 0,
                value: true,
            },
        )
        .unwrap();
        assert_eq!(m.run(8, 4), None);
        assert!(m.run_mut(8, 4).is_some(), "writes are unaffected");
    }

    #[test]
    fn transient_flip_corrupts_one_bit() {
        let mut m = mem();
        m.write_u32(0x40, 0x0000_00F0).unwrap();
        m.flip_bit(0x40, 3).unwrap();
        assert_eq!(m.read_u32(0x40).unwrap(), 0x0000_00F8);
        // Flipping again restores the original value.
        m.flip_bit(0x40, 3).unwrap();
        assert_eq!(m.read_u32(0x40).unwrap(), 0x0000_00F0);
        assert!(m.flip_bit(1 << 30, 0).is_err());
    }

    #[test]
    fn stuck_bit_pins_reads() {
        let mut m = mem();
        m.write_u32(8, 0).unwrap();
        m.set_stuck(
            8,
            StuckBit {
                bit: 5,
                value: true,
            },
        )
        .unwrap();
        assert_eq!(m.read_u32(8).unwrap(), 1 << 5);
        // Writes land in the cell but the read stays pinned.
        m.write_u32(8, 0xFFFF_FFFF).unwrap();
        assert_eq!(m.read_u32(8).unwrap(), 0xFFFF_FFFF);
        m.write_u32(8, 0).unwrap();
        assert_eq!(m.read_u32(8).unwrap(), 1 << 5);
        // Halfword reads observe the same pinned word.
        assert_eq!(m.read_u16(8).unwrap(), 1 << 5);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = MemError::OutOfBounds {
            addr: 0x100,
            size: 64,
        };
        assert!(e.to_string().contains("0x100"));
        let e = MemError::Misaligned {
            addr: 0x3,
            align: 4,
        };
        assert!(e.to_string().contains("aligned"));
    }
}
