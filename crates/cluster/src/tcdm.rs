//! Word-interleaved Tightly-Coupled Data Memory.

use crate::config::ClusterConfig;
use redmule_fp16::F16;
use redmule_hwsim::snapshot::{SnapshotError, StateReader, StateWriter};
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
// modelcheck: snapshot(save = image, load = load_image)
#[derive(Debug, Clone)]
pub struct Tcdm {
    n_banks: usize,
    words: Vec<u32>,
    /// Every word at or past this index is zero: the extent a
    /// [`Tcdm::image`] has to look at.
    live: usize,
    /// Stuck-at faults by word index, applied to every read until cleared.
    stuck: BTreeMap<usize, StuckBit>,
}

impl Tcdm {
    /// Allocates a zero-initialised scratchpad per the cluster config.
    pub fn new(cfg: &ClusterConfig) -> Tcdm {
        Tcdm {
            n_banks: cfg.n_banks,
            words: vec![0; cfg.n_banks * cfg.bank_words],
            live: 0,
            stuck: BTreeMap::new(),
        }
    }

    /// Widens the live extent to cover the words before `end`, which a
    /// write path is about to change.
    fn touch(&mut self, end: usize) {
        self.live = self.live.max(end);
    }

    /// The scratchpad's contents as a checkpoint keeps them: the words up
    /// to the last nonzero one, the geometry and the stuck-at faults.
    /// Equal contents give equal images.
    pub fn image(&self) -> TcdmImage {
        let live = &self.words[..self.live];
        let end = live
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |last| last + 1);
        TcdmImage {
            n_banks: self.n_banks,
            len: self.words.len(),
            words: live[..end].to_vec(),
            stuck: self
                .stuck
                .iter()
                .map(|(&idx, &fault)| (idx, fault))
                .collect(),
        }
    }

    /// Overwrites the whole scratchpad with `image`: its words, zero past
    /// them, and its stuck-at faults.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ConfigMismatch`] when the image was taken from a
    /// scratchpad of another bank count or size; `self` is untouched.
    pub fn load_image(&mut self, image: &TcdmImage) -> Result<(), SnapshotError> {
        if image.n_banks != self.n_banks {
            return Err(SnapshotError::ConfigMismatch(format!(
                "TCDM has {} banks, target has {}",
                image.n_banks, self.n_banks
            )));
        }
        if image.len != self.words.len() {
            return Err(SnapshotError::ConfigMismatch(format!(
                "TCDM holds {} words, target holds {}",
                image.len,
                self.words.len()
            )));
        }
        let end = image.words.len();
        self.words[..end].copy_from_slice(&image.words);
        if self.live > end {
            self.words[end..self.live].fill(0);
        }
        self.live = end;
        self.stuck = image.stuck.iter().copied().collect();
        Ok(())
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
        self.touch(idx + 1);
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
        let span = self.span(addr, len)?;
        self.touch(span.end);
        Some(&mut self.words[span])
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
        self.touch(idx + 1);
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
        self.touch(idx + 1);
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
        self.touch(idx + 1);
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

/// The TCDM contents a checkpoint keeps ([`Tcdm::image`]): the bank
/// count, the scratchpad's length in words, its words up to the last
/// nonzero one (every later word is zero) and its stuck-at faults.
///
/// Only the in-memory form is trimmed: [`TcdmImage::encode`] writes the
/// whole scratchpad, zero tail included, so the stored bytes do not
/// depend on where the last nonzero word sits.
// modelcheck: snapshot(save = encode, load = decode)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcdmImage {
    n_banks: usize,
    len: usize,
    words: Vec<u32>,
    stuck: Vec<(usize, StuckBit)>,
}

/// Encoded bytes of one stuck-at entry: word index, bit, value.
const STUCK_ENTRY_BYTES: usize = 8 + 1 + 1;

impl TcdmImage {
    /// The number of bytes [`TcdmImage::encode`] appends.
    pub fn encoded_len(&self) -> usize {
        3 * 8 + 4 * self.len + STUCK_ENTRY_BYTES * self.stuck.len()
    }

    /// Appends the image: the bank count, all `len` words as one
    /// length-prefixed array (the trimmed zero tail written back), then
    /// the stuck-at list.
    pub fn encode(&self, w: &mut StateWriter) {
        w.put(&self.n_banks);
        w.put_u32s_padded(&self.words, self.len);
        w.put(&self.stuck.len());
        for (idx, fault) in &self.stuck {
            w.put(idx);
            w.put(&fault.bit);
            w.put(&fault.value);
        }
    }

    /// Decodes an image written by [`TcdmImage::encode`], allocating only
    /// for the words before the zero tail and for stuck-at entries the
    /// stream really holds.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the stream ends early, and
    /// [`SnapshotError::Corrupt`] for a stuck-at entry past the
    /// scratchpad or with a bad value tag. The geometry is checked when
    /// the image is loaded ([`Tcdm::load_image`]).
    pub fn decode(r: &mut StateReader<'_>) -> Result<TcdmImage, SnapshotError> {
        let n_banks: usize = r.get()?;
        let (len, words) = r.get_u32s_trimmed()?;
        let n_stuck: usize = r.get()?;
        if n_stuck > r.remaining() / STUCK_ENTRY_BYTES {
            return Err(SnapshotError::Truncated);
        }
        let mut stuck = Vec::with_capacity(n_stuck);
        for _ in 0..n_stuck {
            let idx: usize = r.get()?;
            if idx >= len {
                return Err(SnapshotError::Corrupt(format!(
                    "stuck-at fault on word {idx} beyond TCDM"
                )));
            }
            let bit: u8 = r.get()?;
            let value: bool = r.get()?;
            stuck.push((idx, StuckBit { bit, value }));
        }
        Ok(TcdmImage {
            n_banks,
            len,
            words,
            stuck,
        })
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

    /// Encodes `image`, checks the length it announces, and decodes it.
    fn wire_round_trip(image: &TcdmImage) -> TcdmImage {
        let mut w = StateWriter::new();
        image.encode(&mut w);
        let bytes = w.finish();
        assert_eq!(bytes.len(), image.encoded_len());
        let mut r = StateReader::new(&bytes);
        let back = TcdmImage::decode(&mut r).unwrap();
        assert!(r.expect_end().is_ok());
        back
    }

    /// Every word of `a` and `b` as their read ports observe them.
    fn same_contents(a: &Tcdm, b: &Tcdm) -> bool {
        (0..a.size_bytes() as u32)
            .step_by(4)
            .all(|addr| a.read_u32(addr) == b.read_u32(addr))
    }

    #[test]
    fn loading_an_image_zeroes_the_live_words_past_it() {
        let mut small = mem();
        small.write_u32(0x10, 7).unwrap();
        let image = small.image();
        // Each write path leaves the target a live word past the image.
        type Write = fn(&mut Tcdm);
        let writes: [(&str, Write); 5] = [
            ("write_u32", |m| m.write_u32(0x400, 0xFFFF).unwrap()),
            ("write_u16", |m| m.write_u16(0x802, 3).unwrap()),
            ("write_u8", |m| m.write_u8(0x903, 4).unwrap()),
            ("run_mut", |m| m.run_mut(0xA00, 8).unwrap().fill(5)),
            ("flip_bit", |m| m.flip_bit(0xC00, 0).unwrap()),
        ];
        for (path, write) in writes {
            let mut big = mem();
            big.write_u32(0x10, 1).unwrap();
            write(&mut big);
            big.load_image(&image).unwrap();
            assert!(same_contents(&big, &small), "{path}");
            assert_eq!(big.image(), image, "{path}");
            // The same write after the load is live again.
            write(&mut big);
            big.load_image(&image).unwrap();
            assert!(same_contents(&big, &small), "{path} after a load");
        }
    }

    #[test]
    fn images_load_only_into_the_same_geometry() {
        let mut m = mem();
        m.write_u32(0, 1).unwrap();
        let image = m.image();
        for cfg in [
            ClusterConfig {
                n_banks: 8,
                ..ClusterConfig::default()
            },
            ClusterConfig {
                bank_words: 64,
                ..ClusterConfig::default()
            },
        ] {
            let mut other = Tcdm::new(&cfg);
            other.write_u32(4, 2).unwrap();
            assert!(matches!(
                other.load_image(&image),
                Err(SnapshotError::ConfigMismatch(_))
            ));
            assert_eq!(
                other.read_u32(4).unwrap(),
                2,
                "a refused load changes nothing"
            );
        }
    }

    #[test]
    fn images_round_trip_through_the_wire_bytes() {
        // An untouched scratchpad is an empty image of the full length.
        let empty = mem().image();
        assert!(empty.words.is_empty());
        assert_eq!(wire_round_trip(&empty), empty);

        // The last written word is zero: the image ends before it.
        let mut m = mem();
        m.write_u32(0x20, 5).unwrap();
        m.write_u32(0x40, 0).unwrap();
        let image = m.image();
        assert_eq!(image.words.len(), 0x20 / 4 + 1);
        assert_eq!(wire_round_trip(&image), image);

        // Stuck-at bits travel with the image and pin reads after a load.
        let pin = |bit, value| StuckBit { bit, value };
        m.set_stuck(0x40, pin(2, true)).unwrap();
        m.set_stuck(0x1000, pin(31, false)).unwrap();
        let image = m.image();
        let back = wire_round_trip(&image);
        assert_eq!(back, image);
        let mut fresh = mem();
        fresh.load_image(&back).unwrap();
        assert!(same_contents(&fresh, &m));
        assert_eq!(fresh.read_u32(0x40).unwrap(), 1 << 2);
        assert_eq!(fresh.image(), image);

        // A bit flip past the workspace extends the image to cover it.
        m.flip_bit(0x1_0000, 9).unwrap();
        let image = m.image();
        assert_eq!(image.words.len(), 0x1_0000 / 4 + 1);
        let back = wire_round_trip(&image);
        assert_eq!(back, image);
        let mut fresh = mem();
        fresh.load_image(&back).unwrap();
        assert!(same_contents(&fresh, &m));
        assert_eq!(fresh.image(), image);
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
