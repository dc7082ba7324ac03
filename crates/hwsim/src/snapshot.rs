//! Versioned state snapshots for the hardware models.
//!
//! Long cycle-accurate runs need to survive deadlines, cancellation and
//! crashes, so every stateful model element can serialise itself into a
//! compact little-endian byte stream and later restore from it
//! bit-exactly. This module holds the shared plumbing:
//!
//! * [`StateWriter`] / [`StateReader`] — a tiny append-only codec (no
//!   external serialisation dependency; the image is fully offline).
//! * [`Persist`] — element-level encode/decode for primitives and
//!   containers.
//! * [`Snapshot`] — the trait stateful components implement
//!   (`save_state` / `restore_state`).
//! * [`fnv1a64`] — the checksum used by snapshot container formats.
//!
//! Restores are *strict*: every structural mismatch (wrong depth, wrong
//! bank count, truncated buffer) is an error, never a silent best-effort
//! partial load — a resumed run must be indistinguishable from one that
//! never stopped.

use std::fmt;

/// Why a snapshot could not be decoded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the expected data.
    Truncated,
    /// The data decoded but is structurally invalid (bad tag, wrong
    /// element count, impossible value).
    Corrupt(String),
    /// The snapshot was produced by an incompatible format version.
    VersionMismatch {
        /// Version this build understands.
        expected: u32,
        /// Version found in the stream.
        got: u32,
    },
    /// The stored checksum does not match the payload.
    ChecksumMismatch,
    /// The snapshot belongs to a different configuration than the
    /// component it is being restored into.
    ConfigMismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot stream truncated"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapshotError::VersionMismatch { expected, got } => {
                write!(f, "snapshot version {got} (this build reads {expected})")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::ConfigMismatch(what) => {
                write!(f, "snapshot configuration mismatch: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME_POWERS[i]` is `FNV_PRIME`^(2^i) mod 2^64.
const FNV_PRIME_POWERS: [u64; usize::BITS as usize] = {
    let mut powers = [FNV_PRIME; usize::BITS as usize];
    let mut i = 1;
    while i < powers.len() {
        powers[i] = powers[i - 1].wrapping_mul(powers[i - 1]);
        i += 1;
    }
    powers
};

/// Feeds `zeros` zero bytes into an FNV-1a state. A zero byte maps
/// `h` to `h·P`, so `k` of them multiply by `P^k` (mod 2^64), built by
/// square-and-multiply from [`FNV_PRIME_POWERS`].
fn fnv_skip_zeros(mut hash: u64, mut zeros: usize) -> u64 {
    let mut i = 0;
    while zeros != 0 {
        if zeros & 1 != 0 {
            hash = hash.wrapping_mul(FNV_PRIME_POWERS[i]);
        }
        zeros >>= 1;
        i += 1;
    }
    hash
}

/// Bytes per block in the zero scans: a block is tested with one OR over
/// its eight words, which compiles to a few vector instructions.
const ZERO_BLOCK: usize = 64;

/// Whether every byte of `block` is zero.
fn is_zero_block(block: &[u8; ZERO_BLOCK]) -> bool {
    let (words, _) = block.as_chunks::<8>();
    words.iter().fold(0, |acc, w| acc | u64::from_ne_bytes(*w)) == 0
}

/// Feeds whole 8-byte words into an FNV-1a state that still owes
/// `zeros` zero bytes; returns the new state and the zero bytes it owes.
fn fnv_words(mut hash: u64, mut zeros: usize, words: &[[u8; 8]]) -> (u64, usize) {
    for word in words {
        if *word == [0; 8] {
            zeros += 8;
            continue;
        }
        hash = fnv_skip_zeros(hash, zeros);
        zeros = 0;
        for &b in word {
            hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    (hash, zeros)
}

/// FNV-1a 64-bit hash — the integrity checksum for snapshot containers.
///
/// Not cryptographic; it guards against truncation and accidental
/// corruption, which is all an on-disk simulation checkpoint needs.
///
/// Containers carry a mostly-zero TCDM image, so runs of all-zero
/// 64-byte blocks and 8-byte words are fed in one step (`k` zero bytes
/// multiply the state by `P^k`); every other byte goes through the
/// bytewise definition, and the digest is identical to it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let (blocks, rest) = bytes.as_chunks::<ZERO_BLOCK>();
    // `zeros`: zero bytes seen but not yet fed into `hash`.
    let (mut hash, mut zeros) = (FNV_OFFSET, 0);
    for block in blocks {
        if is_zero_block(block) {
            zeros += ZERO_BLOCK;
        } else {
            (hash, zeros) = fnv_words(hash, zeros, block.as_chunks::<8>().0);
        }
    }
    let (words, tail) = rest.as_chunks::<8>();
    (hash, zeros) = fnv_words(hash, zeros, words);
    hash = fnv_skip_zeros(hash, zeros);
    for &b in tail {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Append-only little-endian byte sink for snapshot payloads.
#[derive(Debug, Default, Clone)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> StateWriter {
        StateWriter::default()
    }

    /// An empty writer with room for `bytes` bytes, for a payload whose
    /// size is known before it is written.
    pub fn with_capacity(bytes: usize) -> StateWriter {
        StateWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Appends one value using its [`Persist`] encoding.
    pub fn put<T: Persist>(&mut self, value: &T) {
        value.write_to(self);
    }

    /// Appends raw bytes verbatim (no length prefix).
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed byte slice in one copy: the same bytes
    /// as `put(&Vec<u8>)`.
    pub fn put_u8s(&mut self, bytes: &[u8]) {
        self.put(&bytes.len());
        self.put_bytes(bytes);
    }

    /// Appends a length-prefixed array of `len` `u32`s whose first words
    /// are `words` and whose rest are zero, in one pass: the same bytes as
    /// `put(&Vec<u32>)` over the zero-padded array, without building it.
    ///
    /// # Panics
    ///
    /// If `words` is longer than `len`: the array would lose words.
    pub fn put_u32s_padded(&mut self, words: &[u32], len: usize) {
        assert!(words.len() <= len, "{} words exceed {len}", words.len());
        self.put(&len);
        let start = self.buf.len();
        self.buf.resize(start + 4 * len, 0);
        for (dst, word) in self.buf[start..].chunks_exact_mut(4).zip(words) {
            dst.copy_from_slice(&word.to_le_bytes());
        }
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential reader over a snapshot payload.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> StateReader<'a> {
        StateReader { buf, pos: 0 }
    }

    /// Decodes one value using its [`Persist`] encoding.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the stream is exhausted, or
    /// a decode error from the element codec.
    pub fn get<T: Persist>(&mut self) -> Result<T, SnapshotError> {
        T::read_from(self)
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if fewer than `n` bytes remain.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Decodes a length-prefixed byte slice in one copy: the inverse of
    /// [`StateWriter::put_u8s`], and equivalent to `get::<Vec<u8>>()`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if fewer bytes remain than the
    /// prefix declares, before anything is allocated.
    pub fn get_u8s(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let len: usize = self.get()?;
        Ok(self.take_bytes(len)?.to_vec())
    }

    /// Decodes a length-prefixed `u32` array (as written by
    /// [`StateWriter::put_u32s_padded`] or `put(&Vec<u32>)`) into its
    /// declared length and its words up to the last nonzero one: the
    /// inverse of the padded writer. The zero tail is skipped a 64-byte
    /// block at a time and never allocated.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if fewer words remain than the
    /// prefix declares, before anything is allocated.
    pub fn get_u32s_trimmed(&mut self) -> Result<(usize, Vec<u32>), SnapshotError> {
        let len: usize = self.get()?;
        let bytes = self.take_bytes(len.checked_mul(4).ok_or(SnapshotError::Truncated)?)?;
        // Whole zero blocks from the end, then the zero words of the last
        // nonzero block (or of the words before the first block).
        let (head, blocks) = bytes.as_rchunks::<ZERO_BLOCK>();
        let zero_blocks = blocks.iter().rev().take_while(|b| is_zero_block(b)).count();
        let mut present = (head.len() + ZERO_BLOCK * (blocks.len() - zero_blocks)) / 4;
        while present > 0 && bytes[4 * present - 4..4 * present] == [0; 4] {
            present -= 1;
        }
        let words = bytes[..4 * present]
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        Ok((len, words))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the stream is fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] when trailing bytes remain —
    /// a decoder that leaves data behind mis-parsed the payload.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }
}

/// Element-level snapshot codec: fixed little-endian encodings for
/// primitives, length-prefixed encodings for containers.
pub trait Persist: Sized {
    /// Appends this value to `w`.
    fn write_to(&self, w: &mut StateWriter);
    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when the stream is truncated or the
    /// encoded data is invalid for this type.
    fn read_from(r: &mut StateReader<'_>) -> Result<Self, SnapshotError>;
}

macro_rules! persist_int {
    ($($ty:ty),*) => {$(
        impl Persist for $ty {
            fn write_to(&self, w: &mut StateWriter) {
                w.put_bytes(&self.to_le_bytes());
            }
            fn read_from(r: &mut StateReader<'_>) -> Result<Self, SnapshotError> {
                let bytes = r.take_bytes(std::mem::size_of::<$ty>())?;
                let arr: [u8; std::mem::size_of::<$ty>()] =
                    bytes.try_into().map_err(|_| SnapshotError::Truncated)?;
                Ok(<$ty>::from_le_bytes(arr))
            }
        }
    )*};
}

persist_int!(u8, u16, u32, u64);

impl Persist for usize {
    fn write_to(&self, w: &mut StateWriter) {
        (*self as u64).write_to(w);
    }

    fn read_from(r: &mut StateReader<'_>) -> Result<Self, SnapshotError> {
        let v = u64::read_from(r)?;
        usize::try_from(v)
            .map_err(|_| SnapshotError::Corrupt(format!("usize value {v} overflows this target")))
    }
}

impl Persist for bool {
    fn write_to(&self, w: &mut StateWriter) {
        w.put(&u8::from(*self));
    }

    fn read_from(r: &mut StateReader<'_>) -> Result<Self, SnapshotError> {
        match u8::read_from(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!("bool tag {other}"))),
        }
    }
}

impl Persist for String {
    fn write_to(&self, w: &mut StateWriter) {
        w.put(&self.len());
        w.put_bytes(self.as_bytes());
    }

    fn read_from(r: &mut StateReader<'_>) -> Result<Self, SnapshotError> {
        let len = usize::read_from(r)?;
        let bytes = r.take_bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("string is not UTF-8".into()))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn write_to(&self, w: &mut StateWriter) {
        match self {
            None => w.put(&0u8),
            Some(v) => {
                w.put(&1u8);
                w.put(v);
            }
        }
    }

    fn read_from(r: &mut StateReader<'_>) -> Result<Self, SnapshotError> {
        match u8::read_from(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::read_from(r)?)),
            other => Err(SnapshotError::Corrupt(format!("Option tag {other}"))),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn write_to(&self, w: &mut StateWriter) {
        w.put(&self.len());
        for item in self {
            w.put(item);
        }
    }

    fn read_from(r: &mut StateReader<'_>) -> Result<Self, SnapshotError> {
        let len = usize::read_from(r)?;
        // Guard against a corrupt length exhausting memory before the
        // per-element reads hit `Truncated`.
        if len > r.remaining() {
            return Err(SnapshotError::Truncated);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::read_from(r)?);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn write_to(&self, w: &mut StateWriter) {
        w.put(&self.0);
        w.put(&self.1);
    }

    fn read_from(r: &mut StateReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::read_from(r)?, B::read_from(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn write_to(&self, w: &mut StateWriter) {
        w.put(&self.0);
        w.put(&self.1);
        w.put(&self.2);
    }

    fn read_from(r: &mut StateReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::read_from(r)?, B::read_from(r)?, C::read_from(r)?))
    }
}

/// A stateful model component that can round-trip its live state through
/// a [`StateWriter`] / [`StateReader`] pair.
///
/// `restore_state` is applied to an already-constructed component (so
/// design-time parameters come from the normal constructor) and must
/// verify that the stream matches that configuration.
pub trait Snapshot {
    /// Serialises the component's mutable state into `w`.
    fn save_state(&self, w: &mut StateWriter);

    /// Overwrites the component's mutable state from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when the stream is truncated, corrupt,
    /// or belongs to a differently-configured component. On error the
    /// component may be left partially restored and must not be used.
    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Longest length of the offset sweep. Miri interprets every byte
    /// and runs this suite in CI, so it gets smaller sweeps.
    const SWEEP: usize = if cfg!(miri) { 48 } else { 1100 };
    /// Longest all-zero buffer checked.
    const ZEROS_MAX: usize = if cfg!(miri) { 1 << 11 } else { 1 << 17 };
    /// Longest zero run checked between nonzero bytes.
    const RUN_MAX: usize = if cfg!(miri) { 1 << 6 } else { 1 << 12 };

    /// FNV-1a 64 with the multiply done bit by bit (shift-and-add):
    /// `out[n]` is the digest of `bytes[..n]`.
    fn bit_serial_prefixes(bytes: &[u8]) -> Vec<u64> {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut out = vec![hash];
        for &b in bytes {
            hash ^= u64::from(b);
            let mut product = 0u64;
            for bit in 0..64 {
                if (0x0000_0100_0000_01b3u64 >> bit) & 1 == 1 {
                    product = product.wrapping_add(hash << bit);
                }
            }
            hash = product;
            out.push(hash);
        }
        out
    }

    fn bit_serial(bytes: &[u8]) -> u64 {
        bit_serial_prefixes(bytes)[bytes.len()]
    }

    /// `len` pseudo-random bytes, each nonzero with probability
    /// `density / 256`.
    fn test_bytes(len: usize, density: u32, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let r = (state >> 33) as u32;
                if r & 0xFF < density {
                    (r >> 8) as u8 | 1
                } else {
                    0
                }
            })
            .collect()
    }

    /// Lengths within 17 bytes of the 8- and 16-byte word edges and of
    /// every power of two.
    fn edge_lengths(max: usize) -> Vec<usize> {
        let mut lens: Vec<usize> = (3..usize::BITS)
            .map(|k| 1usize << k)
            .flat_map(|c| c.saturating_sub(17)..=c + 17)
            .filter(|&len| len <= max)
            .collect();
        lens.sort_unstable();
        lens.dedup();
        lens
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = StateWriter::new();
        w.put(&0xABu8);
        w.put(&0x1234u16);
        w.put(&0xDEAD_BEEFu32);
        w.put(&u64::MAX);
        w.put(&usize::MAX);
        w.put(&true);
        w.put(&false);
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get::<u8>().unwrap(), 0xAB);
        assert_eq!(r.get::<u16>().unwrap(), 0x1234);
        assert_eq!(r.get::<u32>().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get::<u64>().unwrap(), u64::MAX);
        assert_eq!(r.get::<usize>().unwrap(), usize::MAX);
        assert!(r.get::<bool>().unwrap());
        assert!(!r.get::<bool>().unwrap());
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn containers_round_trip() {
        let mut w = StateWriter::new();
        w.put(&Some(7u32));
        w.put(&None::<u32>);
        w.put(&vec![1u16, 2, 3]);
        w.put(&String::from("tile(3,1)"));
        w.put(&(4usize, 9u64));
        w.put(&(1u8, 2u8, 3u64));
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get::<Option<u32>>().unwrap(), Some(7));
        assert_eq!(r.get::<Option<u32>>().unwrap(), None);
        assert_eq!(r.get::<Vec<u16>>().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get::<String>().unwrap(), "tile(3,1)");
        assert_eq!(r.get::<(usize, u64)>().unwrap(), (4, 9));
        assert_eq!(r.get::<(u8, u8, u64)>().unwrap(), (1, 2, 3));
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = StateWriter::new();
        w.put(&0x1234_5678u32);
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes[..3]);
        assert_eq!(r.get::<u32>(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn corrupt_tags_are_detected() {
        let mut r = StateReader::new(&[7]);
        assert!(matches!(r.get::<bool>(), Err(SnapshotError::Corrupt(_))));
        let mut r = StateReader::new(&[9, 0, 0, 0]);
        assert!(matches!(
            r.get::<Option<u8>>(),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_vec_length_is_truncation_not_alloc() {
        let mut w = StateWriter::new();
        w.put(&u64::MAX); // claimed length far beyond the buffer
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes);
        assert!(r.get::<Vec<u8>>().is_err());
    }

    #[test]
    fn bulk_slices_encode_like_vecs() {
        let words: Vec<u32> = (0..37u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let bytes: Vec<u8> = (0..41u8).collect();
        let mut bulk = StateWriter::new();
        bulk.put_u32s_padded(&words, words.len());
        bulk.put_u8s(&bytes);
        let mut each = StateWriter::new();
        each.put(&words);
        each.put(&bytes);
        let encoded = bulk.finish();
        assert_eq!(encoded, each.finish());
        let mut r = StateReader::new(&encoded);
        assert_eq!(r.get_u32s_trimmed().unwrap(), (37, words.clone()));
        assert_eq!(r.get_u8s().unwrap(), bytes);
        assert!(r.expect_end().is_ok());
        let mut r = StateReader::new(&encoded);
        assert_eq!(r.get::<Vec<u32>>().unwrap(), words);
        assert_eq!(r.get::<Vec<u8>>().unwrap(), bytes);
        assert!(r.expect_end().is_ok());
        // A short or absurdly long word array is a truncation, exactly as
        // for `get::<Vec<u32>>()`.
        let mut r = StateReader::new(&encoded[..8 + 4 * 36 + 2]);
        assert_eq!(r.get_u32s_trimmed(), Err(SnapshotError::Truncated));
        let mut r = StateReader::new(&encoded[..8 + 4 * 36 + 2]);
        assert_eq!(r.get::<Vec<u32>>(), Err(SnapshotError::Truncated));
        let mut r = StateReader::new(&[0xFF; 8]);
        assert!(r.get_u32s_trimmed().is_err());
        // Likewise for bytes: one short, or a length far past the buffer.
        let bytes_at = encoded.len() - 8 - 41;
        let mut r = StateReader::new(&encoded[bytes_at..encoded.len() - 1]);
        assert_eq!(r.get_u8s(), Err(SnapshotError::Truncated));
        let mut r = StateReader::new(&encoded[bytes_at..encoded.len() - 1]);
        assert_eq!(r.get::<Vec<u8>>(), Err(SnapshotError::Truncated));
        let mut r = StateReader::new(&[0xFF; 8]);
        assert_eq!(r.get_u8s(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn padded_words_encode_like_vecs_and_decode_trimmed() {
        // Prefixes ending in a nonzero or a zero word, padded to lengths
        // on both sides of the 16-word zero-scan block; all-zero arrays
        // included.
        for len in [0usize, 1, 2, 3, 4, 5, 8, 9, 15, 16, 17, 31, 32, 33, 47] {
            let mut prefixes = vec![0, 1, 2, len / 2, len.saturating_sub(1), len];
            prefixes.retain(|&p| p <= len);
            for prefix in prefixes {
                for zero_last in [false, true] {
                    let words: Vec<u32> = (0..prefix)
                        .map(|i| {
                            if (zero_last && i + 1 == prefix) || i % 3 == 1 {
                                0
                            } else {
                                0x8000_0001 ^ ((i as u32) << 8)
                            }
                        })
                        .collect();
                    let mut full = words.clone();
                    full.resize(len, 0);
                    let want =
                        full[..full.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1)].to_vec();
                    let mut padded = StateWriter::new();
                    padded.put_u32s_padded(&words, len);
                    let encoded = padded.finish();
                    let mut each = StateWriter::new();
                    each.put(&full);
                    assert_eq!(encoded, each.finish(), "len {len}, prefix {prefix}");
                    let mut r = StateReader::new(&encoded);
                    assert_eq!(r.get_u32s_trimmed(), Ok((len, want)), "len {len}");
                    assert!(r.expect_end().is_ok());
                    for cut in 0..encoded.len() {
                        let mut r = StateReader::new(&encoded[..cut]);
                        assert_eq!(r.get_u32s_trimmed(), Err(SnapshotError::Truncated));
                    }
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let bytes = [0u8; 5];
        let mut r = StateReader::new(&bytes);
        let _ = r.get::<u8>().unwrap();
        assert!(matches!(r.expect_end(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        assert_ne!(fnv1a64(b"snapshot"), fnv1a64(b"snapshoT"));
    }

    #[test]
    fn fnv_matches_bit_serial_at_every_length_and_offset() {
        for density in [256, 200, 24, 1] {
            let buf = test_bytes(SWEEP + 16, density, u64::from(density));
            for offset in 0..16 {
                let want = bit_serial_prefixes(&buf[offset..offset + SWEEP]);
                for (len, &want) in want.iter().enumerate() {
                    let got = fnv1a64(&buf[offset..offset + len]);
                    assert_eq!(got, want, "density {density}, offset {offset}, len {len}");
                }
            }
        }
    }

    #[test]
    fn fnv_matches_bit_serial_on_all_zero_buffers() {
        let zeros = vec![0u8; ZEROS_MAX];
        let want = bit_serial_prefixes(&zeros);
        for len in edge_lengths(ZEROS_MAX) {
            assert_eq!(fnv1a64(&zeros[..len]), want[len], "{len} zero bytes");
        }
    }

    #[test]
    fn fnv_matches_bit_serial_around_zero_runs() {
        // A zero run of every edge length, entered at every alignment,
        // with a nonzero byte right before and right after it.
        let (run_step, lead_step) = if cfg!(miri) { (4, 5) } else { (1, 1) };
        for run in edge_lengths(RUN_MAX).into_iter().step_by(run_step) {
            for lead in (0..16).step_by(lead_step) {
                let mut buf = vec![0xA5; lead + 1];
                buf.resize(buf.len() + run, 0);
                buf.push(0x5A);
                buf.resize(buf.len() + 15 - lead, 0);
                assert_eq!(fnv1a64(&buf), bit_serial(&buf), "lead {lead}, run {run}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        #[test]
        fn fnv_matches_bit_serial_on_random_buffers(
            len in 0usize..6000,
            density in 0u32..257,
            seed in any::<u64>(),
        ) {
            let len = if cfg!(miri) { len / 20 } else { len };
            let buf = test_bytes(len, density, seed);
            prop_assert_eq!(fnv1a64(&buf), bit_serial(&buf));
        }
    }
}
