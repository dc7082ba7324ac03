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

/// FNV-1a 64-bit hash — the integrity checksum for snapshot containers.
///
/// Not cryptographic; it guards against truncation and accidental
/// corruption, which is all an on-disk simulation checkpoint needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
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

    /// Appends one value using its [`Persist`] encoding.
    pub fn put<T: Persist>(&mut self, value: &T) {
        value.write_to(self);
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed byte slice in one copy: the same bytes
    /// as `put(&Vec<u8>)`.
    pub fn put_u8s(&mut self, bytes: &[u8]) {
        self.put(&bytes.len());
        self.put_bytes(bytes);
    }

    /// Appends a length-prefixed `u32` slice in one pass: the same bytes
    /// as `put(&Vec<u32>)`, without a call per element.
    pub fn put_u32s(&mut self, words: &[u32]) {
        self.put(&words.len());
        let start = self.buf.len();
        self.buf.resize(start + 4 * words.len(), 0);
        for (dst, word) in self.buf[start..].chunks_exact_mut(4).zip(words) {
            dst.copy_from_slice(&word.to_le_bytes());
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
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

    /// Decodes a length-prefixed `u32` slice in one pass: the inverse of
    /// [`StateWriter::put_u32s`], and equivalent to `get::<Vec<u32>>()`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if fewer words remain than the
    /// prefix declares.
    pub fn get_u32s(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let len: usize = self.get()?;
        let bytes = self.take_bytes(len.checked_mul(4).ok_or(SnapshotError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` once every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Asserts the stream is fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] when trailing bytes remain —
    /// a decoder that leaves data behind mis-parsed the payload.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.is_exhausted() {
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
        bulk.put_u32s(&words);
        bulk.put_u8s(&bytes);
        let mut each = StateWriter::new();
        each.put(&words);
        each.put(&bytes);
        let encoded = bulk.finish();
        assert_eq!(encoded, each.finish());
        let mut r = StateReader::new(&encoded);
        assert_eq!(r.get_u32s().unwrap(), words);
        assert_eq!(r.get::<Vec<u8>>().unwrap(), bytes);
        assert!(r.expect_end().is_ok());
        // A short or absurdly long word array is a truncation, exactly as
        // for `get::<Vec<u32>>()`.
        let mut r = StateReader::new(&encoded[..8 + 4 * 36 + 2]);
        assert_eq!(r.get_u32s(), Err(SnapshotError::Truncated));
        let mut r = StateReader::new(&encoded[..8 + 4 * 36 + 2]);
        assert_eq!(r.get::<Vec<u32>>(), Err(SnapshotError::Truncated));
        let mut r = StateReader::new(&[0xFF; 8]);
        assert!(r.get_u32s().is_err());
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
}
