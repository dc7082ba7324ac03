//! The on-storage record frame: magic, version, kind, length, payload,
//! CRC-32.
//!
//! Every durable record — each journal entry and each checkpoint object
//! — is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "RMFR"
//! 4       2     format version (little-endian)
//! 6       2     record kind (caller-defined, little-endian)
//! 8       4     payload length (little-endian)
//! 12      len   payload
//! 12+len  4     CRC-32 over bytes 4 .. 12+len (version..payload)
//! ```
//!
//! The CRC covers the header fields after the magic, so a bit flip in
//! version, kind or length is caught as a checksum mismatch (or, when
//! the flipped length runs past the buffer, as a truncation), while a
//! flipped magic is reported as such. [`scan_frames`] walks a byte
//! stream and stops at the first damage, reporting the damage kind and
//! the length of the valid prefix — exactly what journal repair needs.

use crate::crc::crc32;

/// Frame magic, `RMFR`.
pub const FRAME_MAGIC: [u8; 4] = *b"RMFR";
/// Current frame format version.
pub const FRAME_VERSION: u16 = 1;
/// Fixed header length (magic + version + kind + payload length).
pub const FRAME_HEADER_LEN: usize = 12;
/// Trailing CRC length.
pub const FRAME_CRC_LEN: usize = 4;

/// Encodes one frame.
pub fn encode_frame(kind: u16, payload: &[u8]) -> Vec<u8> {
    encode_frame_parts(kind, &[payload])
}

/// Encodes one frame whose payload is `parts` laid end to end: the
/// bytes of `encode_frame(kind, &parts.concat())`, built in one buffer
/// with the CRC computed in place.
pub fn encode_frame_parts(kind: u16, parts: &[&[u8]]) -> Vec<u8> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + len + FRAME_CRC_LEN);
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&FRAME_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(len as u32).to_le_bytes());
    for part in parts {
        out.extend_from_slice(part);
    }
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// One decoded frame from a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Caller-defined record kind.
    pub kind: u16,
    /// The payload bytes.
    pub payload: Vec<u8>,
    /// Byte offset of the frame's first byte in the scanned stream.
    pub offset: usize,
}

/// What the scanner found wrong, with enough detail for a typed repair
/// event. `offset` is always the first byte of the damaged frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDamage {
    /// Fewer than [`FRAME_HEADER_LEN`] bytes remained — a torn header.
    TruncatedHeader {
        /// Offset of the damaged frame.
        offset: usize,
        /// Bytes that were present.
        available: usize,
    },
    /// The magic bytes did not read `RMFR`.
    BadMagic {
        /// Offset of the damaged frame.
        offset: usize,
    },
    /// A version this decoder does not speak.
    BadVersion {
        /// Offset of the damaged frame.
        offset: usize,
        /// The version field as stored.
        got: u16,
    },
    /// The declared payload + CRC ran past the end of the stream — a
    /// torn payload (or a corrupted length field).
    TruncatedPayload {
        /// Offset of the damaged frame.
        offset: usize,
        /// Bytes the frame claimed to need past the header.
        needed: usize,
        /// Bytes actually present past the header.
        available: usize,
    },
    /// The stored CRC does not match the recomputed one.
    ChecksumMismatch {
        /// Offset of the damaged frame.
        offset: usize,
        /// CRC as stored in the frame.
        stored: u32,
        /// CRC recomputed over the frame bytes.
        computed: u32,
    },
}

impl FrameDamage {
    /// Offset of the first byte of the damaged frame — everything
    /// before this is intact and keepable.
    pub fn offset(&self) -> usize {
        match *self {
            FrameDamage::TruncatedHeader { offset, .. }
            | FrameDamage::BadMagic { offset }
            | FrameDamage::BadVersion { offset, .. }
            | FrameDamage::TruncatedPayload { offset, .. }
            | FrameDamage::ChecksumMismatch { offset, .. } => offset,
        }
    }
}

impl std::fmt::Display for FrameDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FrameDamage::TruncatedHeader { offset, available } => {
                write!(f, "torn frame header at byte {offset} ({available} bytes)")
            }
            FrameDamage::BadMagic { offset } => write!(f, "bad frame magic at byte {offset}"),
            FrameDamage::BadVersion { offset, got } => {
                write!(f, "unknown frame version {got} at byte {offset}")
            }
            FrameDamage::TruncatedPayload {
                offset,
                needed,
                available,
            } => write!(
                f,
                "torn frame payload at byte {offset}: {needed} bytes declared, {available} present"
            ),
            FrameDamage::ChecksumMismatch {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "frame checksum mismatch at byte {offset}: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

/// Result of scanning a byte stream: the valid frame prefix, where it
/// ends, and (if the stream did not end cleanly) the first damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Every frame up to the first damage, in stream order.
    pub frames: Vec<Frame>,
    /// Length in bytes of the valid prefix — truncating the stream to
    /// this length yields a fully valid stream.
    pub valid_len: usize,
    /// The first damage found, or `None` if the stream ended exactly on
    /// a frame boundary.
    pub damage: Option<FrameDamage>,
}

/// Walks `bytes` frame by frame, stopping at the first damage.
///
/// Never fails: damage is data, not an error — the caller decides
/// whether a damaged tail is repairable (journal) or fatal
/// (checkpoint).
pub fn scan_frames(bytes: &[u8]) -> ScanOutcome {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    let damage = loop {
        if pos == bytes.len() {
            break None;
        }
        let rest = &bytes[pos..];
        if rest.len() < FRAME_HEADER_LEN {
            break Some(FrameDamage::TruncatedHeader {
                offset: pos,
                available: rest.len(),
            });
        }
        if rest[..4] != FRAME_MAGIC {
            break Some(FrameDamage::BadMagic { offset: pos });
        }
        let version = u16::from_le_bytes([rest[4], rest[5]]);
        if version != FRAME_VERSION {
            break Some(FrameDamage::BadVersion {
                offset: pos,
                got: version,
            });
        }
        let kind = u16::from_le_bytes([rest[6], rest[7]]);
        let len = u32::from_le_bytes([rest[8], rest[9], rest[10], rest[11]]) as usize;
        let needed = len + FRAME_CRC_LEN;
        let available = rest.len() - FRAME_HEADER_LEN;
        if needed > available {
            break Some(FrameDamage::TruncatedPayload {
                offset: pos,
                needed,
                available,
            });
        }
        let payload = &rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        let crc_at = FRAME_HEADER_LEN + len;
        let stored = u32::from_le_bytes([
            rest[crc_at],
            rest[crc_at + 1],
            rest[crc_at + 2],
            rest[crc_at + 3],
        ]);
        let computed = crc32(&rest[4..crc_at]);
        if stored != computed {
            break Some(FrameDamage::ChecksumMismatch {
                offset: pos,
                stored,
                computed,
            });
        }
        frames.push(Frame {
            kind,
            payload: payload.to_vec(),
            offset: pos,
        });
        pos += crc_at + FRAME_CRC_LEN;
    };
    ScanOutcome {
        frames,
        valid_len: pos,
        damage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Vec<u8> {
        let mut s = encode_frame(1, b"alpha");
        s.extend_from_slice(&encode_frame(2, b""));
        s.extend_from_slice(&encode_frame(3, b"the third payload"));
        s
    }

    #[test]
    fn parts_encode_like_their_concatenation() {
        let parts: [&[u8]; 4] = [b"head", b"", &[0; 40], b"tail"];
        assert_eq!(
            encode_frame_parts(9, &parts),
            encode_frame(9, &parts.concat())
        );
        assert_eq!(encode_frame_parts(9, &[]), encode_frame(9, b""));
    }

    #[test]
    fn clean_stream_scans_fully() {
        let s = stream();
        let out = scan_frames(&s);
        assert_eq!(out.damage, None);
        assert_eq!(out.valid_len, s.len());
        assert_eq!(out.frames.len(), 3);
        assert_eq!(out.frames[0].kind, 1);
        assert_eq!(out.frames[0].payload, b"alpha");
        assert_eq!(out.frames[1].payload, b"");
        assert_eq!(out.frames[2].kind, 3);
        assert_eq!(scan_frames(&[]).frames, vec![]);
    }

    #[test]
    fn every_truncation_point_keeps_a_valid_prefix() {
        let s = stream();
        for cut in 0..s.len() {
            let out = scan_frames(&s[..cut]);
            // The reported valid prefix must itself scan clean.
            let again = scan_frames(&s[..out.valid_len]);
            assert_eq!(again.damage, None, "cut {cut}");
            assert_eq!(again.frames.len(), out.frames.len(), "cut {cut}");
            assert_eq!(out.damage.is_some(), cut != out.valid_len, "cut {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let s = stream();
        for byte in 0..s.len() {
            let mut m = s.clone();
            m[byte] ^= 1 << (byte % 8);
            let out = scan_frames(&m);
            assert!(out.damage.is_some(), "flip at byte {byte} undetected");
            // Frames before the damaged one still decode.
            assert!(out.valid_len <= s.len());
        }
    }

    #[test]
    fn damage_kinds_are_typed() {
        let s = stream();
        // Bad magic on the first frame.
        let mut m = s.clone();
        m[0] = b'X';
        assert!(matches!(
            scan_frames(&m).damage,
            Some(FrameDamage::BadMagic { offset: 0 })
        ));
        // Bad version.
        let mut m = s.clone();
        m[4] = 0x7F;
        assert!(matches!(
            scan_frames(&m).damage,
            Some(FrameDamage::BadVersion { offset: 0, .. })
        ));
        // Length field inflated past the buffer → truncated payload.
        let mut m = s.clone();
        m[8] = 0xFF;
        m[9] = 0xFF;
        assert!(matches!(
            scan_frames(&m).damage,
            Some(FrameDamage::TruncatedPayload { offset: 0, .. })
        ));
        // Payload flip → checksum mismatch.
        let mut m = s.clone();
        m[FRAME_HEADER_LEN] ^= 0x40;
        assert!(matches!(
            scan_frames(&m).damage,
            Some(FrameDamage::ChecksumMismatch { offset: 0, .. })
        ));
        // Torn header on the second frame.
        let first_len = FRAME_HEADER_LEN + 5 + FRAME_CRC_LEN;
        let out = scan_frames(&s[..first_len + 3]);
        assert_eq!(out.frames.len(), 1);
        assert!(matches!(
            out.damage,
            Some(FrameDamage::TruncatedHeader { available: 3, .. })
        ));
    }
}
