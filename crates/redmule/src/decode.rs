//! The serialised state containers (`RMSS` session snapshots here,
//! `RMCK` checkpoints in `redmule-runtime`): one envelope writer and its
//! typed decoder.
//!
//! Both containers share one envelope — magic, little-endian format
//! version, `u64` payload length, payload, FNV-1a-64 payload checksum —
//! and both used to report damage as an opaque string. Durable storage
//! made the damage cases load-bearing (recovery decides *repair or fall
//! back* per damage kind), so decoding now returns [`DecodeError`]: a
//! closed enum, one variant per way a container can be malformed, and a
//! guarantee that no input — truncated, bit-flipped, oversized or
//! adversarial — panics the decoder.

use redmule_hwsim::snapshot::fnv1a64;

/// The fixed part of a container envelope: 4 magic bytes, `u32`
/// version, `u64` payload length.
pub const CONTAINER_HEADER_LEN: usize = 16;
/// The trailing FNV-1a-64 checksum.
pub const CONTAINER_CHECKSUM_LEN: usize = 8;

/// Structural damage found while decoding a state container. Every
/// malformed input maps to exactly one variant; decoding never panics
/// and never loses the damage kind in a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The magic bytes do not identify `container` (or fewer than four
    /// bytes were present).
    NotAContainer {
        /// Which container was expected (`"session"`, `"checkpoint"`).
        container: &'static str,
    },
    /// A format version this build does not read.
    UnsupportedVersion {
        /// Which container the version belongs to.
        container: &'static str,
        /// Version this build understands.
        expected: u32,
        /// Version found in the stream.
        got: u32,
    },
    /// The stream ended before the declared data — a torn or cut
    /// container.
    Truncated {
        /// Which container was being decoded.
        container: &'static str,
    },
    /// The declared payload length does not fit in this host's `usize`.
    LengthOverflow {
        /// Which container was being decoded.
        container: &'static str,
        /// The declared length.
        declared: u64,
    },
    /// Bytes remained after the checksum — the container does not own
    /// its buffer.
    TrailingBytes {
        /// Which container was being decoded.
        container: &'static str,
        /// How many bytes were left over.
        extra: usize,
    },
    /// The stored payload checksum does not match the recomputed one.
    ChecksumMismatch {
        /// Which container was being decoded.
        container: &'static str,
    },
    /// The framing was intact but a decoded field holds a value its type
    /// cannot take (a bad tag, an index past the structure it points
    /// into).
    Corrupt {
        /// Which container or section was being decoded.
        container: &'static str,
        /// What was wrong.
        what: String,
    },
    /// The envelope was intact but a nested section failed to decode.
    Section {
        /// Which container was being decoded.
        container: &'static str,
        /// The section that failed (`"session"`, `"tcdm"`, ...).
        section: &'static str,
        /// The nested damage.
        cause: Box<DecodeError>,
    },
}

impl DecodeError {
    /// Stable lowercase label for trace events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            DecodeError::NotAContainer { .. } => "bad-magic",
            DecodeError::UnsupportedVersion { .. } => "bad-version",
            DecodeError::Truncated { .. } => "truncated",
            DecodeError::LengthOverflow { .. } => "length-overflow",
            DecodeError::TrailingBytes { .. } => "trailing-bytes",
            DecodeError::ChecksumMismatch { .. } => "checksum-mismatch",
            DecodeError::Corrupt { .. } => "corrupt",
            DecodeError::Section { .. } => "bad-section",
        }
    }

    /// Which container the damage was found in.
    pub fn container(&self) -> &'static str {
        match self {
            DecodeError::NotAContainer { container }
            | DecodeError::UnsupportedVersion { container, .. }
            | DecodeError::Truncated { container }
            | DecodeError::LengthOverflow { container, .. }
            | DecodeError::TrailingBytes { container, .. }
            | DecodeError::ChecksumMismatch { container }
            | DecodeError::Corrupt { container, .. }
            | DecodeError::Section { container, .. } => container,
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::NotAContainer { container } => {
                write!(f, "not a {container} container (bad magic)")
            }
            DecodeError::UnsupportedVersion {
                container,
                expected,
                got,
            } => write!(
                f,
                "unsupported {container} version {got} (this build reads {expected})"
            ),
            DecodeError::Truncated { container } => write!(f, "{container} container truncated"),
            DecodeError::LengthOverflow {
                container,
                declared,
            } => write!(
                f,
                "{container} payload length {declared} overflows this host"
            ),
            DecodeError::TrailingBytes { container, extra } => {
                write!(f, "{extra} trailing bytes after {container} container")
            }
            DecodeError::ChecksumMismatch { container } => {
                write!(f, "{container} payload checksum mismatch")
            }
            DecodeError::Corrupt { container, what } => write!(f, "{container} corrupt: {what}"),
            DecodeError::Section {
                container,
                section,
                cause,
            } => write!(f, "{container} section {section:?}: {cause}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Shape of one container family: its human name, magic and the single
/// version this build reads.
#[derive(Debug, Clone, Copy)]
pub struct ContainerSpec {
    /// Human name used in [`DecodeError`] (`"session"`, `"checkpoint"`).
    pub name: &'static str,
    /// The four magic bytes.
    pub magic: [u8; 4],
    /// The format version this build reads.
    pub version: u32,
}

/// Wraps `payload` in the envelope of `spec`: magic, version, `u64`
/// payload length, the payload, then its FNV-1a-64 checksum. The one
/// writer [`decode_container`] reads; the container is built in a single
/// pre-sized allocation.
pub fn encode_container(spec: ContainerSpec, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(CONTAINER_HEADER_LEN + payload.len() + CONTAINER_CHECKSUM_LEN);
    out.extend_from_slice(&spec.magic);
    out.extend_from_slice(&spec.version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out
}

/// Validates the envelope of `bytes` against `spec` and returns the
/// payload. Total function of the input: any byte stream yields either
/// the payload or a typed [`DecodeError`] — never a panic.
///
/// # Errors
///
/// The [`DecodeError`] variant matching the first structural problem
/// found, scanning front to back.
pub fn decode_container(spec: ContainerSpec, bytes: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let container = spec.name;
    if bytes.len() < 4 || bytes[..4] != spec.magic {
        if bytes.len() >= 4 {
            return Err(DecodeError::NotAContainer { container });
        }
        // Shorter than the magic: could be a torn copy of a valid
        // container, report the more actionable truncation if the
        // prefix still matches.
        return if spec.magic.starts_with(bytes) {
            Err(DecodeError::Truncated { container })
        } else {
            Err(DecodeError::NotAContainer { container })
        };
    }
    if bytes.len() < CONTAINER_HEADER_LEN {
        return Err(DecodeError::Truncated { container });
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != spec.version {
        return Err(DecodeError::UnsupportedVersion {
            container,
            expected: spec.version,
            got: version,
        });
    }
    let declared = u64::from_le_bytes([
        bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
    ]);
    let len = usize::try_from(declared).map_err(|_| DecodeError::LengthOverflow {
        container,
        declared,
    })?;
    let after_header = bytes.len() - CONTAINER_HEADER_LEN;
    if len > after_header.saturating_sub(CONTAINER_CHECKSUM_LEN)
        || len.checked_add(CONTAINER_CHECKSUM_LEN).is_none()
    {
        return Err(DecodeError::Truncated { container });
    }
    let payload = &bytes[CONTAINER_HEADER_LEN..CONTAINER_HEADER_LEN + len];
    let checksum_at = CONTAINER_HEADER_LEN + len;
    let extra = bytes.len() - checksum_at - CONTAINER_CHECKSUM_LEN;
    if extra != 0 {
        return Err(DecodeError::TrailingBytes { container, extra });
    }
    let stored = u64::from_le_bytes([
        bytes[checksum_at],
        bytes[checksum_at + 1],
        bytes[checksum_at + 2],
        bytes[checksum_at + 3],
        bytes[checksum_at + 4],
        bytes[checksum_at + 5],
        bytes[checksum_at + 6],
        bytes[checksum_at + 7],
    ]);
    if fnv1a64(payload) != stored {
        return Err(DecodeError::ChecksumMismatch { container });
    }
    Ok(payload.to_vec())
}

/// Reads a `u64`-length-prefixed byte section at `*pos` in `payload`
/// (the `StateWriter` encoding of `Vec<u8>`), advancing `*pos`. The
/// section is borrowed, so a caller can parse it in place.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when the prefix or body runs past the
/// payload.
pub fn take_byte_section<'a>(
    container: &'static str,
    payload: &'a [u8],
    pos: &mut usize,
) -> Result<&'a [u8], DecodeError> {
    let truncated = || DecodeError::Truncated { container };
    let at = *pos;
    let header = payload.get(at..at + 8).ok_or_else(truncated)?;
    let declared = u64::from_le_bytes([
        header[0], header[1], header[2], header[3], header[4], header[5], header[6], header[7],
    ]);
    let len = usize::try_from(declared).map_err(|_| DecodeError::LengthOverflow {
        container,
        declared,
    })?;
    let body = payload
        .get(at + 8..(at + 8).checked_add(len).ok_or_else(truncated)?)
        .ok_or_else(truncated)?;
    *pos = at + 8 + len;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: ContainerSpec = ContainerSpec {
        name: "test",
        magic: *b"TSTC",
        version: 3,
    };

    #[test]
    fn round_trip_and_typed_damage() {
        let bytes = encode_container(SPEC, b"payload-bytes");
        assert_eq!(decode_container(SPEC, &bytes).unwrap(), b"payload-bytes");

        let mut wrong_magic = bytes.clone();
        wrong_magic[1] = b'X';
        assert_eq!(
            decode_container(SPEC, &wrong_magic),
            Err(DecodeError::NotAContainer { container: "test" })
        );

        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert!(matches!(
            decode_container(SPEC, &wrong_version),
            Err(DecodeError::UnsupportedVersion { got: 9, .. })
        ));

        let mut flipped = bytes.clone();
        flipped[CONTAINER_HEADER_LEN] ^= 1;
        assert_eq!(
            decode_container(SPEC, &flipped),
            Err(DecodeError::ChecksumMismatch { container: "test" })
        );

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_container(SPEC, &trailing),
            Err(DecodeError::TrailingBytes { extra: 1, .. })
        ));

        for cut in 0..bytes.len() {
            assert!(decode_container(SPEC, &bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn byte_sections_decode_and_reject_truncation() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&3u64.to_le_bytes());
        payload.extend_from_slice(b"abc");
        payload.extend_from_slice(&0u64.to_le_bytes());
        let mut pos = 0;
        assert_eq!(
            take_byte_section("test", &payload, &mut pos).unwrap(),
            b"abc"
        );
        assert_eq!(take_byte_section("test", &payload, &mut pos).unwrap(), b"");
        assert_eq!(pos, payload.len());
        assert!(take_byte_section("test", &payload, &mut pos).is_err());
        // Length prefix larger than the body.
        let mut lying = Vec::new();
        lying.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut pos = 0;
        assert!(take_byte_section("test", &lying, &mut pos).is_err());
    }
}
