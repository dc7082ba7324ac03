//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! Hand-rolled because the build image has no network access to pull a
//! checksum crate, and the workspace deliberately keeps model integrity
//! primitives dependency-free. The tables are computed at compile time.
//!
//! This is the *storage* checksum (frame headers and payloads,
//! [`crate::frame`]). The in-memory snapshot containers keep their
//! existing FNV-1a 64-bit digest — the two layers fail independently, so
//! a storage frame that passes CRC can still surface a container-level
//! checksum mismatch, and vice versa.
//!
//! The function is CRC-32/ISO-HDLC, computed 16 bytes at a time
//! (slicing-by-16). Checkpoint frames carry a mostly-zero 128 KiB TCDM
//! image, and feeding a zero byte through the register is multiplication
//! by x^8 modulo the polynomial, so a long run of all-zero 16-byte
//! chunks is skipped in one step: the register is multiplied by
//! x^(8k) mod P, built by square-and-multiply from a table of
//! x^(8·2^i) mod P (the operator zlib's `crc32_combine` uses). The result is bit-identical to
//! the bytewise definition.

/// Reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]`: the register contribution of byte `b` followed by
/// `k` zero bytes. `TABLES[0]` is the classic bytewise table.
const TABLES: [[u32; 256]; 16] = build_tables();

/// `ZERO_OPS[i]` is x^(8·2^i) mod P: multiplying the register by it
/// feeds 2^i zero bytes through it.
const ZERO_OPS: [u32; usize::BITS as usize] = build_zero_ops();

/// Shortest run of all-zero 16-byte chunks that is skipped with
/// [`ZERO_OPS`] rather than sliced through. Skipping `n` chunks costs one
/// [`mul_mod_p`] (about 45 ns) per set bit of `n`; slicing a zero chunk
/// costs about 4 ns (x86-64, release build). From 64 chunks on, the
/// skip is cheaper for every run length; below, slicing wins whenever
/// `n` has many set bits.
const SKIP_MIN_CHUNKS: usize = 64;

/// v·x mod P in the reflected representation (bit 31 is x^0): one
/// register shift.
const fn times_x(v: u32) -> u32 {
    if v & 1 != 0 {
        (v >> 1) ^ POLY
    } else {
        v >> 1
    }
}

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = times_x(crc);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// a·b mod P, both in the reflected representation.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = times_x(b);
        bit >>= 1;
    }
    product
}

const fn build_zero_ops() -> [u32; usize::BITS as usize] {
    // x^8 in the reflected representation.
    let mut ops = [1u32 << (31 - 8); usize::BITS as usize];
    let mut i = 1;
    while i < ops.len() {
        ops[i] = mul_mod_p(ops[i - 1], ops[i - 1]);
        i += 1;
    }
    ops
}

/// Feeds `zeros` zero bytes through the register in O(log zeros).
fn skip_zero_bytes(mut crc: u32, mut zeros: usize) -> u32 {
    let mut i = 0;
    while zeros != 0 {
        if zeros & 1 != 0 {
            crc = mul_mod_p(ZERO_OPS[i], crc);
        }
        zeros >>= 1;
        i += 1;
    }
    crc
}

/// Feeds one 16-byte chunk through the register.
fn slice16(crc: u32, c: &[u8; 16]) -> u32 {
    let x = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    let t = &TABLES;
    t[15][(x & 0xFF) as usize]
        ^ t[14][((x >> 8) & 0xFF) as usize]
        ^ t[13][((x >> 16) & 0xFF) as usize]
        ^ t[12][(x >> 24) as usize]
        ^ t[11][usize::from(c[4])]
        ^ t[10][usize::from(c[5])]
        ^ t[9][usize::from(c[6])]
        ^ t[8][usize::from(c[7])]
        ^ t[7][usize::from(c[8])]
        ^ t[6][usize::from(c[9])]
        ^ t[5][usize::from(c[10])]
        ^ t[4][usize::from(c[11])]
        ^ t[3][usize::from(c[12])]
        ^ t[2][usize::from(c[13])]
        ^ t[1][usize::from(c[14])]
        ^ t[0][usize::from(c[15])]
}

/// Feeds `chunks` all-zero 16-byte chunks through the register.
fn feed_zero_chunks(crc: u32, chunks: usize) -> u32 {
    if chunks >= SKIP_MIN_CHUNKS {
        skip_zero_bytes(crc, 16 * chunks)
    } else {
        (0..chunks).fold(crc, |crc, _| slice16(crc, &[0; 16]))
    }
}

/// CRC-32 of `bytes` with the standard init/final XOR (`!0`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let (chunks, tail) = bytes.as_chunks::<16>();
    let mut crc = !0u32;
    // All-zero chunks seen but not yet fed through the register.
    let mut zeros = 0;
    for chunk in chunks {
        if *chunk == [0; 16] {
            zeros += 1;
            continue;
        }
        crc = slice16(feed_zero_chunks(crc, zeros), chunk);
        zeros = 0;
    }
    crc = feed_zero_chunks(crc, zeros);
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Longest length of the offset sweep. Miri interprets every byte
    /// and runs these suites in CI, so it gets smaller sweeps.
    const SWEEP: usize = if cfg!(miri) { 48 } else { 1100 };
    /// Longest all-zero buffer checked.
    const ZEROS_MAX: usize = if cfg!(miri) { 1 << 11 } else { 1 << 17 };
    /// Longest zero run checked between nonzero bytes.
    const RUN_MAX: usize = if cfg!(miri) {
        SKIP_MIN_CHUNKS * 16 + 64
    } else {
        1 << 12
    };

    /// CRC-32/ISO-HDLC bit by bit, from the definition and without
    /// tables: `out[n]` is the CRC of `bytes[..n]`.
    fn bit_serial_prefixes(bytes: &[u8]) -> Vec<u32> {
        let mut reg = !0u32;
        let mut out = vec![!reg];
        for &b in bytes {
            reg ^= u32::from(b);
            for _ in 0..8 {
                reg = if reg & 1 != 0 {
                    (reg >> 1) ^ 0xEDB8_8320
                } else {
                    reg >> 1
                };
            }
            out.push(!reg);
        }
        out
    }

    fn bit_serial(bytes: &[u8]) -> u32 {
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

    /// Lengths within 17 bytes of every edge of the fast paths: the
    /// 16-byte chunks, the skip threshold and the powers of two.
    fn edge_lengths(max: usize) -> Vec<usize> {
        let skip = SKIP_MIN_CHUNKS * 16;
        let mut centers = vec![16, 32, skip - 16, skip, skip + 16, 2 * skip];
        centers.extend((3..usize::BITS).map(|k| 1usize << k));
        let mut lens: Vec<usize> = centers
            .into_iter()
            .flat_map(|c| c.saturating_sub(17)..=c + 17)
            .filter(|&len| len <= max)
            .collect();
        lens.sort_unstable();
        lens.dedup();
        lens
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let base = b"redmule checkpoint payload".to_vec();
        let d0 = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut m = base.clone();
                m[byte] ^= 1 << bit;
                assert_ne!(crc32(&m), d0, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn every_length_at_every_offset_matches_the_bit_serial_reference() {
        for density in [256, 200, 24, 1] {
            let buf = test_bytes(SWEEP + 16, density, u64::from(density));
            for offset in 0..16 {
                let want = bit_serial_prefixes(&buf[offset..offset + SWEEP]);
                for (len, &want) in want.iter().enumerate() {
                    let got = crc32(&buf[offset..offset + len]);
                    assert_eq!(got, want, "density {density}, offset {offset}, len {len}");
                }
            }
        }
    }

    #[test]
    fn all_zero_buffers_match_around_every_edge() {
        let zeros = vec![0u8; ZEROS_MAX];
        let want = bit_serial_prefixes(&zeros);
        for len in edge_lengths(ZEROS_MAX) {
            assert_eq!(crc32(&zeros[..len]), want[len], "{len} zero bytes");
        }
    }

    #[test]
    fn nonzero_bytes_around_zero_runs_match() {
        // A zero run of every edge length, entered at every alignment,
        // with a nonzero byte right before and right after it.
        let (run_step, lead_step) = if cfg!(miri) { (4, 5) } else { (1, 1) };
        for run in edge_lengths(RUN_MAX).into_iter().step_by(run_step) {
            for lead in (0..16).step_by(lead_step) {
                let mut buf = vec![0xA5; lead + 1];
                buf.resize(buf.len() + run, 0);
                buf.push(0x5A);
                buf.resize(buf.len() + 15 - lead, 0);
                assert_eq!(crc32(&buf), bit_serial(&buf), "lead {lead}, run {run}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        #[test]
        fn random_sparse_and_dense_buffers_match(
            len in 0usize..6000,
            density in 0u32..257,
            seed in any::<u64>(),
        ) {
            let len = if cfg!(miri) { len / 20 } else { len };
            let buf = test_bytes(len, density, seed);
            prop_assert_eq!(crc32(&buf), bit_serial(&buf));
        }
    }
}
