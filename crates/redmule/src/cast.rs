//! The cast-in/cast-out stages between TCDM storage and the FP16 datapath.
//!
//! Models the RTL's `redmule_castin`/`redmule_castout` modules: operands may
//! be stored in TCDM in a narrower [`Format`] than the datapath precision.
//! On the way in, every element is widened to FP16 (`castin`; exact for both
//! FP8 formats), fed through the unchanged FP16 FMA core, and on the way out
//! narrowed back to the storage format with round-to-nearest-even
//! (`castout`, the FPU's default mode — the single rounding the real cast
//! unit performs).
//!
//! The run helpers move a dense run of elements in one pass:
//! [`castin_run`] widens a run into a caller's buffer (the streamer casts
//! each transfer straight into its buffer slot) and [`castout_run`]
//! narrows one out to TCDM. The accelerator front end uses the same two
//! to lay a matrix of FP16 values out in TCDM in the job's storage format
//! and to read results back widened ([`castin_slice`] allocates the
//! buffer), for any format.

use redmule_cluster::{MemError, Tcdm};
use redmule_fp16::{Format, E4M3, E5M2, F16};

/// Reads one element stored at `addr` in `format`, widened to FP16.
///
/// Widening is exact: every FP8 bit pattern (subnormals, infinities and
/// NaNs included) has a unique FP16 image.
///
/// # Errors
///
/// [`MemError`] when the access leaves the TCDM (or, for FP16 storage, is
/// misaligned).
fn castin(mem: &Tcdm, format: Format, addr: u32) -> Result<F16, MemError> {
    Ok(match format {
        Format::Fp16 => mem.read_f16(addr)?,
        Format::Fp8E4M3 => E4M3::from_bits(mem.read_u8(addr)?).to_f16(),
        Format::Fp8E5M2 => E5M2::from_bits(mem.read_u8(addr)?).to_f16(),
    })
}

/// Narrows one FP16 element to `format` with round-to-nearest-even and
/// stores it at `addr`.
///
/// # Errors
///
/// [`MemError`] when the access leaves the TCDM (or, for FP16 storage, is
/// misaligned).
fn castout(mem: &mut Tcdm, format: Format, addr: u32, value: F16) -> Result<(), MemError> {
    match format {
        Format::Fp16 => mem.write_f16(addr, value),
        Format::Fp8E4M3 => mem.write_u8(addr, E4M3::from_f16(value).to_bits()),
        Format::Fp8E5M2 => mem.write_u8(addr, E5M2::from_f16(value).to_bits()),
    }
}

/// The one-pass form of a run at `addr` in `format`: the byte offset of
/// its first element inside the run's first word, or `None` when the run
/// must take the per-element path (an odd FP16 address, which that path
/// reports as misaligned).
fn run_offset(format: Format, addr: u32) -> Option<usize> {
    (format != Format::Fp16 || addr.is_multiple_of(2)).then_some((addr & 3) as usize)
}

/// Reads `out.len()` densely stored elements at `addr` in `format`,
/// widened to FP16, into `out`.
///
/// A run inside the TCDM is decoded from its words in one pass, with one
/// bounds check. A run that leaves the TCDM, a misaligned FP16 run or an
/// armed stuck-at fault takes the per-element `castin` path instead,
/// which fails on the first bad element.
///
/// # Errors
///
/// As `castin`, for the first failing element; `out` is then partly
/// written.
pub fn castin_run(mem: &Tcdm, format: Format, addr: u32, out: &mut [F16]) -> Result<(), MemError> {
    let esz = format.elem_bytes();
    let fast =
        run_offset(format, addr).and_then(|off| Some((off, mem.run(addr, out.len() * esz)?)));
    let Some((off, words)) = fast else {
        for (i, v) in out.iter_mut().enumerate() {
            *v = castin(mem, format, addr + (esz * i) as u32)?;
        }
        return Ok(());
    };
    let bytes = || words.iter().flat_map(|w| w.to_le_bytes()).skip(off);
    match format {
        Format::Fp16 => {
            let halves = words.iter().flat_map(|&w| [w as u16, (w >> 16) as u16]);
            for (v, h) in out.iter_mut().zip(halves.skip(off / 2)) {
                *v = F16::from_bits(h);
            }
        }
        Format::Fp8E4M3 => {
            for (v, b) in out.iter_mut().zip(bytes()) {
                *v = E4M3::from_bits(b).to_f16();
            }
        }
        Format::Fp8E5M2 => {
            for (v, b) in out.iter_mut().zip(bytes()) {
                *v = E5M2::from_bits(b).to_f16();
            }
        }
    }
    Ok(())
}

/// Narrows a dense run of FP16 values to `format` with
/// round-to-nearest-even and stores it at `addr` (elements are
/// `format.elem_bytes()` apart).
///
/// A run inside the TCDM is written in one pass, with one bounds check; a
/// run that leaves the TCDM or a misaligned FP16 run takes the
/// per-element `castout` path, which fails on the first bad element.
///
/// # Errors
///
/// As `castout`, for the first failing element; the elements before it
/// are written.
pub fn castout_run(
    mem: &mut Tcdm,
    format: Format,
    addr: u32,
    data: &[F16],
) -> Result<(), MemError> {
    let esz = format.elem_bytes();
    let off = run_offset(format, addr);
    let Some((off, words)) = off.and_then(|off| Some((off, mem.run_mut(addr, data.len() * esz)?)))
    else {
        for (i, v) in data.iter().enumerate() {
            castout(mem, format, addr + (esz * i) as u32, *v)?;
        }
        return Ok(());
    };
    for (i, v) in data.iter().enumerate() {
        let (bits, mask) = match format {
            Format::Fp16 => (u32::from(v.to_bits()), 0xFFFF),
            Format::Fp8E4M3 => (E4M3::from_f16(*v).to_bits().into(), 0xFF),
            Format::Fp8E5M2 => (E5M2::from_f16(*v).to_bits().into(), 0xFF),
        };
        let byte = off + esz * i;
        let shift = 8 * (byte & 3);
        let word = &mut words[byte / 4];
        *word = (*word & !(mask << shift)) | (bits << shift);
    }
    Ok(())
}

/// Reads `n` densely stored elements at `addr` in `format`, widened to FP16.
///
/// # Errors
///
/// As [`castin_run`].
pub fn castin_slice(mem: &Tcdm, format: Format, addr: u32, n: usize) -> Result<Vec<F16>, MemError> {
    let mut out = vec![F16::ZERO; n];
    castin_run(mem, format, addr, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use redmule_cluster::ClusterConfig;

    fn mem() -> Tcdm {
        Tcdm::new(&ClusterConfig::default())
    }

    #[test]
    fn fp16_path_is_the_plain_halfword_access() {
        let mut m = mem();
        let v = F16::from_bits(0x3C01);
        castout(&mut m, Format::Fp16, 8, v).unwrap();
        assert_eq!(m.read_u16(8).unwrap(), 0x3C01);
        assert_eq!(castin(&m, Format::Fp16, 8).unwrap(), v);
    }

    #[test]
    fn fp8_round_trips_are_lossless_for_stored_values() {
        let mut m = mem();
        for format in [Format::Fp8E4M3, Format::Fp8E5M2] {
            for bits in 0u16..=0xFF {
                m.write_u8(0, bits as u8).unwrap();
                let wide = castin(&m, format, 0).unwrap();
                castout(&mut m, format, 1, wide).unwrap();
                assert_eq!(
                    m.read_u8(1).unwrap(),
                    bits as u8,
                    "{format} pattern {bits:#04x}"
                );
            }
        }
    }

    #[test]
    fn castout_narrows_with_nearest_even() {
        let mut m = mem();
        // 1.0 + 1 ulp snaps back to 1.0 in either FP8 format.
        castout(&mut m, Format::Fp8E4M3, 0, F16::from_bits(0x3C01)).unwrap();
        assert_eq!(m.read_u8(0).unwrap(), E4M3::ONE.to_bits());
        // Finite overflow follows OFP8: NaN for E4M3, Inf for E5M2.
        castout(&mut m, Format::Fp8E4M3, 0, F16::MAX).unwrap();
        assert!(E4M3::from_bits(m.read_u8(0).unwrap()).is_nan());
        castout(&mut m, Format::Fp8E5M2, 0, F16::MAX).unwrap();
        assert!(E5M2::from_bits(m.read_u8(0).unwrap()).is_infinite());
    }

    /// The per-element reference a run must reproduce, error included.
    fn castin_each(m: &Tcdm, format: Format, addr: u32, n: usize) -> Result<Vec<u16>, MemError> {
        let esz = format.elem_bytes() as u32;
        (0..n as u32)
            .map(|i| castin(m, format, addr + esz * i).map(F16::to_bits))
            .collect()
    }

    #[test]
    fn runs_match_the_per_element_path() {
        let mut m = mem();
        let size = m.size_bytes() as u32;
        let pattern = |a: u32| (a.wrapping_mul(0x9E37_79B9) >> 24) as u8;
        for a in (0..64).chain(size - 64..size) {
            m.write_u8(a, pattern(a)).unwrap();
        }
        for format in [Format::Fp16, Format::Fp8E4M3, Format::Fp8E5M2] {
            // Every start offset inside a word (odd FP16 starts are
            // misaligned), every length up to 17, and runs that cross the
            // end of the TCDM.
            let starts = (0..8).chain(size - 24..size + 2);
            for addr in starts {
                for n in 0..=17 {
                    let mut out = vec![F16::ZERO; n];
                    let run = castin_run(&m, format, addr, &mut out)
                        .map(|()| out.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
                    let each = castin_each(&m, format, addr, n);
                    assert_eq!(run, each, "{format} castin at {addr:#x} x{n}");

                    let data: Vec<F16> = (0..n as u16)
                        .map(|i| F16::from_bits(0x3C01 + 77 * i))
                        .collect();
                    let (mut a, mut b) = (m.clone(), m.clone());
                    let run = castout_run(&mut a, format, addr, &data);
                    let esz = format.elem_bytes() as u32;
                    let each = data
                        .iter()
                        .enumerate()
                        .try_for_each(|(i, v)| castout(&mut b, format, addr + esz * i as u32, *v));
                    assert_eq!(run, each, "{format} castout at {addr:#x} x{n}");
                    for w in (0..64).chain(size - 64..size).step_by(4) {
                        assert_eq!(a.read_u32(w), b.read_u32(w), "{format} word {w:#x}");
                    }
                }
            }
        }
        // An armed stuck-at fault sends the read through the access path,
        // which applies it.
        let stuck = redmule_hwsim::StuckBit {
            bit: 9,
            value: true,
        };
        m.set_stuck(4, stuck).unwrap();
        let mut out = vec![F16::ZERO; 8];
        castin_run(&m, Format::Fp16, 0, &mut out).unwrap();
        let got: Vec<u16> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(Ok(got), castin_each(&m, Format::Fp16, 0, 8));
        assert_eq!(m.read_u16(4).unwrap() & (1 << 9), 1 << 9);
    }

    #[test]
    fn slices_pack_at_element_pitch() {
        let mut m = mem();
        let data: Vec<F16> = (0..5).map(|i| F16::from_f32(i as f32)).collect();
        castout_run(&mut m, Format::Fp8E4M3, 3, &data).unwrap();
        // Bytes are packed contiguously from an unaligned base address.
        assert_eq!(m.read_u8(3).unwrap(), 0x00);
        assert_eq!(m.read_u8(4).unwrap(), E4M3::ONE.to_bits());
        let back = castin_slice(&m, Format::Fp8E4M3, 3, 5).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The FP16 path keeps the 2-byte pitch.
        castout_run(&mut m, Format::Fp16, 64, &data).unwrap();
        let back = castin_slice(&m, Format::Fp16, 64, 5).unwrap();
        assert_eq!(back[4].to_bits(), data[4].to_bits());
    }
}
