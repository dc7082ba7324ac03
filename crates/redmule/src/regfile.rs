//! The HWPE peripheral register file.
//!
//! RedMulE is "software-programmed by the cores": a core writes the job
//! descriptor (matrix pointers and sizes) into memory-mapped registers and
//! then triggers the accelerator, exactly as in the HWPE specification this
//! module mirrors. The [`crate::Accelerator`] consumes the decoded
//! [`Job`].

use crate::engine::EngineError;
use redmule_fp16::Format;
use redmule_hwsim::snapshot::{SnapshotError, StateReader, StateWriter};
use std::fmt;

/// Register offsets (byte addresses in the HWPE peripheral window).
pub mod offsets {
    /// Write-any to start the configured job.
    pub const TRIGGER: u32 = 0x00;
    /// Read: bit 0 = busy.
    pub const STATUS: u32 = 0x04;
    /// Soft-clear: write-any to abort/reset the job configuration.
    pub const SOFT_CLEAR: u32 = 0x08;
    /// Pointer to the X matrix in TCDM.
    pub const X_ADDR: u32 = 0x20;
    /// Pointer to the W matrix in TCDM.
    pub const W_ADDR: u32 = 0x24;
    /// Pointer to the Z matrix in TCDM.
    pub const Z_ADDR: u32 = 0x28;
    /// Rows of X / Z (`M`).
    pub const M_SIZE: u32 = 0x2C;
    /// Columns of X / rows of W (`N`).
    pub const N_SIZE: u32 = 0x30;
    /// Columns of W / Z (`K`).
    pub const K_SIZE: u32 = 0x34;
    /// Job flags: bit 0 = accumulate into existing Z; bits \[2:1\] =
    /// operand storage format (0 = FP16, 1 = FP8 E4M3, 2 = FP8 E5M2; the
    /// encoding 3 is reserved and decodes as FP16).
    pub const FLAGS: u32 = 0x38;
    /// Row stride of X in elements (0 = dense, i.e. `N`).
    pub const X_STRIDE: u32 = 0x3C;
    /// Row stride of W in elements (0 = dense, i.e. `K`).
    pub const W_STRIDE: u32 = 0x40;
    /// Row stride of Z in elements (0 = dense, i.e. `K`).
    pub const Z_STRIDE: u32 = 0x44;
}

/// A fully described matrix-multiplication job: `Z = X * W` (plus `+ Z` in
/// accumulate mode), with row-major operands resident in the TCDM.
///
/// # Example
///
/// ```
/// use redmule::Job;
///
/// let job = Job::new(0x0000, 0x1000, 0x2000, 8, 16, 8);
/// assert_eq!(job.shape().macs(), 8 * 16 * 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// Byte address of X (`m x n`, row-major FP16).
    pub x_addr: u32,
    /// Byte address of W (`n x k`, row-major FP16).
    pub w_addr: u32,
    /// Byte address of Z (`m x k`, row-major FP16).
    pub z_addr: u32,
    /// Rows of X and Z.
    pub m: usize,
    /// Reduction dimension.
    pub n: usize,
    /// Columns of W and Z.
    pub k: usize,
    /// When `true`, accumulate onto the existing contents of Z
    /// (`Z += X * W`) instead of overwriting.
    pub accumulate: bool,
    /// Row stride of X in elements; `0` means dense (`n`). Strides let a
    /// job read a sub-matrix in place, like the silicon streamer's address
    /// generators.
    pub x_stride: usize,
    /// Row stride of W in elements; `0` means dense (`k`).
    pub w_stride: usize,
    /// Row stride of Z in elements; `0` means dense (`k`).
    pub z_stride: usize,
    /// Storage format of the X/W/Z operands in TCDM. FP8 operands are
    /// widened at buffer fill (castin) and narrowed at store drain
    /// (castout); the FMA datapath always accumulates in FP16.
    pub format: Format,
}

impl Job {
    /// Creates a non-accumulating, densely laid-out job.
    pub fn new(x_addr: u32, w_addr: u32, z_addr: u32, m: usize, n: usize, k: usize) -> Job {
        Job {
            x_addr,
            w_addr,
            z_addr,
            m,
            n,
            k,
            accumulate: false,
            x_stride: 0,
            w_stride: 0,
            z_stride: 0,
            format: Format::Fp16,
        }
    }

    /// Returns a copy with accumulate mode enabled.
    #[must_use]
    pub fn with_accumulate(mut self) -> Job {
        self.accumulate = true;
        self
    }

    /// Returns a copy with the given operand storage format.
    #[must_use]
    pub fn with_format(mut self, format: Format) -> Job {
        self.format = format;
        self
    }

    /// Returns a copy with explicit row strides in elements (`0` keeps a
    /// dimension dense). Strides must be at least the dense width.
    #[must_use]
    pub fn with_strides(mut self, x_stride: usize, w_stride: usize, z_stride: usize) -> Job {
        self.x_stride = x_stride;
        self.w_stride = w_stride;
        self.z_stride = z_stride;
        self
    }

    /// Effective X row stride in elements.
    pub fn x_ld(&self) -> usize {
        if self.x_stride == 0 {
            self.n
        } else {
            self.x_stride
        }
    }

    /// Effective W row stride in elements.
    pub fn w_ld(&self) -> usize {
        if self.w_stride == 0 {
            self.k
        } else {
            self.w_stride
        }
    }

    /// Effective Z row stride in elements.
    pub fn z_ld(&self) -> usize {
        if self.z_stride == 0 {
            self.k
        } else {
            self.z_stride
        }
    }

    /// The GEMM shape of this job.
    pub fn shape(&self) -> redmule_fp16::vector::GemmShape {
        redmule_fp16::vector::GemmShape::new(self.m, self.n, self.k)
    }

    /// Validates pointer alignment (operands must be element-aligned:
    /// 2 bytes for FP16; FP8 bytes are always aligned).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let align = self.format.elem_bytes() as u32;
        for (name, addr) in [
            ("x_addr", self.x_addr),
            ("w_addr", self.w_addr),
            ("z_addr", self.z_addr),
        ] {
            if addr % align != 0 {
                return Err(format!("{name} ({addr:#x}) must be {align}-byte aligned"));
            }
        }
        for (name, stride, dense) in [
            ("x_stride", self.x_stride, self.n),
            ("w_stride", self.w_stride, self.k),
            ("z_stride", self.z_stride, self.k),
        ] {
            if stride != 0 && stride < dense {
                return Err(format!(
                    "{name} ({stride}) must be at least the dense width ({dense})"
                ));
            }
        }
        Ok(())
    }

    /// Serialises the descriptor into a session snapshot payload.
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        w.put(&self.x_addr);
        w.put(&self.w_addr);
        w.put(&self.z_addr);
        w.put(&self.m);
        w.put(&self.n);
        w.put(&self.k);
        w.put(&self.accumulate);
        w.put(&self.x_stride);
        w.put(&self.w_stride);
        w.put(&self.z_stride);
        w.put(&self.format.tag());
    }

    /// Deserialises a descriptor written by [`Job::save_state`].
    pub(crate) fn load_state(r: &mut StateReader<'_>) -> Result<Job, SnapshotError> {
        Ok(Job {
            x_addr: r.get()?,
            w_addr: r.get()?,
            z_addr: r.get()?,
            m: r.get()?,
            n: r.get()?,
            k: r.get()?,
            accumulate: r.get()?,
            x_stride: r.get()?,
            w_stride: r.get()?,
            z_stride: r.get()?,
            format: {
                let tag: u8 = r.get()?;
                Format::from_tag(tag)
                    .ok_or_else(|| SnapshotError::Corrupt(format!("job format tag {tag}")))?
            },
        })
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Z[{:#x}] {}= X[{:#x}] ({}x{}) * W[{:#x}] ({}x{})",
            self.z_addr,
            if self.accumulate { "+" } else { "" },
            self.x_addr,
            self.m,
            self.n,
            self.w_addr,
            self.n,
            self.k
        )?;
        if self.format.is_fp8() {
            write!(f, " [{}]", self.format)?;
        }
        Ok(())
    }
}

/// The memory-mapped register file through which cores program RedMulE.
///
/// # Example
///
/// ```
/// use redmule::{regfile::offsets, RegFile};
///
/// let mut rf = RegFile::new();
/// rf.write(offsets::X_ADDR, 0x100);
/// rf.write(offsets::W_ADDR, 0x200);
/// rf.write(offsets::Z_ADDR, 0x300);
/// rf.write(offsets::M_SIZE, 8);
/// rf.write(offsets::N_SIZE, 8);
/// rf.write(offsets::K_SIZE, 8);
/// rf.write(offsets::TRIGGER, 1);
/// let job = rf.take_triggered_job().expect("job was triggered");
/// assert_eq!(job.m, 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RegFile {
    x_addr: u32,
    w_addr: u32,
    z_addr: u32,
    m: u32,
    n: u32,
    k: u32,
    flags: u32,
    x_stride: u32,
    w_stride: u32,
    z_stride: u32,
    triggered: bool,
    busy: bool,
}

impl RegFile {
    /// Creates a cleared register file.
    pub fn new() -> RegFile {
        RegFile::default()
    }

    /// Core-side register write.
    ///
    /// # Panics
    ///
    /// Panics on an unmapped offset (a real HWPE would raise a bus error).
    /// Use [`RegFile::try_write`] to handle the error instead.
    pub fn write(&mut self, offset: u32, value: u32) {
        if let Err(e) = self.try_write(offset, value) {
            // modelcheck-allow: RM-PANIC-001 -- documented panicking wrapper
            // (see # Panics); try_write is the fallible alternative.
            panic!("write to unmapped HWPE register: {e}");
        }
    }

    /// Core-side register write, reporting unmapped offsets as an error.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnmappedRegister`] when no register decodes at
    /// `offset` (the model's equivalent of an HWPE bus error).
    pub fn try_write(&mut self, offset: u32, value: u32) -> Result<(), EngineError> {
        match offset {
            offsets::TRIGGER => self.triggered = true,
            offsets::SOFT_CLEAR => *self = RegFile::new(),
            offsets::X_ADDR => self.x_addr = value,
            offsets::W_ADDR => self.w_addr = value,
            offsets::Z_ADDR => self.z_addr = value,
            offsets::M_SIZE => self.m = value,
            offsets::N_SIZE => self.n = value,
            offsets::K_SIZE => self.k = value,
            offsets::FLAGS => self.flags = value,
            offsets::X_STRIDE => self.x_stride = value,
            offsets::W_STRIDE => self.w_stride = value,
            offsets::Z_STRIDE => self.z_stride = value,
            offsets::STATUS => {} // read-only: writes ignored
            other => return Err(EngineError::UnmappedRegister { offset: other }),
        }
        Ok(())
    }

    /// Core-side register read.
    ///
    /// # Panics
    ///
    /// Panics on an unmapped offset. Use [`RegFile::try_read`] to handle
    /// the error instead.
    pub fn read(&self, offset: u32) -> u32 {
        match self.try_read(offset) {
            Ok(v) => v,
            // modelcheck-allow: RM-PANIC-001 -- documented panicking wrapper
            // (see # Panics); try_read is the fallible alternative.
            Err(e) => panic!("read from unmapped HWPE register: {e}"),
        }
    }

    /// Core-side register read, reporting unmapped offsets as an error.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnmappedRegister`] when no register decodes at
    /// `offset`.
    pub fn try_read(&self, offset: u32) -> Result<u32, EngineError> {
        Ok(match offset {
            offsets::TRIGGER | offsets::SOFT_CLEAR => 0,
            offsets::STATUS => u32::from(self.busy),
            offsets::X_ADDR => self.x_addr,
            offsets::W_ADDR => self.w_addr,
            offsets::Z_ADDR => self.z_addr,
            offsets::M_SIZE => self.m,
            offsets::N_SIZE => self.n,
            offsets::K_SIZE => self.k,
            offsets::FLAGS => self.flags,
            offsets::X_STRIDE => self.x_stride,
            offsets::W_STRIDE => self.w_stride,
            offsets::Z_STRIDE => self.z_stride,
            other => return Err(EngineError::UnmappedRegister { offset: other }),
        })
    }

    /// Consumes a pending trigger, decoding the programmed job and marking
    /// the accelerator busy. Returns `None` when no trigger is pending.
    pub fn take_triggered_job(&mut self) -> Option<Job> {
        if !self.triggered {
            return None;
        }
        self.triggered = false;
        self.busy = true;
        let mut job = Job::new(
            self.x_addr,
            self.w_addr,
            self.z_addr,
            self.m as usize,
            self.n as usize,
            self.k as usize,
        );
        if self.flags & 1 != 0 {
            job = job.with_accumulate();
        }
        // Bits [2:1] select the operand storage format; the reserved
        // encoding 3 falls back to FP16.
        let format = Format::from_tag(((self.flags >> 1) & 0x3) as u8).unwrap_or(Format::Fp16);
        job = job.with_format(format);
        job = job.with_strides(
            self.x_stride as usize,
            self.w_stride as usize,
            self.z_stride as usize,
        );
        Some(job)
    }

    /// Marks the current job complete (status returns idle).
    pub fn complete_job(&mut self) {
        self.busy = false;
    }

    /// Whether a job is in flight.
    pub fn is_busy(&self) -> bool {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn programmed() -> RegFile {
        let mut rf = RegFile::new();
        rf.write(offsets::X_ADDR, 0x100);
        rf.write(offsets::W_ADDR, 0x200);
        rf.write(offsets::Z_ADDR, 0x300);
        rf.write(offsets::M_SIZE, 12);
        rf.write(offsets::N_SIZE, 34);
        rf.write(offsets::K_SIZE, 56);
        rf
    }

    #[test]
    fn registers_read_back() {
        let rf = programmed();
        assert_eq!(rf.read(offsets::X_ADDR), 0x100);
        assert_eq!(rf.read(offsets::K_SIZE), 56);
        assert_eq!(rf.read(offsets::STATUS), 0);
    }

    #[test]
    fn trigger_produces_job_once() {
        let mut rf = programmed();
        assert!(rf.take_triggered_job().is_none());
        rf.write(offsets::TRIGGER, 1);
        let job = rf.take_triggered_job().expect("trigger pending");
        assert_eq!(job.x_addr, 0x100);
        assert_eq!((job.m, job.n, job.k), (12, 34, 56));
        assert!(!job.accumulate);
        assert!(rf.take_triggered_job().is_none(), "trigger is one-shot");
        assert!(rf.is_busy());
        assert_eq!(rf.read(offsets::STATUS), 1);
        rf.complete_job();
        assert_eq!(rf.read(offsets::STATUS), 0);
    }

    #[test]
    fn accumulate_flag_decodes() {
        let mut rf = programmed();
        rf.write(offsets::FLAGS, 1);
        rf.write(offsets::TRIGGER, 1);
        let job = rf.take_triggered_job().expect("triggered");
        assert!(job.accumulate);
        assert_eq!(job.format, Format::Fp16);
    }

    #[test]
    fn format_flag_bits_decode() {
        for (flags, format) in [
            (0b000, Format::Fp16),
            (0b010, Format::Fp8E4M3),
            (0b100, Format::Fp8E5M2),
            (0b110, Format::Fp16), // reserved encoding falls back
        ] {
            let mut rf = programmed();
            rf.write(offsets::FLAGS, flags);
            rf.write(offsets::TRIGGER, 1);
            let job = rf.take_triggered_job().expect("triggered");
            assert_eq!(job.format, format, "flags {flags:#05b}");
            assert!(!job.accumulate);
        }
        // Accumulate and format bits compose.
        let mut rf = programmed();
        rf.write(offsets::FLAGS, 0b011);
        rf.write(offsets::TRIGGER, 1);
        let job = rf.take_triggered_job().expect("triggered");
        assert!(job.accumulate);
        assert_eq!(job.format, Format::Fp8E4M3);
    }

    #[test]
    fn soft_clear_resets_everything() {
        let mut rf = programmed();
        rf.write(offsets::SOFT_CLEAR, 1);
        assert_eq!(rf.read(offsets::X_ADDR), 0);
        assert_eq!(rf.read(offsets::M_SIZE), 0);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn unmapped_write_panics() {
        RegFile::new().write(0xFC, 1);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn unmapped_read_panics() {
        let _ = RegFile::new().read(0xFC);
    }

    #[test]
    fn try_accessors_report_unmapped() {
        let mut rf = RegFile::new();
        assert!(matches!(
            rf.try_write(0xFC, 1),
            Err(EngineError::UnmappedRegister { offset: 0xFC })
        ));
        assert!(matches!(
            rf.try_read(0xFC),
            Err(EngineError::UnmappedRegister { offset: 0xFC })
        ));
        assert!(rf.try_write(offsets::M_SIZE, 5).is_ok());
        assert_eq!(rf.try_read(offsets::M_SIZE), Ok(5));
    }

    #[test]
    fn fp8_jobs_allow_byte_aligned_pointers() {
        let odd = Job::new(0x101, 0x203, 0x305, 2, 2, 2);
        assert!(odd.validate().is_err(), "FP16 needs 2-byte alignment");
        assert!(odd.with_format(Format::Fp8E4M3).validate().is_ok());
        assert!(odd.with_format(Format::Fp8E5M2).validate().is_ok());
        let text = odd.with_format(Format::Fp8E5M2).to_string();
        assert!(text.contains("fp8e5m2"), "format shows in display: {text}");
    }

    #[test]
    fn job_validation_and_display() {
        let job = Job::new(0x101, 0, 0, 1, 1, 1);
        assert!(job.validate().is_err());
        let job = Job::new(0x100, 0x200, 0x300, 2, 3, 4).with_accumulate();
        assert!(job.validate().is_ok());
        let text = job.to_string();
        assert!(text.contains("2x3") && text.contains("3x4") && text.contains("+="));
        assert_eq!(job.shape().macs(), 24);
    }
}
