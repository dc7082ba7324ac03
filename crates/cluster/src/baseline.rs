//! The software GEMM baseline: parallel FP16 matrix multiplication on the
//! cluster cores.
//!
//! This is the paper's comparison point ("SW execution on 8 RISC-V
//! cores"). The kernel is the standard three-loop GEMM with the `M` rows
//! of `Z` statically partitioned across cores. Each core runs an in-order,
//! single-issue instruction schedule:
//!
//! ```text
//! for i in my_rows:
//!   for j in 0..K:
//!     acc = 0                  ; 1 ALU cycle
//!     for l in 0..N:           ; inner loop, one FP16 MAC per iteration
//!       lh   rx, X[i][l]       ; TCDM load (log branch, may conflict)
//!       lh   rw, W[l][j]       ; TCDM load (log branch, may conflict)
//!       addi pw, pw, 2*K       ; W-pointer stride
//!       fmadd.h acc, rx, rw    ; stalls while the previous acc is in
//!                              ;   flight (FMA latency)
//!       bne  l, N, inner       ; loop branch (no HW-loop for FP code)
//!     sh   acc, Z[i][j]        ; TCDM store
//!     addi / bne               ; j-loop overhead (2 cycles)
//! ```
//!
//! Every load and store is arbitrated by the [`Hci`] model, so multi-core
//! bank conflicts lengthen execution exactly as interleaved banking
//! predicts. Numerically the kernel accumulates with the same
//! fused-multiply-add order as [`redmule_fp16::vector::gemm_golden`], hence
//! the result is bit-identical to the golden model and to the accelerator.

use crate::config::ClusterConfig;
use crate::hci::{Hci, Initiator};
use crate::tcdm::{MemError, Tcdm};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::F16;
use redmule_hwsim::{Cycle, Stats};

/// Cycles consumed by the final barrier that re-synchronises the cores
/// (event-unit wakeup).
const BARRIER_CYCLES: u64 = 20;

/// For matrix-vector-like shapes (`K <= 2`) every core would read the same
/// W operand stream and serialise on its banks. Optimised PULP kernels
/// privatise the shared vector into per-core L1 buffers first; this is the
/// per-element copy cost (load + store + loop, amortised).
const PRIVATIZE_CYCLES_PER_ELEM: u64 = 4;
const PRIVATIZE_MAX_K: usize = 2;

/// Result of a software GEMM execution.
#[derive(Debug, Clone)]
pub struct SwRun {
    /// The computed `Z` matrix (row-major, `m x k`).
    pub z: Vec<F16>,
    /// Total execution cycles (slowest core + barrier).
    pub cycles: Cycle,
    /// The executed shape.
    pub shape: GemmShape,
    /// Event counters: per-core busy cycles, FMA stalls, TCDM conflicts.
    pub stats: Stats,
}

impl SwRun {
    /// Achieved MAC throughput in MACs per cycle across the cluster.
    pub fn macs_per_cycle(&self) -> f64 {
        if self.cycles.count() == 0 {
            return 0.0;
        }
        self.shape.macs() as f64 / self.cycles.count() as f64
    }
}

/// Which inner-loop code the software kernel uses.
///
/// The paper's baseline appears to be the scalar three-loop kernel
/// ([`KernelVariant::Scalar`]); PULP cores also offer packed-SIMD FP16
/// (`vfmac.h`), which processes two reduction steps per FMA instruction at
/// the cost of lane-split accumulation ([`KernelVariant::Simd2`] — its
/// numerical contract is [`redmule_fp16::vector::gemm_golden_simd2`]).
/// The `ablation_sw_kernel` bench uses this to quantify how much the
/// paper's speedup numbers depend on the baseline kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelVariant {
    /// Naive scalar three-loop kernel (one `fmadd.h` per MAC).
    #[default]
    Scalar,
    /// Packed-SIMD kernel: one `vfmac.h` per two MACs, even/odd lanes
    /// accumulated separately and reduced at the end of each dot product.
    Simd2,
}

/// The parallel software GEMM kernel runner.
///
/// # Example
///
/// ```
/// use redmule_cluster::{baseline::SwGemm, ClusterConfig};
/// use redmule_fp16::{vector::GemmShape, F16};
///
/// let shape = GemmShape::new(4, 4, 4);
/// let x = vec![F16::ONE; 16];
/// let w = vec![F16::ONE; 16];
/// let run = SwGemm::new(&ClusterConfig::default()).run(shape, &x, &w)?;
/// assert!(run.z.iter().all(|v| v.to_f32() == 4.0));
/// # Ok::<(), redmule_cluster::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SwGemm {
    cfg: ClusterConfig,
    variant: KernelVariant,
}

/// Per-core execution state for the lockstep simulation.
#[derive(Debug)]
struct CoreState {
    /// Last row (exclusive) of the Z range assigned to this core.
    row_end: usize,
    /// Loop counters. `jj` counts iterations; the effective column is
    /// `(jj + j0) % k` — each core starts at a different column `j0` so
    /// the per-core W-address streams are bank-decorrelated (the standard
    /// software mitigation for interleaved-banking conflicts).
    i: usize,
    jj: usize,
    j0: usize,
    l: usize,
    /// Micro-architectural stage within the loop body.
    stage: Stage,
    /// Register file slice (`*1` registers are the second SIMD lane).
    rx: F16,
    rx1: F16,
    rw: F16,
    rw1: F16,
    acc: F16,
    acc1: F16,
    /// Cycle at which the in-flight FMA result becomes available.
    acc_ready_at: u64,
    /// Remaining extra cycles of a multi-cycle instruction (issue-width
    /// beyond the first cycle, e.g. taken-branch penalties).
    wait: u32,
    done: bool,
    /// Counters.
    busy: u64,
    fma_stalls: u64,
    mem_retries: u64,
}

impl CoreState {
    /// Effective output column for the current `jj` counter.
    fn col(&self, k: usize) -> usize {
        debug_assert!(k > 0, "no columns to iterate");
        (self.jj + self.j0) % k
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    JInit,
    LoadX,
    LoadW,
    /// SIMD only: second W element of the pair (stride `K` away).
    LoadW2,
    Addi,
    Fma,
    InnerBranch,
    /// SIMD only: lane reduction `acc += acc1` after the pair loop.
    Reduce,
    /// SIMD only: scalar tail for odd N.
    TailLoadX,
    TailLoadW,
    TailFma,
    StoreZ,
    JStep,
    JBranch,
}

impl SwGemm {
    /// Creates a runner for the given cluster.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ClusterConfig::validate`].
    pub fn new(cfg: &ClusterConfig) -> SwGemm {
        // modelcheck-allow: RM-PANIC-001 -- documented constructor contract:
        // an invalid ClusterConfig is a programming error, and
        // ClusterConfig::validate is the fallible path for untrusted input.
        cfg.validate().expect("invalid cluster configuration");
        SwGemm {
            cfg: cfg.clone(),
            variant: KernelVariant::Scalar,
        }
    }

    /// Selects the inner-loop kernel variant.
    #[must_use]
    pub fn with_variant(mut self, variant: KernelVariant) -> SwGemm {
        self.variant = variant;
        self
    }

    /// Executes `Z = X * W` on the cluster cores and returns the result
    /// with its cycle cost.
    ///
    /// If the operands exceed the configured TCDM, the scratchpad is
    /// enlarged for the run (recorded in `stats` as `tcdm_oversized`),
    /// mirroring the paper's operands-resident-in-L1 kernel methodology.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] if the computed scratchpad layout does not
    /// fit the (possibly enlarged) TCDM — a modelling bug rather than a
    /// user error, but surfaced instead of aborting the simulation.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match `shape`.
    pub fn run(&self, shape: GemmShape, x: &[F16], w: &[F16]) -> Result<SwRun, MemError> {
        assert_eq!(x.len(), shape.x_len(), "X has wrong length for {shape}");
        assert_eq!(w.len(), shape.w_len(), "W has wrong length for {shape}");

        let mut stats = Stats::new();

        // Matrix-vector-like jobs privatise W per core (see constants).
        let privatize = shape.k > 0 && shape.k <= PRIVATIZE_MAX_K && shape.n > 0;
        // The SIMD kernel needs at least one even/odd pair; tiny loops use
        // the scalar code (as a compiler would decide).
        let simd = self.variant == KernelVariant::Simd2 && shape.n >= 2;
        let pair_end = if simd { shape.n - shape.n % 2 } else { 0 };

        // Lay X, W, Z out contiguously in the scratchpad, plus per-core
        // private W copies when privatising.
        let n_cores_cfg = self.cfg.n_cores;
        let priv_stride = (2 * shape.w_len() + 4).next_multiple_of(4) as u32 + 4;
        let priv_bytes = if privatize {
            priv_stride as usize * n_cores_cfg
        } else {
            0
        };
        let needed = shape.footprint_bytes() + 64 + priv_bytes;
        let mut cfg = self.cfg.clone();
        if needed > cfg.tcdm_bytes() {
            cfg = cfg.with_tcdm_kib(needed.div_ceil(1024));
            stats.incr("tcdm_oversized");
        }
        let mut mem = Tcdm::new(&cfg);
        let x_base = 0u32;
        let w_base = x_base + 2 * shape.x_len() as u32;
        let z_base = w_base + 2 * shape.w_len() as u32;
        mem.store_f16_slice(x_base, x)?;
        mem.store_f16_slice(w_base, w)?;

        // Per-core private W copies, bank-decorrelated by the stride pad.
        let priv_base = z_base + 2 * shape.z_len() as u32;
        let mut priv_cycles: u64 = 0;
        if privatize {
            for c in 0..n_cores_cfg {
                mem.store_f16_slice(priv_base + c as u32 * priv_stride, w)?;
            }
            priv_cycles = PRIVATIZE_CYCLES_PER_ELEM
                .saturating_mul(shape.w_len() as u64)
                .saturating_add(BARRIER_CYCLES);
            stats.add("w_privatize_cycles", priv_cycles);
        }

        let mut hci = Hci::new(&cfg);

        // Static row partition: core c takes rows [c*chunk, ...).
        let n_cores = cfg.n_cores;
        let chunk = shape.m.div_ceil(n_cores.max(1));
        let mut cores: Vec<CoreState> = (0..n_cores)
            .map(|c| {
                let row_begin = (c * chunk).min(shape.m);
                let row_end = ((c + 1) * chunk).min(shape.m);
                CoreState {
                    row_end,
                    i: row_begin,
                    jj: 0,
                    // Stagger each core's starting column. The extra `2*c`
                    // keeps the offsets distinct modulo the TCDM banking
                    // period (2 * n_banks elements) even when K is a large
                    // power of two, where `c*K/n_cores` alone aliases.
                    j0: if shape.k == 0 {
                        0
                    } else {
                        (c * shape.k / n_cores.max(1) + 2 * c) % shape.k
                    },
                    l: 0,
                    stage: Stage::JInit,
                    rx: F16::ZERO,
                    rx1: F16::ZERO,
                    rw: F16::ZERO,
                    rw1: F16::ZERO,
                    acc: F16::ZERO,
                    acc1: F16::ZERO,
                    acc_ready_at: 0,
                    wait: 0,
                    done: row_begin >= row_end || shape.k == 0,
                    busy: 0,
                    fma_stalls: 0,
                    mem_retries: 0,
                }
            })
            .collect();

        let fma_latency = u64::from(cfg.core.fma_latency);
        let extra_mem = cfg.core.mem_issue.saturating_sub(1);
        let extra_alu = cfg.core.alu.saturating_sub(1);
        let extra_branch = cfg.core.branch.saturating_sub(1);
        let mut cycle: u64 = 0;
        let mut reqs: Vec<(Initiator, u32)> = Vec::with_capacity(n_cores);
        let mut req_core: Vec<usize> = Vec::with_capacity(n_cores);
        let mut granted = vec![false; n_cores];
        // Degenerate shapes (no work at all) finish immediately.
        while cores.iter().any(|c| !c.done) {
            // Gather this cycle's memory requests.
            reqs.clear();
            req_core.clear();
            granted.fill(false);
            for (idx, core) in cores.iter().enumerate() {
                if core.done {
                    continue;
                }
                let addr = match core.stage {
                    Stage::LoadX | Stage::TailLoadX => {
                        Some(x_base + 2 * (core.i * shape.n + core.l) as u32)
                    }
                    Stage::LoadW | Stage::TailLoadW => {
                        let base = if privatize {
                            priv_base + idx as u32 * priv_stride
                        } else {
                            w_base
                        };
                        Some(base + 2 * (core.l * shape.k + core.col(shape.k)) as u32)
                    }
                    Stage::LoadW2 => {
                        let base = if privatize {
                            priv_base + idx as u32 * priv_stride
                        } else {
                            w_base
                        };
                        Some(base + 2 * ((core.l + 1) * shape.k + core.col(shape.k)) as u32)
                    }
                    Stage::StoreZ => {
                        Some(z_base + 2 * (core.i * shape.k + core.col(shape.k)) as u32)
                    }
                    _ => None,
                };
                if let Some(a) = addr {
                    reqs.push((Initiator::Core(idx), a));
                    req_core.push(idx);
                }
            }
            if !reqs.is_empty() {
                let grants = hci.arbitrate(&reqs, None);
                for (ri, &cidx) in req_core.iter().enumerate() {
                    granted[cidx] = grants.log_granted[ri];
                }
            }

            // Advance each core by one instruction slot. Cores leave the
            // fork barrier one cycle apart (event-unit wakeup ripple),
            // which also prevents unrealistic pathological lockstep bank
            // aliasing between identical per-core instruction streams.
            for (idx, core) in cores.iter_mut().enumerate() {
                if core.done || cycle < idx as u64 {
                    continue;
                }
                core.busy += 1;
                if core.wait > 0 {
                    core.wait -= 1;
                    continue;
                }
                match core.stage {
                    Stage::JInit => {
                        core.acc = F16::ZERO;
                        core.acc1 = F16::ZERO;
                        core.l = 0;
                        core.wait = extra_alu;
                        // N == 1 is an outer product: the compiler unrolls
                        // the single-iteration inner loop and hoists the
                        // loop-invariant X element across the j-loop.
                        core.stage = if shape.n == 0 {
                            Stage::StoreZ
                        } else if shape.n == 1 && core.jj > 0 {
                            Stage::LoadW
                        } else {
                            Stage::LoadX
                        };
                    }
                    Stage::LoadX => {
                        if granted[idx] {
                            let addr = x_base + 2 * (core.i * shape.n + core.l) as u32;
                            core.rx = mem.read_f16(addr)?;
                            if simd {
                                core.rx1 = mem.read_f16(addr + 2)?;
                                // A misaligned 32-bit load needs two bus
                                // accesses on RI5CY-class cores.
                                core.wait = extra_mem + u32::from(!addr.is_multiple_of(4));
                            } else {
                                core.wait = extra_mem;
                            }
                            core.stage = Stage::LoadW;
                        } else {
                            core.mem_retries += 1;
                        }
                    }
                    Stage::LoadW => {
                        if granted[idx] {
                            let base = if privatize {
                                priv_base + idx as u32 * priv_stride
                            } else {
                                w_base
                            };
                            let addr = base + 2 * (core.l * shape.k + core.col(shape.k)) as u32;
                            core.rw = mem.read_f16(addr)?;
                            core.wait = extra_mem;
                            core.stage = if simd {
                                Stage::LoadW2
                            } else if shape.n == 1 {
                                Stage::Fma // no pointer stride in the unrolled form
                            } else {
                                Stage::Addi
                            };
                        } else {
                            core.mem_retries += 1;
                        }
                    }
                    Stage::LoadW2 => {
                        if granted[idx] {
                            let base = if privatize {
                                priv_base + idx as u32 * priv_stride
                            } else {
                                w_base
                            };
                            let addr =
                                base + 2 * ((core.l + 1) * shape.k + core.col(shape.k)) as u32;
                            core.rw1 = mem.read_f16(addr)?;
                            core.wait = extra_mem;
                            core.stage = Stage::Addi;
                        } else {
                            core.mem_retries += 1;
                        }
                    }
                    Stage::Addi => {
                        core.wait = extra_alu;
                        core.stage = Stage::Fma;
                    }
                    Stage::Fma => {
                        if cycle < core.acc_ready_at {
                            core.fma_stalls += 1;
                        } else {
                            core.acc = core.rx.mul_add(core.rw, core.acc);
                            if simd {
                                core.acc1 = core.rx1.mul_add(core.rw1, core.acc1);
                            }
                            core.acc_ready_at = cycle.saturating_add(fma_latency);
                            core.stage = if shape.n == 1 {
                                Stage::StoreZ // unrolled: no inner branch
                            } else {
                                Stage::InnerBranch
                            };
                        }
                    }
                    Stage::InnerBranch => {
                        core.wait = extra_branch;
                        if simd {
                            core.l += 2;
                            core.stage = if core.l < pair_end {
                                Stage::LoadX
                            } else {
                                Stage::Reduce
                            };
                        } else {
                            core.l += 1;
                            core.stage = if core.l < shape.n {
                                Stage::LoadX
                            } else {
                                Stage::StoreZ
                            };
                        }
                    }
                    Stage::Reduce => {
                        // Lane reduction is itself an FP addition with the
                        // same result latency.
                        if cycle < core.acc_ready_at {
                            core.fma_stalls += 1;
                        } else {
                            core.acc += core.acc1;
                            core.acc_ready_at = cycle.saturating_add(fma_latency);
                            core.stage = if shape.n % 2 == 1 {
                                core.l = shape.n - 1;
                                Stage::TailLoadX
                            } else {
                                Stage::StoreZ
                            };
                        }
                    }
                    Stage::TailLoadX => {
                        if granted[idx] {
                            let addr = x_base + 2 * (core.i * shape.n + core.l) as u32;
                            core.rx = mem.read_f16(addr)?;
                            core.wait = extra_mem;
                            core.stage = Stage::TailLoadW;
                        } else {
                            core.mem_retries += 1;
                        }
                    }
                    Stage::TailLoadW => {
                        if granted[idx] {
                            let base = if privatize {
                                priv_base + idx as u32 * priv_stride
                            } else {
                                w_base
                            };
                            let addr = base + 2 * (core.l * shape.k + core.col(shape.k)) as u32;
                            core.rw = mem.read_f16(addr)?;
                            core.wait = extra_mem;
                            core.stage = Stage::TailFma;
                        } else {
                            core.mem_retries += 1;
                        }
                    }
                    Stage::TailFma => {
                        if cycle < core.acc_ready_at {
                            core.fma_stalls += 1;
                        } else {
                            core.acc = core.rx.mul_add(core.rw, core.acc);
                            core.acc_ready_at = cycle.saturating_add(fma_latency);
                            core.stage = Stage::StoreZ;
                        }
                    }
                    Stage::StoreZ => {
                        if granted[idx] {
                            // The store needs the final accumulator value.
                            if cycle < core.acc_ready_at {
                                core.fma_stalls += 1;
                            } else {
                                let addr =
                                    z_base + 2 * (core.i * shape.k + core.col(shape.k)) as u32;
                                mem.write_f16(addr, core.acc)?;
                                core.wait = extra_mem;
                                core.stage = Stage::JStep;
                            }
                        } else {
                            core.mem_retries += 1;
                        }
                    }
                    Stage::JStep => {
                        core.jj += 1;
                        if core.jj >= shape.k {
                            core.jj = 0;
                            core.i += 1;
                        }
                        core.wait = extra_alu;
                        core.stage = Stage::JBranch;
                    }
                    Stage::JBranch => {
                        if core.i >= core.row_end {
                            core.done = true;
                        } else {
                            core.stage = Stage::JInit;
                        }
                    }
                }
            }
            cycle = cycle.saturating_add(1);
        }

        let total = if shape.m == 0 || shape.k == 0 {
            Cycle::ZERO
        } else {
            Cycle::new(
                cycle
                    .saturating_add(BARRIER_CYCLES)
                    .saturating_add(priv_cycles),
            )
        };

        for (idx, core) in cores.iter().enumerate() {
            stats.add(&format!("core{idx}_busy"), core.busy);
            stats.add("fma_stalls", core.fma_stalls);
            stats.add("mem_retries", core.mem_retries);
        }
        stats.merge(&hci.stats());
        stats.add("macs", shape.macs());

        let z = mem.load_f16_slice(z_base, shape.z_len())?;
        Ok(SwRun {
            z,
            cycles: total,
            shape,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redmule_fp16::vector::gemm_golden;

    fn run(shape: GemmShape, cores: usize) -> SwRun {
        let cfg = ClusterConfig::default().with_cores(cores);
        let x: Vec<F16> = (0..shape.x_len())
            .map(|i| F16::from_f32(((i % 23) as f32 - 11.0) / 8.0))
            .collect();
        let w: Vec<F16> = (0..shape.w_len())
            .map(|i| F16::from_f32(((i % 19) as f32 - 9.0) / 16.0))
            .collect();
        SwGemm::new(&cfg).run(shape, &x, &w).unwrap()
    }

    fn bits(v: &[F16]) -> Vec<u16> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matches_golden_model_bitwise() {
        for (m, n, k) in [(1, 1, 1), (3, 5, 7), (8, 16, 8), (13, 9, 4)] {
            let shape = GemmShape::new(m, n, k);
            let x: Vec<F16> = (0..shape.x_len())
                .map(|i| F16::from_f32(((i * 7 % 31) as f32 - 15.0) / 4.0))
                .collect();
            let w: Vec<F16> = (0..shape.w_len())
                .map(|i| F16::from_f32(((i * 5 % 29) as f32 - 14.0) / 8.0))
                .collect();
            let sw = SwGemm::new(&ClusterConfig::default())
                .run(shape, &x, &w)
                .unwrap();
            let golden = gemm_golden(shape, &x, &w);
            assert_eq!(bits(&sw.z), bits(&golden), "shape {shape}");
        }
    }

    #[test]
    fn single_core_cost_is_about_five_cycles_per_mac() {
        let shape = GemmShape::new(4, 64, 4);
        let r = run(shape, 1);
        let cpm = r.cycles.count() as f64 / shape.macs() as f64;
        // 5 issue slots per inner iteration, plus j-loop overhead.
        assert!((5.0..6.0).contains(&cpm), "cycles/MAC = {cpm}");
    }

    #[test]
    fn eight_cores_scale_nearly_linearly_on_large_matrices() {
        let shape = GemmShape::new(32, 32, 16);
        let one = run(shape, 1).cycles.count() as f64;
        let eight = run(shape, 8).cycles.count() as f64;
        let scaling = one / eight;
        assert!((6.0..=8.0).contains(&scaling), "8-core scaling = {scaling}");
    }

    #[test]
    fn unbalanced_rows_limit_scaling() {
        // M = 2 on 8 cores: only two cores have work.
        let shape = GemmShape::new(2, 32, 8);
        let r = run(shape, 8);
        let active = (0..8)
            .filter(|c| r.stats.get(&format!("core{c}_busy")) > 0)
            .count();
        assert_eq!(active, 2);
    }

    #[test]
    fn conflicts_are_recorded_with_many_cores() {
        let r = run(GemmShape::new(16, 32, 8), 8);
        assert!(r.stats.get("log_conflicts") > 0, "8 cores must conflict");
        assert!(r.stats.get("mem_retries") > 0);
    }

    #[test]
    fn empty_shapes_cost_nothing() {
        for shape in [GemmShape::new(0, 4, 4), GemmShape::new(4, 4, 0)] {
            let r = run(shape, 8);
            assert_eq!(r.cycles, Cycle::ZERO);
            assert!(r.z.iter().all(|v| v.is_zero()));
        }
    }

    #[test]
    fn zero_inner_dimension_stores_zeros() {
        let r = run(GemmShape::new(2, 0, 3), 4);
        assert_eq!(r.z, vec![F16::ZERO; 6]);
        assert!(r.cycles.count() > 0); // still stores six zeros
    }

    #[test]
    fn macs_per_cycle_is_reported() {
        let r = run(GemmShape::new(16, 16, 16), 8);
        let mpc = r.macs_per_cycle();
        assert!(mpc > 0.5 && mpc < 2.5, "SW MAC/cycle = {mpc}");
    }

    #[test]
    fn simd2_matches_its_golden_model() {
        use redmule_fp16::vector::gemm_golden_simd2;
        for (m, n, k) in [
            (3, 8, 5),
            (2, 9, 4),
            (1, 2, 1),
            (4, 1, 4),
            (2, 0, 3),
            (5, 3, 16),
        ] {
            let shape = GemmShape::new(m, n, k);
            let x: Vec<F16> = (0..shape.x_len())
                .map(|i| F16::from_f32(((i * 7 % 31) as f32 - 15.0) / 4.0))
                .collect();
            let w: Vec<F16> = (0..shape.w_len())
                .map(|i| F16::from_f32(((i * 5 % 29) as f32 - 14.0) / 8.0))
                .collect();
            let run = SwGemm::new(&ClusterConfig::default())
                .with_variant(KernelVariant::Simd2)
                .run(shape, &x, &w)
                .unwrap();
            let golden = gemm_golden_simd2(shape, &x, &w);
            assert_eq!(bits(&run.z), bits(&golden), "shape {shape}");
        }
    }

    #[test]
    fn simd2_is_meaningfully_faster_than_scalar() {
        let shape = GemmShape::new(16, 64, 16);
        let x = vec![F16::HALF; shape.x_len()];
        let w = vec![F16::HALF; shape.w_len()];
        let scalar = SwGemm::new(&ClusterConfig::default())
            .run(shape, &x, &w)
            .unwrap();
        let simd = SwGemm::new(&ClusterConfig::default())
            .with_variant(KernelVariant::Simd2)
            .run(shape, &x, &w)
            .unwrap();
        let gain = scalar.cycles.count() as f64 / simd.cycles.count() as f64;
        // 5 issue slots/MAC -> 6 slots/2 MACs: ~1.6x expected.
        assert!((1.3..2.1).contains(&gain), "SIMD gain = {gain}");
    }

    #[test]
    fn simd2_handles_misaligned_pairs() {
        // Odd N makes every other row's pair loads misaligned; results must
        // still match the SIMD golden model.
        use redmule_fp16::vector::gemm_golden_simd2;
        let shape = GemmShape::new(4, 7, 3);
        let x: Vec<F16> = (0..shape.x_len())
            .map(|i| F16::from_f32(i as f32 / 8.0 - 1.5))
            .collect();
        let w: Vec<F16> = (0..shape.w_len())
            .map(|i| F16::from_f32(1.0 - i as f32 / 16.0))
            .collect();
        let run = SwGemm::new(&ClusterConfig::default())
            .with_variant(KernelVariant::Simd2)
            .run(shape, &x, &w)
            .unwrap();
        assert_eq!(bits(&run.z), bits(&gemm_golden_simd2(shape, &x, &w)));
    }

    #[test]
    fn slower_core_timings_slow_the_kernel() {
        let shape = GemmShape::new(8, 32, 8);
        let x = vec![F16::ONE; shape.x_len()];
        let w = vec![F16::ONE; shape.w_len()];
        let base = SwGemm::new(&ClusterConfig::default())
            .run(shape, &x, &w)
            .unwrap();
        let mut slow_cfg = ClusterConfig::default();
        slow_cfg.core.branch = 3; // RI5CY-like taken-branch penalty
        let slow = SwGemm::new(&slow_cfg).run(shape, &x, &w).unwrap();
        // Two extra cycles per inner iteration: ~7/5 slowdown.
        let ratio = slow.cycles.count() as f64 / base.cycles.count() as f64;
        assert!((1.2..1.6).contains(&ratio), "slowdown ratio = {ratio}");
        assert_eq!(
            bits(&slow.z),
            bits(&base.z),
            "timings must not change numerics"
        );

        // A longer FMA latency that no longer hides behind the loop body
        // also stalls the accumulator chain.
        let mut lat_cfg = ClusterConfig::default();
        lat_cfg.core.fma_latency = 8;
        let lat = SwGemm::new(&lat_cfg).run(shape, &x, &w).unwrap();
        assert!(lat.cycles > base.cycles);
        assert!(lat.stats.get("fma_stalls") > base.stats.get("fma_stalls"));
    }

    #[test]
    fn oversized_operands_grow_the_scratchpad() {
        // A 1 KiB scratchpad cannot hold a 16x16x16 problem (1.5 KiB).
        let cfg = ClusterConfig::default().with_tcdm_kib(1);
        let shape = GemmShape::new(16, 16, 16);
        let x = vec![F16::ONE; shape.x_len()];
        let w = vec![F16::ONE; shape.w_len()];
        let r = SwGemm::new(&cfg).run(shape, &x, &w).unwrap();
        assert_eq!(r.stats.get("tcdm_oversized"), 1);
        assert_eq!(r.z.len(), shape.z_len());
        assert!(r.z.iter().all(|v| v.to_f32() == 16.0));
    }
}
