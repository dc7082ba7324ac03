//! GEMM execution backends and cycle accounting.
//!
//! Every matrix multiplication in a training step is dispatched through a
//! [`Backend`]: either the cycle-accurate RedMulE model (`hw`) or the
//! 8-core software kernel (`sw`). Both produce **bit-identical** results
//! (they share the golden FMA accumulation order), so HW/SW comparisons
//! differ only in cycles — exactly the methodology of Fig. 4c/4d.
//!
//! Elementwise work (bias, ReLU, loss gradient, SGD update) always runs on
//! the cores; its cost model is shared by both backends.

pub use redmule::BackendKind;
pub use redmule::Format;
use redmule::{AccelConfig, Accelerator, EngineError, FunctionalGemm, L2TiledGemm};
use redmule_cluster::{baseline::SwGemm, ClusterConfig};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::F16;
use redmule_hwsim::Cycle;
use redmule_runtime::{StopReason, Supervisor};
use std::fmt;

/// The operation class a ledger entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Forward GEMM (`Y = Wt * A`).
    Forward,
    /// Activation-gradient GEMM (`dA = W * dY`).
    BackwardData,
    /// Weight-gradient GEMM (`dW = dY * A^T`).
    BackwardWeight,
    /// Elementwise loss / loss-gradient work.
    Loss,
    /// SGD parameter update.
    Update,
    /// Bias add / ReLU / ReLU-backward elementwise work.
    Elementwise,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Forward => "fwd",
            OpKind::BackwardData => "bwd-data",
            OpKind::BackwardWeight => "bwd-weight",
            OpKind::Loss => "loss",
            OpKind::Update => "update",
            OpKind::Elementwise => "elementwise",
        };
        f.write_str(s)
    }
}

/// One accounted operation.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Layer label (e.g. `"dense2"`), or a step-level label.
    pub layer: String,
    /// Operation class.
    pub kind: OpKind,
    /// GEMM shape when the op was a matrix multiplication.
    pub shape: Option<GemmShape>,
    /// Cycle cost.
    pub cycles: Cycle,
}

/// Accumulates [`OpRecord`]s across a training step (or epoch).
///
/// # Example
///
/// ```
/// use redmule_hwsim::Cycle;
/// use redmule_nn::backend::{CycleLedger, OpKind};
///
/// let mut ledger = CycleLedger::new();
/// ledger.record("dense0", OpKind::Forward, None, Cycle::new(100));
/// ledger.record("dense0", OpKind::BackwardWeight, None, Cycle::new(50));
/// assert_eq!(ledger.total_cycles().count(), 150);
/// assert_eq!(ledger.cycles_for(OpKind::Forward).count(), 100);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CycleLedger {
    records: Vec<OpRecord>,
}

impl CycleLedger {
    /// An empty ledger.
    pub fn new() -> CycleLedger {
        CycleLedger::default()
    }

    /// Appends one record.
    pub fn record(
        &mut self,
        layer: impl Into<String>,
        kind: OpKind,
        shape: Option<GemmShape>,
        cycles: Cycle,
    ) {
        self.records.push(OpRecord {
            layer: layer.into(),
            kind,
            shape,
            cycles,
        });
    }

    /// All records in insertion order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Sum of all recorded cycles.
    pub fn total_cycles(&self) -> Cycle {
        self.records.iter().map(|r| r.cycles).sum()
    }

    /// Sum of cycles for one operation class.
    pub fn cycles_for(&self, kind: OpKind) -> Cycle {
        self.records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.cycles)
            .sum()
    }

    /// Sum of cycles for one layer label.
    pub fn cycles_for_layer(&self, layer: &str) -> Cycle {
        self.records
            .iter()
            .filter(|r| r.layer == layer)
            .map(|r| r.cycles)
            .sum()
    }

    /// Clears all records.
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

/// A GEMM execution backend: the accelerator or the software cores.
///
/// # Example
///
/// ```
/// use redmule_fp16::{vector::GemmShape, F16};
/// use redmule_nn::backend::Backend;
///
/// let mut hw = Backend::hw();
/// let mut sw = Backend::sw();
/// let shape = GemmShape::new(4, 8, 4);
/// let x = vec![F16::HALF; shape.x_len()];
/// let w = vec![F16::TWO; shape.w_len()];
/// let (z_hw, c_hw) = hw.gemm(shape, &x, &w)?;
/// let (z_sw, c_sw) = sw.gemm(shape, &x, &w)?;
/// assert_eq!(z_hw, z_sw);       // bit-identical numerics
/// assert!(c_hw < c_sw);          // the accelerator is faster
/// # Ok::<(), redmule::EngineError>(())
/// ```
#[derive(Debug)]
pub struct Backend {
    inner: Inner,
    cluster: ClusterConfig,
    format: Format,
}

#[derive(Debug)]
enum Inner {
    Hw(Accelerator),
    HwFn(FunctionalGemm),
    HwL2(L2TiledGemm),
    Sw(SwGemm),
}

impl Backend {
    /// The paper's accelerator instance (`H=4, L=8, P=3`).
    pub fn hw() -> Backend {
        Backend::hw_with(Accelerator::paper_instance())
    }

    /// The paper's accelerator instance on the chosen execution model:
    /// [`BackendKind::CycleAccurate`] simulates every clock edge,
    /// [`BackendKind::Functional`] returns bit-identical results with an
    /// analytical cycle estimate at a fraction of the host cost.
    pub fn hw_kind(kind: BackendKind) -> Backend {
        match kind {
            BackendKind::CycleAccurate => Backend::hw(),
            BackendKind::Functional => Backend::hw_functional(),
        }
    }

    /// The fast functional model of the paper's accelerator instance
    /// (see [`redmule::FunctionalGemm`]): numerics bit-identical to
    /// [`Backend::hw`], cycles from the analytical performance model.
    pub fn hw_functional() -> Backend {
        Backend {
            inner: Inner::HwFn(FunctionalGemm::paper_instance()),
            cluster: ClusterConfig::default(),
            format: Format::Fp16,
        }
    }

    /// A custom accelerator instance.
    pub fn hw_with(accel: Accelerator) -> Backend {
        Backend {
            inner: Inner::Hw(accel),
            cluster: ClusterConfig::default(),
            format: Format::Fp16,
        }
    }

    /// The accelerator behind the L2 tiling driver: GEMMs whose operands
    /// exceed the TCDM are streamed in panels with DMA double buffering
    /// (the realistic deployment for the autoencoder's ~0.5 MiB of
    /// weights). Costs are the driver's double-buffered cycles.
    pub fn hw_l2() -> Backend {
        let cluster = ClusterConfig::default();
        Backend {
            inner: Inner::HwL2(L2TiledGemm::new(AccelConfig::paper(), cluster.clone())),
            cluster,
            format: Format::Fp16,
        }
    }

    /// The 8-core software baseline.
    pub fn sw() -> Backend {
        Backend::sw_with(ClusterConfig::default())
    }

    /// A software baseline on a custom cluster.
    pub fn sw_with(cfg: ClusterConfig) -> Backend {
        Backend {
            inner: Inner::Sw(SwGemm::new(&cfg)),
            cluster: cfg,
            format: Format::Fp16,
        }
    }

    /// Selects the operand storage [`Format`] for every GEMM this
    /// backend runs. With an FP8 format the cycle-accurate path stores
    /// X/W/Z in TCDM at one byte per element (cast at the engine's
    /// castin/castout stages); the software, functional and L2 paths
    /// quantise operands in and results out through the same
    /// round-to-nearest-even casts, so **all four backends stay
    /// bit-identical for any format** — the property `tests` pin.
    #[must_use]
    pub fn with_format(mut self, format: Format) -> Backend {
        self.format = format;
        self
    }

    /// The operand storage format this backend runs with.
    pub fn format(&self) -> Format {
        self.format
    }

    /// `"hw"`, `"hw-fn"`, `"hw-l2"` or `"sw"`.
    pub fn name(&self) -> &'static str {
        match self.inner {
            Inner::Hw(_) => "hw",
            Inner::HwFn(_) => "hw-fn",
            Inner::HwL2(_) => "hw-l2",
            Inner::Sw(_) => "sw",
        }
    }

    /// Executes `Z = X * W`, returning the result and its cycle cost.
    ///
    /// The accelerator path is driven through the supervised runtime
    /// ([`redmule_runtime::Supervisor`]): a hung or faulting engine run
    /// surfaces here as an [`EngineError`] instead of tearing down the
    /// whole training step, and panics inside the simulation are retried
    /// from the job's entry checkpoint before being re-raised.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShapeMismatch`] when slice lengths do not match
    /// `shape`; otherwise any [`EngineError`] the engine run reports.
    ///
    /// # Panics
    ///
    /// Panics only if the simulation itself panics persistently (a model
    /// bug, re-raised after the supervisor's retries are exhausted).
    pub fn gemm(
        &mut self,
        shape: GemmShape,
        x: &[F16],
        w: &[F16],
    ) -> Result<(Vec<F16>, Cycle), EngineError> {
        // FP8 formats quantise the operands up front — exactly the image
        // the engine's staging castout would store, so feeding the
        // already-quantised values through any path is idempotent and
        // keeps all backends bit-identical.
        let format = self.format;
        let (xq, wq);
        let (x, w) = if format.is_fp8() {
            xq = quantize(format, x);
            wq = quantize(format, w);
            (&xq[..], &wq[..])
        } else {
            (x, w)
        };
        match &mut self.inner {
            Inner::Hw(accel) => {
                // One entry checkpoint per job (interval MAX): enough for
                // panic/watchdog rollback without per-tile snapshot cost.
                let supervisor =
                    Supervisor::new(accel.engine().clone()).with_checkpoint_interval(usize::MAX);
                let (z, run) = supervisor.gemm_in(shape, format, x, w)?;
                match run.stop {
                    StopReason::Completed => Ok((z, run.report.cycles)),
                    StopReason::Failed(e) => Err(e),
                    StopReason::Panicked(msg) => panic!("supervised GEMM panicked: {msg}"),
                    // No budget is configured on this supervisor.
                    StopReason::CycleBudget => unreachable!("unbudgeted run hit a budget"),
                }
            }
            Inner::HwFn(f) => {
                let run = f.run_format(shape, format, x, w)?;
                Ok((run.z, run.estimated_cycles))
            }
            Inner::HwL2(driver) => {
                // The L2 driver models FP8 at the L2/DMA boundary with
                // FP16 accumulation in TCDM across reduction slices; the
                // single output narrowing matches the one-job engine run.
                let (mut z, report) = driver.run(shape, x, w)?;
                if format.is_fp8() {
                    z = quantize(format, &z);
                }
                Ok((z, report.overlapped_cycles))
            }
            Inner::Sw(sw) => {
                let run = sw.run(shape, x, w)?;
                let mut z = run.z;
                if format.is_fp8() {
                    z = quantize(format, &z);
                }
                Ok((z, run.cycles))
            }
        }
    }

    /// Cycle cost of an elementwise pass over `elems` elements on the
    /// cluster cores (load, compute, store, amortised loop overhead;
    /// parallel over the cores). Used for bias/ReLU/loss/SGD in both
    /// backends.
    pub fn elementwise_cycles(&self, elems: usize) -> Cycle {
        if elems == 0 {
            return Cycle::ZERO;
        }
        const CYCLES_PER_ELEM: usize = 4;
        const FORK_JOIN: u64 = 30;
        Cycle::new((elems * CYCLES_PER_ELEM).div_ceil(self.cluster.n_cores) as u64 + FORK_JOIN)
    }
}

/// Quantises a slice through `format` (identity for FP16).
fn quantize(format: Format, v: &[F16]) -> Vec<F16> {
    v.iter().map(|e| format.quantize(*e)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_data(shape: GemmShape) -> (Vec<F16>, Vec<F16>) {
        let x = (0..shape.x_len())
            .map(|i| F16::from_f32(((i % 13) as f32 - 6.0) / 4.0))
            .collect();
        let w = (0..shape.w_len())
            .map(|i| F16::from_f32(((i % 11) as f32 - 5.0) / 8.0))
            .collect();
        (x, w)
    }

    #[test]
    fn backends_agree_bitwise() {
        let shape = GemmShape::new(6, 10, 14);
        let (x, w) = shape_data(shape);
        let (zh, _) = Backend::hw().gemm(shape, &x, &w).expect("hw gemm");
        let (zs, _) = Backend::sw().gemm(shape, &x, &w).expect("sw gemm");
        let hb: Vec<u16> = zh.iter().map(|v| v.to_bits()).collect();
        let sb: Vec<u16> = zs.iter().map(|v| v.to_bits()).collect();
        assert_eq!(hb, sb);
    }

    #[test]
    fn hw_is_faster_on_large_gemm() {
        let shape = GemmShape::new(16, 64, 32);
        let (x, w) = shape_data(shape);
        let (_, ch) = Backend::hw().gemm(shape, &x, &w).expect("hw gemm");
        let (_, cs) = Backend::sw().gemm(shape, &x, &w).expect("sw gemm");
        let speedup = cs.count() as f64 / ch.count() as f64;
        assert!(speedup > 10.0, "speedup = {speedup}");
    }

    #[test]
    fn names() {
        assert_eq!(Backend::hw().name(), "hw");
        assert_eq!(Backend::hw_functional().name(), "hw-fn");
        assert_eq!(Backend::hw_l2().name(), "hw-l2");
        assert_eq!(Backend::sw().name(), "sw");
    }

    #[test]
    fn functional_backend_matches_cycle_accurate_bitwise() {
        let shape = GemmShape::new(7, 19, 13);
        let (x, w) = shape_data(shape);
        let (zc, cc) = Backend::hw().gemm(shape, &x, &w).expect("cycle gemm");
        let (zf, cf) = Backend::hw_functional()
            .gemm(shape, &x, &w)
            .expect("functional gemm");
        let cb: Vec<u16> = zc.iter().map(|v| v.to_bits()).collect();
        let fb: Vec<u16> = zf.iter().map(|v| v.to_bits()).collect();
        assert_eq!(cb, fb, "functional backend must be bit-identical");
        // The estimate is the supervisor's analytical model: same order
        // of magnitude as the measured cycles, never zero.
        assert!(cf.count() > 0);
        assert!(cf.count() < 4 * cc.count());
    }

    #[test]
    fn all_backends_agree_bitwise_in_fp8() {
        let shape = GemmShape::new(6, 10, 14);
        let (x, w) = shape_data(shape);
        for format in [Format::Fp8E4M3, Format::Fp8E5M2] {
            let run = |mut b: Backend| {
                let (z, _) = b.gemm(shape, &x, &w).expect("gemm");
                z.iter().map(|v| v.to_bits()).collect::<Vec<u16>>()
            };
            let zh = run(Backend::hw().with_format(format));
            assert_eq!(
                zh,
                run(Backend::hw_functional().with_format(format)),
                "{format}: hw-fn drifted"
            );
            assert_eq!(
                zh,
                run(Backend::sw().with_format(format)),
                "{format}: sw drifted"
            );
            assert_eq!(
                zh,
                run(Backend::hw_l2().with_format(format)),
                "{format}: hw-l2 drifted"
            );
        }
        assert_eq!(
            Backend::hw().with_format(Format::Fp8E4M3).format().label(),
            "fp8e4m3"
        );
    }

    #[test]
    fn hw_kind_selects_the_execution_model() {
        assert_eq!(Backend::hw_kind(BackendKind::CycleAccurate).name(), "hw");
        assert_eq!(Backend::hw_kind(BackendKind::Functional).name(), "hw-fn");
    }

    #[test]
    fn l2_backend_matches_hw_numerics_with_dma_overhead() {
        let shape = GemmShape::new(16, 48, 32);
        let (x, w) = shape_data(shape);
        let (zh, ch) = Backend::hw().gemm(shape, &x, &w).expect("hw gemm");
        let (zl, cl) = Backend::hw_l2().gemm(shape, &x, &w).expect("l2 gemm");
        let hb: Vec<u16> = zh.iter().map(|v| v.to_bits()).collect();
        let lb: Vec<u16> = zl.iter().map(|v| v.to_bits()).collect();
        assert_eq!(hb, lb, "tiling must not change numerics");
        // The L2 path pays at least the initial panel fill.
        assert!(cl >= ch, "L2 path cannot be cheaper than TCDM-resident");
    }

    #[test]
    fn elementwise_cost_scales() {
        let b = Backend::sw();
        assert_eq!(b.elementwise_cycles(0), Cycle::ZERO);
        let small = b.elementwise_cycles(8).count();
        let big = b.elementwise_cycles(8000).count();
        assert!(big > 100 * small / 2);
        // 8 cores, 4 cycles/element.
        assert_eq!(b.elementwise_cycles(1600).count(), 1600 * 4 / 8 + 30);
    }

    #[test]
    fn ledger_accounting() {
        let mut l = CycleLedger::new();
        let shape = GemmShape::new(1, 2, 3);
        l.record("a", OpKind::Forward, Some(shape), Cycle::new(10));
        l.record("a", OpKind::Elementwise, None, Cycle::new(5));
        l.record("b", OpKind::Forward, None, Cycle::new(20));
        assert_eq!(l.total_cycles().count(), 35);
        assert_eq!(l.cycles_for(OpKind::Forward).count(), 30);
        assert_eq!(l.cycles_for_layer("a").count(), 15);
        assert_eq!(l.records().len(), 3);
        l.clear();
        assert_eq!(l.total_cycles(), Cycle::ZERO);
    }

    #[test]
    fn opkind_display() {
        assert_eq!(OpKind::BackwardWeight.to_string(), "bwd-weight");
        assert_eq!(OpKind::Forward.to_string(), "fwd");
    }
}
