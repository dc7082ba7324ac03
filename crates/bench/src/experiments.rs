//! One function per paper artefact (table or figure).
//!
//! Every function *executes the models* and returns a data structure whose
//! `Display` rendering is the regenerated table/series. Nothing here is a
//! hard-coded copy of a paper value except the literature rows of Table I
//! (which are citations, not measurements).

use crate::workloads;
use redmule::faults::{FaultPlan, FtConfig, FtMode, TransientTarget};
use redmule::{AccelConfig, Accelerator, BackendKind, EngineError, Format, FunctionalGemm};
use redmule_batch::{BatchExecutor, GemmJob, ScheduleStats};
use redmule_cluster::{baseline::SwGemm, ClusterConfig};
use redmule_energy::{table1, AreaModel, OperatingPoint, PowerModel, Technology};
use redmule_fp16::vector::GemmShape;
use redmule_nn::autoencoder;
use redmule_nn::backend::{Backend, CycleLedger, OpKind};
use redmule_service::{ServiceConfig, ServiceRetry, ServiceSim, Submission, TenantConfig};
use redmule_store::{MemBackend, StorageFault, StorageFaultPlan};
use std::fmt;
use std::time::Instant;

/// One size point of the HW-vs-SW sweep (Figs. 3c, 3d, 4a).
#[derive(Debug, Clone, Copy)]
pub struct SizePoint {
    /// Square matrix dimension (`M = N = K`).
    pub size: usize,
    /// Accelerator cycles.
    pub hw_cycles: u64,
    /// Accelerator MACs per cycle.
    pub hw_mpc: f64,
    /// Accelerator utilization (fraction of the 32 MAC/cycle ideal).
    pub hw_util: f64,
    /// Software-baseline cycles (8 cores).
    pub sw_cycles: u64,
    /// Software MACs per cycle.
    pub sw_mpc: f64,
}

impl SizePoint {
    /// HW-over-SW speedup.
    pub fn speedup(&self) -> f64 {
        self.sw_cycles as f64 / self.hw_cycles as f64
    }
}

/// Runs the accelerator model over square GEMMs.
///
/// # Errors
///
/// Returns the first [`EngineError`] an accelerator run reports.
fn hw_sweep(sizes: &[usize]) -> Result<Vec<(usize, f64, f64)>, EngineError> {
    let accel = Accelerator::paper_instance();
    sizes
        .iter()
        .map(|&s| {
            let shape = GemmShape::new(s, s, s);
            let (x, w) = workloads::gemm_operands(shape, s as u32);
            let run = accel.gemm(shape, &x, &w)?;
            Ok((
                s,
                run.report.macs_per_cycle(),
                run.report.utilization(accel.config()),
            ))
        })
        .collect()
}

/// Runs both the accelerator and the software baseline over square GEMMs.
///
/// # Errors
///
/// Returns the first [`EngineError`] an accelerator run reports.
///
/// # Panics
///
/// Panics if the accelerator and software results ever diverge bitwise —
/// that is a model bug, not a runtime condition.
fn hw_sw_sweep(sizes: &[usize]) -> Result<Vec<SizePoint>, EngineError> {
    let accel = Accelerator::paper_instance();
    let sw = SwGemm::new(&ClusterConfig::default());
    sizes
        .iter()
        .map(|&s| {
            let shape = GemmShape::new(s, s, s);
            let (x, w) = workloads::gemm_operands(shape, s as u32);
            let hw = accel.gemm(shape, &x, &w)?;
            let swr = sw.run(shape, &x, &w)?;
            assert_eq!(
                hw.z.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                swr.z.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "HW and SW must agree bitwise at size {s}"
            );
            Ok(SizePoint {
                size: s,
                hw_cycles: hw.report.cycles.count(),
                hw_mpc: hw.report.macs_per_cycle(),
                hw_util: hw.report.utilization(accel.config()),
                sw_cycles: swr.cycles.count(),
                sw_mpc: swr.macs_per_cycle(),
            })
        })
        .collect()
}

/// The measured sustained throughput used by Table I (MAC/cycle and
/// utilization at a large square GEMM).
///
/// # Errors
///
/// Returns the [`EngineError`] of the underlying accelerator run.
fn measured_peak(full: bool) -> Result<(f64, f64), EngineError> {
    let size = if full { 512 } else { 128 };
    let (_, mpc, util) = hw_sweep(&[size])?[0];
    Ok((mpc, util))
}

/// Table I, regenerated: literature rows plus our three computed rows.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Measured MAC/cycle driving the computed rows.
    pub macs_per_cycle: f64,
    /// Measured utilization.
    pub util: f64,
    /// All rows (literature + ours).
    pub rows: Vec<table1::Row>,
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table I (computed rows use measured {:.1} MAC/cycle, {:.1} % utilization)",
            self.macs_per_cycle,
            100.0 * self.util
        )?;
        f.write_str(&table1::render(&self.rows))
    }
}

/// Regenerates Table I.
///
/// # Errors
///
/// Returns the [`EngineError`] of the underlying accelerator run.
pub fn table1(full: bool) -> Result<Table1, EngineError> {
    let (mpc, util) = measured_peak(full)?;
    let mut rows = table1::literature_rows();
    rows.extend(table1::our_rows(mpc, util));
    Ok(Table1 {
        macs_per_cycle: mpc,
        util,
        rows,
    })
}

/// Fig. 3a: RedMulE area breakdown.
pub fn fig3a() -> String {
    let b = AreaModel::new(Technology::Gf22Fdx).redmule(4, 8, 3);
    let shares = b.shares();
    format!(
        "Fig 3a: RedMulE area breakdown (total {:.3} mm2)\n\
         datapath   {:5.1} %\nbuffers    {:5.1} %\nstreamer   {:5.1} %\ncontroller {:5.1} %\n",
        b.total(),
        100.0 * shares[0],
        100.0 * shares[1],
        100.0 * shares[2],
        100.0 * shares[3],
    )
}

/// Fig. 3b: RedMulE power breakdown at the efficiency point.
pub fn fig3b() -> String {
    let m = PowerModel::new(Technology::Gf22Fdx, OperatingPoint::peak_efficiency());
    let rm = m.redmule_power_mw(0.988);
    format!(
        "Fig 3b: RedMulE power breakdown (total {:.1} mW at {})\n\
         datapath   {:5.1} %\nbuffers    {:5.1} %\nstreamer   {:5.1} %\ncontroller {:5.1} %\n",
        rm.total(),
        m.operating_point(),
        100.0 * rm.datapath / rm.total(),
        100.0 * rm.buffers / rm.total(),
        100.0 * rm.streamer / rm.total(),
        100.0 * rm.controller / rm.total(),
    )
}

/// Fig. 3c: cluster energy per MAC vs matrix size.
#[derive(Debug, Clone)]
pub struct Fig3c {
    /// (size, utilization, pJ/MAC) series.
    pub points: Vec<(usize, f64, f64)>,
}

impl fmt::Display for Fig3c {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 3c: cluster energy per MAC (0.65 V, 476 MHz)")?;
        writeln!(f, "{:>6} {:>8} {:>10}", "size", "util%", "pJ/MAC")?;
        for &(s, u, e) in &self.points {
            writeln!(f, "{s:>6} {:>8.1} {e:>10.2}", 100.0 * u)?;
        }
        Ok(())
    }
}

/// Regenerates Fig. 3c.
///
/// # Errors
///
/// Returns the [`EngineError`] of the underlying accelerator sweep.
pub fn fig3c(sizes: &[usize]) -> Result<Fig3c, EngineError> {
    let m = PowerModel::new(Technology::Gf22Fdx, OperatingPoint::peak_efficiency());
    Ok(Fig3c {
        points: hw_sweep(sizes)?
            .into_iter()
            .map(|(s, mpc, util)| (s, util, m.energy_per_mac_pj(mpc, util)))
            .collect(),
    })
}

/// Fig. 3d: throughput at the maximum cluster frequency vs matrix size.
#[derive(Debug, Clone)]
pub struct Fig3d {
    /// (size, MAC/cycle, GFLOPS at 666 MHz) series.
    pub points: Vec<(usize, f64, f64)>,
}

impl fmt::Display for Fig3d {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 3d: throughput at 666 MHz (0.8 V)")?;
        writeln!(f, "{:>6} {:>10} {:>9}", "size", "MAC/cycle", "GFLOPS")?;
        for &(s, mpc, g) in &self.points {
            writeln!(f, "{s:>6} {mpc:>10.2} {g:>9.1}")?;
        }
        Ok(())
    }
}

/// Regenerates Fig. 3d.
///
/// # Errors
///
/// Returns the [`EngineError`] of the underlying accelerator sweep.
pub fn fig3d(sizes: &[usize]) -> Result<Fig3d, EngineError> {
    let m = PowerModel::new(Technology::Gf22Fdx, OperatingPoint::peak_performance());
    Ok(Fig3d {
        points: hw_sweep(sizes)?
            .into_iter()
            .map(|(s, mpc, _)| (s, mpc, m.gops(mpc)))
            .collect(),
    })
}

/// Fig. 4a: HW vs SW computational performance against the 32 MAC/cycle
/// ideal.
#[derive(Debug, Clone)]
pub struct Fig4a {
    /// Per-size measurements.
    pub points: Vec<SizePoint>,
}

impl Fig4a {
    /// Largest observed speedup ("up to NNx" in the paper).
    fn peak_speedup(&self) -> f64 {
        self.points
            .iter()
            .map(SizePoint::speedup)
            .fold(0.0, f64::max)
    }

    /// Largest observed fraction of the ideal throughput.
    fn peak_ideal_fraction(&self) -> f64 {
        self.points.iter().map(|p| p.hw_util).fold(0.0, f64::max)
    }
}

impl fmt::Display for Fig4a {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 4a: HW vs SW vs ideal (32 MAC/cycle)")?;
        writeln!(
            f,
            "{:>6} {:>12} {:>10} {:>8} {:>12} {:>10} {:>9}",
            "size", "HW cycles", "HW MAC/c", "% ideal", "SW cycles", "SW MAC/c", "speedup"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>6} {:>12} {:>10.2} {:>8.1} {:>12} {:>10.3} {:>8.1}x",
                p.size,
                p.hw_cycles,
                p.hw_mpc,
                100.0 * p.hw_util,
                p.sw_cycles,
                p.sw_mpc,
                p.speedup()
            )?;
        }
        writeln!(
            f,
            "peak: {:.1}% of ideal, {:.1}x speedup",
            100.0 * self.peak_ideal_fraction(),
            self.peak_speedup()
        )
    }
}

/// Regenerates Fig. 4a.
///
/// # Errors
///
/// Returns the [`EngineError`] of the underlying accelerator sweep.
pub fn fig4a(sizes: &[usize]) -> Result<Fig4a, EngineError> {
    Ok(Fig4a {
        points: hw_sw_sweep(sizes)?,
    })
}

/// Fig. 4b: area sweep as a function of H and L (P = 3).
pub fn fig4b() -> String {
    let m = AreaModel::new(Technology::Gf22Fdx);
    let pairs = [
        (2usize, 4usize),
        (2, 8),
        (4, 8),
        (4, 16),
        (8, 16),
        (8, 32),
        (16, 32),
    ];
    let mut out = String::from("Fig 4b: RedMulE area sweep (P = 3)\n");
    out.push_str(&format!(
        "{:>4} {:>4} {:>6} {:>10} {:>9} {:>7}\n",
        "H", "L", "FMAs", "area mm2", "cluster", "ports"
    ));
    for p in m.sweep(&pairs, 3) {
        let ports = AccelConfig::new(p.h, p.l, 3).memory_ports();
        out.push_str(&format!(
            "{:>4} {:>4} {:>6} {:>10.3} {:>8.2}x {:>7}\n",
            p.h, p.l, p.fmas, p.area_mm2, p.cluster_ratio, ports
        ));
    }
    out
}

/// One layer row of the Fig. 4c comparison (GEMM cycles only; shared
/// elementwise work is reported separately).
#[derive(Debug, Clone)]
pub struct AeLayerRow {
    /// Layer label.
    pub layer: String,
    /// Forward GEMM cycles on the accelerator.
    pub fwd_hw: u64,
    /// Forward GEMM cycles on the 8-core baseline.
    pub fwd_sw: u64,
    /// Backward (data + weight) GEMM cycles on the accelerator.
    pub bwd_hw: u64,
    /// Backward GEMM cycles on the baseline.
    pub bwd_sw: u64,
}

/// Fig. 4c / 4d data: one full training step at a given batch size.
#[derive(Debug, Clone)]
pub struct AeStep {
    /// Batch size.
    pub batch: usize,
    /// Per-layer GEMM cycle comparison.
    pub layers: Vec<AeLayerRow>,
    /// Forward + backward cycles (GEMMs, activations, loss) on the
    /// accelerator path. The SGD update is excluded: the paper's benchmark
    /// propagates "a single input forward and backward".
    pub total_hw: u64,
    /// Forward + backward cycles on the software path.
    pub total_sw: u64,
    /// Elementwise cycles within the totals (identical on both paths).
    pub elementwise: u64,
    /// SGD update cycles (identical on both paths, excluded from totals).
    pub update_cycles: u64,
    /// FP16 weight bytes (single copy).
    pub weight_bytes: usize,
    /// Live training activation bytes at this batch size.
    pub activation_bytes: usize,
}

impl AeStep {
    /// Overall HW-over-SW speedup for the whole training step.
    pub fn speedup(&self) -> f64 {
        self.total_sw as f64 / self.total_hw as f64
    }
}

impl fmt::Display for AeStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TinyMLPerf AutoEncoder training step, batch = {}",
            self.batch
        )?;
        writeln!(
            f,
            "{:<8} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
            "layer", "fwd HW", "fwd SW", "fwd x", "bwd HW", "bwd SW", "bwd x"
        )?;
        for row in &self.layers {
            writeln!(
                f,
                "{:<8} {:>10} {:>10} {:>7.1}x {:>10} {:>10} {:>7.1}x",
                row.layer,
                row.fwd_hw,
                row.fwd_sw,
                row.fwd_sw as f64 / row.fwd_hw.max(1) as f64,
                row.bwd_hw,
                row.bwd_sw,
                row.bwd_sw as f64 / row.bwd_hw.max(1) as f64,
            )?;
        }
        writeln!(
            f,
            "fwd+bwd totals: HW {} cyc, SW {} cyc (elementwise, shared: {} cyc) => speedup {:.1}x",
            self.total_hw,
            self.total_sw,
            self.elementwise,
            self.speedup()
        )?;
        writeln!(
            f,
            "optimizer update (shared, excluded): {} cyc",
            self.update_cycles
        )?;
        writeln!(
            f,
            "memory: weights {} KiB (FP16), activations {} KiB at B={}",
            self.weight_bytes / 1024,
            self.activation_bytes / 1024,
            self.batch
        )
    }
}

/// Regenerates Fig. 4c (per-layer, B = 1) or the per-batch halves of
/// Fig. 4d.
///
/// # Errors
///
/// Returns the [`EngineError`] of a failed training-step GEMM.
fn autoencoder_step(batch: usize) -> Result<AeStep, EngineError> {
    let x = workloads::autoencoder_batch(batch, 11);
    let run = |mut backend: Backend| -> Result<CycleLedger, EngineError> {
        let mut net = autoencoder::mlperf_tiny(77);
        let mut ledger = CycleLedger::new();
        net.train_step(&x, 0.001, &mut backend, &mut ledger)?;
        Ok(ledger)
    };
    let hw = run(Backend::hw())?;
    let sw = run(Backend::sw())?;

    let gemm_cycles = |ledger: &CycleLedger, layer: &str, kinds: &[OpKind]| -> u64 {
        ledger
            .records()
            .iter()
            .filter(|r| r.layer == layer && kinds.contains(&r.kind))
            .map(|r| r.cycles.count())
            .sum()
    };

    let net = autoencoder::mlperf_tiny(77);
    let layers = net
        .layers()
        .iter()
        .map(|l| AeLayerRow {
            layer: l.name().to_owned(),
            fwd_hw: gemm_cycles(&hw, l.name(), &[OpKind::Forward]),
            fwd_sw: gemm_cycles(&sw, l.name(), &[OpKind::Forward]),
            bwd_hw: gemm_cycles(
                &hw,
                l.name(),
                &[OpKind::BackwardData, OpKind::BackwardWeight],
            ),
            bwd_sw: gemm_cycles(
                &sw,
                l.name(),
                &[OpKind::BackwardData, OpKind::BackwardWeight],
            ),
        })
        .collect();

    let update = hw.cycles_for(OpKind::Update).count();
    Ok(AeStep {
        batch,
        layers,
        total_hw: hw.total_cycles().count() - update,
        total_sw: sw.total_cycles().count() - update,
        elementwise: hw.cycles_for(OpKind::Elementwise).count()
            + hw.cycles_for(OpKind::Loss).count(),
        update_cycles: update,
        weight_bytes: net.weight_bytes(),
        activation_bytes: autoencoder::training_activation_bytes(&net, batch),
    })
}

/// Fig. 4c: the B = 1 per-layer comparison.
///
/// # Errors
///
/// Returns the [`EngineError`] of a failed training-step GEMM.
pub fn fig4c() -> Result<AeStep, EngineError> {
    autoencoder_step(1)
}

/// Fig. 4d: the batching comparison.
#[derive(Debug, Clone)]
pub struct Fig4d {
    /// The B = 1 step.
    pub b1: AeStep,
    /// The B = 16 step.
    pub b16: AeStep,
}

impl Fig4d {
    /// HW per-sample throughput improvement from batching.
    fn hw_batching_gain(&self) -> f64 {
        (self.b1.total_hw as f64) / (self.b16.total_hw as f64 / 16.0)
    }

    /// SW per-sample throughput improvement from batching (paper: ~1).
    fn sw_batching_gain(&self) -> f64 {
        (self.b1.total_sw as f64) / (self.b16.total_sw as f64 / 16.0)
    }
}

impl fmt::Display for Fig4d {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 4d: effect of batching on HW/SW execution")?;
        writeln!(
            f,
            "{:>4} {:>12} {:>12} {:>9} {:>12} {:>12}",
            "B", "HW cyc", "SW cyc", "speedup", "HW cyc/spl", "SW cyc/spl"
        )?;
        for step in [&self.b1, &self.b16] {
            writeln!(
                f,
                "{:>4} {:>12} {:>12} {:>8.1}x {:>12.0} {:>12.0}",
                step.batch,
                step.total_hw,
                step.total_sw,
                step.speedup(),
                step.total_hw as f64 / step.batch as f64,
                step.total_sw as f64 / step.batch as f64,
            )?;
        }
        writeln!(
            f,
            "batching gain per sample: HW {:.1}x, SW {:.2}x; B=16 activations {} KiB",
            self.hw_batching_gain(),
            self.sw_batching_gain(),
            self.b16.activation_bytes / 1024
        )
    }
}

/// Regenerates Fig. 4d.
///
/// # Errors
///
/// Returns the [`EngineError`] of a failed training-step GEMM.
pub fn fig4d() -> Result<Fig4d, EngineError> {
    Ok(Fig4d {
        b1: autoencoder_step(1)?,
        b16: autoencoder_step(16)?,
    })
}

/// Ablation: FMA pipeline depth `P` at fixed `H = 4, L = 8` — the design
/// choice the paper fixed at `P = 3`.
///
/// # Errors
///
/// Returns the first [`EngineError`] an accelerator run reports.
pub fn ablation_pipeline() -> Result<String, EngineError> {
    use redmule_energy::AreaModel;
    let shape = GemmShape::new(64, 64, 64);
    let area = AreaModel::new(Technology::Gf22Fdx);
    let mut out = String::from("Ablation: FMA pipeline depth (H = 4, L = 8, square GEMM 64^3)\n");
    out.push_str(&format!(
        "{:>3} {:>7} {:>7} {:>9} {:>10} {:>10}\n",
        "P", "width", "ports", "cycles", "util %", "area mm2"
    ));
    for p in 0..=5 {
        let cfg = AccelConfig::new(4, 8, p);
        let accel = Accelerator::new(cfg);
        let (x, w) = workloads::gemm_operands(shape, p as u32);
        let run = accel.gemm(shape, &x, &w)?;
        out.push_str(&format!(
            "{:>3} {:>7} {:>7} {:>9} {:>10.1} {:>10.4}\n",
            p,
            cfg.phase_width(),
            cfg.memory_ports(),
            run.report.cycles.count(),
            100.0 * run.report.utilization(&cfg),
            area.redmule(4, 8, p).total(),
        ));
    }
    Ok(out)
}

/// Ablation: streamer schedule policies (interleave + prefetch vs the
/// strawmen).
///
/// # Errors
///
/// Returns the first [`EngineError`] an engine run reports.
pub fn ablation_streamer() -> Result<String, EngineError> {
    use redmule::{Engine, Job, StreamerPolicy};
    use redmule_cluster::{Hci, Tcdm};

    let shape = GemmShape::new(32, 64, 32);
    let run_policy = |policy: StreamerPolicy| -> Result<(u64, u64), EngineError> {
        let (x, w) = workloads::gemm_operands(shape, 3);
        let ccfg = ClusterConfig::default();
        let mut mem = Tcdm::new(&ccfg);
        let mut hci = Hci::new(&ccfg);
        mem.store_f16_slice(0, &x)?;
        mem.store_f16_slice(0x4000, &w)?;
        let engine = Engine::new(AccelConfig::paper()).with_streamer_policy(policy);
        let job = Job::new(0, 0x4000, 0x8000, shape.m, shape.n, shape.k);
        let report = engine.run(job, &mut mem, &mut hci)?;
        Ok((report.cycles.count(), report.stall_cycles))
    };

    let mut out = format!("Ablation: streamer schedule (GEMM {shape})\n");
    out.push_str(&format!(
        "{:<18} {:>9} {:>9} {:>9}\n",
        "policy", "cycles", "stalls", "vs base"
    ));
    let (base, base_stalls) = run_policy(StreamerPolicy::Interleaved)?;
    out.push_str(&format!(
        "{:<18} {:>9} {:>9} {:>8.2}x\n",
        "interleaved", base, base_stalls, 1.0
    ));
    for (name, policy) in [
        ("half-bandwidth", StreamerPolicy::HalfBandwidth),
        ("single-buffered-W", StreamerPolicy::SingleBufferedW),
    ] {
        let (cycles, stalls) = run_policy(policy)?;
        out.push_str(&format!(
            "{:<18} {:>9} {:>9} {:>8.2}x\n",
            name,
            cycles,
            stalls,
            cycles as f64 / base as f64
        ));
    }
    Ok(out)
}

/// Ablation: sensitivity of the speedup headline to the software kernel.
///
/// # Errors
///
/// Returns the [`EngineError`] of the accelerator reference run.
pub fn ablation_sw_kernel() -> Result<String, EngineError> {
    use redmule_cluster::baseline::KernelVariant;
    let shape = GemmShape::new(64, 64, 64);
    let (x, w) = workloads::gemm_operands(shape, 17);
    let hw = Accelerator::paper_instance().gemm(shape, &x, &w)?;
    let mut out = format!("Ablation: software-kernel sensitivity (GEMM {shape})\n");
    out.push_str(&format!(
        "{:<10} {:>10} {:>10} {:>9}\n",
        "baseline", "SW cycles", "SW MAC/c", "speedup"
    ));
    for (name, variant) in [
        ("scalar", KernelVariant::Scalar),
        ("simd2", KernelVariant::Simd2),
    ] {
        let run = SwGemm::new(&ClusterConfig::default())
            .with_variant(variant)
            .run(shape, &x, &w)?;
        out.push_str(&format!(
            "{:<10} {:>10} {:>10.3} {:>8.1}x\n",
            name,
            run.cycles.count(),
            run.macs_per_cycle(),
            run.cycles.count() as f64 / hw.report.cycles.count() as f64
        ));
    }
    Ok(out)
}

/// Co-simulation experiment (beyond the paper): the accelerator sharing
/// the TCDM with cores that access memory every cycle, across the HCI's
/// configurable rotation window.
///
/// # Errors
///
/// Returns the first [`EngineError`] an engine session reports.
pub fn contention() -> Result<String, EngineError> {
    use redmule::{Engine, Job};
    use redmule_cluster::{Hci, Initiator, Tcdm};

    let shape = GemmShape::new(8, 32, 16);
    let (x, w) = workloads::gemm_operands(shape, 23);
    let engine = Engine::new(AccelConfig::paper());

    let run = |streak: u32, hammers: usize| -> Result<(u64, f64), EngineError> {
        let ccfg = ClusterConfig {
            rotation_streak: streak,
            ..ClusterConfig::default()
        };
        let mut mem = Tcdm::new(&ccfg);
        let mut hci = Hci::new(&ccfg);
        mem.store_f16_slice(0, &x)?;
        mem.store_f16_slice(0x2000, &w)?;
        let job = Job::new(0, 0x2000, 0x4000, shape.m, shape.n, shape.k);
        let mut session = engine.start(job)?;
        let mut cycles = 0u64;
        let mut grants = 0u64;
        let mut requests = 0u64;
        while !session.is_finished() {
            let reqs: Vec<(Initiator, u32)> = (0..hammers)
                .map(|c| (Initiator::Core(c), ((cycles as u32 + c as u32) % 512) * 4))
                .collect();
            let tick = session.tick(&mut mem, &mut hci, &reqs)?;
            requests += reqs.len() as u64;
            grants += tick.log_granted.iter().filter(|&&g| g).count() as u64;
            cycles += 1;
        }
        session.finish();
        let rate = if requests == 0 {
            1.0
        } else {
            grants as f64 / requests as f64
        };
        Ok((cycles, rate))
    };

    let (clean, _) = run(4, 0)?;
    let mut out = format!(
        "Co-simulation: accelerator vs 8 memory-hammering cores (GEMM {shape})
         uncontended: {clean} cycles
"
    );
    out.push_str(&format!(
        "{:>7} {:>12} {:>10} {:>12}
",
        "streak", "engine cyc", "slowdown", "core grants"
    ));
    for streak in [1u32, 2, 4, 8] {
        let (cycles, rate) = run(streak, 8)?;
        out.push_str(&format!(
            "{:>7} {:>12} {:>9.2}x {:>11.1}%
",
            streak,
            cycles,
            cycles as f64 / clean as f64,
            100.0 * rate
        ));
    }
    Ok(out)
}

/// Headline claim check: energy-efficiency gain of the accelerator over
/// the software baseline (paper: up to 4.65x).
///
/// Both run at the same operating point; SW power excludes the (idle)
/// accelerator but keeps cores active, which we approximate by the same
/// cluster power envelope with the cores' share replacing RedMulE's.
///
/// # Errors
///
/// Returns the [`EngineError`] of the underlying accelerator run.
pub fn efficiency_gain(full: bool) -> Result<f64, EngineError> {
    let sizes = workloads::sweep_sizes(full);
    let size = *sizes.last().expect("non-empty sweep");
    let pts = hw_sw_sweep(&[size])?;
    let p = &pts[0];
    let m = PowerModel::new(Technology::Gf22Fdx, OperatingPoint::peak_efficiency());
    Ok(m.efficiency_gain_over_sw(p.hw_mpc, p.hw_util, p.sw_mpc))
}

/// One row of the fault-tolerance sweep.
#[derive(Debug, Clone)]
pub struct FaultSweepRow {
    /// Protection mode.
    pub mode: FtMode,
    /// Random transients injected per tile.
    pub per_tile: u32,
    /// Faults that actually landed on live state.
    pub injected: u64,
    /// Detections (ABFT mismatch or DMR vote failure).
    pub detected: u64,
    /// Tiles restored to the exact result.
    pub corrected: u64,
    /// Tile re-executions.
    pub replayed: u64,
    /// Total cycles including all recovery overhead.
    pub cycles: u64,
    /// Cycle overhead relative to the unprotected fault-free run.
    pub overhead: f64,
    /// Whether the final Z matched the golden model bit for bit.
    pub exact: bool,
}

/// RedMulE-FT sweep: both protection modes against increasing transient
/// rates on a 32x32x32 GEMM.
#[derive(Debug, Clone)]
pub struct FaultSweep {
    /// Fault-free unprotected cycle count (the overhead baseline).
    pub baseline_cycles: u64,
    /// One row per (mode, rate) pair.
    pub rows: Vec<FaultSweepRow>,
}

impl fmt::Display for FaultSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fault sweep: 32x32x32 GEMM, seeded transients (baseline {} cycles)",
            self.baseline_cycles
        )?;
        writeln!(
            f,
            "{:>10} {:>9} {:>8} {:>8} {:>9} {:>8} {:>8} {:>9} {:>6}",
            "mode",
            "per-tile",
            "injected",
            "detected",
            "corrected",
            "replays",
            "cycles",
            "overhead",
            "exact"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>10} {:>9} {:>8} {:>8} {:>9} {:>8} {:>8} {:>8.1}% {:>6}",
                format!("{:?}", r.mode),
                r.per_tile,
                r.injected,
                r.detected,
                r.corrected,
                r.replayed,
                r.cycles,
                100.0 * r.overhead,
                if r.exact { "yes" } else { "NO" },
            )?;
        }
        Ok(())
    }
}

/// Runs the RedMulE-FT fault sweep: replay vs redundancy at 0/1/2/4
/// random transients per tile, all from fixed seeds so the table is
/// reproducible run to run.
///
/// # Errors
///
/// Returns the first [`EngineError`] a protected or baseline run reports
/// (including unrecoverable fault escalations).
pub fn fault_sweep() -> Result<FaultSweep, EngineError> {
    let accel = Accelerator::paper_instance();
    let shape = GemmShape::new(32, 32, 32);
    let (x, w) = workloads::gemm_operands(shape, 0xF0F0);
    let golden = redmule_fp16::vector::gemm_golden(shape, &x, &w);
    let baseline = accel.gemm(shape, &x, &w)?;
    let baseline_cycles = baseline.report.cycles.count();

    let targets = [
        TransientTarget::Pipe,
        TransientTarget::WLoad,
        TransientTarget::XLoad,
        TransientTarget::ZStore,
    ];
    let mut rows = Vec::new();
    for mode in [FtMode::Replay, FtMode::Redundancy] {
        for (i, per_tile) in [0u32, 1, 2, 4].into_iter().enumerate() {
            let plan = FaultPlan::new(0x5EED + i as u64).with_random_transients(per_tile, &targets);
            let ft = FtConfig {
                mode,
                max_retries: 8,
            };
            let run = accel.gemm_ft(shape, &x, &w, &plan, ft)?;
            let stats = &run.report.stats;
            let cycles = run.report.cycles.count();
            rows.push(FaultSweepRow {
                mode,
                per_tile,
                injected: stats.get("faults_injected"),
                detected: stats.get("faults_detected"),
                corrected: stats.get("faults_corrected"),
                replayed: stats.get("tiles_replayed"),
                cycles,
                overhead: cycles as f64 / baseline_cycles as f64 - 1.0,
                exact: run
                    .z
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(golden.iter().map(|v| v.to_bits())),
            });
        }
    }
    Ok(FaultSweep {
        baseline_cycles,
        rows,
    })
}

/// Supervised-runtime experiment (beyond the paper): a long GEMM driven
/// under shrinking cycle budgets. Each over-budget slice degrades
/// gracefully — it stops at a tile boundary with a resumable checkpoint,
/// a partial report and an analytical estimate of the remaining cycles —
/// and resuming until completion reproduces the uninterrupted result bit
/// for bit in the same total number of engine cycles.
///
/// # Errors
///
/// Returns the first [`EngineError`] a supervised slice reports.
///
/// # Panics
///
/// Panics if a resumed run diverges from the uninterrupted baseline —
/// that is a model bug, not a runtime condition.
pub fn degradation() -> Result<String, EngineError> {
    use redmule::{stage_gemm_workspace_in, Engine};
    use redmule_runtime::{Limits, Supervisor};

    let shape = GemmShape::new(48, 48, 48);
    let (x, w) = workloads::gemm_operands(shape, 0xD15C);
    let engine = Engine::new(AccelConfig::paper());

    // Uninterrupted baseline.
    let (job, mut mem, mut hci) = stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None)?;
    let full = engine.run(job, &mut mem, &mut hci)?;
    let total = full.cycles.count();
    let golden: Vec<u16> = mem
        .load_f16_slice(job.z_addr, shape.z_len())?
        .iter()
        .map(|v| v.to_bits())
        .collect();

    let mut out = format!("Supervised degradation: GEMM {shape}, {total} cycles uninterrupted\n");
    out.push_str(&format!(
        "{:>8} {:>10} {:>12} {:>11} {:>12} {:>7} {:>11}\n",
        "budget", "stop", "tiles", "executed", "est. remain", "slices", "total cyc"
    ));
    for pct in [10u64, 25, 50] {
        let budget = total * pct / 100;
        let sup =
            Supervisor::new(engine.clone()).with_limits(Limits::none().with_max_cycles(budget));
        let (job, mut mem, mut hci) = stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None)?;
        let mut run = sup.run(job, &mut mem, &mut hci)?;
        let first_stop = format!("{:?}", run.stop);
        let first_tiles = format!("{}/{}", run.tiles_done, run.tiles_total);
        let first_cycles = run.cycles_executed;
        let first_estimate = run.estimated_remaining_cycles;
        let mut slices = 1u32;
        while run.degraded {
            let ckpt = run.checkpoint.expect("degraded runs carry a checkpoint");
            run = sup.resume(&ckpt, &mut mem, &mut hci)?;
            slices += 1;
        }
        let z: Vec<u16> = mem
            .load_f16_slice(job.z_addr, shape.z_len())?
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(z, golden, "resumed run must match the baseline bitwise");
        let final_cycles = run.report.cycles.count();
        assert_eq!(final_cycles, total, "resumed run must cost the same cycles");
        out.push_str(&format!(
            "{:>7}% {:>10} {:>12} {:>11} {:>12} {:>7} {:>11}\n",
            pct, first_stop, first_tiles, first_cycles, first_estimate, slices, final_cycles
        ));
    }
    Ok(out)
}

/// One worker-count point of the batch scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct BatchPoint {
    /// Workers: dedicated accelerators in the makespan model, and the
    /// cap on the pool's host threads in the wall leg.
    pub workers: usize,
    /// Modeled makespan: simulated cycles of the busiest worker.
    pub makespan_cycles: u64,
    /// Total simulated cycles over all jobs (worker-count invariant).
    pub busy_cycles: u64,
    /// Modeled throughput at the 0.80 V operating point: what the
    /// *accelerator* would sustain, `jobs x f_clk / makespan_cycles`.
    pub modeled_jobs_per_sec: f64,
    /// Measured throughput: host wall-clock jobs/sec of the functional
    /// backend running the same batch at this worker count, median of
    /// [`BatchThroughput::wall_repeats`] timed runs.
    pub wall_jobs_per_sec: f64,
}

/// Batch-throughput scaling artefact (`BENCH_batch.json`): jobs/sec vs
/// worker count for a fixed batch of independent GEMMs, reported two
/// honest ways.
///
/// *Modeled* throughput is what `workers` dedicated accelerators would
/// sustain: the batch's per-job simulated cycles are dealt out and
/// stolen as [`ScheduleStats::replay`] describes, the makespan is the
/// busiest accelerator's total, and jobs/sec = jobs × f_clk / makespan.
/// It is bit-deterministic: a function of the jobs and the worker count
/// only.
///
/// *Wall* throughput is what the host actually delivers: the same batch
/// re-run on the functional backend under a wall clock, median of
/// `wall_repeats` timed runs per worker count. It is noisy by nature
/// (hence the lenient guard) but is the only number that can catch a
/// softfloat kernel that got 10x slower without changing a bit.
#[derive(Debug, Clone)]
pub struct BatchThroughput {
    /// Number of jobs in the batch.
    pub jobs: usize,
    /// Clock frequency assumed by the modeled throughput (MHz).
    pub freq_mhz: f64,
    /// Timed wall-clock runs per worker count (the median is reported).
    pub wall_repeats: usize,
    /// One point per worker count, ascending.
    pub points: Vec<BatchPoint>,
}

impl BatchThroughput {
    /// Modeled speedup of `workers` over the single-worker point.
    fn modeled_speedup_at(&self, workers: usize) -> f64 {
        let base = self.points.first().map_or(0.0, |p| p.modeled_jobs_per_sec);
        self.points
            .iter()
            .find(|p| p.workers == workers)
            .map_or(0.0, |p| {
                if base > 0.0 {
                    p.modeled_jobs_per_sec / base
                } else {
                    0.0
                }
            })
    }

    /// Measured wall-clock speedup of `workers` over the single-worker
    /// point.
    fn wall_speedup_at(&self, workers: usize) -> f64 {
        let base = self.points.first().map_or(0.0, |p| p.wall_jobs_per_sec);
        self.points
            .iter()
            .find(|p| p.workers == workers)
            .map_or(0.0, |p| {
                if base > 0.0 {
                    p.wall_jobs_per_sec / base
                } else {
                    0.0
                }
            })
    }

    /// Scaling guard used by CI, checking both throughput kinds.
    ///
    /// Modeled (deterministic, strict): 4 workers must beat 1 strictly
    /// and 8 workers must reach at least 3x. Wall (noisy, lenient —
    /// CI hosts may have fewer cores than workers): every point must be
    /// finite and positive, and no worker count may fall below a quarter
    /// of the single-worker wall throughput — adding workers being
    /// *catastrophically* slower than serial means a contention bug, not
    /// host noise. Returns the first violation, if any.
    pub fn scaling_violation(&self) -> Option<String> {
        let s4 = self.modeled_speedup_at(4);
        let s8 = self.modeled_speedup_at(8);
        if s4 <= 1.0 {
            return Some(format!(
                "modeled jobs/sec at 4 workers is {s4:.2}x of 1 worker (need > 1x)"
            ));
        }
        if s8 < 3.0 {
            return Some(format!(
                "modeled jobs/sec at 8 workers is {s8:.2}x of 1 worker (need >= 3x)"
            ));
        }
        for p in &self.points {
            if !p.wall_jobs_per_sec.is_finite() || p.wall_jobs_per_sec <= 0.0 {
                return Some(format!(
                    "wall jobs/sec at {} workers is {} (need finite and positive)",
                    p.workers, p.wall_jobs_per_sec
                ));
            }
            let ws = self.wall_speedup_at(p.workers);
            if ws < 0.25 {
                return Some(format!(
                    "wall jobs/sec at {} workers is {ws:.2}x of 1 worker (need >= 0.25x)",
                    p.workers
                ));
            }
        }
        None
    }

    /// Renders the artefact as the JSON written to `BENCH_batch.json`.
    /// Fixed-precision formatting throughout so regenerated artefacts
    /// diff cleanly field by field (wall values are measurements and
    /// *will* move between hosts; their format does not).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"experiment\": \"batch_throughput\",\n");
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"freq_mhz\": {:.1},\n", self.freq_mhz));
        out.push_str(&format!("  \"wall_repeats\": {},\n", self.wall_repeats));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let sep = if i + 1 == self.points.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"workers\": {}, \"makespan_cycles\": {}, \"busy_cycles\": {}, \
                 \"modeled_jobs_per_sec\": {:.1}, \"modeled_speedup\": {:.3}, \
                 \"wall_jobs_per_sec\": {:.0}, \"wall_speedup\": {:.3}}}{}\n",
                p.workers,
                p.makespan_cycles,
                p.busy_cycles,
                p.modeled_jobs_per_sec,
                self.modeled_speedup_at(p.workers),
                p.wall_jobs_per_sec,
                self.wall_speedup_at(p.workers),
                sep,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl fmt::Display for BatchThroughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Batch throughput ({} independent GEMM jobs, modeled at {:.0} MHz, \
             wall = median of {} runs)",
            self.jobs, self.freq_mhz, self.wall_repeats
        )?;
        writeln!(
            f,
            "{:>8} {:>16} {:>16} {:>9} {:>13} {:>9}",
            "workers", "makespan (cyc)", "modeled jobs/s", "speedup", "wall jobs/s", "speedup"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>8} {:>16} {:>16.0} {:>8.2}x {:>13.0} {:>8.2}x",
                p.workers,
                p.makespan_cycles,
                p.modeled_jobs_per_sec,
                self.modeled_speedup_at(p.workers),
                p.wall_jobs_per_sec,
                self.wall_speedup_at(p.workers),
            )?;
        }
        Ok(())
    }
}

/// Timed wall-clock runs per worker count; the median is reported, so
/// one descheduled run cannot swing the artefact.
const WALL_REPEATS: usize = 5;

/// The fixed batch both throughput legs run: 64
/// jobs of small shapes in smoke mode, 256 heavier jobs otherwise. Five
/// shapes, coprime with every worker count in the sweep, so the makespan
/// model's round-robin deal hands each worker a mix of weights rather
/// than a resonant all-light / all-heavy split.
fn batch_job_mix(smoke: bool) -> Vec<GemmJob> {
    let n_jobs: usize = if smoke { 64 } else { 256 };
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[
            (8, 16, 16),
            (16, 8, 32),
            (12, 24, 16),
            (16, 16, 16),
            (8, 32, 24),
        ]
    } else {
        &[
            (32, 32, 32),
            (16, 64, 32),
            (48, 16, 48),
            (32, 48, 64),
            (24, 40, 40),
        ]
    };
    (0..n_jobs)
        .map(|i| {
            let (m, n, k) = shapes[i % shapes.len()];
            let shape = GemmShape::new(m, n, k);
            let (x, w) = workloads::gemm_operands(shape, i as u32);
            GemmJob::new(i as u64, shape, x, w)
        })
        .collect()
}

/// Runs a fixed batch of independent GEMM jobs and reports, at 1, 2, 4
/// and 8 workers, both modeled (accelerator-cycle, from one engine run
/// of the batch) and measured (host wall-clock, functional backend)
/// jobs/sec. While measuring, it also asserts the canonical batch report
/// is byte-identical across every worker count — the determinism
/// contract the parallel writeback must uphold.
///
/// `smoke` selects the small CI workload (64 jobs of small shapes);
/// without it the batch is 4x larger with heavier shapes.
///
/// # Errors
///
/// Returns an [`EngineError`] if the executor rejects the batch, a
/// job's engine run fails, or the canonical report differs between
/// worker counts.
pub fn batch_throughput(smoke: bool) -> Result<BatchThroughput, EngineError> {
    let jobs = batch_job_mix(smoke);
    let n_jobs = jobs.len();

    // The wall-clock leg runs the same batch on the functional backend:
    // bit-identical outputs (pinned by tests/conformance.rs) at wall
    // speeds where host parallelism is visible at all.
    let wall_jobs: Vec<GemmJob> = jobs
        .iter()
        .cloned()
        .map(|j| j.with_backend(BackendKind::Functional))
        .collect();

    // The modeled leg: the report is the same at any worker count, so
    // the engine batch runs once and `ScheduleStats::replay` deals it
    // out at each count.
    let report = BatchExecutor::new(8)
        .run(jobs)
        .map_err(|e| EngineError::InvalidJob(format!("batch executor: {e}")))?
        .report;
    if !report.all_completed() {
        return Err(EngineError::InvalidJob(format!(
            "{} of {} jobs did not complete",
            report.jobs.len() - report.completed(),
            report.jobs.len(),
        )));
    }

    let freq_mhz = OperatingPoint::peak_performance().frequency().as_mhz();
    let mut points = Vec::new();
    let mut canonical: Option<String> = None;
    for workers in [1usize, 2, 4, 8] {
        let schedule = ScheduleStats::replay(&report, workers);
        let makespan = schedule.makespan_cycles();
        let busy = schedule.total_busy_cycles();
        let modeled_jobs_per_sec = n_jobs as f64 * freq_mhz * 1e6 / makespan as f64;

        let mut wall_secs = Vec::with_capacity(WALL_REPEATS);
        let executor = BatchExecutor::new(workers);
        for _ in 0..WALL_REPEATS {
            // Clone outside the timed region: the measurement is the
            // executor plus the functional kernel, not the allocator.
            let batch = wall_jobs.clone();
            let start = Instant::now();
            let wall_outcome = executor
                .run(batch)
                .map_err(|e| EngineError::InvalidJob(format!("wall batch executor: {e}")))?;
            wall_secs.push(start.elapsed().as_secs_f64());
            let canon = wall_outcome.report.to_canonical_json();
            match &canonical {
                None => canonical = Some(canon),
                Some(reference) => {
                    if *reference != canon {
                        return Err(EngineError::InvalidJob(format!(
                            "canonical batch report at {workers} workers differs from the \
                             1-worker report: parallel writeback broke determinism"
                        )));
                    }
                }
            }
        }
        wall_secs.sort_by(|a, b| a.total_cmp(b));
        let median = wall_secs[wall_secs.len() / 2];
        let wall_jobs_per_sec = n_jobs as f64 / median;

        points.push(BatchPoint {
            workers,
            makespan_cycles: makespan,
            busy_cycles: busy,
            modeled_jobs_per_sec,
            wall_jobs_per_sec,
        });
    }
    Ok(BatchThroughput {
        jobs: n_jobs,
        freq_mhz,
        wall_repeats: WALL_REPEATS,
        points,
    })
}

/// Trace-export artefact (`BENCH_trace.json`): a Chrome trace-event
/// document (Perfetto-loadable) for a small deterministic mixed batch,
/// plus the invariance evidence gathered while producing it.
#[derive(Debug, Clone)]
pub struct TraceExport {
    /// Jobs in the traced batch.
    pub jobs: usize,
    /// Trace events across all lanes.
    pub events: usize,
    /// Lanes (one per job).
    pub lanes: usize,
    /// Largest timestamp in the document (simulated cycles).
    pub max_ts: u64,
    /// Worker counts whose exports were byte-compared.
    pub worker_counts: Vec<usize>,
    /// The validated Chrome trace JSON.
    pub json: String,
}

impl fmt::Display for TraceExport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Trace export: {} jobs, {} lanes, {} events, max ts {} cycles",
            self.jobs, self.lanes, self.events, self.max_ts
        )?;
        writeln!(
            f,
            "Chrome trace bytes identical across {:?} workers ({} bytes)",
            self.worker_counts,
            self.json.len()
        )
    }
}

/// Runs a small deterministic mixed batch (both backends, accumulate, a
/// fault drill) with event tracing at several worker counts, checks the
/// exported Chrome trace is byte-identical across all of them, and
/// validates the document structurally.
///
/// `smoke` selects the CI workload (6 jobs); without it the batch is
/// larger with heavier shapes.
///
/// # Errors
///
/// Returns an [`EngineError`] if the executor rejects the batch, the
/// trace bytes differ between worker counts, or the document fails
/// validation.
pub fn trace_export(smoke: bool) -> Result<TraceExport, EngineError> {
    use redmule::obs::validate_chrome_trace;
    use redmule::BackendKind;
    use redmule_batch::JobFaults;

    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(8, 16, 16), (3, 7, 21), (16, 8, 32)]
    } else {
        &[(16, 32, 32), (13, 24, 40), (32, 16, 48)]
    };
    let reps = if smoke { 2 } else { 8 };
    let mut jobs: Vec<GemmJob> = (0..shapes.len() * reps)
        .map(|i| {
            let (m, n, k) = shapes[i % shapes.len()];
            let shape = GemmShape::new(m, n, k);
            let (x, w) = workloads::gemm_operands(shape, i as u32);
            let job = GemmJob::new(i as u64, shape, x, w);
            if i % 3 == 1 {
                job.with_backend(BackendKind::Functional)
            } else {
                job
            }
        })
        .collect();
    // One FT-protected fault drill so Fault events appear in the trace.
    let shape = GemmShape::new(8, 8, 16);
    let (x, w) = workloads::gemm_operands(shape, 99);
    jobs.push(
        GemmJob::new(jobs.len() as u64, shape, x, w).with_faults(JobFaults::Protected {
            plan: FaultPlan::new(0x7ACE).with_random_transients(1, &[TransientTarget::Pipe]),
            ft: FtConfig::replay(),
        }),
    );
    let n_jobs = jobs.len();

    let worker_counts = vec![1usize, 2, 4];
    let mut reference: Option<String> = None;
    for &workers in &worker_counts {
        let outcome = BatchExecutor::new(workers)
            .with_event_trace()
            .run(jobs.clone())
            .map_err(|e| EngineError::InvalidJob(format!("batch executor: {e}")))?;
        let json = outcome.report.chrome_trace();
        match &reference {
            None => reference = Some(json),
            Some(r) if *r != json => {
                return Err(EngineError::InvalidJob(format!(
                    "chrome trace bytes diverged at {workers} workers"
                )))
            }
            Some(_) => {}
        }
    }
    let json = reference.unwrap_or_default();
    let summary = validate_chrome_trace(&json)
        .map_err(|e| EngineError::InvalidJob(format!("invalid chrome trace: {e}")))?;
    if summary.events == 0 {
        return Err(EngineError::InvalidJob(
            "traced batch produced an empty event stream".to_owned(),
        ));
    }
    Ok(TraceExport {
        jobs: n_jobs,
        events: summary.events,
        lanes: summary.lanes,
        max_ts: summary.max_ts,
        worker_counts,
        json,
    })
}

/// One offered-load point of the service saturation sweep.
#[derive(Debug, Clone)]
pub struct ServicePoint {
    /// Offered load as a per-mille fraction of the service's aggregate
    /// server capacity (1000 = arrivals exactly match what the virtual
    /// servers can drain).
    pub offered_per_mille: u64,
    /// Submissions offered at this load.
    pub submitted: usize,
    /// Submissions admitted.
    pub admitted: usize,
    /// Completed-job latency percentiles, in simulated cycles.
    pub p50: u64,
    /// 95th percentile latency.
    pub p95: u64,
    /// 99th percentile latency.
    pub p99: u64,
    /// Rejected submissions per 1000 offered.
    pub rejection_per_mille: u64,
    /// Preemptions across all jobs.
    pub preemptions: u64,
    /// Jobs evicted (degraded to a resumable checkpoint).
    pub evicted: usize,
}

/// Service saturation artefact (`BENCH_service.json`): latency
/// percentiles and rejection rate versus offered load for the
/// multi-tenant GEMM service, with the report byte-compared across
/// several host worker counts at every point (the divergence guard).
#[derive(Debug, Clone)]
pub struct ServiceSaturation {
    /// Virtual servers the front end schedules onto.
    pub servers: usize,
    /// Worker counts whose canonical reports were byte-compared.
    pub worker_counts: Vec<usize>,
    /// One point per offered load, ascending.
    pub points: Vec<ServicePoint>,
}

impl ServiceSaturation {
    /// Renders the artefact as the JSON written to `BENCH_service.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"experiment\": \"service_saturation\",\n");
        out.push_str(&format!("  \"servers\": {},\n", self.servers));
        let workers: Vec<String> = self.worker_counts.iter().map(usize::to_string).collect();
        out.push_str(&format!(
            "  \"workers_compared\": [{}],\n",
            workers.join(", ")
        ));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let sep = if i + 1 == self.points.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"offered_per_mille\": {}, \"submitted\": {}, \"admitted\": {}, \
                 \"latency_p50\": {}, \"latency_p95\": {}, \"latency_p99\": {}, \
                 \"rejection_per_mille\": {}, \"preemptions\": {}, \"evicted\": {}}}{}\n",
                p.offered_per_mille,
                p.submitted,
                p.admitted,
                p.p50,
                p.p95,
                p.p99,
                p.rejection_per_mille,
                p.preemptions,
                p.evicted,
                sep,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Sanity guard used by CI: under deepening overload the service must
    /// degrade *gracefully* — the rejection rate must be monotonically
    /// non-decreasing in offered load, and the heaviest point must
    /// actually shed or reject something. Returns the violation, if any.
    pub fn degradation_violation(&self) -> Option<String> {
        for pair in self.points.windows(2) {
            if pair[1].rejection_per_mille < pair[0].rejection_per_mille {
                return Some(format!(
                    "rejection rate fell from {}‰ to {}‰ as offered load rose {}‰ -> {}‰",
                    pair[0].rejection_per_mille,
                    pair[1].rejection_per_mille,
                    pair[0].offered_per_mille,
                    pair[1].offered_per_mille,
                ));
            }
        }
        match self.points.last() {
            Some(last) if last.rejection_per_mille == 0 && last.evicted == 0 => Some(
                "heaviest offered load neither rejected nor evicted anything — \
                 the sweep never saturated"
                    .to_owned(),
            ),
            _ => None,
        }
    }
}

impl fmt::Display for ServiceSaturation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Service saturation ({} virtual servers; reports byte-identical across {:?} workers)",
            self.servers, self.worker_counts
        )?;
        writeln!(
            f,
            "{:>9} {:>7} {:>8} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
            "load (‰)",
            "offered",
            "admitted",
            "p50 (cyc)",
            "p95 (cyc)",
            "p99 (cyc)",
            "rej (‰)",
            "preempt",
            "evicted"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>9} {:>7} {:>8} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
                p.offered_per_mille,
                p.submitted,
                p.admitted,
                p.p50,
                p.p95,
                p.p99,
                p.rejection_per_mille,
                p.preemptions,
                p.evicted,
            )?;
        }
        Ok(())
    }
}

/// Sweeps the multi-tenant GEMM service across offered loads from light
/// to heavily saturating, measuring latency percentiles and the typed
/// rejection rate, and byte-comparing the canonical report across host
/// worker counts 1, 2 and 8 at every point.
///
/// `smoke` selects the CI workload (24 submissions per point, small
/// shapes); without it each point offers 60 submissions of heavier
/// shapes.
///
/// # Errors
///
/// Returns an [`EngineError`] if the service rejects a script outright,
/// a replay fails, or the canonical report diverges between worker
/// counts.
pub fn service_saturation(smoke: bool) -> Result<ServiceSaturation, EngineError> {
    let n_subs: usize = if smoke { 24 } else { 60 };
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(8, 8, 8), (4, 12, 8), (8, 4, 16), (6, 6, 6)]
    } else {
        &[(16, 16, 16), (8, 24, 16), (16, 8, 32), (12, 12, 12)]
    };
    let servers = 2usize;
    let worker_counts = vec![1usize, 2, 8];
    let loads_per_mille: &[u64] = if smoke {
        &[500, 1000, 2000, 4000]
    } else {
        &[250, 500, 1000, 2000, 4000]
    };

    let functional = FunctionalGemm::new(AccelConfig::paper());
    let mean_est: u64 = {
        let total: u64 = shapes
            .iter()
            .map(|&(m, n, k)| functional.estimated_cycles(GemmShape::new(m, n, k)).count())
            .sum();
        total / shapes.len() as u64
    };

    let mut points = Vec::new();
    for &load in loads_per_mille {
        // Arrival spacing that offers `load`/1000 of the aggregate
        // capacity: at 1000‰ the `servers` virtual servers exactly keep
        // up with the mean service demand.
        let spacing = (mean_est * 1000 / (servers as u64 * load)).max(1);
        let config = ServiceConfig::new(servers)
            .with_queue_capacity(4)
            .with_preempt_margin(mean_est / 8)
            .with_retry(ServiceRetry {
                max_retries: 1,
                backoff_cycles: 64,
            })
            .with_tenant(TenantConfig::new(0).with_priority(1).with_max_in_flight(6))
            .with_tenant(TenantConfig::new(1).with_priority(2).with_max_in_flight(6))
            .with_tenant(
                TenantConfig::new(2)
                    .with_priority(3)
                    .with_bucket(mean_est * 8, mean_est / 2),
            );
        let script: Vec<Submission> = (0..n_subs)
            .map(|i| {
                let (m, n, k) = shapes[i % shapes.len()];
                let shape = GemmShape::new(m, n, k);
                let mut sub = Submission::new(i as u64, (i % 3) as u32, i as u64 * spacing, shape);
                if i % 4 == 1 {
                    // A quarter of the traffic is deadline-constrained,
                    // feasible when lightly loaded.
                    let est = functional.estimated_cycles(shape).count();
                    sub = sub.clone().with_deadline_cycle(sub.arrival_cycle + est * 3);
                }
                sub
            })
            .collect();

        let mut reference: Option<String> = None;
        let mut metrics: Option<ServicePoint> = None;
        for &workers in &worker_counts {
            let sim = ServiceSim::new(config.clone())
                .map_err(|e| EngineError::InvalidJob(format!("service config: {e}")))?
                .with_workers(workers);
            let report = sim
                .run(&script)
                .map_err(|e| EngineError::InvalidJob(format!("service run: {e}")))?;
            let json = report.to_canonical_json();
            match &reference {
                None => {
                    reference = Some(json);
                    metrics = Some(ServicePoint {
                        offered_per_mille: load,
                        submitted: script.len(),
                        admitted: report.jobs.len(),
                        p50: report.latency_percentile(50),
                        p95: report.latency_percentile(95),
                        p99: report.latency_percentile(99),
                        rejection_per_mille: report.rejection_per_mille(),
                        preemptions: report.total_preemptions(),
                        evicted: report.evicted(),
                    });
                }
                Some(r) if *r != json => {
                    return Err(EngineError::InvalidJob(format!(
                        "service report bytes diverged at {workers} workers (load {load}‰)"
                    )))
                }
                Some(_) => {}
            }
        }
        if let Some(p) = metrics {
            points.push(p);
        }
    }
    Ok(ServiceSaturation {
        servers,
        worker_counts,
        points,
    })
}

/// One (shape, format) measurement of the FP8 storage-format comparison.
#[derive(Debug, Clone, Copy)]
pub struct Fp8Point {
    /// GEMM shape `(m, n, k)`.
    pub shape: (usize, usize, usize),
    /// TCDM storage format the job ran with.
    pub format: Format,
    /// Measured engine cycles (trigger to completion).
    pub cycles: u64,
    /// Analytical model cycles — pinned equal to `cycles`.
    pub estimated: u64,
    /// Cycles charged to pipeline fill (halved refill beats under FP8).
    pub fill_cycles: u64,
    /// Cycles charged to buffer refill.
    pub refill_cycles: u64,
}

/// FP8 storage-format artefact (`BENCH_fp8.json`): modeled cycles and
/// batch throughput for the same GEMM workload stored as FP16, E4M3 and
/// E5M2.
///
/// Compute cycles are format-independent (the FMA core always runs
/// FP16); only the memory-bound fill and drain terms shrink because the
/// streamer serves two half-width elements per granted TCDM beat. The
/// guard pins exactly that: FP8 never costs more cycles than FP16 on the
/// same shape, the fill phase strictly shrinks on refill-bound shapes,
/// and the analytical model stays cycle-exact for every format.
#[derive(Debug, Clone)]
pub struct Fp8Comparison {
    /// Clock frequency assumed by the throughput model (MHz).
    pub freq_mhz: f64,
    /// Jobs per format in the batch-throughput measurement.
    pub jobs: usize,
    /// One point per (shape, format), formats grouped per shape with
    /// FP16 first.
    pub points: Vec<Fp8Point>,
    /// Modeled batch throughput per format on 4 dedicated workers
    /// ([`ScheduleStats`]).
    pub throughput: Vec<(Format, f64)>,
}

impl Fp8Comparison {
    fn fp16_point(&self, shape: (usize, usize, usize)) -> Option<&Fp8Point> {
        self.points
            .iter()
            .find(|p| p.shape == shape && p.format == Format::Fp16)
    }

    /// Total cycles over all shapes for one format.
    pub fn total_cycles(&self, format: Format) -> u64 {
        self.points
            .iter()
            .filter(|p| p.format == format)
            .map(|p| p.cycles)
            .sum()
    }

    /// CI guard: the FP8 datapath must never be slower than FP16, the
    /// halved-beat refill must actually show up in the fill phase, and
    /// the analytical model must stay exact. Returns the violation.
    pub fn guard(&self) -> Option<String> {
        for p in &self.points {
            if p.cycles != p.estimated {
                return Some(format!(
                    "cycle model drifted for {} {:?}: measured {} vs estimated {}",
                    p.format, p.shape, p.cycles, p.estimated
                ));
            }
            if p.format == Format::Fp16 {
                continue;
            }
            let Some(base) = self.fp16_point(p.shape) else {
                return Some(format!("missing FP16 baseline for shape {:?}", p.shape));
            };
            if p.cycles > base.cycles {
                return Some(format!(
                    "{} is slower than FP16 on {:?}: {} vs {} cycles",
                    p.format, p.shape, p.cycles, base.cycles
                ));
            }
            if p.fill_cycles > base.fill_cycles {
                return Some(format!(
                    "{} fill exceeds FP16 on {:?}: {} vs {} cycles",
                    p.format, p.shape, p.fill_cycles, base.fill_cycles
                ));
            }
        }
        for &(format, jps) in &self.throughput {
            if jps.is_nan() || jps <= 0.0 {
                return Some(format!("non-positive throughput for {format}: {jps}"));
            }
        }
        None
    }

    /// Renders the artefact as the JSON written to `BENCH_fp8.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"experiment\": \"fp8_comparison\",\n");
        out.push_str(&format!("  \"freq_mhz\": {:.1},\n", self.freq_mhz));
        out.push_str(&format!("  \"batch_jobs\": {},\n", self.jobs));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let sep = if i + 1 == self.points.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"shape\": [{}, {}, {}], \"format\": \"{}\", \"cycles\": {}, \
                 \"estimated\": {}, \"fill_cycles\": {}, \"refill_cycles\": {}}}{}\n",
                p.shape.0,
                p.shape.1,
                p.shape.2,
                p.format.label(),
                p.cycles,
                p.estimated,
                p.fill_cycles,
                p.refill_cycles,
                sep,
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"throughput\": [\n");
        for (i, (format, jps)) in self.throughput.iter().enumerate() {
            let sep = if i + 1 == self.throughput.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{\"format\": \"{}\", \"jobs_per_sec\": {:.1}}}{}\n",
                format.label(),
                jps,
                sep,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl fmt::Display for Fp8Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FP8 storage-format comparison (modeled at {:.0} MHz)",
            self.freq_mhz
        )?;
        writeln!(
            f,
            "{:>14} {:>9} {:>9} {:>7} {:>8}",
            "shape", "format", "cycles", "fill", "refill"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>14} {:>9} {:>9} {:>7} {:>8}",
                format!("{}x{}x{}", p.shape.0, p.shape.1, p.shape.2),
                p.format.label(),
                p.cycles,
                p.fill_cycles,
                p.refill_cycles,
            )?;
        }
        writeln!(f, "batch throughput ({} jobs, 4 workers):", self.jobs)?;
        for (format, jps) in &self.throughput {
            writeln!(f, "{:>14} {:>14.0} jobs/sec", format.label(), jps)?;
        }
        Ok(())
    }
}

/// Runs the same GEMM workload in all three storage formats and reports
/// measured engine cycles (checked against the analytical model), phase
/// attribution and modeled batch throughput.
///
/// `smoke` selects the small CI workload; without it the shapes are
/// larger and the batch 4x deeper.
///
/// # Errors
///
/// Returns an [`EngineError`] if an engine run or the batch executor
/// fails.
pub fn fp8_comparison(smoke: bool) -> Result<Fp8Comparison, EngineError> {
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(8, 16, 16), (16, 8, 32), (13, 7, 24), (16, 16, 16)]
    } else {
        &[(32, 32, 32), (16, 64, 32), (48, 16, 48), (64, 64, 64)]
    };
    let accel = Accelerator::paper_instance();
    let func = FunctionalGemm::paper_instance();
    let mut points = Vec::new();
    for &(m, n, k) in shapes {
        let shape = GemmShape::new(m, n, k);
        let (x, w) = workloads::gemm_operands(shape, (m * 31 + n * 7 + k) as u32);
        for format in Format::ALL {
            let run = accel.gemm_in(shape, format, &x, &w, None)?;
            points.push(Fp8Point {
                shape: (m, n, k),
                format,
                cycles: run.report.cycles.count(),
                estimated: func.estimated_cycles_format(shape, format).count(),
                fill_cycles: run.report.phases.fill,
                refill_cycles: run.report.phases.refill,
            });
        }
    }

    let n_jobs: usize = if smoke { 32 } else { 128 };
    let freq_mhz = OperatingPoint::peak_performance().frequency().as_mhz();
    let mut throughput = Vec::new();
    for format in Format::ALL {
        let jobs: Vec<GemmJob> = (0..n_jobs)
            .map(|i| {
                let (m, n, k) = shapes[i % shapes.len()];
                let shape = GemmShape::new(m, n, k);
                let (x, w) = workloads::gemm_operands(shape, i as u32);
                GemmJob::new(i as u64, shape, x, w).with_format(format)
            })
            .collect();
        let outcome = BatchExecutor::new(4)
            .run(jobs)
            .map_err(|e| EngineError::InvalidJob(format!("batch executor: {e}")))?;
        if !outcome.report.all_completed() {
            return Err(EngineError::InvalidJob(format!(
                "{} of {} {} jobs did not complete",
                outcome.report.jobs.len() - outcome.report.completed(),
                outcome.report.jobs.len(),
                format,
            )));
        }
        let makespan = outcome.schedule.makespan_cycles();
        throughput.push((format, n_jobs as f64 * freq_mhz * 1e6 / makespan as f64));
    }

    Ok(Fp8Comparison {
        freq_mhz,
        jobs: n_jobs,
        points,
        throughput,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp8_comparison_guard_holds_on_smoke() {
        let cmp = fp8_comparison(true).expect("fp8 comparison");
        assert_eq!(cmp.points.len(), 4 * Format::ALL.len());
        assert_eq!(cmp.guard(), None);
        // The halved refill beats must be visible in the totals, not
        // just non-regressing.
        assert!(cmp.total_cycles(Format::Fp8E4M3) < cmp.total_cycles(Format::Fp16));
        assert!(cmp.total_cycles(Format::Fp8E5M2) < cmp.total_cycles(Format::Fp16));
        let json = cmp.to_json();
        assert!(json.contains("\"fp8e4m3\"") && json.contains("\"fp8e5m2\""));
        assert!(cmp.to_string().contains("jobs/sec"));
    }

    #[test]
    fn sweep_points_match_paper_shape() {
        let pts = hw_sw_sweep(&[16, 64]).expect("sweep");
        assert!(pts[1].hw_util > pts[0].hw_util, "utilization grows");
        assert!(pts[1].speedup() > pts[0].speedup(), "speedup grows");
        assert!(pts[1].speedup() > 15.0);
    }

    #[test]
    fn table1_has_twelve_rows() {
        let t = table1(false).expect("table");
        assert_eq!(t.rows.len(), 12);
        let text = t.to_string();
        assert!(text.contains("PULP+RedMulE"));
        assert!(text.contains("Eyeriss"));
    }

    #[test]
    fn fig3_renderings_are_nonempty() {
        assert!(fig3a().contains("datapath"));
        assert!(fig3b().contains("mW"));
        let c = fig3c(&[16, 64]).expect("fig3c");
        assert_eq!(c.points.len(), 2);
        assert!(c.points[0].2 > c.points[1].2, "energy/MAC must fall");
        // The rendered energy per MAC, pinned exactly: a band would let
        // a refactor move the figure and stay green.
        let pj: Vec<String> = c.points.iter().map(|p| format!("{:.2}", p.2)).collect();
        assert_eq!(pj, ["3.04", "2.91"]);
        let d = fig3d(&[16, 64]).expect("fig3d");
        assert!(d.points[1].2 > d.points[0].2, "GFLOPS must grow");
        assert!(c.to_string().contains("pJ/MAC"));
        assert!(d.to_string().contains("GFLOPS"));
    }

    #[test]
    fn fig4a_peaks_are_sane() {
        let fig = fig4a(&[16, 64]).expect("fig4a");
        // Both cycle counts of every size, pinned exactly.
        let cycles: Vec<(usize, u64, u64)> = fig
            .points
            .iter()
            .map(|p| (p.size, p.hw_cycles, p.sw_cycles))
            .collect();
        assert_eq!(cycles, [(16, 179, 2_947), (64, 8_723, 168_481)]);
        assert!(fig.peak_ideal_fraction() > 0.9);
        assert!(fig.peak_speedup() > 15.0);
        assert!(fig.to_string().contains("speedup"));
    }

    #[test]
    fn fig4b_lists_paper_anchor_configs() {
        let text = fig4b();
        assert!(text.contains("256"));
        assert!(text.contains("512"));
        // 11 ports at H=16? No: H=16 -> 33 ports; check the H column text.
        assert!(text.lines().count() >= 9);
    }

    #[test]
    fn autoencoder_step_b1_shows_hw_advantage() {
        let step = autoencoder_step(1).expect("step");
        assert_eq!(step.layers.len(), 10);
        let speedup = step.speedup();
        assert!(
            (1.5..4.5).contains(&speedup),
            "B=1 overall speedup = {speedup} (paper: 2.6x)"
        );
        // Backward dominates the gain (weight gradients have large K).
        let fwd_gain: f64 = step.layers.iter().map(|l| l.fwd_sw as f64).sum::<f64>()
            / step.layers.iter().map(|l| l.fwd_hw as f64).sum::<f64>();
        let bwd_gain: f64 = step.layers.iter().map(|l| l.bwd_sw as f64).sum::<f64>()
            / step.layers.iter().map(|l| l.bwd_hw as f64).sum::<f64>();
        assert!(
            bwd_gain > fwd_gain,
            "bwd gain {bwd_gain} must beat fwd gain {fwd_gain}"
        );
        assert!(step.to_string().contains("dense0"));
    }

    #[test]
    fn efficiency_gain_is_positive() {
        let g = efficiency_gain(false).expect("gain");
        assert!(g > 2.0, "efficiency gain = {g}");
    }

    #[test]
    fn fault_sweep_recovers_exactly_and_charges_overhead() {
        let sweep = fault_sweep().expect("sweep");
        assert_eq!(sweep.rows.len(), 8);
        for r in &sweep.rows {
            assert!(
                r.exact,
                "{:?} @ {} per tile must stay bit-exact",
                r.mode, r.per_tile
            );
            if r.per_tile == 0 {
                assert_eq!(r.detected, 0, "{:?}: phantom detection", r.mode);
            } else {
                assert!(
                    r.injected > 0,
                    "{:?} @ {}: nothing landed",
                    r.mode,
                    r.per_tile
                );
            }
            match r.mode {
                // Fault-free replay pays only per-tile launch + checksum
                // overhead — well under a duplicated execution.
                FtMode::Replay if r.per_tile == 0 => {
                    assert!(r.overhead < 0.5, "overhead = {}", r.overhead);
                }
                // Duplication always at least doubles the compute.
                FtMode::Redundancy => assert!(r.overhead > 0.9, "overhead = {}", r.overhead),
                _ => {}
            }
        }
        let text = sweep.to_string();
        assert!(text.contains("Replay") && text.contains("Redundancy"));
    }

    #[test]
    fn batch_throughput_scales_with_workers() {
        let bt = batch_throughput(true).expect("batch throughput");
        assert_eq!(bt.points.len(), 4);
        assert_eq!(bt.scaling_violation(), None);
        // Total simulated work is invariant in the worker count, and
        // both it and the deal-then-steal makespans are pinned exactly
        // (the values in the committed BENCH_batch.json).
        assert!(bt.points.iter().all(|p| p.busy_cycles == 13_148));
        let makespans: Vec<(usize, u64)> = bt
            .points
            .iter()
            .map(|p| (p.workers, p.makespan_cycles))
            .collect();
        assert_eq!(makespans, [(1, 13_148), (2, 6_600), (4, 3_344), (8, 1_763)]);
        // Both throughput kinds are present and sane.
        assert!(bt
            .points
            .iter()
            .all(|p| p.wall_jobs_per_sec.is_finite() && p.wall_jobs_per_sec > 0.0));
        let json = bt.to_json();
        assert!(json.contains("\"experiment\": \"batch_throughput\""));
        assert!(json.contains("\"workers\": 8"));
        assert!(json.contains("\"modeled_jobs_per_sec\""));
        assert!(json.contains("\"wall_jobs_per_sec\""));
        assert!(json.contains("\"wall_repeats\": 5"));
        assert!(bt.to_string().contains("jobs/s"));
    }

    #[test]
    fn service_saturation_degrades_gracefully_and_stays_deterministic() {
        let ss = service_saturation(true).expect("service saturation");
        assert_eq!(ss.points.len(), 4);
        assert_eq!(ss.degradation_violation(), None);
        // Light load admits everything; heavy load must not.
        let first = &ss.points[0];
        let last = ss.points.last().expect("points");
        assert!(last.rejection_per_mille >= first.rejection_per_mille);
        assert!(
            last.rejection_per_mille > 0 || last.evicted > 0,
            "heaviest load must visibly degrade"
        );
        let json = ss.to_json();
        assert!(json.contains("\"experiment\": \"service_saturation\""));
        assert!(json.contains("\"latency_p99\""));
        assert!(ss.to_string().contains("p95 (cyc)"));
    }

    /// The data rows of a rendered ablation table (title and header
    /// skipped), split into columns.
    fn table_rows(text: &str) -> Vec<Vec<&str>> {
        text.lines()
            .skip(2)
            .map(|l| l.split_whitespace().collect())
            .collect()
    }

    #[test]
    fn ablation_tables_match_experiments_md() {
        let pipeline = ablation_pipeline().expect("pipeline ablation");
        let rows = table_rows(&pipeline);
        let cycles: Vec<&str> = rows.iter().map(|r| r[3]).collect();
        let util: Vec<&str> = rows.iter().map(|r| r[4]).collect();
        assert_eq!(cycles, ["25600", "8723", "9811", "8723", "10899", "9811"]);
        assert_eq!(util, ["32.0", "93.9", "83.5", "93.9", "75.2", "83.5"]);

        let streamer = ablation_streamer().expect("streamer ablation");
        let rows: Vec<[&str; 4]> = table_rows(&streamer)
            .iter()
            .map(|r| [r[0], r[1], r[2], r[3]])
            .collect();
        assert_eq!(
            rows,
            [
                ["interleaved", "2195", "12", "1.00x"],
                ["half-bandwidth", "2213", "23", "1.01x"],
                ["single-buffered-W", "2675", "492", "1.22x"],
            ]
        );
    }

    #[test]
    fn degradation_slices_resume_to_the_exact_result() {
        let text = degradation().expect("degradation experiment");
        assert!(
            text.contains("CycleBudget"),
            "budgeted slices must degrade:\n{text}"
        );
        assert!(text.lines().count() >= 5);
    }
}

/// One crash point of the recovery sweep.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// 0-based write operation at which the durable run was killed.
    pub crash_write: u64,
    /// Torn-tail bytes the recovery truncated from the journal.
    pub torn_bytes: u64,
    /// Intact journal records the recovery found.
    pub journal_records: u64,
    /// Submissions recovered (the causally closed script prefix).
    pub submissions_recovered: u64,
    /// Jobs whose journaled execution record made re-running unnecessary.
    pub jobs_reused: u64,
    /// Jobs resumed from a durable checkpoint generation.
    pub checkpoints_restored: u64,
    /// Executed cycles that did not have to be re-run.
    pub cycles_saved: u64,
    /// Typed repairs the recovery applied.
    pub repairs: usize,
    /// Whether the recovered report was byte-identical to a fresh,
    /// uninterrupted run over the recovered prefix.
    pub bit_exact: bool,
}

/// Crash-recovery artefact (`BENCH_recovery.json`): kill a durable
/// service run at a sweep of storage-write crash points and recover,
/// byte-comparing every recovered report against an uninterrupted run
/// over the recovered prefix and across host worker counts.
#[derive(Debug, Clone)]
pub struct RecoverySweep {
    /// Worker counts whose recovered reports were byte-compared.
    pub worker_counts: Vec<usize>,
    /// Total storage writes of the uninterrupted durable run.
    pub total_writes: u64,
    /// One point per crash write, ascending.
    pub points: Vec<RecoveryPoint>,
}

impl RecoverySweep {
    /// Renders the artefact as the JSON written to `BENCH_recovery.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"experiment\": \"crash_recovery\",\n");
        let workers: Vec<String> = self.worker_counts.iter().map(usize::to_string).collect();
        out.push_str(&format!(
            "  \"workers_compared\": [{}],\n",
            workers.join(", ")
        ));
        out.push_str(&format!("  \"total_writes\": {},\n", self.total_writes));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let sep = if i + 1 == self.points.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"crash_write\": {}, \"torn_bytes\": {}, \"journal_records\": {}, \
                 \"submissions_recovered\": {}, \"jobs_reused\": {}, \
                 \"checkpoints_restored\": {}, \"cycles_saved\": {}, \"repairs\": {}, \
                 \"bit_exact\": {}}}{}\n",
                p.crash_write,
                p.torn_bytes,
                p.journal_records,
                p.submissions_recovered,
                p.jobs_reused,
                p.checkpoints_restored,
                p.cycles_saved,
                p.repairs,
                p.bit_exact,
                sep,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The no-work-lost guard used by CI: every crash point must recover
    /// bit-exactly, and across the sweep the journal and the checkpoint
    /// store must each demonstrably save work (reused execution records
    /// at some point, a restored checkpoint at some other). Returns the
    /// violation, if any.
    pub fn no_work_lost_violation(&self) -> Option<String> {
        if let Some(p) = self.points.iter().find(|p| !p.bit_exact) {
            return Some(format!(
                "crash at write {} recovered to a report that differs from an \
                 uninterrupted run over its prefix",
                p.crash_write
            ));
        }
        if self.points.iter().all(|p| p.jobs_reused == 0) {
            return Some(
                "no crash point reused a journaled execution record — completed \
                 work was always re-run"
                    .to_owned(),
            );
        }
        if self.points.iter().all(|p| p.checkpoints_restored == 0) {
            return Some(
                "no crash point restored a durable checkpoint — in-flight work \
                 was always re-run from scratch"
                    .to_owned(),
            );
        }
        None
    }
}

impl fmt::Display for RecoverySweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Crash recovery ({} crash points over {} writes; recovered reports \
             byte-identical across {:?} workers)",
            self.points.len(),
            self.total_writes,
            self.worker_counts
        )?;
        writeln!(
            f,
            "{:>6} {:>5} {:>8} {:>5} {:>7} {:>9} {:>12} {:>8} {:>6}",
            "crash",
            "torn",
            "records",
            "subs",
            "reused",
            "restored",
            "cycles saved",
            "repairs",
            "exact"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>6} {:>5} {:>8} {:>5} {:>7} {:>9} {:>12} {:>8} {:>6}",
                p.crash_write,
                p.torn_bytes,
                p.journal_records,
                p.submissions_recovered,
                p.jobs_reused,
                p.checkpoints_restored,
                p.cycles_saved,
                p.repairs,
                p.bit_exact,
            )?;
        }
        Ok(())
    }
}

/// The quota-pressured, fault-striked script the recovery sweep kills
/// and recovers: a long preemptible victim (checkpoint generations), a
/// transiently faulted job (retries), tight-deadline interrupts and a
/// quota-bounced submission.
fn recovery_script(functional: &FunctionalGemm) -> (ServiceConfig, Vec<Submission>) {
    let config = ServiceConfig::new(1)
        .with_retry(ServiceRetry {
            max_retries: 1,
            backoff_cycles: 64,
        })
        .with_tenant(TenantConfig::new(0).with_priority(1).with_max_in_flight(1))
        .with_tenant(TenantConfig::new(7).with_priority(5));
    let long = GemmShape::new(12, 8, 12);
    let short = GemmShape::new(2, 2, 2);
    let est = functional.estimated_cycles(long).count();
    let short_est = functional.estimated_cycles(short).count();
    let strikes = vec![
        (
            est / 5,
            redmule::FaultSite::Pipe {
                col: 1,
                row: 0,
                stage: 0,
                bit: 3,
            },
        ),
        (
            est / 2,
            redmule::FaultSite::Pipe {
                col: 2,
                row: 1,
                stage: 0,
                bit: 9,
            },
        ),
    ];
    let mut script = vec![Submission::new(1, 0, 0, long)
        .with_seed(17)
        .with_faults(strikes)];
    for i in 0..2u64 {
        let at = (i + 1) * est / 3;
        script.push(Submission::new(100 + i, 7, at, short).with_deadline_cycle(at + short_est * 4));
        script.push(Submission::new(200 + i, 0, at + 1, short));
    }
    script.push(Submission::new(2, 0, est * 2, GemmShape::new(4, 4, 6)).with_seed(3));
    (config, script)
}

/// Kills a durable run of the quota-pressured recovery script at a sweep
/// of storage-write crash points (every write with `--full`, a stride of
/// them in smoke mode) and recovers each crash with host worker counts
/// 1, 2 and 8, byte-comparing the recovered reports against each other
/// and against an uninterrupted run over the recovered prefix.
///
/// # Errors
///
/// Returns an [`EngineError`] if a durable run fails for a non-crash
/// reason, a recovery errors out, or recovered reports diverge between
/// worker counts.
pub fn crash_recovery(smoke: bool) -> Result<RecoverySweep, EngineError> {
    let accel = AccelConfig::new(4, 2, 1);
    let functional = FunctionalGemm::new(accel);
    let (config, script) = recovery_script(&functional);
    let worker_counts = vec![1usize, 2, 8];
    let svc = |workers: usize| -> Result<ServiceSim, EngineError> {
        Ok(ServiceSim::new(config.clone())
            .map_err(|e| EngineError::InvalidJob(format!("service config: {e}")))?
            .with_engine(redmule::Engine::new(accel))
            .with_workers(workers))
    };
    let store_err =
        |e: redmule_service::ServiceError| EngineError::InvalidJob(format!("durable service: {e}"));

    let mut in_order = script.clone();
    in_order.sort_by_key(|s| (s.arrival_cycle, s.id));

    // Uninterrupted pass: the full write schedule of this exact script.
    let mut clean = MemBackend::new();
    svc(1)?
        .run_durable(&script, &mut clean)
        .map_err(store_err)?;
    let total_writes = clean.writes_done();
    let stride = if smoke { (total_writes / 8).max(1) } else { 1 };

    let mut points = Vec::new();
    let mut crash_write = 0;
    while crash_write < total_writes {
        let mut backend = MemBackend::new();
        StorageFaultPlan::new(crash_write)
            .with_fault(StorageFault::TornAppend {
                write_op: crash_write,
                keep_bytes: (crash_write as usize * 11) % 27,
            })
            .apply(&mut backend);
        if svc(1)?.run_durable(&script, &mut backend).is_ok() {
            return Err(EngineError::InvalidJob(format!(
                "crash plan at write {crash_write} did not abort the durable run"
            )));
        }
        backend.clear_crash();

        let mut reference: Option<String> = None;
        let mut point: Option<RecoveryPoint> = None;
        for &workers in &worker_counts {
            let recovery = svc(workers)?.recover(&mut backend).map_err(store_err)?;
            let json = recovery.report.to_canonical_json();
            match &reference {
                None => {
                    let k = recovery.recovery.submissions_recovered as usize;
                    let fresh = svc(1)?
                        .run(&in_order[..k])
                        .map_err(store_err)?
                        .to_canonical_json();
                    point = Some(RecoveryPoint {
                        crash_write,
                        torn_bytes: recovery.recovery.torn_bytes,
                        journal_records: recovery.recovery.journal_records,
                        submissions_recovered: recovery.recovery.submissions_recovered,
                        jobs_reused: recovery.recovery.jobs_reused,
                        checkpoints_restored: recovery.recovery.checkpoints_restored,
                        cycles_saved: recovery.recovery.cycles_saved,
                        repairs: recovery.recovery.repairs.len(),
                        bit_exact: json == fresh,
                    });
                    reference = Some(json);
                }
                Some(r) if *r != json => {
                    return Err(EngineError::InvalidJob(format!(
                        "recovered report bytes diverged at {workers} workers \
                         (crash write {crash_write})"
                    )))
                }
                Some(_) => {}
            }
        }
        if let Some(p) = point {
            points.push(p);
        }
        crash_write += stride;
    }
    Ok(RecoverySweep {
        worker_counts,
        total_writes,
        points,
    })
}
