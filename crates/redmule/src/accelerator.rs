//! Top-level accelerator facade: register-file programming plus
//! one-call GEMM convenience.

use crate::cast;
use crate::config::AccelConfig;
use crate::engine::{shape_sizes, Engine, EngineError, RunReport};
use crate::faults::{FaultPlan, FtConfig};
use crate::regfile::{Job, RegFile};
use redmule_cluster::{ClusterConfig, Hci, Tcdm};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::{Format, F16};

/// A complete RedMulE instance: the cycle-accurate [`Engine`] plus the
/// HWPE [`RegFile`] the cores program it through.
///
/// Two usage styles are supported:
///
/// * **Offload flow** (as in the real cluster): write the job registers
///   via [`Accelerator::regfile_mut`], trigger, then [`Accelerator::service`]
///   — mirroring how a PULP core drives the HWPE.
/// * **Convenience flow**: [`Accelerator::gemm`] places operands in a
///   fresh TCDM and runs the job in one call.
///
/// # Example
///
/// ```
/// use redmule::Accelerator;
/// use redmule_fp16::{vector::GemmShape, F16};
///
/// let accel = Accelerator::paper_instance();
/// let shape = GemmShape::new(4, 4, 4);
/// let x = vec![F16::ONE; 16];
/// let w = vec![F16::TWO; 16];
/// let run = accel.gemm(shape, &x, &w)?;
/// assert!(run.z.iter().all(|v| v.to_f32() == 8.0));
/// # Ok::<(), redmule::EngineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Accelerator {
    engine: Engine,
    regfile: RegFile,
}

/// Result of a convenience GEMM run.
#[derive(Debug, Clone)]
pub struct GemmRun {
    /// The computed output matrix (`m x k`, row-major).
    pub z: Vec<F16>,
    /// Cycle-accurate execution report.
    pub report: RunReport,
}

impl Accelerator {
    /// The paper's prototype: `H = 4, L = 8, P = 3` (32 FMAs, 9 ports).
    pub fn paper_instance() -> Accelerator {
        Accelerator::new(AccelConfig::paper())
    }

    /// Builds an instance with custom parameters.
    pub fn new(cfg: AccelConfig) -> Accelerator {
        Accelerator {
            engine: Engine::new(cfg),
            regfile: RegFile::new(),
        }
    }

    /// The instance parameters.
    pub fn config(&self) -> &AccelConfig {
        self.engine.config()
    }

    /// The underlying execution engine (e.g. to wrap it in a supervised
    /// runtime driving the same instance).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Core-visible register file (read side).
    pub fn regfile(&self) -> &RegFile {
        &self.regfile
    }

    /// Core-visible register file (write side) for the offload flow.
    pub fn regfile_mut(&mut self) -> &mut RegFile {
        &mut self.regfile
    }

    /// Services a pending trigger: runs the programmed job to completion
    /// against the given memory/interconnect and clears the busy flag.
    ///
    /// Returns `Ok(None)` when no trigger is pending.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] from the engine; the job is marked
    /// complete either way (a real HWPE would raise an error event).
    pub fn service(
        &mut self,
        mem: &mut Tcdm,
        hci: &mut Hci,
    ) -> Result<Option<RunReport>, EngineError> {
        let Some(job) = self.regfile.take_triggered_job() else {
            return Ok(None);
        };
        let result = self.engine.run(job, mem, hci);
        self.regfile.complete_job();
        result.map(Some)
    }

    /// Runs `Z = X * W` on a fresh, operand-sized TCDM and returns the
    /// result with its cycle report.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShapeMismatch`] when a slice length does not match
    /// `shape`; otherwise propagates [`EngineError`].
    pub fn gemm(&self, shape: GemmShape, x: &[F16], w: &[F16]) -> Result<GemmRun, EngineError> {
        self.gemm_inner(shape, Format::Fp16, x, w, None, None)
    }

    /// Runs `Z = X * W`, or `Z = X * W + Y` (accumulate mode, the journal
    /// follow-up's GEMM extension) when `y` is given, with operands stored
    /// in TCDM in `format`: FP8 storage is narrowed at staging (castout),
    /// widened at buffer fill (castin), accumulated in FP16 and narrowed
    /// again at store drain. The returned `z` is read back widened to
    /// FP16 — bit-identical to [`crate::FunctionalGemm::run_format`] on
    /// the same operands.
    ///
    /// # Errors
    ///
    /// As [`Accelerator::gemm`] (`Y` must be `m x k`).
    pub fn gemm_in(
        &self,
        shape: GemmShape,
        format: Format,
        x: &[F16],
        w: &[F16],
        y: Option<&[F16]>,
    ) -> Result<GemmRun, EngineError> {
        self.gemm_inner(shape, format, x, w, y, None)
    }

    /// Runs `Z = X * W` under a [`FaultPlan`] with one of the RedMulE-FT
    /// protection modes (see [`Engine::run_ft`]): the report carries the
    /// fault log and all recovery overhead.
    ///
    /// # Errors
    ///
    /// As [`Accelerator::gemm`], plus [`EngineError::FaultUnrecoverable`]
    /// when a persistent fault defeats the retry budget and
    /// [`EngineError::Watchdog`] when injected transaction drops hang the
    /// schedule.
    pub fn gemm_ft(
        &self,
        shape: GemmShape,
        x: &[F16],
        w: &[F16],
        plan: &FaultPlan,
        ft: FtConfig,
    ) -> Result<GemmRun, EngineError> {
        self.gemm_inner(shape, Format::Fp16, x, w, None, Some((plan, ft)))
    }

    fn gemm_inner(
        &self,
        shape: GemmShape,
        format: Format,
        x: &[F16],
        w: &[F16],
        y: Option<&[F16]>,
        ft: Option<(&FaultPlan, FtConfig)>,
    ) -> Result<GemmRun, EngineError> {
        let (job, mut mem, mut hci) = stage_gemm_workspace_in(shape, format, x, w, y)?;
        let report = match ft {
            Some((plan, ft_cfg)) => self.engine.run_ft(job, &mut mem, &mut hci, plan, ft_cfg)?,
            None => self.engine.run(job, &mut mem, &mut hci)?,
        };
        let z = cast::castin_slice(&mem, format, job.z_addr, shape.z_len())?;
        Ok(GemmRun { z, report })
    }
}

/// Sizes a fresh TCDM for `shape`, places the operands at the standard
/// layout (X at 0, then W, then Z; `y` preloads Z and enables accumulate
/// mode) stored in `format`, and builds the matching [`Job`]. FP8 storage
/// is narrowed element-wise at staging (the castout the DMA-side repacker
/// performs) and packed at 1 byte per element, halving the workspace
/// footprint.
///
/// This is the workspace-staging step [`Accelerator::gemm`] performs
/// internally, exposed so external drivers — notably the supervised
/// runtime's checkpointed execution loop — can run the exact same
/// workspace through their own tick loop and read Z back from
/// `job.z_addr` afterwards with [`cast::castin_slice`], which widens to
/// FP16 regardless of format.
///
/// # Errors
///
/// [`EngineError::ShapeTooLarge`] when the shape's element counts or its
/// workspace overflow the TCDM's 32-bit address space;
/// [`EngineError::ShapeMismatch`] when a slice length does not match
/// `shape`; [`EngineError::Memory`] when the operands cannot be placed.
pub fn stage_gemm_workspace_in(
    shape: GemmShape,
    format: Format,
    x: &[F16],
    w: &[F16],
    y: Option<&[F16]>,
) -> Result<(Job, Tcdm, Hci), EngineError> {
    let check = |operand: &'static str, got: usize, expected: usize| {
        if got == expected {
            Ok(())
        } else {
            Err(EngineError::ShapeMismatch {
                operand,
                expected,
                got,
            })
        }
    };
    let sizes = shape_sizes(shape, format)?;
    check("X", x.len(), sizes.x_len)?;
    check("W", w.len(), sizes.w_len)?;
    if let Some(y) = y {
        check("Y", y.len(), sizes.z_len)?;
    }

    let needed = sizes.workspace_bytes;
    let mut ccfg = ClusterConfig::default();
    if needed > ccfg.tcdm_bytes() {
        ccfg = ccfg.with_tcdm_kib(needed.div_ceil(1024));
    }
    let mut mem = Tcdm::new(&ccfg);
    let hci = Hci::new(&ccfg);

    // The workspace fits 32-bit addresses, so every offset below does.
    let esz = format.elem_bytes();
    let x_addr = 0u32;
    let w_addr = x_addr + (esz * sizes.x_len) as u32;
    let z_addr = w_addr + (esz * sizes.w_len) as u32;
    cast::castout_run(&mut mem, format, x_addr, x)?;
    cast::castout_run(&mut mem, format, w_addr, w)?;
    let mut job = Job::new(x_addr, w_addr, z_addr, shape.m, shape.n, shape.k).with_format(format);
    if let Some(y) = y {
        cast::castout_run(&mut mem, format, z_addr, y)?;
        job = job.with_accumulate();
    }
    Ok((job, mem, hci))
}

#[cfg(test)]
mod tests {
    use super::*;
    use redmule_fp16::vector::{gemm_golden, gemm_golden_accumulate};
    use redmule_obs::{Channel, EventKind, EventLog, TraceEvent};

    fn data(shape: GemmShape, seed: u32) -> (Vec<F16>, Vec<F16>) {
        let gen = |len: usize, s: u32| -> Vec<F16> {
            (0..len)
                .map(|i| {
                    let v = ((i as u32).wrapping_mul(2654435761).wrapping_add(s) >> 16) % 64;
                    F16::from_f32(v as f32 / 16.0 - 2.0)
                })
                .collect()
        };
        (gen(shape.x_len(), seed), gen(shape.w_len(), seed ^ 0xABCD))
    }

    fn bits(v: &[F16]) -> Vec<u16> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `shape` on the paper instance with its event log recorded.
    fn run_logged(
        shape: GemmShape,
        format: Format,
        x: &[F16],
        w: &[F16],
        y: Option<&[F16]>,
    ) -> (RunReport, EventLog) {
        let (job, mut mem, mut hci) =
            stage_gemm_workspace_in(shape, format, x, w, y).expect("staging");
        Engine::new(AccelConfig::paper())
            .run_logged(job, &mut mem, &mut hci)
            .expect("gemm runs")
    }

    #[test]
    fn gemm_matches_golden_for_aligned_shapes() {
        let accel = Accelerator::paper_instance();
        for (m, n, k) in [(8, 4, 16), (8, 16, 16), (16, 8, 32), (8, 64, 16)] {
            let shape = GemmShape::new(m, n, k);
            let (x, w) = data(shape, 7);
            let run = accel.gemm(shape, &x, &w).expect("gemm runs");
            assert_eq!(
                bits(&run.z),
                bits(&gemm_golden(shape, &x, &w)),
                "shape {shape}"
            );
        }
    }

    #[test]
    fn gemm_matches_golden_for_ragged_shapes() {
        let accel = Accelerator::paper_instance();
        for (m, n, k) in [
            (1, 1, 1),
            (3, 5, 7),
            (9, 13, 17),
            (7, 3, 33),
            (8, 1, 16),
            (17, 16, 15),
            (5, 31, 2),
        ] {
            let shape = GemmShape::new(m, n, k);
            let (x, w) = data(shape, 99);
            let run = accel.gemm(shape, &x, &w).expect("gemm runs");
            assert_eq!(
                bits(&run.z),
                bits(&gemm_golden(shape, &x, &w)),
                "shape {shape}"
            );
        }
    }

    #[test]
    fn gemm_handles_subnormal_data() {
        let accel = Accelerator::paper_instance();
        let shape = GemmShape::new(4, 8, 4);
        let x: Vec<F16> = (0..shape.x_len())
            .map(|i| F16::from_bits(1 + (i as u16 % 32)))
            .collect();
        let w: Vec<F16> = (0..shape.w_len())
            .map(|i| F16::from_bits(0x0200 + (i as u16 % 64)))
            .collect();
        let run = accel.gemm(shape, &x, &w).expect("gemm runs");
        assert_eq!(bits(&run.z), bits(&gemm_golden(shape, &x, &w)));
    }

    #[test]
    fn zero_reduction_dimension_writes_zeros() {
        let accel = Accelerator::paper_instance();
        let shape = GemmShape::new(3, 0, 5);
        let run = accel.gemm(shape, &[], &[]).expect("gemm runs");
        assert_eq!(run.z, vec![F16::ZERO; 15]);
        assert!(run.report.cycles.count() > 0);
    }

    #[test]
    fn empty_output_costs_nothing() {
        let accel = Accelerator::paper_instance();
        for shape in [GemmShape::new(0, 4, 4), GemmShape::new(4, 4, 0)] {
            let (x, w) = data(shape, 3);
            let run = accel.gemm(shape, &x, &w).expect("gemm runs");
            assert!(run.z.is_empty());
            assert_eq!(run.report.cycles.count(), 0);
        }
    }

    #[test]
    fn accumulate_mode_matches_golden() {
        let accel = Accelerator::paper_instance();
        for (m, n, k) in [(8, 8, 16), (5, 7, 9)] {
            let shape = GemmShape::new(m, n, k);
            let (x, w) = data(shape, 21);
            let y: Vec<F16> = (0..shape.z_len())
                .map(|i| F16::from_f32(i as f32 / 4.0 - 3.0))
                .collect();
            let run = accel
                .gemm_in(shape, Format::Fp16, &x, &w, Some(&y))
                .expect("gemm runs");
            let golden = gemm_golden_accumulate(shape, &x, &w, Some(&y));
            assert_eq!(bits(&run.z), bits(&golden), "shape {shape}");
        }
    }

    #[test]
    fn accumulate_with_zero_n_preserves_z() {
        let accel = Accelerator::paper_instance();
        let shape = GemmShape::new(2, 0, 3);
        let y: Vec<F16> = (0..6).map(|i| F16::from_f32(i as f32)).collect();
        let run = accel
            .gemm_in(shape, Format::Fp16, &[], &[], Some(&y))
            .expect("gemm runs");
        assert_eq!(bits(&run.z), bits(&y));
    }

    #[test]
    fn utilization_grows_with_problem_size() {
        let accel = Accelerator::paper_instance();
        let mut last = 0.0;
        for size in [16usize, 32, 64] {
            let shape = GemmShape::new(size, size, size);
            let (x, w) = data(shape, 5);
            let run = accel.gemm(shape, &x, &w).expect("gemm runs");
            let util = run.report.utilization(accel.config());
            assert!(util > last, "utilization must grow: {util} at {size}");
            last = util;
        }
        assert!(last > 0.8, "64^3 should already be fairly efficient");
    }

    #[test]
    fn large_square_gemm_is_near_ideal() {
        let accel = Accelerator::paper_instance();
        let shape = GemmShape::new(128, 128, 128);
        let (x, w) = data(shape, 11);
        let run = accel.gemm(shape, &x, &w).expect("gemm runs");
        let util = run.report.utilization(accel.config());
        assert!(util > 0.95, "128^3 utilization = {util}");
        assert_eq!(run.report.macs, shape.macs());
        // And the numerics still hold at this size (spot check).
        let golden = gemm_golden(shape, &x, &w);
        assert_eq!(bits(&run.z), bits(&golden));
    }

    #[test]
    fn w_port_cadence_matches_the_paper_schedule() {
        // In steady state the W stream must fire once every P+1 = 4 cycles.
        let shape = GemmShape::new(8, 64, 16); // single tile, 16 phases
        let (x, w) = data(shape, 13);
        let (report, log) = run_logged(shape, Format::Fp16, &x, &w, None);
        let fires: Vec<u64> = log
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Refill {
                        channel: Channel::W,
                        ..
                    }
                )
            })
            .map(|e| e.cycle)
            .collect();
        assert_eq!(fires.len() as u64, report.stats.get("w_loads"));
        // Steady-state gaps are exactly 4 cycles; startup may be denser.
        let steady = &fires[8..fires.len() - 2];
        for pair in steady.windows(2) {
            let gap = pair[1] - pair[0];
            assert!(
                gap == 4,
                "steady-state W cadence must be 4 cycles, got {gap}"
            );
        }
    }

    #[test]
    fn x_and_z_interleave_between_w_accesses() {
        // One event per transfer on every channel and format: the single
        // shallow port serves one transfer per beat, two on FP8.
        let shape = GemmShape::new(16, 64, 32); // several tiles
        let (x, w) = data(shape, 17);
        let y: Vec<F16> = (0..shape.z_len())
            .map(|i| F16::from_f32(i as f32 / 8.0 - 4.0))
            .collect();
        for format in Format::ALL {
            for y in [None, Some(&y[..])] {
                let case = format!("{format:?} accumulate={}", y.is_some());
                let (report, log) = run_logged(shape, format, &x, &w, y);
                let stat = |key| report.stats.get(key);
                // Refill sequence numbers of W, X and Z-preload (in
                // `Channel` order), store drains, stalls, and the transfer
                // events on each cycle.
                let mut seqs = [Vec::new(), Vec::new(), Vec::new()];
                let (mut drains, mut stalls) = (0, 0);
                let mut per_cycle = vec![0; report.cycles.count() as usize];
                for e in log.events() {
                    match e.kind {
                        EventKind::Refill { channel, seq } => seqs[channel as usize].push(seq),
                        EventKind::StoreDrain { .. } => drains += 1,
                        EventKind::Stall { .. } => {
                            stalls += 1;
                            continue;
                        }
                        _ => continue,
                    }
                    per_cycle[e.cycle as usize] += 1;
                }
                for (seqs, key) in seqs.iter().zip(["w_loads", "x_loads", "z_preloads"]) {
                    let expected: Vec<u64> = (1..=stat(key)).collect();
                    assert_eq!(seqs, &expected, "{case}: {key} refill sequence");
                }
                assert_eq!(drains, stat("z_stores"), "{case}: store drains");
                assert_eq!(stalls, report.stall_cycles, "{case}: stall events");
                assert!(stat("x_loads") > 0 && stat("z_stores") > 0, "{case}");
                assert_eq!(y.is_some(), stat("z_preloads") > 0, "{case}");
                let beat = if format.is_fp8() { 2 } else { 1 };
                assert!(
                    per_cycle.iter().all(|&n| n <= beat),
                    "{case}: at most {beat} transfers per beat"
                );
                let pairs = per_cycle.iter().filter(|&&n| n == 2).count() as u64;
                assert_eq!(pairs, stat("fp8_pair_beats"), "{case}: paired beats");
            }
        }
    }

    #[test]
    fn hci_stalls_and_the_watchdog_are_logged_by_the_engine() {
        let shape = GemmShape::new(16, 64, 32);
        let (x, w) = data(shape, 23);
        for format in Format::ALL {
            // Each dropped beat is one port conflict and one `HciStall`.
            let (job, mut mem, mut hci) =
                stage_gemm_workspace_in(shape, format, &x, &w, None).expect("staging");
            hci.inject_shallow_drop(7);
            let (report, log) = Engine::new(AccelConfig::paper())
                .run_logged(job, &mut mem, &mut hci)
                .expect("a few drops only delay the job");
            let hci_stalls = log
                .events()
                .iter()
                .filter(|e| e.kind == EventKind::HciStall)
                .count() as u64;
            assert_eq!(report.stats.get("port_conflicts"), 7, "{format:?}");
            assert_eq!(hci_stalls, 7, "{format:?}: one HciStall per conflict");

            // A port that drops every beat from mid-run on hangs the job;
            // the aborting cycle records its `Watchdog` event and nothing
            // else.
            let (job, mut mem, mut hci) =
                stage_gemm_workspace_in(shape, format, &x, &w, None).expect("staging");
            let mut session = Engine::new(AccelConfig::paper())
                .with_watchdog(64)
                .start(job)
                .expect("start");
            session.record_events();
            for _ in 0..100 {
                session.tick(&mut mem, &mut hci, &[]).expect("healthy tick");
            }
            hci.inject_shallow_drop(u32::MAX);
            let err = loop {
                match session.tick(&mut mem, &mut hci, &[]) {
                    Ok(tick) => assert!(!tick.finished, "{format:?}: a hung port finished"),
                    Err(e) => break e,
                }
            };
            let EngineError::Watchdog { cycle, stalled_for } = err else {
                panic!("{format:?}: expected a watchdog abort, got {err}");
            };
            let log = session.take_events().expect("recording");
            assert_eq!(
                log.events().last(),
                Some(&TraceEvent {
                    cycle,
                    kind: EventKind::Watchdog { stalled_for },
                }),
                "{format:?}"
            );
            let on_abort = log.events().iter().filter(|e| e.cycle == cycle).count();
            assert_eq!(on_abort, 1, "{format:?}: only the watchdog on its cycle");
        }
    }

    #[test]
    fn strided_job_multiplies_a_submatrix_in_place() {
        // A big M x N matrix lives in memory; the job multiplies an
        // interior block of it, writing into an interior block of a big Z
        // buffer — no packing copies, like the silicon's strided streamer.
        let big_n = 40usize; // leading dimension of the stored X
        let big_k = 24usize; // leading dimension of the stored W and Z
        let sub = GemmShape::new(6, 10, 7);
        let (x_off_r, x_off_c) = (2usize, 3usize);
        let (w_off_r, w_off_c) = (1usize, 4usize);
        let (z_off_r, z_off_c) = (5usize, 2usize);

        let big_x: Vec<F16> = (0..16 * big_n)
            .map(|i| F16::from_f32(((i % 37) as f32 - 18.0) / 16.0))
            .collect();
        let big_w: Vec<F16> = (0..16 * big_k)
            .map(|i| F16::from_f32(((i % 31) as f32 - 15.0) / 32.0))
            .collect();

        let ccfg = ClusterConfig::default();
        let mut mem = Tcdm::new(&ccfg);
        let mut hci = Hci::new(&ccfg);
        let x_base = 0u32;
        let w_base = 0x4000u32;
        let z_base = 0x8000u32;
        mem.store_f16_slice(x_base, &big_x).expect("X fits");
        mem.store_f16_slice(w_base, &big_w).expect("W fits");

        let job = Job::new(
            x_base + 2 * (x_off_r * big_n + x_off_c) as u32,
            w_base + 2 * (w_off_r * big_k + w_off_c) as u32,
            z_base + 2 * (z_off_r * big_k + z_off_c) as u32,
            sub.m,
            sub.n,
            sub.k,
        )
        .with_strides(big_n, big_k, big_k);
        assert!(job.validate().is_ok());

        let engine = Engine::new(AccelConfig::paper());
        engine
            .run(job, &mut mem, &mut hci)
            .expect("strided job runs");

        // Golden: extract the sub-blocks densely and multiply.
        let big_x_ref = &big_x;
        let big_w_ref = &big_w;
        let x_sub: Vec<F16> = (0..sub.m)
            .flat_map(|r| (0..sub.n).map(move |c| big_x_ref[(x_off_r + r) * big_n + x_off_c + c]))
            .collect();
        let w_sub: Vec<F16> = (0..sub.n)
            .flat_map(|r| (0..sub.k).map(move |c| big_w_ref[(w_off_r + r) * big_k + w_off_c + c]))
            .collect();
        let golden = gemm_golden(sub, &x_sub, &w_sub);
        for r in 0..sub.m {
            for c in 0..sub.k {
                let addr = z_base + 2 * ((z_off_r + r) * big_k + z_off_c + c) as u32;
                let got = mem.read_f16(addr).expect("Z in range");
                assert_eq!(
                    got.to_bits(),
                    golden[r * sub.k + c].to_bits(),
                    "mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn stride_validation_rejects_short_strides() {
        let job = Job::new(0, 0x100, 0x200, 4, 8, 4).with_strides(4, 0, 0);
        assert!(job.validate().is_err(), "x_stride 4 < n = 8 must fail");
        let job = Job::new(0, 0x100, 0x200, 4, 8, 4).with_strides(8, 4, 4);
        assert!(job.validate().is_ok());
        assert_eq!(job.x_ld(), 8);
        assert_eq!(job.w_ld(), 4);
        assert_eq!(Job::new(0, 0, 0, 2, 3, 5).z_ld(), 5, "dense default");
    }

    #[test]
    fn occupancy_trace_captures_startup_stalls_and_steady_state() {
        let shape = GemmShape::new(8, 64, 16);
        let (x, w) = data(shape, 57);
        let (report, log) = run_logged(shape, Format::Fp16, &x, &w, None);
        let mut stalled = vec![false; report.cycles.count() as usize];
        for e in log.events() {
            if let EventKind::Stall { .. } = e.kind {
                stalled[e.cycle as usize] = true;
            }
        }
        // Startup: the first cycles stall while the X buffer preloads.
        assert!(stalled[0], "cycle 0 must stall on preload");
        let startup_stalls = stalled[..12].iter().filter(|&&s| s).count();
        assert!(startup_stalls >= 6, "startup stalls = {startup_stalls}");
        // Steady state (middle third): no stalls.
        let n = stalled.len();
        assert!(
            stalled[n / 3..2 * n / 3].iter().all(|&s| !s),
            "steady state must not stall"
        );
        // The recorded stall count matches the report.
        let total_stalls = stalled.iter().filter(|&&s| s).count() as u64;
        assert_eq!(total_stalls, report.stall_cycles);
        // Z rows queue up behind the store port near the end.
        assert!(log
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::StoreDrain { pending } if pending > 0)));
    }

    #[test]
    fn offload_flow_through_the_register_file() {
        use crate::regfile::offsets;
        let ccfg = ClusterConfig::default();
        let mut mem = Tcdm::new(&ccfg);
        let mut hci = Hci::new(&ccfg);
        let shape = GemmShape::new(4, 4, 4);
        let (x, w) = data(shape, 31);
        mem.store_f16_slice(0x0, &x).expect("X fits");
        mem.store_f16_slice(0x100, &w).expect("W fits");

        let mut accel = Accelerator::paper_instance();
        assert!(matches!(accel.service(&mut mem, &mut hci), Ok(None)));
        let rf = accel.regfile_mut();
        rf.write(offsets::X_ADDR, 0x0);
        rf.write(offsets::W_ADDR, 0x100);
        rf.write(offsets::Z_ADDR, 0x200);
        rf.write(offsets::M_SIZE, 4);
        rf.write(offsets::N_SIZE, 4);
        rf.write(offsets::K_SIZE, 4);
        rf.write(offsets::TRIGGER, 1);
        let report = accel
            .service(&mut mem, &mut hci)
            .expect("job runs")
            .expect("job was pending");
        assert!(report.cycles.count() > 0);
        assert_eq!(accel.regfile().read(offsets::STATUS), 0);
        let z = mem.load_f16_slice(0x200, shape.z_len()).expect("Z range");
        assert_eq!(bits(&z), bits(&gemm_golden(shape, &x, &w)));
    }

    #[test]
    fn shape_mismatch_is_an_error_not_a_panic() {
        let accel = Accelerator::paper_instance();
        let shape = GemmShape::new(2, 2, 2);
        let err = accel
            .gemm(shape, &[F16::ONE; 3], &[F16::ONE; 4])
            .expect_err("short X must be rejected");
        assert_eq!(
            err,
            EngineError::ShapeMismatch {
                operand: "X",
                expected: 4,
                got: 3
            }
        );
        assert!(err.to_string().contains("wrong length"));
        let err = accel
            .gemm_in(
                shape,
                Format::Fp16,
                &[F16::ONE; 4],
                &[F16::ONE; 4],
                Some(&[]),
            )
            .expect_err("short Y must be rejected");
        assert!(matches!(
            err,
            EngineError::ShapeMismatch { operand: "Y", .. }
        ));
    }

    #[test]
    fn oversized_shapes_are_typed_errors() {
        // An element count past usize, and a workspace past the TCDM's
        // 32-bit address space: staging rejects both before sizing the
        // TCDM, with the error the functional backend gives.
        for shape in [
            GemmShape::new(1 << 62, 4, 1 << 62),
            GemmShape::new(1 << 31, 0, 1 << 31),
        ] {
            for format in Format::ALL {
                assert_eq!(
                    stage_gemm_workspace_in(shape, format, &[], &[], None).err(),
                    Some(EngineError::ShapeTooLarge { shape, format })
                );
            }
            let err = Accelerator::paper_instance()
                .gemm(shape, &[], &[])
                .expect_err("oversized shape");
            assert!(err.to_string().contains("too large"), "{err}");
        }
        // The largest FP8 workspace that fits 32-bit addresses is
        // accepted by the rule (no TCDM is sized for it here).
        let edge = GemmShape::new(1, 0, (1 << 32) - 256);
        assert!(edge.checked_sizes(1).is_some());
        assert!(edge.checked_sizes(2).is_none());
    }

    #[test]
    fn misaligned_job_is_rejected() {
        let ccfg = ClusterConfig::default();
        let mut mem = Tcdm::new(&ccfg);
        let mut hci = Hci::new(&ccfg);
        let engine = Engine::new(AccelConfig::paper());
        let job = Job::new(0x1, 0x100, 0x200, 4, 4, 4);
        assert!(matches!(
            engine.run(job, &mut mem, &mut hci),
            Err(EngineError::InvalidJob(_))
        ));
    }

    #[test]
    fn out_of_bounds_operands_error() {
        let ccfg = ClusterConfig::default();
        let mut mem = Tcdm::new(&ccfg);
        let mut hci = Hci::new(&ccfg);
        let engine = Engine::new(AccelConfig::paper());
        let far = (mem.size_bytes() as u32) - 8;
        let job = Job::new(far, 0x100, 0x200, 8, 8, 8);
        assert!(matches!(
            engine.run(job, &mut mem, &mut hci),
            Err(EngineError::Memory(_))
        ));
    }

    #[test]
    fn ablation_policies_degrade_but_stay_correct() {
        use crate::engine::StreamerPolicy;
        let shape = GemmShape::new(16, 64, 32);
        let (x, w) = data(shape, 41);
        let golden = gemm_golden(shape, &x, &w);

        let run_policy = |policy: StreamerPolicy| {
            let ccfg = ClusterConfig::default();
            let mut mem = Tcdm::new(&ccfg);
            let mut hci = Hci::new(&ccfg);
            mem.store_f16_slice(0, &x).expect("X fits");
            mem.store_f16_slice(0x1000, &w).expect("W fits");
            let engine = Engine::new(AccelConfig::paper()).with_streamer_policy(policy);
            let job = Job::new(0, 0x1000, 0x3000, shape.m, shape.n, shape.k);
            let report = engine.run(job, &mut mem, &mut hci).expect("job runs");
            let z = mem
                .load_f16_slice(0x3000, shape.z_len())
                .expect("Z range valid");
            assert_eq!(bits(&z), bits(&golden), "policy {policy:?} broke numerics");
            report.cycles.count()
        };

        let base = run_policy(StreamerPolicy::Interleaved);
        let half = run_policy(StreamerPolicy::HalfBandwidth);
        let single = run_policy(StreamerPolicy::SingleBufferedW);
        assert!(half > base, "half bandwidth must cost cycles");
        assert!(single > base, "no-prefetch must cost cycles");
    }

    #[test]
    fn non_paper_instances_also_match_golden() {
        for cfg in [
            AccelConfig::new(2, 4, 1),
            AccelConfig::new(4, 4, 3),
            AccelConfig::new(8, 8, 3),
            AccelConfig::new(4, 8, 0),
            AccelConfig::new(1, 2, 2),
        ] {
            let accel = Accelerator::new(cfg);
            let shape = GemmShape::new(9, 11, 13);
            let (x, w) = data(shape, cfg.fma_count() as u32);
            let run = accel.gemm(shape, &x, &w).expect("gemm runs");
            assert_eq!(
                bits(&run.z),
                bits(&gemm_golden(shape, &x, &w)),
                "config {cfg}"
            );
        }
    }
}
