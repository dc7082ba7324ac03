//! Fast functional backend: bit-exact GEMM results without per-cycle
//! simulation.
//!
//! [`FunctionalGemm`] computes `Z = X * W (+ Y)` by walking the *same*
//! schedule as the cycle-accurate engine — `L x phase_width` output tiles
//! in row-major tile order, H-wide reduction phases over N, one FP16 FMA
//! per reduction element in index order through the crate softfloat — but
//! skips the streamer, buffers and datapath pipeline entirely. Because the
//! datapath's row ring accumulates each output element through exactly
//! that FMA sequence (see [`Engine`](crate::Engine)), the functional
//! result is **bit-identical** to [`Engine::run`](crate::Engine::run) and
//! to `redmule_fp16::vector::gemm_golden`; only the cycle count differs
//! (here an analytical estimate instead of a measurement).
//!
//! Execution is staged through a [`FunctionalPlan`]: operands are cast
//! through the storage format and pre-staged into the batched kernel's
//! structure-of-arrays [`Staged`] form **once**, then each band of `L`
//! output rows folds its whole reduction in one call to
//! `redmule_fp16::kernel::gemm_staged` — the per-element FMA order (the
//! bit-exactness contract) is untouched; only work *between* independent
//! output elements is restructured for speed and vectorisation, the way
//! the array keeps a tile of partial sums and broadcasts each W element
//! down its column. The plan exposes a pure per-band
//! ([`FunctionalPlan::compute_band_into`]) entry point so hosts can
//! partition a job across threads with deterministic writeback.
//!
//! Bit-exactness with the cycle model is a hard invariant, enforced by
//! the differential conformance harness (`tests/conformance.rs` at the
//! workspace root) in addition to the unit tests below.
//!
//! Use it when throughput of *results* matters more than cycle accuracy:
//! batched execution, conformance fuzzing, or network training loops that
//! only occasionally need a cycle-accurate calibration run.

use crate::config::AccelConfig;
use crate::engine::{shape_sizes, EngineError};
use crate::schedule::Schedule;
use redmule_fp16::kernel::{gemm_staged, Acc, Staged};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::{Format, F16};
use redmule_hwsim::Cycle;
use redmule_obs::{EventKind, EventLog, TraceEvent};

/// Which execution model a GEMM runs on.
///
/// Both kinds produce bit-identical `Z`; they differ only in speed and in
/// the fidelity of the reported cycle count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The cycle-accurate engine: exact cycles, slow (simulates every
    /// clock edge).
    #[default]
    CycleAccurate,
    /// [`FunctionalGemm`]: identical numerics, cycles from the analytical
    /// performance model, orders of magnitude faster on the host.
    Functional,
}

impl BackendKind {
    /// Short stable label (`"cycle"` / `"functional"`), used in reports
    /// and benchmark artefacts.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::CycleAccurate => "cycle",
            BackendKind::Functional => "functional",
        }
    }
}

/// Outcome of a functional GEMM run.
#[derive(Debug, Clone)]
pub struct FunctionalRun {
    /// The output matrix (`m x k`, row-major) — bit-identical to the
    /// cycle-accurate engine's result for the same operands.
    pub z: Vec<F16>,
    /// Analytical cycle estimate from the paper's performance model (the
    /// same model the supervisor uses for degradation decisions); not a
    /// measurement.
    pub estimated_cycles: Cycle,
    /// Useful FMA operations (`M*N*K`).
    pub macs: u64,
}

/// The functional (untimed) GEMM model for one accelerator instance.
///
/// # Example
///
/// ```
/// use redmule::{Accelerator, Format, FunctionalGemm};
/// use redmule_fp16::{vector::GemmShape, F16};
///
/// let shape = GemmShape::new(5, 11, 7);
/// let x: Vec<F16> = (0..shape.x_len()).map(|i| F16::from_f32(i as f32 / 8.0)).collect();
/// let w: Vec<F16> = (0..shape.w_len()).map(|i| F16::from_f32(0.5 - i as f32 / 64.0)).collect();
/// let fast = FunctionalGemm::paper_instance().run(shape, Format::Fp16, &x, &w, None)?;
/// let slow = Accelerator::paper_instance().gemm(shape, &x, &w)?;
/// assert_eq!(
///     fast.z.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
///     slow.z.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
/// );
/// # Ok::<(), redmule::EngineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FunctionalGemm {
    cfg: AccelConfig,
}

impl FunctionalGemm {
    /// A functional model of the paper's instance (`H=4, L=8, P=3`).
    pub fn paper_instance() -> FunctionalGemm {
        FunctionalGemm::new(AccelConfig::paper())
    }

    /// A functional model of a custom instance. The instance parameters
    /// only affect the cycle estimate and the tile walk order — never the
    /// numerics, which are schedule-invariant by construction.
    pub fn new(cfg: AccelConfig) -> FunctionalGemm {
        FunctionalGemm { cfg }
    }

    /// The modelled instance parameters.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// Computes `Z = X * W (+ Y)` with operands stored in `format`: plans
    /// the job, computes every band, and charges the plan's analytical
    /// estimate.
    ///
    /// Models the cast-in/cast-out datapath exactly: operands are
    /// projected through the storage format (castout at staging, castin
    /// widening at buffer fill), accumulated in FP16, and the result is
    /// projected through the format again (castout at store drain, castin
    /// at readback) — so the output is bit-identical to staging the same
    /// FP16 slices for [`crate::Engine::run`] and reading the workspace
    /// back widened.
    ///
    /// # Errors
    ///
    /// As [`FunctionalGemm::plan`].
    pub fn run(
        &self,
        shape: GemmShape,
        format: Format,
        x: &[F16],
        w: &[F16],
        y: Option<&[F16]>,
    ) -> Result<FunctionalRun, EngineError> {
        let plan = self.plan(shape, format, x, w, y)?;
        let mut z = vec![F16::ZERO; shape.z_len()];
        for (band, chunk) in z.chunks_mut(plan.band_stride()).enumerate() {
            plan.compute_band_into(band, chunk);
        }
        Ok(FunctionalRun {
            z,
            estimated_cycles: plan.schedule.total_cycles(),
            macs: shape.macs(),
        })
    }

    /// [`FunctionalGemm::run`] without an accumulator.
    ///
    /// # Errors
    ///
    /// As [`FunctionalGemm::plan`].
    pub fn run_format(
        &self,
        shape: GemmShape,
        format: Format,
        x: &[F16],
        w: &[F16],
    ) -> Result<FunctionalRun, EngineError> {
        self.run(shape, format, x, w, None)
    }

    /// [`FunctionalGemm::run`] with the accumulator `y`.
    ///
    /// # Errors
    ///
    /// As [`FunctionalGemm::plan`].
    pub fn run_accumulate_format(
        &self,
        shape: GemmShape,
        format: Format,
        x: &[F16],
        w: &[F16],
        y: &[F16],
    ) -> Result<FunctionalRun, EngineError> {
        self.run(shape, format, x, w, Some(y))
    }

    /// Stages a job for execution: casts the operands through the storage
    /// format and pre-classifies them into the batched kernel's operand
    /// form, exactly once. The returned [`FunctionalPlan`] computes any
    /// tile or band of the output independently (and therefore in
    /// parallel, on the host's initiative) with bit-identical results.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShapeTooLarge`] when the shape's sizes overflow, the
    /// same rule the engine's staging applies;
    /// [`EngineError::ShapeMismatch`] when an operand slice length does
    /// not match `shape` (`Y` must be `m x k`).
    pub fn plan(
        &self,
        shape: GemmShape,
        format: Format,
        x: &[F16],
        w: &[F16],
        y: Option<&[F16]>,
    ) -> Result<FunctionalPlan, EngineError> {
        let sizes = shape_sizes(shape, format)?;
        check_len("X", sizes.x_len, x.len())?;
        check_len("W", sizes.w_len, w.len())?;
        if let Some(y) = y {
            check_len("Y", sizes.z_len, y.len())?;
        }
        // Operands pass through TCDM storage on the way in: quantise them
        // through the format once, exactly as castout-at-staging followed
        // by castin-at-buffer-fill does (identity for FP16), fused with
        // the one-time kernel staging.
        let stage = |v: &F16| format.quantize(*v).to_bits();
        Ok(FunctionalPlan {
            schedule: Schedule::new(&self.cfg, shape, format),
            format,
            xo: Staged::from_bits_iter(x.iter().map(stage)),
            wo: Staged::from_bits_iter(w.iter().map(stage)),
            y: y.map(|y| y.iter().map(|&v| format.quantize(v)).collect()),
        })
    }

    /// Analytical cycle estimate for `shape` on this instance with FP16
    /// storage: [`Schedule::total_cycles`], exact against
    /// [`crate::Engine::run`] for uncontended fault-free runs (pinned by
    /// the `cycle_model` regression tests). The same model backs
    /// [`crate::EngineSession::estimated_remaining_cycles`].
    pub fn estimated_cycles(&self, shape: GemmShape) -> Cycle {
        self.estimated_cycles_format(shape, Format::Fp16)
    }

    /// Analytical cycle estimate for `shape` with operands stored in
    /// `format`. Bandwidth is byte-denominated: with half-width FP8
    /// elements the streamer serves two transactions per granted beat, so
    /// the fill and drain terms — the only memory-bound parts of an
    /// uncontended schedule — halve (rounded up) while the compute blocks
    /// are unchanged. FP8 therefore never estimates slower than FP16 on
    /// the same shape.
    pub fn estimated_cycles_format(&self, shape: GemmShape, format: Format) -> Cycle {
        Schedule::new(&self.cfg, shape, format).total_cycles()
    }

    /// Synthesises a tile-granular trace from the analytical model: one
    /// `TileStart`/`TileEnd` pair per output tile in the engine's
    /// enumeration order (L-row bands, phase-width panels, row-major).
    ///
    /// The spans mirror [`FunctionalGemm::estimated_cycles_format`] term
    /// for term: compute blocks start after the initial `fill` beats and
    /// run back to back, and the final tile's span stretches through the
    /// store drain so that the trace ends exactly at
    /// `estimated_cycles_format(shape, format) - 1`. A pure function of
    /// shape, format and configuration, so batch traces of functional
    /// jobs stay worker-count invariant.
    pub fn synthetic_events_format(&self, shape: GemmShape, format: Format) -> EventLog {
        let schedule = Schedule::new(&self.cfg, shape, format);
        let (fill, tile_len) = (schedule.fill(), schedule.tile_len());
        let last = schedule.n_tiles().saturating_sub(1);
        let mut log = EventLog::new();
        for (idx, tile) in schedule.tiles().enumerate() {
            // Empty-reduction tiles flush one per cycle; compute tiles
            // start after the fill and run back to back for tile_len
            // cycles each.
            let t = idx as u64;
            let (start, mut end) = if schedule.n_phases() == 0 {
                (t, t)
            } else {
                (fill + t * tile_len, fill + (t + 1) * tile_len - 1)
            };
            if idx == last {
                // The last tile's stores drain through the model's final
                // cycles; its span closes the trace at the estimate's
                // last cycle.
                end = schedule.total_cycles().count().saturating_sub(1);
            }
            log.push(TraceEvent {
                cycle: start,
                kind: EventKind::TileStart {
                    tile: idx as u32,
                    row0: tile.row0 as u32,
                    rows: tile.rows_live as u32,
                    cols: tile.cols_live as u32,
                },
            });
            log.push(TraceEvent {
                cycle: end,
                kind: EventKind::TileEnd { tile: idx as u32 },
            });
        }
        log
    }
}

/// A staged functional GEMM: operands cast through the storage format and
/// pre-classified for the batched kernel, ready to compute any part of
/// the output independently.
///
/// Created by [`FunctionalGemm::plan`]. The plan is immutable; every
/// compute entry point is a pure function of the plan and the requested
/// region, so hosts may compute disjoint regions concurrently and write
/// them back in any order with bit-identical results.
#[derive(Debug, Clone)]
pub struct FunctionalPlan {
    /// The job's tile grid: bands of `L` output rows.
    schedule: Schedule,
    format: Format,
    /// Cast-in, pre-staged X (`m x n`, row-major, structure-of-arrays).
    xo: Staged,
    /// Cast-in, pre-staged W (`n x k`, row-major, structure-of-arrays).
    wo: Staged,
    /// Cast-in Y accumulator initialiser (`m x k`, row-major), if any.
    y: Option<Vec<F16>>,
}

impl FunctionalPlan {
    /// The job's shape.
    pub fn shape(&self) -> GemmShape {
        self.schedule.shape()
    }

    /// Elements of `Z` covered by one full band (`L * k`); the final band
    /// may be shorter. This is the chunk size for
    /// [`FunctionalPlan::compute_band_into`] writeback partitioning.
    pub fn band_stride(&self) -> usize {
        // A zero-area output has no bands to split; any non-zero stride
        // keeps `chunks_mut` well-formed on the empty `Z`.
        (self.schedule.config().l * self.shape().k).max(1)
    }

    /// Computes one full band of output tiles straight into `out`, which
    /// must be the band's contiguous `Z` slice (`rows_live * k` elements —
    /// exactly what `z.chunks_mut(plan.band_stride())` yields). Pure in
    /// the functional sense: the contents written depend only on the plan
    /// and `band_idx`, never on execution order, so disjoint bands may be
    /// computed concurrently.
    ///
    /// The per-element reduction folds its N terms in index order — the
    /// H-wide phase walk of the datapath visits `l = phase*H + lane`,
    /// skipping the clock-gated lanes past `N`, which is precisely
    /// `l = 0..n` — so every output element rounds identically to the
    /// cycle-accurate engine, element by element, step by step.
    pub fn compute_band_into(&self, band_idx: usize, out: &mut [F16]) {
        let GemmShape { n, k, .. } = self.shape();
        let (row0, rows_live) = self.schedule.band_rows(band_idx);
        debug_assert_eq!(out.len(), rows_live * k);
        // The band's rows are contiguous in row-major Z (and Y).
        let span = row0 * k..(row0 + rows_live) * k;
        if n == 0 {
            // Zero-step pass-through for an empty reduction: no FMA ever
            // fires, so `Z` is the cast-in `Y` (or zero) *bit for bit*.
            // Routing it through the kernel's widen/narrow round-trip
            // would canonicalize NaN payloads and signs the datapath
            // preserves.
            match &self.y {
                Some(y) => out.copy_from_slice(&y[span]),
                None => out.fill(F16::ZERO),
            }
            return;
        }
        // Accumulators start from the cast-in `Y` (or zero).
        let mut accs: Vec<Acc> = match &self.y {
            Some(y) => y[span]
                .iter()
                .map(|v| Acc::from_bits(v.to_bits()))
                .collect(),
            None => vec![Acc::ZERO; out.len()],
        };
        gemm_staged(&self.xo, row0, n, &self.wo, k, &mut accs);
        for (z, acc) in out.iter_mut().zip(accs.iter()) {
            *z = self.cast_out(*acc);
        }
    }

    /// Results pass through storage on the way out: castout narrowing at
    /// store drain, castin widening at readback (identity for FP16).
    fn cast_out(&self, acc: Acc) -> F16 {
        self.format.quantize(F16::from_bits(acc.to_bits()))
    }
}

fn check_len(operand: &'static str, expected: usize, got: usize) -> Result<(), EngineError> {
    if expected == got {
        Ok(())
    } else {
        Err(EngineError::ShapeMismatch {
            operand,
            expected,
            got,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::Accelerator;
    use redmule_fp16::vector::gemm_golden;

    fn bits(z: &[F16]) -> Vec<u16> {
        z.iter().map(|v| v.to_bits()).collect()
    }

    fn operands(shape: GemmShape, seed: u32) -> (Vec<F16>, Vec<F16>) {
        let gen = |len: usize, s: u32| -> Vec<F16> {
            (0..len)
                .map(|i| {
                    let h =
                        ((i as u32).wrapping_mul(2654435761) ^ s.wrapping_mul(0x85EB_CA6B)) >> 16;
                    F16::from_f32((h % 97) as f32 / 32.0 - 1.5)
                })
                .collect()
        };
        (gen(shape.x_len(), seed), gen(shape.w_len(), seed ^ 0xABCD))
    }

    #[test]
    fn matches_golden_and_engine_on_aligned_and_ragged_shapes() {
        for (m, n, k) in [
            (8, 16, 16), // exactly one tile
            (16, 32, 32),
            (1, 1, 1),
            (5, 11, 7),   // ragged in every dimension
            (9, 4, 17),   // crosses both tile boundaries
            (20, 24, 20), // multiple tiles each way
        ] {
            let shape = GemmShape::new(m, n, k);
            let (x, w) = operands(shape, (m * 1000 + n * 10 + k) as u32);
            let fast = FunctionalGemm::paper_instance()
                .run(shape, Format::Fp16, &x, &w, None)
                .expect("functional run");
            let golden = gemm_golden(shape, &x, &w);
            let hw = Accelerator::paper_instance()
                .gemm(shape, &x, &w)
                .expect("engine run");
            assert_eq!(bits(&fast.z), bits(&golden), "vs golden at {m}x{n}x{k}");
            assert_eq!(bits(&fast.z), bits(&hw.z), "vs engine at {m}x{n}x{k}");
            assert_eq!(fast.macs, shape.macs());
            assert!(fast.estimated_cycles.count() > 0);
        }
    }

    #[test]
    fn accumulate_matches_engine() {
        let shape = GemmShape::new(10, 12, 18);
        let (x, w) = operands(shape, 7);
        let y: Vec<F16> = (0..shape.z_len())
            .map(|i| F16::from_f32((i % 9) as f32 / 4.0 - 1.0))
            .collect();
        let fast = FunctionalGemm::paper_instance()
            .run_accumulate_format(shape, Format::Fp16, &x, &w, &y)
            .expect("functional accumulate");
        let hw = Accelerator::paper_instance()
            .gemm_in(shape, Format::Fp16, &x, &w, Some(&y))
            .expect("engine accumulate");
        assert_eq!(bits(&fast.z), bits(&hw.z));
    }

    #[test]
    fn special_values_match_engine() {
        // NaN / Inf / subnormal operands must flow through the identical
        // FMA special-case logic in both models.
        let shape = GemmShape::new(4, 8, 6);
        let specials = [
            F16::NAN,
            F16::INFINITY,
            F16::NEG_INFINITY,
            F16::MIN_POSITIVE_SUBNORMAL,
            F16::NEG_ZERO,
            F16::MAX,
        ];
        let x: Vec<F16> = (0..shape.x_len())
            .map(|i| specials[i % specials.len()])
            .collect();
        let w: Vec<F16> = (0..shape.w_len())
            .map(|i| specials[(i * 5 + 1) % specials.len()])
            .collect();
        let fast = FunctionalGemm::paper_instance()
            .run(shape, Format::Fp16, &x, &w, None)
            .expect("functional run");
        let hw = Accelerator::paper_instance()
            .gemm(shape, &x, &w)
            .expect("engine run");
        assert_eq!(bits(&fast.z), bits(&hw.z));
    }

    #[test]
    fn empty_reduction_matches_engine() {
        // N == 0: the output is all zeros (or Y in accumulate mode).
        let shape = GemmShape::new(3, 0, 5);
        let fast = FunctionalGemm::paper_instance()
            .run(shape, Format::Fp16, &[], &[], None)
            .expect("functional run");
        assert!(fast.z.iter().all(|v| v.to_bits() == 0));
        assert_eq!(fast.macs, 0);
    }

    #[test]
    fn empty_reduction_passes_y_through_bit_exactly() {
        // Zero FMA steps means Z == Y bit for bit — including NaN
        // payloads and signs, which the kernel's f64 round-trip would
        // canonicalize if Y were routed through it.
        let shape = GemmShape::new(2, 0, 3);
        let y: Vec<F16> = [0x7D16u16, 0xFE00, 0x8000, 0x7C00, 0x0001, 0x3C00]
            .iter()
            .map(|&b| F16::from_bits(b))
            .collect();
        let fast = FunctionalGemm::paper_instance()
            .run_accumulate_format(shape, Format::Fp16, &[], &[], &y)
            .expect("functional run");
        assert_eq!(bits(&fast.z), bits(&y));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let shape = GemmShape::new(2, 2, 2);
        let bad = vec![F16::ONE; 3];
        let good = vec![F16::ONE; 4];
        let f = FunctionalGemm::paper_instance();
        assert!(matches!(
            f.run(shape, Format::Fp16, &bad, &good, None),
            Err(EngineError::ShapeMismatch { operand: "X", .. })
        ));
        assert!(matches!(
            f.run(shape, Format::Fp16, &good, &bad, None),
            Err(EngineError::ShapeMismatch { operand: "W", .. })
        ));
        assert!(matches!(
            f.run_accumulate_format(shape, Format::Fp16, &good, &good, &bad),
            Err(EngineError::ShapeMismatch { operand: "Y", .. })
        ));
    }

    #[test]
    fn oversized_shapes_are_typed_errors() {
        // An element count past usize, and a workspace past the TCDM's
        // 32-bit address space: the same rule as the engine's staging.
        let f = FunctionalGemm::paper_instance();
        for shape in [
            GemmShape::new(1 << 62, 4, 1 << 62),
            GemmShape::new(1 << 31, 0, 1 << 31),
        ] {
            for format in Format::ALL {
                assert_eq!(
                    f.plan(shape, format, &[], &[], None).err(),
                    Some(EngineError::ShapeTooLarge { shape, format })
                );
            }
            assert_eq!(
                f.run(shape, Format::Fp16, &[], &[], None).err(),
                Some(EngineError::ShapeTooLarge {
                    shape,
                    format: Format::Fp16
                })
            );
        }
    }

    #[test]
    fn estimate_tracks_the_supervisor_model() {
        // One paper-instance tile: tile_len = H*latency + n_phases*pw = 80
        // compute cycles, plus min(N,H) + min(M,L) = 12 fill cycles and
        // rows_last - 1 = 7 drain cycles.
        let f = FunctionalGemm::paper_instance();
        let shape = GemmShape::new(8, 16, 16);
        assert_eq!(f.estimated_cycles(shape).count(), 80 + 4 + 8 + 7);
        // Four tiles: the compute blocks scale linearly but fill and drain
        // are paid once per run, not once per tile.
        let quad = GemmShape::new(16, 16, 32);
        assert_eq!(f.estimated_cycles(quad).count(), 4 * 80 + 4 + 8 + 7);
        // Empty reduction: tiles flush one per cycle against the M-row
        // store drain, whichever dominates.
        let empty = GemmShape::new(16, 0, 32);
        assert_eq!(f.estimated_cycles(empty).count(), 32);
        // Degenerate empty output.
        assert_eq!(f.estimated_cycles(GemmShape::new(0, 4, 8)).count(), 0);
    }

    #[test]
    fn synthetic_trace_spans_the_full_estimate() {
        // The trace is the model: the first tile starts right after the
        // fill, tiles are back to back, and the last TileEnd lands on the
        // estimate's final cycle — for every format and ragged shape.
        let f = FunctionalGemm::paper_instance();
        for format in [Format::Fp16, Format::Fp8E4M3, Format::Fp8E5M2] {
            for (m, n, k) in [
                (8, 16, 16),
                (16, 16, 32),
                (5, 11, 7),
                (20, 24, 20),
                (16, 0, 32),
            ] {
                let shape = GemmShape::new(m, n, k);
                let log = f.synthetic_events_format(shape, format);
                let total = f.estimated_cycles_format(shape, format).count();
                let beat = if format.is_fp8() { 2 } else { 1 };
                let starts: Vec<u64> = log
                    .events()
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::TileStart { .. }))
                    .map(|e| e.cycle)
                    .collect();
                let ends: Vec<u64> = log
                    .events()
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::TileEnd { .. }))
                    .map(|e| e.cycle)
                    .collect();
                assert!(!ends.is_empty(), "at {m}x{n}x{k}");
                if n > 0 {
                    let fill = ((n.min(4) + m.min(8)) as u64).div_ceil(beat);
                    assert_eq!(starts[0], fill, "fill offset at {m}x{n}x{k} {format:?}");
                }
                assert_eq!(
                    ends.last().copied().unwrap() + 1,
                    total,
                    "trace end vs estimate at {m}x{n}x{k} {format:?}"
                );
                // Spans are ordered and non-overlapping tile to tile.
                for t in 1..starts.len() {
                    assert!(starts[t] > ends[t - 1] || n == 0, "overlap at tile {t}");
                }
            }
        }
    }

    #[test]
    fn backend_kind_labels() {
        assert_eq!(BackendKind::CycleAccurate.label(), "cycle");
        assert_eq!(BackendKind::Functional.label(), "functional");
        assert_eq!(BackendKind::default(), BackendKind::CycleAccurate);
    }
}
