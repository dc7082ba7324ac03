//! FP8 cast-in/cast-out datapath regressions (ISSUE PR 9).
//!
//! Locks the engine-level contracts of the FP8 storage formats:
//!
//! 1. the analytical cycle model tracks the measured engine exactly for
//!    both FP8 formats on the full shape corpus (zero drift, as for
//!    FP16);
//! 2. the functional backend is bit-identical to the engine for FP8
//!    jobs, plain and accumulate;
//! 3. FP8 streaming really is cheaper: the doubled elements-per-beat
//!    shows up both in the `fp8_pair_beats` stat and as a cycle count
//!    never exceeding the FP16 run of the same shape;
//! 4. checkpoints taken mid-run on an FP8 job resume bit-exactly, and
//!    stale snapshot versions are rejected rather than misparsed.

use redmule::{
    cast, stage_gemm_workspace_in, AccelConfig, Accelerator, Engine, Format, FunctionalGemm,
    SessionState,
};
use redmule_cluster::{Hci, Tcdm};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::F16;

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

fn staged(shape: GemmShape, format: Format, seed: u32) -> (redmule::Job, Tcdm, Hci) {
    let (x, w) = data(shape, seed);
    stage_gemm_workspace_in(shape, format, &x, &w, None).expect("staging")
}

/// Same grid as `cycle_model.rs`: ragged edges on all three dimensions,
/// single- and multi-tile grids, empty reductions.
fn corpus() -> Vec<GemmShape> {
    let mut shapes = Vec::new();
    for m in [1usize, 8, 13, 16] {
        for n in [0usize, 1, 7, 16] {
            for k in [1usize, 16, 24] {
                shapes.push(GemmShape::new(m, n, k));
            }
        }
    }
    shapes
}

// ---------------------------------------------------------------------------
// (1) the cycle model is exact for FP8 too
// ---------------------------------------------------------------------------

#[test]
fn fp8_estimate_matches_measured_cycles_exactly() {
    let engine = Engine::new(AccelConfig::paper());
    let model = FunctionalGemm::paper_instance();
    for format in [Format::Fp8E4M3, Format::Fp8E5M2] {
        for shape in corpus() {
            let (job, mut mem, mut hci) = staged(shape, format, 7);
            let report = engine.run(job, &mut mem, &mut hci).expect("run");
            let estimate = model.estimated_cycles_format(shape, format);
            assert_eq!(
                estimate.count(),
                report.cycles.count(),
                "estimate drifted from measurement on {shape} [{format}]"
            );
            assert_eq!(
                report.phases.total(),
                report.cycles.count(),
                "{shape} [{format}]: phase buckets must partition the run"
            );
        }
    }
}

#[test]
fn fp8_remaining_estimate_is_monotone() {
    let engine = Engine::new(AccelConfig::paper());
    for format in [Format::Fp8E4M3, Format::Fp8E5M2] {
        for shape in [GemmShape::new(16, 16, 32), GemmShape::new(3, 7, 21)] {
            let (job, mut mem, mut hci) = staged(shape, format, 13);
            let mut session = engine.start(job).expect("start");
            let mut prev = u64::MAX;
            while !session.is_finished() {
                let est = session.estimated_remaining_cycles();
                assert!(
                    est <= prev,
                    "{shape} [{format}]: estimate rose {prev} -> {est} at cycle {}",
                    session.cycle()
                );
                prev = est;
                session.tick(&mut mem, &mut hci, &[]).expect("tick");
            }
            assert_eq!(session.estimated_remaining_cycles(), 0);
        }
    }
}

// ---------------------------------------------------------------------------
// (2) functional backend == engine, bitwise
// ---------------------------------------------------------------------------

#[test]
fn fp8_engine_matches_functional_bitwise() {
    let accel = Accelerator::paper_instance();
    let model = FunctionalGemm::paper_instance();
    for format in Format::ALL {
        for shape in [
            GemmShape::new(8, 16, 16),
            GemmShape::new(3, 7, 21),
            GemmShape::new(16, 1, 24),
        ] {
            let (x, w) = data(shape, 97);
            let run = accel.gemm_in(shape, format, &x, &w, None).expect("run");
            let fast = model.run_format(shape, format, &x, &w).expect("model");
            assert_eq!(
                bits(&run.z),
                bits(&fast.z),
                "engine/functional drift on {shape} [{format}]"
            );
        }
    }
}

#[test]
fn fp8_accumulate_matches_functional_bitwise() {
    let accel = Accelerator::paper_instance();
    let model = FunctionalGemm::paper_instance();
    let shape = GemmShape::new(8, 16, 16);
    let (x, w) = data(shape, 101);
    let y: Vec<F16> = (0..shape.z_len())
        .map(|i| F16::from_f32((i % 5) as f32 - 2.0))
        .collect();
    for format in [Format::Fp8E4M3, Format::Fp8E5M2] {
        let run = accel.gemm_in(shape, format, &x, &w, Some(&y)).expect("run");
        let fast = model
            .run_accumulate_format(shape, format, &x, &w, &y)
            .expect("model");
        assert_eq!(
            bits(&run.z),
            bits(&fast.z),
            "accumulate drift on {shape} [{format}]"
        );
    }
}

fn bits(z: &[F16]) -> Vec<u16> {
    z.iter().map(|v| v.to_bits()).collect()
}

// ---------------------------------------------------------------------------
// (3) the doubled beat is real
// ---------------------------------------------------------------------------

#[test]
fn fp8_pair_beats_counted_and_fp8_never_slower() {
    let engine = Engine::new(AccelConfig::paper());
    for shape in corpus() {
        let (job, mut mem, mut hci) = staged(shape, Format::Fp16, 29);
        let fp16 = engine.run(job, &mut mem, &mut hci).expect("fp16 run");
        assert_eq!(fp16.stats.get("fp8_pair_beats"), 0, "{shape}: fp16 paired");
        for format in [Format::Fp8E4M3, Format::Fp8E5M2] {
            let (job, mut mem, mut hci) = staged(shape, format, 29);
            let fp8 = engine.run(job, &mut mem, &mut hci).expect("fp8 run");
            assert!(
                fp8.cycles.count() <= fp16.cycles.count(),
                "{shape} [{format}]: fp8 run slower than fp16 ({} > {})",
                fp8.cycles.count(),
                fp16.cycles.count()
            );
            // Empty reductions can queue a single store per cycle, so only
            // compute shapes are guaranteed a paired beat (W + X on fill).
            if shape.n > 0 {
                assert!(
                    fp8.stats.get("fp8_pair_beats") > 0,
                    "{shape} [{format}]: no beat ever served two picks"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (4) snapshots: FP8 jobs resume bit-exactly, stale versions rejected
// ---------------------------------------------------------------------------

#[test]
fn fp8_checkpoint_resumes_bit_exactly() {
    let engine = Engine::new(AccelConfig::paper());
    let shape = GemmShape::new(16, 16, 32); // four output tiles
    let format = Format::Fp8E4M3;

    // Reference: uninterrupted run.
    let (job, mut mem, mut hci) = staged(shape, format, 43);
    let z_addr = job.z_addr;
    let reference = engine.run(job, &mut mem, &mut hci).expect("reference");
    let z_ref = cast::castin_slice(&mem, format, z_addr, shape.z_len()).expect("z");

    // Interrupted: run to the second tile boundary, checkpoint, reload
    // through the wire format, resume on a fresh engine.
    let (job, mut mem, mut hci) = staged(shape, format, 43);
    let mut session = engine.start(job).expect("start");
    let mut boundaries = 0;
    let state = loop {
        session.tick(&mut mem, &mut hci, &[]).expect("tick");
        if session.at_tile_boundary() && session.cycle() > 0 {
            boundaries += 1;
            if boundaries == 2 {
                break session.checkpoint().expect("checkpoint");
            }
        }
    };
    let state = SessionState::from_bytes(&state.to_bytes()).expect("round trip");
    let mut resumed = Engine::new(AccelConfig::paper())
        .resume(&state)
        .expect("resume");
    while !resumed.is_finished() {
        resumed.tick(&mut mem, &mut hci, &[]).expect("tick");
    }
    let report = resumed.finish();
    assert_eq!(report.cycles.count(), reference.cycles.count());
    let z_resumed = cast::castin_slice(&mem, format, z_addr, shape.z_len()).expect("z");
    assert_eq!(bits(&z_ref), bits(&z_resumed), "resumed Z drifted");
}

#[test]
fn stale_snapshot_versions_are_rejected() {
    let engine = Engine::new(AccelConfig::paper());
    let shape = GemmShape::new(8, 16, 16);
    let (job, mut mem, mut hci) = staged(shape, Format::Fp8E5M2, 47);
    let mut session = engine.start(job).expect("start");
    while !(session.at_tile_boundary() && session.cycle() > 0) {
        session.tick(&mut mem, &mut hci, &[]).expect("tick");
    }
    let mut bytes = session.checkpoint().expect("checkpoint").to_bytes();
    // The version (v2 predates the format tag) lives after the 4-byte magic.
    bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
    assert!(
        SessionState::from_bytes(&bytes).is_err(),
        "a pre-FP8 snapshot version must be rejected, not misparsed"
    );
}
