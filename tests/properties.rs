//! System-level property tests: for arbitrary shapes and data, all three
//! execution paths (golden softfloat, cycle-accurate accelerator, 8-core
//! software kernel) agree bitwise, and the performance model obeys its
//! structural invariants.

use proptest::prelude::*;
use redmule_suite::cluster::{baseline::SwGemm, ClusterConfig};
use redmule_suite::fp16::vector::{gemm_golden, gemm_golden_accumulate, GemmShape};
use redmule_suite::fp16::F16;
use redmule_suite::redmule::{AccelConfig, Accelerator, Format};

fn bits(v: &[F16]) -> Vec<u16> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Arbitrary finite FP16 values, biased towards interesting magnitudes.
fn f16_value() -> impl Strategy<Value = F16> {
    prop_oneof![
        8 => (-4.0f32..4.0).prop_map(F16::from_f32),
        1 => (0u16..0x0400).prop_map(F16::from_bits),          // subnormal range
        1 => (0x7800u16..0x7C00).prop_map(F16::from_bits),     // huge normals
        1 => Just(F16::NEG_ZERO),
    ]
}

fn matrix(len: usize) -> impl Strategy<Value = Vec<F16>> {
    prop::collection::vec(f16_value(), len)
}

prop_compose! {
    fn small_shape()(m in 1usize..20, n in 0usize..24, k in 1usize..20) -> GemmShape {
        GemmShape::new(m, n, k)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Accelerator == golden for random shapes and data (incl. subnormals,
    /// overflow-range values and -0).
    #[test]
    fn accelerator_matches_golden(
        shape in small_shape(),
        seed in 0u64..1000,
    ) {
        let x = deterministic(shape.x_len(), seed);
        let w = deterministic(shape.w_len(), seed ^ 0xAA);
        let accel = Accelerator::paper_instance();
        let run = accel.gemm(shape, &x, &w).expect("gemm runs");
        prop_assert_eq!(bits(&run.z), bits(&gemm_golden(shape, &x, &w)));
    }

    /// Software kernel == golden for random shapes and data.
    #[test]
    fn software_matches_golden(
        shape in small_shape(),
        seed in 0u64..1000,
        cores in 1usize..8,
    ) {
        let x = deterministic(shape.x_len(), seed);
        let w = deterministic(shape.w_len(), seed ^ 0x55);
        let sw = SwGemm::new(&ClusterConfig::default().with_cores(cores));
        let run = sw.run(shape, &x, &w).expect("sw run");
        prop_assert_eq!(bits(&run.z), bits(&gemm_golden(shape, &x, &w)));
    }

    /// Random data through *both* simulated paths stays identical even for
    /// fully arbitrary element values (proptest-generated matrices with
    /// subnormals, huge normals and -0 mixed in).
    #[test]
    fn hw_and_sw_agree_on_arbitrary_data(
        (shape, x, w) in (1usize..10, 0usize..12, 1usize..10).prop_flat_map(|(m, n, k)| {
            let shape = GemmShape::new(m, n, k);
            (Just(shape), matrix(shape.x_len()), matrix(shape.w_len()))
        }),
    ) {
        let hw = Accelerator::paper_instance().gemm(shape, &x, &w).expect("hw");
        let sw = SwGemm::new(&ClusterConfig::default()).run(shape, &x, &w).expect("sw run");
        prop_assert_eq!(bits(&hw.z), bits(&sw.z));
    }

    /// Accumulate mode == golden accumulate for random shapes.
    #[test]
    fn accumulate_matches_golden(
        shape in small_shape(),
        seed in 0u64..1000,
    ) {
        let x = deterministic(shape.x_len(), seed);
        let w = deterministic(shape.w_len(), seed ^ 0x77);
        let y = deterministic(shape.z_len(), seed ^ 0x33);
        let run = Accelerator::paper_instance()
            .gemm_in(shape, Format::Fp16, &x, &w, Some(&y))
            .expect("gemm runs");
        let golden = gemm_golden_accumulate(shape, &x, &w, Some(&y));
        prop_assert_eq!(bits(&run.z), bits(&golden));
    }

    /// Structural invariants of the cycle report: MAC count is exact, and
    /// cycles are bounded below by the ideal and above by a loose factor.
    #[test]
    fn cycle_report_invariants(shape in small_shape(), seed in 0u64..100) {
        prop_assume!(shape.n > 0);
        let x = deterministic(shape.x_len(), seed);
        let w = deterministic(shape.w_len(), seed ^ 0x11);
        let cfg = AccelConfig::paper();
        let run = Accelerator::new(cfg).gemm(shape, &x, &w).expect("gemm runs");
        prop_assert_eq!(run.report.macs, shape.macs());
        let ideal = shape.macs().div_ceil(cfg.fma_count() as u64);
        prop_assert!(run.report.cycles.count() >= ideal);
        // Loose upper bound: padding can waste at most the tile quantum.
        let tiles = (shape.m.div_ceil(cfg.l) * shape.k.div_ceil(cfg.phase_width())) as u64;
        let per_tile = (shape.n.div_ceil(cfg.h) * cfg.phase_width()
            + cfg.h * cfg.latency()) as u64;
        prop_assert!(
            run.report.cycles.count() <= tiles * per_tile + (cfg.l as u64 + 8) * tiles + 64,
            "cycles {} above structural bound", run.report.cycles.count()
        );
    }

    /// Non-paper instances preserve numerical equivalence on random shapes.
    #[test]
    fn any_instance_matches_golden(
        h in 1usize..6,
        l in 1usize..6,
        p in 0usize..4,
        seed in 0u64..100,
    ) {
        let shape = GemmShape::new(5, 7, 6);
        let x = deterministic(shape.x_len(), seed);
        let w = deterministic(shape.w_len(), seed ^ 0x99);
        let run = Accelerator::new(AccelConfig::new(h, l, p))
            .gemm(shape, &x, &w)
            .expect("gemm runs");
        prop_assert_eq!(bits(&run.z), bits(&gemm_golden(shape, &x, &w)));
    }
}

/// Deterministic pseudo-random FP16 data covering normals and subnormals.
fn deterministic(len: usize, seed: u64) -> Vec<F16> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let sel = (state >> 60) as u8;
            match sel {
                0 => F16::from_bits((state & 0x03FF) as u16), // subnormal
                1 => F16::NEG_ZERO,
                _ => F16::from_f32(((state >> 32) as i32 % 512) as f32 / 128.0),
            }
        })
        .collect()
}
