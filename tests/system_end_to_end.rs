//! Cross-crate integration tests: the full system assembled the way a
//! user (or the paper's evaluation) assembles it.

use redmule_suite::cluster::{baseline::SwGemm, ClusterConfig, Hci, Tcdm};
use redmule_suite::fp16::vector::{gemm_golden, gemm_golden_accumulate, GemmShape};
use redmule_suite::fp16::F16;
use redmule_suite::nn::backend::{Backend, CycleLedger};
use redmule_suite::nn::{autoencoder, Tensor};
use redmule_suite::redmule::{regfile::offsets, Accelerator, Format, Job};

fn data(shape: GemmShape, seed: u32) -> (Vec<F16>, Vec<F16>) {
    let gen = |len: usize, s: u32| -> Vec<F16> {
        (0..len)
            .map(|i| {
                let h = ((i as u32).wrapping_mul(2654435761) ^ s.wrapping_mul(0x85EB_CA6B)) >> 16;
                F16::from_f32((h % 128) as f32 / 64.0 - 1.0)
            })
            .collect()
    };
    (gen(shape.x_len(), seed), gen(shape.w_len(), seed ^ 0xFFFF))
}

fn bits(v: &[F16]) -> Vec<u16> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The central correctness triangle: accelerator model, 8-core software
/// kernel and golden softfloat agree bitwise on assorted shapes.
#[test]
fn hw_sw_golden_triangle() {
    let accel = Accelerator::paper_instance();
    let sw = SwGemm::new(&ClusterConfig::default());
    for (m, n, k) in [
        (1, 1, 1),
        (8, 16, 16),
        (7, 9, 11),
        (16, 4, 33),
        (25, 40, 13),
        (3, 65, 3),
    ] {
        let shape = GemmShape::new(m, n, k);
        let (x, w) = data(shape, (m * 100 + n * 10 + k) as u32);
        let golden = gemm_golden(shape, &x, &w);
        let hw = accel.gemm(shape, &x, &w).expect("hw run");
        let swr = sw.run(shape, &x, &w).expect("sw run");
        assert_eq!(bits(&hw.z), bits(&golden), "HW vs golden at {shape}");
        assert_eq!(bits(&swr.z), bits(&golden), "SW vs golden at {shape}");
    }
}

/// Two jobs offloaded back-to-back through the register file share one
/// TCDM; the second consumes the first's output (chained layers).
#[test]
fn chained_jobs_through_shared_memory() {
    let ccfg = ClusterConfig::default();
    let mut mem = Tcdm::new(&ccfg);
    let mut hci = Hci::new(&ccfg);
    let mut accel = Accelerator::paper_instance();

    let s1 = GemmShape::new(8, 12, 10);
    let s2 = GemmShape::new(8, 10, 6);
    let (x, w1) = data(s1, 3);
    let (_, w2) = data(GemmShape::new(1, s2.n, s2.k), 4);

    let x_addr = 0x0000u32;
    let w1_addr = 0x1000u32;
    let y_addr = 0x2000u32; // output of job 1 = input of job 2
    let w2_addr = 0x3000u32;
    let z_addr = 0x4000u32;
    mem.store_f16_slice(x_addr, &x).expect("store X");
    mem.store_f16_slice(w1_addr, &w1).expect("store W1");
    mem.store_f16_slice(w2_addr, &w2).expect("store W2");

    for job in [
        Job::new(x_addr, w1_addr, y_addr, s1.m, s1.n, s1.k),
        Job::new(y_addr, w2_addr, z_addr, s2.m, s2.n, s2.k),
    ] {
        let rf = accel.regfile_mut();
        rf.write(offsets::X_ADDR, job.x_addr);
        rf.write(offsets::W_ADDR, job.w_addr);
        rf.write(offsets::Z_ADDR, job.z_addr);
        rf.write(offsets::M_SIZE, job.m as u32);
        rf.write(offsets::N_SIZE, job.n as u32);
        rf.write(offsets::K_SIZE, job.k as u32);
        rf.write(offsets::TRIGGER, 1);
        accel
            .service(&mut mem, &mut hci)
            .expect("job runs")
            .expect("job pending");
    }

    let y_golden = gemm_golden(s1, &x, &w1);
    let z_golden = gemm_golden(s2, &y_golden, &w2);
    let z = mem.load_f16_slice(z_addr, s2.z_len()).expect("load Z");
    assert_eq!(bits(&z), bits(&z_golden));
}

/// Accumulate mode composes: C = A*B1 + A*B2 computed as two accumulating
/// jobs equals the golden sum.
#[test]
fn accumulate_jobs_compose() {
    let accel = Accelerator::paper_instance();
    let shape = GemmShape::new(9, 14, 17);
    let (x, w1) = data(shape, 7);
    let (_, w2) = data(shape, 8);
    let first = accel.gemm(shape, &x, &w1).expect("first job");
    let second = accel
        .gemm_in(shape, Format::Fp16, &x, &w2, Some(&first.z))
        .expect("second job");
    let golden = gemm_golden_accumulate(shape, &x, &w2, Some(&gemm_golden(shape, &x, &w1)));
    assert_eq!(bits(&second.z), bits(&golden));
}

/// A full autoencoder training step produces identical weights through
/// both backends and a consistent loss trajectory on the accelerator.
#[test]
fn autoencoder_training_is_backend_invariant_and_converges() {
    let x = Tensor::from_fn(640, 2, |r, c| ((r + 13 * c) % 41) as f32 / 82.0 - 0.25);

    let mut hw_net = autoencoder::mlperf_tiny(5);
    let mut sw_net = autoencoder::mlperf_tiny(5);
    let mut hw = Backend::hw();
    let mut sw = Backend::sw();
    let mut lh = CycleLedger::new();
    let mut ls = CycleLedger::new();

    let rh = hw_net
        .train_step(&x, 0.01, &mut hw, &mut lh)
        .expect("hw step");
    let rs = sw_net
        .train_step(&x, 0.01, &mut sw, &mut ls)
        .expect("sw step");
    assert_eq!(rh.loss.to_bits(), rs.loss.to_bits(), "losses diverged");
    for (a, b) in hw_net.layers().iter().zip(sw_net.layers()) {
        assert_eq!(a.weights(), b.weights(), "weights diverged at {}", a.name());
    }

    // Keep training on the accelerator: the loss keeps falling.
    let first = rh.loss;
    let mut last = first;
    for _ in 0..4 {
        last = hw_net
            .train_step(&x, 0.01, &mut hw, &mut lh)
            .expect("hw step")
            .loss;
    }
    assert!(last < first, "loss must fall: {first} -> {last}");
}

/// True co-simulation: cores hammer the interconnect every cycle while
/// the accelerator runs. The HCI rotation slows the job boundedly, the
/// cores keep being served, and the numerics are untouched.
#[test]
fn core_contention_slows_but_never_corrupts() {
    use redmule_suite::cluster::Initiator;
    use redmule_suite::redmule::Engine;

    let shape = GemmShape::new(8, 32, 16);
    let (x, w) = data(shape, 21);
    let golden = gemm_golden(shape, &x, &w);
    let engine = Engine::new(*Accelerator::paper_instance().config());

    let run_with_hammers = |n_hammers: usize| -> (u64, f64) {
        let ccfg = ClusterConfig::default();
        let mut mem = Tcdm::new(&ccfg);
        let mut hci = Hci::new(&ccfg);
        mem.store_f16_slice(0, &x).expect("store X");
        mem.store_f16_slice(0x2000, &w).expect("store W");
        let job = Job::new(0, 0x2000, 0x4000, shape.m, shape.n, shape.k);
        let mut session = engine.start(job).expect("valid job");
        let mut cycles = 0u64;
        let mut core_grants = 0u64;
        let mut core_requests = 0u64;
        while !session.is_finished() {
            // Each hammer core scans through the TCDM, hitting shallow-
            // group banks on most cycles.
            let reqs: Vec<(Initiator, u32)> = (0..n_hammers)
                .map(|c| (Initiator::Core(c), ((cycles as u32 + c as u32) % 512) * 4))
                .collect();
            let tick = session
                .tick(&mut mem, &mut hci, &reqs)
                .expect("co-sim tick");
            core_requests += reqs.len() as u64;
            core_grants += tick.log_granted.iter().filter(|&&g| g).count() as u64;
            cycles += 1;
        }
        let report = session.finish();
        assert_eq!(report.cycles.count(), cycles);
        let z = mem.load_f16_slice(0x4000, shape.z_len()).expect("load Z");
        assert_eq!(bits(&z), bits(&golden), "contention corrupted the result");
        let grant_rate = if core_requests == 0 {
            1.0
        } else {
            core_grants as f64 / core_requests as f64
        };
        (cycles, grant_rate)
    };

    let (clean, _) = run_with_hammers(0);
    let (contended, core_rate) = run_with_hammers(8);
    assert!(
        contended > clean,
        "8 hammer cores must slow the accelerator: {clean} -> {contended}"
    );
    // Rotation bounds the slowdown: the shallow branch keeps at least
    // streak/(streak+1) of contended slots.
    assert!(
        (contended as f64) < 2.0 * clean as f64,
        "slowdown unbounded: {clean} -> {contended}"
    );
    // Cores keep making progress too.
    assert!(core_rate > 0.5, "core grant rate collapsed: {core_rate}");
}

/// Widening the rotation window trades accelerator slowdown against core
/// service: with a larger streak the engine runs faster under contention.
#[test]
fn rotation_streak_trades_engine_speed_for_core_latency() {
    use redmule_suite::cluster::Initiator;
    use redmule_suite::redmule::Engine;

    let shape = GemmShape::new(8, 32, 16);
    let (x, w) = data(shape, 22);
    let engine = Engine::new(*Accelerator::paper_instance().config());

    let run_with_streak = |streak: u32| -> (u64, f64) {
        let ccfg = ClusterConfig {
            rotation_streak: streak,
            ..ClusterConfig::default()
        };
        let mut mem = Tcdm::new(&ccfg);
        let mut hci = Hci::new(&ccfg);
        mem.store_f16_slice(0, &x).expect("store X");
        mem.store_f16_slice(0x2000, &w).expect("store W");
        let job = Job::new(0, 0x2000, 0x4000, shape.m, shape.n, shape.k);
        let mut session = engine.start(job).expect("valid job");
        let mut cycles = 0u64;
        let mut grants = 0u64;
        while !session.is_finished() {
            // One core spinning on a shallow-group bank.
            let reqs = [(Initiator::Core(0), 8u32)];
            let tick = session.tick(&mut mem, &mut hci, &reqs).expect("tick");
            grants += u64::from(tick.log_granted[0]);
            cycles += 1;
        }
        session.finish();
        (cycles, grants as f64 / cycles as f64)
    };

    let (fast_engine, core_rate_hi) = run_with_streak(8);
    let (slow_engine, core_rate_lo) = run_with_streak(1);
    assert!(
        fast_engine < slow_engine,
        "larger streak must favour the engine: streak8 = {fast_engine}, streak1 = {slow_engine}"
    );
    assert!(
        core_rate_lo > core_rate_hi,
        "smaller streak must favour the core: {core_rate_lo} vs {core_rate_hi}"
    );
}

/// Cycle counts are deterministic: the same job always costs the same.
#[test]
fn simulation_is_deterministic() {
    let accel = Accelerator::paper_instance();
    let shape = GemmShape::new(16, 24, 16);
    let (x, w) = data(shape, 33);
    let a = accel.gemm(shape, &x, &w).expect("first");
    let b = accel.gemm(shape, &x, &w).expect("second");
    assert_eq!(a.report.cycles, b.report.cycles);
    assert_eq!(a.report.stall_cycles, b.report.stall_cycles);
    assert_eq!(bits(&a.z), bits(&b.z));
}

/// FP16 edge data (subnormals, infinities, NaN) flows through the whole
/// stack identically to the golden model.
#[test]
fn special_values_propagate_identically() {
    let accel = Accelerator::paper_instance();
    let shape = GemmShape::new(4, 6, 5);
    let specials = [
        F16::MIN_POSITIVE_SUBNORMAL,
        F16::NEG_ZERO,
        F16::INFINITY,
        F16::MAX,
        F16::from_f32(-1.5),
        F16::NAN,
    ];
    let x: Vec<F16> = (0..shape.x_len())
        .map(|i| specials[i % specials.len()])
        .collect();
    let w: Vec<F16> = (0..shape.w_len())
        .map(|i| specials[(i * 3 + 1) % specials.len()])
        .collect();
    let hw = accel.gemm(shape, &x, &w).expect("hw run");
    let golden = gemm_golden(shape, &x, &w);
    assert_eq!(bits(&hw.z), bits(&golden));
    // The workload genuinely produced NaNs (canonical) somewhere.
    assert!(hw.z.iter().any(|v| v.is_nan()));
}
