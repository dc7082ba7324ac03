//! Supervisor behaviour: cycle budgets, panic isolation, watchdog
//! recovery and graceful degradation.

use redmule::{stage_gemm_workspace_in, AccelConfig, Engine, Format};
use redmule_fp16::vector::{gemm_golden, GemmShape};
use redmule_fp16::F16;
use redmule_hwsim::snapshot::fnv1a64;
use redmule_runtime::{Checkpoint, Limits, RetryPolicy, StopReason, Supervisor};

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

/// A small instance so modest shapes span many tiles.
fn small_cfg() -> AccelConfig {
    AccelConfig::new(4, 2, 1)
}

#[test]
fn supervised_run_matches_unsupervised_engine_bit_exactly() {
    let shape = GemmShape::new(9, 10, 20);
    let (x, w) = data(shape, 7);
    let engine = Engine::new(small_cfg());

    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    let baseline = engine.run(job, &mut mem, &mut hci).expect("baseline run");
    let z_base = mem.load_f16_slice(job.z_addr, shape.z_len()).expect("Z");

    let supervisor = Supervisor::new(engine);
    let (z_sup, run) = supervisor.gemm(shape, &x, &w).expect("supervised gemm");

    assert!(matches!(run.stop, StopReason::Completed));
    assert!(!run.degraded);
    assert_eq!(run.retries, 0);
    assert!(run.checkpoint.is_none());
    assert_eq!(run.estimated_remaining_cycles, 0);
    assert_eq!(run.tiles_done, run.tiles_total);
    assert_eq!(
        bits(&z_sup),
        bits(&z_base),
        "supervision must not perturb results"
    );
    assert_eq!(
        run.report.cycles.count(),
        baseline.cycles.count(),
        "supervision must not perturb timing"
    );
    assert_eq!(run.report.stats, baseline.stats);
}

#[test]
fn cycle_budget_degrades_then_resume_completes_bit_exact() {
    let shape = GemmShape::new(10, 12, 24);
    let (x, w) = data(shape, 21);
    let engine = Engine::new(small_cfg());

    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    let baseline = engine.run(job, &mut mem, &mut hci).expect("baseline run");
    let z_base = mem.load_f16_slice(job.z_addr, shape.z_len()).expect("Z");

    let budget = baseline.cycles.count() / 2;
    let supervisor =
        Supervisor::new(engine.clone()).with_limits(Limits::none().with_max_cycles(budget));
    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    let partial = supervisor
        .run(job, &mut mem, &mut hci)
        .expect("supervised run");

    assert!(partial.degraded, "over-budget job must degrade, not error");
    assert_eq!(partial.stop, StopReason::CycleBudget);
    assert!(
        partial.tiles_done > 0,
        "half the budget completes some tiles"
    );
    assert!(partial.tiles_done < partial.tiles_total);
    assert!(partial.report.cycles.count() >= budget);
    let est = partial.estimated_remaining_cycles;
    assert!(est > 0, "unfinished work must carry a remainder estimate");
    let checkpoint = partial
        .checkpoint
        .expect("degraded run carries a checkpoint");

    // The stop point is a pure function of the job and its budget: a
    // second run on a freshly staged workspace stops at the same cycle
    // and tile, with a byte-identical checkpoint.
    let (job2, mut mem2, mut hci2) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    let again = supervisor
        .run(job2, &mut mem2, &mut hci2)
        .expect("supervised run");
    assert_eq!(again.stop, StopReason::CycleBudget);
    assert_eq!(again.report.cycles.count(), partial.report.cycles.count());
    assert_eq!(again.tiles_done, partial.tiles_done);
    assert_eq!(
        again.checkpoint.expect("checkpoint").to_bytes(),
        checkpoint.to_bytes()
    );

    // The analytical remainder estimate tracks the true cost within a
    // small factor (it is a model, not an oracle).
    let actual_remaining = baseline.cycles.count() - partial.report.cycles.count();
    assert!(
        est >= actual_remaining / 4 && est <= actual_remaining.max(1) * 4,
        "estimate {est} vs actual remaining {actual_remaining}"
    );

    // Resume (with a fresh budget) and finish: bit-identical to the
    // uninterrupted run, including the cycle counter.
    let resumer = Supervisor::new(engine.clone());
    let finished = resumer
        .resume(&checkpoint, &mut mem, &mut hci)
        .expect("resume");
    assert!(matches!(finished.stop, StopReason::Completed));
    assert!(!finished.degraded);
    let z_resumed = mem.load_f16_slice(job.z_addr, shape.z_len()).expect("Z");
    assert_eq!(bits(&z_resumed), bits(&z_base));
    assert_eq!(finished.report.cycles.count(), baseline.cycles.count());
    assert_eq!(finished.report.stats, baseline.stats);

    // A zero budget stops at the entry boundary, before the first tile,
    // and that checkpoint resumes to the golden result.
    let entry = Supervisor::new(engine).with_limits(Limits::none().with_max_cycles(0));
    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    let stopped = entry.run(job, &mut mem, &mut hci).expect("supervised run");
    assert_eq!(stopped.stop, StopReason::CycleBudget);
    assert!(stopped.degraded);
    assert_eq!(stopped.tiles_done, 0, "stopped before the first tile");
    assert_eq!(stopped.cycles_executed, 0);
    let checkpoint = stopped.checkpoint.expect("entry stop is resumable");
    let finished = resumer
        .resume(&checkpoint, &mut mem, &mut hci)
        .expect("resume");
    assert!(matches!(finished.stop, StopReason::Completed));
    let z = mem.load_f16_slice(job.z_addr, shape.z_len()).expect("Z");
    assert_eq!(bits(&z), bits(&gemm_golden(shape, &x, &w)));
}

#[test]
fn deterministic_backoff_is_charged_per_retry() {
    // Same watchdog-recovery scenario as below, with a cycle-denominated
    // backoff: one retry charges 1 * backoff_cycles, and nothing sleeps.
    let shape = GemmShape::new(6, 8, 12);
    let (x, w) = data(shape, 17);
    let engine = Engine::new(small_cfg()).with_watchdog(64);
    let supervisor =
        Supervisor::new(engine.clone()).with_retry_policy(RetryPolicy::deterministic(2, 500));

    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    hci.inject_shallow_drop(u32::MAX);
    let run = supervisor
        .run(job, &mut mem, &mut hci)
        .expect("supervised run");
    assert!(matches!(run.stop, StopReason::Completed));
    assert_eq!(run.retries, 1);
    assert_eq!(run.backoff_cycles, 500, "retry 1 charges 1 * backoff");
    // The charge is accounting only: the simulated run itself is not
    // perturbed by the backoff.
    let golden = gemm_golden(shape, &x, &w);
    let z = mem.load_f16_slice(job.z_addr, shape.z_len()).expect("Z");
    assert_eq!(bits(&z), bits(&golden));

    // A clean run charges nothing.
    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    let clean = supervisor.run(job, &mut mem, &mut hci).expect("run");
    assert_eq!(clean.retries, 0);
    assert_eq!(clean.backoff_cycles, 0);
}

#[test]
fn panic_in_simulation_is_isolated_and_retried() {
    let shape = GemmShape::new(6, 8, 10);
    let (x, w) = data(shape, 5);
    let golden = gemm_golden(shape, &x, &w);
    let engine = Engine::new(small_cfg());
    let supervisor = Supervisor::new(engine.clone());

    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    let session = engine.start(job).expect("start");
    let mut armed = true;
    let run = supervisor
        .run_observed(session, &mut mem, &mut hci, |s| {
            if armed && s.cycle() == 37 {
                armed = false;
                panic!("injected simulation panic");
            }
        })
        .expect("supervised run survives the panic");

    assert!(matches!(run.stop, StopReason::Completed));
    assert!(!run.degraded);
    assert_eq!(run.retries, 1, "one rollback recovers the panic");
    let z = mem.load_f16_slice(job.z_addr, shape.z_len()).expect("Z");
    assert_eq!(bits(&z), bits(&golden), "recovered run is still bit-exact");
}

#[test]
fn persistent_panic_exhausts_retries_and_reports() {
    let shape = GemmShape::new(4, 6, 8);
    let (x, w) = data(shape, 13);
    let engine = Engine::new(small_cfg());
    let retry = RetryPolicy::deterministic(2, 0);
    let supervisor = Supervisor::new(engine.clone()).with_retry_policy(retry);

    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    let session = engine.start(job).expect("start");
    let run = supervisor
        .run_observed(session, &mut mem, &mut hci, |s| {
            assert!(s.cycle() < 5, "deterministic panic at cycle 5");
        })
        .expect("supervisor must survive persistent panics");

    assert!(run.degraded);
    assert_eq!(run.retries, 2, "the full retry budget was spent");
    match &run.stop {
        StopReason::Panicked(msg) => assert!(msg.contains("deterministic panic")),
        other => panic!("expected Panicked, got {other:?}"),
    }
    assert!(run.checkpoint.is_some(), "job remains resumable");
}

#[test]
fn watchdog_hang_is_recovered_by_rollback() {
    let shape = GemmShape::new(6, 8, 12);
    let (x, w) = data(shape, 17);
    let golden = gemm_golden(shape, &x, &w);
    let engine = Engine::new(small_cfg()).with_watchdog(64);
    let supervisor = Supervisor::new(engine.clone());

    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    // A stuck interconnect: every shallow beat vanishes, so the schedule
    // hangs and the engine watchdog fires.
    hci.inject_shallow_drop(u32::MAX);
    let run = supervisor
        .run(job, &mut mem, &mut hci)
        .expect("supervised run");

    assert!(matches!(run.stop, StopReason::Completed));
    assert!(!run.degraded);
    assert_eq!(run.retries, 1, "one rollback clears the armed drops");
    assert_eq!(hci.pending_shallow_drops(), 0);
    let z = mem.load_f16_slice(job.z_addr, shape.z_len()).expect("Z");
    assert_eq!(bits(&z), bits(&golden));
}

#[test]
fn unrecoverable_watchdog_reports_failed_not_panic() {
    let shape = GemmShape::new(4, 4, 8);
    let (x, w) = data(shape, 29);
    let engine = Engine::new(small_cfg()).with_watchdog(64);
    let retry = RetryPolicy::deterministic(0, 0);
    let supervisor = Supervisor::new(engine).with_retry_policy(retry);

    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    hci.inject_shallow_drop(u32::MAX);
    let run = supervisor
        .run(job, &mut mem, &mut hci)
        .expect("supervised run");
    assert!(run.degraded);
    assert!(
        matches!(
            run.stop,
            StopReason::Failed(redmule::EngineError::Watchdog { .. })
        ),
        "got {:?}",
        run.stop
    );
    assert!(run.checkpoint.is_some());
}

#[test]
fn checkpoint_container_roundtrips_and_rejects_damage() {
    let shape = GemmShape::new(8, 10, 16);
    let (x, w) = data(shape, 41);
    let supervisor =
        Supervisor::new(Engine::new(small_cfg())).with_limits(Limits::none().with_max_cycles(60));
    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    let run = supervisor.run(job, &mut mem, &mut hci).expect("run");
    let checkpoint = run.checkpoint.expect("degraded run carries a checkpoint");

    let bytes = checkpoint.to_bytes();
    let restored = Checkpoint::from_bytes(&bytes).expect("roundtrip");
    assert_eq!(restored, checkpoint);

    // Bit damage anywhere in the payload is caught by the checksum (or
    // the container framing), never silently accepted.
    let mut damaged = bytes.clone();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x40;
    assert!(Checkpoint::from_bytes(&damaged).is_err());

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    assert!(Checkpoint::from_bytes(&wrong_magic).is_err());

    assert!(Checkpoint::from_bytes(&bytes[..bytes.len() - 3]).is_err());
}

#[test]
fn checkpoint_container_bytes_are_pinned() {
    // The RMCK container is a persisted format: the bytes of a fixed
    // interrupted run stay identical, whatever the encoder's internals.
    for (format, len, digest) in [
        (Format::Fp16, 132_147, 0xb8a6_fb58_25c6_9ae5),
        (Format::Fp8E4M3, 132_149, 0x9d7e_6709_570e_796c),
    ] {
        let shape = GemmShape::new(8, 10, 16);
        let (x, w) = data(shape, 41);
        let supervisor = Supervisor::new(Engine::new(small_cfg()))
            .with_limits(Limits::none().with_max_cycles(60));
        let (job, mut mem, mut hci) =
            stage_gemm_workspace_in(shape, format, &x, &w, None).expect("stage");
        let run = supervisor.run(job, &mut mem, &mut hci).expect("run");
        let bytes = run
            .checkpoint
            .expect("degraded run carries a checkpoint")
            .to_bytes();
        assert_eq!(
            (bytes.len(), fnv1a64(&bytes)),
            (len, digest),
            "{format:?} checkpoint bytes moved"
        );
        let decoded = Checkpoint::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(decoded.to_bytes(), bytes, "{format:?} re-encoding");
    }
}
