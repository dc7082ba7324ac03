//! Supervisor behaviour: cycle budgets, panic isolation, watchdog
//! recovery and graceful degradation.

use redmule::cast::castin_slice;
use redmule::{
    stage_gemm_workspace_in, AccelConfig, Engine, FaultPlan, FaultSite, FaultSpec, Format,
    FtConfig, RunReport,
};
use redmule_cluster::{Hci, Initiator, Tcdm};
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
fn budget_stop_after_a_rollback_matches_an_uninterrupted_stop() {
    // The budget trips mid-tile; on the way to the next tile boundary the
    // run stores Z words past its last checkpoint's image, then a panic
    // rolls it back there and the stop lands on the restored boundary.
    // Nothing of the rolled-back attempt may survive: not in the
    // checkpoint, and not in the partial Z a degraded caller reads back.
    // Only the restore can remove those words (the replay that would
    // rewrite them never runs), so it must zero every word past the image.
    let shape = GemmShape::new(4, 8, 40);
    let (x, w) = data(shape, 19);
    let engine = Engine::new(small_cfg());
    // Tile boundaries fall every 24 cycles from cycle 30; the next tile's
    // first Z row lands 6 cycles past each.
    let budget = 140;

    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    let session = engine.start(job).expect("start");
    let mut armed = true;
    let rolled_back = Supervisor::new(engine.clone())
        .with_limits(Limits::none().with_max_cycles(budget))
        .run_observed(session, &mut mem, &mut hci, |s| {
            if armed && s.cycle() >= budget {
                armed = false;
                panic!("injected panic after the budget tripped");
            }
        })
        .expect("supervised run");
    assert_eq!(rolled_back.stop, StopReason::CycleBudget);
    assert_eq!(rolled_back.retries, 1, "the panic rolled the run back");
    let stopped_at = rolled_back.report.cycles.count();
    assert!(stopped_at < budget, "the stop is the restored boundary");
    assert!(rolled_back.tiles_done > 0, "Z stores precede the boundary");
    let z_rolled_back = mem.load_f16_slice(job.z_addr, shape.z_len()).expect("Z");

    // The same job stopped at the same boundary without a rollback.
    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
    let uninterrupted = Supervisor::new(engine)
        .with_limits(Limits::none().with_max_cycles(stopped_at))
        .run(job, &mut mem, &mut hci)
        .expect("supervised run");
    assert_eq!(uninterrupted.retries, 0);
    assert_eq!(uninterrupted.report.cycles.count(), stopped_at);
    let z_uninterrupted = mem.load_f16_slice(job.z_addr, shape.z_len()).expect("Z");
    assert_eq!(bits(&z_rolled_back), bits(&z_uninterrupted), "partial Z");
    assert_eq!(
        rolled_back.checkpoint.expect("checkpoint").to_bytes(),
        uninterrupted.checkpoint.expect("checkpoint").to_bytes()
    );
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

#[test]
fn checkpoint_bytes_under_contention_and_drops_are_pinned() {
    // The same persisted format on a run whose counters the quiet pin
    // above never touches: core traffic on the shallow group's banks
    // (`shallow_conflicts`, `port_conflicts`, `log_*`) and three dropped
    // shallow beats (`shallow_dropped`). Pins the container at the
    // session's second tile boundary (two tiles retired) and the final
    // engine and HCI `Stats` lists.
    for (format, len, digest, engine_stats, hci_stats) in PINNED_UNDER_CONTENTION {
        let shape = GemmShape::new(8, 10, 16);
        let (x, w) = data(shape, 43);
        let (job, mut mem, mut hci) =
            stage_gemm_workspace_in(shape, format, &x, &w, None).expect("stage");
        hci.inject_shallow_drop(3);
        let mut session = Engine::new(small_cfg()).start(job).expect("start");
        let mut pinned = None;
        while !session.is_finished() {
            if pinned.is_none() && session.tiles_completed() == 2 && session.at_tile_boundary() {
                let bytes = Checkpoint::capture(&mut session, &mem, &hci)
                    .expect("capture at a tile boundary")
                    .to_bytes();
                pinned = Some((bytes.len(), fnv1a64(&bytes)));
            }
            // Core 0 sweeps all sixteen banks; core 1 sits on bank 2.
            let c = session.cycle() as u32;
            let traffic = [(Initiator::Core(0), 4 * (c % 16)), (Initiator::Core(1), 8)];
            session.tick(&mut mem, &mut hci, &traffic).expect("tick");
        }
        assert_eq!(
            pinned,
            Some((len, digest)),
            "{format:?} checkpoint bytes moved"
        );
        let report = session.finish();
        let listed = |s: &redmule_hwsim::Stats| -> Vec<(String, u64)> {
            s.iter().map(|(k, v)| (k.to_owned(), v)).collect()
        };
        let want = |pins: &[(&str, u64)]| -> Vec<(String, u64)> {
            pins.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
        };
        assert_eq!(
            listed(&report.stats),
            want(engine_stats),
            "{format:?} engine stats"
        );
        assert_eq!(
            listed(&hci.stats()),
            want(hci_stats),
            "{format:?} HCI stats"
        );
    }
}

/// Per format: checkpoint length and FNV-1a-64, then the final engine and
/// HCI `Stats` lists, recorded before the counters became typed fields.
type ContentionPin = (
    Format,
    usize,
    u64,
    &'static [(&'static str, u64)],
    &'static [(&'static str, u64)],
);

const PINNED_UNDER_CONTENTION: [ContentionPin; 2] = [
    (
        Format::Fp16,
        132_241,
        0xc2c8_25be_1b40_6e04,
        &[
            ("lane_macs", 1280),
            ("macs", 1280),
            ("phase_compute", 256),
            ("phase_drain", 2),
            ("phase_fill", 6),
            ("phase_refill", 0),
            ("phase_stall", 3),
            ("port_conflicts", 28),
            ("port_idle", 111),
            ("stall_cycles", 9),
            ("w_loads", 80),
            ("x_loads", 32),
            ("z_stores", 16),
        ],
        &[
            ("log_conflicts", 149),
            ("log_grants", 385),
            ("shallow_conflicts", 25),
            ("shallow_dropped", 3),
            ("shallow_grants", 128),
        ],
    ),
    (
        Format::Fp8E4M3,
        132_243,
        0x22df_f2cf_2267_6be3,
        &[
            ("fp8_pair_beats", 35),
            ("lane_macs", 1280),
            ("macs", 1280),
            ("phase_compute", 256),
            ("phase_drain", 0),
            ("phase_fill", 3),
            ("phase_refill", 0),
            ("phase_stall", 3),
            ("port_conflicts", 23),
            ("port_idle", 146),
            ("stall_cycles", 6),
            ("w_loads", 80),
            ("x_loads", 32),
            ("z_stores", 16),
        ],
        &[
            ("log_conflicts", 109),
            ("log_grants", 415),
            ("shallow_conflicts", 20),
            ("shallow_dropped", 3),
            ("shallow_grants", 93),
        ],
    ),
];

/// Two transients on a protected job of the small instance (5x6x10: six
/// tiles): an exponent flip in the pipeline of tile 1 and a flipped Z
/// store of tile 3. Each fails its tile's check, so the tile is replayed.
fn two_strikes() -> FaultPlan {
    FaultPlan::new(3)
        .with_spec(FaultSpec {
            tile: 1,
            cycle: 6,
            site: FaultSite::Pipe {
                col: 1,
                row: 0,
                stage: 0,
                bit: 14,
            },
        })
        .with_spec(FaultSpec {
            tile: 3,
            cycle: 0,
            site: FaultSite::ZStore {
                store: 0,
                elem: 1,
                bit: 14,
            },
        })
}

/// A protected job's operands and its freshly staged workspace.
struct ProtectedCase {
    shape: GemmShape,
    format: Format,
    x: Vec<F16>,
    w: Vec<F16>,
    y: Option<Vec<F16>>,
}

impl ProtectedCase {
    fn new(format: Format, accumulate: bool) -> ProtectedCase {
        let shape = GemmShape::new(5, 6, 10);
        let (x, w) = data(shape, 29);
        let y = accumulate.then(|| data(GemmShape::new(5, 10, 1), 31).0);
        ProtectedCase {
            shape,
            format,
            x,
            w,
            y,
        }
    }

    fn stage(&self) -> (redmule::Job, Tcdm, Hci) {
        stage_gemm_workspace_in(self.shape, self.format, &self.x, &self.w, self.y.as_deref())
            .expect("stage")
    }

    fn z(&self, mem: &Tcdm, job: &redmule::Job) -> Vec<u16> {
        bits(&castin_slice(mem, self.format, job.z_addr, self.shape.z_len()).expect("Z"))
    }
}

/// Asserts that `got` reproduces `want` in every observable: cycles,
/// MACs, stalls, phases, every stat and the fault log.
fn assert_same_report(got: &RunReport, want: &RunReport, what: &str) {
    assert_eq!(got.cycles, want.cycles, "{what}: cycles");
    assert_eq!(got.macs, want.macs, "{what}: macs");
    assert_eq!(got.stall_cycles, want.stall_cycles, "{what}: stall cycles");
    assert_eq!(got.phases, want.phases, "{what}: phases");
    assert_eq!(got.stats, want.stats, "{what}: stats");
    assert_eq!(got.faults, want.faults, "{what}: fault log");
}

#[test]
fn protected_job_resumes_bit_exactly_from_every_verified_tile_boundary() {
    let engine = Engine::new(small_cfg());
    let plan = two_strikes();
    for ft in [FtConfig::replay(), FtConfig::redundancy()] {
        for format in [Format::Fp16, Format::Fp8E4M3] {
            for accumulate in [false, true] {
                let case = ProtectedCase::new(format, accumulate);
                let what = format!("{:?} {format} accumulate={accumulate}", ft.mode);
                let (job, mut mem, mut hci) = case.stage();
                let reference = engine
                    .run_ft(job, &mut mem, &mut hci, &plan, ft)
                    .expect("protected run");
                let z_ref = case.z(&mem, &job);
                assert_eq!(
                    reference.stats.get("tiles_replayed"),
                    2,
                    "{what}: both strikes fail a check"
                );
                assert_eq!(reference.macs, case.shape.macs(), "{what}: job MACs");

                // One walk, checkpointed at every verified tile boundary:
                // before the first tile and after each tile passes.
                let (job, mut mem, mut hci) = case.stage();
                let mut session = engine
                    .start_ft(job, &plan, ft, &mut mem, &mut hci)
                    .expect("start");
                let mut checkpoints: Vec<Checkpoint> = Vec::new();
                loop {
                    if session.at_tile_boundary() && session.tiles_completed() == checkpoints.len()
                    {
                        let ckpt = Checkpoint::capture(&mut session, &mem, &hci)
                            .expect("checkpoint at a verified boundary");
                        checkpoints.push(ckpt);
                    }
                    if session.is_finished() {
                        break;
                    }
                    session.tick(&mut mem, &mut hci, &[]).expect("tick");
                }
                assert_eq!(checkpoints.len(), session.tiles_total() + 1, "{what}");
                assert_same_report(&session.finish(), &reference, &what);
                assert_eq!(case.z(&mem, &job), z_ref, "{what}: Z");

                for (tile, ckpt) in checkpoints.iter().enumerate() {
                    let ckpt = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("decode");
                    let (job, mut mem, mut hci) = case.stage();
                    let mut resumed = ckpt.restore(&engine, &mut mem, &mut hci).expect("resume");
                    assert_eq!(resumed.tiles_completed(), tile, "{what}");
                    while !resumed.is_finished() {
                        resumed.tick(&mut mem, &mut hci, &[]).expect("tick");
                    }
                    let at = format!("{what}, resumed after {tile} tiles");
                    assert_same_report(&resumed.finish(), &reference, &at);
                    assert_eq!(case.z(&mem, &job), z_ref, "{at}: Z");
                }
            }
        }
    }
}

#[test]
fn protected_job_degrades_at_its_budget_and_resumes_bit_exactly() {
    let engine = Engine::new(small_cfg());
    let plan = two_strikes();
    for ft in [FtConfig::replay(), FtConfig::redundancy()] {
        let case = ProtectedCase::new(Format::Fp16, true);
        let (job, mut mem, mut hci) = case.stage();
        let reference = engine
            .run_ft(job, &mut mem, &mut hci, &plan, ft)
            .expect("protected run");
        let z_ref = case.z(&mem, &job);

        let budget = reference.cycles.count() / 2;
        let supervisor =
            Supervisor::new(engine.clone()).with_limits(Limits::none().with_max_cycles(budget));
        let (job, mut mem, mut hci) = case.stage();
        let session = engine
            .start_ft(job, &plan, ft, &mut mem, &mut hci)
            .expect("start");
        let partial = supervisor
            .run_session(session, &mut mem, &mut hci)
            .expect("supervised run");
        assert_eq!(partial.stop, StopReason::CycleBudget, "{:?}", ft.mode);
        assert!(partial.degraded);
        assert!(partial.tiles_done > 0 && partial.tiles_done < partial.tiles_total);
        assert!(partial.report.cycles.count() >= budget);
        let checkpoint = partial
            .checkpoint
            .expect("degraded run carries a checkpoint");

        let checkpoint = Checkpoint::from_bytes(&checkpoint.to_bytes()).expect("decode");
        let (_, mut mem, mut hci) = case.stage();
        let finished = Supervisor::new(engine.clone())
            .resume(&checkpoint, &mut mem, &mut hci)
            .expect("resume");
        assert_eq!(finished.stop, StopReason::Completed);
        assert_same_report(&finished.report, &reference, &format!("{:?}", ft.mode));
        assert_eq!(case.z(&mem, &job), z_ref, "{:?}: Z", ft.mode);
    }
}
