//! Checkpoint determinism: a run interrupted and resumed from a
//! serialised checkpoint at *every* tile boundary is bit-identical to an
//! uninterrupted run — results, cycle counts and fault telemetry — for
//! random shapes, streamer policies and active fault plans.

use proptest::prelude::*;
use redmule::{
    stage_gemm_workspace_in, AccelConfig, Engine, EngineSession, FaultInjector, FaultSite, Format,
    RunReport, StreamerPolicy,
};
use redmule_cluster::{Hci, Tcdm};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::F16;
use redmule_runtime::Checkpoint;

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

fn zbits(mem: &Tcdm, z_addr: u32, len: usize) -> Vec<u16> {
    mem.load_f16_slice(z_addr, len)
        .expect("read Z")
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

fn small_cfg() -> AccelConfig {
    AccelConfig::new(4, 2, 1)
}

fn policy(idx: usize) -> StreamerPolicy {
    match idx % 3 {
        0 => StreamerPolicy::Interleaved,
        1 => StreamerPolicy::HalfBandwidth,
        _ => StreamerPolicy::SingleBufferedW,
    }
}

/// Ticks `session` to completion with no interruption.
fn run_straight(mut session: EngineSession, mem: &mut Tcdm, hci: &mut Hci) -> RunReport {
    while !session.is_finished() {
        session.tick(mem, hci, &[]).expect("tick");
    }
    session.finish()
}

/// Ticks `session` to completion, but at every tile boundary serialises a
/// full checkpoint to bytes, scribbles over live state, and carries on
/// from the deserialised copy — exercising capture + container round-trip
/// + restore at every resumable point of the run.
fn run_resumed(
    engine: &Engine,
    mut session: EngineSession,
    mem: &mut Tcdm,
    hci: &mut Hci,
) -> RunReport {
    let mut resumed_at = usize::MAX;
    loop {
        if session.is_finished() {
            return session.finish();
        }
        let tiles = session.tiles_completed();
        if session.at_tile_boundary() && resumed_at != tiles {
            resumed_at = tiles;
            let bytes = Checkpoint::capture(&mut session, mem, hci)
                .expect("boundary checkpoint")
                .to_bytes();
            let checkpoint = Checkpoint::from_bytes(&bytes).expect("container round-trip");
            // Deliberately clobber memory so the test fails if restore
            // ever leans on leftover live state instead of the snapshot.
            mem.write_f16(0, F16::from_bits(0xBEEF)).expect("scribble");
            session = checkpoint.restore(engine, mem, hci).expect("resume");
        }
        session.tick(mem, hci, &[]).expect("tick");
    }
}

fn assert_reports_match(straight: &RunReport, resumed: &RunReport) {
    assert_eq!(
        resumed.cycles.count(),
        straight.cycles.count(),
        "cycle count"
    );
    assert_eq!(resumed.macs, straight.macs, "useful MACs");
    assert_eq!(resumed.stall_cycles, straight.stall_cycles, "stall cycles");
    assert_eq!(resumed.stats, straight.stats, "event counters");
    assert_eq!(resumed.faults, straight.faults, "fault telemetry");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn resume_at_every_tile_boundary_is_bit_exact(
        m in 1usize..10,
        n in 0usize..12,
        k in 1usize..20,
        seed in any::<u32>(),
        policy_idx in 0usize..3,
    ) {
        let shape = GemmShape::new(m, n, k);
        let (x, w) = data(shape, seed);
        let engine = Engine::new(small_cfg()).with_streamer_policy(policy(policy_idx));

        let (job, mut mem_a, mut hci_a) =
            stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
        let straight = run_straight(engine.start(job).expect("start"), &mut mem_a, &mut hci_a);

        let (job_b, mut mem_b, mut hci_b) =
            stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
        let resumed = run_resumed(
            &engine,
            engine.start(job_b).expect("start"),
            &mut mem_b,
            &mut hci_b,
        );

        prop_assert_eq!(
            zbits(&mem_b, job.z_addr, shape.z_len()),
            zbits(&mem_a, job.z_addr, shape.z_len())
        );
        assert_reports_match(&straight, &resumed);
    }

    #[test]
    fn resume_is_bit_exact_under_active_fault_plan(
        m in 2usize..8,
        n in 1usize..10,
        k in 2usize..18,
        seed in any::<u32>(),
        pipe_cycle in 1u64..200,
        pipe_bit in 0u8..16,
        z_bit in 0u8..16,
        w_bit in 0u8..16,
    ) {
        let shape = GemmShape::new(m, n, k);
        let (x, w) = data(shape, seed);
        let cfg = small_cfg();
        let engine = Engine::new(cfg);

        // Strikes across every site family the injector serialises:
        // cycle-addressed pipe flips, load-path flips and a store flip.
        let sites = vec![
            (pipe_cycle, FaultSite::Pipe { col: 1, row: 0, stage: 0, bit: pipe_bit }),
            (0, FaultSite::WLoad { phase: 0, col: 2, elem: 3, bit: w_bit }),
            (0, FaultSite::XLoad { chunk: 0, row: 1, elem: 2, bit: 9 }),
            (0, FaultSite::ZStore { store: 1, elem: 0, bit: z_bit }),
        ];

        let (job, mut mem_a, mut hci_a) =
            stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
        let session = engine
            .start_with_faults(job, FaultInjector::new(sites.clone()))
            .expect("start");
        let straight = run_straight(session, &mut mem_a, &mut hci_a);

        let (job_b, mut mem_b, mut hci_b) =
            stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage");
        let session = engine
            .start_with_faults(job_b, FaultInjector::new(sites))
            .expect("start");
        let resumed = run_resumed(&engine, session, &mut mem_b, &mut hci_b);

        prop_assert_eq!(
            zbits(&mem_b, job.z_addr, shape.z_len()),
            zbits(&mem_a, job.z_addr, shape.z_len())
        );
        assert_reports_match(&straight, &resumed);
    }
}
