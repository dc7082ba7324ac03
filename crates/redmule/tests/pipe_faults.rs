//! Pipe-stage fault semantics of the FMA array, pinned.
//!
//! `FaultSite::Pipe { col, row, stage, bit }` flips one bit of the partial
//! sum held in register stage `stage` (0 = newest) of FMA (`row`, `col`),
//! retrying every cycle while that register holds a bubble. Seeded fault
//! plans place strikes by these coordinates, so the mapping from a stage
//! number to a physical register is part of the model's contract: for
//! every stage of the paper instance and several `(col, row, cycle)`
//! targets this test pins the Z bits, the fault-log text and the cycle
//! count of a raw (unprotected) run. A wrong stage-to-register mapping
//! corrupts a different in-flight value and changes at least one of them.

use redmule::cast::castin_slice;
use redmule::faults::{FaultInjector, FaultSite};
use redmule::{stage_gemm_workspace_in, AccelConfig, Engine, Format};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::F16;
use redmule_hwsim::snapshot::fnv1a64;

/// `(stage, col, row, cycle, bit, z_digest, fault_log, cycles)`, the same
/// six targets for each stage in turn. The cycle-0 target strikes during
/// the pipeline fill, so its log records the first cycle the stage holds
/// a value; the cycle-200 target retries across a tile boundary.
#[allow(clippy::type_complexity)]
#[rustfmt::skip]
const PINNED: [(usize, usize, usize, u64, u8, u64, &str, u64); 24] = [
    (0, 0, 0, 0, 14, 0x19bf76a391479303, "13 fma[0][0].s0.b14 transient-flip injected", 399),
    (0, 1, 3, 30, 10, 0xd90fd709553195b8, "30 fma[1][3].s0.b10 transient-flip injected", 399),
    (0, 3, 7, 75, 15, 0xf9f5027fd5bdf4ba, "75 fma[3][7].s0.b15 transient-flip injected", 399),
    (0, 1, 0, 120, 13, 0x1b2ad700bab4a3f0, "120 fma[1][0].s0.b13 transient-flip injected", 399),
    (0, 2, 1, 200, 9, 0x292b67ed8402a7f1, "213 fma[2][1].s0.b9 transient-flip injected", 399),
    (0, 2, 1, 330, 14, 0xbe241d6b2b63f495, "330 fma[2][1].s0.b14 transient-flip injected", 399),
    (1, 0, 0, 0, 14, 0x19bf76a391479303, "14 fma[0][0].s1.b14 transient-flip injected", 399),
    (1, 1, 3, 30, 10, 0xb7da143dd7d0e3f3, "30 fma[1][3].s1.b10 transient-flip injected", 399),
    (1, 3, 7, 75, 15, 0x472372a1adf24b2d, "75 fma[3][7].s1.b15 transient-flip injected", 399),
    (1, 1, 0, 120, 13, 0x7293c54bdf89718f, "120 fma[1][0].s1.b13 transient-flip injected", 399),
    (1, 2, 1, 200, 9, 0x292b67ed8402a7f1, "214 fma[2][1].s1.b9 transient-flip injected", 399),
    (1, 2, 1, 330, 14, 0x7abe7159f9319fdb, "330 fma[2][1].s1.b14 transient-flip injected", 399),
    (2, 0, 0, 0, 14, 0x19bf76a391479303, "15 fma[0][0].s2.b14 transient-flip injected", 399),
    (2, 1, 3, 30, 10, 0x399e8a0b8c5fd803, "30 fma[1][3].s2.b10 transient-flip injected", 399),
    (2, 3, 7, 75, 15, 0xb2d262caf037ff49, "75 fma[3][7].s2.b15 transient-flip injected", 399),
    (2, 1, 0, 120, 13, 0x79e151909d718bc7, "120 fma[1][0].s2.b13 transient-flip injected", 399),
    (2, 2, 1, 200, 9, 0x292b67ed8402a7f1, "215 fma[2][1].s2.b9 transient-flip injected", 399),
    (2, 2, 1, 330, 14, 0x6dcef52580ae9153, "330 fma[2][1].s2.b14 transient-flip injected", 399),
    (3, 0, 0, 0, 14, 0x19bf76a391479303, "16 fma[0][0].s3.b14 transient-flip injected", 399),
    (3, 1, 3, 30, 10, 0x6aa07973fa0fb6e7, "30 fma[1][3].s3.b10 transient-flip injected", 399),
    (3, 3, 7, 75, 15, 0xe32b86deb21e9e68, "75 fma[3][7].s3.b15 transient-flip injected", 399),
    (3, 1, 0, 120, 13, 0x1ae5a69ddfdd4bcb, "120 fma[1][0].s3.b13 transient-flip injected", 399),
    (3, 2, 1, 200, 9, 0x292b67ed8402a7f1, "216 fma[2][1].s3.b9 transient-flip injected", 399),
    (3, 2, 1, 330, 14, 0xe6dad3e4ee527f51, "330 fma[2][1].s3.b14 transient-flip injected", 399),
];

fn operands(len: usize, salt: u32) -> Vec<F16> {
    (0..len)
        .map(|i| {
            let v = ((i as u32).wrapping_mul(2654435761).wrapping_add(salt) >> 16) % 64;
            F16::from_f32(v as f32 / 16.0 - 2.0)
        })
        .collect()
}

/// One raw run of a ragged 12x20x24 FP16 job (two row bands, the second
/// half-padded; two K tiles, the second half-wide) with a single pipe
/// strike: returns the Z digest, the fault log and the cycle count.
fn strike(stage: usize, col: usize, row: usize, cycle: u64, bit: u8) -> (u64, String, u64) {
    let shape = GemmShape::new(12, 20, 24);
    let x = operands(shape.x_len(), 7);
    let w = operands(shape.w_len(), 0xABCD);
    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("stage the job");
    let site = FaultSite::Pipe {
        col,
        row,
        stage,
        bit,
    };
    let mut session = Engine::new(AccelConfig::paper())
        .start_with_faults(job, FaultInjector::new(vec![(cycle, site)]))
        .expect("start the job");
    while !session.is_finished() {
        session
            .tick(&mut mem, &mut hci, &[])
            .expect("a pipe strike never aborts a raw run");
    }
    let report = session.finish();
    let z = castin_slice(&mem, Format::Fp16, job.z_addr, shape.z_len()).expect("read Z");
    let bytes: Vec<u8> = z.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    let log: Vec<String> = report
        .faults
        .events()
        .iter()
        .map(|e| format!("{} {} {} {}", e.cycle, e.site, e.class, e.phase))
        .collect();
    (fnv1a64(&bytes), log.join("; "), report.cycles.count())
}

#[test]
fn every_pipe_stage_strike_is_pinned() {
    let latency = AccelConfig::paper().latency();
    let per_stage = PINNED.len() / latency;
    for (i, &(stage, col, row, cycle, bit, digest, log, cycles)) in PINNED.iter().enumerate() {
        assert_eq!(stage, i / per_stage, "table is stage-major");
        let got = strike(stage, col, row, cycle, bit);
        assert_eq!(
            got,
            (digest, log.to_string(), cycles),
            "stage {stage}, fma[{col}][{row}], cycle {cycle}, bit {bit}"
        );
    }
    // The table is only a lock if each target tells every stage apart,
    // through the corrupted result or the cycle the strike landed.
    for target in 0..per_stage {
        let seen: std::collections::BTreeSet<(u64, &str)> = (0..latency)
            .map(|s| {
                let p = PINNED[s * per_stage + target];
                (p.5, p.6)
            })
            .collect();
        assert_eq!(seen.len(), latency, "target {target} aliases two stages");
    }
}
