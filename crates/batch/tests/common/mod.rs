//! Shared fixture for the batch determinism canaries: a job set that
//! deliberately mixes everything that could tempt an implementation into
//! order-dependence — both backends, accumulate mode, a degraded
//! (cycle-budget) job, a raw fault injection, an FT-protected fault
//! plan and all three storage formats (FP16 plus both FP8 formats),
//! submitted in shuffled id order.

use redmule::{BackendKind, FaultPlan, FaultSite, FaultSpec, Format, FtConfig};
use redmule_batch::{GemmJob, JobFaults};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::F16;
use redmule_runtime::Limits;

pub fn data(shape: GemmShape, seed: u32) -> (Vec<F16>, Vec<F16>) {
    let gen = |len: usize, s: u32| -> Vec<F16> {
        (0..len)
            .map(|i| {
                let h = ((i as u32).wrapping_mul(2654435761) ^ s.wrapping_mul(0x85EB_CA6B)) >> 17;
                F16::from_f32((h % 63) as f32 / 64.0 - 0.5)
            })
            .collect()
    };
    (gen(shape.x_len(), seed), gen(shape.w_len(), seed ^ 0xBEEF))
}

/// A pinned transient that lands: an exponent flip (bit 14) of a partial
/// sum in column 1, row 0, stage 0 at cycle 8 of `tile`, while the
/// pipeline holds it. Replay's ABFT check and Redundancy's vote both
/// catch and correct it.
pub fn pipe_strike(tile: usize) -> FaultPlan {
    FaultPlan::new(0).with_spec(FaultSpec {
        tile,
        cycle: 8,
        site: FaultSite::Pipe {
            col: 1,
            row: 0,
            stage: 0,
            bit: 14,
        },
    })
}

/// A batch exercising every execution path the executor has.
pub fn adversarial_job_set() -> Vec<GemmJob> {
    let mut jobs = Vec::new();

    // Plain cycle-accurate jobs of different weights.
    for (id, (m, n, k)) in [(0u64, (8, 16, 16)), (1, (3, 7, 21)), (2, (16, 8, 32))] {
        let shape = GemmShape::new(m, n, k);
        let (x, w) = data(shape, id as u32);
        jobs.push(GemmJob::new(id, shape, x, w));
    }

    // Functional jobs, one with accumulate.
    let shape = GemmShape::new(6, 12, 10);
    let (x, w) = data(shape, 33);
    jobs.push(GemmJob::new(3, shape, x.clone(), w.clone()).with_backend(BackendKind::Functional));
    let y: Vec<F16> = (0..shape.z_len())
        .map(|i| F16::from_f32((i % 5) as f32 - 2.0))
        .collect();
    jobs.push(
        GemmJob::new(4, shape, x, w)
            .with_backend(BackendKind::Functional)
            .with_accumulate(y),
    );

    // A job that exhausts its cycle budget (deterministically degraded).
    let big = GemmShape::new(16, 16, 32);
    let (x, w) = data(big, 44);
    jobs.push(
        GemmJob::new(5, big, x, w)
            .with_limits(Limits::none().with_max_cycles(60))
            .with_checkpoint_interval(1),
    );

    // Raw fault injection under supervision: the corrupted result is
    // deterministic because the strike schedule is.
    let shape = GemmShape::new(4, 6, 8);
    let (x, w) = data(shape, 55);
    jobs.push(
        GemmJob::new(6, shape, x, w).with_faults(JobFaults::Raw(vec![
            (
                10,
                FaultSite::Pipe {
                    col: 1,
                    row: 2,
                    stage: 0,
                    bit: 7,
                },
            ),
            (
                0,
                FaultSite::WLoad {
                    phase: 0,
                    col: 0,
                    elem: 1,
                    bit: 3,
                },
            ),
        ])),
    );

    // FT-protected execution of a transient that strikes the job's one
    // tile and is detected and corrected.
    let shape = GemmShape::new(8, 8, 16);
    let (x, w) = data(shape, 66);
    jobs.push(
        GemmJob::new(7, shape, x, w).with_faults(JobFaults::Protected {
            plan: pipe_strike(0),
            ft: FtConfig::replay(),
        }),
    );

    // FP8 storage on the cycle-accurate engine: the castin/castout
    // stages and the paired-beat streamer schedule must be just as
    // worker-count-invariant as the FP16 paths.
    let shape = GemmShape::new(5, 9, 14);
    let (x, w) = data(shape, 77);
    jobs.push(GemmJob::new(8, shape, x, w).with_format(Format::Fp8E4M3));

    // FP8 on the functional backend, with accumulate: exercises the
    // quantise-in/quantise-out path that mirrors the engine bitwise.
    let shape = GemmShape::new(6, 12, 10);
    let (x, w) = data(shape, 88);
    let y: Vec<F16> = (0..shape.z_len())
        .map(|i| F16::from_f32((i % 7) as f32 / 2.0 - 1.5))
        .collect();
    jobs.push(
        GemmJob::new(9, shape, x, w)
            .with_format(Format::Fp8E5M2)
            .with_backend(BackendKind::Functional)
            .with_accumulate(y),
    );

    // FP8 under FT protection: ABFT comparison happens on quantised
    // values and the fault windows are byte-addressed.
    let shape = GemmShape::new(8, 8, 16);
    let (x, w) = data(shape, 99);
    jobs.push(
        GemmJob::new(10, shape, x, w)
            .with_format(Format::Fp8E5M2)
            .with_faults(JobFaults::Protected {
                plan: pipe_strike(0),
                ft: FtConfig::redundancy(),
            }),
    );

    // Submit in shuffled order; the report must still come out id-sorted.
    jobs.swap(0, 7);
    jobs.swap(2, 5);
    jobs.swap(1, 10);
    jobs
}
