//! Ordering-bug canary: the canonical [`BatchReport`] serialization must
//! be byte-identical no matter how many workers the pool runs — results
//! are keyed by job id, never by completion order, and per-job outcomes
//! depend only on the job itself.
//!
//! The adversarial job set lives in `tests/common` and is shared with the
//! trace-determinism canary (`tests/trace.rs`).

mod common;

use common::adversarial_job_set;
use redmule::obs::EventKind;
use redmule::BackendKind;
use redmule_batch::{BatchExecutor, JobStatus};
use redmule_hwsim::FaultPhase;

#[test]
fn report_bytes_are_identical_for_1_2_and_8_workers() {
    let reference = BatchExecutor::new(1)
        .run(adversarial_job_set())
        .expect("1-worker batch")
        .report
        .to_canonical_json();

    for workers in [2usize, 8] {
        let got = BatchExecutor::new(workers)
            .run(adversarial_job_set())
            .expect("parallel batch")
            .report
            .to_canonical_json();
        assert_eq!(
            got, reference,
            "BatchReport serialization diverged at {workers} workers"
        );
    }
}

#[test]
fn repeated_runs_are_identical_at_fixed_worker_count() {
    let a = BatchExecutor::new(8)
        .run(adversarial_job_set())
        .expect("first run");
    let b = BatchExecutor::new(8)
        .run(adversarial_job_set())
        .expect("second run");
    assert_eq!(a.report.to_canonical_json(), b.report.to_canonical_json());
    // The schedule stats are a deterministic virtual replay, so they
    // repeat exactly too — host thread timing must not leak in.
    assert_eq!(a.schedule, b.schedule);
    // Twice on one executor: its helpers persist between runs, and
    // nothing of the first run may leak into the second.
    let executor = BatchExecutor::new(8);
    for run in 0..2 {
        let c = executor
            .run(adversarial_job_set())
            .expect("same-executor run");
        assert_eq!(
            c.report.to_canonical_json(),
            a.report.to_canonical_json(),
            "run {run} on one executor"
        );
        assert_eq!(c.schedule, a.schedule, "run {run} on one executor");
    }
}

#[test]
fn the_job_set_actually_covers_the_interesting_paths() {
    // Guard against this canary silently weakening: the batch must
    // contain a degraded job, fault telemetry and both backends.
    let report = BatchExecutor::new(4)
        .with_event_trace()
        .run(adversarial_job_set())
        .expect("batch")
        .report;
    assert_eq!(report.jobs.len(), 11);
    assert_eq!(
        report.jobs.iter().map(|j| j.id).collect::<Vec<_>>(),
        (0..11).collect::<Vec<_>>()
    );
    assert_eq!(report.degraded(), 1);
    assert_eq!(report.jobs[5].status, JobStatus::CycleBudget);
    assert!(report.total_fault_events() > 0);
    // Both FT-protected jobs take a strike that their protection
    // detects and corrects, so the canaries cover real FT recovery.
    for id in [7, 10] {
        let phases: Vec<FaultPhase> = report.jobs[id]
            .events
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Fault { phase, .. } => Some(phase),
                _ => None,
            })
            .collect();
        for phase in [
            FaultPhase::Injected,
            FaultPhase::Detected,
            FaultPhase::Corrected,
        ] {
            assert!(phases.contains(&phase), "job {id} logged no {phase} fault");
        }
    }
    assert!(report
        .jobs
        .iter()
        .any(|j| j.backend == BackendKind::Functional));
    // All three storage formats must be represented, and the FP8 jobs
    // must really run as FP8 (the canonical JSON records the label).
    for format in redmule::Format::ALL {
        assert!(
            report.jobs.iter().any(|j| j.format == format),
            "job set lost its {format} coverage"
        );
    }
    assert!(report.failed() == 0, "no job in this set may fail outright");
    assert!(report.utilization(&redmule::AccelConfig::paper()) > 0.0);
}
