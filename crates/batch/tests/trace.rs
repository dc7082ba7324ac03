//! Trace determinism canary: the Chrome trace-event JSON exported from a
//! traced batch must be byte-identical no matter how many workers the
//! pool runs. Every timestamp in the trace is a *simulated* cycle of the
//! job's own clock, so the worker count — a host-side scheduling knob —
//! must not leak a single byte into the document.

mod common;

use common::adversarial_job_set;
use redmule::obs::{validate_chrome_trace, EventKind, TraceEvent};
use redmule_batch::BatchExecutor;

#[test]
fn chrome_trace_bytes_are_identical_for_1_2_and_8_workers() {
    let reference = BatchExecutor::new(1)
        .with_event_trace()
        .run(adversarial_job_set())
        .expect("1-worker batch")
        .report
        .chrome_trace();

    for workers in [2usize, 8] {
        let got = BatchExecutor::new(workers)
            .with_event_trace()
            .run(adversarial_job_set())
            .expect("parallel batch")
            .report
            .chrome_trace();
        assert_eq!(
            got, reference,
            "Chrome trace bytes diverged at {workers} workers"
        );
    }
}

#[test]
fn traced_batch_exports_valid_and_populated_chrome_json() {
    let report = BatchExecutor::new(4)
        .with_event_trace()
        .run(adversarial_job_set())
        .expect("batch")
        .report;

    let json = report.chrome_trace();
    let summary = validate_chrome_trace(&json).expect("trace must parse and validate");
    assert_eq!(summary.lanes, report.jobs.len());
    assert!(summary.events > 0, "a traced batch must emit events");

    // Every execution path contributes its signature events. Jobs 7 and
    // 10 are FT-protected: that path only synthesizes Fault events from
    // the merged fault log, so they are exempt from the tile-span
    // requirement.
    for job in report.jobs.iter().filter(|j| j.id != 7 && j.id != 10) {
        assert!(
            job.events
                .events()
                .iter()
                .any(|e| matches!(e.kind, EventKind::TileStart { .. })),
            "job {} recorded no tile spans",
            job.id
        );
    }
    let all: Vec<&TraceEvent> = report.jobs.iter().flat_map(|j| j.events.events()).collect();
    assert!(
        all.iter()
            .any(|e| matches!(e.kind, EventKind::Fault { .. })),
        "the fault-injection jobs must surface Fault events"
    );
    assert!(
        all.iter()
            .any(|e| matches!(e.kind, EventKind::Refill { .. })),
        "cycle-accurate jobs must surface Refill events"
    );
}

#[test]
fn untraced_batch_records_no_events() {
    let report = BatchExecutor::new(2)
        .run(adversarial_job_set())
        .expect("batch")
        .report;
    assert!(
        report.jobs.iter().all(|j| j.events.is_empty()),
        "tracing must be strictly opt-in"
    );
    // The export is still a valid (empty-lane) document.
    let summary = validate_chrome_trace(&report.chrome_trace()).expect("valid");
    assert_eq!(summary.events, 0);
}
