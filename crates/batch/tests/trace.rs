//! Trace determinism canary: the Chrome trace-event JSON exported from a
//! traced batch must be byte-identical no matter how many workers the
//! pool runs. Every timestamp in the trace is a *simulated* cycle of the
//! job's own clock, so the worker count — a host-side scheduling knob —
//! must not leak a single byte into the document.

mod common;

use common::adversarial_job_set;
use redmule::obs::{validate_chrome_trace, Channel, EventKind, TraceEvent};
use redmule::{stage_gemm_workspace_in, AccelConfig, Engine, FtConfig};
use redmule_batch::{BatchExecutor, GemmJob, JobFaults};
use redmule_fp16::vector::GemmShape;
use redmule_hwsim::FaultPhase;

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

    // Every execution path contributes its signature events, FT-protected
    // jobs (7 and 10) included.
    for job in &report.jobs {
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

#[test]
fn protected_jobs_trace_every_tile_run_and_every_fault() {
    // Protected jobs run as sessions in the one engine walk, so their
    // lanes hold the live event stream. Each is checked against the same
    // job run directly. The set's jobs 7 (FP16, Replay) and 10 (E5M2,
    // Redundancy) take a strike in their one tile; jobs 11 and 12 take
    // the same strike in tile 1 of 2, so a struck tile follows a clean
    // one. ABFT and the vote catch and correct every one.
    let mut jobs = adversarial_job_set();
    for (id, ft) in [(11u64, FtConfig::replay()), (12, FtConfig::redundancy())] {
        let shape = GemmShape::new(8, 8, 32);
        let (x, w) = common::data(shape, id as u32);
        let plan = common::pipe_strike(1);
        jobs.push(GemmJob::new(id, shape, x, w).with_faults(JobFaults::Protected { plan, ft }));
    }
    let report = BatchExecutor::new(2)
        .with_event_trace()
        .run(jobs.clone())
        .expect("batch")
        .report;
    let engine = Engine::new(AccelConfig::paper());
    let mut phases_seen = Vec::new();
    for id in [7u64, 10, 11, 12] {
        let job = jobs.iter().find(|j| j.id == id).expect("job in the set");
        let Some(JobFaults::Protected { plan, ft }) = &job.faults else {
            panic!("job {id} is FT-protected");
        };
        let (hw, mut mem, mut hci) =
            stage_gemm_workspace_in(job.shape, job.format, &job.x, &job.w, job.y.as_deref())
                .expect("stage");
        let direct = engine
            .run_ft(hw, &mut mem, &mut hci, plan, *ft)
            .expect("protected run");
        let result = report.jobs.iter().find(|r| r.id == id).expect("result");
        assert_eq!(result.cycles, direct.cycles.count(), "job {id}");
        let events = result.events.events();

        // One TileStart/TileEnd pair per tile run: the FT runs include
        // the replays and the duplicate runs.
        let starts: Vec<u32> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::TileStart { tile, .. } => Some(tile),
                _ => None,
            })
            .collect();
        let ends: Vec<u32> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::TileEnd { tile } => Some(tile),
                _ => None,
            })
            .collect();
        assert_eq!(starts.len() as u64, direct.stats.get("ft_runs"), "job {id}");
        assert_eq!(starts, ends, "job {id}: tile brackets pair up");

        // Per channel, one Refill event per counted transfer.
        let refills = |ch: Channel| {
            events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Refill { channel, .. } if channel == ch))
                .count() as u64
        };
        assert_eq!(refills(Channel::W), direct.stats.get("w_loads"), "job {id}");
        assert_eq!(refills(Channel::X), direct.stats.get("x_loads"), "job {id}");

        // The injected, detected and corrected faults, in log order.
        let traced: Vec<(u64, String)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Fault { class, phase } => Some((e.cycle, format!("{class} {phase}"))),
                _ => None,
            })
            .collect();
        let logged: Vec<(u64, String)> = direct
            .faults
            .events()
            .iter()
            .map(|f| (f.cycle, format!("{} {}", f.class, f.phase)))
            .collect();
        assert_eq!(traced, logged, "job {id}");
        phases_seen.extend(direct.faults.events().iter().map(|f| f.phase));
    }
    for phase in [
        FaultPhase::Injected,
        FaultPhase::Detected,
        FaultPhase::Corrected,
    ] {
        assert!(phases_seen.contains(&phase), "no {phase} fault traced");
    }
}
