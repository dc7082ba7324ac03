//! The worker-count-invariant batch report and its canonical
//! serialization.

use crate::job::{JobResult, JobStatus};
use redmule::obs::{chrome_trace, TraceLane};
use redmule::AccelConfig;
use std::fmt::Write as _;

/// Per-job results and batch aggregates, keyed by job id.
///
/// Everything in this struct — and in particular every byte of
/// [`BatchReport::to_canonical_json`] — depends only on the submitted
/// jobs, never on the worker count, completion order or wall clock. That
/// property is the ordering-bug canary pinned by the determinism
/// regression test (`tests/determinism.rs`): the same job set run with
/// 1, 2 and 8 workers must serialize byte-identically.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job results, sorted by job id.
    pub jobs: Vec<JobResult>,
}

impl BatchReport {
    pub(crate) fn new(mut jobs: Vec<JobResult>) -> BatchReport {
        jobs.sort_by_key(|j| j.id);
        BatchReport { jobs }
    }

    /// Sum of executed (or functionally estimated) cycles over all jobs.
    pub fn total_cycles(&self) -> u64 {
        self.jobs.iter().map(|j| j.cycles).sum()
    }

    /// Sum of useful FMA operations over all jobs.
    pub fn total_macs(&self) -> u64 {
        self.jobs.iter().map(|j| j.macs).sum()
    }

    /// Sum of datapath stall cycles over all jobs.
    pub fn total_stall_cycles(&self) -> u64 {
        self.jobs.iter().map(|j| j.stall_cycles).sum()
    }

    /// Total fault events (injections, detections, corrections) across
    /// the batch.
    pub fn total_fault_events(&self) -> u64 {
        self.jobs.iter().map(|j| j.fault_events).sum()
    }

    /// Total simulated cycles charged for deterministic retry backoff.
    pub fn total_backoff_cycles(&self) -> u64 {
        self.jobs.iter().map(|j| j.backoff_cycles).sum()
    }

    /// Jobs that ran to completion.
    pub fn completed(&self) -> usize {
        self.count(|s| matches!(s, JobStatus::Completed))
    }

    /// Jobs cut short at their cycle budget.
    pub fn degraded(&self) -> usize {
        self.jobs.iter().filter(|j| j.degraded).count()
    }

    /// Jobs that failed outright (engine error or persistent panic).
    pub fn failed(&self) -> usize {
        self.count(|s| matches!(s, JobStatus::Failed(_) | JobStatus::Panicked(_)))
    }

    /// True when the batch ran at least one job and every job completed.
    /// An empty batch answers `false`: "all jobs completed" is a claim
    /// about work done, and the vacuous-truth reading let empty batches
    /// masquerade as successful ones in success gates.
    pub fn all_completed(&self) -> bool {
        !self.jobs.is_empty() && self.completed() == self.jobs.len()
    }

    /// Achieved fraction of the instance's ideal `H*L` MACs/cycle over
    /// the whole batch (`total_macs / (ideal * total_cycles)`).
    // RM-FP-001 does not bind this host-side crate: telemetry ratios are
    // plain f64, never fed back into model state.
    pub fn utilization(&self, cfg: &AccelConfig) -> f64 {
        let cycles = self.total_cycles();
        if cycles == 0 {
            return 0.0;
        }
        self.total_macs() as f64 / (cfg.ideal_macs_per_cycle() as u64 * cycles) as f64
    }

    /// Canonical JSON serialization: integer-only fields in a fixed
    /// order, output matrices folded to FNV-1a digests, status reduced
    /// to its stable label. Byte-identical across worker counts.
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::from("{\"jobs\":[");
        for (i, j) in self.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"backend\":\"{}\",\"format\":\"{}\",\
                 \"m\":{},\"n\":{},\"k\":{},\
                 \"status\":\"{}\",\"cycles\":{},\"macs\":{},\"stall_cycles\":{},\
                 \"degraded\":{},\"retries\":{},\"backoff_cycles\":{},\"fault_events\":{},\
                 \"tiles_done\":{},\"tiles_total\":{},\
                 \"z_len\":{},\"z_fnv64\":\"{:#018x}\"}}",
                j.id,
                j.backend.label(),
                j.format.label(),
                j.shape.m,
                j.shape.n,
                j.shape.k,
                j.status.label(),
                j.cycles,
                j.macs,
                j.stall_cycles,
                j.degraded,
                j.retries,
                j.backoff_cycles,
                j.fault_events,
                j.tiles_done,
                j.tiles_total,
                j.z.len(),
                j.z_checksum(),
            );
        }
        let _ = write!(
            out,
            "],\"totals\":{{\"jobs\":{},\"completed\":{},\"degraded\":{},\"failed\":{},\
             \"cycles\":{},\"macs\":{},\"stall_cycles\":{},\"backoff_cycles\":{},\
             \"fault_events\":{}}}}}",
            self.jobs.len(),
            self.completed(),
            self.degraded(),
            self.failed(),
            self.total_cycles(),
            self.total_macs(),
            self.total_stall_cycles(),
            self.total_backoff_cycles(),
            self.total_fault_events(),
        );
        out
    }

    /// Chrome trace-event JSON (Perfetto-loadable) for a batch run with
    /// [`BatchExecutor::with_event_trace`](crate::BatchExecutor::with_event_trace):
    /// one lane per job, `tid` = job id, events on the job's own
    /// simulated-cycle clock. Lanes come from [`JobResult::events`], so
    /// the bytes are — like the canonical JSON — invariant under the
    /// worker count (pinned by `tests/trace.rs`). Untraced runs yield a
    /// valid document with empty lanes.
    pub fn chrome_trace(&self) -> String {
        let lanes: Vec<TraceLane<'_>> = self
            .jobs
            .iter()
            .map(|j| TraceLane {
                tid: j.id,
                name: format!("job {} ({})", j.id, j.shape),
                events: j.events.events(),
            })
            .collect();
        chrome_trace(&lanes)
    }

    fn count(&self, pred: impl Fn(&JobStatus) -> bool) -> usize {
        self.jobs.iter().filter(|j| pred(&j.status)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redmule::BackendKind;
    use redmule_fp16::vector::GemmShape;
    use redmule_fp16::F16;

    fn result(id: u64, status: JobStatus, cycles: u64) -> JobResult {
        JobResult {
            id,
            backend: BackendKind::CycleAccurate,
            format: redmule::Format::Fp16,
            shape: GemmShape::new(2, 2, 2),
            z: vec![F16::ONE; 4],
            cycles,
            macs: 8,
            stall_cycles: 1,
            status,
            degraded: false,
            retries: 0,
            backoff_cycles: 0,
            fault_events: 0,
            tiles_done: 1,
            tiles_total: 1,
            events: redmule::obs::EventLog::new(),
        }
    }

    #[test]
    fn aggregates_and_sorting() {
        let report = BatchReport::new(vec![
            result(2, JobStatus::Completed, 100),
            result(0, JobStatus::Failed("boom".into()), 0),
            result(1, JobStatus::Completed, 50),
        ]);
        assert_eq!(
            report.jobs.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(report.total_cycles(), 150);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.failed(), 1);
        assert!(!report.all_completed());
    }

    #[test]
    fn canonical_json_is_stable_and_integer_only() {
        let report = BatchReport::new(vec![result(0, JobStatus::Completed, 10)]);
        let json = report.to_canonical_json();
        assert_eq!(json, report.to_canonical_json());
        assert!(json.starts_with("{\"jobs\":["));
        assert!(json.contains("\"status\":\"completed\""));
        assert!(json.contains("\"z_fnv64\":\"0x"));
        assert!(json.ends_with("}}"));
        // No floating-point fields may leak into the canonical form.
        assert!(!json.contains('.'), "canonical JSON must be integer-only");
    }

    #[test]
    fn utilization_is_bounded() {
        let cfg = AccelConfig::paper();
        let full = BatchReport::new(vec![result(0, JobStatus::Completed, 8)]);
        // 8 macs in 8 cycles on a 32-MAC/cycle instance.
        let u = full.utilization(&cfg);
        assert!((u - 8.0 / (32.0 * 8.0)).abs() < 1e-12);
        let empty = BatchReport::new(Vec::new());
        assert_eq!(empty.utilization(&cfg), 0.0);
    }

    #[test]
    fn empty_batch_is_well_defined() {
        let empty = BatchReport::new(Vec::new());
        assert!(
            !empty.all_completed(),
            "an empty batch completed no jobs and must not claim success"
        );
        assert_eq!(empty.completed(), 0);
        assert_eq!(empty.degraded(), 0);
        assert_eq!(empty.failed(), 0);
        assert_eq!(empty.total_cycles(), 0);
        assert_eq!(empty.total_macs(), 0);
        assert_eq!(empty.total_stall_cycles(), 0);
        assert_eq!(empty.total_fault_events(), 0);
        assert_eq!(
            empty.to_canonical_json(),
            "{\"jobs\":[],\"totals\":{\"jobs\":0,\"completed\":0,\"degraded\":0,\
             \"failed\":0,\"cycles\":0,\"macs\":0,\"stall_cycles\":0,\"backoff_cycles\":0,\
             \"fault_events\":0}}"
        );
    }

    #[test]
    fn all_failed_batch_is_well_defined() {
        let report = BatchReport::new(vec![
            result(0, JobStatus::Failed("stage".into()), 0),
            result(1, JobStatus::Panicked("sim".into()), 0),
        ]);
        assert!(!report.all_completed());
        assert_eq!(report.completed(), 0);
        assert_eq!(report.failed(), 2);
        assert_eq!(report.total_cycles(), 0);
        // Zero total cycles must not divide-by-zero the utilization.
        assert_eq!(report.utilization(&AccelConfig::paper()), 0.0);
        let json = report.to_canonical_json();
        assert!(json.contains("\"failed\":2"), "{json}");
        assert!(json.contains("\"completed\":0"), "{json}");
        assert_eq!(json, report.to_canonical_json());
    }

    #[test]
    fn chrome_trace_of_untraced_report_is_valid_and_empty() {
        let report = BatchReport::new(vec![result(0, JobStatus::Completed, 10)]);
        let json = report.chrome_trace();
        let summary = redmule::obs::validate_chrome_trace(&json).expect("valid chrome JSON");
        assert_eq!(summary.lanes, 1);
        assert_eq!(summary.events, 0, "untraced jobs contribute no events");
    }
}
