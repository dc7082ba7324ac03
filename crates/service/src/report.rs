//! The deterministic service report and its canonical serialization.

use crate::request::{RejectedRecord, ServiceStatus};
use redmule_hwsim::fnv1a64;
use std::fmt::Write as _;

/// Final record of one *accepted* job.
#[derive(Debug, Clone)]
pub struct ServiceJobRecord {
    /// Submission id.
    pub id: u64,
    /// Submitting tenant.
    pub tenant: u32,
    /// Terminal state (completed bit-exact, evicted-with-checkpoint, or
    /// typed failure).
    pub status: ServiceStatus,
    /// Virtual cycle of admission (= arrival for accepted work).
    pub admitted_cycle: u64,
    /// Virtual cycle the job reached its terminal state.
    pub finished_cycle: u64,
    /// Analytical cycle estimate charged at admission.
    pub estimate: u64,
    /// Simulated cycles the real execution actually ran.
    pub executed_cycles: u64,
    /// Times the job was preempted off a server.
    pub preemptions: u32,
    /// Checkpoint migrations performed during the replay (serialize,
    /// move to a fresh engine/cluster, resume).
    pub migrations: u32,
    /// Service-level re-queues after typed failures.
    pub service_retries: u32,
    /// Supervisor-level rollback retries across all execution attempts.
    pub supervisor_retries: u32,
    /// Deterministic backoff charged, in simulated cycles (service-level
    /// re-queue delay plus supervisor-level rollback charge).
    pub backoff_cycles: u64,
    /// Output tiles completed when the job stopped.
    pub tiles_done: usize,
    /// Total output tiles of the job.
    pub tiles_total: usize,
    /// Fault events observed during execution.
    pub fault_events: u64,
    /// Output length (full for completed, partial for evicted).
    pub z_len: usize,
    /// FNV-1a-64 digest of the output bits.
    pub z_fnv64: u64,
    /// Serialized resume checkpoint for evicted (and some failed) jobs.
    pub checkpoint: Option<Vec<u8>>,
}

impl ServiceJobRecord {
    /// Virtual-clock latency from admission to the terminal state.
    fn latency_cycles(&self) -> u64 {
        self.finished_cycle.saturating_sub(self.admitted_cycle)
    }
}

/// Per-tenant admission and outcome counters — the fairness view.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant id.
    pub id: u32,
    /// Shedding priority, echoed for the report reader.
    pub priority: u8,
    /// Submissions offered.
    pub submitted: u64,
    /// Submissions admitted.
    pub admitted: u64,
    /// Rejections charged to quota or rate limit.
    pub rejected_quota: u64,
    /// Rejections from a full queue.
    pub rejected_queue_full: u64,
    /// Rejections for infeasible deadlines.
    pub rejected_deadline: u64,
    /// Jobs completed bit-exact.
    pub completed: u64,
    /// Jobs evicted with a checkpoint.
    pub evicted: u64,
    /// Jobs ended in a typed failure.
    pub failed: u64,
    /// Preemptions suffered.
    pub preemptions: u64,
    /// Virtual cycles of completed work served to this tenant.
    pub served_cycles: u64,
}

/// Outcome of one [`ServiceSim`](crate::ServiceSim) replay.
///
/// Every field — and every byte of
/// [`ServiceReport::to_canonical_json`] — is a pure function of the
/// `(config, script)` pair. The host worker count only parallelises the
/// replay of per-job executions, which are independent; it never appears
/// in the report (pinned by the crate's determinism tests).
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Accepted jobs, sorted by id.
    pub jobs: Vec<ServiceJobRecord>,
    /// Rejected submissions, sorted by id.
    pub rejected: Vec<RejectedRecord>,
    /// Per-tenant fairness counters, sorted by tenant id.
    pub tenants: Vec<TenantStats>,
    /// Virtual cycle of the last event in the replay.
    pub makespan_cycle: u64,
}

impl ServiceReport {
    /// Jobs that completed bit-exact.
    pub fn completed(&self) -> usize {
        self.count(|s| matches!(s, ServiceStatus::Completed))
    }

    /// Jobs evicted with a checkpoint.
    pub fn evicted(&self) -> usize {
        self.count(|s| matches!(s, ServiceStatus::Evicted))
    }

    /// Jobs that ended in a typed failure.
    pub fn failed(&self) -> usize {
        self.count(|s| matches!(s, ServiceStatus::Failed(_)))
    }

    /// Total preemptions across accepted jobs.
    pub fn total_preemptions(&self) -> u64 {
        self.jobs.iter().map(|j| u64::from(j.preemptions)).sum()
    }

    /// Total retries (service-level plus supervisor-level).
    fn total_retries(&self) -> u64 {
        self.jobs
            .iter()
            .map(|j| u64::from(j.service_retries) + u64::from(j.supervisor_retries))
            .sum()
    }

    /// Total deterministic backoff charged, in simulated cycles.
    pub fn total_backoff_cycles(&self) -> u64 {
        self.jobs.iter().map(|j| j.backoff_cycles).sum()
    }

    /// Sorted completion latencies (virtual cycles) of completed jobs.
    fn completed_latencies(&self) -> Vec<u64> {
        let mut lat: Vec<u64> = self
            .jobs
            .iter()
            .filter(|j| matches!(j.status, ServiceStatus::Completed))
            .map(ServiceJobRecord::latency_cycles)
            .collect();
        lat.sort_unstable();
        lat
    }

    /// Nearest-rank latency percentile over completed jobs (`p` in
    /// 1..=100), 0 when nothing completed. Integer in, integer out.
    pub fn latency_percentile(&self, p: u32) -> u64 {
        let lat = self.completed_latencies();
        if lat.is_empty() {
            return 0;
        }
        let p = u64::from(p.clamp(1, 100));
        let rank = (p * lat.len() as u64).div_ceil(100).max(1) as usize;
        lat[rank - 1]
    }

    /// Rejected submissions per 1000 offered (integer per-mille), 0 for
    /// an empty script.
    pub fn rejection_per_mille(&self) -> u64 {
        let offered = (self.jobs.len() + self.rejected.len()) as u64;
        if offered == 0 {
            return 0;
        }
        self.rejected.len() as u64 * 1000 / offered
    }

    /// Canonical JSON serialization: integer-only fields in a fixed
    /// order, checkpoints folded to length + digest, statuses reduced to
    /// stable labels. Byte-identical for any host worker count.
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::from("{\"jobs\":[");
        for (i, j) in self.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (ckpt_len, ckpt_fnv) = match &j.checkpoint {
                Some(bytes) => (bytes.len(), fnv1a64(bytes)),
                None => (0, 0),
            };
            let _ = write!(
                out,
                "{{\"id\":{},\"tenant\":{},\"status\":\"{}\",\"admitted\":{},\
                 \"finished\":{},\"latency\":{},\"estimate\":{},\"executed\":{},\
                 \"preemptions\":{},\"migrations\":{},\"service_retries\":{},\
                 \"supervisor_retries\":{},\"backoff_cycles\":{},\"fault_events\":{},\
                 \"tiles_done\":{},\"tiles_total\":{},\"ckpt_len\":{},\
                 \"ckpt_fnv64\":\"{:#018x}\",\"z_len\":{},\"z_fnv64\":\"{:#018x}\"}}",
                j.id,
                j.tenant,
                j.status.label(),
                j.admitted_cycle,
                j.finished_cycle,
                j.latency_cycles(),
                j.estimate,
                j.executed_cycles,
                j.preemptions,
                j.migrations,
                j.service_retries,
                j.supervisor_retries,
                j.backoff_cycles,
                j.fault_events,
                j.tiles_done,
                j.tiles_total,
                ckpt_len,
                ckpt_fnv,
                j.z_len,
                j.z_fnv64,
            );
        }
        out.push_str("],\"rejected\":[");
        for (i, r) in self.rejected.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"tenant\":{},\"cycle\":{},\"reason\":\"{}\"}}",
                r.id,
                r.tenant,
                r.cycle,
                r.reason.label(),
            );
        }
        out.push_str("],\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"priority\":{},\"submitted\":{},\"admitted\":{},\
                 \"rejected_quota\":{},\"rejected_queue_full\":{},\"rejected_deadline\":{},\
                 \"completed\":{},\"evicted\":{},\"failed\":{},\"preemptions\":{},\
                 \"served_cycles\":{}}}",
                t.id,
                t.priority,
                t.submitted,
                t.admitted,
                t.rejected_quota,
                t.rejected_queue_full,
                t.rejected_deadline,
                t.completed,
                t.evicted,
                t.failed,
                t.preemptions,
                t.served_cycles,
            );
        }
        let _ = write!(
            out,
            "],\"totals\":{{\"offered\":{},\"admitted\":{},\"rejected\":{},\
             \"completed\":{},\"evicted\":{},\"failed\":{},\"preemptions\":{},\
             \"retries\":{},\"backoff_cycles\":{},\"rejection_per_mille\":{},\
             \"latency_p50\":{},\"latency_p95\":{},\"latency_p99\":{},\
             \"makespan\":{}}}}}",
            self.jobs.len() + self.rejected.len(),
            self.jobs.len(),
            self.rejected.len(),
            self.completed(),
            self.evicted(),
            self.failed(),
            self.total_preemptions(),
            self.total_retries(),
            self.total_backoff_cycles(),
            self.rejection_per_mille(),
            self.latency_percentile(50),
            self.latency_percentile(95),
            self.latency_percentile(99),
            self.makespan_cycle,
        );
        out
    }

    fn count(&self, pred: impl Fn(&ServiceStatus) -> bool) -> usize {
        self.jobs.iter().filter(|j| pred(&j.status)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Rejected;

    fn record(id: u64, status: ServiceStatus, admitted: u64, finished: u64) -> ServiceJobRecord {
        ServiceJobRecord {
            id,
            tenant: 0,
            status,
            admitted_cycle: admitted,
            finished_cycle: finished,
            estimate: 100,
            executed_cycles: 100,
            preemptions: 0,
            migrations: 0,
            service_retries: 0,
            supervisor_retries: 0,
            backoff_cycles: 0,
            tiles_done: 1,
            tiles_total: 1,
            fault_events: 0,
            z_len: 4,
            z_fnv64: 7,
            checkpoint: None,
        }
    }

    fn report(jobs: Vec<ServiceJobRecord>) -> ServiceReport {
        ServiceReport {
            jobs,
            rejected: Vec::new(),
            tenants: Vec::new(),
            makespan_cycle: 0,
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let jobs = (0..10)
            .map(|i| record(i, ServiceStatus::Completed, 0, (i + 1) * 10))
            .collect();
        let r = report(jobs);
        assert_eq!(r.latency_percentile(50), 50);
        assert_eq!(r.latency_percentile(95), 100);
        assert_eq!(r.latency_percentile(99), 100);
        assert_eq!(r.latency_percentile(1), 10);
    }

    #[test]
    fn empty_report_is_well_defined() {
        let r = report(Vec::new());
        assert_eq!(r.latency_percentile(50), 0);
        assert_eq!(r.rejection_per_mille(), 0);
        let json = r.to_canonical_json();
        assert!(json.starts_with("{\"jobs\":[]"));
        assert!(!json.contains('.'), "canonical JSON must be integer-only");
        assert_eq!(json, r.to_canonical_json());
    }

    #[test]
    fn rejection_rate_is_per_mille() {
        let mut r = report(vec![record(0, ServiceStatus::Completed, 0, 10)]);
        r.rejected.push(RejectedRecord {
            id: 1,
            tenant: 0,
            cycle: 0,
            reason: Rejected::QueueFull,
        });
        assert_eq!(r.rejection_per_mille(), 500);
    }

    #[test]
    fn canonical_json_covers_every_status() {
        let r = report(vec![
            record(0, ServiceStatus::Completed, 0, 10),
            record(1, ServiceStatus::Evicted, 0, 20),
            record(2, ServiceStatus::Failed("boom".into()), 0, 30),
        ]);
        let json = r.to_canonical_json();
        assert!(json.contains("\"status\":\"completed\""));
        assert!(json.contains("\"status\":\"evicted\""));
        assert!(json.contains("\"status\":\"failed\""));
        // The failure message must not leak into the canonical form
        // (messages can vary in wording; the label is the contract).
        assert!(!json.contains("boom"));
        assert!(!json.contains('.'), "canonical JSON must be integer-only");
    }
}
