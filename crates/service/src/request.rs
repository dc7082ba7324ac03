//! Offered-load scripts: submissions, rejection types and job outcomes.

use redmule::{BackendKind, FaultSite};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::F16;
use std::fmt;

/// One entry of an offered-load script: a GEMM request from a tenant,
/// arriving at a virtual cycle, with an optional absolute deadline.
///
/// Operands are generated deterministically from `seed` (see
/// [`Submission::operands`]) so a script is a compact, reproducible
/// description of load — the same script replays to the same bytes.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Caller-chosen id, unique within one script. All results are keyed
    /// by this id.
    pub id: u64,
    /// Submitting tenant; must exist in the service's tenant table.
    pub tenant: u32,
    /// Virtual cycle the submission arrives at the front end.
    pub arrival_cycle: u64,
    /// Problem shape (`M x N x K`).
    pub shape: GemmShape,
    /// Seed for deterministic operand generation.
    pub seed: u32,
    /// Absolute virtual-cycle deadline (`None` = best effort). A
    /// submission that cannot meet its deadline even on an idle server
    /// is rejected up front as infeasible.
    pub deadline_cycle: Option<u64>,
    /// Execution model for the uninterrupted path. Preempted or evicted
    /// jobs always replay on the cycle-accurate engine, which is
    /// bit-exact with the functional model.
    pub backend: BackendKind,
    /// Raw fault strikes to arm (cycle-addressed). Non-empty strikes
    /// force the cycle-accurate supervised path.
    pub faults: Vec<(u64, FaultSite)>,
}

impl Submission {
    /// A fault-free, best-effort, cycle-accurate submission.
    pub fn new(id: u64, tenant: u32, arrival_cycle: u64, shape: GemmShape) -> Submission {
        Submission {
            id,
            tenant,
            arrival_cycle,
            shape,
            seed: id as u32,
            deadline_cycle: None,
            backend: BackendKind::CycleAccurate,
            faults: Vec::new(),
        }
    }

    /// Sets the operand-generation seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u32) -> Submission {
        self.seed = seed;
        self
    }

    /// Sets an absolute virtual-cycle deadline.
    #[must_use]
    pub fn with_deadline_cycle(mut self, cycle: u64) -> Submission {
        self.deadline_cycle = Some(cycle);
        self
    }

    /// Selects the execution model for the uninterrupted path.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Submission {
        self.backend = backend;
        self
    }

    /// Arms raw fault strikes (forces the supervised cycle-accurate
    /// path).
    #[must_use]
    pub fn with_faults(mut self, faults: Vec<(u64, FaultSite)>) -> Submission {
        self.faults = faults;
        self
    }

    /// Deterministically generates the `X` and `W` operands from the
    /// submission's seed: a multiplicative-hash stream mapped into
    /// `[-0.5, 0.5)` at 1/64 granularity, the same family the repo's
    /// batch tests use. A pure function of `(seed, shape)`.
    pub fn operands(&self) -> (Vec<F16>, Vec<F16>) {
        let gen = |len: usize, s: u32| -> Vec<F16> {
            (0..len)
                .map(|i| {
                    let h = (i as u32)
                        .wrapping_add(s.wrapping_mul(0x9E37_79B9))
                        .wrapping_mul(2_654_435_761)
                        >> 17;
                    F16::from_f32((h % 64) as f32 / 64.0 - 0.5)
                })
                .collect()
        };
        (
            gen(self.shape.x_len(), self.seed),
            gen(self.shape.w_len(), self.seed ^ 0x5555),
        )
    }
}

/// Why a submission was turned away at admission. Typed so callers can
/// distinguish "slow down" (quota), "come back later" (queue) and
/// "impossible as asked" (deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The tenant exceeded its in-flight quota or its token bucket
    /// lacked the submission's estimated cycles.
    QuotaExceeded {
        /// The over-quota tenant.
        tenant: u32,
    },
    /// The bounded queue was full and no lower-priority victim existed.
    QueueFull,
    /// The job could not meet its deadline even on an idle server.
    DeadlineInfeasible {
        /// Estimated cycles the job needs.
        needed: u64,
        /// The absolute deadline it asked for.
        deadline: u64,
    },
}

impl Rejected {
    /// Stable lowercase label, used in the canonical report.
    pub fn label(&self) -> &'static str {
        match self {
            Rejected::QuotaExceeded { .. } => "quota",
            Rejected::QueueFull => "queue-full",
            Rejected::DeadlineInfeasible { .. } => "deadline-infeasible",
        }
    }
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QuotaExceeded { tenant } => {
                write!(f, "tenant {tenant} exceeded its quota or rate limit")
            }
            Rejected::QueueFull => write!(f, "admission queue full"),
            Rejected::DeadlineInfeasible { needed, deadline } => {
                write!(f, "deadline {deadline} infeasible: {needed} cycles needed")
            }
        }
    }
}

/// One rejected submission, for the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedRecord {
    /// The submission's id.
    pub id: u64,
    /// The submitting tenant.
    pub tenant: u32,
    /// Virtual cycle of the decision.
    pub cycle: u64,
    /// Why it was turned away.
    pub reason: Rejected,
}

/// Terminal state of an *accepted* job. Every admitted job ends in
/// exactly one of these — the service never silently drops work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceStatus {
    /// Ran to completion; the output is bit-exact with an unloaded run.
    Completed,
    /// Evicted under overload or a lapsed deadline; the partial work is
    /// preserved in a resumable checkpoint.
    Evicted,
    /// Ended in a typed failure (engine error or persistent panic) after
    /// exhausting the retry budget. The payload is the failure message.
    Failed(String),
}

impl ServiceStatus {
    /// Stable lowercase label, used in the canonical report.
    pub fn label(&self) -> &'static str {
        match self {
            ServiceStatus::Completed => "completed",
            ServiceStatus::Evicted => "evicted",
            ServiceStatus::Failed(_) => "failed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operands_are_deterministic_and_sized() {
        let shape = GemmShape::new(4, 8, 6);
        let a = Submission::new(1, 0, 0, shape).with_seed(42);
        let b = Submission::new(2, 0, 9, shape).with_seed(42);
        assert_eq!(a.operands(), b.operands(), "same seed, same operands");
        let (x, w) = a.operands();
        assert_eq!(x.len(), shape.x_len());
        assert_eq!(w.len(), shape.w_len());
        let c = a.clone().with_seed(43);
        assert_ne!(a.operands(), c.operands(), "different seed differs");
    }

    #[test]
    fn rejection_labels_are_distinct() {
        let labels = [
            Rejected::QuotaExceeded { tenant: 0 }.label(),
            Rejected::QueueFull.label(),
            Rejected::DeadlineInfeasible {
                needed: 1,
                deadline: 0,
            }
            .label(),
        ];
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
