//! Batch work items and their per-job outcomes.

use redmule::obs::EventLog;
use redmule::{BackendKind, FaultPlan, FaultSite, Format, FtConfig};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::F16;
use redmule_hwsim::fnv1a64;
use redmule_runtime::{Limits, RetryPolicy, StopReason};

/// Fault activity requested for one job.
#[derive(Debug, Clone)]
pub enum JobFaults {
    /// Raw injection: the expanded `(cycle, site)` strikes arm a
    /// [`redmule::FaultInjector`] and the corrupted results land in the
    /// output as hardware would produce them. Runs under the supervisor,
    /// so per-job [`Limits`] and checkpoints still apply.
    Raw(Vec<(u64, FaultSite)>),
    /// Protected execution: the [`FaultPlan`] is injected under one of
    /// the RedMulE-FT modes ([`FtConfig`]), with detection/replay
    /// overhead and telemetry in the result. Runs as a protected session
    /// ([`redmule::Engine::start_ft`]) under the supervisor like every
    /// other engine job: per-job [`Limits`], the [`RetryPolicy`] and the
    /// checkpoint interval apply, and checkpoints fall on verified tile
    /// boundaries. The mode's own per-tile budget
    /// ([`FtConfig::max_retries`]) replays a tile that fails its check;
    /// the supervisor's retries recover watchdog trips and panics from the
    /// last checkpoint.
    Protected {
        /// The seeded fault plan to inject.
        plan: FaultPlan,
        /// Protection mode and retry budget.
        ft: FtConfig,
    },
}

/// One independent GEMM work item: `Z = X * W`, optionally `+ Y`.
///
/// Jobs are self-contained — operands are owned, and every configuration
/// knob is per-job — so a batch can mix shapes, backends, budgets and
/// fault drills freely.
#[derive(Debug, Clone)]
pub struct GemmJob {
    /// Caller-chosen identifier; must be unique within one batch. All
    /// results are keyed and ordered by this id, never by completion
    /// order.
    pub id: u64,
    /// Problem shape (`M x N x K`).
    pub shape: GemmShape,
    /// Input operand `X` (`m x n`, row-major).
    pub x: Vec<F16>,
    /// Weight operand `W` (`n x k`, row-major).
    pub w: Vec<F16>,
    /// Optional accumulate input `Y` (`m x k`, row-major).
    pub y: Option<Vec<F16>>,
    /// TCDM storage format for the operands: FP16, or one of the FP8
    /// formats cast at the engine's castin/castout stages. Operands are
    /// always supplied as FP16 and quantised on staging, so results are
    /// backend-independent for any format.
    pub format: Format,
    /// Execution model. A job with [`JobFaults`] always uses the
    /// cycle-accurate engine — fault injection needs real cycles.
    pub backend: BackendKind,
    /// Supervision budget for the cycle-accurate path. A budget stop
    /// lands at a tile boundary fixed by the job, so it is as
    /// deterministic as a completed run.
    pub limits: Limits,
    /// Optional fault activity.
    pub faults: Option<JobFaults>,
    /// Supervisor checkpoint cadence in tiles (`usize::MAX` = entry
    /// checkpoint only, the cheapest safe setting).
    pub checkpoint_interval: usize,
    /// Supervisor retry policy for the cycle-accurate path. Use
    /// [`RetryPolicy::deterministic`] so recovery delay is charged in
    /// simulated cycles and stays visible in the batch schedule.
    pub retry: RetryPolicy,
}

impl GemmJob {
    /// A plain cycle-accurate job with no budget and no faults.
    pub fn new(id: u64, shape: GemmShape, x: Vec<F16>, w: Vec<F16>) -> GemmJob {
        GemmJob {
            id,
            shape,
            x,
            w,
            y: None,
            format: Format::Fp16,
            backend: BackendKind::CycleAccurate,
            limits: Limits::none(),
            faults: None,
            checkpoint_interval: usize::MAX,
            retry: RetryPolicy::default(),
        }
    }

    /// Selects the execution model.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> GemmJob {
        self.backend = backend;
        self
    }

    /// Selects the TCDM storage format for the operands.
    #[must_use]
    pub fn with_format(mut self, format: Format) -> GemmJob {
        self.format = format;
        self
    }

    /// Adds an accumulate input (`Z = X * W + Y`).
    #[must_use]
    pub fn with_accumulate(mut self, y: Vec<F16>) -> GemmJob {
        self.y = Some(y);
        self
    }

    /// Sets the supervision cycle budget.
    #[must_use]
    pub fn with_limits(mut self, limits: Limits) -> GemmJob {
        self.limits = limits;
        self
    }

    /// Arms fault activity (forces the cycle-accurate engine).
    #[must_use]
    pub fn with_faults(mut self, faults: JobFaults) -> GemmJob {
        self.faults = Some(faults);
        self
    }

    /// Sets the supervisor checkpoint cadence in tiles.
    #[must_use]
    pub fn with_checkpoint_interval(mut self, tiles: usize) -> GemmJob {
        self.checkpoint_interval = tiles;
        self
    }

    /// Sets the supervisor retry policy for the cycle-accurate path.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> GemmJob {
        self.retry = retry;
        self
    }

    /// Checks that the shape is small enough to run on either backend
    /// ([`redmule::shape_sizes`] at the job's format) and the operand
    /// lengths against it.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        let sizes = redmule::shape_sizes(self.shape, self.format)
            .map_err(|e| format!("job {}: {e}", self.id))?;
        let check = |name: &str, expected: usize, got: usize| {
            if expected == got {
                Ok(())
            } else {
                Err(format!(
                    "job {}: operand {name} has {got} elements, shape {} needs {expected}",
                    self.id, self.shape
                ))
            }
        };
        check("X", sizes.x_len, self.x.len())?;
        check("W", sizes.w_len, self.w.len())?;
        if let Some(y) = &self.y {
            check("Y", sizes.z_len, y.len())?;
        }
        Ok(())
    }
}

/// How one job ended — a serializable flavour of
/// [`redmule_runtime::StopReason`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to completion; `z` holds the full result.
    Completed,
    /// Stopped at the cycle budget; `z` is partial, a checkpoint existed.
    CycleBudget,
    /// The simulation panicked persistently (a model bug).
    Panicked(String),
    /// The run failed with an engine error (message retained).
    Failed(String),
}

impl JobStatus {
    /// Stable one-word label used in canonical serializations.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::CycleBudget => "cycle-budget",
            JobStatus::Panicked(_) => "panicked",
            JobStatus::Failed(_) => "failed",
        }
    }

    pub(crate) fn from_stop(stop: StopReason) -> JobStatus {
        match stop {
            StopReason::Completed => JobStatus::Completed,
            StopReason::CycleBudget => JobStatus::CycleBudget,
            StopReason::Panicked(msg) => JobStatus::Panicked(msg),
            StopReason::Failed(e) => JobStatus::Failed(e.to_string()),
        }
    }
}

/// Outcome of one job, independent of which worker ran it and when.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's id.
    pub id: u64,
    /// Execution model that actually ran (faulted jobs report
    /// [`BackendKind::CycleAccurate`] even if functional was requested).
    pub backend: BackendKind,
    /// TCDM storage format the job ran with.
    pub format: Format,
    /// The job's shape.
    pub shape: GemmShape,
    /// Output matrix — complete on [`JobStatus::Completed`], the partial
    /// tile-granular state on degraded stops, empty on failures before
    /// staging.
    pub z: Vec<F16>,
    /// Executed cycles (cycle-accurate) or the analytical estimate
    /// (functional).
    pub cycles: u64,
    /// Useful FMA operations performed.
    pub macs: u64,
    /// Datapath stall cycles (zero on the functional backend).
    pub stall_cycles: u64,
    /// How the job ended.
    pub status: JobStatus,
    /// True when the supervisor cut the run short at a budget.
    pub degraded: bool,
    /// Supervisor retries consumed by panic/watchdog recovery.
    pub retries: u32,
    /// Simulated cycles charged for deterministic retry backoff
    /// ([`redmule_runtime::RetryPolicy::backoff_cycles`]); the virtual
    /// schedule accounts them on top of the executed cycles.
    pub backoff_cycles: u64,
    /// Fault events recorded (injections, detections, corrections).
    pub fault_events: u64,
    /// Output tiles finished.
    pub tiles_done: usize,
    /// Output tiles the job has in total.
    pub tiles_total: usize,
    /// Simulated-cycle trace events, populated only when the batch ran
    /// with [`BatchExecutor::with_event_trace`](crate::BatchExecutor::with_event_trace).
    /// Cycle-accurate jobs record the engine's event stream; functional
    /// jobs carry the analytical model's synthetic tile spans. Depends
    /// only on the job, never on the worker count.
    pub events: EventLog,
}

impl JobResult {
    /// A completed result for `job` on `backend` with every tile done and
    /// nothing computed yet; each execution path overrides what it
    /// measured.
    pub(crate) fn new(job: &GemmJob, backend: BackendKind, tiles_total: usize) -> JobResult {
        JobResult {
            id: job.id,
            backend,
            format: job.format,
            shape: job.shape,
            z: Vec::new(),
            cycles: 0,
            macs: 0,
            stall_cycles: 0,
            status: JobStatus::Completed,
            degraded: false,
            retries: 0,
            backoff_cycles: 0,
            fault_events: 0,
            tiles_done: tiles_total,
            tiles_total,
            events: EventLog::new(),
        }
    }

    /// [`fnv1a64_f16`] of the output.
    pub fn z_checksum(&self) -> u64 {
        fnv1a64_f16(&self.z)
    }
}

/// FNV-1a 64-bit digest of an FP16 slice's little-endian bit patterns —
/// a stable, order-sensitive fingerprint of an output for canonical
/// serializations (the full matrix would bloat them).
pub fn fnv1a64_f16(z: &[F16]) -> u64 {
    let bytes: Vec<u8> = z.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_validation() {
        let shape = GemmShape::new(2, 3, 4);
        let job = GemmJob::new(7, shape, vec![F16::ONE; 6], vec![F16::ONE; 12]);
        assert_eq!(job.id, 7);
        assert_eq!(job.backend, BackendKind::CycleAccurate);
        assert!(job.validate().is_ok());

        let bad = GemmJob::new(8, shape, vec![F16::ONE; 5], vec![F16::ONE; 12]);
        let msg = bad.validate().expect_err("short X must be rejected");
        assert!(msg.contains("job 8"), "{msg}");
        assert!(msg.contains('X'), "{msg}");

        let bad_y = GemmJob::new(9, shape, vec![F16::ONE; 6], vec![F16::ONE; 12])
            .with_accumulate(vec![F16::ONE; 7]);
        assert!(bad_y.validate().is_err());
    }

    #[test]
    fn status_labels_are_stable() {
        assert_eq!(JobStatus::Completed.label(), "completed");
        assert_eq!(JobStatus::CycleBudget.label(), "cycle-budget");
        assert_eq!(JobStatus::Panicked("x".into()).label(), "panicked");
        assert_eq!(JobStatus::Failed("y".into()).label(), "failed");
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let mk = |bits: &[u16]| JobResult {
            id: 0,
            backend: BackendKind::Functional,
            format: Format::Fp16,
            shape: GemmShape::new(1, 1, 2),
            z: bits.iter().map(|b| F16::from_bits(*b)).collect(),
            cycles: 0,
            macs: 0,
            stall_cycles: 0,
            status: JobStatus::Completed,
            degraded: false,
            retries: 0,
            backoff_cycles: 0,
            fault_events: 0,
            tiles_done: 1,
            tiles_total: 1,
            events: EventLog::new(),
        };
        assert_ne!(
            mk(&[0x3C00, 0x4000]).z_checksum(),
            mk(&[0x4000, 0x3C00]).z_checksum()
        );
        assert_eq!(
            mk(&[0x3C00, 0x4000]).z_checksum(),
            mk(&[0x3C00, 0x4000]).z_checksum()
        );
    }
}
