//! The deterministic virtual-clock service simulator.
//!
//! [`ServiceSim::run`] replays an offered-load script in two phases:
//!
//! 1. **Timeline** — a pure virtual-time event loop makes every
//!    admission, dispatch, preemption, shed and retry decision using only
//!    the script and the analytical cycle estimates. No real execution
//!    happens here, so the decisions are a pure function of
//!    `(config, script)` — the host worker count cannot influence them.
//! 2. **Replay** — the decided work actually executes: uninterrupted
//!    jobs in parallel through [`BatchExecutor`], preempted jobs as
//!    budgeted supervisor segments with checkpoint *migration* between
//!    fresh engine/cluster instances (bit-exact with an uninterrupted
//!    run), evicted jobs as budget-bounded runs that always yield a
//!    resumable checkpoint. Per-job execution is deterministic and
//!    independent, so the merged [`ServiceReport`] serializes
//!    byte-identically at any worker count.

use crate::config::{bucket_credit, ConfigError, ServiceConfig, TenantConfig};
use crate::durable::Durability;
use crate::report::{ServiceJobRecord, ServiceReport, TenantStats};
use crate::request::{Rejected, RejectedRecord, ServiceStatus, Submission};
use redmule::obs::{EventKind, EventLog, TraceEvent};
use redmule::{
    stage_gemm_workspace_in, AccelConfig, Engine, EngineError, FaultInjector, Format,
    FunctionalGemm,
};
use redmule_batch::{
    fnv1a64_f16, BatchError, BatchExecutor, GemmJob, JobFaults, JobResult, JobStatus,
};
use redmule_runtime::{Checkpoint, Limits, RetryPolicy, StopReason, Supervisor};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A failure of the service harness itself. Per-job execution failures
/// never surface here — they land in the job's [`ServiceStatus`].
#[derive(Debug)]
pub enum ServiceError {
    /// The [`ServiceConfig`] is structurally invalid.
    Config(ConfigError),
    /// The offered-load script is malformed (duplicate ids, unknown
    /// tenants).
    Script(String),
    /// The replay's batch executor failed as a whole.
    Batch(BatchError),
    /// Staging or checkpoint plumbing failed during the replay.
    Engine(EngineError),
    /// A serialised state container failed to decode during replay or
    /// recovery.
    Decode(redmule::DecodeError),
    /// Durable storage failed during a durable run or a recovery.
    Store(redmule_store::StoreError),
    /// The durable journal or checkpoint set cannot support the
    /// requested operation (stale state, mismatched configuration,
    /// unparseable record).
    Recover(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Config(e) => write!(f, "service config: {e}"),
            ServiceError::Script(msg) => write!(f, "service script: {msg}"),
            ServiceError::Batch(e) => write!(f, "service batch replay: {e}"),
            ServiceError::Engine(e) => write!(f, "service engine replay: {e}"),
            ServiceError::Decode(e) => write!(f, "service container decode: {e}"),
            ServiceError::Store(e) => write!(f, "service durable storage: {e}"),
            ServiceError::Recover(msg) => write!(f, "service recovery: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ConfigError> for ServiceError {
    fn from(e: ConfigError) -> ServiceError {
        ServiceError::Config(e)
    }
}

impl From<BatchError> for ServiceError {
    fn from(e: BatchError) -> ServiceError {
        ServiceError::Batch(e)
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> ServiceError {
        ServiceError::Engine(e)
    }
}

impl From<redmule::DecodeError> for ServiceError {
    fn from(e: redmule::DecodeError) -> ServiceError {
        ServiceError::Decode(e)
    }
}

impl From<redmule_store::StoreError> for ServiceError {
    fn from(e: redmule_store::StoreError) -> ServiceError {
        ServiceError::Store(e)
    }
}

/// The multi-tenant GEMM service front end.
///
/// Construct with a validated [`ServiceConfig`], then [`ServiceSim::run`]
/// an offered-load script. The report is byte-deterministic for any
/// [`ServiceSim::with_workers`] setting — workers only parallelise the
/// replay of independent per-job executions.
#[derive(Debug)]
pub struct ServiceSim {
    pub(crate) config: ServiceConfig,
    pub(crate) engine: Engine,
    /// Runs the probe and the bulk replay; its helper threads persist
    /// across runs.
    executor: BatchExecutor,
}

impl ServiceSim {
    /// Creates a simulator over the paper's engine instance.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when the config is structurally invalid.
    pub fn new(config: ServiceConfig) -> Result<ServiceSim, ConfigError> {
        config.validate()?;
        Ok(ServiceSim {
            config,
            engine: Engine::new(AccelConfig::paper()),
            executor: BatchExecutor::new(1),
        })
    }

    /// Replaces the engine template cloned for every job execution.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> ServiceSim {
        self.executor = self.executor.with_engine(engine.clone());
        self.engine = engine;
        self
    }

    /// Sets the host worker count used to parallelise the replay phase.
    /// Does not appear in the report (zero is promoted to one).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> ServiceSim {
        self.executor = BatchExecutor::new(workers.max(1)).with_engine(self.engine.clone());
        self
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Replays `script` and returns the deterministic report.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] on a malformed script or a harness failure.
    /// Per-job execution failures are reported in the corresponding
    /// [`ServiceJobRecord`], never as errors.
    pub fn run(&self, script: &[Submission]) -> Result<ServiceReport, ServiceError> {
        let order = self.validate_script(script)?;
        let probe = self.probe(script, None)?;
        let fails = Self::failure_set(&probe);
        let tl = Timeline::new(&self.config, script, &fails, *self.engine.config()).run(&order);
        self.replay(script, tl, probe, None)
    }

    /// Checks the script (unique ids, known tenants, shapes small enough
    /// to run at FP16 by [`redmule::shape_sizes`]) and returns the
    /// deterministic arrival order `(arrival_cycle, id)`.
    pub(crate) fn validate_script(
        &self,
        script: &[Submission],
    ) -> Result<Vec<usize>, ServiceError> {
        let tenant_ids: BTreeSet<u32> = self.config.tenants.iter().map(|t| t.id).collect();
        let mut ids = BTreeSet::new();
        for s in script {
            if !ids.insert(s.id) {
                return Err(ServiceError::Script(format!(
                    "duplicate submission id {}",
                    s.id
                )));
            }
            if !tenant_ids.contains(&s.tenant) {
                return Err(ServiceError::Script(format!(
                    "submission {} names unknown tenant {}",
                    s.id, s.tenant
                )));
            }
            redmule::shape_sizes(s.shape, Format::Fp16)
                .map_err(|e| ServiceError::Script(format!("submission {}: {e}", s.id)))?;
        }
        let mut order: Vec<usize> = (0..script.len()).collect();
        order.sort_by_key(|&i| (script[i].arrival_cycle, script[i].id));
        Ok(order)
    }

    /// The ids of probed jobs that end in a typed failure.
    pub(crate) fn failure_set(probe: &BTreeMap<u64, JobResult>) -> BTreeSet<u64> {
        probe
            .iter()
            .filter(|(_, r)| r.status != JobStatus::Completed)
            .map(|(id, _)| *id)
            .collect()
    }

    /// The supervisor-level retry policy derived from the service's
    /// deterministic retry knobs.
    fn sup_retry(&self) -> RetryPolicy {
        RetryPolicy::deterministic(
            self.config.retry.max_retries,
            self.config.retry.backoff_cycles,
        )
    }

    fn make_job(&self, sub: &Submission) -> GemmJob {
        let (x, w) = sub.operands();
        let mut job = GemmJob::new(sub.id, sub.shape, x, w)
            .with_backend(sub.backend)
            .with_retry_policy(self.sup_retry())
            .with_checkpoint_interval(1);
        if !sub.faults.is_empty() {
            job = job.with_faults(JobFaults::Raw(sub.faults.clone()));
        }
        job
    }

    /// Pre-executes every faulted submission once so the timeline knows
    /// which jobs end in typed failures (failure is a pure function of
    /// the job, so this probe is deterministic). Fault-free jobs cannot
    /// fail and are not probed. During recovery, jobs whose journaled
    /// execution record will be reused are skipped via `skip`.
    pub(crate) fn probe(
        &self,
        script: &[Submission],
        skip: Option<&BTreeSet<u64>>,
    ) -> Result<BTreeMap<u64, JobResult>, ServiceError> {
        let jobs: Vec<GemmJob> = script
            .iter()
            .filter(|s| !s.faults.is_empty() && !skip.is_some_and(|k| k.contains(&s.id)))
            .map(|s| self.make_job(s))
            .collect();
        if jobs.is_empty() {
            return Ok(BTreeMap::new());
        }
        let outcome = self.executor.run(jobs)?;
        Ok(outcome.report.jobs.into_iter().map(|r| (r.id, r)).collect())
    }

    /// Phase 2: execute the timeline's decisions and merge the report.
    /// With a [`Durability`] context, execution results are journaled
    /// (durable run) or reused from the journal and resumed from durable
    /// checkpoints (recovery).
    pub(crate) fn replay(
        &self,
        script: &[Submission],
        tl: TimelineResult,
        probe: BTreeMap<u64, JobResult>,
        mut durable: Option<&mut Durability<'_>>,
    ) -> Result<ServiceReport, ServiceError> {
        let mut exec: BTreeMap<u64, ExecOut> = BTreeMap::new();
        let mut bulk: Vec<GemmJob> = Vec::new();
        for a in &tl.acc {
            let sub = &script[a.sub];
            // Recovery short-circuit: a journaled execution record makes
            // re-running the job unnecessary.
            if let Some(d) = durable.as_deref_mut() {
                if let Some(e) = d.take_reused(sub.id) {
                    exec.insert(sub.id, e);
                    continue;
                }
            }
            match &a.outcome {
                Some(Outcome::Completed { .. }) if a.segments.len() <= 1 => {
                    if let Some(r) = probe.get(&sub.id) {
                        let e = ExecOut::from_job_result(r);
                        if let Some(d) = durable.as_deref_mut() {
                            d.record_exec(sub.id, &e)?;
                        }
                        exec.insert(sub.id, e);
                    } else {
                        bulk.push(self.make_job(sub));
                    }
                }
                Some(Outcome::Completed { .. }) => {
                    // Preempted but eventually completed: replay the
                    // virtual segments as budgeted supervisor calls with
                    // a checkpoint migration between each.
                    let mut plan: Vec<Option<u64>> = a.segments[..a.segments.len() - 1]
                        .iter()
                        .map(|&v| Some(v))
                        .collect();
                    plan.push(None);
                    let e = self.exec_plan(sub, &plan, durable.as_deref_mut())?;
                    if let Some(d) = durable.as_deref_mut() {
                        d.record_exec(sub.id, &e)?;
                    }
                    exec.insert(sub.id, e);
                }
                Some(Outcome::Evicted { executed, .. }) => {
                    let e = self.exec_plan(sub, &[Some(*executed)], durable.as_deref_mut())?;
                    if let Some(d) = durable.as_deref_mut() {
                        d.record_exec(sub.id, &e)?;
                    }
                    exec.insert(sub.id, e);
                }
                Some(Outcome::Failed { .. }) => {
                    let r = probe.get(&sub.id).ok_or_else(|| {
                        ServiceError::Script(format!("job {} failed without a probe", sub.id))
                    })?;
                    let e = ExecOut::from_job_result(r);
                    if let Some(d) = durable.as_deref_mut() {
                        d.record_exec(sub.id, &e)?;
                    }
                    exec.insert(sub.id, e);
                }
                None => {
                    return Err(ServiceError::Script(format!(
                        "job {} left the timeline without an outcome",
                        sub.id
                    )))
                }
            }
        }
        if !bulk.is_empty() {
            let outcome = self.executor.run(bulk)?;
            let mut results: Vec<&JobResult> = outcome.report.jobs.iter().collect();
            // Journal records must not depend on executor scheduling.
            results.sort_by_key(|r| r.id);
            for r in results {
                let e = ExecOut::from_job_result(r);
                if let Some(d) = durable.as_deref_mut() {
                    d.record_exec(r.id, &e)?;
                }
                exec.insert(r.id, e);
            }
        }

        let mut jobs = Vec::with_capacity(tl.acc.len());
        for a in &tl.acc {
            let sub = &script[a.sub];
            let e = exec.remove(&sub.id).ok_or_else(|| {
                ServiceError::Script(format!("job {} was never executed", sub.id))
            })?;
            let finished = match &a.outcome {
                Some(
                    Outcome::Completed { at }
                    | Outcome::Evicted { at, .. }
                    | Outcome::Failed { at },
                ) => *at,
                None => 0,
            };
            jobs.push(ServiceJobRecord {
                id: sub.id,
                tenant: sub.tenant,
                status: e.status,
                admitted_cycle: a.admitted_at,
                finished_cycle: finished,
                estimate: a.estimate,
                executed_cycles: e.executed_cycles,
                preemptions: a.preemptions,
                migrations: e.migrations,
                service_retries: a.service_retries,
                supervisor_retries: e.sup_retries,
                backoff_cycles: a.backoff_charged + e.backoff,
                tiles_done: e.tiles_done,
                tiles_total: e.tiles_total,
                fault_events: e.fault_events,
                z_len: e.z_len,
                z_fnv64: e.z_fnv,
                checkpoint: e.checkpoint,
            });
        }
        jobs.sort_by_key(|j| j.id);

        let mut rejected = tl.rejected;
        rejected.sort_by_key(|r| r.id);

        // Tenant outcome counters recount from the final records so they
        // always match the per-job statuses (the timeline's prediction
        // can differ for jobs that, e.g., finish inside their eviction
        // budget).
        let mut tenants = tl.tenant_stats;
        for t in &mut tenants {
            t.completed = 0;
            t.evicted = 0;
            t.failed = 0;
        }
        for j in &jobs {
            if let Some(t) = tenants.iter_mut().find(|t| t.id == j.tenant) {
                match j.status {
                    ServiceStatus::Completed => t.completed += 1,
                    ServiceStatus::Evicted => t.evicted += 1,
                    ServiceStatus::Failed(_) => t.failed += 1,
                }
            }
        }
        tenants.sort_by_key(|t| t.id);

        Ok(ServiceReport {
            jobs,
            rejected,
            tenants,
            makespan_cycle: tl.makespan,
            events: tl.events,
        })
    }

    /// Executes one job as a sequence of supervised calls: each
    /// `Some(budget)` entry runs until the budget trips at a tile
    /// boundary, then the checkpoint is serialized, moved to a fresh
    /// engine/cluster pair and resumed (a migration); a trailing `None`
    /// runs to completion. A plan ending on a budget leaves the job
    /// evicted-with-checkpoint.
    ///
    /// With a [`Durability`] context, every migration boundary publishes
    /// a generation-numbered durable checkpoint (durable run), and a
    /// recovery resumes from the newest intact generation instead of
    /// re-executing the earlier segments. Restored runs are bit-exact
    /// with uninterrupted ones, so the returned [`ExecOut`] is identical
    /// either way.
    pub(crate) fn exec_plan(
        &self,
        sub: &Submission,
        plan: &[Option<u64>],
        mut durable: Option<&mut Durability<'_>>,
    ) -> Result<ExecOut, ServiceError> {
        let (x, w) = sub.operands();
        let supervisor = |limits: Limits| {
            Supervisor::new(self.engine.clone())
                .with_retry_policy(self.sup_retry())
                .with_checkpoint_interval(1)
                .with_limits(limits)
        };
        let seed = match durable.as_deref_mut() {
            Some(d) => d.resume_seed(sub.id, plan.len())?,
            None => None,
        };
        let (hw_job, mut mem, mut run, mut migrations, mut sup_retries, mut backoff, mut executed);
        let start_idx;
        match seed {
            Some(s) => {
                // Resume at boundary `generation`: the first `generation`
                // segments already ran before the crash; their counter
                // sums travel in the checkpoint record's meta header.
                let (job2, mut mem2, mut hci2) =
                    stage_gemm_workspace_in(sub.shape, Format::Fp16, &x, &w, None)?;
                let budget = plan.get(s.generation as usize).copied().flatten();
                run = supervisor(limits_for(budget)).resume(&s.checkpoint, &mut mem2, &mut hci2)?;
                hw_job = job2;
                mem = mem2;
                migrations = s.generation;
                sup_retries = s.sup_retries + run.retries;
                backoff = s.backoff.saturating_add(run.backoff_cycles);
                executed = s.executed.saturating_add(run.cycles_executed);
                start_idx = s.generation as usize + 1;
            }
            None => {
                let (job0, mut mem0, mut hci0) =
                    stage_gemm_workspace_in(sub.shape, Format::Fp16, &x, &w, None)?;
                let session = if sub.faults.is_empty() {
                    self.engine.start(job0)?
                } else {
                    self.engine
                        .start_with_faults(job0, FaultInjector::new(sub.faults.clone()))?
                };
                let first = plan.first().copied().flatten();
                run = supervisor(limits_for(first)).run_session(session, &mut mem0, &mut hci0)?;
                hw_job = job0;
                mem = mem0;
                migrations = 0;
                sup_retries = run.retries;
                backoff = run.backoff_cycles;
                executed = run.cycles_executed;
                start_idx = 1;
            }
        }
        for (idx, lim) in plan.iter().enumerate().skip(start_idx) {
            // Only a clean budget stop continues the plan; completion and
            // typed failures are terminal.
            if !matches!(run.stop, StopReason::CycleBudget) {
                break;
            }
            let ckpt = match run.checkpoint.take() {
                Some(c) => c,
                None => {
                    return Err(ServiceError::Engine(EngineError::Snapshot(
                        "degraded run returned no checkpoint".to_owned(),
                    )))
                }
            };
            // Migration: serialize, re-stage a fresh cluster, restore.
            let bytes = ckpt.to_bytes();
            if let Some(d) = durable.as_deref_mut() {
                // Boundary `idx` has `idx` completed segments behind it —
                // that count is its generation number.
                d.publish_boundary(sub.id, idx as u32, executed, sup_retries, backoff, &bytes)?;
            }
            let ckpt = Checkpoint::from_bytes(&bytes)?;
            let (_, mut mem2, mut hci2) =
                stage_gemm_workspace_in(sub.shape, Format::Fp16, &x, &w, None)?;
            run = supervisor(limits_for(*lim)).resume(&ckpt, &mut mem2, &mut hci2)?;
            mem = mem2;
            migrations += 1;
            sup_retries += run.retries;
            backoff += run.backoff_cycles;
            executed += run.cycles_executed;
        }
        let status = match &run.stop {
            StopReason::Completed => ServiceStatus::Completed,
            StopReason::Failed(e) => ServiceStatus::Failed(e.to_string()),
            StopReason::Panicked(m) => ServiceStatus::Failed(m.clone()),
            StopReason::CycleBudget => ServiceStatus::Evicted,
        };
        let checkpoint = if matches!(status, ServiceStatus::Completed) {
            None
        } else {
            run.checkpoint.as_ref().map(Checkpoint::to_bytes)
        };
        if let (Some(d), Some(cb)) = (durable.as_mut(), checkpoint.as_ref()) {
            // The terminal state of an evicted (or failed-with-progress)
            // job is durable too, one generation past the last boundary.
            d.publish_boundary(
                sub.id,
                plan.len() as u32,
                executed,
                sup_retries,
                backoff,
                cb,
            )?;
        }
        let z = mem
            .load_f16_slice(hw_job.z_addr, sub.shape.z_len())
            .map_err(EngineError::from)?;
        Ok(ExecOut {
            status,
            executed_cycles: executed,
            sup_retries,
            backoff,
            fault_events: run.report.faults.events().len() as u64,
            tiles_done: run.tiles_done,
            tiles_total: run.tiles_total,
            migrations,
            z_len: z.len(),
            z_fnv: fnv1a64_f16(&z),
            checkpoint,
        })
    }
}

fn limits_for(budget: Option<u64>) -> Limits {
    match budget {
        Some(b) => Limits::none().with_max_cycles(b),
        None => Limits::none(),
    }
}

/// Result of one per-job execution in the replay phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ExecOut {
    pub(crate) status: ServiceStatus,
    pub(crate) executed_cycles: u64,
    pub(crate) sup_retries: u32,
    pub(crate) backoff: u64,
    pub(crate) fault_events: u64,
    pub(crate) tiles_done: usize,
    pub(crate) tiles_total: usize,
    pub(crate) migrations: u32,
    pub(crate) z_len: usize,
    pub(crate) z_fnv: u64,
    pub(crate) checkpoint: Option<Vec<u8>>,
}

impl ExecOut {
    pub(crate) fn from_job_result(r: &JobResult) -> ExecOut {
        let status = match &r.status {
            JobStatus::Completed => ServiceStatus::Completed,
            JobStatus::Failed(m) | JobStatus::Panicked(m) => ServiceStatus::Failed(m.clone()),
            // Unbudgeted paths cannot stop on a budget; treat anything
            // else defensively as a typed failure carrying the label.
            other => ServiceStatus::Failed(other.label().to_owned()),
        };
        ExecOut {
            status,
            executed_cycles: r.cycles,
            sup_retries: r.retries,
            backoff: r.backoff_cycles,
            fault_events: r.fault_events,
            tiles_done: r.tiles_done,
            tiles_total: r.tiles_total,
            migrations: 0,
            z_len: r.z.len(),
            z_fnv: r.z_checksum(),
            checkpoint: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Phase 1: the virtual-clock timeline.
// ---------------------------------------------------------------------------

/// Terminal state of an accepted job on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    Completed { at: u64 },
    Evicted { at: u64, executed: u64 },
    Failed { at: u64 },
}

/// Timeline bookkeeping for one accepted job.
#[derive(Debug)]
pub(crate) struct Acc {
    sub: usize,
    pub(crate) id: u64,
    tenant_idx: usize,
    tenant_id: u32,
    priority: u8,
    admitted_at: u64,
    estimate: u64,
    remaining: u64,
    deadline: Option<u64>,
    segments: Vec<u64>,
    preemptions: u32,
    service_retries: u32,
    backoff_charged: u64,
    pub(crate) outcome: Option<Outcome>,
}

impl Acc {
    /// Slack of a queued job: deadline minus remaining estimate. The key
    /// is invariant as virtual time advances while the job waits, so a
    /// statically-keyed priority queue stays correctly ordered.
    fn queued_slack(&self) -> u64 {
        match self.deadline {
            Some(d) => d.saturating_sub(self.remaining),
            None => u64::MAX,
        }
    }

    fn executed(&self) -> u64 {
        self.segments.iter().sum()
    }
}

#[derive(Debug, Clone, Copy)]
struct Running {
    acc: usize,
    seg_start: u64,
}

#[derive(Debug)]
struct TenantState {
    cfg: TenantConfig,
    tokens: u64,
    credit_mark: u64,
    in_flight: usize,
    stats: TenantStats,
}

impl TenantState {
    fn refill(&mut self, now: u64) {
        let total = bucket_credit(now, self.cfg.refill_per_kilocycle);
        let add = total.saturating_sub(self.credit_mark);
        self.credit_mark = total;
        self.tokens = self
            .tokens
            .saturating_add(add)
            .min(self.cfg.bucket_capacity);
    }
}

/// What the timeline hands to the replay phase.
#[derive(Debug)]
pub(crate) struct TimelineResult {
    pub(crate) acc: Vec<Acc>,
    rejected: Vec<RejectedRecord>,
    tenant_stats: Vec<TenantStats>,
    events: EventLog,
    pub(crate) makespan: u64,
}

pub(crate) struct Timeline<'a> {
    cfg: &'a ServiceConfig,
    script: &'a [Submission],
    fails: &'a BTreeSet<u64>,
    functional: FunctionalGemm,
    tenant_index: BTreeMap<u32, usize>,
    tenants: Vec<TenantState>,
    acc: Vec<Acc>,
    queue: Vec<usize>,
    servers: Vec<Option<Running>>,
    retries: BTreeMap<(u64, u64), usize>,
    rejected: Vec<RejectedRecord>,
    events: EventLog,
    now: u64,
    makespan: u64,
}

impl<'a> Timeline<'a> {
    pub(crate) fn new(
        cfg: &'a ServiceConfig,
        script: &'a [Submission],
        fails: &'a BTreeSet<u64>,
        accel: AccelConfig,
    ) -> Timeline<'a> {
        let tenant_index: BTreeMap<u32, usize> = cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| (t.id, i))
            .collect();
        let tenants: Vec<TenantState> = cfg
            .tenants
            .iter()
            .map(|t| TenantState {
                cfg: *t,
                tokens: t.bucket_capacity,
                credit_mark: 0,
                in_flight: 0,
                stats: TenantStats {
                    id: t.id,
                    priority: t.priority,
                    ..TenantStats::default()
                },
            })
            .collect();
        Timeline {
            cfg,
            script,
            fails,
            functional: FunctionalGemm::new(accel),
            tenant_index,
            tenants,
            acc: Vec::new(),
            queue: Vec::new(),
            servers: vec![None; cfg.servers],
            retries: BTreeMap::new(),
            rejected: Vec::new(),
            events: EventLog::new(),
            now: 0,
            makespan: 0,
        }
    }

    pub(crate) fn run(mut self, order: &[usize]) -> TimelineResult {
        let mut next_arrival = 0usize;
        loop {
            let completion = self.next_completion();
            let retry = self.retries.keys().next().copied();
            let arrival = order
                .get(next_arrival)
                .map(|&i| self.script[i].arrival_cycle);
            let t = [completion.map(|c| c.0), retry.map(|r| r.0), arrival]
                .into_iter()
                .flatten()
                .min();
            let Some(t) = t else { break };
            self.now = t;
            self.makespan = self.makespan.max(t);
            // Precedence at equal cycles: completions free servers first,
            // then retries re-enqueue, then new arrivals are admitted.
            if let Some((ft, _, s)) = completion {
                if ft == t {
                    self.complete(s);
                    continue;
                }
            }
            if let Some((rt, jid)) = retry {
                if rt == t {
                    if let Some(a) = self.retries.remove(&(rt, jid)) {
                        self.acc[a].remaining = self.acc[a].estimate;
                        self.queue.push(a);
                        self.schedule();
                    }
                    continue;
                }
            }
            if let Some(&i) = order.get(next_arrival) {
                next_arrival += 1;
                self.arrive(i);
            }
        }
        let tenant_stats = self.tenants.into_iter().map(|t| t.stats).collect();
        TimelineResult {
            acc: self.acc,
            rejected: self.rejected,
            tenant_stats,
            events: self.events,
            makespan: self.makespan,
        }
    }

    /// Records a timeline event stamped with the current virtual clock.
    fn record(&mut self, kind: EventKind) {
        self.events.push(TraceEvent {
            cycle: self.now,
            kind,
        });
    }

    /// The earliest `(finish_cycle, job_id, server)` among running jobs;
    /// ties resolve to the lowest job id, keeping the loop deterministic.
    fn next_completion(&self) -> Option<(u64, u64, usize)> {
        self.servers
            .iter()
            .enumerate()
            .filter_map(|(s, r)| {
                r.map(|r| {
                    let a = &self.acc[r.acc];
                    (r.seg_start + a.remaining, a.id, s)
                })
            })
            .min()
    }

    fn complete(&mut self, server: usize) {
        let Some(r) = self.servers[server].take() else {
            return;
        };
        let a = r.acc;
        let seg = self.acc[a].remaining;
        if seg > 0 {
            self.acc[a].segments.push(seg);
        }
        self.acc[a].remaining = 0;
        let id = self.acc[a].id;
        if self.fails.contains(&id) {
            if self.acc[a].service_retries < self.cfg.retry.max_retries {
                self.acc[a].service_retries += 1;
                let k = u64::from(self.acc[a].service_retries);
                let backoff = self.cfg.retry.backoff_cycles.saturating_mul(k);
                self.acc[a].backoff_charged += backoff;
                self.retries
                    .insert((self.now.saturating_add(backoff), id), a);
            } else {
                self.finish_acc(a, Outcome::Failed { at: self.now });
            }
        } else {
            self.finish_acc(a, Outcome::Completed { at: self.now });
        }
        self.schedule();
    }

    fn finish_acc(&mut self, a: usize, out: Outcome) {
        let t = self.acc[a].tenant_idx;
        self.tenants[t].in_flight = self.tenants[t].in_flight.saturating_sub(1);
        if matches!(out, Outcome::Completed { .. }) {
            let served = &mut self.tenants[t].stats.served_cycles;
            *served = served.saturating_add(self.acc[a].estimate);
        }
        self.acc[a].outcome = Some(out);
    }

    fn arrive(&mut self, sub_idx: usize) {
        let sub = &self.script[sub_idx];
        let Some(&t_idx) = self.tenant_index.get(&sub.tenant) else {
            return; // unreachable: the script was validated up front
        };
        self.tenants[t_idx].stats.submitted += 1;
        self.tenants[t_idx].refill(self.now);
        let estimate = self.functional.estimated_cycles(sub.shape).count();

        let over_quota = self.tenants[t_idx].in_flight >= self.tenants[t_idx].cfg.max_in_flight
            || self.tenants[t_idx].tokens < estimate;
        let reject = if over_quota {
            Some(Rejected::QuotaExceeded { tenant: sub.tenant })
        } else if let Some(d) = sub.deadline_cycle {
            (self.now.saturating_add(estimate) > d).then_some(Rejected::DeadlineInfeasible {
                needed: estimate,
                deadline: d,
            })
        } else {
            None
        };
        let reject = match reject {
            Some(r) => Some(r),
            None if self.queue.len() >= self.cfg.queue_capacity => {
                let priority = self.tenants[t_idx].cfg.priority;
                if self.shed_for(priority) {
                    None
                } else {
                    Some(Rejected::QueueFull)
                }
            }
            None => None,
        };

        if let Some(reason) = reject {
            self.record(EventKind::AdmissionRejected {
                tenant: sub.tenant,
                job: sub.id,
                reason: reason.reason(),
            });
            let stats = &mut self.tenants[t_idx].stats;
            match reason {
                Rejected::QuotaExceeded { .. } => stats.rejected_quota += 1,
                Rejected::QueueFull => stats.rejected_queue_full += 1,
                Rejected::DeadlineInfeasible { .. } => {
                    stats.rejected_deadline = stats.rejected_deadline.saturating_add(1);
                }
            }
            self.rejected.push(RejectedRecord {
                id: sub.id,
                tenant: sub.tenant,
                cycle: self.now,
                reason,
            });
            return;
        }

        self.tenants[t_idx].tokens -= estimate;
        self.tenants[t_idx].in_flight += 1;
        self.tenants[t_idx].stats.admitted += 1;
        let a = self.acc.len();
        self.acc.push(Acc {
            sub: sub_idx,
            id: sub.id,
            tenant_idx: t_idx,
            tenant_id: sub.tenant,
            priority: self.tenants[t_idx].cfg.priority,
            admitted_at: self.now,
            estimate,
            remaining: estimate,
            deadline: sub.deadline_cycle,
            segments: Vec::new(),
            preemptions: 0,
            service_retries: 0,
            backoff_charged: 0,
            outcome: None,
        });
        self.record(EventKind::Admitted {
            tenant: sub.tenant,
            job: sub.id,
        });
        self.queue.push(a);
        self.schedule();
    }

    /// Tries to make room for an incoming submission of priority `p` by
    /// evicting a strictly-lower-priority victim: the least-priority,
    /// most-slack queued job first (no progress lost), else the
    /// least-priority, most-slack running job. The victim is never
    /// dropped — it terminates as evicted-with-checkpoint.
    fn shed_for(&mut self, p: u8) -> bool {
        // Queued victims.
        let mut best: Option<(usize, (u8, u64, u64))> = None;
        for (pos, &a) in self.queue.iter().enumerate() {
            let acc = &self.acc[a];
            let key = (acc.priority, acc.queued_slack(), acc.id);
            let better = match &best {
                None => true,
                Some((_, cur)) => shed_key_less(key, *cur),
            };
            if better {
                best = Some((pos, key));
            }
        }
        if let Some((pos, key)) = best {
            if key.0 < p {
                let a = self.queue.remove(pos);
                self.shed_acc(a);
                return true;
            }
        }
        // Running victims: eviction frees a server; the subsequent
        // scheduling pass pulls a queued job onto it, freeing the queue
        // slot the incoming submission needs.
        let mut best: Option<(usize, (u8, u64, u64))> = None;
        for (s, r) in self.servers.iter().enumerate() {
            let Some(r) = r else { continue };
            let acc = &self.acc[r.acc];
            let key = (acc.priority, self.running_slack(r), acc.id);
            let better = match &best {
                None => true,
                Some((_, cur)) => shed_key_less(key, *cur),
            };
            if better {
                best = Some((s, key));
            }
        }
        if let Some((s, key)) = best {
            if key.0 < p {
                if let Some(r) = self.servers[s].take() {
                    let run_len = self.now - r.seg_start;
                    if run_len > 0 {
                        self.acc[r.acc].segments.push(run_len);
                        self.acc[r.acc].remaining -= run_len;
                    }
                    self.shed_acc(r.acc);
                    self.schedule();
                    return self.queue.len() < self.cfg.queue_capacity;
                }
            }
        }
        false
    }

    fn shed_acc(&mut self, a: usize) {
        self.record(EventKind::Shed {
            tenant: self.acc[a].tenant_id,
            job: self.acc[a].id,
        });
        let executed = self.acc[a].executed();
        self.finish_acc(
            a,
            Outcome::Evicted {
                at: self.now,
                executed,
            },
        );
    }

    /// Current slack of a running job: its slack grows as it executes,
    /// so long-running jobs become preferred preemption victims.
    fn running_slack(&self, r: &Running) -> u64 {
        let acc = &self.acc[r.acc];
        match acc.deadline {
            Some(d) => {
                let rem_now = acc.remaining.saturating_sub(self.now - r.seg_start);
                d.saturating_sub(rem_now)
            }
            None => u64::MAX,
        }
    }

    /// The scheduling pass: evict hopeless queued jobs, dispatch the
    /// tightest-slack work onto idle servers, and preempt when a queued
    /// job's slack beats a running job's by more than the margin.
    fn schedule(&mut self) {
        loop {
            // Deadline sweep: a queued job that can no longer meet its
            // deadline is evicted now (with its partial progress) rather
            // than burning a server on a hopeless run.
            let mut i = 0;
            while i < self.queue.len() {
                let a = self.queue[i];
                let hopeless = self.acc[a]
                    .deadline
                    .is_some_and(|d| self.now.saturating_add(self.acc[a].remaining) > d);
                if hopeless {
                    // modelcheck-allow: RM-ERR-001 -- name collision:
                    // Vec::remove returns the element (already held in `a`),
                    // not the store backend's Result-returning `remove`.
                    self.queue.remove(i);
                    self.shed_acc(a);
                } else {
                    i += 1;
                }
            }
            // Best queued job: minimum (slack, id).
            let Some((pos, b)) = self
                .queue
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(_, a)| (self.acc[a].queued_slack(), self.acc[a].id))
            else {
                return;
            };
            if let Some(s) = self.servers.iter().position(Option::is_none) {
                // modelcheck-allow: RM-ERR-001 -- name collision: Vec::remove
                // returns the element (already held in `b`), not the store
                // backend's Result-returning `remove`.
                self.queue.remove(pos);
                self.servers[s] = Some(Running {
                    acc: b,
                    seg_start: self.now,
                });
                continue;
            }
            // Preemption: the worst (most-slack) running job yields when
            // the best queued job beats it by more than the margin.
            let Some((ws, w_acc, w_slack)) = self
                .servers
                .iter()
                .enumerate()
                .filter_map(|(s, r)| r.map(|r| (s, r.acc, self.running_slack(&r))))
                .max_by_key(|&(_, a, slack)| (slack, self.acc[a].id))
            else {
                return;
            };
            let b_slack = self.acc[b].queued_slack();
            if b_slack.saturating_add(self.cfg.preempt_margin) >= w_slack {
                return;
            }
            if let Some(r) = self.servers[ws].take() {
                let run_len = self.now - r.seg_start;
                if run_len > 0 {
                    self.acc[w_acc].segments.push(run_len);
                    self.acc[w_acc].remaining -= run_len;
                }
                self.acc[w_acc].preemptions += 1;
                self.record(EventKind::Preempted {
                    tenant: self.acc[w_acc].tenant_id,
                    job: self.acc[w_acc].id,
                    by: self.acc[b].id,
                });
                // modelcheck-allow: RM-ERR-001 -- name collision: Vec::remove
                // returns the element (already held in `b`), not the store
                // backend's Result-returning `remove`.
                self.queue.remove(pos);
                self.queue.push(w_acc);
                self.servers[ws] = Some(Running {
                    acc: b,
                    seg_start: self.now,
                });
            }
        }
    }
}

/// Shed-victim ordering: lowest priority first, then most slack (least
/// urgent), then highest id — a total, deterministic order.
fn shed_key_less(cand: (u8, u64, u64), cur: (u8, u64, u64)) -> bool {
    (cand.0, u64::MAX - cand.1, u64::MAX - cand.2) < (cur.0, u64::MAX - cur.1, u64::MAX - cur.2)
}
