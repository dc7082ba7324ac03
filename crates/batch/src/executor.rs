//! The persistent work-stealing worker pool and per-job execution paths.

use crate::job::{GemmJob, JobFaults, JobResult, JobStatus};
use crate::report::BatchReport;
use redmule::obs::{EventKind, EventLog, TraceEvent};
use redmule::{
    cast, stage_gemm_workspace_in, AccelConfig, BackendKind, Engine, FaultInjector, FunctionalGemm,
    Schedule,
};
use redmule_fp16::F16;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

/// Batch-level misconfiguration or a harness failure. Per-job *execution*
/// failures never surface here — they are recorded in that job's
/// [`JobResult`] so the rest of the batch still completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// `workers == 0`.
    NoWorkers,
    /// Two jobs share an id, which would make result keying ambiguous.
    DuplicateJobId(u64),
    /// A job failed [`GemmJob::validate`] (message names the job).
    InvalidJob(String),
    /// A worker panicked outside the supervisor's panic isolation — a
    /// bug in the executor itself. Carries the panic's message; the
    /// executor stays usable for the next run.
    WorkerPanicked(String),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::NoWorkers => write!(f, "batch executor needs at least one worker"),
            BatchError::DuplicateJobId(id) => write!(f, "duplicate job id {id} in batch"),
            BatchError::InvalidJob(msg) => write!(f, "invalid job: {msg}"),
            BatchError::WorkerPanicked(msg) => write!(f, "batch worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// What the pool's schedule costs, as opposed to what the jobs computed:
/// per-worker simulated busy cycles and job counts. Unlike
/// [`BatchReport`], this varies with the worker count — the schedule
/// *is* the worker count's effect — so it lives outside the canonical
/// report.
///
/// The stats come from a *deterministic virtual replay* of the pool's
/// deal-then-steal policy on per-job simulated cycles, modeling `W`
/// dedicated workers that each advance only while executing a job. The
/// OS threads still run the jobs (that is where host-side wall-clock
/// parallelism comes from), but which thread the host scheduler happened
/// to hand each job does not leak into the stats — on a loaded or
/// single-core host that assignment is timing noise, not a property of
/// the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Number of workers the batch ran with.
    pub workers: usize,
    /// Simulated cycles each worker spends executing jobs, including the
    /// deterministic retry-backoff charge of each job it ran.
    pub per_worker_busy_cycles: Vec<u64>,
    /// Jobs each worker executes (own deque plus steals).
    pub per_worker_jobs: Vec<usize>,
    /// Total simulated cycles charged for deterministic retry backoff
    /// ([`redmule_runtime::RetryPolicy::backoff_cycles`]) across the
    /// batch. Already included in `per_worker_busy_cycles`; broken out so
    /// recovery cost stays visible in the schedule.
    pub backoff_cycles: u64,
}

impl ScheduleStats {
    /// The schedule makespan: the busiest worker's simulated cycles.
    /// With one worker this equals the serial total; with `W` balanced
    /// workers it approaches `total / W`.
    pub fn makespan_cycles(&self) -> u64 {
        self.per_worker_busy_cycles
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Sum of all workers' busy cycles (the serial cost of the batch).
    pub fn total_busy_cycles(&self) -> u64 {
        self.per_worker_busy_cycles.iter().sum()
    }
}

/// Outcome of one batch: the worker-count-invariant [`BatchReport`] and
/// the worker-count-dependent [`ScheduleStats`].
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-job results and aggregates, keyed by job id. Byte-identical
    /// canonical serialization for any worker count.
    pub report: BatchReport,
    /// What the pool did with its workers.
    pub schedule: ScheduleStats,
}

/// A work-stealing pool executing [`GemmJob`]s on per-job engine
/// instances.
///
/// Jobs are dealt round-robin (in id order) onto per-worker deques. A
/// worker pops from the front of its own deque and, when it drains,
/// steals from the back of its peers' — classic deque stealing, so a mix
/// of heavy and light jobs stays balanced without any coordination on
/// the hot path.
///
/// The pool is persistent. The calling thread works as worker 0; the
/// other workers are helper threads that start on the first run with
/// work for them and park between runs, so a run costs a wake-up, not a
/// thread spawn. The host runs at most `min(workers,
/// available_parallelism)` threads and deals over those, while
/// [`ScheduleStats`] still models `workers` dedicated workers. Dropping
/// the executor stops and joins its helpers. Runs from several threads
/// on one executor are serialized.
#[derive(Debug)]
pub struct BatchExecutor {
    workers: usize,
    engine: Engine,
    trace: bool,
    pool: Mutex<Pool>,
}

impl BatchExecutor {
    /// A pool of `workers` workers running the paper's engine instance.
    /// No thread starts until a run has work for one.
    pub fn new(workers: usize) -> BatchExecutor {
        BatchExecutor {
            workers,
            engine: Engine::new(AccelConfig::paper()),
            trace: false,
            pool: Mutex::new(Pool::default()),
        }
    }

    /// Replaces the engine template (instance parameters, streamer
    /// policy, watchdog) cloned for every job.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> BatchExecutor {
        self.engine = engine;
        self
    }

    /// Records per-job trace events (simulated-cycle timestamps) into
    /// each [`JobResult::events`], ready for
    /// [`BatchReport::chrome_trace`]. Off by default: untraced runs pay
    /// no per-tick observation cost.
    #[must_use]
    pub fn with_event_trace(mut self) -> BatchExecutor {
        self.trace = true;
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job and returns the batch outcome.
    ///
    /// Results are keyed by job id: `outcome.report.jobs` is sorted by
    /// id regardless of which worker finished which job first, and the
    /// per-job contents depend only on the job itself (the simulations
    /// share nothing), so the report is deterministic for any worker
    /// count — the property pinned by `tests/determinism.rs`.
    ///
    /// # Errors
    ///
    /// [`BatchError`] on misconfiguration (zero workers, duplicate ids,
    /// malformed operands) or if a worker panics outside a job's own
    /// panic isolation. Per-job execution failures are reported in the
    /// corresponding [`JobResult`], not as errors.
    pub fn run(&self, mut jobs: Vec<GemmJob>) -> Result<BatchOutcome, BatchError> {
        if self.workers == 0 {
            return Err(BatchError::NoWorkers);
        }
        let mut seen = BTreeSet::new();
        for job in &jobs {
            if !seen.insert(job.id) {
                return Err(BatchError::DuplicateJobId(job.id));
            }
            job.validate().map_err(BatchError::InvalidJob)?;
        }
        // Canonical processing order: by id. With round-robin dealing
        // this also spreads a sorted-by-size batch evenly.
        jobs.sort_by_key(|j| j.id);

        let collected = self.execute(jobs)?;

        // The schedule charges each job its executed cycles plus the
        // deterministic retry-backoff cycles its recovery consumed: a
        // worker that spent recovery delay on a job is busy for it.
        let cycles: Vec<u64> = collected
            .iter()
            .map(|r| r.cycles + r.backoff_cycles)
            .collect();
        let backoff_total: u64 = collected.iter().map(|r| r.backoff_cycles).sum();
        let (busy, jobs_run) = virtual_schedule(self.workers, &cycles);
        Ok(BatchOutcome {
            report: BatchReport::new(collected),
            schedule: ScheduleStats {
                workers: self.workers,
                per_worker_busy_cycles: busy,
                per_worker_jobs: jobs_run,
                backoff_cycles: backoff_total,
            },
        })
    }

    /// Runs the id-sorted `jobs` on the caller and the pool's helpers and
    /// returns their results in id order. An empty or 1-job batch, and
    /// any batch of a 1-worker executor, runs on the caller alone.
    fn execute(&self, jobs: Vec<GemmJob>) -> Result<Vec<JobResult>, BatchError> {
        let n_jobs = jobs.len();
        let mut pool = lock(&self.pool);
        let helpers = pool.start(self.workers, n_jobs.saturating_sub(1));
        let batch = Batch::deal(jobs, self.engine.clone(), self.trace, helpers + 1);
        let parts = pool.broadcast(helpers, move |w| batch.work(w));
        drop(pool);
        merge_shares(parts, n_jobs)
    }
}

/// One run as the workers share it: the id-sorted jobs, the engine
/// template and one deque of job indices per host thread.
struct Batch {
    jobs: Vec<GemmJob>,
    engine: Engine,
    trace: bool,
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl Batch {
    /// Deals the job indices round-robin over `threads` deques.
    fn deal(jobs: Vec<GemmJob>, engine: Engine, trace: bool, threads: usize) -> Batch {
        let deques = (0..threads)
            .map(|w| Mutex::new((w..jobs.len()).step_by(threads).collect()))
            .collect();
        Batch {
            jobs,
            engine,
            trace,
            deques,
        }
    }

    /// Worker `w`'s share: its own deque, then steals, until every deque
    /// is empty. Returns `(index, result)` pairs in execution order.
    fn work(&self, w: usize) -> Vec<(usize, JobResult)> {
        let mut done = Vec::new();
        while let Some(idx) = next_job(&self.deques, w) {
            done.push((idx, exec_job(&self.engine, &self.jobs[idx], self.trace)));
        }
        done
    }
}

/// Merges the workers' shares of an `n_jobs` batch into id order. The
/// first panicked share, in worker order, fails the run.
fn merge_shares(
    parts: Vec<Result<Vec<(usize, JobResult)>, String>>,
    n_jobs: usize,
) -> Result<Vec<JobResult>, BatchError> {
    let mut slots: Vec<Option<JobResult>> = vec![None; n_jobs];
    for part in parts {
        for (idx, result) in part.map_err(BatchError::WorkerPanicked)? {
            slots[idx] = Some(result);
        }
    }
    slots
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| BatchError::WorkerPanicked("a job was never executed".to_owned()))
}

/// Helper threads for an executor of `workers` workers on a host with
/// `parallelism` hardware threads: the caller is one worker, and the
/// host never runs more threads than it has.
fn helper_count(workers: usize, parallelism: usize) -> usize {
    workers.min(parallelism).saturating_sub(1)
}

/// One worker's share of one run, as a helper receives it.
type Task = Box<dyn FnOnce() + Send>;

/// A helper thread, parked on its task channel between runs. Closing
/// the channel stops it.
#[derive(Debug)]
struct Helper {
    tasks: Sender<Task>,
    thread: JoinHandle<()>,
}

impl Helper {
    /// Starts a helper, or `None` when the OS refuses the thread.
    fn spawn(index: usize) -> Option<Helper> {
        let (tasks, inbox) = mpsc::channel::<Task>();
        let thread = thread::Builder::new()
            .name(format!("redmule-batch-{index}"))
            .spawn(move || {
                for task in inbox {
                    task();
                }
            })
            .ok()?;
        Some(Helper { tasks, thread })
    }
}

/// An executor's helper threads, started on demand and kept until the
/// executor drops.
#[derive(Debug, Default)]
struct Pool {
    helpers: Vec<Helper>,
    /// Most helpers this executor runs: `None` until a parallel run
    /// asks, lowered when the OS refuses a thread.
    cap: Option<usize>,
}

impl Pool {
    /// Starts helpers until `want` run, within the host cap for
    /// `workers`, and returns how many the run gets.
    fn start(&mut self, workers: usize, want: usize) -> usize {
        if workers <= 1 || want == 0 {
            return 0;
        }
        let cap = *self.cap.get_or_insert_with(|| {
            let parallelism = thread::available_parallelism().map_or(1, |n| n.get());
            helper_count(workers, parallelism)
        });
        while self.helpers.len() < want.min(cap) {
            match Helper::spawn(self.helpers.len() + 1) {
                Some(helper) => self.helpers.push(helper),
                None => {
                    self.cap = Some(self.helpers.len());
                    break;
                }
            }
        }
        want.min(self.helpers.len())
    }

    /// Runs `task(w)` as worker `w`: `w = 0` on the calling thread,
    /// `1..=helpers` on the first `helpers` helpers. Waits for every
    /// helper, then returns each worker's output in worker order, a
    /// panic turned into its message.
    fn broadcast<T, F>(&self, helpers: usize, task: F) -> Vec<Result<T, String>>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        if helpers == 0 {
            return vec![catch(|| task(0))];
        }
        let task = Arc::new(task);
        let (done, finished) = mpsc::channel();
        for (w, helper) in (1..).zip(&self.helpers[..helpers]) {
            let task = Arc::clone(&task);
            let done = done.clone();
            let share: Task = Box::new(move || {
                let out = catch(|| task(w));
                // Let go of the batch before reporting, so the caller
                // frees it.
                drop(task);
                // The caller waits for this message, so it cannot fail.
                done.send((w, out)).ok();
            });
            // A helper that is gone drops its share unrun; the other
            // workers steal that share's jobs.
            helper.tasks.send(share).ok();
        }
        drop(done);
        let mut outs: Vec<Option<Result<T, String>>> = (0..=helpers).map(|_| None).collect();
        outs[0] = Some(catch(|| task(0)));
        // Ends once every helper has reported or dropped its share.
        for (w, out) in finished {
            outs[w] = Some(out);
        }
        outs.into_iter().flatten().collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Close every channel first, so the helpers stop side by side.
        let threads: Vec<JoinHandle<()>> = self.helpers.drain(..).map(|h| h.thread).collect();
        for thread in threads {
            // Tasks catch their panics, so a helper never dies of one;
            // `Drop` has nowhere to report an error anyway.
            thread.join().ok();
        }
    }
}

/// Runs `f`, turning a panic into its message.
fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_message(payload.as_ref()))
}

/// Deterministically replays the pool's deal-then-steal policy on a
/// virtual clock: jobs (indexed in id order, `cycles[i]` = job `i`'s
/// simulated cost) are dealt round-robin, then whichever virtual worker
/// is least busy takes the next job — front of its own deque, back of a
/// peer's once drained. Greedy list scheduling, so workers are never
/// idle while work remains and each worker's finish time equals its busy
/// cycles.
fn virtual_schedule(workers: usize, cycles: &[u64]) -> (Vec<u64>, Vec<usize>) {
    let mut deques: Vec<VecDeque<usize>> = (0..workers)
        .map(|w| (w..cycles.len()).step_by(workers).collect())
        .collect();
    let mut busy = vec![0u64; workers];
    let mut jobs_run = vec![0usize; workers];
    for _ in 0..cycles.len() {
        // Least-busy worker takes the next job; ties break to the
        // lowest index, keeping the replay fully deterministic.
        let w = (0..workers).min_by_key(|&w| (busy[w], w)).unwrap_or(0);
        let idx = match virtual_take(&mut deques, w) {
            Some(i) => i,
            None => break, // unreachable: one deque entry exists per job
        };
        busy[w] += cycles[idx];
        jobs_run[w] += 1;
    }
    (busy, jobs_run)
}

/// The virtual counterpart of [`next_job`]: same deque discipline,
/// without locks.
fn virtual_take(deques: &mut [VecDeque<usize>], w: usize) -> Option<usize> {
    if let Some(idx) = deques[w].pop_front() {
        return Some(idx);
    }
    let n = deques.len();
    for off in 1..n {
        if let Some(idx) = deques[(w + off) % n].pop_back() {
            return Some(idx);
        }
    }
    None
}

/// Pops the next job index for worker `w`: front of its own deque, then
/// steals from the back of its peers'. Returns `None` only when every
/// deque is empty — jobs are never re-enqueued, so emptiness is stable.
fn next_job(deques: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(idx) = lock(&deques[w]).pop_front() {
        return Some(idx);
    }
    let n = deques.len();
    for off in 1..n {
        if let Some(idx) = lock(&deques[(w + off) % n]).pop_back() {
            return Some(idx);
        }
    }
    None
}

/// Mutex lock that survives a poisoned peer: the protected data here is
/// either monotonically drained (deques) or changed one whole helper at
/// a time (the pool), both of which stay consistent across a panic.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Executes one job on a private engine/workspace. Infallible by design:
/// every failure mode lands in the result's [`JobStatus`].
fn exec_job(engine: &Engine, job: &GemmJob, trace: bool) -> JobResult {
    let cfg = *engine.config();
    let tiles_total = Schedule::new(&cfg, job.shape, job.format).n_tiles();
    match (&job.faults, job.backend) {
        (None, BackendKind::Functional) => exec_functional(&cfg, job, tiles_total, trace),
        (Some(JobFaults::Protected { plan, ft }), _) => {
            exec_protected(engine, job, tiles_total, plan, *ft, trace)
        }
        _ => exec_supervised(engine, job, tiles_total, trace),
    }
}

fn exec_functional(cfg: &AccelConfig, job: &GemmJob, tiles_total: usize, trace: bool) -> JobResult {
    let model = FunctionalGemm::new(*cfg);
    let plan = match model.plan(job.shape, job.format, &job.x, &job.w, job.y.as_deref()) {
        Ok(plan) => plan,
        Err(e) => return failed(job, BackendKind::Functional, tiles_total, e.to_string()),
    };
    let mut z = vec![F16::ZERO; job.shape.z_len()];
    for (band, chunk) in z.chunks_mut(plan.band_stride()).enumerate() {
        plan.compute_band_into(band, chunk);
    }
    JobResult {
        z,
        cycles: model.estimated_cycles_format(job.shape, job.format).count(),
        macs: job.shape.macs(),
        events: if trace {
            model.synthetic_events_format(job.shape, job.format)
        } else {
            EventLog::new()
        },
        ..JobResult::new(job, BackendKind::Functional, tiles_total)
    }
}

fn exec_protected(
    engine: &Engine,
    job: &GemmJob,
    tiles_total: usize,
    plan: &redmule::FaultPlan,
    ft: redmule::FtConfig,
    trace: bool,
) -> JobResult {
    let staged = stage_gemm_workspace_in(job.shape, job.format, &job.x, &job.w, job.y.as_deref());
    let (hw_job, mut mem, mut hci) = match staged {
        Ok(t) => t,
        Err(e) => return failed(job, BackendKind::CycleAccurate, tiles_total, e.to_string()),
    };
    match engine.run_ft(hw_job, &mut mem, &mut hci, plan, ft) {
        Ok(report) => {
            // run_ft drives multiple internal sub-runs, so a live event
            // log cannot be threaded through; synthesize Fault events
            // from the merged fault log instead (same cycles, same order).
            let mut events = EventLog::new();
            if trace {
                for ev in report.faults.events() {
                    events.push(TraceEvent {
                        cycle: ev.cycle,
                        kind: EventKind::Fault {
                            class: ev.class,
                            phase: ev.phase,
                        },
                    });
                }
            }
            JobResult {
                z: cast::castin_slice(&mem, job.format, hw_job.z_addr, job.shape.z_len())
                    .unwrap_or_default(),
                cycles: report.cycles.count(),
                macs: report.macs,
                stall_cycles: report.stall_cycles,
                fault_events: report.faults.events().len() as u64,
                events,
                ..JobResult::new(job, BackendKind::CycleAccurate, tiles_total)
            }
        }
        Err(e) => failed(job, BackendKind::CycleAccurate, tiles_total, e.to_string()),
    }
}

fn exec_supervised(engine: &Engine, job: &GemmJob, tiles_total: usize, trace: bool) -> JobResult {
    use redmule_runtime::Supervisor;
    let staged = stage_gemm_workspace_in(job.shape, job.format, &job.x, &job.w, job.y.as_deref());
    let (hw_job, mut mem, mut hci) = match staged {
        Ok(t) => t,
        Err(e) => return failed(job, BackendKind::CycleAccurate, tiles_total, e.to_string()),
    };
    let session = match &job.faults {
        Some(JobFaults::Raw(sites)) => {
            engine.start_with_faults(hw_job, FaultInjector::new(sites.clone()))
        }
        _ => engine.start(hw_job),
    };
    let supervisor = Supervisor::new(engine.clone())
        .with_limits(job.limits)
        .with_retry_policy(job.retry)
        .with_checkpoint_interval(job.checkpoint_interval);
    let run = session.and_then(|mut s| {
        if trace {
            s.record_events();
        }
        supervisor.run_session(s, &mut mem, &mut hci)
    });
    match run {
        Ok(run) => JobResult {
            z: cast::castin_slice(&mem, job.format, hw_job.z_addr, job.shape.z_len())
                .unwrap_or_default(),
            cycles: run.report.cycles.count(),
            macs: run.report.macs,
            stall_cycles: run.report.stall_cycles,
            status: JobStatus::from_stop(run.stop),
            degraded: run.degraded,
            retries: run.retries,
            backoff_cycles: run.backoff_cycles,
            fault_events: run.report.faults.events().len() as u64,
            tiles_done: run.tiles_done,
            events: run.events,
            ..JobResult::new(job, BackendKind::CycleAccurate, run.tiles_total)
        },
        Err(e) => failed(job, BackendKind::CycleAccurate, tiles_total, e.to_string()),
    }
}

fn failed(job: &GemmJob, backend: BackendKind, tiles_total: usize, msg: String) -> JobResult {
    JobResult {
        status: JobStatus::Failed(msg),
        tiles_done: 0,
        ..JobResult::new(job, backend, tiles_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redmule::Format;
    use redmule_fp16::vector::{gemm_golden, GemmShape};
    use redmule_fp16::F16;
    use redmule_runtime::Limits;

    fn data(shape: GemmShape, seed: u32) -> (Vec<F16>, Vec<F16>) {
        let gen = |len: usize, s: u32| -> Vec<F16> {
            (0..len)
                .map(|i| {
                    let h = ((i as u32).wrapping_mul(2654435761) ^ s) >> 17;
                    F16::from_f32((h % 64) as f32 / 64.0 - 0.5)
                })
                .collect()
        };
        (gen(shape.x_len(), seed), gen(shape.w_len(), seed ^ 0x55))
    }

    fn mixed_jobs(n: usize) -> Vec<GemmJob> {
        (0..n as u64)
            .map(|id| {
                let dims = [(4, 8, 6), (8, 16, 16), (3, 5, 21)][id as usize % 3];
                let shape = GemmShape::new(dims.0, dims.1, dims.2);
                let (x, w) = data(shape, id as u32);
                let kind = if id % 2 == 0 {
                    BackendKind::CycleAccurate
                } else {
                    BackendKind::Functional
                };
                GemmJob::new(id, shape, x, w).with_backend(kind)
            })
            .collect()
    }

    #[test]
    fn results_are_keyed_by_id_and_bit_exact() {
        let jobs = mixed_jobs(7);
        let expected: Vec<Vec<u16>> = jobs
            .iter()
            .map(|j| {
                gemm_golden(j.shape, &j.x, &j.w)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect();
        let outcome = BatchExecutor::new(3).run(jobs).expect("batch runs");
        assert!(outcome.report.all_completed());
        for (i, result) in outcome.report.jobs.iter().enumerate() {
            assert_eq!(result.id, i as u64, "results must be ordered by id");
            let got: Vec<u16> = result.z.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expected[i], "job {i} output");
        }
    }

    #[test]
    fn submission_order_does_not_matter() {
        let mut jobs = mixed_jobs(6);
        jobs.reverse();
        let outcome = BatchExecutor::new(2).run(jobs).expect("batch runs");
        let ids: Vec<u64> = outcome.report.jobs.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn misconfiguration_is_rejected() {
        assert!(matches!(
            BatchExecutor::new(0).run(mixed_jobs(1)),
            Err(BatchError::NoWorkers)
        ));
        let mut dup = mixed_jobs(2);
        dup[1].id = dup[0].id;
        assert!(matches!(
            BatchExecutor::new(1).run(dup),
            Err(BatchError::DuplicateJobId(0))
        ));
        let shape = GemmShape::new(2, 2, 2);
        let bad = vec![GemmJob::new(0, shape, vec![F16::ONE; 3], vec![F16::ONE; 4])];
        assert!(matches!(
            BatchExecutor::new(1).run(bad),
            Err(BatchError::InvalidJob(_))
        ));
    }

    #[test]
    fn oversized_shapes_fail_the_batch_before_any_worker_starts() {
        // An element count past usize, and a workspace past the TCDM's
        // 32-bit address space, on either backend and in any format: the
        // whole batch is an `InvalidJob`, never a panic, a wrapped
        // "completed" job or a `WorkerPanicked`.
        for shape in [
            GemmShape::new(1 << 62, 4, 1 << 62),
            GemmShape::new(1 << 31, 0, 1 << 31),
        ] {
            for backend in [BackendKind::Functional, BackendKind::CycleAccurate] {
                for format in Format::ALL {
                    let mut jobs = mixed_jobs(2);
                    jobs.push(
                        GemmJob::new(9, shape, Vec::new(), Vec::new())
                            .with_backend(backend)
                            .with_format(format),
                    );
                    match BatchExecutor::new(2).run(jobs) {
                        Err(BatchError::InvalidJob(msg)) => {
                            assert!(msg.contains("too large"), "{msg}")
                        }
                        other => panic!("{shape} {backend:?} {format}: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn per_job_cycle_budget_degrades_only_that_job() {
        let shape = GemmShape::new(16, 16, 32); // 4 tiles
        let (x, w) = data(shape, 9);
        let jobs = vec![
            GemmJob::new(0, shape, x.clone(), w.clone())
                .with_limits(Limits::none().with_max_cycles(40))
                .with_checkpoint_interval(1),
            GemmJob::new(1, shape, x, w),
        ];
        let outcome = BatchExecutor::new(2).run(jobs).expect("batch runs");
        let budgeted = &outcome.report.jobs[0];
        assert_eq!(budgeted.status, JobStatus::CycleBudget);
        assert!(budgeted.degraded);
        assert!(budgeted.tiles_done < budgeted.tiles_total);
        let free = &outcome.report.jobs[1];
        assert_eq!(free.status, JobStatus::Completed);
        assert_eq!(free.tiles_done, free.tiles_total);
    }

    #[test]
    fn more_workers_shrink_the_makespan() {
        let jobs = mixed_jobs(12);
        let serial = BatchExecutor::new(1).run(jobs.clone()).expect("1 worker");
        let parallel = BatchExecutor::new(4).run(jobs).expect("4 workers");
        assert_eq!(
            serial.schedule.total_busy_cycles(),
            parallel.schedule.total_busy_cycles(),
            "total simulated work is schedule-invariant"
        );
        assert!(
            parallel.schedule.makespan_cycles() < serial.schedule.makespan_cycles(),
            "4 workers must beat 1 worker's makespan"
        );
    }

    #[test]
    fn functional_trace_is_format_aware() {
        use redmule::Format;
        let shape = GemmShape::new(16, 32, 16);
        let (x, w) = data(shape, 3);
        let jobs = vec![GemmJob::new(0, shape, x, w)
            .with_backend(BackendKind::Functional)
            .with_format(Format::Fp8E4M3)];
        let outcome = BatchExecutor::new(1)
            .with_event_trace()
            .run(jobs)
            .expect("traced batch");
        let model = FunctionalGemm::paper_instance();
        let expected = model.synthetic_events_format(shape, Format::Fp8E4M3);
        assert_eq!(outcome.report.jobs[0].events.events(), expected.events());
        assert_ne!(
            expected.events(),
            model.synthetic_events_format(shape, Format::Fp16).events(),
            "FP8 must change the synthetic trace, or this test is vacuous"
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let outcome = BatchExecutor::new(4).run(Vec::new()).expect("empty batch");
        assert_eq!(outcome.report.jobs.len(), 0);
        assert_eq!(outcome.schedule.makespan_cycles(), 0);
    }

    #[test]
    fn schedule_replays_the_jobs_in_id_order() {
        // The report re-sorts by id on its own, so only the schedule can
        // tell whether the merge handed the replay its cycles in id
        // order, the order the deal uses.
        let outcome = BatchExecutor::new(3)
            .run(mixed_jobs(12))
            .expect("batch runs");
        let cycles: Vec<u64> = outcome
            .report
            .jobs
            .iter()
            .map(|r| r.cycles + r.backoff_cycles)
            .collect();
        let (busy, jobs_run) = virtual_schedule(3, &cycles);
        assert_eq!(outcome.schedule.per_worker_busy_cycles, busy);
        assert_eq!(outcome.schedule.per_worker_jobs, jobs_run);
    }

    #[test]
    fn helpers_are_capped_by_the_host() {
        // (workers, available_parallelism) -> helpers: the caller is
        // worker 0, and the host runs no more threads than it has.
        assert_eq!(helper_count(1, 4), 0);
        assert_eq!(helper_count(2, 1), 0);
        assert_eq!(helper_count(8, 2), 1);
        assert_eq!(helper_count(usize::MAX, 2), 1);
    }

    #[test]
    fn empty_and_single_job_batches_run_on_the_caller() {
        let exec = BatchExecutor::new(8);
        exec.run(Vec::new()).expect("empty batch");
        exec.run(mixed_jobs(1)).expect("1-job batch");
        let pool = lock(&exec.pool);
        assert!(pool.helpers.is_empty());
        assert_eq!(pool.cap, None, "the host was not even asked for threads");
    }

    #[test]
    fn a_panicking_share_fails_the_run_and_the_pool_recovers() {
        let jobs = mixed_jobs(6);
        let reference = BatchExecutor::new(1)
            .run(jobs.clone())
            .expect("1-worker batch")
            .report
            .to_canonical_json();
        let exec = BatchExecutor::new(2);
        let mut pool = lock(&exec.pool);
        // One helper even on a 1-CPU host, so the panic runs on it.
        pool.cap = Some(1);
        assert_eq!(pool.start(exec.workers, 1), 1);
        // A panic on the helper, then one on the caller.
        for victim in [1, 0] {
            let parts = pool.broadcast(1, move |w| -> Vec<(usize, JobResult)> {
                if w == victim {
                    panic!("injected panic in worker {w}");
                }
                Vec::new()
            });
            assert_eq!(
                merge_shares(parts, 0).map(|results| results.len()),
                Err(BatchError::WorkerPanicked(format!(
                    "injected panic in worker {victim}"
                )))
            );
        }
        drop(pool);
        let outcome = exec.run(jobs).expect("the next run works");
        assert_eq!(outcome.report.to_canonical_json(), reference);
        assert_eq!(
            lock(&exec.pool).helpers.len(),
            1,
            "the same helper serves it"
        );
    }
}
