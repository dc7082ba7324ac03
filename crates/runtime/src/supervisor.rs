//! The supervisor: cycle budgets, retries and degradation.

use crate::checkpoint::Checkpoint;
use redmule::{
    cast, stage_gemm_workspace_in, Engine, EngineError, EngineSession, Format, Job, RunReport,
};
use redmule_cluster::{Hci, Tcdm};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::F16;
use redmule_obs::EventLog;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Execution budget for one supervised run. A run that exhausts it is
/// not an error: it is checkpointed and returned as a degraded
/// [`SupervisedRun`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Limits {
    /// Maximum simulated cycles this call may execute (`None` = no
    /// budget). Counted per call, so a resumed run gets a fresh budget.
    pub max_cycles: Option<u64>,
}

impl Limits {
    /// No budget: run to completion.
    pub fn none() -> Limits {
        Limits::default()
    }

    /// Budget on simulated cycles executed by this call.
    #[must_use]
    pub fn with_max_cycles(mut self, cycles: u64) -> Limits {
        self.max_cycles = Some(cycles);
        self
    }
}

/// Bounded retry-with-backoff for recoverable failures (engine watchdog
/// trips and panics inside the simulation). Each retry restores the job
/// from its last checkpoint and clears any armed interconnect-drop fault
/// state — the model-level equivalent of resetting a hung interconnect.
///
/// Backoff is denominated in simulated cycles only: retry `k` is
/// *charged* `k * backoff_cycles` cycles. Nothing sleeps; the charge
/// accumulates in [`SupervisedRun::backoff_cycles`] so schedulers (the
/// batch executor's virtual replay, the service front end) can account
/// the recovery delay on the simulated clock.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum recovery attempts before the run is reported as failed.
    pub max_retries: u32,
    /// Simulated cycles charged for retry `k` (scaled linearly:
    /// `k * backoff_cycles`). Deterministic; accumulated in
    /// [`SupervisedRun::backoff_cycles`].
    pub backoff_cycles: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            backoff_cycles: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy of `max_retries` attempts, each retry `k` charged
    /// `k * backoff_cycles` simulated cycles.
    pub fn deterministic(max_retries: u32, backoff_cycles: u64) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            backoff_cycles,
        }
    }
}

/// Why a supervised run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The job ran to completion.
    Completed,
    /// The [`Limits::max_cycles`] budget was exhausted.
    CycleBudget,
    /// The simulation panicked and the retry budget could not recover it.
    /// The payload is the panic message.
    Panicked(String),
    /// The engine reported an error the retry budget could not recover.
    Failed(EngineError),
}

/// Outcome of one supervised run — always a report, never a lost job.
///
/// A degraded run carries the work completed so far plus everything
/// needed to finish later: a resumable [`Checkpoint`] and an analytical
/// estimate of the remaining cycles.
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// Cycle/MAC/fault report. For a degraded run this covers the work
    /// done *so far* (a partial report).
    pub report: RunReport,
    /// `false` only when the job ran to completion.
    pub degraded: bool,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Simulated cycles this call executed (work rolled back by retries
    /// is excluded).
    pub cycles_executed: u64,
    /// Output tiles fully computed when the run stopped.
    pub tiles_done: usize,
    /// Total output tiles of the job.
    pub tiles_total: usize,
    /// Analytical-model estimate of the cycles still needed to finish
    /// (0 when completed). From the paper's performance model: each
    /// remaining tile costs its compute length plus its store drain.
    pub estimated_remaining_cycles: u64,
    /// Resume point for a degraded run (`None` when completed). Feed it
    /// to [`Supervisor::resume`]; the finished result is bit-identical
    /// to an uninterrupted run.
    pub checkpoint: Option<Checkpoint>,
    /// Recovery attempts consumed (watchdog trips and panics).
    pub retries: u32,
    /// Simulated cycles charged for retry backoff
    /// ([`RetryPolicy::backoff_cycles`], summed over the attempts
    /// consumed). Accounting only: the session's own cycle counter is
    /// untouched, but deterministic schedulers add this to the job's
    /// cost.
    pub backoff_cycles: u64,
    /// Trace events captured during the run when the driven session was
    /// recording events; empty for untraced runs. After a
    /// rollback the stream covers the committed timeline only (from the
    /// restored checkpoint onwards) — events from the rolled-back attempt
    /// are discarded, so the log always matches the state that produced
    /// the report.
    pub events: EventLog,
}

/// Drives [`EngineSession`]s to completion under supervision: an
/// exhausted cycle budget degrades gracefully into a checkpoint, panics
/// are isolated, recoverable errors are retried from the last checkpoint.
///
/// The supervisor checkpoints at tile boundaries (where the engine's
/// micro-architectural state is compact and serialisable); a budget stop
/// is therefore honoured at the next boundary, so where a run stops is a
/// pure function of the job and its budget.
#[derive(Debug, Clone)]
pub struct Supervisor {
    engine: Engine,
    limits: Limits,
    retry: RetryPolicy,
    checkpoint_every: usize,
}

impl Supervisor {
    /// Creates a supervisor with no budget, the default retry policy and
    /// a checkpoint at every tile boundary.
    pub fn new(engine: Engine) -> Supervisor {
        Supervisor {
            engine,
            limits: Limits::none(),
            retry: RetryPolicy::default(),
            checkpoint_every: 1,
        }
    }

    /// Sets the execution budget.
    #[must_use]
    pub fn with_limits(mut self, limits: Limits) -> Supervisor {
        self.limits = limits;
        self
    }

    /// Sets the retry policy.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Supervisor {
        self.retry = retry;
        self
    }

    /// Refreshes the rolling checkpoint every `tiles` completed tiles
    /// (default 1). Larger intervals trade snapshot overhead for a wider
    /// retry rollback window.
    #[must_use]
    pub fn with_checkpoint_interval(mut self, tiles: usize) -> Supervisor {
        self.checkpoint_every = tiles.max(1);
        self
    }

    /// The supervised engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Starts `job` and drives it under supervision.
    ///
    /// # Errors
    ///
    /// Errors only on setup failures ([`EngineError::InvalidJob`], or
    /// [`EngineError::Snapshot`] when the session cannot be checkpointed
    /// at its entry point, e.g. one handed to [`Supervisor::run_session`]
    /// mid-tile). Runtime failures are reported in
    /// [`SupervisedRun::stop`], not as errors.
    pub fn run(
        &self,
        job: Job,
        mem: &mut Tcdm,
        hci: &mut Hci,
    ) -> Result<SupervisedRun, EngineError> {
        let session = self.engine.start(job)?;
        self.drive(session, mem, hci, &mut |_| {})
    }

    /// Drives an already-started session (e.g. one armed with a fault
    /// injector via [`Engine::start_with_faults`]) under supervision.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::run`].
    pub fn run_session(
        &self,
        session: EngineSession,
        mem: &mut Tcdm,
        hci: &mut Hci,
    ) -> Result<SupervisedRun, EngineError> {
        self.drive(session, mem, hci, &mut |_| {})
    }

    /// Like [`Supervisor::run_session`], with an observer invoked before
    /// every tick *inside* the panic-isolation boundary — instrumentation
    /// hooks and fault drills (a panicking observer exercises the same
    /// recovery path as a panicking simulation).
    ///
    /// # Errors
    ///
    /// As [`Supervisor::run`].
    pub fn run_observed(
        &self,
        session: EngineSession,
        mem: &mut Tcdm,
        hci: &mut Hci,
        mut observe: impl FnMut(&EngineSession),
    ) -> Result<SupervisedRun, EngineError> {
        self.drive(session, mem, hci, &mut observe)
    }

    /// Resumes a checkpointed run and drives it under supervision with a
    /// fresh budget. Restores the TCDM/HCI state into `mem`/`hci`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Snapshot`] when the checkpoint does not match the
    /// engine or cluster configuration.
    pub fn resume(
        &self,
        checkpoint: &Checkpoint,
        mem: &mut Tcdm,
        hci: &mut Hci,
    ) -> Result<SupervisedRun, EngineError> {
        let session = checkpoint.restore(&self.engine, mem, hci)?;
        self.drive(session, mem, hci, &mut |_| {})
    }

    /// Runs `Z = X * W` on a fresh operand-sized workspace under
    /// supervision, returning the Z contents (partial for degraded runs)
    /// alongside the run outcome.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShapeMismatch`] for wrong operand lengths; setup
    /// errors as [`Supervisor::run`].
    pub fn gemm(
        &self,
        shape: GemmShape,
        x: &[F16],
        w: &[F16],
    ) -> Result<(Vec<F16>, SupervisedRun), EngineError> {
        self.gemm_in(shape, Format::Fp16, x, w)
    }

    /// As [`Supervisor::gemm`], with the operands stored in `format`:
    /// FP8 storage is narrowed at staging and the result read back
    /// widened to FP16 through the castout image in TCDM.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::gemm`].
    pub fn gemm_in(
        &self,
        shape: GemmShape,
        format: Format,
        x: &[F16],
        w: &[F16],
    ) -> Result<(Vec<F16>, SupervisedRun), EngineError> {
        let (job, mut mem, mut hci) = stage_gemm_workspace_in(shape, format, x, w, None)?;
        let run = self.run(job, &mut mem, &mut hci)?;
        let z = cast::castin_slice(&mem, format, job.z_addr, shape.z_len())?;
        Ok((z, run))
    }

    fn drive(
        &self,
        mut session: EngineSession,
        mem: &mut Tcdm,
        hci: &mut Hci,
        observe: &mut dyn FnMut(&EngineSession),
    ) -> Result<SupervisedRun, EngineError> {
        let start_cycle = session.cycle();
        // The entry point (cycle 0 or a resume point) is always a tile
        // boundary; failing to checkpoint here means the session was
        // handed over mid-tile, which *is* an error.
        let mut last_ckpt = Checkpoint::capture(&mut session, mem, hci)?;
        let mut ckpt_tiles = session.tiles_completed();
        let mut retries = 0u32;
        let mut backoff_charged = 0u64;
        let mut stopping = false;
        let mut overrun: u64 = 0;

        loop {
            if session.is_finished() {
                let cycles_executed = session.cycle().saturating_sub(start_cycle);
                let tiles_done = session.tiles_completed();
                let tiles_total = session.tiles_total();
                let events = session.take_events().unwrap_or_default();
                return Ok(SupervisedRun {
                    report: session.finish(),
                    degraded: false,
                    stop: StopReason::Completed,
                    cycles_executed,
                    tiles_done,
                    tiles_total,
                    estimated_remaining_cycles: 0,
                    checkpoint: None,
                    retries,
                    backoff_cycles: backoff_charged,
                    events,
                });
            }

            if !stopping {
                stopping = self
                    .limits
                    .max_cycles
                    .is_some_and(|max| session.cycle().saturating_sub(start_cycle) >= max);
            }

            if stopping {
                if session.at_tile_boundary() {
                    // Fresh checkpoint right at the stop point; fall back
                    // to the rolling one if this session cannot snapshot.
                    if let Ok(ckpt) = Checkpoint::capture(&mut session, mem, hci) {
                        last_ckpt = ckpt;
                    }
                    return Ok(self.degraded(
                        session,
                        StopReason::CycleBudget,
                        last_ckpt,
                        start_cycle,
                        retries,
                        backoff_charged,
                    ));
                }
                // Search for the next boundary, but never overrun by more
                // than ~two tiles: a hung schedule must not turn a
                // budget stop into an infinite wait.
                overrun += 1;
                let remaining_tiles =
                    (session.tiles_total() - session.tiles_completed()).max(1) as u64;
                let per_tile = session.estimated_remaining_cycles() / remaining_tiles;
                if overrun > 2 * per_tile + 10_000 {
                    return Ok(self.degraded(
                        session,
                        StopReason::CycleBudget,
                        last_ckpt,
                        start_cycle,
                        retries,
                        backoff_charged,
                    ));
                }
            } else if session.at_tile_boundary()
                && session.tiles_completed() >= ckpt_tiles + self.checkpoint_every
            {
                last_ckpt = Checkpoint::capture(&mut session, mem, hci)?;
                ckpt_tiles = session.tiles_completed();
            }

            let outcome = catch_unwind(AssertUnwindSafe(|| {
                observe(&session);
                session.tick(mem, hci, &[])
            }));
            match outcome {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => {
                    if recoverable(&e) && retries < self.retry.max_retries {
                        retries += 1;
                        backoff_charged = backoff_charged.saturating_add(
                            self.retry.backoff_cycles.saturating_mul(u64::from(retries)),
                        );
                        session = self.rollback(&last_ckpt, mem, hci, session.is_recording())?;
                    } else {
                        session = self.rollback(&last_ckpt, mem, hci, session.is_recording())?;
                        return Ok(self.degraded(
                            session,
                            StopReason::Failed(e),
                            last_ckpt,
                            start_cycle,
                            retries,
                            backoff_charged,
                        ));
                    }
                }
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    if retries < self.retry.max_retries {
                        retries += 1;
                        backoff_charged = backoff_charged.saturating_add(
                            self.retry.backoff_cycles.saturating_mul(u64::from(retries)),
                        );
                        session = self.rollback(&last_ckpt, mem, hci, session.is_recording())?;
                    } else {
                        session = self.rollback(&last_ckpt, mem, hci, session.is_recording())?;
                        return Ok(self.degraded(
                            session,
                            StopReason::Panicked(msg),
                            last_ckpt,
                            start_cycle,
                            retries,
                            backoff_charged,
                        ));
                    }
                }
            }
        }
    }

    /// Restores the whole job (session + cluster) from `ckpt` and clears
    /// any armed interconnect-drop fault state — the recovery action for
    /// a hung schedule. When `traced`, a fresh [`EventLog`] is started so
    /// events after the rollback point are captured; the rolled-back
    /// attempt's events are discarded with the old session.
    fn rollback(
        &self,
        ckpt: &Checkpoint,
        mem: &mut Tcdm,
        hci: &mut Hci,
        traced: bool,
    ) -> Result<EngineSession, EngineError> {
        let mut session = ckpt.restore(&self.engine, mem, hci)?;
        if traced {
            session.record_events();
        }
        hci.inject_shallow_drop(0);
        Ok(session)
    }

    fn degraded(
        &self,
        mut session: EngineSession,
        stop: StopReason,
        checkpoint: Checkpoint,
        start_cycle: u64,
        retries: u32,
        backoff_cycles: u64,
    ) -> SupervisedRun {
        let events = session.take_events().unwrap_or_default();
        SupervisedRun {
            report: session.partial_report(),
            degraded: true,
            stop,
            cycles_executed: session.cycle().saturating_sub(start_cycle),
            tiles_done: session.tiles_completed(),
            tiles_total: session.tiles_total(),
            estimated_remaining_cycles: session.estimated_remaining_cycles(),
            checkpoint: Some(checkpoint),
            retries,
            backoff_cycles,
            events,
        }
    }
}

fn recoverable(e: &EngineError) -> bool {
    // A watchdog trip means the schedule hung (dropped interconnect
    // transactions); clearing the drops and replaying from the last
    // checkpoint can genuinely succeed. Everything else is deterministic.
    matches!(e, EngineError::Watchdog { .. })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
