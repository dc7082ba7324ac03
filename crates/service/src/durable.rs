//! Crash-consistent durability for the service: a write-ahead journal
//! of phase-1 decisions plus generation-numbered durable checkpoints,
//! and bit-exact recovery after a crash at any storage write.
//!
//! [`ServiceSim::run_durable`] journals, in order: the configuration,
//! every submission (in deterministic arrival order), a script seal,
//! every scheduling decision, a decision seal, and one execution record
//! per job as the replay finishes it. Because appends are durable in
//! order, any crash leaves a *causally closed prefix*: the submissions
//! recovered from the journal are always the first `k` of the script in
//! arrival order, and every later record only refers to them.
//!
//! [`ServiceSim::recover`] repairs the journal (torn tails are
//! truncated, duplicates ignored — always via typed repair events,
//! never a panic), rebuilds the timeline from the recovered prefix, and
//! replays it — reusing journaled execution records outright and
//! resuming interrupted jobs from the newest intact checkpoint
//! generation (falling back a generation on corruption). The recovered
//! [`ServiceReport`] is **byte-identical** to an uninterrupted
//! [`ServiceSim::run`] over the same prefix; losing a checkpoint
//! generation only costs re-executed cycles, never changed bytes.

use crate::report::ServiceReport;
use crate::request::{ServiceStatus, Submission};
use crate::sim::{ExecOut, Outcome, ServiceError, ServiceSim, Timeline};
use crate::{ServiceConfig, ServiceRetry, TenantConfig};
use redmule::faults::{load_fault_site, save_fault_site};
use redmule::{AccelConfig, BackendKind};
use redmule_fp16::vector::GemmShape;
use redmule_hwsim::snapshot::{Persist, SnapshotError, StateReader, StateWriter};
use redmule_runtime::{Checkpoint, SupervisedRun};
use redmule_store::{CheckpointStore, DamagedGeneration, Journal, StorageBackend};
use std::collections::{BTreeMap, BTreeSet};

/// Object name of the service's write-ahead journal.
pub const JOURNAL_OBJECT: &str = "service.journal";

/// Name prefix of the service's durable checkpoint records.
pub const CHECKPOINT_PREFIX: &str = "service.ckpt";

/// Journal record kinds, in the order a durable run appends them.
const REC_CONFIG: u16 = 1;
const REC_SUBMITTED: u16 = 2;
const REC_SCRIPT_SEALED: u16 = 3;
const REC_DECISION: u16 = 4;
const REC_DECISIONS_SEALED: u16 = 5;
const REC_EXEC_DONE: u16 = 6;

/// Decision tags journaled per accepted job.
const DECISION_COMPLETED: u8 = 0;
const DECISION_EVICTED: u8 = 1;
const DECISION_FAILED: u8 = 2;

/// One typed repair applied during recovery. Recovery never panics on
/// damaged storage and never silently accepts corrupt bytes — every
/// deviation from a clean read is one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairEvent {
    /// What was damaged: `"journal"` or `"checkpoint"`.
    pub artefact: &'static str,
    /// The storage object involved.
    pub object: String,
    /// Human-readable damage description.
    pub damage: String,
    /// What recovery did about it: `"truncated-tail"`,
    /// `"fell-back-generation"`, `"discarded"`, `"ignored-duplicate"` or
    /// `"ignored-unknown-kind"`.
    pub action: &'static str,
}

/// What a recovery pass did, alongside the recovered [`ServiceReport`].
///
/// Kept separate from the service report on purpose: the report must be
/// byte-identical to an uninterrupted run, so recovery bookkeeping can
/// never leak into it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact journal records found (before any damaged tail).
    pub journal_records: u64,
    /// Bytes of torn tail truncated from the journal (0 = clean).
    pub torn_bytes: u64,
    /// Submissions recovered — always the first `k` of the durable
    /// run's script in `(arrival_cycle, id)` order.
    pub submissions_recovered: u64,
    /// Journal records ignored as duplicates or unknown kinds.
    pub records_ignored: u64,
    /// Scheduling decisions recovered from the journal.
    pub decisions_recovered: u64,
    /// Whether the decision set was sealed (complete) in the journal.
    pub decisions_sealed: bool,
    /// Execution records recovered from the journal.
    pub exec_records_recovered: u64,
    /// Jobs whose journaled execution record made re-running unnecessary.
    pub jobs_reused: u64,
    /// Jobs resumed from a durable checkpoint generation.
    pub checkpoints_restored: u64,
    /// Executed cycles that did **not** have to be re-run, thanks to
    /// journaled execution records and restored checkpoints.
    pub cycles_saved: u64,
    /// Every repair applied, in detection order.
    pub repairs: Vec<RepairEvent>,
}

/// Result of [`ServiceSim::recover`]: the recovered service report plus
/// the recovery bookkeeping.
#[derive(Debug)]
pub struct Recovery {
    /// Byte-identical to an uninterrupted run over the recovered prefix.
    pub report: ServiceReport,
    /// What recovery found, repaired, reused and restored.
    pub recovery: RecoveryReport,
}

/// The counter sums over a job's executed plan segments. They lead each
/// published checkpoint record as its meta header, so a resume seeds
/// them and the final record matches an uninterrupted run exactly.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Totals {
    /// Simulated cycles executed.
    pub(crate) executed: u64,
    /// Supervisor retries consumed.
    pub(crate) sup_retries: u32,
    /// Retry-backoff cycles charged.
    pub(crate) backoff: u64,
}

impl Totals {
    /// Adds one supervised segment's counters.
    pub(crate) fn add(&mut self, run: &SupervisedRun) {
        self.executed = self.executed.saturating_add(run.cycles_executed);
        self.sup_retries = self.sup_retries.saturating_add(run.retries);
        self.backoff = self.backoff.saturating_add(run.backoff_cycles);
    }
}

impl Persist for Totals {
    fn write_to(&self, w: &mut StateWriter) {
        w.put(&self.executed);
        w.put(&self.sup_retries);
        w.put(&self.backoff);
    }

    fn read_from(r: &mut StateReader<'_>) -> Result<Totals, SnapshotError> {
        Ok(Totals {
            executed: r.get()?,
            sup_retries: r.get()?,
            backoff: r.get()?,
        })
    }
}

/// A checkpoint resume point handed to `exec_plan` during recovery.
#[derive(Debug)]
pub(crate) struct ResumeSeed {
    /// Segments fully executed before the boundary (also the generation).
    pub(crate) generation: u32,
    /// Counter sums at the boundary.
    pub(crate) totals: Totals,
    /// The decoded checkpoint to resume from.
    pub(crate) checkpoint: Checkpoint,
}

/// Shared durability context threaded through the replay phase: a
/// durable run journals and publishes; a recovery reuses and resumes.
pub(crate) struct Durability<'a> {
    backend: &'a mut dyn StorageBackend,
    store: CheckpointStore,
    journal: Journal,
    /// Durable run: publish checkpoint generations and journal
    /// execution records.
    persist: bool,
    /// Recovery: reuse journaled execution records and resume from
    /// durable checkpoints.
    recovering: bool,
    reuse: BTreeMap<u64, ExecOut>,
    pub(crate) report: RecoveryReport,
}

impl std::fmt::Debug for Durability<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durability")
            .field("persist", &self.persist)
            .field("recovering", &self.recovering)
            .field("reuse", &self.reuse.len())
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

impl<'a> Durability<'a> {
    /// Recovery short-circuit: the journaled execution result for `job`,
    /// if one was recovered.
    pub(crate) fn take_reused(&mut self, job: u64) -> Option<ExecOut> {
        if !self.recovering {
            return None;
        }
        let e = self.reuse.remove(&job)?;
        self.report.jobs_reused += 1;
        self.report.cycles_saved = self.report.cycles_saved.saturating_add(e.executed_cycles);
        Some(e)
    }

    /// Journals one finished execution (durable run only).
    pub(crate) fn record_exec(&mut self, job: u64, e: &ExecOut) -> Result<(), ServiceError> {
        if !self.persist {
            return Ok(());
        }
        self.journal
            .append(&mut *self.backend, REC_EXEC_DONE, &encode_exec(job, e))?;
        Ok(())
    }

    /// Publishes the checkpoint at boundary `generation`, led by the
    /// `totals` accumulated so far (durable run only).
    pub(crate) fn publish_boundary(
        &mut self,
        job: u64,
        generation: u32,
        totals: Totals,
        container: &[u8],
    ) -> Result<(), ServiceError> {
        if !self.persist {
            return Ok(());
        }
        let mut meta = StateWriter::new();
        meta.put(&totals);
        self.store.publish_parts(
            &mut *self.backend,
            job,
            generation,
            &[&meta.finish(), container],
        )?;
        Ok(())
    }

    /// Recovery: the newest intact checkpoint generation of `job`
    /// strictly before the final plan segment, with its meta counters.
    /// Damaged generations are recorded as typed repairs and skipped.
    pub(crate) fn resume_seed(
        &mut self,
        job: u64,
        plan_len: usize,
    ) -> Result<Option<ResumeSeed>, ServiceError> {
        if !self.recovering || plan_len <= 1 {
            return Ok(None);
        }
        let cap = plan_len as u32 - 1;
        let latest = self.store.load_latest(&*self.backend, job, Some(cap))?;
        for d in &latest.damaged {
            self.note_damaged_generation(job, d);
        }
        let Some((generation, payload)) = latest.loaded else {
            return Ok(None);
        };
        let mut r = StateReader::new(&payload);
        let Ok(totals) = r.get::<Totals>() else {
            self.note_discarded(job, generation, "meta header truncated");
            return Ok(None);
        };
        let container = r.take_bytes(r.remaining()).unwrap_or_default();
        let checkpoint = match Checkpoint::from_bytes(container) {
            Ok(c) => c,
            Err(e) => {
                self.note_discarded(job, generation, &e.to_string());
                return Ok(None);
            }
        };
        self.report.checkpoints_restored += 1;
        self.report.cycles_saved = self.report.cycles_saved.saturating_add(totals.executed);
        Ok(Some(ResumeSeed {
            generation,
            totals,
            checkpoint,
        }))
    }

    fn note_damaged_generation(&mut self, job: u64, d: &DamagedGeneration) {
        self.report.repairs.push(RepairEvent {
            artefact: "checkpoint",
            object: self.store.object_name(job, d.generation),
            damage: d.damage.to_string(),
            action: "fell-back-generation",
        });
    }

    fn note_discarded(&mut self, job: u64, generation: u32, damage: &str) {
        self.report.repairs.push(RepairEvent {
            artefact: "checkpoint",
            object: self.store.object_name(job, generation),
            damage: damage.to_owned(),
            action: "discarded",
        });
    }
}

impl ServiceSim {
    /// Runs `script` like [`ServiceSim::run`], journaling every decision
    /// to `backend` as it is made and publishing a durable checkpoint at
    /// every migration boundary. The returned report is identical to a
    /// non-durable run; after a crash at **any** storage write,
    /// [`ServiceSim::recover`] resumes from what reached storage.
    ///
    /// # Errors
    ///
    /// Everything [`ServiceSim::run`] can return, plus
    /// [`ServiceError::Recover`] when the backend already holds durable
    /// state (recover or reset it first) and [`ServiceError::Store`] on
    /// storage failure — including the simulated mid-run crash.
    pub fn run_durable(
        &self,
        script: &[Submission],
        backend: &mut dyn StorageBackend,
    ) -> Result<ServiceReport, ServiceError> {
        let journal = Journal::new(JOURNAL_OBJECT);
        let store = CheckpointStore::new(CHECKPOINT_PREFIX);
        let scan = journal.scan(backend)?;
        if scan.total_len != 0 {
            return Err(ServiceError::Recover(
                "journal is not empty: recover it or reset the backend before a durable run"
                    .to_owned(),
            ));
        }
        if !backend.list(CHECKPOINT_PREFIX)?.is_empty() {
            return Err(ServiceError::Recover(
                "stale checkpoint records present: reset the backend before a durable run"
                    .to_owned(),
            ));
        }
        let order = self.validate_script(script)?;
        // Write-ahead: configuration, then submissions in arrival order,
        // then the seal — any journal prefix is causally closed.
        journal.append(
            backend,
            REC_CONFIG,
            &encode_config(&self.config, self.engine.config()),
        )?;
        for &i in &order {
            journal.append(backend, REC_SUBMITTED, &encode_submission(&script[i]))?;
        }
        journal.append(
            backend,
            REC_SCRIPT_SEALED,
            &(order.len() as u64).to_le_bytes(),
        )?;
        let probe = self.probe(script, None)?;
        let fails = Self::failure_set(&probe);
        let tl = Timeline::new(&self.config, script, &fails, *self.engine.config()).run(&order);
        for a in &tl.acc {
            journal.append(backend, REC_DECISION, &encode_decision(a.id, &a.outcome))?;
        }
        journal.append(backend, REC_DECISIONS_SEALED, &tl.makespan.to_le_bytes())?;
        let mut durable = Durability {
            backend,
            store,
            journal,
            persist: true,
            recovering: false,
            reuse: BTreeMap::new(),
            report: RecoveryReport::default(),
        };
        self.replay(script, tl, probe, Some(&mut durable))
    }

    /// Recovers the durable state on `backend` after a crash: repairs
    /// the journal, rebuilds the timeline from the recovered submission
    /// prefix, reuses journaled execution records, resumes interrupted
    /// jobs from their newest intact checkpoint generation, and returns
    /// a report **byte-identical** to an uninterrupted
    /// [`ServiceSim::run`] over that prefix. An empty journal recovers
    /// to an empty report; recovery never writes to the journal, so it
    /// is idempotent.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Store`] on storage failure,
    /// [`ServiceError::Recover`] when the journal belongs to a different
    /// configuration or a CRC-valid record fails to parse, plus
    /// everything the underlying replay can return. Storage *damage* is
    /// never an error — it becomes typed [`RepairEvent`]s.
    pub fn recover(&self, backend: &mut dyn StorageBackend) -> Result<Recovery, ServiceError> {
        let journal = Journal::new(JOURNAL_OBJECT);
        let store = CheckpointStore::new(CHECKPOINT_PREFIX);
        let mut report = RecoveryReport::default();
        let scan = journal.scan(backend)?;
        report.journal_records = scan.records.len() as u64;
        report.torn_bytes = scan.torn_bytes() as u64;
        if let Some(damage) = &scan.damage {
            report.repairs.push(RepairEvent {
                artefact: "journal",
                object: journal.name().to_owned(),
                damage: damage.to_string(),
                action: "truncated-tail",
            });
            journal.repair(backend, &scan)?;
        }

        let mut config_seen = false;
        let mut script: Vec<Submission> = Vec::new();
        let mut ids: BTreeSet<u64> = BTreeSet::new();
        let mut decisions: BTreeMap<u64, u8> = BTreeMap::new();
        let mut decisions_sealed = false;
        let mut reuse: BTreeMap<u64, ExecOut> = BTreeMap::new();
        for (kind, payload) in &scan.records {
            match *kind {
                REC_CONFIG => {
                    let (cfg, accel) = decode_config(payload)?;
                    if cfg != self.config || accel != *self.engine.config() {
                        return Err(ServiceError::Recover(
                            "journaled configuration does not match this simulator".to_owned(),
                        ));
                    }
                    if config_seen {
                        ignore_duplicate(&mut report, &journal, "configuration record");
                    }
                    config_seen = true;
                }
                REC_SUBMITTED => {
                    let sub = decode_submission(payload)?;
                    if ids.insert(sub.id) {
                        script.push(sub);
                    } else {
                        ignore_duplicate(
                            &mut report,
                            &journal,
                            &format!("submission record for job {}", sub.id),
                        );
                    }
                }
                REC_SCRIPT_SEALED => {}
                REC_DECISION => {
                    let (id, tag) = decode_decision(payload)?;
                    if decisions.insert(id, tag).is_some() {
                        ignore_duplicate(
                            &mut report,
                            &journal,
                            &format!("decision record for job {id}"),
                        );
                    }
                }
                REC_DECISIONS_SEALED => {
                    decisions_sealed = true;
                    decode_u64(payload)?;
                }
                REC_EXEC_DONE => {
                    let (id, e) = decode_exec(payload)?;
                    if reuse.insert(id, e).is_some() {
                        ignore_duplicate(
                            &mut report,
                            &journal,
                            &format!("execution record for job {id}"),
                        );
                    }
                }
                other => {
                    report.records_ignored += 1;
                    report.repairs.push(RepairEvent {
                        artefact: "journal",
                        object: journal.name().to_owned(),
                        damage: format!("unknown record kind {other}"),
                        action: "ignored-unknown-kind",
                    });
                }
            }
        }
        if !config_seen && !scan.records.is_empty() {
            return Err(ServiceError::Recover(
                "journal does not begin with a configuration record".to_owned(),
            ));
        }
        report.submissions_recovered = script.len() as u64;
        report.decisions_recovered = decisions.len() as u64;
        report.decisions_sealed = decisions_sealed;
        report.exec_records_recovered = reuse.len() as u64;

        // Phase 1 over the recovered prefix. With a sealed decision set
        // the failure set comes from the journal and only unreusable
        // faulted jobs are probed; otherwise the probe recomputes it.
        let order = self.validate_script(&script)?;
        let (probe, fails) = if decisions_sealed {
            let skip: BTreeSet<u64> = reuse.keys().copied().collect();
            let probe = self.probe(&script, Some(&skip))?;
            let fails: BTreeSet<u64> = decisions
                .iter()
                .filter(|&(_, &t)| t == DECISION_FAILED)
                .map(|(&id, _)| id)
                .collect();
            (probe, fails)
        } else {
            let probe = self.probe(&script, None)?;
            let fails = Self::failure_set(&probe);
            (probe, fails)
        };
        let tl = Timeline::new(&self.config, &script, &fails, *self.engine.config()).run(&order);
        let mut durable = Durability {
            backend,
            store,
            journal,
            persist: false,
            recovering: true,
            reuse,
            report,
        };
        let service_report = self.replay(&script, tl, probe, Some(&mut durable))?;
        Ok(Recovery {
            report: service_report,
            recovery: durable.report,
        })
    }
}

fn ignore_duplicate(report: &mut RecoveryReport, journal: &Journal, what: &str) {
    report.records_ignored += 1;
    report.repairs.push(RepairEvent {
        artefact: "journal",
        object: journal.name().to_owned(),
        damage: format!("duplicate {what}"),
        action: "ignored-duplicate",
    });
}

// ---------------------------------------------------------------------------
// Record codecs. CRC-valid frames always hold exactly what a durable run
// wrote, so parse failures signal version skew, not random corruption —
// they surface as typed `ServiceError::Recover`, never a panic.
// ---------------------------------------------------------------------------

fn parse_err(record: &str) -> impl Fn(SnapshotError) -> ServiceError + '_ {
    move |e| ServiceError::Recover(format!("unparseable {record} record: {e}"))
}

fn encode_config(cfg: &ServiceConfig, accel: &AccelConfig) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put(&accel.h);
    w.put(&accel.l);
    w.put(&accel.p);
    w.put(&cfg.servers);
    w.put(&cfg.queue_capacity);
    w.put(&cfg.preempt_margin);
    w.put(&cfg.retry.max_retries);
    w.put(&cfg.retry.backoff_cycles);
    w.put(&cfg.tenants.len());
    for t in &cfg.tenants {
        w.put(&t.id);
        w.put(&t.priority);
        w.put(&t.bucket_capacity);
        w.put(&t.refill_per_kilocycle);
        w.put(&t.max_in_flight);
    }
    w.finish()
}

fn decode_config(payload: &[u8]) -> Result<(ServiceConfig, AccelConfig), ServiceError> {
    let err = parse_err("configuration");
    let mut r = StateReader::new(payload);
    let accel = AccelConfig {
        h: r.get().map_err(&err)?,
        l: r.get().map_err(&err)?,
        p: r.get().map_err(&err)?,
    };
    let servers = r.get().map_err(&err)?;
    let queue_capacity = r.get().map_err(&err)?;
    let preempt_margin = r.get().map_err(&err)?;
    let retry = ServiceRetry {
        max_retries: r.get().map_err(&err)?,
        backoff_cycles: r.get().map_err(&err)?,
    };
    let n: usize = r.get().map_err(&err)?;
    let mut tenants = Vec::new();
    for _ in 0..n {
        tenants.push(TenantConfig {
            id: r.get().map_err(&err)?,
            priority: r.get().map_err(&err)?,
            bucket_capacity: r.get().map_err(&err)?,
            refill_per_kilocycle: r.get().map_err(&err)?,
            max_in_flight: r.get().map_err(&err)?,
        });
    }
    r.expect_end().map_err(&err)?;
    Ok((
        ServiceConfig {
            servers,
            queue_capacity,
            preempt_margin,
            retry,
            tenants,
        },
        accel,
    ))
}

fn encode_submission(s: &Submission) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put(&s.id);
    w.put(&s.tenant);
    w.put(&s.arrival_cycle);
    w.put(&s.shape.m);
    w.put(&s.shape.n);
    w.put(&s.shape.k);
    w.put(&s.seed);
    w.put(&s.deadline_cycle);
    let backend: u8 = match s.backend {
        BackendKind::CycleAccurate => 0,
        BackendKind::Functional => 1,
    };
    w.put(&backend);
    w.put(&s.faults.len());
    for &(cycle, site) in &s.faults {
        w.put(&cycle);
        save_fault_site(site, &mut w);
    }
    w.finish()
}

fn decode_submission(payload: &[u8]) -> Result<Submission, ServiceError> {
    let err = parse_err("submission");
    let mut r = StateReader::new(payload);
    let id = r.get().map_err(&err)?;
    let tenant = r.get().map_err(&err)?;
    let arrival_cycle = r.get().map_err(&err)?;
    let shape = GemmShape {
        m: r.get().map_err(&err)?,
        n: r.get().map_err(&err)?,
        k: r.get().map_err(&err)?,
    };
    let seed = r.get().map_err(&err)?;
    let deadline_cycle = r.get().map_err(&err)?;
    let backend = match r.get::<u8>().map_err(&err)? {
        0 => BackendKind::CycleAccurate,
        1 => BackendKind::Functional,
        other => {
            return Err(ServiceError::Recover(format!(
                "unparseable submission record: unknown backend tag {other}"
            )))
        }
    };
    let n: usize = r.get().map_err(&err)?;
    let mut faults = Vec::new();
    for _ in 0..n {
        let cycle = r.get().map_err(&err)?;
        let site = load_fault_site(&mut r).map_err(&err)?;
        faults.push((cycle, site));
    }
    r.expect_end().map_err(&err)?;
    Ok(Submission {
        id,
        tenant,
        arrival_cycle,
        shape,
        seed,
        deadline_cycle,
        backend,
        faults,
    })
}

fn encode_decision(id: u64, outcome: &Option<Outcome>) -> Vec<u8> {
    let tag = match outcome {
        Some(Outcome::Completed { .. }) | None => DECISION_COMPLETED,
        Some(Outcome::Evicted { .. }) => DECISION_EVICTED,
        Some(Outcome::Failed { .. }) => DECISION_FAILED,
    };
    let mut w = StateWriter::new();
    w.put(&id);
    w.put(&tag);
    w.finish()
}

fn decode_decision(payload: &[u8]) -> Result<(u64, u8), ServiceError> {
    let err = parse_err("decision");
    let mut r = StateReader::new(payload);
    let id = r.get().map_err(&err)?;
    let tag = r.get().map_err(&err)?;
    r.expect_end().map_err(&err)?;
    Ok((id, tag))
}

fn decode_u64(payload: &[u8]) -> Result<u64, ServiceError> {
    let err = parse_err("seal");
    let mut r = StateReader::new(payload);
    let v = r.get().map_err(&err)?;
    r.expect_end().map_err(&err)?;
    Ok(v)
}

fn encode_exec(id: u64, e: &ExecOut) -> Vec<u8> {
    let (tag, message): (u8, &str) = match &e.status {
        ServiceStatus::Completed => (0, ""),
        ServiceStatus::Evicted => (1, ""),
        ServiceStatus::Failed(m) => (2, m),
    };
    let mut w = StateWriter::new();
    w.put(&id);
    w.put(&tag);
    w.put(&message.to_owned());
    w.put(&e.executed_cycles);
    w.put(&e.sup_retries);
    w.put(&e.backoff);
    w.put(&e.fault_events);
    w.put(&e.tiles_done);
    w.put(&e.tiles_total);
    w.put(&e.migrations);
    w.put(&e.z_len);
    w.put(&e.z_fnv);
    // The bytes of `put(&e.checkpoint)`, with the container copied in one
    // piece rather than element by element.
    match &e.checkpoint {
        None => w.put(&0u8),
        Some(bytes) => {
            w.put(&1u8);
            w.put_u8s(bytes);
        }
    }
    w.finish()
}

fn decode_exec(payload: &[u8]) -> Result<(u64, ExecOut), ServiceError> {
    let err = parse_err("execution");
    let mut r = StateReader::new(payload);
    let id = r.get().map_err(&err)?;
    let tag: u8 = r.get().map_err(&err)?;
    let message: String = r.get().map_err(&err)?;
    let status = match tag {
        0 => ServiceStatus::Completed,
        1 => ServiceStatus::Evicted,
        2 => ServiceStatus::Failed(message),
        other => {
            return Err(ServiceError::Recover(format!(
                "unparseable execution record: unknown status tag {other}"
            )))
        }
    };
    let e = ExecOut {
        status,
        executed_cycles: r.get().map_err(&err)?,
        sup_retries: r.get().map_err(&err)?,
        backoff: r.get().map_err(&err)?,
        fault_events: r.get().map_err(&err)?,
        tiles_done: r.get().map_err(&err)?,
        tiles_total: r.get().map_err(&err)?,
        migrations: r.get().map_err(&err)?,
        z_len: r.get().map_err(&err)?,
        z_fnv: r.get().map_err(&err)?,
        checkpoint: match r.get::<u8>().map_err(&err)? {
            0 => None,
            1 => Some(r.get_u8s().map_err(&err)?),
            other => {
                return Err(ServiceError::Recover(format!(
                    "unparseable execution record: unknown checkpoint tag {other}"
                )))
            }
        },
    };
    r.expect_end().map_err(&err)?;
    Ok((id, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submission_codec_round_trips() {
        let sub = Submission::new(7, 2, 130, GemmShape::new(8, 10, 12))
            .with_seed(99)
            .with_deadline_cycle(5_000)
            .with_backend(BackendKind::Functional);
        let decoded = decode_submission(&encode_submission(&sub)).unwrap();
        assert_eq!(decoded.id, sub.id);
        assert_eq!(decoded.tenant, sub.tenant);
        assert_eq!(decoded.arrival_cycle, sub.arrival_cycle);
        assert_eq!(decoded.shape, sub.shape);
        assert_eq!(decoded.seed, sub.seed);
        assert_eq!(decoded.deadline_cycle, sub.deadline_cycle);
        assert_eq!(decoded.backend, sub.backend);
        assert_eq!(decoded.operands(), sub.operands());
    }

    #[test]
    fn exec_codec_round_trips() {
        let e = ExecOut {
            status: ServiceStatus::Failed("persistent stuck-at".to_owned()),
            executed_cycles: 1234,
            sup_retries: 3,
            backoff: 96,
            fault_events: 7,
            tiles_done: 4,
            tiles_total: 9,
            migrations: 2,
            z_len: 64,
            z_fnv: 0xDEAD_BEEF,
            checkpoint: Some(vec![1, 2, 3]),
        };
        let (id, decoded) = decode_exec(&encode_exec(41, &e)).unwrap();
        assert_eq!(id, 41);
        assert_eq!(decoded, e);
    }

    /// The checkpoint section is a tag byte plus `put_u8s`: exactly the
    /// bytes of the generic `Option<Vec<u8>>` encoding, so journals
    /// written before and after the bulk codec read the same.
    #[test]
    fn exec_checkpoint_section_matches_the_generic_encoding() {
        let mut e = ExecOut {
            status: ServiceStatus::Evicted,
            executed_cycles: 77,
            sup_retries: 0,
            backoff: 0,
            fault_events: 1,
            tiles_done: 2,
            tiles_total: 5,
            migrations: 1,
            z_len: 16,
            z_fnv: 0x1234,
            checkpoint: None,
        };
        let head = encode_exec(9, &e);
        let sparse: Vec<u8> = (0..4099u32).map(|i| (i % 97 == 3) as u8).collect();
        for checkpoint in [None, Some(vec![]), Some(vec![5, 0, 7]), Some(sparse)] {
            let mut generic = StateWriter::new();
            generic.put(&checkpoint);
            let mut expected = head[..head.len() - 1].to_vec();
            expected.extend_from_slice(&generic.finish());
            e.checkpoint = checkpoint;
            assert_eq!(encode_exec(9, &e), expected);
            assert_eq!(decode_exec(&expected).unwrap(), (9, e.clone()));
        }
    }

    #[test]
    fn exec_checkpoint_section_rejects_bad_tags_and_lying_lengths() {
        let e = ExecOut {
            status: ServiceStatus::Completed,
            executed_cycles: 10,
            sup_retries: 0,
            backoff: 0,
            fault_events: 0,
            tiles_done: 1,
            tiles_total: 1,
            migrations: 0,
            z_len: 4,
            z_fnv: 1,
            checkpoint: Some(vec![1, 2, 3, 4]),
        };
        let bytes = encode_exec(3, &e);
        // Tag byte, then an 8-byte length, then the 4 checkpoint bytes.
        let tag_at = bytes.len() - 4 - 8 - 1;
        let mut bad_tag = bytes.clone();
        bad_tag[tag_at] = 2;
        assert!(matches!(
            decode_exec(&bad_tag),
            Err(ServiceError::Recover(m)) if m.contains("checkpoint tag 2")
        ));
        for lie in [5u64, 1 << 40, u64::MAX] {
            let mut lying = bytes.clone();
            lying[tag_at + 1..tag_at + 9].copy_from_slice(&lie.to_le_bytes());
            assert!(matches!(
                decode_exec(&lying),
                Err(ServiceError::Recover(m)) if m.contains("truncated")
            ));
        }
        for cut in 0..bytes.len() {
            assert!(matches!(
                decode_exec(&bytes[..cut]),
                Err(ServiceError::Recover(_))
            ));
        }
    }

    #[test]
    fn config_codec_round_trips() {
        let cfg = ServiceConfig::new(3)
            .with_queue_capacity(5)
            .with_preempt_margin(17)
            .with_retry(ServiceRetry {
                max_retries: 2,
                backoff_cycles: 50,
            })
            .with_tenant(TenantConfig::new(0).with_priority(2).with_bucket(1000, 64))
            .with_tenant(TenantConfig::new(9).with_max_in_flight(1));
        let accel = AccelConfig::paper();
        let (dcfg, daccel) = decode_config(&encode_config(&cfg, &accel)).unwrap();
        assert_eq!(dcfg, cfg);
        assert_eq!(daccel, accel);
    }

    #[test]
    fn truncated_records_yield_typed_errors() {
        let sub = Submission::new(1, 0, 0, GemmShape::new(4, 4, 4));
        let bytes = encode_submission(&sub);
        for cut in 0..bytes.len() {
            let r = decode_submission(&bytes[..cut]);
            assert!(
                matches!(r, Err(ServiceError::Recover(_))) || cut == bytes.len(),
                "cut at {cut} must be a typed Recover error"
            );
        }
    }
}
