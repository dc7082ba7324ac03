//! Layer probes of the traced run.
//!
//! After each traced request, the request's own jobs are driven again
//! directly through each layer's public functions, every call wrapped in
//! a span. The probes accumulate the time of each call together with the
//! work it did (elements, MACs, cycles, records), so every per-layer
//! metric is a ratio measured where the work happens.

use crate::trace::Recorder;
use crate::workload::{engine_oracle, pipe_fault, Output, Workload};
use redmule::{cast, stage_gemm_workspace_in, AccelConfig, BackendKind, Engine, FtConfig};
use redmule_batch::{BatchExecutor, GemmJob, JobFaults, JobResult};
use redmule_cluster::{Hci, Tcdm};
use redmule_fp16::F16;
use redmule_runtime::Supervisor;
use redmule_service::{CHECKPOINT_PREFIX, JOURNAL_OBJECT};
use redmule_store::{CheckpointStore, Journal, MemBackend, StorageBackend};

/// Checkpoint cadence of the supervisor probe, in tiles.
const PROBE_CHECKPOINT_INTERVAL: usize = 4;

/// Time (ns) and work accumulated by the probes over all traced requests.
#[derive(Debug, Default)]
pub struct Totals {
    /// Traced requests probed.
    pub requests: u64,
    /// `BatchExecutor::run(vec![])` at the workload's worker count.
    pub empty_run_ns: u64,
    /// 1-worker `BatchExecutor::run` of the request's jobs.
    pub run1_ns: u64,
    /// `BatchReport::to_canonical_json` of that run.
    pub report_json_ns: u64,
    /// The same jobs executed one by one along the executor's own path.
    pub direct_ns: u64,
    /// Jobs per request summed over requests.
    pub jobs: u64,
    /// Functional path of every job (plan, kernel, estimate, assembly).
    pub functional_ns: u64,
    /// `FunctionalGemm::plan`.
    pub plan_ns: u64,
    /// Operand elements staged by those plans.
    pub plan_elems: u64,
    /// `FunctionalPlan::compute_band_into`, summed per job.
    pub kernel_ns: u64,
    /// MACs those kernels computed.
    pub kernel_macs: u64,
    /// `estimated_cycles_format`.
    pub estimate_ns: u64,
    /// `stage_gemm_workspace_in`.
    pub stage_ns: u64,
    /// Staging calls.
    pub stages: u64,
    /// `Engine::run` on the sampled job.
    pub engine_ns: u64,
    /// Simulated cycles of those runs.
    pub engine_cycles: u64,
    /// `Engine::run_ft` on the sampled job with one pipeline fault.
    pub ft_ns: u64,
    /// `Supervisor::run_session` on the sampled job.
    pub supervise_ns: u64,
    /// `EngineSession::checkpoint` + `SessionState::to_bytes`.
    pub checkpoint_ns: u64,
    /// Bytes those checkpoints serialised to.
    pub checkpoint_bytes: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Service-layer probes (service workload only).
    pub service: ServiceTotals,
}

/// Service and store probes of the service workload.
#[derive(Debug, Default)]
pub struct ServiceTotals {
    /// Non-durable `ServiceSim::run` of the request's script.
    pub run_ns: u64,
    /// The admitted jobs run through `BatchExecutor::run` at the
    /// workload's worker count.
    pub replay_ns: u64,
    /// `Journal::scan` of the durable run's journal.
    pub scan_ns: u64,
    /// `Journal::append` of the scanned records into a fresh backend.
    pub append_ns: u64,
    /// Journal records per request, summed.
    pub records: u64,
    /// Journal bytes per request, summed.
    pub journal_bytes: u64,
    /// `CheckpointStore::load_latest` over every admitted job.
    pub load_ns: u64,
    /// `load_latest` calls.
    pub loads: u64,
    /// `CheckpointStore::publish` of every loaded checkpoint into a fresh
    /// backend.
    pub publish_ns: u64,
    /// Checkpoints published (= loaded).
    pub publishes: u64,
    /// Checkpoint objects on the durable backend, summed.
    pub checkpoint_objects: u64,
    /// Admitted, rejected, preempted and evicted counts of the last
    /// request (identical for every request of the workload).
    pub counts: [u64; 4],
}

/// Probes every layer with traced request `r`'s jobs.
///
/// # Errors
///
/// A layer call returned `Err` (the request is then counted as failed).
pub fn request(
    rec: &mut Recorder,
    w: &Workload,
    r: usize,
    out: &Output,
    t: &mut Totals,
) -> Result<(), String> {
    let jobs = w.jobs_of(r, out);
    t.requests += 1;
    t.jobs += jobs.len() as u64;
    let (res, ns) = rec.span("batch.run_empty", |_| w.executor().run(Vec::new()));
    res.map_err(|e| format!("empty run: {e}"))?;
    t.empty_run_ns += ns;
    let batch = jobs.clone();
    let (res, ns) = rec.span("batch.run_1w", |_| BatchExecutor::new(1).run(batch));
    let outcome = res.map_err(|e| format!("1-worker run: {e}"))?;
    t.run1_ns += ns;
    t.report_json_ns += rec
        .span("batch.report_json", |_| outcome.report.to_canonical_json())
        .1;

    let engine = Engine::new(AccelConfig::paper());
    for job in &jobs {
        let functional = job.backend == BackendKind::Functional && job.faults.is_none();
        let (res, ns) = rec.span("job.direct", |rec| {
            if functional {
                functional_path(rec, job, t)
            } else {
                engine_path(rec, &engine, job, t)
            }
        });
        agrees_with_executor(job, &outcome.report.jobs, res?)?;
        t.direct_ns += ns;
        if functional {
            t.functional_ns += ns;
        } else {
            let (res, ns) = rec.span("job.functional", |rec| functional_path(rec, job, t));
            res?;
            t.functional_ns += ns;
        }
    }
    if let Some(job) = jobs.get(r % jobs.len().max(1)) {
        rec.span("engine.sample", |rec| engine_sample(rec, &engine, job, t))
            .0?;
    }
    if let Output::Service {
        durable, backend, ..
    } = out
    {
        let (res, ns) = rec.span("service.run", |_| w.service().run(w.script(r)));
        res.map_err(|e| format!("service run: {e}"))?;
        t.service.run_ns += ns;
        let (res, ns) = rec.span("service.replay", |_| w.executor().run(jobs));
        res.map_err(|e| format!("service replay: {e}"))?;
        t.service.replay_ns += ns;
        let ids: Vec<u64> = durable.jobs.iter().map(|j| j.id).collect();
        store_probe(rec, backend, &ids, &mut t.service)?;
        t.service.counts = [
            durable.jobs.len() as u64,
            durable.rejected.len() as u64,
            durable.total_preemptions(),
            durable.evicted() as u64,
        ];
    }
    Ok(())
}

/// `Z` and cycles of one job driven directly through the layers.
type Direct = (Vec<F16>, u64);

/// Checks a directly driven job against the executor's own result for
/// it, bit for bit, so the probes cannot drift from the path they time.
fn agrees_with_executor(
    job: &GemmJob,
    results: &[JobResult],
    (z, cycles): Direct,
) -> Result<(), String> {
    let result = results
        .binary_search_by_key(&job.id, |r| r.id)
        .map(|at| &results[at])
        .map_err(|_| format!("job {}: missing from the executor's report", job.id))?;
    let bits = |z: &[F16]| z.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    if bits(&z) != bits(&result.z) || cycles != result.cycles {
        return Err(format!(
            "job {}: direct layer calls disagree with the executor ({cycles} vs {} cycles)",
            job.id, result.cycles
        ));
    }
    Ok(())
}

/// `exec_functional` step by step: plan, kernel over every band,
/// estimate.
fn functional_path(rec: &mut Recorder, job: &GemmJob, t: &mut Totals) -> Result<Direct, String> {
    let model = redmule::FunctionalGemm::paper_instance();
    let (plan, ns) = rec.span("redmule.plan", |_| {
        model.plan(job.shape, job.format, &job.x, &job.w, job.y.as_deref())
    });
    let plan = plan.map_err(|e| format!("job {}: plan: {e}", job.id))?;
    t.plan_ns += ns;
    t.plan_elems += (job.x.len() + job.w.len() + job.y.as_ref().map_or(0, Vec::len)) as u64;
    let mut z = vec![F16::ZERO; job.shape.z_len()];
    t.kernel_ns += rec
        .span("fp16.kernel", |_| {
            for (band, chunk) in z.chunks_mut(plan.band_stride()).enumerate() {
                plan.compute_band_into(band, chunk);
            }
        })
        .1;
    t.kernel_macs += job.shape.macs();
    let (cycles, ns) = rec.span("redmule.estimate", |_| {
        model.estimated_cycles_format(job.shape, job.format)
    });
    t.estimate_ns += ns;
    Ok((z, cycles.count()))
}

/// `exec_protected` / `exec_supervised` step by step: stage, execute,
/// read Z back.
fn engine_path(
    rec: &mut Recorder,
    engine: &Engine,
    job: &GemmJob,
    t: &mut Totals,
) -> Result<Direct, String> {
    let (hw, mut mem, mut hci) = stage(rec, job, t)?;
    let fail = |e: redmule::EngineError| format!("job {}: {e}", job.id);
    let report = match &job.faults {
        Some(JobFaults::Protected { plan, ft }) => rec
            .span("redmule.run_ft", |_| {
                engine.run_ft(hw, &mut mem, &mut hci, plan, *ft)
            })
            .0
            .map_err(fail)?,
        // No workload arms raw fault strikes, so the rest start clean.
        _ => {
            let session = engine.start(hw).map_err(fail)?;
            let supervisor = Supervisor::new(engine.clone())
                .with_limits(job.limits)
                .with_retry_policy(job.retry)
                .with_checkpoint_interval(job.checkpoint_interval);
            rec.span("runtime.supervise", |_| {
                supervisor.run_session(session, &mut mem, &mut hci)
            })
            .0
            .map_err(fail)?
            .report
        }
    };
    let (z, _) = rec.span("redmule.castin", |_| {
        cast::castin_slice(&mem, job.format, hw.z_addr, job.shape.z_len())
    });
    let z = z.map_err(|e| format!("job {}: castin: {e}", job.id))?;
    Ok((z, report.cycles.count()))
}

/// A staged job with its private TCDM and interconnect.
type Workspace = (redmule::Job, Tcdm, Hci);

fn stage(rec: &mut Recorder, job: &GemmJob, t: &mut Totals) -> Result<Workspace, String> {
    let (staged, ns) = rec.span("redmule.stage", |_| {
        stage_gemm_workspace_in(job.shape, job.format, &job.x, &job.w, job.y.as_deref())
    });
    t.stage_ns += ns;
    t.stages += 1;
    staged.map_err(|e| format!("job {}: stage: {e}", job.id))
}

/// The engine layer on one job: bare `Engine::run`, `run_ft` with one
/// pipeline fault, supervision at a 4-tile checkpoint cadence, and one
/// checkpoint at the middle tile boundary. Each starts from a freshly
/// staged workspace, after one untimed warm-up run.
fn engine_sample(
    rec: &mut Recorder,
    engine: &Engine,
    job: &GemmJob,
    t: &mut Totals,
) -> Result<(), String> {
    let fail = |e: redmule::EngineError| format!("sampled job {}: {e}", job.id);
    // One untimed run first, so the three compared runs all find the
    // engine's code and the job's data equally warm.
    engine_oracle(job).map_err(|e| format!("sampled job {}: {e}", job.id))?;
    let (hw, mut mem, mut hci) = stage(rec, job, t)?;
    let (report, ns) = rec.span("redmule.engine_run", |_| engine.run(hw, &mut mem, &mut hci));
    t.engine_cycles += report.map_err(fail)?.cycles.count();
    let engine_ns = ns;

    let (hw, mut mem, mut hci) = stage(rec, job, t)?;
    let (res, ft_ns) = rec.span("redmule.run_ft", |_| {
        engine.run_ft(hw, &mut mem, &mut hci, &pipe_fault(), FtConfig::replay())
    });
    res.map_err(fail)?;

    let (hw, mut mem, mut hci) = stage(rec, job, t)?;
    let session = engine.start(hw).map_err(fail)?;
    let supervisor =
        Supervisor::new(engine.clone()).with_checkpoint_interval(PROBE_CHECKPOINT_INTERVAL);
    let (res, supervise_ns) = rec.span("runtime.supervise", |_| {
        supervisor.run_session(session, &mut mem, &mut hci)
    });
    res.map_err(fail)?;

    let (hw, mut mem, mut hci) = stage(rec, job, t)?;
    let mut session = engine.start(hw).map_err(fail)?;
    let target = session.tiles_total() / 2;
    rec.span("redmule.engine_tick", |_| {
        while !session.is_finished()
            && (session.tiles_completed() < target || !session.at_tile_boundary())
        {
            session.tick(&mut mem, &mut hci, &[])?;
        }
        Ok::<(), redmule::EngineError>(())
    })
    .0
    .map_err(fail)?;
    if !session.is_finished() {
        let (bytes, ns) = rec.span("runtime.checkpoint", |_| {
            session.checkpoint().map(|s| s.to_bytes())
        });
        t.checkpoint_bytes += bytes.map_err(fail)?.len() as u64;
        t.checkpoint_ns += ns;
        t.checkpoints += 1;
    }
    // Account the sample only once all of it succeeded, so the ratios
    // always compare the same jobs.
    t.engine_ns += engine_ns;
    t.ft_ns += ft_ns;
    t.supervise_ns += supervise_ns;
    Ok(())
}

/// The store layer on the durable run's own storage: scan the journal,
/// re-append its records into a fresh backend, load the newest
/// checkpoint of every admitted job and publish it into the fresh
/// backend.
fn store_probe(
    rec: &mut Recorder,
    backend: &MemBackend,
    ids: &[u64],
    s: &mut ServiceTotals,
) -> Result<(), String> {
    let err = |e: redmule_store::StoreError| format!("store: {e}");
    let journal = Journal::new(JOURNAL_OBJECT);
    let (scan, ns) = rec.span("store.scan", |_| journal.scan(backend));
    let scan = scan.map_err(err)?;
    s.scan_ns += ns;
    s.records += scan.records.len() as u64;
    s.journal_bytes += scan.total_len as u64;
    let mut fresh = MemBackend::new();
    let (res, ns) = rec.span("store.append", |_| {
        scan.records
            .iter()
            .try_for_each(|(kind, payload)| journal.append(&mut fresh, *kind, payload))
    });
    res.map_err(err)?;
    s.append_ns += ns;

    let store = CheckpointStore::new(CHECKPOINT_PREFIX);
    let (loaded, ns) = rec.span("store.load_latest", |_| {
        ids.iter()
            .map(|&id| store.load_latest(backend, id, None).map(|l| (id, l.loaded)))
            .collect::<Result<Vec<_>, _>>()
    });
    let loaded = loaded.map_err(err)?;
    s.load_ns += ns;
    s.loads += ids.len() as u64;
    let found: Vec<(u64, u32, Vec<u8>)> = loaded
        .into_iter()
        .filter_map(|(id, l)| l.map(|(generation, bytes)| (id, generation, bytes)))
        .collect();
    let (res, ns) = rec.span("store.publish", |_| {
        found.iter().try_for_each(|(id, generation, bytes)| {
            store.publish(&mut fresh, *id, *generation, bytes)
        })
    });
    res.map_err(err)?;
    s.publish_ns += ns;
    s.publishes += found.len() as u64;
    s.checkpoint_objects += backend.list(CHECKPOINT_PREFIX).map_err(err)?.len() as u64;
    Ok(())
}
