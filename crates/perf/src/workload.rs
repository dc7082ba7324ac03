//! The four fixed workloads: request pools generated from the seed, the
//! execution of one request, and the correctness checks on its output.
//!
//! Every request of a workload carries the same jobs in the same order
//! (shape, storage format, accumulate and fault settings) or, for the
//! service, the same script structure; the seed draws the operand data.
//! So the simulated work per request, and the executor's deal of it onto
//! workers, are constants of the workload, and host time is comparable
//! across seeds and commits.

use crate::trace::Recorder;
use redmule::{
    cast, stage_gemm_workspace_in, AccelConfig, BackendKind, Engine, FaultPlan, FaultSite,
    FaultSpec, Format, FtConfig, FunctionalGemm,
};
use redmule_batch::{BatchExecutor, BatchOutcome, GemmJob, JobFaults, JobStatus};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::F16;
use redmule_hwsim::{fnv1a64, rng::SplitMix64};
use redmule_runtime::RetryPolicy;
use redmule_service::{
    ServiceConfig, ServiceReport, ServiceRetry, ServiceSim, ServiceStatus, Submission, TenantConfig,
};
use redmule_store::MemBackend;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 64 small FP16 functional jobs per executor run.
    BatchSmall,
    /// 24 large functional jobs, mixed storage formats and accumulate.
    BatchLarge,
    /// 10 supervised cycle-accurate jobs, every 5th FT-protected.
    EngineCycle,
    /// One durable 60-submission service script, then its recovery.
    ServiceDurable,
}

impl Kind {
    /// Every workload, in `--all` order.
    pub const ALL: [Kind; 4] = [
        Kind::BatchSmall,
        Kind::BatchLarge,
        Kind::EngineCycle,
        Kind::ServiceDurable,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Kind::BatchSmall => "batch-small",
            Kind::BatchLarge => "batch-large",
            Kind::EngineCycle => "engine-cycle",
            Kind::ServiceDurable => "service-durable",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// GEMM jobs in one request (for the service: submissions offered).
    pub fn jobs_per_request(self) -> usize {
        match self {
            Kind::BatchSmall => 64,
            Kind::BatchLarge => 24,
            Kind::EngineCycle => 10,
            Kind::ServiceDurable => SERVICE_SUBMISSIONS,
        }
    }

    /// Simulated cycles of every request of this workload, for any seed:
    /// Σ `JobResult::cycles` for the batch workloads, the report's
    /// `makespan_cycle` for the service.
    pub fn pinned_sim_cycles(self) -> u64 {
        match self {
            Kind::BatchSmall => 7_097,
            Kind::BatchLarge => 433_364,
            Kind::EngineCycle => 9_939,
            Kind::ServiceDurable => 2_890,
        }
    }

    /// [`Workload::output_digest`] of the full pool for seed 1.
    pub fn pinned_seed1_digest(self) -> u64 {
        match self {
            Kind::BatchSmall => 0x235c_9dd2_f561_9f3b,
            Kind::BatchLarge => 0xcae1_d3a8_e940_f8be,
            Kind::EngineCycle => 0xc4c0_5ff8_ed45_00e4,
            Kind::ServiceDurable => 0xb82f_eee9_50d5_603a,
        }
    }
}

/// Distinct requests generated per run.
pub const POOL: usize = 16;

const SERVICE_SUBMISSIONS: usize = 60;
const SERVICE_SERVERS: usize = 2;
const SERVICE_LOAD_PER_MILLE: u64 = 2000;
const SERVICE_SHAPES: [(usize, usize, usize); 4] =
    [(16, 16, 16), (8, 24, 16), (16, 8, 32), (12, 12, 12)];
const SERVICE_RETRY: ServiceRetry = ServiceRetry {
    max_retries: 1,
    backoff_cycles: 64,
};

/// What a batch workload puts in each job slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JobSpec {
    shape: GemmShape,
    format: Format,
    accumulate: bool,
    protected: bool,
}

/// Job `j` of a fixed lattice over `[lo, hi]` in every dimension; the
/// strides are coprime with every span used here, so each dimension
/// walks its range independently.
fn lattice(j: usize, lo: usize, hi: usize) -> GemmShape {
    let span = hi - lo + 1;
    GemmShape::new(
        lo + (j * 5) % span,
        lo + (j * 11 + span / 3) % span,
        lo + (j * 13 + 2 * span / 3) % span,
    )
}

/// The job list of every request of a batch workload (empty for the
/// service, whose requests are scripts).
fn job_specs(kind: Kind) -> Vec<JobSpec> {
    let (lo, hi) = match kind {
        Kind::BatchSmall => (3, 16),
        Kind::BatchLarge => (33, 128),
        Kind::EngineCycle => (12, 40),
        Kind::ServiceDurable => return Vec::new(),
    };
    let large = kind == Kind::BatchLarge;
    (0..kind.jobs_per_request())
        .map(|j| JobSpec {
            shape: lattice(j, lo, hi),
            format: if large {
                Format::ALL[j % 3]
            } else {
                Format::Fp16
            },
            accumulate: large && j % 4 == 3,
            protected: kind == Kind::EngineCycle && j % 5 == 4,
        })
        .collect()
}

/// The one transient pipeline fault an FT-protected job absorbs: an
/// exponent bit of a partial sum in the first tile, always caught by
/// ABFT and replayed once.
pub fn pipe_fault() -> FaultPlan {
    FaultPlan::new(0).with_spec(FaultSpec {
        tile: 0,
        cycle: 8,
        site: FaultSite::Pipe {
            col: 1,
            row: 0,
            stage: 0,
            bit: 14,
        },
    })
}

/// The PRNG stream of request `r` of `kind` under `seed`.
fn request_rng(kind: Kind, seed: u64, r: usize) -> SplitMix64 {
    SplitMix64::new(fnv1a64(format!("{}:{seed}:{r}", kind.name()).as_bytes()))
}

/// Uniform operands in `[-1, 1)` on a 1/64 grid: exact in FP16 and in
/// both FP8 formats' range, and a 128-term reduction cannot overflow.
fn operand(rng: &mut SplitMix64, len: usize) -> Vec<F16> {
    (0..len)
        .map(|_| F16::from_f32(((rng.next_u64() >> 57) as f32 - 64.0) / 64.0))
        .collect()
}

/// The analytical cycle model every check compares against.
fn model() -> FunctionalGemm {
    FunctionalGemm::paper_instance()
}

/// Request `r` of a batch workload: the fixed job list with seeded
/// operands. Job ids are slot positions.
fn batch_request(kind: Kind, seed: u64, r: usize) -> Vec<GemmJob> {
    let mut rng = request_rng(kind, seed, r);
    job_specs(kind)
        .into_iter()
        .enumerate()
        .map(|(id, spec)| {
            let x = operand(&mut rng, spec.shape.x_len());
            let w = operand(&mut rng, spec.shape.w_len());
            let mut job = GemmJob::new(id as u64, spec.shape, x, w).with_format(spec.format);
            job = match kind {
                Kind::EngineCycle => job.with_checkpoint_interval(4),
                _ => job.with_backend(BackendKind::Functional),
            };
            if spec.accumulate {
                job = job.with_accumulate(operand(&mut rng, spec.shape.z_len()));
            }
            if spec.protected {
                job = job.with_faults(JobFaults::Protected {
                    plan: pipe_fault(),
                    ft: FtConfig::replay(),
                });
            }
            job
        })
        .collect()
}

/// Mean analytical estimate of the service shapes, the unit of the
/// script's spacing, quotas and preemption margin.
fn service_mean_estimate() -> u64 {
    let total: u64 = SERVICE_SHAPES
        .iter()
        .map(|&(m, n, k)| model().estimated_cycles(GemmShape::new(m, n, k)).count())
        .sum();
    total / SERVICE_SHAPES.len() as u64
}

/// Two servers, a queue of four, quotas on tenants 0 and 1, a token
/// bucket on tenant 2 and one deterministic retry.
fn service_config() -> ServiceConfig {
    let mean = service_mean_estimate();
    ServiceConfig::new(SERVICE_SERVERS)
        .with_queue_capacity(4)
        .with_preempt_margin(mean / 8)
        .with_retry(SERVICE_RETRY)
        .with_tenant(TenantConfig::new(0).with_priority(1).with_max_in_flight(6))
        .with_tenant(TenantConfig::new(1).with_priority(2).with_max_in_flight(6))
        .with_tenant(
            TenantConfig::new(2)
                .with_priority(3)
                .with_bucket(mean * 8, mean / 2),
        )
}

/// Request `r` of the service workload: a fixed script structure
/// (shapes, tenants, arrivals at the offered load, a deadline on every
/// 4th submission, alternating backends) with seeded operand seeds.
fn service_request(seed: u64, r: usize) -> Vec<Submission> {
    let mut rng = request_rng(Kind::ServiceDurable, seed, r);
    let spacing =
        (service_mean_estimate() * 1000 / (SERVICE_SERVERS as u64 * SERVICE_LOAD_PER_MILLE)).max(1);
    (0..SERVICE_SUBMISSIONS)
        .map(|i| {
            let (m, n, k) = SERVICE_SHAPES[i % SERVICE_SHAPES.len()];
            let shape = GemmShape::new(m, n, k);
            let backend = if i % 2 == 0 {
                BackendKind::Functional
            } else {
                BackendKind::CycleAccurate
            };
            let arrival = i as u64 * spacing;
            let sub = Submission::new(i as u64, (i % 3) as u32, arrival, shape)
                .with_seed((rng.next_u64() >> 32) as u32)
                .with_backend(backend);
            if i % 4 == 1 {
                let est = model().estimated_cycles(shape).count();
                sub.with_deadline_cycle(arrival + est * 3)
            } else {
                sub
            }
        })
        .collect()
}

/// A service submission as the batch job the service would execute for
/// it uninterrupted.
fn submission_job(sub: &Submission) -> GemmJob {
    let (x, w) = sub.operands();
    GemmJob::new(sub.id, sub.shape, x, w)
        .with_backend(sub.backend)
        .with_retry_policy(RetryPolicy::deterministic(
            SERVICE_RETRY.max_retries,
            SERVICE_RETRY.backoff_cycles,
        ))
        .with_checkpoint_interval(1)
}

/// One pre-generated request.
#[derive(Debug, Clone)]
pub enum Input {
    /// Jobs for one `BatchExecutor::run`.
    Batch(Vec<GemmJob>),
    /// A script for `ServiceSim::run_durable`, and the fresh backend it
    /// journals to.
    Service(Vec<Submission>, MemBackend),
}

/// What one request returned.
#[derive(Debug)]
pub enum Output {
    /// The executor's outcome.
    Batch(BatchOutcome),
    /// The durable run's report, the recovered report and the backend
    /// holding the journal and checkpoints.
    Service {
        /// Report of `run_durable`.
        durable: ServiceReport,
        /// Report of `recover` over the same backend.
        recovered: ServiceReport,
        /// The storage the durable run wrote.
        backend: MemBackend,
    },
}

/// A request's output reduced to what the checks and metrics need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// FNV-1a of the canonical report.
    pub digest: u64,
    /// Jobs that should have completed and did not, plus one when the
    /// recovered service report differs from the durable one.
    pub defects: usize,
    /// Simulated cycles (see [`Kind::pinned_sim_cycles`]).
    pub sim_cycles: u64,
    /// MACs of the completed jobs.
    pub macs: u64,
    /// Job cycles those MACs took.
    pub mac_cycles: u64,
}

/// A workload ready to run: its request pool and the system under test.
#[derive(Debug)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    pool: Vec<Input>,
    executor: BatchExecutor,
    service: ServiceSim,
}

impl Workload {
    /// Generates `pool_len` requests from `seed` and builds the executor
    /// and service with `workers` host threads.
    ///
    /// # Errors
    ///
    /// The service configuration is rejected (a bug in this file).
    pub fn new(kind: Kind, seed: u64, pool_len: usize, workers: usize) -> Result<Workload, String> {
        let pool = (0..pool_len)
            .map(|r| match kind {
                Kind::ServiceDurable => Input::Service(service_request(seed, r), MemBackend::new()),
                _ => Input::Batch(batch_request(kind, seed, r)),
            })
            .collect();
        let service = ServiceSim::new(service_config())
            .map_err(|e| format!("service config: {e}"))?
            .with_workers(workers);
        Ok(Workload {
            kind,
            pool,
            executor: BatchExecutor::new(workers),
            service,
        })
    }

    /// Distinct requests in the pool.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// A fresh copy of request `i` (modulo the pool).
    pub fn input(&self, i: usize) -> Input {
        self.pool[i % self.pool.len()].clone()
    }

    /// The executor requests run on (`workers` threads).
    pub fn executor(&self) -> &BatchExecutor {
        &self.executor
    }

    /// The service requests run on.
    pub fn service(&self) -> &ServiceSim {
        &self.service
    }

    /// Executes one request: one `BatchExecutor::run`, or a durable
    /// service run followed by its recovery. The recorder wraps each call
    /// into the system in a span (a disabled recorder adds nothing).
    ///
    /// # Errors
    ///
    /// The executor or service returned `Err`.
    pub fn execute(&self, input: Input, rec: &mut Recorder) -> Result<Output, String> {
        match input {
            Input::Batch(jobs) => rec
                .span("batch.run", |_| self.executor.run(jobs))
                .0
                .map(Output::Batch)
                .map_err(|e| format!("batch run: {e}")),
            Input::Service(script, mut backend) => {
                let durable = rec
                    .span("service.run_durable", |_| {
                        self.service.run_durable(&script, &mut backend)
                    })
                    .0
                    .map_err(|e| format!("durable service run: {e}"))?;
                let recovered = rec
                    .span("service.recover", |_| self.service.recover(&mut backend))
                    .0
                    .map_err(|e| format!("service recovery: {e}"))?
                    .report;
                Ok(Output::Service {
                    durable,
                    recovered,
                    backend,
                })
            }
        }
    }

    /// Reduces request `i`'s output for the checks and metrics.
    pub fn summarize(&self, i: usize, out: &Output) -> Summary {
        match out {
            Output::Batch(outcome) => {
                let report = &outcome.report;
                Summary {
                    digest: fnv1a64(report.to_canonical_json().as_bytes()),
                    defects: report.jobs.len() - report.completed(),
                    sim_cycles: report.total_cycles(),
                    macs: report.total_macs(),
                    mac_cycles: report.total_cycles(),
                }
            }
            Output::Service {
                durable, recovered, ..
            } => {
                let json = durable.to_canonical_json();
                let diverged = usize::from(json != recovered.to_canonical_json());
                let script = self.script(i);
                let completed = durable
                    .jobs
                    .iter()
                    .filter(|j| j.status == ServiceStatus::Completed);
                Summary {
                    digest: fnv1a64(json.as_bytes()),
                    defects: durable.failed() + diverged,
                    sim_cycles: durable.makespan_cycle,
                    macs: completed
                        .clone()
                        .map(|j| script[j.id as usize].shape.macs())
                        .sum(),
                    mac_cycles: completed.map(|j| j.executed_cycles).sum(),
                }
            }
        }
    }

    /// The script of request `i` (empty for batch workloads).
    pub fn script(&self, i: usize) -> &[Submission] {
        match &self.pool[i % self.pool.len()] {
            Input::Service(script, _) => script,
            Input::Batch(_) => &[],
        }
    }

    /// The GEMM jobs request `i` executed: the batch itself, or the
    /// service's admitted submissions as uninterrupted batch jobs.
    pub fn jobs_of(&self, i: usize, out: &Output) -> Vec<GemmJob> {
        match (&self.pool[i % self.pool.len()], out) {
            (Input::Batch(jobs), _) => jobs.clone(),
            (Input::Service(script, _), Output::Service { durable, .. }) => durable
                .jobs
                .iter()
                .map(|j| submission_job(&script[j.id as usize]))
                .collect(),
            (Input::Service(..), Output::Batch(_)) => Vec::new(),
        }
    }

    /// Checks request `i`'s output against an independent oracle and
    /// returns every disagreement found (empty when correct):
    ///
    /// * functional batches: two sampled jobs per request against the
    ///   cycle-accurate engine (`Z` bit for bit; the job's cycles equal
    ///   the analytical model, and so do the engine's unless the job
    ///   accumulates);
    /// * engine-cycle: every job against the functional model, supervised
    ///   jobs at exactly the modelled cycles, protected jobs with their
    ///   fault detected and replayed;
    /// * service: the non-durable `ServiceSim::run` report byte-identical
    ///   to the durable and recovered ones.
    pub fn oracle(&self, i: usize, out: &Output) -> Vec<String> {
        let mut bad = Vec::new();
        match (&self.pool[i % self.pool.len()], out) {
            (Input::Batch(jobs), Output::Batch(outcome)) => {
                let results = &outcome.report.jobs;
                let sampled: Vec<usize> = match self.kind {
                    Kind::EngineCycle => (0..jobs.len()).collect(),
                    _ => vec![(2 * i) % jobs.len(), (2 * i + 1) % jobs.len()],
                };
                for s in sampled {
                    let (job, result) = (&jobs[s], &results[s]);
                    let est = model()
                        .estimated_cycles_format(job.shape, job.format)
                        .count();
                    let reference = match self.kind {
                        Kind::EngineCycle => functional_oracle(job).map(|z| (z, None)),
                        _ => engine_oracle(job).map(|(z, cycles)| (z, Some(cycles))),
                    };
                    match reference {
                        Err(e) => bad.push(format!("job {}: oracle failed: {e}", job.id)),
                        Ok((z, engine_cycles)) => {
                            if bits(&z) != bits(&result.z) {
                                bad.push(format!("job {}: Z differs from the oracle", job.id));
                            }
                            // The model leaves out the Z preload of
                            // accumulate jobs, so it is exact only without Y.
                            let exact = job.y.is_none();
                            if let Some(c) = engine_cycles.filter(|&c| exact && c != est) {
                                bad.push(format!(
                                    "job {}: engine ran {c} cycles, model says {est}",
                                    job.id
                                ));
                            }
                        }
                    }
                    let protected = matches!(job.faults, Some(JobFaults::Protected { .. }));
                    if protected && (result.fault_events == 0 || result.cycles <= est) {
                        bad.push(format!(
                            "job {}: protected job shows no detected fault and replay",
                            job.id
                        ));
                    }
                    if !protected && result.cycles != est {
                        bad.push(format!(
                            "job {}: reported {} cycles, model says {est}",
                            job.id, result.cycles
                        ));
                    }
                    if result.status != JobStatus::Completed {
                        bad.push(format!("job {}: {}", job.id, result.status.label()));
                    }
                }
            }
            (Input::Service(script, _), Output::Service { durable, .. }) => {
                match self.service.run(script) {
                    Ok(plain) if plain.to_canonical_json() == durable.to_canonical_json() => {}
                    Ok(_) => bad.push("non-durable run differs from the durable run".to_owned()),
                    Err(e) => bad.push(format!("non-durable run failed: {e}")),
                }
            }
            _ => bad.push("output kind does not match the request".to_owned()),
        }
        bad
    }
}

fn bits(z: &[F16]) -> Vec<u16> {
    z.iter().map(|v| v.to_bits()).collect()
}

/// `Z` and cycles of `job` on the cycle-accurate engine, staged exactly
/// as the executor stages it.
pub fn engine_oracle(job: &GemmJob) -> Result<(Vec<F16>, u64), String> {
    let (hw, mut mem, mut hci) =
        stage_gemm_workspace_in(job.shape, job.format, &job.x, &job.w, job.y.as_deref())
            .map_err(|e| e.to_string())?;
    let report = Engine::new(AccelConfig::paper())
        .run(hw, &mut mem, &mut hci)
        .map_err(|e| e.to_string())?;
    let z = cast::castin_slice(&mem, job.format, hw.z_addr, job.shape.z_len())
        .map_err(|e| e.to_string())?;
    Ok((z, report.cycles.count()))
}

/// `Z` of `job` on the functional model.
fn functional_oracle(job: &GemmJob) -> Result<Vec<F16>, String> {
    let f = model();
    let run = match &job.y {
        Some(y) => f.run_accumulate_format(job.shape, job.format, &job.x, &job.w, y),
        None => f.run_format(job.shape, job.format, &job.x, &job.w),
    };
    run.map(|r| r.z).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(input: &Input) -> Vec<u64> {
        match input {
            Input::Batch(jobs) => jobs
                .iter()
                .map(|j| {
                    let mut bytes: Vec<u8> = Vec::new();
                    for v in j.x.iter().chain(&j.w).chain(j.y.iter().flatten()) {
                        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                    fnv1a64(&bytes) ^ (j.shape.macs() << 1)
                })
                .collect(),
            Input::Service(script, _) => script
                .iter()
                .map(|s| u64::from(s.seed) ^ s.arrival_cycle << 32)
                .collect(),
        }
    }

    /// Everything about a request except its operand data.
    fn structure(input: &Input) -> Vec<String> {
        match input {
            Input::Batch(jobs) => jobs
                .iter()
                .map(|j| {
                    let faulted = j.faults.is_some();
                    format!(
                        "{} {} y={} ft={faulted} {:?}",
                        j.shape,
                        j.format,
                        j.y.is_some(),
                        j.backend
                    )
                })
                .collect(),
            Input::Service(script, _) => script
                .iter()
                .map(|s| {
                    let (t, at, dl, b) = (s.tenant, s.arrival_cycle, s.deadline_cycle, s.backend);
                    format!("{} t{t} @{at} {dl:?} {b:?}", s.shape)
                })
                .collect(),
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for kind in Kind::ALL {
            let a = Workload::new(kind, 7, 3, 1).expect("workload");
            let b = Workload::new(kind, 7, 3, 1).expect("workload");
            for r in 0..3 {
                assert_eq!(
                    fingerprint(&a.input(r)),
                    fingerprint(&b.input(r)),
                    "{} request {r}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn generators_differ_across_seeds_and_requests() {
        for kind in Kind::ALL {
            let one = Workload::new(kind, 1, 2, 1).expect("workload");
            let two = Workload::new(kind, 2, 2, 1).expect("workload");
            assert_ne!(fingerprint(&one.input(0)), fingerprint(&two.input(0)));
            assert_ne!(fingerprint(&one.input(0)), fingerprint(&one.input(1)));
        }
    }

    #[test]
    fn every_request_carries_the_same_jobs() {
        for kind in Kind::ALL {
            let base = structure(&Workload::new(kind, 1, 1, 1).expect("workload").input(0));
            assert_eq!(base.len(), kind.jobs_per_request());
            for seed in [2, 3] {
                let w = Workload::new(kind, seed, 2, 1).expect("workload");
                for r in 0..2 {
                    assert_eq!(structure(&w.input(r)), base, "{} seed {seed}", kind.name());
                }
            }
        }
    }

    #[test]
    fn shapes_stay_in_their_ranges() {
        for (kind, lo, hi) in [
            (Kind::BatchSmall, 3, 16),
            (Kind::BatchLarge, 33, 128),
            (Kind::EngineCycle, 12, 40),
        ] {
            for s in job_specs(kind) {
                for d in [s.shape.m, s.shape.n, s.shape.k] {
                    assert!((lo..=hi).contains(&d), "{} dim {d}", kind.name());
                }
            }
        }
        let specs = job_specs(Kind::BatchLarge);
        assert!(specs.iter().any(|s| s.format == Format::Fp8E4M3));
        assert!(specs.iter().any(|s| s.format == Format::Fp8E5M2));
        assert_eq!(specs.iter().filter(|s| s.accumulate).count(), 6);
        let engine = job_specs(Kind::EngineCycle);
        assert_eq!(engine.iter().filter(|s| s.protected).count(), 2);
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("batch"), None);
    }
}
