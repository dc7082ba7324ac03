//! End-to-end service behaviour: admission, scheduling, shedding,
//! worker-count invariance and the overload soak.

use redmule::{AccelConfig, Engine, FaultSite, FunctionalGemm};
use redmule_fp16::vector::GemmShape;
use redmule_service::{
    Rejected, ServiceConfig, ServiceError, ServiceJobRecord, ServiceReport, ServiceRetry,
    ServiceSim, ServiceStatus, Submission, TenantConfig,
};
use redmule_store::MemBackend;

fn small_cfg() -> AccelConfig {
    AccelConfig::new(4, 2, 1)
}

fn sim(config: ServiceConfig) -> ServiceSim {
    ServiceSim::new(config)
        .expect("valid config")
        .with_engine(Engine::new(small_cfg()))
}

fn estimate(shape: GemmShape) -> u64 {
    FunctionalGemm::new(small_cfg())
        .estimated_cycles(shape)
        .count()
}

/// Reference record for one submission run completely unloaded.
fn solo_record(sub: &Submission) -> ServiceJobRecord {
    let config = ServiceConfig::new(1).with_tenant(TenantConfig::new(sub.tenant));
    let mut solo = sub.clone();
    solo.arrival_cycle = 0;
    solo.deadline_cycle = None;
    let report = sim(config).run(&[solo]).expect("solo run");
    assert_eq!(report.jobs.len(), 1);
    report.jobs.into_iter().next().expect("one record")
}

#[test]
fn light_load_completes_bit_exact_with_unloaded_reference() {
    let config = ServiceConfig::new(2)
        .with_tenant(TenantConfig::new(0))
        .with_tenant(TenantConfig::new(1));
    let script = vec![
        Submission::new(1, 0, 0, GemmShape::new(4, 5, 6)),
        Submission::new(2, 1, 10, GemmShape::new(3, 3, 9)),
        Submission::new(3, 0, 20, GemmShape::new(6, 2, 4)),
        Submission::new(4, 1, 20, GemmShape::new(2, 7, 3)),
    ];
    let report = sim(config).run(&script).expect("run");
    assert_eq!(report.completed(), 4);
    assert!(report.rejected.is_empty());
    for (sub, job) in script.iter().zip(&report.jobs) {
        assert_eq!(job.id, sub.id);
        assert_eq!(job.status, ServiceStatus::Completed);
        assert!(
            job.checkpoint.is_none(),
            "completed jobs carry no checkpoint"
        );
        let solo = solo_record(sub);
        assert_eq!(job.z_fnv64, solo.z_fnv64, "job {} output drifted", job.id);
        assert_eq!(job.executed_cycles, solo.executed_cycles);
        assert_eq!(
            job.estimate, job.executed_cycles,
            "analytical estimate is exact for fault-free jobs"
        );
    }
}

#[test]
fn rejections_are_typed_and_admission_is_conservative() {
    let shape = GemmShape::new(4, 4, 8);
    let est = estimate(shape);
    let config = ServiceConfig::new(1)
        .with_queue_capacity(1)
        .with_tenant(TenantConfig::new(0).with_max_in_flight(1))
        .with_tenant(TenantConfig::new(1).with_bucket(est, 0))
        .with_tenant(TenantConfig::new(2));
    let script = vec![
        // Tenant 0: second concurrent submission trips the quota.
        Submission::new(1, 0, 0, shape),
        Submission::new(2, 0, 0, shape),
        // Tenant 1: bucket holds exactly one job and never refills.
        Submission::new(3, 1, 5, shape),
        Submission::new(4, 1, 6, shape),
        // Tenant 2: a deadline no idle server could meet.
        Submission::new(5, 2, 7, shape).with_deadline_cycle(7 + est / 2),
        // Tenant 2 again: feasible, but queue and servers are saturated
        // by equal-priority work — queue-full.
        Submission::new(6, 2, 8, shape),
        Submission::new(7, 2, 9, shape),
    ];
    let report = sim(config).run(&script).expect("run");
    let reasons: Vec<(u64, Rejected)> = report.rejected.iter().map(|r| (r.id, r.reason)).collect();
    assert!(reasons.contains(&(2, Rejected::QuotaExceeded { tenant: 0 })));
    assert!(reasons.contains(&(4, Rejected::QuotaExceeded { tenant: 1 })));
    assert!(reasons.contains(&(
        5,
        Rejected::DeadlineInfeasible {
            needed: est,
            deadline: 7 + est / 2,
        }
    )));
    assert!(reasons.contains(&(7, Rejected::QueueFull)));
    // Accounting: every submission is either a job record or a rejection.
    assert_eq!(report.jobs.len() + report.rejected.len(), script.len());
    for t in &report.tenants {
        assert_eq!(
            t.submitted,
            t.admitted + t.rejected_quota + t.rejected_queue_full + t.rejected_deadline
        );
    }
}

#[test]
fn oversized_shapes_are_script_errors() {
    // An element count past usize, and a workspace past the TCDM's 32-bit
    // address space: both are rejected up front, plain and durable,
    // before any operand is generated.
    for shape in [
        GemmShape::new(1 << 62, 4, 1 << 62),
        GemmShape::new(1 << 31, 0, 1 << 31),
    ] {
        let config = ServiceConfig::new(1).with_tenant(TenantConfig::new(0));
        let script = [
            Submission::new(0, 0, 0, GemmShape::new(4, 4, 4)),
            Submission::new(1, 0, 5, shape),
        ];
        let service = sim(config);
        let err = service.run(&script).expect_err("oversized shape");
        assert!(
            matches!(&err, ServiceError::Script(msg) if msg.contains("too large")),
            "{shape}: {err:?}"
        );
        let err = service
            .run_durable(&script, &mut MemBackend::new())
            .expect_err("oversized shape, durably");
        assert!(matches!(err, ServiceError::Script(_)), "{shape}: {err:?}");
    }
}

#[test]
fn preempted_job_migrates_and_completes_bit_exact() {
    let long = GemmShape::new(8, 6, 10);
    let short = GemmShape::new(2, 2, 2);
    let est_long = estimate(long);
    let est_short = estimate(short);
    assert!(est_long > 4 * est_short, "need a long victim");
    let config = ServiceConfig::new(1)
        .with_tenant(TenantConfig::new(0))
        .with_tenant(TenantConfig::new(1));
    // The long best-effort job starts at 0; mid-run a tight-deadline job
    // arrives whose slack beats the (infinite-slack) runner.
    let mid = est_long / 2;
    let script = vec![
        Submission::new(1, 0, 0, long),
        Submission::new(2, 1, mid, short).with_deadline_cycle(mid + est_short + 4),
    ];
    let report = sim(config).run(&script).expect("run");
    assert_eq!(report.completed(), 2);
    let victim = &report.jobs[0];
    assert_eq!(victim.id, 1);
    assert!(victim.preemptions >= 1, "long job must be preempted");
    assert!(victim.migrations >= 1, "resume happened on a fresh cluster");
    assert_eq!(
        victim.z_fnv64,
        solo_record(&script[0]).z_fnv64,
        "preempt + migrate + resume must be bit-exact"
    );
    let urgent = &report.jobs[1];
    assert!(
        urgent.finished_cycle <= (mid + est_short + 4),
        "urgent job met its deadline on the virtual timeline"
    );
}

#[test]
fn overload_sheds_lowest_priority_with_checkpoint() {
    let shape = GemmShape::new(6, 4, 8);
    let config = ServiceConfig::new(1)
        .with_queue_capacity(1)
        .with_tenant(TenantConfig::new(0).with_priority(1))
        .with_tenant(TenantConfig::new(9).with_priority(5));
    // Tenant 0 fills the server and the queue; tenant 9 then bursts in
    // and must displace rather than be turned away.
    let script = vec![
        Submission::new(1, 0, 0, shape),
        Submission::new(2, 0, 0, shape),
        Submission::new(3, 9, 1, shape),
    ];
    let report = sim(config).run(&script).expect("run");
    assert!(
        report.rejected.is_empty(),
        "high priority displaces, is not rejected"
    );
    let shed: Vec<&ServiceJobRecord> = report
        .jobs
        .iter()
        .filter(|j| j.status == ServiceStatus::Evicted)
        .collect();
    assert_eq!(shed.len(), 1, "exactly one low-priority victim");
    assert_eq!(shed[0].tenant, 0);
    let ckpt = shed[0].checkpoint.as_ref().expect("evicted keeps progress");
    assert!(!ckpt.is_empty());
    let high = report
        .jobs
        .iter()
        .find(|j| j.tenant == 9)
        .expect("burst job");
    assert_eq!(high.status, ServiceStatus::Completed);
}

#[test]
fn report_bytes_are_identical_across_worker_counts() {
    let report_at = |workers: usize| -> String {
        let config = ServiceConfig::new(2)
            .with_queue_capacity(2)
            .with_preempt_margin(8)
            .with_retry(ServiceRetry {
                max_retries: 1,
                backoff_cycles: 64,
            })
            .with_tenant(TenantConfig::new(0).with_priority(1).with_max_in_flight(2))
            .with_tenant(TenantConfig::new(1).with_priority(3))
            .with_tenant(TenantConfig::new(2).with_bucket(4096, 128));
        let strikes = vec![(
            4,
            FaultSite::Pipe {
                col: 1,
                row: 0,
                stage: 0,
                bit: 3,
            },
        )];
        let long = GemmShape::new(8, 6, 10);
        let est_long = estimate(long);
        let script = vec![
            Submission::new(1, 0, 0, long),
            Submission::new(2, 0, 2, GemmShape::new(4, 4, 4)),
            Submission::new(3, 0, 3, GemmShape::new(4, 4, 4)),
            Submission::new(4, 1, est_long / 3, GemmShape::new(2, 3, 2))
                .with_deadline_cycle(est_long),
            Submission::new(5, 2, est_long / 2, GemmShape::new(3, 3, 3)).with_faults(strikes),
            Submission::new(6, 2, est_long, GemmShape::new(5, 2, 7)),
            Submission::new(7, 1, est_long + 1, GemmShape::new(2, 2, 2))
                .with_deadline_cycle(est_long + 2000),
        ];
        sim(config)
            .with_workers(workers)
            .run(&script)
            .expect("run")
            .to_canonical_json()
    };
    let one = report_at(1);
    assert_eq!(one, report_at(2), "workers=2 diverged from workers=1");
    assert_eq!(one, report_at(8), "workers=8 diverged from workers=1");
}

/// The overload soak: quota-limited, deadline-carrying, fault-striken
/// traffic from rival tenants over a single server with a tiny queue.
/// Every accepted job must terminate as bit-exact-completed,
/// evicted-with-checkpoint, or a typed failure — and the books must
/// balance.
#[test]
fn saturation_soak_never_loses_accepted_work() {
    let shapes = [
        GemmShape::new(4, 4, 6),
        GemmShape::new(6, 3, 8),
        GemmShape::new(2, 6, 4),
        GemmShape::new(8, 2, 10),
    ];
    let config = ServiceConfig::new(1)
        .with_queue_capacity(2)
        .with_retry(ServiceRetry {
            max_retries: 1,
            backoff_cycles: 128,
        })
        .with_tenant(TenantConfig::new(0).with_priority(1).with_max_in_flight(3))
        .with_tenant(
            TenantConfig::new(1)
                .with_priority(2)
                .with_bucket(1 << 14, 64),
        )
        .with_tenant(TenantConfig::new(2).with_priority(4));
    let mut script = Vec::new();
    for i in 0..24u64 {
        let shape = shapes[(i % 4) as usize];
        let est = estimate(shape);
        let mut sub = Submission::new(i, (i % 3) as u32, i * est / 6, shape);
        if i % 5 == 0 {
            // A deadline tight enough that overload makes some lapse.
            let deadline = sub.arrival_cycle + est * 2;
            sub = sub.with_deadline_cycle(deadline);
        }
        if i % 7 == 3 {
            sub = sub.with_faults(vec![(
                i,
                FaultSite::Pipe {
                    col: (i % 4) as usize,
                    row: (i % 2) as usize,
                    stage: 0,
                    bit: (i % 11) as u8,
                },
            )]);
        }
        script.push(sub);
    }
    let report: ServiceReport = sim(config).run(&script).expect("soak run");

    assert_eq!(
        report.jobs.len() + report.rejected.len(),
        script.len(),
        "every submission is accounted for"
    );
    assert!(
        !report.rejected.is_empty(),
        "the soak must actually overload"
    );
    let mut evicted = 0usize;
    for job in &report.jobs {
        match &job.status {
            ServiceStatus::Completed => {
                assert!(job.checkpoint.is_none());
                let sub = script.iter().find(|s| s.id == job.id).expect("sub");
                if sub.faults.is_empty() {
                    assert_eq!(
                        job.z_fnv64,
                        solo_record(sub).z_fnv64,
                        "job {} completed but not bit-exact",
                        job.id
                    );
                }
            }
            ServiceStatus::Evicted => {
                evicted += 1;
                assert!(
                    job.checkpoint.as_ref().is_some_and(|c| !c.is_empty()),
                    "job {} evicted without a resumable checkpoint",
                    job.id
                );
            }
            ServiceStatus::Failed(msg) => {
                assert!(!msg.is_empty(), "typed failure carries its cause");
            }
        }
    }
    assert!(evicted > 0, "the soak must shed work");
    // Fairness bookkeeping survives the storm.
    for t in &report.tenants {
        assert_eq!(
            t.submitted,
            t.admitted + t.rejected_quota + t.rejected_queue_full + t.rejected_deadline
        );
        assert_eq!(t.admitted as usize, {
            report.jobs.iter().filter(|j| j.tenant == t.id).count()
        });
    }
    // The canonical artefact is still byte-stable under this load.
    assert_eq!(
        report.to_canonical_json(),
        report.to_canonical_json(),
        "serialization is a pure function"
    );
}
