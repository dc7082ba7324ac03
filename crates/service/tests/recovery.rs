//! Crash-consistent durability: kill the service at every single storage
//! write and prove recovery is bit-exact, typed and idempotent.
//!
//! The core invariant: after a crash at any write, recovery produces a
//! [`ServiceReport`] byte-identical (canonical JSON) to an uninterrupted
//! run over the recovered submission prefix — which is always the first
//! `k` submissions of the script in arrival order.

use redmule::{AccelConfig, Engine, FaultSite};
use redmule_fp16::vector::GemmShape;
use redmule_service::{
    ServiceConfig, ServiceError, ServiceSim, ServiceStatus, Submission, TenantConfig,
    JOURNAL_OBJECT,
};
use redmule_store::{
    CrashPlan, Journal, MemBackend, StorageBackend, StorageFault, StorageFaultPlan,
};

fn small_cfg() -> AccelConfig {
    AccelConfig::new(4, 2, 1)
}

fn sim(config: ServiceConfig) -> ServiceSim {
    ServiceSim::new(config)
        .expect("valid config")
        .with_engine(Engine::new(small_cfg()))
}

fn pressured_config() -> ServiceConfig {
    ServiceConfig::new(1)
        .with_tenant(TenantConfig::new(0).with_priority(1).with_max_in_flight(1))
        .with_tenant(TenantConfig::new(7).with_priority(5))
}

/// A script that exercises every durability-relevant path: a long
/// fault-striked victim that gets preempted (checkpoint generations), a
/// failing job (decision records of every tag), tight-deadline
/// interrupts and quota-bounced submissions (rejections).
fn pressured_script() -> Vec<Submission> {
    let long = GemmShape::new(8, 6, 10);
    let short = GemmShape::new(1, 1, 2);
    let strikes = vec![
        (
            40,
            FaultSite::Pipe {
                col: 1,
                row: 0,
                stage: 0,
                bit: 3,
            },
        ),
        (
            90,
            FaultSite::Pipe {
                col: 2,
                row: 1,
                stage: 0,
                bit: 7,
            },
        ),
    ];
    vec![
        Submission::new(1, 0, 0, long)
            .with_seed(11)
            .with_faults(strikes),
        Submission::new(100, 7, 60, short).with_deadline_cycle(200),
        Submission::new(200, 0, 61, short), // quota-bounced
        Submission::new(101, 7, 240, short).with_deadline_cycle(400),
        Submission::new(2, 0, 600, GemmShape::new(3, 4, 5)).with_seed(5),
    ]
}

/// The script in the service's deterministic arrival order.
fn sorted(script: &[Submission]) -> Vec<Submission> {
    let mut s = script.to_vec();
    s.sort_by_key(|sub| (sub.arrival_cycle, sub.id));
    s
}

#[test]
fn durable_run_matches_plain_run_and_populates_storage() {
    let script = pressured_script();
    let plain = sim(pressured_config()).run(&script).expect("plain run");
    let mut backend = MemBackend::new();
    let durable = sim(pressured_config())
        .run_durable(&script, &mut backend)
        .expect("durable run");
    assert_eq!(durable.to_canonical_json(), plain.to_canonical_json());
    assert!(
        !backend.read(JOURNAL_OBJECT).expect("journal").is_empty(),
        "durable run must leave a journal"
    );
    // Quota pressure and preemption must actually fire, or this script
    // proves nothing about checkpoints and decision tags.
    assert!(plain.rejected.iter().any(|r| r.tenant == 0));
    assert!(
        plain.jobs.iter().any(|j| j.migrations > 0),
        "script must preempt and migrate the victim"
    );
}

#[test]
fn run_durable_refuses_a_dirty_backend() {
    let script = pressured_script();
    let mut backend = MemBackend::new();
    sim(pressured_config())
        .run_durable(&script, &mut backend)
        .expect("first durable run");
    let err = sim(pressured_config())
        .run_durable(&script, &mut backend)
        .expect_err("second run on the same backend must refuse");
    assert!(matches!(err, ServiceError::Recover(_)), "got {err:?}");
}

/// Kill the durable run at every single write operation (with a
/// rotating torn-tail length) and recover: the report must be
/// byte-identical to an uninterrupted run over the recovered prefix,
/// with all damage surfacing as typed repairs — never a panic.
#[test]
fn kill_at_every_write_recovers_bit_exact() {
    let script = pressured_script();
    let in_order = sorted(&script);

    // Clean pass: learn the total write count (= every crash point).
    let mut clean = MemBackend::new();
    sim(pressured_config())
        .run_durable(&script, &mut clean)
        .expect("clean durable run");
    let writes = clean.writes_done();
    assert!(writes > 10, "expected a write-rich script, got {writes}");

    let mut reused_somewhere = false;
    let mut restored_somewhere = false;
    let mut torn_somewhere = false;
    for w in 0..writes {
        let mut backend = MemBackend::new();
        let plan = StorageFaultPlan::new(w).with_fault(StorageFault::TornAppend {
            write_op: w,
            keep_bytes: (w as usize * 7) % 23,
        });
        plan.apply(&mut backend);
        let err = sim(pressured_config())
            .run_durable(&script, &mut backend)
            .expect_err("the crash plan must abort the run");
        assert!(
            matches!(err, ServiceError::Store(_)),
            "crash at write {w} must surface as a Store error, got {err:?}"
        );
        backend.clear_crash();

        let recovery = sim(pressured_config())
            .recover(&mut backend)
            .unwrap_or_else(|e| panic!("recovery after crash at write {w} failed: {e}"));
        let k = recovery.recovery.submissions_recovered as usize;
        assert!(k <= in_order.len());
        let expected = sim(pressured_config())
            .run(&in_order[..k])
            .expect("reference run over the recovered prefix");
        assert_eq!(
            recovery.report.to_canonical_json(),
            expected.to_canonical_json(),
            "crash at write {w}: recovered report differs from a fresh run \
             over the first {k} submissions"
        );
        reused_somewhere |= recovery.recovery.jobs_reused > 0;
        restored_somewhere |= recovery.recovery.checkpoints_restored > 0;
        torn_somewhere |= recovery.recovery.torn_bytes > 0;
        if recovery.recovery.torn_bytes > 0 {
            assert!(
                recovery
                    .recovery
                    .repairs
                    .iter()
                    .any(|r| r.artefact == "journal" && r.action == "truncated-tail"),
                "crash at write {w}: torn tail must be a typed repair"
            );
        }
    }
    // The sweep must actually cover the interesting recovery paths.
    assert!(reused_somewhere, "no crash point reused a journaled result");
    assert!(restored_somewhere, "no crash point restored a checkpoint");
    assert!(torn_somewhere, "no crash point tore the journal tail");
}

/// Recovery never writes anything but the journal tail repair, so
/// recovering twice gives identical reports and identical bookkeeping.
#[test]
fn recovery_is_idempotent() {
    let script = pressured_script();
    let mut clean = MemBackend::new();
    sim(pressured_config())
        .run_durable(&script, &mut clean)
        .expect("clean durable run");
    let mid = clean.writes_done() / 2;

    let mut backend = MemBackend::new();
    StorageFaultPlan::new(1)
        .with_fault(StorageFault::TornAppend {
            write_op: mid,
            keep_bytes: 9,
        })
        .apply(&mut backend);
    sim(pressured_config())
        .run_durable(&script, &mut backend)
        .expect_err("must crash");
    backend.clear_crash();

    let first = sim(pressured_config())
        .recover(&mut backend)
        .expect("first");
    let second = sim(pressured_config())
        .recover(&mut backend)
        .expect("second");
    assert_eq!(
        first.report.to_canonical_json(),
        second.report.to_canonical_json()
    );
    assert_eq!(
        first.recovery.submissions_recovered,
        second.recovery.submissions_recovered
    );
    assert_eq!(first.recovery.jobs_reused, second.recovery.jobs_reused);
    assert_eq!(
        first.recovery.checkpoints_restored,
        second.recovery.checkpoints_restored
    );
    // The tail was already truncated by the first pass.
    assert_eq!(second.recovery.torn_bytes, 0);
}

/// Satellite: a journal whose tail record was replayed (duplicated) by a
/// crashed append recovers cleanly — the duplicate submission is ignored
/// with a typed repair, not double-admitted.
#[test]
fn duplicate_submission_records_are_idempotent() {
    let script = pressured_script();
    let in_order = sorted(&script);
    // Crash at write 3: the config record (write 0) and two SUBMITTED
    // appends survive, so the journal tail is a whole submission record.
    let mut backend = MemBackend::new();
    StorageFaultPlan::new(0)
        .with_fault(StorageFault::TornAppend {
            write_op: 3,
            keep_bytes: 0,
        })
        .apply(&mut backend);
    sim(pressured_config())
        .run_durable(&script, &mut backend)
        .expect_err("must crash");
    backend.clear_crash();
    // Replay the tail append: the same submission record twice.
    StorageFaultPlan::new(0)
        .with_fault(StorageFault::DuplicateTailRecord { object_index: 0 })
        .apply(&mut backend);

    let recovery = sim(pressured_config())
        .recover(&mut backend)
        .expect("recover");
    assert_eq!(recovery.recovery.submissions_recovered, 2);
    assert!(recovery.recovery.records_ignored >= 1);
    assert!(
        recovery
            .recovery
            .repairs
            .iter()
            .any(|r| r.action == "ignored-duplicate"),
        "duplicate must surface as a typed repair: {:?}",
        recovery.recovery.repairs
    );
    let expected = sim(pressured_config())
        .run(&in_order[..2])
        .expect("reference");
    assert_eq!(
        recovery.report.to_canonical_json(),
        expected.to_canonical_json()
    );
}

/// A corrupted newest checkpoint generation costs re-executed cycles,
/// never changed bytes: recovery falls back a generation with a typed
/// repair and still reproduces the reference report exactly.
#[test]
fn corrupt_checkpoint_falls_back_a_generation_bit_exact() {
    let script = pressured_script();
    let in_order = sorted(&script);

    // Find a crash point whose recovery restores a checkpoint.
    let mut clean = MemBackend::new();
    sim(pressured_config())
        .run_durable(&script, &mut clean)
        .expect("clean durable run");
    let writes = clean.writes_done();
    let mut found = None;
    for w in (0..writes).rev() {
        let mut backend = MemBackend::new();
        StorageFaultPlan::new(w)
            .with_fault(StorageFault::TornAppend {
                write_op: w,
                keep_bytes: 0,
            })
            .apply(&mut backend);
        sim(pressured_config())
            .run_durable(&script, &mut backend)
            .expect_err("must crash");
        backend.clear_crash();
        let probe = sim(pressured_config())
            .recover(&mut backend)
            .expect("probe");
        if probe.recovery.checkpoints_restored > 0 {
            found = Some((w, backend));
            break;
        }
    }
    let (w, backend) = found.expect("some crash point must restore a checkpoint");

    // Corrupt the newest checkpoint record and recover the same state.
    let mut corrupted = backend.clone();
    let newest = corrupted
        .object_names()
        .into_iter()
        .rfind(|n| n.starts_with("service.ckpt"))
        .expect("a checkpoint object exists");
    let bytes = corrupted.object_mut(&newest).expect("checkpoint bytes");
    let at = bytes.len() / 2;
    bytes[at] ^= 0x40;

    let recovery = sim(pressured_config())
        .recover(&mut corrupted)
        .expect("recovery over a corrupt checkpoint");
    assert!(
        recovery
            .recovery
            .repairs
            .iter()
            .any(|r| r.artefact == "checkpoint"
                && (r.action == "fell-back-generation" || r.action == "discarded")),
        "crash at write {w}: corruption must surface as a typed repair: {:?}",
        recovery.recovery.repairs
    );
    let k = recovery.recovery.submissions_recovered as usize;
    let expected = sim(pressured_config())
        .run(&in_order[..k])
        .expect("reference");
    assert_eq!(
        recovery.report.to_canonical_json(),
        expected.to_canonical_json(),
        "fallback recovery must still be bit-exact"
    );
}

/// What recovery reports it recovered, against what the journal holds.
/// After a clean durable run the decisions are sealed and every admitted
/// job is reused from its execution record. A crash at the decision-seal
/// write keeps every decision but not the seal, so recovery recomputes
/// the failure set and re-executes, and still reproduces a plain run.
#[test]
fn recovery_counters_match_the_journal() {
    let script = pressured_script();

    // Case 1: a clean durable run.
    let mut clean = MemBackend::new();
    let durable = sim(pressured_config())
        .run_durable(&script, &mut clean)
        .expect("clean durable run");
    let admitted = durable.jobs.len() as u64;
    assert!(admitted > 0 && !durable.rejected.is_empty());
    let recovery = sim(pressured_config())
        .recover(&mut clean)
        .expect("clean recovery");
    let r = &recovery.recovery;
    assert_eq!(r.torn_bytes, 0);
    assert!(r.decisions_sealed);
    assert_eq!(r.decisions_recovered, admitted);
    assert_eq!(r.exec_records_recovered, admitted);
    assert_eq!(r.jobs_reused, admitted);
    assert_eq!(r.checkpoints_restored, 0);
    assert_eq!(
        recovery.report.to_canonical_json(),
        durable.to_canonical_json()
    );

    // Case 2: a crash at the decision seal. The writes before it are the
    // configuration, each submission, the script seal and one decision
    // per admitted job.
    let seal = 1 + script.len() as u64 + 1 + admitted;
    let mut backend = MemBackend::new();
    backend.set_crash_plan(CrashPlan::new(seal, 0));
    sim(pressured_config())
        .run_durable(&script, &mut backend)
        .expect_err("the crash plan must abort the run");
    backend.clear_crash();
    let recovery = sim(pressured_config())
        .recover(&mut backend)
        .expect("recovery without a decision seal");
    let r = &recovery.recovery;
    assert!(!r.decisions_sealed);
    assert_eq!(r.decisions_recovered, admitted);
    assert_eq!(r.exec_records_recovered, 0);
    assert_eq!(r.jobs_reused, 0);
    let k = r.submissions_recovered as usize;
    assert_eq!(k, script.len());
    let expected = sim(pressured_config())
        .run(&sorted(&script)[..k])
        .expect("reference run over the recovered prefix");
    assert_eq!(
        recovery.report.to_canonical_json(),
        expected.to_canonical_json()
    );
}

#[test]
fn recover_refuses_a_foreign_configuration() {
    let script = pressured_script();
    let mut backend = MemBackend::new();
    sim(pressured_config())
        .run_durable(&script, &mut backend)
        .expect("durable run");
    let other = ServiceConfig::new(2)
        .with_tenant(TenantConfig::new(0))
        .with_tenant(TenantConfig::new(7));
    let err = sim(other)
        .recover(&mut backend)
        .expect_err("foreign config must be refused");
    assert!(matches!(err, ServiceError::Recover(_)), "got {err:?}");
}

#[test]
fn empty_backend_recovers_to_an_empty_report() {
    let mut backend = MemBackend::new();
    let recovery = sim(pressured_config())
        .recover(&mut backend)
        .expect("empty recovery");
    assert_eq!(recovery.recovery.submissions_recovered, 0);
    assert!(recovery.report.jobs.is_empty());
    assert!(recovery.report.rejected.is_empty());
    let expected = sim(pressured_config()).run(&[]).expect("empty run");
    assert_eq!(
        recovery.report.to_canonical_json(),
        expected.to_canonical_json()
    );
}

/// FNV-1a 64 with the multiply done bit by bit (shift-and-add), so the
/// pinned digests share no code with the library checksum they guard.
fn bit_serial_fnv1a64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        let mut product = 0u64;
        for bit in 0..64 {
            if (PRIME >> bit) & 1 == 1 {
                product = product.wrapping_add(hash << bit);
            }
        }
        hash = product;
    }
    hash
}

/// Every byte a durable run stores is pinned: the journal (including an
/// execution record that carries an evicted job's checkpoint) and every
/// checkpoint generation. Name, length and digest of each object were
/// recorded before the checksum and codec fast paths landed, so a moved
/// journal or checkpoint byte fails here.
#[test]
fn durable_storage_bytes_are_pinned() {
    let mid = GemmShape::new(6, 4, 8);
    let strike = FaultSite::Pipe {
        col: 1,
        row: 0,
        stage: 0,
        bit: 3,
    };
    // One server, a one-slot queue: the urgent job preempts and migrates
    // job 1, then tenant 7's burst displaces queued low-priority work.
    let config = ServiceConfig::new(1)
        .with_queue_capacity(1)
        .with_tenant(TenantConfig::new(0).with_priority(1))
        .with_tenant(TenantConfig::new(7).with_priority(5));
    let script = vec![
        Submission::new(1, 0, 0, GemmShape::new(8, 6, 10))
            .with_seed(11)
            .with_faults(vec![(40, strike)]),
        Submission::new(100, 7, 60, GemmShape::new(1, 1, 2)).with_deadline_cycle(200),
        Submission::new(2, 0, 300, mid).with_seed(3),
        Submission::new(3, 0, 300, mid).with_seed(4),
        Submission::new(4, 7, 301, mid).with_seed(5),
    ];
    let mut backend = MemBackend::new();
    let report = sim(config)
        .run_durable(&script, &mut backend)
        .expect("durable run");
    assert!(
        report.jobs.iter().any(|j| j.migrations > 0),
        "script must migrate a job"
    );
    let evicted = report
        .jobs
        .iter()
        .find(|j| j.status == ServiceStatus::Evicted)
        .and_then(|j| j.checkpoint.as_ref())
        .expect("script must evict a job with its checkpoint");
    // The checkpoint is the last field of the evicted job's execution
    // record, so that record's payload ends with its bytes.
    let scan = Journal::new(JOURNAL_OBJECT).scan(&backend).expect("scan");
    assert!(
        scan.records
            .iter()
            .any(|(_, payload)| payload.ends_with(evicted)),
        "an execution record must carry the evicted checkpoint"
    );

    let stored: Vec<(String, usize, u64)> = backend
        .object_names()
        .into_iter()
        .map(|name| {
            let bytes = backend.object(&name).expect("listed object");
            let digest = bit_serial_fnv1a64(bytes);
            (name, bytes.len(), digest)
        })
        .collect();
    let pinned = [
        (
            "service.ckpt.j0000000000000001.g00000001",
            132_252,
            0x5e2f_310d_506d_07e8,
        ),
        (
            "service.ckpt.j0000000000000003.g00000001",
            131_843,
            0x5460_a61d_55bd_02fb,
        ),
        ("service.journal", 133_020, 0x4750_803a_4ae1_38bf),
    ];
    let pinned: Vec<(String, usize, u64)> = pinned
        .iter()
        .map(|&(name, len, digest)| (name.to_owned(), len, digest))
        .collect();
    assert_eq!(stored, pinned);
}
