//! The persistent pool across runs: one executor serves many batches and
//! nothing of one run leaks into the next, client threads may share it,
//! and it survives thousands of back-to-back runs (the `#[ignore]`d
//! stress test, which `make test-full` runs).

mod common;

use common::{adversarial_job_set, data};
use redmule::BackendKind;
use redmule_batch::{BatchExecutor, BatchOutcome, GemmJob};
use redmule_fp16::vector::GemmShape;
use redmule_hwsim::rng::SplitMix64;
use std::io::Write;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Barrier;
use std::thread;
use std::time::Duration;

/// Compile-time: client threads may share one executor.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<BatchExecutor>();
};

/// The first `n` jobs of the adversarial set, in its shuffled order.
fn adversarial_prefix(n: usize) -> Vec<GemmJob> {
    adversarial_job_set().into_iter().take(n).collect()
}

#[test]
fn one_executor_serves_many_batches_and_nothing_leaks_between_runs() {
    const SIZES: [usize; 5] = [0, 1, 2, 3, 11];
    let serial: Vec<String> = SIZES
        .iter()
        .map(|&n| {
            BatchExecutor::new(1)
                .run(adversarial_prefix(n))
                .expect("1-worker batch")
                .report
                .to_canonical_json()
        })
        .collect();
    for workers in [1usize, 2, 3, 8] {
        let fresh: Vec<BatchOutcome> = SIZES
            .iter()
            .map(|&n| {
                BatchExecutor::new(workers)
                    .run(adversarial_prefix(n))
                    .expect("fresh executor")
            })
            .collect();
        let executor = BatchExecutor::new(workers);
        for run in 0..200 {
            let i = run % SIZES.len();
            let got = executor
                .run(adversarial_prefix(SIZES[i]))
                .expect("reused executor");
            let context = format!("run {run}: {} jobs at {workers} workers", SIZES[i]);
            let canonical = got.report.to_canonical_json();
            assert_eq!(canonical, fresh[i].report.to_canonical_json(), "{context}");
            assert_eq!(canonical, serial[i], "{context} vs 1 worker");
            assert_eq!(got.schedule, fresh[i].schedule, "{context}");
        }
    }
}

#[test]
fn client_threads_share_one_executor() {
    let reference = BatchExecutor::new(1)
        .run(adversarial_job_set())
        .expect("1-worker batch")
        .report
        .to_canonical_json();
    let executor = BatchExecutor::new(2);
    let start = Barrier::new(2);
    thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    (0..5)
                        .map(|_| {
                            executor
                                .run(adversarial_job_set())
                                .expect("shared executor")
                                .report
                                .to_canonical_json()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for client in clients {
            for got in client.join().expect("client thread") {
                assert_eq!(got, reference);
            }
        }
    });
}

/// Small jobs of uneven cost for the stress test: functional jobs of
/// several shapes with a small cycle-accurate job every eighth id.
fn stress_jobs() -> Vec<GemmJob> {
    (0..16u64)
        .map(|id| {
            let d = id as usize % 5;
            let shape = GemmShape::new(1 + d, 2 + 2 * d, 1 + 3 * d);
            let (x, w) = data(shape, id as u32);
            let backend = if id % 8 == 7 {
                BackendKind::CycleAccurate
            } else {
                BackendKind::Functional
            };
            GemmJob::new(id, shape, x, w).with_backend(backend)
        })
        .collect()
}

#[test]
#[ignore = "pool stress test: thousands of back-to-back runs under a watchdog (make test-full)"]
fn thousands_of_back_to_back_runs_match_the_serial_reference() {
    const SEED: u64 = 0x5EED_B00C;
    const ROUNDS: usize = 3;
    const RUNS_PER_ROUND: usize = 1000;
    // Many times the test's own time in a debug build: only a lost
    // wake-up (a run that never returns) gets here.
    const DEADLINE: Duration = Duration::from_secs(120);

    let (finished, watched) = mpsc::channel::<()>();
    let watchdog = thread::spawn(move || {
        if let Err(RecvTimeoutError::Timeout) = watched.recv_timeout(DEADLINE) {
            // Straight to the stderr handle: the test harness captures
            // `eprintln!` and would lose the message in the abort.
            writeln!(
                std::io::stderr(),
                "pool stress test (seed {SEED:#x}) still running after {DEADLINE:?}: \
                 a run never returned; aborting"
            )
            .ok();
            std::process::abort();
        }
    });

    let jobs = stress_jobs();
    let serial: Vec<String> = (0..=jobs.len())
        .map(|n| {
            BatchExecutor::new(1)
                .run(jobs[..n].to_vec())
                .expect("1-worker batch")
                .report
                .to_canonical_json()
        })
        .collect();
    let mut rng = SplitMix64::new(SEED);
    let mut draw = |below: usize| (rng.next_u64() % below as u64) as usize;
    // Each round drives one executor, at a drawn worker count of 2 to 8,
    // through a thousand back-to-back runs of drawn sizes and orders.
    for round in 0..ROUNDS {
        let workers = 2 + draw(7);
        let executor = BatchExecutor::new(workers);
        for run in 0..RUNS_PER_ROUND {
            let n = draw(jobs.len() + 1);
            let mut batch = jobs[..n].to_vec();
            batch.rotate_left(draw(n.max(1)));
            let got = executor
                .run(batch)
                .expect("stress run")
                .report
                .to_canonical_json();
            assert_eq!(
                got, serial[n],
                "seed {SEED:#x}, round {round}, run {run}: {n} jobs at {workers} workers"
            );
        }
    }

    drop(finished);
    watchdog.join().expect("watchdog thread");
}
