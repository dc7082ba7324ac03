//! Helper threads live exactly as long as their executor, and a 1-worker
//! executor starts none. Alone in its file: threads of sibling tests in
//! the same test binary would skew the process's thread count.

#![cfg(target_os = "linux")]

mod common;

use common::adversarial_job_set;
use redmule_batch::BatchExecutor;
use std::thread;
use std::time::{Duration, Instant};

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// The thread count once it equals `expected`, or after a few seconds:
/// a joined thread can linger in the count briefly while the kernel
/// reaps it.
fn settled_threads(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = threads();
        if now == expected || Instant::now() >= deadline {
            return now;
        }
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn helpers_live_exactly_as_long_as_their_executor() {
    let baseline = threads();

    let single = BatchExecutor::new(1);
    single.run(adversarial_job_set()).expect("1-worker batch");
    assert_eq!(threads(), baseline, "a 1-worker executor starts no thread");
    drop(single);

    // The 11-job batch has work for every helper the host cap allows.
    let parallelism = thread::available_parallelism().map_or(1, |n| n.get());
    let helpers = parallelism.min(8) - 1;
    for _ in 0..20 {
        let executor = BatchExecutor::new(8);
        executor.run(adversarial_job_set()).expect("8-worker batch");
        assert_eq!(
            settled_threads(baseline + helpers),
            baseline + helpers,
            "8 workers on a host with {parallelism} threads"
        );
    }
    assert_eq!(
        settled_threads(baseline),
        baseline,
        "dropping an executor joins its helpers"
    );
}
