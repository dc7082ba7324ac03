//! Allocation budget of the cycle-accurate engine.
//!
//! `Engine::run` may allocate once per streamer transaction (a W group, an
//! X chunk row, a preloaded or stored Z row) plus a fixed set-up and
//! report cost, but never per simulated cycle: the tick loop runs on
//! reused scratch. A counting global allocator measures one 40x40x40 run
//! per operand format against that budget.

use redmule::{stage_gemm_workspace_in, AccelConfig, Engine, Format};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::F16;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations made by the current thread, so tests running
/// concurrently in the harness do not pollute each other's counts.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: an allocation made while the thread tears down its
    // locals goes uncounted instead of panicking inside the allocator.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards unchanged to the system allocator; the
// wrapper only bumps a thread-local counter, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Set-up and report allocations `Engine::run` may make on top of one
/// per transaction.
const FIXED_BUDGET: u64 = 64;

fn operands(len: usize, salt: u32) -> Vec<F16> {
    (0..len)
        .map(|i| {
            let v = ((i as u32).wrapping_mul(2654435761).wrapping_add(salt) >> 16) % 64;
            F16::from_f32(v as f32 / 32.0 - 1.0)
        })
        .collect()
}

#[test]
fn engine_run_allocates_per_transaction_not_per_cycle() {
    let shape = GemmShape::new(40, 40, 40);
    let x = operands(shape.x_len(), 3);
    let w = operands(shape.w_len(), 0x5EED);
    let engine = Engine::new(AccelConfig::paper());
    for format in [Format::Fp16, Format::Fp8E4M3] {
        let (job, mut mem, mut hci) =
            stage_gemm_workspace_in(shape, format, &x, &w, None).expect("stage the job");
        let before = ALLOCS.with(Cell::get);
        let report = engine.run(job, &mut mem, &mut hci).expect("run");
        let allocs = ALLOCS.with(Cell::get) - before;
        let transactions: u64 = ["w_loads", "x_loads", "z_preloads", "z_stores"]
            .iter()
            .map(|k| report.stats.get(k))
            .sum();
        let cycles = report.cycles.count();
        assert!(
            allocs <= transactions + FIXED_BUDGET,
            "{format:?}: {allocs} allocations for {transactions} transactions over {cycles} cycles"
        );
    }
}
