//! Allocation budget of the cycle-accurate engine.
//!
//! `Engine::run` pays a fixed set-up and report cost and nothing else:
//! every buffer slot is sized once when the session starts, so neither a
//! simulated cycle nor a streamer transaction (a W group, an X chunk row,
//! a preloaded or stored Z row) allocates, and the count does not grow
//! with the job. A counting global allocator measures a 40x40x40 and a
//! 96x96x96 run per case against that budget.

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

/// Set-up and report allocations `Engine::run` may make.
const FIXED_BUDGET: u64 = 64;

fn operands(len: usize, salt: u32) -> Vec<F16> {
    (0..len)
        .map(|i| {
            let v = ((i as u32).wrapping_mul(2654435761).wrapping_add(salt) >> 16) % 64;
            F16::from_f32(v as f32 / 32.0 - 1.0)
        })
        .collect()
}

/// Allocations made by one `Engine::run` of a `d x d x d` job, with its
/// transaction and cycle counts.
fn run_counting(d: usize, format: Format, accumulate: bool) -> (u64, u64, u64) {
    let shape = GemmShape::new(d, d, d);
    let x = operands(shape.x_len(), 3);
    let w = operands(shape.w_len(), 0x5EED);
    let y = accumulate.then(|| operands(shape.z_len(), 0xACC));
    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, format, &x, &w, y.as_deref()).expect("stage the job");
    let engine = Engine::new(AccelConfig::paper());
    let before = ALLOCS.with(Cell::get);
    let report = engine.run(job, &mut mem, &mut hci).expect("run");
    let allocs = ALLOCS.with(Cell::get) - before;
    let transactions: u64 = ["w_loads", "x_loads", "z_preloads", "z_stores"]
        .iter()
        .map(|k| report.stats.get(k))
        .sum();
    (allocs, transactions, report.cycles.count())
}

#[test]
fn engine_run_allocates_a_fixed_amount_whatever_the_job() {
    let cases = [
        (Format::Fp16, false),
        (Format::Fp8E4M3, false),
        (Format::Fp16, true),
        (Format::Fp8E5M2, true),
    ];
    for (format, accumulate) in cases {
        let (small, small_tx, small_cycles) = run_counting(40, format, accumulate);
        let (large, large_tx, large_cycles) = run_counting(96, format, accumulate);
        let case = format!("{format:?} accumulate={accumulate}");
        assert!(
            small <= FIXED_BUDGET,
            "{case}: {small} allocations for {small_tx} transactions over {small_cycles} cycles"
        );
        assert_eq!(
            small, large,
            "{case}: 40^3 ({small_tx} transactions, {small_cycles} cycles) and 96^3 \
             ({large_tx} transactions, {large_cycles} cycles) allocate differently"
        );
    }
}
