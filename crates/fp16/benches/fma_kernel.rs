//! Micro-benchmark: scalar `fma` fold vs the batched kernel's `fma_acc`
//! step and its `gemm_staged` band.
//!
//! ```text
//! cargo bench -p redmule-fp16 --bench fma_kernel
//! ```
//!
//! Two groups:
//! * `fma4096` — one 4096-step reduction chain: `scalar_fma` makes one
//!   `arith::fma` call per step, classify + re-pack every time (what
//!   `FunctionalGemm` did before the batched kernel); `fma_acc` runs
//!   pre-classified operands with the accumulator kept unpacked between
//!   the per-step roundings.
//! * `gemm_staged` — whole bands through the register-blocked kernel
//!   `FunctionalGemm` actually runs: a 64x64x64 band of full blocks, and
//!   a ragged 33x40x37 band whose last block row and column are tails.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use redmule_fp16::arith::fma;
use redmule_fp16::kernel::{fma_acc, gemm_staged, Acc, Operand, Staged};
use redmule_fp16::Round;

const N: usize = 4096;

fn operands(len: usize, seed: u32) -> Vec<u16> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            // Finite, mid-range exponents: the all-finite common case.
            0x2C00 | (state as u16 & 0x0FFF)
        })
        .collect()
}

fn bench_fma(c: &mut Criterion) {
    let (xs, ws) = (operands(N, 0x1234_5678), operands(N, 0x8765_4321));
    let xo: Vec<Operand> = xs.iter().map(|&v| Operand::from_bits(v)).collect();
    let wo: Vec<Operand> = ws.iter().map(|&v| Operand::from_bits(v)).collect();

    let mut g = c.benchmark_group("fma4096");
    g.bench_function("scalar_fma", |b| {
        b.iter(|| {
            let mut acc = 0u16;
            for (&a, &w) in xs.iter().zip(ws.iter()) {
                acc = fma(a, w, acc, Round::NearestEven);
            }
            black_box(acc)
        })
    });
    g.bench_function("fma_acc", |b| {
        b.iter(|| {
            let mut acc = Acc::ZERO;
            for (&a, &w) in xo.iter().zip(wo.iter()) {
                acc = fma_acc(a, w, acc, Round::NearestEven);
            }
            black_box(acc.to_bits())
        })
    });
    g.finish();

    let mut g = c.benchmark_group("gemm_staged");
    for (m, n, k) in [(64, 64, 64), (33, 40, 37)] {
        let x = Staged::from_bits_iter(operands(m * n, 0x1234_5678).into_iter());
        let w = Staged::from_bits_iter(operands(n * k, 0x8765_4321).into_iter());
        g.bench_function(format!("{m}x{n}x{k}"), |b| {
            b.iter(|| {
                let mut acc = vec![Acc::ZERO; m * k];
                gemm_staged(&x, 0, n, &w, k, &mut acc);
                black_box(acc[0].to_bits())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fma);
criterion_main!(benches);
