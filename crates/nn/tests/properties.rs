//! Property-based tests for the neural-network substrate.

use proptest::prelude::*;
use redmule_nn::backend::{Backend, CycleLedger};
use redmule_nn::mlp::{Dense, Network};
use redmule_nn::Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A whole training step is bit-identical across the HW and SW
    /// backends for arbitrary tiny topologies, batch sizes and data.
    #[test]
    fn training_step_is_backend_invariant(
        in_dim in 1usize..12,
        hidden in 1usize..12,
        batch in 1usize..5,
        seed in 0u64..1000,
        lr_milli in 1u32..100,
    ) {
        let lr = lr_milli as f32 / 1000.0;
        let build = || Network::new(vec![
            Dense::new("a", in_dim, hidden, true, seed),
            Dense::new("b", hidden, in_dim, false, seed + 1),
        ]);
        let x = Tensor::from_fn(in_dim, batch, |r, c| {
            ((r * 31 + c * 17 + seed as usize) % 23) as f32 / 23.0 - 0.4
        });

        let mut hw_net = build();
        let mut sw_net = build();
        let mut lh = CycleLedger::new();
        let mut ls = CycleLedger::new();
        let rh = hw_net.train_step(&x, lr, &mut Backend::hw(), &mut lh).expect("hw step");
        let rs = sw_net.train_step(&x, lr, &mut Backend::sw(), &mut ls).expect("sw step");
        prop_assert_eq!(rh.loss.to_bits(), rs.loss.to_bits());
        for (a, b) in hw_net.layers().iter().zip(sw_net.layers()) {
            prop_assert_eq!(a.weights(), b.weights());
        }
    }

    /// Tensor transpose is an involution and preserves every element.
    #[test]
    fn transpose_involution(rows in 1usize..20, cols in 1usize..20, seed in 0u64..100) {
        let t = Tensor::random(rows, cols, 2.0, seed | 1);
        let tt = t.transposed();
        prop_assert_eq!(tt.rows(), cols);
        prop_assert_eq!(tt.transposed(), t.clone());
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(t.get(r, c), tt.get(c, r));
            }
        }
    }

    /// Deeper batching never changes per-column results: column `c` of a
    /// batched forward equals the single-sample forward of that column.
    #[test]
    fn batching_is_column_independent(
        batch in 2usize..5,
        seed in 0u64..200,
    ) {
        let build = || Network::new(vec![
            Dense::new("a", 6, 9, true, seed),
            Dense::new("b", 9, 6, false, seed + 1),
        ]);
        let x = Tensor::from_fn(6, batch, |r, c| ((r + 5 * c) % 11) as f32 / 11.0 - 0.3);
        let mut ledger = CycleLedger::new();
        let mut backend = Backend::hw();
        let y = build().forward(&x, &mut backend, &mut ledger).expect("batched forward");
        for c in 0..batch {
            let xc = Tensor::from_fn(6, 1, |r, _| x.get(r, c).to_f32());
            let yc = build().forward(&xc, &mut backend, &mut ledger).expect("column forward");
            for r in 0..y.rows() {
                prop_assert_eq!(
                    y.get(r, c).to_bits(),
                    yc.get(r, 0).to_bits(),
                    "row {}, column {}", r, c
                );
            }
        }
    }
}
