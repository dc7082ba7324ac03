//! The TinyMLPerf (MLPerf Tiny) anomaly-detection deep autoencoder.
//!
//! The benchmark's reference model reconstructs 640-dimensional inputs
//! (5 frames x 128 mel bins of machine-sound spectrograms) through a
//! symmetric MLP with an 8-dimensional bottleneck:
//!
//! ```text
//! 640 -> 128 -> 128 -> 128 -> 128 -> 8 -> 128 -> 128 -> 128 -> 128 -> 640
//! ```
//!
//! All hidden layers use ReLU (the reference model's batch-norm layers are
//! folded into the dense weights, as is standard for deployment); the
//! output layer is linear. The paper's Fig. 4c/4d train this model on
//! device with batch sizes 1 and 16.

use crate::mlp::{Dense, Network};

/// Input dimensionality (5 frames x 128 mel bins).
pub const INPUT_DIM: usize = 640;
/// Hidden width.
pub const HIDDEN_DIM: usize = 128;
/// Bottleneck width.
pub const BOTTLENECK_DIM: usize = 8;

/// The layer widths of the reference topology, inputs first.
fn layer_dims() -> Vec<usize> {
    vec![
        INPUT_DIM,
        HIDDEN_DIM,
        HIDDEN_DIM,
        HIDDEN_DIM,
        HIDDEN_DIM,
        BOTTLENECK_DIM,
        HIDDEN_DIM,
        HIDDEN_DIM,
        HIDDEN_DIM,
        HIDDEN_DIM,
        INPUT_DIM,
    ]
}

/// Builds the MLPerf-Tiny deep autoencoder with deterministic weights.
///
/// # Example
///
/// ```
/// use redmule_nn::autoencoder;
///
/// let net = autoencoder::mlperf_tiny(1);
/// assert_eq!(net.in_dim(), 640);
/// assert_eq!(net.out_dim(), 640);
/// // ~270k FP16 parameters, matching the published model size.
/// assert!((520_000..560_000).contains(&net.weight_bytes()));
/// ```
pub fn mlperf_tiny(seed: u64) -> Network {
    let dims = layer_dims();
    let n_layers = dims.len() - 1;
    let layers: Vec<Dense> = dims
        .windows(2)
        .enumerate()
        .map(|(i, pair)| {
            let relu = i + 1 < n_layers; // linear output layer
            Dense::new(format!("dense{i}"), pair[0], pair[1], relu, seed + i as u64)
        })
        .collect();
    Network::new(layers)
}

/// Memory footprint of one training step at batch size `b`, in bytes:
/// live activations plus the output-gradient buffer (weights live in L2
/// and are streamed; they are reported separately by
/// [`Network::weight_bytes`](crate::mlp::Network::weight_bytes)).
pub fn training_activation_bytes(net: &Network, b: usize) -> usize {
    // Activations of every layer boundary plus one gradient tensor of the
    // widest boundary.
    let widest = net
        .layers()
        .iter()
        .map(|l| l.out_dim().max(l.in_dim()))
        .max()
        .unwrap_or(0);
    net.activation_bytes(b) + 2 * widest * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, CycleLedger};
    use crate::Tensor;

    #[test]
    fn topology_matches_the_benchmark() {
        let dims = layer_dims();
        assert_eq!(dims.len(), 11);
        assert_eq!(dims[0], 640);
        assert_eq!(dims[5], 8);
        assert_eq!(dims[10], 640);
        let net = mlperf_tiny(3);
        assert_eq!(net.layers().len(), 10);
        assert!(net.layers()[0].has_relu());
        assert!(!net.layers()[9].has_relu(), "output layer is linear");
    }

    #[test]
    fn parameter_count_is_about_270k() {
        let net = mlperf_tiny(3);
        // 2*(640*128) + 6*(128*128) + 2*(128*8) + biases (1672), 2 B each.
        assert_eq!(net.weight_bytes(), 2 * (163840 + 98304 + 2048 + 1672));
    }

    #[test]
    fn footprints_fit_a_pulp_l2() {
        let net = mlperf_tiny(3);
        let weights_kb = net.weight_bytes() / 1024;
        // FP16 weights ~520 KiB: stream from a typical >= 1 MiB L2.
        assert!(
            (400..600).contains(&weights_kb),
            "weights = {weights_kb} KiB"
        );
        let act1 = training_activation_bytes(&net, 1);
        let act16 = training_activation_bytes(&net, 16);
        assert!(act16 > 14 * act1 && act16 < 17 * act1);
        assert!(
            act16 / 1024 < 128,
            "B=16 activations fit the TCDM+L2 budget"
        );
    }

    #[test]
    fn single_forward_pass_runs_on_both_backends() {
        let x = Tensor::from_fn(640, 1, |r, _| ((r % 11) as f32 - 5.0) / 16.0);
        let mut hw = Backend::hw();
        let mut sw = Backend::sw();
        let mut lh = CycleLedger::new();
        let mut ls = CycleLedger::new();
        let yh = mlperf_tiny(7)
            .forward(&x, &mut hw, &mut lh)
            .expect("hw forward");
        let ys = mlperf_tiny(7)
            .forward(&x, &mut sw, &mut ls)
            .expect("sw forward");
        assert_eq!(yh, ys, "backends must agree bitwise");
        assert_eq!(yh.rows(), 640);
        assert!(lh.total_cycles() < ls.total_cycles());
    }

    #[test]
    fn batching_helps_hw_much_more_than_sw() {
        // The essence of Fig. 4d at unit-test scale: per-sample forward
        // cycles shrink dramatically on HW when batching, barely on SW.
        let mut hw = Backend::hw();
        let mut sw = Backend::sw();
        let per_sample = |backend: &mut Backend, b: usize| {
            let x = Tensor::from_fn(640, b, |r, c| ((r + 3 * c) % 13) as f32 / 16.0 - 0.4);
            let mut ledger = CycleLedger::new();
            let mut net = mlperf_tiny(5);
            net.forward(&x, backend, &mut ledger).expect("forward");
            ledger.total_cycles().count() as f64 / b as f64
        };
        let hw_gain = per_sample(&mut hw, 1) / per_sample(&mut hw, 16);
        let sw_gain = per_sample(&mut sw, 1) / per_sample(&mut sw, 16);
        assert!(hw_gain > 5.0, "HW batching gain = {hw_gain}");
        assert!(sw_gain < 2.0, "SW batching gain = {sw_gain}");
    }
}
