//! Dense layers and SGD training with full cycle accounting.
//!
//! Conventions:
//!
//! * activations are `features x batch` tensors, so a forward GEMM is
//!   `Y(out x B) = Wt(out x in) * A(in x B)` — the paper's orientation
//!   where the GEMM `K` dimension equals the batch size;
//! * weights are kept in **both** layouts (`Wt` = `out x in` and its
//!   transpose) so backward passes need no on-the-fly weight transpose —
//!   the standard memory-for-cycles trade on PULP systems; the SGD update
//!   pays for writing both copies;
//! * activation transposes (needed by the weight-gradient GEMM) run on
//!   the cores and are charged as elementwise work.

use crate::backend::{Backend, CycleLedger, OpKind};
use crate::tensor::Tensor;
use redmule::EngineError;
use redmule_fp16::vector::GemmShape;
use redmule_fp16::F16;
use redmule_hwsim::Cycle;

/// A fully connected layer with optional bias and ReLU.
#[derive(Debug, Clone)]
pub struct Dense {
    name: String,
    /// `out x in` (forward layout).
    wt: Tensor,
    /// `in x out` (backward layout, kept in sync).
    w: Tensor,
    /// `out x 1`.
    bias: Tensor,
    relu: bool,
    /// Caches for the backward pass.
    input: Option<Tensor>,
    output: Option<Tensor>,
    /// Gradients produced by `backward`, consumed by `apply_update`.
    d_wt: Option<Tensor>,
    d_bias: Option<Tensor>,
}

impl Dense {
    /// Creates a layer with deterministic uniform init scaled by
    /// `1/sqrt(in_dim)`.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    pub fn new(
        name: impl Into<String>,
        in_dim: usize,
        out_dim: usize,
        relu: bool,
        seed: u64,
    ) -> Dense {
        assert!(
            in_dim > 0 && out_dim > 0,
            "layer dimensions must be positive"
        );
        let scale = 1.0 / (in_dim as f32).sqrt();
        let wt = Tensor::random(out_dim, in_dim, scale, seed);
        let w = wt.transposed();
        Dense {
            name: name.into(),
            wt,
            w,
            bias: Tensor::zeros(out_dim, 1),
            relu,
            input: None,
            output: None,
            d_wt: None,
            d_bias: None,
        }
    }

    /// Layer label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.wt.cols()
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.wt.rows()
    }

    /// Whether the layer applies ReLU (read by the topology tests).
    #[cfg(test)]
    pub(crate) fn has_relu(&self) -> bool {
        self.relu
    }

    /// Forward-layout weights (`out x in`).
    pub fn weights(&self) -> &Tensor {
        &self.wt
    }

    /// Parameter count (weights + bias), each stored once for counting
    /// purposes (the duplicated layout is an implementation detail).
    fn param_count(&self) -> usize {
        self.wt.len() + self.bias.len()
    }

    /// Forward pass: `Y = relu(Wt * A + b)`.
    ///
    /// # Errors
    ///
    /// Returns the backend's [`EngineError`] if the GEMM fails (e.g. a
    /// watchdog timeout or TCDM fault on the hardware path).
    pub fn forward(
        &mut self,
        a: &Tensor,
        backend: &mut Backend,
        ledger: &mut CycleLedger,
    ) -> Result<Tensor, EngineError> {
        assert_eq!(a.rows(), self.in_dim(), "input features mismatch");
        let b = a.cols();
        let shape = GemmShape::new(self.out_dim(), self.in_dim(), b);
        let (y, cycles) = backend.gemm(shape, self.wt.as_slice(), a.as_slice())?;
        ledger.record(&self.name, OpKind::Forward, Some(shape), cycles);

        let mut y = Tensor::from_vec(self.out_dim(), b, y);
        for r in 0..self.out_dim() {
            let bias = self.bias.get(r, 0);
            for c in 0..b {
                let mut v = y.get(r, c) + bias;
                if self.relu && !v.is_nan() && v.is_sign_negative() && !v.is_zero() {
                    v = F16::ZERO;
                }
                y.set(r, c, v);
            }
        }
        ledger.record(
            &self.name,
            OpKind::Elementwise,
            None,
            backend.elementwise_cycles(y.len()),
        );

        self.input = Some(a.clone());
        self.output = Some(y.clone());
        Ok(y)
    }

    /// Backward pass: consumes `dY (out x B)`, stores the weight/bias
    /// gradients and returns `dA (in x B)`.
    ///
    /// # Errors
    ///
    /// Returns the backend's [`EngineError`] if a gradient GEMM fails.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` or with mismatched shapes.
    fn backward(
        &mut self,
        d_out: &Tensor,
        backend: &mut Backend,
        ledger: &mut CycleLedger,
    ) -> Result<Tensor, EngineError> {
        let input = self.input.as_ref().expect("forward must run first").clone();
        let output = self.output.as_ref().expect("forward must run first");
        assert_eq!(d_out.rows(), self.out_dim(), "gradient features mismatch");
        let batch = d_out.cols();
        assert_eq!(batch, input.cols(), "gradient batch mismatch");

        // ReLU mask.
        let mut d_y = d_out.clone();
        if self.relu {
            for r in 0..d_y.rows() {
                for c in 0..d_y.cols() {
                    let fwd = output.get(r, c);
                    if fwd.is_zero() || fwd.is_sign_negative() {
                        d_y.set(r, c, F16::ZERO);
                    }
                }
            }
            ledger.record(
                &self.name,
                OpKind::Elementwise,
                None,
                backend.elementwise_cycles(d_y.len()),
            );
        }

        // Bias gradient: row sums of dY.
        let mut d_bias = Tensor::zeros(self.out_dim(), 1);
        for r in 0..self.out_dim() {
            let mut acc = F16::ZERO;
            for c in 0..batch {
                acc += d_y.get(r, c);
            }
            d_bias.set(r, 0, acc);
        }
        ledger.record(
            &self.name,
            OpKind::Elementwise,
            None,
            backend.elementwise_cycles(d_y.len()),
        );

        // Weight gradient: dWt(out x in) = dY(out x B) * A^T(B x in).
        // The activation transpose runs on the cores.
        let a_t = input.transposed();
        ledger.record(
            &self.name,
            OpKind::Elementwise,
            None,
            backend.elementwise_cycles(a_t.len()),
        );
        let shape_w = GemmShape::new(self.out_dim(), batch, self.in_dim());
        let (d_wt, cycles) = backend.gemm(shape_w, d_y.as_slice(), a_t.as_slice())?;
        ledger.record(&self.name, OpKind::BackwardWeight, Some(shape_w), cycles);
        self.d_wt = Some(Tensor::from_vec(self.out_dim(), self.in_dim(), d_wt));
        self.d_bias = Some(d_bias);

        // Input gradient: dA(in x B) = W(in x out) * dY(out x B), using
        // the backward-layout weight copy (no transpose needed).
        let shape_a = GemmShape::new(self.in_dim(), self.out_dim(), batch);
        let (d_a, cycles) = backend.gemm(shape_a, self.w.as_slice(), d_y.as_slice())?;
        ledger.record(&self.name, OpKind::BackwardData, Some(shape_a), cycles);
        Ok(Tensor::from_vec(self.in_dim(), batch, d_a))
    }

    /// SGD step: `W -= lr * dW` on both weight copies, and the bias.
    ///
    /// # Panics
    ///
    /// Panics if no gradients are pending (call `backward` first).
    fn apply_update(&mut self, lr: f32, backend: &mut Backend, ledger: &mut CycleLedger) {
        let d_wt = self.d_wt.take().expect("no pending gradient");
        let d_bias = self.d_bias.take().expect("no pending gradient");
        let neg_lr = F16::from_f32(-lr);
        for (w, g) in self.wt.as_mut_slice().iter_mut().zip(d_wt.as_slice()) {
            *w = neg_lr.mul_add(*g, *w);
        }
        self.w = self.wt.transposed();
        for (b, g) in self.bias.as_mut_slice().iter_mut().zip(d_bias.as_slice()) {
            *b = neg_lr.mul_add(*g, *b);
        }
        // Both layout copies are written.
        ledger.record(
            &self.name,
            OpKind::Update,
            None,
            backend.elementwise_cycles(2 * self.wt.len() + self.bias.len()),
        );
    }
}

/// A sequential stack of [`Dense`] layers.
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<Dense>,
}

/// Summary of one training step.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// Mean-squared reconstruction error (computed in f64 for reporting).
    pub loss: f64,
    /// Cycles added to the ledger by this step.
    pub cycles: Cycle,
}

impl Network {
    /// Builds a network from layers.
    ///
    /// # Panics
    ///
    /// Panics if consecutive layer dimensions do not match.
    pub fn new(layers: Vec<Dense>) -> Network {
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].out_dim(),
                pair[1].in_dim(),
                "layer dimension mismatch between {} and {}",
                pair[0].name(),
                pair[1].name()
            );
        }
        Network { layers }
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, Dense::in_dim)
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Dense::out_dim)
    }

    /// Total parameter count.
    fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Bytes of FP16 parameters (single-copy accounting).
    pub fn weight_bytes(&self) -> usize {
        2 * self.param_count()
    }

    /// Bytes of FP16 activations a forward+backward pass keeps live for a
    /// given batch size (inputs and outputs of every layer).
    pub fn activation_bytes(&self, batch: usize) -> usize {
        let feats: usize = self.in_dim() + self.layers.iter().map(Dense::out_dim).sum::<usize>();
        2 * feats * batch
    }

    /// Forward pass through all layers.
    ///
    /// # Errors
    ///
    /// Returns the backend's [`EngineError`] if any layer GEMM fails.
    pub fn forward(
        &mut self,
        x: &Tensor,
        backend: &mut Backend,
        ledger: &mut CycleLedger,
    ) -> Result<Tensor, EngineError> {
        let mut a = x.clone();
        for layer in &mut self.layers {
            a = layer.forward(&a, backend, ledger)?;
        }
        Ok(a)
    }

    /// One autoencoder training step: reconstruct `x`, MSE loss against
    /// `x` itself, full backward pass and SGD update.
    ///
    /// # Errors
    ///
    /// Returns the backend's [`EngineError`] if any GEMM in the step
    /// fails; the network is left with whatever partial state the step
    /// reached (no pending gradients are applied).
    ///
    /// # Panics
    ///
    /// Panics if the network's output shape differs from `x`'s.
    pub fn train_step(
        &mut self,
        x: &Tensor,
        lr: f32,
        backend: &mut Backend,
        ledger: &mut CycleLedger,
    ) -> Result<StepReport, EngineError> {
        let before = ledger.total_cycles();
        let y = self.forward(x, backend, ledger)?;
        assert_eq!(
            (y.rows(), y.cols()),
            (x.rows(), x.cols()),
            "an autoencoder reconstructs its input's shape"
        );

        // MSE loss gradient: dY = (Y - T) * 2/out_features. Computed in
        // FP16 (this is what the device would do); the reported loss is
        // f64 for diagnostics only.
        let scale = F16::from_f32(2.0 / y.rows() as f32);
        let mut d_y = Tensor::zeros(y.rows(), y.cols());
        let mut loss = 0.0f64;
        for r in 0..y.rows() {
            for c in 0..y.cols() {
                let diff = y.get(r, c) - x.get(r, c);
                loss += diff.to_f64() * diff.to_f64();
                d_y.set(r, c, diff * scale);
            }
        }
        loss /= (y.rows() * y.cols().max(1)) as f64;
        ledger.record(
            "loss",
            OpKind::Loss,
            None,
            backend.elementwise_cycles(2 * y.len()),
        );

        let mut grad = d_y;
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad, backend, ledger)?;
        }
        for layer in &mut self.layers {
            layer.apply_update(lr, backend, ledger);
        }

        Ok(StepReport {
            loss,
            cycles: Cycle::new(ledger.total_cycles().count() - before.count()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net(seed: u64) -> Network {
        Network::new(vec![
            Dense::new("d0", 4, 6, true, seed),
            Dense::new("d1", 6, 4, false, seed + 1),
        ])
    }

    fn sample(batch: usize) -> Tensor {
        Tensor::from_fn(4, batch, |r, c| ((r * 3 + c * 5) % 7) as f32 / 8.0 - 0.3)
    }

    #[test]
    fn forward_matches_manual_computation() {
        let mut layer = Dense::new("t", 2, 2, false, 3);
        let mut backend = Backend::sw();
        let mut ledger = CycleLedger::new();
        let a = Tensor::from_fn(2, 1, |r, _| (r + 1) as f32); // [1, 2]
        let y = layer
            .forward(&a, &mut backend, &mut ledger)
            .expect("forward");
        for r in 0..2 {
            // Same FMA order as the backend: accumulate in index order.
            let mut acc = F16::ZERO;
            acc = layer.weights().get(r, 0).mul_add(a.get(0, 0), acc);
            acc = layer.weights().get(r, 1).mul_add(a.get(1, 0), acc);
            assert_eq!(y.get(r, 0).to_bits(), acc.to_bits());
        }
    }

    #[test]
    fn relu_zeroes_negative_outputs() {
        let mut layer = Dense::new("t", 3, 8, true, 11);
        let mut backend = Backend::sw();
        let mut ledger = CycleLedger::new();
        let a = Tensor::from_fn(3, 2, |r, c| (r as f32 - 1.0) * (c as f32 + 1.0));
        let y = layer
            .forward(&a, &mut backend, &mut ledger)
            .expect("forward");
        assert!(y
            .as_slice()
            .iter()
            .all(|v| !v.is_sign_negative() || v.is_zero()));
    }

    #[test]
    fn train_step_reduces_loss() {
        let mut net = tiny_net(5);
        let mut backend = Backend::sw();
        let mut ledger = CycleLedger::new();
        let x = sample(2);
        let first = net
            .train_step(&x, 0.05, &mut backend, &mut ledger)
            .expect("step")
            .loss;
        let mut last = first;
        for _ in 0..30 {
            last = net
                .train_step(&x, 0.05, &mut backend, &mut ledger)
                .expect("step")
                .loss;
        }
        assert!(
            last < first * 0.8,
            "loss must fall: first = {first}, last = {last}"
        );
    }

    #[test]
    fn hw_and_sw_training_steps_are_bit_identical() {
        let x = sample(3);
        let mut ledger_h = CycleLedger::new();
        let mut ledger_s = CycleLedger::new();
        let mut net_h = tiny_net(9);
        let mut net_s = tiny_net(9);
        let mut bh = Backend::hw();
        let mut bs = Backend::sw();
        let rh = net_h
            .train_step(&x, 0.01, &mut bh, &mut ledger_h)
            .expect("hw step");
        let rs = net_s
            .train_step(&x, 0.01, &mut bs, &mut ledger_s)
            .expect("sw step");
        assert_eq!(rh.loss.to_bits(), rs.loss.to_bits());
        for (lh, ls) in net_h.layers().iter().zip(net_s.layers()) {
            assert_eq!(lh.weights(), ls.weights(), "weights diverged");
        }
        // But the cycle accounting differs (HW is faster overall).
        assert!(ledger_h.total_cycles() < ledger_s.total_cycles());
    }

    #[test]
    fn ledger_contains_every_op_kind() {
        let mut net = tiny_net(13);
        let mut backend = Backend::sw();
        let mut ledger = CycleLedger::new();
        net.train_step(&sample(1), 0.01, &mut backend, &mut ledger)
            .expect("step");
        for kind in [
            OpKind::Forward,
            OpKind::BackwardData,
            OpKind::BackwardWeight,
            OpKind::Loss,
            OpKind::Update,
            OpKind::Elementwise,
        ] {
            assert!(
                ledger.cycles_for(kind).count() > 0,
                "missing ledger entries for {kind}"
            );
        }
    }

    #[test]
    fn network_validates_dimensions() {
        let ok = Network::new(vec![
            Dense::new("a", 3, 5, true, 1),
            Dense::new("b", 5, 2, false, 2),
        ]);
        assert_eq!(ok.in_dim(), 3);
        assert_eq!(ok.out_dim(), 2);
        assert_eq!(ok.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
        assert_eq!(ok.weight_bytes(), 2 * ok.param_count());
        assert_eq!(ok.activation_bytes(4), 2 * (3 + 5 + 2) * 4);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_layers_rejected() {
        let _ = Network::new(vec![
            Dense::new("a", 3, 5, true, 1),
            Dense::new("b", 4, 2, false, 2),
        ]);
    }

    #[test]
    #[should_panic(expected = "forward must run first")]
    fn backward_requires_forward() {
        let mut layer = Dense::new("t", 2, 2, false, 3);
        let mut backend = Backend::sw();
        let mut ledger = CycleLedger::new();
        let _ = layer.backward(&Tensor::zeros(2, 1), &mut backend, &mut ledger);
    }

    #[test]
    fn batched_forward_broadcasts_bias() {
        let mut layer = Dense::new("t", 2, 3, false, 17);
        let mut backend = Backend::sw();
        let mut ledger = CycleLedger::new();
        // Two identical batch columns must produce identical outputs.
        let a = Tensor::from_fn(2, 2, |r, _| r as f32 + 0.5);
        let y = layer
            .forward(&a, &mut backend, &mut ledger)
            .expect("forward");
        for r in 0..3 {
            assert_eq!(y.get(r, 0).to_bits(), y.get(r, 1).to_bits());
        }
    }
}
