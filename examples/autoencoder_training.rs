//! On-device training of the TinyMLPerf anomaly-detection autoencoder —
//! the paper's use case (Fig. 4c/4d).
//!
//! Trains the 640-...-8-...-640 MLP for a few SGD steps with every GEMM
//! dispatched to the cycle-accurate RedMulE model, shows the loss falling,
//! and compares one step against the 8-core software baseline (bit-exact
//! numerics, very different cycle counts).
//!
//! ```text
//! cargo run --release --example autoencoder_training
//! ```

use redmule_suite::energy::{OperatingPoint, PowerModel, Technology};
use redmule_suite::hwsim::Frequency;
use redmule_suite::nn::backend::{Backend, CycleLedger, OpKind};
use redmule_suite::nn::{autoencoder, Tensor};

fn main() {
    let batch = 4;
    let lr = 0.002;
    let x = Tensor::from_fn(640, batch, |r, c| {
        ((r * 31 + c * 7) % 97) as f32 / 97.0 - 0.5
    });

    // --- Train on the accelerator ---
    let mut net = autoencoder::mlperf_tiny(2024);
    let mut hw = Backend::hw();
    let mut ledger = CycleLedger::new();
    println!("training the MLPerf-Tiny autoencoder on RedMulE (B = {batch}):");
    let mut last_cycles = 0;
    for step in 0..5 {
        let report = net
            .train_step(&x, lr, &mut hw, &mut ledger)
            .expect("hw step");
        last_cycles = report.cycles.count();
        println!(
            "  step {step}: loss = {:.6}, {} cycles",
            report.loss,
            report.cycles.count()
        );
    }

    // --- One identical step on the software baseline ---
    let mut net_sw = autoencoder::mlperf_tiny(2024);
    let mut sw = Backend::sw();
    let mut sw_ledger = CycleLedger::new();
    let sw_report = net_sw
        .train_step(&x, lr, &mut sw, &mut sw_ledger)
        .expect("sw step");
    println!(
        "\none step on 8 RISC-V cores: loss = {:.6}, {} cycles",
        sw_report.loss,
        sw_report.cycles.count()
    );
    println!(
        "HW speedup for a full training step: {:.1}x",
        sw_report.cycles.count() as f64 / last_cycles as f64
    );

    // --- Where do the cycles go? ---
    println!("\naccelerator-step cycle breakdown:");
    for kind in [
        OpKind::Forward,
        OpKind::BackwardData,
        OpKind::BackwardWeight,
        OpKind::Elementwise,
        OpKind::Loss,
        OpKind::Update,
    ] {
        println!("  {kind:<12} {}", ledger.cycles_for(kind));
    }

    // --- Wall-clock and energy at the paper's operating point ---
    let op = OperatingPoint::peak_efficiency();
    let f: Frequency = op.frequency();
    let power = PowerModel::new(Technology::Gf22Fdx, op);
    let seconds = f.cycles_to_seconds(redmule_suite::hwsim::Cycle::new(last_cycles));
    let energy_mj = power.cluster_power_mw(0.9).total() * seconds;
    println!(
        "\nat {op}: one step takes {:.2} ms and ~{:.3} mJ",
        seconds * 1e3,
        energy_mj
    );
}
