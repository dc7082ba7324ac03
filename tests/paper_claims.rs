//! Regression tests pinning the paper's quantitative claims to the models.
//!
//! Each test names the claim from the DATE 2022 paper it guards. Bands are
//! deliberately loose where our substitutions (simulated cluster instead
//! of silicon) justify deviation; EXPERIMENTS.md records the exact
//! measured-vs-paper numbers.

use redmule_suite::cluster::{baseline::SwGemm, ClusterConfig};
use redmule_suite::energy::{AreaModel, OperatingPoint, PowerModel, Technology};
use redmule_suite::fp16::vector::GemmShape;
use redmule_suite::fp16::{Format, F16};
use redmule_suite::redmule::obs::{Channel, EventKind};
use redmule_suite::redmule::{stage_gemm_workspace_in, Accelerator};

fn operands(shape: GemmShape, seed: u32) -> (Vec<F16>, Vec<F16>) {
    let gen = |len: usize, s: u32| -> Vec<F16> {
        (0..len)
            .map(|i| {
                let h = ((i as u32).wrapping_mul(2654435761) ^ s) >> 18;
                F16::from_f32((h % 32) as f32 / 64.0 - 0.25)
            })
            .collect()
    };
    (gen(shape.x_len(), seed), gen(shape.w_len(), !seed))
}

/// "RedMulE reaches a peak throughput of 31.6 MACs/cycle (98% utilization)"
/// — at 256^3 the model must exceed 31.5 MAC/cycle (98.5 %).
#[test]
fn peak_throughput_matches() {
    let accel = Accelerator::paper_instance();
    let shape = GemmShape::new(256, 256, 256);
    let (x, w) = operands(shape, 1);
    let run = accel.gemm(shape, &x, &w).expect("gemm runs");
    let mpc = run.report.macs_per_cycle();
    assert!(
        mpc > 31.4,
        "peak throughput {mpc} MAC/cycle below the paper's 31.6"
    );
    assert!(run.report.utilization(accel.config()) > 0.98);
}

/// "reaches 98.8% of the ideal case for a higher amount of computations"
/// — utilization must increase monotonically with size and approach 1.
#[test]
fn utilization_approaches_ideal() {
    let accel = Accelerator::paper_instance();
    let mut last = 0.0;
    for size in [16, 32, 64, 128] {
        let shape = GemmShape::new(size, size, size);
        let (x, w) = operands(shape, size as u32);
        let util = accel
            .gemm(shape, &x, &w)
            .expect("gemm runs")
            .report
            .utilization(accel.config());
        assert!(util > last, "utilization regressed at {size}: {util}");
        last = util;
    }
    assert!(last > 0.96);
}

/// "up to 22x speedup over the software baseline" — at 128^3 the measured
/// speedup must land in a band around the paper value.
#[test]
fn speedup_over_software_in_band() {
    let accel = Accelerator::paper_instance();
    let sw = SwGemm::new(&ClusterConfig::default());
    let shape = GemmShape::new(128, 128, 128);
    let (x, w) = operands(shape, 5);
    let hw = accel.gemm(shape, &x, &w).expect("hw");
    let swr = sw.run(shape, &x, &w).expect("sw run");
    let speedup = swr.cycles.count() as f64 / hw.report.cycles.count() as f64;
    assert!(
        (16.0..=26.0).contains(&speedup),
        "speedup {speedup} outside the band around the paper's 22x"
    );
}

/// "4.65x higher energy efficiency ... than a software counterpart".
#[test]
fn efficiency_gain_in_band() {
    let accel = Accelerator::paper_instance();
    let sw = SwGemm::new(&ClusterConfig::default());
    let shape = GemmShape::new(128, 128, 128);
    let (x, w) = operands(shape, 6);
    let hw = accel.gemm(shape, &x, &w).expect("hw");
    let swr = sw.run(shape, &x, &w).expect("sw run");
    let m = PowerModel::new(Technology::Gf22Fdx, OperatingPoint::peak_efficiency());
    let gain = m.efficiency_gain_over_sw(
        hw.report.macs_per_cycle(),
        hw.report.utilization(accel.config()),
        swr.macs_per_cycle(),
    );
    assert!(
        (3.5..=5.5).contains(&gain),
        "efficiency gain {gain} outside the band around the paper's 4.65x"
    );
}

/// "a 32-FMA RedMulE instance occupies just 0.07 mm² (14% of an 8-core
/// RISC-V cluster)".
#[test]
fn area_claims() {
    let m = AreaModel::new(Technology::Gf22Fdx);
    let total = m.redmule(4, 8, 3).total();
    assert!((total - 0.07).abs() / 0.07 < 0.05, "area = {total}");
    let frac = m.redmule_cluster_fraction();
    assert!((frac - 0.14).abs() < 0.02, "cluster fraction = {frac}");
}

/// "a cluster-level power consumption of 43.5 mW and a full-cluster energy
/// efficiency of 688 16-bit GFLOPS/W", "42 GFLOPS at 666 MHz", and the
/// 65 nm row of Table I.
#[test]
fn power_and_efficiency_claims() {
    let pe = PowerModel::new(Technology::Gf22Fdx, OperatingPoint::peak_efficiency());
    let pp = PowerModel::new(Technology::Gf22Fdx, OperatingPoint::peak_performance());
    let n65 = PowerModel::new(Technology::Node65, OperatingPoint::node65());

    assert!((pe.cluster_power_mw(0.988).total() - 43.5).abs() < 0.5);
    assert!((pe.efficiency_gflops_w(31.6, 0.988) - 688.0).abs() / 688.0 < 0.03);
    assert!((pp.gops(31.6) - 42.0).abs() < 0.2);
    assert!((pp.cluster_power_mw(0.988).total() - 90.7).abs() / 90.7 < 0.03);
    assert!((n65.cluster_power_mw(0.988).total() - 89.1).abs() / 89.1 < 0.02);
    assert!((n65.gops(31.6) - 12.6).abs() < 0.1);
}

/// "RedMulE's area occupation becomes comparable to the area of the entire
/// PULP cluster with 256 FMAs (H=8, L=32), and doubles it with 512".
#[test]
fn area_sweep_anchors() {
    let m = AreaModel::new(Technology::Gf22Fdx);
    let cluster = m.cluster_mm2();
    let a256 = m.redmule(8, 32, 3).total();
    let a512 = m.redmule(16, 32, 3).total();
    assert!((a256 / cluster - 1.0).abs() < 0.1, "256-FMA ratio");
    assert!((a512 / cluster - 2.0).abs() < 0.2, "512-FMA ratio");
}

/// "changing the H parameter from 4 to 5 results in ... two additional
/// memory ports".
#[test]
fn port_escalation_claim() {
    use redmule_suite::redmule::AccelConfig;
    assert_eq!(AccelConfig::new(4, 8, 3).memory_ports(), 9);
    assert_eq!(AccelConfig::new(5, 8, 3).memory_ports(), 11);
}

/// "the W-buffer accesses the memory once every 4-cycles" (Fig. 2c): the
/// schedule claim as a machine-checkable property.
#[test]
fn w_cadence_claim() {
    let accel = Accelerator::paper_instance();
    let shape = GemmShape::new(8, 64, 16);
    let (x, w) = operands(shape, 9);
    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None).expect("staging");
    let (_, log) = accel
        .engine()
        .run_logged(job, &mut mem, &mut hci)
        .expect("gemm runs");
    let fires: Vec<u64> = log
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Refill {
                    channel: Channel::W,
                    ..
                }
            )
        })
        .map(|e| e.cycle)
        .collect();
    for pair in fires[8..fires.len() - 2].windows(2) {
        assert_eq!(pair[1] - pair[0], 4, "steady-state W cadence");
    }
}
