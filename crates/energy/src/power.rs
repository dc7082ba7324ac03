//! Utilization-aware power and energy model.
//!
//! Calibrated once against the paper's measured anchor: running a large
//! GEMM at the peak-efficiency point (0.65 V, 476 MHz, 98.8 % datapath
//! utilization), the cluster consumes 43.5 mW, of which RedMulE is 69 %
//! and TCDM + HCI 17.1 %. Other corners are derived with the dynamic-power
//! law `P ∝ C·V²·f` (which the paper's own 0.8 V / 666 MHz point obeys to
//! within 2 %), and lower utilization proportionally reduces the dynamic
//! (RedMulE and memory) components — this is what makes the Fig. 3c
//! energy-per-MAC curve fall with matrix size.

use crate::oppoint::OperatingPoint;
use crate::tech::Technology;
use std::fmt;

/// Reference corner for all calibration constants.
const REF_VDD: f64 = 0.65;
const REF_FREQ_MHZ: f64 = 476.0;
const REF_UTIL: f64 = 0.988;

/// Component powers at the reference corner and utilization (mW).
const REF_REDMULE_MW: f64 = 43.5 * 0.69;
const REF_MEM_MW: f64 = 43.5 * 0.171;
const REF_OTHER_MW: f64 = 43.5 * (1.0 - 0.69 - 0.171);

/// Cluster power while executing the *software* GEMM (RedMulE clock-gated,
/// 8 cores + TCDM active), at the reference corner. The paper does not
/// report it directly, but its headline pair — 22x speedup and 4.65x
/// energy-efficiency gain — implies `P_sw = P_hw * 4.65 / 22 ≈ 9.2 mW`.
const REF_SW_MODE_MW: f64 = 43.5 * 4.65 / 22.0;

/// RedMulE-internal power shares (Fig. 3b). The paper plots but does not
/// tabulate them; these assumed shares are documented in EXPERIMENTS.md.
const RM_SHARE_DATAPATH: f64 = 0.70;
const RM_SHARE_BUFFERS: f64 = 0.13;
const RM_SHARE_STREAMER: f64 = 0.12;
const RM_SHARE_CONTROLLER: f64 = 0.05;

/// Cluster power split at a given utilization, in mW.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// The accelerator itself.
    pub redmule: f64,
    /// TCDM banks + HCI interconnect.
    pub tcdm_hci: f64,
    /// Cores (clock-gated), DMA, peripherals, clock tree.
    pub other: f64,
}

impl PowerBreakdown {
    /// Total cluster power in mW.
    pub fn total(&self) -> f64 {
        self.redmule + self.tcdm_hci + self.other
    }

    /// Shares of the total as fractions (redmule, tcdm_hci, other).
    pub fn shares(&self) -> [f64; 3] {
        let t = self.total();
        [self.redmule / t, self.tcdm_hci / t, self.other / t]
    }
}

impl fmt::Display for PowerBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "redmule  {:7.2} mW", self.redmule)?;
        writeln!(f, "tcdm+hci {:7.2} mW", self.tcdm_hci)?;
        writeln!(f, "other    {:7.2} mW", self.other)?;
        write!(f, "total    {:7.2} mW", self.total())
    }
}

/// RedMulE-internal power split (Fig. 3b), in mW.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedmulePower {
    /// The FMA array.
    pub datapath: f64,
    /// X/W/Z buffers.
    pub buffers: f64,
    /// Streamer.
    pub streamer: f64,
    /// Controller + scheduler.
    pub controller: f64,
}

impl RedmulePower {
    /// Total accelerator power in mW.
    pub fn total(&self) -> f64 {
        self.datapath + self.buffers + self.streamer + self.controller
    }
}

/// The power/energy model at one operating point.
///
/// # Example
///
/// ```
/// use redmule_energy::{OperatingPoint, PowerModel, Technology};
///
/// let m = PowerModel::new(Technology::Gf22Fdx, OperatingPoint::peak_efficiency());
/// // ~688 GFLOPS/W at the paper's measured throughput.
/// let eff = m.efficiency_gflops_w(31.6, 0.988);
/// assert!((eff - 688.0).abs() < 25.0, "efficiency = {eff}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    tech: Technology,
    op: OperatingPoint,
}

impl PowerModel {
    /// Creates the model for a node and corner.
    pub fn new(tech: Technology, op: OperatingPoint) -> PowerModel {
        PowerModel { tech, op }
    }

    /// The operating point.
    pub fn operating_point(&self) -> OperatingPoint {
        self.op
    }

    /// `C·V²·f` scale factor from the reference corner to this one.
    fn scale(&self) -> f64 {
        let v = self.op.vdd() / REF_VDD;
        let f = self.op.frequency().as_mhz() / REF_FREQ_MHZ;
        v * v * f * self.tech.cap_scale()
    }

    /// Cluster power at a given datapath utilization (0..=1).
    ///
    /// # Panics
    ///
    /// Panics if `util` is outside `[0, 1]`.
    pub fn cluster_power_mw(&self, util: f64) -> PowerBreakdown {
        assert!((0.0..=1.0).contains(&util), "utilization must be in [0,1]");
        let s = self.scale();
        PowerBreakdown {
            redmule: s * REF_REDMULE_MW * util / REF_UTIL,
            tcdm_hci: s * REF_MEM_MW * util / REF_UTIL,
            other: s * REF_OTHER_MW,
        }
    }

    /// Standalone RedMulE power split at a given utilization.
    ///
    /// # Panics
    ///
    /// Panics if `util` is outside `[0, 1]`.
    pub fn redmule_power_mw(&self, util: f64) -> RedmulePower {
        let total = self.cluster_power_mw(util).redmule;
        RedmulePower {
            datapath: total * RM_SHARE_DATAPATH,
            buffers: total * RM_SHARE_BUFFERS,
            streamer: total * RM_SHARE_STREAMER,
            controller: total * RM_SHARE_CONTROLLER,
        }
    }

    /// Cluster power while the 8 cores run the software GEMM and the
    /// accelerator is clock-gated, in mW (see `REF_SW_MODE_MW`).
    fn sw_execution_power_mw(&self) -> f64 {
        self.scale() * REF_SW_MODE_MW
    }

    /// Energy-efficiency gain of the accelerator over the software
    /// baseline, given both measured throughputs (the paper's headline
    /// "4.65x higher energy efficiency").
    pub fn efficiency_gain_over_sw(&self, hw_mpc: f64, hw_util: f64, sw_mpc: f64) -> f64 {
        let hw_eff = self.gops(hw_mpc) / (self.cluster_power_mw(hw_util).total() / 1e3);
        let sw_eff = self.gops(sw_mpc) / (self.sw_execution_power_mw() / 1e3);
        hw_eff / sw_eff
    }

    /// Throughput in GOPS (1 MAC = 2 ops) for an achieved MAC/cycle rate.
    pub fn gops(&self, macs_per_cycle: f64) -> f64 {
        2.0 * macs_per_cycle * self.op.frequency().hz() / 1e9
    }

    /// Cluster-level energy efficiency in 16-bit GFLOPS/W.
    ///
    /// # Panics
    ///
    /// Panics if `util` is outside `[0, 1]`.
    pub fn efficiency_gflops_w(&self, macs_per_cycle: f64, util: f64) -> f64 {
        let power_w = self.cluster_power_mw(util).total() / 1e3;
        if power_w == 0.0 {
            return 0.0;
        }
        self.gops(macs_per_cycle) / power_w
    }

    /// Cluster energy per MAC operation, in picojoules (Fig. 3c).
    ///
    /// # Panics
    ///
    /// Panics if `util` is outside `[0, 1]` or `macs_per_cycle` is not
    /// positive.
    pub fn energy_per_mac_pj(&self, macs_per_cycle: f64, util: f64) -> f64 {
        assert!(macs_per_cycle > 0.0, "need a positive throughput");
        let power_w = self.cluster_power_mw(util).total() / 1e3;
        let macs_per_s = macs_per_cycle * self.op.frequency().hz();
        power_w / macs_per_s * 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peak_eff() -> PowerModel {
        PowerModel::new(Technology::Gf22Fdx, OperatingPoint::peak_efficiency())
    }

    fn peak_perf() -> PowerModel {
        PowerModel::new(Technology::Gf22Fdx, OperatingPoint::peak_performance())
    }

    #[test]
    fn reference_point_reproduces_43_5_mw() {
        let p = peak_eff().cluster_power_mw(0.988);
        assert!((p.total() - 43.5).abs() < 1e-9, "total = {}", p.total());
        let shares = p.shares();
        assert!((shares[0] - 0.69).abs() < 1e-9);
        assert!((shares[1] - 0.171).abs() < 1e-9);
    }

    #[test]
    fn peak_performance_point_matches_90_7_mw() {
        // Paper: 90.7 mW at 0.8 V / 666 MHz; the C·V²·f law predicts ~92.1.
        let p = peak_perf().cluster_power_mw(0.988);
        assert!((p.total() - 90.7).abs() < 3.0, "total = {}", p.total());
    }

    #[test]
    fn node65_matches_89_1_mw() {
        let m = PowerModel::new(Technology::Node65, OperatingPoint::node65());
        let p = m.cluster_power_mw(0.988);
        assert!((p.total() - 89.1).abs() < 1.5, "total = {}", p.total());
    }

    #[test]
    fn throughput_matches_table1() {
        // 31.6 MAC/cycle: 30 GOPS at 476 MHz, 42 GOPS at 666 MHz.
        assert!((peak_eff().gops(31.6) - 30.0).abs() < 0.2);
        assert!((peak_perf().gops(31.6) - 42.0).abs() < 0.2);
    }

    #[test]
    fn efficiency_matches_table1() {
        assert!((peak_eff().efficiency_gflops_w(31.6, 0.988) - 688.0).abs() < 15.0);
        assert!((peak_perf().efficiency_gflops_w(31.6, 0.988) - 462.0).abs() < 15.0);
    }

    #[test]
    fn energy_per_mac_falls_with_utilization() {
        let m = peak_eff();
        // Low utilization (small matrices) costs more energy per MAC.
        let small = m.energy_per_mac_pj(32.0 * 0.5, 0.5);
        let large = m.energy_per_mac_pj(32.0 * 0.99, 0.99);
        assert!(small > large, "{small} <= {large}");
        // Absolute scale: ~2.9 pJ/MAC at the efficiency point.
        assert!((large - 2.9).abs() < 0.3, "pJ/MAC = {large}");
    }

    #[test]
    fn idle_cluster_still_burns_static_and_clock_power() {
        let p = peak_eff().cluster_power_mw(0.0);
        assert!(p.redmule == 0.0 && p.tcdm_hci == 0.0);
        assert!(p.other > 0.0);
    }

    #[test]
    fn redmule_breakdown_sums_to_cluster_share() {
        let m = peak_eff();
        let rm = m.redmule_power_mw(0.988);
        let cluster = m.cluster_power_mw(0.988);
        assert!((rm.total() - cluster.redmule).abs() < 1e-9);
        assert!(rm.datapath > rm.buffers);
        assert!(rm.datapath > rm.streamer + rm.controller);
    }

    #[test]
    fn efficiency_gain_reproduces_headline_claim() {
        let m = peak_eff();
        // At the paper's own numbers (31.6 vs 31.6/22 MAC/cycle) the gain
        // is 4.65x by construction of the SW-mode power constant.
        let gain = m.efficiency_gain_over_sw(31.6, 0.988, 31.6 / 22.0);
        assert!((gain - 4.65).abs() < 0.05, "gain = {gain}");
        // SW-mode power is ~9.2 mW at the reference corner.
        assert!((m.sw_execution_power_mw() - 9.19).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn utilization_is_validated() {
        let _ = peak_eff().cluster_power_mw(1.5);
    }

    #[test]
    fn display_output() {
        let text = peak_eff().cluster_power_mw(0.9).to_string();
        assert!(text.contains("redmule") && text.contains("total"));
    }
}
