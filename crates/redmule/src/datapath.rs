//! The semi-systolic FMA array.
//!
//! `L` rows by `H` columns of FP16 fused multiply-add units. Within a row
//! the FMAs are chained: each passes its partial result to the next column
//! after `P + 1` cycles, and the last column feeds back into the first (the
//! *row ring*), re-accumulating over the reduction dimension. All `L` rows
//! operate in lockstep on the same output column index, offset column by
//! column by the FMA latency.
//!
//! The model is bit-accurate: every active FMA performs one
//! [`F16::mul_add`] per cycle, so the array's results are exactly those of
//! FPnew hardware, and cycle counts emerge from the pipeline structure.

use crate::config::AccelConfig;
use redmule_fp16::F16;
use redmule_hwsim::faults::flip_bit16;
use redmule_hwsim::Pipeline;

/// Source of the accumulation input for column 0 this cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum Acc0 {
    /// Start of a fresh output tile: accumulate from zero.
    Zero,
    /// Mid-tile: take the row-ring feedback from the last column.
    Ring,
    /// Accumulate mode (`Z += X*W`): start from preloaded Z values, one per
    /// row, for the output column processed this cycle.
    Init(Vec<F16>),
}

/// Per-column, per-cycle control word.
#[derive(Debug, Clone, Default)]
pub struct ColumnCtrl {
    /// W element broadcast to all `L` FMAs of the column this cycle.
    /// `None` leaves the column idle (startup/drain bubble).
    pub w: Option<F16>,
    /// When present, latches new X operands (one per row) before computing.
    pub set_x: Option<Vec<F16>>,
    /// Zero-padding of the reduction dimension: the partial sum passes
    /// through unchanged (the FMA lane is clock-gated, so `-0` survives).
    pub passthrough: bool,
}

/// The array state: one pipeline of partial sums per FMA.
#[derive(Debug, Clone)]
pub struct Datapath {
    cfg: AccelConfig,
    /// `x_ops[h][r]`: operand held by FMA (r, h).
    x_ops: Vec<Vec<F16>>,
    /// `pipes[h][r]`: partial-sum pipeline of FMA (r, h), depth `P + 1`.
    pipes: Vec<Vec<Pipeline<F16>>>,
    macs: u64,
}

impl Datapath {
    /// Builds the array for an accelerator configuration.
    pub fn new(cfg: AccelConfig) -> Datapath {
        Datapath {
            cfg,
            x_ops: vec![vec![F16::ZERO; cfg.l]; cfg.h],
            pipes: (0..cfg.h)
                .map(|_| (0..cfg.l).map(|_| Pipeline::new(cfg.latency())).collect())
                .collect(),
            macs: 0,
        }
    }

    /// The instance parameters.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// Total FMA operations performed so far (excluding padding
    /// pass-throughs).
    pub fn macs(&self) -> u64 {
        self.macs
    }

    /// Overwrites the MAC counter when restoring a session snapshot (the
    /// pipeline registers themselves are drained at every snapshot point).
    pub(crate) fn restore_macs(&mut self, macs: u64) {
        self.macs = macs;
    }

    /// `true` when every pipeline stage holds a bubble.
    pub fn is_drained(&self) -> bool {
        self.pipes.iter().flatten().all(|p| p.is_empty())
    }

    /// Advances the array one clock cycle.
    ///
    /// Returns the values leaving the **last** column this cycle (one per
    /// row): mid-tile these are the ring feedback, in the final phase they
    /// are finished Z elements.
    ///
    /// # Panics
    ///
    /// Panics if an active column's accumulation input is a bubble — that
    /// is a scheduler bug, since the ring is rate-matched by construction.
    pub fn tick(&mut self, ctrl: &[ColumnCtrl], acc0: &Acc0) -> Vec<Option<F16>> {
        assert_eq!(ctrl.len(), self.cfg.h, "one control word per column");

        // Hardware registers are read before they are written: snapshot the
        // value leaving every pipeline this cycle.
        let outs: Vec<Vec<Option<F16>>> = self
            .pipes
            .iter()
            .map(|col| col.iter().map(|p| p.back().copied()).collect())
            .collect();

        for (h, cc) in ctrl.iter().enumerate() {
            if let Some(new_x) = &cc.set_x {
                assert_eq!(new_x.len(), self.cfg.l, "one X operand per row");
                self.x_ops[h].copy_from_slice(new_x);
            }
            for r in 0..self.cfg.l {
                let input = match cc.w {
                    None => None, // idle column: insert a bubble
                    Some(w) => {
                        let acc = if h == 0 {
                            match acc0 {
                                Acc0::Zero => F16::ZERO,
                                Acc0::Init(vals) => vals[r],
                                // modelcheck-allow: RM-PANIC-001 -- datapath
                                // invariant: the ring feedback path is only
                                // selected when the last column holds a value.
                                Acc0::Ring => outs[self.cfg.h - 1][r]
                                    .expect("ring feedback bubble reached column 0"),
                            }
                        } else {
                            // modelcheck-allow: RM-PANIC-001 -- datapath
                            // invariant: columns feed forward in lockstep, so
                            // a mid-row bubble means the schedule is broken.
                            outs[h - 1][r].expect("partial-sum bubble mid-row")
                        };
                        if cc.passthrough {
                            Some(acc)
                        } else {
                            self.macs += 1;
                            Some(self.x_ops[h][r].mul_add(w, acc))
                        }
                    }
                };
                // modelcheck-allow: RM-ERR-001 -- name collision: the FMA
                // pipeline's `tick` returns unit, not the engine's Result.
                self.pipes[h][r].tick(input);
            }
        }

        // modelcheck-allow: RM-PANIC-001 -- structural invariant: AccelConfig
        // rejects H = 0, so the outs vector is never empty.
        outs.into_iter().next_back().expect("H >= 1")
    }

    /// Flips `bit` of the partial sum held in pipeline stage `stage`
    /// (0 = newest) of FMA (`row`, `col`).
    ///
    /// Returns `false` when the stage holds a bubble or an index is out of
    /// range — a transient strike on an empty register is architecturally
    /// masked, exactly as in hardware.
    pub fn corrupt(&mut self, col: usize, row: usize, stage: usize, bit: u8) -> bool {
        let Some(pipe) = self.pipes.get_mut(col).and_then(|c| c.get_mut(row)) else {
            return false;
        };
        match pipe.stage_mut(stage) {
            Some(v) => {
                *v = F16::from_bits(flip_bit16(v.to_bits(), bit));
                true
            }
            None => false,
        }
    }

    /// Clears all pipelines and operands (between jobs).
    pub fn reset(&mut self) {
        for col in &mut self.pipes {
            for p in col {
                // modelcheck-allow: RM-ERR-001 -- name collision: the FMA
                // pipeline's `reset` returns unit, not the engine's Result.
                p.reset();
            }
        }
        for col in &mut self.x_ops {
            col.fill(F16::ZERO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use redmule_fp16::vector::GemmShape;
    use redmule_fp16::Format;

    /// Drives the array through one full tile exactly like the engine
    /// does, for a single row (L = 1) and returns the finished Z values.
    /// This mirrors Fig. 2d of the paper at unit-test scale.
    fn run_single_tile(
        cfg: AccelConfig,
        x: &[Vec<F16>], // x[n] per row: x[r][n]
        w: &[Vec<F16>], // w[n][j], j in 0..phase_width
        n_real: usize,
    ) -> Vec<Vec<F16>> {
        let l = cfg.l;
        let pw = cfg.phase_width();
        let lat = cfg.latency();
        // At least one (all-padding) phase, even for an empty reduction.
        let schedule = Schedule::new(&cfg, GemmShape::new(l, n_real.max(1), pw), Format::Fp16);
        let n_phases = schedule.n_phases();
        let total = schedule.tile_len() as usize;
        let mut dp = Datapath::new(cfg);
        let mut z = vec![vec![F16::ZERO; pw]; l];
        let final_start = total - pw;

        for t in 0..total {
            let mut ctrl: Vec<ColumnCtrl> = Vec::with_capacity(cfg.h);
            for h in 0..cfg.h {
                let t_local = t as i64 - (h * lat) as i64;
                if t_local < 0 || t_local >= (n_phases * pw) as i64 {
                    ctrl.push(ColumnCtrl::default());
                    continue;
                }
                let t_local = t_local as usize;
                let phase = t_local / pw;
                let j = t_local % pw;
                let n_idx = phase * cfg.h + h;
                let pad = n_idx >= n_real;
                let w_elem = if pad { F16::ZERO } else { w[n_idx][j] };
                let set_x = if j == 0 {
                    Some(
                        (0..l)
                            .map(|r| if pad { F16::ZERO } else { x[r][n_idx] })
                            .collect(),
                    )
                } else {
                    None
                };
                ctrl.push(ColumnCtrl {
                    w: Some(w_elem),
                    set_x,
                    passthrough: pad,
                });
            }
            let acc0 = if t < pw { Acc0::Zero } else { Acc0::Ring };
            let outs = dp.tick(&ctrl, &acc0);
            if t >= final_start && t < final_start + pw {
                let j = t - final_start;
                for (r, v) in outs.iter().enumerate() {
                    z[r][j] = v.expect("final-phase output present");
                }
            }
        }
        assert!(dp.is_drained(), "array must drain after the tile");
        z
    }

    fn f(v: f32) -> F16 {
        F16::from_f32(v)
    }

    #[test]
    fn single_fma_chain_matches_golden_dot_products() {
        let cfg = AccelConfig::paper();
        let n = 8; // two phases
        let x: Vec<Vec<F16>> = (0..cfg.l)
            .map(|r| (0..n).map(|i| f((r * n + i) as f32 / 8.0 - 2.0)).collect())
            .collect();
        let w: Vec<Vec<F16>> = (0..n)
            .map(|i| {
                (0..cfg.phase_width())
                    .map(|j| f(((i * 17 + j * 3) % 13) as f32 / 4.0 - 1.5))
                    .collect()
            })
            .collect();
        let z = run_single_tile(cfg, &x, &w, n);
        for r in 0..cfg.l {
            for j in 0..cfg.phase_width() {
                let mut acc = F16::ZERO;
                for i in 0..n {
                    acc = x[r][i].mul_add(w[i][j], acc);
                }
                assert_eq!(
                    z[r][j].to_bits(),
                    acc.to_bits(),
                    "mismatch at row {r}, column {j}"
                );
            }
        }
    }

    #[test]
    fn padding_passthrough_preserves_partial_sums() {
        // N = 5 is not a multiple of H = 4: the last phase pads 3 lanes.
        let cfg = AccelConfig::paper();
        let n = 5;
        let x: Vec<Vec<F16>> = (0..cfg.l)
            .map(|r| (0..n).map(|i| f((r + i) as f32 * 0.25)).collect())
            .collect();
        let w: Vec<Vec<F16>> = (0..n)
            .map(|i| (0..16).map(|j| f((i as f32 - j as f32) / 8.0)).collect())
            .collect();
        let z = run_single_tile(cfg, &x, &w, n);
        for r in 0..cfg.l {
            for j in 0..16 {
                let mut acc = F16::ZERO;
                for i in 0..n {
                    acc = x[r][i].mul_add(w[i][j], acc);
                }
                assert_eq!(z[r][j].to_bits(), acc.to_bits());
            }
        }
    }

    #[test]
    fn passthrough_preserves_negative_zero() {
        // A clock-gated pad lane must not launder -0 into +0.
        let cfg = AccelConfig::new(1, 1, 0);
        let mut dp = Datapath::new(cfg);
        let ctrl = [ColumnCtrl {
            w: Some(F16::ONE),
            set_x: Some(vec![F16::ONE]),
            passthrough: true,
        }];
        dp.tick(&ctrl, &Acc0::Init(vec![F16::NEG_ZERO]));
        let out = dp.tick(&[ColumnCtrl::default()], &Acc0::Zero);
        assert_eq!(out[0].expect("value emerges").to_bits(), 0x8000);
        assert_eq!(dp.macs(), 0, "passthrough must not count as a MAC");
    }

    #[test]
    fn mac_counter_counts_active_lanes_only() {
        // Only column 0 computes this cycle (the others are staggered), so
        // exactly L MACs are performed.
        let cfg = AccelConfig::paper();
        let mut dp = Datapath::new(cfg);
        let mut ctrl: Vec<ColumnCtrl> = (0..cfg.h).map(|_| ColumnCtrl::default()).collect();
        ctrl[0] = ColumnCtrl {
            w: Some(F16::ONE),
            set_x: Some(vec![F16::ONE; cfg.l]),
            passthrough: false,
        };
        dp.tick(&ctrl, &Acc0::Zero);
        assert_eq!(dp.macs(), cfg.l as u64);
        // A pad (passthrough) cycle adds nothing.
        ctrl[0].passthrough = true;
        dp.tick(&ctrl, &Acc0::Zero);
        assert_eq!(dp.macs(), cfg.l as u64);
    }

    #[test]
    fn accumulate_mode_starts_from_init() {
        let cfg = AccelConfig::new(1, 2, 0);
        let mut dp = Datapath::new(cfg);
        let ctrl = [ColumnCtrl {
            w: Some(F16::TWO),
            set_x: Some(vec![f(3.0), f(4.0)]),
            passthrough: false,
        }];
        dp.tick(&ctrl, &Acc0::Init(vec![f(10.0), f(20.0)]));
        let out = dp.tick(&[ColumnCtrl::default()], &Acc0::Zero);
        assert_eq!(out[0].expect("row 0").to_f32(), 16.0);
        assert_eq!(out[1].expect("row 1").to_f32(), 28.0);
    }

    #[test]
    fn reset_drains_everything() {
        let cfg = AccelConfig::paper();
        let mut dp = Datapath::new(cfg);
        let mut ctrl: Vec<ColumnCtrl> = (0..cfg.h).map(|_| ColumnCtrl::default()).collect();
        ctrl[0] = ColumnCtrl {
            w: Some(F16::ONE),
            set_x: Some(vec![F16::ONE; cfg.l]),
            passthrough: false,
        };
        dp.tick(&ctrl, &Acc0::Zero);
        assert!(!dp.is_drained());
        dp.reset();
        assert!(dp.is_drained());
    }

    #[test]
    #[should_panic(expected = "one control word per column")]
    fn control_width_checked() {
        let mut dp = Datapath::new(AccelConfig::paper());
        let _ = dp.tick(&[], &Acc0::Zero);
    }
}
