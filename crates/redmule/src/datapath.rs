//! The semi-systolic FMA array.
//!
//! `L` rows by `H` columns of FP16 fused multiply-add units. Within a row
//! the FMAs are chained: each passes its partial result to the next column
//! after `P + 1` cycles, and the last column feeds back into the first (the
//! *row ring*), re-accumulating over the reduction dimension. All `L` rows
//! operate in lockstep on the same output column index, offset column by
//! column by the FMA latency.
//!
//! The model is bit-accurate: every active FMA performs one FP16 fused
//! multiply-add per cycle, rounded to nearest-even exactly as FPnew does,
//! so the array's results are those of the hardware and cycle counts
//! emerge from the pipeline structure. Each lane computes through the
//! batched kernel step [`kernel::fma_acc`] — the same "rounding order is
//! the contract" step the functional backend runs — which is bit-identical
//! to the scalar [`F16::mul_add`] and, in debug builds, asserted against
//! the scalar `arith::fma` on every call.
//!
//! All `latency × H × L` partial-sum registers live in one flat delay
//! line: `latency` slots of `H × L` values (column-major, `h * L + r`)
//! and a rotating head. A tick retires the oldest slot and refills it as
//! the new stage 0, so no value moves between registers.

use crate::config::AccelConfig;
use redmule_fp16::kernel::{self, Acc, Operand};
use redmule_fp16::{Round, F16};
use redmule_hwsim::faults::flip_bit16;

/// Source of the accumulation input for column 0 this cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acc0<'a> {
    /// Start of a fresh output tile: accumulate from zero.
    Zero,
    /// Mid-tile: take the row-ring feedback from the last column.
    Ring,
    /// Accumulate mode (`Z += X*W`): start from preloaded Z values, one per
    /// row, for the output column processed this cycle.
    Init(&'a [F16]),
}

/// Per-column, per-cycle control word.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColumnCtrl {
    /// W element broadcast to all `L` FMAs of the column this cycle.
    /// `None` leaves the column idle (startup/drain bubble).
    pub w: Option<F16>,
    /// Latches new X operands (the column's `L` entries of the tick's X
    /// slice) before computing.
    pub set_x: bool,
    /// Zero-padding of the reduction dimension: the partial sum passes
    /// through unchanged (the FMA lane is clock-gated, so `-0` survives).
    pub passthrough: bool,
}

/// The array state: the X operand held by every FMA and the partial-sum
/// delay line.
#[derive(Debug, Clone)]
pub struct Datapath {
    cfg: AccelConfig,
    /// `x_ops[h * L + r]`: operand held by FMA (r, h), widened once when
    /// latched.
    x_ops: Vec<Operand>,
    /// `latency` slots of `H × L` registers; stage `s` (0 = newest) of FMA
    /// (r, h) is `regs[((head + s) % latency) * H * L + h * L + r]`.
    regs: Vec<Option<F16>>,
    /// Slot holding stage 0.
    head: usize,
    /// The slot retired by the last tick, copied out before any lane
    /// wrote: hardware registers are read before they are written.
    outs: Vec<Option<F16>>,
    macs: u64,
}

impl Datapath {
    /// Builds the array for an accelerator configuration.
    pub fn new(cfg: AccelConfig) -> Datapath {
        let width = cfg.h * cfg.l;
        Datapath {
            cfg,
            x_ops: vec![Operand::from_bits(F16::ZERO.to_bits()); width],
            regs: vec![None; cfg.latency() * width],
            head: 0,
            outs: vec![None; width],
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
        self.regs.iter().all(Option::is_none)
    }

    /// Advances the array one clock cycle.
    ///
    /// `x` holds the X operands of the columns whose control word sets
    /// `set_x`: column `h` latches `x[h * L..(h + 1) * L]`, one per row;
    /// other columns' entries are ignored.
    ///
    /// Returns the values leaving the **last** column this cycle (one per
    /// row): mid-tile these are the ring feedback, in the final phase they
    /// are finished Z elements.
    ///
    /// # Panics
    ///
    /// Panics if an active column's accumulation input is a bubble — that
    /// is a scheduler bug, since the ring is rate-matched by construction.
    pub fn tick(&mut self, ctrl: &[ColumnCtrl], x: &[F16], acc0: &Acc0<'_>) -> &[Option<F16>] {
        let (h_count, l) = (self.cfg.h, self.cfg.l);
        assert_eq!(ctrl.len(), h_count, "one control word per column");
        let width = h_count * l;
        let lat = self.cfg.latency();

        // The oldest slot leaves the array and becomes the new stage 0.
        self.head = (self.head + lat - 1) % lat;
        let slot = &mut self.regs[self.head * width..(self.head + 1) * width];
        self.outs.copy_from_slice(slot);
        let outs = &self.outs;

        for (h, cc) in ctrl.iter().enumerate() {
            let lanes = h * l..(h + 1) * l;
            let x_ops = &mut self.x_ops[lanes.clone()];
            if cc.set_x {
                assert!(x.len() >= lanes.end, "one X operand per row");
                for (op, v) in x_ops.iter_mut().zip(&x[lanes.clone()]) {
                    *op = Operand::from_bits(v.to_bits());
                }
            }
            let regs = &mut slot[lanes];
            let Some(w) = cc.w else {
                // Idle column: insert bubbles.
                regs.fill(None);
                continue;
            };
            let lane = Lanes {
                regs,
                x_ops,
                w: Operand::from_bits(w.to_bits()),
                passthrough: cc.passthrough,
            };
            match (h, acc0) {
                (0, Acc0::Zero) => lane.feed(std::iter::repeat(F16::ZERO)),
                (0, Acc0::Init(vals)) => {
                    assert_eq!(vals.len(), l, "one initial value per row");
                    lane.feed(vals.iter().copied());
                }
                // modelcheck-allow: RM-PANIC-001 -- datapath invariant: the
                // ring feedback path is only selected when the last column
                // holds a value.
                (0, Acc0::Ring) => lane.feed(
                    outs[width - l..]
                        .iter()
                        .map(|v| v.expect("ring feedback bubble reached column 0")),
                ),
                // modelcheck-allow: RM-PANIC-001 -- datapath invariant:
                // columns feed forward in lockstep, so a mid-row bubble means
                // the schedule is broken.
                _ => lane.feed(
                    outs[(h - 1) * l..h * l]
                        .iter()
                        .map(|v| v.expect("partial-sum bubble mid-row")),
                ),
            }
            if !cc.passthrough {
                self.macs += l as u64;
            }
        }

        &self.outs[width - l..]
    }

    /// Flips `bit` of the partial sum held in pipeline stage `stage`
    /// (0 = newest) of FMA (`row`, `col`).
    ///
    /// Returns `false` when the stage holds a bubble or an index is out of
    /// range — a transient strike on an empty register is architecturally
    /// masked, exactly as in hardware.
    pub fn corrupt(&mut self, col: usize, row: usize, stage: usize, bit: u8) -> bool {
        let (h_count, l, lat) = (self.cfg.h, self.cfg.l, self.cfg.latency());
        if col >= h_count || row >= l || stage >= lat {
            return false;
        }
        let slot = (self.head + stage) % lat;
        match &mut self.regs[slot * h_count * l + col * l + row] {
            Some(v) => {
                *v = F16::from_bits(flip_bit16(v.to_bits(), bit));
                true
            }
            None => false,
        }
    }

    /// Clears all pipelines and operands (between jobs).
    pub fn reset(&mut self) {
        self.regs.fill(None);
        self.outs.fill(None);
        self.x_ops.fill(Operand::from_bits(F16::ZERO.to_bits()));
    }
}

/// The `L` FMA lanes of one active column this cycle.
struct Lanes<'a> {
    /// The column's stage-0 registers.
    regs: &'a mut [Option<F16>],
    /// The X operand latched in each lane.
    x_ops: &'a [Operand],
    /// The W element broadcast down the column.
    w: Operand,
    /// Clock-gated padding: the accumulation input passes through.
    passthrough: bool,
}

impl Lanes<'_> {
    /// Writes each lane's result, given its accumulation input, into
    /// stage 0: one round-to-nearest-even FMA, or the input itself when
    /// the column is clock-gated.
    #[inline]
    fn feed(self, acc_in: impl Iterator<Item = F16>) {
        for ((reg, &x), acc) in self.regs.iter_mut().zip(self.x_ops).zip(acc_in) {
            *reg = Some(if self.passthrough {
                acc
            } else {
                let sum =
                    kernel::fma_acc(x, self.w, Acc::from_bits(acc.to_bits()), Round::NearestEven);
                F16::from_bits(sum.to_bits())
            });
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

        let mut ctrl = vec![ColumnCtrl::default(); cfg.h];
        let mut xs = vec![F16::ZERO; cfg.h * l];
        for t in 0..total {
            for (h, cc) in ctrl.iter_mut().enumerate() {
                let t_local = t as i64 - (h * lat) as i64;
                if t_local < 0 || t_local >= (n_phases * pw) as i64 {
                    *cc = ColumnCtrl::default();
                    continue;
                }
                let t_local = t_local as usize;
                let phase = t_local / pw;
                let j = t_local % pw;
                let n_idx = phase * cfg.h + h;
                let pad = n_idx >= n_real;
                let w_elem = if pad { F16::ZERO } else { w[n_idx][j] };
                if j == 0 {
                    for r in 0..l {
                        xs[h * l + r] = if pad { F16::ZERO } else { x[r][n_idx] };
                    }
                }
                *cc = ColumnCtrl {
                    w: Some(w_elem),
                    set_x: j == 0,
                    passthrough: pad,
                };
            }
            let acc0 = if t < pw { Acc0::Zero } else { Acc0::Ring };
            let outs = dp.tick(&ctrl, &xs, &acc0);
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
            set_x: true,
            passthrough: true,
        }];
        dp.tick(&ctrl, &[F16::ONE], &Acc0::Init(&[F16::NEG_ZERO]));
        let out = dp.tick(&[ColumnCtrl::default()], &[], &Acc0::Zero);
        assert_eq!(out[0].expect("value emerges").to_bits(), 0x8000);
        assert_eq!(dp.macs(), 0, "passthrough must not count as a MAC");
    }

    #[test]
    fn mac_counter_counts_active_lanes_only() {
        // Only column 0 computes this cycle (the others are staggered), so
        // exactly L MACs are performed.
        let cfg = AccelConfig::paper();
        let mut dp = Datapath::new(cfg);
        let xs = vec![F16::ONE; cfg.h * cfg.l];
        let mut ctrl = vec![ColumnCtrl::default(); cfg.h];
        ctrl[0] = ColumnCtrl {
            w: Some(F16::ONE),
            set_x: true,
            passthrough: false,
        };
        dp.tick(&ctrl, &xs, &Acc0::Zero);
        assert_eq!(dp.macs(), cfg.l as u64);
        // A pad (passthrough) cycle adds nothing.
        ctrl[0].passthrough = true;
        dp.tick(&ctrl, &xs, &Acc0::Zero);
        assert_eq!(dp.macs(), cfg.l as u64);
    }

    #[test]
    fn accumulate_mode_starts_from_init() {
        let cfg = AccelConfig::new(1, 2, 0);
        let mut dp = Datapath::new(cfg);
        let ctrl = [ColumnCtrl {
            w: Some(F16::TWO),
            set_x: true,
            passthrough: false,
        }];
        dp.tick(&ctrl, &[f(3.0), f(4.0)], &Acc0::Init(&[f(10.0), f(20.0)]));
        let out = dp.tick(&[ColumnCtrl::default()], &[], &Acc0::Zero);
        assert_eq!(out[0].expect("row 0").to_f32(), 16.0);
        assert_eq!(out[1].expect("row 1").to_f32(), 28.0);
    }

    #[test]
    fn reset_drains_everything() {
        let cfg = AccelConfig::paper();
        let mut dp = Datapath::new(cfg);
        let mut ctrl = vec![ColumnCtrl::default(); cfg.h];
        ctrl[0] = ColumnCtrl {
            w: Some(F16::ONE),
            set_x: true,
            passthrough: false,
        };
        dp.tick(&ctrl, &vec![F16::ONE; cfg.h * cfg.l], &Acc0::Zero);
        assert!(!dp.is_drained());
        dp.reset();
        assert!(dp.is_drained());
    }

    #[test]
    #[should_panic(expected = "one control word per column")]
    fn control_width_checked() {
        let mut dp = Datapath::new(AccelConfig::paper());
        let _ = dp.tick(&[], &[], &Acc0::Zero);
    }
}
