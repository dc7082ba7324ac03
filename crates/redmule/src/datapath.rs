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
//! emerge from the pipeline structure. The `L` lanes of a column share
//! the W element broadcast down it, so each live column takes one
//! [`kernel::fma_column`] step per cycle — bit-identical to the scalar
//! `arith::fma` on every lane, and asserted against it in debug builds.
//!
//! All `latency × H × L` partial-sum registers live in one flat delay
//! line of raw binary16 bits: `latency + 1` slots of `H × L` registers
//! (column-major, `h * L + r`) and a rotating head, with one liveness flag
//! per (slot, column) marking bubbles. A tick makes the slot retired by
//! the previous tick the new stage 0 and reads the slot retiring now,
//! which it leaves intact: hardware registers are read before they are
//! written, so no value is copied or moved between registers. The
//! registers hold exactly the bits the hardware holds: a pipe strike that
//! writes a non-canonical NaN leaves the array with those bits when it
//! only passes through clock-gated columns.

use crate::config::AccelConfig;
use redmule_fp16::kernel;
use redmule_fp16::F16;
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
    /// `x_ops[h * L + r]`: the X operand bits latched by FMA (r, h).
    x_ops: Vec<u16>,
    /// `latency + 1` slots of `H × L` register bits; stage `s` (0 =
    /// newest, `s < latency`) of FMA (r, h) is
    /// `regs[((head + s) % (latency + 1)) * H * L + h * L + r]`, and slot
    /// `(head + latency) % (latency + 1)` holds the values that left the
    /// array on the last tick.
    regs: Vec<u16>,
    /// `live[slot * H + h]`: column `h` of `slot` holds values rather than
    /// a bubble.
    live: Vec<bool>,
    /// Slot holding stage 0.
    head: usize,
    /// Column 0's accumulation input from zero or from preloaded Z.
    acc0: Vec<u16>,
    macs: u64,
}

impl Datapath {
    /// Builds the array for an accelerator configuration.
    pub fn new(cfg: AccelConfig) -> Datapath {
        let slots = cfg.latency() + 1;
        Datapath {
            cfg,
            x_ops: vec![0; cfg.h * cfg.l],
            regs: vec![0; slots * cfg.h * cfg.l],
            live: vec![false; slots * cfg.h],
            head: 0,
            acc0: vec![0; cfg.l],
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
        let (h_count, lat) = (self.cfg.h, self.cfg.latency());
        (0..lat).all(|s| {
            let slot = (self.head + s) % (lat + 1);
            !self.live[slot * h_count..][..h_count].contains(&true)
        })
    }

    /// Advances the array one clock cycle.
    ///
    /// `x` holds the X operands of the columns whose control word sets
    /// `set_x`: column `h` latches `x[h * L..(h + 1) * L]`, one per row;
    /// other columns' entries are ignored.
    ///
    /// Returns the raw binary16 bits leaving the **last** column this
    /// cycle (one per row), or `None` for a bubble: mid-tile these are the
    /// ring feedback, in the final phase they are finished Z elements.
    ///
    /// # Panics
    ///
    /// Panics if an active column's accumulation input is a bubble — that
    /// is a scheduler bug, since the ring is rate-matched by construction.
    pub fn tick(&mut self, ctrl: &[ColumnCtrl], x: &[F16], acc0: &Acc0<'_>) -> Option<&[u16]> {
        let (h_count, l) = (self.cfg.h, self.cfg.l);
        assert_eq!(ctrl.len(), h_count, "one control word per column");
        let width = h_count * l;
        let slots = self.cfg.latency() + 1;

        // The slot retired last tick becomes stage 0; the oldest stage
        // retires, and stays readable for this whole tick.
        self.head = (self.head + slots - 1) % slots;
        let old = (self.head + slots - 1) % slots;
        let (new_regs, old_regs) = two_slots(&mut self.regs, width, self.head, old);
        let (new_live, old_live) = two_slots(&mut self.live, h_count, self.head, old);

        for (h, cc) in ctrl.iter().enumerate() {
            let lanes = h * l..(h + 1) * l;
            let x_ops = &mut self.x_ops[lanes.clone()];
            if cc.set_x {
                assert!(x.len() >= lanes.end, "one X operand per row");
                for (op, v) in x_ops.iter_mut().zip(&x[lanes.clone()]) {
                    *op = v.to_bits();
                }
            }
            let Some(w) = cc.w else {
                // Idle column: insert bubbles.
                new_live[h] = false;
                continue;
            };
            let acc_in: &[u16] = match (h, acc0) {
                (0, Acc0::Zero) => {
                    self.acc0.fill(0);
                    &self.acc0
                }
                (0, Acc0::Init(vals)) => {
                    assert_eq!(vals.len(), l, "one initial value per row");
                    for (a, v) in self.acc0.iter_mut().zip(*vals) {
                        *a = v.to_bits();
                    }
                    &self.acc0
                }
                (0, Acc0::Ring) => {
                    assert!(
                        old_live[h_count - 1],
                        "ring feedback bubble reached column 0"
                    );
                    &old_regs[width - l..]
                }
                _ => {
                    assert!(old_live[h - 1], "partial-sum bubble mid-row");
                    &old_regs[lanes.start - l..lanes.start]
                }
            };
            new_live[h] = true;
            let out = &mut new_regs[lanes];
            // A clock-gated pad column passes its input bits through.
            if cc.passthrough {
                out.copy_from_slice(acc_in);
            } else {
                kernel::fma_column(x_ops, w.to_bits(), acc_in, out);
                self.macs += l as u64;
            }
        }

        old_live[h_count - 1].then_some(&old_regs[width - l..])
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
        let slot = (self.head + stage) % (lat + 1);
        if !self.live[slot * h_count + col] {
            return false;
        }
        let reg = &mut self.regs[slot * h_count * l + col * l + row];
        *reg = flip_bit16(*reg, bit);
        true
    }
}

/// Slot `new` of `width` elements for writing and the distinct slot `old`
/// for reading, both out of the flat `all`.
fn two_slots<T>(all: &mut [T], width: usize, new: usize, old: usize) -> (&mut [T], &[T]) {
    if new < old {
        let (lo, hi) = all.split_at_mut(old * width);
        (&mut lo[new * width..][..width], &hi[..width])
    } else {
        let (lo, hi) = all.split_at_mut(new * width);
        (&mut hi[..width], &lo[old * width..][..width])
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
                let outs = outs.expect("final-phase output present");
                for (r, &bits) in outs.iter().enumerate() {
                    z[r][j] = F16::from_bits(bits);
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
        assert_eq!(out.expect("value emerges")[0], 0x8000);
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
        assert_eq!(out, Some(&[f(16.0).to_bits(), f(28.0).to_bits()][..]));
    }

    #[test]
    fn registers_keep_non_canonical_nan_bits() {
        // Column 0 computes 0x7801; flipping its lowest exponent bit makes
        // the non-canonical NaN 0x7C01, which must leave the array with
        // exactly those bits: once after passing through a clock-gated
        // column 1, once when the strike hits column 1's register instead.
        let cfg = AccelConfig::new(2, 1, 0);
        let compute = |passthrough| ColumnCtrl {
            w: Some(F16::ONE),
            set_x: true,
            passthrough,
        };
        let idle = ColumnCtrl::default();
        let x = [F16::from_bits(0x7801), F16::ZERO];
        for strike_col in [0, 1] {
            let mut dp = Datapath::new(cfg);
            dp.tick(&[compute(false), idle], &x, &Acc0::Zero);
            if strike_col == 0 {
                assert!(dp.corrupt(0, 0, 0, 10));
            }
            dp.tick(&[idle, compute(strike_col == 0)], &x, &Acc0::Zero);
            if strike_col == 1 {
                assert!(dp.corrupt(1, 0, 0, 10));
            }
            let out = dp.tick(&[idle, idle], &x, &Acc0::Zero);
            assert_eq!(out, Some(&[0x7C01][..]), "strike in column {strike_col}");
            assert!(dp.is_drained());
            assert!(!dp.corrupt(1, 0, 0, 10), "a bubble masks the strike");
        }
    }

    #[test]
    #[should_panic(expected = "one control word per column")]
    fn control_width_checked() {
        let mut dp = Datapath::new(AccelConfig::paper());
        let _ = dp.tick(&[], &[], &Acc0::Zero);
    }
}
