//! The job schedule: RedMulE's tile grid and its analytical cycle model.
//!
//! The engine cuts the `M x K` output into tiles of `L` rows by
//! `phase_width = H*(P+1)` columns, visited in row-major tile order
//! (`L`-row bands, phase-width panels). Each tile computes for
//! `tile_len = H*(P+1) + n_phases*phase_width` cycles, where
//! `n_phases = ceil(N/H)` reduction phases cover the reduction dimension.
//! On an uncontended fault-free run, W-group prefetch hides every
//! tile-boundary stall, so the compute blocks run back to back after one
//! pipeline fill, and the last tile's stores drain at the end.
//!
//! [`Schedule`] is the single home of that arithmetic. The cycle-accurate
//! engine walks its tile grid, while the functional backend's estimate,
//! its synthetic trace and the engine's remaining-cycles estimate all
//! read their terms from it. The estimate is exact against
//! [`crate::Engine::run`] for uncontended fault-free runs (pinned by the
//! `cycle_model` regression tests).

use crate::config::AccelConfig;
use redmule_fp16::vector::GemmShape;
use redmule_fp16::Format;
use redmule_hwsim::Cycle;

/// One output tile: `rows_live x cols_live` live elements at
/// (`row0`, `k0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// First output row.
    pub row0: usize,
    /// First output column.
    pub k0: usize,
    /// Live rows (`L` except on the last band).
    pub rows_live: usize,
    /// Live columns (`phase_width` except on the last panel).
    pub cols_live: usize,
}

/// The tile grid and cost terms of one GEMM job on one instance.
///
/// Built by arithmetic alone (no per-tile storage), so it is cheap enough
/// to derive for every job on the functional hot path.
///
/// # Example
///
/// ```
/// use redmule::{AccelConfig, Format, Schedule};
/// use redmule_fp16::vector::GemmShape;
///
/// let s = Schedule::new(&AccelConfig::paper(), GemmShape::new(16, 16, 32), Format::Fp16);
/// assert_eq!(s.n_tiles(), 4);
/// // Four 80-cycle tiles, a 12-cycle fill and a 7-cycle drain.
/// assert_eq!(s.total_cycles().count(), 4 * 80 + 12 + 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    cfg: AccelConfig,
    shape: GemmShape,
    /// Transactions served per granted port beat: two half-width FP8
    /// elements share one beat.
    beat: u64,
    n_bands: usize,
    tiles_k: usize,
    n_phases: usize,
}

impl Schedule {
    /// The schedule of `shape` with operands stored in `format` on the
    /// instance `cfg`.
    pub fn new(cfg: &AccelConfig, shape: GemmShape, format: Format) -> Schedule {
        Schedule {
            cfg: *cfg,
            shape,
            beat: if format.is_fp8() { 2 } else { 1 },
            n_bands: shape.m.div_ceil(cfg.l),
            tiles_k: shape.k.div_ceil(cfg.phase_width()),
            n_phases: shape.n.div_ceil(cfg.h),
        }
    }

    /// The instance parameters.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// The job's shape.
    pub fn shape(&self) -> GemmShape {
        self.shape
    }

    /// Tiles per band (`ceil(K / phase_width)`).
    pub fn tiles_k(&self) -> usize {
        self.tiles_k
    }

    /// Total output tiles.
    pub fn n_tiles(&self) -> usize {
        self.n_bands * self.tiles_k
    }

    /// First row and live row count of band `band`.
    pub fn band_rows(&self, band: usize) -> (usize, usize) {
        let row0 = band * self.cfg.l;
        (row0, self.shape.m.saturating_sub(row0).min(self.cfg.l))
    }

    /// Tile `idx` in the engine's enumeration order. `idx` must be below
    /// [`Schedule::n_tiles`].
    pub fn tile(&self, idx: usize) -> Tile {
        debug_assert!(idx < self.n_tiles(), "tile {idx} outside the grid");
        let (row0, rows_live) = self.band_rows(idx / self.tiles_k);
        let pw = self.cfg.phase_width();
        let k0 = (idx % self.tiles_k) * pw;
        Tile {
            row0,
            k0,
            rows_live,
            cols_live: (self.shape.k - k0).min(pw),
        }
    }

    /// Every tile in the engine's enumeration order.
    pub fn tiles(&self) -> impl ExactSizeIterator<Item = Tile> + '_ {
        (0..self.n_tiles()).map(|idx| self.tile(idx))
    }

    /// `H`-wide reduction phases per tile (`ceil(N / H)`); zero for an
    /// empty reduction.
    pub fn n_phases(&self) -> usize {
        self.n_phases
    }

    /// X chunks per tile: each staged X row feeds `P+1` phases.
    pub fn n_chunks(&self) -> usize {
        self.n_phases.div_ceil(self.cfg.latency())
    }

    /// Compute length of one tile in cycles: `H*(P+1)` to fill and drain
    /// the column offsets plus `phase_width` per reduction phase.
    pub fn tile_len(&self) -> u64 {
        (self.cfg.h * self.cfg.latency() + self.n_phases * self.cfg.phase_width()) as u64
    }

    /// Initial pipeline fill: `min(N,H)` W loads plus `min(M,L)` X loads
    /// before the first FMA issues, `beat` per cycle.
    pub fn fill(&self) -> u64 {
        ((self.shape.n.min(self.cfg.h) + self.shape.m.min(self.cfg.l)) as u64).div_ceil(self.beat)
    }

    /// Final drain: the last tile's stores leave `beat` rows per cycle,
    /// minus the one store overlapping the final compute cycle (`rows - 1`
    /// for FP16). Zero for an empty grid.
    pub fn drain(&self) -> u64 {
        match self.n_tiles() {
            0 => 0,
            n => (self.tile(n - 1).rows_live as u64)
                .div_ceil(self.beat)
                .saturating_sub(1),
        }
    }

    /// Analytical cycle count of the whole job: `n_tiles * tile_len +
    /// fill + drain`. Empty-reduction jobs (`N == 0`) flush one tile per
    /// cycle while stores drain in parallel: `max(n_tiles, M *
    /// tiles_k / beat)`. An empty output (`M == 0` or `K == 0`) costs
    /// nothing.
    pub fn total_cycles(&self) -> Cycle {
        Cycle::new(self.remaining_cycles(0, 0, 0))
    }

    /// Cycles left from a point in the run: tile `tile` has executed
    /// `tile_cycle` of its compute cycles and `queued_stores` store rows
    /// wait in the queue. The initial fill is still owed while the first
    /// tile is at cycle 0. Under a contended backlog the queued stores
    /// lower-bound the rest.
    pub fn remaining_cycles(&self, tile: usize, tile_cycle: u64, queued_stores: usize) -> u64 {
        let queued = (queued_stores as u64).div_ceil(self.beat);
        let n_tiles = self.n_tiles();
        if tile >= n_tiles {
            return queued;
        }
        if self.n_phases == 0 {
            // One tile flushes per cycle while stores drain in parallel.
            let store_rows: u64 = (tile..n_tiles)
                .map(|idx| self.tile(idx).rows_live as u64)
                .sum();
            return ((n_tiles - tile) as u64)
                .max((store_rows + queued_stores as u64).div_ceil(self.beat));
        }
        let tile_len = self.tile_len();
        let current = tile_len - tile_cycle.min(tile_len);
        let fill = if tile == 0 && tile_cycle == 0 {
            self.fill()
        } else {
            0
        };
        let compute_path = (n_tiles - tile - 1) as u64 * tile_len + current + fill + self.drain();
        compute_path.max(queued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_the_output_in_engine_order() {
        let cfg = AccelConfig::paper();
        let s = Schedule::new(&cfg, GemmShape::new(9, 5, 17), Format::Fp16);
        assert_eq!((s.n_bands, s.tiles_k(), s.n_tiles()), (2, 2, 4));
        let tiles: Vec<Tile> = s.tiles().collect();
        let geom: Vec<(usize, usize, usize, usize)> = tiles
            .iter()
            .map(|t| (t.row0, t.k0, t.rows_live, t.cols_live))
            .collect();
        assert_eq!(
            geom,
            vec![(0, 0, 8, 16), (0, 16, 8, 1), (8, 0, 1, 16), (8, 16, 1, 1)]
        );
        let area: usize = tiles.iter().map(|t| t.rows_live * t.cols_live).sum();
        assert_eq!(area, 9 * 17);
    }

    #[test]
    fn cost_terms_follow_the_paper_instance() {
        let cfg = AccelConfig::paper();
        let s = Schedule::new(&cfg, GemmShape::new(8, 16, 16), Format::Fp16);
        assert_eq!(
            (s.n_phases(), s.tile_len(), s.fill(), s.drain()),
            (4, 80, 12, 7)
        );
        assert_eq!(s.total_cycles().count(), 80 + 12 + 7);
        // FP8 pairs transactions per beat: fill and drain halve, rounded up.
        let s8 = Schedule::new(&cfg, GemmShape::new(8, 16, 16), Format::Fp8E4M3);
        assert_eq!((s8.tile_len(), s8.fill(), s8.drain()), (80, 6, 3));
        // Empty reduction and empty output.
        let empty = Schedule::new(&cfg, GemmShape::new(16, 0, 32), Format::Fp16);
        assert_eq!(empty.total_cycles().count(), 32);
        let none = Schedule::new(&cfg, GemmShape::new(0, 4, 8), Format::Fp16);
        assert_eq!((none.n_tiles(), none.drain()), (0, 0));
        assert_eq!(none.total_cycles().count(), 0);
    }

    #[test]
    fn remaining_cycles_count_down_to_the_stores() {
        let cfg = AccelConfig::paper();
        let s = Schedule::new(&cfg, GemmShape::new(16, 16, 32), Format::Fp16);
        let total = s.total_cycles().count();
        assert_eq!(s.remaining_cycles(0, 0, 0), total);
        // Once the first tile runs, the fill is paid.
        assert_eq!(s.remaining_cycles(0, 1, 0), total - s.fill() - 1);
        assert_eq!(s.remaining_cycles(3, 0, 0), s.tile_len() + s.drain());
        assert_eq!(s.remaining_cycles(4, 0, 5), 5);
    }
}
