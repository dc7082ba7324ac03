//! Seeded fault injection and fault-tolerant execution modes.
//!
//! This module reproduces the RedMulE-FT methodology at model level:
//!
//! * a [`FaultPlan`] describes *where* and *when* faults strike — transient
//!   bit-flips in the FMA pipeline registers, the X/W/Z buffer words and
//!   TCDM words, plus persistent stuck-at bits and dropped interconnect
//!   beats. Random plans are driven by the repository's own splitmix /
//!   xoshiro PRNGs, so the same seed reproduces the same strikes on any
//!   host, with no external dependencies;
//! * a [`FaultInjector`] (armed via [`Engine::start_with_faults`]) applies
//!   the plan as the engine executes, recording every landed fault in a
//!   cycle-stamped [`FaultLog`];
//! * [`Engine::run_ft`] wraps execution in one of two protection modes
//!   mirroring the hardware options: **replay** (checksum-based ABFT
//!   detects a corrupted output tile, which is then re-executed, costing
//!   only the replayed tiles) and **redundancy** (every tile is executed
//!   twice and the results voted, modelling the duplication mode's halved
//!   throughput).
//!
//! Coverage honesty: the ABFT reference is recomputed from the *same* TCDM
//! the engine read, so faults that corrupt X/W source words in memory
//! ([`TransientTarget::TcdmData`]) are **outside** the protection boundary
//! — both the engine and the checker see the corrupted operand. This
//! matches real ABFT, which protects the computation, not the inputs.

use crate::cast;
use crate::config::AccelConfig;
use crate::datapath::Datapath;
use crate::engine::{Engine, EngineError, RunReport};
use crate::functional::FunctionalGemm;
use crate::regfile::Job;
use crate::schedule::Schedule;
use redmule_cluster::{Hci, Tcdm};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::{Format, F16};
use redmule_hwsim::faults::flip_bit16;
use redmule_hwsim::snapshot::{Snapshot, SnapshotError, StateReader, StateWriter};
use redmule_hwsim::{
    Cycle, FaultClass, FaultLog, FaultPhase, SplitMix64, Stats, StuckBit, Xoshiro256,
};
use redmule_obs::{Phase, PhaseCycles};

/// Storage classes a random transient can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientTarget {
    /// An FMA partial-sum pipeline register.
    Pipe,
    /// A word of a W group as it is loaded into the W buffer.
    WLoad,
    /// A word of an X chunk as it is loaded into the X buffer.
    XLoad,
    /// A word of a Z row as it is stored back to memory.
    ZStore,
    /// A random TCDM word inside the job's operand footprint. **Not**
    /// covered by ABFT when it hits X/W source data (see module docs).
    TcdmData,
}

/// One concrete fault location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Flip `bit` of the partial sum in pipeline stage `stage` of FMA
    /// (`row`, `col`), at or after the spec's cycle. Retried every cycle
    /// until it lands on a non-bubble stage.
    Pipe {
        /// Datapath column (0..H).
        col: usize,
        /// Datapath row (0..L).
        row: usize,
        /// Pipeline stage, 0 = newest.
        stage: usize,
        /// Bit to flip, 0 = LSB.
        bit: u8,
    },
    /// Flip `bit` of element `elem` of the W group for (`phase`, `col`)
    /// as the streamer loads it (the spec's cycle is ignored).
    WLoad {
        /// Reduction phase within the tile.
        phase: usize,
        /// Datapath column.
        col: usize,
        /// Element within the `H*(P+1)`-wide group.
        elem: usize,
        /// Bit to flip.
        bit: u8,
    },
    /// Flip `bit` of element `elem` of the X chunk for (`chunk`, `row`)
    /// as the streamer loads it.
    XLoad {
        /// X chunk index within the tile.
        chunk: usize,
        /// Datapath row.
        row: usize,
        /// Element within the chunk.
        elem: usize,
        /// Bit to flip.
        bit: u8,
    },
    /// Flip `bit` of element `elem` of the `store`-th Z row written back
    /// during the run.
    ZStore {
        /// Ordinal of the store transaction within the run.
        store: usize,
        /// Element within the stored row.
        elem: usize,
        /// Bit to flip.
        bit: u8,
    },
    /// Flip one bit of the TCDM element at `addr`, at or after the
    /// spec's cycle (single attempt; out-of-range strikes are dropped).
    TcdmWord {
        /// Byte address of the element (halfword for FP16 operands, a
        /// single byte for FP8 storage).
        addr: u32,
        /// Bit within the element at `addr`, 0 = LSB.
        bit: u8,
    },
}

/// A fault pinned to a tile, cycle and site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Index of the output tile (row-major over the tile grid) whose
    /// execution the fault strikes.
    pub tile: usize,
    /// Tile-local cycle at (or after) which cycle-addressed sites apply.
    pub cycle: u64,
    /// Where the fault lands.
    pub site: FaultSite,
}

/// Per-tile geometry the random expansion needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileGeom {
    pub rows_live: usize,
    pub cols_live: usize,
    pub n_chunks: usize,
    /// Upper estimate of the tile's compute length in cycles.
    pub est_len: u64,
}

/// A deterministic, seeded description of every fault to inject.
///
/// Explicit [`FaultSpec`]s and randomly expanded transients coexist; the
/// random part draws per-tile from a PRNG stream derived from the plan
/// seed and the tile index, so runs are reproducible and tiles are
/// statistically independent.
///
/// # Example
///
/// ```
/// use redmule::faults::{FaultPlan, TransientTarget};
///
/// let plan = FaultPlan::new(0xBAD5EED)
///     .with_random_transients(1, &[TransientTarget::Pipe, TransientTarget::WLoad])
///     .with_hci_drops(8);
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    transients_per_tile: u32,
    targets: Vec<TransientTarget>,
    scheduled: Vec<FaultSpec>,
    tcdm_stuck: Vec<(u32, StuckBit)>,
    hci_drop_beats: u32,
}

impl FaultPlan {
    /// Creates an empty plan with the given PRNG seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            transients_per_tile: 0,
            targets: Vec::new(),
            scheduled: Vec::new(),
            tcdm_stuck: Vec::new(),
            hci_drop_beats: 0,
        }
    }

    /// Injects `per_tile` random transients into every tile, drawn from
    /// `targets`.
    #[must_use]
    pub fn with_random_transients(
        mut self,
        per_tile: u32,
        targets: &[TransientTarget],
    ) -> FaultPlan {
        self.transients_per_tile = per_tile;
        self.targets = targets.to_vec();
        self
    }

    /// Adds one explicitly placed fault.
    #[must_use]
    pub fn with_spec(mut self, spec: FaultSpec) -> FaultPlan {
        self.scheduled.push(spec);
        self
    }

    /// Pins one bit of the TCDM word containing `addr` for the whole run
    /// (a persistent stuck-at fault, applied on every read).
    #[must_use]
    pub fn with_tcdm_stuck(mut self, addr: u32, fault: StuckBit) -> FaultPlan {
        self.tcdm_stuck.push((addr, fault));
        self
    }

    /// Drops the first `beats` shallow-port transactions of the run
    /// (`u32::MAX` drops forever — use a watchdog).
    #[must_use]
    pub fn with_hci_drops(mut self, beats: u32) -> FaultPlan {
        self.hci_drop_beats = beats;
        self
    }

    /// The plan's PRNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `true` when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        (self.transients_per_tile == 0 || self.targets.is_empty())
            && self.scheduled.is_empty()
            && self.tcdm_stuck.is_empty()
            && self.hci_drop_beats == 0
    }

    /// Expands the plan into concrete `(cycle, site)` pairs for one tile:
    /// the explicit specs pinned to it plus the seeded random transients.
    pub(crate) fn expand_for_tile(
        &self,
        tile_idx: usize,
        cfg: &AccelConfig,
        geom: &TileGeom,
        job: &Job,
    ) -> Vec<(u64, FaultSite)> {
        let mut out: Vec<(u64, FaultSite)> = self
            .scheduled
            .iter()
            .filter(|s| s.tile == tile_idx)
            .map(|s| (s.cycle, s.site))
            .collect();
        if self.transients_per_tile == 0 || self.targets.is_empty() {
            return out;
        }
        let pw = cfg.phase_width();
        let lat = cfg.latency();
        let mut rng =
            Xoshiro256::seed_from_u64(self.seed ^ SplitMix64::new(tile_idx as u64 + 1).next_u64());
        for _ in 0..self.transients_per_tile {
            let target = self.targets[rng.below(self.targets.len() as u64) as usize];
            let cycle = rng.below(geom.est_len.max(1));
            let site = match target {
                TransientTarget::Pipe => FaultSite::Pipe {
                    col: rng.below(cfg.h as u64) as usize,
                    row: rng.below(geom.rows_live as u64) as usize,
                    stage: rng.below(lat as u64) as usize,
                    bit: rng.below(16) as u8,
                },
                TransientTarget::WLoad => {
                    if job.n == 0 {
                        continue;
                    }
                    let n_idx = rng.below(job.n as u64) as usize;
                    FaultSite::WLoad {
                        phase: n_idx / cfg.h,
                        col: n_idx % cfg.h,
                        elem: rng.below(pw as u64) as usize,
                        bit: rng.below(16) as u8,
                    }
                }
                TransientTarget::XLoad => {
                    if geom.n_chunks == 0 {
                        continue;
                    }
                    FaultSite::XLoad {
                        chunk: rng.below(geom.n_chunks as u64) as usize,
                        row: rng.below(geom.rows_live as u64) as usize,
                        elem: rng.below(pw as u64) as usize,
                        bit: rng.below(16) as u8,
                    }
                }
                TransientTarget::ZStore => FaultSite::ZStore {
                    store: rng.below(geom.rows_live as u64) as usize,
                    elem: rng.below(geom.cols_live as u64) as usize,
                    bit: rng.below(16) as u8,
                },
                TransientTarget::TcdmData => {
                    let windows = [
                        (job.x_addr, job.m * job.x_ld()),
                        (job.w_addr, job.n * job.w_ld()),
                        (job.z_addr, job.m * job.z_ld()),
                    ];
                    let (base, elems) = windows[rng.below(3) as usize];
                    if elems == 0 {
                        continue;
                    }
                    let esz = job.format.elem_bytes() as u32;
                    FaultSite::TcdmWord {
                        addr: base + esz * rng.below(elems as u64) as u32,
                        bit: rng.below(8 * u64::from(esz)) as u8,
                    }
                }
            };
            out.push((cycle, site));
        }
        out
    }
}

fn flip(v: &mut F16, bit: u8) {
    *v = F16::from_bits(flip_bit16(v.to_bits(), bit));
}

/// Applies a tile's expanded faults as the engine executes, recording
/// every landed strike. Built by the fault-tolerant runner; arm one
/// manually via [`Engine::start_with_faults`] for raw (unprotected)
/// injection experiments.
#[derive(Debug, Default)]
pub struct FaultInjector {
    pending: Vec<(u64, FaultSite)>,
    log: FaultLog,
    stores_seen: usize,
}

impl Snapshot for FaultInjector {
    fn save_state(&self, w: &mut StateWriter) {
        w.put(&self.pending.len());
        for (cycle, site) in &self.pending {
            w.put(cycle);
            FaultInjector::save_site(*site, w);
        }
        self.log.save_state(w);
        w.put(&self.stores_seen);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let n: usize = r.get()?;
        if n > r.remaining() {
            return Err(SnapshotError::Corrupt(format!(
                "fault-injector pending length {n} exceeds remaining payload"
            )));
        }
        self.pending.clear();
        for _ in 0..n {
            let cycle: u64 = r.get()?;
            let site = FaultInjector::load_site(r)?;
            self.pending.push((cycle, site));
        }
        self.log.restore_state(r)?;
        self.stores_seen = r.get()?;
        Ok(())
    }
}

impl FaultInjector {
    /// Creates an injector from expanded `(cycle, site)` pairs.
    pub fn new(specs: Vec<(u64, FaultSite)>) -> FaultInjector {
        FaultInjector {
            pending: specs,
            log: FaultLog::new(),
            stores_seen: 0,
        }
    }

    /// The events recorded so far.
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// Consumes the injector, yielding its log (unapplied specs — e.g. a
    /// pipe strike scheduled after the drain — are architecturally masked
    /// and dropped).
    pub fn into_log(self) -> FaultLog {
        self.log
    }

    fn save_site(site: FaultSite, w: &mut StateWriter) {
        save_fault_site(site, w)
    }

    fn load_site(r: &mut StateReader<'_>) -> Result<FaultSite, SnapshotError> {
        load_fault_site(r)
    }
}

/// Serialises one [`FaultSite`] with the snapshot codec — the wire
/// helper host-side journals use to persist `Submission` fault strikes.
pub fn save_fault_site(site: FaultSite, w: &mut StateWriter) {
    match site {
        FaultSite::Pipe {
            col,
            row,
            stage,
            bit,
        } => {
            w.put(&0u8);
            w.put(&col);
            w.put(&row);
            w.put(&stage);
            w.put(&bit);
        }
        FaultSite::WLoad {
            phase,
            col,
            elem,
            bit,
        } => {
            w.put(&1u8);
            w.put(&phase);
            w.put(&col);
            w.put(&elem);
            w.put(&bit);
        }
        FaultSite::XLoad {
            chunk,
            row,
            elem,
            bit,
        } => {
            w.put(&2u8);
            w.put(&chunk);
            w.put(&row);
            w.put(&elem);
            w.put(&bit);
        }
        FaultSite::ZStore { store, elem, bit } => {
            w.put(&3u8);
            w.put(&store);
            w.put(&elem);
            w.put(&bit);
        }
        FaultSite::TcdmWord { addr, bit } => {
            w.put(&4u8);
            w.put(&addr);
            w.put(&bit);
        }
    }
}

/// Decodes one [`FaultSite`] written by [`save_fault_site`].
///
/// # Errors
///
/// [`SnapshotError`] on truncation or an unknown site tag.
pub fn load_fault_site(r: &mut StateReader<'_>) -> Result<FaultSite, SnapshotError> {
    Ok(match r.get::<u8>()? {
        0 => FaultSite::Pipe {
            col: r.get()?,
            row: r.get()?,
            stage: r.get()?,
            bit: r.get()?,
        },
        1 => FaultSite::WLoad {
            phase: r.get()?,
            col: r.get()?,
            elem: r.get()?,
            bit: r.get()?,
        },
        2 => FaultSite::XLoad {
            chunk: r.get()?,
            row: r.get()?,
            elem: r.get()?,
            bit: r.get()?,
        },
        3 => FaultSite::ZStore {
            store: r.get()?,
            elem: r.get()?,
            bit: r.get()?,
        },
        4 => FaultSite::TcdmWord {
            addr: r.get()?,
            bit: r.get()?,
        },
        t => {
            return Err(SnapshotError::Corrupt(format!(
                "unknown fault-site tag {t}"
            )))
        }
    })
}

impl FaultInjector {
    /// Cycle-addressed strikes: FMA pipeline registers and TCDM words.
    pub(crate) fn on_cycle(&mut self, cycle: u64, dp: &mut Datapath, mem: &mut Tcdm) {
        let mut i = 0;
        while i < self.pending.len() {
            let (due, site) = self.pending[i];
            let remove = match site {
                // Retry until the strike lands on a non-bubble stage: a
                // flip of an empty register has no architectural effect,
                // so keep the particle in flight.
                FaultSite::Pipe {
                    col,
                    row,
                    stage,
                    bit,
                } if cycle >= due && dp.corrupt(col, row, stage, bit) => {
                    self.log.record(
                        cycle,
                        format!("fma[{col}][{row}].s{stage}.b{bit}"),
                        FaultClass::TransientFlip,
                        FaultPhase::Injected,
                    );
                    true
                }
                FaultSite::TcdmWord { addr, bit } if cycle >= due => {
                    let word = addr & !3;
                    // Place the flip at the element's byte offset inside the
                    // 32-bit word; identical to the old halfword maths for
                    // 2-aligned FP16 addresses, byte-exact for FP8 elements.
                    let word_bit = (bit % 16) + 8 * (addr & 3) as u8;
                    if mem.flip_bit(word, word_bit).is_ok() {
                        self.log.record(
                            cycle,
                            format!("tcdm@{addr:#x}.b{bit}"),
                            FaultClass::TransientFlip,
                            FaultPhase::Injected,
                        );
                    }
                    true
                }
                _ => false,
            };
            if remove {
                self.pending.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    pub(crate) fn on_w_load(&mut self, cycle: u64, phase: usize, col: usize, group: &mut [F16]) {
        let mut i = 0;
        while i < self.pending.len() {
            if let (
                _,
                FaultSite::WLoad {
                    phase: p,
                    col: c,
                    elem,
                    bit,
                },
            ) = self.pending[i]
            {
                if p == phase && c == col {
                    if let Some(v) = group.get_mut(elem) {
                        flip(v, bit);
                        self.log.record(
                            cycle,
                            format!("wload[p{phase}][c{col}][{elem}].b{bit}"),
                            FaultClass::TransientFlip,
                            FaultPhase::Injected,
                        );
                    }
                    self.pending.swap_remove(i);
                    continue;
                }
            }
            i += 1;
        }
    }

    pub(crate) fn on_x_load(&mut self, cycle: u64, chunk: usize, row: usize, data: &mut [F16]) {
        let mut i = 0;
        while i < self.pending.len() {
            if let (
                _,
                FaultSite::XLoad {
                    chunk: ch,
                    row: r,
                    elem,
                    bit,
                },
            ) = self.pending[i]
            {
                if ch == chunk && r == row {
                    if let Some(v) = data.get_mut(elem) {
                        flip(v, bit);
                        self.log.record(
                            cycle,
                            format!("xload[k{chunk}][r{row}][{elem}].b{bit}"),
                            FaultClass::TransientFlip,
                            FaultPhase::Injected,
                        );
                    }
                    self.pending.swap_remove(i);
                    continue;
                }
            }
            i += 1;
        }
    }

    pub(crate) fn on_z_store(&mut self, cycle: u64, data: &mut [F16]) {
        let ordinal = self.stores_seen;
        self.stores_seen += 1;
        let mut i = 0;
        while i < self.pending.len() {
            if let (_, FaultSite::ZStore { store, elem, bit }) = self.pending[i] {
                if store == ordinal {
                    if let Some(v) = data.get_mut(elem) {
                        flip(v, bit);
                        self.log.record(
                            cycle,
                            format!("zstore[{store}][{elem}].b{bit}"),
                            FaultClass::TransientFlip,
                            FaultPhase::Injected,
                        );
                    }
                    self.pending.swap_remove(i);
                    continue;
                }
            }
            i += 1;
        }
    }
}

/// Which protection scheme [`Engine::run_ft`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtMode {
    /// Checksum ABFT validates each output tile; a corrupted tile is
    /// re-executed. Cheap when faults are rare.
    Replay,
    /// Every tile is executed twice and the two results voted (duplication
    /// with comparison) — detection without a numeric reference, at half
    /// the throughput.
    Redundancy,
}

/// Fault-tolerance configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FtConfig {
    /// Protection scheme.
    pub mode: FtMode,
    /// Replays allowed per tile before giving up with
    /// [`EngineError::FaultUnrecoverable`].
    pub max_retries: u32,
}

impl FtConfig {
    /// ABFT + replay with the default retry budget.
    pub fn replay() -> FtConfig {
        FtConfig {
            mode: FtMode::Replay,
            max_retries: 3,
        }
    }

    /// Duplication with comparison, default retry budget.
    pub fn redundancy() -> FtConfig {
        FtConfig {
            mode: FtMode::Redundancy,
            max_retries: 3,
        }
    }
}

/// FP16 row/column checksums of a tile, exact in `f64` (each sum folds at
/// most `H*(P+1)` half-precision values, far within the 53-bit mantissa),
/// plus an XOR fold so even sign flips of zero are caught.
// modelcheck-allow: RM-FP-001 -- ABFT reference path: checksums fold F16
// values exactly in f64 (sums stay far within the 53-bit mantissa); the
// signatures detect faults and never enter the FP16 datapath.
fn tile_signature(z: &[Vec<F16>]) -> (Vec<u64>, Vec<u64>, u16) {
    let cols = z.first().map_or(0, Vec::len);
    let mut row_sums = Vec::with_capacity(z.len());
    let mut col_sums = vec![0.0f64; cols];
    let mut xor = 0u16;
    for row in z {
        let mut rs = 0.0f64;
        for (j, v) in row.iter().enumerate() {
            let x = f64::from(v.to_f32());
            rs += x;
            col_sums[j] += x;
            xor ^= v.to_bits();
        }
        row_sums.push(rs.to_bits());
    }
    (
        row_sums,
        col_sums.into_iter().map(f64::to_bits).collect(),
        xor,
    )
}

impl Engine {
    /// Executes a job under fault injection with one of the RedMulE-FT
    /// protection modes, producing bit-exact results for any transient
    /// fault the mode covers.
    ///
    /// The job is executed tile by tile (same tiling as [`Engine::run`]).
    /// Per tile, the plan's faults are injected on the first attempt;
    /// detection triggers a bounded number of clean replays. All recovery
    /// overhead — duplicated executions, checksum cycles, replays — lands
    /// in the report's `cycles` and stats (`tiles_replayed`, `ft_runs`,
    /// `abft_cycles`, `faults_detected`, `faults_corrected`).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidJob`] / [`EngineError::Memory`] as
    /// [`Engine::run`]; [`EngineError::Watchdog`] when injected drops hang
    /// the schedule; [`EngineError::FaultUnrecoverable`] when a tile stays
    /// corrupted through every retry (a persistent fault replay cannot
    /// outrun).
    pub fn run_ft(
        &self,
        job: Job,
        mem: &mut Tcdm,
        hci: &mut Hci,
        plan: &FaultPlan,
        ft: FtConfig,
    ) -> Result<RunReport, EngineError> {
        job.validate().map_err(EngineError::InvalidJob)?;
        let cfg = *self.config();
        let lat = cfg.latency();
        let schedule = Schedule::new(&cfg, job.shape(), job.format);

        let mut log = FaultLog::new();
        let mut stats = Stats::new();
        let mut total_cycles = 0u64;
        let mut stall_cycles = 0u64;
        let mut phases = PhaseCycles::new();
        let mut persistent_injected = 0u64;

        for &(addr, stuck) in &plan.tcdm_stuck {
            mem.set_stuck(addr, stuck)?;
            log.record(
                0,
                format!(
                    "tcdm@{addr:#x}.b{} stuck-{}",
                    stuck.bit,
                    u8::from(stuck.value)
                ),
                FaultClass::StuckAt,
                FaultPhase::Injected,
            );
            persistent_injected += 1;
        }
        if plan.hci_drop_beats > 0 {
            hci.inject_shallow_drop(plan.hci_drop_beats);
            log.record(
                0,
                format!("hci.shallow x{}", plan.hci_drop_beats),
                FaultClass::DropTransaction,
                FaultPhase::Injected,
            );
            persistent_injected += 1;
        }

        for (idx, tile) in schedule.tiles().enumerate() {
            let esz = job.format.elem_bytes() as u32;
            let sub_job = Job {
                x_addr: job.x_addr + esz * (tile.row0 * job.x_ld()) as u32,
                w_addr: job.w_addr + esz * tile.k0 as u32,
                z_addr: job.z_addr + esz * (tile.row0 * job.z_ld() + tile.k0) as u32,
                m: tile.rows_live,
                n: job.n,
                k: tile.cols_live,
                accumulate: job.accumulate,
                x_stride: job.x_ld(),
                w_stride: job.w_ld(),
                z_stride: job.z_ld(),
                format: job.format,
            };
            let geom = TileGeom {
                rows_live: tile.rows_live,
                cols_live: tile.cols_live,
                n_chunks: schedule.n_chunks(),
                est_len: schedule.tile_len() + 64,
            };
            let mut specs = plan.expand_for_tile(idx, &cfg, &geom, &job);

            // The Z pre-image doubles as the accumulate restore point and
            // the ABFT reference's Y operand.
            let esz = job.format.elem_bytes() as u32;
            let z_pre: Option<Vec<Vec<F16>>> = if job.accumulate {
                let mut rows = Vec::with_capacity(tile.rows_live);
                for r in 0..tile.rows_live {
                    let addr = sub_job.z_addr + esz * (r * job.z_ld()) as u32;
                    rows.push(cast::castin_slice(mem, job.format, addr, tile.cols_live)?);
                }
                Some(rows)
            } else {
                None
            };
            let restore =
                |mem: &mut Tcdm, pre: &Option<Vec<Vec<F16>>>| -> Result<(), EngineError> {
                    if let Some(rows) = pre {
                        for (r, row) in rows.iter().enumerate() {
                            let addr = sub_job.z_addr + esz * (r * job.z_ld()) as u32;
                            cast::castout_run(mem, job.format, addr, row)?;
                        }
                    }
                    Ok(())
                };

            let mut attempt = 0u32;
            loop {
                if attempt > 0 {
                    restore(mem, &z_pre)?;
                }
                let injector = FaultInjector::new(std::mem::take(&mut specs));
                let report = self.run_with_faults(sub_job, mem, hci, injector)?;
                let run_base = total_cycles;
                total_cycles = total_cycles.saturating_add(report.cycles.count());
                stall_cycles = stall_cycles.saturating_add(report.stall_cycles);
                stats.merge(&report.stats);
                stats.incr("ft_runs");
                phases += report.phases;
                log.absorb(&report.faults, run_base);

                let clean = match ft.mode {
                    FtMode::Replay => {
                        // ABFT: recompute the tile from the operands the
                        // engine saw and compare exact f64 checksums. The
                        // check pipeline costs rows + cols + lat cycles.
                        let abft = (tile.rows_live + tile.cols_live + lat) as u64;
                        total_cycles = total_cycles.saturating_add(abft);
                        stats.add("abft_cycles", abft);
                        // The checksum pipeline is doing arithmetic, so its
                        // cycles are attributed to compute.
                        phases.add_many(Phase::Compute, abft);
                        let shape = GemmShape::new(tile.rows_live, job.n, tile.cols_live);
                        let mut x_sub = Vec::with_capacity(shape.x_len());
                        for r in 0..tile.rows_live {
                            let addr = sub_job.x_addr + esz * (r * job.x_ld()) as u32;
                            x_sub.extend(cast::castin_slice(mem, job.format, addr, job.n)?);
                        }
                        let mut w_sub = Vec::with_capacity(shape.w_len());
                        for n_idx in 0..job.n {
                            let addr = sub_job.w_addr + esz * (n_idx * job.w_ld()) as u32;
                            w_sub.extend(cast::castin_slice(
                                mem,
                                job.format,
                                addr,
                                tile.cols_live,
                            )?);
                        }
                        let y_flat: Option<Vec<F16>> = z_pre.as_ref().map(|rows| rows.concat());
                        // The cast-in operands are already FP16, so the
                        // reference runs the functional kernel at FP16: the
                        // same per-element fold as the golden model, bit for
                        // bit. The engine narrows each result through the
                        // castout stage before it lands in TCDM, so the
                        // reference must pass through the same quantisation
                        // or every clean FP8 tile would look corrupted.
                        let reference: Vec<F16> = FunctionalGemm::new(cfg)
                            .run_inner(shape, Format::Fp16, &x_sub, &w_sub, y_flat.as_deref())?
                            .z
                            .into_iter()
                            .map(|v| job.format.quantize(v))
                            .collect();
                        let ref_rows: Vec<Vec<F16>> = reference
                            .chunks(tile.cols_live.max(1))
                            .map(<[F16]>::to_vec)
                            .collect();
                        let mut got_rows = Vec::with_capacity(tile.rows_live);
                        for r in 0..tile.rows_live {
                            let addr = sub_job.z_addr + esz * (r * job.z_ld()) as u32;
                            got_rows.push(cast::castin_slice(
                                mem,
                                job.format,
                                addr,
                                tile.cols_live,
                            )?);
                        }
                        tile_signature(&got_rows) == tile_signature(&ref_rows)
                    }
                    FtMode::Redundancy => {
                        // Duplication with comparison: run the tile again
                        // on the same inputs and vote bitwise.
                        let mut first = Vec::with_capacity(tile.rows_live);
                        for r in 0..tile.rows_live {
                            let addr = sub_job.z_addr + esz * (r * job.z_ld()) as u32;
                            first.push(cast::castin_slice(mem, job.format, addr, tile.cols_live)?);
                        }
                        restore(mem, &z_pre)?;
                        let clean_run = self.run(sub_job, mem, hci)?;
                        total_cycles = total_cycles.saturating_add(clean_run.cycles.count());
                        stall_cycles = stall_cycles.saturating_add(clean_run.stall_cycles);
                        stats.merge(&clean_run.stats);
                        stats.incr("ft_runs");
                        phases += clean_run.phases;
                        let mut second = Vec::with_capacity(tile.rows_live);
                        for r in 0..tile.rows_live {
                            let addr = sub_job.z_addr + esz * (r * job.z_ld()) as u32;
                            second.push(cast::castin_slice(mem, job.format, addr, tile.cols_live)?);
                        }
                        first
                            .iter()
                            .flatten()
                            .map(|v| v.to_bits())
                            .eq(second.iter().flatten().map(|v| v.to_bits()))
                    }
                };

                if clean {
                    if attempt > 0 {
                        log.record(
                            total_cycles,
                            format!("tile{idx}"),
                            FaultClass::TransientFlip,
                            FaultPhase::Corrected,
                        );
                        stats.incr("faults_corrected");
                    }
                    break;
                }
                log.record(
                    total_cycles,
                    format!("tile{idx}"),
                    FaultClass::TransientFlip,
                    FaultPhase::Detected,
                );
                stats.incr("faults_detected");
                if attempt >= ft.max_retries {
                    return Err(EngineError::FaultUnrecoverable {
                        tile: idx,
                        attempts: attempt + 1,
                    });
                }
                attempt += 1;
                stats.incr("tiles_replayed");
            }
        }

        if persistent_injected > 0 {
            stats.add("faults_injected", persistent_injected);
        }
        Ok(RunReport {
            cycles: Cycle::new(total_cycles),
            macs: job.shape().macs(),
            stall_cycles,
            phases,
            stats,
            faults: log,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelConfig;

    #[test]
    fn expansion_is_deterministic_per_tile() {
        let cfg = AccelConfig::paper();
        let job = Job::new(0, 0x400, 0x800, 16, 16, 16);
        let geom = TileGeom {
            rows_live: 8,
            cols_live: 16,
            n_chunks: 1,
            est_len: 100,
        };
        let plan = FaultPlan::new(7)
            .with_random_transients(3, &[TransientTarget::Pipe, TransientTarget::WLoad]);
        let a = plan.expand_for_tile(0, &cfg, &geom, &job);
        let b = plan.expand_for_tile(0, &cfg, &geom, &job);
        assert_eq!(a, b, "same seed, same tile, same strikes");
        assert_eq!(a.len(), 3);
        let c = plan.expand_for_tile(1, &cfg, &geom, &job);
        assert_ne!(a, c, "tiles draw independent streams");
    }

    #[test]
    fn explicit_specs_filter_by_tile() {
        let cfg = AccelConfig::paper();
        let job = Job::new(0, 0x400, 0x800, 16, 16, 16);
        let geom = TileGeom {
            rows_live: 8,
            cols_live: 16,
            n_chunks: 1,
            est_len: 100,
        };
        let site = FaultSite::ZStore {
            store: 0,
            elem: 0,
            bit: 3,
        };
        let plan = FaultPlan::new(0).with_spec(FaultSpec {
            tile: 1,
            cycle: 5,
            site,
        });
        assert!(plan.expand_for_tile(0, &cfg, &geom, &job).is_empty());
        assert_eq!(plan.expand_for_tile(1, &cfg, &geom, &job), vec![(5, site)]);
    }

    #[test]
    fn signature_catches_any_single_flip() {
        let base: Vec<Vec<F16>> = (0..4)
            .map(|r| {
                (0..4)
                    .map(|c| F16::from_f32((r * 4 + c) as f32 * 0.25))
                    .collect()
            })
            .collect();
        let sig = tile_signature(&base);
        for r in 0..4 {
            for c in 0..4 {
                for bit in 0..16 {
                    let mut z = base.clone();
                    flip(&mut z[r][c], bit);
                    assert_ne!(
                        tile_signature(&z),
                        sig,
                        "flip at ({r},{c}) bit {bit} must change the signature"
                    );
                }
            }
        }
    }
}
