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
//! * [`Engine::start_ft`] makes fault tolerance a mode of the one engine
//!   walk, in one of two protection modes mirroring the hardware options:
//!   **replay** (checksum-based ABFT detects a corrupted output tile,
//!   which is then re-executed, costing only the replayed tiles) and
//!   **redundancy** (every tile is executed twice and the results voted,
//!   modelling the duplication mode's halved throughput). The protected
//!   session walks the tiles under a barrier and checks each tile as it
//!   retires; [`Engine::run_ft`] drives one to the end.
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
use crate::schedule::{Schedule, Tile};
use redmule_cluster::{Hci, Tcdm};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::{Format, F16};
use redmule_hwsim::faults::flip_bit16;
use redmule_hwsim::snapshot::{Snapshot, SnapshotError, StateReader, StateWriter};
use redmule_hwsim::{FaultClass, FaultLog, FaultPhase, SplitMix64, Stats, StuckBit, Xoshiro256};

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

    /// Expands the plan into concrete `(cycle, site)` pairs for tile
    /// `tile_idx` of `schedule`: the explicit specs pinned to it plus the
    /// seeded random transients, drawn over an upper estimate of the
    /// tile's compute length.
    pub(crate) fn expand_for_tile(
        &self,
        tile_idx: usize,
        schedule: &Schedule,
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
        let cfg = schedule.config();
        let tile = schedule.tile(tile_idx);
        let est_len = schedule.tile_len() + 64;
        let pw = cfg.phase_width();
        let lat = cfg.latency();
        let mut rng =
            Xoshiro256::seed_from_u64(self.seed ^ SplitMix64::new(tile_idx as u64 + 1).next_u64());
        for _ in 0..self.transients_per_tile {
            let target = self.targets[rng.below(self.targets.len() as u64) as usize];
            let cycle = rng.below(est_len);
            let site = match target {
                TransientTarget::Pipe => FaultSite::Pipe {
                    col: rng.below(cfg.h as u64) as usize,
                    row: rng.below(tile.rows_live as u64) as usize,
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
                    if schedule.n_chunks() == 0 {
                        continue;
                    }
                    FaultSite::XLoad {
                        chunk: rng.below(schedule.n_chunks() as u64) as usize,
                        row: rng.below(tile.rows_live as u64) as usize,
                        elem: rng.below(pw as u64) as usize,
                        bit: rng.below(16) as u8,
                    }
                }
                TransientTarget::ZStore => FaultSite::ZStore {
                    store: rng.below(tile.rows_live as u64) as usize,
                    elem: rng.below(tile.cols_live as u64) as usize,
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

    /// Every tile's strikes as `(tile, due, site)`, last tile first: the
    /// order a protected session takes them in.
    pub(crate) fn expand(&self, schedule: &Schedule, job: &Job) -> Vec<(usize, u64, FaultSite)> {
        let mut strikes: Vec<(usize, u64, FaultSite)> = (0..schedule.n_tiles())
            .flat_map(|idx| {
                let tile_strikes = self.expand_for_tile(idx, schedule, job);
                tile_strikes
                    .into_iter()
                    .map(move |(due, site)| (idx, due, site))
            })
            .collect();
        strikes.reverse();
        strikes
    }

    /// Applies the plan's persistent faults to the cluster and logs each
    /// at cycle 0: the stuck-at bits in the TCDM, then the armed HCI
    /// drops.
    pub(crate) fn arm_persistent(
        &self,
        mem: &mut Tcdm,
        hci: &mut Hci,
        log: &mut FaultLog,
    ) -> Result<(), EngineError> {
        for &(addr, stuck) in &self.tcdm_stuck {
            mem.set_stuck(addr, stuck)?;
            let site = format!(
                "tcdm@{addr:#x}.b{} stuck-{}",
                stuck.bit,
                u8::from(stuck.value)
            );
            log.record(0, site, FaultClass::StuckAt, FaultPhase::Injected);
        }
        if self.hci_drop_beats > 0 {
            hci.inject_shallow_drop(self.hci_drop_beats);
            let site = format!("hci.shallow x{}", self.hci_drop_beats);
            log.record(0, site, FaultClass::DropTransaction, FaultPhase::Injected);
        }
        Ok(())
    }
}

fn flip(v: &mut F16, bit: u8) {
    *v = F16::from_bits(flip_bit16(v.to_bits(), bit));
}

/// Applies a tile's expanded faults as the engine executes, recording
/// every landed strike. A protected session ([`Engine::start_ft`]) arms
/// its own for each tile run; arm one manually via
/// [`Engine::start_with_faults`] for raw (unprotected) injection
/// experiments.
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
            save_fault_site(*site, w);
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
            let site = load_fault_site(r)?;
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

    /// The log, for the protected session's check verdicts.
    pub(crate) fn log_mut(&mut self) -> &mut FaultLog {
        &mut self.log
    }

    /// Replaces the pending strikes with `specs` and restarts the Z-store
    /// ordinal, keeping the log: a protected session arms each tile run
    /// afresh and disarms it when the run retires.
    pub(crate) fn arm(&mut self, specs: Vec<(u64, FaultSite)>) {
        self.pending = specs;
        self.stores_seen = 0;
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

/// FP16 row/column checksums of a row-major tile `cols` wide, exact in
/// `f64` (each sum folds at most `H*(P+1)` half-precision values, far
/// within the 53-bit mantissa), plus an XOR fold so even sign flips of
/// zero are caught.
// modelcheck-allow: RM-FP-001 -- ABFT reference path: checksums fold F16
// values exactly in f64 (sums stay far within the 53-bit mantissa); the
// signatures detect faults and never enter the FP16 datapath.
fn tile_signature(z: &[F16], cols: usize) -> (Vec<u64>, Vec<u64>, u16) {
    let mut row_sums = Vec::new();
    let mut col_sums = vec![0.0f64; cols];
    let mut xor = 0u16;
    for row in z.chunks(cols.max(1)) {
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

/// TCDM address of element (`row`, `col`) of a `job` operand at `base`
/// with leading dimension `ld`.
fn elem_addr(job: &Job, base: u32, ld: usize, row: usize, col: usize) -> u32 {
    base + job.format.elem_bytes() as u32 * (row * ld + col) as u32
}

/// `rows` runs of `cols` elements of a `job` operand, the first at `addr`
/// and each `ld` elements after the last, widened to FP16, row-major.
fn read_rows(
    mem: &Tcdm,
    job: &Job,
    addr: u32,
    ld: usize,
    rows: usize,
    cols: usize,
) -> Result<Vec<F16>, EngineError> {
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        let row = elem_addr(job, addr, ld, r, 0);
        out.extend(cast::castin_slice(mem, job.format, row, cols)?);
    }
    Ok(out)
}

/// `tile`'s Z block as stored in TCDM, widened to FP16, row-major.
fn read_tile(mem: &Tcdm, job: &Job, tile: Tile) -> Result<Vec<F16>, EngineError> {
    let addr = elem_addr(job, job.z_addr, job.z_ld(), tile.row0, tile.k0);
    read_rows(mem, job, addr, job.z_ld(), tile.rows_live, tile.cols_live)
}

/// The check under way on the tile under check; default between tiles.
#[derive(Debug, Default)]
struct TileCheck {
    /// Failed checks so far.
    attempt: u32,
    /// A run is in flight, from its first tick to its check.
    open: bool,
    /// Redundancy mode: the first run's Z tile, awaiting the vote of the
    /// duplicate run.
    first: Option<Vec<F16>>,
    /// Accumulate jobs: the tile's Z pre-image, written back before every
    /// rerun and the ABFT reference's Y operand.
    z_pre: Option<Vec<F16>>,
}

/// RedMulE-FT inside the one engine walk: the state of a protected
/// [`crate::EngineSession`] (see [`Engine::start_ft`]). The session runs
/// one tile at a time and checks each run as it retires; a failed check
/// (or Redundancy's first run) writes the tile's Z pre-image back and
/// reruns the tile.
#[derive(Debug)]
pub(crate) struct Protection {
    ft: FtConfig,
    /// The plan's strikes as `(tile, due, site)`, last tile first: each
    /// tile's first run takes its own.
    strikes: Vec<(usize, u64, FaultSite)>,
    /// Tiles that passed their check; tile `verified` is under check.
    pub(crate) verified: usize,
    /// `ft_runs`, `abft_cycles`, `tiles_replayed`, `faults_detected` and
    /// `faults_corrected`, as the report's stats show them.
    pub(crate) stats: Stats,
    // modelcheck-allow: RM-SNAP-001 -- drained: checkpoints are only taken
    // at verified tile boundaries (at_boundary), where no check is under
    // way.
    check: TileCheck,
}

impl Snapshot for Protection {
    fn save_state(&self, w: &mut StateWriter) {
        w.put(&(self.ft.mode == FtMode::Redundancy));
        w.put(&self.ft.max_retries);
        w.put(&self.strikes.len());
        for &(tile, due, site) in &self.strikes {
            w.put(&(tile, due));
            save_fault_site(site, w);
        }
        w.put(&self.verified);
        self.stats.save_state(w);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let redundancy: bool = r.get()?;
        self.ft = FtConfig {
            mode: if redundancy {
                FtMode::Redundancy
            } else {
                FtMode::Replay
            },
            max_retries: r.get()?,
        };
        let n: usize = r.get()?;
        if n > r.remaining() {
            return Err(SnapshotError::Truncated);
        }
        self.strikes = (0..n)
            .map(|_| {
                let (tile, due) = r.get()?;
                Ok((tile, due, load_fault_site(r)?))
            })
            .collect::<Result<_, SnapshotError>>()?;
        self.verified = r.get()?;
        self.stats.restore_state(r)?;
        self.check = TileCheck::default();
        Ok(())
    }
}

impl Protection {
    /// Protects a job with `ft` against `strikes`, as
    /// [`FaultPlan::expand`] lists them.
    pub(crate) fn new(ft: FtConfig, strikes: Vec<(usize, u64, FaultSite)>) -> Protection {
        Protection {
            ft,
            strikes,
            verified: 0,
            stats: Stats::new(),
            check: TileCheck::default(),
        }
    }

    /// `true` while a run of the tile under check is in flight.
    pub(crate) fn run_open(&self) -> bool {
        self.check.open
    }

    /// `true` at a verified tile boundary: the previous tile passed its
    /// check and nothing of the next has run.
    pub(crate) fn at_boundary(&self) -> bool {
        !self.check.open && self.check.attempt == 0 && self.check.first.is_none()
    }

    /// Opens the next run of the tile under check at cycle `origin` and
    /// returns the strikes it arms, due `origin` cycles later than
    /// planned: the tile's own on its first run, none on its duplicate run
    /// or its replays. The first run saves an accumulate job's Z
    /// pre-image.
    pub(crate) fn open_run(
        &mut self,
        mem: &Tcdm,
        schedule: &Schedule,
        job: &Job,
        origin: u64,
    ) -> Result<Vec<(u64, FaultSite)>, EngineError> {
        self.check.open = true;
        let mut armed = Vec::new();
        if self.check.attempt > 0 || self.check.first.is_some() {
            return Ok(armed);
        }
        if job.accumulate {
            self.check.z_pre = Some(read_tile(mem, job, schedule.tile(self.verified))?);
        }
        while let Some(&(_, due, site)) = self.strikes.last().filter(|s| s.0 == self.verified) {
            armed.push((due.saturating_add(origin), site));
            self.strikes.pop();
        }
        Ok(armed)
    }

    /// Checks the run that retired this cycle (the tile under check has
    /// computed and drained its stores) and returns `true` when the tile
    /// runs again. Replay charges its checksum pipeline (`rows + cols +
    /// P + 1` cycles) to the session clock `cycle`; Redundancy answers the
    /// first run with a duplicate run and votes after the second. Verdicts
    /// are logged at `cycle`.
    ///
    /// # Errors
    ///
    /// [`EngineError::FaultUnrecoverable`] when the tile fails its check
    /// with its retries spent; [`EngineError::Memory`] when a tile access
    /// leaves the TCDM.
    pub(crate) fn close_run(
        &mut self,
        mem: &mut Tcdm,
        schedule: &Schedule,
        job: &Job,
        cycle: &mut u64,
        log: &mut FaultLog,
    ) -> Result<bool, EngineError> {
        let idx = self.verified;
        let tile = schedule.tile(idx);
        self.check.open = false;
        self.stats.incr("ft_runs");
        let clean = match (self.ft.mode, self.check.first.take()) {
            (FtMode::Replay, _) => {
                let abft = (tile.rows_live + tile.cols_live + schedule.config().latency()) as u64;
                *cycle = cycle.saturating_add(abft);
                self.stats.add("abft_cycles", abft);
                self.abft_clean(mem, schedule.config(), job, tile)?
            }
            // Duplication with comparison: run the tile again on the same
            // inputs and vote bitwise.
            (FtMode::Redundancy, None) => {
                self.check.first = Some(read_tile(mem, job, tile)?);
                self.restore_z(mem, job, tile)?;
                return Ok(true);
            }
            (FtMode::Redundancy, Some(first)) => {
                let second = read_tile(mem, job, tile)?;
                first
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(second.iter().map(|v| v.to_bits()))
            }
        };
        let site = format!("tile{idx}");
        if clean {
            if self.check.attempt > 0 {
                log.record(
                    *cycle,
                    site,
                    FaultClass::TransientFlip,
                    FaultPhase::Corrected,
                );
                self.stats.incr("faults_corrected");
            }
            self.verified += 1;
            self.check = TileCheck::default();
            return Ok(false);
        }
        log.record(
            *cycle,
            site,
            FaultClass::TransientFlip,
            FaultPhase::Detected,
        );
        self.stats.incr("faults_detected");
        if self.check.attempt >= self.ft.max_retries {
            return Err(EngineError::FaultUnrecoverable {
                tile: idx,
                attempts: self.check.attempt + 1,
            });
        }
        self.check.attempt += 1;
        self.stats.incr("tiles_replayed");
        self.restore_z(mem, job, tile)?;
        Ok(true)
    }

    /// ABFT: recomputes `tile` from the operands the engine saw and
    /// compares exact checksums with the Z it stored.
    fn abft_clean(
        &self,
        mem: &Tcdm,
        cfg: &AccelConfig,
        job: &Job,
        tile: Tile,
    ) -> Result<bool, EngineError> {
        let shape = GemmShape::new(tile.rows_live, job.n, tile.cols_live);
        let x_addr = elem_addr(job, job.x_addr, job.x_ld(), tile.row0, 0);
        let x = read_rows(mem, job, x_addr, job.x_ld(), tile.rows_live, job.n)?;
        let w_addr = elem_addr(job, job.w_addr, job.w_ld(), 0, tile.k0);
        let w = read_rows(mem, job, w_addr, job.w_ld(), job.n, tile.cols_live)?;
        // The cast-in operands are already FP16, so the reference runs the
        // functional kernel at FP16: the same per-element fold as the
        // golden model, bit for bit. The engine narrows each result through
        // the castout stage before it lands in TCDM, so the reference must
        // pass through the same quantisation or every clean FP8 tile would
        // look corrupted.
        let reference: Vec<F16> = FunctionalGemm::new(*cfg)
            .run(shape, Format::Fp16, &x, &w, self.check.z_pre.as_deref())?
            .z
            .into_iter()
            .map(|v| job.format.quantize(v))
            .collect();
        let got = read_tile(mem, job, tile)?;
        Ok(tile_signature(&got, tile.cols_live) == tile_signature(&reference, tile.cols_live))
    }

    /// Writes an accumulate job's Z pre-image back over `tile` before a
    /// rerun; a plain job's rerun overwrites the whole tile anyway.
    fn restore_z(&self, mem: &mut Tcdm, job: &Job, tile: Tile) -> Result<(), EngineError> {
        if let Some(pre) = &self.check.z_pre {
            for (r, row) in pre.chunks(tile.cols_live.max(1)).enumerate() {
                let addr = elem_addr(job, job.z_addr, job.z_ld(), tile.row0 + r, tile.k0);
                cast::castout_run(mem, job.format, addr, row)?;
            }
        }
        Ok(())
    }
}

impl Engine {
    /// Executes a job under fault injection with one of the RedMulE-FT
    /// protection modes, producing bit-exact results for any transient
    /// fault the mode covers.
    ///
    /// Starts a protected session ([`Engine::start_ft`]) and ticks it to
    /// the end. The tiles run in [`Engine::run`]'s order, one at a time:
    /// each tile's faults strike its first run, and a failed check
    /// triggers a bounded number of clean replays. All recovery overhead
    /// (duplicated runs, checksum cycles, replays) lands in the report's
    /// `cycles` and stats (`tiles_replayed`, `ft_runs`, `abft_cycles`,
    /// `faults_detected`, `faults_corrected`).
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
        let mut session = self.start_ft(job, plan, ft, mem, hci)?;
        while !session.is_finished() {
            session.tick(mem, hci, &[])?;
        }
        Ok(session.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelConfig;

    fn schedule(job: &Job) -> Schedule {
        Schedule::new(&AccelConfig::paper(), job.shape(), job.format)
    }

    #[test]
    fn expansion_is_deterministic_per_tile() {
        let job = Job::new(0, 0x400, 0x800, 16, 16, 16);
        let s = schedule(&job);
        let plan = FaultPlan::new(7)
            .with_random_transients(3, &[TransientTarget::Pipe, TransientTarget::WLoad]);
        let a = plan.expand_for_tile(0, &s, &job);
        let b = plan.expand_for_tile(0, &s, &job);
        assert_eq!(a, b, "same seed, same tile, same strikes");
        assert_eq!(a.len(), 3);
        let c = plan.expand_for_tile(1, &s, &job);
        assert_ne!(a, c, "tiles draw independent streams");
    }

    #[test]
    fn explicit_specs_filter_by_tile() {
        let job = Job::new(0, 0x400, 0x800, 16, 16, 16);
        let s = schedule(&job);
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
        assert!(plan.expand_for_tile(0, &s, &job).is_empty());
        assert_eq!(plan.expand_for_tile(1, &s, &job), vec![(5, site)]);
    }

    #[test]
    fn signature_catches_any_single_flip() {
        let base: Vec<F16> = (0..16).map(|i| F16::from_f32(i as f32 * 0.25)).collect();
        let sig = tile_signature(&base, 4);
        for r in 0..4 {
            for c in 0..4 {
                for bit in 0..16 {
                    let mut z = base.clone();
                    flip(&mut z[r * 4 + c], bit);
                    assert_ne!(
                        tile_signature(&z, 4),
                        sig,
                        "flip at ({r},{c}) bit {bit} must change the signature"
                    );
                }
            }
        }
    }
}
