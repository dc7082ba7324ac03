//! The execution engine: Scheduler + Streamer + Controller.
//!
//! This module drives the [`Datapath`] cycle by cycle against the cluster
//! TCDM through the HCI shallow port, reproducing the paper's working
//! principle (§II-C) exactly:
//!
//! * the output matrix is processed in tiles of `L` rows by `H*(P+1)`
//!   columns;
//! * within a tile, the reduction dimension is covered in *phases* of `H`
//!   elements; each column of FMAs is offset from the previous by the FMA
//!   latency `P+1`, and the last column's results ring back into the first;
//! * the **W buffer** needs one wide memory access every `P+1` cycles;
//!   **X refills** and **Z stores** are interleaved into the free slots
//!   between two adjacent W accesses (Fig. 2c);
//! * the whole array clock-gates (stalls) when a buffer misses its
//!   deadline, so performance degradation under port contention emerges
//!   naturally.
//!
//! Numerical results are produced by the datapath's bit-accurate FMA units
//! and are therefore identical to [`redmule_fp16::vector::gemm_golden`].

use crate::buffers::{WBuffer, XBuffer, ZBuffer};
use crate::cast;
use crate::config::AccelConfig;
use crate::datapath::{Acc0, ColumnCtrl, Datapath};
use crate::decode::{decode_container, ContainerSpec, DecodeError};
use crate::faults::FaultInjector;
use crate::regfile::Job;
use crate::schedule::{Schedule, Tile};
use redmule_cluster::{Hci, MemError, Tcdm};
use redmule_fp16::vector::{GemmShape, GemmSizes};
use redmule_fp16::{Format, F16};
use redmule_hwsim::snapshot::{fnv1a64, Snapshot, SnapshotError, StateReader, StateWriter};
use redmule_hwsim::{Cycle, FaultLog, FaultPhase, Stats};
use redmule_obs::{Channel, EventKind, EventLog, Phase, PhaseCycles, TraceEvent};
use std::cell::Cell;
use std::fmt;

/// Error produced by [`Engine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The job descriptor is malformed (alignment).
    InvalidJob(String),
    /// The job shape is too large to run: an operand's element count
    /// overflows `usize`, or its staged workspace does not fit the TCDM's
    /// 32-bit address space (see `GemmShape::checked_sizes`). Both
    /// backends reject the same shapes.
    ShapeTooLarge {
        /// The rejected shape.
        shape: GemmShape,
        /// The storage format whose element width sized the workspace.
        format: Format,
    },
    /// An operand slice length does not match the job shape.
    ShapeMismatch {
        /// Which operand mismatched (`"X"`, `"W"`, `"Y"` or `"Z"`).
        operand: &'static str,
        /// Element count the shape requires.
        expected: usize,
        /// Element count the caller supplied.
        got: usize,
    },
    /// A read or write targeted an unmapped HWPE register offset.
    UnmappedRegister {
        /// The offending byte offset into the register file.
        offset: u32,
    },
    /// An operand access left the TCDM.
    Memory(MemError),
    /// The engine made no forward progress within its watchdog window —
    /// a hung schedule (e.g. dropped interconnect transactions), reported
    /// instead of spinning forever.
    Watchdog {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Consecutive cycles without forward progress.
        stalled_for: u64,
    },
    /// Fault-tolerant execution exhausted its retry budget on one tile;
    /// the corruption recurs on every replay (a persistent fault).
    FaultUnrecoverable {
        /// Index of the tile that never produced a clean result.
        tile: usize,
        /// Number of attempts made (initial run plus replays).
        attempts: u32,
    },
    /// Checkpointing or resuming a session failed: the session was not at
    /// a snapshottable point, the snapshot bytes are damaged, or they were
    /// taken under a different engine configuration.
    Snapshot(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidJob(msg) => write!(f, "invalid job: {msg}"),
            EngineError::ShapeTooLarge { shape, format } => write!(
                f,
                "shape {shape} is too large: its element counts or its {format} workspace \
                 overflow the TCDM's 32-bit address space"
            ),
            EngineError::ShapeMismatch {
                operand,
                expected,
                got,
            } => write!(
                f,
                "operand {operand} has wrong length: shape requires {expected} elements, got {got}"
            ),
            EngineError::UnmappedRegister { offset } => {
                write!(f, "access to unmapped HWPE register {offset:#x}")
            }
            EngineError::Memory(e) => write!(f, "memory access failed: {e}"),
            EngineError::Watchdog { cycle, stalled_for } => write!(
                f,
                "engine watchdog fired at cycle {cycle}: no forward progress for \
                 {stalled_for} cycles"
            ),
            EngineError::FaultUnrecoverable { tile, attempts } => write!(
                f,
                "tile {tile} still corrupted after {attempts} attempts; fault is persistent"
            ),
            EngineError::Snapshot(msg) => write!(f, "session snapshot: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The operand sizes of a job with `shape` stored in `format`, or
/// [`EngineError::ShapeTooLarge`]: the one admission rule both backends,
/// the batch executor and the service apply before sizing anything.
///
/// # Errors
///
/// [`EngineError::ShapeTooLarge`] when an element count overflows `usize`
/// or the staged workspace does not fit the TCDM's 32-bit address space
/// (`GemmShape::checked_sizes`).
pub fn shape_sizes(shape: GemmShape, format: Format) -> Result<GemmSizes, EngineError> {
    shape
        .checked_sizes(format.elem_bytes())
        .ok_or(EngineError::ShapeTooLarge { shape, format })
}

impl From<MemError> for EngineError {
    fn from(e: MemError) -> EngineError {
        EngineError::Memory(e)
    }
}

impl From<SnapshotError> for EngineError {
    fn from(e: SnapshotError) -> EngineError {
        EngineError::Snapshot(e.to_string())
    }
}

impl From<DecodeError> for EngineError {
    fn from(e: DecodeError) -> EngineError {
        EngineError::Snapshot(e.to_string())
    }
}

/// Outcome of one accelerator job.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total wall-clock cycles from trigger to completion (including the
    /// final Z drain).
    pub cycles: Cycle,
    /// Useful FMA operations (`M*N*K`; padding lanes are excluded — they
    /// are clock-gated in hardware). The raw lane activity is available as
    /// the `lane_macs` stat.
    pub macs: u64,
    /// Cycles the datapath spent clock-gated waiting for a buffer.
    pub stall_cycles: u64,
    /// Per-phase cycle attribution (compute / refill / stall / fill /
    /// drain). Exactly one category is charged per executed cycle, so
    /// `phases.total()` equals `cycles.count()` — a schedule invariant the
    /// test-suite pins. Also mirrored into `stats` as `phase_*` keys.
    pub phases: PhaseCycles,
    /// Event counters (`w_loads`, `x_loads`, `z_stores`, `port_idle`, ...).
    pub stats: Stats,
    /// Cycle-stamped fault activity (empty on fault-free runs). Feed it to
    /// [`redmule_hwsim::FaultLog::dump_vcd`] for waveform inspection.
    pub faults: FaultLog,
}

impl RunReport {
    /// Achieved MACs per cycle.
    // modelcheck-allow: RM-FP-001 -- telemetry: throughput ratio reported to
    // humans and benchmarks; never feeds back into model state.
    pub fn macs_per_cycle(&self) -> f64 {
        if self.cycles.count() == 0 {
            return 0.0;
        }
        self.macs as f64 / self.cycles.count() as f64
    }

    /// Fraction of the ideal `H*L` MACs/cycle achieved.
    // modelcheck-allow: RM-FP-001 -- telemetry: utilization ratio reported to
    // humans and benchmarks; never feeds back into model state.
    pub fn utilization(&self, cfg: &AccelConfig) -> f64 {
        self.macs_per_cycle() / cfg.ideal_macs_per_cycle() as f64
    }
}

/// A pending Z-row store: one wide transaction.
#[derive(Debug, Clone)]
struct StoreReq {
    addr: u32,
    data: Vec<F16>,
}

/// A candidate streamer transaction for one beat of the shallow port.
#[derive(Clone, Copy)]
enum Pick {
    /// W group load: (tile, phase, column).
    W(usize, usize, usize),
    /// Z preload row in accumulate mode: (tile, row).
    ZPre(usize, usize),
    /// X row load: (tile, chunk, row).
    X(usize, usize, usize),
    /// Drain the head of the store queue.
    ZStore,
}

/// Streamer policy, for design-choice ablations.
///
/// The paper's design interleaves X loads and Z stores into the free
/// memory slots between two adjacent W loads (Fig. 2c) and prefetches one
/// W group ahead per column. The alternative policies quantify those
/// choices:
///
/// * [`StreamerPolicy::HalfBandwidth`] — the port issues at most every
///   other cycle, emulating a shallow branch of half the width (the
///   paper's discussion of how H > 4 escalates port count);
/// * [`StreamerPolicy::SingleBufferedW`] — W groups may only be fetched
///   once the column's shift register has fully drained (no prefetch),
///   so every phase boundary stalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamerPolicy {
    /// Paper behaviour: interleaved slots, prefetched W groups.
    #[default]
    Interleaved,
    /// Ablation: half the shallow-branch bandwidth.
    HalfBandwidth,
    /// Ablation: no W-group prefetch (single-buffered registers).
    SingleBufferedW,
}

/// The cycle-accurate accelerator engine.
///
/// # Example
///
/// ```
/// use redmule::{AccelConfig, Engine, Job};
/// use redmule_cluster::{ClusterConfig, Hci, Tcdm};
/// use redmule_fp16::F16;
///
/// let ccfg = ClusterConfig::default();
/// let mut mem = Tcdm::new(&ccfg);
/// let mut hci = Hci::new(&ccfg);
/// // Z(2x2) = X(2x2) * W(2x2), all ones -> all 2.0.
/// for i in 0..4 {
///     mem.write_f16(2 * i, F16::ONE)?;        // X at 0x00
///     mem.write_f16(0x100 + 2 * i, F16::ONE)?; // W at 0x100
/// }
/// let engine = Engine::new(AccelConfig::paper());
/// let job = Job::new(0x0, 0x100, 0x200, 2, 2, 2);
/// let report = engine.run(job, &mut mem, &mut hci).expect("job runs");
/// assert_eq!(mem.read_f16(0x200)?.to_f32(), 2.0);
/// assert!(report.cycles.count() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: AccelConfig,
    policy: StreamerPolicy,
    watchdog: u64,
}

/// Default watchdog window: cycles without forward progress before a run
/// aborts with [`EngineError::Watchdog`]. Far beyond any legitimate stall
/// (worst-case arbitration starvation is bounded by the rotation period).
pub const DEFAULT_WATCHDOG: u64 = 10_000;

impl Engine {
    /// Creates an engine for the given instance parameters.
    pub fn new(cfg: AccelConfig) -> Engine {
        Engine {
            cfg,
            policy: StreamerPolicy::Interleaved,
            watchdog: DEFAULT_WATCHDOG,
        }
    }

    /// Selects the streamer slot-allocation policy (ablation support).
    #[must_use]
    pub fn with_streamer_policy(self, policy: StreamerPolicy) -> Engine {
        Engine { policy, ..self }
    }

    /// Overrides the watchdog window (cycles without forward progress
    /// before the run aborts with [`EngineError::Watchdog`]).
    #[must_use]
    pub fn with_watchdog(self, cycles: u64) -> Engine {
        Engine {
            watchdog: cycles.max(1),
            ..self
        }
    }

    /// The instance parameters.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// Executes a job to completion against the TCDM.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidJob`] for malformed descriptors and
    /// [`EngineError::Memory`] when an operand address leaves the TCDM.
    pub fn run(&self, job: Job, mem: &mut Tcdm, hci: &mut Hci) -> Result<RunReport, EngineError> {
        let mut session = self.start(job)?;
        while !session.is_finished() {
            session.tick(mem, hci, &[])?;
        }
        Ok(session.finish())
    }

    /// Like [`Engine::run`], but records the typed trace-event stream
    /// (see [`TraceEvent`]) alongside the report. Stepped sessions record
    /// through [`EngineSession::record_events`].
    ///
    /// # Errors
    ///
    /// As [`Engine::run`].
    pub fn run_logged(
        &self,
        job: Job,
        mem: &mut Tcdm,
        hci: &mut Hci,
    ) -> Result<(RunReport, EventLog), EngineError> {
        let mut session = self.start(job)?;
        session.record_events();
        while !session.is_finished() {
            session.tick(mem, hci, &[])?;
        }
        let events = session.take_events().unwrap_or_default();
        Ok((session.finish(), events))
    }

    /// Starts a job as a steppable [`EngineSession`] for co-simulation with
    /// concurrent core traffic on the interconnect.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidJob`] for malformed descriptors.
    pub fn start(&self, job: Job) -> Result<EngineSession, EngineError> {
        job.validate().map_err(EngineError::InvalidJob)?;
        Ok(EngineSession::new(
            Sim::new(self.cfg, job, self.policy),
            self.watchdog,
        ))
    }

    /// Like [`Engine::start`], but arms a [`FaultInjector`] whose scheduled
    /// transients strike the datapath, buffers and memory as the job runs.
    /// The injector's log ends up in [`RunReport::faults`].
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidJob`] for malformed descriptors.
    pub fn start_with_faults(
        &self,
        job: Job,
        injector: FaultInjector,
    ) -> Result<EngineSession, EngineError> {
        job.validate().map_err(EngineError::InvalidJob)?;
        let mut sim = Sim::new(self.cfg, job, self.policy);
        sim.injector = Some(injector);
        Ok(EngineSession::new(sim, self.watchdog))
    }

    /// Executes a job to completion with an armed [`FaultInjector`].
    ///
    /// This is raw injection with **no** detection or recovery — the
    /// corrupted results land in memory as hardware would produce them.
    /// For protected execution see `Engine::run_ft`.
    ///
    /// # Errors
    ///
    /// As [`Engine::run`], plus [`EngineError::Watchdog`] when an injected
    /// fault (e.g. dropped transactions) hangs the schedule.
    pub fn run_with_faults(
        &self,
        job: Job,
        mem: &mut Tcdm,
        hci: &mut Hci,
        injector: FaultInjector,
    ) -> Result<RunReport, EngineError> {
        let mut session = self.start_with_faults(job, injector)?;
        while !session.is_finished() {
            session.tick(mem, hci, &[])?;
        }
        Ok(session.finish())
    }

    /// Rebuilds a running [`EngineSession`] from a snapshot taken by
    /// [`EngineSession::checkpoint`]. Driving the resumed session to
    /// completion is bit-identical to never having interrupted the
    /// original — results, cycle counts and fault telemetry all match
    /// (the caller must restore the matching TCDM/HCI state alongside).
    /// The resumed session starts without an event log; call
    /// [`EngineSession::record_events`] to record from the resume point on.
    ///
    /// # Errors
    ///
    /// [`EngineError::Snapshot`] when the snapshot is damaged or was taken
    /// under different instance parameters or a different streamer policy.
    pub fn resume(&self, state: &SessionState) -> Result<EngineSession, EngineError> {
        let mut r = StateReader::new(&state.payload);
        let (h, l, p): (usize, usize, usize) = r.get()?;
        if (h, l, p) != (self.cfg.h, self.cfg.l, self.cfg.p) {
            return Err(EngineError::Snapshot(format!(
                "snapshot is for an H={h} L={l} P={p} instance, engine is H={} L={} P={}",
                self.cfg.h, self.cfg.l, self.cfg.p
            )));
        }
        let policy = policy_from_tag(r.get::<u8>()?)?;
        if policy != self.policy {
            return Err(EngineError::Snapshot(format!(
                "snapshot was taken under streamer policy {policy:?}, engine uses {:?}",
                self.policy
            )));
        }
        let job = Job::load_state(&mut r)?;
        job.validate()
            .map_err(|e| EngineError::Snapshot(format!("snapshot job invalid: {e}")))?;
        let cycle: u64 = r.get()?;
        let stalled_for: u64 = r.get()?;

        let mut sim = Sim::new(self.cfg, job, self.policy);
        let corrupt = |what: &str| EngineError::Snapshot(format!("corrupt snapshot: {what}"));
        sim.compute_tile = r.get()?;
        if sim.compute_tile > sim.schedule.n_tiles() {
            return Err(corrupt("tile cursor past the end of the tile grid"));
        }
        sim.w_cursor = r.get()?;
        sim.x_cursor = r.get()?;
        sim.zpre_cursor = r.get()?;
        sim.zpre_ready_tile = r.get()?;
        let zpre: Vec<Vec<u16>> = r.get()?;
        let pw = sim.cfg.phase_width();
        if zpre.len() != sim.cfg.l || zpre.iter().any(|row| row.len() != pw) {
            return Err(corrupt("Z-preload geometry mismatch"));
        }
        sim.zpre = zpre.into_iter().map(f16_from_bits).collect();
        let stores: Vec<(u32, Vec<u16>)> = r.get()?;
        sim.store_queue = stores
            .into_iter()
            .map(|(addr, data)| StoreReq {
                addr,
                data: f16_from_bits(data),
            })
            .collect();
        let x_staging: Vec<Option<Vec<u16>>> = r.get()?;
        if x_staging.len() != sim.cfg.l || x_staging.iter().flatten().any(|row| row.len() != pw) {
            return Err(corrupt("X staging geometry mismatch"));
        }
        for (row, slot) in x_staging.into_iter().enumerate() {
            if let Some(data) = slot {
                sim.xb.stage_row(row, f16_from_bits(data));
            }
        }
        let w_staging: Vec<Option<Vec<u16>>> = r.get()?;
        if w_staging.len() != sim.cfg.h || w_staging.iter().flatten().any(|g| g.len() != pw) {
            return Err(corrupt("W staging geometry mismatch"));
        }
        for (col, slot) in w_staging.into_iter().enumerate() {
            if let Some(data) = slot {
                sim.wb.stage_group(col, f16_from_bits(data));
            }
        }
        let w_inflight: Option<(usize, Vec<u16>)> = r.get()?;
        if let Some((col, group)) = &w_inflight {
            if *col >= sim.cfg.h || group.len() != pw {
                return Err(corrupt("in-flight W group geometry mismatch"));
            }
        }
        sim.w_inflight = w_inflight.map(|(col, group)| (col, f16_from_bits(group)));
        sim.stats.restore_state(&mut r)?;
        sim.useful_macs = r.get()?;
        sim.stall_cycles = r.get()?;
        sim.phases.restore_state(&mut r)?;
        let dp_macs: u64 = r.get()?;
        sim.dp.restore_macs(dp_macs);
        match r.get::<u8>()? {
            0 => {}
            1 => {
                let mut injector = FaultInjector::default();
                injector.restore_state(&mut r)?;
                sim.injector = Some(injector);
            }
            t => return Err(corrupt(&format!("unknown injector tag {t}"))),
        }
        r.expect_end()?;

        let mut session = EngineSession::new(sim, self.watchdog);
        session.cycle = cycle;
        session.stalled_for = stalled_for;
        session.last_sig = (cycle > 0).then(|| session.sim.progress_sig());
        Ok(session)
    }
}

/// Container magic identifying serialised engine sessions.
const SESSION_MAGIC: [u8; 4] = *b"RMSS";

/// Version of the session snapshot payload format. Bumped whenever the
/// serialised state layout changes; old snapshots are rejected rather than
/// misread. Version 3 appended the job's operand [`Format`] tag to the
/// serialised descriptor.
///
/// [`Format`]: redmule_fp16::Format
pub const SESSION_STATE_VERSION: u32 = 3;

/// Envelope description of the `RMSS` session container, for the typed
/// decoder.
const SESSION_CONTAINER: ContainerSpec = ContainerSpec {
    name: "session",
    magic: SESSION_MAGIC,
    version: SESSION_STATE_VERSION,
};

/// A versioned, checksummed snapshot of an in-flight [`EngineSession`],
/// taken at a tile boundary by [`EngineSession::checkpoint`] and turned
/// back into a running session by [`Engine::resume`].
///
/// Snapshots are only taken at tile boundaries, where the datapath
/// pipelines are drained, the W shift registers are empty and the Z
/// accumulation buffer holds no live tile — so the serialised state is the
/// scheduler cursors, the staged/in-flight operand groups, the pending
/// store queue, the counters and the fault-injector position, which is
/// everything needed for a bit-exact resume.
///
/// The wire format is `"RMSS"` magic, a little-endian format version, a
/// length-prefixed payload and an FNV-1a-64 checksum of the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionState {
    payload: Vec<u8>,
}

impl SessionState {
    /// Serialises the snapshot into a self-describing byte container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 24);
        out.extend_from_slice(&SESSION_MAGIC);
        out.extend_from_slice(&SESSION_STATE_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out.extend_from_slice(&fnv1a64(&self.payload).to_le_bytes());
        out
    }

    /// Parses a container produced by [`SessionState::to_bytes`],
    /// verifying magic, version and checksum.
    ///
    /// # Errors
    ///
    /// A typed [`DecodeError`] on any structural damage: wrong magic,
    /// unsupported version, truncation, trailing bytes or checksum
    /// mismatch. Never panics, whatever the input.
    pub fn from_bytes(bytes: &[u8]) -> Result<SessionState, DecodeError> {
        let payload = decode_container(SESSION_CONTAINER, bytes)?;
        Ok(SessionState { payload })
    }
}

fn policy_tag(policy: StreamerPolicy) -> u8 {
    match policy {
        StreamerPolicy::Interleaved => 0,
        StreamerPolicy::HalfBandwidth => 1,
        StreamerPolicy::SingleBufferedW => 2,
    }
}

fn policy_from_tag(tag: u8) -> Result<StreamerPolicy, EngineError> {
    Ok(match tag {
        0 => StreamerPolicy::Interleaved,
        1 => StreamerPolicy::HalfBandwidth,
        2 => StreamerPolicy::SingleBufferedW,
        t => {
            return Err(EngineError::Snapshot(format!(
                "unknown streamer-policy tag {t}"
            )))
        }
    })
}

fn f16_bits(values: &[F16]) -> Vec<u16> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn f16_from_bits(bits: Vec<u16>) -> Vec<F16> {
    bits.into_iter().map(F16::from_bits).collect()
}

/// A running accelerator job that advances one clock at a time, sharing
/// the HCI with other initiators.
///
/// Each [`EngineSession::tick`] performs one cycle of the whole
/// accelerator (datapath + streamer) and arbitrates the streamer's wide
/// access against any core/DMA requests the caller submits for that same
/// cycle — the real tightly-coupled execution the cluster was designed
/// for.
///
/// # Example
///
/// ```
/// use redmule::{AccelConfig, Engine, Job};
/// use redmule_cluster::{ClusterConfig, Hci, Initiator, Tcdm};
/// use redmule_fp16::F16;
///
/// let ccfg = ClusterConfig::default();
/// let mut mem = Tcdm::new(&ccfg);
/// let mut hci = Hci::new(&ccfg);
/// for i in 0..4 {
///     mem.write_f16(2 * i, F16::ONE)?;
///     mem.write_f16(0x100 + 2 * i, F16::ONE)?;
/// }
/// let engine = Engine::new(AccelConfig::paper());
/// let mut session = engine.start(Job::new(0, 0x100, 0x200, 2, 2, 2))?;
/// while !session.is_finished() {
///     // Core 0 polls some flag in bank 0 every cycle, contending with
///     // the accelerator's wide accesses.
///     let tick = session.tick(&mut mem, &mut hci, &[(Initiator::Core(0), 0x40)])?;
///     let _core_served = tick.log_granted[0];
/// }
/// let report = session.finish();
/// assert!(report.cycles.count() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
// modelcheck: snapshot(save = checkpoint, load = resume)
#[derive(Debug)]
pub struct EngineSession {
    sim: Sim,
    cycle: u64,
    // modelcheck-allow: RM-SNAP-001 -- derived: recomputed from
    // sim.schedule by EngineSession::new on resume.
    no_work: bool,
    // modelcheck-allow: RM-SNAP-001 -- derived: the cycle bound is a pure
    // function of (cfg, job), recomputed by EngineSession::new on resume.
    bound: u64,
    // modelcheck-allow: RM-SNAP-001 -- engine configuration, not job
    // state: resume() reinstalls the *resuming* engine's watchdog.
    watchdog: u64,
    // modelcheck-allow: RM-SNAP-001 -- derived: recomputed from the
    // restored scheduler cursors (progress_sig) at the end of resume().
    last_sig: Option<ProgressSig>,
    stalled_for: u64,
    // modelcheck-allow: RM-SNAP-001 -- telemetry cache: monotonicity clamp
    // for estimated_remaining_cycles; resets to the no-estimate-yet state
    // on resume, which only relaxes the clamp.
    est_clamp: Cell<u64>,
}

/// Snapshot of every scheduler cursor; two equal consecutive snapshots mean
/// the cycle made no forward progress (the watchdog's liveness signal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProgressSig {
    tile: usize,
    t: usize,
    started: bool,
    stores: usize,
    w: (usize, usize, usize),
    x: (usize, usize, usize),
    zp: (usize, usize),
    zready: usize,
}

/// What one datapath tick did, for per-cycle attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CycleKind {
    /// The datapath advanced: an FMA phase issued or a tile flushed.
    Advance,
    /// All tiles are computed; only the store queue still drains.
    DrainOnly,
    /// The datapath was clock-gated; the payload is the schedule-level
    /// cause (`Fill`, `Refill` or `Drain`). The tick loop upgrades it to
    /// `Stall` when the streamer's request was denied this same cycle.
    Stalled(Phase),
}

/// Outcome of one [`EngineSession::tick`].
#[derive(Debug, Clone)]
pub struct TickResult {
    /// Grant for each submitted logarithmic-branch request, in order.
    pub log_granted: Vec<bool>,
    /// Whether the job completed on this cycle.
    pub finished: bool,
}

impl EngineSession {
    fn new(sim: Sim, watchdog: u64) -> EngineSession {
        let no_work = sim.schedule.n_tiles() == 0;
        let bound = 10_000
            + 64 * sim.schedule.n_tiles() as u64 * (sim.schedule.tile_len() + sim.cfg.l as u64 + 4);
        EngineSession {
            sim,
            cycle: 0,
            no_work,
            bound,
            watchdog,
            last_sig: None,
            stalled_for: 0,
            est_clamp: Cell::new(u64::MAX),
        }
    }

    /// Starts a fresh [`EventLog`]; subsequent ticks record typed
    /// [`TraceEvent`]s into it, each on the cycle it happens: one
    /// `Refill` or `StoreDrain` per streamer transfer (an FP8 beat can
    /// carry two), tile brackets, stalls, faults and checkpoints. Any log
    /// already being recorded is dropped. The log is not part of a
    /// checkpoint, so a resumed session starts unrecorded. The
    /// [`PhaseCycles`] ledger is always on either way.
    pub fn record_events(&mut self) {
        self.sim.events = Some(EventLog::new());
    }

    /// Stops recording and returns the log, if one was being recorded.
    pub fn take_events(&mut self) -> Option<EventLog> {
        self.sim.events.take()
    }

    /// `true` while events are being recorded.
    pub fn is_recording(&self) -> bool {
        self.sim.events.is_some()
    }

    /// `true` once the job has fully drained (further ticks are no-ops).
    pub fn is_finished(&self) -> bool {
        self.no_work || self.sim.finished()
    }

    /// Advances the accelerator one cycle; `log_requests` are core/DMA
    /// accesses contending on the interconnect this same cycle.
    ///
    /// # Errors
    ///
    /// [`EngineError::Memory`] when an operand access leaves the TCDM;
    /// [`EngineError::Watchdog`] when the schedule makes no forward
    /// progress for a full watchdog window (see [`Engine::with_watchdog`])
    /// or exceeds its structural cycle bound — a hung interconnect or a
    /// scheduler bug, reported instead of spinning forever.
    pub fn tick(
        &mut self,
        mem: &mut Tcdm,
        hci: &mut Hci,
        log_requests: &[(redmule_cluster::Initiator, u32)],
    ) -> Result<TickResult, EngineError> {
        if self.is_finished() {
            return Ok(TickResult {
                log_granted: vec![false; log_requests.len()],
                finished: true,
            });
        }
        // Contention can legitimately stretch execution by up to the
        // rotation period; scale the structural bound accordingly.
        if self.cycle >= self.bound * 8 {
            self.emit_watchdog();
            return Err(EngineError::Watchdog {
                cycle: self.cycle,
                stalled_for: self.stalled_for,
            });
        }
        self.sim.inject_cycle_faults(self.cycle, mem);
        self.sim.stage_pads();
        let faults_before = self.sim.fault_count();
        let kind = if self.sim.schedule.n_phases() == 0 {
            self.sim.flush_empty_reduction_tile(self.cycle)
        } else {
            self.sim.compute_cycle(self.cycle)
        };
        let (log_granted, conflict) =
            self.sim
                .streamer_cycle(mem, hci, self.cycle, log_requests)?;
        // Attribute this cycle to exactly one category. A datapath stall
        // whose memory request was denied this same cycle is charged to
        // interconnect contention (`Stall`) rather than the schedule-level
        // cause it would otherwise carry.
        let phase = match kind {
            CycleKind::Advance => Phase::Compute,
            CycleKind::DrainOnly => Phase::Drain,
            CycleKind::Stalled(cause) => {
                if conflict {
                    Phase::Stall
                } else {
                    cause
                }
            }
        };
        let sig = self.sim.progress_sig();
        if self.last_sig == Some(sig) {
            self.stalled_for += 1;
            if self.stalled_for >= self.watchdog {
                self.emit_watchdog();
                return Err(EngineError::Watchdog {
                    cycle: self.cycle,
                    stalled_for: self.stalled_for,
                });
            }
        } else {
            self.last_sig = Some(sig);
            self.stalled_for = 0;
        }
        self.sim.phases.add(phase);
        // Tile brackets and transfers were recorded where they happened.
        // The cycle's stall and fault events follow the watchdog check, so
        // an aborting cycle records only its `Watchdog` event.
        if conflict {
            self.sim.emit(self.cycle, EventKind::HciStall);
        }
        if matches!(kind, CycleKind::Stalled(_)) {
            self.sim.emit(self.cycle, EventKind::Stall { phase });
        }
        self.sim.emit_faults(faults_before);
        self.cycle = self.cycle.saturating_add(1);
        Ok(TickResult {
            log_granted,
            finished: self.is_finished(),
        })
    }

    /// Records a watchdog trip event (just before the session aborts with
    /// [`EngineError::Watchdog`]).
    fn emit_watchdog(&mut self) {
        let stalled_for = self.stalled_for;
        let kind = EventKind::Watchdog { stalled_for };
        self.sim.emit(self.cycle, kind);
    }

    /// Consumes the session, producing the final report.
    ///
    /// # Panics
    ///
    /// Panics if the job has not finished (drive [`EngineSession::tick`]
    /// until [`EngineSession::is_finished`]).
    pub fn finish(mut self) -> RunReport {
        assert!(self.is_finished(), "job still in flight");
        debug_assert_eq!(
            self.sim.phases.total(),
            self.cycle,
            "phase attribution must cover every executed cycle exactly once"
        );
        debug_assert_eq!(
            self.sim.useful_macs,
            self.sim.job.shape().macs(),
            "useful-MAC accounting must cover the job exactly"
        );
        let stats = std::mem::take(&mut self.sim.stats);
        let faults = self
            .sim
            .injector
            .take()
            .map(FaultInjector::into_log)
            .unwrap_or_default();
        self.report(stats, faults)
    }

    /// Cycles executed so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Output tiles whose computation has fully completed.
    pub fn tiles_completed(&self) -> usize {
        self.sim.compute_tile.min(self.sim.schedule.n_tiles())
    }

    /// Total output tiles in the job's tile grid.
    pub fn tiles_total(&self) -> usize {
        self.sim.schedule.n_tiles()
    }

    /// `true` when the session sits on a tile boundary — the next compute
    /// cycle would be the first of a fresh tile (or the job is draining
    /// its final stores). At a boundary the datapath pipelines are
    /// drained and the W/Z buffers hold no live tile state, which is what
    /// makes [`EngineSession::checkpoint`] possible.
    pub fn at_tile_boundary(&self) -> bool {
        self.sim.t_local == 0 && !self.sim.started
    }

    /// Analytical estimate of the cycles still needed to finish the job,
    /// from the calibrated schedule model
    /// ([`Schedule::remaining_cycles`], exact on uncontended fault-free
    /// runs) applied to the session's tile cursor and store queue.
    ///
    /// The returned value is monotonically non-increasing across a run
    /// (contention can only delay completion, never un-finish work; a
    /// clamp enforces this across re-ordering edge cases) and never
    /// exceeds the actual remaining cycles by more than one tile. Used for
    /// graceful degradation when a supervisor cuts a run short.
    pub fn estimated_remaining_cycles(&self) -> u64 {
        let clamped = self.estimate_remaining_raw().min(self.est_clamp.get());
        self.est_clamp.set(clamped);
        clamped
    }

    fn estimate_remaining_raw(&self) -> u64 {
        if self.is_finished() {
            return 0;
        }
        // Between ticks a tile has started exactly when its local cycle is
        // past 0, so `t_local == 0` on tile 0 means the fill is still owed.
        let s = &self.sim;
        s.schedule
            .remaining_cycles(s.compute_tile, s.t_local as u64, s.store_queue.len())
    }

    /// Serialises the session into a [`SessionState`] snapshot.
    ///
    /// Only legal at a tile boundary ([`EngineSession::at_tile_boundary`])
    /// — between tiles the micro-architectural state collapses to the
    /// scheduler cursors, staged operands and pending stores, so a resumed
    /// run is bit-identical to an uninterrupted one. The TCDM and HCI are
    /// *not* included; callers snapshot those alongside (see the runtime
    /// crate's checkpoint container).
    ///
    /// # Errors
    ///
    /// [`EngineError::Snapshot`] when called mid-tile.
    ///
    /// Takes `&mut self` only to record an [`EventKind::Checkpoint`]
    /// event; the simulation state itself is not modified, and the event
    /// log is not part of the snapshot.
    pub fn checkpoint(&mut self) -> Result<SessionState, EngineError> {
        let s = &self.sim;
        if !self.at_tile_boundary() {
            return Err(EngineError::Snapshot(format!(
                "not at a tile boundary (tile {}, local cycle {})",
                s.compute_tile, s.t_local
            )));
        }
        debug_assert!(s.dp.is_drained(), "datapath must drain between tiles");
        debug_assert!(
            !s.zb.is_occupied(),
            "Z buffer must be released between tiles"
        );
        let mut w = StateWriter::new();
        w.put(&(s.cfg.h, s.cfg.l, s.cfg.p));
        w.put(&policy_tag(s.policy));
        s.job.save_state(&mut w);
        w.put(&self.cycle);
        w.put(&self.stalled_for);
        w.put(&s.compute_tile);
        w.put(&s.w_cursor);
        w.put(&s.x_cursor);
        w.put(&s.zpre_cursor);
        w.put(&s.zpre_ready_tile);
        w.put(
            &s.zpre
                .iter()
                .map(|row| f16_bits(row))
                .collect::<Vec<Vec<u16>>>(),
        );
        w.put(
            &s.store_queue
                .iter()
                .map(|req| (req.addr, f16_bits(&req.data)))
                .collect::<Vec<(u32, Vec<u16>)>>(),
        );
        let staged = |slots: &[Option<Vec<F16>>]| -> Vec<Option<Vec<u16>>> {
            slots
                .iter()
                .map(|slot| slot.as_deref().map(f16_bits))
                .collect()
        };
        w.put(&staged(s.xb.staging_slots()));
        w.put(&staged(s.wb.staging_slots()));
        w.put(
            &s.w_inflight
                .as_ref()
                .map(|(col, group)| (*col, f16_bits(group))),
        );
        s.stats.save_state(&mut w);
        w.put(&s.useful_macs);
        w.put(&s.stall_cycles);
        s.phases.save_state(&mut w);
        w.put(&s.dp.macs());
        match &s.injector {
            None => w.put(&0u8),
            Some(injector) => {
                w.put(&1u8);
                injector.save_state(&mut w);
            }
        }
        let tile = s.compute_tile as u32;
        self.sim.emit(self.cycle, EventKind::Checkpoint { tile });
        Ok(SessionState {
            payload: w.finish(),
        })
    }

    /// A [`RunReport`] covering the work done *so far*, for a session that
    /// will not run to completion (a budget stop or an unrecovered
    /// failure). Unlike [`EngineSession::finish`] this does not consume
    /// the session, never panics mid-flight and skips the full-job MAC
    /// accounting check.
    pub fn partial_report(&self) -> RunReport {
        let faults = self
            .sim
            .injector
            .as_ref()
            .map(|injector| injector.log().clone())
            .unwrap_or_default();
        self.report(self.sim.stats.clone(), faults)
    }

    /// Assembles the report from the session's counters, mirroring the
    /// stall, MAC and per-phase totals (and the injected-fault count when
    /// `faults` is non-empty) into `stats`.
    fn report(&self, mut stats: Stats, faults: FaultLog) -> RunReport {
        stats.add("stall_cycles", self.sim.stall_cycles);
        stats.add("macs", self.sim.useful_macs);
        stats.add("lane_macs", self.sim.dp.macs());
        for (label, cycles) in self.sim.phases.iter() {
            stats.add(&format!("phase_{label}"), cycles);
        }
        if !faults.is_empty() {
            stats.add("faults_injected", faults.count(FaultPhase::Injected));
        }
        RunReport {
            cycles: Cycle::new(self.cycle),
            macs: self.sim.useful_macs,
            stall_cycles: self.sim.stall_cycles,
            phases: self.sim.phases,
            stats,
            faults,
        }
    }
}

/// All mutable state of one job execution.
// modelcheck: snapshot(save = checkpoint, load = resume)
#[derive(Debug)]
struct Sim {
    cfg: AccelConfig,
    job: Job,
    // modelcheck-allow: RM-SNAP-001 -- derived: the tile grid is a pure
    // function of (cfg, job), rebuilt by Sim::new on resume.
    schedule: Schedule,

    dp: Datapath,
    xb: XBuffer,
    wb: WBuffer,
    // modelcheck-allow: RM-SNAP-001 -- drained: checkpoints are only taken
    // at tile boundaries, where the Z buffer holds no live tile (asserted
    // in checkpoint()).
    zb: ZBuffer,

    /// Tile currently being computed and its local cycle.
    compute_tile: usize,
    // modelcheck-allow: RM-SNAP-001 -- drained: at a tile boundary the
    // local cycle is 0 (enforced by at_tile_boundary before serialising).
    t_local: usize,
    // modelcheck-allow: RM-SNAP-001 -- drained: at a tile boundary the
    // next tile has not started (enforced by at_tile_boundary).
    started: bool,

    /// W generator cursor: (tile, phase, col) in deadline order.
    w_cursor: (usize, usize, usize),
    /// X generator cursor: (tile, chunk, row).
    x_cursor: (usize, usize, usize),
    /// Z preload cursor: (tile, row); the preload always targets the
    /// currently computing tile (accumulate mode only).
    zpre_cursor: (usize, usize),
    zpre: Vec<Vec<F16>>,
    zpre_ready_tile: usize,

    /// Pending Z stores.
    store_queue: std::collections::VecDeque<StoreReq>,

    stats: Stats,
    useful_macs: u64,
    stall_cycles: u64,
    /// Always-on per-cycle attribution ledger: exactly one [`Phase`] is
    /// charged per executed cycle.
    phases: PhaseCycles,
    // modelcheck-allow: RM-SNAP-001 -- telemetry: event logs are started
    // per session by the caller and intentionally not serialised; a resumed
    // session starts unrecorded (see DESIGN.md §12).
    events: Option<EventLog>,
    policy: StreamerPolicy,
    /// Single-buffered-W ablation: a loaded group spends one cycle in
    /// flight before it can be staged (no prefetch hides this latency).
    w_inflight: Option<(usize, Vec<F16>)>,
    /// Armed fault injector (None on fault-free runs).
    injector: Option<FaultInjector>,
    // modelcheck-allow: RM-SNAP-001 -- scratch: the per-cycle column
    // control words, rebuilt from the cursors on every compute cycle.
    ctrl: Vec<ColumnCtrl>,
    // modelcheck-allow: RM-SNAP-001 -- scratch: X operands handed to the
    // datapath on the cycle they are latched, refilled before each use.
    x_latch: Vec<F16>,
    // modelcheck-allow: RM-SNAP-001 -- scratch: the accumulate-mode column
    // of preloaded Z (the serialised zpre), gathered on each use.
    z_init: Vec<F16>,
}

impl Sim {
    fn new(cfg: AccelConfig, job: Job, policy: StreamerPolicy) -> Sim {
        let pw = cfg.phase_width();
        Sim {
            cfg,
            job,
            schedule: Schedule::new(&cfg, job.shape(), job.format),
            dp: Datapath::new(cfg),
            xb: XBuffer::new(cfg.l, pw),
            wb: WBuffer::new(cfg.h, pw),
            zb: ZBuffer::new(cfg.l, pw),
            compute_tile: 0,
            t_local: 0,
            started: false,
            w_cursor: (0, 0, 0),
            x_cursor: (0, 0, 0),
            zpre_cursor: (0, 0),
            zpre: vec![vec![F16::ZERO; pw]; cfg.l],
            zpre_ready_tile: usize::MAX,
            store_queue: std::collections::VecDeque::new(),
            stats: Stats::new(),
            useful_macs: 0,
            stall_cycles: 0,
            phases: PhaseCycles::new(),
            events: None,
            policy,
            w_inflight: None,
            injector: None,
            ctrl: vec![ColumnCtrl::default(); cfg.h],
            x_latch: vec![F16::ZERO; cfg.h * cfg.l],
            z_init: vec![F16::ZERO; cfg.l],
        }
    }

    /// Applies all cycle-addressed faults due this cycle (FMA pipeline
    /// registers and TCDM words).
    fn inject_cycle_faults(&mut self, cycle: u64, mem: &mut Tcdm) {
        if let Some(inj) = self.injector.as_mut() {
            inj.on_cycle(cycle, &mut self.dp, mem);
        }
    }

    /// Records `kind` at `cycle` when an event log is attached.
    fn emit(&mut self, cycle: u64, kind: EventKind) {
        if let Some(log) = self.events.as_mut() {
            log.push(TraceEvent { cycle, kind });
        }
    }

    /// Entries in the fault injector's log so far.
    fn fault_count(&self) -> usize {
        self.injector
            .as_ref()
            .map_or(0, |inj| inj.log().events().len())
    }

    /// Copies the fault-log entries from index `from` on into the event
    /// log, stamped with the cycle each fault was logged at.
    fn emit_faults(&mut self, from: usize) {
        let (Some(log), Some(inj)) = (self.events.as_mut(), &self.injector) else {
            return;
        };
        for fe in &inj.log().events()[from..] {
            log.push(TraceEvent {
                cycle: fe.cycle,
                kind: EventKind::Fault {
                    class: fe.class,
                    phase: fe.phase,
                },
            });
        }
    }

    /// Records the start of the current compute tile.
    fn emit_tile_start(&mut self, cycle: u64) {
        let tile = self.schedule.tile(self.compute_tile);
        let kind = EventKind::TileStart {
            tile: self.compute_tile as u32,
            row0: tile.row0 as u32,
            rows: tile.rows_live as u32,
            cols: tile.cols_live as u32,
        };
        self.emit(cycle, kind);
    }

    fn progress_sig(&self) -> ProgressSig {
        ProgressSig {
            tile: self.compute_tile,
            t: self.t_local,
            started: self.started,
            stores: self.store_queue.len(),
            w: self.w_cursor,
            x: self.x_cursor,
            zp: self.zpre_cursor,
            zready: self.zpre_ready_tile,
        }
    }

    fn finished(&self) -> bool {
        self.compute_tile >= self.schedule.n_tiles() && self.store_queue.is_empty()
    }

    /// N == 0: every output tile is all zeros (or the preloaded Z in
    /// accumulate mode). One tile is flushed per cycle.
    fn flush_empty_reduction_tile(&mut self, cycle: u64) -> CycleKind {
        if self.compute_tile >= self.schedule.n_tiles() {
            return CycleKind::DrainOnly;
        }
        if self.zb.is_occupied() {
            return CycleKind::Stalled(Phase::Drain);
        }
        if self.job.accumulate && self.zpre_ready_tile != self.compute_tile {
            // Wait for the Z preload of this tile to finish streaming in.
            return CycleKind::Stalled(Phase::Refill);
        }
        let tile = self.schedule.tile(self.compute_tile);
        self.emit_tile_start(cycle);
        for r in 0..tile.rows_live {
            for j in 0..self.cfg.phase_width() {
                let v = if self.job.accumulate {
                    self.zpre[r][j]
                } else {
                    F16::ZERO
                };
                self.zb.record(r, j, v);
            }
        }
        self.zb.seal();
        self.enqueue_stores(tile);
        self.zb.release();
        let done = self.compute_tile as u32;
        self.emit(cycle, EventKind::TileEnd { tile: done });
        self.compute_tile += 1;
        self.zpre_ready_tile = usize::MAX;
        self.zpre_cursor = (self.compute_tile, 0);
        CycleKind::Advance
    }

    /// One datapath cycle (or a stall).
    fn compute_cycle(&mut self, cycle: u64) -> CycleKind {
        if self.compute_tile >= self.schedule.n_tiles() {
            return CycleKind::DrainOnly;
        }
        let tile = self.schedule.tile(self.compute_tile);
        let t = self.t_local;
        let pw = self.cfg.phase_width();
        let lat = self.cfg.latency();
        let h_count = self.cfg.h;
        let n_phases = self.schedule.n_phases();
        let tile_len = self.schedule.tile_len() as usize;
        // The last phase's outputs leave the ring in the final pw cycles.
        let final_start = tile_len - pw;

        // ---- Stall checks (clock gate) ----
        if !self.started {
            // Tile start: chunk 0 staged, W group for column 0 staged,
            // Z buffer free, and (accumulate) the Z preload completed.
            if self.zb.is_occupied() {
                // Previous tile's outputs still hold the Z buffer.
                self.stall_cycles = self.stall_cycles.saturating_add(1);
                return CycleKind::Stalled(Phase::Drain);
            }
            if !self.xb.staging_complete()
                || self.wb.staging_free(0)
                || (self.job.accumulate && self.zpre_ready_tile != self.compute_tile)
            {
                // Pipeline fill: waiting for the tile's first operands.
                self.stall_cycles = self.stall_cycles.saturating_add(1);
                return CycleKind::Stalled(Phase::Fill);
            }
            self.xb.swap();
            self.started = true;
            self.emit_tile_start(cycle);
        } else {
            // Column phase starts needing a staged W group this cycle.
            for h in 0..h_count {
                let t_col = t as i64 - (h * lat) as i64;
                if t_col >= 0
                    && (t_col as usize) < n_phases * pw
                    && (t_col as usize).is_multiple_of(pw)
                    && self.wb.staging_free(h)
                {
                    self.stall_cycles = self.stall_cycles.saturating_add(1);
                    return CycleKind::Stalled(Phase::Refill);
                }
            }
            // Chunk boundary: column 0 entering phase c*lat needs the next
            // X chunk staged.
            if t < n_phases * pw && t.is_multiple_of(pw) {
                let phase = t / pw;
                if phase > 0 && phase.is_multiple_of(lat) {
                    if !self.xb.staging_complete() {
                        self.stall_cycles = self.stall_cycles.saturating_add(1);
                        return CycleKind::Stalled(Phase::Refill);
                    }
                    self.xb.swap();
                }
            }
            // Entering the final output window with the Z buffer still
            // draining the previous tile.
            if t == final_start && self.zb.is_occupied() {
                self.stall_cycles = self.stall_cycles.saturating_add(1);
                return CycleKind::Stalled(Phase::Drain);
            }
        }

        // ---- Build per-column control ----
        let l = self.cfg.l;
        for h in 0..h_count {
            let t_col = t as i64 - (h * lat) as i64;
            if t_col < 0 || t_col as usize >= n_phases * pw {
                self.ctrl[h] = ColumnCtrl::default();
                continue;
            }
            let t_col = t_col as usize;
            let phase = t_col / pw;
            let j = t_col % pw;
            let n_idx = phase * h_count + h;
            let pad = n_idx >= self.job.n;
            if !pad && j < tile.cols_live {
                // Useful work this cycle: one MAC per live row of this
                // column (padding lanes are clock-gated in real hardware).
                self.useful_macs += tile.rows_live as u64;
            }
            if j == 0 {
                let ok = self.wb.activate(h);
                debug_assert!(ok, "stall check guarantees the staged group");
                let chunk_elem = (phase % lat) * h_count + h;
                for (r, x) in self.x_latch[h * l..(h + 1) * l].iter_mut().enumerate() {
                    *x = self.xb.operand(r, chunk_elem);
                }
            }
            self.ctrl[h] = ColumnCtrl {
                w: Some(self.wb.broadcast(h)),
                set_x: j == 0,
                passthrough: pad,
            };
        }

        let acc0 = if t < pw {
            if self.job.accumulate {
                for (z, row) in self.z_init.iter_mut().zip(&self.zpre) {
                    *z = row[t];
                }
                Acc0::Init(&self.z_init)
            } else {
                Acc0::Zero
            }
        } else {
            Acc0::Ring
        };

        let outs = self.dp.tick(&self.ctrl, &self.x_latch, &acc0);

        // ---- Capture finished outputs ----
        if t >= final_start && t < final_start + pw {
            let j = t - final_start;
            for (r, v) in outs.iter().enumerate() {
                // modelcheck-allow: RM-PANIC-001 -- schedule invariant: during
                // the final-phase window every datapath column emits a value;
                // a bubble here means the cycle-accurate schedule is broken.
                self.zb.record(r, j, v.expect("final-phase output present"));
            }
        }

        self.t_local += 1;
        if self.t_local == tile_len {
            // Tile complete: seal outputs, queue the stores, advance.
            self.zb.seal();
            self.enqueue_stores(tile);
            self.zb.release();
            let done = self.compute_tile as u32;
            self.emit(cycle, EventKind::TileEnd { tile: done });
            self.compute_tile += 1;
            self.t_local = 0;
            self.started = false;
            if self.job.accumulate {
                self.zpre_ready_tile = usize::MAX;
                self.zpre_cursor = (self.compute_tile, 0);
            }
        }
        CycleKind::Advance
    }

    fn enqueue_stores(&mut self, tile: Tile) {
        let esz = self.job.format.elem_bytes() as u32;
        for r in 0..tile.rows_live {
            let addr = self.job.z_addr + esz * ((tile.row0 + r) * self.job.z_ld() + tile.k0) as u32;
            let data = self.zb.row(r)[..tile.cols_live].to_vec();
            self.store_queue.push_back(StoreReq { addr, data });
        }
    }

    /// Stages W pad groups (reduction rows beyond N) and X pad rows
    /// (datapath rows beyond M) without consuming memory slots: the
    /// hardware generates these zeros locally.
    fn stage_pads(&mut self) {
        // W pads.
        while let Some((tile, phase, col)) = self.w_head() {
            let n_idx = phase * self.cfg.h + col;
            let _ = tile;
            if n_idx < self.job.n || !self.wb.staging_free(col) {
                break;
            }
            self.wb
                .stage_group(col, vec![F16::ZERO; self.cfg.phase_width()]);
            self.advance_w();
        }
        // X pads.
        while let Some((tile_idx, _chunk, row)) = self.x_head() {
            if row < self.schedule.tile(tile_idx).rows_live || !self.xb.staging_free(row) {
                break;
            }
            self.xb
                .stage_row(row, vec![F16::ZERO; self.cfg.phase_width()]);
            self.advance_x();
        }
    }

    /// Head of the W generator, or `None` when all groups are issued.
    fn w_head(&self) -> Option<(usize, usize, usize)> {
        let (tile, phase, col) = self.w_cursor;
        (self.schedule.n_phases() > 0 && tile < self.schedule.n_tiles())
            .then_some((tile, phase, col))
    }

    fn advance_w(&mut self) {
        let (mut tile, mut phase, mut col) = self.w_cursor;
        col += 1;
        if col == self.cfg.h {
            col = 0;
            phase += 1;
            if phase == self.schedule.n_phases() {
                phase = 0;
                tile += 1;
            }
        }
        self.w_cursor = (tile, phase, col);
    }

    fn x_head(&self) -> Option<(usize, usize, usize)> {
        let (tile, chunk, row) = self.x_cursor;
        (self.schedule.n_phases() > 0 && tile < self.schedule.n_tiles())
            .then_some((tile, chunk, row))
    }

    fn advance_x(&mut self) {
        let (mut tile, mut chunk, mut row) = self.x_cursor;
        row += 1;
        if row == self.cfg.l {
            row = 0;
            chunk += 1;
            if chunk == self.schedule.n_chunks() {
                chunk = 0;
                tile += 1;
            }
        }
        self.x_cursor = (tile, chunk, row);
    }

    fn zpre_head(&self) -> Option<(usize, usize)> {
        if !self.job.accumulate {
            return None;
        }
        let (tile, row) = self.zpre_cursor;
        (tile < self.schedule.n_tiles()).then_some((tile, row))
    }

    /// Selects the next transaction for the shallow port, priority
    /// W > Z-preload > X > Z-store, or `None` when every stream is idle.
    fn select_pick(&self) -> Option<Pick> {
        if let Some((tile, phase, col)) = self.w_head().filter(|&(_, phase, col)| {
            phase * self.cfg.h + col < self.job.n
                && self.wb.staging_free(col)
                && (self.policy != StreamerPolicy::SingleBufferedW
                    || (self.wb.register_empty(col) && self.w_inflight.is_none()))
        }) {
            Some(Pick::W(tile, phase, col))
        } else if let Some((tile, row)) = self
            .zpre_head()
            .filter(|&(tile, _)| tile == self.compute_tile && tile != self.zpre_ready_tile)
        {
            Some(Pick::ZPre(tile, row))
        } else if let Some((tile, chunk, row)) = self.x_head().filter(|&(t, _, row)| {
            row < self.schedule.tile(t).rows_live && self.xb.staging_free(row)
        }) {
            Some(Pick::X(tile, chunk, row))
        } else if !self.store_queue.is_empty() {
            Some(Pick::ZStore)
        } else {
            None
        }
    }

    /// TCDM byte address of the first element a pick touches.
    fn pick_addr(&self, pick: Pick) -> u32 {
        let esz = self.job.format.elem_bytes() as u32;
        match pick {
            Pick::W(tile, phase, col) => {
                let n_idx = phase * self.cfg.h + col;
                self.job.w_addr
                    + esz * (n_idx * self.job.w_ld() + self.schedule.tile(tile).k0) as u32
            }
            Pick::ZPre(tile, row) => {
                let t = self.schedule.tile(tile);
                self.job.z_addr + esz * ((t.row0 + row) * self.job.z_ld() + t.k0) as u32
            }
            Pick::X(tile, chunk, row) => {
                let t = self.schedule.tile(tile);
                self.job.x_addr
                    + esz
                        * ((t.row0 + row) * self.job.x_ld() + chunk * self.cfg.phase_width()) as u32
            }
            // modelcheck-allow: RM-PANIC-001 -- arbitration invariant:
            // Pick::ZStore is only selected when the store queue is
            // non-empty (checked when building the pick).
            Pick::ZStore => self.store_queue.front().expect("queue checked").addr,
        }
    }

    /// One streamer cycle: issue at most one wide access over the shallow
    /// port, priority W > Z-preload > X > Z-store. With an FP8 operand
    /// format the elements are half-width, so one granted 256-bit beat
    /// carries two picks' worth of elements: a second transaction is
    /// served on the same grant (the castin/castout stages repack bytes,
    /// doubling effective bandwidth — the journal follow-up's headline).
    ///
    /// Returns the grant for each logarithmic-branch request and whether
    /// the streamer's own request lost arbitration (a port conflict).
    fn streamer_cycle(
        &mut self,
        mem: &mut Tcdm,
        hci: &mut Hci,
        cycle: u64,
        log_requests: &[(redmule_cluster::Initiator, u32)],
    ) -> Result<(Vec<bool>, bool), EngineError> {
        if self.policy == StreamerPolicy::HalfBandwidth && cycle % 2 == 1 {
            self.stats.incr("port_gated");
            let grants = hci.arbitrate(log_requests, None);
            return Ok((grants.log_granted, false));
        }

        // Single-buffered-W ablation: deliver last cycle's load first; the
        // port is free again this cycle for other streams.
        if let Some((col, group)) = self.w_inflight.take() {
            self.wb.stage_group(col, group);
        }

        let Some(pick) = self.select_pick() else {
            self.stats.incr("port_idle");
            let grants = hci.arbitrate(log_requests, None);
            return Ok((grants.log_granted, false));
        };

        // The shallow port is a single wide transaction; arbitration with
        // concurrent core traffic happens in the HCI.
        let addr = self.pick_addr(pick);
        let grants = hci.arbitrate(log_requests, Some(addr));
        if !grants.shallow_granted {
            self.stats.incr("port_conflicts");
            return Ok((grants.log_granted, true));
        }

        self.serve_pick(pick, mem, cycle)?;
        if self.job.format.is_fp8() {
            // Half-width elements: a second pick rides the same granted
            // beat (no extra HCI arbitration — it is one wide access).
            if let Some(second) = self.select_pick() {
                self.serve_pick(second, mem, cycle)?;
                self.stats.incr("fp8_pair_beats");
            }
        }
        Ok((grants.log_granted, false))
    }

    /// Completes one picked transaction: reads operands through the castin
    /// stage (widening FP8 storage to FP16) or drains one store row
    /// through the castout stage (narrowing FP16 results to the job's
    /// storage format). Counts the transfer and records it as one
    /// `Refill` (W, Z-preload, X) or `StoreDrain` event.
    fn serve_pick(&mut self, pick: Pick, mem: &mut Tcdm, cycle: u64) -> Result<(), EngineError> {
        let format = self.job.format;
        let esz = format.elem_bytes() as u32;
        let pw = self.cfg.phase_width();
        let (counter, channel) = match pick {
            Pick::W(tile, phase, col) => {
                let n_idx = phase * self.cfg.h + col;
                let t = self.schedule.tile(tile);
                let mut group = Vec::with_capacity(pw);
                for jj in 0..pw {
                    let kk = t.k0 + jj;
                    group.push(if kk < self.job.k {
                        cast::castin(
                            mem,
                            format,
                            self.job.w_addr + esz * (n_idx * self.job.w_ld() + kk) as u32,
                        )?
                    } else {
                        F16::ZERO
                    });
                }
                if let Some(inj) = self.injector.as_mut() {
                    inj.on_w_load(cycle, phase, col, &mut group);
                }
                if self.policy == StreamerPolicy::SingleBufferedW {
                    self.w_inflight = Some((col, group));
                } else {
                    self.wb.stage_group(col, group);
                }
                self.advance_w();
                ("w_loads", Channel::W)
            }
            Pick::ZPre(tile, row) => {
                let t = self.schedule.tile(tile);
                for jj in 0..pw {
                    let kk = t.k0 + jj;
                    self.zpre[row][jj] = if row < t.rows_live && kk < self.job.k {
                        cast::castin(
                            mem,
                            format,
                            self.job.z_addr + esz * ((t.row0 + row) * self.job.z_ld() + kk) as u32,
                        )?
                    } else {
                        F16::ZERO
                    };
                }
                self.zpre_cursor.1 += 1;
                if self.zpre_cursor.1 == self.cfg.l {
                    self.zpre_ready_tile = tile;
                    self.zpre_cursor = (tile, 0);
                }
                ("z_preloads", Channel::ZPre)
            }
            Pick::X(tile, chunk, row) => {
                let t = self.schedule.tile(tile);
                let mut data = Vec::with_capacity(pw);
                for e in 0..pw {
                    let n_idx = chunk * pw + e;
                    data.push(if n_idx < self.job.n {
                        cast::castin(
                            mem,
                            format,
                            self.job.x_addr
                                + esz * ((t.row0 + row) * self.job.x_ld() + n_idx) as u32,
                        )?
                    } else {
                        F16::ZERO
                    });
                }
                if let Some(inj) = self.injector.as_mut() {
                    inj.on_x_load(cycle, chunk, row, &mut data);
                }
                self.xb.stage_row(row, data);
                self.advance_x();
                ("x_loads", Channel::X)
            }
            Pick::ZStore => {
                // modelcheck-allow: RM-PANIC-001 -- arbitration invariant:
                // Pick::ZStore is only selected when the store queue is
                // non-empty (checked when building the pick).
                let StoreReq { addr, mut data } =
                    self.store_queue.pop_front().expect("queue checked");
                if let Some(inj) = self.injector.as_mut() {
                    inj.on_z_store(cycle, &mut data);
                }
                for (jj, v) in data.iter().enumerate() {
                    cast::castout(mem, format, addr + esz * jj as u32, *v)?;
                }
                ("z_stores", Channel::ZStore)
            }
        };
        self.stats.incr(counter);
        // Only a recording session pays for reading the running count.
        if self.events.is_some() {
            let kind = match channel {
                Channel::ZStore => EventKind::StoreDrain {
                    pending: self.store_queue.len() as u32,
                },
                channel => EventKind::Refill {
                    channel,
                    seq: self.stats.get(counter),
                },
            };
            self.emit(cycle, kind);
        }
        Ok(())
    }
}
