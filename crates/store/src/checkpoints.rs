//! The checkpoint store: generation-numbered, atomically published,
//! content-checked checkpoint records.
//!
//! Each record is one object holding one frame whose payload is an
//! inner header (job id, generation) followed by the serialised
//! `RMCK`/`RMSS` container bytes. The inner header is verified against
//! the object name at load, so a record renamed, cross-wired or
//! published under a stale name is caught even when its CRC is intact.
//! Objects are published atomically and never appended to; a newer
//! generation supersedes (never overwrites) its predecessors, which is
//! what makes fallback-to-previous-generation repair possible.

use crate::backend::StorageBackend;
use crate::frame::{encode_frame_parts, scan_frames, FrameDamage};
use crate::StoreError;

/// Frame kind used by checkpoint records.
pub const CHECKPOINT_FRAME_KIND: u16 = 0x434B; // "CK"

/// Inner header: job id (8) + generation (4).
const INNER_HEADER_LEN: usize = 12;

/// Why one checkpoint generation could not be loaded. Each variant maps
/// to a typed repair/corruption event during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointDamage {
    /// The backend could not produce the object at all.
    Store(StoreError),
    /// The frame failed structural or CRC validation.
    Frame(FrameDamage),
    /// The object did not contain exactly one checkpoint-kind frame.
    WrongShape {
        /// Frames found in the object.
        frames: usize,
        /// Kind of the first frame, if any.
        kind: Option<u16>,
    },
    /// The inner header disagrees with the object name — a stale or
    /// cross-wired record.
    IdentityMismatch {
        /// Job id stored in the record.
        stored_job: u64,
        /// Generation stored in the record.
        stored_generation: u32,
    },
}

impl CheckpointDamage {
    /// Stable lowercase label for reports and trace events.
    pub fn label(&self) -> &'static str {
        match self {
            CheckpointDamage::Store(_) => "store-error",
            CheckpointDamage::Frame(d) => d.label(),
            CheckpointDamage::WrongShape { .. } => "wrong-shape",
            CheckpointDamage::IdentityMismatch { .. } => "identity-mismatch",
        }
    }
}

impl std::fmt::Display for CheckpointDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointDamage::Store(e) => write!(f, "storage error: {e}"),
            CheckpointDamage::Frame(d) => write!(f, "{d}"),
            CheckpointDamage::WrongShape { frames, kind } => {
                write!(f, "expected one checkpoint frame, found {frames} (kind {kind:?})")
            }
            CheckpointDamage::IdentityMismatch {
                stored_job,
                stored_generation,
            } => write!(
                f,
                "record identifies as job {stored_job} generation {stored_generation}, name disagrees"
            ),
        }
    }
}

/// One damaged generation found while walking back for a loadable one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DamagedGeneration {
    /// The generation number that failed to load.
    pub generation: u32,
    /// Why it failed.
    pub damage: CheckpointDamage,
}

/// Result of [`CheckpointStore::load_latest`]: the newest loadable
/// generation (if any) and every damaged generation skipped on the way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatestLoad {
    /// `(generation, container bytes)` of the newest loadable record.
    pub loaded: Option<(u32, Vec<u8>)>,
    /// Generations that were present but unloadable, newest first.
    pub damaged: Vec<DamagedGeneration>,
}

/// Handle on the checkpoint records of one service instance, keyed by
/// `(job id, generation)` under a shared name prefix.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    prefix: String,
}

impl CheckpointStore {
    /// A store whose objects are named `<prefix>.j<job>.g<generation>`.
    pub fn new(prefix: impl Into<String>) -> CheckpointStore {
        CheckpointStore {
            prefix: prefix.into(),
        }
    }

    /// The object name for `(job, generation)`.
    pub fn object_name(&self, job: u64, generation: u32) -> String {
        format!("{}.j{job:016x}.g{generation:08x}", self.prefix)
    }

    fn job_prefix(&self, job: u64) -> String {
        format!("{}.j{job:016x}.g", self.prefix)
    }

    /// Atomically publishes `container` as `(job, generation)`. An
    /// existing record of the same identity is replaced (same-identity
    /// republish after a crash writes identical bytes, so this is
    /// idempotent); other generations are untouched.
    ///
    /// # Errors
    ///
    /// The backend's error.
    pub fn publish<B: StorageBackend + ?Sized>(
        &self,
        backend: &mut B,
        job: u64,
        generation: u32,
        container: &[u8],
    ) -> Result<(), StoreError> {
        self.publish_parts(backend, job, generation, &[container])
    }

    /// [`Self::publish`] of a container given as `parts` laid end to
    /// end. The record is built in one buffer, CRC included, and handed
    /// to the backend whole, so each part is copied exactly once.
    ///
    /// # Errors
    ///
    /// The backend's error.
    pub fn publish_parts<B: StorageBackend + ?Sized>(
        &self,
        backend: &mut B,
        job: u64,
        generation: u32,
        parts: &[&[u8]],
    ) -> Result<(), StoreError> {
        let mut header = [0u8; INNER_HEADER_LEN];
        header[..8].copy_from_slice(&job.to_le_bytes());
        header[8..].copy_from_slice(&generation.to_le_bytes());
        let payload: Vec<&[u8]> = std::iter::once(&header[..])
            .chain(parts.iter().copied())
            .collect();
        backend.publish_owned(
            &self.object_name(job, generation),
            encode_frame_parts(CHECKPOINT_FRAME_KIND, &payload),
        )
    }

    /// Generations present on storage for `job`, sorted ascending.
    /// Presence says nothing about validity — use [`Self::load`].
    ///
    /// # Errors
    ///
    /// The backend's list error.
    pub fn generations<B: StorageBackend + ?Sized>(
        &self,
        backend: &B,
        job: u64,
    ) -> Result<Vec<u32>, StoreError> {
        let prefix = self.job_prefix(job);
        let mut gens: Vec<u32> = backend
            .list(&prefix)?
            .into_iter()
            .filter_map(|name| u32::from_str_radix(name.strip_prefix(&prefix)?, 16).ok())
            .collect();
        gens.sort_unstable();
        gens.dedup();
        Ok(gens)
    }

    /// Loads and fully validates the record for `(job, generation)`,
    /// returning the container bytes.
    ///
    /// # Errors
    ///
    /// A typed [`CheckpointDamage`] explaining why the record is
    /// unusable.
    pub fn load<B: StorageBackend + ?Sized>(
        &self,
        backend: &B,
        job: u64,
        generation: u32,
    ) -> Result<Vec<u8>, CheckpointDamage> {
        let bytes = backend
            .read(&self.object_name(job, generation))
            .map_err(CheckpointDamage::Store)?;
        let scan = scan_frames(&bytes);
        if let Some(damage) = scan.damage {
            return Err(CheckpointDamage::Frame(damage));
        }
        if scan.frames.len() != 1 || scan.frames[0].kind != CHECKPOINT_FRAME_KIND {
            return Err(CheckpointDamage::WrongShape {
                frames: scan.frames.len(),
                kind: scan.frames.first().map(|f| f.kind),
            });
        }
        let payload = &scan.frames[0].payload;
        if payload.len() < INNER_HEADER_LEN {
            return Err(CheckpointDamage::WrongShape {
                frames: 1,
                kind: Some(CHECKPOINT_FRAME_KIND),
            });
        }
        let stored_job = u64::from_le_bytes([
            payload[0], payload[1], payload[2], payload[3], payload[4], payload[5], payload[6],
            payload[7],
        ]);
        let stored_generation =
            u32::from_le_bytes([payload[8], payload[9], payload[10], payload[11]]);
        if stored_job != job || stored_generation != generation {
            return Err(CheckpointDamage::IdentityMismatch {
                stored_job,
                stored_generation,
            });
        }
        Ok(payload[INNER_HEADER_LEN..].to_vec())
    }

    /// Walks generations of `job` from the newest down (optionally
    /// capped at `max_generation`), returning the first loadable record
    /// and the typed damage of every record skipped on the way — the
    /// corrupt-checkpoint fallback rule of the recovery path.
    ///
    /// # Errors
    ///
    /// The backend's list error; per-generation damage is data, not an
    /// error.
    pub fn load_latest<B: StorageBackend + ?Sized>(
        &self,
        backend: &B,
        job: u64,
        max_generation: Option<u32>,
    ) -> Result<LatestLoad, StoreError> {
        let mut damaged = Vec::new();
        let mut gens = self.generations(backend, job)?;
        if let Some(cap) = max_generation {
            gens.retain(|&g| g <= cap);
        }
        for &generation in gens.iter().rev() {
            match self.load(backend, job, generation) {
                Ok(container) => {
                    return Ok(LatestLoad {
                        loaded: Some((generation, container)),
                        damaged,
                    })
                }
                Err(damage) => damaged.push(DamagedGeneration { generation, damage }),
            }
        }
        Ok(LatestLoad {
            loaded: None,
            damaged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CrashPlan, MemBackend};

    fn store() -> CheckpointStore {
        CheckpointStore::new("svc.ckpt")
    }

    #[test]
    fn publish_load_round_trip_with_generations() {
        let mut b = MemBackend::new();
        let s = store();
        s.publish(&mut b, 5, 1, b"gen-one").unwrap();
        s.publish(&mut b, 5, 2, b"gen-two").unwrap();
        s.publish(&mut b, 9, 1, b"other-job").unwrap();
        assert_eq!(s.generations(&b, 5).unwrap(), vec![1, 2]);
        assert_eq!(s.load(&b, 5, 1).unwrap(), b"gen-one");
        assert_eq!(s.load(&b, 5, 2).unwrap(), b"gen-two");
        let latest = s.load_latest(&b, 5, None).unwrap();
        assert_eq!(latest.loaded, Some((2, b"gen-two".to_vec())));
        assert!(latest.damaged.is_empty());
        // The generation cap selects the older record.
        let capped = s.load_latest(&b, 5, Some(1)).unwrap();
        assert_eq!(capped.loaded, Some((1, b"gen-one".to_vec())));
    }

    #[test]
    fn parts_publish_like_their_concatenation() {
        let mut whole = MemBackend::new();
        let mut parts = MemBackend::new();
        let s = store();
        s.publish(&mut whole, 5, 3, b"meta+container").unwrap();
        s.publish_parts(&mut parts, 5, 3, &[b"meta", b"+", b"container"])
            .unwrap();
        let name = s.object_name(5, 3);
        assert_eq!(parts.object(&name), whole.object(&name));
        assert_eq!(s.load(&parts, 5, 3).unwrap(), b"meta+container");
    }

    #[test]
    fn missing_job_loads_as_none() {
        let b = MemBackend::new();
        let latest = store().load_latest(&b, 42, None).unwrap();
        assert_eq!(latest.loaded, None);
        assert!(latest.damaged.is_empty());
        assert!(matches!(
            store().load(&b, 42, 1),
            Err(CheckpointDamage::Store(StoreError::NotFound(_)))
        ));
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous_generation() {
        let mut b = MemBackend::new();
        let s = store();
        s.publish(&mut b, 7, 1, b"good-old").unwrap();
        s.publish(&mut b, 7, 2, b"good-new").unwrap();
        // Flip a payload bit in generation 2.
        let name = s.object_name(7, 2);
        let obj = b.object_mut(&name).unwrap();
        let at = obj.len() - 6;
        obj[at] ^= 0x10;
        let latest = s.load_latest(&b, 7, None).unwrap();
        assert_eq!(latest.loaded, Some((1, b"good-old".to_vec())));
        assert_eq!(latest.damaged.len(), 1);
        assert_eq!(latest.damaged[0].generation, 2);
        assert_eq!(latest.damaged[0].damage.label(), "checksum-mismatch");
    }

    #[test]
    fn identity_mismatch_is_detected() {
        let mut b = MemBackend::new();
        let s = store();
        s.publish(&mut b, 3, 1, b"payload").unwrap();
        // Copy job 3's record under job 4's name — CRC is intact.
        let stolen = b.read(&s.object_name(3, 1)).unwrap();
        b.publish(&s.object_name(4, 1), &stolen).unwrap();
        assert!(matches!(
            s.load(&b, 4, 1),
            Err(CheckpointDamage::IdentityMismatch {
                stored_job: 3,
                stored_generation: 1,
            })
        ));
    }

    #[test]
    fn crashed_publish_leaves_previous_generation_intact() {
        let mut b = MemBackend::new();
        let s = store();
        s.publish(&mut b, 1, 1, b"safe").unwrap();
        b.set_crash_plan(CrashPlan::new(b.writes_done(), 0));
        assert_eq!(s.publish(&mut b, 1, 2, b"lost"), Err(StoreError::Crashed));
        b.clear_crash();
        // Generation 2 never became visible; generation 1 is whole.
        assert_eq!(s.generations(&b, 1).unwrap(), vec![1]);
        let latest = s.load_latest(&b, 1, None).unwrap();
        assert_eq!(latest.loaded, Some((1, b"safe".to_vec())));
    }
}
