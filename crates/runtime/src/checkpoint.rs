//! Whole-run checkpoints: engine session + TCDM contents + HCI state.
//!
//! The engine's own [`SessionState`] captures the accelerator; a job's
//! observable behaviour additionally depends on the TCDM words it still
//! has to read/write and on the interconnect arbiter cursors (grant
//! rotation, armed transaction drops). [`Checkpoint`] bundles all three so
//! a run restored on a fresh cluster is bit-identical to one that never
//! stopped.

use redmule::decode::{
    decode_container, encode_container, take_byte_section, ContainerSpec, DecodeError,
};
use redmule::{Engine, EngineError, EngineSession, SessionState};
use redmule_cluster::{Hci, Tcdm, TcdmImage};
use redmule_hwsim::snapshot::{Snapshot, SnapshotError, StateReader, StateWriter};

/// Version of the checkpoint container format.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Envelope description of the `RMCK` checkpoint container, for the
/// envelope writer and the typed decoder.
const CHECKPOINT_CONTAINER: ContainerSpec = ContainerSpec {
    name: "checkpoint",
    magic: *b"RMCK",
    version: CHECKPOINT_VERSION,
};

/// A resumable snapshot of one supervised job: the engine session at a
/// tile boundary plus the TCDM and HCI state it was running against.
///
/// In memory the TCDM is held as a [`TcdmImage`], the words up to the
/// last nonzero one, so capturing and restoring cost what the job
/// touched rather than the whole scratchpad.
///
/// Serialises to a self-describing byte container (`"RMCK"` magic,
/// format version, three length-prefixed sections, FNV-1a-64 checksum)
/// via [`Checkpoint::to_bytes`] / [`Checkpoint::from_bytes`]. The TCDM
/// section holds the whole scratchpad, zero tail included.
// modelcheck: snapshot(save = capture, load = restore)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    session: SessionState,
    tcdm: TcdmImage,
    hci: Vec<u8>,
}

impl Checkpoint {
    /// Captures a checkpoint of `session` and the cluster state it runs
    /// against. Only legal at a tile boundary (see
    /// [`EngineSession::checkpoint`]). The session is borrowed mutably
    /// only so the capture shows up as a `Checkpoint` trace event when
    /// the session is recording events; its simulation state is untouched.
    ///
    /// # Errors
    ///
    /// [`EngineError::Snapshot`] when the session cannot be serialised
    /// (mid-tile).
    pub fn capture(
        session: &mut EngineSession,
        mem: &Tcdm,
        hci: &Hci,
    ) -> Result<Checkpoint, EngineError> {
        let state = session.checkpoint()?;
        let mut w = StateWriter::new();
        hci.save_state(&mut w);
        Ok(Checkpoint {
            session: state,
            tcdm: mem.image(),
            hci: w.finish(),
        })
    }

    /// Restores the cluster state into `mem`/`hci` (which must have the
    /// same configuration as at capture time) and rebuilds the running
    /// session on `engine`. Every TCDM word past the captured image is
    /// zeroed, whatever `mem` held before.
    ///
    /// # Errors
    ///
    /// [`EngineError::Snapshot`] when the checkpoint does not match the
    /// cluster configuration or the engine's parameters/policy.
    pub fn restore(
        &self,
        engine: &Engine,
        mem: &mut Tcdm,
        hci: &mut Hci,
    ) -> Result<EngineSession, EngineError> {
        mem.load_image(&self.tcdm)?;
        let mut r = StateReader::new(&self.hci);
        hci.restore_state(&mut r)?;
        r.expect_end()?;
        engine.resume(&self.session)
    }

    /// The engine-session part of the checkpoint.
    pub fn session(&self) -> &SessionState {
        &self.session
    }

    /// Serialises the checkpoint into a self-describing byte container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let session = self.session.to_bytes();
        let tcdm_len = self.tcdm.encoded_len();
        let mut payload =
            StateWriter::with_capacity(3 * 8 + session.len() + tcdm_len + self.hci.len());
        payload.put_u8s(&session);
        payload.put(&tcdm_len);
        self.tcdm.encode(&mut payload);
        payload.put_u8s(&self.hci);
        encode_container(CHECKPOINT_CONTAINER, &payload.finish())
    }

    /// Parses a container produced by [`Checkpoint::to_bytes`], verifying
    /// magic, version and checksum.
    ///
    /// # Errors
    ///
    /// A typed [`DecodeError`] on structural damage: wrong magic,
    /// unsupported version, truncation, trailing bytes or checksum
    /// mismatch, with damage inside the session or TCDM section reported
    /// as a [`DecodeError::Section`]. Never panics, whatever the input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, DecodeError> {
        let payload = decode_container(CHECKPOINT_CONTAINER, bytes)?;
        let mut pos = 0;
        let session_bytes = take_byte_section(NAME, &payload, &mut pos)?;
        let session =
            SessionState::from_bytes(session_bytes).map_err(|e| section_damage("session", e))?;
        let tcdm = decode_tcdm(take_byte_section(NAME, &payload, &mut pos)?)
            .map_err(|e| section_damage("tcdm", e))?;
        let hci = take_byte_section(NAME, &payload, &mut pos)?.to_vec();
        if pos != payload.len() {
            return Err(DecodeError::TrailingBytes {
                container: NAME,
                extra: payload.len() - pos,
            });
        }
        Ok(Checkpoint { session, tcdm, hci })
    }
}

/// The container name in [`DecodeError`]s.
const NAME: &str = CHECKPOINT_CONTAINER.name;

fn section_damage(section: &'static str, cause: DecodeError) -> DecodeError {
    DecodeError::Section {
        container: NAME,
        section,
        cause: Box::new(cause),
    }
}

/// Parses the TCDM section, which must hold exactly one image.
fn decode_tcdm(section: &[u8]) -> Result<TcdmImage, DecodeError> {
    const TCDM: &str = "tcdm";
    let mut r = StateReader::new(section);
    let image = TcdmImage::decode(&mut r).map_err(|e| match e {
        SnapshotError::Truncated => DecodeError::Truncated { container: TCDM },
        SnapshotError::Corrupt(what) => DecodeError::Corrupt {
            container: TCDM,
            what,
        },
        other => DecodeError::Corrupt {
            container: TCDM,
            what: other.to_string(),
        },
    })?;
    match r.remaining() {
        0 => Ok(image),
        extra => Err(DecodeError::TrailingBytes {
            container: TCDM,
            extra,
        }),
    }
}
