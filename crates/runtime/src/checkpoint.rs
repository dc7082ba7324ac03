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
use redmule_cluster::{Hci, Tcdm};
use redmule_hwsim::snapshot::{Snapshot, StateReader, StateWriter};

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
/// Serialises to a self-describing byte container (`"RMCK"` magic,
/// format version, three length-prefixed sections, FNV-1a-64 checksum)
/// via [`Checkpoint::to_bytes`] / [`Checkpoint::from_bytes`].
// modelcheck: snapshot(save = capture, load = restore)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    session: SessionState,
    tcdm: Vec<u8>,
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
        mem.save_state(&mut w);
        let tcdm = w.finish();
        let mut w = StateWriter::new();
        hci.save_state(&mut w);
        let hci = w.finish();
        Ok(Checkpoint {
            session: state,
            tcdm,
            hci,
        })
    }

    /// Restores the cluster state into `mem`/`hci` (which must have the
    /// same configuration as at capture time) and rebuilds the running
    /// session on `engine`.
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
        let mut r = StateReader::new(&self.tcdm);
        mem.restore_state(&mut r)?;
        r.expect_end()?;
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
        let mut payload = StateWriter::new();
        payload.put_u8s(&self.session.to_bytes());
        payload.put_u8s(&self.tcdm);
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
    /// mismatch, with nested session damage reported as a
    /// [`DecodeError::Section`]. Never panics, whatever the input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, DecodeError> {
        const NAME: &str = "checkpoint";
        let payload = decode_container(CHECKPOINT_CONTAINER, bytes)?;
        let mut pos = 0;
        let session_bytes = take_byte_section(NAME, &payload, &mut pos)?;
        let session =
            SessionState::from_bytes(&session_bytes).map_err(|e| DecodeError::Section {
                container: NAME,
                section: "session",
                cause: Box::new(e),
            })?;
        let tcdm = take_byte_section(NAME, &payload, &mut pos)?;
        let hci = take_byte_section(NAME, &payload, &mut pos)?;
        if pos != payload.len() {
            return Err(DecodeError::TrailingBytes {
                container: NAME,
                extra: payload.len() - pos,
            });
        }
        Ok(Checkpoint { session, tcdm, hci })
    }
}
