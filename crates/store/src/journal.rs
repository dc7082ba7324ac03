//! The write-ahead journal: an append-only stream of frames in one
//! object.
//!
//! Appends are ordered and durable-in-order, so after any crash the
//! object holds a *prefix* of the appended frames, possibly with a torn
//! frame at the end. [`Journal::scan`] decodes the valid prefix and
//! reports the damage; [`Journal::repair`] truncates the torn tail with
//! an atomic publish, restoring the clean-prefix invariant on storage.

use crate::backend::StorageBackend;
use crate::frame::{encode_frame, scan_frames, FrameDamage};
use crate::StoreError;

/// Handle on one journal object (the handle itself is stateless — all
/// state lives in the backend).
#[derive(Debug, Clone)]
pub struct Journal {
    name: String,
}

/// The decoded state of a journal after a scan: the valid record
/// prefix plus any trailing damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalScan {
    /// Valid records in append order, as `(kind, payload)`.
    pub records: Vec<(u16, Vec<u8>)>,
    /// Byte length of the valid prefix.
    pub valid_len: usize,
    /// Total byte length of the journal object on storage.
    pub total_len: usize,
    /// First damage found after the valid prefix, if any.
    pub damage: Option<FrameDamage>,
}

impl JournalScan {
    /// Whether the journal needs a tail truncation to be clean.
    fn is_torn(&self) -> bool {
        self.damage.is_some()
    }

    /// Bytes past the valid prefix that a repair would drop.
    pub fn torn_bytes(&self) -> usize {
        self.total_len - self.valid_len
    }
}

impl Journal {
    /// A handle on the journal object called `name`.
    pub fn new(name: impl Into<String>) -> Journal {
        Journal { name: name.into() }
    }

    /// The backing object name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends one record. The frame (header, payload, CRC) is written
    /// with a single backend append, so a crash tears at most this one
    /// record and [`Journal::scan`] will cut it.
    ///
    /// # Errors
    ///
    /// The backend's error ([`StoreError::Crashed`] on a simulated
    /// crash).
    pub fn append<B: StorageBackend + ?Sized>(
        &self,
        backend: &mut B,
        kind: u16,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        backend.append(&self.name, &encode_frame(kind, payload))
    }

    /// Reads and decodes the journal. A missing object is an empty
    /// journal, not an error — a service that never ran has no journal.
    ///
    /// # Errors
    ///
    /// The backend's read error (damage is reported in the scan, not as
    /// an error).
    pub fn scan<B: StorageBackend + ?Sized>(&self, backend: &B) -> Result<JournalScan, StoreError> {
        let bytes = match backend.read(&self.name) {
            Ok(b) => b,
            Err(StoreError::NotFound(_)) => Vec::new(),
            Err(e) => return Err(e),
        };
        let out = scan_frames(&bytes);
        Ok(JournalScan {
            records: out
                .frames
                .into_iter()
                .map(|f| (f.kind, f.payload))
                .collect(),
            valid_len: out.valid_len,
            total_len: bytes.len(),
            damage: out.damage,
        })
    }

    /// Truncates the journal to `scan.valid_len` bytes via an atomic
    /// publish, dropping a torn tail. No-op on a clean journal.
    ///
    /// # Errors
    ///
    /// The backend's error.
    ///
    /// Returns the number of bytes dropped.
    pub fn repair<B: StorageBackend + ?Sized>(
        &self,
        backend: &mut B,
        scan: &JournalScan,
    ) -> Result<usize, StoreError> {
        if !scan.is_torn() && scan.valid_len == scan.total_len {
            return Ok(0);
        }
        let bytes = match backend.read(&self.name) {
            Ok(b) => b,
            Err(StoreError::NotFound(_)) => Vec::new(),
            Err(e) => return Err(e),
        };
        let keep = scan.valid_len.min(bytes.len());
        backend.publish(&self.name, &bytes[..keep])?;
        Ok(bytes.len() - keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CrashPlan, MemBackend};

    #[test]
    fn append_scan_round_trip() {
        let mut b = MemBackend::new();
        let j = Journal::new("wal");
        j.append(&mut b, 7, b"one").unwrap();
        j.append(&mut b, 8, b"two").unwrap();
        let scan = j.scan(&b).unwrap();
        assert!(!scan.is_torn());
        assert_eq!(
            scan.records,
            vec![(7, b"one".to_vec()), (8, b"two".to_vec())]
        );
    }

    #[test]
    fn missing_journal_is_empty() {
        let b = MemBackend::new();
        let scan = Journal::new("wal").scan(&b).unwrap();
        assert_eq!(scan.records, vec![]);
        assert_eq!(scan.total_len, 0);
        assert!(!scan.is_torn());
    }

    #[test]
    fn torn_tail_is_cut_by_repair_at_every_tear_point() {
        // A crash can tear the last append at any byte; after repair the
        // journal must hold exactly the records appended before it.
        let payloads: [&[u8]; 3] = [b"alpha", b"bravo-long-payload", b""];
        let full_len = {
            let mut b = MemBackend::new();
            let j = Journal::new("wal");
            for (i, p) in payloads.iter().enumerate() {
                j.append(&mut b, i as u16, p).unwrap();
            }
            b.read("wal").unwrap().len()
        };
        for torn in 0..full_len {
            let mut b = MemBackend::new();
            let j = Journal::new("wal");
            // Find which append the tear lands in by replaying with a
            // crash plan that tears append #k down to the right length.
            let mut written = 0usize;
            let mut crashed_at = None;
            for (i, p) in payloads.iter().enumerate() {
                let frame_len = crate::frame::encode_frame(i as u16, p).len();
                if crashed_at.is_none() && torn < written + frame_len {
                    b.set_crash_plan(CrashPlan::new(b.writes_done(), torn - written));
                    assert_eq!(j.append(&mut b, i as u16, p), Err(StoreError::Crashed));
                    crashed_at = Some(i);
                    break;
                }
                j.append(&mut b, i as u16, p).unwrap();
                written += frame_len;
            }
            let complete = crashed_at.unwrap_or(payloads.len());
            b.clear_crash();
            let scan = j.scan(&b).unwrap();
            assert_eq!(scan.records.len(), complete, "tear at byte {torn}");
            let dropped = j.repair(&mut b, &scan).unwrap();
            assert_eq!(dropped, torn - written, "tear at byte {torn}");
            let rescan = j.scan(&b).unwrap();
            assert!(!rescan.is_torn());
            assert_eq!(rescan.records.len(), complete);
            // Repair is idempotent.
            assert_eq!(j.repair(&mut b, &rescan).unwrap(), 0);
        }
    }

    #[test]
    fn journal_survives_and_resumes_after_repair() {
        let mut b = MemBackend::new();
        let j = Journal::new("wal");
        j.append(&mut b, 1, b"kept").unwrap();
        // Torn second record.
        b.set_crash_plan(CrashPlan::new(b.writes_done(), 5));
        assert_eq!(j.append(&mut b, 2, b"torn"), Err(StoreError::Crashed));
        b.clear_crash();
        let scan = j.scan(&b).unwrap();
        assert!(scan.is_torn());
        j.repair(&mut b, &scan).unwrap();
        // Appends continue cleanly after the repair.
        j.append(&mut b, 3, b"after").unwrap();
        let scan = j.scan(&b).unwrap();
        assert_eq!(
            scan.records,
            vec![(1, b"kept".to_vec()), (3, b"after".to_vec())]
        );
    }
}
