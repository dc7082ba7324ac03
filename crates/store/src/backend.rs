//! Pluggable storage: a tiny flat object namespace with append and
//! atomic publish.
//!
//! Two implementations ship: [`MemBackend`], a deterministic in-memory
//! map used by every test (it can simulate a host crash at an exact
//! write operation, including torn appends), and [`FileBackend`], the
//! ops-facing directory-backed store whose `publish` is the classic
//! write-temp → fsync → rename sequence.
//!
//! The namespace is flat and names are restricted to
//! `[A-Za-z0-9._-]`, so an object name is always a safe file name. The
//! `tmp.` prefix is reserved for in-flight publishes.

use crate::StoreError;
use std::collections::BTreeMap;

/// Checks that `name` is usable as an object name: non-empty, ASCII
/// `[A-Za-z0-9._-]` only, not `.`/`..`, and not in the reserved `tmp.`
/// namespace used by in-flight publishes.
///
/// # Errors
///
/// [`StoreError::InvalidName`] describing the offending property.
fn validate_name(name: &str) -> Result<(), StoreError> {
    if name.is_empty() {
        return Err(StoreError::InvalidName("empty object name".to_string()));
    }
    if name == "." || name == ".." {
        return Err(StoreError::InvalidName(format!(
            "object name {name:?} is a directory reference"
        )));
    }
    if name.starts_with("tmp.") {
        return Err(StoreError::InvalidName(format!(
            "object name {name:?} uses the reserved tmp. prefix"
        )));
    }
    if let Some(bad) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(StoreError::InvalidName(format!(
            "object name {name:?} contains {bad:?}; allowed: [A-Za-z0-9._-]"
        )));
    }
    Ok(())
}

/// A flat object store with the three write primitives durability needs.
///
/// * `append` — extend an object (creating it empty first); the journal
///   uses this, and a crash may tear the tail of the last append.
/// * `publish` — replace an object atomically: after a crash the old
///   bytes or the new bytes are visible, never a mixture. Checkpoint
///   records and journal repairs use this.
/// * `remove` — delete an object (idempotent).
///
/// Reads never mutate, so recovery can scan a crashed store freely.
pub trait StorageBackend {
    /// Reads the full contents of `name`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the object does not exist, or the
    /// backend's I/O error.
    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError>;

    /// Lists object names starting with `prefix`, sorted ascending.
    ///
    /// # Errors
    ///
    /// The backend's I/O error (an empty store lists as `Ok(vec![])`).
    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError>;

    /// Appends `bytes` to `name`, creating it if absent. A crash during
    /// an append may leave a torn tail (a strict prefix of `bytes`).
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidName`], [`StoreError::Crashed`] (simulated
    /// backends), or the backend's I/O error.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Atomically replaces `name` with `bytes`: a crash leaves either
    /// the previous contents or the new contents, never a mixture.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidName`], [`StoreError::Crashed`] (simulated
    /// backends), or the backend's I/O error.
    fn publish(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// [`Self::publish`] of a buffer the caller no longer needs: a
    /// backend that keeps objects in memory stores it without a copy.
    ///
    /// # Errors
    ///
    /// As [`Self::publish`].
    fn publish_owned(&mut self, name: &str, bytes: Vec<u8>) -> Result<(), StoreError> {
        self.publish(name, &bytes)
    }

    /// Removes `name` if present (missing objects are not an error, so
    /// crash-replayed removes are idempotent).
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidName`], [`StoreError::Crashed`] (simulated
    /// backends), or the backend's I/O error.
    fn remove(&mut self, name: &str) -> Result<(), StoreError>;
}

/// A simulated host crash: the backend dies at an exact write
/// operation, deterministically.
///
/// Write operations are numbered from 0 in call order across the
/// backend's lifetime; the crash fires when operation number
/// `after_writes` is attempted. An `append` that crashes keeps the
/// first `torn_bytes` bytes of its payload (a torn write); `publish`
/// and `remove` crash with no visible effect (they are atomic). Every
/// later write returns [`StoreError::Crashed`] until
/// [`MemBackend::clear_crash`] — reads keep working, which is exactly
/// the state a recovery pass sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Index (0-based, in call order) of the write operation that dies.
    pub after_writes: u64,
    /// Bytes of the dying append that survive on disk.
    pub torn_bytes: usize,
}

impl CrashPlan {
    /// A crash at write operation `after_writes` that tears an append
    /// down to `torn_bytes` surviving bytes.
    pub fn new(after_writes: u64, torn_bytes: usize) -> CrashPlan {
        CrashPlan {
            after_writes,
            torn_bytes,
        }
    }
}

/// Deterministic in-memory [`StorageBackend`] for tests and the
/// storage-fault harness.
///
/// Behaves like an ideal disk until a [`CrashPlan`] fires; after the
/// crash it is read-only (writes return [`StoreError::Crashed`]) so a
/// recovery pass can inspect exactly what survived.
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    objects: BTreeMap<String, Vec<u8>>,
    crash: Option<CrashPlan>,
    crashed: bool,
    writes_done: u64,
}

impl MemBackend {
    /// An empty store with no crash scheduled.
    pub fn new() -> MemBackend {
        MemBackend::default()
    }

    /// Schedules a crash (replacing any earlier plan).
    pub fn set_crash_plan(&mut self, plan: CrashPlan) {
        self.crash = Some(plan);
    }

    /// Clears the crashed state and any pending plan, as if the host
    /// rebooted against the surviving bytes. Objects are untouched.
    pub fn clear_crash(&mut self) {
        self.crash = None;
        self.crashed = false;
    }

    /// Write operations completed so far (crashed ones excluded). Run a
    /// scenario once without a plan, read this, and you know every
    /// crash point worth iterating.
    pub fn writes_done(&self) -> u64 {
        self.writes_done
    }

    /// Read-only view of an object's bytes (test/fault-injection hook).
    pub fn object(&self, name: &str) -> Option<&[u8]> {
        self.objects.get(name).map(Vec::as_slice)
    }

    /// Mutable view of an object's bytes, for fault injection. Bypasses
    /// the crash machinery on purpose: corruption is not a write.
    pub fn object_mut(&mut self, name: &str) -> Option<&mut Vec<u8>> {
        self.objects.get_mut(name)
    }

    /// Names of all stored objects, sorted (test/fault-injection hook).
    pub fn object_names(&self) -> Vec<String> {
        self.objects.keys().cloned().collect()
    }

    /// Drops an object directly, bypassing the crash machinery: models
    /// lost storage rather than an issued write. Returns whether the
    /// object existed.
    pub fn clear_object(&mut self, name: &str) -> bool {
        self.objects.remove(name).is_some()
    }

    /// Returns `Err(Crashed)` if this write op must fail, firing the
    /// plan if its operation number came up. `torn` receives the
    /// surviving byte count when the dying op is an append.
    fn gate_write(&mut self) -> Result<(), Option<usize>> {
        if self.crashed {
            return Err(None);
        }
        if let Some(plan) = self.crash {
            if self.writes_done == plan.after_writes {
                self.crashed = true;
                return Err(Some(plan.torn_bytes));
            }
        }
        Ok(())
    }
}

impl StorageBackend for MemBackend {
    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        validate_name(name)?;
        self.objects
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::NotFound(name.to_string()))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        Ok(self
            .objects
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        validate_name(name)?;
        match self.gate_write() {
            Ok(()) => {
                self.objects
                    .entry(name.to_string())
                    .or_default()
                    .extend_from_slice(bytes);
                self.writes_done += 1;
                Ok(())
            }
            Err(torn) => {
                if let Some(keep) = torn {
                    let keep = keep.min(bytes.len());
                    self.objects
                        .entry(name.to_string())
                        .or_default()
                        .extend_from_slice(&bytes[..keep]);
                }
                Err(StoreError::Crashed)
            }
        }
    }

    fn publish(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.publish_owned(name, bytes.to_vec())
    }

    fn publish_owned(&mut self, name: &str, bytes: Vec<u8>) -> Result<(), StoreError> {
        validate_name(name)?;
        match self.gate_write() {
            Ok(()) => {
                self.objects.insert(name.to_string(), bytes);
                self.writes_done += 1;
                Ok(())
            }
            // Publish is atomic: a crash leaves the old bytes in place.
            Err(_) => Err(StoreError::Crashed),
        }
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        validate_name(name)?;
        match self.gate_write() {
            Ok(()) => {
                // modelcheck-allow: RM-ERR-001 -- name collision: BTreeMap::
                // remove returns the evicted value (removal of an absent name
                // is deliberately a no-op), not the backend's own Result.
                self.objects.remove(name);
                self.writes_done += 1;
                Ok(())
            }
            Err(_) => Err(StoreError::Crashed),
        }
    }
}

/// Directory-backed [`StorageBackend`] for real deployments: one file
/// per object under a root directory.
///
/// `publish` writes `tmp.<name>`, fsyncs it, renames it over `<name>`
/// and fsyncs the directory, so a torn publish is never visible.
/// `append` fsyncs after each write. `list` hides `tmp.` leftovers from
/// interrupted publishes; they are garbage-collected by the next
/// publish of the same name.
#[derive(Debug)]
pub struct FileBackend {
    root: std::path::PathBuf,
}

impl FileBackend {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be created.
    pub fn open(root: impl Into<std::path::PathBuf>) -> Result<FileBackend, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| StoreError::Io {
            name: root.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(FileBackend { root })
    }

    fn io_err(name: &str, e: std::io::Error) -> StoreError {
        StoreError::Io {
            name: name.to_string(),
            message: e.to_string(),
        }
    }

    /// Fsyncs the root directory so renames/creates are durable.
    fn sync_root(&self) -> Result<(), StoreError> {
        let dir = std::fs::File::open(&self.root)
            .map_err(|e| Self::io_err(&self.root.display().to_string(), e))?;
        dir.sync_all()
            .map_err(|e| Self::io_err(&self.root.display().to_string(), e))
    }
}

impl StorageBackend for FileBackend {
    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        validate_name(name)?;
        let path = self.root.join(name);
        match std::fs::read(&path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::NotFound(name.to_string()))
            }
            Err(e) => Err(Self::io_err(name, e)),
        }
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| Self::io_err(&self.root.display().to_string(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| Self::io_err(&self.root.display().to_string(), e))?;
            if let Some(name) = entry.file_name().to_str() {
                if validate_name(name).is_ok() && name.starts_with(prefix) {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        use std::io::Write;
        validate_name(name)?;
        let path = self.root.join(name);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| Self::io_err(name, e))?;
        file.write_all(bytes).map_err(|e| Self::io_err(name, e))?;
        file.sync_data().map_err(|e| Self::io_err(name, e))
    }

    fn publish(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        validate_name(name)?;
        let tmp = self.root.join(format!("tmp.{name}"));
        let fin = self.root.join(name);
        std::fs::write(&tmp, bytes).map_err(|e| Self::io_err(name, e))?;
        let file = std::fs::File::open(&tmp).map_err(|e| Self::io_err(name, e))?;
        file.sync_all().map_err(|e| Self::io_err(name, e))?;
        std::fs::rename(&tmp, &fin).map_err(|e| Self::io_err(name, e))?;
        self.sync_root()
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        validate_name(name)?;
        match std::fs::remove_file(self.root.join(name)) {
            Ok(()) => self.sync_root(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Self::io_err(name, e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation_rejects_traversal_and_reserved_prefix() {
        assert!(validate_name("journal-main").is_ok());
        assert!(validate_name("ckpt.0001.g2").is_ok());
        for bad in ["", ".", "..", "a/b", "tmp.x", "a b", "\u{e9}"] {
            assert!(
                matches!(validate_name(bad), Err(StoreError::InvalidName(_))),
                "{bad:?} accepted"
            );
        }
    }

    #[test]
    fn mem_backend_round_trips_and_lists_sorted() {
        let mut b = MemBackend::new();
        b.append("j", b"ab").unwrap();
        b.append("j", b"cd").unwrap();
        b.publish("c2", b"two").unwrap();
        b.publish("c1", b"one").unwrap();
        assert_eq!(b.read("j").unwrap(), b"abcd");
        assert_eq!(b.list("c").unwrap(), vec!["c1", "c2"]);
        assert_eq!(b.writes_done(), 4);
        assert!(matches!(b.read("nope"), Err(StoreError::NotFound(_))));
        b.remove("c1").unwrap();
        assert_eq!(b.list("c").unwrap(), vec!["c2"]);
        b.remove("c1").unwrap(); // idempotent
    }

    #[test]
    fn crash_plan_tears_append_and_keeps_publish_atomic() {
        let mut b = MemBackend::new();
        b.publish("obj", b"old").unwrap(); // write 0
        b.set_crash_plan(CrashPlan::new(2, 3));
        b.append("log", b"first").unwrap(); // write 1
        assert_eq!(b.append("log", b"second"), Err(StoreError::Crashed));
        assert!(b.crashed);
        // Torn tail: 3 bytes of the dying append survive.
        assert_eq!(b.read("log").unwrap(), b"firstsec");
        // Every later write fails, reads keep working.
        assert_eq!(b.publish("obj", b"new"), Err(StoreError::Crashed));
        assert_eq!(b.read("obj").unwrap(), b"old");
        b.clear_crash();
        b.publish("obj", b"new").unwrap();
        assert_eq!(b.read("obj").unwrap(), b"new");
    }

    #[test]
    fn crash_during_publish_leaves_previous_bytes() {
        let mut b = MemBackend::new();
        b.publish("c", b"gen1").unwrap();
        b.set_crash_plan(CrashPlan::new(1, 0));
        assert_eq!(b.publish("c", b"gen2"), Err(StoreError::Crashed));
        assert_eq!(b.read("c").unwrap(), b"gen1");
    }

    // Miri isolates the interpreted program from the real filesystem, so
    // everything FileBackend does (create_dir_all, fsync, rename) would
    // abort the interpreter; the in-memory backend carries the Miri
    // coverage for this module.
    #[cfg_attr(miri, ignore = "FileBackend needs a real filesystem")]
    #[test]
    fn file_backend_round_trips_and_hides_tmp_files() {
        let dir = std::env::temp_dir().join(format!(
            "redmule-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut b = FileBackend::open(&dir).unwrap();
        b.append("journal", b"rec1").unwrap();
        b.append("journal", b"rec2").unwrap();
        b.publish("ckpt", b"payload").unwrap();
        // Simulate an interrupted publish leaving a temp file behind.
        std::fs::write(dir.join("tmp.ckpt"), b"torn").unwrap();
        assert_eq!(b.read("journal").unwrap(), b"rec1rec2");
        assert_eq!(b.read("ckpt").unwrap(), b"payload");
        assert_eq!(b.list("").unwrap(), vec!["ckpt", "journal"]);
        b.publish("ckpt", b"payload2").unwrap();
        assert_eq!(b.read("ckpt").unwrap(), b"payload2");
        b.remove("journal").unwrap();
        assert!(matches!(b.read("journal"), Err(StoreError::NotFound(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
