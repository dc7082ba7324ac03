//! A throwaway workspace for whole-scan tests, shared by the ordering
//! and RM-DEAD-001 suites.

use std::fs;
use std::path::PathBuf;

/// A throwaway workspace under the OS temp dir, removed on drop.
pub struct TempWorkspace {
    pub root: PathBuf,
}

impl TempWorkspace {
    pub fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("modelcheck-ws-{}-{tag}", std::process::id()));
        // A clean slate even if a previous run died mid-test.
        let _ = fs::remove_dir_all(&root);
        Self { root }
    }

    pub fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).expect("create fixture dirs");
        }
        fs::write(&path, contents).expect("write fixture file");
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}
