//! `modelcheck` — workspace static analyzer for model hygiene.
//!
//! The RedMulE reproduction's claims (cycle counts matching the paper's
//! `H×(P+1)` schedule, IEEE binary16 bit-exactness, bit-identical
//! checkpoint/resume) are *structural* properties of the model crates.
//! This tool enforces the hygiene invariants that keep them structural:
//!
//! * **RM-DET-001 / RM-DET-002** — determinism: no hash containers, no
//!   wall clocks, no OS entropy in model-state crates (host-side
//!   orchestration crates keep RM-DET-001 but may use wall clocks);
//! * **RM-FP-001** — bit-exactness: no native `f32`/`f64` outside
//!   annotated reference/telemetry paths in `fp16` and `redmule`;
//! * **RM-SNAP-001** — snapshot completeness: every field of a
//!   serialized state struct is covered by its save/load pair;
//! * **RM-PANIC-001** — no panicking calls in model code (extends the
//!   clippy `unwrap_used` deny with the panic macros);
//! * **RM-LOCK-001** — no lock acquisition-order cycles: the per-crate
//!   "acquired while holding" graph must be acyclic (deadlock freedom);
//! * **RM-RACE-001** — no interleaving-ordered data (appends under a
//!   lock, channel drains) reaching canonical outputs without a
//!   deterministic reorder;
//! * **RM-ERR-001** — no discarded `Result`s from workspace functions
//!   (`let _ = ...;`, bare-semicolon calls);
//! * **RM-ARITH-001** — no bare `+` / `*` / `+=` on cycle-denominated
//!   counters (cycle totals, credits, latencies, deadlines, budgets);
//! * **RM-DEAD-001** — no `pub fn` that no other workspace `.rs` file
//!   names outside `#[cfg(test)]` items;
//! * **RM-ALLOW-001 / RM-ALLOW-002** — allowlist hygiene: every
//!   suppression is justified and still needed.
//!
//! Run it as `cargo run -p modelcheck` from the workspace root (wired
//! into `make verify` and CI); pass `--json` for machine-readable
//! output. The analyzer is dependency-free — the build image has no
//! crates.io access, so instead of `syn` it uses its own minimal Rust
//! lexer ([`lexer`]) plus a lightweight flow structurizer ([`flow`]);
//! rules match real tokens and recovered block/statement shape, never
//! text inside strings or comments.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod arith;
pub mod dead;
pub mod errs;
pub mod flow;
pub mod lexer;
pub mod locks;
pub mod race;
pub mod rules;
pub mod scope;
pub mod snapshot;

use std::path::{Path, PathBuf};

pub use rules::{
    check_crate, check_file, crate_is_checked, Diagnostic, WorkspaceContext, FP_STRICT_CRATES,
    HOST_CRATES, MODEL_CRATES,
};

/// Result of a workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by `(file, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// `true` when the scan found no violations.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Machine-readable rendering of the report (the `--json` CLI mode,
    /// uploaded as a CI artifact). Hand-rolled — the analyzer is
    /// dependency-free — with diagnostics in the same deterministic
    /// `(file, line, rule)` order as the text output.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"tool\": \"modelcheck\",\n  \"version\": 2,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_string(d.rule),
                json_string(&d.file),
                d.line,
                json_string(&d.message),
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Scans the `src/` of every checked crate under `<root>/crates`; test-only
/// trees (`tests/`, `benches/`, `examples/`), unchecked crates and the root
/// package are read only as RM-DEAD-001 callers — in-file `#[cfg(test)]`
/// items are stripped by the rules themselves.
///
/// The scan is two-pass: pass one reads every `.rs` file of the
/// workspace and builds the [`WorkspaceContext`] (the `Result`-returning
/// callee set RM-ERR-001 resolves against, and the caller index
/// RM-DEAD-001 looks names up in); pass two runs the rules crate by
/// crate, so crate-wide rules (RM-LOCK-001's acquisition-order graph) see
/// every file of a crate at once.
///
/// # Errors
///
/// Returns an error when the workspace layout cannot be read (missing
/// `crates/` directory, unreadable file).
pub fn check_workspace(root: &Path) -> Result<Report, String> {
    let crates_dir = root.join("crates");
    let mut crate_names: Vec<String> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.path().is_dir())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .collect();
    crate_names.sort();

    // Pass 1: load sources, build the workspace context. Every crate and
    // the root package are callers; only checked crates' `src/` is judged.
    let mut ctx = WorkspaceContext::default();
    let mut loaded: Vec<(String, Vec<rules::SourceFile>)> = Vec::new();
    let read = |file: &Path| -> Result<(String, String), String> {
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let label = file
            .strip_prefix(root)
            .unwrap_or(file)
            .display()
            .to_string();
        Ok((label, src))
    };
    for name in crate_names {
        let crate_dir = crates_dir.join(&name);
        let src_dir = crate_dir.join("src");
        let checked = crate_is_checked(&name);
        let mut files: Vec<rules::SourceFile> = Vec::new();
        for file in rust_files(&crate_dir)? {
            let (label, src) = read(&file)?;
            ctx.add_callers(&label, &src);
            if checked && file.starts_with(&src_dir) {
                ctx.add_source(&src);
                files.push((label, src));
            }
        }
        if checked {
            loaded.push((name, files));
        }
    }
    for dir in ["src", "tests", "examples"].map(|d| root.join(d)) {
        if dir.is_dir() {
            for file in rust_files(&dir)? {
                let (label, src) = read(&file)?;
                ctx.add_callers(&label, &src);
            }
        }
    }

    // Pass 2: run the rules crate by crate.
    let mut report = Report::default();
    for (name, files) in &loaded {
        report
            .diagnostics
            .extend(rules::check_crate(name, files, &ctx));
        report.files_scanned += files.len();
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// All `.rs` files under `dir`, recursively, in deterministic order.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&d)
            .map_err(|e| format!("cannot read {}: {e}", d.display()))?
            .filter_map(|entry| entry.ok())
            .map(|entry| entry.path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}
