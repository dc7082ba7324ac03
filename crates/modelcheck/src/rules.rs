//! The named hygiene rules and the per-file / per-crate checking engine.
//!
//! Rule catalogue (see DESIGN.md §10 for rationale):
//!
//! | code         | scope                       | forbids                                  |
//! |--------------|-----------------------------|------------------------------------------|
//! | RM-DET-001   | model-state + host crates   | `HashMap` / `HashSet` (aliases resolved) |
//! | RM-DET-002   | model-state crates          | `Instant` / `SystemTime` / `thread_rng`  |
//! | RM-FP-001    | `fp16`, `redmule`           | native `f32` / `f64` usage               |
//! | RM-PANIC-001 | model-state + host crates   | `panic!`-family, `.unwrap()`, `.expect()`|
//! | RM-SNAP-001  | model-state crates          | snapshot structs with uncovered fields   |
//! | RM-LOCK-001  | model-state + host crates   | lock acquisition-order cycles            |
//! | RM-RACE-001  | host crates                 | interleaving-ordered data in outputs     |
//! | RM-ERR-001   | model-state + host crates   | discarded `Result`s                      |
//! | RM-ARITH-001 | model crates + `service`    | bare `+`/`*`/`+=` on cycle counters      |
//! | RM-DEAD-001  | model-state + host crates   | `pub fn`s no other workspace file names  |
//! | RM-ALLOW-001 | everywhere modelcheck scans | allow entries without a justification    |
//! | RM-ALLOW-002 | everywhere modelcheck scans | allow entries that suppress nothing      |
//!
//! *Host crates* ([`HOST_CRATES`]) sit between the deterministic model
//! and the unchecked tooling: they orchestrate model instances from the
//! host (threads are fine, wall clocks are fine) but still promise
//! deterministic, panic-free results — so the ordering rule (RM-DET-001)
//! and the panic rule apply, while the simulation-time rules
//! (RM-DET-002, RM-SNAP-001) do not.
//!
//! All rules run on non-test code only (`#[cfg(test)]` / `#[test]` items
//! are stripped first) and never match inside string literals or
//! comments — the scanner works on real tokens, not text.

use crate::dead::{self, Callers};
use crate::flow::{self, UseMap};
use crate::lexer::{lex, Tok, TokKind};
use crate::scope::{allowances, non_cfg_test_tokens, non_test_tokens, snapshot_markers, Allowance};
use crate::snapshot;
use crate::{arith, errs, locks, race};
use std::collections::BTreeSet;

/// Crates whose sources hold simulated hardware / session state. Keyed by
/// directory name under `crates/`. `obs` qualifies because trace events
/// and phase ledgers are keyed by simulated cycles and serialised into
/// checkpoints — wall-clock or hash-order leakage there would break trace
/// determinism exactly like it would in the engine.
pub const MODEL_CRATES: [&str; 6] = ["fp16", "hwsim", "cluster", "redmule", "runtime", "obs"];

/// Crates where native-float usage (RM-FP-001) is banned: the softfloat
/// itself and the accelerator datapath built on it.
pub const FP_STRICT_CRATES: [&str; 2] = ["fp16", "redmule"];

/// Host-side orchestration crates: they drive model instances from OS
/// threads, so wall-clock types are legitimate (RM-DET-002 and
/// RM-SNAP-001 do not apply), but results must still be deterministic
/// and panic-free — RM-DET-001 and RM-PANIC-001 do apply.
pub const HOST_CRATES: [&str; 3] = ["batch", "service", "store"];

/// One finding, formatted as `RULE file:line: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule code, e.g. `RM-DET-001`.
    pub rule: &'static str,
    /// Path of the offending file, as given to [`check_file`].
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// Whether any rule at all applies to `crate_name` — lets the walker skip
/// non-model crates without reading them.
pub fn crate_is_checked(crate_name: &str) -> bool {
    MODEL_CRATES.contains(&crate_name) || HOST_CRATES.contains(&crate_name)
}

/// Whether RM-ARITH-001 applies: every model crate (cycle accounting is
/// the model's spine) plus the service's admission books (credits,
/// deadlines, budgets).
fn arith_applies(crate_name: &str) -> bool {
    MODEL_CRATES.contains(&crate_name) || crate_name == "service"
}

/// Workspace-wide facts the flow-aware rules need before any file can be
/// judged: the callee set for RM-ERR-001 — the name of every
/// `Result`-returning `fn` in a scanned crate — and RM-DEAD-001's index of
/// which files name which identifiers.
#[derive(Debug, Default)]
pub struct WorkspaceContext {
    /// Names of `Result`-returning workspace functions (non-test code).
    pub result_fns: BTreeSet<String>,
    /// Every workspace `.rs` file's identifiers (RM-DEAD-001); `None`
    /// when the context knows one file only ([`check_file`]), where "no
    /// other file names it" cannot be judged.
    pub callers: Option<Callers>,
}

impl WorkspaceContext {
    /// Folds one checked-crate source file into the context (pre-pass).
    pub fn add_source(&mut self, src: &str) {
        let lexed = lex(src);
        let code = non_test_tokens(&lexed.toks);
        self.result_fns.extend(flow::result_fn_names(&code));
    }

    /// Folds one workspace `.rs` file, checked or not, into the caller
    /// index (pre-pass).
    pub fn add_callers(&mut self, label: &str, src: &str) {
        let lexed = lex(src);
        let code = non_cfg_test_tokens(&lexed.toks);
        dead::add_callers(label, &code, self.callers.get_or_insert_with(Callers::new));
    }
}

/// One source file queued for checking: `(diagnostic label, contents)`.
pub type SourceFile = (String, String);

/// Runs every applicable rule over one source file, with the file itself
/// as the whole workspace context (lock graph and Result-callee set are
/// single-file). Kept for tests and fixtures; the workspace walker uses
/// [`check_crate`] so crate-wide rules see every file.
pub fn check_file(crate_name: &str, file: &str, src: &str) -> Vec<Diagnostic> {
    let mut ctx = WorkspaceContext::default();
    ctx.add_source(src);
    let files = vec![(file.to_string(), src.to_string())];
    check_crate(crate_name, &files, &ctx)
}

/// Per-file scan state staged until the crate-wide rules have run.
struct StagedFile {
    label: String,
    raw: Vec<Diagnostic>,
    allows: Vec<Allowance>,
}

/// Runs every applicable rule over one crate's source files.
///
/// Per-file rules fire as before; RM-LOCK-001 sees the union of all lock
/// acquisitions in the crate, so an inversion split across two files is
/// still a cycle. The allowlist is applied per file after every rule has
/// run, so crate-level findings can be suppressed at their anchor site.
pub fn check_crate(
    crate_name: &str,
    files: &[SourceFile],
    ctx: &WorkspaceContext,
) -> Vec<Diagnostic> {
    let model = MODEL_CRATES.contains(&crate_name);
    let host = HOST_CRATES.contains(&crate_name);

    let mut staged: Vec<StagedFile> = Vec::new();
    let mut edges: Vec<locks::LockEdge> = Vec::new();
    for (label, src) in files {
        let lexed = lex(src);
        let code = non_test_tokens(&lexed.toks);
        let allows = allowances(&lexed.comments, &lexed.toks);
        let markers = snapshot_markers(&lexed.comments);
        let uses = flow::use_map(&code);

        let mut raw: Vec<Diagnostic> = Vec::new();
        if model {
            rule_det_001(label, &code, &uses, &mut raw);
            rule_det_002(label, &code, &uses, &mut raw);
            rule_panic_001(label, &code, &mut raw);
            snapshot::rule_snap_001(label, &code, &markers, &mut raw);
        } else if host {
            rule_det_001(label, &code, &uses, &mut raw);
            rule_panic_001(label, &code, &mut raw);
            race::rule_race_001(label, &code, &uses, &mut raw);
        }
        if FP_STRICT_CRATES.contains(&crate_name) {
            rule_fp_001(label, &code, &mut raw);
        }
        if model || host {
            errs::rule_err_001(label, &code, &ctx.result_fns, &mut raw);
            edges.extend(locks::lock_edges(label, &code, &uses));
            if let Some(callers) = &ctx.callers {
                dead::rule_dead_001(label, &code, callers, &mut raw);
            }
        }
        if arith_applies(crate_name) {
            arith::rule_arith_001(label, &code, &mut raw);
        }
        staged.push(StagedFile {
            label: label.clone(),
            raw,
            allows,
        });
    }

    // Crate-wide rules over the aggregated per-file facts; each finding
    // is routed back to its anchor file so that file's allowlist governs.
    let mut lock_diags: Vec<Diagnostic> = Vec::new();
    locks::rule_lock_001(crate_name, &edges, &mut lock_diags);
    for d in lock_diags {
        if let Some(stage) = staged.iter_mut().find(|s| s.label == d.file) {
            stage.raw.push(d);
        }
    }

    let mut out: Vec<Diagnostic> = Vec::new();
    for stage in &mut staged {
        apply_allowlist(
            &stage.label,
            std::mem::take(&mut stage.raw),
            &mut stage.allows,
            &mut out,
        );
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Applies one file's allowlist: covered findings are suppressed and mark
/// their entry used; entries without a justification (RM-ALLOW-001) or
/// with nothing left to suppress (RM-ALLOW-002) are violations themselves.
fn apply_allowlist(
    file: &str,
    raw: Vec<Diagnostic>,
    allows: &mut [Allowance],
    out: &mut Vec<Diagnostic>,
) {
    'finding: for d in raw {
        for a in allows.iter_mut() {
            if a.covers(d.rule, d.line) {
                a.used = true;
                continue 'finding;
            }
        }
        out.push(d);
    }

    for a in allows {
        if !a.has_reason {
            out.push(Diagnostic {
                rule: "RM-ALLOW-001",
                file: file.to_string(),
                line: a.comment_line,
                message: format!(
                    "allow entry for {} has no justification; write \
                     `// modelcheck-allow: {} -- <why this is sound>`",
                    a.rules.join(", "),
                    a.rules.join(", "),
                ),
            });
        } else if !a.used {
            out.push(Diagnostic {
                rule: "RM-ALLOW-002",
                file: file.to_string(),
                line: a.comment_line,
                message: format!(
                    "stale allow entry: no {} finding in its scope (lines {}..={}); remove it",
                    a.rules.join(", "),
                    a.from_line,
                    if a.to_line == u32::MAX {
                        "EOF".to_string()
                    } else {
                        a.to_line.to_string()
                    }
                ),
            });
        }
    }
}

/// RM-DET-001: hash containers iterate in randomized order, which leaks
/// into schedules, logs and serialized state. Model crates must use
/// `BTreeMap` / `BTreeSet` / `Vec` / `VecDeque`. Aliases are resolved
/// through the file's `use` map, so `use ... HashMap as Map;` does not
/// hide the container.
fn rule_det_001(file: &str, toks: &[Tok], uses: &UseMap, out: &mut Vec<Diagnostic>) {
    for t in toks {
        let resolved = t.kind.ident().map(|id| uses.canonical(id));
        if let Some(name @ ("HashMap" | "HashSet")) = resolved {
            out.push(Diagnostic {
                rule: "RM-DET-001",
                file: file.to_string(),
                line: t.line,
                message: format!(
                    "{name} in a model-state crate: iteration order is \
                     nondeterministic; use {} (or justify with an allow comment)",
                    if name == "HashMap" {
                        "BTreeMap"
                    } else {
                        "BTreeSet"
                    },
                ),
            });
        }
    }
}

/// RM-DET-002: simulated time comes from `hwsim::cycle`, randomness from
/// the seeded `hwsim::rng`. Wall clocks and OS entropy make runs
/// unreproducible.
fn rule_det_002(file: &str, toks: &[Tok], uses: &UseMap, out: &mut Vec<Diagnostic>) {
    for t in toks {
        let resolved = t.kind.ident().map(|id| uses.canonical(id));
        if let Some(name @ ("Instant" | "SystemTime" | "thread_rng" | "ThreadRng")) = resolved {
            let hint = match name {
                "Instant" | "SystemTime" => "model time is hwsim::cycle::Cycle",
                _ => "randomness must come from the seeded hwsim::rng generators",
            };
            out.push(Diagnostic {
                rule: "RM-DET-002",
                file: file.to_string(),
                line: t.line,
                message: format!(
                    "{name} in a model-state crate: {hint} \
                     (or justify with an allow comment)"
                ),
            });
        }
    }
}

/// RM-FP-001: every numeric result on the modelled datapath must be
/// bit-identical to IEEE binary16 hardware, so all arithmetic goes
/// through the `redmule_fp16` softfloat. Native floats are only legal on
/// explicitly annotated reference / telemetry paths.
fn rule_fp_001(file: &str, toks: &[Tok], out: &mut Vec<Diagnostic>) {
    for t in toks {
        let found = match &t.kind {
            TokKind::Ident(s) if s == "f32" || s == "f64" => Some(s.as_str()),
            TokKind::Number(n) if n.ends_with("f32") => Some("f32"),
            TokKind::Number(n) if n.ends_with("f64") => Some("f64"),
            _ => None,
        };
        if let Some(name) = found {
            out.push(Diagnostic {
                rule: "RM-FP-001",
                file: file.to_string(),
                line: t.line,
                message: format!(
                    "native {name} in bit-exact code: all datapath numerics go \
                     through the redmule_fp16 softfloat; reference/telemetry \
                     paths need an explicit allow comment"
                ),
            });
        }
    }
}

/// RM-PANIC-001: model crates return `Result`, they do not abort the
/// simulation. Extends the clippy `unwrap_used` deny with the panic
/// macros clippy's lint does not cover.
fn rule_panic_001(file: &str, toks: &[Tok], out: &mut Vec<Diagnostic>) {
    for (i, t) in toks.iter().enumerate() {
        match t.kind.ident() {
            Some(name @ ("panic" | "unreachable" | "todo" | "unimplemented"))
                if toks.get(i + 1).map(|n| n.kind.is_punct('!')) == Some(true) =>
            {
                out.push(Diagnostic {
                    rule: "RM-PANIC-001",
                    file: file.to_string(),
                    line: t.line,
                    message: format!(
                        "{name}! in a model-state crate: surface an error \
                         (EngineError / SnapshotError) instead of aborting, \
                         or justify with an allow comment"
                    ),
                });
            }
            Some(name @ ("unwrap" | "expect"))
                if i > 0
                    && toks[i - 1].kind.is_punct('.')
                    && toks.get(i + 1).map(|n| n.kind.is_punct('(')) == Some(true) =>
            {
                out.push(Diagnostic {
                    rule: "RM-PANIC-001",
                    file: file.to_string(),
                    line: t.line,
                    message: format!(
                        ".{name}() in a model-state crate: propagate the error \
                         with `?` or handle the None/Err arm explicitly"
                    ),
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(crate_name: &str, src: &str) -> Vec<(&'static str, u32)> {
        check_file(crate_name, "x.rs", src)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn det_001_fires_on_hashmap_but_not_btreemap() {
        let src = "use std::collections::BTreeMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); }\n";
        let fired = rules_fired("hwsim", src);
        assert_eq!(fired, vec![("RM-DET-001", 2), ("RM-DET-001", 2)]);
    }

    #[test]
    fn det_002_fires_on_instant() {
        let fired = rules_fired("runtime", "fn f() { let t = Instant::now(); }\n");
        assert_eq!(fired, vec![("RM-DET-002", 1)]);
    }

    #[test]
    fn fp_001_fires_on_suffix_and_ident_in_strict_crates_only() {
        let src = "fn f(x: f32) { let y = 1.0f64; }\n";
        assert_eq!(
            rules_fired("fp16", src),
            vec![("RM-FP-001", 1), ("RM-FP-001", 1)]
        );
        // hwsim is a model crate but not FP-strict.
        assert_eq!(rules_fired("hwsim", src), vec![]);
    }

    #[test]
    fn panic_001_fires_on_macros_and_unwrap_only_as_calls() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    let _ = x.unwrap_or(3);\n    x.unwrap()\n}\nfn g() { panic!(\"boom\") }\n";
        let fired = rules_fired("cluster", src);
        assert_eq!(fired, vec![("RM-PANIC-001", 3), ("RM-PANIC-001", 5)]);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let m = std::collections::HashMap::<u8, u8>::new(); m.get(&1).unwrap(); }\n}\n";
        assert_eq!(rules_fired("redmule", src), vec![]);
    }

    #[test]
    fn strings_and_comments_are_exempt() {
        let src = "// HashMap in a comment\nfn f() -> &'static str { \"HashMap f32 panic!\" }\n";
        assert_eq!(rules_fired("redmule", src), vec![]);
    }

    #[test]
    fn allow_comment_suppresses_and_is_marked_used() {
        let src = "// modelcheck-allow: RM-DET-002 -- host-side wall clock for CI deadlines\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(rules_fired("runtime", src), vec![]);
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "// modelcheck-allow: RM-DET-002\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(rules_fired("runtime", src), vec![("RM-ALLOW-001", 1)]);
    }

    #[test]
    fn stale_allow_is_a_violation() {
        let src = "// modelcheck-allow: RM-DET-001 -- there used to be a HashMap here\nfn f() {}\n";
        assert_eq!(rules_fired("runtime", src), vec![("RM-ALLOW-002", 1)]);
    }

    #[test]
    fn non_model_crates_are_unchecked() {
        let src = "fn f() { let m: HashMap<u8, u8> = HashMap::new(); panic!(\"x\") }\n";
        assert_eq!(rules_fired("criterion", src), vec![]);
        assert!(!crate_is_checked("criterion"));
        assert!(crate_is_checked("redmule"));
    }

    #[test]
    fn host_crates_are_checked() {
        assert!(crate_is_checked("batch"));
        assert!(HOST_CRATES.contains(&"batch"));
        assert!(crate_is_checked("service"));
        assert!(HOST_CRATES.contains(&"service"));
        assert!(crate_is_checked("store"));
        assert!(HOST_CRATES.contains(&"store"));
    }

    #[test]
    fn host_crates_allow_wall_clock_but_not_hashmap_or_unwrap() {
        // Wall-clock types are fine on the host side...
        assert_eq!(
            rules_fired("batch", "fn f() { let t = Instant::now(); }\n"),
            vec![]
        );
        // ...but nondeterministic iteration order and panics are not.
        assert_eq!(
            rules_fired("batch", "fn f() { let m = HashMap::<u8, u8>::new(); }\n"),
            vec![("RM-DET-001", 1)]
        );
        assert_eq!(
            rules_fired("batch", "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n"),
            vec![("RM-PANIC-001", 1)]
        );
    }

    #[test]
    fn host_crates_are_exempt_from_fp_and_snapshot_rules() {
        // Native floats are allowed (throughput math is host-side)...
        assert_eq!(
            rules_fired("batch", "fn f(x: f64) -> f64 { x * 2.0 }\n"),
            []
        );
        // ...and so are structs without snapshot coverage markers.
        let src = "pub struct ScheduleStats { workers: usize }\n";
        assert_eq!(rules_fired("batch", src), []);
    }
}
