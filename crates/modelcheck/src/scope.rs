//! Scope handling: test-code stripping, `modelcheck-allow` comments and
//! `modelcheck: snapshot(...)` markers.
//!
//! The hygiene rules apply to *model* code only — unit tests are free to
//! use `HashMap`, native floats and `unwrap()`. [`non_test_tokens`]
//! removes every item behind a `#[cfg(test)]` / `#[test]` attribute from
//! the token stream before any rule runs.
//!
//! Violations that are intentional are suppressed with an explicit,
//! justified comment:
//!
//! ```text
//! // modelcheck-allow: RM-FP-001 -- f64 reference GEMM, never on the HW path
//! pub fn gemm_f64_reference(...) { ... }
//! ```
//!
//! A *standalone* allow comment covers the item that follows it (up to
//! the matching close brace, or the next `;`/`,` for brace-less items
//! such as struct fields and `use` declarations). A *trailing* allow
//! comment covers its own line. `modelcheck-allow-file:` covers the whole
//! file. The justification after `--` is mandatory — an allow without a
//! reason is itself a violation — and every allow must suppress at least
//! one finding, so stale entries fail the check instead of rotting.

use crate::lexer::{matching_close, Comment, Tok, TokKind};

/// Prefix of an allow comment scoped to the following item / own line.
const ALLOW_PREFIX: &str = "modelcheck-allow:";
/// Prefix of an allow comment scoped to the entire file.
const ALLOW_FILE_PREFIX: &str = "modelcheck-allow-file:";
/// Prefix of a tool marker comment (e.g. snapshot pairing).
const MARKER_PREFIX: &str = "modelcheck:";

/// A parsed `modelcheck-allow` comment.
#[derive(Debug)]
pub struct Allowance {
    /// Rule codes this entry suppresses (e.g. `RM-FP-001`).
    pub rules: Vec<String>,
    /// First source line covered.
    pub from_line: u32,
    /// Last source line covered (`u32::MAX` for file scope).
    pub to_line: u32,
    /// Line of the comment itself (for diagnostics).
    pub comment_line: u32,
    /// `true` once a finding was suppressed by this entry.
    pub used: bool,
    /// `true` when the comment carried a non-empty `-- reason`.
    pub has_reason: bool,
}

impl Allowance {
    /// Whether this entry suppresses `rule` at `line`.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        (self.from_line..=self.to_line).contains(&line) && self.rules.iter().any(|r| r == rule)
    }
}

/// A `modelcheck: snapshot(save = f, load = g)` marker: the struct that
/// follows must have every field mentioned in the bodies of `f` and `g`.
#[derive(Debug, PartialEq, Eq)]
pub struct SnapshotMarker {
    /// Line of the marker comment; the marked struct is the next
    /// `struct` item after this line.
    pub line: u32,
    /// Name of the serialising function.
    pub save_fn: String,
    /// Name of the restoring function.
    pub load_fn: String,
}

/// Strips every `#[cfg(test)]` / `#[test]` item from the token stream.
///
/// Attribute classification is name-based: an attribute whose identifier
/// sequence starts with `test`, or starts with `cfg` and mentions `test`
/// without mentioning `not`, hides the item that follows. This correctly
/// keeps `#[cfg(not(test))]` and `#![cfg_attr(not(test), ...)]` items.
pub fn non_test_tokens(toks: &[Tok]) -> Vec<Tok> {
    strip_test_items(toks, true)
}

/// Strips only `#[cfg(test)]` items and keeps `#[test]` functions: in an
/// integration-test file they are the code, and what they call is called
/// from outside the defining file (RM-DEAD-001's caller index).
pub fn non_cfg_test_tokens(toks: &[Tok]) -> Vec<Tok> {
    strip_test_items(toks, false)
}

fn strip_test_items(toks: &[Tok], test_fns: bool) -> Vec<Tok> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind.is_punct('#') {
            // Inner attributes `#![...]` never gate an item; skip the `!`.
            let open = if toks.get(i + 1).map(|t| t.kind.is_punct('!')) == Some(true) {
                i + 2
            } else {
                i + 1
            };
            if toks.get(open).map(|t| t.kind.is_punct('[')) == Some(true) {
                if let Some(close) = matching_close(toks, open) {
                    let idents: Vec<&str> = toks[open + 1..close]
                        .iter()
                        .filter_map(|t| t.kind.ident())
                        .collect();
                    let hides_item = open == i + 1
                        && match idents.first() {
                            Some(&"test") => test_fns,
                            Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
                            _ => false,
                        };
                    if hides_item {
                        i = skip_item(toks, close + 1);
                    } else {
                        out.extend_from_slice(&toks[i..=close]);
                        i = close + 1;
                    }
                    continue;
                }
            }
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// Advances past one item starting at `i`: any further attributes, then
/// everything up to and including the item's closing `}` or its `;`.
fn skip_item(toks: &[Tok], mut i: usize) -> usize {
    while i < toks.len()
        && toks[i].kind.is_punct('#')
        && toks.get(i + 1).map(|t| t.kind.is_punct('[')) == Some(true)
    {
        match matching_close(toks, i + 1) {
            Some(c) => i = c + 1,
            None => return toks.len(),
        }
    }
    let mut nest = 0i64;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => nest += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => nest -= 1,
            TokKind::Punct(';') if nest == 0 => return i + 1,
            TokKind::Punct('{') if nest == 0 => {
                return match matching_close(toks, i) {
                    Some(c) => c + 1,
                    None => toks.len(),
                };
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Extracts every `modelcheck-allow` entry from the file's comments.
///
/// `toks` must be the **full** (unstripped) token stream — scopes are
/// computed against the real source layout.
pub fn allowances(comments: &[Comment], toks: &[Tok]) -> Vec<Allowance> {
    let mut out = Vec::new();
    for c in comments {
        let (spec, file_scope) = if let Some(rest) = c.text.strip_prefix(ALLOW_FILE_PREFIX) {
            (rest, true)
        } else if let Some(rest) = c.text.strip_prefix(ALLOW_PREFIX) {
            (rest, false)
        } else {
            continue;
        };
        let (rule_part, reason) = match spec.split_once("--") {
            Some((rules, reason)) => (rules, reason.trim()),
            None => (spec, ""),
        };
        let rules: Vec<String> = rule_part
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let (from_line, to_line) = if file_scope {
            (0, u32::MAX)
        } else if c.trailing {
            (c.line, c.line)
        } else {
            (c.line, item_end_line(toks, c.line))
        };
        out.push(Allowance {
            rules,
            from_line,
            to_line,
            comment_line: c.line,
            used: false,
            has_reason: !reason.is_empty(),
        });
    }
    out
}

/// Last line of the item that starts after `after_line` — the scope of a
/// standalone allow comment.
fn item_end_line(toks: &[Tok], after_line: u32) -> u32 {
    let Some(start) = toks.iter().position(|t| t.line > after_line) else {
        return after_line;
    };
    let mut i = start;
    // Attributes belong to the item.
    while i < toks.len()
        && toks[i].kind.is_punct('#')
        && toks.get(i + 1).map(|t| t.kind.is_punct('[')) == Some(true)
    {
        match matching_close(toks, i + 1) {
            Some(c) => i = c + 1,
            None => return toks.last().map_or(after_line, |t| t.line),
        }
    }
    // A `let` statement ends at `;`, never at a brace: its pattern
    // (`let Foo { .. } = ...`) and initializer (`let x = { .. };`) may
    // both contain braces that are not the end of the statement.
    let is_let = matches!(&toks[i].kind, TokKind::Ident(id) if id == "let");
    let mut nest = 0i64;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => nest += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => nest -= 1,
            TokKind::Punct('{') if is_let => nest += 1,
            TokKind::Punct('}') if is_let => nest -= 1,
            // A brace-less item (field, `use`, expression statement) ends
            // at the first separator outside any nesting.
            TokKind::Punct(';') if nest == 0 => return toks[i].line,
            TokKind::Punct(',') if nest == 0 && !is_let => return toks[i].line,
            TokKind::Punct('{') if nest == 0 => {
                return match matching_close(toks, i) {
                    Some(c) => toks[c].line,
                    None => toks.last().map_or(after_line, |t| t.line),
                };
            }
            _ => {}
        }
        i += 1;
    }
    toks.last().map_or(after_line, |t| t.line)
}

/// Extracts every `modelcheck: snapshot(save = f, load = g)` marker.
pub fn snapshot_markers(comments: &[Comment]) -> Vec<SnapshotMarker> {
    let mut out = Vec::new();
    for c in comments {
        let Some(rest) = c.text.strip_prefix(MARKER_PREFIX) else {
            continue;
        };
        let rest = rest.trim();
        let Some(args) = rest
            .strip_prefix("snapshot")
            .map(str::trim)
            .and_then(|s| s.strip_prefix('('))
            .and_then(|s| s.strip_suffix(')'))
        else {
            continue;
        };
        let mut save_fn = None;
        let mut load_fn = None;
        for pair in args.split(',') {
            if let Some((key, value)) = pair.split_once('=') {
                match key.trim() {
                    "save" => save_fn = Some(value.trim().to_string()),
                    "load" => load_fn = Some(value.trim().to_string()),
                    _ => {}
                }
            }
        }
        if let (Some(save_fn), Some(load_fn)) = (save_fn, load_fn) {
            out.push(SnapshotMarker {
                line: c.line,
                save_fn,
                load_fn,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_modules_are_stripped() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn dead() { let m = HashMap::new(); } }\nfn also_live() {}\n";
        let lexed = lex(src);
        let toks = non_test_tokens(&lexed.toks);
        let idents: Vec<&str> = toks.iter().filter_map(|t| t.kind.ident()).collect();
        assert!(idents.contains(&"live"));
        assert!(idents.contains(&"also_live"));
        assert!(!idents.contains(&"HashMap"));
        assert!(!idents.contains(&"dead"));
    }

    #[test]
    fn cfg_not_test_is_kept() {
        let src =
            "#![cfg_attr(not(test), deny(clippy::unwrap_used))]\n#[cfg(not(test))]\nfn live() {}\n";
        let lexed = lex(src);
        let toks = non_test_tokens(&lexed.toks);
        let idents: Vec<&str> = toks.iter().filter_map(|t| t.kind.ident()).collect();
        assert!(idents.contains(&"live"));
        assert!(idents.contains(&"unwrap_used"));
    }

    #[test]
    fn test_fn_with_extra_attrs_is_stripped() {
        let src = "#[test]\n#[should_panic]\nfn boom() { panic!(\"x\") }\nfn live() {}\n";
        let lexed = lex(src);
        let toks = non_test_tokens(&lexed.toks);
        let idents: Vec<&str> = toks.iter().filter_map(|t| t.kind.ident()).collect();
        assert!(!idents.contains(&"boom"));
        assert!(!idents.contains(&"panic"));
        assert!(idents.contains(&"live"));
    }

    #[test]
    fn standalone_allow_spans_the_next_item() {
        let src = "\n// modelcheck-allow: RM-FP-001 -- reference path\nfn reference(x: f64) -> f64 {\n    x * 2.0\n}\nfn other() {}\n";
        let lexed = lex(src);
        let allows = allowances(&lexed.comments, &lexed.toks);
        assert_eq!(allows.len(), 1);
        let a = &allows[0];
        assert!(a.has_reason);
        assert!(a.covers("RM-FP-001", 3));
        assert!(a.covers("RM-FP-001", 5));
        assert!(!a.covers("RM-FP-001", 6));
        assert!(!a.covers("RM-DET-001", 3));
    }

    #[test]
    fn trailing_allow_covers_only_its_line() {
        let src = "use std::time::Instant; // modelcheck-allow: RM-DET-002 -- host-side deadline\nlet t = Instant::now();\n";
        let lexed = lex(src);
        let allows = allowances(&lexed.comments, &lexed.toks);
        assert_eq!(allows.len(), 1);
        assert!(allows[0].covers("RM-DET-002", 1));
        assert!(!allows[0].covers("RM-DET-002", 2));
    }

    #[test]
    fn field_scope_ends_at_comma() {
        let src = "struct S {\n    a: u32,\n    // modelcheck-allow: RM-SNAP-001 -- derived\n    b: (u32, u32),\n    c: u32,\n}\n";
        let lexed = lex(src);
        let allows = allowances(&lexed.comments, &lexed.toks);
        assert!(allows[0].covers("RM-SNAP-001", 4));
        assert!(!allows[0].covers("RM-SNAP-001", 5));
    }

    #[test]
    fn allow_without_reason_is_flagged_by_parser() {
        let src = "// modelcheck-allow: RM-DET-001\nlet m = 1;\n";
        let lexed = lex(src);
        let allows = allowances(&lexed.comments, &lexed.toks);
        assert!(!allows[0].has_reason);
    }

    #[test]
    fn file_allow_covers_everything() {
        let src = "//! modelcheck-allow-file: RM-DET-002 -- bench harness, wall-clock is the point\nfn f() {}\n";
        let lexed = lex(src);
        let allows = allowances(&lexed.comments, &lexed.toks);
        assert!(allows[0].covers("RM-DET-002", 9999));
    }

    #[test]
    fn snapshot_marker_parses() {
        let src = "// modelcheck: snapshot(save = checkpoint, load = resume)\nstruct Sim;\n";
        let lexed = lex(src);
        let markers = snapshot_markers(&lexed.comments);
        assert_eq!(
            markers,
            vec![SnapshotMarker {
                line: 1,
                save_fn: "checkpoint".into(),
                load_fn: "resume".into(),
            }]
        );
    }
}
