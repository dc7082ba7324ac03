//! Flow structurizer: the lightweight item/block/statement layer the
//! v2 rules are built on.
//!
//! The PR-3 rules were flat token-pattern scans; the concurrency and
//! error-hygiene rules (RM-LOCK-001, RM-RACE-001, RM-ERR-001,
//! RM-ARITH-001) need *structure*: which function a token is in, where a
//! statement starts and ends, what a `use` declaration renames, which
//! receiver a method call chains off. This module recovers exactly that
//! much shape from the token stream — no full AST, no `syn` (the build
//! image is offline), just:
//!
//! * [`UseMap`] — `use`-declaration resolution, including `as` renames
//!   and `{...}` groups, so rules see through aliasing
//!   (`use std::collections::HashMap as Map`);
//! * [`functions`] — every `fn` item with its name, body token range and
//!   whether its return type is a `Result`;
//! * [`statements`] — recursive statement segmentation inside a block:
//!   `;`-terminated statements, control-flow blocks (`if`/`match`/...)
//!   and the trailing tail expression, each as a token range;
//! * receiver/path utilities (`path_before`, `path_at`) that walk a
//!   dotted field/method chain around a token index.
//!
//! Everything operates on the *non-test* token stream (tests are free to
//! lock in any order and drop any `Result`).

use crate::lexer::{matching_close, Tok, TokKind};
use std::collections::BTreeMap;

/// Resolved `use` declarations of one file: local name → full path.
#[derive(Debug, Default)]
pub struct UseMap {
    map: BTreeMap<String, Vec<String>>,
}

impl UseMap {
    /// The canonical (imported) name behind `local`, i.e. the last
    /// segment of the `use` path it came from. Returns `local` itself
    /// when the file does not rename it.
    pub fn canonical<'a>(&'a self, local: &'a str) -> &'a str {
        match self.map.get(local) {
            Some(path) => path.last().map_or(local, String::as_str),
            None => local,
        }
    }

    /// Full imported path for `local`, when a `use` declaration binds it.
    pub fn path(&self, local: &str) -> Option<&[String]> {
        self.map.get(local).map(Vec::as_slice)
    }

    fn bind(&mut self, local: String, path: Vec<String>) {
        self.map.insert(local, path);
    }
}

/// Builds the [`UseMap`] of a token stream by parsing every `use` item:
/// `use a::b::C;`, `use a::b::{C, D as E};`, nested groups and glob
/// imports (globs bind nothing — there is no local name to resolve).
pub fn use_map(toks: &[Tok]) -> UseMap {
    let mut out = UseMap::default();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind.ident() == Some("use") {
            let end = toks[i..]
                .iter()
                .position(|t| t.kind.is_punct(';'))
                .map_or(toks.len(), |off| i + off);
            parse_use_tree(&toks[i + 1..end], &mut Vec::new(), &mut out);
            i = end + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// Parses one use-tree (the tokens between `use` and `;`), accumulating
/// bindings into `out`. `prefix` is the path above this subtree.
fn parse_use_tree(toks: &[Tok], prefix: &mut Vec<String>, out: &mut UseMap) {
    let depth_at_start = prefix.len();
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Ident(seg) if seg != "as" => {
                prefix.push(seg.clone());
                i += 1;
            }
            TokKind::Ident(_) /* `as` */ => {
                // `path as Alias`
                if let Some(alias) = toks.get(i + 1).and_then(|t| t.kind.ident()) {
                    out.bind(alias.to_string(), prefix.clone());
                }
                prefix.truncate(depth_at_start);
                i += 2;
            }
            TokKind::Punct('{') => {
                if let Some(close) = matching_close(toks, i) {
                    // Each comma-separated entry inside the group gets the
                    // current prefix.
                    let inner = &toks[i + 1..close];
                    let mut start = 0usize;
                    let mut depth = 0i64;
                    for (j, t) in inner.iter().enumerate() {
                        match &t.kind {
                            TokKind::Punct('{') => depth += 1,
                            TokKind::Punct('}') => depth -= 1,
                            TokKind::Punct(',') if depth == 0 => {
                                parse_use_tree(&inner[start..j], prefix, out);
                                prefix.truncate(depth_at_start);
                                start = j + 1;
                            }
                            _ => {}
                        }
                    }
                    parse_use_tree(&inner[start..], prefix, out);
                    prefix.truncate(depth_at_start);
                    i = close + 1;
                } else {
                    return;
                }
            }
            TokKind::Punct(',') => {
                // End of one entry at this level (inside a group handled
                // above; defensive here).
                bind_plain(prefix, depth_at_start, out);
                prefix.truncate(depth_at_start);
                i += 1;
            }
            _ => {
                // `::`, `*` (glob binds nothing), stray tokens.
                if toks[i].kind.is_punct('*') {
                    prefix.truncate(depth_at_start);
                }
                i += 1;
            }
        }
    }
    bind_plain(prefix, depth_at_start, out);
    prefix.truncate(depth_at_start);
}

/// Binds a plain (un-renamed) path `a::b::C` to its last segment.
fn bind_plain(prefix: &[String], depth_at_start: usize, out: &mut UseMap) {
    if prefix.len() > depth_at_start {
        if let Some(last) = prefix.last() {
            // `use a::b::self;` binds `b`; handled by taking the last
            // non-`self` segment.
            let name = if last == "self" {
                prefix.get(prefix.len().wrapping_sub(2))
            } else {
                Some(last)
            };
            if let Some(name) = name {
                out.bind(name.clone(), prefix.to_vec());
            }
        }
    }
}

/// One `fn` item found in the token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Function name (`r#`-stripped by the lexer).
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body, *exclusive* of the braces — empty for
    /// trait-declaration bodies (`fn f(...) -> T;`).
    pub body: std::ops::Range<usize>,
    /// `true` when the declared return type names a `Result` (plain
    /// `Result<..>`, `io::Result<..>`, or any `*Result` alias).
    pub returns_result: bool,
}

/// Every `fn` item in the stream (free functions, inherent and trait
/// methods, nested fns), in source order. Closures are not items — their
/// bodies belong to the enclosing function's statements.
pub fn functions(toks: &[Tok]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind.ident() != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        let Some(name) = name_tok.kind.ident() else {
            i += 1;
            continue;
        };
        let line = toks[i].line;
        // Skip generics to the parameter list.
        let mut j = i + 2;
        if toks.get(j).map(|t| t.kind.is_punct('<')) == Some(true) {
            let mut depth = 0i64;
            while j < toks.len() {
                if toks[j].kind.is_punct('<') {
                    depth += 1;
                } else if toks[j].kind.is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if toks.get(j).map(|t| t.kind.is_punct('(')) != Some(true) {
            i += 1;
            continue;
        }
        let Some(params_close) = matching_close(toks, j) else {
            break;
        };
        // Return type: tokens between `->` and the body `{` / `;` /
        // `where`.
        let mut k = params_close + 1;
        let mut returns_result = false;
        while k < toks.len() {
            match &toks[k].kind {
                TokKind::Punct('{') | TokKind::Punct(';') => break,
                TokKind::Ident(id) if id == "Result" || id.ends_with("Result") => {
                    returns_result = true;
                    k += 1;
                }
                _ => k += 1,
            }
        }
        let body = if toks.get(k).map(|t| t.kind.is_punct('{')) == Some(true) {
            match matching_close(toks, k) {
                Some(close) => {
                    // Continue the outer scan *inside* the body so nested
                    // fns are found too; record the exclusive range now.
                    i = k + 1;
                    (k + 1)..close
                }
                None => {
                    i = toks.len();
                    0..0
                }
            }
        } else {
            i = k + 1;
            0..0
        };
        out.push(FnItem {
            name: name.to_string(),
            line,
            body,
            returns_result,
        });
    }
    out
}

/// One statement inside a block, as a token range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// Token range of the statement, excluding the terminating `;`.
    pub range: std::ops::Range<usize>,
    /// `true` when the statement ended with an explicit `;` (a candidate
    /// for a discarded result); `false` for control-flow statements and
    /// the tail expression.
    pub semi: bool,
}

/// Keywords that open a control-flow statement ending at its last block
/// (no `;` required).
const BLOCK_KEYWORDS: [&str; 6] = ["if", "match", "for", "while", "loop", "unsafe"];

/// Splits the token range `range` (a block body) into statements.
///
/// A statement ends at the first `;` outside any nesting; statements
/// opening with a control-flow keyword end at the close of their last
/// block instead (`else`/`else if` chains are followed). The trailing
/// tail expression, if any, becomes a final statement with `semi =
/// false`. Nested blocks stay *inside* their statement's range — walk
/// them recursively via [`inner_blocks`].
pub fn statements(toks: &[Tok], range: std::ops::Range<usize>) -> Vec<Stmt> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i < range.end {
        let start = i;
        let leading = toks[i].kind.ident();
        let control = leading.is_some_and(|id| BLOCK_KEYWORDS.contains(&id));
        let mut depth = 0i64;
        let mut ended = false;
        while i < range.end {
            match &toks[i].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => {
                    depth += 1;
                    i += 1;
                }
                TokKind::Punct(')') | TokKind::Punct(']') => {
                    depth -= 1;
                    i += 1;
                }
                TokKind::Punct(';') if depth == 0 => {
                    out.push(Stmt {
                        range: start..i,
                        semi: true,
                    });
                    i += 1;
                    ended = true;
                    break;
                }
                TokKind::Punct('{') if depth == 0 => {
                    let close = match matching_close(toks, i) {
                        Some(c) if c < range.end => c,
                        _ => range.end.saturating_sub(1),
                    };
                    i = close + 1;
                    if control {
                        // `else` / `else if` / match-arm continuation?
                        if toks.get(i).map(|t| t.kind.ident() == Some("else")) == Some(true) {
                            continue;
                        }
                        out.push(Stmt {
                            range: start..i,
                            semi: false,
                        });
                        ended = true;
                        break;
                    }
                    // Expression block inside a larger statement (struct
                    // literal, closure body, `let x = {..};`): keep
                    // scanning for the `;`.
                }
                _ => i += 1,
            }
        }
        if !ended && i > start {
            // Tail expression (or unterminated statement at block end).
            out.push(Stmt {
                range: start..i,
                semi: false,
            });
        }
        if i == start {
            i += 1; // defensive: never stall
        }
    }
    out
}

/// Token index ranges of every depth-0 `{...}` group inside `range`
/// (exclusive of the braces) — the sub-blocks to recurse into.
pub fn inner_blocks(toks: &[Tok], range: std::ops::Range<usize>) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i < range.end {
        if toks[i].kind.is_punct('{') {
            match matching_close(toks, i) {
                Some(close) if close < range.end => {
                    out.push(i + 1..close);
                    i = close + 1;
                }
                _ => break,
            }
        } else {
            i += 1;
        }
    }
    out
}

/// The dotted receiver path ending just before token `i` (exclusive):
/// walks back over `ident`, `.`, `::`, `self` and `[...]` index groups,
/// returning the path segments in source order (indices dropped).
/// Returns an empty vector when the receiver is not a simple path (e.g.
/// a call result `f().lock()`).
pub fn path_before(toks: &[Tok], i: usize) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let mut j = i;
    let mut expect_name = true;
    while j > 0 {
        j -= 1;
        match &toks[j].kind {
            TokKind::Ident(s) if expect_name => {
                segs.push(s.clone());
                expect_name = false;
            }
            TokKind::Punct('.') if !expect_name => expect_name = true,
            TokKind::Punct(':') if !expect_name => {
                // `::` — two colon puncts.
                if j > 0 && toks[j - 1].kind.is_punct(':') {
                    j -= 1;
                    expect_name = true;
                } else {
                    break;
                }
            }
            TokKind::Punct(']') if expect_name => {
                // Skip the index expression `[...]`, keep walking the
                // path below it: `deques[w].lock()` → `deques`.
                let mut depth = 1i64;
                while j > 0 && depth > 0 {
                    j -= 1;
                    if toks[j].kind.is_punct(']') {
                        depth += 1;
                    } else if toks[j].kind.is_punct('[') {
                        depth -= 1;
                    }
                }
            }
            _ => break,
        }
    }
    segs.reverse();
    segs
}

/// Whether token `i` begins a *call* of a named function or method:
/// `ident (` with the identifier not being a macro invocation
/// (`ident!(`). Returns the callee name.
pub fn callee_at(toks: &[Tok], i: usize) -> Option<&str> {
    let name = toks[i].kind.ident()?;
    if toks.get(i + 1).map(|t| t.kind.is_punct('(')) == Some(true) {
        return Some(name);
    }
    None
}

/// The names of every `fn` in the stream whose return type is a
/// `Result`, for the discarded-result rule's callee set.
pub fn result_fn_names(toks: &[Tok]) -> Vec<String> {
    functions(toks)
        .into_iter()
        .filter(|f| f.returns_result)
        .map(|f| f.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn use_map_resolves_renames_and_groups() {
        let src = "use std::collections::HashMap as Map;\n\
                   use std::sync::{Mutex, RwLock as Lk};\n\
                   use std::fmt::Write;\n";
        let lexed = lex(src);
        let uses = use_map(&lexed.toks);
        assert_eq!(uses.canonical("Map"), "HashMap");
        assert_eq!(uses.canonical("Lk"), "RwLock");
        assert_eq!(uses.canonical("Mutex"), "Mutex");
        assert_eq!(uses.canonical("Write"), "Write");
        assert_eq!(uses.canonical("Unbound"), "Unbound");
        assert_eq!(
            uses.path("Map").map(|p| p.join("::")),
            Some("std::collections::HashMap".to_string())
        );
    }

    #[test]
    fn functions_find_bodies_and_result_returns() {
        let src = "fn plain(x: u8) -> u8 { x }\n\
                   pub fn failing() -> Result<(), String> { Ok(()) }\n\
                   impl S { fn io(&self) -> io::Result<u8> { Ok(0) } }\n\
                   trait T { fn decl(&self) -> StoreResult<()>; }\n";
        let lexed = lex(src);
        let fns = functions(&lexed.toks);
        let summary: Vec<(&str, bool, bool)> = fns
            .iter()
            .map(|f| (f.name.as_str(), f.returns_result, f.body.is_empty()))
            .collect();
        assert_eq!(
            summary,
            vec![
                ("plain", false, false),
                ("failing", true, false),
                ("io", true, false),
                ("decl", true, true),
            ]
        );
    }

    #[test]
    fn nested_fns_are_both_found() {
        let src = "fn outer() { fn inner() -> Result<(), E> { Ok(()) } inner(); }\n";
        let lexed = lex(src);
        let names: Vec<String> = functions(&lexed.toks).into_iter().map(|f| f.name).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn statements_split_on_semicolons_and_blocks() {
        let src = "fn f() { let a = 1; if a > 0 { g(); } else { h(); } k(); a }\n";
        let lexed = lex(src);
        let f = &functions(&lexed.toks)[0];
        let stmts = statements(&lexed.toks, f.body.clone());
        assert_eq!(stmts.len(), 4);
        assert!(stmts[0].semi); // let a = 1
        assert!(!stmts[1].semi); // if/else chain
        assert!(stmts[2].semi); // k()
        assert!(!stmts[3].semi); // tail `a`
    }

    #[test]
    fn struct_literal_braces_do_not_end_a_statement() {
        let src = "fn f() { let s = S { a: 1, b: 2 }; t(); }\n";
        let lexed = lex(src);
        let f = &functions(&lexed.toks)[0];
        let stmts = statements(&lexed.toks, f.body.clone());
        assert_eq!(stmts.len(), 2);
        assert!(stmts.iter().all(|s| s.semi));
    }

    #[test]
    fn path_before_walks_fields_and_indices() {
        let src = "self.state.lock(); deques[w].lock(); f().lock();";
        let lexed = lex(src);
        let locks: Vec<usize> = lexed
            .toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind.ident() == Some("lock"))
            .map(|(i, _)| i)
            .collect();
        // `path_before` is called with the index of the `.` before `lock`.
        assert_eq!(
            path_before(&lexed.toks, locks[0] - 1),
            vec!["self", "state"]
        );
        assert_eq!(path_before(&lexed.toks, locks[1] - 1), vec!["deques"]);
        assert_eq!(path_before(&lexed.toks, locks[2] - 1), Vec::<String>::new());
    }

    #[test]
    fn result_fns_are_collected() {
        let src =
            "fn a() -> Result<(), E> { Ok(()) }\nfn b() {}\nfn c() -> fmt::Result { Ok(()) }\n";
        let lexed = lex(src);
        assert_eq!(result_fn_names(&lexed.toks), vec!["a", "c"]);
    }
}
