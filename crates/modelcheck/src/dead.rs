//! RM-DEAD-001: no `pub fn` that no other workspace file names.
//!
//! A `pub fn` is surface: it promises a caller outside its own file.
//! When no other `.rs` file in the workspace names it outside
//! `#[cfg(test)]` items, it is either dead (only its own unit tests reach
//! it) or private in all but name. The caller index ([`Callers`]) covers
//! every `.rs` file of the workspace — every crate's `src/`, `tests/`,
//! `examples/` and bins, and the root package — so an integration test
//! or an example is a real caller, while a unit-test module is not.
//!
//! The match is by name, like every modelcheck rule: a second function of
//! the same name elsewhere keeps both alive. A `use` declaration is not a
//! caller (a `pub use` re-export calls nothing), and neither is a `fn`
//! header that merely declares the same name.

use crate::lexer::{Tok, TokKind};
use crate::rules::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// Identifier → the files that name it outside `#[cfg(test)]` items,
/// `use` declarations and `fn` headers.
pub type Callers = BTreeMap<String, BTreeSet<String>>;

/// Folds the identifiers of one file into `callers`. `toks` is the file's
/// token stream with its `#[cfg(test)]` items stripped
/// ([`crate::scope::non_cfg_test_tokens`]).
pub fn add_callers(label: &str, toks: &[Tok], callers: &mut Callers) {
    let mut i = 0usize;
    while i < toks.len() {
        match toks[i].kind.ident() {
            Some("use") => {
                i += toks[i..]
                    .iter()
                    .position(|t| t.kind.is_punct(';'))
                    .map_or(toks.len(), |off| off + 1);
                continue;
            }
            Some("fn") => i += 1, // the declared name is not a caller
            Some(name) => {
                callers
                    .entry(name.to_string())
                    .or_default()
                    .insert(label.to_string());
            }
            None => {}
        }
        i += 1;
    }
}

/// RM-DEAD-001 over one file's non-test tokens: every `pub fn` / `pub
/// const fn` whose name no other file in `callers` holds.
pub fn rule_dead_001(file: &str, toks: &[Tok], callers: &Callers, out: &mut Vec<Diagnostic>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind.ident() != Some("pub") {
            continue;
        }
        let fn_at = match toks.get(i + 1).and_then(|n| n.kind.ident()) {
            Some("fn") => i + 1,
            Some("const") if toks.get(i + 2).and_then(|n| n.kind.ident()) == Some("fn") => i + 2,
            _ => continue,
        };
        let Some(name_tok) = toks.get(fn_at + 1) else {
            continue;
        };
        let TokKind::Ident(name) = &name_tok.kind else {
            continue;
        };
        let named_elsewhere = callers
            .get(name)
            .is_some_and(|files| files.iter().any(|f| f != file));
        if !named_elsewhere {
            out.push(Diagnostic {
                rule: "RM-DEAD-001",
                file: file.to_string(),
                line: name_tok.line,
                message: format!(
                    "pub fn `{name}` is named by no other workspace file outside \
                     #[cfg(test)]: delete it if only its tests call it, drop `pub` \
                     if only this file does, or justify with an allow comment"
                ),
            });
        }
    }
}
