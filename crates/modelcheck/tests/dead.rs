//! RM-DEAD-001 over a synthetic workspace: a `pub fn` in a checked crate
//! is flagged unless another file names it outside `#[cfg(test)]` items.
//! Integration tests count as callers; the defining file, a unit-test
//! module, a `pub use` re-export and a same-named `fn` declared elsewhere
//! do not.

mod common;

use common::TempWorkspace;

#[test]
fn dead_pub_fns_are_flagged_at_their_line() {
    let ws = TempWorkspace::new("dead");
    ws.write(
        "crates/hwsim/src/lib.rs",
        "pub mod a;\nmod b;\npub use a::reexported;\n",
    );
    ws.write(
        "crates/hwsim/src/a.rs",
        "pub fn unused() {}\n\
         pub fn test_only() {}\n\
         pub fn called() { own_file_only() }\n\
         pub const fn from_tests_dir() -> u8 { 0 }\n\
         pub fn reexported() {}\n\
         // modelcheck-allow: RM-DEAD-001 -- kept to pin the allowlist path\n\
         pub fn allowed() {}\n\
         pub(crate) fn crate_private() {}\n\
         pub fn own_file_only() {}\n",
    );
    ws.write(
        "crates/hwsim/src/b.rs",
        "fn caller() { crate::a::called(); crate::a::crate_private(); }\n\
         fn unused() {}\n\
         #[cfg(test)]\n\
         mod tests {\n    #[test]\n    fn t() { crate::a::test_only(); }\n}\n",
    );
    ws.write(
        "crates/hwsim/tests/it.rs",
        "#[test]\nfn reaches() { assert_eq!(hwsim::a::from_tests_dir(), 0); }\n",
    );

    let report = modelcheck::check_workspace(&ws.root).expect("scan succeeds");
    let found: Vec<(String, u32, &str)> = report
        .diagnostics
        .iter()
        .map(|d| (d.file.replace('\\', "/"), d.line, d.rule))
        .collect();
    let a = "crates/hwsim/src/a.rs".to_string();
    assert_eq!(
        found,
        vec![
            (a.clone(), 1, "RM-DEAD-001"), // only b.rs's own `fn unused`
            (a.clone(), 2, "RM-DEAD-001"), // only b.rs's #[cfg(test)] module
            (a.clone(), 5, "RM-DEAD-001"), // only a re-export names it
            (a, 9, "RM-DEAD-001"),         // only its own file calls it
        ],
        "{:#?}",
        report.diagnostics
    );
    assert!(report.diagnostics[0].message.contains("`unused`"));
}
