//! Pins the diagnostic ordering contract: a workspace scan reports
//! findings sorted by `(file, line, rule)`, regardless of crate walk
//! order or which rule produced them. CI diffs and the `--json` artifact
//! rely on this being byte-stable across runs and machines.

mod common;

use common::TempWorkspace;

#[test]
fn diagnostics_are_sorted_by_file_line_rule() {
    let ws = TempWorkspace::new("sort");
    // Two crates, interleaved alphabetically with multiple rules firing
    // per file — including two different rules on the same line.
    ws.write(
        "crates/hwsim/src/lib.rs",
        "fn f() { let t = Instant::now(); let m: HashMap<u8, u8> = HashMap::new(); }\n\
         fn g(total_cycles: u64) -> u64 { total_cycles + 1 }\n",
    );
    ws.write(
        "crates/batch/src/lib.rs",
        "fn h(x: Option<u8>) -> u8 { x.unwrap() }\n\
         fn k() { let m = HashSet::<u8>::new(); }\n",
    );

    let report = modelcheck::check_workspace(&ws.root).expect("scan succeeds");
    assert!(
        report.diagnostics.len() >= 5,
        "expected several findings: {:#?}",
        report.diagnostics
    );

    let keys: Vec<(String, u32, &str)> = report
        .diagnostics
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        keys, sorted,
        "diagnostics must come out (file, line, rule)-sorted"
    );

    // batch sorts before hwsim; within hwsim line 1, RM-DET-001 sorts
    // before RM-DET-002 even though the Instant appears first in source.
    let first_hwsim = keys
        .iter()
        .position(|(f, _, _)| f.contains("hwsim"))
        .expect("hwsim findings present");
    assert!(keys[..first_hwsim]
        .iter()
        .all(|(f, _, _)| f.contains("batch")));
    assert_eq!(keys[first_hwsim].2, "RM-DET-001");

    // Two scans of the same tree are byte-identical (JSON artifact
    // stability).
    let again = modelcheck::check_workspace(&ws.root).expect("rescan succeeds");
    assert_eq!(report.to_json(), again.to_json());
}
