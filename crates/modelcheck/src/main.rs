//! CLI entry point: `cargo run -p modelcheck [-- --root <path>] [--json]`.
//!
//! Prints one `RULE file:line: message` diagnostic per violation and
//! exits nonzero when any are found, so `make verify` and CI fail on the
//! first hygiene regression. With `--json` the report is emitted as a
//! single machine-readable JSON object instead (same exit codes) — CI
//! uploads it as a build artifact.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("modelcheck: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--help" | "-h" => {
                println!(
                    "modelcheck — RedMulE workspace hygiene analyzer\n\
                     \n\
                     USAGE: cargo run -p modelcheck [-- --root <workspace root>] [--json]\n\
                     \n\
                     Rules: RM-DET-001/002 (determinism), RM-FP-001 (softfloat\n\
                     only), RM-SNAP-001 (snapshot completeness), RM-PANIC-001\n\
                     (no panics), RM-LOCK-001 (lock-order cycles), RM-RACE-001\n\
                     (interleaving-ordered output), RM-ERR-001 (discarded\n\
                     Results), RM-ARITH-001 (unchecked cycle arithmetic),\n\
                     RM-DEAD-001 (pub fns no other file names),\n\
                     RM-ALLOW-001/002 (allowlist hygiene).\n\
                     \n\
                     --json emits the report as one JSON object (exit codes\n\
                     unchanged). See DESIGN.md §10 for the rule catalogue and\n\
                     how to allowlist a justified exception."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("modelcheck: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    // When invoked through cargo the working directory is already the
    // workspace root; fall back to the manifest's parent otherwise.
    if !root.join("crates").is_dir() {
        if let Ok(manifest_dir) = std::env::var("CARGO_MANIFEST_DIR") {
            let ws = PathBuf::from(manifest_dir).join("../..");
            if ws.join("crates").is_dir() {
                root = ws;
            }
        }
    }

    match modelcheck::check_workspace(&root) {
        Ok(report) => {
            if json {
                print!("{}", report.to_json());
                return if report.is_clean() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
            }
            for d in &report.diagnostics {
                println!("{d}");
            }
            if report.is_clean() {
                println!(
                    "modelcheck: clean — {} files, {} model + {} host crates, 0 violations",
                    report.files_scanned,
                    modelcheck::MODEL_CRATES.len(),
                    modelcheck::HOST_CRATES.len(),
                );
                ExitCode::SUCCESS
            } else {
                println!(
                    "modelcheck: {} violation(s) in {} files scanned",
                    report.diagnostics.len(),
                    report.files_scanned,
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("modelcheck: {e}");
            ExitCode::from(2)
        }
    }
}
