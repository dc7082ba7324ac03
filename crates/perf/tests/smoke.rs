//! Smoke test: every workload of `BENCHMARK.json` runs for two requests,
//! untraced and traced, passes its output checks, and prints exactly the
//! metrics `BENCHMARK.json` defines, with the units it defines. This keeps
//! the benchmark definition and the binary from drifting apart.

use std::path::PathBuf;
use std::process::Command;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `(name, unit)` of every entry in one array section of
/// `BENCHMARK.json` (`unit` is empty for workloads). Relies only on each
/// entry listing `name` before `unit`, as the file does.
fn entries(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("{\"name\"")
        .skip(1)
        .map(|entry| {
            let fields: Vec<&str> = entry.split('"').collect();
            let unit = match fields.get(3) {
                Some(&"unit") => fields[5].to_owned(),
                _ => String::new(),
            };
            (fields[1].to_owned(), unit)
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args([
            "run",
            "--workload",
            workload,
            "--requests",
            "2",
            "--trace",
            trace,
        ])
        .current_dir(workspace_root())
        .output()
        .expect("perf binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_prints_every_benchmark_metric() {
    let json = std::fs::read_to_string(workspace_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the workspace root");
    let workloads = entries(&json, "workloads");
    assert_eq!(workloads.len(), 4);
    for (workload, _) in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let stdout = run(workload, trace);
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\":true,"), "{workload}: {last}");
            let expected = entries(&json, section);
            assert_eq!(
                last.matches("{\"value\":").count(),
                expected.len(),
                "{workload} --trace {trace} prints other metrics than BENCHMARK.json: {last}"
            );
            for (name, unit) in expected {
                let key = format!("\"{name}\":{{\"value\":");
                let at = last
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}: {last}"));
                let value_unit = last[at + key.len()..].split('}').next().unwrap_or("");
                assert!(
                    !value_unit.starts_with("null"),
                    "{workload}: {name} has no value"
                );
                assert!(
                    value_unit.ends_with(&format!(",\"unit\":\"{unit}\"")),
                    "{workload}: {name} should be in {unit}: {value_unit}"
                );
                assert!(
                    stdout.contains(&format!("  {name} ")),
                    "{name} not in the table"
                );
            }
        }
    }
}
