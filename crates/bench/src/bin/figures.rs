//! Regenerates the paper's tables and figures from the simulation models.
//!
//! ```text
//! cargo run --release -p redmule-bench --bin figures -- all --full
//! cargo run --release -p redmule-bench --bin figures -- table1 fig4a
//! ```
//!
//! Without `--full`, the size sweeps stop at 128 and the `BENCH_*.json`
//! artefacts run at their CI sizes (fast); with it the sweeps extend to
//! 512 like the paper (the software baseline simulation of 512^3 takes
//! ~30 s in release mode). Any other flag stops the run before anything
//! executes (exit code 2), so a misspelt `--full` cannot silently run
//! the quick sweep.
//!
//! Every experiment runs isolated: a panic or an engine error in one
//! artefact is recorded and the sweep continues with the next. An
//! unknown item is recorded as a failure too, so a misspelt item cannot
//! pass a smoke gate by running nothing. The process exits nonzero if
//! anything failed, after printing a summary of which artefacts
//! succeeded and which did not.

use redmule::EngineError;
use redmule_bench::{experiments, workloads};
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One artefact's outcome for the end-of-run summary.
enum Outcome {
    Ok,
    Error(EngineError),
    Panic(String),
    Unknown,
}

/// Runs one experiment closure isolated from the rest of the sweep:
/// prints its rendering on success, records the error or panic otherwise.
fn run_isolated(name: &str, exp: impl FnOnce() -> Result<String, EngineError>) -> Outcome {
    match catch_unwind(AssertUnwindSafe(exp)) {
        Ok(Ok(text)) => {
            println!("{text}");
            Outcome::Ok
        }
        Ok(Err(e)) => {
            eprintln!("[{name}] engine error: {e}");
            Outcome::Error(e)
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            eprintln!("[{name}] panicked: {msg}");
            Outcome::Panic(msg)
        }
    }
}

/// Writes a benchmark artefact, then applies its guard: `json` lands in
/// `file` atomically (a temp file renamed over the target, so an
/// interrupted run never leaves a half-written `BENCH_*.json` behind),
/// even when `violation` then fails the artefact. On success returns
/// `text` followed by a `wrote <file>` line.
fn publish(
    file: &str,
    text: impl Display,
    json: &str,
    violation: Option<String>,
) -> Result<String, EngineError> {
    let tmp = format!("{file}.tmp");
    std::fs::write(&tmp, json)
        .and_then(|()| std::fs::rename(&tmp, file))
        .map_err(|e| EngineError::InvalidJob(format!("cannot write {file}: {e}")))?;
    match violation {
        Some(v) => Err(EngineError::InvalidJob(v)),
        None => Ok(format!("{text}wrote {file}\n")),
    }
}

/// Every item `all` (or an empty item list) stands for, in run order.
const ALL: [&str; 17] = [
    "table1",
    "fig3a",
    "fig3b",
    "fig3c",
    "fig3d",
    "fig4a",
    "fig4b",
    "fig4c",
    "fig4d",
    "ablations",
    "faults",
    "degradation",
    "batch",
    "trace",
    "service",
    "recover",
    "fp8",
];

/// Splits the command line into the `--full` switch and the requested
/// items, expanding `all` (or no item at all) to [`ALL`].
///
/// # Errors
///
/// Names the first flag other than `--full`: a misspelt flag fails the
/// run instead of silently running the quick sweep.
fn parse_args(args: &[String]) -> Result<(bool, Vec<&str>), String> {
    let mut full = false;
    let mut wanted = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--full" => full = true,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}` (the only flag is --full)"))
            }
            item => wanted.push(item),
        }
    }
    if wanted.is_empty() || wanted.contains(&"all") {
        wanted = ALL.to_vec();
    }
    Ok((full, wanted))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (full, wanted) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("figures: {e}");
            std::process::exit(2);
        }
    };
    let sizes = workloads::sweep_sizes(full);

    let mut results: Vec<(String, Outcome)> = Vec::new();
    let mut record = |name: &str, outcome: Outcome| results.push((name.to_owned(), outcome));

    for item in wanted {
        match item {
            "table1" => record(
                item,
                run_isolated(item, || Ok(experiments::table1(full)?.to_string())),
            ),
            "fig3a" => record(item, run_isolated(item, || Ok(experiments::fig3a()))),
            "fig3b" => record(item, run_isolated(item, || Ok(experiments::fig3b()))),
            "fig3c" => record(
                item,
                run_isolated(item, || Ok(experiments::fig3c(&sizes)?.to_string())),
            ),
            "fig3d" => record(
                item,
                run_isolated(item, || Ok(experiments::fig3d(&sizes)?.to_string())),
            ),
            "fig4a" => record(
                item,
                run_isolated(item, || {
                    let fig = experiments::fig4a(&sizes)?;
                    let gain = experiments::efficiency_gain(full)?;
                    Ok(format!(
                        "{fig}energy-efficiency gain over SW: {gain:.2}x (paper: up to 4.65x)\n"
                    ))
                }),
            ),
            "fig4b" => record(item, run_isolated(item, || Ok(experiments::fig4b()))),
            "fig4c" => record(
                item,
                run_isolated(item, || Ok(experiments::fig4c()?.to_string())),
            ),
            "fig4d" => record(
                item,
                run_isolated(item, || Ok(experiments::fig4d()?.to_string())),
            ),
            "ablations" => {
                record(
                    "ablation_pipeline",
                    run_isolated("ablation_pipeline", experiments::ablation_pipeline),
                );
                record(
                    "ablation_streamer",
                    run_isolated("ablation_streamer", experiments::ablation_streamer),
                );
                record(
                    "ablation_sw_kernel",
                    run_isolated("ablation_sw_kernel", experiments::ablation_sw_kernel),
                );
                record(
                    "contention",
                    run_isolated("contention", experiments::contention),
                );
            }
            "faults" => record(
                item,
                run_isolated(item, || Ok(experiments::fault_sweep()?.to_string())),
            ),
            "degradation" => record(item, run_isolated(item, experiments::degradation)),
            "batch" => record(
                item,
                run_isolated(item, || {
                    let bt = experiments::batch_throughput(!full)?;
                    let violation = bt
                        .scaling_violation()
                        .map(|v| format!("batch scaling guard failed: {v}"));
                    publish("BENCH_batch.json", &bt, &bt.to_json(), violation)
                }),
            ),
            "trace" => record(
                item,
                run_isolated(item, || {
                    let te = experiments::trace_export(!full)?;
                    publish("BENCH_trace.json", &te, &te.json, None)
                }),
            ),
            "service" => record(
                item,
                run_isolated(item, || {
                    let ss = experiments::service_saturation(!full)?;
                    let violation = ss
                        .degradation_violation()
                        .map(|v| format!("service degradation guard failed: {v}"));
                    publish("BENCH_service.json", &ss, &ss.to_json(), violation)
                }),
            ),
            "recover" => record(
                item,
                run_isolated(item, || {
                    let rs = experiments::crash_recovery(!full)?;
                    let violation = rs
                        .no_work_lost_violation()
                        .map(|v| format!("recovery no-work-lost guard failed: {v}"));
                    publish("BENCH_recovery.json", &rs, &rs.to_json(), violation)
                }),
            ),
            "fp8" => record(
                item,
                run_isolated(item, || {
                    let cmp = experiments::fp8_comparison(!full)?;
                    let violation = cmp
                        .guard()
                        .map(|v| format!("fp8 comparison guard failed: {v}"));
                    publish("BENCH_fp8.json", &cmp, &cmp.to_json(), violation)
                }),
            ),
            other => {
                eprintln!(
                    "unknown item `{other}` (try: all, table1, fig3a..fig4d, ablations, faults, \
                     degradation, batch, trace, service, recover, fp8)"
                );
                record(other, Outcome::Unknown);
            }
        }
    }

    let failures: Vec<&(String, Outcome)> = results
        .iter()
        .filter(|(_, o)| !matches!(o, Outcome::Ok))
        .collect();
    eprintln!(
        "figures: {} artefact(s) regenerated, {} failed",
        results.len() - failures.len(),
        failures.len()
    );
    for (name, outcome) in &failures {
        match outcome {
            Outcome::Error(e) => eprintln!("  FAILED {name}: {e}"),
            Outcome::Panic(msg) => eprintln!("  PANICKED {name}: {msg}"),
            Outcome::Unknown => eprintln!("  UNKNOWN item {name}"),
            Outcome::Ok => unreachable!("filtered above"),
        }
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(args: &[&str]) -> Vec<String> {
        args.iter().map(|&a| a.to_owned()).collect()
    }

    #[test]
    fn unknown_flags_fail_the_run() {
        assert_eq!(parse_args(&owned(&[])), Ok((false, ALL.to_vec())));
        assert_eq!(
            parse_args(&owned(&["all", "--full"])),
            Ok((true, ALL.to_vec()))
        );
        assert_eq!(
            parse_args(&owned(&["fig4a", "table1"])),
            Ok((false, vec!["fig4a", "table1"]))
        );
        for flag in ["--ful", "--smoke", "-f"] {
            let err = parse_args(&owned(&["table1", flag])).expect_err(flag);
            assert!(err.contains(flag), "{err}");
        }
    }
}
