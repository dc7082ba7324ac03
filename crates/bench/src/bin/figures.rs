//! Regenerates the paper's tables and figures from the simulation models.
//!
//! ```text
//! cargo run --release -p redmule-bench --bin figures -- all --full
//! cargo run --release -p redmule-bench --bin figures -- table1 fig4a
//! ```
//!
//! Without `--full`, the size sweeps stop at 128 (fast); with it they
//! extend to 512 like the paper (the software baseline simulation of
//! 512^3 takes ~30 s in release mode).
//!
//! Every experiment runs isolated: a panic or an engine error in one
//! artefact is recorded and the sweep continues with the next. The
//! process exits nonzero if anything failed, after printing a summary of
//! which artefacts succeeded and which did not.

use redmule::EngineError;
use redmule_bench::{experiments, workloads};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One artefact's outcome for the end-of-run summary.
enum Outcome {
    Ok,
    Error(EngineError),
    Panic(String),
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

/// Writes a benchmark artefact atomically: the bytes land in a temp
/// file first and are renamed over the target, so an interrupted run
/// never leaves a half-written `BENCH_*.json` behind.
fn write_artifact(name: &str, contents: &str) -> Result<(), EngineError> {
    let tmp = format!("{name}.tmp");
    std::fs::write(&tmp, contents)
        .and_then(|()| std::fs::rename(&tmp, name))
        .map_err(|e| EngineError::InvalidJob(format!("cannot write {name}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if wanted.is_empty() || wanted.contains(&"all") {
        wanted = vec![
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
    }
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
                    let bt = experiments::batch_throughput(smoke || !full)?;
                    write_artifact("BENCH_batch.json", &bt.to_json())?;
                    if let Some(violation) = bt.scaling_violation() {
                        return Err(EngineError::InvalidJob(format!(
                            "batch scaling guard failed: {violation}"
                        )));
                    }
                    Ok(format!("{bt}wrote BENCH_batch.json\n"))
                }),
            ),
            "trace" => record(
                item,
                run_isolated(item, || {
                    let te = experiments::trace_export(smoke || !full)?;
                    write_artifact("BENCH_trace.json", &te.json)?;
                    Ok(format!("{te}wrote BENCH_trace.json\n"))
                }),
            ),
            "service" => record(
                item,
                run_isolated(item, || {
                    let ss = experiments::service_saturation(smoke || !full)?;
                    write_artifact("BENCH_service.json", &ss.to_json())?;
                    if let Some(violation) = ss.degradation_violation() {
                        return Err(EngineError::InvalidJob(format!(
                            "service degradation guard failed: {violation}"
                        )));
                    }
                    Ok(format!("{ss}wrote BENCH_service.json\n"))
                }),
            ),
            "recover" => record(
                item,
                run_isolated(item, || {
                    let rs = experiments::crash_recovery(smoke || !full)?;
                    write_artifact("BENCH_recovery.json", &rs.to_json())?;
                    if let Some(violation) = rs.no_work_lost_violation() {
                        return Err(EngineError::InvalidJob(format!(
                            "recovery no-work-lost guard failed: {violation}"
                        )));
                    }
                    Ok(format!("{rs}wrote BENCH_recovery.json\n"))
                }),
            ),
            "fp8" => record(
                item,
                run_isolated(item, || {
                    let cmp = experiments::fp8_comparison(smoke || !full)?;
                    write_artifact("BENCH_fp8.json", &cmp.to_json())?;
                    if let Some(violation) = cmp.guard() {
                        return Err(EngineError::InvalidJob(format!(
                            "fp8 comparison guard failed: {violation}"
                        )));
                    }
                    Ok(format!("{cmp}wrote BENCH_fp8.json\n"))
                }),
            ),
            other => eprintln!(
                "unknown item `{other}` (try: all, table1, fig3a..fig4d, ablations, faults, \
                 degradation, batch, trace, service, recover, fp8)"
            ),
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
            Outcome::Ok => unreachable!("filtered above"),
        }
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
