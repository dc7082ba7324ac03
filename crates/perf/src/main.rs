//! `perf` — the repository's closed-loop host wall-clock benchmark.
//!
//! ```text
//! cargo run --release -p redmule-perf -- run --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! cargo run --release -p redmule-perf -- run --all [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `BENCHMARK.json`'s command is the `run` prefix above; each benchmark
//! run appends `--workload`, `--seed`, `--seconds` and `--trace <0|1>`.
//!
//! One client thread keeps one request in flight against the system
//! under test (at most two host worker threads). An untraced run prints
//! the end-to-end metrics; a traced run (`--trace 1`) prints the per-layer
//! metrics and writes a Chrome trace. Every request's output is checked;
//! the last line of standard output is one JSON object with the verdict
//! and the metrics `BENCHMARK.json` names. See `README.md` for the metric
//! definitions and the workload rationale.

mod probe;
mod stats;
mod trace;
mod workload;

use probe::Totals;
use redmule_hwsim::fnv1a64;
use stats::{iqr, median, percentile, percentile_supported, tail_samples};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::{Recorder, SpanTotals};
use workload::{Kind, Output, Summary, Workload, POOL};

const USAGE: &str = "usage: perf run (--workload <name> | --all) [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--requests <n>]\n\
                     workloads: batch-small, batch-large, engine-cycle, service-durable";

/// An untraced run sets up at least this many times, and keeps setting
/// up until [`SETUP_BUDGET`] has passed; `setup_s` is the median.
const MIN_SETUPS: usize = 5;
/// Wall time an untraced run spends on repeated set-ups.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Untimed requests at the end of every set-up.
const WARMUP_REQUESTS: usize = 5;
/// Length of the measured phase when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`. Slow stretches of the host last
/// seconds, so a shorter phase can miss every quiet one.
const MEASURE_SECONDS: u64 = 20;
/// Timed requests an untraced run needs before it may stop, so that at
/// least ten samples lie beyond p95.
const MIN_TIMED_REQUESTS: usize = 200;
/// Cap on traced requests.
const MAX_TRACED_REQUESTS: usize = 100;
/// Spans written to the trace file. `validate_chrome_trace` takes time
/// quadratic in the document's size, so the file holds only the first
/// traced requests; metrics and the span table cover all of them.
const MAX_TRACE_FILE_SPANS: usize = 1500;
/// Host worker threads of the system under test (further capped by the
/// host's available parallelism).
const MAX_WORKERS: usize = 2;
/// Where result files and traces go, relative to the working directory.
const OUT_DIR: &str = "target/perf";

/// The end-to-end metrics `BENCHMARK.json` gates, in its order: those
/// steady enough across runs to gate (the rule is in README.md).
const GATED_END_TO_END: [&str; 3] = ["setup_s", "req_p10_ms", "peak_rss_mb"];

/// The per-layer metrics `BENCHMARK.json` records: the ones every
/// workload measures.
const GATED_PER_LAYER: [&str; 17] = [
    "batch.empty_run_us",
    "batch.empty_run_share",
    "batch.run_us_per_job",
    "batch.direct_us_per_job",
    "batch.report_json_us",
    "redmule.plan_ns_per_elem",
    "redmule.plan_share",
    "redmule.estimate_ns_per_job",
    "fp16.kernel_ns_per_mac",
    "fp16.kernel_share",
    "redmule.stage_workspace_us_per_job",
    "redmule.engine_sim_cycles_per_s",
    "redmule.ft_slowdown",
    "runtime.supervisor_overhead",
    "runtime.checkpoint_us",
    "runtime.checkpoint_bytes",
    "trace.overhead",
];

#[derive(Debug, Clone)]
struct Args {
    kind: Option<Kind>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Smoke mode: exactly this many requests per phase, a pool of that
    /// size and a single set-up. Allowed from debug builds.
    requests: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    if it.next().map(String::as_str) != Some("run") {
        return Err("expected the `run` subcommand".to_owned());
    }
    let mut a = Args {
        kind: None,
        all: false,
        seed: 1,
        seconds: MEASURE_SECONDS,
        trace: false,
        requests: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                a.kind = Some(Kind::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--all" => a.all = true,
            "--seed" => a.seed = number(&value("--seed")?)?,
            "--seconds" => a.seconds = number::<u64>(&value("--seconds")?)?.max(1),
            "--requests" => a.requests = Some(number::<usize>(&value("--requests")?)?.max(1)),
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.all == a.kind.is_some() {
        return Err("give exactly one of --workload <name> and --all".to_owned());
    }
    Ok(a)
}

fn number<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.kind {
        Some(kind) => run(&args, kind),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--all`: every workload in its own child process (so each reports its
/// own peak RSS), one after the other.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut ok = true;
    for kind in Kind::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        if args.trace {
            cmd.args(["--trace", "1"]);
        }
        if let Some(n) = args.requests {
            cmd.args(["--requests", &n.to_string()]);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("cannot run {}: {e}", kind.name()))?;
        if !status.success() {
            eprintln!("perf: {} exited with {status}", kind.name());
            ok = false;
        }
    }
    Ok(ok)
}

/// What the host offers and what the run uses of it.
#[derive(Debug, Clone, Copy)]
struct Host {
    available_parallelism: usize,
    workers: usize,
    avx2: bool,
}

impl Host {
    fn detect() -> Host {
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Host {
            available_parallelism,
            workers: MAX_WORKERS.min(available_parallelism),
            avx2,
        }
    }
}

/// A reported metric; `Err` carries why there is no number
/// (`unresolved` for a derived difference that came out negative).
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: Result<f64, &'static str>,
}

fn metric(name: &'static str, unit: &'static str, v: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if v.is_finite() { Ok(v) } else { Err("n/a") },
    }
}

/// A difference of two measurements: never clamped, `unresolved` when
/// negative (the parts were measured separately and noise won).
fn derived(name: &'static str, unit: &'static str, v: f64) -> Metric {
    Metric {
        value: if v >= 0.0 { Ok(v) } else { Err("unresolved") },
        ..metric(name, unit, v)
    }
}

/// Correctness bookkeeping across every executed request.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Reference summary of each pool request (`None` if it failed).
    refs: Vec<Option<Summary>>,
}

impl Checks {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    /// Runs every pool request once, untimed, through its oracle, and
    /// keeps the verified summaries as references.
    fn reference_pass(&mut self, w: &Workload) {
        let mut rec = Recorder::disabled();
        for i in 0..w.pool_len() {
            self.attempted += 1;
            let out = match w.execute(w.input(i), &mut rec) {
                Ok(out) => out,
                Err(e) => {
                    self.fail(format!("reference request {i}: {e}"));
                    self.refs.push(None);
                    continue;
                }
            };
            let s = w.summarize(i, &out);
            let mut bad = w.oracle(i, &out);
            if s.defects > 0 {
                bad.push(format!("{} jobs incomplete or diverged", s.defects));
            }
            if s.sim_cycles != w.kind.pinned_sim_cycles() {
                bad.push(format!(
                    "{} simulated cycles, pinned {}",
                    s.sim_cycles,
                    w.kind.pinned_sim_cycles()
                ));
            }
            if bad.is_empty() {
                self.refs.push(Some(s));
            } else {
                self.fail(format!("reference request {i}: {}", bad.join("; ")));
                self.refs.push(None);
            }
        }
    }

    /// Checks request `i`'s output against its pool reference.
    fn check(&mut self, w: &Workload, i: usize, out: &Result<Output, String>) -> bool {
        self.attempted += 1;
        let problem = match out {
            Err(e) => e.clone(),
            Ok(out) if self.refs[i % self.refs.len()] != Some(w.summarize(i, out)) => {
                "output differs from the verified reference".to_owned()
            }
            Ok(_) => return true,
        };
        self.fail(format!("request {i}: {problem}"));
        false
    }

    /// FNV-1a over the reference digests, in pool order.
    fn output_digest(&self) -> u64 {
        let bytes: Vec<u8> = self
            .refs
            .iter()
            .flat_map(|r| r.map_or(0, |s| s.digest).to_le_bytes())
            .collect();
        fnv1a64(&bytes)
    }
}

/// Runs requests back to back, one in flight, and returns each one's
/// wall time in ns. Stops after `exact` requests, or once `budget` has
/// passed and at least `min` requests ran (hard stop at 3x `budget`).
fn measure(
    w: &Workload,
    checks: &mut Checks,
    budget: Duration,
    min: usize,
    exact: Option<usize>,
) -> Vec<f64> {
    let mut rec = Recorder::disabled();
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let n = times.len();
        let done = match exact {
            Some(k) => n >= k,
            None => {
                let e = start.elapsed();
                (e >= budget && n >= min) || e >= budget * 3
            }
        };
        if done {
            return times;
        }
        let input = w.input(n);
        let t = Instant::now();
        let out = w.execute(input, &mut rec);
        times.push(t.elapsed().as_nanos() as f64);
        checks.check(w, n, &out);
    }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// One workload run. `Ok(false)` means it ran but an output check failed.
fn run(args: &Args, kind: Kind) -> Result<bool, String> {
    if cfg!(debug_assertions) && args.requests.is_none() {
        return Err(
            "refusing a timed run from a debug build: debug assertions in the fp16 \
                    kernel would dominate the numbers (build with --release, or pass \
                    --requests <n> for an untimed smoke run)"
                .to_owned(),
        );
    }
    let host = Host::detect();
    let exact = args.requests;
    let pool_len = exact.unwrap_or(POOL);
    let seconds = Duration::from_secs(args.seconds);
    println!(
        "== perf {} seed={} {} {} ==",
        kind.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        exact.map_or_else(
            || format!("{} s", args.seconds),
            |n| format!("{n} requests (smoke)")
        ),
    );
    println!(
        "host: available_parallelism={} workers={} avx2={} build={}",
        host.available_parallelism,
        host.workers,
        host.avx2,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );

    // Set-up: pool generation, executor/service construction, warm-up.
    // Traced and smoke runs set up once.
    let repeat = !args.trace && exact.is_none();
    let warmup = if exact.is_some() { 1 } else { WARMUP_REQUESTS };
    let mut setups = Vec::new();
    let setup_start = Instant::now();
    let w = loop {
        let t = Instant::now();
        let w = Workload::new(kind, args.seed, pool_len, host.workers)?;
        for i in 0..warmup {
            w.execute(w.input(i), &mut Recorder::disabled())?;
        }
        setups.push(t.elapsed().as_secs_f64());
        if !repeat || (setups.len() >= MIN_SETUPS && setup_start.elapsed() >= SETUP_BUDGET) {
            break w;
        }
    };

    let mut checks = Checks::default();
    checks.reference_pass(&w);
    let digest = checks.output_digest();
    let digest_ok = exact.is_some() || args.seed != 1 || digest == kind.pinned_seed1_digest();
    if !digest_ok {
        checks.problems.push(format!(
            "output digest {digest:#018x} differs from the pinned seed-1 digest {:#018x}",
            kind.pinned_seed1_digest()
        ));
    }
    let reference = checks.refs.iter().flatten().next().copied();

    let mut e2e = Vec::new();
    let mut layers = Vec::new();
    let mut spans = BTreeMap::new();
    let mut trace_ok = true;
    let samples;
    if args.trace {
        let untraced = sorted(measure(&w, &mut checks, seconds / 3, 20, exact));
        let untraced_p50 = percentile(&untraced, 50).unwrap_or(f64::NAN);
        let (rec, totals, traced) = traced_phase(&w, &mut checks, seconds * 2 / 3, exact);
        spans = rec.totals();
        let traced_p50 = median(&traced).unwrap_or(f64::NAN);
        layers = per_layer(&totals, &spans, untraced_p50, traced_p50);
        samples = untraced.len();
        let (json, written) = rec.chrome_json(kind.name(), MAX_TRACE_FILE_SPANS);
        match redmule::obs::validate_chrome_trace(&json) {
            Ok(s) if s.events == written && written > 0 => {}
            Ok(s) => {
                trace_ok = false;
                checks
                    .problems
                    .push(format!("trace has {} events for {written} spans", s.events));
            }
            Err(e) => {
                trace_ok = false;
                checks
                    .problems
                    .push(format!("trace does not validate: {e}"));
            }
        }
        write_out(&format!("{}.trace.json", kind.name()), &json)?;
    } else {
        let times = sorted(measure(&w, &mut checks, seconds, MIN_TIMED_REQUESTS, exact));
        samples = times.len();
        let total_s: f64 = times.iter().sum::<f64>() / 1e9;
        let ms = |p| percentile(&times, p).unwrap_or(f64::NAN) / 1e6;
        e2e = vec![
            metric("setup_s", "s", median(&setups).unwrap_or(f64::NAN)),
            metric(
                "jobs_per_s",
                "jobs/s",
                (kind.jobs_per_request() * times.len()) as f64 / total_s,
            ),
            metric("req_p10_ms", "ms", ms(10)),
            metric("req_p50_ms", "ms", ms(50)),
            metric("req_p95_ms", "ms", ms(95)),
            metric("peak_rss_mb", "MB", peak_rss_mb()?),
            metric(
                "failed_frac",
                "ratio",
                checks.failed as f64 / checks.attempted.max(1) as f64,
            ),
            metric(
                "sim_cycles",
                "cycles/req",
                reference.map_or(f64::NAN, |s| s.sim_cycles as f64),
            ),
            metric(
                "sim_macs_per_cycle",
                "MAC/cycle",
                reference.map_or(f64::NAN, |s| s.macs as f64 / s.mac_cycles as f64),
            ),
            metric("req_iqr_ms", "ms", iqr(&times).unwrap_or(f64::NAN) / 1e6),
        ];
    }

    let outcome = Outcome {
        correct: checks.failed == 0 && digest_ok && trace_ok,
        checks,
        digest,
        samples,
        e2e,
        layers,
        spans,
    };
    outcome.print();
    write_out(
        &format!("{}-{}.json", kind.name(), args.seed),
        &outcome.result_file(args, kind, host),
    )?;
    println!("{}", outcome.result_line(args.trace));
    Ok(outcome.correct)
}

/// The traced phase: each request runs inside a `request` span, then
/// the layer probes run on its jobs. Returns the recorder, the probe
/// totals and each traced request's wall time in ns.
fn traced_phase(
    w: &Workload,
    checks: &mut Checks,
    budget: Duration,
    exact: Option<usize>,
) -> (Recorder, Totals, Vec<f64>) {
    let mut rec = Recorder::enabled();
    let mut totals = Totals::default();
    let mut traced = Vec::new();
    let start = Instant::now();
    for r in 0.. {
        let done = match exact {
            Some(k) => r >= k,
            None => r >= MAX_TRACED_REQUESTS || (r > 0 && start.elapsed() >= budget),
        };
        if done {
            break;
        }
        rec.set_request(r as u64);
        let input = w.input(r);
        let (out, ns) = rec.span("request", |rec| w.execute(input, rec));
        traced.push(ns as f64);
        if checks.check(w, r, &out) {
            if let Ok(out) = &out {
                let probed = rec.span("probe", |rec| probe::request(rec, w, r, out, &mut totals));
                if let Err(e) = probed.0 {
                    checks.fail(format!("probe of request {r}: {e}"));
                }
            }
        }
    }
    (rec, totals, traced)
}

fn per_layer(
    t: &Totals,
    spans: &BTreeMap<&'static str, SpanTotals>,
    untraced_p50_ns: f64,
    traced_p50_ns: f64,
) -> Vec<Metric> {
    let per = |num: u64, den: u64| num as f64 / den as f64;
    let reqs = t.requests;
    let empty_us = per(t.empty_run_ns, reqs) / 1e3;
    let run1_us = per(t.run1_ns, t.jobs) / 1e3;
    let direct_us = per(t.direct_ns, t.jobs) / 1e3;
    let mut v = vec![
        metric("batch.empty_run_us", "us", empty_us),
        metric(
            "batch.empty_run_share",
            "ratio",
            empty_us * 1e3 / untraced_p50_ns,
        ),
        metric("batch.run_us_per_job", "us/job", run1_us),
        metric("batch.direct_us_per_job", "us/job", direct_us),
        derived("batch.dispatch_us_per_job", "us/job", run1_us - direct_us),
        metric(
            "batch.report_json_us",
            "us",
            per(t.report_json_ns, reqs) / 1e3,
        ),
        metric(
            "redmule.plan_ns_per_elem",
            "ns/elem",
            per(t.plan_ns, t.plan_elems),
        ),
        metric(
            "redmule.plan_share",
            "ratio",
            per(t.plan_ns, t.functional_ns),
        ),
        metric(
            "redmule.estimate_ns_per_job",
            "ns/job",
            per(t.estimate_ns, t.jobs),
        ),
        metric(
            "fp16.kernel_ns_per_mac",
            "ns/MAC",
            per(t.kernel_ns, t.kernel_macs),
        ),
        metric(
            "fp16.kernel_share",
            "ratio",
            per(t.kernel_ns, t.functional_ns),
        ),
        metric(
            "redmule.stage_workspace_us_per_job",
            "us/job",
            per(t.stage_ns, t.stages) / 1e3,
        ),
        metric(
            "redmule.engine_sim_cycles_per_s",
            "cycles/s",
            t.engine_cycles as f64 / (t.engine_ns as f64 / 1e9),
        ),
        metric("redmule.ft_slowdown", "ratio", per(t.ft_ns, t.engine_ns)),
        metric(
            "runtime.supervisor_overhead",
            "ratio",
            per(t.supervise_ns, t.engine_ns) - 1.0,
        ),
        metric(
            "runtime.checkpoint_us",
            "us",
            per(t.checkpoint_ns, t.checkpoints) / 1e3,
        ),
        metric(
            "runtime.checkpoint_bytes",
            "bytes",
            per(t.checkpoint_bytes, t.checkpoints),
        ),
        metric(
            "trace.overhead",
            "ratio",
            traced_p50_ns / untraced_p50_ns - 1.0,
        ),
    ];
    if t.service.loads > 0 {
        let s = &t.service;
        let mean_ms = |name: &str| {
            spans
                .get(name)
                .map_or(f64::NAN, |t| per(t.total_ns, t.count) / 1e6)
        };
        let run_ms = per(s.run_ns, reqs) / 1e6;
        let replay_ms = per(s.replay_ns, reqs) / 1e6;
        let durable_ms = mean_ms("service.run_durable");
        let [admitted, rejected, preemptions, evicted] = s.counts.map(|c| c as f64);
        v.extend([
            metric("service.run_ms", "ms", run_ms),
            metric("service.replay_ms", "ms", replay_ms),
            derived("service.decide_ms", "ms", run_ms - replay_ms),
            metric("service.durable_ms", "ms", durable_ms),
            derived("service.durable_extra_ms", "ms", durable_ms - run_ms),
            metric("service.recover_ms", "ms", mean_ms("service.recover")),
            metric("service.admitted", "count", admitted),
            metric("service.rejected", "count", rejected),
            metric("service.preemptions", "count", preemptions),
            metric("service.evicted", "count", evicted),
            metric(
                "store.append_us_per_record",
                "us/record",
                per(s.append_ns, s.records) / 1e3,
            ),
            metric(
                "store.scan_us_per_record",
                "us/record",
                per(s.scan_ns, s.records) / 1e3,
            ),
            metric(
                "store.publish_us",
                "us",
                per(s.publish_ns, s.publishes) / 1e3,
            ),
            metric("store.load_us", "us", per(s.load_ns, s.loads) / 1e3),
            metric("store.records", "count", per(s.records, reqs)),
            metric("store.journal_bytes", "bytes", per(s.journal_bytes, reqs)),
            metric(
                "store.checkpoints",
                "count",
                per(s.checkpoint_objects, reqs),
            ),
        ]);
    }
    v
}

/// Everything one run reports.
#[derive(Debug)]
struct Outcome {
    correct: bool,
    checks: Checks,
    digest: u64,
    /// Untraced timed requests.
    samples: usize,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    spans: BTreeMap<&'static str, SpanTotals>,
}

impl Outcome {
    /// The human-readable report.
    fn print(&self) {
        for (title, metrics) in [
            ("end-to-end (untraced)", &self.e2e),
            ("per-layer (traced)", &self.layers),
        ] {
            if metrics.is_empty() {
                continue;
            }
            println!("{title}");
            for m in metrics {
                let value = m.value.map_or_else(str::to_owned, |v| format!("{v:.6}"));
                println!("  {:<36} {:>18} {}", m.name, value, m.unit);
            }
        }
        if !self.spans.is_empty() {
            println!(
                "span self time{:>38} {:>12} {:>12}",
                "count", "total_ms", "self_ms"
            );
            for (name, t) in &self.spans {
                println!(
                    "  {:<36} {:>12} {:>12.3} {:>12.3}",
                    name,
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                );
            }
        }
        println!(
            "samples: {} untraced requests ({} beyond p95{})",
            self.samples,
            tail_samples(self.samples, 95),
            if percentile_supported(self.samples, 95) {
                ""
            } else {
                "; too few for a meaningful p95"
            }
        );
        println!("output_digest: {:#018x}", self.digest);
        for p in &self.checks.problems {
            println!("problem: {p}");
        }
        println!(
            "correct: {} (attempted {}, failed {})",
            self.correct, self.checks.attempted, self.checks.failed
        );
    }

    /// The last line of standard output: the verdict and the metrics
    /// `BENCHMARK.json` names for this kind of run.
    fn result_line(&self, trace: bool) -> String {
        let gated = if trace {
            pick(&self.layers, &GATED_PER_LAYER)
        } else {
            pick(&self.e2e, &GATED_END_TO_END)
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.checks.attempted,
            self.checks.failed,
            metrics_json(&gated)
        )
    }

    /// The result file: the run's settings, the host record and every
    /// metric, span total and problem.
    fn result_file(&self, args: &Args, kind: Kind, host: Host) -> String {
        let all = |v: &[Metric]| metrics_json(&v.iter().collect::<Vec<_>>());
        let mut spans = String::from("{");
        for (i, (name, t)) in self.spans.iter().enumerate() {
            if i > 0 {
                spans.push(',');
            }
            let _ = write!(
                spans,
                "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        spans.push('}');
        let problems: Vec<String> = self.checks.problems.iter().map(|p| json_str(p)).collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\"smoke_requests\":{},\
             \"host\":{{\"available_parallelism\":{},\"workers\":{},\"avx2\":{}}},\
             \"correct\":{},\"attempted\":{},\"failed\":{},\"output_digest\":\"{:#018x}\",\
             \"untraced_samples\":{},\"end_to_end\":{},\"per_layer\":{},\"spans\":{spans},\
             \"problems\":[{}]}}\n",
            kind.name(),
            args.seed,
            args.trace,
            args.seconds,
            args.requests.map_or("null".to_owned(), |n| n.to_string()),
            host.available_parallelism,
            host.workers,
            host.avx2,
            self.correct,
            self.checks.attempted,
            self.checks.failed,
            self.digest,
            self.samples,
            all(&self.e2e),
            all(&self.layers),
            problems.join(","),
        )
    }
}

/// The metrics named in `names`, in that order (missing names are
/// skipped; the smoke test catches any).
fn pick<'a>(metrics: &'a [Metric], names: &[&str]) -> Vec<&'a Metric> {
    names
        .iter()
        .filter_map(|n| metrics.iter().find(|m| m.name == *n))
        .collect()
}

fn metrics_json(metrics: &[&Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let value = m
            .value
            .map_or_else(|_| "null".to_owned(), |v| v.to_string());
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    out.push('}');
    out
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_out(file: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{file}");
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_invocation() {
        let a = args("run --workload batch-large --seed 7 --seconds 3 --trace 0").expect("parses");
        assert_eq!(a.kind, Some(Kind::BatchLarge));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, false));
        let a =
            args("run --workload engine-cycle --seed 2 --seconds 10 --trace 1").expect("parses");
        assert!(a.trace);
        let a = args("run --all").expect("parses");
        assert!(a.all && !a.trace);
        assert_eq!((a.seed, a.seconds), (1, MEASURE_SECONDS), "defaults");
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(args("run").is_err());
        assert!(args("run --workload nope").is_err());
        assert!(args("run --all --workload batch-small").is_err());
        assert!(args("bench --all").is_err());
        assert!(args("run --all --seed x").is_err());
        assert!(args("run --all --trace").is_err());
        assert!(args("run --all --trace yes").is_err());
    }

    #[test]
    fn problems_are_escaped_as_json_strings() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn negative_differences_are_unresolved_not_clamped() {
        assert_eq!(derived("d", "ms", -0.1).value, Err("unresolved"));
        assert_eq!(derived("d", "ms", 0.2).value, Ok(0.2));
        assert_eq!(metric("m", "ms", f64::NAN).value, Err("n/a"));
    }

    #[test]
    fn gated_per_layer_metrics_are_measured_for_every_workload() {
        let layers = per_layer(&Totals::default(), &BTreeMap::new(), 1.0, 1.0);
        for name in GATED_PER_LAYER {
            assert!(
                layers.iter().any(|m| m.name == name),
                "{name} is gated but never computed"
            );
        }
    }
}
