# Convenience targets for the RedMulE reproduction.
#
#   make verify      — tier-1 gate plus the full workspace suite with
#                      the #[ignore]d deep sweeps, a warning-free clippy
#                      pass over every target (tests included), a
#                      formatting check, the modelcheck static analyzer,
#                      the rustdoc gate and the smoke gate (what CI runs,
#                      see .github/workflows/ci.yml)
#   make test        — fast: workspace tests only
#   make test-full   — workspace tests including the #[ignore]d deep
#                      sweeps, vector drift checks and the executor pool
#                      stress test (what CI's verify job runs on every
#                      push and pull request)
#   make modelcheck  — model-hygiene static analysis (DESIGN.md §10)
#   make modelcheck-json — same scan, machine-readable report written to
#                      modelcheck-report.json (the CI artifact)
#   make lint        — static gates only: modelcheck + warning-free
#                      clippy (the fast pre-push check)
#   make doc         — rustdoc with warnings denied, so a deleted item
#                      cannot leave a stale intra-doc link behind.
#                      redmule-perf is excluded: it is the benchmark
#                      harness, edited only together with the benchmark,
#                      and its one broken link (Workload::output_digest in
#                      crates/perf/src/workload.rs) waits for such a change
#   make figures     — regenerate every table/figure (quick sweep sizes)
#   make smoke       — the crash-recovery test suite, then every paper
#                      artefact (Table I, Figs. 3a-4d, ablations, faults,
#                      degradation) and every BENCH_*.json artefact at CI
#                      sizes in one `figures -- all` process, writing
#                      BENCH_{batch,trace,service,recovery,fp8}.json.
#                      Fails if any artefact hits an engine error or
#                      panics, or unless every guard holds: batch scaling;
#                      the Chrome trace export validates and is
#                      byte-identical across worker counts; the service
#                      report is byte-identical across 1/2/8 workers and
#                      degrades gracefully; every crash recovery is
#                      bit-exact, byte-identical across 1/2/8 workers and
#                      loses no work; the cycle model stays exact per
#                      format and FP8 never costs more cycles than FP16.
#                      Then fails if the four deterministic artefacts
#                      (BENCH_{trace,fp8,service,recovery}.json) differ
#                      from the committed bytes; BENCH_batch.json is left
#                      out, it records wall-clock columns. Then runs every
#                      example under examples/ and fails if one panics or
#                      returns an error; among them, the Fig. 2c example
#                      (trace_schedule.rs) rebuilds the streamer timeline
#                      from the engine's event log and fails unless the
#                      steady-state W cadence is P+1.

CARGO ?= cargo

.PHONY: verify build test test-full clippy fmt doc lint modelcheck modelcheck-json figures smoke

verify: build test-full lint fmt doc smoke

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q --workspace

test-full:
	$(CARGO) test -q --workspace -- --include-ignored

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

fmt:
	$(CARGO) fmt --all -- --check

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --exclude redmule-perf --no-deps

lint: modelcheck clippy

modelcheck:
	$(CARGO) run -q -p modelcheck

modelcheck-json:
	$(CARGO) run -q -p modelcheck -- --json > modelcheck-report.json

figures:
	$(CARGO) run --release -q -p redmule-bench --bin figures -- all

smoke:
	$(CARGO) test -q -p redmule-service --test recovery
	$(CARGO) run --release -q -p redmule-bench --bin figures -- all
	git diff --exit-code -- BENCH_trace.json BENCH_fp8.json BENCH_service.json BENCH_recovery.json
	for e in $(basename $(notdir $(wildcard examples/*.rs))); do \
		$(CARGO) run --release -q --example $$e || exit 1; \
	done
