# Convenience targets for the RedMulE reproduction.
#
#   make verify      — tier-1 gate plus the full workspace suite, a
#                      warning-free clippy pass over every target (tests
#                      included), a formatting check, the
#                      modelcheck static analyzer and the batch-bench
#                      smoke gate (what CI runs, see
#                      .github/workflows/ci.yml)
#   make test        — fast: workspace tests only
#   make test-full   — workspace tests including the #[ignore]d deep
#                      sweeps (what nightly CI runs)
#   make modelcheck  — model-hygiene static analysis (DESIGN.md §10)
#   make modelcheck-json — same scan, machine-readable report written to
#                      modelcheck-report.json (the CI artifact)
#   make lint        — static gates only: modelcheck + warning-free
#                      clippy (the fast pre-push check)
#   make figures     — regenerate every table/figure (quick sweep sizes)
#   make batch-smoke — batch-throughput smoke run; fails unless
#                      BENCH_batch.json exists and scaling holds
#   make trace-smoke — traced-batch smoke run; fails unless the Chrome
#                      trace export validates, is byte-identical across
#                      worker counts, and BENCH_trace.json exists
#   make service-smoke — service-saturation smoke run; fails unless the
#                      report is byte-identical across 1/2/8 workers,
#                      degradation is graceful, and BENCH_service.json
#                      exists
#   make recover-smoke — crash-recovery smoke run; kills a durable
#                      service run at a sweep of storage writes, fails
#                      unless every recovery is bit-exact, byte-identical
#                      across 1/2/8 workers, the no-work-lost guard
#                      holds, and BENCH_recovery.json exists
#   make fp8-smoke   — FP8 storage-format smoke run; fails unless the
#                      cycle model stays exact per format, FP8 never
#                      costs more cycles than FP16, and BENCH_fp8.json
#                      exists

CARGO ?= cargo

.PHONY: verify build test test-full clippy fmt lint modelcheck modelcheck-json figures batch-smoke trace-smoke service-smoke recover-smoke fp8-smoke

verify: build test lint fmt batch-smoke trace-smoke service-smoke recover-smoke fp8-smoke

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

lint: modelcheck clippy

modelcheck:
	$(CARGO) run -q -p modelcheck

modelcheck-json:
	$(CARGO) run -q -p modelcheck -- --json > modelcheck-report.json

figures:
	$(CARGO) run --release -q -p redmule-bench --bin figures -- all

batch-smoke:
	$(CARGO) run --release -q -p redmule-bench --bin figures -- batch --smoke
	test -f BENCH_batch.json

trace-smoke:
	$(CARGO) run --release -q -p redmule-bench --bin figures -- trace --smoke
	test -f BENCH_trace.json

service-smoke:
	$(CARGO) run --release -q -p redmule-bench --bin figures -- service --smoke
	test -f BENCH_service.json

recover-smoke:
	$(CARGO) test -q -p redmule-service --test recovery
	$(CARGO) run --release -q -p redmule-bench --bin figures -- recover --smoke
	test -f BENCH_recovery.json

fp8-smoke:
	$(CARGO) run --release -q -p redmule-bench --bin figures -- fp8 --smoke
	test -f BENCH_fp8.json
