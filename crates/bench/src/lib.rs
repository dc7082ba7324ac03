//! Benchmark harness regenerating every table and figure of the RedMulE
//! paper (DATE 2022).
//!
//! Each experiment of the evaluation section has a function here that
//! *runs the models* (cycle-accurate accelerator, software baseline,
//! area/power models, autoencoder training) and renders the same rows or
//! series the paper reports:
//!
//! | paper artefact | function |
//! |---|---|
//! | Table I | [`experiments::table1`] |
//! | Fig. 3a area breakdown | [`experiments::fig3a`] |
//! | Fig. 3b power breakdown | [`experiments::fig3b`] |
//! | Fig. 3c energy per MAC vs size | [`experiments::fig3c`] |
//! | Fig. 3d throughput vs size | [`experiments::fig3d`] |
//! | Fig. 4a HW vs SW vs ideal | [`experiments::fig4a`] |
//! | Fig. 4b area sweep over (H, L) | [`experiments::fig4b`] |
//! | Fig. 4c autoencoder per-layer | [`experiments::fig4c`] |
//! | Fig. 4d batching effect | [`experiments::fig4d`] |
//! | batch throughput scaling (`BENCH_batch.json`) | [`experiments::batch_throughput`] |
//! | service saturation (`BENCH_service.json`) | [`experiments::service_saturation`] |
//! | crash recovery (`BENCH_recovery.json`) | [`experiments::crash_recovery`] |
//!
//! The `figures` binary prints any subset (`cargo run --release -p
//! redmule-bench --bin figures -- all --full`); `make smoke` runs all of
//! them at the quick sizes on every CI run. The host wall-clock cost of
//! the simulators and kernels underneath is measured per layer by the
//! `redmule-perf` benchmark (`perf run --workload <name> --trace 1`), not
//! here.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod workloads;
