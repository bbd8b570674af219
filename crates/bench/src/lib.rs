//! # smache-bench — experiment harnesses for every table and figure
//!
//! Regenerates the paper's evaluation artefacts on the simulated substrate:
//!
//! * `fig2` binary — the Fig. 2 comparison (baseline vs Smache on the
//!   11×11 / 4-point / circular-boundary workload, 100 work-instances):
//!   cycle count, Fmax, DRAM traffic, simulated execution time, MOPS,
//!   absolute and normalised, with the paper's numbers alongside.
//! * `table1` binary — Table I: estimated vs actual on-chip memory for
//!   {11×11, 1024×1024} × {Case-R, Case-H}.
//! * `ablations` binary — design-space studies motivated by §III: hybrid
//!   stretch-threshold sweep, grid-size scaling of the baseline/Smache
//!   gap, planning-strategy comparison, baseline pipelining depth, and
//!   DRAM row-miss-penalty sensitivity.
//! * Criterion benches (`cargo bench`) — micro and macro benchmarks of the
//!   same components, for regression tracking.
//!
//! The `fig2` and `table1` binaries additionally take `--sweep`/`--jobs`
//! flags to run multi-seed sweeps sharded across worker threads, writing
//! machine-readable `BENCH_fig2.json` / `BENCH_table1.json` summaries (see
//! `docs/PERFORMANCE.md` for how to read them).
//!
//! The library part holds the shared workload generators, the batch flag
//! group shared by the sweep binaries
//! (`--jobs`/`--replay`/`--store`/`--store-mb`/`--lane-block`), JSON
//! artefact emission, and plain-text table rendering.

#![warn(missing_docs)]

pub mod flags;
pub mod json;
pub mod report;
pub mod workloads;

pub use flags::BatchFlags;
pub use json::Json;
pub use report::Table;
pub use workloads::{paper_problem, PaperWorkload};
