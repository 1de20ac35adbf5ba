//! # paradigm-repro — reproduction suite root
//!
//! This package hosts the workspace-level artifacts of the ICPP'94
//! PARADIGM reproduction:
//!
//! * `examples/` — eight runnable walkthroughs (`quickstart`,
//!   `complex_matmul`, `strassen`, `machine_sweep`, `random_workloads`,
//!   `workload_gallery`, `mdg_from_file`, `mini_language`);
//! * `tests/` — cross-crate integration suites (pipeline, theorems,
//!   calibration, value correctness, robustness, properties), and
//!   `repro`, which regenerates every paper table, figure and ablation
//!   through `paradigm_core::experiments` and checks each printed block
//!   against `EXPERIMENTS.md`.
//!
//! The library surface lives in the sub-crates; start from
//! [`paradigm_core::prelude`] or read `README.md` / `DESIGN.md` /
//! `EXPERIMENTS.md` at the repository root.

pub use paradigm_core;
