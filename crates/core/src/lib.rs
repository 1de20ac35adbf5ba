//! # paradigm-core — the end-to-end PARADIGM pipeline
//!
//! Ties the sub-crates into the compiler flow of the paper's Section 1.2:
//!
//! 1. *MDG construction* — `paradigm-mdg` (builders for the paper's test
//!    programs, or your own via [`paradigm_mdg::MdgBuilder`]);
//! 2. *weight determination* — [`calibrate()`](calibrate::calibrate):
//!    run training-set measurements on the (simulated) machine and fit
//!    the cost-model parameters by regression;
//! 3. *allocation & scheduling* — [`compile()`] under a [`SolveSpec`]:
//!    convex-programming allocation followed by the PSA;
//! 4. *code generation* — MPMD/SPMD lowering to task programs;
//! 5. *execution* — the message-level simulator stands in for the CM-5.
//!
//! [`experiments`] is the reproduction driver: one function per table,
//! figure and ablation of the paper's evaluation, each returning its
//! printed block; `tests/repro.rs` checks every block against
//! `EXPERIMENTS.md`.
//!
//! ## Quickstart
//!
//! ```
//! use paradigm_core::prelude::*;
//!
//! // The paper's first test program on a 16-node CM-5.
//! let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
//! let spec = SolveSpec::new(Machine::cm5(16));
//! let compiled = compile(&g, &spec).expect("a valid spec and a finite Phi");
//! assert!(compiled.t_psa >= compiled.phi.phi * 0.99);
//!
//! // Execute the MPMD program on the simulated machine.
//! let truth = TrueMachine::cm5(16);
//! let run = run_mpmd(&g, &compiled, &truth);
//! assert!(run.makespan > 0.0);
//! ```

pub mod calibrate;
pub mod compile;
pub mod experiments;
pub mod pipeline;
pub mod programs;
pub mod report;

pub use compile::{compile, PipelineError, SolveSpec, MAX_PROCS};
pub use pipeline::{
    gallery_graph, machine_from_spec, solve_fingerprint, solve_pipeline_degraded,
    try_solve_pipeline, try_solve_pipeline_in, try_solve_pipeline_with_backend, AdmmStats,
    AllocEntry, SolveOutput, GALLERY_NAMES, MACHINE_SPECS,
};

// Re-exported so downstream crates (e.g. `paradigm-serve`) can name the
// solver's failure types, and the workspace a solve runs on, without
// depending on `paradigm-solver` directly.
pub use paradigm_solver::{FallbackTier, SolverError, SolverWorkspace};

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::calibrate::{calibrate, Calibration};
    pub use crate::compile::{compile, run_mpmd, run_spmd, Compiled, PipelineError, SolveSpec};
    pub use crate::programs::TestProgram;
    pub use paradigm_cost::{Allocation, Machine, MdgWeights, TransferParams};
    pub use paradigm_mdg::{
        complex_matmul_mdg, example_fig1_mdg, strassen_mdg, AmdahlParams, ArrayTransfer,
        KernelCostTable, Mdg, MdgBuilder, NodeId, TransferKind,
    };
    pub use paradigm_sched::{psa_schedule, spmd_schedule, PsaConfig, Schedule};
    pub use paradigm_sim::{simulate, SimResult, TrueMachine};
    pub use paradigm_solver::{
        allocate, AllocationResult, FallbackTier, SolverConfig, SolverError,
    };
}
