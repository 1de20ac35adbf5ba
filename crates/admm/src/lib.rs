//! Distributed consensus-ADMM solver for huge macro-dataflow graphs.
//!
//! The dense solver in `paradigm-solver` evaluates a monomial tape over
//! every node and edge of the MDG on each gradient step; past a few
//! thousand compute nodes that single tape becomes the bottleneck and,
//! on a real distributed memory machine, would not even fit one node's
//! memory. This crate decomposes the convex allocation program instead
//! of the data: it
//!
//! 1. partitions the MDG into balanced, low-cut blocks with a
//!    deterministic multilevel heuristic ([`partition`]);
//! 2. builds, per block, a small self-contained sub-MDG whose objective
//!    agrees with the restriction of the global objective at the
//!    current consensus point ([`block`]); and
//! 3. reconciles the per-block solutions with a consensus-ADMM outer
//!    loop — boundary-variable averaging, scaled dual updates,
//!    over-relaxation, and residual-balancing penalty adaptation
//!    ([`consensus`]).
//!
//! Block x-updates are embarrassingly parallel and flow through the
//! [`BlockBackend`] trait: [`InProcessBackend`] fans out over scoped
//! threads with pooled solver workspaces, while `paradigm-serve` ships
//! the same [`BlockJob`]s to remote worker processes over the NDJSON
//! protocol. Every path is deterministic — identical results across
//! runs, thread counts, and transports.

pub mod block;
pub mod consensus;
pub mod partition;
pub mod race_suites;

pub use block::{
    build_block_problem, global_sweeps, solve_block_job, BlockJob, BlockMaps, BlockSolution,
    ConsensusTerm, GlobalSweeps, InnerConfig, TapeSlot,
};
pub use consensus::{
    solve_admm, solve_admm_in_process, AdmmConfig, AdmmResult, BackendFaultStats, BlockBackend,
    FailoverBackend, InProcessBackend,
};
pub use partition::{partition_mdg, Partition, PartitionOptions};
