//! # paradigm-solver — convex programming allocation
//!
//! Solves the paper's Section 2 allocation problem: choose (continuous)
//! processor counts `p_i ∈ [1, p]` for every MDG node, minimizing
//!
//! ```text
//! Phi = max(A_p, C_p)
//! A_p = (1/p) Σ T_i p_i                      (average finish time)
//! C_p = y_STOP,  y_i = max_{m∈PRED}(y_m + t^D_mi) + T_i
//! ```
//!
//! Under the substitution `x_i = ln p_i`, every cost component is a
//! *generalized posynomial* (sums and pointwise maxima of monomials), so
//! both `A_p` and `C_p` — and hence `Phi` — are convex in `x`
//! (Section 2's claim; the one exception, the 1D network term when
//! `t_n > 0`, is replaced by a monomial upper bound; see
//! [`objective`]). A convex function over a box has no spurious local
//! minima, so a projected descent method with a smoothed `max` finds the
//! global optimum from one start.
//!
//! Module map:
//! * [`expr`] — generalized posynomial expression trees with smoothed
//!   evaluation and gradients in log-space;
//! * [`compiled`] — the level program: all expressions of an objective
//!   flattened into one program swept level by level (no re-evaluation
//!   on the backward pass, a level's smoothed maxes through one
//!   elementwise kernel), and its executor;
//! * [`objective`] — assembles `Phi` for an (MDG, machine) pair;
//! * [`descent`] — the one projected descent stage (Armijo backtracking
//!   along a limited-memory quasi-Newton or gradient direction, ended by
//!   a stationarity test) every descent in the tree calls;
//! * [`solve`] — sharpness annealing over that stage from one start,
//!   then the exact polish;
//! * [`bruteforce`] — exact power-of-two enumeration oracle for small
//!   graphs (used to validate solver quality);
//! * [`convexity`] — numeric convexity probes used by tests/ablations;
//! * [`error`] — typed solver failures ([`SolverError`]) and the tier
//!   labels ([`FallbackTier`]) an [`AllocationResult`] carries;
//! * [`coordinate`] — gradient-free coordinate descent, the differential
//!   oracle the gradient solver is tested against;
//! * [`workspace`] — reusable, pooled scratch buffers that make the
//!   descent loop allocation-free after warm-up;
//! * [`alloc_count`] — an optional counting global allocator backing the
//!   zero-allocation test, the `bench-solve` allocs/iter metric and the
//!   objective's byte guard (per-thread live bytes and high-water mark).

pub mod alloc_count;
pub mod bruteforce;
pub mod compiled;
pub mod convexity;
pub mod coordinate;
pub mod descent;
pub mod error;
pub mod expr;
pub mod objective;
pub mod race_suites;
pub mod solve;
pub mod workspace;

pub use alloc_count::{
    allocation_count, live_bytes, peak_bytes, reset_peak_bytes, CountingAllocator,
};
pub use bruteforce::{brute_force_pow2, BruteForceResult};
pub use compiled::TapeStats;
pub use coordinate::{allocate_coordinate, CoordinateConfig, CoordinateResult};
pub use descent::{descend, DescentModel, DescentState, Stage};
pub use error::{FallbackTier, SolverError};
pub use expr::{Expr, Monomial};
pub use objective::{DetachedObjective, MdgObjective};
pub use solve::{
    allocate, check_annealing, descend_stage, equal_split_allocation, optimality_residual,
    try_allocate, try_allocate_from, AllocationResult, SolverConfig, QN_MEMORY, STATIONARITY_TOL,
    WARM_TOL,
};
#[doc(hidden)]
pub use workspace::BatchWorkspace;
pub use workspace::{EvalScratch, PooledWorkspace, SolverWorkspace, SweepCounts};
