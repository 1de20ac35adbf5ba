//! # paradigm-cost — machine models and MDG cost functions
//!
//! Implements Section 4 of the paper: the *processing cost* model
//! (Amdahl's law, Eq. 1) and the *data transfer cost* model (Eq. 2 for 1D
//! ROW2ROW/COL2COL redistributions, Eq. 3 for 2D ROW2COL/COL2ROW), plus:
//!
//! * [`machine`] — named machine parameter sets; [`machine::Machine::cm5_64`]
//!   carries the exact constants of the paper's Tables 1–2;
//! * [`weights`] — exact evaluation of node weights `T_i`, edge weights
//!   `t^D`, the average finish time `A_p`, the critical path time `C_p`,
//!   and `Phi = max(A_p, C_p)` for a concrete allocation — the ground
//!   truth the convex solver and the scheduler both consume;
//! * [`regression`] — the *training sets* style parameter fitting
//!   (Balasundaram et al.) used to recover Table 1/Table 2 parameters
//!   from measurements, on a small private least-squares kernel.
//!
//! All cost components here are (generalized) posynomials in the
//! processor counts, which is what makes the allocation problem of
//! `paradigm-solver` convex after the log-variable substitution; the
//! property-based tests in this crate verify posynomial behaviour
//! numerically (log-log midpoint convexity).

mod linalg;
pub mod machine;
pub mod processing;
pub mod regression;
pub mod transfer;
pub mod weights;

pub use machine::{Machine, TransferParams, DEFAULT_MEM_BYTES};
pub use processing::{processing_area, processing_cost};
pub use transfer::{network_cost, recv_cost, send_cost, transfer_components, TransferCost};
pub use weights::{Allocation, MdgWeights, PhiBreakdown};
