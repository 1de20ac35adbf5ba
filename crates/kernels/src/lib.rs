//! # paradigm-kernels — dense matrix kernels and block distributions
//!
//! The three loop classes of the paper's test programs (matrix
//! initialization, addition, multiplication) as real numeric kernels,
//! plus the two composite algorithms the paper evaluates:
//!
//! * complex matrix multiplication in the 4-multiply/2-addition real form
//!   ([`complexmat`]);
//! * Strassen's algorithm, both the paper's single recursion level and a
//!   fully recursive variant ([`strassen`]).
//!
//! [`distribution`] models the block row/column distributions the cost
//! model assumes and produces exact *redistribution plans* — the
//! per-processor-pair byte counts of a 1D or 2D transfer — which the
//! simulator uses for message-level execution (giving it second-order
//! behaviour the aggregate cost model does not capture).
//!
//! Everything here is value-level: the test-suite verifies that the
//! composite algorithms produce numerically correct products and that
//! redistribution plans move each matrix element exactly once.

pub mod complexmat;
pub mod distribution;
pub mod grid;
pub mod matrix;
pub mod strassen;

pub use complexmat::ComplexMatrix;
pub use distribution::{
    block_range, block_ranges, gather, redistribution_plan, scatter, BlockDist, RedistMessage,
};
pub use grid::{grid_redistribution_plan, grid_transfer_cost, GridDist};
pub use matrix::Matrix;
pub use strassen::{strassen_multiply, strassen_one_level};
