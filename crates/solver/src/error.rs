//! Typed solver failures and the degradation-ladder tier labels.
//!
//! [`SolverError`] replaces the panics the solver used to raise on bad
//! configurations, non-finite objectives, and exhausted budgets, so the
//! serving layer can turn solver misbehavior into a *degraded* answer
//! instead of a dead worker. [`FallbackTier`] records which rung of the
//! ladder produced an [`crate::AllocationResult`]:
//!
//! 1. `Primary` — the projected descent solve succeeded;
//! 2. `Coordinate` — the gradient solver failed, the gradient-free
//!    coordinate-descent cross-check produced the allocation;
//! 3. `EqualSplit` — both solvers failed; the analytic `p/m`-per-node
//!    split is always finite and feasible.

use std::time::Duration;

/// Which rung of the degradation ladder produced an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FallbackTier {
    /// The projected-gradient solver succeeded (no degradation).
    Primary,
    /// The distributed consensus-ADMM solver produced the allocation
    /// (a peer of `Primary` for graphs too large for one dense solve,
    /// not a degradation rung).
    Admm,
    /// Fell back to gradient-free coordinate descent.
    Coordinate,
    /// Fell back to the analytic equal-split allocation.
    EqualSplit,
}

impl FallbackTier {
    /// Stable wire/report label for the tier.
    pub fn as_str(self) -> &'static str {
        match self {
            FallbackTier::Primary => "none",
            FallbackTier::Admm => "admm",
            FallbackTier::Coordinate => "coordinate",
            FallbackTier::EqualSplit => "equal-split",
        }
    }

    /// True for any tier below the primary solver. The ADMM tier is an
    /// alternative full-quality path, not a degradation.
    pub fn is_degraded(self) -> bool {
        !matches!(self, FallbackTier::Primary | FallbackTier::Admm)
    }
}

impl std::fmt::Display for FallbackTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A solver failure the caller can act on (retry, degrade, reject).
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// The [`crate::SolverConfig`] or the caller's start point is unusable
    /// (non-finite sharpness, sharpness below 1, bad tolerance; a start of
    /// the wrong length or outside the box).
    InvalidConfig(String),
    /// The (graph, machine) pair cannot form a valid objective
    /// (non-finite node costs, invalid transfer constants).
    BadObjective(String),
    /// The solve ended on a non-finite objective value.
    NonFinite {
        /// The (non-finite) `Phi` it ended on.
        phi: f64,
    },
    /// The time/iteration budget was exhausted before any descent
    /// progress was made.
    BudgetExceeded {
        /// Wall time spent before giving up.
        elapsed: Duration,
        /// Gradient iterations completed before giving up.
        iterations: usize,
    },
    /// A unit of solver work was lost: an ADMM block backend failed or
    /// short-changed a round. (Named for the multistart's start threads,
    /// which no longer exist.)
    StartPanicked(String),
    /// Brute-force enumeration would exceed the caller's limit.
    TooLarge {
        /// The number of combinations that would have to be evaluated.
        combinations: u128,
    },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::InvalidConfig(msg) => write!(f, "invalid solver config: {msg}"),
            SolverError::BadObjective(msg) => write!(f, "objective cannot be built: {msg}"),
            SolverError::NonFinite { phi } => {
                write!(f, "solver produced a non-finite objective (Phi = {phi})")
            }
            SolverError::BudgetExceeded { elapsed, iterations } => write!(
                f,
                "solver budget exhausted after {} ms / {iterations} iterations",
                elapsed.as_millis()
            ),
            SolverError::StartPanicked(msg) => write!(f, "solver start panicked: {msg}"),
            SolverError::TooLarge { combinations } => {
                write!(f, "brute force would evaluate {combinations} allocations")
            }
        }
    }
}

impl std::error::Error for SolverError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_labels_are_stable() {
        assert_eq!(FallbackTier::Primary.as_str(), "none");
        assert_eq!(FallbackTier::Admm.as_str(), "admm");
        assert_eq!(FallbackTier::Coordinate.as_str(), "coordinate");
        assert_eq!(FallbackTier::EqualSplit.as_str(), "equal-split");
        assert!(!FallbackTier::Primary.is_degraded());
        assert!(!FallbackTier::Admm.is_degraded());
        assert!(FallbackTier::Coordinate.is_degraded());
        assert!(FallbackTier::EqualSplit.is_degraded());
    }

    #[test]
    fn errors_render_their_facts() {
        let e = SolverError::BudgetExceeded { elapsed: Duration::from_millis(7), iterations: 3 };
        let s = e.to_string();
        assert!(s.contains("7 ms") && s.contains("3 iterations"), "{s}");
        let t = SolverError::TooLarge { combinations: 27 }.to_string();
        assert!(t.contains("27"), "{t}");
    }
}
