//! Typed solver failures and the tier labels.
//!
//! [`SolverError`] replaces the panics the solver used to raise on bad
//! configurations and non-finite objectives, so a caller decides what a
//! failed solve becomes: the serving layer answers that request alone
//! with the analytic equal split. [`FallbackTier`]
//! records which tier produced an [`crate::AllocationResult`]:
//!
//! 1. `Primary` — the projected descent solve;
//! 2. `Admm` — the consensus-ADMM solve, a peer of `Primary`;
//! 3. `EqualSplit` — the analytic `p/m`-per-node split, always finite and
//!    feasible, served in place of a failed solve.

/// Which tier produced an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FallbackTier {
    /// The projected-gradient solver succeeded (no degradation).
    Primary,
    /// The distributed consensus-ADMM solver produced the allocation
    /// (a peer of `Primary` for graphs too large for one dense solve,
    /// not a degradation rung).
    Admm,
    /// Fell back to the analytic equal-split allocation.
    EqualSplit,
}

impl FallbackTier {
    /// Stable wire/report label for the tier.
    pub fn as_str(self) -> &'static str {
        match self {
            FallbackTier::Primary => "none",
            FallbackTier::Admm => "admm",
            FallbackTier::EqualSplit => "equal-split",
        }
    }

    /// True for the equal split. The ADMM tier is an alternative
    /// full-quality path, not a degradation.
    pub fn is_degraded(self) -> bool {
        self == FallbackTier::EqualSplit
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
    /// The machine cannot form a valid objective (no processors, invalid
    /// transfer constants).
    BadObjective(String),
    /// The solve ended on a non-finite objective value.
    NonFinite {
        /// The (non-finite) `Phi` it ended on.
        phi: f64,
    },
    /// An ADMM block was lost: the block backend failed or short-changed
    /// a round.
    BlockLost(String),
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
            SolverError::BlockLost(msg) => write!(f, "ADMM block lost: {msg}"),
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
        assert_eq!(FallbackTier::EqualSplit.as_str(), "equal-split");
        assert!(!FallbackTier::Primary.is_degraded());
        assert!(!FallbackTier::Admm.is_degraded());
        assert!(FallbackTier::EqualSplit.is_degraded());
    }

    #[test]
    fn errors_render_their_facts() {
        let e = SolverError::BlockLost("block 3: worker crashed".into()).to_string();
        assert_eq!(e, "ADMM block lost: block 3: worker crashed");
        let t = SolverError::TooLarge { combinations: 27 }.to_string();
        assert!(t.contains("27"), "{t}");
    }
}
