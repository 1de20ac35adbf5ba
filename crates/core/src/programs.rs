//! The paper's test programs as a small registry, so examples, the reproduction driver
//! and tests all agree on the exact workloads being reproduced.

use paradigm_kernels::{strassen_one_level, ComplexMatrix, Matrix};
use paradigm_mdg::{complex_matmul_mdg, strassen_mdg, KernelCostTable, Mdg};

/// A named evaluation program (paper Section 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestProgram {
    /// Complex Matrix Multiply on `n x n` complex matrices (paper: 64).
    ComplexMatMul {
        /// Matrix dimension.
        n: usize,
    },
    /// One-level Strassen on `n x n` matrices (paper: 128).
    Strassen {
        /// Matrix dimension.
        n: usize,
    },
}

impl TestProgram {
    /// The two configurations evaluated in the paper.
    pub fn paper_suite() -> [TestProgram; 2] {
        [TestProgram::ComplexMatMul { n: 64 }, TestProgram::Strassen { n: 128 }]
    }

    /// Printable name matching the paper's tables.
    pub fn name(&self) -> String {
        match self {
            TestProgram::ComplexMatMul { n } => format!("Complex Matrix Multiply ({n}x{n})"),
            TestProgram::Strassen { n } => format!("Strassen's Matrix Multiply ({n}x{n})"),
        }
    }

    /// Build the MDG with the given kernel cost table.
    pub fn build(&self, costs: &KernelCostTable) -> Mdg {
        match self {
            TestProgram::ComplexMatMul { n } => complex_matmul_mdg(*n, costs),
            TestProgram::Strassen { n } => strassen_mdg(*n, costs),
        }
    }

    /// Value-level verification: run the exact computation the MDG
    /// encodes (via `paradigm-kernels`) on deterministic random inputs
    /// and compare against an independent reference implementation.
    /// Returns the maximum absolute element error.
    pub fn verify_numerics(&self, seed: u64) -> f64 {
        match self {
            TestProgram::ComplexMatMul { n } => {
                let a = ComplexMatrix::random(*n, *n, seed);
                let b = ComplexMatrix::random(*n, *n, seed ^ 0x9e37);
                // The MDG's computation: M1..M4, Cr = M1-M2, Ci = M3+M4.
                let got = a.mul_4m2a(&b);
                let want = a.mul_reference(&b);
                got.max_abs_diff(&want)
            }
            TestProgram::Strassen { n } => {
                let a = Matrix::random(*n, *n, seed);
                let b = Matrix::random(*n, *n, seed ^ 0x9e37);
                // The MDG's computation: one Strassen recursion level.
                let got = strassen_one_level(&a, &b);
                let want = a.mul(&b);
                got.max_abs_diff(&want)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_suite_builds() {
        for prog in TestProgram::paper_suite() {
            let g = prog.build(&KernelCostTable::cm5());
            assert!(g.compute_node_count() >= 10);
            assert!(!prog.name().is_empty());
        }
    }

    #[test]
    fn paper_programs_compute_correct_values() {
        for prog in TestProgram::paper_suite() {
            for seed in [1u64, 42, 1994] {
                let err = prog.verify_numerics(seed);
                assert!(err < 1e-8, "{} seed {seed}: max element error {err}", prog.name());
            }
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(TestProgram::ComplexMatMul { n: 64 }.name(), "Complex Matrix Multiply (64x64)");
        assert_eq!(TestProgram::Strassen { n: 128 }.name(), "Strassen's Matrix Multiply (128x128)");
    }
}
