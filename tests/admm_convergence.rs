//! Convergence and determinism properties of the consensus-ADMM tier
//! over the built-in gallery (satellite of the `paradigm-admm`
//! subsystem, DESIGN.md §13).
//!
//! Two contracts are pinned here, at the integration level where the
//! gallery, the partitioner, and the dense reference solver all meet:
//!
//! 1. **Quality** — on gallery graphs large enough for a real multi-way
//!    decomposition, the ADMM objective lands within 1% of the dense
//!    single-problem solver's `Phi` (the paper's allocation objective).
//!    ADMM stops on residuals, not a proven optimum, so 1% is the same
//!    slack the schedule auditor grants the tier (`admm_phi_slack`).
//! 2. **Determinism** — partitioning is a pure function of the graph:
//!    repeated runs are bitwise identical (block assignment, cut edge
//!    set, boundary set) for every gallery graph. The whole distributed
//!    tier leans on this — workers and coordinator re-derive structure
//!    independently and must agree.

use paradigm_admm::{partition_mdg, solve_admm_in_process, AdmmConfig, PartitionOptions};
use paradigm_core::{gallery_graph, GALLERY_NAMES};
use paradigm_cost::Machine;
use paradigm_solver::{allocate, SolverConfig};

/// Gallery graphs big enough that `with_blocks(g, 4)` yields a real
/// multi-block consensus problem worth cross-checking against the
/// dense solver. The tiny graphs (fig1, cmm, ...) collapse to one or
/// two blocks and are covered by the unit tests in `paradigm-admm`.
const QUALITY_SET: [&str; 3] = ["random-layered", "fork-join", "strassen-ml"];

#[test]
fn admm_phi_within_one_percent_of_dense_on_gallery() {
    let machine = Machine::cm5(64);
    for name in QUALITY_SET {
        let g = gallery_graph(name).expect("gallery graph");
        let dense = allocate(&g, machine, &SolverConfig::fast());
        let cfg = AdmmConfig::with_blocks(&g, 4);
        let res = solve_admm_in_process(&g, machine, &cfg, 0).expect("admm solve");
        assert!(res.blocks >= 2, "{name}: want a real decomposition, got {} block(s)", res.blocks);
        assert!(
            res.converged,
            "{name}: not converged after {} rounds (r={:.3e} s={:.3e})",
            res.outer_iters, res.primal_residual, res.dual_residual
        );
        assert!(
            res.phi.phi <= dense.phi.phi * 1.01 + 1e-9,
            "{name}: admm phi {} vs dense {} (> 1% off)",
            res.phi.phi,
            dense.phi.phi
        );
    }
}

#[test]
fn partitioning_is_bitwise_deterministic_on_every_gallery_graph() {
    for name in GALLERY_NAMES {
        let g = gallery_graph(name).expect("gallery graph");
        // Both the default options (what `try_solve_pipeline` uses) and a
        // forced multi-way split (what the tests and CLI use).
        let option_sets = [PartitionOptions::default(), PartitionOptions::with_blocks(&g, 4)];
        for opts in option_sets {
            let a = partition_mdg(&g, &opts);
            let b = partition_mdg(&g, &opts);
            assert_eq!(a.blocks, b.blocks, "{name}: block count differs across runs");
            assert_eq!(a.block_of, b.block_of, "{name}: block assignment differs across runs");
            assert_eq!(a.cut_edges, b.cut_edges, "{name}: cut edge set differs across runs");
            assert_eq!(a.boundary, b.boundary, "{name}: boundary set differs across runs");
            assert_eq!(a.cut_weight, b.cut_weight, "{name}: cut weight differs across runs");
            // Structural invariants while we have a partition in hand:
            // every compute node is in exactly one block, members are
            // sorted, and block sizes sum to the compute node count.
            let total: usize = a.members.iter().map(Vec::len).sum();
            assert_eq!(total, g.compute_node_count(), "{name}: members do not cover the graph");
            for m in &a.members {
                assert!(m.windows(2).all(|w| w[0] < w[1]), "{name}: members not ascending");
            }
        }
    }
}
