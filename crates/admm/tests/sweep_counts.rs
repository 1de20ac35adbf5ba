//! The ADMM tier's half of `crates/solver/tests/sweep_counts.rs`: over a
//! whole consensus solve, block x-updates and the coordinator polish
//! sweep each point they evaluate exactly once and replay each point
//! whose gradient they take exactly once, and every block's
//! objective is compiled once — then carried from round to round in the
//! block's job slot. A backend that hands every slot back empty (what a
//! TCP round does) makes the solve compile once per block *solve* and
//! changes nothing else: not a count, not a bit of the result.
//!
//! A single `#[test]` on purpose — the counters are read off the
//! process-wide workspace pool.

use paradigm_admm::{
    solve_admm, AdmmConfig, AdmmResult, BlockBackend, BlockJob, BlockSolution, InProcessBackend,
};
use paradigm_cost::Machine;
use paradigm_mdg::fork_join_mdg;
use paradigm_solver::workspace::pool_sweep_counts;
use paradigm_solver::SweepCounts;

/// Solves clones of the jobs it is given: a clone's tape slot is empty,
/// and what the solve leaves in it is dropped with the clone.
struct DropsEveryTape(InProcessBackend);

impl BlockBackend for DropsEveryTape {
    fn solve_blocks(&mut self, jobs: &[BlockJob]) -> Result<Vec<BlockSolution>, String> {
        let clones: Vec<BlockJob> = jobs.to_vec();
        self.0.solve_blocks(&clones)
    }
}

fn counted(backend: &mut impl BlockBackend) -> (AdmmResult, SweepCounts) {
    let g = fork_join_mdg(4, 8, 3);
    let before = pool_sweep_counts();
    let r = solve_admm(&g, Machine::cm5(32), &AdmmConfig::with_blocks(&g, 2), backend)
        .expect("admm solve");
    (r, pool_sweep_counts().since(before))
}

#[test]
fn a_consensus_solve_sweeps_no_point_twice_and_compiles_each_block_once() {
    let (r, c) = counted(&mut InProcessBackend { threads: 2 });
    assert!(
        r.blocks >= 2 && r.outer_iters > 2 && r.polish_iters > 0,
        "want rounds and a polish: {r:?}"
    );
    assert!(c.probes > (r.inner_iters + r.polish_iters) as u64, "{c:?}");
    assert_eq!(c.forward_sweeps, c.probes, "a point was swept twice: {c:?}");
    // One replay per point whose gradient was taken — a stage's start or
    // an accepted step — for block solves, polish and finishing stage
    // alike; an iteration whose line search dead-ends replays nothing.
    assert_eq!(c.backward_sweeps, c.gradients, "a point was replayed twice: {c:?}");
    assert!(c.gradients <= c.forward_sweeps && c.gradients > r.blocks as u64, "{c:?}");
    assert_eq!(c.tape_builds, r.blocks as u64, "a block was compiled more than once: {c:?}");

    let (dropped, cd) = counted(&mut DropsEveryTape(InProcessBackend { threads: 2 }));
    assert_eq!(cd.tape_builds, (r.blocks * r.outer_iters) as u64, "{cd:?}");
    assert_eq!(SweepCounts { tape_builds: c.tape_builds, ..cd }, c, "the sweeps differ");
    let bits = |r: &AdmmResult| {
        let alloc: Vec<u64> = r.alloc.as_slice().iter().map(|p| p.to_bits()).collect();
        let nums = [r.phi.phi, r.phi.a_p, r.phi.c_p, r.primal_residual, r.dual_residual];
        (alloc, nums.map(f64::to_bits), r.outer_iters, r.inner_iters, r.polish_iters, r.converged)
    };
    assert_eq!(bits(&dropped), bits(&r), "carrying the tapes changed the solve");
}
