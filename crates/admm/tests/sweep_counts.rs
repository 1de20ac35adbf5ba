//! The ADMM tier's half of `crates/solver/tests/sweep_counts.rs`: over a
//! whole consensus solve, block x-updates and the coordinator polish
//! sweep each point they evaluate exactly once.
//!
//! A single `#[test]` on purpose — the counters are read off the
//! process-wide workspace pool.

use paradigm_admm::{solve_admm, AdmmConfig, InProcessBackend};
use paradigm_cost::Machine;
use paradigm_mdg::fork_join_mdg;
use paradigm_solver::workspace::pool_sweep_counts;

#[test]
fn a_consensus_solve_sweeps_no_point_twice() {
    let g = fork_join_mdg(4, 8, 3);
    let before = pool_sweep_counts();
    let mut backend = InProcessBackend { threads: 2 };
    let r = solve_admm(&g, Machine::cm5(32), &AdmmConfig::with_blocks(&g, 2), &mut backend)
        .expect("admm solve");
    let c = pool_sweep_counts().since(before);
    assert!(r.blocks >= 2 && r.polish_iters > 0, "want block solves and a polish: {r:?}");
    assert!(c.probes > (r.inner_iters + r.polish_iters) as u64, "{c:?}");
    assert_eq!(c.forward_sweeps, c.probes, "a point was swept twice: {c:?}");
    // Block solves and the polish replay a gradient *pair* per point.
    assert_eq!(c.backward_sweeps % 2, 0, "{c:?}");
}
