//! Counts, not clocks: over a whole `try_allocate` the descent loops
//! sweep each point they evaluate exactly once — every line-search probe
//! records its tape, and the gradient at an accepted probe is a backward
//! replay. A loop that scores a probe value-only and then calls
//! `eval_grad*` at the accepted trial would read `forward_sweeps =
//! probes + iterations` here.
//!
//! This file deliberately contains a single `#[test]` — the counters are
//! read off the process-wide workspace pool, and a sibling test solving
//! on another thread would pollute the delta.

use paradigm_cost::Machine;
use paradigm_mdg::{complex_matmul_mdg, KernelCostTable};
use paradigm_solver::workspace::pool_sweep_counts;
use paradigm_solver::{try_allocate, SolverConfig};

#[test]
fn a_dense_solve_sweeps_no_point_twice() {
    let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
    for cfg in [SolverConfig::default(), SolverConfig::fast()] {
        let before = pool_sweep_counts();
        let r = try_allocate(&g, Machine::cm5(16), &cfg).expect("cmm solves");
        let c = pool_sweep_counts().since(before);
        assert!(c.probes > r.iterations as u64, "every iteration probes at least once: {c:?}");
        assert_eq!(c.forward_sweeps, c.probes, "a point was swept twice: {c:?}");
        // One replay per stage start and per accepted step; an iteration
        // whose line search dead-ends replays nothing.
        assert!(c.backward_sweeps <= c.probes && c.backward_sweeps > 0, "{c:?}");
    }
}
