//! Counts, not clocks: over a whole `try_allocate` the descent loops
//! sweep each point they evaluate exactly once — every line-search probe
//! records its tape, and the gradient at an accepted probe is a backward
//! replay. A loop that scores a probe value-only and then calls
//! `eval_grad*` at the accepted trial would read `forward_sweeps =
//! probes + iterations` here.
//!
//! And every sweep, smooth or exact, calls `exp` once per variable:
//! `exp_calls == forward_sweeps × variables` (random-layered at p = 64:
//! 199 × 198 = 39 402; 232 857 with one more per exponent vector).
//!
//! This file deliberately contains a single `#[test]` — the counters are
//! read off the process-wide workspace pool, and a sibling test solving
//! on another thread would pollute the delta.

use paradigm_cost::Machine;
use paradigm_mdg::{self as mdg, KernelCostTable};
use paradigm_solver::workspace::pool_sweep_counts;
use paradigm_solver::{try_allocate, SolverConfig};

#[test]
fn a_dense_solve_sweeps_no_point_twice() {
    let t = KernelCostTable::cm5();
    let cmm = mdg::complex_matmul_mdg(64, &t);
    // The gallery's strassen-ml and random-layered, as `compile-large`
    // solves them.
    let strassen_ml = mdg::strassen_mdg_multilevel(128, 2, &t);
    let random = mdg::random_layered_mdg(&mdg::RandomMdgConfig::sized(192), 11);
    let cases = [
        (&cmm, 16, SolverConfig::default()),
        (&cmm, 16, SolverConfig::fast()),
        (&strassen_ml, 64, SolverConfig::fast()),
        (&random, 64, SolverConfig::fast()),
    ];
    for (g, procs, cfg) in cases {
        let before = pool_sweep_counts();
        let r = try_allocate(g, Machine::cm5(procs), &cfg).expect("the gallery solves");
        let c = pool_sweep_counts().since(before);
        assert!(c.probes > r.iterations as u64, "every iteration probes at least once: {c:?}");
        assert_eq!(c.forward_sweeps, c.probes, "a point was swept twice: {c:?}");
        // One replay per stage start and per accepted step; an iteration
        // whose line search dead-ends replays nothing.
        assert!(c.backward_sweeps <= c.probes && c.backward_sweeps > 0, "{c:?}");
        let vars = g.node_count() as u64;
        assert_eq!(c.exp_calls, c.forward_sweeps * vars, "{vars} variables: {c:?}");
    }
}
