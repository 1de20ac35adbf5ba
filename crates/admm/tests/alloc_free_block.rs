//! Asserts that ADMM block solves do not allocate per inner iteration:
//! with a warm [`paradigm_solver::BatchWorkspace`], the heap-allocation
//! count of [`paradigm_admm::solve_block_job`] is a per-call constant
//! independent of how many gradient iterations or line-search probes
//! run — and that the constant is the objective build plus the returned
//! iterate, nothing else: every loop buffer is the workspace's.
//!
//! This file deliberately contains a single `#[test]` — the counter is
//! process-global, and a second test running on a sibling thread would
//! pollute the delta.

use paradigm_admm::{
    build_block_problem, global_sweeps, partition_mdg, solve_block_job, InnerConfig,
    PartitionOptions,
};
use paradigm_cost::Machine;
use paradigm_mdg::fork_join_mdg;
use paradigm_solver::{allocation_count, BatchWorkspace, CountingAllocator, MdgObjective};
use std::collections::BTreeMap;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn block_solve_allocations_do_not_scale_with_iterations() {
    let g = fork_join_mdg(4, 8, 4);
    let machine = Machine::cm5(32);
    let obj = MdgObjective::new(&g, machine);
    let ub = obj.x_upper();
    let part = partition_mdg(&g, &PartitionOptions::with_blocks(&g, 2));
    let mut x = vec![0.0_f64; g.node_count()];
    for (id, node) in g.nodes() {
        if !node.is_structural() {
            x[id.0] = (0.21 * (id.0 % 5) as f64).min(ub);
        }
    }
    let sw = global_sweeps(&obj, &x);
    let duals = BTreeMap::new();

    let job_with = |iters: usize, exact: usize| {
        let inner = InnerConfig {
            iters_per_stage: iters,
            exact_iters: exact,
            rel_tol: 0.0,
            ..InnerConfig::default()
        };
        build_block_problem(&g, &machine, &part, 0, &sw, &x, &duals, 1.0, &inner).0
    };
    let small_job = job_with(2, 1);
    let big_job = job_with(30, 15);

    let mut bw = BatchWorkspace::new();
    // Warm-up sizes the scalar sweep scratch the block solve runs on.
    let warm = solve_block_job(&big_job, &mut bw).expect("warm-up solve");
    assert!(warm.iters > 0);

    let before = allocation_count();
    let small = solve_block_job(&small_job, &mut bw).expect("small solve");
    let small_allocs = allocation_count() - before;

    let before = allocation_count();
    let big = solve_block_job(&big_job, &mut bw).expect("big solve");
    let big_allocs = allocation_count() - before;

    // rel_tol 0 keeps every stage running to its cap, so the two solves
    // really differ in inner work...
    assert!(
        big.iters > small.iters,
        "iteration budgets must differ to make the comparison meaningful \
         (big {} vs small {})",
        big.iters,
        small.iters
    );
    // ...while the allocation bill stays the per-call constant.
    assert_eq!(
        big_allocs, small_allocs,
        "block solve allocations scale with iterations: \
         {big_allocs} allocs over {} iters vs {small_allocs} allocs over {} iters",
        big.iters, small.iters
    );

    // The constant itself: building the block objective, plus one
    // allocation for the iterate the solution carries out.
    let before = allocation_count();
    let built = MdgObjective::try_new(&big_job.graph, big_job.machine).expect("block objective");
    let build_allocs = allocation_count() - before;
    drop(built);
    assert_eq!(
        big_allocs,
        build_allocs + 1,
        "a warm block solve allocates beyond its objective build ({build_allocs}) and its result"
    );
}
