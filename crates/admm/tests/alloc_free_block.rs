//! Asserts what an ADMM block solve allocates. With a warm
//! [`paradigm_solver::SolverWorkspace`] the heap-allocation count of
//! [`paradigm_admm::solve_block_job`] is a per-call constant:
//!
//! * handed the block's compiled objective (the job's
//!   [`paradigm_admm::TapeSlot`], as every round after a block's first
//!   is), it allocates **once** — the iterate the solution carries out —
//!   whatever the block's size and however many gradient iterations and
//!   line-search probes run: re-attaching the objective copies nothing,
//!   every loop buffer is the workspace's;
//! * handed none, it pays the objective build on top of that, and
//!   nothing else.
//!
//! This file deliberately contains a single `#[test]` — the counter is
//! process-global, and a second test running on a sibling thread would
//! pollute the delta.

use paradigm_admm::{
    build_block_problem, global_sweeps, partition_mdg, solve_block_job, BlockJob, InnerConfig,
    PartitionOptions,
};
use paradigm_cost::Machine;
use paradigm_mdg::{fork_join_mdg, Mdg};
use paradigm_solver::{allocation_count, CountingAllocator, MdgObjective, SolverWorkspace};
use std::collections::BTreeMap;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Block 0 of `g` in two blocks, frozen at a fixed interior point, with
/// the given smooth / exact iteration caps (`rel_tol` 0 keeps every stage
/// running to its cap).
fn job_with(g: &Mdg, machine: Machine, iters: usize, exact: usize) -> BlockJob {
    let obj = MdgObjective::new(g, machine);
    let ub = obj.x_upper();
    let part = partition_mdg(g, &PartitionOptions::with_blocks(g, 2));
    let mut x = vec![0.0_f64; g.node_count()];
    for (id, node) in g.nodes() {
        if !node.is_structural() {
            x[id.0] = (0.21 * (id.0 % 5) as f64).min(ub);
        }
    }
    let sw = global_sweeps(&obj, &x);
    let inner = InnerConfig {
        iters_per_stage: iters,
        exact_iters: exact,
        rel_tol: 0.0,
        ..InnerConfig::default()
    };
    build_block_problem(g, &machine, &part, 0, &sw, &x, &BTreeMap::new(), 1.0, &inner).0
}

/// Allocations and inner iterations of one solve of `job`.
fn solve_counted(job: &BlockJob, bw: &mut SolverWorkspace) -> (u64, usize) {
    let before = allocation_count();
    let sol = solve_block_job(job, bw).expect("block solve");
    (allocation_count() - before, sol.iters)
}

#[test]
fn block_solve_allocations_do_not_scale_with_iterations_or_block_size() {
    let machine = Machine::cm5(32);
    let mut bw = SolverWorkspace::new();
    let mut warm_constants = Vec::new();
    for g in [fork_join_mdg(4, 8, 4), fork_join_mdg(6, 10, 5)] {
        let mut small_job = job_with(&g, machine, 2, 1);
        let mut big_job = job_with(&g, machine, 30, 15);

        // The block's first solve sizes the workspace and compiles the
        // objective; from here on it rides from job to job, as the
        // consensus loop moves it from round to round.
        solve_block_job(&big_job, &mut bw).expect("first solve");
        small_job.tape = std::mem::take(&mut big_job.tape);
        let (small_allocs, small_iters) = solve_counted(&small_job, &mut bw);
        big_job.tape = std::mem::take(&mut small_job.tape);
        let (big_allocs, big_iters) = solve_counted(&big_job, &mut bw);
        assert!(
            big_iters > small_iters,
            "iteration budgets must differ to make the comparison meaningful \
             (big {big_iters} vs small {small_iters})"
        );
        assert_eq!(
            big_allocs, small_allocs,
            "block solve allocations scale with iterations: {big_allocs} allocs over \
             {big_iters} iters vs {small_allocs} allocs over {small_iters} iters"
        );
        warm_constants.push(big_allocs);

        // A job that is handed no tape — a clone's slot is empty — pays
        // the build, and the same constant.
        let before = allocation_count();
        let built = MdgObjective::try_new(&big_job.graph, big_job.machine).expect("objective");
        let build_allocs = allocation_count() - before;
        drop(built);
        let (cold_allocs, _) = solve_counted(&big_job.clone(), &mut bw);
        assert_eq!(
            cold_allocs,
            build_allocs + big_allocs,
            "a block solve without a tape allocates beyond its objective build ({build_allocs})"
        );
    }
    // The constant: the returned iterate. (357 at the parent of the PR
    // that made the objective outlive the round: a build per solve.)
    assert_eq!(warm_constants, [1, 1], "allocations of a block solve that is handed its tape");
}
