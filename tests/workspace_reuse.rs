//! A serving worker solves every request on the one workspace it owns,
//! so that workspace carries one graph's buffers into the next solve.
//! Reusing it moves no bit: a worker's run of large, small, small and
//! large again, alternating the full and the fast ladder (strassen@64
//! `default()`, fig1@4 `fast()`, cmm@16 `default()`, strassen-ml@64
//! `fast()`), gives every allocation and Φ bit of the same solves on
//! fresh workspaces — so neither the buffers nor the quasi-Newton pairs a
//! `default()` rung hands the next one leak into another solve. And
//! it is worth keeping: a warm repeat of one pipeline op allocates less
//! than a cold one, and from the second repeat on the same count each
//! time. The counter is per thread, so the test counts its own
//! allocations only.

use paradigm_core::{
    gallery_graph, try_solve_pipeline, try_solve_pipeline_in, SolveOutput, SolveSpec,
    SolverWorkspace,
};
use paradigm_cost::Machine;
use paradigm_mdg::Mdg;
use paradigm_solver::{allocation_count, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Every bit a workspace could move: Φ, `T_psa` and each node's
/// continuous and rounded allocation.
fn bits(out: &SolveOutput) -> (u64, u64, Vec<(u64, u32)>) {
    let alloc = out.alloc.iter().map(|a| (a.continuous.to_bits(), a.procs)).collect();
    (out.phi.to_bits(), out.t_psa.to_bits(), alloc)
}

fn case(name: &str, procs: u32) -> (Mdg, SolveSpec) {
    (gallery_graph(name).expect(name), SolveSpec::new(Machine::cm5(procs)))
}

#[test]
fn a_reused_workspace_changes_no_bit() {
    let mut ws = SolverWorkspace::new();
    let runs =
        [("strassen", 64, false), ("fig1", 4, true), ("cmm", 16, false), ("strassen-ml", 64, true)];
    for (name, procs, fast_solver) in runs {
        let (g, spec) = case(name, procs);
        let spec = SolveSpec { fast_solver, ..spec };
        let reused = try_solve_pipeline_in(&mut ws, &g, &spec).expect("solves");
        let fresh = try_solve_pipeline(&g, &spec).expect("solves");
        assert_eq!(
            bits(&reused),
            bits(&fresh),
            "{name}@{procs} fast_solver {fast_solver}: the reused workspace moved a bit"
        );
    }
}

#[test]
fn a_warm_workspace_allocates_less_and_the_same_each_time() {
    for (name, procs) in [("fig1", 4), ("strassen", 16)] {
        let (g, spec) = case(name, procs);
        let allocations = |ws: &mut SolverWorkspace| {
            let before = allocation_count();
            try_solve_pipeline_in(ws, &g, &spec).expect("solves");
            allocation_count() - before
        };
        // Once on a workspace thrown away, so the counts below miss
        // nothing a first call in the process does once.
        allocations(&mut SolverWorkspace::new());
        let cold = allocations(&mut SolverWorkspace::new());
        let mut ws = SolverWorkspace::new();
        allocations(&mut ws);
        let warm = [(); 3].map(|()| allocations(&mut ws));
        assert!(warm[0] < cold, "{name}@{procs}: warm {warm:?}, cold {cold}");
        assert_eq!(warm[1], warm[2], "{name}@{procs}: warm {warm:?}, cold {cold}");
    }
}
