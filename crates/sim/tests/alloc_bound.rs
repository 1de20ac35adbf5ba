//! The compile tail allocates per task, never per message. A count, not a
//! time, so the gate reads the same on every machine: `validate` on a
//! valid program is a fixed handful of allocations, `simulate` and
//! `lower_mpmd` a constant plus two a task — on the pipeline's own
//! 40 069-message program (198 tasks: 3, 216 and 399) as on a 48-message
//! one (12 tasks: 3, 30 and 27). Before the tail was indexed the large
//! program cost 80 345, 91 404 and 7 396.

use paradigm_cost::Machine;
use paradigm_mdg::{complex_matmul_mdg, random_layered_mdg, KernelCostTable, RandomMdgConfig};
use paradigm_sched::{psa_schedule, PsaConfig};
use paradigm_sim::{lower_mpmd, simulate, TrueMachine};
use paradigm_solver::{allocate, allocation_count, CountingAllocator, SolverConfig};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocation_count();
    let out = f();
    (allocation_count() - before, out)
}

#[test]
fn the_compile_tail_allocates_per_task_not_per_message() {
    let cases = [
        (random_layered_mdg(&RandomMdgConfig::sized(192), 11), 64u32, 40_069),
        (complex_matmul_mdg(64, &KernelCostTable::cm5()), 16, 48),
    ];
    for (g, procs, messages) in cases {
        let m = Machine::cm5(procs);
        let sol = allocate(&g, m, &SolverConfig::fast());
        let schedule = psa_schedule(&g, m, &sol.alloc, &PsaConfig::default()).schedule;
        let truth = TrueMachine::cm5(procs);
        let tasks = schedule.tasks.len() as u64;

        let (lowering, prog) = counted(|| lower_mpmd(&g, &schedule));
        assert_eq!(prog.messages.len(), messages, "{}", g.name());
        let (validating, valid) = counted(|| prog.validate());
        valid.expect("the lowering is a valid program");
        let (simulating, sim) = counted(|| simulate(&prog, &truth));
        assert!(sim.makespan > 0.0);

        assert!(validating <= 4, "{}: validate made {validating} allocations", g.name());
        assert!(
            simulating <= 32 + 2 * tasks,
            "{}: simulate made {simulating} allocations for {tasks} tasks",
            g.name()
        );
        // `messages` is sized once, from a bound on the message count.
        assert!(
            lowering <= 16 + 2 * tasks,
            "{}: lower_mpmd made {lowering} allocations for {tasks} tasks",
            g.name()
        );
    }
}
