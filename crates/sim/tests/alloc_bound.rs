//! The compile tail allocates per task, never per message, and holds per
//! transfer, never per message. Counts, not times, so the gates read the
//! same on every machine.
//!
//! Allocations: `validate` on a valid program is a fixed handful,
//! `simulate` and `lower_mpmd` a constant plus two a task — on the
//! pipeline's own 40 069-message program (198 tasks: 2, 214 and 398) as on
//! a 48-message one (12 tasks: 2, 28 and 26). Before the tail was indexed
//! the large program cost 80 345, 91 404 and 7 396.
//!
//! Bytes: the lowered program holds its tasks and its 773 transfers
//! (56 033 B), and `simulate`'s high-water mark is the one per-message
//! array it returns ([`paradigm_sim::SimResult::msg_avail`], 8 B a
//! message) plus buffers sized by the largest task (429 304 B). While the
//! program held a message list, the same program held 1 434 465 B and
//! `simulate` peaked at 1 333 616 B.

use paradigm_cost::Machine;
use paradigm_mdg::{complex_matmul_mdg, random_layered_mdg, KernelCostTable, RandomMdgConfig};
use paradigm_sched::{psa_schedule, PsaConfig};
use paradigm_sim::{lower_mpmd, simulate, TrueMachine};
use paradigm_solver::{
    allocate, allocation_count, live_bytes, peak_bytes, reset_peak_bytes, CountingAllocator,
    SolverConfig,
};

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
        assert_eq!(prog.message_count(), messages, "{}", g.name());
        let (validating, valid) = counted(|| prog.validate());
        valid.expect("the lowering is a valid program");
        let (simulating, sim) = counted(|| simulate(&prog, &truth));
        assert!(sim.makespan > 0.0);

        assert!(validating <= 4, "{}: validate made {validating} allocations", g.name());
        assert!(
            simulating <= 30 + 2 * tasks,
            "{}: simulate made {simulating} allocations for {tasks} tasks",
            g.name()
        );
        // `transfers` is sized once, from a bound on the transfer count.
        assert!(
            lowering <= 16 + 2 * tasks,
            "{}: lower_mpmd made {lowering} allocations for {tasks} tasks",
            g.name()
        );
    }
}

#[test]
fn the_program_holds_transfers_and_simulate_one_array_a_message() {
    let g = random_layered_mdg(&RandomMdgConfig::sized(192), 11);
    let m = Machine::cm5(64);
    let sol = allocate(&g, m, &SolverConfig::fast());
    let schedule = psa_schedule(&g, m, &sol.alloc, &PsaConfig::default()).schedule;
    let truth = TrueMachine::cm5(64);

    let before = live_bytes();
    let prog = lower_mpmd(&g, &schedule);
    let held = live_bytes() - before;
    assert_eq!((prog.message_count(), prog.transfers.len()), (40_069, 773));

    reset_peak_bytes();
    let base = live_bytes();
    let sim = simulate(&prog, &truth);
    let peak = peak_bytes() - base;
    assert!(sim.makespan > 0.0);

    assert!(held <= 96 << 10, "the lowered program holds {held} B");
    let messages = 40_069;
    assert!(peak <= 8 * messages + (192 << 10), "simulate peaked at {peak} B");
}
