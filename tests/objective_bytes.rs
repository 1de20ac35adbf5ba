//! What the objective holds and what building it costs, in bytes.
//!
//! The guard builds `MdgObjective::try_new` for the random-layered
//! `sized(2048)` graph (seed 1994) on `cm5(256)` and reads the counting
//! allocator's per-thread tallies around the build: the bytes still live
//! once it returns (what the objective holds) and the high-water mark
//! while it ran (what the build needed at its peak), both over the live
//! bytes before it, so the graph is not counted.
//!
//! Captured with this file's counter at the commit before the objective
//! stopped holding expression trees (x86-64 Linux), when it kept every
//! node's `T` tree and every edge's `t^D` tree beside the level program
//! compiled from them: **9 136 272 bytes held, 9 874 904 at the
//! high-water mark**. The guard asks for at most 0.6 and 0.8 of those:
//! the trees gone, and the program compiled root by root into tight
//! capacities, with no second copy of it alive at the peak. Without the
//! trees it reads 3 943 808 and 5 432 720 (0.43 and 0.55).
//!
//! The ignored test is the dense tier at scale, the one command behind
//! DESIGN.md §13's memory table:
//!
//! ```text
//! cargo test --release --test objective_bytes -- --ignored --nocapture
//! ```

use paradigm_cost::Machine;
use paradigm_mdg::{random_layered_mdg, RandomMdgConfig};
use paradigm_solver::{
    live_bytes, peak_bytes, reset_peak_bytes, try_allocate, CountingAllocator, MdgObjective,
    SolverConfig,
};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Bytes held by the objective and its build's high-water mark while it
/// still kept its trees (module docs).
const TREES_HELD: i64 = 9_136_272;
const TREES_PEAK: i64 = 9_874_904;

#[test]
fn the_objective_holds_the_program_and_its_build_peaks_below_the_trees() {
    let g = random_layered_mdg(&RandomMdgConfig::sized(2048), 1994);
    let before = live_bytes();
    reset_peak_bytes();
    let obj = MdgObjective::try_new(&g, Machine::cm5(256)).expect("a valid objective");
    let held = live_bytes() - before;
    let peak = peak_bytes() - before;
    let share = |now: i64, then: i64| now as f64 / then as f64;
    println!(
        "held {held} B ({:.3} of the trees'), high-water {peak} B ({:.3})",
        share(held, TREES_HELD),
        share(peak, TREES_PEAK)
    );
    assert!(10 * held <= 6 * TREES_HELD, "the objective holds {held} B");
    assert!(10 * peak <= 8 * TREES_PEAK, "the build peaked at {peak} B");
    drop(obj);
}

/// The process's peak resident set (`VmHWM`) in bytes, where `/proc`
/// has it.
fn vm_hwm() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The dense solve (`try_allocate`, `SolverConfig::fast()`, one thread)
/// of random-layered graphs of 10^4 and then 10^5 nodes (seed 1994) on
/// `cm5(256)`: wall time of the solve, iterations, Φ, the thread's heap
/// high-water mark over graph generation and solve, and the process's
/// `VmHWM`, in MiB.
#[test]
#[ignore = "about half a minute in release and up to 0.7 GiB of memory; run by hand"]
fn dense_solve_at_scale() {
    const MIB: f64 = (1 << 20) as f64;
    for nodes in [10_000, 100_000] {
        reset_peak_bytes();
        let g = random_layered_mdg(&RandomMdgConfig::sized(nodes), 1994);
        let t0 = Instant::now();
        let res = try_allocate(&g, Machine::cm5(256), &SolverConfig::fast()).expect("solved");
        let secs = t0.elapsed().as_secs_f64();
        let hwm = vm_hwm().map_or("n/a".to_string(), |b| format!("{:.1} MiB", b as f64 / MIB));
        println!(
            "{} nodes: {secs:.2} s, {} iterations, Phi {:.4}, heap high-water {:.1} MiB, \
             VmHWM {hwm}",
            g.node_count(),
            res.iterations,
            res.phi.phi,
            peak_bytes() as f64 / MIB
        );
    }
}
