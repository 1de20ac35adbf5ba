//! Asserts the descent stage's zero-allocation guarantee at K = 8 on the
//! lane tape, and across the hand-over to the scalar tape for the exact
//! stage, with a counting global allocator.
//!
//! This file deliberately contains a single `#[test]` — the counter is
//! process-global, and a second test running on a sibling thread would
//! pollute the delta.

use paradigm_cost::Machine;
use paradigm_mdg::{random_layered_mdg, RandomMdgConfig};
use paradigm_solver::expr::Sharpness;
use paradigm_solver::{
    allocation_count, descend_multi_stage, descend_stage, BatchWorkspace, CountingAllocator,
    MdgObjective,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn batched_descent_iterations_are_allocation_free_after_warmup() {
    let cfg =
        RandomMdgConfig { layers: 8, width_min: 8, width_max: 8, ..RandomMdgConfig::default() };
    let g = random_layered_mdg(&cfg, 42);
    let obj = MdgObjective::new(&g, Machine::cm5(64));
    let n = obj.num_vars();
    let ub = obj.x_upper();
    let k = 8usize;
    let mut bw = BatchWorkspace::new();

    let fresh_points = |offset: f64| -> Vec<Vec<f64>> {
        (0..k)
            .map(|l| (0..n).map(|j| (offset + 0.03 * (l + j % 5) as f64).min(ub)).collect())
            .collect()
    };

    // The lane tape is smooth-only: an exact stage is the multistart's
    // per-start polish, each point through the scalar tape out of the
    // same workspace (the lane buffers change shape, K = 8 -> 1).
    let mut stage = |points: &mut [Vec<f64>], sharp: Sharpness, iters: usize| match sharp {
        Sharpness::Smooth(_) => descend_multi_stage(&obj, points, sharp, iters, 0.0, &mut bw),
        Sharpness::Exact => {
            points.iter_mut().map(|p| descend_stage(&obj, p, sharp, iters, 0.0, &mut bw)).sum()
        }
    };

    // Warm-up: first iterations size every lane-major buffer, the
    // batched tapes, and the scalar scratch.
    let mut points = fresh_points(ub / 2.0);
    let warm = stage(&mut points, Sharpness::Smooth(8.0), 10);
    let warm_exact = stage(&mut points, Sharpness::Exact, 5);
    assert!(warm > 0 && warm_exact > 0, "warm-up stages must iterate");

    // Measured run: restart from fresh lane points (same dimensions) and
    // let the loop run; with warm buffers zero heap allocations are
    // permitted across every sharpness tier, and back and forth between
    // the two lane shapes.
    let mut points = fresh_points(ub / 3.0);
    for sharp in [Sharpness::Smooth(8.0), Sharpness::Smooth(64.0), Sharpness::Exact] {
        let before = allocation_count();
        let iters = stage(&mut points, sharp, 50);
        let delta = allocation_count() - before;
        assert!(iters > 0, "{sharp:?}: measured stage must iterate");
        assert_eq!(
            delta, 0,
            "{sharp:?}: batched descent performed {delta} heap allocations over {iters} lane iterations"
        );
    }
}
