//! Asserts the descent loop's zero-allocation guarantee with a counting
//! global allocator — quasi-Newton smooth stages (their pairs live in the
//! workspace) and the exact stage alike — on every gallery graph and on
//! seeded 8-wide random layered graphs of 64 and 256 nodes, at p = 64.
//! The counter is per thread, so the test measures its own allocations
//! only.

use paradigm_core::{gallery_graph, GALLERY_NAMES};
use paradigm_cost::Machine;
use paradigm_mdg::{random_layered_mdg, Mdg, RandomMdgConfig};
use paradigm_solver::expr::Sharpness;
use paradigm_solver::{allocation_count, descend_stage, CountingAllocator, MdgObjective};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A random layered graph of `n` compute nodes, 8 to a layer.
fn random(n: usize, seed: u64) -> Mdg {
    let cfg =
        RandomMdgConfig { layers: n / 8, width_min: 8, width_max: 8, ..RandomMdgConfig::default() };
    random_layered_mdg(&cfg, seed)
}

#[test]
fn descent_iterations_are_allocation_free_after_warmup() {
    let gallery = GALLERY_NAMES.map(|name| (name.to_string(), gallery_graph(name).expect(name)));
    let randoms = [(64, 42), (64, 1994), (256, 1994)]
        .map(|(n, seed)| (format!("random-{n} seed {seed}"), random(n, seed)));
    for (name, g) in gallery.into_iter().chain(randoms) {
        let obj = MdgObjective::new(&g, Machine::cm5(64));
        let n = obj.num_vars();
        let ub = obj.x_upper();
        let mut ws = paradigm_solver::SolverWorkspace::new();

        // Warm-up: first iterations size every buffer in the workspace.
        let mut x = vec![ub / 2.0; n];
        let warm = descend_stage(&obj, &mut x, Sharpness::Smooth(8.0), 10, 0.0, &mut ws);
        assert!(warm > 0, "{name}: warm-up stage must iterate");

        // Measured run: restart from a fresh point (same dimensions) and
        // let the loop run; with warm buffers the only allocations
        // permitted are zero.
        let mut x = vec![ub / 3.0; n];
        for sharp in [Sharpness::Smooth(8.0), Sharpness::Smooth(64.0), Sharpness::Exact] {
            let before = allocation_count();
            let iters = descend_stage(&obj, &mut x, sharp, 50, 0.0, &mut ws);
            let delta = allocation_count() - before;
            assert!(iters > 0, "{name} {sharp:?}: measured stage must iterate");
            assert_eq!(
                delta, 0,
                "{name} {sharp:?}: descent performed {delta} heap allocations over {iters} \
                 iterations"
            );
        }
    }
}
