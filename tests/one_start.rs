//! One start is enough — and the edges of the stage that makes it so.
//!
//! The allocation program is convex, so where a start lands can differ
//! from where another lands only by what the descent stages leave
//! unconverged. Until PR 20 that was a lot: every stage of every start
//! ended on its iteration cap, and the same three deterministic starts
//! (through `descend_stage`, one ladder each) ended 22 % apart on
//! strassen-ml at p = 64 — `try_allocate` kept the best of six. Now each
//! smooth stage runs to a stationary point along a quasi-Newton
//! direction and `try_allocate` descends from the midpoint alone; this
//! file holds it to that on every gallery graph, then pins the stage's
//! behaviour where the box or the machine is unusual.

use paradigm_core::{gallery_graph, GALLERY_NAMES};
use paradigm_cost::Machine;
use paradigm_mdg::{complex_matmul_mdg, example_fig1_mdg, strassen_mdg, KernelCostTable, Mdg};
use paradigm_solver::{try_allocate, try_allocate_from, SolverConfig, SolverError};

/// `max Phi / min Phi − 1` over the solves from `x = 0`, `ub/2`, `ub`.
fn start_spread(g: &Mdg, machine: Machine, cfg: &SolverConfig) -> f64 {
    let ub = f64::from(machine.procs).ln();
    let phis = [0.0, ub / 2.0, ub].map(|x0| {
        let r = try_allocate_from(g, machine, cfg, &vec![x0; g.node_count()]).expect("solves");
        assert_eq!(r.starts, 1);
        r.phi.phi
    });
    let best = phis.iter().copied().fold(f64::INFINITY, f64::min);
    phis.iter().map(|phi| phi / best - 1.0).fold(0.0, f64::max)
}

fn paper_graphs() -> [(&'static str, Mdg); 3] {
    let t = KernelCostTable::cm5();
    [
        ("fig1", example_fig1_mdg()),
        ("cmm", complex_matmul_mdg(64, &t)),
        ("strassen", strassen_mdg(128, &t)),
    ]
}

#[test]
fn the_three_deterministic_starts_agree_on_every_gallery_graph() {
    for name in GALLERY_NAMES {
        let g = gallery_graph(name).expect("gallery graph");
        // The two ~200-node graphs at p = 64 only: a debug build pays
        // for every sweep.
        let sizes: &[u32] = if g.compute_node_count() > 150 { &[64] } else { &[16, 64] };
        for &p in sizes {
            for (cfg_name, cfg, limit) in
                [("default", SolverConfig::default(), 1e-3), ("fast", SolverConfig::fast(), 5e-3)]
            {
                let spread = start_spread(&g, Machine::cm5(p), &cfg);
                assert!(spread <= limit, "{name}@p{p} {cfg_name}: starts land {spread:.2e} apart");
            }
        }
    }
}

#[test]
fn try_allocate_is_the_solve_from_the_midpoint() {
    let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
    let machine = Machine::cm5(16);
    let cfg = SolverConfig::fast();
    let a = try_allocate(&g, machine, &cfg).expect("solves");
    let mid = vec![16f64.ln() / 2.0; g.node_count()];
    let b = try_allocate_from(&g, machine, &cfg, &mid).expect("solves");
    assert_eq!((a.phi.phi.to_bits(), a.iterations), (b.phi.phi.to_bits(), b.iterations));
    assert_eq!(a.alloc.as_slice(), b.alloc.as_slice());
    // START and STOP are pinned to one processor whatever the start holds.
    assert_eq!((a.alloc.get(g.start()), a.alloc.get(g.stop())), (1.0, 1.0));
}

#[test]
fn a_start_outside_the_problem_is_a_typed_error() {
    let g = example_fig1_mdg();
    let machine = Machine::cm5(4);
    let n = g.node_count();
    let mut nan = vec![0.5; n];
    nan[1] = f64::NAN;
    for bad in [vec![0.5; n + 1], nan, vec![4f64.ln() + 1e-9; n], vec![-1e-9; n]] {
        let err = try_allocate_from(&g, machine, &SolverConfig::fast(), &bad).unwrap_err();
        assert!(matches!(err, SolverError::InvalidConfig(_)), "{err}");
    }
}

#[test]
fn on_one_processor_the_box_is_a_point_and_no_smooth_stage_iterates() {
    // Every variable sits on both bounds, so the free set is empty and
    // each smooth stage is stationary at its start; the exact stage's
    // single iteration moves nothing. Phi is the serial time, to the bit
    // what six starts returned.
    let pins = [0x4049_5999_9999_9999_u64, 0x3ff9_556b_58f5_d9c5, 0x400d_d8b9_beec_d419];
    for ((name, g), phi_bits) in paper_graphs().iter().zip(pins) {
        for cfg in [SolverConfig::default(), SolverConfig::fast()] {
            let r = try_allocate(g, Machine::cm5(1), &cfg).expect("solves");
            assert_eq!((r.phi.phi.to_bits(), r.iterations), (phi_bits, 1), "{name}: {}", r.phi.phi);
        }
    }
}

#[test]
fn odd_machines_converge_from_every_start_to_no_worse_than_six_starts_did() {
    // A machine size that is not a power of two, and a mesh with
    // `t_n > 0` (the solver descends the monomial bound of its network
    // term). Reference: Phi of `default()` at commit f7d461d, best of six
    // capped starts; the one converged start is held to 1e-4 of it
    // (measured: +6e-9 … −4.6e-4).
    let machines = [
        ("cm5(6)", Machine::cm5(6), [10.343_939_508_83, 0.278_406_735_736_3, 0.621_803_838_666_7]),
        (
            "mesh(12)",
            Machine::synthetic_mesh(12),
            [6.458_664_374_758, 0.153_283_843_301_8, 0.305_125_448_261_4],
        ),
    ];
    for (machine_name, machine, six_starts) in machines {
        for ((name, g), reference) in paper_graphs().iter().zip(six_starts) {
            let cfg = SolverConfig::default();
            let phi = try_allocate(g, machine, &cfg).expect("solves").phi.phi;
            assert!(phi <= reference * (1.0 + 1e-4), "{name} on {machine_name}: {phi}");
            let spread = start_spread(g, machine, &cfg);
            assert!(spread <= 1e-3, "{name} on {machine_name}: starts land {spread:.2e} apart");
        }
    }
}

#[test]
fn without_a_ladder_the_exact_polish_alone_runs_from_the_midpoint() {
    // No smooth stage, so no quasi-Newton iteration at all: the
    // projected subgradient from the midpoint. (From `x = 0`, where
    // every `max(p_i, p_j)` of the transfer costs ties, it stalls at
    // 3.98x the optimum.)
    let g = strassen_mdg(128, &KernelCostTable::cm5());
    let machine = Machine::cm5(32);
    let full = try_allocate(&g, machine, &SolverConfig::default()).expect("solves");
    let exact_only = SolverConfig { sharpness_schedule: vec![], ..SolverConfig::default() };
    let polished = try_allocate(&g, machine, &exact_only).expect("solves");
    assert!(polished.phi.phi <= 1.03 * full.phi.phi, "{} vs {}", polished.phi.phi, full.phi.phi);
    assert!(polished.iterations <= exact_only.max_iters_per_stage);
}
