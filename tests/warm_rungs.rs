//! The rungs below the top of the sharpness ladder only seed the next
//! rung, so `try_allocate` stops them at `WARM_TOL` (1e-3) and converges
//! the top rung alone to `STATIONARITY_TOL` (1e-6).
//!
//! The reference is the solve with every rung at 1e-6, rebuilt from the
//! public API: `descend_stage` per rung from the midpoint, then the exact
//! polish. Its Φ bits and iterations are pinned on the three paper graphs.
//! When the rungs were loosened these pins were the solver's previous
//! goldens, which proved the reference to be that solve; they were
//! re-captured when the quasi-Newton direction took a per-variable initial
//! matrix (e.g. fig1@4 `default()` 43 → 45 iterations, strassen@64
//! `default()` 484 → 189). The loosened solve is then held to it: Φ at
//! most 1e-3 above it on every gallery graph, in at most 85 % of its
//! iterations, and to the bit where the ladder has no rung below the top.
//! The check is one-sided because landing lower is no failure: on
//! strassen at p = 64 under `fast()` the reference misses the exact
//! polish's escape from a kink (DESIGN.md §11) and reads 2.8e-3 *above*
//! the solve. Measured on x86-64 Linux, glibc libm: worst Φ +7.9e-6
//! (strassen-ml at p = 64, `default()`), 3 401 of 4 204 iterations (−19 %)
//! over the 46 gallery solves.

use paradigm_core::{gallery_graph, GALLERY_NAMES};
use paradigm_cost::Machine;
use paradigm_mdg::{complex_matmul_mdg, example_fig1_mdg, strassen_mdg, KernelCostTable, Mdg};
use paradigm_solver::expr::Sharpness;
use paradigm_solver::{descend_stage, try_allocate, MdgObjective, SolverConfig, SolverWorkspace};

/// The all-1e-6 ladder: Φ and total iterations.
fn tight_ladder(g: &Mdg, machine: Machine, cfg: &SolverConfig) -> (f64, usize) {
    let obj = MdgObjective::new(g, machine);
    let mut x = vec![obj.x_upper() / 2.0; obj.num_vars()];
    x[g.start().0] = 0.0;
    x[g.stop().0] = 0.0;
    let mut stages = cfg.sharpness_schedule.clone();
    stages.sort_by(f64::total_cmp);
    let mut ws = SolverWorkspace::new();
    let sharps = stages.iter().map(|&s| Sharpness::Smooth(s)).chain([Sharpness::Exact]);
    let iterations = sharps
        .map(|sharp| {
            descend_stage(&obj, &mut x, sharp, cfg.max_iters_per_stage, cfg.rel_tol, &mut ws)
        })
        .sum();
    (obj.exact_phi(&obj.allocation_from_x(&x)).phi, iterations)
}

fn solve(g: &Mdg, machine: Machine, cfg: &SolverConfig) -> (f64, usize) {
    let r = try_allocate(g, machine, cfg).expect("solves");
    (r.phi.phi, r.iterations)
}

fn configs() -> [(&'static str, SolverConfig); 2] {
    [("default", SolverConfig::default()), ("fast", SolverConfig::fast())]
}

#[test]
fn the_reference_is_the_all_tight_solve_to_the_bit() {
    // (default, fast) as (Φ bits, iterations).
    let table = KernelCostTable::cm5();
    type Pin = (u64, usize);
    let pins: [(&str, Mdg, u32, [Pin; 2]); 3] = [
        (
            "fig1@4",
            example_fig1_mdg(),
            4,
            [(0x402c_7a52_dd9c_32e4, 45), (0x402c_7a91_27e1_4152, 37)],
        ),
        (
            "cmm@16",
            complex_matmul_mdg(64, &table),
            16,
            [(0x3fc0_aaba_1c3f_ee36, 68), (0x3fc0_aef7_7ca9_0888, 37)],
        ),
        (
            "strassen@64",
            strassen_mdg(128, &table),
            64,
            [(0x3fb9_b172_4d5b_5b20, 189), (0x3fb9_ca47_1340_aa1d, 77)],
        ),
    ];
    for (label, g, procs, pins) in &pins {
        for ((cfg_name, cfg), &pin) in configs().iter().zip(pins) {
            let (phi, iterations) = tight_ladder(g, Machine::cm5(*procs), cfg);
            assert_eq!((phi.to_bits(), iterations), pin, "{label} {cfg_name}: Phi = {phi}");
        }
    }
}

#[test]
fn warm_rungs_keep_phi_within_1e_3_in_at_most_85_percent_of_the_iterations() {
    let (mut iters, mut ref_iters) = (0, 0);
    for name in GALLERY_NAMES {
        let g = gallery_graph(name).expect("gallery graph");
        // The two ~200-node graphs at p = 64 only: a debug build pays
        // for every sweep.
        let sizes: &[u32] = if g.compute_node_count() > 150 { &[64] } else { &[6, 16, 64] };
        for &p in sizes {
            for (cfg_name, cfg) in configs() {
                let machine = Machine::cm5(p);
                let (phi, n) = solve(&g, machine, &cfg);
                let (phi_ref, n_ref) = tight_ladder(&g, machine, &cfg);
                let gap = phi / phi_ref - 1.0;
                assert!(gap <= 1e-3, "{name}@p{p} {cfg_name}: Phi {gap:+.2e} above");
                iters += n;
                ref_iters += n_ref;
            }
        }
    }
    assert!(
        iters as f64 <= 0.85 * ref_iters as f64,
        "{iters} iterations against the all-tight ladder's {ref_iters}"
    );
}

#[test]
fn a_ladder_with_no_rung_below_the_top_is_the_reference_to_the_bit() {
    let table = KernelCostTable::cm5();
    let graphs = [("cmm", complex_matmul_mdg(64, &table)), ("strassen", strassen_mdg(128, &table))];
    for (name, g) in &graphs {
        for ladder in [vec![64.0], vec![]] {
            let cfg = SolverConfig { sharpness_schedule: ladder, ..SolverConfig::fast() };
            let machine = Machine::cm5(16);
            let (phi, n) = solve(g, machine, &cfg);
            let (phi_ref, n_ref) = tight_ladder(g, machine, &cfg);
            assert_eq!(
                (phi.to_bits(), n),
                (phi_ref.to_bits(), n_ref),
                "{name} {:?}: Phi {phi} vs {phi_ref}",
                cfg.sharpness_schedule
            );
        }
    }
}
