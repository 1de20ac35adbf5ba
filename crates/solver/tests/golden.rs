//! Golden trajectory pins for the dense solver: the exact `Phi` bits and
//! the total iteration count of `try_allocate` on the three paper
//! graphs, under both stock configurations.
//!
//! `determinism.rs` pins run ≡ re-run; nothing else pins *today's run ≡
//! yesterday's*. A refactor of the descent loops (which probe records
//! the tape, which buffer holds the gradient) must leave every accepted
//! step where it was, and a bent trajectory shows here as a different
//! iteration count or last bit long before it moves a tolerance-based
//! test. Values re-captured at PR 20, when the solve became one
//! quasi-Newton start (before, from six / four capped gradient starts:
//! 4072 / 750, 9714 / 1245, 9738 / 1292 iterations; Phi moved by +2e-8 /
//! +6e-8, +2.5e-4 / +1e-5, −5.2e-4 / −1.8e-3), and again when the rungs
//! below the ladder's top began stopping at `WARM_TOL` = 1e-3 instead of
//! 1e-6 (default / fast iterations: fig1 43 → 39 / 35 → 33, cmm 75 → 54 /
//! 40 → 32, strassen 484 → 367 / 196 → 189; Φ moved −1.1e-9 / +4.3e-11,
//! −1.5e-8 / +3.3e-9, −4.3e-5 / −2.7e-6), and again when the quasi-Newton
//! direction took a per-variable initial matrix instead of `γ·I`
//! (iterations: fig1 39 → 35 / 33 → 37, cmm 54 → 54 / 32 → 32, strassen
//! 367 → 133 / 189 → 127; Φ moved +1.1e-9 / −6.1e-10, −3.7e-8 / −6.7e-8,
//! +5.2e-4 / −3.4e-6 — the top rung of the +5.2e-4 case lands within
//! 4e-8 of where it did, and the exact polish from there dead-ends after
//! 5 iterations instead of 51, DESIGN.md §11), on x86-64 Linux, glibc
//! libm; a platform whose `exp`/`ln` round differently may legitimately
//! move the bits — re-capture there rather than loosening the comparison.

use paradigm_cost::Machine;
use paradigm_mdg::{complex_matmul_mdg, example_fig1_mdg, strassen_mdg, KernelCostTable, Mdg};
use paradigm_solver::{try_allocate, SolverConfig};

#[test]
fn try_allocate_trajectories_are_pinned_to_the_bit() {
    let table = KernelCostTable::cm5();
    // (label, graph, procs, [default, fast] as (Phi bits, iterations)).
    type Pin = (u64, usize);
    let cases: [(&str, Mdg, u32, [Pin; 2]); 3] = [
        (
            "fig1@4",
            example_fig1_mdg(),
            4,
            [(0x402c_7a52_e39b_f966, 35), (0x402c_7a91_2796_8e05, 37)],
        ),
        (
            "cmm@16",
            complex_matmul_mdg(64, &table),
            16,
            [(0x3fc0_aaba_0968_0a4c, 54), (0x3fc0_aef7_6ef8_652c, 32)],
        ),
        (
            "strassen@64",
            strassen_mdg(128, &table),
            64,
            [(0x3fb9_b172_25a3_2f2e, 133), (0x3fb9_b7c2_435f_e211, 127)],
        ),
    ];
    for (label, g, procs, pins) in &cases {
        let cfgs = [("default", SolverConfig::default()), ("fast", SolverConfig::fast())];
        for ((cfg_name, cfg), &(phi_bits, iterations)) in cfgs.iter().zip(pins) {
            let r = try_allocate(g, Machine::cm5(*procs), cfg).expect("paper graph solves");
            assert_eq!(
                (r.phi.phi.to_bits(), r.iterations),
                (phi_bits, iterations),
                "{label} {cfg_name}: Phi = {} (0x{:016x}), {} iterations",
                r.phi.phi,
                r.phi.phi.to_bits(),
                r.iterations
            );
        }
    }
}
