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
//! 5 iterations instead of 51, DESIGN.md §7), and again when the exact
//! polish gained its stall stop (five accepted steps under 1e-6 of Φ while
//! the step no longer grows; only two `fast()` polishes ran into it:
//! fig1 37 → 33 iterations, Φ +2.4e-9, strassen 127 → 118, Φ +6.3e-8;
//! every `default()` pin and cmm kept its bits), and again when each
//! node's `T` collected like terms (one `p^{-1}` monomial for the parallel
//! work and every per-byte transfer cost, one startup term per transfer
//! kind per edge side — the same function, rounded differently: fig1 kept
//! its bits, cmm moved 4 / −2 ulps at 54 / 32 iterations, strassen 133 →
//! 137 / 118 → 113 iterations, Φ +8.4e-8 / +4.6e-5), and again when a
//! line search began ending on the convexity certificate (cmm `default()`
//! moved 1 ulp lower, `…0a50` → `…0a4f`, at 54 iterations: its polish's
//! last search no longer accepts a 4e-13 move whose Φ equals the
//! iterate's; every other pin kept its bits), and again when a
//! `default()` rung began opening with the quasi-Newton pairs of the rung
//! 4× below it instead of an empty ring (`default()` only — `fast()`'s
//! 8× step does not carry, and its three pins kept their bits: fig1 35 →
//! 29, cmm 54 → 32, strassen 137 → 155 iterations; Φ moved −3.0e-9,
//! +3.9e-8, −4.7e-4 — strassen's polish now starts from a top rung that
//! lands nearer the kink, DESIGN.md §7), on x86-64 Linux, glibc
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
            [(0x402c_7a52_e22b_aa33, 29), (0x402c_7a91_28bf_d01a, 33)],
        ),
        (
            "cmm@16",
            complex_matmul_mdg(64, &table),
            16,
            [(0x3fc0_aaba_1430_f7ad, 32), (0x3fc0_aef7_6ef8_652a, 32)],
        ),
        (
            "strassen@64",
            strassen_mdg(128, &table),
            64,
            [(0x3fb9_ae55_c890_33f8, 155), (0x3fb9_b80f_d28f_65f3, 113)],
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
