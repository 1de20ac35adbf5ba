//! Golden trajectory pins for the dense solver: the exact `Phi` bits and
//! the total iteration count of `try_allocate` on the three paper
//! graphs, under both stock configurations.
//!
//! `determinism.rs` pins serial ≡ parallel; nothing pinned *today's run
//! ≡ yesterday's*. A refactor of the descent loops (which probe records
//! the tape, which buffer holds the gradient) must leave every accepted
//! step where it was, and a bent trajectory shows here as a different
//! iteration count or last bit long before it moves a tolerance-based
//! test. Values captured at commit e4df3dc (x86-64 Linux, glibc libm);
//! a platform whose `exp`/`ln` round differently may legitimately move
//! the bits — re-capture there rather than loosening the comparison.

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
            [(0x402c_7a52_dacd_7d20, 4072), (0x402c_7a91_0b4a_28a6, 750)],
        ),
        (
            "cmm@16",
            complex_matmul_mdg(64, &table),
            16,
            [(0x3fc0_a9a4_2ddf_fae3, 9714), (0x3fc0_aeec_7496_b90f, 1245)],
        ),
        (
            "strassen@64",
            strassen_mdg(128, &table),
            64,
            [(0x3fb9_b1c3_0e41_cbe0, 9738), (0x3fb9_c3b4_9337_7135, 1292)],
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
