//! Bitwise determinism of the multistart solver: for the same seed two
//! solves must return bit-identical `AllocationResult`s (not merely
//! close ones), whether the starts fill one lane chunk or several.

use paradigm_cost::Machine;
use paradigm_mdg::{complex_matmul_mdg, KernelCostTable};
use paradigm_solver::{try_allocate, AllocationResult, SolverConfig};

fn assert_bitwise_equal(par: &AllocationResult, seq: &AllocationResult, label: &str) {
    assert_eq!(par.starts, seq.starts, "{label}: start count");
    assert_eq!(par.iterations, seq.iterations, "{label}: iteration count");
    assert_eq!(
        par.phi.phi.to_bits(),
        seq.phi.phi.to_bits(),
        "{label}: Phi differs ({} vs {})",
        par.phi.phi,
        seq.phi.phi
    );
    assert_eq!(par.phi.a_p.to_bits(), seq.phi.a_p.to_bits(), "{label}: A_p differs");
    assert_eq!(par.phi.c_p.to_bits(), seq.phi.c_p.to_bits(), "{label}: C_p differs");
    assert_eq!(par.alloc.len(), seq.alloc.len(), "{label}: allocation length");
    for (i, (a, b)) in par.alloc.as_slice().iter().zip(seq.alloc.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: allocation of node {i} differs");
    }
}

#[test]
fn multistart_is_reproducible_across_runs() {
    // No wall-clock budget: the watchdog is the only nondeterministic
    // input, and these configs do not set one. Starts run in lane chunks
    // of 8: 4 random starts make 7 = one chunk, 13 make 16 = two.
    let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
    for random_starts in [4, 13] {
        let cfg = SolverConfig { random_starts, ..SolverConfig::default() };
        let a = try_allocate(&g, Machine::cm5(16), &cfg).expect("solve");
        let b = try_allocate(&g, Machine::cm5(16), &cfg).expect("solve");
        assert_eq!(a.starts, 3 + random_starts);
        assert_bitwise_equal(&a, &b, &format!("repeat-run, {} starts", a.starts));
    }
}
