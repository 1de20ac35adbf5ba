//! Bitwise determinism of the dense solver: two solves of one instance
//! must return bit-identical `AllocationResult`s (not merely close ones).

use paradigm_cost::Machine;
use paradigm_mdg::{complex_matmul_mdg, KernelCostTable};
use paradigm_solver::{try_allocate, AllocationResult, SolverConfig};

fn assert_bitwise_equal(a: &AllocationResult, b: &AllocationResult, label: &str) {
    assert_eq!(a.starts, b.starts, "{label}: start count");
    assert_eq!(a.iterations, b.iterations, "{label}: iteration count");
    assert_eq!(
        a.phi.phi.to_bits(),
        b.phi.phi.to_bits(),
        "{label}: Phi differs ({} vs {})",
        a.phi.phi,
        b.phi.phi
    );
    assert_eq!(a.phi.a_p.to_bits(), b.phi.a_p.to_bits(), "{label}: A_p differs");
    assert_eq!(a.phi.c_p.to_bits(), b.phi.c_p.to_bits(), "{label}: C_p differs");
    assert_eq!(a.alloc.len(), b.alloc.len(), "{label}: allocation length");
    for (i, (pa, pb)) in a.alloc.as_slice().iter().zip(b.alloc.as_slice()).enumerate() {
        assert_eq!(pa.to_bits(), pb.to_bits(), "{label}: allocation of node {i} differs");
    }
}

#[test]
fn a_solve_is_reproducible_across_runs() {
    // No wall-clock budget: the watchdog is the only nondeterministic
    // input, and these configs do not set one.
    let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
    for (label, cfg) in [("default", SolverConfig::default()), ("fast", SolverConfig::fast())] {
        let a = try_allocate(&g, Machine::cm5(16), &cfg).expect("solve");
        let b = try_allocate(&g, Machine::cm5(16), &cfg).expect("solve");
        assert_eq!(a.starts, 1);
        assert_bitwise_equal(&a, &b, label);
    }
}
