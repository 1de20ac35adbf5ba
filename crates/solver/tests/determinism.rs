//! Bitwise determinism of the multistart solver: the parallel path may
//! only change *where* a start runs, never what it computes, so for the
//! same seed the parallel and serial solves must return bit-identical
//! `AllocationResult`s (not merely close ones).

use paradigm_cost::Machine;
use paradigm_mdg::{
    complex_matmul_mdg, example_fig1_mdg, random_layered_mdg, KernelCostTable, RandomMdgConfig,
};
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
fn parallel_multistart_is_bitwise_identical_to_serial() {
    // No wall-clock budget: the watchdog is the only nondeterministic
    // input, and these configs do not set one. Starts run in lane chunks
    // of 8 with threads only across chunks, so the parallel path differs
    // from the serial one only from 9 starts up: 13 random starts make
    // 16 = two chunks, 5 make one.
    let cases: Vec<(&str, paradigm_mdg::Mdg, u32, usize)> = vec![
        ("fig1", example_fig1_mdg(), 4, 5),
        ("cmm-64", complex_matmul_mdg(64, &KernelCostTable::cm5()), 16, 5),
        ("cmm-64 two chunks", complex_matmul_mdg(64, &KernelCostTable::cm5()), 16, 13),
        (
            "random-5x4",
            random_layered_mdg(
                &RandomMdgConfig {
                    layers: 5,
                    width_min: 4,
                    width_max: 4,
                    ..RandomMdgConfig::default()
                },
                7,
            ),
            32,
            13,
        ),
    ];
    for (label, g, procs, random_starts) in &cases {
        let base = SolverConfig { random_starts: *random_starts, ..SolverConfig::default() };
        let par =
            try_allocate(g, Machine::cm5(*procs), &SolverConfig { parallel: true, ..base.clone() })
                .expect("parallel solve");
        let seq = try_allocate(g, Machine::cm5(*procs), &SolverConfig { parallel: false, ..base })
            .expect("serial solve");
        assert_eq!(par.starts, 3 + random_starts, "{label}: start count");
        assert_bitwise_equal(&par, &seq, label);
    }
}

#[test]
fn parallel_multistart_is_reproducible_across_runs() {
    let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
    let cfg = SolverConfig { random_starts: 4, parallel: true, ..SolverConfig::default() };
    let a = try_allocate(&g, Machine::cm5(16), &cfg).expect("solve");
    let b = try_allocate(&g, Machine::cm5(16), &cfg).expect("solve");
    assert_bitwise_equal(&a, &b, "repeat-run");
}
