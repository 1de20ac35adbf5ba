//! End-to-end integration tests: the full compile-and-run pipeline on
//! the paper's two test programs at the paper's three system sizes.

use paradigm_core::prelude::*;

const SIZES: [u32; 3] = [16, 32, 64];

fn paper_graphs() -> Vec<Mdg> {
    let t = KernelCostTable::cm5();
    vec![complex_matmul_mdg(64, &t), strassen_mdg(128, &t)]
}

#[test]
fn compiled_schedules_validate_everywhere() {
    for g in paper_graphs() {
        for &p in &SIZES {
            let c = compile(&g, Machine::cm5(p), &CompileConfig::fast());
            c.psa
                .schedule
                .validate(&g, &c.psa.weights)
                .unwrap_or_else(|e| panic!("{} p={p}: {e}", g.name()));
        }
    }
}

#[test]
fn t_psa_is_bounded_below_by_phi_and_above_by_theorem3() {
    for g in paper_graphs() {
        for &p in &SIZES {
            let c = compile(&g, Machine::cm5(p), &CompileConfig::fast());
            // 1% slack: the fast solver config's Phi can sit slightly
            // above the true optimum (cf. the paper's negative Table-3
            // CMM entries).
            assert!(
                c.t_psa >= c.phi.phi * (1.0 - 1e-2),
                "{} p={p}: T_psa {} below Phi {}",
                g.name(),
                c.t_psa,
                c.phi.phi
            );
            let bound = paradigm_sched::theorem3_factor(p, c.psa.pb) * c.phi.phi;
            assert!(
                c.t_psa <= bound,
                "{} p={p}: T_psa {} above Theorem-3 bound {}",
                g.name(),
                c.t_psa,
                bound
            );
        }
    }
}

#[test]
fn simulated_mpmd_close_to_prediction() {
    for g in paper_graphs() {
        for &p in &SIZES {
            let c = compile(&g, Machine::cm5(p), &CompileConfig::fast());
            let r = run_mpmd(&g, &c, &TrueMachine::cm5(p));
            let ratio = c.t_psa / r.makespan;
            assert!(
                (0.75..=1.25).contains(&ratio),
                "{} p={p}: predicted/actual = {ratio}",
                g.name()
            );
        }
    }
}

#[test]
fn mpmd_beats_spmd_at_scale() {
    for g in paper_graphs() {
        let p = 64;
        let c = compile(&g, Machine::cm5(p), &CompileConfig::fast());
        let truth = TrueMachine::cm5(p);
        let mpmd = run_mpmd(&g, &c, &truth);
        let spmd = run_spmd(&g, &truth);
        assert!(
            spmd.makespan / mpmd.makespan > 1.2,
            "{}: MPMD gain only {:.2}",
            g.name(),
            spmd.makespan / mpmd.makespan
        );
    }
}

#[test]
fn mpmd_efficiency_beats_spmd_efficiency_at_64() {
    // The mechanism behind the speedup: mixed parallelism turns more of
    // the machine's processor-time into *useful* work. (Note: raw
    // busy-time utilization is the wrong metric here — SPMD keeps every
    // processor "busy" executing the redundant Amdahl-serial fraction of
    // each loop — so we measure efficiency against the true serial work.)
    let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
    let p = 64;
    let c = compile(&g, Machine::cm5(p), &CompileConfig::fast());
    let truth = TrueMachine::cm5(p);
    let mpmd = run_mpmd(&g, &c, &truth);
    let spmd = run_spmd(&g, &truth);
    let serial = paradigm_sched::serial_schedule(&g);
    let eff = |makespan: f64| serial / (p as f64 * makespan);
    assert!(
        eff(mpmd.makespan) > eff(spmd.makespan),
        "MPMD eff {} vs SPMD eff {}",
        eff(mpmd.makespan),
        eff(spmd.makespan)
    );
}

#[test]
fn phi_and_t_psa_decrease_with_machine_size() {
    for g in paper_graphs() {
        let mut prev_phi = f64::INFINITY;
        for &p in &SIZES {
            let c = compile(&g, Machine::cm5(p), &CompileConfig::fast());
            assert!(
                c.phi.phi <= prev_phi * 1.01,
                "{} p={p}: Phi should not grow with machine size",
                g.name()
            );
            prev_phi = c.phi.phi;
        }
    }
}

#[test]
fn deviation_percent_matches_manual_computation() {
    let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
    let c = compile(&g, Machine::cm5(16), &CompileConfig::fast());
    let manual = 100.0 * (c.t_psa - c.phi.phi) / c.phi.phi;
    assert!((c.deviation_percent() - manual).abs() < 1e-12);
}

#[test]
fn fig1_example_full_pipeline_exact() {
    let g = example_fig1_mdg();
    let c = compile(&g, Machine::cm5(4), &CompileConfig::default());
    assert!((c.t_psa - 14.3).abs() < 1e-9);
    let (spmd, _) = spmd_schedule(&g, Machine::cm5(4));
    assert!((spmd.makespan - 15.6).abs() < 1e-9);
}

/// Golden pins of the whole pipeline, the tier-1 reach of
/// `crates/{solver,admm}/tests/golden.rs` (which `cargo test -q` at the
/// root does not run): `try_solve_pipeline` under the serving defaults on
/// the three paper graphs, and on one `spec.admm` graph cut into two
/// blocks so that consensus rounds, block solves and the coordinator
/// polish all run. A descent stage that bends a trajectory moves a
/// `Phi` bit, a `T_psa` bit or an iteration count here. Values
/// re-captured at PR 20 (one quasi-Newton start; the ADMM row keeps its
/// 75 rounds / 6774 inner iterations, the finishing stage moves polish
/// 132 → 211 and `Phi`) on x86-64 Linux, glibc libm; a platform whose
/// `exp`/`ln` round differently may legitimately move the bits —
/// re-capture there rather than loosening the comparison.
#[test]
fn pipeline_outputs_are_pinned_to_the_bit() {
    use paradigm_core::{
        try_compile, try_solve_pipeline, try_solve_pipeline_with_backend, SolveSpec,
    };
    let table = KernelCostTable::cm5();
    // (label, graph, procs, Phi bits, T_psa bits, dense solver iterations).
    let dense: [(&str, Mdg, u32, u64, u64, usize); 3] = [
        ("fig1@4", example_fig1_mdg(), 4, 0x402c_7a91_27db_8767, 0x402c_9999_9999_999a, 35),
        (
            "cmm@16",
            complex_matmul_mdg(64, &table),
            16,
            0x3fc0_aef7_80ad_1340,
            0x3fc1_177a_25e7_147f,
            40,
        ),
        (
            "strassen@64",
            strassen_mdg(128, &table),
            64,
            0x3fb9_b7cc_87a0_2e48,
            0x3fbe_6b19_a984_d636,
            196,
        ),
    ];
    for (label, g, procs, phi_bits, t_psa_bits, iterations) in &dense {
        let machine = Machine::cm5(*procs);
        let out = try_solve_pipeline(g, &SolveSpec::new(machine)).expect("paper graph solves");
        // `SolveOutput` does not carry the iteration count; the compile
        // entry point under the same (fast) solver settings does.
        let c = try_compile(g, machine, &CompileConfig::fast()).expect("paper graph compiles");
        assert_eq!(c.phi.phi.to_bits(), out.phi.to_bits(), "{label}: compile vs pipeline Phi");
        assert_eq!(
            (out.phi.to_bits(), out.t_psa.to_bits(), c.solve.iterations),
            (*phi_bits, *t_psa_bits, *iterations),
            "{label}: Phi = {} (0x{:016x}), T_psa = {} (0x{:016x}), {} iterations",
            out.phi,
            out.phi.to_bits(),
            out.t_psa,
            out.t_psa.to_bits(),
            c.solve.iterations
        );
    }

    // The graph is too small for the default partition to cut (one
    // block, one round), so the block count is forced — through the entry
    // point `try_solve_pipeline` is the default-argument form of.
    let g = paradigm_mdg::fork_join_mdg(4, 8, 3);
    let spec = SolveSpec { admm: true, ..SolveSpec::new(Machine::cm5(32)) };
    let cfg = paradigm_admm::AdmmConfig::with_blocks(&g, 2);
    let mut backend = paradigm_admm::InProcessBackend { threads: 1 };
    let out = try_solve_pipeline_with_backend(&g, &spec, &cfg, &mut backend).expect("admm solves");
    let a = out.admm.as_ref().expect("spec.admm routes through the ADMM tier");
    assert_eq!(
        (out.phi.to_bits(), out.t_psa.to_bits(), a.outer_iters, a.inner_iters, a.polish_iters),
        (0x3fef_2610_ee0a_2ee3, 0x3ff9_2ff8_d119_64f4, 75, 6774, 211),
        "fork-join admm@32: Phi = {} (0x{:016x}), T_psa = {} (0x{:016x}), {} blocks, \
         {} rounds / {} inner / {} polish",
        out.phi,
        out.phi.to_bits(),
        out.t_psa,
        out.t_psa.to_bits(),
        a.blocks,
        a.outer_iters,
        a.inner_iters,
        a.polish_iters
    );
}
