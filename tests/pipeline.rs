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
/// re-captured at PR 20 (one quasi-Newton start) and, the ADMM row only,
/// at PR 23 (one backward replay per gradient rounds `w_a·∇A_p +
/// w_c·∇C_p` differently: 75 rounds / 6774 inner / 211 polish → 69 / 6277
/// / 180, `Phi` −5.6e-4, `T_psa` −8.3e-3 relative). The dense rows were
/// re-captured again when the rungs below the ladder's top began stopping
/// at `WARM_TOL` = 1e-3 (iterations 35 → 33, 40 → 32, 196 → 189; `Phi`
/// +4.3e-11, +3.3e-9, −2.7e-6 relative; every `T_psa` bit unchanged).
/// When the quasi-Newton direction took a per-variable initial matrix
/// instead of `γ·I`, the dense rows moved again (iterations 33 → 37,
/// 32 → 32, 189 → 127; `Phi` −6.1e-10, −6.7e-8, −3.4e-6; every `T_psa`
/// bit unchanged) and the ADMM row's finishing stage took 180 → 166
/// polish iterations, its `Phi` and `T_psa` bits unchanged.
/// Captured on x86-64 Linux, glibc libm; a platform whose `exp`/`ln`
/// round differently may legitimately move the bits — re-capture there
/// rather than loosening the comparison.
#[test]
fn pipeline_outputs_are_pinned_to_the_bit() {
    use paradigm_core::{
        try_compile, try_solve_pipeline, try_solve_pipeline_with_backend, SolveSpec,
    };
    let table = KernelCostTable::cm5();
    // (label, graph, procs, Phi bits, T_psa bits, dense solver iterations).
    let dense: [(&str, Mdg, u32, u64, u64, usize); 3] = [
        ("fig1@4", example_fig1_mdg(), 4, 0x402c_7a91_2796_8e05, 0x402c_9999_9999_999a, 37),
        (
            "cmm@16",
            complex_matmul_mdg(64, &table),
            16,
            0x3fc0_aef7_6ef8_652c,
            0x3fc1_177a_25e7_147f,
            32,
        ),
        (
            "strassen@64",
            strassen_mdg(128, &table),
            64,
            0x3fb9_b7c2_435f_e211,
            0x3fbe_6b19_a984_d636,
            127,
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
        (0x3fef_21a0_afd3_ceb0, 0x3ff8_fa40_791c_2350, 69, 6277, 166),
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

/// The simulated run of the pipeline's own MPMD programs, to the bit,
/// with the message counts and the message *order* (message indices seed
/// the truth machine's noise, so a reordering would move every simulated
/// number). Captured at the parent of the PR that made the compile tail
/// O(M log q): `lower_mpmd`, `TaskProgram::validate` and `simulate` may
/// get cheaper, never different. The solve feeds them, so a solver change
/// may move a row: the quasi-Newton direction's per-variable initial
/// matrix moved strassen-ml@64's allocation, and its simulated makespan
/// by +1.5 % (0x3fc8_a1de_df5f_5e56) and its message split from 2129 sent
/// / 123 local to 2132 / 120.
#[test]
fn simulated_makespans_and_message_order_are_pinned_to_the_bit() {
    use paradigm_core::{gallery_graph, try_solve_pipeline, SolveSpec};
    use paradigm_sim::lower_mpmd;
    // (gallery graph, procs, sim makespan bits, messages, sent, local copies)
    let pins: [(&str, u32, u64, usize, usize, usize); 9] = [
        ("strassen-ml", 16, 0x3fe0_4b8d_ec7d_a64c, 558, 503, 55),
        ("strassen-ml", 64, 0x3fc9_02df_a136_3cba, 2252, 2132, 120),
        ("random-layered", 16, 0x402f_1d22_4490_3886, 3879, 3520, 359),
        ("random-layered", 64, 0x401b_c3d0_c44a_874d, 40_069, 38_877, 1192),
        ("fork-join", 64, 0x3fff_9aa1_cff4_4154, 2751, 2608, 143),
        ("cmm", 16, 0x3fc0_e565_21b7_9db5, 48, 44, 4),
        ("cmm", 64, 0x3fb0_95f4_402d_1785, 192, 176, 16),
        ("strassen", 16, 0x3fd2_6704_5e55_cdf8, 176, 157, 19),
        ("strassen", 64, 0x3fbd_4232_7740_297f, 672, 609, 63),
    ];
    for (name, procs, makespan_bits, messages, sent, local) in pins {
        let g = gallery_graph(name).unwrap_or_else(|| panic!("gallery graph {name}"));
        let spec = SolveSpec { simulate: true, ..SolveSpec::new(Machine::cm5(procs)) };
        let out = try_solve_pipeline(&g, &spec).expect("gallery graph solves");
        let makespan = out.sim_makespan.expect("spec.simulate was set");
        // The same program again, for the counts `SolveOutput` does not carry.
        let prog = lower_mpmd(&g, &out.schedule);
        let sim = simulate(&prog, &TrueMachine::cm5(procs));
        assert_eq!(
            sim.makespan.to_bits(),
            makespan.to_bits(),
            "{name}@{procs}: pipeline vs direct"
        );
        assert_eq!(
            (makespan.to_bits(), prog.messages.len(), sim.messages_sent, sim.local_copies),
            (makespan_bits, messages, sent, local),
            "{name}@{procs}: makespan = {makespan} (0x{:016x})",
            makespan.to_bits()
        );
        if (name, procs) == ("random-layered", 64) {
            let m = |k: usize| {
                let m = prog.messages[k];
                (m.from_task, m.to_task, m.src_proc, m.dst_proc, m.bytes)
            };
            let first: Vec<_> = (0..8).map(m).collect();
            let last: Vec<_> = (messages - 8..messages).map(m).collect();
            let expect_first: Vec<_> = (0..8).map(|i| (4, 10, 20 + i, 44 + i, 29_339)).collect();
            assert_eq!(first, expect_first, "first 8 messages");
            let expect_last: Vec<_> = [4, 7, 8, 14, 20, 21, 22, 55]
                .into_iter()
                .map(|dst| (183, 193, 63, dst, if dst == 55 { 366 } else { 367 }))
                .collect();
            assert_eq!(last, expect_last, "last 8 messages");
        }
    }
}
