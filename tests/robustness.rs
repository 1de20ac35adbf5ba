//! Robustness and failure-injection tests: extreme magnitudes,
//! degenerate graphs, pathological machine parameters, and corrupted
//! inputs must produce either correct results or structured errors —
//! never NaNs, hangs, or silent nonsense.

use paradigm_core::prelude::*;
use paradigm_mdg::{from_text, to_text, CostParam, MdgError};

#[test]
fn extreme_cost_magnitudes_solve_cleanly() {
    // Nanosecond loops next to megasecond loops: 15 orders of magnitude.
    let mut b = MdgBuilder::new("extreme");
    let tiny = b.compute("tiny", AmdahlParams::new(0.01, 1e-9));
    let huge = b.compute("huge", AmdahlParams::new(0.3, 1e6));
    let mid = b.compute("mid", AmdahlParams::new(0.1, 1.0));
    b.edge(tiny, mid, vec![ArrayTransfer::new(8, TransferKind::OneD)]);
    b.edge(huge, mid, vec![ArrayTransfer::new(1 << 30, TransferKind::TwoD)]);
    let g = b.finish().unwrap();
    let c = compile(&g, &SolveSpec::new(Machine::cm5(64))).unwrap();
    assert!(c.phi.phi.is_finite() && c.phi.phi > 0.0);
    assert!(c.t_psa.is_finite());
    c.psa.schedule.validate(&g, &c.psa.weights).unwrap();
    // The huge serial node dominates everything.
    assert!(c.t_psa >= 0.3 * 1e6);
}

#[test]
fn zero_cost_compute_nodes_schedule() {
    // alpha = 0, tau = 0: a no-op loop between real ones.
    let mut b = MdgBuilder::new("zero");
    let a = b.compute("a", AmdahlParams::new(0.1, 1.0));
    let z = b.compute("noop", AmdahlParams::new(0.0, 0.0));
    let c = b.compute("c", AmdahlParams::new(0.1, 1.0));
    b.edge(a, z, vec![]);
    b.edge(z, c, vec![]);
    let g = b.finish().unwrap();
    let res = compile(&g, &SolveSpec::new(Machine::cm5(8))).unwrap();
    assert!(res.t_psa.is_finite());
    res.psa.schedule.validate(&g, &res.psa.weights).unwrap();
}

#[test]
fn single_node_graph_full_pipeline() {
    let mut b = MdgBuilder::new("solo");
    b.compute("solo", AmdahlParams::new(0.2, 5.0));
    let g = b.finish().unwrap();
    for p in [1u32, 2, 64] {
        let c = compile(&g, &SolveSpec::new(Machine::cm5(p))).unwrap();
        let run = run_mpmd(&g, &c, &TrueMachine::cm5(p));
        assert!(run.makespan > 0.0);
        // Amdahl floor: at least alpha * tau.
        assert!(run.makespan >= 0.2 * 5.0 * 0.9);
    }
}

#[test]
fn huge_fan_out_schedules_without_quadratic_blowup() {
    // 300 independent nodes on 4 processors: the PSA must serialize in
    // waves and stay near the area bound.
    let mut b = MdgBuilder::new("fan");
    for i in 0..300 {
        b.compute(format!("w{i}"), AmdahlParams::new(0.0, 0.01));
    }
    let g = b.finish().unwrap();
    let m = Machine::cm5(4);
    let res = psa_schedule(&g, m, &Allocation::uniform(&g, 1.0), &PsaConfig::default());
    res.schedule.validate(&g, &res.weights).unwrap();
    // Area = 3 s over 4 procs = 0.75 s; list scheduling of equal unit
    // tasks is optimal here.
    assert!((res.t_psa - 0.75).abs() < 1e-9, "T_psa = {}", res.t_psa);
}

#[test]
fn deep_chain_simulates_without_stack_issues() {
    let mut b = MdgBuilder::new("deep");
    let mut prev = b.compute("n0", AmdahlParams::new(0.0, 0.001));
    for i in 1..2000 {
        let next = b.compute(format!("n{i}"), AmdahlParams::new(0.0, 0.001));
        b.edge(prev, next, vec![ArrayTransfer::new(64, TransferKind::OneD)]);
        prev = next;
    }
    let g = b.finish().unwrap();
    let m = Machine::cm5(4);
    let res = psa_schedule(&g, m, &Allocation::uniform(&g, 2.0), &PsaConfig::default());
    let prog = paradigm_sim::lower_mpmd(&g, &res.schedule);
    let sim = simulate(&prog, &TrueMachine::cm5(4));
    assert!(sim.makespan.is_finite());
    assert_eq!(sim.messages_sent + sim.local_copies, 1999 * 2); // 2 ranks each... or local
}

#[test]
fn corrupted_mdg_text_never_panics() {
    let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
    let text = to_text(&g);
    // Truncate at every line boundary and at raw byte offsets.
    for i in 0..text.lines().count() {
        let cut: String = text.lines().take(i).collect::<Vec<_>>().join("\n");
        let _ = from_text(&cut); // Result either way; must not panic
    }
    for frac in [0.1, 0.33, 0.5, 0.77, 0.95] {
        let cut: String = text.chars().take((text.len() as f64 * frac) as usize).collect();
        let _ = from_text(&cut);
    }
    // Bit flips in the middle.
    let mut bytes = text.clone().into_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] = b'%';
    if let Ok(s) = String::from_utf8(bytes) {
        let _ = from_text(&s);
    }
}

#[test]
fn builder_rejects_malformed_graphs_with_typed_errors() {
    // `MdgBuilder::finish` is the only way to make an `Mdg` and the one
    // place these shapes are refused: no lint, resource analysis or
    // scheduler re-checks them.
    let two_nodes = |edges: &[(usize, usize)]| {
        let mut b = MdgBuilder::new("bad");
        b.compute("x", AmdahlParams::new(0.0, 1.0));
        b.compute("y", AmdahlParams::new(0.0, 1.0));
        for &(src, dst) in edges {
            b.edge(NodeId(src), NodeId(dst), vec![]);
        }
        b.finish()
    };
    assert_eq!(MdgBuilder::new("empty").finish().unwrap_err(), MdgError::Empty);
    assert_eq!(two_nodes(&[(0, 5)]).unwrap_err(), MdgError::DanglingEdge { src: 0, dst: 5 });
    assert_eq!(two_nodes(&[(1, 1)]).unwrap_err(), MdgError::SelfLoop(1));
    assert_eq!(
        two_nodes(&[(0, 1), (0, 1)]).unwrap_err(),
        MdgError::DuplicateEdge { src: 0, dst: 1 }
    );
    assert!(matches!(two_nodes(&[(0, 1), (1, 0)]), Err(MdgError::Cycle(_))));
    assert!(two_nodes(&[(0, 1)]).is_ok());

    // Node costs too: Eq. (1) is a posynomial only for alpha in [0, 1]
    // and a finite tau >= 0, and no solver, lint or analysis re-checks it.
    let second_costs = |alpha: f64, tau: f64| {
        let mut b = MdgBuilder::new("cost");
        b.compute("x", AmdahlParams::new(0.0, 1.0));
        b.compute("y", AmdahlParams::new(alpha, tau));
        b.finish().map(|_| ())
    };
    for tau in [f64::NAN, -1.0, f64::INFINITY] {
        let bad = MdgError::InvalidCost { node: 1, param: CostParam::Tau };
        assert_eq!(second_costs(0.5, tau), Err(bad), "tau = {tau}");
    }
    for alpha in [1.7, -0.5, f64::NAN] {
        let bad = MdgError::InvalidCost { node: 1, param: CostParam::Alpha };
        assert_eq!(second_costs(alpha, 1.0), Err(bad), "alpha = {alpha}");
    }
    assert_eq!(second_costs(1.0, 0.0), Ok(()));
}

#[test]
fn a_corrupted_schedule_is_audited_violation_by_violation() {
    use paradigm_analyze::{AuditClaims, ScheduleAuditor};
    // A PSA schedule of the complex multiply with three corruptions: init
    // Ar never finishes, the addition Cr has a NaN start, and init Ai
    // moves onto init Br's processors while both run. A task with a
    // non-finite interval takes part in neither the race sweep nor the
    // machine-wide capacity count, so the only capacity verdict is none.
    let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
    let m = Machine::cm5(16);
    let psa = psa_schedule(&g, m, &Allocation::uniform(&g, 4.0), &PsaConfig::default());
    let mut s = psa.schedule.clone();
    let at = |s: &Schedule, v: usize| s.tasks.iter().position(|t| t.node == NodeId(v)).unwrap();
    let (ar, ai, br, cr) = (at(&s, 1), at(&s, 2), at(&s, 3), at(&s, 9));
    s.tasks[ar].finish = f64::INFINITY;
    s.tasks[cr].start = f64::NAN;
    s.tasks[ai].procs = s.tasks[br].procs.clone();
    let claims =
        AuditClaims { phi: 0.9 * psa.t_psa, t_psa: psa.t_psa, tier: FallbackTier::Primary };
    let rep = ScheduleAuditor::new().audit(&g, &m, &psa.bounded, &s, &claims);
    assert_eq!(
        rep.render(),
        concat!(
            "6 schedule violation(s):\n",
            "  - node n1 has malformed interval [0, inf)\n",
            "  - node n9 has malformed interval [NaN, 0.13352896548)\n",
            "  - processor 8: n2 and n3 overlap on [0, 0.01010880032)\n",
            "  - processor 9: n2 and n3 overlap on [0, 0.01010880032)\n",
            "  - processor 10: n2 and n3 overlap on [0, 0.01010880032)\n",
            "  - processor 11: n2 and n3 overlap on [0, 0.01010880032)\n",
            "audit: capacity and Phi claims consistent\n",
        )
    );
}

#[test]
fn solver_handles_machine_of_one_processor() {
    let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
    let res = allocate(&g, Machine::cm5(1), &SolverConfig::fast());
    // Only one feasible allocation: everything on 1 processor.
    for (id, _) in g.nodes() {
        assert!((res.alloc.get(id) - 1.0).abs() < 1e-9);
    }
    let psa = psa_schedule(&g, Machine::cm5(1), &res.alloc, &PsaConfig::default());
    psa.schedule.validate(&g, &psa.weights).unwrap();
}

#[test]
fn noise_amplitude_sweep_keeps_simulation_sane() {
    let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
    let c = compile(&g, &SolveSpec::new(Machine::cm5(16))).unwrap();
    let base = run_mpmd(&g, &c, &TrueMachine::ideal(16)).makespan;
    for noise in [0.0, 0.05, 0.2, 0.5] {
        let truth = paradigm_sim::TrueMachine::custom(
            Machine::cm5(16),
            KernelCostTable::cm5(),
            noise,
            0.0,
            9,
        );
        let m = run_mpmd(&g, &c, &truth).makespan;
        assert!(m.is_finite() && m > 0.0);
        // Even 50% per-site noise stays within a 2x envelope of the
        // noise-free run (noise is multiplicative and zero-mean-ish).
        assert!((m / base) < 2.0 && (m / base) > 0.5, "noise {noise}: ratio {}", m / base);
    }
}

#[test]
fn transfer_of_one_byte_and_of_gigabytes() {
    let m = Machine::cm5(64).xfer;
    for bytes in [1u64, 1 << 30] {
        for kind in [TransferKind::OneD, TransferKind::TwoD] {
            let c = paradigm_cost::transfer_components(kind, bytes, 8.0, 8.0, &m);
            assert!(c.send.is_finite() && c.send > 0.0);
            assert!(c.recv.is_finite() && c.recv > 0.0);
        }
    }
}

#[test]
fn solve_spec_admits_only_what_the_pipeline_can_run() {
    use paradigm_core::{try_solve_pipeline, PipelineError, SolveSpec, MAX_PROCS};
    let g = example_fig1_mdg();
    let rejected = |spec: &SolveSpec, why: &str| {
        assert!(spec.validate().is_err(), "validate must reject {why}");
        match try_solve_pipeline(&g, spec) {
            Err(PipelineError::InvalidSpec(msg)) => msg,
            other => panic!("{why}: expected InvalidSpec, got {other:?}"),
        }
    };
    // Corollary 1 chooses PB among powers of two, and the PSA's bounding
    // step asserts it: anything else used to panic after the full solve.
    for pb in [3, 6, 12] {
        let spec = SolveSpec { pb: Some(pb), ..SolveSpec::new(Machine::cm5(16)) };
        let msg = rejected(&spec, "a processor bound that is not a power of two");
        assert!(msg.contains("power of two"), "{msg}");
    }
    // The PSA's memory is O(tasks x procs): an unchecked machine size is
    // an allocation failure that aborts the process, not an error.
    for procs in [MAX_PROCS + 1, u32::MAX] {
        let msg = rejected(&SolveSpec::new(Machine::cm5(procs)), "an oversized machine");
        assert!(msg.contains(&MAX_PROCS.to_string()), "{msg}");
    }
    // What it has to keep accepting: PB 1, one processor, and a machine
    // size that is not a power of two.
    for (procs, pb) in [(1, None), (6, None), (16, Some(1)), (6, Some(4))] {
        let spec = SolveSpec { pb, ..SolveSpec::new(Machine::cm5(procs)) };
        assert_eq!(spec.validate(), Ok(()), "procs {procs}, pb {pb:?}");
        let out = try_solve_pipeline(&g, &spec).expect("a valid spec solves");
        assert!(out.t_psa.is_finite() && out.pb <= procs);
    }
}
