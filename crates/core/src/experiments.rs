//! The reproduction driver: one function per evaluation artefact of the
//! paper (Section 6: Tables 1–3, Figures 1 and 3–9) and per ablation
//! study, each returning the text block it prints and asserting the
//! artefact's pass criteria (Theorems 2 and 3, `T_psa ≥ Φ`, the oracle
//! ratio, the fit tolerances, …) on the way.
//!
//! [`all`] lists the blocks by name. `EXPERIMENTS.md` holds each one
//! verbatim between `<!-- repro:NAME -->` and `<!-- /repro -->`, and the
//! root test `tests/repro.rs` regenerates them and compares byte for
//! byte, so a change that moves a printed paper number fails tier-1.
//! Every block is deterministic: no wall times, no unseeded randomness.

use std::fmt::Write;

use crate::compile::{compile, run_mpmd, run_spmd, Compiled, SolveSpec};
use crate::programs::TestProgram;
use paradigm_cost::regression::{fit_amdahl, fit_transfer};
use paradigm_cost::transfer::transfer_components;
use paradigm_cost::{Allocation, Machine, MdgWeights, TransferParams};
use paradigm_kernels::{redistribution_plan, BlockDist, RedistMessage};
use paradigm_mdg::{
    complex_matmul_mdg, dot, example_fig1_mdg, fuse_serial_chains, random_layered_mdg,
    strassen_mdg, strassen_mdg_multilevel, transitive_reduction, KernelCostTable, LoopClass, Mdg,
    MdgStats, NodeId, RandomMdgConfig, TransferKind,
};
use paradigm_sched::{
    optimal_pb, psa_schedule, refine_allocation, serial_schedule, spmd_schedule, theorem2_factor,
    theorem3_factor, PsaConfig, SchedPolicy,
};
use paradigm_sim::measure::{measure_one_transfer, measure_processing, measure_transfers};
use paradigm_sim::TrueMachine;
use paradigm_solver::convexity::{probe_midpoint_convexity, probe_points};
use paradigm_solver::expr::Sharpness;
use paradigm_solver::{allocate, brute_force_pow2, MdgObjective, SolverConfig};

/// The paper's evaluated system sizes.
const PAPER_SIZES: [u32; 3] = [16, 32, 64];

/// The paper's compile: the full solver ladder, then the PSA at
/// Corollary 1's PB.
fn compile_paper(g: &Mdg, machine: Machine) -> Compiled {
    let spec = SolveSpec { fast_solver: false, ..SolveSpec::new(machine) };
    compile(g, &spec).expect("the paper's graphs compile")
}

/// `writeln!` into a `String` (which cannot fail).
macro_rules! out {
    ($s:expr) => {
        $s.push('\n')
    };
    ($s:expr, $($arg:tt)*) => {{
        let _ = writeln!($s, $($arg)*);
    }};
}

/// Every artefact's block, by name, in `EXPERIMENTS.md` order. Each
/// block has its leading and trailing blank lines trimmed and ends in
/// one newline.
pub fn all() -> Vec<(&'static str, String)> {
    let drivers = [
        ("fig1_example", fig1_example as fn() -> String),
        ("table1_processing_fit", table1_processing_fit),
        ("fig3_processing_curves", fig3_processing_curves),
        ("table2_transfer_fit", table2_transfer_fit),
        ("fig4_transfer_patterns", fig4_transfer_patterns),
        ("fig5_transfer_curves", fig5_transfer_curves),
        ("fig6_mdgs", fig6_mdgs),
        ("fig7_schedule", fig7_schedule),
        ("fig8_speedup", fig8_speedup),
        ("fig9_predicted_vs_actual", fig9_predicted_vs_actual),
        ("table3_phi_deviation", table3_phi_deviation),
        ("ablation_rounding", ablation_rounding),
        ("ablation_pb_sweep", ablation_pb_sweep),
        ("ablation_solver_quality", ablation_solver_quality),
        ("ablation_alloc_policy", ablation_alloc_policy),
        ("ablation_scheduler_policy", ablation_scheduler_policy),
        ("ablation_chain_fusion", ablation_chain_fusion),
        ("ablation_scalability", ablation_scalability),
        ("ablation_refinement", ablation_refinement),
    ];
    drivers
        .into_iter()
        .map(|(name, run)| (name, format!("{}\n", run().trim_matches('\n'))))
        .collect()
}

/// The short program name used in the ablation tables (`Complex`, `Strassen's`).
fn short_name(prog: &TestProgram) -> String {
    prog.name().split(' ').next().unwrap_or("?").to_owned()
}

/// Figures 1 and 2: the three-node motivating example, where mixed
/// functional and data parallelism (N1 on 4 processors, then N2 ‖ N3 on
/// 2 each) beats pure data parallelism, 14.3 s against 15.6 s.
pub fn fig1_example() -> String {
    let mut s = String::new();
    let g = example_fig1_mdg();
    let machine = Machine::cm5(4);

    let params = g.node(NodeId(1)).cost;
    out!(s, "processing cost of each node (alpha = 1/13, tau = 16.9 s):");
    out!(s, "  procs |  time (s)");
    for q in [1u32, 2, 4] {
        out!(s, "  {:>5} | {:>8.2}", q, params.cost(q as f64));
    }

    let (spmd, spmd_w) = spmd_schedule(&g, machine);
    spmd.validate(&g, &spmd_w).expect("valid SPMD schedule");
    out!(s, "\nScheme 1 — pure data parallelism (all nodes on 4 procs):");
    out!(s, "{}", spmd.gantt(&g, 52));
    out!(s, "  finish time: {:.1} s (paper: 15.6 s)", spmd.makespan);

    let compiled = compile_paper(&g, machine);
    compiled.psa.schedule.validate(&g, &compiled.psa.weights).expect("valid PSA schedule");
    out!(s, "\nScheme 2 — functional + data parallelism (convex + PSA):");
    out!(s, "{}", compiled.psa.schedule.gantt(&g, 52));
    out!(s, "  finish time: {:.1} s (paper: 14.3 s)", compiled.t_psa);
    out!(s, "  continuous optimum Phi = {:.4} s", compiled.phi.phi);

    assert!(
        (spmd.makespan - 15.6).abs() < 1e-6 && (compiled.t_psa - 14.3).abs() < 1e-6,
        "figure 1/2 reproduction drifted"
    );
    s
}

/// Table 1: the processing-cost parameters (`alpha`, `tau`) of the
/// Matrix Addition and Matrix Multiply loops at 64x64, recovered by
/// linear regression against the simulated CM-5 (Section 4's training
/// sets).
pub fn table1_processing_fit() -> String {
    let mut s = String::new();
    let truth = TrueMachine::cm5(64);
    let qs = [1u32, 2, 4, 8, 16, 32, 64];
    out!(s, "  Node Name                 | alpha (%) |  tau (mS) |   R^2   | paper alpha/tau");
    out!(s, "  --------------------------+-----------+-----------+---------+----------------");
    let cases = [
        ("Matrix Addition (64x64)", LoopClass::MatrixAdd, 6.7, 3.73),
        ("Matrix Multiply (64x64)", LoopClass::MatrixMultiply, 12.1, 298.47),
    ];
    let mut worst_alpha_dev: f64 = 0.0;
    for (name, class, paper_alpha, paper_tau) in cases {
        let samples = measure_processing(&truth, &class, 64, &qs, 3);
        let fit = fit_amdahl(&samples);
        out!(
            s,
            "  {:<25} | {:>4.1}±{:>4.2} | {:>6.2}±{:>4.2} | {:>7.4} | {paper_alpha} % / {paper_tau} mS",
            name,
            100.0 * fit.params.alpha,
            100.0 * fit.alpha_stderr,
            1e3 * fit.params.tau,
            1e3 * fit.tau_stderr,
            fit.r2,
        );
        worst_alpha_dev = worst_alpha_dev.max((100.0 * fit.params.alpha - paper_alpha).abs());
        assert!(fit.r2 > 0.98, "{name}: fit R^2 too low: {}", fit.r2);
        assert!(
            (1e3 * fit.params.tau - paper_tau).abs() / paper_tau < 0.05,
            "{name}: tau off by more than 5 %"
        );
    }
    let nominal = KernelCostTable::cm5();
    out!(
        s,
        "\n(ground truth machine constants: add alpha {:.1} %, mul alpha {:.1} %;",
        100.0 * nominal.add.alpha,
        100.0 * nominal.mul.alpha
    );
    out!(s, " worst fitted-alpha deviation from paper: {worst_alpha_dev:.2} points)");
    s
}

/// Figure 3: measured against predicted (fitted Amdahl model)
/// processing costs of the two loops over the processor count.
pub fn fig3_processing_curves() -> String {
    let mut s = String::new();
    let truth = TrueMachine::cm5(64);
    let qs = [1u32, 2, 4, 8, 16, 32, 64];
    for (name, class) in [
        ("Matrix Addition (64x64)", LoopClass::MatrixAdd),
        ("Matrix Multiply (64x64)", LoopClass::MatrixMultiply),
    ] {
        let samples = measure_processing(&truth, &class, 64, &qs, 5);
        let fit = fit_amdahl(&samples);
        out!(s, "\n{name} — fitted alpha {:.3}, tau {:.4} s", fit.params.alpha, fit.params.tau);
        out!(s, "  procs | measured (ms) | predicted (ms) | rel err");
        out!(s, "  ------+---------------+----------------+--------");
        let mut worst: f64 = 0.0;
        for &q in &qs {
            let at_q = || samples.iter().filter(|x| x.q == q as f64);
            let measured = at_q().map(|x| x.time).sum::<f64>() / at_q().count() as f64;
            let predicted = fit.params.cost(q as f64);
            let rel = (predicted - measured).abs() / measured;
            worst = worst.max(rel);
            out!(
                s,
                "  {:>5} | {:>13.4} | {:>14.4} | {:>6.2}%",
                q,
                1e3 * measured,
                1e3 * predicted,
                100.0 * rel
            );
        }
        assert!(worst < 0.06, "{name}: worst point error {worst}");
        out!(s, "  worst relative error: {:.2}% — curves overlap as in the paper", 100.0 * worst);
    }
    s
}

/// Table 2: the five data-transfer constants, recovered by joint least
/// squares over a 1D + 2D measurement campaign. The CM-5 moves the bytes
/// inside the receive call, so `t_n` must fit to zero.
pub fn table2_transfer_fit() -> String {
    let mut s = String::new();
    let truth = TrueMachine::cm5(64);
    let sizes = [4096u64, 16384, 65536, 262144];
    let groups = [1usize, 2, 4, 8, 16, 32];
    let samples = measure_transfers(&truth, &sizes, &groups);
    out!(
        s,
        "measurement campaign: {} samples (1D + 2D, {} sizes x {} x {} groups)",
        samples.len(),
        sizes.len(),
        groups.len(),
        groups.len()
    );

    let fit = fit_transfer(&samples);
    let paper = TransferParams::cm5();
    out!(s, "\n  param |     fitted    |  paper (CM-5) | rel dev");
    out!(s, "  ------+---------------+---------------+--------");
    let rows = [
        ("t_ss", fit.params.t_ss, paper.t_ss, 1e6, "uS"),
        ("t_ps", fit.params.t_ps, paper.t_ps, 1e9, "nS"),
        ("t_sr", fit.params.t_sr, paper.t_sr, 1e6, "uS"),
        ("t_pr", fit.params.t_pr, paper.t_pr, 1e9, "nS"),
    ];
    for (name, got, want, scale, unit) in rows {
        let dev = (got - want).abs() / want;
        out!(
            s,
            "  {:<5} | {:>9.2} {:<3} | {:>9.2} {:<3} | {:>6.2}%",
            name,
            scale * got,
            unit,
            scale * want,
            unit,
            100.0 * dev
        );
        assert!(dev < 0.10, "{name} deviates more than 10 %");
    }
    out!(
        s,
        "  t_n   | {:>9.2} nS  | {:>9.2} nS  | (must fit ~0 on the CM-5)",
        1e9 * fit.params.t_n,
        1e9 * paper.t_n
    );
    assert!(fit.params.t_n.abs() < 1e-12, "t_n must come out zero");
    out!(s, "\n  fit quality: R^2 send {:.4}, recv {:.4}", fit.r2_send, fit.r2_recv);
    assert!(fit.r2_send > 0.95 && fit.r2_recv > 0.95);
    s
}

/// One redistribution plan as a sender × receiver matrix of KiB.
fn render_pattern(s: &mut String, title: &str, plan: &[RedistMessage], src: usize, dst: usize) {
    out!(s, "\n{title} ({src} senders -> {dst} receivers, {} messages):", plan.len());
    let head: String = (0..dst).map(|d| format!(" R{d:<5}")).collect();
    out!(s, "        {}", head.trim_end());
    for sender in 0..src {
        let _ = write!(s, "  S{sender:<4} |");
        for d in 0..dst {
            let bytes: u64 = plan
                .iter()
                .filter(|m| m.src as usize == sender && m.dst as usize == d)
                .map(|m| m.bytes)
                .sum();
            if bytes > 0 {
                let _ = write!(s, "{:>6}", bytes / 1024);
            } else {
                s.push_str("     .");
            }
        }
        out!(s, "   (KiB per receiver)");
    }
}

/// Figure 4: the four inter-node transfer patterns from the real
/// redistribution planner — ROW2ROW and COL2COL rank to rank (1D),
/// ROW2COL and COL2ROW all pairs (2D) — for equal groups and for one
/// asymmetric pair of groups.
pub fn fig4_transfer_patterns() -> String {
    let mut s = String::new();
    let (n, p) = (64usize, 4usize);

    let r2r = redistribution_plan(n, n, p, BlockDist::Row, p, BlockDist::Row);
    render_pattern(&mut s, "ROW2ROW (1D)", &r2r, p, p);
    assert_eq!(r2r.len(), p, "1D equal groups: one message per rank pair");
    assert!(r2r.iter().all(|m| m.src == m.dst), "diagonal pattern");

    let c2c = redistribution_plan(n, n, p, BlockDist::Col, p, BlockDist::Col);
    render_pattern(&mut s, "COL2COL (1D)", &c2c, p, p);
    assert_eq!(c2c.len(), p);
    // The paper: ROW2ROW and COL2COL "are identical with respect to the
    // time taken for transfer".
    let bytes_r: Vec<u64> = r2r.iter().map(|m| m.bytes).collect();
    let bytes_c: Vec<u64> = c2c.iter().map(|m| m.bytes).collect();
    assert_eq!(bytes_r, bytes_c, "1D cases are cost-identical");

    let r2c = redistribution_plan(n, n, p, BlockDist::Row, p, BlockDist::Col);
    render_pattern(&mut s, "ROW2COL (2D)", &r2c, p, p);
    assert_eq!(r2c.len(), p * p, "2D: every pair exchanges a block");

    let c2r = redistribution_plan(n, n, p, BlockDist::Col, p, BlockDist::Row);
    render_pattern(&mut s, "COL2ROW (2D)", &c2r, p, p);
    assert_eq!(c2r.len(), p * p);
    // "the net amount of data transferred for any given array has to be
    // the same in both cases".
    let total_2d: u64 = r2c.iter().map(|m| m.bytes).sum();
    let total_1d: u64 = r2r.iter().map(|m| m.bytes).sum();
    assert_eq!(total_1d, total_2d, "same total bytes for 1D and 2D");
    assert_eq!(total_1d, (n * n * 8) as u64);

    // The general case the figure's caption mentions: different group sizes.
    let asym = redistribution_plan(n, n, 2, BlockDist::Row, 4, BlockDist::Row);
    render_pattern(&mut s, "ROW2ROW, asymmetric (2 -> 4)", &asym, 2, 4);
    assert_eq!(asym.len(), 4, "max(p_i, p_j) messages");
    s
}

/// Figure 5: measured (message-level) against predicted (Eq. 2/3 with
/// fitted constants) transfer costs of a 64x64 matrix, 1D and 2D,
/// across group sizes.
pub fn fig5_transfer_curves() -> String {
    let mut s = String::new();
    let truth = TrueMachine::cm5(64);
    // Fit the model first (as the paper does), then compare predictions
    // against fresh measurements.
    let fit = fit_transfer(&measure_transfers(
        &truth,
        &[4096, 16384, 65536, 262144],
        &[1, 2, 4, 8, 16, 32],
    ));

    let bytes = 64 * 64 * 8u64; // one 64x64 matrix, as in the test programs
    for kind in [TransferKind::OneD, TransferKind::TwoD] {
        out!(s, "\n{kind:?} transfer of a 64x64 matrix ({bytes} bytes):");
        out!(s, "  p_i -> p_j | measured total (uS) | predicted total (uS) | rel err");
        out!(s, "  -----------+---------------------+----------------------+--------");
        let mut worst: f64 = 0.0;
        for &(pi, pj) in
            &[(1usize, 1usize), (2, 2), (4, 4), (8, 8), (16, 16), (2, 8), (8, 2), (4, 16)]
        {
            let m = measure_one_transfer(&truth, kind, bytes, pi, pj, (pi * 97 + pj) as u64);
            let measured = m.send_time + m.net_time + m.recv_time;
            let predicted =
                transfer_components(kind, bytes, pi as f64, pj as f64, &fit.params).total();
            let rel = (predicted - measured).abs() / measured;
            worst = worst.max(rel);
            out!(
                s,
                "  {:>4} -> {:<3} | {:>19.1} | {:>20.1} | {:>6.2}%",
                pi,
                pj,
                1e6 * measured,
                1e6 * predicted,
                100.0 * rel
            );
        }
        assert!(worst < 0.08, "{kind:?}: worst error {worst}");
        out!(s, "  worst relative error: {:.2}%", 100.0 * worst);
    }
    s
}

/// Figure 6: the MDGs of the two test programs, as summary statistics,
/// an adjacency listing and Graphviz DOT (`dot -Tpng` draws them).
pub fn fig6_mdgs() -> String {
    let mut s = String::new();
    let table = KernelCostTable::cm5();
    for prog in TestProgram::paper_suite() {
        let g = prog.build(&table);
        out!(s, "\n{}", "-".repeat(70));
        out!(s, "{}", MdgStats::of(&g).render(&prog.name()));
        out!(s, "{}", dot::to_ascii(&g));
        out!(s, "Graphviz DOT:\n{}", dot::to_dot(&g));
        // The paper: "all the data transfers are of the 1D type".
        for (_, e) in g.edges() {
            for t in &e.transfers {
                assert_eq!(t.kind, TransferKind::OneD, "all transfers must be 1D");
            }
        }
    }
    s
}

/// Figure 7: the allocation (continuous, rounded, bounded) and the PSA
/// schedule of Complex Matrix Multiply on 4 processors.
pub fn fig7_schedule() -> String {
    let mut s = String::new();
    let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
    let machine = Machine::cm5(4);
    let compiled = compile_paper(&g, machine);

    out!(s, "continuous allocation (convex program) and rounded/bounded values:");
    out!(s, "  node | name            | continuous | rounded | bounded");
    out!(s, "  -----+-----------------+------------+---------+--------");
    for (id, n) in g.nodes().filter(|(_, n)| !n.is_structural()) {
        out!(
            s,
            "  {:>4} | {:<15} | {:>10.3} | {:>7} | {:>7}",
            id.to_string(),
            n.name,
            compiled.solve.alloc.get(id),
            compiled.psa.rounded.as_u32(id),
            compiled.psa.bounded.as_u32(id),
        );
    }
    out!(s, "\n  PB (Corollary 1 for p = 4): {}", compiled.psa.pb);
    out!(
        s,
        "  Phi = {:.4} s, T_psa = {:.4} s ({:+.1}%)",
        compiled.phi.phi,
        compiled.t_psa,
        compiled.deviation_percent()
    );

    out!(s, "\n{}", compiled.psa.schedule.gantt(&g, 64));
    compiled.psa.schedule.validate(&g, &compiled.psa.weights).expect("schedule must validate");

    // The four multiplies are the bulk of the schedule's processor-time.
    let mul_time: f64 = g
        .nodes()
        .filter(|(_, n)| n.name.starts_with('M'))
        .map(|(id, _)| compiled.psa.schedule.task_for(id).expect("every node is scheduled"))
        .map(|t| t.duration() * t.procs.len() as f64)
        .sum();
    let area = compiled.t_psa * 4.0;
    out!(s, "multiply processor-time share of the schedule: {:.0}%", 100.0 * mul_time / area);
    assert!(mul_time / area > 0.5, "multiplies must dominate");
    s
}

/// Figure 8: speedup and efficiency of the SPMD (pure data parallel)
/// and MPMD (functional + data parallel) versions of both programs on
/// the simulated CM-5, normalised to the 1-processor serial time. The
/// MPMD advantage must grow with the system size.
pub fn fig8_speedup() -> String {
    let mut s = String::new();
    let table = KernelCostTable::cm5();
    for prog in TestProgram::paper_suite() {
        let g = prog.build(&table);
        let serial = serial_schedule(&g);
        out!(s, "\n{}: SPMD vs MPMD (simulated CM-5)", prog.name());
        out!(s, "  procs |  SPMD time |  MPMD time | SPMD spd | MPMD spd | SPMD eff | MPMD eff");
        out!(s, "  ------+------------+------------+----------+----------+----------+---------");
        let mut gains = Vec::new();
        for p in PAPER_SIZES {
            let truth = TrueMachine::cm5(p);
            let compiled = compile_paper(&g, Machine::cm5(p));
            let mpmd = run_mpmd(&g, &compiled, &truth).makespan;
            let spmd = run_spmd(&g, &truth).makespan;
            let (spmd_speedup, mpmd_speedup) = (serial / spmd, serial / mpmd);
            let (spmd_eff, mpmd_eff) = (spmd_speedup / p as f64, mpmd_speedup / p as f64);
            out!(
                s,
                "  {:>5} | {:>9.4}s | {:>9.4}s | {:>8.2} | {:>8.2} | {:>7.1}% | {:>7.1}%",
                p,
                spmd,
                mpmd,
                spmd_speedup,
                mpmd_speedup,
                100.0 * spmd_eff,
                100.0 * mpmd_eff,
            );
            let gain = mpmd_speedup / spmd_speedup;
            assert!(
                gain >= 0.98,
                "{} p={p}: MPMD must not lose to SPMD (gain {gain})",
                prog.name()
            );
            assert!(mpmd_eff <= 1.05, "{} p={p}: efficiency {mpmd_eff} above 1", prog.name());
            gains.push(gain);
        }
        out!(
            s,
            "\n  MPMD/SPMD speedup gain: {}",
            gains.iter().map(|g| format!("{g:.2}x")).collect::<Vec<_>>().join(", ")
        );
        assert!(gains[2] > 1.1, "{}: gain at 64 procs should exceed 10 %", prog.name());
        assert!(
            gains[2] >= gains[0],
            "{}: the MPMD advantage should grow with system size",
            prog.name()
        );
    }
    s
}

/// Figure 9: predicted (`T_psa`) against simulated MPMD execution time,
/// normalised to the simulated time; every ratio lies within ±5 % of 1.
pub fn fig9_predicted_vs_actual() -> String {
    let mut s = String::new();
    let table = KernelCostTable::cm5();
    for prog in TestProgram::paper_suite() {
        let g = prog.build(&table);
        out!(s, "\n{}: predicted vs actual execution times (normalized to actual)", prog.name());
        out!(s, "  procs |  predicted |     actual | predicted/actual");
        out!(s, "  ------+------------+------------+-----------------");
        for p in PAPER_SIZES {
            let compiled = compile_paper(&g, Machine::cm5(p));
            let actual = run_mpmd(&g, &compiled, &TrueMachine::cm5(p)).makespan;
            let ratio = compiled.t_psa / actual;
            out!(s, "  {:>5} | {:>9.4}s | {:>9.4}s | {:>16.3}", p, compiled.t_psa, actual, ratio);
            assert!(
                (ratio - 1.0).abs() <= 0.05,
                "{} p={p}: predicted/actual = {ratio:.3} outside ±5 %",
                prog.name()
            );
        }
        out!(s);
    }
    s
}

/// Table 3: deviation of the PSA finish time `T_psa` from the convex
/// optimum `Phi` at 16/32/64 processors.
///
/// The paper reports small *negative* deviations for Complex Matrix
/// Multiply (−2.6/−1.3/−1.9 %). `Phi` at the exact continuous optimum
/// lower-bounds every schedule, so those can only come from incomplete
/// solver convergence; ours are small and non-negative, and the shape
/// reproduced is the magnitude and the ordering (Strassen deviates more).
pub fn table3_phi_deviation() -> String {
    let mut s = String::new();
    let table = KernelCostTable::cm5();
    // The paper's (Phi, T_psa, percent change) per system size.
    let paper = [
        [(0.117, 0.114, -2.6), (0.075, 0.074, -1.3), (0.054, 0.055, -1.9)],
        [(0.125, 0.136, 8.8), (0.222, 0.236, 6.3), (0.077, 0.085, 15.6)],
    ];
    let mut max_dev = [0.0_f64; 2];
    for (k, prog) in TestProgram::paper_suite().into_iter().enumerate() {
        let g = prog.build(&table);
        out!(s, "\n{}: deviation of T_psa from Phi (paper Table 3)", prog.name());
        out!(s, "  System Size |   Phi (S) | T_psa (S) | Percent Change | paper Phi / T_psa (%)");
        out!(s, "  ------------+-----------+-----------+----------------+----------------------");
        for (i, p) in PAPER_SIZES.into_iter().enumerate() {
            let compiled = compile_paper(&g, Machine::cm5(p));
            let pct = compiled.deviation_percent();
            let (paper_phi, paper_t, paper_pct) = paper[k][i];
            out!(
                s,
                "  {:>11} | {:>9.4} | {:>9.4} | {:>+13.1}% | {paper_phi:.3} / {paper_t:.3} ({paper_pct:+.1}%)",
                p,
                compiled.phi.phi,
                compiled.t_psa,
                pct
            );
            assert!(pct >= -0.01, "T_psa must not beat the exact lower bound Phi (p={p}, {pct}%)");
            assert!(pct <= 40.0, "deviation implausibly large (p={p}, {pct}%)");
            max_dev[k] = max_dev[k].max(pct.abs());
        }
    }
    out!(s, "\nmax |deviation|: CMM {:.1}% vs Strassen {:.1}%", max_dev[0], max_dev[1]);
    s
}

/// Ablation: what the PSA's power-of-two rounding and PB bounding steps
/// cost, against Theorem 2's worst case `(3/2)² (p/PB)²`.
pub fn ablation_rounding() -> String {
    let mut s = String::new();
    let table = KernelCostTable::cm5();
    out!(s, "  program   |  p | PB |   Phi (S) | rounded (S) | bounded (S) | blowup | Thm2 bound");
    out!(s, "  ----------+----+----+-----------+-------------+-------------+--------+-----------");
    for prog in TestProgram::paper_suite() {
        let g = prog.build(&table);
        for p in PAPER_SIZES {
            let machine = Machine::cm5(p);
            let c = compile_paper(&g, machine);
            let phi_rounded = MdgWeights::compute(&g, &machine, &c.psa.rounded).phi(&g).phi;
            let phi_bounded = MdgWeights::compute(&g, &machine, &c.psa.bounded).phi(&g).phi;
            let blowup = phi_bounded / c.phi.phi;
            let bound = theorem2_factor(p, c.psa.pb);
            out!(
                s,
                "  {:<9} | {:>2} | {:>2} | {:>9.4} | {:>11.4} | {:>11.4} | {:>5.3}x | {:>9.2}x",
                short_name(&prog),
                p,
                c.psa.pb,
                c.phi.phi,
                phi_rounded,
                phi_bounded,
                blowup,
                bound
            );
            assert!(blowup <= bound + 1e-9, "Theorem 2 violated");
            assert!(blowup >= 1.0 - 1e-9, "Phi is a minimum; rounding cannot improve it");
            assert!(blowup < 2.0, "observed blow-up should be far below the worst case");
        }
    }
    s
}

/// Ablation: every power-of-two processor bound PB at p = 64 against
/// Corollary 1's worst-case-optimal choice, with the achieved `T_psa`.
pub fn ablation_pb_sweep() -> String {
    let mut s = String::new();
    let table = KernelCostTable::cm5();
    let p = 64u32;
    let machine = Machine::cm5(p);
    let pb_star = optimal_pb(p);
    out!(s, "Corollary-1 optimum at p = {p}: PB = {pb_star}");
    for prog in TestProgram::paper_suite() {
        let g = prog.build(&table);
        let sol = allocate(&g, machine, &SolverConfig::default());
        out!(s, "\n{} (Phi = {:.4} s):", prog.name(), sol.phi.phi);
        out!(s, "   PB | Thm-3 factor | T_psa (S) | T_psa/Phi");
        out!(s, "  ----+--------------+-----------+----------");
        let mut best_actual = (0u32, f64::INFINITY);
        for pb in [4u32, 8, 16, 32, 64] {
            let cfg = PsaConfig { pb: Some(pb), skip_rounding: false, ..PsaConfig::default() };
            let res = psa_schedule(&g, machine, &sol.alloc, &cfg);
            let factor = theorem3_factor(p, pb);
            let ratio = res.t_psa / sol.phi.phi;
            let marker = if pb == pb_star { " <- Corollary 1" } else { "" };
            out!(
                s,
                "  {:>3} | {:>11.1}x | {:>9.4} | {:>8.3}x{marker}",
                pb,
                factor,
                res.t_psa,
                ratio
            );
            assert!(ratio <= factor + 1e-9, "Theorem 3 violated at PB={pb}");
            if res.t_psa < best_actual.1 {
                best_actual = (pb, res.t_psa);
            }
        }
        out!(
            s,
            "  best achieved T_psa at PB = {} ({:.4} s); worst-case-optimal PB = {pb_star}",
            best_actual.0,
            best_actual.1
        );
    }
    s
}

/// Ablation: the solver against the brute-force power-of-two oracle on
/// small random MDGs, an annealing-configuration sweep, and a numeric
/// convexity probe of the objective (the Section-2 claim).
pub fn ablation_solver_quality() -> String {
    let mut s = String::new();
    let machine = Machine::cm5(8);
    let cfg_small =
        RandomMdgConfig { layers: 3, width_min: 1, width_max: 2, ..RandomMdgConfig::default() };

    out!(s, "[1] solver vs brute-force pow2 oracle (random MDGs, p = 8):");
    out!(s, "  seed | nodes |  oracle Phi |  solver Phi | solver/oracle");
    out!(s, "  -----+-------+-------------+-------------+--------------");
    let mut worst: f64 = 0.0;
    for seed in 0..8u64 {
        let g = random_layered_mdg(&cfg_small, seed);
        if g.compute_node_count() > 7 {
            continue;
        }
        let oracle = brute_force_pow2(&g, machine, 5_000_000).expect("small instance");
        let sol = allocate(&g, machine, &SolverConfig::default());
        let ratio = sol.phi.phi / oracle.phi.phi;
        worst = worst.max(ratio);
        out!(
            s,
            "  {:>4} | {:>5} | {:>11.5} | {:>11.5} | {:>12.5}",
            seed,
            g.compute_node_count(),
            oracle.phi.phi,
            sol.phi.phi,
            ratio
        );
        assert!(ratio <= 1.0 + 1e-9, "continuous optimum must be <= pow2 optimum");
    }
    out!(s, "  worst solver/oracle ratio: {worst:.6} (<= 1 expected)");

    out!(s, "\n[2] solver configuration sweep (Strassen 128, p = 32):");
    let g = strassen_mdg(128, &KernelCostTable::cm5());
    let m32 = Machine::cm5(32);
    let reference = allocate(&g, m32, &SolverConfig::default()).phi.phi;
    let configs: [(&str, SolverConfig); 4] = [
        ("default (4 stages, cap 400)", SolverConfig::default()),
        ("fast (2 stages, cap 150)", SolverConfig::fast()),
        (
            "single stage s=64",
            SolverConfig { sharpness_schedule: vec![64.0], ..SolverConfig::default() },
        ),
        (
            "no annealing, exact-only polish",
            SolverConfig { sharpness_schedule: vec![], ..SolverConfig::default() },
        ),
    ];
    out!(s, "  configuration                        |    Phi (S) | vs default");
    out!(s, "  -------------------------------------+------------+-----------");
    for (name, cfg) in configs {
        let phi = allocate(&g, m32, &cfg).phi.phi;
        out!(s, "  {:<36} | {:>10.5} | {:>8.4}x", name, phi, phi / reference);
        assert!(phi / reference < 1.10, "{name}: quality loss above 10 %");
    }

    out!(s, "\n[3] numeric convexity probe of the objective (CMM, p = 16):");
    let gc = complex_matmul_mdg(64, &KernelCostTable::cm5());
    let obj = MdgObjective::new(&gc, Machine::cm5(16));
    let pts = probe_points(gc.node_count(), obj.x_upper(), 14);
    let viols = probe_midpoint_convexity(|x| obj.eval(x, Sharpness::Exact).phi, &pts, 1e-9);
    out!(s, "  segments probed: {}, violations: {}", 14 * 13 / 2, viols.len());
    assert!(viols.is_empty(), "objective must be convex in log space");
    s
}

/// Ablation: the convex allocation against three naive policies on
/// random layered MDGs, all scheduled by the same PSA — all-p (every
/// node on the whole machine), equal-split (the machine divided by the
/// graph's width) and single (one processor per node).
pub fn ablation_alloc_policy() -> String {
    let mut s = String::new();
    let p = 32u32;
    let machine = Machine::cm5(p);
    let cfg = RandomMdgConfig {
        layers: 5,
        width_min: 2,
        width_max: 5,
        tau_range: (0.05, 0.8),
        ..RandomMdgConfig::default()
    };

    out!(s, "  seed | nodes | width |  convex  |  all-p   | eq-split |  single  | best");
    out!(s, "  -----+-------+-------+----------+----------+----------+----------+--------");
    let mut convex_wins = 0usize;
    let mut total = 0usize;
    let mut sums = [0.0_f64; 4];
    for seed in 0..10u64 {
        let g = random_layered_mdg(&cfg, seed);
        let width = MdgStats::of(&g).max_width.max(1);
        let sol = allocate(&g, machine, &SolverConfig::fast());
        let psa =
            |alloc: &Allocation| psa_schedule(&g, machine, alloc, &PsaConfig::default()).t_psa;
        let split = ((p as usize / width).max(1)) as f64;
        let times = [
            psa(&sol.alloc),
            psa(&Allocation::uniform(&g, p as f64)),
            psa(&Allocation::uniform(&g, split)),
            psa(&Allocation::uniform(&g, 1.0)),
        ];
        let t_convex = times[0];
        let best = times.iter().copied().fold(f64::INFINITY, f64::min);
        let best_name = ["convex", "all-p", "eq-split", "single"]
            [times.iter().position(|&t| t == best).expect("non-empty")];
        for (sum, t) in sums.iter_mut().zip(times) {
            *sum += t;
        }
        total += 1;
        if (t_convex - best).abs() < 1e-12 {
            convex_wins += 1;
        }
        out!(
            s,
            "  {:>4} | {:>5} | {:>5} | {:>8.4} | {:>8.4} | {:>8.4} | {:>8.4} | {best_name}",
            seed,
            g.compute_node_count(),
            width,
            times[0],
            times[1],
            times[2],
            times[3]
        );
        // Per instance the convex allocation optimizes the lower bound
        // Phi, not T_psa itself, so another policy can occasionally edge
        // it out after rounding + list scheduling — but never by much.
        assert!(
            t_convex <= 1.25 * best,
            "seed {seed}: convex allocation more than 25 % behind the best policy"
        );
    }
    out!(
        s,
        "\n  mean T_psa: convex {:.4}, all-p {:.4}, eq-split {:.4}, single {:.4}",
        sums[0] / total as f64,
        sums[1] / total as f64,
        sums[2] / total as f64,
        sums[3] / total as f64
    );
    out!(s, "  convex strictly best (or tied) on {convex_wins}/{total} instances");
    assert!(
        sums[0] <= sums[1] && sums[0] <= sums[2] && sums[0] <= sums[3],
        "convex allocation must win on average"
    );
    s
}

/// Ablation: the PSA's lowest-EST ready-queue priority (the paper's
/// Step 4) against highest-level-first list scheduling.
pub fn ablation_scheduler_policy() -> String {
    let mut s = String::new();
    let table = KernelCostTable::cm5();
    let hlf_cfg = PsaConfig { policy: SchedPolicy::HighestLevelFirst, ..PsaConfig::default() };
    out!(s, "[1] paper workloads:");
    out!(s, "  program   |  p | PSA T_psa (s) | HLF T_psa (s) | HLF/PSA");
    out!(s, "  ----------+----+---------------+---------------+--------");
    for prog in TestProgram::paper_suite() {
        let g = prog.build(&table);
        for p in PAPER_SIZES {
            let m = Machine::cm5(p);
            let sol = allocate(&g, m, &SolverConfig::default());
            let est = psa_schedule(&g, m, &sol.alloc, &PsaConfig::default());
            let hlf = psa_schedule(&g, m, &sol.alloc, &hlf_cfg);
            est.schedule.validate(&g, &est.weights).expect("valid PSA schedule");
            hlf.schedule.validate(&g, &hlf.weights).expect("valid HLF schedule");
            out!(
                s,
                "  {:<9} | {:>2} | {:>13.4} | {:>13.4} | {:>6.3}x",
                short_name(&prog),
                p,
                est.t_psa,
                hlf.t_psa,
                hlf.t_psa / est.t_psa
            );
        }
    }

    out!(s, "\n[2] random layered MDGs (p = 32):");
    let m = Machine::cm5(32);
    let cfg =
        RandomMdgConfig { layers: 5, width_min: 2, width_max: 5, ..RandomMdgConfig::default() };
    let (mut est_sum, mut hlf_sum) = (0.0, 0.0);
    let (mut est_wins, mut hlf_wins) = (0, 0);
    for seed in 0..12u64 {
        let g = random_layered_mdg(&cfg, seed);
        let sol = allocate(&g, m, &SolverConfig::fast());
        let est = psa_schedule(&g, m, &sol.alloc, &PsaConfig::default()).t_psa;
        let hlf = psa_schedule(&g, m, &sol.alloc, &hlf_cfg).t_psa;
        est_sum += est;
        hlf_sum += hlf;
        if est < hlf - 1e-12 {
            est_wins += 1;
        } else if hlf < est - 1e-12 {
            hlf_wins += 1;
        }
    }
    out!(s, "  mean T_psa: PSA {:.4} s, HLF {:.4} s", est_sum / 12.0, hlf_sum / 12.0);
    out!(s, "  strict wins: PSA {est_wins}, HLF {hlf_wins}, ties {}", 12 - est_wins - hlf_wins);
    let ratio: f64 = est_sum / hlf_sum;
    assert!(
        (0.8..=1.2).contains(&ratio),
        "policies should be within 20 % of each other on average, got {ratio}"
    );
    out!(s, "  mean PSA/HLF T_psa within ~{:.0}% of each other", 100.0 * (ratio - 1.0).abs());
    s
}

/// Ablation: bottom-up serial-chain fusion (Sarkar / Gerasoulis–Yang
/// style coalescing) before the top-down convex allocation, and
/// transitive reduction's effect on `Phi`.
pub fn ablation_chain_fusion() -> String {
    let mut s = String::new();
    let p = 32u32;
    let machine = Machine::cm5(p);
    // Chain-heavy random graphs (narrow layers) so fusion has targets.
    let cfg = RandomMdgConfig {
        layers: 8,
        width_min: 1,
        width_max: 3,
        edge_prob: 0.15,
        ..RandomMdgConfig::default()
    };
    let t_psa = |graph: &Mdg| {
        let sol = allocate(graph, machine, &SolverConfig::fast());
        psa_schedule(graph, machine, &sol.alloc, &PsaConfig::default()).t_psa
    };

    out!(s, "  seed | nodes -> fused | merges | T_psa original | T_psa fused | fused/orig");
    out!(s, "  -----+----------------+--------+----------------+-------------+-----------");
    let mut ratios = Vec::new();
    for seed in 0..10u64 {
        let g = random_layered_mdg(&cfg, seed);
        let (fused, merges) = fuse_serial_chains(&g).expect("random costs fuse in range");
        let (t_orig, t_fused) = (t_psa(&g), t_psa(&fused));
        let ratio = t_fused / t_orig;
        ratios.push(ratio);
        out!(
            s,
            "  {:>4} | {:>5} -> {:>5} | {:>6} | {:>14.4} | {:>11.4} | {:>9.3}x",
            seed,
            g.compute_node_count(),
            fused.compute_node_count(),
            merges,
            t_orig,
            t_fused,
            ratio
        );
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    out!(s, "\n  mean fused/original T_psa: {mean:.3}x");
    // Fusion deletes real transfer costs, so it should help or tie on
    // chain-heavy graphs; it must never blow up.
    assert!(mean < 1.05, "fusion should not hurt on chain-heavy graphs (mean {mean})");

    // Transitive reduction is a no-op for costs; verify on one instance.
    let g = random_layered_mdg(&RandomMdgConfig { edge_prob: 0.9, ..cfg }, 99);
    let (reduced, removed) = transitive_reduction(&g);
    let phi_g = allocate(&g, machine, &SolverConfig::fast()).phi.phi;
    let phi_r = allocate(&reduced, machine, &SolverConfig::fast()).phi.phi;
    out!(
        s,
        "\n  transitive reduction: removed {removed} redundant precedence edges; Phi {phi_g:.4} -> {phi_r:.4}"
    );
    assert!(
        (phi_g - phi_r).abs() / phi_g < 0.02,
        "removing redundant data-less edges must not change Phi materially"
    );
    s
}

/// Ablation: the pipeline on graphs far larger than the paper's 33
/// nodes — multi-level Strassen and large random MDGs at p = 64 — with
/// validated schedules, Theorem-3 certificates and the gain over SPMD.
/// Wall times are the repo benchmark's (`BENCHMARK.json`), not this
/// block's.
pub fn ablation_scalability() -> String {
    let mut s = String::new();
    let p = 64u32;
    let machine = Machine::cm5(p);
    let table = KernelCostTable::cm5();

    let mut workloads: Vec<(&str, Mdg)> = vec![
        ("strassen L1 (128)", strassen_mdg_multilevel(128, 1, &table)),
        ("strassen L2 (256)", strassen_mdg_multilevel(256, 2, &table)),
    ];
    for (label, layers, width) in
        [("random 100-node", 10usize, 10usize), ("random 300-node", 20, 15)]
    {
        let cfg = RandomMdgConfig {
            layers,
            width_min: width,
            width_max: width,
            tau_range: (0.02, 0.4),
            ..RandomMdgConfig::default()
        };
        workloads.push((label, random_layered_mdg(&cfg, 1)));
    }

    out!(s, "  workload           | nodes |  Phi (s) | T_psa (s) | vs SPMD");
    out!(s, "  -------------------+-------+----------+-----------+--------");
    for (name, g) in &workloads {
        let sol = allocate(g, machine, &SolverConfig::fast());
        let res = psa_schedule(g, machine, &sol.alloc, &PsaConfig::default());
        res.schedule.validate(g, &res.weights).expect("valid schedule at scale");
        let (spmd, _) = spmd_schedule(g, machine);
        out!(
            s,
            "  {:<18} | {:>5} | {:>8.4} | {:>9.4} | {:>5.2}x",
            name,
            g.compute_node_count(),
            sol.phi.phi,
            res.t_psa,
            spmd.makespan / res.t_psa
        );
        assert!(res.t_psa <= spmd.makespan * 1.01, "{name}: pipeline lost to SPMD");
        assert!(
            theorem3_factor(p, res.pb) * sol.phi.phi >= res.t_psa,
            "{name}: Theorem 3 violated at scale"
        );
    }
    s
}

/// Ablation (an extension beyond the paper): how much of Table 3's
/// `T_psa`–`Phi` gap a greedy critical-path reallocation after the PSA
/// recovers.
pub fn ablation_refinement() -> String {
    let mut s = String::new();
    let table = KernelCostTable::cm5();
    out!(
        s,
        "  program   |  p |  Phi (s) | T_psa (s) | refined (s) | gap before | gap after | moves"
    );
    out!(
        s,
        "  ----------+----+----------+-----------+-------------+------------+-----------+------"
    );
    let mut total_closed = 0.0;
    let mut cases = 0;
    for prog in TestProgram::paper_suite() {
        let g = prog.build(&table);
        for p in PAPER_SIZES {
            let m = Machine::cm5(p);
            let sol = allocate(&g, m, &SolverConfig::default());
            let start = psa_schedule(&g, m, &sol.alloc, &PsaConfig::default());
            let r = refine_allocation(&g, m, &start);
            r.best.schedule.validate(&g, &r.best.weights).expect("refined schedule valid");
            let gap_before = 100.0 * (start.t_psa - sol.phi.phi) / sol.phi.phi;
            let gap_after = 100.0 * (r.best.t_psa - sol.phi.phi) / sol.phi.phi;
            out!(
                s,
                "  {:<9} | {:>2} | {:>8.4} | {:>9.4} | {:>11.4} | {:>9.1}% | {:>8.1}% | {:>5}",
                short_name(&prog),
                p,
                sol.phi.phi,
                start.t_psa,
                r.best.t_psa,
                gap_before,
                gap_after,
                r.moves.len()
            );
            assert!(r.best.t_psa <= start.t_psa + 1e-12, "refinement must never hurt");
            assert!(
                gap_after >= -1.0,
                "refined schedule cannot materially beat the exact lower bound"
            );
            if gap_before > 0.5 {
                total_closed += (gap_before - gap_after) / gap_before;
                cases += 1;
            }
        }
    }
    if cases > 0 {
        out!(
            s,
            "\n  average fraction of the Phi-gap closed (cases with >0.5% gap): {:.0}%",
            100.0 * total_closed / cases as f64
        );
    }
    s
}
