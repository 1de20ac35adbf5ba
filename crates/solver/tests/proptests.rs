//! Property-based tests of the convex solver: convexity of the
//! objective, smoothing bounds, gradient correctness, feasibility, and
//! dominance over the power-of-two oracle.

use paradigm_cost::Machine;
use paradigm_mdg::{random_layered_mdg, RandomMdgConfig};
use paradigm_solver::convexity::{probe_midpoint_convexity, probe_points};
use paradigm_solver::expr::Sharpness;
use paradigm_solver::objective::ObjectiveParts;
use paradigm_solver::{
    allocate, brute_force_pow2, EvalScratch, MdgObjective, SolverConfig, SolverWorkspace,
};
use proptest::prelude::*;

/// `k` deterministic points: point `l` offsets a base interior point so
/// every one sits somewhere different in the box.
fn probe_points_in_box(n: usize, k: usize, ub: f64) -> Vec<Vec<f64>> {
    (0..k)
        .map(|l| {
            (0..n)
                .map(|i| {
                    let v = 0.35
                        + 0.25 * ((i * 7 + l * 3) % 9) as f64 / 9.0
                        + 0.02 * (l as f64 + 0.5) * ((i as f64) * 0.9).sin();
                    v.clamp(0.0, ub)
                })
                .collect()
        })
        .collect()
}

fn arb_cfg() -> impl Strategy<Value = RandomMdgConfig> {
    (1usize..=3, 1usize..=3, 0.0f64..0.7, 0.0f64..1.0).prop_map(
        |(layers, width, edge_prob, two_d_prob)| RandomMdgConfig {
            layers,
            width_min: 1,
            width_max: width,
            edge_prob,
            two_d_prob,
            ..RandomMdgConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// Both machine models: the synthetic mesh has `t_n > 0`, so its
    /// objective carries the `t^D` edge terms (`(p_i p_j)^{-1/2}` and
    /// `(p_i p_j)^{-1}`) the CM-5's lacks.
    #[test]
    fn objective_is_convex_in_log_space(cfg in arb_cfg(), seed in 0u64..2000) {
        let g = random_layered_mdg(&cfg, seed);
        for machine in [Machine::cm5(16), Machine::synthetic_mesh(16)] {
            let obj = MdgObjective::new(&g, machine);
            let pts = probe_points(g.node_count(), obj.x_upper(), 8);
            let viols = probe_midpoint_convexity(
                |x| obj.eval(x, Sharpness::Exact).phi,
                &pts,
                1e-9,
            );
            prop_assert!(viols.is_empty(), "t_n = {}: {} violations", machine.xfer.t_n, viols.len());
        }
    }

    #[test]
    fn smoothing_upper_bounds_and_tightens(cfg in arb_cfg(), seed in 0u64..2000) {
        let g = random_layered_mdg(&cfg, seed);
        let obj = MdgObjective::new(&g, Machine::cm5(16));
        let x = vec![0.7; g.node_count()];
        let exact = obj.eval(&x, Sharpness::Exact).phi;
        let mut prev = f64::INFINITY;
        for s in [2.0, 8.0, 32.0, 128.0] {
            let v = obj.eval(&x, Sharpness::Smooth(s)).phi;
            prop_assert!(v >= exact - 1e-12, "smoothing must upper-bound exact");
            prop_assert!(v <= prev + 1e-12, "sharper smoothing must tighten");
            prev = v;
        }
        prop_assert!((prev - exact) / exact < 0.2, "s=128 should be close to exact");
    }

    #[test]
    fn gradient_matches_finite_difference(cfg in arb_cfg(), seed in 0u64..2000) {
        let g = random_layered_mdg(&cfg, seed);
        let obj = MdgObjective::new(&g, Machine::cm5(8));
        let n = g.node_count();
        let x: Vec<f64> = (0..n).map(|i| 0.4 + 0.2 * ((i * 7 % 5) as f64) / 5.0).collect();
        let sharp = Sharpness::Smooth(8.0);
        let (_, grad) = obj.eval_grad(&x, sharp);
        let h = 1e-6;
        for j in 0..n {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp[j] += h;
            xm[j] -= h;
            let fd = (obj.eval(&xp, sharp).phi - obj.eval(&xm, sharp).phi) / (2.0 * h);
            prop_assert!(
                (grad[j] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "var {j}: {} vs {}", grad[j], fd
            );
        }
    }

    #[test]
    fn reverse_gradient_matches_forward_reference(cfg in arb_cfg(), seed in 0u64..2000) {
        // The production gradient is reverse-mode (adjoint); the retired
        // forward-mode implementation is kept as an independently derived
        // reference. Same chain rule, different accumulation order — they
        // must agree to rounding (1e-9 relative) at every sharpness,
        // including the exact max (identical first-argmax tie-breaking).
        let g = random_layered_mdg(&cfg, seed);
        let obj = MdgObjective::new(&g, Machine::cm5(16));
        let n = g.node_count();
        let x: Vec<f64> = (0..n).map(|i| 0.3 + 0.25 * ((i * 11 % 7) as f64) / 7.0).collect();
        for sharp in [Sharpness::Smooth(8.0), Sharpness::Smooth(256.0), Sharpness::Exact] {
            let (p_r, g_r) = obj.eval_grad(&x, sharp);
            let (p_f, g_f) = obj.eval_grad_forward(&x, sharp);
            prop_assert!((p_r.phi - p_f.phi).abs() <= 1e-9 * p_f.phi.abs().max(1.0));
            for j in 0..n {
                prop_assert!(
                    (g_r[j] - g_f[j]).abs() <= 1e-9 * (1.0 + g_f[j].abs()),
                    "{sharp:?} var {j}: reverse {} vs forward {}", g_r[j], g_f[j]
                );
            }
        }
    }

    #[test]
    fn reverse_gradient_matches_finite_difference(cfg in arb_cfg(), seed in 0u64..2000) {
        let g = random_layered_mdg(&cfg, seed);
        let obj = MdgObjective::new(&g, Machine::cm5(8));
        let n = g.node_count();
        // Generic interior point (irrational-ish offsets avoid sitting on
        // a max kink by construction).
        let x: Vec<f64> = (0..n).map(|i| 0.4 + 0.2 * ((i * 7 % 5) as f64) / 5.0 + 1e-3 * (i as f64).sin()).collect();
        for sharp in [Sharpness::Smooth(4.0), Sharpness::Smooth(64.0)] {
            let (_, grad) = obj.eval_grad(&x, sharp);
            let h = 1e-6;
            for j in 0..n {
                let mut xp = x.clone();
                let mut xm = x.clone();
                xp[j] += h;
                xm[j] -= h;
                let fd = (obj.eval(&xp, sharp).phi - obj.eval(&xm, sharp).phi) / (2.0 * h);
                prop_assert!(
                    (grad[j] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                    "{sharp:?} var {j}: {} vs {}", grad[j], fd
                );
            }
        }
    }

    #[test]
    fn grad_parts_consistent_with_phi_gradient(cfg in arb_cfg(), seed in 0u64..2000) {
        // eval_grad_parts returns ∇A_p and ∇C_p separately; recombining
        // them with the Phi smax weights must reproduce eval_grad.
        let g = random_layered_mdg(&cfg, seed);
        let obj = MdgObjective::new(&g, Machine::cm5(16));
        let n = g.node_count();
        let x: Vec<f64> = (0..n).map(|i| 0.2 + 0.3 * ((i * 5 % 9) as f64) / 9.0).collect();
        let sharp = Sharpness::Smooth(16.0);
        let (parts, grad) = obj.eval_grad(&x, sharp);
        let (parts2, ga, gc) = obj.eval_grad_parts(&x, sharp);
        prop_assert!((parts.phi - parts2.phi).abs() <= 1e-12 * parts.phi.abs().max(1.0));
        let (_, w) = paradigm_solver::expr::smax_weights(&[parts.a_p, parts.c_p], sharp);
        for j in 0..n {
            let combined = w[0] * ga[j] + w[1] * gc[j];
            prop_assert!(
                (grad[j] - combined).abs() <= 1e-9 * (1.0 + grad[j].abs()),
                "var {j}: {} vs recombined {}", grad[j], combined
            );
        }
    }

    #[test]
    fn record_replay_is_the_gradient_and_probes_leave_no_trace(cfg in arb_cfg(), seed in 0u64..2000) {
        // The record/replay contract the descent loops rest on, in bits:
        // (a) `forward_record` scores a point exactly like the
        //     value-only `eval_with`, so an Armijo test cannot tell them
        //     apart;
        // (b) `eval_grad*_with` are record + replay and nothing else;
        // (c) after a line search's probe sequence (reject, reject,
        //     accept) on one warm scratch, replaying the last tape is the
        //     gradient a cold scratch computes at the accepted point —
        //     earlier probes leave nothing behind.
        let g = random_layered_mdg(&cfg, seed);
        let obj = MdgObjective::new(&g, Machine::cm5(16));
        let n = g.node_count();
        let ub = obj.x_upper();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let part_bits = |p: &ObjectiveParts| [p.phi.to_bits(), p.a_p.to_bits(), p.c_p.to_bits()];
        for sharp in [Sharpness::Exact, Sharpness::Smooth(8.0), Sharpness::Smooth(256.0)] {
            let probes = probe_points_in_box(n, 3, ub);
            let mut ws = SolverWorkspace::new();
            let (mut grad, mut ga, mut gc) = (Vec::new(), Vec::new(), Vec::new());
            let mut last = None;
            for x in &probes {
                let rec = obj.forward_record(x, sharp, &mut ws.scratch);
                let val = obj.eval_with(x, sharp, &mut EvalScratch::default());
                prop_assert_eq!(part_bits(&rec), part_bits(&val), "{:?}: record vs eval_with", sharp);
                last = Some(rec);
            }
            let last = last.expect("three probes ran");
            obj.backward_replay_phi(&mut ws.scratch, &mut grad);
            obj.backward_replay(0.0, 1.0, &mut ws.scratch, &mut ga);
            obj.backward_replay(1.0, 0.0, &mut ws.scratch, &mut gc);
            let x = &probes[2];
            let (mut fresh, mut fa, mut fc) = (Vec::new(), Vec::new(), Vec::new());
            let p1 = obj.eval_grad_with(x, sharp, &mut EvalScratch::default(), &mut fresh);
            let p2 = obj.eval_grad_parts_with(x, sharp, &mut EvalScratch::default(), &mut fa, &mut fc);
            prop_assert_eq!(part_bits(&last), part_bits(&p1));
            prop_assert_eq!(part_bits(&last), part_bits(&p2));
            prop_assert_eq!(bits(&grad), bits(&fresh), "{:?}: replayed Phi gradient", sharp);
            prop_assert_eq!(bits(&ga), bits(&fa), "{:?}: replayed A_p gradient", sharp);
            prop_assert_eq!(bits(&gc), bits(&fc), "{:?}: replayed C_p gradient", sharp);
            prop_assert_eq!(ws.scratch.counts.forward_sweeps, 3);
            prop_assert_eq!(ws.scratch.counts.backward_sweeps, 3);
        }
    }

    #[test]
    fn solver_feasible_and_finite(cfg in arb_cfg(), seed in 0u64..2000, pk in 1u32..=6) {
        let g = random_layered_mdg(&cfg, seed);
        let p = 1u32 << pk;
        let res = allocate(&g, Machine::cm5(p), &SolverConfig::fast());
        prop_assert!(res.phi.phi.is_finite() && res.phi.phi > 0.0);
        for (id, _) in g.nodes() {
            let q = res.alloc.get(id);
            prop_assert!((1.0..=p as f64 + 1e-9).contains(&q));
        }
    }

    #[test]
    fn solver_dominates_pow2_oracle(cfg in arb_cfg(), seed in 0u64..2000) {
        let g = random_layered_mdg(&cfg, seed);
        if g.compute_node_count() > 6 {
            return Ok(()); // keep the oracle tractable
        }
        let m = Machine::cm5(8);
        let oracle = brute_force_pow2(&g, m, 5_000_000).expect("small");
        let sol = allocate(&g, m, &SolverConfig::default());
        prop_assert!(
            sol.phi.phi <= oracle.phi.phi * (1.0 + 1e-9),
            "solver {} vs oracle {}",
            sol.phi.phi,
            oracle.phi.phi
        );
    }

    #[test]
    fn solution_is_stationary_under_perturbation(cfg in arb_cfg(), seed in 0u64..2000) {
        // Perturbing the solution in random directions inside the box
        // must not significantly decrease the exact Phi (approximate
        // global optimality of a convex minimum).
        let g = random_layered_mdg(&cfg, seed);
        let m = Machine::cm5(16);
        let sol = allocate(&g, m, &SolverConfig::default());
        let obj = MdgObjective::new(&g, m);
        let ub = obj.x_upper();
        let x0: Vec<f64> = g
            .nodes()
            .map(|(id, _)| sol.alloc.get(id).ln())
            .collect();
        let base = sol.phi.phi;
        for dir in 0..6 {
            let x: Vec<f64> = x0
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let delta = 0.05 * (((i * 13 + dir * 7) % 11) as f64 / 11.0 - 0.5);
                    (v + delta).clamp(0.0, ub)
                })
                .collect();
            let perturbed = obj.exact_phi(&obj.allocation_from_x(&x)).phi;
            prop_assert!(
                perturbed >= base * (1.0 - 5e-3),
                "perturbation improved Phi: {base} -> {perturbed}"
            );
        }
    }
}

/// The same reverse-vs-forward gradient agreement on the named gallery
/// workloads (deterministic, not property-sampled): the paper's Fig. 1
/// example, complex matrix multiply, and Strassen.
#[test]
fn reverse_gradient_matches_forward_on_gallery_graphs() {
    use paradigm_mdg::{complex_matmul_mdg, example_fig1_mdg, strassen_mdg, KernelCostTable};
    let graphs = vec![
        example_fig1_mdg(),
        complex_matmul_mdg(64, &KernelCostTable::cm5()),
        strassen_mdg(128, &KernelCostTable::cm5()),
    ];
    for g in &graphs {
        let obj = MdgObjective::new(g, Machine::cm5(16));
        let n = g.node_count();
        let x: Vec<f64> = (0..n).map(|i| 0.5 + 0.3 * (i as f64 * 0.7).sin()).collect();
        for sharp in [Sharpness::Smooth(8.0), Sharpness::Smooth(256.0), Sharpness::Exact] {
            let (p_r, g_r) = obj.eval_grad(&x, sharp);
            let (p_f, g_f) = obj.eval_grad_forward(&x, sharp);
            assert!((p_r.phi - p_f.phi).abs() <= 1e-9 * p_f.phi.abs().max(1.0));
            for j in 0..n {
                assert!(
                    (g_r[j] - g_f[j]).abs() <= 1e-9 * (1.0 + g_f[j].abs()),
                    "{sharp:?} var {j}: reverse {} vs forward {}",
                    g_r[j],
                    g_f[j]
                );
            }
        }
    }
}

/// Replaying a tape that a value-only sweep has since overwritten is a
/// bug in the caller; the scratch's validity flag turns it into a panic
/// that names the contract instead of a silently wrong gradient.
#[test]
#[should_panic(expected = "backward_replay: the tape on this scratch is not the last thing")]
fn replay_after_a_value_only_sweep_panics() {
    let g = paradigm_mdg::example_fig1_mdg();
    let obj = MdgObjective::new(&g, Machine::cm5(4));
    let x = vec![0.5; g.node_count()];
    let mut scratch = EvalScratch::default();
    let mut grad = Vec::new();
    obj.forward_record(&x, Sharpness::Smooth(8.0), &mut scratch);
    obj.backward_replay_phi(&mut scratch, &mut grad); // fine: the tape is current
    obj.eval_with(&x, Sharpness::Smooth(8.0), &mut scratch);
    obj.backward_replay_phi(&mut scratch, &mut grad);
}
