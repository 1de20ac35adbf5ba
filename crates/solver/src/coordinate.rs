//! Coordinate-descent solver — an independent cross-check for the
//! projected-gradient method.
//!
//! The objective restricted to one variable is still convex (a convex
//! function along an axis), so golden-section search per coordinate with
//! round-robin sweeps converges on the box. It needs no gradients at
//! all, which makes it a genuinely independent implementation: if both
//! solvers agree on `Phi` to a fraction of a percent, a bug would have
//! to be present in both the analytic gradients *and* the evaluation —
//! the `ablation_solver_quality` bench and the test-suite rely on this.

use crate::expr::Sharpness;
use crate::objective::MdgObjective;
use crate::workspace;
use paradigm_cost::{Allocation, Machine, PhiBreakdown};
use paradigm_mdg::Mdg;

/// Coordinate-descent configuration.
///
/// Note the sharpness *schedule*: cyclic coordinate descent can stall on
/// non-smooth convex functions (a `max` kink couples variables so that
/// no single-coordinate move helps even away from the optimum), so the
/// stages run on the smoothed objective with increasing sharpness and
/// only the final stage uses the exact max.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinateConfig {
    /// Full sweeps over all variables, per sharpness stage.
    pub max_sweeps: usize,
    /// Golden-section iterations per 1-D minimization.
    pub line_iters: usize,
    /// Stop a stage when a sweep improves `Phi` by less than this
    /// fraction.
    pub rel_tol: f64,
    /// Smoothing stages (a final exact stage is always appended).
    pub sharpness_schedule: Vec<f64>,
}

impl Default for CoordinateConfig {
    fn default() -> Self {
        CoordinateConfig {
            max_sweeps: 40,
            line_iters: 48,
            rel_tol: 1e-10,
            sharpness_schedule: vec![8.0, 64.0, 512.0],
        }
    }
}

/// Result of a coordinate-descent solve.
#[derive(Debug, Clone)]
pub struct CoordinateResult {
    /// Best allocation found.
    pub alloc: Allocation,
    /// Exact objective breakdown at that allocation.
    pub phi: PhiBreakdown,
    /// Sweeps actually performed.
    pub sweeps: usize,
}

/// Minimize `Phi` by cyclic coordinate descent with golden-section line
/// searches, starting from the box midpoint.
pub fn allocate_coordinate(g: &Mdg, machine: Machine, cfg: &CoordinateConfig) -> CoordinateResult {
    let obj = MdgObjective::new(g, machine);
    let n = obj.num_vars();
    let ub = obj.x_upper();
    let mut x = vec![ub / 2.0; n];
    x[g.start().0] = 0.0;
    x[g.stop().0] = 0.0;

    let mut sweeps = 0;
    const INV_PHI: f64 = 0.618_033_988_749_894_8; // 1/golden ratio

    let mut stages: Vec<Sharpness> =
        cfg.sharpness_schedule.iter().map(|&s| Sharpness::Smooth(s)).collect();
    stages.push(Sharpness::Exact);

    // One pooled workspace for the whole solve: golden-section probes are
    // pure evaluations, so every one of them runs allocation-free through
    // the same sweep scratch.
    let mut ws = workspace::acquire();
    for sharp in stages {
        let mut best = obj.eval_with(&x, sharp, &mut ws.scratch).phi;
        for _ in 0..cfg.max_sweeps {
            sweeps += 1;
            let before = best;
            for j in 0..n {
                if j == g.start().0 || j == g.stop().0 {
                    continue;
                }
                // Golden-section over [0, ub] for coordinate j.
                let (mut lo, mut hi) = (0.0_f64, ub);
                let mut c = hi - INV_PHI * (hi - lo);
                let mut d = lo + INV_PHI * (hi - lo);
                let mut f_at = |xj: f64, x: &mut Vec<f64>| {
                    let old = x[j];
                    x[j] = xj;
                    let v = obj.eval_with(x, sharp, &mut ws.scratch).phi;
                    x[j] = old;
                    v
                };
                let mut fc = f_at(c, &mut x);
                let mut fd = f_at(d, &mut x);
                for _ in 0..cfg.line_iters {
                    if fc <= fd {
                        hi = d;
                        d = c;
                        fd = fc;
                        c = hi - INV_PHI * (hi - lo);
                        fc = f_at(c, &mut x);
                    } else {
                        lo = c;
                        c = d;
                        fc = fd;
                        d = lo + INV_PHI * (hi - lo);
                        fd = f_at(d, &mut x);
                    }
                }
                let cand = if fc <= fd { (c, fc) } else { (d, fd) };
                if cand.1 < best {
                    x[j] = cand.0;
                    best = cand.1;
                }
            }
            if before - best <= cfg.rel_tol * best.abs() {
                break;
            }
        }
    }
    let alloc = obj.allocation_from_x(&x);
    let phi = obj.exact_phi(&alloc);
    CoordinateResult { alloc, phi, sweeps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{allocate, SolverConfig};
    use paradigm_mdg::{
        complex_matmul_mdg, example_fig1_mdg, random_layered_mdg, KernelCostTable, RandomMdgConfig,
    };

    #[test]
    fn coordinate_descent_matches_gradient_solver_fig1() {
        let g = example_fig1_mdg();
        let m = Machine::cm5(4);
        let cd = allocate_coordinate(&g, m, &CoordinateConfig::default());
        let pg = allocate(&g, m, &SolverConfig::default());
        let rel = (cd.phi.phi - pg.phi.phi).abs() / pg.phi.phi;
        assert!(rel < 5e-3, "cd {} vs pg {}", cd.phi.phi, pg.phi.phi);
    }

    #[test]
    fn coordinate_descent_matches_gradient_solver_cmm() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let cd = allocate_coordinate(&g, m, &CoordinateConfig::default());
        let pg = allocate(&g, m, &SolverConfig::default());
        let rel = (cd.phi.phi - pg.phi.phi).abs() / pg.phi.phi;
        assert!(rel < 1e-2, "cd {} vs pg {}", cd.phi.phi, pg.phi.phi);
    }

    #[test]
    fn coordinate_descent_on_random_graphs() {
        let cfg =
            RandomMdgConfig { layers: 3, width_min: 1, width_max: 3, ..RandomMdgConfig::default() };
        for seed in 0..4 {
            let g = random_layered_mdg(&cfg, seed);
            let m = Machine::cm5(8);
            let cd = allocate_coordinate(&g, m, &CoordinateConfig::default());
            let pg = allocate(&g, m, &SolverConfig::default());
            let rel = (cd.phi.phi - pg.phi.phi).abs() / pg.phi.phi;
            assert!(rel < 2e-2, "seed {seed}: cd {} vs pg {}", cd.phi.phi, pg.phi.phi);
        }
    }

    #[test]
    fn result_is_feasible() {
        let g = example_fig1_mdg();
        let m = Machine::cm5(4);
        let cd = allocate_coordinate(&g, m, &CoordinateConfig::default());
        for (id, _) in g.nodes() {
            let q = cd.alloc.get(id);
            assert!((1.0..=4.0 + 1e-9).contains(&q));
        }
        assert!(cd.sweeps >= 1);
    }
}
