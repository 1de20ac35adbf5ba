//! Steps 3–5 of the pipeline: allocate (convex program), schedule (PSA),
//! and lower to executable task programs.

use paradigm_cost::{Machine, PhiBreakdown};
use paradigm_mdg::Mdg;
use paradigm_sched::{psa_schedule, refine_allocation, PsaConfig, PsaResult, RefineConfig};
use paradigm_sim::{lower_mpmd, lower_spmd, simulate, SimResult, TaskProgram, TrueMachine};
use paradigm_solver::{allocate, try_allocate, AllocationResult, SolverConfig, SolverError};

/// Compilation settings: solver and PSA knobs.
#[derive(Debug, Clone, Default)]
pub struct CompileConfig {
    /// Convex solver settings.
    pub solver: SolverConfig,
    /// PSA settings (PB etc.).
    pub psa: PsaConfig,
    /// Run the greedy reallocation refinement after the PSA (off by
    /// default — the paper's pipeline stops at the PSA).
    pub refine: bool,
}

impl CompileConfig {
    /// Cheaper solver settings for tests and large sweeps.
    pub fn fast() -> Self {
        CompileConfig { solver: SolverConfig::fast(), psa: PsaConfig::default(), refine: false }
    }
}

/// The result of compiling one MDG for one machine.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The machine compiled for.
    pub machine: Machine,
    /// Convex allocation result; `solve.phi.phi` is the paper's `Phi`.
    pub solve: AllocationResult,
    /// PSA result (rounded/bounded allocation, schedule).
    pub psa: PsaResult,
    /// Predicted finish time `T_psa` (schedule makespan).
    pub t_psa: f64,
    /// `Phi` breakdown at the continuous optimum.
    pub phi: PhiBreakdown,
    /// The MPMD task program (paper Step 5).
    pub mpmd: TaskProgram,
}

impl Compiled {
    /// Relative deviation `(T_psa - Phi) / Phi` — the paper's Table 3
    /// "Percent Change" column.
    pub fn deviation_percent(&self) -> f64 {
        100.0 * (self.t_psa - self.phi.phi) / self.phi.phi
    }
}

/// Compile `g` for `machine`: allocation, scheduling, MPMD lowering.
///
/// Panics if the solver fails; prefer [`try_compile`] on user-reachable
/// paths.
pub fn compile(g: &Mdg, machine: Machine, cfg: &CompileConfig) -> Compiled {
    compile_with_solve(g, machine, cfg, allocate(g, machine, &cfg.solver))
}

/// Like [`compile`], but solver failures (bad machine parameters,
/// non-finite objective) come back as a typed [`SolverError`] instead of
/// a panic.
pub fn try_compile(
    g: &Mdg,
    machine: Machine,
    cfg: &CompileConfig,
) -> Result<Compiled, SolverError> {
    let solve = try_allocate(g, machine, &cfg.solver)?;
    Ok(compile_with_solve(g, machine, cfg, solve))
}

/// Schedule and lower a pre-computed allocation (Steps 4–5 only). This is
/// the shared tail of [`compile`]/[`try_compile`], and lets callers
/// supply an allocation from any source — e.g. the serving layer's
/// degraded path feeds `equal_split_allocation` here.
pub fn compile_with_solve(
    g: &Mdg,
    machine: Machine,
    cfg: &CompileConfig,
    solve: AllocationResult,
) -> Compiled {
    let mut psa = psa_schedule(g, machine, &solve.alloc, &cfg.psa);
    if cfg.refine {
        psa = refine_allocation(g, machine, &psa, &RefineConfig::default()).best;
    }
    // In debug builds, every schedule the pipeline emits goes through the
    // full static analyzer (races, precedence, recurrence lower bound) —
    // far stricter than `Schedule::validate`'s first-error check.
    #[cfg(debug_assertions)]
    {
        let report = paradigm_analyze::analyze_schedule(g, &psa.weights, &psa.schedule);
        assert!(
            report.is_clean(),
            "pipeline produced an invalid schedule for `{}`:\n{}",
            g.name(),
            report.render()
        );
    }
    let mpmd = lower_mpmd(g, &psa.schedule);
    Compiled { machine, phi: solve.phi.clone(), t_psa: psa.t_psa, solve, psa, mpmd }
}

/// Execute the compiled MPMD program on the ground-truth machine.
pub fn run_mpmd(_g: &Mdg, compiled: &Compiled, truth: &TrueMachine) -> SimResult {
    assert_eq!(
        truth.machine.procs, compiled.machine.procs,
        "truth and compile target sizes differ"
    );
    simulate(&compiled.mpmd, truth)
}

/// Execute the SPMD version (every node on all processors) on the
/// ground-truth machine.
pub fn run_spmd(g: &Mdg, truth: &TrueMachine) -> SimResult {
    let prog = lower_spmd(g, truth.machine.procs);
    simulate(&prog, truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_mdg::{complex_matmul_mdg, example_fig1_mdg, KernelCostTable};

    #[test]
    fn compile_fig1_reproduces_paper_numbers() {
        let g = example_fig1_mdg();
        let c = compile(&g, Machine::cm5(4), &CompileConfig::default());
        // Phi (continuous optimum) <= 14.3; T_psa == 14.3 exactly (the
        // rounded allocation is the paper's mixed schedule).
        assert!(c.phi.phi <= 14.3 + 1e-9);
        assert!((c.t_psa - 14.3).abs() < 1e-9, "T_psa = {}", c.t_psa);
        assert!(c.deviation_percent() >= -1e-6);
        assert!(c.deviation_percent() < 10.0);
    }

    #[test]
    fn t_psa_never_below_phi() {
        // Phi is a lower bound on any schedule of any allocation, so the
        // PSA can never beat it — up to the solver's convergence slack,
        // which with the fast config can reach a fraction of a percent
        // (the paper's own Table 3 shows -2.6% from the same effect).
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        for p in [16u32, 32, 64] {
            let c = compile(&g, Machine::cm5(p), &CompileConfig::fast());
            assert!(
                c.t_psa >= c.phi.phi * (1.0 - 1e-2),
                "p={p}: T_psa {} < Phi {}",
                c.t_psa,
                c.phi.phi
            );
        }
    }

    #[test]
    fn refine_flag_improves_or_matches() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let base = compile(&g, Machine::cm5(64), &CompileConfig::fast());
        let refined =
            compile(&g, Machine::cm5(64), &CompileConfig { refine: true, ..CompileConfig::fast() });
        assert!(refined.t_psa <= base.t_psa + 1e-12);
        refined.psa.schedule.validate(&g, &refined.psa.weights).unwrap();
    }

    #[test]
    fn mpmd_run_close_to_prediction() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let c = compile(&g, Machine::cm5(16), &CompileConfig::fast());
        let r = run_mpmd(&g, &c, &TrueMachine::cm5(16));
        let rel = (r.makespan - c.t_psa).abs() / c.t_psa;
        assert!(rel < 0.25, "simulated {} vs predicted {} (rel {rel})", r.makespan, c.t_psa);
    }

    #[test]
    #[should_panic(expected = "sizes differ")]
    fn size_mismatch_rejected() {
        let g = example_fig1_mdg();
        let c = compile(&g, Machine::cm5(4), &CompileConfig::fast());
        let _ = run_mpmd(&g, &c, &TrueMachine::cm5(8));
    }
}
