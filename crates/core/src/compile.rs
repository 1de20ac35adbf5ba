//! Steps 3–5 of the pipeline: allocate (convex program), schedule (PSA),
//! and, when a run is simulated, lower to executable task programs.

use paradigm_cost::{Machine, PhiBreakdown};
use paradigm_mdg::Mdg;
use paradigm_sched::{psa_schedule, PsaConfig, PsaResult, SchedPolicy};
use paradigm_sim::{lower_mpmd, lower_spmd, simulate, SimResult, TrueMachine};
use paradigm_solver::{
    midpoint, try_allocate_from, AllocationResult, SolverConfig, SolverError, SolverWorkspace,
};
use std::fmt;

/// Largest machine a [`SolveSpec`] may name. The PSA keeps a free-time
/// slot per processor and every scheduled task lists its processor ids,
/// so memory is O(tasks × procs): an unchecked `procs` from a request is
/// an allocation the process cannot survive, not a panic a worker can
/// catch.
pub const MAX_PROCS: u32 = 65_536;

/// Everything (besides the graph) that a pipeline solve depends on: the
/// pipeline's one configuration. Two requests with equal specs and
/// structurally equal graphs produce identical outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveSpec {
    /// Target machine (processor count + transfer constants).
    pub machine: Machine,
    /// PSA ready-queue priority.
    pub policy: SchedPolicy,
    /// Explicit processor bound; `None` = Corollary 1's optimum.
    pub pb: Option<u32>,
    /// Use the cheaper solver settings (`SolverConfig::fast()`) instead
    /// of the full ladder (`SolverConfig::default()`).
    pub fast_solver: bool,
    /// Also execute the MPMD lowering on the ground-truth simulator and
    /// report the measured makespan (read by
    /// [`try_solve_pipeline`](crate::try_solve_pipeline) only).
    pub simulate: bool,
    /// Solve the allocation on the consensus-ADMM tier instead of the
    /// dense solver (read by [`try_solve_pipeline`](crate::try_solve_pipeline)
    /// only; [`compile`] is the dense solve). Never chosen by graph size:
    /// the tier is 21–26× slower than the dense solve at every size that
    /// partitions, and the dense solve fits 10^5 nodes in 0.4 GB
    /// (DESIGN.md §13).
    pub admm: bool,
}

impl SolveSpec {
    /// A spec with the serving layer's defaults: fast solver, paper's
    /// PSA policy, automatic PB, no simulation, dense tier.
    pub fn new(machine: Machine) -> Self {
        SolveSpec {
            machine,
            policy: SchedPolicy::LowestEst,
            pb: None,
            fast_solver: true,
            simulate: false,
            admm: false,
        }
    }

    /// Reject specs the pipeline would panic on (or not survive).
    pub fn validate(&self) -> Result<(), String> {
        let procs = self.machine.procs;
        if !(1..=MAX_PROCS).contains(&procs) {
            return Err(format!("machine size {procs} must be in 1..={MAX_PROCS}"));
        }
        if let Some(pb) = self.pb {
            if pb == 0 {
                return Err("processor bound must be positive".into());
            }
            // Corollary 1 chooses PB among powers of two, and the PSA's
            // bounding step asserts it.
            if !pb.is_power_of_two() {
                return Err(format!("processor bound {pb} must be a power of two"));
            }
            if pb > procs {
                return Err(format!("processor bound {pb} exceeds machine size {procs}"));
            }
        }
        self.machine.xfer.validate()
    }
}

/// Why a pipeline solve could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The spec failed [`SolveSpec::validate`].
    InvalidSpec(String),
    /// The convex solver reported a typed failure.
    Solver(SolverError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::InvalidSpec(msg) => write!(f, "invalid solve spec: {msg}"),
            PipelineError::Solver(e) => write!(f, "solver failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<SolverError> for PipelineError {
    fn from(e: SolverError) -> Self {
        PipelineError::Solver(e)
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
}

impl Compiled {
    /// Relative deviation `(T_psa - Phi) / Phi` — the paper's Table 3
    /// "Percent Change" column.
    pub fn deviation_percent(&self) -> f64 {
        100.0 * (self.t_psa - self.phi.phi) / self.phi.phi
    }
}

/// Compile `g` under `spec`: validate the spec, solve the allocation
/// densely (the fast or the full solver ladder, by `spec.fast_solver`)
/// and schedule it with the PSA at `spec.pb` / `spec.policy`. A bad spec
/// is [`PipelineError::InvalidSpec`], a failed solve (non-finite
/// objective) [`PipelineError::Solver`]. [`run_mpmd`] lowers the
/// schedule when it is simulated. The solve runs on a fresh workspace.
pub fn compile(g: &Mdg, spec: &SolveSpec) -> Result<Compiled, PipelineError> {
    compile_in(&mut SolverWorkspace::new(), g, spec)
}

/// [`compile`] with the solve on the caller's workspace `ws`: the same
/// start as `paradigm_solver::try_allocate`'s, and the same bits.
pub(crate) fn compile_in(
    ws: &mut SolverWorkspace,
    g: &Mdg,
    spec: &SolveSpec,
) -> Result<Compiled, PipelineError> {
    spec.validate().map_err(PipelineError::InvalidSpec)?;
    let solver = if spec.fast_solver { SolverConfig::fast() } else { SolverConfig::default() };
    let x0 = midpoint(g, spec.machine);
    let solve = try_allocate_from(ws, g, spec.machine, &solver, &x0)?;
    Ok(compile_with_solve(g, spec, solve))
}

/// Schedule a pre-computed allocation (Step 4 only) under `spec`'s PSA
/// settings; the spec is not validated again. This is the shared tail of
/// [`compile`] and of the pipeline's consensus-ADMM and equal-split
/// allocations.
pub fn compile_with_solve(g: &Mdg, spec: &SolveSpec, solve: AllocationResult) -> Compiled {
    let cfg = PsaConfig { pb: spec.pb, skip_rounding: false, policy: spec.policy };
    let psa = psa_schedule(g, spec.machine, &solve.alloc, &cfg);
    // In debug builds, every schedule the pipeline emits goes through the
    // schedule checker (races, precedence, recurrence lower bound).
    #[cfg(debug_assertions)]
    {
        let report = paradigm_sched::analyze_schedule(g, &psa.weights, &psa.schedule);
        assert!(
            report.is_clean(),
            "pipeline produced an invalid schedule for `{}`:\n{}",
            g.name(),
            report.render()
        );
    }
    Compiled { machine: spec.machine, phi: solve.phi.clone(), t_psa: psa.t_psa, solve, psa }
}

/// Lower the compiled schedule to its MPMD program (paper Step 5) and
/// execute it on the ground-truth machine.
pub fn run_mpmd(g: &Mdg, compiled: &Compiled, truth: &TrueMachine) -> SimResult {
    assert_eq!(
        truth.machine.procs, compiled.machine.procs,
        "truth and compile target sizes differ"
    );
    simulate(&lower_mpmd(g, &compiled.psa.schedule), truth)
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
        let spec = SolveSpec { fast_solver: false, ..SolveSpec::new(Machine::cm5(4)) };
        let c = compile(&g, &spec).unwrap();
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
            let c = compile(&g, &SolveSpec::new(Machine::cm5(p))).unwrap();
            assert!(
                c.t_psa >= c.phi.phi * (1.0 - 1e-2),
                "p={p}: T_psa {} < Phi {}",
                c.t_psa,
                c.phi.phi
            );
        }
    }

    /// A spec the PSA would assert on is a typed error before any solve.
    #[test]
    fn a_non_power_of_two_pb_is_an_invalid_spec() {
        let g = example_fig1_mdg();
        for fast_solver in [true, false] {
            let spec = SolveSpec { pb: Some(3), fast_solver, ..SolveSpec::new(Machine::cm5(4)) };
            match compile(&g, &spec) {
                Err(PipelineError::InvalidSpec(msg)) => {
                    assert_eq!(msg, "processor bound 3 must be a power of two")
                }
                other => panic!("expected InvalidSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn mpmd_run_close_to_prediction() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let c = compile(&g, &SolveSpec::new(Machine::cm5(16))).unwrap();
        let r = run_mpmd(&g, &c, &TrueMachine::cm5(16));
        let rel = (r.makespan - c.t_psa).abs() / c.t_psa;
        assert!(rel < 0.25, "simulated {} vs predicted {} (rel {rel})", r.makespan, c.t_psa);
    }

    #[test]
    #[should_panic(expected = "sizes differ")]
    fn size_mismatch_rejected() {
        let g = example_fig1_mdg();
        let c = compile(&g, &SolveSpec::new(Machine::cm5(4))).unwrap();
        let _ = run_mpmd(&g, &c, &TrueMachine::cm5(8));
    }
}
