//! A reusable, parameter-complete entry point into the compile pipeline,
//! plus canonical cache keying — the pure function the serving layer
//! (`paradigm-serve`) memoizes.
//!
//! [`try_solve_pipeline`] runs allocation → PSA → (optional refinement)
//! → (optional simulation) for one `(MDG, SolveSpec)` pair and returns a
//! plain-data [`SolveOutput`]: everything is owned values, no borrowed
//! graph state, so results can live in a cache and be shared across
//! threads. [`solve_fingerprint`] produces the content-addressed key:
//! the MDG's [`paradigm_mdg::structural_hash`] extended with every spec
//! field the output depends on. Identical fingerprints therefore mean
//! identical outputs (the pipeline is deterministic), which is exactly
//! the property single-flight caching needs.

use crate::compile::{compile_with_solve, run_mpmd, try_compile, CompileConfig, Compiled};
use paradigm_admm::{solve_admm, AdmmConfig, AdmmResult, BlockBackend, InProcessBackend};
use paradigm_cost::Machine;
use paradigm_mdg::hash::Fnv128;
use paradigm_mdg::{
    block_lu_mdg, complex_matmul_mdg, example_fig1_mdg, fft_2d_mdg, fork_join_mdg,
    random_layered_mdg, stencil_mdg, strassen_mdg, strassen_mdg_multilevel, structural_hash,
    KernelCostTable, Mdg, RandomMdgConfig,
};
use paradigm_sched::{idle_profile, SchedPolicy};
use paradigm_sim::TrueMachine;
use paradigm_solver::{
    equal_split_allocation, AllocationResult, FallbackTier, SolverConfig, SolverError,
};
use std::fmt;

/// Largest machine a [`SolveSpec`] may name. The PSA keeps a free-time
/// slot per processor and every scheduled task lists its processor ids,
/// so memory is O(tasks × procs): an unchecked `procs` from a request is
/// an allocation the process cannot survive, not a panic a worker can
/// catch.
pub const MAX_PROCS: u32 = 65_536;

/// Everything (besides the graph) that a pipeline solve depends on.
/// Two requests with equal specs and structurally equal graphs produce
/// identical outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveSpec {
    /// Target machine (processor count + transfer constants).
    pub machine: Machine,
    /// PSA ready-queue priority.
    pub policy: SchedPolicy,
    /// Explicit processor bound; `None` = Corollary 1's optimum.
    pub pb: Option<u32>,
    /// Run the post-PSA reallocation refinement.
    pub refine: bool,
    /// Use the cheaper solver settings (`SolverConfig::fast()`).
    pub fast_solver: bool,
    /// Also execute the MPMD lowering on the ground-truth simulator and
    /// report the measured makespan.
    pub simulate: bool,
    /// Solve the allocation on the consensus-ADMM tier instead of the
    /// dense solver. Never chosen by graph size: on one box the tier is
    /// 20–35× slower than the dense solve at every size that partitions
    /// (DESIGN.md §13); it buys distribution over a worker fleet's memory
    /// and cores.
    pub admm: bool,
}

impl SolveSpec {
    /// A spec with the serving layer's defaults: fast solver, paper's
    /// PSA policy, automatic PB, no refinement, no simulation.
    pub fn new(machine: Machine) -> Self {
        SolveSpec {
            machine,
            policy: SchedPolicy::LowestEst,
            pb: None,
            refine: false,
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

/// One node's solved placement.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocEntry {
    /// Node name as given in the MDG.
    pub node: String,
    /// Continuous optimum from the convex program.
    pub continuous: f64,
    /// Rounded/bounded processor count actually scheduled.
    pub procs: u32,
}

/// Consensus-ADMM solve diagnostics, reported when the allocation came
/// from the distributed solver tier.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmmStats {
    /// Partition blocks solved per outer round.
    pub blocks: usize,
    /// Cut (consensus-coupled) edges in the partition.
    pub cut_edges: usize,
    /// Outer consensus iterations executed.
    pub outer_iters: usize,
    /// Inner block-solver gradient iterations, summed.
    pub inner_iters: usize,
    /// Coordinator-side exact polish steps.
    pub polish_iters: usize,
    /// Final RMS primal residual (log-allocation units).
    pub primal_residual: f64,
    /// Final RMS consensus drift (log-allocation units).
    pub dual_residual: f64,
    /// Whether both residuals dropped below the tolerance.
    pub converged: bool,
    /// Block jobs retried on another attempt after a worker fault.
    pub blocks_retried: u64,
    /// Block jobs completed by a different worker than the one that
    /// first failed them (work stealing across the fleet).
    pub blocks_stolen: u64,
    /// Rounds that reused a block's previous solution because the fresh
    /// one missed the deadline (bounded-staleness mode only).
    pub blocks_stale: u64,
    /// Longest consecutive stale streak any single block reached.
    pub max_block_stale_rounds: usize,
    /// Worker circuit-breaker open transitions (quarantine events).
    pub workers_quarantined: u64,
    /// Backend downgrades taken (e.g. TCP fleet → in-process).
    pub backend_downgrades: u64,
}

impl AdmmStats {
    fn from_result(r: &AdmmResult) -> Self {
        AdmmStats {
            blocks: r.blocks,
            cut_edges: r.cut_edges,
            outer_iters: r.outer_iters,
            inner_iters: r.inner_iters,
            polish_iters: r.polish_iters,
            primal_residual: r.primal_residual,
            dual_residual: r.dual_residual,
            converged: r.converged,
            blocks_retried: r.blocks_retried,
            blocks_stolen: r.blocks_stolen,
            blocks_stale: r.blocks_stale,
            max_block_stale_rounds: r.max_block_stale_rounds,
            workers_quarantined: r.workers_quarantined,
            backend_downgrades: r.backend_downgrades,
        }
    }
}

/// Owned, thread-shareable result of one pipeline solve.
#[derive(Debug, Clone)]
pub struct SolveOutput {
    /// Graph name at solve time (callers holding a structurally equal
    /// graph under a different name should prefer their own).
    pub graph: String,
    /// Number of compute nodes solved.
    pub compute_nodes: usize,
    /// Continuous optimum `Phi`.
    pub phi: f64,
    /// Schedule makespan `T_psa`.
    pub t_psa: f64,
    /// Processor bound used by the PSA.
    pub pb: u32,
    /// `(T_psa - Phi) / Phi` in percent.
    pub deviation_percent: f64,
    /// Schedule utilization in `[0, 1]`.
    pub utilization: f64,
    /// Per-compute-node allocation, in node-index order.
    pub alloc: Vec<AllocEntry>,
    /// Measured makespan on the ground-truth simulator, if requested.
    pub sim_makespan: Option<f64>,
    /// Which tier produced the allocation: `Primary` or `Admm` from a
    /// solve, `EqualSplit` from [`solve_pipeline_degraded`].
    pub degraded: FallbackTier,
    /// The PSA schedule itself, so downstream consumers (e.g. the serve
    /// layer's sampled audits) can re-verify the result independently.
    pub schedule: paradigm_sched::Schedule,
    /// Consensus-ADMM diagnostics when `degraded == FallbackTier::Admm`.
    pub admm: Option<AdmmStats>,
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

fn compile_config(spec: &SolveSpec) -> CompileConfig {
    CompileConfig {
        solver: if spec.fast_solver { SolverConfig::fast() } else { SolverConfig::default() },
        psa: paradigm_sched::PsaConfig { pb: spec.pb, skip_rounding: false, policy: spec.policy },
        refine: spec.refine,
    }
}

fn output_from_compiled(g: &Mdg, spec: &SolveSpec, c: &Compiled) -> SolveOutput {
    let prof = idle_profile(&c.psa.schedule, c.psa.pb);
    let alloc = g
        .nodes()
        .filter(|(_, n)| !n.is_structural())
        .map(|(id, n)| AllocEntry {
            node: n.name.clone(),
            continuous: c.solve.alloc.get(id),
            procs: c.psa.bounded.as_u32(id),
        })
        .collect();
    let sim_makespan = spec.simulate.then(|| {
        let truth = TrueMachine {
            machine: spec.machine,
            kernels: KernelCostTable::cm5(),
            ..TrueMachine::cm5(spec.machine.procs)
        };
        run_mpmd(g, c, &truth).makespan
    });
    SolveOutput {
        graph: g.name().to_string(),
        compute_nodes: g.compute_node_count(),
        phi: c.phi.phi,
        t_psa: c.t_psa,
        pb: c.psa.pb,
        deviation_percent: c.deviation_percent(),
        utilization: prof.utilization(),
        alloc,
        sim_makespan,
        degraded: c.solve.tier,
        schedule: c.psa.schedule.clone(),
        admm: None,
    }
}

/// The ADMM arm of every pipeline entry point: consensus-ADMM allocation
/// on `backend`, the compile tail on that allocation, diagnostics into
/// `SolveOutput::admm`.
fn admm_output<B: BlockBackend>(
    g: &Mdg,
    spec: &SolveSpec,
    cfg: &AdmmConfig,
    backend: &mut B,
) -> Result<SolveOutput, SolverError> {
    let res = solve_admm(g, spec.machine, cfg, backend)?;
    let stats = AdmmStats::from_result(&res);
    let solve = AllocationResult {
        alloc: res.alloc,
        phi: res.phi,
        iterations: res.inner_iters + res.polish_iters,
        starts: res.blocks,
        tier: FallbackTier::Admm,
    };
    let c = compile_with_solve(g, spec.machine, &compile_config(spec), solve);
    let mut out = output_from_compiled(g, spec, &c);
    out.admm = Some(stats);
    Ok(out)
}

/// Run the full pipeline for one graph under one spec: validate the
/// spec, solve on the tier it names, schedule, and optionally simulate.
/// A failed solve is a typed [`PipelineError`] — on either tier; nothing
/// here degrades, so an ADMM failure is not answered densely. This is
/// [`try_solve_pipeline_with_backend`] with the default [`AdmmConfig`]
/// on the default in-process backend.
pub fn try_solve_pipeline(g: &Mdg, spec: &SolveSpec) -> Result<SolveOutput, PipelineError> {
    try_solve_pipeline_with_backend(
        g,
        spec,
        &AdmmConfig::default(),
        &mut InProcessBackend::default(),
    )
}

/// Like [`try_solve_pipeline`], but the consensus-ADMM tier (when
/// `spec.admm` asks for it) runs on the caller's [`BlockBackend`] and
/// [`AdmmConfig`] instead of the defaults. The serving layer uses this
/// to drive a TCP worker fleet — wrapped in a failover backend — from
/// the same pipeline the cache and auditor already understand. Dense
/// requests never touch either.
pub fn try_solve_pipeline_with_backend<B: BlockBackend>(
    g: &Mdg,
    spec: &SolveSpec,
    admm_cfg: &AdmmConfig,
    backend: &mut B,
) -> Result<SolveOutput, PipelineError> {
    spec.validate().map_err(PipelineError::InvalidSpec)?;
    if spec.admm {
        return Ok(admm_output(g, spec, admm_cfg, backend)?);
    }
    let c = try_compile(g, spec.machine, &compile_config(spec))?;
    Ok(output_from_compiled(g, spec, &c))
}

/// Run the pipeline with the analytic equal-split allocation instead of
/// the convex solver — the serving layer's last-resort degraded path.
/// Never invokes the solver; simulation is skipped even if requested
/// (degraded answers should be cheap). `SolveOutput::degraded` is always
/// [`FallbackTier::EqualSplit`].
pub fn solve_pipeline_degraded(g: &Mdg, spec: &SolveSpec) -> SolveOutput {
    let spec = SolveSpec { simulate: false, ..spec.clone() };
    let solve = equal_split_allocation(g, spec.machine);
    let c = compile_with_solve(g, spec.machine, &compile_config(&spec), solve);
    output_from_compiled(g, &spec, &c)
}

/// Content-addressed cache key: the graph's canonical structural hash
/// extended with every [`SolveSpec`] field the output depends on.
pub fn solve_fingerprint(g: &Mdg, spec: &SolveSpec) -> u128 {
    let mut h = Fnv128::new();
    h.write_u128(structural_hash(g));
    h.write_u64(u64::from(spec.machine.procs));
    h.write_f64(spec.machine.xfer.t_ss);
    h.write_f64(spec.machine.xfer.t_ps);
    h.write_f64(spec.machine.xfer.t_sr);
    h.write_f64(spec.machine.xfer.t_pr);
    h.write_f64(spec.machine.xfer.t_n);
    h.write_u64(spec.machine.mem_bytes);
    h.write_u64(match spec.policy {
        SchedPolicy::LowestEst => 1,
        SchedPolicy::HighestLevelFirst => 2,
    });
    h.write_u64(spec.pb.map_or(0, |pb| u64::from(pb) + 1));
    h.write_u64(u64::from(spec.refine));
    h.write_u64(u64::from(spec.fast_solver));
    h.write_u64(u64::from(spec.simulate));
    h.write_u64(u64::from(spec.admm));
    h.finish()
}

/// Machine spec names understood by [`machine_from_spec`] (also the CLI
/// `--machine` flag and the serve protocol's `"machine"` field).
pub const MACHINE_SPECS: [&str; 4] = ["cm5", "mesh", "paragon", "sp1"];

/// Resolve a machine spec name at a processor count. `"cm5"` is the
/// paper's fitted testbed; `"mesh"` the synthetic machine with a
/// non-zero per-byte network term (`t_n > 0`); `"paragon"` / `"sp1"`
/// the illustrative 1994-era parameter sets.
pub fn machine_from_spec(spec: &str, procs: u32) -> Option<Machine> {
    match spec {
        "cm5" => Some(Machine::cm5(procs)),
        "mesh" => Some(Machine::synthetic_mesh(procs)),
        "paragon" => Some(Machine::intel_paragon(procs)),
        "sp1" => Some(Machine::ibm_sp1(procs)),
        _ => None,
    }
}

/// Names of the built-in gallery graphs served by [`gallery_graph`]
/// (also `paradigm analyze --gallery` and the serve protocol's
/// `"gallery"` field).
pub const GALLERY_NAMES: [&str; 9] = [
    "fig1",
    "cmm",
    "strassen",
    "strassen-ml",
    "fft2d",
    "block-lu",
    "stencil",
    "random-layered",
    "fork-join",
];

/// Build one built-in gallery graph by name, at the workloads' standard
/// sizes (CM-5 cost table).
pub fn gallery_graph(name: &str) -> Option<Mdg> {
    let t = KernelCostTable::cm5();
    match name {
        "fig1" => Some(example_fig1_mdg()),
        "cmm" => Some(complex_matmul_mdg(64, &t)),
        "strassen" => Some(strassen_mdg(128, &t)),
        "strassen-ml" => Some(strassen_mdg_multilevel(128, 2, &t)),
        "fft2d" => Some(fft_2d_mdg(64, 4, &t)),
        "block-lu" => Some(block_lu_mdg(4, 32, &t)),
        "stencil" => Some(stencil_mdg(64, 2, 3, &t)),
        // Seeded synthetic large-graph generators (ADMM's home turf) at
        // gallery-friendly sizes that the dense solver still handles, so
        // the two tiers can be cross-checked on the same graphs.
        "random-layered" => Some(random_layered_mdg(&RandomMdgConfig::sized(192), 11)),
        "fork-join" => Some(fork_join_mdg(6, 12, 5)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use paradigm_mdg::{AmdahlParams, ArrayTransfer, MdgBuilder, TransferKind};

    #[test]
    fn solve_matches_direct_compile() {
        let g = example_fig1_mdg();
        let spec = SolveSpec { fast_solver: false, ..SolveSpec::new(Machine::cm5(4)) };
        let out = try_solve_pipeline(&g, &spec).unwrap();
        let direct = compile(&g, Machine::cm5(4), &CompileConfig::default());
        assert_eq!(out.phi, direct.phi.phi);
        assert_eq!(out.t_psa, direct.t_psa);
        assert_eq!(out.pb, direct.psa.pb);
        assert_eq!(out.alloc.len(), g.compute_node_count());
        assert!(out.sim_makespan.is_none());
        assert!(out.utilization > 0.0 && out.utilization <= 1.0);
    }

    #[test]
    fn simulate_flag_reports_a_makespan() {
        let g = example_fig1_mdg();
        let spec = SolveSpec { simulate: true, ..SolveSpec::new(Machine::cm5(4)) };
        let out = try_solve_pipeline(&g, &spec).unwrap();
        let sim = out.sim_makespan.expect("simulate requested");
        assert!(sim > 0.0);
        // The simulator tracks the schedule prediction loosely.
        assert!((sim - out.t_psa).abs() / out.t_psa < 0.5, "sim {sim} vs {}", out.t_psa);
    }

    #[test]
    fn fingerprint_separates_specs_and_graphs() {
        let g = example_fig1_mdg();
        let base = SolveSpec::new(Machine::cm5(16));
        let fp = solve_fingerprint(&g, &base);
        assert_eq!(fp, solve_fingerprint(&g, &base.clone()), "deterministic");
        for other in [
            SolveSpec::new(Machine::cm5(32)),
            SolveSpec::new(Machine::synthetic_mesh(16)),
            SolveSpec { policy: SchedPolicy::HighestLevelFirst, ..base.clone() },
            SolveSpec { pb: Some(4), ..base.clone() },
            SolveSpec { refine: true, ..base.clone() },
            SolveSpec { fast_solver: false, ..base.clone() },
            SolveSpec { simulate: true, ..base.clone() },
            SolveSpec { admm: true, ..base.clone() },
        ] {
            assert_ne!(fp, solve_fingerprint(&g, &other), "{other:?}");
        }
        let g2 = gallery_graph("cmm").unwrap();
        assert_ne!(fp, solve_fingerprint(&g2, &base));
    }

    #[test]
    fn pb_zero_and_oversize_rejected_by_validate() {
        let mut spec = SolveSpec::new(Machine::cm5(8));
        spec.pb = Some(0);
        assert!(spec.validate().is_err());
        spec.pb = Some(16);
        assert!(spec.validate().is_err());
        spec.pb = Some(8);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn gallery_covers_all_names() {
        for name in GALLERY_NAMES {
            let g = gallery_graph(name).expect(name);
            assert!(g.compute_node_count() >= 3, "{name}");
        }
        assert!(gallery_graph("nope").is_none());
    }

    #[test]
    fn pipeline_reports_primary_tier_on_healthy_solves() {
        let g = example_fig1_mdg();
        let out = try_solve_pipeline(&g, &SolveSpec::new(Machine::cm5(4))).unwrap();
        assert_eq!(out.degraded, FallbackTier::Primary);
    }

    #[test]
    fn try_pipeline_rejects_invalid_spec() {
        let g = example_fig1_mdg();
        let spec = SolveSpec { pb: Some(0), ..SolveSpec::new(Machine::cm5(4)) };
        match try_solve_pipeline(&g, &spec) {
            Err(PipelineError::InvalidSpec(msg)) => assert!(msg.contains("positive"), "{msg}"),
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
    }

    #[test]
    fn try_pipeline_surfaces_solver_errors() {
        let g = example_fig1_mdg();
        let mut machine = Machine::cm5(4);
        machine.xfer.t_ss = f64::NAN;
        let spec = SolveSpec::new(machine);
        match try_solve_pipeline(&g, &spec) {
            Err(PipelineError::InvalidSpec(_)) => {}
            other => panic!("NaN machine should fail validation, got {other:?}"),
        }
    }

    #[test]
    fn degraded_pipeline_schedules_without_the_solver() {
        let g = gallery_graph("cmm").unwrap();
        let spec = SolveSpec { simulate: true, ..SolveSpec::new(Machine::cm5(16)) };
        let out = solve_pipeline_degraded(&g, &spec);
        assert_eq!(out.degraded, FallbackTier::EqualSplit);
        assert!(out.t_psa.is_finite() && out.t_psa > 0.0);
        // Degraded answers skip simulation even when the spec asks.
        assert!(out.sim_makespan.is_none());
        // Equal split is a real schedule, just a worse one.
        let best = try_solve_pipeline(&g, &SolveSpec::new(Machine::cm5(16))).unwrap();
        assert!(out.t_psa >= best.t_psa * 0.99, "{} vs {}", out.t_psa, best.t_psa);
    }

    #[test]
    fn admm_flag_forces_the_distributed_tier() {
        let g = gallery_graph("fork-join").unwrap();
        let machine = Machine::cm5(32);
        let spec = SolveSpec { admm: true, ..SolveSpec::new(machine) };
        let out = try_solve_pipeline(&g, &spec).expect("admm pipeline");
        assert_eq!(out.degraded, FallbackTier::Admm);
        let stats = out.admm.expect("admm stats reported");
        assert!(stats.converged, "r={} s={}", stats.primal_residual, stats.dual_residual);
        assert!(stats.blocks >= 1 && stats.outer_iters >= 1);
        // The distributed tier lands near the dense tier on the same graph.
        let dense = try_solve_pipeline(&g, &SolveSpec::new(machine)).unwrap();
        assert_eq!(dense.degraded, FallbackTier::Primary);
        assert!(dense.admm.is_none());
        assert!(out.phi <= dense.phi * 1.01 + 1e-9, "admm {} dense {}", out.phi, dense.phi);
    }

    /// A two-node chain whose costs pass every check and overflow `Phi`.
    fn overflow_chain() -> Mdg {
        let mut b = MdgBuilder::new("overflow");
        let a = b.compute("a", AmdahlParams::new(0.5, 1e308));
        let c = b.compute("c", AmdahlParams::new(0.5, 1e308));
        b.edge(a, c, vec![ArrayTransfer::new(1024, TransferKind::OneD)]);
        b.finish().unwrap()
    }

    /// A valid spec whose solve fails is a typed error on either tier:
    /// nothing in the pipeline degrades, and an `admm` request is never
    /// answered by the dense solver.
    #[test]
    fn a_failed_solve_is_a_typed_error_on_both_tiers() {
        let g = overflow_chain();
        let spec = SolveSpec::new(Machine::cm5(4));
        assert!(spec.validate().is_ok());
        match try_solve_pipeline(&g, &spec) {
            Err(PipelineError::Solver(SolverError::NonFinite { phi })) => {
                assert!(phi.is_infinite())
            }
            other => panic!("expected a non-finite solve, got {other:?}"),
        }
        let admm = SolveSpec { admm: true, ..spec };
        match try_solve_pipeline(&g, &admm) {
            Err(PipelineError::Solver(_)) => {}
            other => panic!("expected a typed ADMM failure, got {other:?}"),
        }
    }

    #[test]
    fn machine_specs_resolve() {
        for spec in MACHINE_SPECS {
            let m = machine_from_spec(spec, 16).expect(spec);
            assert_eq!(m.procs, 16);
        }
        assert!(machine_from_spec("mesh", 8).unwrap().xfer.t_n > 0.0);
        assert!(machine_from_spec("vax", 8).is_none());
    }
}
