//! Running one op: as a black box through the public entry point (the
//! timed, untraced form), or taken apart into the same public calls the
//! entry point makes, each inside a span (the traced form).
//!
//! The traced form re-states `paradigm_core::compile_with_solve` and
//! `paradigm_serve::handle_line` from outside; the check compares its
//! Φ and `T_psa` bit-for-bit with the black box, so the two cannot
//! drift apart unnoticed.

use crate::span::Recorder;
use crate::workload::Instance;
use paradigm_admm::{
    solve_admm, AdmmConfig, BlockBackend, BlockJob, BlockSolution, InProcessBackend,
};
use paradigm_core::{
    try_solve_pipeline, try_solve_pipeline_with_backend, AdmmStats, AllocEntry, SolveOutput,
};
use paradigm_front::compile_source;
use paradigm_mdg::{KernelCostTable, Mdg};
use paradigm_sched::{idle_profile, psa_schedule, PsaConfig};
use paradigm_serve::protocol::{error_response, serve_error_response, solve_response};
use paradigm_serve::{handle_line, parse_request, Request, Service};
use paradigm_sim::{lower_mpmd, simulate, TrueMachine};
use paradigm_solver::{try_allocate, AllocationResult, FallbackTier, SolverConfig};

/// The ADMM configuration and block backend of an instance. With no
/// forced block count it is what a caller gets: the default configuration
/// and the default backend, a thread per core. The small graphs that fill
/// the pass are forced into blocks and solved one after the other on the
/// client's thread: blocks of 16-43 nodes are too small for threads to
/// pay, and on a shared 2-core box their op time would follow whether the
/// second core happens to be free (results are bit-identical either way).
pub fn admm_setup(g: &Mdg, inst: &Instance) -> (AdmmConfig, InProcessBackend) {
    match inst.admm_blocks {
        0 => (AdmmConfig::default(), InProcessBackend::default()),
        blocks => (AdmmConfig::with_blocks(g, blocks), InProcessBackend { threads: 1 }),
    }
}

/// One compile op, source or graph in → `SolveOutput` out, through the
/// entry point the workload names.
pub fn compile_op(inst: &Instance) -> Result<SolveOutput, String> {
    let compiled;
    let g: &Mdg = match inst.source {
        Some(src) => {
            compiled = compile_source(src, &KernelCostTable::cm5()).map_err(|e| e.to_string())?;
            &compiled
        }
        None => &inst.graph,
    };
    if inst.spec.admm {
        let (cfg, mut backend) = admm_setup(g, inst);
        try_solve_pipeline_with_backend(g, &inst.spec, &cfg, &mut backend)
    } else {
        try_solve_pipeline(g, &inst.spec)
    }
    .map_err(|e| e.to_string())
}

/// Block backend that records a span around every `solve_blocks` call
/// of the backend it wraps.
struct SpanBackend<'r, B> {
    inner: B,
    rec: &'r mut Recorder,
}

impl<B: BlockBackend> BlockBackend for SpanBackend<'_, B> {
    fn solve_blocks(&mut self, jobs: &[BlockJob]) -> Result<Vec<BlockSolution>, String> {
        let inner = &mut self.inner;
        self.rec.span("admm.solve_blocks", |_| inner.solve_blocks(jobs))
    }
}

/// What the traced form of a compile op hands back: the output assembled
/// the way `paradigm_core` assembles it, plus the raw allocation result
/// the layer probes need (iterations, starts, continuous allocation).
pub struct TracedCompile {
    pub output: SolveOutput,
    pub solve: AllocationResult,
}

/// The traced form of [`compile_op`]: one `op.compile` span whose
/// children are the calls into each layer.
pub fn traced_compile_op(rec: &mut Recorder, inst: &Instance) -> Result<TracedCompile, String> {
    rec.span("op.compile", |rec| {
        let compiled;
        let g: &Mdg = match inst.source {
            Some(src) => {
                compiled = rec
                    .span("front.compile_source", |_| compile_source(src, &KernelCostTable::cm5()))
                    .map_err(|e| e.to_string())?;
                &compiled
            }
            None => &inst.graph,
        };
        let spec = &inst.spec;
        spec.validate()?;
        let mut admm = None;
        let solve = if spec.admm {
            let (cfg, inner) = admm_setup(g, inst);
            let res = rec
                .span("admm.solve", |rec| {
                    let mut backend = SpanBackend { inner, rec };
                    solve_admm(g, spec.machine, &cfg, &mut backend)
                })
                .map_err(|e| e.to_string())?;
            let solve = AllocationResult {
                iterations: res.inner_iters + res.polish_iters,
                starts: res.blocks,
                tier: FallbackTier::Admm,
                alloc: res.alloc,
                phi: res.phi,
            };
            admm = Some(AdmmStats {
                blocks: res.blocks,
                cut_edges: res.cut_edges,
                outer_iters: res.outer_iters,
                inner_iters: res.inner_iters,
                polish_iters: res.polish_iters,
                primal_residual: res.primal_residual,
                dual_residual: res.dual_residual,
                converged: res.converged,
                blocks_retried: res.blocks_retried,
                blocks_stolen: res.blocks_stolen,
                blocks_stale: res.blocks_stale,
                max_block_stale_rounds: res.max_block_stale_rounds,
                workers_quarantined: res.workers_quarantined,
                backend_downgrades: res.backend_downgrades,
            });
            solve
        } else {
            let cfg = if spec.fast_solver { SolverConfig::fast() } else { SolverConfig::default() };
            rec.span("solver.allocate", |_| try_allocate(g, spec.machine, &cfg))
                .map_err(|e| e.to_string())?
        };
        let psa_cfg = PsaConfig { pb: spec.pb, skip_rounding: false, policy: spec.policy };
        let psa = rec.span("sched.psa", |_| psa_schedule(g, spec.machine, &solve.alloc, &psa_cfg));
        let program = rec.span("sim.lower", |_| lower_mpmd(g, &psa.schedule));
        let sim_makespan = spec.simulate.then(|| {
            let truth = TrueMachine {
                machine: spec.machine,
                kernels: KernelCostTable::cm5(),
                ..TrueMachine::cm5(spec.machine.procs)
            };
            rec.span("sim.simulate", |_| simulate(&program, &truth)).makespan
        });
        let alloc = g
            .nodes()
            .filter(|(_, n)| !n.is_structural())
            .map(|(id, n)| AllocEntry {
                node: n.name.clone(),
                continuous: solve.alloc.get(id),
                procs: psa.bounded.as_u32(id),
            })
            .collect();
        let output = SolveOutput {
            graph: g.name().to_string(),
            compute_nodes: g.compute_node_count(),
            phi: solve.phi.phi,
            t_psa: psa.t_psa,
            pb: psa.pb,
            deviation_percent: 100.0 * (psa.t_psa - solve.phi.phi) / solve.phi.phi,
            utilization: idle_profile(&psa.schedule, psa.pb).utilization(),
            alloc,
            sim_makespan,
            degraded: solve.tier,
            schedule: psa.schedule,
            admm,
        };
        Ok(TracedCompile { output, solve })
    })
}

/// One serve op, request bytes in → response bytes out.
pub fn serve_op(service: &Service, line: &str) -> String {
    handle_line(service, line).0
}

/// The traced form of [`serve_op`]: `handle_line` taken apart into
/// decode, submit and encode, each inside a span under `op.serve`.
pub fn traced_serve_op(rec: &mut Recorder, service: &Service, line: &str) -> String {
    rec.span("op.serve", |rec| match rec.span("serve.parse_request", |_| parse_request(line)) {
        Err(msg) => error_response(&msg).render(),
        Ok(Request::Solve { graph, spec, deadline }) => {
            let answer =
                rec.span("serve.submit", |_| service.submit_with_deadline(graph, spec, deadline));
            rec.span("serve.encode", |_| match answer {
                Ok(r) => solve_response(&r).render(),
                Err(e) => serve_error_response(&e).render(),
            })
        }
        Ok(_) => error_response("the benchmark only sends solve requests").render(),
    })
}
