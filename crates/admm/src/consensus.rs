//! The consensus-ADMM outer loop.
//!
//! Global consensus form (Boyd et al. 2011, §7): every partition block
//! `b` holds a local copy `x^b` of the variables it touches; the
//! coordinator keeps one consensus value `z_v` per boundary node plus a
//! scaled dual `u^b_v` per (block, boundary-node) copy. One outer
//! iteration is
//!
//! 1. **x-update** — every block minimizes its frozen-context model (see
//!    [`crate::block`]) plus `(rho/2) ||x - z + u||^2`, in parallel,
//!    through a [`BlockBackend`]; the block's objective is compiled in
//!    its first round and carried in its job's slot from then on — the
//!    loop moves the slot from each round's job into the next one's, and
//!    a backend that hands it back empty costs that block a build, never
//!    a different answer;
//! 2. **z-update** — per boundary node, average the over-relaxed copies
//!    `alpha x + (1 - alpha) z_old` plus their duals;
//! 3. **u-update** — `u += x_relaxed - z`.
//!
//! Residuals are RMS-normalized over copy slots and measured in x-space
//! (log-allocation) units so `eps` is scale-independent: primal
//! `r = rms(x - z)` (how far block copies disagree with the consensus)
//! and dual `s = rms(z - z_old)` (how far the refreeze point moved this
//! round); both below `eps` stops the loop. The penalty `rho` starts at
//! `Phi(x0)/m` (commensurate with the objective's per-variable
//! gradient) and adapts two ways: Boyd's residual-balancing rule while
//! descent is active, and monotone stall-forcing doublings once neither
//! the residuals nor the exact objective improve — which squeezes any
//! refreeze limit cycle shut.
//!
//! Two coordinator-side accelerations close the gap a frozen-context
//! scheme leaves on its own, both O(E) per round (trivial next to the
//! block solves): a geometric line search on the exact global objective
//! along the aggregate round step (recovering the Jacobi undershoot —
//! every block improved assuming the others stayed frozen), and, once
//! per-round gains go small, a handful of exact projected-gradient
//! polish steps. The coordinator re-scores every iterate with the exact
//! global evaluator and returns the best allocation ever seen, so the
//! non-monotone outer trajectory can never worsen the reported answer.
//!
//! The loop stops on residuals, not on a stationary point of `Phi`, so
//! after it the coordinator runs one finishing stage from the best
//! point — a quasi-Newton descent of the global objective at the
//! ladder's top sharpness, then the exact polish — and keeps it if
//! exact `Phi` improves. That is what holds the tier within 1 % of a
//! dense solve that converges (DESIGN.md §13).
//!
//! Every piece of the loop is deterministic: the partition is a pure
//! function of the graph, each block job is a pure function of its
//! inputs, and all reductions run in fixed (node-id) order — so results
//! are bitwise identical across runs and thread counts. Every round is a
//! synchronous barrier: a backend that cannot return every block's
//! solution fails the solve.

use paradigm_cost::{Allocation, Machine, PhiBreakdown};
use paradigm_mdg::{Mdg, NodeId};
use paradigm_solver::expr::Sharpness;
use paradigm_solver::{
    descend, FallbackTier, MdgObjective, SolverError, SolverWorkspace, Stage, SweepCounts,
    QN_MEMORY, STATIONARITY_TOL,
};
use std::collections::BTreeMap;

use crate::block::{
    build_block_problem, global_sweeps, solve_block_job, stage_stop, BlockJob, BlockMaps,
    BlockModel, BlockSolution, InnerConfig, TapeSlot,
};
use crate::partition::{partition_mdg, PartitionOptions};

/// Initial penalty weight `rho`, in units of the objective's per-variable
/// gradient magnitude (see the scaling in [`solve_admm`]).
const RHO0: f64 = 1.0;

/// Over-relaxation factor `alpha` of the z- and u-updates (1.0 would
/// disable it; Boyd et al. report 1.5–1.8 as typical).
const RELAX: f64 = 1.6;

/// Outer-loop configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmmConfig {
    /// Partitioning options (block size, single-block floor).
    pub partition: PartitionOptions,
    /// Residual tolerance: converged when both RMS residuals drop below.
    pub eps: f64,
    /// Outer iteration cap.
    pub max_outer: usize,
    /// Per-block inner solver configuration.
    pub inner: InnerConfig,
}

impl Default for AdmmConfig {
    fn default() -> Self {
        AdmmConfig {
            partition: PartitionOptions::default(),
            eps: 1e-4,
            max_outer: 400,
            inner: InnerConfig::default(),
        }
    }
}

impl AdmmConfig {
    /// Force a specific block count (testing / CLI `--blocks`).
    pub fn with_blocks(g: &Mdg, blocks: usize) -> Self {
        AdmmConfig { partition: PartitionOptions::with_blocks(g, blocks), ..AdmmConfig::default() }
    }
}

/// Where block x-updates run. Implementations must place solution `i`
/// at index `i` of the returned vector (same order as `jobs`).
pub trait BlockBackend {
    /// Solve every job; the call is allowed to run them in any order or
    /// in parallel, but each solution must be the pure
    /// [`solve_block_job`] result for its job.
    fn solve_blocks(&mut self, jobs: &[BlockJob]) -> Result<Vec<BlockSolution>, String>;
}

/// Scoped-thread backend: splits jobs into contiguous chunks over at
/// most `threads` OS threads (`0` = available parallelism), each thread
/// solving its chunk on one [`SolverWorkspace`] it makes for the call.
/// Because each job is solved by a pure function, the thread count
/// changes only where a job runs, never its result.
#[derive(Debug, Clone, Default)]
pub struct InProcessBackend {
    /// Worker thread cap; `0` picks `available_parallelism`.
    pub threads: usize,
}

impl BlockBackend for InProcessBackend {
    fn solve_blocks(&mut self, jobs: &[BlockJob]) -> Result<Vec<BlockSolution>, String> {
        let total = jobs.len();
        if total == 0 {
            return Ok(Vec::new());
        }
        let workers = if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
        }
        .clamp(1, total);
        if workers == 1 {
            let mut ws = SolverWorkspace::new();
            return jobs.iter().map(|j| solve_block_job(j, &mut ws)).collect();
        }
        let chunk_len = total.div_ceil(workers);
        let joined = paradigm_race::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .chunks(chunk_len)
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut ws = SolverWorkspace::new();
                        chunk.iter().map(|job| solve_block_job(job, &mut ws)).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
        });
        // Chunks are contiguous and joined in spawn order, so flattening
        // preserves the job order.
        let mut out = Vec::with_capacity(total);
        for r in joined {
            let sols = r.map_err(|_| "block solve thread panicked".to_string())?;
            for sol in sols {
                out.push(sol?);
            }
        }
        Ok(out)
    }
}

/// Outcome of a consensus-ADMM solve.
#[derive(Debug, Clone)]
pub struct AdmmResult {
    /// Best allocation seen across outer iterations (exact re-score).
    pub alloc: Allocation,
    /// Exact `Phi` breakdown at `alloc`.
    pub phi: PhiBreakdown,
    /// Outer (consensus) iterations executed.
    pub outer_iters: usize,
    /// Inner gradient iterations summed over all blocks and rounds.
    pub inner_iters: usize,
    /// Coordinator-side iterations on the global objective: the gated
    /// polish of the rounds plus the finishing stage after them.
    pub polish_iters: usize,
    /// Final RMS primal residual `rms(x - z)` in log-allocation units.
    pub primal_residual: f64,
    /// Final RMS consensus drift `rms(z - z_old)` in log-allocation
    /// units (see the module docs for why `rho` is not folded in).
    pub dual_residual: f64,
    /// Whether both residuals dropped below `eps`.
    pub converged: bool,
    /// Number of partition blocks.
    pub blocks: usize,
    /// Number of cut edges (consensus-coupled transfers).
    pub cut_edges: usize,
    /// The worker fleet's fault counters: always 0, since every round
    /// runs in process under a synchronous barrier. Kept only because the
    /// repo benchmark's traced compile names them; they leave with the
    /// consensus tier (ROADMAP item 5).
    pub blocks_retried: u64,
    /// Always 0; see [`AdmmResult::blocks_retried`].
    pub blocks_stolen: u64,
    /// Always 0; see [`AdmmResult::blocks_retried`].
    pub blocks_stale: u64,
    /// Always 0; see [`AdmmResult::blocks_retried`].
    pub max_block_stale_rounds: usize,
    /// Always 0; see [`AdmmResult::blocks_retried`].
    pub workers_quarantined: u64,
    /// Always 0; see [`AdmmResult::blocks_retried`].
    pub backend_downgrades: u64,
    /// Tier label for downstream reporting (always `Admm`).
    pub tier: FallbackTier,
    /// The solve's sweeps: every block solution's
    /// [`BlockSolution::counts`] plus the coordinator polish's.
    pub counts: SweepCounts,
}

/// Solve the allocation program by consensus ADMM over a deterministic
/// min-cut partition, running block x-updates through `backend`.
pub fn solve_admm<B: BlockBackend>(
    g: &Mdg,
    machine: Machine,
    cfg: &AdmmConfig,
    backend: &mut B,
) -> Result<AdmmResult, SolverError> {
    let obj = MdgObjective::try_new(g, machine).map_err(SolverError::BadObjective)?;
    let ub = obj.x_upper();
    let n = g.node_count();
    let part = partition_mdg(g, &cfg.partition);

    // Start from the analytic equal split (feasible, cheap, and a
    // reasonable scale for area-dominated large graphs).
    let p = machine.procs as f64;
    let m = g.compute_node_count().max(1) as f64;
    let share = (p / m).clamp(1.0, p).ln();
    let mut x = vec![0.0_f64; n];
    for (id, node) in g.nodes() {
        if !node.is_structural() {
            x[id.0] = share;
        }
    }

    // Which blocks hold a copy of each boundary node (home first, then
    // ghost blocks ascending): fixed for the whole solve.
    let mut owners: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for &v in &part.boundary {
        owners.insert(v, vec![part.block_of[v.0]]);
    }
    for &e in &part.cut_edges {
        let edge = g.edge(e);
        for (v, other) in [(edge.src, edge.dst), (edge.dst, edge.src)] {
            let ghost_block = part.block_of[other];
            let list = owners.get_mut(&NodeId(v)).expect("cut endpoints are boundary nodes");
            if !list.contains(&ghost_block) {
                list.push(ghost_block);
            }
        }
    }
    for list in owners.values_mut() {
        let home = list[0];
        list.sort_unstable();
        list.dedup();
        // Keep home membership but a stable ascending order.
        debug_assert!(list.contains(&home));
    }
    let copy_slots: usize = owners.values().map(Vec::len).sum();

    // Scaled duals per block, keyed by global boundary node.
    let mut duals: Vec<BTreeMap<NodeId, f64>> = vec![BTreeMap::new(); part.blocks];
    for (&v, blocks) in &owners {
        for &b in blocks {
            duals[b].insert(v, 0.0);
        }
    }

    // `RHO0` is dimensionless: the actual penalty weight is
    // scaled by the objective's per-variable gradient magnitude
    // (`Phi / m` — each area term contributes about its own share of
    // `Phi` to its variable's gradient), so the consensus pull is
    // commensurate with the objective pull regardless of graph size or
    // cost units.
    let scale = (global_sweeps(&obj, &x).phi() / m).max(f64::MIN_POSITIVE);
    let mut rho = RHO0 * scale;
    let mut best: Option<(Allocation, PhiBreakdown)> = None;
    let consider = |x: &[f64], best: &mut Option<(Allocation, PhiBreakdown)>| {
        let alloc = obj.allocation_from_x(x);
        let phi = obj.exact_phi(&alloc);
        if phi.phi.is_finite() && best.as_ref().is_none_or(|(_, b)| phi.phi < b.phi) {
            *best = Some((alloc, phi));
        }
    };

    let mut outer_iters = 0usize;
    let mut inner_iters = 0usize;
    let mut counts = SweepCounts::default();
    let mut r = f64::INFINITY;
    let mut s = f64::INFINITY;
    let mut converged = false;
    // Stall escalation: the block models are re-frozen every round, so
    // a too-soft penalty can limit-cycle instead of agreeing. When the
    // worst residual stops improving we double `rho`, which pins the
    // copies ever harder to the consensus and forces the cycle closed;
    // the best-exact-`Phi` tracking above means late consensus-forcing
    // can only stop the clock, never degrade the reported answer.
    let mut best_resid = f64::INFINITY;
    let mut stalled = 0usize;
    let mut forcing = false;

    let mut x_prev = vec![0.0_f64; n];
    let mut x_probe = vec![0.0_f64; n];

    // Coordinator-side polish state: a few exact projected-gradient
    // steps on the *global* objective whenever the consensus phase's
    // per-round gain goes small. The block solves still carry the bulk
    // of the optimization (and distribute); the polish closes the
    // decomposition's duality-gap tail, which a frozen-context scheme
    // cannot shrink below the coupling error on its own.
    let mut pws = SolverWorkspace::new();
    let mut pol_step = 0.25_f64;
    let mut polish_iters = 0usize;
    let compute: Vec<usize> =
        g.nodes().filter(|(_, node)| !node.is_structural()).map(|(id, _)| id.0).collect();
    let mut phi_pre_polish = f64::INFINITY;
    let mut phi_round_last = f64::INFINITY;

    // After the cold first round every block is warm-started from the
    // consensus point it just helped produce, so re-climbing the full
    // smoothing ladder is wasted work — the ladder exists to escape the
    // *initial* point's basin. One short pass at the sharpest smoothing
    // level keeps enough curvature information to step over small
    // refreeze kinks, then exact refinement tracks the slowly-moving
    // consensus, at a fraction of the cold-round cost.
    let warm_inner = InnerConfig {
        stages: cfg.inner.stages.last().map(|&s| vec![s]).unwrap_or_default(),
        iters_per_stage: cfg.inner.iters_per_stage.div_ceil(2),
        exact_iters: cfg.inner.exact_iters.max(30),
        rel_tol: cfg.inner.rel_tol,
    };
    // The coordinator accelerations (extrapolation, polish) speed Phi
    // descent mid-flight but keep perturbing the boundary variables, so
    // the whole-round drift `s` can never settle below their step sizes.
    // Once block copies nearly agree the accelerations have done their
    // job: switch them off (monotonically) and let the pure consensus
    // iteration reach stationarity. Best-exact-Phi tracking means the
    // tail can only stop the clock, never worsen the answer.
    let mut accel = true;
    let mut last_gain = f64::INFINITY;

    let trace_rounds = std::env::var_os("PARADIGM_ADMM_TRACE").is_some();

    // Each block's compiled objective, between rounds: a block's sub-MDG
    // keeps its shape from round to round (only the frozen costs of its
    // ghost and virtual nodes move), so what the first round compiled
    // rides in the block's job slot for the rest of the solve. A slot a
    // backend hands back empty costs that block one build.
    let mut tapes: Vec<TapeSlot> = Vec::new();
    tapes.resize_with(part.blocks, TapeSlot::default);

    for _ in 0..cfg.max_outer {
        outer_iters += 1;
        let sw = global_sweeps(&obj, &x);
        consider(&x, &mut best);
        x_prev.copy_from_slice(&x);

        let inner = if outer_iters == 1 { &cfg.inner } else { &warm_inner };
        let mut jobs = Vec::with_capacity(part.blocks);
        let mut maps: Vec<BlockMaps> = Vec::with_capacity(part.blocks);
        for (b, dual) in duals.iter().enumerate() {
            let (mut job, map) =
                build_block_problem(g, &machine, &part, b, &sw, &x, dual, rho, inner);
            job.tape = std::mem::take(&mut tapes[b]);
            jobs.push(job);
            maps.push(map);
        }
        let sols = backend.solve_blocks(&jobs).map_err(SolverError::BlockLost)?;
        if sols.len() != part.blocks {
            return Err(SolverError::BlockLost(format!(
                "backend returned {} solutions for {} blocks",
                sols.len(),
                part.blocks
            )));
        }
        inner_iters += sols.iter().map(|s| s.iters).sum::<usize>();
        for sol in &sols {
            counts += sol.counts;
        }
        for (slot, job) in tapes.iter_mut().zip(&mut jobs) {
            *slot = std::mem::take(&mut job.tape);
        }

        // Interior home variables: adopt the owning block's iterate.
        for b in 0..part.blocks {
            for &v in &part.members[b] {
                if !part.is_boundary(v) {
                    x[v.0] = sols[b].x[maps[b].sub_of[v.0]].clamp(0.0, ub);
                }
            }
        }

        // Consensus update with over-relaxation, in node-id order.
        let mut r2 = 0.0_f64;
        for (&v, blocks) in &owners {
            let z_old = x[v.0];
            let mut acc = 0.0_f64;
            for &b in blocks {
                let xb = sols[b].x[maps[b].sub_of[v.0]];
                let xh = RELAX * xb + (1.0 - RELAX) * z_old;
                let u = duals[b].get(&v).copied().unwrap_or(0.0);
                acc += xh + u;
            }
            let z = acc / blocks.len() as f64;
            for &b in blocks {
                let xb = sols[b].x[maps[b].sub_of[v.0]];
                let xh = RELAX * xb + (1.0 - RELAX) * z_old;
                *duals[b].get_mut(&v).expect("dual slot exists") += xh - z;
                let pr = xb - z;
                r2 += pr * pr;
            }
            x[v.0] = z;
        }

        // Once the block copies nearly agree AND the exact objective has
        // stopped improving, retire the accelerations for good and let
        // the pure iteration settle (see `accel` above). Either signal
        // alone is premature: small residuals with Phi still falling
        // means the polish is doing real work, and a Phi plateau with
        // large residuals means consensus is still being negotiated.
        if accel
            && copy_slots > 0
            && (r2 / copy_slots as f64).sqrt() < 20.0 * cfg.eps
            && last_gain < 1e-4
        {
            accel = false;
        }

        // Jacobi-undershoot extrapolation: every block improved assuming
        // the others stayed frozen, so the aggregate step systematically
        // underestimates the simultaneous improvement. A short geometric
        // line search on the *exact* global objective along the aggregate
        // direction (a handful of O(E) sweeps, trivial next to the block
        // solves) recovers the lost factor. The consensus and duals keep
        // their ADMM semantics; only the refreeze point moves further.
        let exact_at = |xv: &[f64]| obj.exact_phi(&obj.allocation_from_x(xv)).phi;
        let mut phi_best = f64::NAN;
        if accel {
            let mut t_best = 1.0_f64;
            phi_best = exact_at(&x);
            let mut t = 1.6_f64;
            while t <= 8.0 {
                for i in 0..n {
                    x_probe[i] = (x_prev[i] + t * (x[i] - x_prev[i])).clamp(0.0, ub);
                }
                let phi_t = exact_at(&x_probe);
                if phi_t.is_finite() && phi_t < phi_best * (1.0 - 1e-9) {
                    phi_best = phi_t;
                    t_best = t;
                    t *= 1.6;
                } else {
                    break;
                }
            }
            if t_best > 1.0 {
                for i in 0..n {
                    x[i] = (x_prev[i] + t_best * (x[i] - x_prev[i])).clamp(0.0, ub);
                }
                consider(&x, &mut best);
            }
        }

        // Tail polish, gated on the consensus phase running out of
        // per-round gain.
        let gain = (phi_pre_polish - phi_best) / phi_best.abs().max(f64::MIN_POSITIVE);
        phi_pre_polish = phi_best;
        if accel {
            last_gain = gain.abs();
        }
        let mut phi_round = if accel { phi_best } else { phi_round_last };
        if accel && gain < 3e-3 {
            // The shared stage on the block model with nothing frozen
            // (no area offset, no consensus terms): the exact global
            // `Phi` over the compute variables. The step carries across
            // rounds.
            let (scratch, grad_all, descent) = pws.split();
            let mut model = BlockModel::new(&obj, (0.0, 0.0, &[]), &compute, scratch, grad_all);
            descent.load(&x);
            descent.reset();
            descent.set_step(pol_step);
            let stage = Stage {
                free: Some(&compute),
                ub,
                max_iters: 6,
                max_probes: 30,
                memory: 0,
                gtol: 0.0,
                certify: false,
            };
            let stop = |improve: f64, f: f64, _moved: f64| improve <= 1e-9 * f.abs();
            polish_iters += descend(&mut model, descent, &stage, stop);
            x.copy_from_slice(descent.x());
            // Keep a workable step for the next round even when this one
            // dead-ends on the max kink.
            pol_step =
                if descent.dead_end() { (descent.step() * 4.0).max(1e-6) } else { descent.step() };
            phi_round = descent.value();
            consider(&x, &mut best);
        }

        // Consensus drift over the whole round (z-update, extrapolation,
        // and polish together): the iteration is stationary only when
        // the refreeze point stops moving.
        let mut s2 = 0.0_f64;
        for (&v, blocks) in &owners {
            let dz = x[v.0] - x_prev[v.0];
            s2 += blocks.len() as f64 * dz * dz;
        }

        if copy_slots > 0 {
            // Both residuals are measured in x-space (log-allocation)
            // units so `eps` has a scale-independent meaning: `r` is how
            // far block copies disagree with the consensus, `s` is how
            // far the consensus moved this round.
            // (Boyd's dual residual multiplies `s` by `rho`; under the
            // escalation below that would measure the inner solvers'
            // noise floor instead of stationarity, so we report the
            // unscaled drift.)
            r = (r2 / copy_slots as f64).sqrt();
            s = (s2 / copy_slots as f64).sqrt();
        } else {
            // Single block: no consensus constraints; one outer round is
            // a full (warm-started) solve of the whole problem.
            r = 0.0;
            s = 0.0;
        }
        if trace_rounds {
            let bp = best.as_ref().map_or(f64::NAN, |(_, b)| b.phi);
            eprintln!("outer {outer_iters}: r={r:.3e} s={s:.3e} rho={rho:.3e} best_phi={bp:.6e}");
        }
        if r < cfg.eps && s < cfg.eps {
            converged = true;
            break;
        }

        // A round counts as progress if either the residuals shrank or
        // the exact objective still moved materially: escalating `rho`
        // while real descent continues would clamp the iterate early.
        let worst = r.max(s);
        let phi_progress = phi_round < phi_round_last * (1.0 - 1e-3);
        phi_round_last = phi_round;
        if worst < 0.98 * best_resid {
            best_resid = worst;
            stalled = 0;
        } else if phi_progress {
            stalled = 0;
        } else {
            stalled += 1;
        }

        // Residual balancing (Boyd §3.4.1) plus stall escalation; duals
        // rescale to preserve the unscaled dual `rho * u`.
        let rel = rho / scale;
        let stall_limit = if forcing { 2 } else { 4 };
        if (r > 10.0 * s || stalled >= stall_limit) && rel < 1e9 {
            // Once stall-forcing starts, escalation is monotone:
            // letting the balancing rule halve `rho` again would undo
            // the squeeze and reopen the limit cycle.
            forcing = forcing || stalled >= stall_limit;
            rho *= 2.0;
            stalled = 0;
            for d in &mut duals {
                for u in d.values_mut() {
                    *u *= 0.5;
                }
            }
        } else if !forcing && s > 10.0 * r && rel > 1e-6 {
            rho *= 0.5;
            for d in &mut duals {
                for u in d.values_mut() {
                    *u *= 2.0;
                }
            }
        }
    }

    consider(&x, &mut best);

    // Finishing stage, on the coordinator (so every backend agrees to the
    // bit): the consensus loop stops on residuals, not on a stationary
    // point of `Phi`, and the dense solver it is held to 1 % of converges.
    // From the best point, one quasi-Newton stage of the global objective
    // at the ladder's top sharpness, then the exact polish; `consider`
    // keeps the result only if exact `Phi` improves.
    let (alloc, _) = best.as_ref().expect("at least one iterate was scored");
    x.clear();
    x.extend(alloc.as_slice().iter().map(|p| p.ln().clamp(0.0, ub)));
    let (scratch, grad_all, descent) = pws.split();
    let mut model = BlockModel::new(&obj, (0.0, 0.0, &[]), &compute, scratch, grad_all);
    descent.load(&x);
    let top = cfg.inner.stages.last();
    let top = top.map(|&s| (Sharpness::Smooth(s), 60, QN_MEMORY, STATIONARITY_TOL));
    for (sharp, max_iters, memory, gtol) in top.into_iter().chain([(Sharpness::Exact, 30, 0, 0.0)])
    {
        model.sharp = sharp;
        descent.reset();
        let stage = Stage {
            free: Some(&compute),
            ub,
            max_iters,
            max_probes: 40,
            memory,
            gtol,
            certify: false,
        };
        let stop = stage_stop(cfg.inner.rel_tol);
        polish_iters += descend(&mut model, descent, &stage, stop);
    }
    consider(descent.x(), &mut best);
    counts += pws.scratch.counts;

    let (alloc, phi) = best.expect("at least one iterate was scored");
    Ok(AdmmResult {
        alloc,
        phi,
        outer_iters,
        inner_iters,
        polish_iters,
        primal_residual: r,
        dual_residual: s,
        converged,
        blocks: part.blocks,
        cut_edges: part.cut_edges.len(),
        blocks_retried: 0,
        blocks_stolen: 0,
        blocks_stale: 0,
        max_block_stale_rounds: 0,
        workers_quarantined: 0,
        backend_downgrades: 0,
        tier: FallbackTier::Admm,
        counts,
    })
}

/// Convenience: solve with the in-process scoped-thread backend.
pub fn solve_admm_in_process(
    g: &Mdg,
    machine: Machine,
    cfg: &AdmmConfig,
    threads: usize,
) -> Result<AdmmResult, SolverError> {
    let mut backend = InProcessBackend { threads };
    solve_admm(g, machine, cfg, &mut backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::global_sweeps;
    use paradigm_mdg::{example_fig1_mdg, fork_join_mdg, random_layered_mdg, RandomMdgConfig};
    use paradigm_solver::expr::Sharpness;
    use paradigm_solver::{allocate, MdgObjective, SolverConfig};

    /// The per-block frozen-context model must reproduce the global
    /// objective exactly at the consensus point it was frozen at.
    #[test]
    fn block_model_is_exact_at_the_consensus_point() {
        let g = random_layered_mdg(&RandomMdgConfig::sized(160), 7);
        let machine = Machine::cm5(64);
        let obj = MdgObjective::try_new(&g, machine).expect("objective");
        let part = partition_mdg(&g, &PartitionOptions::with_blocks(&g, 4));
        assert!(part.blocks >= 2, "want a multi-block partition");

        // An arbitrary (but valid) consensus point.
        let ub = obj.x_upper();
        let mut x = vec![0.0; g.node_count()];
        for (id, node) in g.nodes() {
            if !node.is_structural() {
                x[id.0] = (0.17 * (id.0 % 7) as f64).min(ub);
            }
        }
        let sw = global_sweeps(&obj, &x);
        let phi_global = sw.phi();

        for b in 0..part.blocks {
            let duals = BTreeMap::new();
            let (job, maps) = build_block_problem(
                &g,
                &machine,
                &part,
                b,
                &sw,
                &x,
                &duals,
                1.0,
                &InnerConfig::default(),
            );
            let sub_obj = MdgObjective::try_new(&job.graph, job.machine).expect("block objective");
            let mut scratch = paradigm_solver::EvalScratch::default();
            let parts = sub_obj.eval_with(&job.x0, Sharpness::Exact, &mut scratch);
            let a = (job.area_off + parts.a_p).max(0.0);
            let phi_model = a.max(parts.c_p);
            assert!(
                (phi_model - phi_global).abs() <= 1e-9 * phi_global.abs().max(1.0),
                "block {b}: model phi {phi_model} vs global {phi_global}"
            );
            // Every home member must be a free variable of the job.
            for &v in &part.members[b] {
                assert!(maps.sub_of[v.0] != usize::MAX);
            }
        }
    }

    /// With a single block the outer loop degenerates to one warm-started
    /// full solve; it should land within a hair of the dense solver.
    #[test]
    fn single_block_matches_dense() {
        let g = example_fig1_mdg();
        let machine = Machine::cm5(16);
        let dense = allocate(&g, machine, &SolverConfig::fast());
        let cfg = AdmmConfig {
            partition: PartitionOptions::default(), // small graph -> 1 block
            ..AdmmConfig::default()
        };
        let res = solve_admm_in_process(&g, machine, &cfg, 1).expect("admm");
        assert_eq!(res.blocks, 1);
        assert!(res.converged);
        assert!(
            res.phi.phi <= dense.phi.phi * 1.01 + 1e-9,
            "admm {} vs dense {}",
            res.phi.phi,
            dense.phi.phi
        );
    }

    /// Multi-block consensus converges and stays near the dense optimum.
    #[test]
    fn multi_block_converges_near_dense() {
        let g = random_layered_mdg(&RandomMdgConfig::sized(120), 21);
        let machine = Machine::cm5(64);
        let dense = allocate(&g, machine, &SolverConfig::fast());
        let cfg = AdmmConfig::with_blocks(&g, 4);
        let res = solve_admm_in_process(&g, machine, &cfg, 0).expect("admm");
        assert!(res.blocks >= 2, "want a real decomposition");
        assert!(
            res.converged,
            "residuals r={} s={} after {} iters",
            res.primal_residual, res.dual_residual, res.outer_iters
        );
        assert!(
            res.phi.phi <= dense.phi.phi * 1.01 + 1e-9,
            "admm {} vs dense {}",
            res.phi.phi,
            dense.phi.phi
        );
    }

    /// Identical inputs give bitwise-identical results regardless of the
    /// backend thread count.
    #[test]
    fn deterministic_across_thread_counts() {
        let g = fork_join_mdg(6, 10, 5);
        let machine = Machine::cm5(32);
        let cfg = AdmmConfig::with_blocks(&g, 4);
        let a = solve_admm_in_process(&g, machine, &cfg, 1).expect("admm t1");
        let b = solve_admm_in_process(&g, machine, &cfg, 4).expect("admm t4");
        assert_eq!(a.outer_iters, b.outer_iters);
        assert_eq!(a.phi.phi.to_bits(), b.phi.phi.to_bits());
        assert_eq!(a.alloc.as_slice(), b.alloc.as_slice());
        assert_eq!(a.primal_residual.to_bits(), b.primal_residual.to_bits());
    }

    /// A round is a synchronous barrier: a backend that cannot hand back
    /// every block's solution fails the solve with the typed error.
    #[test]
    fn a_lost_block_fails_the_solve() {
        struct LosesEveryRound;
        impl BlockBackend for LosesEveryRound {
            fn solve_blocks(&mut self, _jobs: &[BlockJob]) -> Result<Vec<BlockSolution>, String> {
                Err("block 0 lost".into())
            }
        }
        let g = fork_join_mdg(6, 10, 5);
        let cfg = AdmmConfig::with_blocks(&g, 4);
        let err = solve_admm(&g, Machine::cm5(32), &cfg, &mut LosesEveryRound).unwrap_err();
        assert!(matches!(err, SolverError::BlockLost(_)), "{err}");
    }
}
