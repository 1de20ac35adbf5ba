//! Block subproblems: self-contained sub-MDGs whose objective, restricted
//! to one partition block, reproduces the *global* `Phi` exactly at the
//! consensus point.
//!
//! The paper's objective `Phi = max(A_p, C_p)` is not block-separable:
//! `C_p` is a longest path through the whole DAG and `A_p` sums every
//! node. Rather than teaching the solver's objective about boundary
//! context, each block is encoded as an ordinary MDG that the unmodified
//! [`MdgObjective`] machinery can solve:
//!
//! * **home nodes** keep their exact costs and *all* their global edges
//!   (every edge incident to a home node is included);
//! * **ghost nodes** (opposite endpoints of cut edges) join the sub-MDG
//!   with their cost raised by a frozen correction `corr_g >= 0` — the
//!   transfer terms of their excluded edges evaluated at the consensus
//!   point — folded into `(alpha, tau)` so that `T'(q) = T(q) + corr_g`
//!   for every `q`;
//! * **entry virtuals** `ENT@v` (`alpha = 1`, `tau = ent_v`): a
//!   constant-cost predecessor modelling the latest frozen finish time
//!   `max(y_m + t^D)` over in-edges the sub-MDG does not contain;
//! * **exit virtuals** `EXT@v` (`alpha = 1`, `tau = exit_v`): a
//!   constant-cost successor modelling the longest frozen path from `v`'s
//!   finish to STOP through out-edges the sub-MDG does not contain;
//! * **the bypass virtual** `CB`: an isolated constant node carrying the
//!   longest START->STOP path that avoids the block entirely, so the
//!   sub-MDG's critical path can never dip below the rest of the
//!   program's.
//!
//! `alpha = 1` makes a virtual node's processing cost independent of its
//! (pinned) processor count, so the virtuals contribute exact constants
//! to `C_p` and a constant to `A_p` that the block's `area_off` cancels.
//! At the consensus point the block model evaluates to the global `Phi`
//! bit-for-nearly-bit (`block_model_is_exact_at_consensus` pins this),
//! which is what makes the ADMM outer loop honest: blocks descend a local
//! model that is a faithful restriction of the true objective.
//!
//! What a round pays for a block. Only the *costs* of a block's ghost and
//! virtual nodes move from round to round; its nodes, edges and transfers
//! do not. So the sub-MDG is compiled into an objective once per solve:
//! the compiled form rides in the job's [`TapeSlot`], and
//! [`solve_block_job`] re-attaches it to each round's sub-MDG (a shape
//! check and two coefficient writes per node into its program —
//! `paradigm_solver::DetachedObjective::attach`) or, when the slot is
//! empty or holds another shape, compiles. And the model's gradient
//! `w_a·∇A_p + w_c·∇C_p` is *one* backward replay of the tape the
//! accepted probe recorded, seeded with both weights (`area_off` shifts
//! `A_p` before the top-level smax, which changes the weights and nothing
//! else) — not two replays recombined, which is the same gradient at
//! twice the price, rounded differently.

use paradigm_cost::Machine;
use paradigm_mdg::{AmdahlParams, Mdg, MdgBuilder, NodeId, TransferKind};
use paradigm_race::plock;
use paradigm_race::sync::Mutex;
use paradigm_solver::expr::{smax_pair_weights, Sharpness};
use paradigm_solver::{
    check_annealing, descend, DescentModel, DetachedObjective, EvalScratch, MdgObjective,
    SolverWorkspace, Stage, SweepCounts,
};

use crate::partition::Partition;

/// Exact per-node / per-edge sweep values of the global objective at one
/// point — everything the block builder needs to freeze boundary context.
#[derive(Debug, Clone)]
pub struct GlobalSweeps {
    /// `T_v(x)` per node (exact, true-max).
    pub t: Vec<f64>,
    /// `t^D_e(x)` per edge.
    pub d: Vec<f64>,
    /// Earliest finish times `y_v(x)` (the paper's forward recurrence).
    pub y: Vec<f64>,
    /// Longest remaining path `down_v(x) = T_v + max(0, max_e (t^D_e +
    /// down_dst))` from the *start* of `v` to STOP.
    pub down: Vec<f64>,
    /// Exact `A_p(x)`.
    pub a_p: f64,
    /// Exact `C_p(x) = y_STOP`.
    pub c_p: f64,
}

impl GlobalSweeps {
    /// Exact `Phi(x) = max(A_p, C_p)`.
    pub fn phi(&self) -> f64 {
        self.a_p.max(self.c_p)
    }
}

/// Run the exact forward/backward sweeps of `obj` at `x`, reading `T_v`
/// and `t^D_e` off one exact sweep of its program (the root slots, and
/// `MdgObjective::swept_edge_delay`), on a scratch of its own (no
/// [`SweepCounts`] see it).
pub fn global_sweeps(obj: &MdgObjective<'_>, x: &[f64]) -> GlobalSweeps {
    let g = obj.graph();
    let n = g.node_count();
    let mut scratch = EvalScratch::default();
    obj.forward_record(x, Sharpness::Exact, &mut scratch);
    let t = scratch.tape_values()[..n].to_vec();
    let d: Vec<f64> = g.edges().map(|(e, _)| obj.swept_edge_delay(&scratch, e)).collect();
    let y = g.finish_times_with(|v| t[v.0], |e| d[e.0]);
    let mut down = vec![0.0_f64; g.node_count()];
    for &v in g.topo_order().iter().rev() {
        let mut tail = 0.0_f64;
        for &e in g.out_edges(v) {
            let w = g.edge(e).dst;
            tail = tail.max(d[e.0] + down[w]);
        }
        down[v.0] = t[v.0] + tail;
    }
    let inv_p = 1.0 / obj.machine().procs as f64;
    let a_p = inv_p * g.nodes().map(|(id, _)| t[id.0] * x[id.0].exp()).sum::<f64>();
    let c_p = y[g.stop().0];
    GlobalSweeps { t, d, y, down, a_p, c_p }
}

/// Inner (per-block) solver knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct InnerConfig {
    /// Smoothed-max sharpness stages, ascending.
    pub stages: Vec<f64>,
    /// Gradient iterations per smoothed stage.
    pub iters_per_stage: usize,
    /// Iterations of the final exact-max polish stage.
    pub exact_iters: usize,
    /// Relative improvement stopping tolerance per stage.
    pub rel_tol: f64,
}

impl Default for InnerConfig {
    fn default() -> Self {
        InnerConfig {
            stages: vec![8.0, 32.0, 128.0],
            iters_per_stage: 40,
            exact_iters: 20,
            rel_tol: 1e-9,
        }
    }
}

/// One proximal (consensus) term of a block subproblem:
/// `(rho/2) * (x[sub] - target)^2` with `target = z_v - u_v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsensusTerm {
    /// Variable index in the *sub-MDG*'s node space.
    pub sub: usize,
    /// Proximal target `z - u`.
    pub target: f64,
}

/// Where a block's compiled objective waits between two solves of the
/// block: [`solve_block_job`] takes what it finds here, re-attaches it to
/// the job's graph if it was compiled for that shape (else it compiles),
/// and puts the objective back when it is done; the consensus loop moves
/// the slot from a round's job into the next round's. One slot per job,
/// checked on every use, and an empty or unfitting one costs a build —
/// nothing to size or evict. It is no part of the job's value: a clone
/// starts empty, and the solution is the same bit for bit whatever it
/// holds.
#[derive(Default)]
pub struct TapeSlot(Mutex<Option<DetachedObjective>>);

impl Clone for TapeSlot {
    fn clone(&self) -> Self {
        TapeSlot::default()
    }
}

impl std::fmt::Debug for TapeSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if plock(&self.0).is_some() { "TapeSlot(filled)" } else { "TapeSlot(empty)" })
    }
}

/// A self-contained block subproblem: everything a solver thread needs to
/// run the x-update. Solving it is a pure function of this value, which
/// is what makes the whole solve deterministic across thread counts.
#[derive(Debug, Clone)]
pub struct BlockJob {
    /// The block's sub-MDG (home + ghost + virtual nodes).
    pub graph: Mdg,
    /// The full machine (processor count and transfer constants are the
    /// global ones; `A_p`'s `1/p` must match the global scaling).
    pub machine: Machine,
    /// Constant added to the sub-MDG's `A_p` so the block's area model
    /// equals the global `A_p` at the consensus point.
    pub area_off: f64,
    /// Current ADMM penalty weight.
    pub rho: f64,
    /// Start iterate in sub-MDG node space (virtuals and START/STOP 0).
    pub x0: Vec<f64>,
    /// Sub-MDG indices of the free variables (home + ghost nodes);
    /// everything else stays pinned at `x0`.
    pub free: Vec<usize>,
    /// Proximal terms for the block's consensus variables.
    pub cons: Vec<ConsensusTerm>,
    /// Inner solver configuration.
    pub inner: InnerConfig,
    /// The block's compiled objective from its previous solve, if any.
    pub tape: TapeSlot,
}

/// Result of one block x-update.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSolution {
    /// Final iterate in sub-MDG node space.
    pub x: Vec<f64>,
    /// Inner gradient iterations spent.
    pub iters: usize,
    /// Final block-model `Phi` (smoothed-exact, without the penalty).
    pub phi_model: f64,
    /// What this solve added to the workspace's counters: its sweeps,
    /// and its build, if it had to compile.
    pub counts: SweepCounts,
}

/// Index maps the coordinator keeps per block (no part of the job).
#[derive(Debug, Clone)]
pub struct BlockMaps {
    /// Sub-MDG node id per global node id (`usize::MAX` when the global
    /// node is not in this block's sub-MDG).
    pub sub_of: Vec<usize>,
    /// Global consensus node per entry of `BlockJob::cons` (same order).
    pub cons_global: Vec<NodeId>,
}

/// Frozen transfer cost a single excluded edge contributes to one
/// endpoint's `T`, replicating the objective's send/receive terms
/// (`node_tree` in the solver's `objective.rs`) at fixed processor
/// counts. `sender` picks the `t^S` (source) or `t^R` (destination)
/// side; `p_self` / `p_other` are the endpoint processor counts at the
/// consensus point.
fn frozen_edge_cost(
    machine: &Machine,
    transfers: &[paradigm_mdg::ArrayTransfer],
    sender: bool,
    p_self: f64,
    p_other: f64,
) -> f64 {
    let x = &machine.xfer;
    let mut acc = 0.0;
    for t in transfers {
        let l = t.bytes as f64;
        acc += match (t.kind, sender) {
            (TransferKind::OneD, true) => {
                (x.t_ss).max(x.t_ss * p_other / p_self) + l * x.t_ps / p_self
            }
            (TransferKind::OneD, false) => {
                (x.t_sr).max(x.t_sr * p_other / p_self) + l * x.t_pr / p_self
            }
            (TransferKind::TwoD, true) => x.t_ss * p_other + l * x.t_ps / p_self,
            (TransferKind::TwoD, false) => x.t_sr * p_other + l * x.t_pr / p_self,
        };
    }
    acc
}

/// Fold a non-negative constant into Amdahl parameters so the adjusted
/// cost satisfies `T'(q) = T(q) + corr` for *every* `q`: the serial part
/// absorbs the constant (`alpha' tau' = alpha tau + corr`) while the
/// parallel part is preserved (`(1 - alpha') tau' = (1 - alpha) tau`).
fn fold_constant(cost: AmdahlParams, corr: f64) -> AmdahlParams {
    if corr <= 0.0 {
        return cost;
    }
    let tau = cost.tau + corr;
    let alpha = ((cost.alpha * cost.tau + corr) / tau).clamp(0.0, 1.0);
    AmdahlParams::new(alpha, tau)
}

/// Build block `b`'s subproblem at the consensus point `x` (a full
/// global-node-indexed vector; boundary entries are the current `z`).
/// `dual` maps this block's consensus nodes to their scaled duals `u`.
#[allow(clippy::too_many_arguments)]
pub fn build_block_problem(
    g: &Mdg,
    machine: &Machine,
    part: &Partition,
    b: usize,
    sw: &GlobalSweeps,
    x: &[f64],
    dual: &std::collections::BTreeMap<NodeId, f64>,
    rho: f64,
    inner: &InnerConfig,
) -> (BlockJob, BlockMaps) {
    let n = g.node_count();
    let mut in_sub = vec![false; n];
    let mut is_home = vec![false; n];
    for &v in &part.members[b] {
        in_sub[v.0] = true;
        is_home[v.0] = true;
    }
    // Ghosts: opposite endpoints of this block's cut edges.
    for &e in &part.cut_edges {
        let edge = g.edge(e);
        if part.block_of[edge.src] == b {
            in_sub[edge.dst] = true;
        } else if part.block_of[edge.dst] == b {
            in_sub[edge.src] = true;
        }
    }
    let real: Vec<NodeId> = (0..n).filter(|&i| in_sub[i]).map(NodeId).collect();

    // An edge belongs to the sub-MDG iff it touches a home node (both
    // endpoints are then in the sub by construction). Ghost-ghost and
    // ghost-outside edges are frozen into ent/exit/corr instead.
    let included =
        |src: usize, dst: usize| in_sub[src] && in_sub[dst] && (is_home[src] || is_home[dst]);

    // Frozen entry/exit offsets and ghost corrections.
    let mut ent = vec![0.0_f64; n];
    let mut exit = vec![0.0_f64; n];
    let mut corr = vec![0.0_f64; n];
    for &v in &real {
        let p_self = x[v.0].exp();
        for &e in g.in_edges(v) {
            let edge = g.edge(e);
            if g.node(NodeId(edge.src)).is_structural() || included(edge.src, edge.dst) {
                continue;
            }
            ent[v.0] = ent[v.0].max(sw.y[edge.src] + sw.d[e.0]);
            corr[v.0] +=
                frozen_edge_cost(machine, &edge.transfers, false, p_self, x[edge.src].exp());
        }
        for &e in g.out_edges(v) {
            let edge = g.edge(e);
            if g.node(NodeId(edge.dst)).is_structural() || included(edge.src, edge.dst) {
                continue;
            }
            exit[v.0] = exit[v.0].max(sw.d[e.0] + sw.down[edge.dst]);
            corr[v.0] +=
                frozen_edge_cost(machine, &edge.transfers, true, p_self, x[edge.dst].exp());
        }
    }

    // Bypass: longest START->STOP path through nodes outside the sub.
    let mut y_out = vec![0.0_f64; n];
    for &v in g.topo_order() {
        if in_sub[v.0] {
            continue;
        }
        let mut start = 0.0_f64;
        for &e in g.in_edges(v) {
            let edge = g.edge(e);
            if !in_sub[edge.src] {
                start = start.max(y_out[edge.src] + sw.d[e.0]);
            }
        }
        y_out[v.0] = start + sw.t[v.0];
    }
    let c_base = y_out[g.stop().0];

    // Assemble the sub-MDG: real nodes in ascending global id, then the
    // virtuals. Builder ids shift by +1 in the finished graph.
    let mut bld = MdgBuilder::new(format!("{}::block{}", g.name(), b));
    let mut sub_of = vec![usize::MAX; n];
    for &v in &real {
        let node = g.node(v);
        let cost = if is_home[v.0] { node.cost } else { fold_constant(node.cost, corr[v.0]) };
        let bid = bld.compute_with_meta(node.name.clone(), cost, node.meta.clone());
        sub_of[v.0] = bid.0 + 1;
    }
    let mut virt_tau = 0.0_f64; // total constant area the virtuals add
    for (_, edge) in g.edges() {
        if included(edge.src, edge.dst) {
            bld.edge(
                NodeId(sub_of[edge.src] - 1),
                NodeId(sub_of[edge.dst] - 1),
                edge.transfers.clone(),
            );
        }
    }
    for &v in &real {
        if ent[v.0] > 0.0 {
            let evid = bld.compute(format!("ENT@{}", v.0), AmdahlParams::new(1.0, ent[v.0]));
            bld.edge(evid, NodeId(sub_of[v.0] - 1), Vec::new());
            virt_tau += ent[v.0];
        }
        if exit[v.0] > 0.0 {
            let xvid = bld.compute(format!("EXT@{}", v.0), AmdahlParams::new(1.0, exit[v.0]));
            bld.edge(NodeId(sub_of[v.0] - 1), xvid, Vec::new());
            virt_tau += exit[v.0];
        }
    }
    if c_base > 0.0 {
        bld.compute("CB", AmdahlParams::new(1.0, c_base));
        virt_tau += c_base;
    }
    let sub_g = bld.finish().expect("block sub-MDG construction cannot fail");

    // Area offset: the sub model's A_p at x0 is (1/p)(sum of real-node
    // global T * p + virtual taus at p = 1); the offset restores the
    // global A_p. Ghost corrections make adjusted real T equal global T
    // at the consensus point, so global sweep values suffice here.
    let inv_p = 1.0 / machine.procs as f64;
    let a_sub0 = inv_p * (real.iter().map(|&v| sw.t[v.0] * x[v.0].exp()).sum::<f64>() + virt_tau);
    let area_off = sw.a_p - a_sub0;

    // Start iterate, free set, consensus terms.
    let mut x0 = vec![0.0_f64; sub_g.node_count()];
    let mut free = Vec::with_capacity(real.len());
    let mut cons = Vec::new();
    let mut cons_global = Vec::new();
    for &v in &real {
        let si = sub_of[v.0];
        x0[si] = x[v.0];
        free.push(si);
        if part.is_boundary(v) {
            let u = dual.get(&v).copied().unwrap_or(0.0);
            cons.push(ConsensusTerm { sub: si, target: x[v.0] - u });
            cons_global.push(v);
        }
    }

    (
        BlockJob {
            graph: sub_g,
            machine: *machine,
            area_off,
            rho,
            x0,
            free,
            cons,
            inner: inner.clone(),
            tape: TapeSlot::default(),
        },
        BlockMaps { sub_of, cons_global },
    )
}

/// The penalised block model `smax(area_off + A_p, C_p) + (rho/2) sum
/// (x_i - target_i)^2` on the scalar tape, as a [`DescentModel`]. With
/// `area_off = 0` and no consensus terms it is the global objective —
/// what the coordinator's polish and finishing stage descend.
pub(crate) struct BlockModel<'a, 'g> {
    obj: &'a MdgObjective<'g>,
    /// Sharpness of the current stage.
    pub(crate) sharp: Sharpness,
    area_off: f64,
    rho: f64,
    cons: &'a [ConsensusTerm],
    free: &'a [usize],
    scratch: &'a mut EvalScratch,
    /// The objective's gradient over every sub variable, of which the
    /// stage sees the free entries.
    grad_all: &'a mut Vec<f64>,
    /// `(Phi, w_a, w_c)` of the model at the last probed point.
    probed: (f64, f64, f64),
    /// Model `Phi` (without the penalty) at the last replayed point, i.e.
    /// at the current iterate: a rejected probe never reaches it.
    pub(crate) phi: f64,
}

impl<'a, 'g> BlockModel<'a, 'g> {
    /// The model of `obj` shifted by `area_off` and penalised by `rho`
    /// over `cons`, its gradient restricted to `free`; sweeps on the
    /// scratch and gradient buffer of a [`SolverWorkspace::split`].
    pub(crate) fn new(
        obj: &'a MdgObjective<'g>,
        (area_off, rho, cons): (f64, f64, &'a [ConsensusTerm]),
        free: &'a [usize],
        scratch: &'a mut EvalScratch,
        grad_all: &'a mut Vec<f64>,
    ) -> Self {
        BlockModel {
            obj,
            sharp: Sharpness::Exact,
            area_off,
            rho,
            cons,
            free,
            scratch,
            grad_all,
            probed: (f64::INFINITY, 0.0, 0.0),
            phi: f64::INFINITY,
        }
    }
}

impl DescentModel for BlockModel<'_, '_> {
    fn probe(&mut self, x: &[f64]) -> f64 {
        let parts = self.obj.forward_record(x, self.sharp, self.scratch);
        let a = (self.area_off + parts.a_p).max(0.0);
        self.probed = smax_pair_weights(a, parts.c_p, self.sharp);
        let mut f = self.probed.0;
        for c in self.cons {
            let diff = x[c.sub] - c.target;
            f += 0.5 * self.rho * diff * diff;
        }
        f
    }

    // One replay of the tape the last probe left behind — never a second
    // sweep of the point — seeded with the weights the probe's `smax` put
    // on `A_p` and `C_p`: `w_a·∇A_p + w_c·∇C_p` in a single pass.
    fn replay(&mut self, x: &[f64], grad: &mut Vec<f64>) {
        let (phi, wa, wc) = self.probed;
        self.phi = phi;
        self.obj.backward_replay(wc, wa, self.scratch, self.grad_all);
        grad.clear();
        grad.resize(x.len(), 0.0);
        for &j in self.free {
            grad[j] = self.grad_all[j];
        }
        for c in self.cons {
            grad[c.sub] += self.rho * (x[c.sub] - c.target);
        }
    }

    fn counts(&mut self) -> &mut SweepCounts {
        &mut self.scratch.counts
    }
}

/// The stop rule of a block stage (and of the coordinator's finishing
/// stage): the accepted step gained less than `rel_tol` of the value and
/// moved no variable by 1e-10.
pub(crate) fn stage_stop(rel_tol: f64) -> impl Fn(f64, f64, f64) -> bool {
    move |improve, f, moved| improve <= rel_tol * f.abs() && moved < 1e-10
}

/// Solve one block subproblem: the shared projected-gradient stage
/// ([`paradigm_solver::descent`]) on the block's penalised model over the box
/// `[0, ln p]`, moving only the free variables, one stage per smoothing
/// level and a final exact one, each from step 0.25. A pure function of
/// `job` — no randomness, no time-dependence — so every backend produces
/// the identical result, and a job whose annealing parameters
/// [`check_annealing`] refuses, or whose indices, targets, penalty or
/// start do not fit its graph, is an `Err` on every backend, before
/// anything is compiled or swept.
///
/// The objective is the one in the job's [`TapeSlot`] when that fits
/// (counted in [`SweepCounts::tape_builds`] when it has to be compiled
/// instead) and goes back into the slot afterwards. The stage's buffers
/// are the workspace's; per call only a build and the returned iterate
/// allocate.
pub fn solve_block_job(job: &BlockJob, ws: &mut SolverWorkspace) -> Result<BlockSolution, String> {
    check_annealing(&job.inner.stages, job.inner.rel_tol)?;
    let n = job.graph.node_count();
    if let Some(&i) = job.free.iter().find(|&&i| i >= n) {
        return Err(format!("free index {i} out of range for {n} sub variables"));
    }
    for c in &job.cons {
        if c.sub >= n {
            return Err(format!("consensus index {} out of range", c.sub));
        }
        if !c.target.is_finite() {
            return Err(format!("non-finite consensus target for sub variable {}", c.sub));
        }
    }
    if !(job.rho.is_finite() && job.rho >= 0.0) {
        return Err(format!("invalid rho {}", job.rho));
    }
    if job.x0.len() != n {
        return Err(format!("x0 length {} != {} sub variables", job.x0.len(), n));
    }

    let (scratch, grad_all, descent) = ws.split();
    let before = scratch.counts;
    let carried = plock(&job.tape.0).take();
    let obj = match carried.and_then(|tape| tape.attach(&job.graph, job.machine)) {
        Some(obj) => obj,
        None => {
            let built = MdgObjective::try_new(&job.graph, job.machine)?;
            scratch.counts.tape_builds += 1;
            built
        }
    };
    let ub = obj.x_upper();
    let mut x: Vec<f64> = job.x0.clone();
    for &i in &job.free {
        x[i] = x[i].clamp(0.0, ub);
    }
    let mut model =
        BlockModel::new(&obj, (job.area_off, job.rho, &job.cons), &job.free, scratch, grad_all);
    descent.load(&x);
    let mut iters = 0usize;
    let smooth =
        job.inner.stages.iter().map(|&s| (Sharpness::Smooth(s), job.inner.iters_per_stage));
    for (sharp, max_iters) in smooth.chain([(Sharpness::Exact, job.inner.exact_iters)]) {
        model.sharp = sharp;
        descent.reset();
        // Plain projected gradient: the round dynamics are tuned to these
        // inexact x-updates (DESIGN.md §13).
        let stage = Stage {
            free: Some(&job.free),
            ub,
            max_iters,
            max_probes: 40,
            memory: 0,
            gtol: 0.0,
            certify: false,
        };
        iters += descend(&mut model, descent, &stage, stage_stop(job.inner.rel_tol));
    }
    x.copy_from_slice(descent.x());
    let phi_model = model.phi;
    let counts = model.scratch.counts.since(before);
    *plock(&job.tape.0) = Some(obj.detach());
    if !phi_model.is_finite() {
        return Err(format!("block solve produced non-finite model Phi {phi_model}"));
    }
    Ok(BlockSolution { x, iters, phi_model, counts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition_mdg, PartitionOptions};
    use paradigm_mdg::fork_join_mdg;

    /// The two block jobs of a small fork-join frozen at `x = 0.5`.
    fn two_jobs() -> Vec<BlockJob> {
        let g = fork_join_mdg(2, 3, 2);
        let machine = Machine::cm5(8);
        let obj = MdgObjective::new(&g, machine);
        let part = partition_mdg(&g, &PartitionOptions::with_blocks(&g, 2));
        let x = vec![0.5_f64; g.node_count()];
        let sw = global_sweeps(&obj, &x);
        let dual = std::collections::BTreeMap::new();
        let inner = InnerConfig::default();
        let job = |b| build_block_problem(&g, &machine, &part, b, &sw, &x, &dual, 0.7, &inner).0;
        vec![job(0), job(1)]
    }

    #[test]
    fn bad_annealing_parameters_are_refused_before_any_sweep() {
        let job = two_jobs().remove(0);
        let n = job.graph.node_count();
        let inner = &job.inner;
        let mut bw = SolverWorkspace::new();
        for (stages, rel_tol) in
            [(vec![8.0, 0.5], 1e-9), (vec![0.0], 1e-9), (vec![-4.0], 1e-9), (vec![8.0], -1.0)]
        {
            let bad =
                BlockJob { inner: InnerConfig { stages, rel_tol, ..inner.clone() }, ..job.clone() };
            let err = solve_block_job(&bad, &mut bw).expect_err("refused");
            assert!(err.contains("must be finite and >="), "{err}");
        }
        let target = |target: f64| vec![ConsensusTerm { sub: job.free[0], target }];
        for (bad, complaint) in [
            (BlockJob { free: vec![job.free[0], n], ..job.clone() }, "free index"),
            (
                BlockJob { cons: vec![ConsensusTerm { sub: n, target: 0.0 }], ..job.clone() },
                "consensus index",
            ),
            (BlockJob { cons: target(f64::NAN), ..job.clone() }, "non-finite consensus target"),
            (
                BlockJob { cons: target(f64::INFINITY), ..job.clone() },
                "non-finite consensus target",
            ),
            (BlockJob { rho: -1.0, ..job.clone() }, "invalid rho"),
            (BlockJob { rho: f64::NAN, ..job.clone() }, "invalid rho"),
            (BlockJob { x0: vec![0.0; n + 1], ..job.clone() }, "x0 length"),
        ] {
            let err = solve_block_job(&bad, &mut bw).expect_err("refused");
            assert!(err.contains(complaint), "{complaint}: {err}");
        }
        assert_eq!(bw.scratch.counts, SweepCounts::default(), "nothing built, nothing swept");
        assert!(solve_block_job(&job, &mut bw).is_ok());
        assert_eq!(bw.scratch.counts.tape_builds, 1);
    }

    /// The slot is no part of the job's value: empty, filled by the
    /// block's own previous solve, or filled with another block's tape —
    /// which `attach` refuses, so the solve builds — the solution is the
    /// same, and the slot ends up holding this block's tape.
    #[test]
    fn the_solution_does_not_depend_on_what_the_slot_holds() {
        let mut jobs = two_jobs();
        let mut bw = SolverWorkspace::new();
        let builds = |bw: &SolverWorkspace| bw.scratch.counts.tape_builds;
        assert_eq!(format!("{:?}", jobs[0].tape), "TapeSlot(empty)");
        let cold = solve_block_job(&jobs[0], &mut bw).expect("empty slot");
        assert_eq!(format!("{:?}", jobs[0].tape), "TapeSlot(filled)");
        assert_eq!(
            format!("{:?}", jobs[0].clone().tape),
            "TapeSlot(empty)",
            "a clone starts empty"
        );
        assert_eq!(builds(&bw), 1);
        let carried = solve_block_job(&jobs[0], &mut bw).expect("own tape");
        assert_eq!(builds(&bw), 1, "the block's own tape is attached, not rebuilt");
        solve_block_job(&jobs[1], &mut bw).expect("other block");
        assert_eq!(builds(&bw), 2);
        jobs[0].tape = std::mem::take(&mut jobs[1].tape);
        let foreign = solve_block_job(&jobs[0], &mut bw).expect("another block's tape");
        assert_eq!(builds(&bw), 3, "a tape of another shape is refused and costs a build");
        let again = solve_block_job(&jobs[0], &mut bw).expect("own tape again");
        assert_eq!(builds(&bw), 3);
        for other in [&carried, &foreign, &again] {
            assert_eq!(other.iters, cold.iters);
            assert_eq!(other.phi_model.to_bits(), cold.phi_model.to_bits());
            let bits = |s: &BlockSolution| s.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(other), bits(&cold));
        }
    }
}
