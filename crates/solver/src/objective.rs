//! Assembles the allocation objective `Phi = max(A_p, C_p)` for an
//! (MDG, machine) pair as generalized posynomial expressions over the
//! log-allocation variables `x_i = ln p_i` (one variable per MDG node;
//! START/STOP variables never appear in any term because structural edges
//! carry no data).
//!
//! The objective holds these expressions only as its level program
//! ([`crate::compiled`]), one root per node and per edge: the compile
//! asks for one tree at a time and drops it once placed. The trees
//! ([`MdgObjective::node_expr`] and the like) are built on request, for
//! the certifier, the cert JSON and the forward-mode oracle.
//!
//! The network edge weight needs one care point: for 1D transfers the
//! exact cost is `L t_n / max(p_i, p_j)`, which is a *min* of monomials
//! and not log-convex. The objective substitutes the monomial upper bound
//! `L t_n / sqrt(p_i p_j)` (exact whenever `p_i = p_j`, conservative
//! otherwise). On the CM-5, `t_n = 0` and the substitution is vacuous —
//! every paper experiment is unaffected. Exactness is restored in the
//! final reported numbers because allocations are always re-scored with
//! `paradigm-cost`'s exact evaluator.
//!
//! What a compiled objective is valid for. Everything the build derives
//! from its inputs — the level program and its replay order — depends
//! on the machine's constants, on the DAG (edge endpoints and
//! transfers; adjacency and the topological order follow from the edge
//! list) and on *which* of each node's two processing-cost coefficients
//! `α·τ`, `(1−α)·τ` are zero (`Expr::sum` drops a zero term, so the zero
//! pattern is structure). The coefficients' *values* are the only thing
//! that is data. A caller that solves one graph again and again under
//! moving costs — the consensus tier re-freezes every block's boundary
//! into its ghost and virtual nodes each round — therefore builds once:
//! [`MdgObjective::detach`] gives up the graph borrow,
//! [`DetachedObjective::attach`] checks a graph against the shape the
//! build recorded and rewrites the two coefficients per node in the
//! program where the build recorded them, or refuses, and then the
//! caller builds. An attached objective is the built one to the bit
//! (`tests/tape_carry.rs`).

use crate::compiled::{smax_weights_fast, LevelProgram, TapeStats};
use crate::expr::{smax_pair_weights, smax_weights, Expr, Monomial, Sharpness};
use crate::workspace::{self, EvalScratch};
use paradigm_cost::{Allocation, Machine, MdgWeights, PhiBreakdown, TransferParams};
use paradigm_mdg::{AmdahlParams, ArrayTransfer, Edge, EdgeId, Mdg, NodeId, TransferKind};

/// The evaluated objective components at one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveParts {
    /// Smoothed `Phi`.
    pub phi: f64,
    /// Smoothed average finish time `A_p`.
    pub a_p: f64,
    /// Smoothed critical path time `C_p`.
    pub c_p: f64,
}

/// The objective for one (MDG, machine) pair.
pub struct MdgObjective<'g> {
    g: &'g Mdg,
    machine: Machine,
    /// The level program of every node's `T` and every edge's `t^D`,
    /// swept by every evaluation.
    tapes: Tapes,
    /// What the program was built for, besides `machine`.
    shape: Shape,
}

/// A compiled objective without its graph borrow: what
/// [`MdgObjective::detach`] leaves and [`DetachedObjective::attach`]
/// turns back into an objective for any graph of the same shape (module
/// docs).
#[derive(Debug)]
pub struct DetachedObjective {
    machine: Machine,
    tapes: Tapes,
    shape: Shape,
}

/// Cost site of a coefficient that is zero: `Expr::sum` dropped the
/// term, the monomial table has no entry for it.
const NO_SITE: u32 = u32::MAX;

/// The structure an objective was built for, recorded by the build.
#[derive(Debug)]
struct Shape {
    topo: Vec<NodeId>,
    /// Per edge: source, destination, and where its transfers end in
    /// `xfers` (they start where the previous edge's end).
    edges: Vec<(usize, usize, usize)>,
    xfers: Vec<ArrayTransfer>,
    /// Per node, the monomial-table entries of its `α·τ` and `(1−α)·τ`
    /// terms ([`NO_SITE`] where the coefficient is zero).
    cost_sites: Vec<[u32; 2]>,
}

impl Shape {
    fn of(g: &Mdg, prog: &LevelProgram) -> Shape {
        let mut xfers = Vec::new();
        let edges = g.edges().map(|(_, e)| {
            xfers.extend_from_slice(&e.transfers);
            (e.src, e.dst, xfers.len())
        });
        let edges = edges.collect();
        let cost_sites = g.nodes().map(|(id, node)| {
            // The cost terms open a node's sum, and the compile places a
            // root's monomials right to left: the k-th non-zero one is the
            // k-th from the end of the node's range.
            let mut end = prog.mono_range(id.0).end as u32;
            cost_coeffs(&node.cost).map(|c| {
                if c == 0.0 {
                    return NO_SITE;
                }
                end -= 1;
                end
            })
        });
        Shape { topo: g.topo_order().to_vec(), edges, xfers, cost_sites: cost_sites.collect() }
    }

    /// Whether `g` has the DAG this shape was recorded from. (The zero
    /// pattern of the costs is checked as they are rewritten.)
    fn fits(&self, g: &Mdg) -> bool {
        let mut lo = 0;
        g.topo_order() == self.topo
            && g.edge_count() == self.edges.len()
            && g.edges().zip(&self.edges).all(|((_, e), &(src, dst, hi))| {
                let same = e.src == src && e.dst == dst && e.transfers == self.xfers[lo..hi];
                lo = hi;
                same
            })
    }
}

/// The two processing-cost coefficients of `t^C = α·τ + (1−α)·τ / p`.
fn cost_coeffs(cost: &AmdahlParams) -> [f64; 2] {
    if cost.tau > 0.0 {
        [cost.alpha * cost.tau, (1.0 - cost.alpha) * cost.tau]
    } else {
        [0.0, 0.0]
    }
}

/// `T_v` of node `v` as an expression over `x`: its processing cost
/// terms first — where `Shape::of` looks for them — then the send or
/// receive cost of every transfer on its edges, in edge-id order.
/// (`in_edges` and `out_edges` are each ascending by edge id, and no
/// edge is in both.)
fn node_tree(g: &Mdg, xfer: &TransferParams, v: NodeId) -> Expr {
    let [serial, parallel] = cost_coeffs(&g.node(v).cost);
    let mut terms = Vec::new();
    if serial != 0.0 {
        terms.push(Expr::Mono(Monomial::constant(serial)));
    }
    if parallel != 0.0 {
        terms.push(Expr::Mono(Monomial::single(parallel, v.0, -1.0)));
    }
    let (mut ins, mut outs) = (g.in_edges(v).iter().peekable(), g.out_edges(v).iter().peekable());
    loop {
        let sender = match (ins.peek(), outs.peek()) {
            (None, None) => break,
            (Some(i), Some(o)) => o < i,
            (_, out) => out.is_some(),
        };
        let e = if sender { outs.next() } else { ins.next() };
        let edge = g.edge(*e.expect("peeked"));
        terms.extend(edge.transfers.iter().map(|t| transfer_cost(xfer, edge, t, sender)));
    }
    Expr::sum(terms)
}

/// What one transfer of `edge` adds to the `T` of its source (`sender`,
/// `t^S`) or destination (`t^R`), `me` being that endpoint and `other`
/// the opposite one: `max(p_i, p_j)/p_me · t_s + L/p_me · t_p` for a 1D
/// transfer, `p_other · t_s + L/p_me · t_p` for a 2D one.
fn transfer_cost(x: &TransferParams, edge: &Edge, t: &ArrayTransfer, sender: bool) -> Expr {
    let (me, other, t_s, t_p) = if sender {
        (edge.src, edge.dst, x.t_ss, x.t_ps)
    } else {
        (edge.dst, edge.src, x.t_sr, x.t_pr)
    };
    let startup = match t.kind {
        TransferKind::OneD => Expr::max(vec![
            Expr::Mono(Monomial::constant(t_s)),
            Expr::Mono(Monomial::pair(t_s, other, 1.0, me, -1.0)),
        ]),
        TransferKind::TwoD => Expr::Mono(Monomial::single(t_s, other, 1.0)),
    };
    Expr::sum(vec![startup, Expr::Mono(Monomial::single(t.bytes as f64 * t_p, me, -1.0))])
}

/// `t^D` of `edge`: zero when the machine's `t_n` is zero, else per
/// transfer `L t_n / (p_i p_j)` for 2D and, for 1D, the monomial upper
/// bound `L t_n / sqrt(p_i p_j)` of `L t_n / max(p_i, p_j)` (module docs).
fn edge_tree(x: &TransferParams, edge: &Edge) -> Expr {
    let terms = edge.transfers.iter().filter(|_| x.t_n > 0.0).map(|t| {
        let a = match t.kind {
            TransferKind::OneD => -0.5,
            TransferKind::TwoD => -1.0,
        };
        Expr::Mono(Monomial::pair(t.bytes as f64 * x.t_n, edge.src, a, edge.dst, a))
    });
    Expr::sum(terms.collect())
}

/// What no objective is built for or attached to: a machine without
/// processors or with invalid transfer constants, a node cost outside
/// `α ∈ [0, 1]`, `0 ≤ τ < ∞`.
fn check_inputs(g: &Mdg, machine: &Machine) -> Result<(), String> {
    if machine.procs == 0 {
        return Err("machine has zero processors".into());
    }
    machine.xfer.validate()?;
    for (_, node) in g.nodes() {
        let a = node.cost.alpha;
        let tau = node.cost.tau;
        if !a.is_finite() || !(0.0..=1.0).contains(&a) || !tau.is_finite() || tau < 0.0 {
            return Err(format!(
                "node `{}` has invalid cost (alpha = {a}, tau = {tau})",
                node.name
            ));
        }
    }
    Ok(())
}

/// The objective's one compiled program — node `T` expressions by node
/// id (root slot `v`), then edge `t^D` expressions by edge id (root slot
/// `nodes + e`) — plus what ties it to the DAG.
///
/// `A_p` is deliberately *not* compiled: as an expression it duplicates
/// every node term (each `T_i` scaled by `p_i/p`), doubling the op count
/// of both sweeps. The evaluation paths instead accumulate
/// `A_p = (1/p) Σ T_i e^{x_i}` from the node values they already
/// computed, and the backward pass folds the product rule into the node
/// seeds (see [`MdgObjective::backward_replay`]).
#[derive(Debug)]
struct Tapes {
    prog: LevelProgram,
    /// Per position of the reverse topological order, where the
    /// monomials of that node's expression and of its in-edges'
    /// expressions end in the program's accumulation order (they start
    /// where the previous position's end).
    replay_ends: Vec<usize>,
    /// Largest in-degree (sizes the candidate staging of the DAG
    /// recurrence).
    max_in: usize,
}

impl Tapes {
    fn build(g: &Mdg, machine: &Machine) -> Tapes {
        let (n, x) = (g.node_count(), &machine.xfer);
        // The expressions in the order the backward sweep reaches them —
        // per node in reverse topological order, its own, then its
        // in-edges' — each built as the compile asks for it.
        let roots = g.topo_order().iter().rev().flat_map(|&v| {
            let edges = g.in_edges(v).iter().map(move |&e| (n + e.0, edge_tree(x, g.edge(e))));
            std::iter::once((v.0, node_tree(g, x, v))).chain(edges)
        });
        let prog = LevelProgram::compile(n, n + g.edge_count(), roots);
        let max_in = g.topo_order().iter().map(|&v| g.in_edges(v).len()).max().unwrap_or(0);
        let ends = g.topo_order().iter().rev();
        let replay_ends = ends
            .map(|&v| prog.mono_range(g.in_edges(v).last().map_or(v.0, |e| n + e.0)).end)
            .collect();
        Tapes { prog, replay_ends, max_in }
    }
}

impl<'g> MdgObjective<'g> {
    /// Fallible [`MdgObjective::new`]: validates the machine and every
    /// node cost *before* building monomials, so degenerate inputs
    /// (non-finite `tau`, out-of-range `alpha`, bad transfer constants)
    /// become an `Err` instead of a constructor panic.
    pub fn try_new(g: &'g Mdg, machine: Machine) -> Result<Self, String> {
        check_inputs(g, &machine)?;
        Ok(Self::new(g, machine))
    }

    /// Compile the objective: `O(nodes + edges)` monomials, one
    /// expression tree alive at a time.
    pub fn new(g: &'g Mdg, machine: Machine) -> Self {
        let tapes = Tapes::build(g, &machine);
        let shape = Shape::of(g, &tapes.prog);
        MdgObjective { g, machine, tapes, shape }
    }

    /// Give up the graph borrow and keep everything that was compiled.
    pub fn detach(self) -> DetachedObjective {
        let MdgObjective { machine, tapes, shape, .. } = self;
        DetachedObjective { machine, tapes, shape }
    }

    /// The graph this objective was built for.
    pub fn graph(&self) -> &Mdg {
        self.g
    }

    /// The machine this objective was built for.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Number of log-variables (== node count).
    pub fn num_vars(&self) -> usize {
        self.g.node_count()
    }

    /// Upper bound for every variable: `ln p`.
    pub fn x_upper(&self) -> f64 {
        (self.machine.procs as f64).ln()
    }

    /// The `T_i` expression of a node, built on each call from the graph
    /// and machine — the tree the program's root `id` was compiled from
    /// (for certification, the cert JSON and the forward-mode oracle).
    pub fn node_expr(&self, id: NodeId) -> Expr {
        node_tree(self.g, &self.machine.xfer, id)
    }

    /// The `t^D` expression of an edge (zero when the machine's `t_n` is
    /// zero or the edge carries no data), built on each call like
    /// [`MdgObjective::node_expr`]; root `nodes + id` of the program.
    pub fn edge_expr(&self, id: EdgeId) -> Expr {
        edge_tree(&self.machine.xfer, self.g.edge(id))
    }

    /// The `A_p = (1/p) Σ T_i p_i` expression (for symbolic
    /// certification and the forward-mode oracle), built on each call.
    /// The program does not compile it: the sweeps accumulate `A_p` from
    /// the node roots.
    pub fn area_expr(&self) -> Expr {
        let inv_p = 1.0 / self.machine.procs as f64;
        let scaled = self
            .g
            .nodes()
            .map(|(id, _)| self.node_expr(id).mul_mono(&Monomial::single(inv_p, id.0, 1.0)));
        Expr::sum(scaled.collect())
    }

    /// Shape of the compiled level program: op counts by kind, levels,
    /// slots, and the distinct exponent vectors an exact sweep calls
    /// `exp` on.
    pub fn tape_stats(&self) -> TapeStats {
        self.tapes.prog.stats()
    }

    /// Evaluate `Phi` (and parts) at `x` with the given sharpness, without
    /// gradients. Convenience wrapper over [`MdgObjective::eval_with`]
    /// using a pooled workspace; hot loops should hold their own.
    pub fn eval(&self, x: &[f64], sharp: Sharpness) -> ObjectiveParts {
        let mut ws = workspace::acquire();
        self.eval_with(x, sharp, &mut ws.scratch)
    }

    /// Allocation-free [`MdgObjective::eval`] for gradient-free callers:
    /// the sweep of [`MdgObjective::forward_record`] — one set of
    /// kernels, so the values agree bitwise — that promises no tape:
    /// whatever `scratch` recorded stops being replayable.
    pub fn eval_with(
        &self,
        x: &[f64],
        sharp: Sharpness,
        scratch: &mut EvalScratch,
    ) -> ObjectiveParts {
        let parts = self.forward_record(x, sharp, scratch);
        scratch.recorded = false;
        parts
    }

    /// Evaluate `Phi` and its gradient w.r.t. `x`. Convenience wrapper
    /// over [`MdgObjective::eval_grad_with`] using a pooled workspace
    /// and a freshly allocated gradient vector.
    pub fn eval_grad(&self, x: &[f64], sharp: Sharpness) -> (ObjectiveParts, Vec<f64>) {
        let mut ws = workspace::acquire();
        let mut grad = Vec::new();
        let parts = self.eval_grad_with(x, sharp, &mut ws.scratch, &mut grad);
        (parts, grad)
    }

    /// Reverse-mode `Phi` gradient: one [`MdgObjective::forward_record`]
    /// then one [`MdgObjective::backward_replay_phi`] pushing a single
    /// dense adjoint of size `n` through the DAG — `O(E + Σ posynomial
    /// terms)` time with `O(n + E)` scratch, versus the forward-mode
    /// reference's `O(E·n)` with a dense vector per node. For stage
    /// starts and outside callers; a descent loop whose line search
    /// already recorded the accepted point replays instead.
    ///
    /// `grad` is resized to `n` and overwritten. Allocation-free after
    /// warm-up (given a warm `scratch` and an `n`-capacity `grad`).
    pub fn eval_grad_with(
        &self,
        x: &[f64],
        sharp: Sharpness,
        scratch: &mut EvalScratch,
        grad: &mut Vec<f64>,
    ) -> ObjectiveParts {
        let parts = self.forward_record(x, sharp, scratch);
        self.backward_replay_phi(scratch, grad);
        parts
    }

    /// Like [`MdgObjective::eval_grad`], but returns the gradients of
    /// `A_p` and `C_p` separately (needed for the minimax stationarity
    /// test in [`crate::solve::optimality_residual`], where the correct
    /// multiplier between the two active pieces is unknown a priori).
    pub fn eval_grad_parts(
        &self,
        x: &[f64],
        sharp: Sharpness,
    ) -> (ObjectiveParts, Vec<f64>, Vec<f64>) {
        let mut ws = workspace::acquire();
        let mut grad_a = Vec::new();
        let mut grad_c = Vec::new();
        let parts = self.eval_grad_parts_with(x, sharp, &mut ws.scratch, &mut grad_a, &mut grad_c);
        (parts, grad_a, grad_c)
    }

    /// Allocation-free [`MdgObjective::eval_grad_parts`]: one recording
    /// sweep, then one replay each for the `A_p` and `C_p` gradients
    /// (seeded with weight 1 instead of the `Phi` smax weights).
    pub fn eval_grad_parts_with(
        &self,
        x: &[f64],
        sharp: Sharpness,
        scratch: &mut EvalScratch,
        grad_a: &mut Vec<f64>,
        grad_c: &mut Vec<f64>,
    ) -> ObjectiveParts {
        let parts = self.forward_record(x, sharp, scratch);
        self.backward_replay(0.0, 1.0, scratch, grad_a);
        self.backward_replay(1.0, 0.0, scratch, grad_c);
        parts
    }

    /// The repo benchmark's `solver.eval_grad_batch8_us` probe
    /// (`benchmark/src/layers.rs`) and nobody else's: what is left of the
    /// lane executor's entry point until a `benchmark`-only PR drops the
    /// probe. The `k` lane-major points (`xs[j*k + l]` is variable `j` of
    /// point `l`) go one after another through
    /// [`MdgObjective::eval_grad_with`]; `grads` comes back lane-major.
    #[doc(hidden)]
    pub fn eval_grad_batch_with(
        &self,
        xs: &[f64],
        k: usize,
        sharp: Sharpness,
        scratch: &mut EvalScratch,
        grads: &mut Vec<f64>,
        parts: &mut [ObjectiveParts],
    ) {
        let n = self.num_vars();
        grads.clear();
        grads.resize(n * k, 0.0);
        let (mut x, mut grad) = (vec![0.0; n], Vec::new());
        for (l, part) in parts.iter_mut().enumerate().take(k) {
            for (j, xj) in x.iter_mut().enumerate() {
                *xj = xs[j * k + l];
            }
            *part = self.eval_grad_with(&x, sharp, scratch, &mut grad);
            for (j, &gj) in grad.iter().enumerate() {
                grads[j * k + l] = gj;
            }
        }
    }

    /// Recording forward sweep — the first half of the record/replay
    /// pair every gradient is made of. Fills `scratch.y` with per-node
    /// finish times, `scratch.tape_w` with the `smax` weight of every
    /// in-edge candidate (each edge is an in-edge of exactly one node,
    /// so edge id indexes the tape collision-free) and the expression
    /// tapes, and keeps the `Phi` combination weights for
    /// [`MdgObjective::backward_replay_phi`].
    ///
    /// The values are bit-identical to [`MdgObjective::eval_with`]'s, so
    /// a line search can score its trial points with this sweep and, on
    /// acceptance, take the gradient at the trial as a replay of the
    /// tape the last probe left behind instead of sweeping the same
    /// point again.
    pub fn forward_record(
        &self,
        x: &[f64],
        sharp: Sharpness,
        scratch: &mut EvalScratch,
    ) -> ObjectiveParts {
        scratch.recorded = false;
        scratch.counts.forward_sweeps += 1;
        let n = self.g.node_count();
        let t = &self.tapes;
        scratch.ensure(n, self.g.edge_count(), t.max_in);
        t.prog.forward(x, sharp, scratch);
        let EvalScratch { y, tape_w, stack, tape_vals, var_cache, .. } = scratch;
        let e_x = var_cache.e();
        let inv_p = 1.0 / self.machine.procs as f64;
        // DAG recurrence for C_p over the expression values the program
        // left in the root slots, accumulating A_p = (1/p) Σ T_v e^{x_v}
        // from the same node values.
        let mut area_acc = 0.0;
        for &v in self.g.topo_order() {
            let in_edges = self.g.in_edges(v);
            let k = in_edges.len();
            let (cands, wts) = stack[..2 * k].split_at_mut(k);
            for (c, &e) in cands.iter_mut().zip(in_edges) {
                *c = y[self.g.edge(e).src] + tape_vals[n + e.0];
            }
            let start = smax_weights_fast(cands, sharp, wts);
            for (&w, &e) in wts.iter().zip(in_edges) {
                tape_w[e.0] = w;
            }
            let tv = tape_vals[v.0];
            area_acc += tv * e_x[v.0];
            y[v.0] = start + tv;
        }
        let a_p = inv_p * area_acc;
        let c_p = y[self.g.stop().0];
        let (phi, w_a, w_c) = smax_pair_weights(a_p, c_p, sharp);
        scratch.phi_seeds = (w_c, w_a);
        scratch.recorded = true;
        ObjectiveParts { phi, a_p, c_p }
    }

    /// [`MdgObjective::backward_replay`] seeded with the `Phi`
    /// combination weights of the recorded point: the `Phi` gradient.
    pub fn backward_replay_phi(&self, scratch: &mut EvalScratch, grad: &mut Vec<f64>) {
        let (c_seed, area_seed) = scratch.phi_seeds;
        self.backward_replay(c_seed, area_seed, scratch, grad);
    }

    /// Backward replay of the tape the last
    /// [`MdgObjective::forward_record`] left on `scratch`: seed the STOP
    /// node's adjoint with `c_seed` (`∂Φ/∂C_p`, or 1 for a raw `C_p`
    /// gradient), walk the topological order in reverse, and for each
    /// node with a non-zero adjoint `a_v` accumulate `a_v·∇T_v` plus,
    /// per in-edge with tape weight `w_e`, `a_v·w_e·∇d_e` into `grad`
    /// and `a_v·w_e` into the source's adjoint. `grad` is resized to `n`
    /// and overwritten; the tape is left intact, so one recorded point
    /// can be replayed under several seeds.
    ///
    /// The `A_p` gradient rides the same pass: with
    /// `A_p = (1/p) Σ T_v e^{x_v}`, each node tape gets the extra seed
    /// `area_seed·e^{x_v}/p` (its `∂A_p/∂T_v`) folded into its single
    /// replay, and the product-rule term `area_seed·T_v·e^{x_v}/p` goes
    /// straight into `grad[v]`. Pure tape replay either way: every
    /// monomial value and `max` weight was recorded by the forward
    /// sweep, so this pass performs no `exp`/`powf` at all.
    ///
    /// # Panics
    /// If the tape on `scratch` is not that of the last sweep run on it
    /// — nothing was recorded yet, or a value-only
    /// [`MdgObjective::eval_with`] has swept the scratch since.
    pub fn backward_replay(
        &self,
        c_seed: f64,
        area_seed: f64,
        scratch: &mut EvalScratch,
        grad: &mut Vec<f64>,
    ) {
        assert!(
            scratch.recorded,
            "backward_replay: the tape on this scratch is not the last thing forward_record \
             swept on it (nothing recorded yet, or a value-only eval_with ran since)"
        );
        scratch.counts.backward_sweeps += 1;
        let n = self.g.node_count();
        grad.clear();
        grad.resize(n, 0.0);
        let t = &self.tapes;
        let w_area = area_seed / self.machine.procs as f64;
        let EvalScratch { adjoint, tape_w, tape_vals, tape_wts, slot_adj, var_cache, .. } = scratch;
        let e_x = var_cache.e();
        adjoint.fill(0.0);
        adjoint[self.g.stop().0] = c_seed;
        // DAG pass: every expression's seed into its root slot.
        for &v in self.g.topo_order().iter().rev() {
            let a_v = adjoint[v.0];
            slot_adj[v.0] = if w_area != 0.0 { a_v + w_area * e_x[v.0] } else { a_v };
            for &e in self.g.in_edges(v) {
                let seed = a_v * tape_w[e.0];
                slot_adj[n + e.0] = seed;
                adjoint[self.g.edge(e).src] += seed;
            }
        }
        t.prog.push_adjoints(slot_adj, tape_wts);
        let mut lo = 0;
        for (&v, &hi) in self.g.topo_order().iter().rev().zip(&t.replay_ends) {
            if w_area != 0.0 {
                grad[v.0] += w_area * tape_vals[v.0] * e_x[v.0];
            }
            // A node off every seeded path (most of them under an exact
            // max, whose weights are 0 or 1) seeds its own expression and
            // its in-edges' with zero: every addend below would be ±0.0.
            if slot_adj[v.0] != 0.0 || adjoint[v.0] != 0.0 {
                t.prog.accumulate(lo..hi, tape_vals, slot_adj, grad);
            }
            lo = hi;
        }
    }

    /// The pre-adjoint forward-mode gradient (dense `O(n)` vector per
    /// node, `O(E·n)` time): the independently derived oracle of the
    /// gradient property tests. Nothing else calls it and nothing times
    /// it.
    #[doc(hidden)]
    pub fn eval_grad_forward(&self, x: &[f64], sharp: Sharpness) -> (ObjectiveParts, Vec<f64>) {
        let n = self.g.node_count();
        let mut grad_a = vec![0.0; n];
        let a_p = self.area_expr().eval_grad(x, sharp, 1.0, &mut grad_a);

        // Forward pass where each node's finish time carries a dense
        // gradient vector.
        let mut y_val = vec![0.0_f64; n];
        let mut y_grad: Vec<Vec<f64>> = vec![Vec::new(); n];
        for &v in self.g.topo_order() {
            let in_edges = self.g.in_edges(v);
            let mut cand_vals = Vec::with_capacity(in_edges.len());
            let mut cand_grads: Vec<Vec<f64>> = Vec::with_capacity(in_edges.len());
            for &e in in_edges {
                let m = self.g.edge(e).src;
                let mut ge = vec![0.0; n];
                let de = self.edge_expr(e).eval_grad(x, sharp, 1.0, &mut ge);
                for (gi, &gm) in ge.iter_mut().zip(&y_grad[m]) {
                    *gi += gm;
                }
                cand_vals.push(y_val[m] + de);
                cand_grads.push(ge);
            }
            let (start, weights) = smax_weights(&cand_vals, sharp);
            let mut g_here = vec![0.0; n];
            for (w, cg) in weights.iter().zip(&cand_grads) {
                if *w != 0.0 {
                    for (gi, &ci) in g_here.iter_mut().zip(cg) {
                        *gi += w * ci;
                    }
                }
            }
            let t_val = self.node_expr(v).eval_grad(x, sharp, 1.0, &mut g_here);
            y_val[v.0] = start + t_val;
            y_grad[v.0] = g_here;
        }
        let c_p = y_val[self.g.stop().0];
        let grad_c = std::mem::take(&mut y_grad[self.g.stop().0]);

        let (phi, w) = smax_weights(&[a_p, c_p], sharp);
        let grad: Vec<f64> =
            grad_a.iter().zip(&grad_c).map(|(&ga, &gc)| w[0] * ga + w[1] * gc).collect();
        (ObjectiveParts { phi, a_p, c_p }, grad)
    }

    /// Convert a log-space point to an [`Allocation`] (clamped to
    /// `[1, p]`).
    pub fn allocation_from_x(&self, x: &[f64]) -> Allocation {
        let pmax = self.machine.procs as f64;
        Allocation::new(x.iter().map(|&xi| xi.exp().clamp(1.0, pmax)).collect())
    }

    /// Exact (non-smoothed, true-`max`) `Phi` breakdown for an allocation,
    /// via `paradigm-cost`'s ground-truth evaluator.
    pub fn exact_phi(&self, alloc: &Allocation) -> PhiBreakdown {
        MdgWeights::compute(self.g, &self.machine, alloc).phi(self.g)
    }
}

impl DetachedObjective {
    /// The objective of `(g, machine)`, to the bit what
    /// [`MdgObjective::try_new`] builds, for the price of one pass over
    /// the graph: `None` — the caller builds — unless the inputs are
    /// valid, the machine's processor count and transfer constants are
    /// the build's, `g` has the build's DAG and every node cost has the
    /// build's zero pattern. Then the two cost coefficients of every node
    /// are rewritten in the level program.
    pub fn attach(mut self, g: &Mdg, machine: Machine) -> Option<MdgObjective<'_>> {
        let constants = |m: &Machine| {
            let x = &m.xfer;
            (m.procs, [x.t_ss, x.t_ps, x.t_sr, x.t_pr, x.t_n].map(f64::to_bits))
        };
        if check_inputs(g, &machine).is_err()
            || constants(&machine) != constants(&self.machine)
            || !self.shape.fits(g)
        {
            return None;
        }
        for (id, node) in g.nodes() {
            for (c, site) in cost_coeffs(&node.cost).into_iter().zip(self.shape.cost_sites[id.0]) {
                if (c != 0.0) != (site != NO_SITE) {
                    return None;
                }
                if c != 0.0 {
                    self.tapes.prog.set_coeff(site, c);
                }
            }
        }
        let DetachedObjective { tapes, shape, .. } = self;
        Some(MdgObjective { g, machine, tapes, shape })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_mdg::{
        complex_matmul_mdg, example_fig1_mdg, AmdahlParams, ArrayTransfer, KernelCostTable,
        MdgBuilder,
    };

    fn fig1() -> Mdg {
        example_fig1_mdg()
    }

    #[test]
    fn exact_eval_matches_cost_crate() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let obj = MdgObjective::new(&g, m);
        for q in [1.0f64, 2.0, 4.0, 8.0, 16.0] {
            let x = vec![q.ln(); g.node_count()];
            let parts = obj.eval(&x, Sharpness::Exact);
            let alloc = Allocation::uniform(&g, q);
            let exact = obj.exact_phi(&alloc);
            assert!(
                (parts.phi - exact.phi).abs() < 1e-12 * exact.phi.max(1.0),
                "q={q}: {} vs {}",
                parts.phi,
                exact.phi
            );
            assert!((parts.a_p - exact.a_p).abs() < 1e-12 * exact.a_p.max(1.0));
            assert!((parts.c_p - exact.c_p).abs() < 1e-12 * exact.c_p.max(1.0));
        }
    }

    #[test]
    fn smooth_upper_bounds_exact() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(32);
        let obj = MdgObjective::new(&g, m);
        let x = vec![4.0_f64.ln(); g.node_count()];
        let exact = obj.eval(&x, Sharpness::Exact);
        for s in [2.0, 8.0, 32.0] {
            let smooth = obj.eval(&x, Sharpness::Smooth(s));
            assert!(smooth.phi >= exact.phi - 1e-12);
            assert!(smooth.c_p >= exact.c_p - 1e-12);
        }
        // Sharper smoothing is tighter.
        let s8 = obj.eval(&x, Sharpness::Smooth(8.0));
        let s64 = obj.eval(&x, Sharpness::Smooth(64.0));
        assert!(s64.phi <= s8.phi + 1e-12);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let obj = MdgObjective::new(&g, m);
        let n = g.node_count();
        let sharp = Sharpness::Smooth(8.0);
        // A generic interior point.
        let x: Vec<f64> = (0..n).map(|i| 0.3 + 0.1 * (i as f64).sin()).collect();
        let (_, grad) = obj.eval_grad(&x, sharp);
        let h = 1e-6;
        for j in 0..n {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp[j] += h;
            xm[j] -= h;
            let fd = (obj.eval(&xp, sharp).phi - obj.eval(&xm, sharp).phi) / (2.0 * h);
            assert!(
                (grad[j] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "var {j}: analytic {} vs fd {}",
                grad[j],
                fd
            );
        }
    }

    #[test]
    fn structural_variables_have_zero_gradient() {
        let g = fig1();
        let obj = MdgObjective::new(&g, Machine::cm5(4));
        let x = vec![0.5; g.node_count()];
        let (_, grad) = obj.eval_grad(&x, Sharpness::Smooth(8.0));
        assert_eq!(grad[g.start().0], 0.0);
        assert_eq!(grad[g.stop().0], 0.0);
    }

    #[test]
    fn fig1_objective_prefers_mixed_allocation() {
        // At the paper's mixed allocation (N1 on 4, N2/N3 on 2) the exact
        // C_p equals 14.3 s and A_p = (5.2*4 + 9.1*2 + 9.1*2)/4 = 14.3 s.
        let g = fig1();
        let obj = MdgObjective::new(&g, Machine::cm5(4));
        let mut alloc = Allocation::uniform(&g, 1.0);
        alloc.set(NodeId(1), 4.0);
        alloc.set(NodeId(2), 2.0);
        alloc.set(NodeId(3), 2.0);
        let mixed = obj.exact_phi(&alloc);
        assert!((mixed.c_p - 14.3).abs() < 1e-9);
        assert!((mixed.a_p - 14.3).abs() < 1e-9);
        // The all-4 allocation has a *lower bound* Phi of max(A_p, C_p)
        // with A_p = 15.6 (area) — worse than mixed.
        let all4 = obj.exact_phi(&Allocation::uniform(&g, 4.0));
        assert!((all4.a_p - 15.6).abs() < 1e-9);
        assert!(all4.phi > mixed.phi);
    }

    #[test]
    fn objective_is_logspace_convex_on_cm5() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let obj = MdgObjective::new(&g, m);
        let n = g.node_count();
        let ub = obj.x_upper();
        let pts: Vec<Vec<f64>> = (0..6)
            .map(|k| (0..n).map(|i| ((k * 31 + i * 7) % 97) as f64 / 97.0 * ub).collect())
            .collect();
        for sharp in [Sharpness::Exact, Sharpness::Smooth(16.0)] {
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    let mid: Vec<f64> =
                        pts[i].iter().zip(&pts[j]).map(|(a, b)| (a + b) / 2.0).collect();
                    let lhs = obj.eval(&mid, sharp).phi;
                    let rhs = 0.5 * (obj.eval(&pts[i], sharp).phi + obj.eval(&pts[j], sharp).phi);
                    assert!(
                        lhs <= rhs + 1e-9 * rhs.abs(),
                        "objective not convex at pair ({i},{j}) with {sharp:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_d_transfers_build_without_max_nodes() {
        let mut b = MdgBuilder::new("2d");
        let x = b.compute("x", AmdahlParams::new(0.1, 1.0));
        let y = b.compute("y", AmdahlParams::new(0.1, 1.0));
        b.edge(x, y, vec![ArrayTransfer::matrix_2d(64, 64)]);
        let g = b.finish().unwrap();
        let obj = MdgObjective::new(&g, Machine::cm5(8));
        // 2D costs are pure posynomials: no Max nodes in T expressions.
        fn has_max(e: &Expr) -> bool {
            match e {
                Expr::Mono(_) => false,
                Expr::Sum(v) => v.iter().any(has_max),
                Expr::Max(_) => true,
            }
        }
        for (id, _) in g.nodes() {
            assert!(!has_max(&obj.node_expr(id)), "2D transfer produced a Max node");
        }
    }

    /// `Shape::of`'s rule: a node's non-zero cost terms are the last
    /// entries of its root's monomial range, `α·τ` (a constant) at
    /// `end − 1` and then `(1−α)·τ` (`p_v^{-1}`), whatever the zero pattern
    /// and however many transfer terms follow them in the tree.
    #[test]
    fn cost_sites_are_the_last_entries_of_a_nodes_range() {
        let mut b = MdgBuilder::new("sites");
        let both = b.compute("both", AmdahlParams::new(0.25, 2.0));
        let serial = b.compute("serial", AmdahlParams::new(1.0, 3.0));
        let parallel = b.compute("parallel", AmdahlParams::new(0.0, 5.0));
        let idle = b.compute("idle", AmdahlParams::new(0.5, 0.0));
        b.edge(both, serial, vec![ArrayTransfer::matrix_1d(8, 8)]);
        b.edge(both, parallel, vec![ArrayTransfer::matrix_2d(8, 8)]);
        b.edge(serial, idle, vec![ArrayTransfer::matrix_1d(4, 4)]);
        b.edge(parallel, idle, vec![ArrayTransfer::matrix_1d(4, 4)]);
        let g = b.finish().unwrap();
        let obj = MdgObjective::new(&g, Machine::cm5(8));
        let prog = &obj.tapes.prog;
        for (id, node) in g.nodes() {
            let end = prog.mono_range(id.0).end as u32;
            let mut expect = end;
            for (k, (c, site)) in
                cost_coeffs(&node.cost).into_iter().zip(obj.shape.cost_sites[id.0]).enumerate()
            {
                if c == 0.0 {
                    assert_eq!(site, NO_SITE, "node {}: zero term {k}", node.name);
                    continue;
                }
                expect -= 1;
                assert_eq!(site, expect, "node {}: term {k}", node.name);
                let m = &prog.monos[site as usize];
                assert_eq!(m.coeff.to_bits(), c.to_bits(), "node {}: term {k}", node.name);
                let terms = &prog.terms[m.lo as usize..m.hi as usize];
                let want: &[(u32, f64)] = if k == 0 { &[] } else { &[(id.0 as u32, -1.0)] };
                assert_eq!(terms, want, "node {}: term {k}", node.name);
            }
        }
        let sites = |name: &str| {
            let (id, _) = g.nodes().find(|(_, node)| node.name == name).unwrap();
            obj.shape.cost_sites[id.0].map(|s| s != NO_SITE)
        };
        assert_eq!(sites("both"), [true, true]);
        assert_eq!(sites("serial"), [true, false]);
        assert_eq!(sites("parallel"), [false, true]);
        assert_eq!(sites("idle"), [false, false]);
    }

    #[test]
    fn allocation_from_x_clamps() {
        let g = fig1();
        let obj = MdgObjective::new(&g, Machine::cm5(4));
        let x = vec![-1.0, 10.0, 0.5, 0.0, 0.0];
        let a = obj.allocation_from_x(&x);
        assert_eq!(a.get(NodeId(0)), 1.0);
        assert_eq!(a.get(NodeId(1)), 4.0);
        assert!((a.get(NodeId(2)) - 0.5_f64.exp()).abs() < 1e-12);
    }
}
