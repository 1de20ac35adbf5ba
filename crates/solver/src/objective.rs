//! Assembles the allocation objective `Phi = max(A_p, C_p)` for an
//! (MDG, machine) pair as generalized posynomial expressions over the
//! log-allocation variables `x_i = ln p_i` (one variable per MDG node;
//! START/STOP variables never appear in any term because structural edges
//! carry no data).
//!
//! The objective compiles these expressions straight from the graph into
//! its level program (`compiled.rs`), one root per node and, on a
//! machine with `t_n > 0`, per edge, in one pass over the reverse
//! topological order: no expression tree is built on the way. A sweep
//! runs the program, then the `C_p` recurrence one DAG depth at a time
//! (`DepthPlan`). The trees ([`MdgObjective::node_expr`] and the like)
//! are built on request, as the oracles the program is held to: the
//! emitter writes each root's terms in the tree's child order and drops
//! a zero term where `Expr::sum` / `Expr::max` drop it, so an exact sweep
//! is the tree walk to the bit.
//!
//! Every tree is a generalized posynomial by construction: `Monomial`'s
//! fields are private and its constructors assert a finite, non-negative
//! coefficient and finite exponents.
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
//! from its inputs — the level program and its replay order — depends on
//! the machine's constants, on the DAG (edge endpoints and transfers;
//! adjacency and the topological order follow from the edge list) and on
//! *which* of each node's two coefficients — the constant `α·τ` and `c_v`
//! of its one `p_v^{-1}` term, the parallel work plus the per-byte cost
//! of every transfer on its edges — are zero (a zero term is dropped, so
//! the zero pattern is structure). The coefficients' *values*
//! are the only thing that is data. A caller that solves one graph again
//! and again under moving costs — the consensus tier re-freezes every
//! block's boundary into its ghost and virtual nodes each round —
//! therefore builds once: [`MdgObjective::detach`] gives up the graph
//! borrow and records the DAG it was built for, and
//! [`DetachedObjective::attach`] checks a graph against it and rewrites
//! the two coefficients per node in the program where the build recorded
//! them, or refuses, and then the caller builds. An attached objective is
//! the built one to the bit (`tests/tape_carry.rs`).

use crate::compiled::{smax_columns, LevelProgram, TapeStats};
use crate::expr::{smax_pair_weights, smax_weights, Expr, Monomial, Sharpness};
use crate::workspace::EvalScratch;
use paradigm_cost::{Allocation, Machine, MdgWeights, PhiBreakdown, TransferParams};
use paradigm_mdg::{ArrayTransfer, Edge, EdgeId, Mdg, NodeId, TransferKind};

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
    /// and the recurrence's schedule, swept by every evaluation.
    tapes: Tapes,
    /// The DAG `attach` checked, carried to the next `detach`; a build
    /// records none (`detach` does).
    shape: Option<Shape>,
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

/// Cost site of a coefficient that is zero: the term was dropped, the
/// program has no entry for it.
const NO_SITE: u32 = u32::MAX;

/// The DAG an objective was built for, recorded when it is detached.
#[derive(Debug)]
struct Shape {
    topo: Vec<NodeId>,
    /// Per edge: source, destination, and where its transfers end in
    /// `xfers` (they start where the previous edge's end).
    edges: Vec<(usize, usize, usize)>,
    xfers: Vec<ArrayTransfer>,
}

impl Shape {
    fn of(g: &Mdg) -> Shape {
        let mut xfers = Vec::new();
        let edges = g.edges().map(|(_, e)| {
            xfers.extend_from_slice(&e.transfers);
            (e.src, e.dst, xfers.len())
        });
        let edges = edges.collect();
        Shape { topo: g.topo_order().to_vec(), edges, xfers }
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

/// The edges of `v` in edge-id order, or in reverse order with `rev`,
/// each with whether `v` is its source. (`in_edges` and `out_edges` are
/// each ascending by edge id, and no edge is in both.)
fn adjacent(g: &Mdg, v: NodeId, rev: bool) -> impl Iterator<Item = (&Edge, bool)> {
    let (ins, outs) = (g.in_edges(v), g.out_edges(v));
    // The `k`-th edge of `list` in the walk's direction.
    let at = move |list: &[EdgeId], k: usize| {
        list.get(if rev { list.len().wrapping_sub(k + 1) } else { k }).copied()
    };
    let (mut i, mut o) = (0, 0);
    std::iter::from_fn(move || {
        let sender = match (at(ins, i), at(outs, o)) {
            (None, None) => return None,
            (Some(a), Some(b)) => (b < a) != rev,
            (_, out) => out.is_some(),
        };
        let e = if sender { at(outs, o) } else { at(ins, i) };
        *(if sender { &mut o } else { &mut i }) += 1;
        Some((g.edge(e.expect("one side is left")), sender))
    })
}

/// Per transfer kind, `[1D, 2D]`: how many transfers `edge` carries and
/// their bytes.
fn by_kind(edge: &Edge) -> [(u32, f64); 2] {
    let mut kinds = [(0, 0.0); 2];
    for t in &edge.transfers {
        let k = &mut kinds[matches!(t.kind, TransferKind::TwoD) as usize];
        (k.0, k.1) = (k.0 + 1, k.1 + t.bytes as f64);
    }
    kinds
}

/// The two coefficients of `T_v` that are data rather than structure:
/// the constant `α·τ`, and `c_v` of the one `p_v^{-1}` monomial — the
/// parallel work `(1−α)·τ` plus the per-byte cost `L·t_ps` (sent) or
/// `L·t_pr` (received) of every transfer on `v`'s edges, in edge-id order;
/// and how many of the startup terms of `v`'s edges ([`startup`]) are
/// not zero.
fn node_coeffs(g: &Mdg, x: &TransferParams, v: NodeId) -> ([f64; 2], u32) {
    let cost = &g.node(v).cost;
    let [serial, mut inv_p] = if cost.tau > 0.0 {
        [cost.alpha * cost.tau, (1.0 - cost.alpha) * cost.tau]
    } else {
        [0.0, 0.0]
    };
    let mut startups = 0;
    for (edge, sender) in adjacent(g, v, false) {
        let t_p = if sender { x.t_ps } else { x.t_pr };
        for t in &edge.transfers {
            inv_p += t.bytes as f64 * t_p;
        }
        let (.., coeffs) = startup(x, (edge, sender));
        startups += coeffs.iter().filter(|&&c| c != 0.0).count() as u32;
    }
    ([serial, inv_p], startups)
}

/// Node `v`'s end of `edge` (`sender`: `v` is its source): `v`, the
/// opposite endpoint, and the coefficients of the edge's startup terms
/// on this side, `[k₁·t_s, k₂·t_s]` for its `k₁` 1D and `k₂` 2D transfers
/// (`t_ss` on the source, `t_sr` on the destination).
fn startup(x: &TransferParams, (edge, sender): (&Edge, bool)) -> (usize, usize, [f64; 2]) {
    let (me, other, t_s) =
        if sender { (edge.src, edge.dst, x.t_ss) } else { (edge.dst, edge.src, x.t_sr) };
    let [(one_d, _), (two_d, _)] = by_kind(edge);
    (me, other, [one_d as f64 * t_s, two_d as f64 * t_s])
}

/// `T_v = Σ_pred t^R + t^C_v + Σ_succ t^S` of node `v` as an expression
/// over `x`, like terms collected: `α·τ` and `c_v·p_v^{-1}`
/// ([`node_coeffs`]) first, then per edge, in edge-id order, the startup
/// terms of its transfers, `me` being `v` and `other` the opposite
/// endpoint: `max(k₁·t_s, k₁·t_s·p_other/p_me)` for its `k₁` 1D transfers
/// and `k₂·t_s·p_other` for its `k₂` 2D ones (`t_ss` on the source, `t_sr`
/// on the destination). A smoothed max is positively homogeneous, so `k₁`
/// equal maxes are one max scaled by `k₁` at every sharpness. A zero term
/// is dropped. `emit_node` compiles the same terms.
fn node_tree(g: &Mdg, x: &TransferParams, v: NodeId) -> Expr {
    let ([serial, inv_p], _) = node_coeffs(g, x, v);
    let mut terms = vec![Expr::constant(serial), Expr::Mono(Monomial::single(inv_p, v.0, -1.0))];
    for (edge, sender) in adjacent(g, v, false) {
        let (me, other, t_s) =
            if sender { (edge.src, edge.dst, x.t_ss) } else { (edge.dst, edge.src, x.t_sr) };
        let [(one_d, _), (two_d, _)] = by_kind(edge);
        if one_d > 0 {
            let c = one_d as f64 * t_s;
            terms.push(Expr::max(vec![
                Expr::constant(c),
                Expr::Mono(Monomial::pair(c, other, 1.0, me, -1.0)),
            ]));
        }
        if two_d > 0 {
            terms.push(Expr::Mono(Monomial::single(two_d as f64 * t_s, other, 1.0)));
        }
    }
    Expr::sum(terms)
}

/// `t^D` of `edge`: zero when the machine's `t_n` is zero, else
/// `L₂ t_n / (p_i p_j)` over the bytes `L₂` of its 2D transfers plus, over
/// the bytes `L₁` of its 1D ones, the monomial upper bound
/// `L₁ t_n / sqrt(p_i p_j)` of `L₁ t_n / max(p_i, p_j)` (module docs).
/// `emit_edge` compiles the same terms.
fn edge_tree(x: &TransferParams, edge: &Edge) -> Expr {
    let [(_, one_d), (_, two_d)] = by_kind(edge);
    let term = |bytes: f64, a| Expr::Mono(Monomial::pair(bytes * x.t_n, edge.src, a, edge.dst, a));
    Expr::sum(vec![term(one_d, -0.5), term(two_d, -1.0)])
}

/// Compile node `v`'s `T_v` — [`node_tree`]'s terms, each zero one
/// dropped — into root `v`, its children right to left; returns its cost
/// sites: the sum that starts from `α·τ` and the monomial `c_v·p_v^{-1}`
/// ([`NO_SITE`] where the coefficient is zero).
fn emit_node(prog: &mut LevelProgram, g: &Mdg, x: &TransferParams, v: NodeId) -> [u32; 2] {
    let ([serial, inv_p], startups) = node_coeffs(g, x, v);
    let serial_site = if serial != 0.0 { prog.sum_count() as u32 } else { NO_SITE };
    let mut kids = prog.open_root(v.0, serial, startups + (inv_p != 0.0) as u32);
    for (me, other, [one_d, two_d]) in adjacent(g, v, true).map(|side| startup(x, side)) {
        if two_d != 0.0 {
            prog.mono(kids.next(), two_d, &[(other, 1.0)]);
        }
        if one_d != 0.0 {
            prog.startup_max(kids.next(), one_d, other, me);
        }
    }
    let inv_p_site =
        if inv_p != 0.0 { prog.mono(kids.next(), inv_p, &[(v.0, -1.0)]) } else { NO_SITE };
    [serial_site, inv_p_site]
}

/// Compile `edge`'s `t^D` — [`edge_tree`]'s terms, each zero one dropped
/// — into root `r`, its children right to left.
fn emit_edge(prog: &mut LevelProgram, x: &TransferParams, r: usize, edge: &Edge) {
    let [(_, one_d), (_, two_d)] = by_kind(edge);
    let [one_d, two_d] = [one_d * x.t_n, two_d * x.t_n];
    let mut kids = prog.open_root(r, 0.0, (one_d != 0.0) as u32 + (two_d != 0.0) as u32);
    if two_d != 0.0 {
        prog.mono(kids.next(), two_d, &[(edge.src, -1.0), (edge.dst, -1.0)]);
    }
    if one_d != 0.0 {
        prog.mono(kids.next(), one_d, &[(edge.src, -0.5), (edge.dst, -0.5)]);
    }
}

/// What no objective is built for: a machine without processors or with
/// invalid transfer constants. Node costs need no check here:
/// `MdgBuilder::finish` refuses a graph with one out of range.
fn check_machine(machine: &Machine) -> Result<(), String> {
    if machine.procs == 0 {
        return Err("machine has zero processors".into());
    }
    machine.xfer.validate()
}

/// The objective's one compiled program — node `T` expressions by node
/// id (root slot `v`), then, on a machine with `t_n > 0`, edge `t^D`
/// expressions by edge id (root slot `nodes + e`; with `t_n = 0` every
/// one is zero and none is compiled) — plus what ties it to the DAG.
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
    /// Whether the program has the edge roots (`t_n > 0`).
    edge_roots: bool,
    /// Per position of the reverse topological order, where the
    /// monomials of that node's expression and of its in-edges'
    /// expressions end in the program's accumulation order (they start
    /// where the previous position's end).
    replay_ends: Vec<usize>,
    /// Per node, where `attach` rewrites its two coefficients
    /// (`emit_node`).
    cost_sites: Vec<[u32; 2]>,
    /// The `C_p` recurrence's schedule.
    plan: DepthPlan,
}

impl Tapes {
    /// One pass over the reverse topological order — per node its own
    /// root, then its in-edges' — emits the roots in the order the
    /// backward sweep reaches them. One pass over the edges before it
    /// sizes the program, so the build's allocations do not grow with
    /// the graph.
    fn build(g: &Mdg, machine: &Machine) -> Tapes {
        let (n, x) = (g.node_count(), &machine.xfer);
        let edge_roots = x.t_n > 0.0;
        let (mut one_d, mut two_d, mut network) = (0, 0, 0);
        for (_, e) in g.edges() {
            let [(k1, b1), (k2, b2)] = by_kind(e);
            (one_d, two_d) = (one_d + (k1 > 0) as usize, two_d + (k2 > 0) as usize);
            network += [b1, b2].iter().filter(|&&b| b * x.t_n != 0.0).count();
        }
        let sides = [x.t_ss, x.t_sr].iter().filter(|&&t| t != 0.0).count();
        let n_roots = if edge_roots { n + g.edge_count() } else { n };
        let maxes = one_d * sides;
        // At most one `p_v^{-1}` monomial a node, one a max, the 2D
        // startups and the network terms.
        let monos = n + maxes + two_d * sides + network;
        let mut prog = LevelProgram::with_capacity(n, n_roots, maxes, monos, n_roots);
        let mut replay_ends = Vec::with_capacity(n);
        let mut cost_sites = vec![[NO_SITE; 2]; n];
        for &v in g.topo_order().iter().rev() {
            cost_sites[v.0] = emit_node(&mut prog, g, x, v);
            if edge_roots {
                for &e in g.in_edges(v) {
                    emit_edge(&mut prog, x, n + e.0, g.edge(e));
                }
            }
            replay_ends.push(prog.mono_count());
        }
        Tapes { prog, edge_roots, replay_ends, cost_sites, plan: DepthPlan::of(g) }
    }
}

/// The schedule of the `C_p` recurrence `y_v = max_e (y_src + t^D_e) + T_v`
/// (paper §2): the nodes grouped by DAG depth — a node's depth is one
/// more than its deepest predecessor's, 0 without one — so that every
/// node of a depth reads only `y` of shallower ones and one
/// [`smax_columns`] call sweeps the whole depth. Within a depth the
/// nodes are sorted by in-degree, descending (then by id), and their
/// in-edges laid out column by column: column `k` is the `k`-th in-edge
/// of every node with more than `k`, a prefix of the depth's nodes.
#[derive(Debug)]
struct DepthPlan {
    /// Nodes, by depth, each depth in the order above.
    nodes: Vec<u32>,
    /// Per depth, where its nodes end in `nodes`, its columns in
    /// `heights` and its candidates in `edges` (each starts where the
    /// previous depth's ends).
    depths: Vec<[u32; 3]>,
    /// Per column, how many nodes it holds.
    heights: Vec<u32>,
    /// Per candidate, in column order, depth by depth: the in-edge and
    /// its source.
    edges: Vec<(u32, u32)>,
    /// Staging the widest depth needs: its candidates and their weights,
    /// its starts and [`smax_columns`]' work rows.
    staging: usize,
}

impl DepthPlan {
    fn of(g: &Mdg) -> DepthPlan {
        let n = g.node_count();
        let indeg = |v: u32| g.in_edges(NodeId(v as usize)).len();
        let mut depth = vec![0_u32; n];
        for &v in g.topo_order() {
            let preds = g.in_edges(v).iter().map(|&e| depth[g.edge(e).src] + 1);
            depth[v.0] = preds.max().unwrap_or(0);
        }
        let mut nodes: Vec<u32> = (0..n as u32).collect();
        nodes.sort_unstable_by_key(|&v| (depth[v as usize], std::cmp::Reverse(indeg(v)), v));
        // A depth has as many columns as its first node has in-edges.
        let firsts = nodes
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i == 0 || depth[nodes[i - 1] as usize] != depth[v as usize]);
        let columns = firsts.clone().map(|(_, &v)| indeg(v)).sum();
        let (depths, heights) = (Vec::with_capacity(firsts.count()), Vec::with_capacity(columns));
        let edges = Vec::with_capacity(g.edge_count());
        let mut plan = DepthPlan { nodes, depths, heights, edges, staging: 0 };
        let mut lo = 0;
        while lo < n {
            let d = depth[plan.nodes[lo] as usize];
            let len = plan.nodes[lo..].iter().take_while(|&&v| depth[v as usize] == d).count();
            let at = &plan.nodes[lo..lo + len];
            // Column `k` holds the nodes of in-degree above `k`: with the
            // nodes in descending in-degree, a prefix.
            let k_max = at.first().map_or(0, |&v| indeg(v));
            for k in 0..k_max {
                let height = at.iter().take_while(|&&v| indeg(v) > k).count();
                plan.heights.push(height as u32);
                for &v in &at[..height] {
                    let e = g.in_edges(NodeId(v as usize))[k];
                    plan.edges.push((e.0 as u32, g.edge(e).src as u32));
                }
            }
            let cands = at.iter().map(|&v| indeg(v)).sum::<usize>();
            plan.staging = plan.staging.max(2 * cands + 4 * len);
            lo += len;
            let ends = [lo, plan.heights.len(), plan.edges.len()];
            plan.depths.push(ends.map(|end| end as u32));
        }
        plan
    }
}

impl<'g> MdgObjective<'g> {
    /// Fallible [`MdgObjective::new`]: validates the machine *before*
    /// building monomials, so a machine without processors or with bad
    /// transfer constants becomes an `Err` instead of a constructor panic.
    pub fn try_new(g: &'g Mdg, machine: Machine) -> Result<Self, String> {
        check_machine(&machine)?;
        Ok(Self::new(g, machine))
    }

    /// Compile the objective: `O(nodes + edges)` monomials, straight
    /// from the graph, in a number of allocations that does not grow
    /// with it.
    pub fn new(g: &'g Mdg, machine: Machine) -> Self {
        MdgObjective { g, machine, tapes: Tapes::build(g, &machine), shape: None }
    }

    /// Give up the graph borrow and keep everything that was compiled,
    /// beside the DAG it was compiled for (recorded here after a build,
    /// carried over after an `attach`).
    pub fn detach(self) -> DetachedObjective {
        let MdgObjective { g, machine, tapes, shape } = self;
        DetachedObjective { machine, tapes, shape: shape.unwrap_or_else(|| Shape::of(g)) }
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
    /// (for the forward-mode oracle and the tests).
    pub fn node_expr(&self, id: NodeId) -> Expr {
        node_tree(self.g, &self.machine.xfer, id)
    }

    /// The `t^D` expression of an edge (zero when the machine's `t_n` is
    /// zero or the edge carries no data), built on each call like
    /// [`MdgObjective::node_expr`]; root `nodes + id` of the program when
    /// `t_n > 0` (with `t_n = 0` the program has no edge roots).
    pub fn edge_expr(&self, id: EdgeId) -> Expr {
        edge_tree(&self.machine.xfer, self.g.edge(id))
    }

    /// The `A_p = (1/p) Σ T_i p_i` expression (for the forward-mode
    /// oracle), built on each call. The program does not compile it: the
    /// sweeps accumulate `A_p` from the node roots.
    pub(crate) fn area_expr(&self) -> Expr {
        let inv_p = 1.0 / self.machine.procs as f64;
        let scaled = self
            .g
            .nodes()
            .map(|(id, _)| self.node_expr(id).mul_mono(&Monomial::single(inv_p, id.0, 1.0)));
        Expr::sum(scaled.collect())
    }

    /// Shape of the compiled level program: its monomials and constants,
    /// its ops by level and its slots.
    pub fn tape_stats(&self) -> TapeStats {
        self.tapes.prog.stats()
    }

    /// The compiled program, for the tests that read it.
    #[cfg(test)]
    pub(crate) fn program(&self) -> &LevelProgram {
        &self.tapes.prog
    }

    /// Shape of the `C_p` recurrence's schedule: `(depths, width)`, the
    /// number of DAG depths and the most nodes at one depth — how many
    /// batched steps a sweep takes and how many nodes the widest batches.
    #[cfg(test)]
    fn dag_shape(&self) -> (usize, usize) {
        let plan = &self.tapes.plan;
        let widths = plan.depths.iter().scan(0, |lo, &[hi, ..]| {
            let w = hi - *lo;
            *lo = hi;
            Some(w as usize)
        });
        (plan.depths.len(), widths.max().unwrap_or(0))
    }

    /// `t^D` of edge `e` at the point the last sweep on `scratch` ran
    /// (exact or smoothed as that sweep was): its root slot, `0.0` on a
    /// machine with `t_n = 0`, where every `t^D` is zero and the program
    /// compiles no edge roots.
    pub fn swept_edge_delay(&self, scratch: &EvalScratch, e: EdgeId) -> f64 {
        if self.tapes.edge_roots {
            scratch.tape_vals[self.g.node_count() + e.0]
        } else {
            0.0
        }
    }

    /// Evaluate `Phi` (and parts) at `x` with the given sharpness, without
    /// gradients. Convenience wrapper over [`MdgObjective::eval_with`]
    /// on a fresh scratch; hot loops should hold their own.
    pub fn eval(&self, x: &[f64], sharp: Sharpness) -> ObjectiveParts {
        self.eval_with(x, sharp, &mut EvalScratch::default())
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
    /// over [`MdgObjective::eval_grad_with`] on a fresh scratch and
    /// gradient vector.
    pub fn eval_grad(&self, x: &[f64], sharp: Sharpness) -> (ObjectiveParts, Vec<f64>) {
        let mut grad = Vec::new();
        let parts = self.eval_grad_with(x, sharp, &mut EvalScratch::default(), &mut grad);
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
        let mut grad_a = Vec::new();
        let mut grad_c = Vec::new();
        let mut scratch = EvalScratch::default();
        let parts = self.eval_grad_parts_with(x, sharp, &mut scratch, &mut grad_a, &mut grad_c);
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
    /// pair every gradient is made of: the level program, then the `C_p`
    /// recurrence one DAG depth at a time. Fills `scratch.y` with per-node
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
        let plan = &t.plan;
        scratch.ensure(n, self.g.edge_count(), plan.staging);
        t.prog.forward(x, sharp, scratch);
        let EvalScratch { y, tape_w, stack, tape_vals, var_cache, .. } = scratch;
        // The DAG recurrence for C_p over the expression values the
        // program left in the root slots, one depth at a time.
        let mut lo = [0; 3];
        for &hi in &plan.depths {
            let [nodes, heights, edges] = [0, 1, 2].map(|i| lo[i] as usize..hi[i] as usize);
            let (nodes, heights, edges) =
                (&plan.nodes[nodes], &plan.heights[heights], &plan.edges[edges]);
            lo = hi;
            let k = edges.len();
            let (cands, rest) = stack.split_at_mut(k);
            let (wts, rest) = rest.split_at_mut(k);
            let (starts, work) = rest.split_at_mut(nodes.len());
            if t.edge_roots {
                for (c, &(e, src)) in cands.iter_mut().zip(edges) {
                    *c = y[src as usize] + tape_vals[n + e as usize];
                }
            } else {
                for (c, &(_, src)) in cands.iter_mut().zip(edges) {
                    *c = y[src as usize];
                }
            }
            smax_columns(sharp, heights, cands, starts, wts, work);
            for (&w, &(e, _)) in wts.iter().zip(edges) {
                tape_w[e as usize] = w;
            }
            for (&v, &start) in nodes.iter().zip(&*starts) {
                y[v as usize] = start + tape_vals[v as usize];
            }
        }
        // A_p = (1/p) Σ T_v e^{x_v} from the same node values, in
        // topological order.
        let inv_p = 1.0 / self.machine.procs as f64;
        let mut area_acc = 0.0;
        for &v in self.g.topo_order() {
            area_acc += tape_vals[v.0] * var_cache.e(v.0);
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
        adjoint[..n].fill(0.0);
        adjoint[self.g.stop().0] = c_seed;
        // DAG pass: every expression's seed into its root slot.
        for &v in self.g.topo_order().iter().rev() {
            let a_v = adjoint[v.0];
            slot_adj[v.0] = if w_area != 0.0 { a_v + w_area * var_cache.e(v.0) } else { a_v };
            for &e in self.g.in_edges(v) {
                let seed = a_v * tape_w[e.0];
                if t.edge_roots {
                    slot_adj[n + e.0] = seed;
                }
                adjoint[self.g.edge(e).src] += seed;
            }
        }
        t.prog.push_adjoints(slot_adj, tape_wts);
        let mut lo = 0;
        for (&v, &hi) in self.g.topo_order().iter().rev().zip(&t.replay_ends) {
            if w_area != 0.0 {
                grad[v.0] += w_area * tape_vals[v.0] * var_cache.e(v.0);
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
    /// the graph: `None` — the caller builds — unless the machine's
    /// processor count and transfer constants are the build's to the bit
    /// (so the machine is as valid as the build's), `g` has the build's DAG
    /// and every node's two coefficients (its `c_v` and `α·τ`) have the build's
    /// zero pattern. Then they are rewritten in the level program.
    pub fn attach(mut self, g: &Mdg, machine: Machine) -> Option<MdgObjective<'_>> {
        let constants = |m: &Machine| {
            let x = &m.xfer;
            (m.procs, [x.t_ss, x.t_ps, x.t_sr, x.t_pr, x.t_n].map(f64::to_bits))
        };
        if constants(&machine) != constants(&self.machine) || !self.shape.fits(g) {
            return None;
        }
        for (id, _) in g.nodes() {
            let (coeffs, _) = node_coeffs(g, &machine.xfer, id);
            let sites = self.tapes.cost_sites[id.0];
            if coeffs.iter().zip(sites).any(|(&c, site)| (c != 0.0) != (site != NO_SITE)) {
                return None;
            }
            let prog = &mut self.tapes.prog;
            let [serial, inv_p] = coeffs;
            if serial != 0.0 {
                prog.set_init(sites[0], serial);
            }
            if inv_p != 0.0 {
                prog.set_coeff(sites[1], inv_p);
            }
        }
        let DetachedObjective { tapes, shape, .. } = self;
        Some(MdgObjective { g, machine, tapes, shape: Some(shape) })
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

    /// The cost sites `emit_node` records, where `attach` rewrites a
    /// node's coefficients: its non-zero `α·τ` is the constant its root's
    /// sum starts from and its non-zero `c_v·p_v^{-1}` the last of its
    /// root's monomials, whatever the zero pattern and however many
    /// startup terms follow them in the tree. `c_v` is the parallel work
    /// plus every transfer's per-byte cost, so a node with transfers has
    /// its `p_v^{-1}` term whatever its `α`.
    #[test]
    fn cost_sites_are_where_attach_writes() {
        let mut b = MdgBuilder::new("sites");
        let both = b.compute("both", AmdahlParams::new(0.25, 2.0));
        let serial = b.compute("serial", AmdahlParams::new(1.0, 3.0));
        let parallel = b.compute("parallel", AmdahlParams::new(0.0, 5.0));
        let idle = b.compute("idle", AmdahlParams::new(0.5, 0.0));
        let lone = b.compute("lone", AmdahlParams::new(1.0, 4.0));
        let void = b.compute("void", AmdahlParams::new(0.5, 0.0));
        b.edge(both, serial, vec![ArrayTransfer::matrix_1d(8, 8)]);
        b.edge(both, parallel, vec![ArrayTransfer::matrix_2d(8, 8)]);
        b.edge(serial, idle, vec![ArrayTransfer::matrix_1d(4, 4)]);
        b.edge(
            parallel,
            idle,
            vec![ArrayTransfer::matrix_1d(4, 4), ArrayTransfer::matrix_2d(4, 4)],
        );
        b.edge(both, lone, Vec::new());
        b.edge(lone, void, Vec::new());
        let g = b.finish().unwrap();
        let m = Machine::cm5(8);
        let obj = MdgObjective::new(&g, m);
        let prog = &obj.tapes.prog;
        // The per-byte cost of every transfer on a node's edges, by hand.
        let bytes = |id: NodeId, dir: bool| -> f64 {
            let edges = if dir { g.out_edges(id) } else { g.in_edges(id) };
            let xfers = edges.iter().flat_map(|&e| &g.edge(e).transfers);
            xfers.map(|t| t.bytes as f64).sum()
        };
        for (id, node) in g.nodes() {
            let (coeffs, _) = node_coeffs(&g, &m.xfer, id);
            let c = node.cost;
            let (serial, parallel) =
                if c.tau > 0.0 { (c.alpha * c.tau, (1.0 - c.alpha) * c.tau) } else { (0.0, 0.0) };
            let by_hand = parallel + bytes(id, true) * m.xfer.t_ps + bytes(id, false) * m.xfer.t_pr;
            assert_eq!(coeffs[0].to_bits(), serial.to_bits(), "node {}", node.name);
            assert!((coeffs[1] - by_hand).abs() <= 1e-15 * by_hand, "node {}", node.name);
            let [serial_site, inv_p_site] = obj.tapes.cost_sites[id.0];
            // `α·τ`: the constant of the sum that writes the node's root.
            if coeffs[0] == 0.0 {
                assert_eq!(serial_site, NO_SITE, "node {}: zero α·τ", node.name);
            } else {
                let (out, init) = prog.sum_at(serial_site);
                assert_eq!(
                    (out, init.to_bits()),
                    (id.0, coeffs[0].to_bits()),
                    "node {}",
                    node.name
                );
            }
            // `c_v·p_v^{-1}`: the last entry of the node's monomials (on
            // this `t_n = 0` machine no edge root follows them).
            if coeffs[1] == 0.0 {
                assert_eq!(inv_p_site, NO_SITE, "node {}: zero c_v", node.name);
            } else {
                let at = g.topo_order().iter().rev().position(|&v| v == id).unwrap();
                assert_eq!(
                    inv_p_site as usize,
                    obj.tapes.replay_ends[at] - 1,
                    "node {}",
                    node.name
                );
                let (coeff, terms) = prog.mono_at(inv_p_site);
                assert_eq!(coeff.to_bits(), coeffs[1].to_bits(), "node {}: c_v", node.name);
                assert_eq!(terms, [(id.0 as u32, -1.0)], "node {}: c_v", node.name);
            }
        }
        let sites = |name: &str| {
            let (id, _) = g.nodes().find(|(_, node)| node.name == name).unwrap();
            obj.tapes.cost_sites[id.0].map(|s| s != NO_SITE)
        };
        assert_eq!(sites("both"), [true, true]);
        assert_eq!(sites("serial"), [true, true]);
        assert_eq!(sites("parallel"), [false, true]);
        assert_eq!(sites("idle"), [false, true]);
        assert_eq!(sites("lone"), [true, false]);
        assert_eq!(sites("void"), [false, false]);
    }

    /// `emit_node` / `emit_edge` collapse a root as `Expr::sum` and
    /// `Expr::max` do: a structural node is a sum with no term (its value
    /// `0.0`), a serial node without transfers a lone constant, a
    /// parallel one a lone monomial, a node whose only term is one 1D
    /// startup (no work, no per-byte cost) a lone startup max; with
    /// `t_n > 0`, an edge without data a zero and one with a single
    /// transfer kind a lone monomial. Every root is its tree to the bit at
    /// `Exact` and within 1e-12 smoothed, and the gradient is the
    /// forward-mode oracle's.
    #[test]
    fn every_degenerate_root_is_its_tree() {
        let mut b = MdgBuilder::new("degenerate");
        let src = b.compute("src", AmdahlParams::new(0.5, 2.0));
        let serial = b.compute("serial", AmdahlParams::new(1.0, 3.0));
        let parallel = b.compute("parallel", AmdahlParams::new(0.0, 5.0));
        let sink = b.compute("sink", AmdahlParams::new(0.5, 0.0));
        b.edge(src, sink, vec![ArrayTransfer::matrix_1d(8, 8)]);
        b.edge(src, serial, Vec::new());
        b.edge(serial, parallel, Vec::new());
        let g = b.finish().unwrap();
        let free_bytes =
            |m: Machine| Machine { xfer: TransferParams { t_ps: 0.0, t_pr: 0.0, ..m.xfer }, ..m };
        let kind_of = |name: &str| match name {
            "START" | "STOP" => "zero",
            "src" => "sum",
            "serial" => "constant",
            "parallel" => "mono",
            _ => "max",
        };
        for m in [free_bytes(Machine::cm5(8)), free_bytes(Machine::synthetic_mesh(8))] {
            let obj = MdgObjective::new(&g, m);
            let prog = obj.program();
            let n = g.node_count();
            for (id, node) in g.nodes() {
                assert_eq!(prog.root_kind(id.0), kind_of(&node.name), "{} on {m:?}", node.name);
            }
            if m.xfer.t_n > 0.0 {
                for (e, edge) in g.edges() {
                    let want = if edge.transfers.is_empty() { "zero" } else { "mono" };
                    assert_eq!(prog.root_kind(n + e.0), want, "edge {} on {m:?}", e.0);
                }
            }
            let mut scratch = EvalScratch::default();
            for x in [vec![0.0; n], vec![0.4, 1.3, 0.2, 1.9, 0.7, 1.1], vec![2.0; n]] {
                let sharps = [Sharpness::Exact, Sharpness::Smooth(4.0), Sharpness::Smooth(3.7)];
                for sharp in sharps {
                    let _ = obj.eval_with(&x, sharp, &mut scratch);
                    let close = |a: f64, b: f64| match sharp {
                        Sharpness::Exact => a.to_bits() == b.to_bits(),
                        Sharpness::Smooth(_) => (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                    };
                    for (id, node) in g.nodes() {
                        let (got, want) =
                            (scratch.tape_vals[id.0], obj.node_expr(id).eval(&x, sharp));
                        assert!(close(got, want), "{} {sharp:?}: {got} vs {want}", node.name);
                    }
                    for (e, _) in g.edges() {
                        let got = obj.swept_edge_delay(&scratch, e);
                        let want = obj.edge_expr(e).eval(&x, sharp);
                        assert!(close(got, want), "edge {} {sharp:?}: {got} vs {want}", e.0);
                    }
                    let ((_, grad), (_, oracle)) =
                        (obj.eval_grad(&x, sharp), obj.eval_grad_forward(&x, sharp));
                    for (j, (a, b)) in grad.iter().zip(&oracle).enumerate() {
                        assert!(
                            (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                            "{sharp:?} var {j}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    /// The depth plan schedules every node once and every in-edge once,
    /// in its node's column in in-edge order, and puts every edge's
    /// source at a smaller depth than its destination: on the gallery,
    /// seeded random graphs, a single compute node, a join of in-degree
    /// 12 and an edge without data.
    #[test]
    fn the_depth_plan_covers_the_dag_once_in_depth_order() {
        let t = KernelCostTable::cm5();
        let mut graphs = vec![
            fig1(),
            complex_matmul_mdg(64, &t),
            paradigm_mdg::strassen_mdg(128, &t),
            paradigm_mdg::strassen_mdg_multilevel(128, 2, &t),
            paradigm_mdg::fft_2d_mdg(64, 4, &t),
            paradigm_mdg::block_lu_mdg(4, 32, &t),
            paradigm_mdg::stencil_mdg(64, 2, 3, &t),
            paradigm_mdg::fork_join_mdg(6, 12, 5),
        ];
        for seed in [1, 11, 1994] {
            graphs.push(paradigm_mdg::random_layered_mdg(
                &paradigm_mdg::RandomMdgConfig::sized(96),
                seed,
            ));
        }
        let mut b = MdgBuilder::new("single");
        b.compute("only", AmdahlParams::new(0.5, 1.0));
        graphs.push(b.finish().unwrap());
        let mut b = MdgBuilder::new("join");
        let sink = b.compute("sink", AmdahlParams::new(0.1, 1.0));
        for i in 0..12 {
            let v = b.compute(format!("in{i}"), AmdahlParams::new(0.1, 1.0 + i as f64));
            b.edge(v, sink, vec![ArrayTransfer::matrix_1d(8, 8)]);
        }
        graphs.push(b.finish().unwrap());
        let mut b = MdgBuilder::new("dataless");
        let x = b.compute("x", AmdahlParams::new(0.1, 1.0));
        let y = b.compute("y", AmdahlParams::new(0.1, 1.0));
        b.edge(x, y, Vec::new());
        graphs.push(b.finish().unwrap());

        for g in &graphs {
            let obj = MdgObjective::new(g, Machine::cm5(8));
            let plan = &obj.tapes.plan;
            let n = g.node_count();
            let name = g.name();
            // Each node once; its depth is its position's.
            let mut depth_of = vec![usize::MAX; n];
            // Per node, its in-edges as the columns lay them out.
            let mut laid: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
            let (mut lo, mut cols, mut cand) = (0, 0, 0);
            for (d, &[hi, col_hi, cand_hi]) in plan.depths.iter().enumerate() {
                let nodes = &plan.nodes[lo..hi as usize];
                assert!(!nodes.is_empty(), "{name}: depth {d} is empty");
                for &v in nodes {
                    assert_eq!(depth_of[v as usize], usize::MAX, "{name}: node {v} twice");
                    depth_of[v as usize] = d;
                }
                let indeg = |&v: &u32| g.in_edges(NodeId(v as usize)).len();
                assert!(nodes.windows(2).all(|p| indeg(&p[0]) >= indeg(&p[1])), "{name}: {d}");
                let heights = &plan.heights[cols..col_hi as usize];
                assert_eq!(heights.len(), nodes.iter().map(indeg).max().unwrap_or(0), "{name}");
                for &h in heights {
                    for (i, &e) in plan.edges[cand..cand + h as usize].iter().enumerate() {
                        laid[nodes[i] as usize].push(e);
                    }
                    cand += h as usize;
                }
                assert_eq!(cand, cand_hi as usize, "{name}: depth {d}'s candidates");
                (lo, cols) = (hi as usize, col_hi as usize);
            }
            assert_eq!((lo, cols, cand), (n, plan.heights.len(), g.edge_count()), "{name}");
            assert!(depth_of.iter().all(|&d| d != usize::MAX), "{name}: a node is missing");
            for (v, _) in g.nodes() {
                let want: Vec<(u32, u32)> =
                    g.in_edges(v).iter().map(|&e| (e.0 as u32, g.edge(e).src as u32)).collect();
                assert_eq!(laid[v.0], want, "{name}: node {} in-edges", v.0);
            }
            for (_, e) in g.edges() {
                assert!(depth_of[e.src] < depth_of[e.dst], "{name}: {} -> {}", e.src, e.dst);
            }
            let (depths, width) = obj.dag_shape();
            assert_eq!(depths, plan.depths.len(), "{name}");
            assert!(width >= 1 && depths * width >= n, "{name}: {depths} x {width}");
        }
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
