//! The MDG container: construction, adjacency, and core graph algorithms.
//!
//! The graph is stored as a node vector plus an edge list with per-node
//! predecessor/successor adjacency (indices into the edge list), kept as
//! two flat compressed-sparse-row arrays. Node 0 is always START and node
//! `n-1` is always STOP, mirroring the paper's convention ("node 1 is
//! called START and node n is called STOP").

use crate::node::{AmdahlParams, ArrayTransfer, Edge, LoopMeta, Node, NodeKind};
use std::collections::VecDeque;
use std::fmt;

/// Index of a node in an [`Mdg`]. START is always `NodeId(0)` and STOP is
/// always `NodeId(n - 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of an edge in an [`Mdg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Errors raised while building or validating an MDG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdgError {
    /// The edge set contains a cycle; the offending node is reported.
    Cycle(usize),
    /// An edge references a node index that does not exist.
    DanglingEdge { src: usize, dst: usize },
    /// A self-loop `v -> v` was requested.
    SelfLoop(usize),
    /// Duplicate edge between the same ordered pair.
    DuplicateEdge { src: usize, dst: usize },
    /// The graph has no compute nodes at all.
    Empty,
    /// A compute node's Amdahl parameters (paper Eq. 1) leave the range
    /// in which `t^C` is a posynomial; `node` is the builder id.
    InvalidCost { node: usize, param: CostParam },
}

/// Which Amdahl parameter of a node is out of range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostParam {
    /// The serial fraction `alpha` lies outside `[0, 1]` (or is NaN).
    Alpha,
    /// The sequential time `tau` is negative or not finite.
    Tau,
}

impl fmt::Display for MdgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdgError::InvalidCost { node, param: CostParam::Alpha } => {
                write!(f, "compute node {node}: serial fraction alpha must lie in [0, 1]")
            }
            MdgError::InvalidCost { node, param: CostParam::Tau } => {
                write!(f, "compute node {node}: sequential time tau must be finite and >= 0")
            }
            MdgError::Cycle(v) => write!(f, "MDG contains a cycle through node {v}"),
            MdgError::DanglingEdge { src, dst } => {
                write!(f, "edge ({src} -> {dst}) references a missing node")
            }
            MdgError::SelfLoop(v) => write!(f, "self-loop on node {v}"),
            MdgError::DuplicateEdge { src, dst } => {
                write!(f, "duplicate edge ({src} -> {dst})")
            }
            MdgError::Empty => write!(f, "MDG has no compute nodes"),
        }
    }
}

impl std::error::Error for MdgError {}

/// A finished, validated Macro Dataflow Graph.
///
/// Invariants, established by [`MdgBuilder::finish`] — the only way to
/// make an `Mdg` — and re-checked in tests by
/// [`crate::validate::check_invariants`]:
///
/// * node 0 is START, node `n-1` is STOP, both zero-cost;
/// * every compute node has `alpha` in `[0, 1]` and a finite `tau >= 0`;
/// * the edge relation is acyclic with no self-loops or duplicates;
/// * every compute node is reachable from START and reaches STOP.
#[derive(Debug, Clone)]
pub struct Mdg {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Incoming edges of node `v` are `in_ids[in_off[v]..in_off[v + 1]]`,
    /// in edge-id order; `out_off`/`out_ids` hold the outgoing ones.
    in_off: Vec<usize>,
    in_ids: Vec<EdgeId>,
    out_off: Vec<usize>,
    out_ids: Vec<EdgeId>,
    topo: Vec<NodeId>,
}

impl Mdg {
    /// Graph name (used in reports and DOT output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total node count including START and STOP.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of compute (non-structural) nodes.
    pub fn compute_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_structural()).count()
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The START node id (always 0).
    pub fn start(&self) -> NodeId {
        NodeId(0)
    }

    /// The STOP node id (always `n - 1`).
    pub fn stop(&self) -> NodeId {
        NodeId(self.nodes.len() - 1)
    }

    /// Node payload.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Edge payload.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// All nodes in index order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// All edges in index order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e))
    }

    /// Incoming edges of `id`.
    #[inline]
    pub fn in_edges(&self, id: NodeId) -> &[EdgeId] {
        csr_row(&self.in_off, &self.in_ids, id.0)
    }

    /// Outgoing edges of `id`.
    #[inline]
    pub fn out_edges(&self, id: NodeId) -> &[EdgeId] {
        csr_row(&self.out_off, &self.out_ids, id.0)
    }

    /// Predecessor node ids of `id`.
    pub fn preds(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(id).iter().map(|&e| NodeId(self.edges[e.0].src))
    }

    /// Successor node ids of `id`.
    pub fn succs(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(id).iter().map(|&e| NodeId(self.edges[e.0].dst))
    }

    /// A topological order of all nodes (START first, STOP last). The
    /// order is computed once at build time and reused.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Longest path length from START to STOP where each node contributes
    /// `node_w(id)` and each edge `edge_w(eid)`. This is the generic
    /// critical-path primitive used for `C_p` style computations.
    pub fn critical_path_with<NW, EW>(&self, node_w: NW, edge_w: EW) -> f64
    where
        NW: FnMut(NodeId) -> f64,
        EW: FnMut(EdgeId) -> f64,
    {
        self.finish_times_with(node_w, edge_w)[self.stop().0]
    }

    /// Per-node earliest finish times under the same weight model as
    /// [`Mdg::critical_path_with`] (the `y_i` recurrence of the paper).
    pub fn finish_times_with<NW, EW>(&self, mut node_w: NW, mut edge_w: EW) -> Vec<f64>
    where
        NW: FnMut(NodeId) -> f64,
        EW: FnMut(EdgeId) -> f64,
    {
        let mut finish = vec![0.0_f64; self.nodes.len()];
        for &v in &self.topo {
            let mut start = 0.0_f64;
            for &e in self.in_edges(v) {
                let m = self.edges[e.0].src;
                let cand = finish[m] + edge_w(e);
                if cand > start {
                    start = cand;
                }
            }
            finish[v.0] = start + node_w(v);
        }
        finish
    }

    /// Hop-count depth of each node from START (START = 0).
    pub fn depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.nodes.len()];
        for &v in &self.topo {
            for &e in self.in_edges(v) {
                let m = self.edges[e.0].src;
                depth[v.0] = depth[v.0].max(depth[m] + 1);
            }
        }
        depth
    }

    /// Number of nodes at each depth level — the graph's "width profile".
    pub fn level_widths(&self) -> Vec<usize> {
        let depths = self.depths();
        let max = depths.iter().copied().max().unwrap_or(0);
        let mut widths = vec![0usize; max + 1];
        for d in depths {
            widths[d] += 1;
        }
        widths
    }

    /// True if `a` reaches `b` through directed edges.
    pub fn reaches(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = VecDeque::new();
        queue.push_back(a);
        seen[a.0] = true;
        while let Some(v) = queue.pop_front() {
            for &e in self.out_edges(v) {
                let w = self.edges[e.0].dst;
                if w == b.0 {
                    return true;
                }
                if !seen[w] {
                    seen[w] = true;
                    queue.push_back(NodeId(w));
                }
            }
        }
        false
    }
}

/// Incremental MDG construction. Compute nodes and edges are added freely;
/// [`MdgBuilder::finish`] validates node costs and acyclicity, splices in
/// START/STOP, and produces the immutable [`Mdg`].
#[derive(Debug, Clone)]
pub struct MdgBuilder {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl MdgBuilder {
    /// Start building a graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_capacity(name, 0, 0)
    }

    /// [`MdgBuilder::new`] with room for `nodes` compute nodes and `edges`
    /// edges before either list grows.
    pub(crate) fn with_capacity(name: impl Into<String>, nodes: usize, edges: usize) -> Self {
        MdgBuilder {
            name: name.into(),
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Add a compute node with synthetic kernel metadata.
    pub fn compute(&mut self, name: impl Into<String>, cost: AmdahlParams) -> NodeId {
        self.compute_with_meta(name, cost, LoopMeta::synthetic())
    }

    /// Add a compute node carrying kernel metadata for the simulator.
    pub fn compute_with_meta(
        &mut self,
        name: impl Into<String>,
        cost: AmdahlParams,
        meta: LoopMeta,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { name: name.into(), kind: NodeKind::Compute, cost, meta });
        id
    }

    /// Add a precedence edge with the given array transfers (empty for a
    /// pure precedence constraint).
    pub fn edge(&mut self, src: NodeId, dst: NodeId, transfers: Vec<ArrayTransfer>) {
        self.edges.push(Edge { src: src.0, dst: dst.0, transfers });
    }

    /// Current number of compute nodes added.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Validate and seal the graph. START/STOP are appended and wired to
    /// all sources/sinks; node ids handed out by [`MdgBuilder::compute`]
    /// are shifted by +1 to make room for START at index 0.
    ///
    /// This is the one place node costs are checked: `tau` first, so a
    /// `tau` that overflowed to infinity is reported as such rather than
    /// through the NaN `alpha` derived from it.
    pub fn finish(self) -> Result<Mdg, MdgError> {
        self.finish_indexed().map_err(|(e, _)| e)
    }

    /// [`MdgBuilder::finish`], which also returns, with an error that an
    /// edge caused, that edge's index in the order of the
    /// [`MdgBuilder::edge`] calls.
    pub(crate) fn finish_indexed(self) -> Result<Mdg, (MdgError, Option<usize>)> {
        if self.nodes.is_empty() {
            return Err((MdgError::Empty, None));
        }
        for (node, n) in self.nodes.iter().enumerate() {
            let AmdahlParams { alpha, tau } = n.cost;
            if !(tau.is_finite() && tau >= 0.0) {
                return Err((MdgError::InvalidCost { node, param: CostParam::Tau }, None));
            }
            if !(0.0..=1.0).contains(&alpha) {
                return Err((MdgError::InvalidCost { node, param: CostParam::Alpha }, None));
            }
        }
        let user_n = self.nodes.len();
        // The first edge that repeats an earlier `(src, dst)` pair: sort
        // the pairs with their insertion index, and a run of equal pairs
        // repeats at its second index.
        let mut pairs: Vec<(usize, usize, usize)> =
            self.edges.iter().enumerate().map(|(i, e)| (e.src, e.dst, i)).collect();
        pairs.sort_unstable();
        let first_repeat =
            pairs.windows(2).filter(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1)).map(|w| w[1].2).min();
        // Validate user edges before renumbering, reporting the first bad
        // one in insertion order.
        for (i, e) in self.edges.iter().enumerate() {
            let bad = if e.src >= user_n || e.dst >= user_n {
                MdgError::DanglingEdge { src: e.src, dst: e.dst }
            } else if e.src == e.dst {
                MdgError::SelfLoop(e.src)
            } else if first_repeat == Some(i) {
                MdgError::DuplicateEdge { src: e.src, dst: e.dst }
            } else {
                continue;
            };
            return Err((bad, Some(i)));
        }

        // Renumber: START = 0, user nodes = 1..=user_n, STOP = user_n + 1.
        let n = user_n + 2;
        let mut nodes = Vec::with_capacity(n);
        nodes.push(Node {
            name: "START".to_string(),
            kind: NodeKind::Start,
            cost: AmdahlParams::ZERO,
            meta: LoopMeta::synthetic(),
        });
        nodes.extend(self.nodes);
        nodes.push(Node {
            name: "STOP".to_string(),
            kind: NodeKind::Stop,
            cost: AmdahlParams::ZERO,
            meta: LoopMeta::synthetic(),
        });

        // In- and out-degree of node `v` at `[v + 1]`, user edges first:
        // a user node with none in (out) gets an edge from START (to STOP).
        let mut in_off = vec![0usize; n + 1];
        let mut out_off = vec![0usize; n + 1];
        for e in &self.edges {
            in_off[e.dst + 2] += 1;
            out_off[e.src + 2] += 1;
        }
        let wiring: usize =
            (2..n).map(|v| usize::from(in_off[v] == 0) + usize::from(out_off[v] == 0)).sum();
        let mut edges = Vec::with_capacity(self.edges.len() + wiring);
        edges.extend(self.edges.into_iter().map(|e| Edge {
            src: e.src + 1,
            dst: e.dst + 1,
            transfers: e.transfers,
        }));
        for v in 1..=user_n {
            if in_off[v + 1] == 0 {
                edges.push(Edge { src: 0, dst: v, transfers: Vec::new() });
                in_off[v + 1] = 1;
                out_off[1] += 1;
            }
            if out_off[v + 1] == 0 {
                edges.push(Edge { src: v, dst: n - 1, transfers: Vec::new() });
                out_off[v + 1] = 1;
                in_off[n] += 1;
            }
        }
        let in_ids = fill_csr(&mut in_off, edges.iter().map(|e| e.dst));
        let out_ids = fill_csr(&mut out_off, edges.iter().map(|e| e.src));

        // Kahn's algorithm for the topological order; detects cycles.
        // `topo` is its FIFO queue too: nodes leave it in the order they
        // entered.
        let mut indeg: Vec<usize> = in_off.windows(2).map(|w| w[1] - w[0]).collect();
        let mut topo: Vec<NodeId> = Vec::with_capacity(n);
        topo.extend((0..n).filter(|&v| indeg[v] == 0).map(NodeId));
        let mut head = 0;
        while let Some(&v) = topo.get(head) {
            head += 1;
            for &e in &out_ids[out_off[v.0]..out_off[v.0 + 1]] {
                let w = edges[e.0].dst;
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    topo.push(NodeId(w));
                }
            }
        }
        if topo.len() != n {
            let stuck = indeg.iter().position(|&d| d > 0).unwrap_or(0);
            return Err((MdgError::Cycle(stuck.saturating_sub(1)), None));
        }

        Ok(Mdg { name: self.name, nodes, edges, in_off, in_ids, out_off, out_ids, topo })
    }
}

/// Row `v` of a CSR pair that [`fill_csr`] built, behind one bounds
/// check, as indexing a `Vec<Vec<EdgeId>>` was. The solver reads
/// `in_edges` on every gradient; fully checked slicing measured ~3 %
/// slower on the benchmark's `compile-paper` workload.
#[inline]
fn csr_row<'a>(off: &[usize], ids: &'a [EdgeId], v: usize) -> &'a [EdgeId] {
    assert!(v < off.len() - 1, "node index out of range");
    // SAFETY: `v + 1 < off.len()` holds by the assert. `fill_csr` left
    // `off` non-decreasing with its last entry `ids.len()`, and an `Mdg`
    // is never changed after `finish`, so `off[v] <= off[v + 1] <=
    // ids.len()`.
    unsafe { ids.get_unchecked(*off.get_unchecked(v)..*off.get_unchecked(v + 1)) }
}

/// Turn the degree counts `off[v + 1]` into CSR offsets and return the
/// edge ids grouped by node: node `v`'s are `ids[off[v]..off[v + 1]]`, in
/// edge-id order. `ends` yields each edge's node on the side `off`
/// counts, in edge-id order.
fn fill_csr(off: &mut [usize], ends: impl Iterator<Item = usize>) -> Vec<EdgeId> {
    for v in 1..off.len() {
        off[v] += off[v - 1];
    }
    let mut ids = vec![EdgeId(0); off[off.len() - 1]];
    // `off[v]` is the next free slot of node `v`; after the pass it is
    // the end of `v`'s run, which is where `v + 1`'s starts.
    for (i, v) in ends.enumerate() {
        ids[off[v]] = EdgeId(i);
        off[v] += 1;
    }
    off.copy_within(..off.len() - 1, 1);
    off[0] = 0;
    ids
}

/// Translate a builder-time node id into the finished graph's id space
/// (builder ids shift by +1 because START is spliced in at index 0).
pub fn builder_id_to_mdg(builder_id: NodeId) -> NodeId {
    NodeId(builder_id.0 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TransferKind;

    fn diamond() -> Mdg {
        // a -> {b, c} -> d
        let mut b = MdgBuilder::new("diamond");
        let na = b.compute("a", AmdahlParams::new(0.1, 1.0));
        let nb = b.compute("b", AmdahlParams::new(0.1, 2.0));
        let nc = b.compute("c", AmdahlParams::new(0.1, 3.0));
        let nd = b.compute("d", AmdahlParams::new(0.1, 1.0));
        b.edge(na, nb, vec![ArrayTransfer::new(1024, TransferKind::OneD)]);
        b.edge(na, nc, vec![ArrayTransfer::new(1024, TransferKind::OneD)]);
        b.edge(nb, nd, vec![]);
        b.edge(nc, nd, vec![]);
        b.finish().unwrap()
    }

    #[test]
    fn builder_adds_start_and_stop() {
        let g = diamond();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.compute_node_count(), 4);
        assert_eq!(g.node(g.start()).kind, NodeKind::Start);
        assert_eq!(g.node(g.stop()).kind, NodeKind::Stop);
    }

    #[test]
    fn start_has_no_preds_stop_has_no_succs() {
        let g = diamond();
        assert!(g.in_edges(g.start()).is_empty());
        assert!(g.out_edges(g.stop()).is_empty());
        assert!(!g.out_edges(g.start()).is_empty());
        assert!(!g.in_edges(g.stop()).is_empty());
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topo_order();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.node_count()];
            for (i, &v) in order.iter().enumerate() {
                p[v.0] = i;
            }
            p
        };
        for (_, e) in g.edges() {
            assert!(pos[e.src] < pos[e.dst], "edge {} -> {} violates topo", e.src, e.dst);
        }
        assert_eq!(order[0], g.start());
        assert_eq!(*order.last().unwrap(), g.stop());
    }

    #[test]
    fn cycle_is_rejected() {
        let mut b = MdgBuilder::new("cyc");
        let x = b.compute("x", AmdahlParams::new(0.0, 1.0));
        let y = b.compute("y", AmdahlParams::new(0.0, 1.0));
        b.edge(x, y, vec![]);
        b.edge(y, x, vec![]);
        assert!(matches!(b.finish(), Err(MdgError::Cycle(_))));
    }

    #[test]
    fn self_loop_is_rejected() {
        let mut b = MdgBuilder::new("self");
        let x = b.compute("x", AmdahlParams::new(0.0, 1.0));
        b.edge(x, x, vec![]);
        assert!(matches!(b.finish(), Err(MdgError::SelfLoop(_))));
    }

    #[test]
    fn duplicate_edge_is_rejected() {
        let mut b = MdgBuilder::new("dup");
        let x = b.compute("x", AmdahlParams::new(0.0, 1.0));
        let y = b.compute("y", AmdahlParams::new(0.0, 1.0));
        b.edge(x, y, vec![]);
        b.edge(x, y, vec![]);
        assert!(matches!(b.finish(), Err(MdgError::DuplicateEdge { .. })));
    }

    #[test]
    fn dangling_edge_is_rejected() {
        let mut b = MdgBuilder::new("dangle");
        let x = b.compute("x", AmdahlParams::new(0.0, 1.0));
        b.edge(x, NodeId(99), vec![]);
        assert!(matches!(b.finish(), Err(MdgError::DanglingEdge { .. })));
    }

    #[test]
    fn empty_graph_is_rejected() {
        let b = MdgBuilder::new("empty");
        assert!(matches!(b.finish(), Err(MdgError::Empty)));
    }

    #[test]
    fn out_of_range_costs_are_rejected() {
        let one = |alpha, tau| {
            let mut b = MdgBuilder::new("cost");
            b.compute("ok", AmdahlParams::new(0.5, 1.0));
            b.compute("x", AmdahlParams::new(alpha, tau));
            b.finish()
        };
        let bad = |param| Err(MdgError::InvalidCost { node: 1, param });
        assert_eq!(one(1.5, 1.0).map(|_| ()), bad(CostParam::Alpha));
        assert_eq!(one(0.5, -1.0).map(|_| ()), bad(CostParam::Tau));
        assert!(one(1.0, 0.0).is_ok() && one(0.0, 1e308).is_ok());
    }

    #[test]
    fn critical_path_diamond() {
        let g = diamond();
        // Unit node weights, zero edge weights: longest chain is
        // START a (b|c) d STOP with zero-cost START/STOP -> 3 compute hops.
        let cp =
            g.critical_path_with(|v| if g.node(v).is_structural() { 0.0 } else { 1.0 }, |_| 0.0);
        assert!((cp - 3.0).abs() < 1e-12);
    }

    #[test]
    fn critical_path_uses_edge_weights() {
        let g = diamond();
        // Give the a->c edge weight 10: path a -(10)-> c -> d dominates.
        let cp = g.critical_path_with(
            |v| if g.node(v).is_structural() { 0.0 } else { 1.0 },
            |e| {
                let edge = g.edge(e);
                // a is node 1, c is node 3 after renumbering
                if edge.src == 1 && edge.dst == 3 {
                    10.0
                } else {
                    0.0
                }
            },
        );
        assert!((cp - 13.0).abs() < 1e-12);
    }

    #[test]
    fn finish_times_monotone_along_edges() {
        let g = diamond();
        let ft = g.finish_times_with(|v| g.node(v).cost.tau, |_| 0.5);
        for (_, e) in g.edges() {
            assert!(ft[e.dst] >= ft[e.src], "finish times must be monotone along edges");
        }
    }

    #[test]
    fn depths_and_level_widths() {
        let g = diamond();
        let d = g.depths();
        assert_eq!(d[g.start().0], 0);
        // a=1 at depth 1; b=2,c=3 at depth 2; d=4 at depth 3; STOP depth 4.
        assert_eq!(d[1], 1);
        assert_eq!(d[2], 2);
        assert_eq!(d[3], 2);
        assert_eq!(d[4], 3);
        assert_eq!(d[g.stop().0], 4);
        assert_eq!(g.level_widths(), vec![1, 1, 2, 1, 1]);
    }

    #[test]
    fn reachability() {
        let g = diamond();
        assert!(g.reaches(g.start(), g.stop()));
        assert!(g.reaches(NodeId(1), NodeId(4)));
        assert!(!g.reaches(NodeId(2), NodeId(3))); // b and c are parallel
        assert!(!g.reaches(g.stop(), g.start()));
        assert!(g.reaches(NodeId(2), NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "node index out of range")]
    fn out_of_range_node_panics() {
        let g = diamond();
        let _ = g.in_edges(NodeId(g.node_count()));
    }

    #[test]
    fn adjacency_is_in_edge_id_order() {
        let g = diamond();
        for (v, _) in g.nodes() {
            let ins: Vec<EdgeId> =
                g.edges().filter(|(_, e)| e.dst == v.0).map(|(i, _)| i).collect();
            let outs: Vec<EdgeId> =
                g.edges().filter(|(_, e)| e.src == v.0).map(|(i, _)| i).collect();
            assert_eq!((g.in_edges(v), g.out_edges(v)), (&ins[..], &outs[..]), "{v}");
        }
    }

    #[test]
    fn preds_succs_iterators() {
        let g = diamond();
        let d_preds: Vec<NodeId> = g.preds(NodeId(4)).collect();
        assert_eq!(d_preds.len(), 2);
        assert!(d_preds.contains(&NodeId(2)) && d_preds.contains(&NodeId(3)));
        let a_succs: Vec<NodeId> = g.succs(NodeId(1)).collect();
        assert_eq!(a_succs.len(), 2);
    }
}
