//! Invariant checking for finished MDGs.
//!
//! [`MdgBuilder::finish`](crate::MdgBuilder::finish) establishes the
//! invariants, and it is the only way to make an [`Mdg`], so every graph
//! passes these checks by construction. They are the builder's test
//! oracle: the property tests run them over random, transformed and
//! front-end graphs to show that `finish` keeps its promise.

use crate::graph::{Mdg, NodeId};
use crate::node::NodeKind;

/// A violated invariant, with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation(pub String);

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MDG invariant violated: {}", self.0)
    }
}

impl std::error::Error for InvariantViolation {}

/// Check every structural and cost invariant of a finished MDG. Returns
/// the first violation found, or `Ok(())`.
pub fn check_invariants(g: &Mdg) -> Result<(), InvariantViolation> {
    let n = g.node_count();
    if n < 2 {
        return Err(InvariantViolation("graph must contain START and STOP".into()));
    }
    if g.node(g.start()).kind != NodeKind::Start {
        return Err(InvariantViolation("node 0 is not START".into()));
    }
    if g.node(g.stop()).kind != NodeKind::Stop {
        return Err(InvariantViolation(format!("node {} is not STOP", n - 1)));
    }
    for (id, node) in g.nodes() {
        if node.is_structural() && node.cost.tau != 0.0 {
            return Err(InvariantViolation(format!("structural node {id} has non-zero cost")));
        }
        if id != g.start() && id != g.stop() && node.kind != NodeKind::Compute {
            return Err(InvariantViolation(format!("interior node {id} is not Compute")));
        }
        let c = node.cost;
        if !((0.0..=1.0).contains(&c.alpha) && c.tau.is_finite() && c.tau >= 0.0) {
            return Err(InvariantViolation(format!(
                "node {id} has an Amdahl cost outside alpha in [0, 1], 0 <= tau < inf \
                 (alpha = {}, tau = {})",
                c.alpha, c.tau
            )));
        }
    }
    // Topological order sanity.
    let order = g.topo_order();
    if order.len() != n {
        return Err(InvariantViolation("topological order length mismatch".into()));
    }
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        if pos[v.0] != usize::MAX {
            return Err(InvariantViolation(format!("node {v} appears twice in topo order")));
        }
        pos[v.0] = i;
    }
    for (_, e) in g.edges() {
        if e.src == e.dst {
            return Err(InvariantViolation(format!("self loop on {}", e.src)));
        }
        if pos[e.src] >= pos[e.dst] {
            return Err(InvariantViolation(format!(
                "edge {} -> {} contradicts topological order",
                e.src, e.dst
            )));
        }
    }
    // Every compute node reachable from START and reaching STOP.
    for (id, node) in g.nodes() {
        if node.kind == NodeKind::Compute {
            if !g.reaches(g.start(), id) {
                return Err(InvariantViolation(format!("{id} unreachable from START")));
            }
            if !g.reaches(id, g.stop()) {
                return Err(InvariantViolation(format!("{id} does not reach STOP")));
            }
        }
    }
    // START precedes everything, STOP succeeds everything (transitively) —
    // the FORK/JOIN property from the paper.
    if !g.in_edges(g.start()).is_empty() {
        return Err(InvariantViolation("START has predecessors".into()));
    }
    if !g.out_edges(g.stop()).is_empty() {
        return Err(InvariantViolation("STOP has successors".into()));
    }
    Ok(())
}

/// Convenience: check and panic with the violation message (for tests).
pub fn assert_invariants(g: &Mdg) {
    if let Err(v) = check_invariants(g) {
        panic!("{v}");
    }
}

/// True if node `id` lies on *some* START→STOP path that realizes the
/// critical path under the given weights (within `tol`). Useful when
/// explaining schedules.
pub fn on_critical_path<NW, EW>(
    g: &Mdg,
    id: NodeId,
    mut node_w: NW,
    mut edge_w: EW,
    tol: f64,
) -> bool
where
    NW: FnMut(NodeId) -> f64,
    EW: FnMut(crate::graph::EdgeId) -> f64,
{
    // Forward pass: earliest finish.
    let finish = g.finish_times_with(&mut node_w, &mut edge_w);
    let total = finish[g.stop().0];
    // Backward pass: latest start that still meets `total`.
    let n = g.node_count();
    let mut latest_finish = vec![f64::INFINITY; n];
    latest_finish[g.stop().0] = total;
    for &v in g.topo_order().iter().rev() {
        let lf = latest_finish[v.0];
        let w = node_w(v);
        let latest_start = lf - w;
        for &e in g.in_edges(v) {
            let m = g.edge(e).src;
            let cand = latest_start - edge_w(e);
            if cand < latest_finish[m] {
                latest_finish[m] = cand;
            }
        }
    }
    // Node is critical iff earliest finish == latest finish.
    (finish[id.0] - latest_finish[id.0]).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MdgBuilder;
    use crate::node::AmdahlParams;

    fn chain3() -> Mdg {
        let mut b = MdgBuilder::new("chain3");
        let a = b.compute("a", AmdahlParams::new(0.0, 1.0));
        let c = b.compute("c", AmdahlParams::new(0.0, 2.0));
        let d = b.compute("d", AmdahlParams::new(0.0, 3.0));
        b.edge(a, c, vec![]);
        b.edge(c, d, vec![]);
        b.finish().unwrap()
    }

    #[test]
    fn built_graphs_pass_invariants() {
        assert_invariants(&chain3());
    }

    #[test]
    fn all_chain_nodes_are_critical() {
        let g = chain3();
        for (id, n) in g.nodes() {
            if !n.is_structural() {
                assert!(on_critical_path(&g, id, |v| g.node(v).cost.tau, |_| 0.0, 1e-9));
            }
        }
    }

    #[test]
    fn non_critical_branch_detected() {
        // a -> b(10) -> d ; a -> c(1) -> d : c is slack.
        let mut bld = MdgBuilder::new("branch");
        let a = bld.compute("a", AmdahlParams::new(0.0, 1.0));
        let b = bld.compute("b", AmdahlParams::new(0.0, 10.0));
        let c = bld.compute("c", AmdahlParams::new(0.0, 1.0));
        let d = bld.compute("d", AmdahlParams::new(0.0, 1.0));
        bld.edge(a, b, vec![]);
        bld.edge(a, c, vec![]);
        bld.edge(b, d, vec![]);
        bld.edge(c, d, vec![]);
        let g = bld.finish().unwrap();
        let nw = |v: NodeId| g.node(v).cost.tau;
        // builder a=0 -> mdg 1, b -> 2, c -> 3, d -> 4
        assert!(on_critical_path(&g, NodeId(2), nw, |_| 0.0, 1e-9));
        assert!(!on_critical_path(&g, NodeId(3), nw, |_| 0.0, 1e-9));
    }
}
