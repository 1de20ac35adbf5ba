//! Graph transformations on MDGs.
//!
//! The paper contrasts its *top-down* allocation (start from heavyweight
//! nodes, split the machine) with the *bottom-up* school (Sarkar;
//! Gerasoulis & Yang) that coalesces lightweight nodes into larger ones.
//! [`fuse_serial_chains`] implements the canonical bottom-up move —
//! merging a node with its only successor when that successor has no
//! other predecessor — which removes internal transfer overhead at the
//! price of lost intra-chain flexibility. The chain-fusion ablation uses it to
//! quantify that trade on random workloads.
//!
//! [`transitive_reduction`] removes redundant precedence edges (keeping
//! every data-carrying edge: deleting those would delete real
//! communication).

use crate::graph::{Mdg, MdgBuilder, MdgError, NodeId};
use crate::node::{AmdahlParams, NodeKind};

/// Fuse maximal serial chains: whenever `u -> v` is the *only* out-edge
/// of `u` and the *only* in-edge of `v` (both compute nodes), merge the
/// two into one node with
///
/// * `tau = tau_u + tau_v` (work adds),
/// * `alpha = (alpha_u tau_u + alpha_v tau_v) / (tau_u + tau_v)`
///   (work-weighted serial fraction, exact for Amdahl costs executed
///   back to back on the same group),
/// * the internal transfer dropped (the data never leaves the group).
///
/// Kernel metadata degenerates to synthetic (a fused node is no longer a
/// single loop), so fused graphs are for scheduling studies, not
/// simulator value-checks. Returns the fused graph and the number of
/// merges performed, or `finish`'s error when a fused cost leaves the
/// valid range (a `tau` sum that overflows to infinity).
pub fn fuse_serial_chains(g: &Mdg) -> Result<(Mdg, usize), MdgError> {
    let n = g.node_count();
    // Union of chains: next[u] = v when (u, v) is fusible.
    let mut next: Vec<Option<usize>> = vec![None; n];
    let mut has_fused_pred = vec![false; n];
    for (id, node) in g.nodes() {
        if node.kind != NodeKind::Compute {
            continue;
        }
        let outs = g.out_edges(id);
        if outs.len() != 1 {
            continue;
        }
        let e = g.edge(outs[0]);
        let v = NodeId(e.dst);
        if g.node(v).kind != NodeKind::Compute {
            continue;
        }
        if g.in_edges(v).len() != 1 {
            continue;
        }
        next[id.0] = Some(v.0);
        has_fused_pred[v.0] = true;
    }
    // Chain heads: fusible nodes without a fused predecessor.
    let mut chain_of = vec![usize::MAX; n]; // representative head per node
    let mut chains: Vec<Vec<usize>> = Vec::new();
    for (id, node) in g.nodes() {
        if node.kind != NodeKind::Compute || has_fused_pred[id.0] {
            continue;
        }
        let mut chain = vec![id.0];
        let mut cur = id.0;
        while let Some(v) = next[cur] {
            chain.push(v);
            cur = v;
        }
        for &m in &chain {
            chain_of[m] = chains.len();
        }
        chains.push(chain);
    }

    let mut merges = 0usize;
    let mut b = MdgBuilder::new(format!("{}-fused", g.name()));
    let mut new_id: Vec<Option<NodeId>> = vec![None; chains.len()];
    for (ci, chain) in chains.iter().enumerate() {
        let mut tau = 0.0;
        let mut alpha_tau = 0.0;
        let mut names = Vec::new();
        for &m in chain {
            let node = g.node(NodeId(m));
            tau += node.cost.tau;
            alpha_tau += node.cost.alpha * node.cost.tau;
            names.push(node.name.clone());
        }
        merges += chain.len().saturating_sub(1);
        let alpha = if tau > 0.0 { (alpha_tau / tau).clamp(0.0, 1.0) } else { 0.0 };
        let name = if names.len() == 1 { names.remove(0) } else { names.join(" ; ") };
        new_id[ci] = Some(b.compute(name, AmdahlParams::new(alpha, tau)));
    }
    // Edges: between chains only; intra-chain edges disappear. Multiple
    // parallel edges between the same chain pair merge their transfers.
    let mut pair_transfers: std::collections::BTreeMap<
        (usize, usize),
        Vec<crate::node::ArrayTransfer>,
    > = std::collections::BTreeMap::new();
    for (_, e) in g.edges() {
        let (cu, cv) = (chain_of[e.src], chain_of[e.dst]);
        if cu == usize::MAX || cv == usize::MAX || cu == cv {
            continue; // structural endpoint or intra-chain edge
        }
        pair_transfers.entry((cu, cv)).or_default().extend(e.transfers.iter().copied());
    }
    for ((cu, cv), transfers) in pair_transfers {
        let u = new_id[cu].expect("chain exists");
        let v = new_id[cv].expect("chain exists");
        b.edge(u, v, transfers);
    }
    Ok((b.finish()?, merges))
}

/// Remove every data-less precedence edge that is implied transitively
/// by the remaining edges. Data-carrying edges are always kept.
/// Returns the reduced graph and the number of edges removed.
pub fn transitive_reduction(g: &Mdg) -> (Mdg, usize) {
    let n = g.node_count();
    // Reachability via DFS per node over the full edge set minus the
    // candidate edge: an edge (u, v) is redundant if v stays reachable
    // from u without it.
    let mut removed = 0usize;
    let mut keep = vec![true; g.edge_count()];
    for (eid, e) in g.edges() {
        if !e.transfers.is_empty() {
            continue; // data edges are real communication
        }
        // BFS from e.src avoiding edge eid.
        let mut seen = vec![false; n];
        let mut stack = vec![e.src];
        seen[e.src] = true;
        let mut reachable = false;
        while let Some(u) = stack.pop() {
            for &oe in g.out_edges(NodeId(u)) {
                if oe == eid || !keep[oe.0] {
                    continue;
                }
                let w = g.edge(oe).dst;
                if w == e.dst {
                    reachable = true;
                    stack.clear();
                    break;
                }
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        if reachable {
            keep[eid.0] = false;
            removed += 1;
        }
    }
    // Rebuild without the removed edges. Compute-node ids shift by -1 in
    // the builder, then back by +1 on finish, preserving names/costs.
    let mut b = MdgBuilder::new(format!("{}-reduced", g.name()));
    let mut remap = vec![None; n];
    for (id, node) in g.nodes() {
        if node.kind == NodeKind::Compute {
            remap[id.0] =
                Some(b.compute_with_meta(node.name.clone(), node.cost, node.meta.clone()));
        }
    }
    for (eid, e) in g.edges() {
        if !keep[eid.0] {
            continue;
        }
        if let (Some(u), Some(v)) = (remap[e.src], remap[e.dst]) {
            b.edge(u, v, e.transfers.clone());
        }
        // Edges touching START/STOP are re-created by the builder.
    }
    (b.finish().expect("reduction preserves acyclicity"), removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::example_fig1_mdg;
    use crate::node::{ArrayTransfer, TransferKind};
    use crate::random::{random_layered_mdg, RandomMdgConfig};
    use crate::stats::MdgStats;
    use crate::validate::assert_invariants;

    fn chain(taus: &[f64]) -> Mdg {
        let mut b = MdgBuilder::new("chain");
        let mut prev: Option<NodeId> = None;
        for (i, &t) in taus.iter().enumerate() {
            let v = b.compute(format!("n{i}"), AmdahlParams::new(0.1, t));
            if let Some(p) = prev {
                b.edge(p, v, vec![ArrayTransfer::new(1024, TransferKind::OneD)]);
            }
            prev = Some(v);
        }
        b.finish().unwrap()
    }

    #[test]
    fn chain_fuses_to_single_node() {
        let g = chain(&[1.0, 2.0, 3.0]);
        let (f, merges) = fuse_serial_chains(&g).unwrap();
        assert_eq!(merges, 2);
        assert_eq!(f.compute_node_count(), 1);
        assert_invariants(&f);
        let node = f.nodes().find(|(_, n)| n.kind == NodeKind::Compute).unwrap().1;
        assert!((node.cost.tau - 6.0).abs() < 1e-12, "work adds");
        assert!((node.cost.alpha - 0.1).abs() < 1e-12, "uniform alpha preserved");
        assert!(node.name.contains(';'));
    }

    #[test]
    fn fusion_preserves_serial_time() {
        let cfg = RandomMdgConfig::default();
        for seed in 0..10 {
            let g = random_layered_mdg(&cfg, seed);
            let (f, _) = fuse_serial_chains(&g).unwrap();
            assert_invariants(&f);
            let a = MdgStats::of(&g).serial_time;
            let b = MdgStats::of(&f).serial_time;
            assert!((a - b).abs() < 1e-9 * a.max(1.0), "seed {seed}: {a} vs {b}");
        }
    }

    #[test]
    fn fusion_weighted_alpha() {
        // alpha mix: (0.0*1 + 0.3*3) / 4 = 0.225
        let mut b = MdgBuilder::new("mix");
        let u = b.compute("u", AmdahlParams::new(0.0, 1.0));
        let v = b.compute("v", AmdahlParams::new(0.3, 3.0));
        b.edge(u, v, vec![]);
        let g = b.finish().unwrap();
        let (f, merges) = fuse_serial_chains(&g).unwrap();
        assert_eq!(merges, 1);
        let node = f.nodes().find(|(_, n)| n.kind == NodeKind::Compute).unwrap().1;
        assert!((node.cost.alpha - 0.225).abs() < 1e-12);
    }

    #[test]
    fn fork_join_does_not_fuse_across_branches() {
        let g = example_fig1_mdg(); // N1 -> {N2, N3}: nothing fusible
        let (f, merges) = fuse_serial_chains(&g).unwrap();
        assert_eq!(merges, 0);
        assert_eq!(f.compute_node_count(), 3);
    }

    #[test]
    fn diamond_fuses_nothing_but_reduction_removes_shortcut() {
        // a -> b -> d, a -> d (redundant, data-less)
        let mut bld = MdgBuilder::new("shortcut");
        let a = bld.compute("a", AmdahlParams::new(0.0, 1.0));
        let b = bld.compute("b", AmdahlParams::new(0.0, 1.0));
        let d = bld.compute("d", AmdahlParams::new(0.0, 1.0));
        bld.edge(a, b, vec![]);
        bld.edge(b, d, vec![]);
        bld.edge(a, d, vec![]);
        let g = bld.finish().unwrap();
        let (r, removed) = transitive_reduction(&g);
        assert_eq!(removed, 1);
        assert_invariants(&r);
        // Critical path unchanged.
        let cp_g = g.critical_path_with(|v| g.node(v).cost.tau, |_| 0.0);
        let cp_r = r.critical_path_with(|v| r.node(v).cost.tau, |_| 0.0);
        assert!((cp_g - cp_r).abs() < 1e-12);
    }

    #[test]
    fn reduction_keeps_data_edges() {
        let mut bld = MdgBuilder::new("data-shortcut");
        let a = bld.compute("a", AmdahlParams::new(0.0, 1.0));
        let b = bld.compute("b", AmdahlParams::new(0.0, 1.0));
        let d = bld.compute("d", AmdahlParams::new(0.0, 1.0));
        bld.edge(a, b, vec![]);
        bld.edge(b, d, vec![]);
        // The shortcut carries data: must survive.
        bld.edge(a, d, vec![ArrayTransfer::new(2048, TransferKind::TwoD)]);
        let g = bld.finish().unwrap();
        let (r, removed) = transitive_reduction(&g);
        assert_eq!(removed, 0);
        let data_edges = r.edges().filter(|(_, e)| !e.transfers.is_empty()).count();
        assert_eq!(data_edges, 1);
    }

    #[test]
    fn reduction_preserves_reachability_on_random_graphs() {
        let cfg = RandomMdgConfig { edge_prob: 0.8, ..RandomMdgConfig::default() };
        for seed in 0..6 {
            let g = random_layered_mdg(&cfg, seed);
            let (r, _) = transitive_reduction(&g);
            assert_invariants(&r);
            // Same compute node count, same or fewer edges.
            assert_eq!(r.compute_node_count(), g.compute_node_count());
            assert!(r.edge_count() <= g.edge_count());
        }
    }
}
