//! The structural digest sees every pipeline-visible field: on each
//! gallery graph, every one-field change gives a digest that differs from
//! the original's and from every other change's.

use paradigm_mdg::{
    block_lu_mdg, complex_matmul_mdg, example_fig1_mdg, fft_2d_mdg, fork_join_mdg,
    random_layered_mdg, stencil_mdg, strassen_mdg, strassen_mdg_multilevel, structural_hash,
    ArrayTransfer, KernelCostTable, Mdg, MdgBuilder, Node, NodeId, RandomMdgConfig, TransferKind,
};
use std::collections::BTreeMap;

fn gallery() -> Vec<Mdg> {
    let t = KernelCostTable::cm5();
    vec![
        example_fig1_mdg(),
        complex_matmul_mdg(64, &t),
        strassen_mdg(128, &t),
        strassen_mdg_multilevel(128, 2, &t),
        fft_2d_mdg(64, 4, &t),
        block_lu_mdg(4, 32, &t),
        stencil_mdg(64, 2, 3, &t),
        random_layered_mdg(&RandomMdgConfig::sized(192), 11),
        fork_join_mdg(6, 12, 5),
    ]
}

/// A graph as its builder saw it: compute nodes and user edges in
/// builder ids (START/STOP and their wiring are re-created on build).
#[derive(Clone)]
struct Parts {
    nodes: Vec<Node>,
    edges: Vec<(usize, usize, Vec<ArrayTransfer>)>,
}

fn parts(g: &Mdg) -> Parts {
    let user = |v: usize| !g.node(NodeId(v)).is_structural();
    Parts {
        nodes: g.nodes().filter(|(_, n)| !n.is_structural()).map(|(_, n)| n.clone()).collect(),
        edges: g
            .edges()
            .filter(|(_, e)| user(e.src) && user(e.dst))
            .map(|(_, e)| (e.src - 1, e.dst - 1, e.transfers.clone()))
            .collect(),
    }
}

fn build(p: &Parts) -> Mdg {
    let mut b = MdgBuilder::new("variant");
    for n in &p.nodes {
        b.compute_with_meta(n.name.clone(), n.cost, n.meta.clone());
    }
    for (s, d, t) in &p.edges {
        b.edge(NodeId(*s), NodeId(*d), t.clone());
    }
    b.finish().expect("a one-field change of a valid graph is valid")
}

fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// Every one-field change of `g` the digest must see, labelled.
fn variants(g: &Mdg) -> Vec<(String, Parts)> {
    let base = parts(g);
    let mut out = Vec::new();
    let mut add = |label: String, edit: &dyn Fn(&mut Parts)| {
        let mut p = base.clone();
        edit(&mut p);
        out.push((label, p));
    };
    // alpha = 1 has no valid value one ulp up.
    let k = base.nodes.iter().position(|n| n.cost.alpha < 1.0).expect("a node with alpha < 1");
    add(format!("alpha of node {k} one ulp up"), &|p| {
        p.nodes[k].cost.alpha = next_up(p.nodes[k].cost.alpha)
    });
    add("tau of node 0 one ulp up".into(), &|p| p.nodes[0].cost.tau = next_up(p.nodes[0].cost.tau));
    add("one character of node 0's name".into(), &|p| {
        let name = &mut p.nodes[0].name;
        let c = if name.starts_with('x') { "y" } else { "x" };
        name.replace_range(..1, c);
    });
    add("rows of node 0".into(), &|p| p.nodes[0].meta.rows += 1);
    add("cols of node 0".into(), &|p| p.nodes[0].meta.cols += 1);
    if let Some(e) = base.edges.iter().position(|(_, _, t)| !t.is_empty()) {
        add(format!("bytes of edge {e} + 1"), &|p| p.edges[e].2[0].bytes += 1);
        if base.edges[e].2[0].bytes > 0 {
            add(format!("bytes of edge {e} - 1"), &|p| p.edges[e].2[0].bytes -= 1);
        }
        add(format!("kind of edge {e} flipped"), &|p| {
            let t = &mut p.edges[e].2[0];
            t.kind = match t.kind {
                TransferKind::OneD => TransferKind::TwoD,
                TransferKind::TwoD => TransferKind::OneD,
            };
        });
    }
    add("edge 0 removed".into(), &|p| {
        p.edges.remove(0);
    });
    // A new edge from an earlier to a later node in topological order
    // keeps the graph acyclic.
    let order: Vec<usize> = g
        .topo_order()
        .iter()
        .filter(|v| !g.node(**v).is_structural())
        .map(|v| v.index() - 1)
        .collect();
    let missing = order.iter().enumerate().find_map(|(i, &u)| {
        order[i + 1..]
            .iter()
            .find(|&&v| !base.edges.iter().any(|(s, d, _)| (*s, *d) == (u, v)))
            .map(|&v| (u, v))
    });
    if let Some((u, v)) = missing {
        add(format!("edge {u} -> {v} added"), &|p| p.edges.push((u, v, Vec::new())));
    }
    out
}

#[test]
fn every_one_field_change_moves_the_digest_to_its_own_value() {
    for g in gallery() {
        let mut seen: BTreeMap<u128, String> = BTreeMap::new();
        seen.insert(structural_hash(&build(&parts(&g))), "original".into());
        let variants = variants(&g);
        // Seven changes on nodes and edges, three more on a transfer.
        let transfers = g.edges().any(|(_, e)| !e.transfers.is_empty());
        let expected = if transfers { 10 } else { 7 };
        assert!(variants.len() >= expected, "{}: only {} variants", g.name(), variants.len());
        for (label, p) in variants {
            if let Some(other) = seen.insert(structural_hash(&build(&p)), label.clone()) {
                panic!("{}: `{label}` has the digest of `{other}`", g.name());
            }
        }
    }
}
