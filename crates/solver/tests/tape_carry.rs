//! The carried tape is the built one, to the bit — and a different shape
//! is never attached.
//!
//! [`MdgObjective::detach`] / [`DetachedObjective::attach`] let a caller
//! that solves one graph under moving costs (the consensus tier: a
//! block's ghost and virtual nodes are re-frozen every round) compile
//! once. The contract, held here on every gallery graph and one graph of
//! edge cases, on `cm5(16)`, `cm5(64)` and a mesh with `t_n > 0`:
//! an objective built at costs `c₁` and attached to the same graph at
//! costs `c₂` is **the objective built at `c₂`** — the same compiled
//! program field for field, the same `Phi` / `A_p` /
//! `C_p`, tape slots and gradients bit for bit at `Exact` and at
//! sharpness 8 and 128 — and anything that is structure rather than a
//! cost value (an edge, a transfer, which cost terms are zero, the
//! machine's constants, the node order) makes `attach` refuse, so the
//! caller builds.

use paradigm_cost::{Machine, TransferParams};
use paradigm_mdg::{
    block_lu_mdg, complex_matmul_mdg, example_fig1_mdg, fft_2d_mdg, fork_join_mdg,
    random_layered_mdg, stencil_mdg, strassen_mdg, strassen_mdg_multilevel, AmdahlParams,
    ArrayTransfer, KernelCostTable, Mdg, MdgBuilder, NodeId, RandomMdgConfig, TransferKind,
};
use paradigm_solver::expr::Sharpness;
use paradigm_solver::{EvalScratch, MdgObjective};

/// `g` again with every compute node's cost mapped through `cost` and
/// every data edge's transfers through `xfers`, then `extra` edges
/// (finished-graph node ids) appended.
fn rebuilt(
    g: &Mdg,
    cost: impl Fn(usize, AmdahlParams) -> AmdahlParams,
    xfers: impl Fn(usize, &[ArrayTransfer]) -> Vec<ArrayTransfer>,
    extra: &[(usize, usize)],
) -> Mdg {
    let mut b = MdgBuilder::new(g.name());
    for (id, node) in g.nodes().filter(|(_, node)| !node.is_structural()) {
        b.compute_with_meta(node.name.clone(), cost(id.0, node.cost), node.meta.clone());
    }
    // START / STOP edges are wired by `finish`; builder ids are one below
    // the finished graph's.
    let user = |(_, e): &(_, &paradigm_mdg::Edge)| e.src != g.start().0 && e.dst != g.stop().0;
    for (id, e) in g.edges().filter(user) {
        b.edge(NodeId(e.src - 1), NodeId(e.dst - 1), xfers(id.0, &e.transfers));
    }
    for &(src, dst) in extra {
        b.edge(NodeId(src - 1), NodeId(dst - 1), Vec::new());
    }
    b.finish().expect("the rebuilt graph is a DAG")
}

fn same_xfers(_: usize, t: &[ArrayTransfer]) -> Vec<ArrayTransfer> {
    t.to_vec()
}

/// `c₂`: τ scaled, α moved inside `(0, 1)`, and on every third node a
/// constant folded in the way the block builder folds a ghost's frozen
/// transfers (`α'τ' = ατ + corr`, `(1 − α')τ' = (1 − α)τ`). Which of
/// `ατ`, `(1 − α)τ` are zero is left alone: that is shape.
fn moved_cost(i: usize, c: AmdahlParams) -> AmdahlParams {
    let tau = c.tau * (0.5 + 0.25 * (i % 5) as f64);
    let inside = 0.0 < c.alpha && c.alpha < 1.0;
    let alpha = if inside { (0.7 * c.alpha + 0.05 * (i % 3) as f64).min(0.95) } else { c.alpha };
    if !i.is_multiple_of(3) || alpha == 0.0 || tau == 0.0 {
        return AmdahlParams::new(alpha, tau);
    }
    let corr = 0.37 * tau;
    AmdahlParams::new(((alpha * tau + corr) / (tau + corr)).clamp(0.0, 1.0), tau + corr)
}

/// Serial-only, parallel-only and free nodes, an edge without data, 1D
/// and 2D transfers, two transfers on one edge, independent siblings, and
/// a serial-only node without transfers.
fn edge_cases() -> Mdg {
    let mut b = MdgBuilder::new("edge-cases");
    let a = b.compute("a", AmdahlParams::new(0.2, 3.0));
    let serial = b.compute("serial", AmdahlParams::new(1.0, 2.0));
    let parallel = b.compute("parallel", AmdahlParams::new(0.0, 5.0));
    let free = b.compute("free", AmdahlParams::new(0.4, 0.0));
    let z = b.compute("z", AmdahlParams::new(0.05, 7.0));
    let lone = b.compute("lone", AmdahlParams::new(1.0, 4.0));
    b.edge(a, serial, vec![ArrayTransfer::matrix_1d(64, 64)]);
    b.edge(a, parallel, vec![ArrayTransfer::matrix_2d(32, 32), ArrayTransfer::matrix_1d(8, 8)]);
    b.edge(a, free, Vec::new());
    b.edge(serial, z, vec![ArrayTransfer::matrix_2d(64, 64)]);
    b.edge(parallel, z, vec![ArrayTransfer::matrix_1d(128, 16)]);
    b.edge(free, z, vec![ArrayTransfer::matrix_1d(16, 16)]);
    b.edge(z, lone, Vec::new());
    b.finish().expect("edge-case graph")
}

fn graphs() -> Vec<Mdg> {
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
        edge_cases(),
    ]
}

const SHARPS: [Sharpness; 3] = [Sharpness::Exact, Sharpness::Smooth(8.0), Sharpness::Smooth(128.0)];

/// Everything one record / replay pair produces, as bits: the parts,
/// every slot of the value tape, the gradient under the `Phi`, `A_p` and
/// `C_p` seeds, and the value-only sweep.
fn sweep_bits(obj: &MdgObjective<'_>, x: &[f64], sharp: Sharpness) -> Vec<u64> {
    let mut scratch = EvalScratch::default();
    let mut grad = Vec::new();
    let parts = obj.forward_record(x, sharp, &mut scratch);
    let mut out = vec![parts.phi, parts.a_p, parts.c_p];
    out.extend_from_slice(scratch.tape_values());
    obj.backward_replay_phi(&mut scratch, &mut grad);
    out.extend_from_slice(&grad);
    for (c_seed, area_seed) in [(0.0, 1.0), (1.0, 0.0), (0.3, 0.9)] {
        obj.backward_replay(c_seed, area_seed, &mut scratch, &mut grad);
        out.extend_from_slice(&grad);
    }
    out.push(obj.eval_with(x, sharp, &mut scratch).phi);
    out.into_iter().map(f64::to_bits).collect()
}

#[test]
fn an_attached_objective_is_the_built_one_to_the_bit() {
    for g1 in graphs() {
        let g2 = rebuilt(&g1, moved_cost, same_xfers, &[]);
        for machine in [Machine::cm5(16), Machine::cm5(64), Machine::synthetic_mesh(16)] {
            let tag =
                format!("{} on {} procs, t_n = {}", g1.name(), machine.procs, machine.xfer.t_n);
            let carried = MdgObjective::try_new(&g1, machine).expect("objective at c1").detach();
            let carried = carried.attach(&g2, machine).unwrap_or_else(|| panic!("{tag}: refused"));
            let built = MdgObjective::try_new(&g2, machine).expect("objective at c2");

            let ub = built.x_upper();
            let n = built.num_vars();
            let x: Vec<f64> =
                (0..n).map(|i| ub * (0.15 + 0.7 * ((i * 7 % 11) as f64) / 11.0)).collect();
            for sharp in SHARPS {
                assert_eq!(
                    sweep_bits(&carried, &x, sharp),
                    sweep_bits(&built, &x, sharp),
                    "{tag}: a sweep at {sharp:?} differs"
                );
            }
            assert_eq!(carried.tape_stats(), built.tape_stats(), "{tag}");
            // The whole compiled state, field for field (an `f64` prints
            // the shortest text that reads back to its bits).
            assert_eq!(
                format!("{:?}", carried.detach()),
                format!("{:?}", built.detach()),
                "{tag}: the compiled objectives differ"
            );
        }
    }
}

/// A second round trip, back to the first costs, lands on the first
/// build: attaching writes values, it does not accumulate.
#[test]
fn attaching_twice_returns_to_the_first_build() {
    let g1 = edge_cases();
    let g2 = rebuilt(&g1, moved_cost, same_xfers, &[]);
    let machine = Machine::synthetic_mesh(16);
    let first = format!("{:?}", MdgObjective::new(&g1, machine).detach());
    let there = MdgObjective::new(&g1, machine).detach().attach(&g2, machine).expect("same shape");
    let back = there.detach().attach(&g1, machine).expect("same shape");
    assert_eq!(format!("{:?}", back.detach()), first);
}

#[test]
fn a_different_shape_is_refused() {
    let g = edge_cases();
    let machine = Machine::cm5(16);
    let tape = || MdgObjective::new(&g, machine).detach();
    let keep = |_: usize, c: AmdahlParams| c;
    let node = |name: &str| g.nodes().find(|(_, n)| n.name == name).expect("named node").0 .0;
    let with_cost = |name: &str, alpha: f64, tau: f64| {
        let at = node(name);
        let cost = move |i: usize, c: AmdahlParams| {
            if i == at {
                AmdahlParams::new(alpha, tau)
            } else {
                c
            }
        };
        rebuilt(&g, cost, same_xfers, &[])
    };
    let with_xfer = |edit: fn(ArrayTransfer) -> ArrayTransfer| {
        let xfers = move |e: usize, t: &[ArrayTransfer]| {
            t.iter().map(|&t| if e == 1 { edit(t) } else { t }).collect()
        };
        rebuilt(&g, keep, xfers, &[])
    };

    // The same graph, and one whose costs moved, attach.
    assert!(tape().attach(&g, machine).is_some());
    assert!(tape().attach(&with_cost("a", 0.9, 0.1), machine).is_some());
    // `serial` has transfers, so its one `p^{-1}` term (parallel work plus
    // per-byte transfer cost) is there whatever its `α`: a parallel part
    // appearing is a value, not shape.
    let parallel_part = with_cost("serial", 0.7, 2.0);
    let attached = tape().attach(&parallel_part, machine).expect("alpha 1 -> 0.7 attaches");
    let built = MdgObjective::new(&parallel_part, machine);
    let x: Vec<f64> = (0..g.node_count()).map(|i| 0.3 * (i % 5) as f64).collect();
    for sharp in SHARPS {
        assert_eq!(sweep_bits(&attached, &x, sharp), sweep_bits(&built, &x, sharp), "{sharp:?}");
    }
    assert_eq!(format!("{:?}", attached.detach()), format!("{:?}", built.detach()));
    // Memory per processor is not in the objective.
    let roomy = machine.with_mem_bytes(1 << 40);
    let attached = tape().attach(&g, roomy).expect("same constants");
    assert_eq!(attached.machine().mem_bytes, 1 << 40, "the attached machine is the caller's");

    let refused: Vec<(&str, Mdg, Machine)> = vec![
        (
            "one edge more",
            rebuilt(&g, keep, same_xfers, &[(node("serial"), node("parallel"))]),
            machine,
        ),
        ("a transfer's bytes", with_xfer(|t| ArrayTransfer::new(t.bytes + 8, t.kind)), machine),
        (
            "a transfer's kind",
            with_xfer(|t| {
                let flipped = match t.kind {
                    TransferKind::OneD => TransferKind::TwoD,
                    TransferKind::TwoD => TransferKind::OneD,
                };
                ArrayTransfer::new(t.bytes, flipped)
            }),
            machine,
        ),
        ("alpha 0 -> 0.3", with_cost("parallel", 0.3, 5.0), machine),
        ("alpha 1 -> 0.7 without transfers", with_cost("lone", 0.7, 4.0), machine),
        ("tau 0 -> 1", with_cost("free", 0.4, 1.0), machine),
        ("tau 3 -> 0", with_cost("a", 0.2, 0.0), machine),
        ("more processors", g.clone(), Machine::cm5(32)),
        ("other transfer constants", g.clone(), Machine::synthetic_mesh(16)),
        (
            "a signed zero in the constants",
            g.clone(),
            Machine { xfer: TransferParams { t_n: -0.0, ..machine.xfer }, ..machine },
        ),
    ];
    for (what, other, m) in &refused {
        assert!(tape().attach(other, *m).is_none(), "{what}: attached");
        // The caller's fallback: the inputs themselves are fine.
        assert!(MdgObjective::try_new(other, *m).is_ok(), "{what}");
    }

    // The same nodes declared in another order: another topological
    // order (and other edge endpoints).
    let declared = |order: [&str; 3]| {
        let mut b = MdgBuilder::new("siblings");
        let ids: Vec<NodeId> =
            order.iter().map(|name| b.compute(*name, AmdahlParams::new(0.1, 1.0))).collect();
        let id = |name: &str| ids[order.iter().position(|n| *n == name).expect("declared")];
        b.edge(id("root"), id("left"), Vec::new());
        b.edge(id("root"), id("right"), Vec::new());
        b.finish().expect("siblings")
    };
    let (g1, g2) = (declared(["root", "left", "right"]), declared(["root", "right", "left"]));
    assert_ne!(g1.topo_order(), g2.topo_order());
    assert!(MdgObjective::new(&g1, machine).detach().attach(&g2, machine).is_none());

    // Inputs no objective is built for are refused by `attach` as well,
    // and the build that follows names them.
    let zero_procs = Machine { procs: 0, ..machine };
    assert!(tape().attach(&g, zero_procs).is_none());
    assert!(MdgObjective::try_new(&g, zero_procs).is_err());
}
