//! The objective's node expressions collect like terms — `T_v` is `α·τ`,
//! one `c_v·p_v^{-1}` monomial (the parallel work plus every transfer's
//! per-byte cost) and one startup term per transfer kind per edge side —
//! and stay the paper's Eqs. 1–3 while doing so.
//!
//! Two nets, over every gallery graph plus one graph whose edges mix
//! transfer kinds:
//! - an oracle: at all-equal and seeded non-uniform points each node's
//!   expression, evaluated exactly, is `paradigm-cost`'s per-transfer
//!   `T_v` to 1e-13 relative on `cm5(16)` and `synthetic_mesh(12)`, and
//!   `Phi`, `A_p` and `C_p` are the cost crate's on the `t_n = 0` machine
//!   (the mesh's `t^D` is the monomial bound of DESIGN.md §5, not the
//!   exact max);
//! - a count gate on the compiled program's monomials and, of them, its
//!   constants, so a rewrite that emits the per-transfer form again, or
//!   compiles the all-zero `t^D` of a `t_n = 0` machine, fails here, not
//!   in a timing.

use paradigm_cost::{Machine, MdgWeights};
use paradigm_mdg::{
    block_lu_mdg, complex_matmul_mdg, example_fig1_mdg, fft_2d_mdg, fork_join_mdg,
    random_layered_mdg, stencil_mdg, strassen_mdg, strassen_mdg_multilevel, AmdahlParams,
    ArrayTransfer, Edge, KernelCostTable, Mdg, MdgBuilder, RandomMdgConfig, TransferKind,
};
use paradigm_solver::expr::Sharpness;
use paradigm_solver::MdgObjective;

/// One edge with a 2D and two 1D transfers, one with only 2D, one without
/// data, and a node without any transfer.
fn mixed_kinds() -> Mdg {
    let mut b = MdgBuilder::new("mixed-kinds");
    let a = b.compute("a", AmdahlParams::new(0.2, 3.0));
    let c = b.compute("c", AmdahlParams::new(1.0, 2.0));
    let d = b.compute("d", AmdahlParams::new(0.0, 5.0));
    let e = b.compute("e", AmdahlParams::new(0.5, 1.0));
    let mixed = vec![
        ArrayTransfer::matrix_1d(64, 64),
        ArrayTransfer::matrix_2d(32, 32),
        ArrayTransfer::matrix_1d(8, 8),
    ];
    b.edge(a, c, mixed);
    b.edge(a, d, vec![ArrayTransfer::matrix_2d(16, 16)]);
    b.edge(c, d, Vec::new());
    b.edge(d, e, Vec::new());
    b.finish().expect("mixed-kinds graph")
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
        mixed_kinds(),
    ]
}

/// splitmix64 to `[0, 1)`.
fn next_unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as f64 / 2f64.powi(64)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-13 * b.abs()
}

#[test]
fn node_expressions_are_the_cost_crates_node_weights() {
    let mut state = 1994;
    for g in graphs() {
        for machine in [Machine::cm5(16), Machine::synthetic_mesh(12)] {
            let obj = MdgObjective::new(&g, machine);
            let ub = obj.x_upper();
            // Three all-equal points, where every 1D startup max ties, then
            // six seeded ones.
            for point in 0..9 {
                let mut draw = || match point {
                    0..3 => ub * point as f64 / 2.0,
                    _ => ub * next_unit(&mut state),
                };
                let x: Vec<f64> = (0..g.node_count()).map(|_| draw()).collect();
                let alloc = obj.allocation_from_x(&x);
                let w = MdgWeights::compute(&g, &machine, &alloc);
                let tag = format!("{} on {} procs, point {point}", g.name(), machine.procs);
                for (v, node) in g.nodes() {
                    let (t, want) =
                        (obj.node_expr(v).eval(&x, Sharpness::Exact), w.node_total[v.0]);
                    assert!(close(t, want), "{tag}, node {}: {t} vs {want}", node.name);
                }
                if machine.xfer.t_n > 0.0 {
                    continue;
                }
                let (parts, exact) = (obj.eval(&x, Sharpness::Exact), w.phi(&g));
                for (what, got, want) in [
                    ("Phi", parts.phi, exact.phi),
                    ("A_p", parts.a_p, exact.a_p),
                    ("C_p", parts.c_p, exact.c_p),
                ] {
                    assert!(close(got, want), "{tag}: {what} {got} vs {want}");
                }
            }
        }
    }
}

/// The compiled program's monomials, counted from the graph: per node its
/// non-zero coefficients (`α·τ`; `c_v`, non-zero where the node has
/// parallel work or transfers with bytes) and per edge side
/// `2·[has 1D] + [has 2D]` (a startup max of two monomials, a 2D startup
/// monomial); per edge, only when `t_n > 0`, its `t^D`, one monomial per
/// transfer kind (with `t_n = 0` every `t^D` is zero and no edge root is
/// compiled). A root without any term counts as one zero monomial (a sum
/// without children).
/// Of them, the constants: per node `α·τ` and the constant candidate of
/// each 1D startup max, and every root without a term.
#[test]
fn the_program_has_one_monomial_per_collected_term() {
    // `[has 1D, has 2D]` of an edge.
    let kinds = |e: &Edge| {
        [TransferKind::OneD, TransferKind::TwoD]
            .map(|kind| e.transfers.iter().any(|t| t.kind == kind) as usize)
    };
    for g in graphs() {
        for machine in [Machine::cm5(16), Machine::cm5(6), Machine::synthetic_mesh(12)] {
            // Per root, `(monomials, constants)`.
            let node_terms = g.nodes().map(|(v, node)| {
                let c = node.cost;
                let adjacent = g.in_edges(v).iter().chain(g.out_edges(v)).map(|&e| g.edge(e));
                let bytes: u64 = adjacent.clone().flat_map(|e| &e.transfers).map(|t| t.bytes).sum();
                let serial = (c.tau > 0.0 && c.alpha > 0.0) as usize;
                let coeffs = serial + (c.tau > 0.0 && c.alpha < 1.0 || bytes > 0) as usize;
                let [one_d, two_d] =
                    adjacent.map(kinds).fold([0, 0], |[a, b], [k1, k2]| [a + k1, b + k2]);
                let terms = coeffs + 2 * one_d + two_d;
                (terms.max(1), serial + one_d + (terms == 0) as usize)
            });
            let network = g.edges().filter(|_| machine.xfer.t_n > 0.0).map(|(_, e)| {
                let terms = kinds(e).iter().sum::<usize>();
                (terms.max(1), (terms == 0) as usize)
            });
            let want = node_terms.chain(network).fold((0, 0), |(m, k), (dm, dk)| (m + dm, k + dk));
            let stats = MdgObjective::new(&g, machine).tape_stats();
            let tag =
                format!("{} on {} procs, t_n = {}", g.name(), machine.procs, machine.xfer.t_n);
            assert_eq!((stats.monomials, stats.constants), want, "{tag}: {stats:?}");
        }
    }
}
