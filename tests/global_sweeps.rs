//! The ADMM coordinator's global sweep reads the objective's level
//! program, and its per-node `T_v` and per-edge `t^D_e` are the
//! expression trees' values to the bit.
//!
//! `paradigm_admm::global_sweeps` takes both from the root slots of one
//! exact sweep of the program. The tree walk it replaced —
//! `node_expr(v).eval(x, Exact)` and `edge_expr(e).eval(x, Exact)` — stays
//! here as the oracle, on every gallery graph × {`cm5`, a mesh with
//! `t_n > 0`, whose edges carry `t^D` terms} × p ∈ {16, 64}, at the box
//! corners and at seeded interior points.

use paradigm_admm::global_sweeps;
use paradigm_core::{gallery_graph, GALLERY_NAMES};
use paradigm_cost::Machine;
use paradigm_solver::expr::Sharpness;
use paradigm_solver::MdgObjective;

/// splitmix64, so the points depend on nothing but this file.
fn next_unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Four corners of `[0, ub]^n` (both ends, both alternations) and four
/// seeded interior points.
fn points(n: usize, ub: f64) -> Vec<Vec<f64>> {
    let mut pts = vec![
        vec![0.0; n],
        vec![ub; n],
        (0..n).map(|j| if j % 2 == 0 { 0.0 } else { ub }).collect(),
        (0..n).map(|j| if j % 2 == 0 { ub } else { 0.0 }).collect(),
    ];
    let mut state = 0x1994_u64 ^ (n as u64) << 20;
    for _ in 0..4 {
        pts.push((0..n).map(|_| ub * next_unit(&mut state)).collect());
    }
    pts
}

#[test]
fn the_global_sweep_is_the_tree_walk_to_the_bit() {
    for name in GALLERY_NAMES {
        let g = gallery_graph(name).expect("gallery graph");
        for procs in [16, 64] {
            assert!(Machine::synthetic_mesh(procs).xfer.t_n > 0.0);
            for machine in [Machine::cm5(procs), Machine::synthetic_mesh(procs)] {
                let tag = format!("{name} on {procs} procs, t_n = {}", machine.xfer.t_n);
                let obj = MdgObjective::try_new(&g, machine).expect("objective");
                for x in points(g.node_count(), obj.x_upper()) {
                    let sw = global_sweeps(&obj, &x);
                    for (id, _) in g.nodes() {
                        let tree = obj.node_expr(id).eval(&x, Sharpness::Exact);
                        assert_eq!(sw.t[id.0].to_bits(), tree.to_bits(), "{tag}: T of {id}");
                    }
                    for (id, _) in g.edges() {
                        let tree = obj.edge_expr(id).eval(&x, Sharpness::Exact);
                        assert_eq!(sw.d[id.0].to_bits(), tree.to_bits(), "{tag}: t^D of {}", id.0);
                    }
                }
            }
        }
    }
}
