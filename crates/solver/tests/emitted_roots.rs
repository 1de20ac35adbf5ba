//! The objective's program, emitted straight from the graph, against the
//! expression trees it stands for: every root of an exact sweep — each
//! node's `T_v` in its slot, each edge's `t^D_e` through
//! `swept_edge_delay` — is `node_expr(v).eval` / `edge_expr(e).eval` to
//! the bit, and a smoothed one within 1e-12. On every gallery graph ×
//! {`cm5(16)`; `cm5(6)`, where `1/p` is inexact; a mesh with `t_n > 0`,
//! whose edges carry `t^D` roots with `±0.5` exponents}, at the box
//! corners and at seeded interior points. The degenerate roots (a lone
//! constant, monomial or startup max, a root without terms) are held by
//! `every_degenerate_root_is_its_tree` in `objective.rs`.

use paradigm_core::{gallery_graph, GALLERY_NAMES};
use paradigm_cost::Machine;
use paradigm_solver::expr::Sharpness;
use paradigm_solver::{EvalScratch, MdgObjective};

/// splitmix64, so the points depend on nothing but this file.
fn next_unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Two corners of `[0, ub]^n`, an alternating one and three seeded
/// interior points.
fn points(n: usize, ub: f64) -> Vec<Vec<f64>> {
    let mut pts = vec![
        vec![0.0; n],
        vec![ub; n],
        (0..n).map(|j| if j % 2 == 0 { 0.0 } else { ub }).collect(),
    ];
    let mut state = 0x51_u64 ^ (n as u64) << 20;
    for _ in 0..3 {
        pts.push((0..n).map(|_| ub * next_unit(&mut state)).collect());
    }
    pts
}

#[test]
fn every_root_of_a_sweep_is_its_tree() {
    let machines = [Machine::cm5(16), Machine::cm5(6), Machine::synthetic_mesh(12)];
    let sharps = [Sharpness::Exact, Sharpness::Smooth(8.0), Sharpness::Smooth(3.7)];
    for name in GALLERY_NAMES {
        let g = gallery_graph(name).expect("gallery graph");
        for machine in machines {
            let tag = format!("{name} on {} procs, t_n = {}", machine.procs, machine.xfer.t_n);
            let obj = MdgObjective::try_new(&g, machine).expect("objective");
            let mut scratch = EvalScratch::default();
            for x in points(g.node_count(), obj.x_upper()) {
                for sharp in sharps {
                    let same = |got: f64, want: f64| match sharp {
                        Sharpness::Exact => got.to_bits() == want.to_bits(),
                        Sharpness::Smooth(_) => (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                    };
                    let _ = obj.eval_with(&x, sharp, &mut scratch);
                    for (id, _) in g.nodes() {
                        let got = scratch.tape_values()[id.0];
                        let want = obj.node_expr(id).eval(&x, sharp);
                        assert!(same(got, want), "{tag} {sharp:?}: T of {id}: {got} vs {want}");
                    }
                    for (id, _) in g.edges() {
                        let got = obj.swept_edge_delay(&scratch, id);
                        let want = obj.edge_expr(id).eval(&x, sharp);
                        assert!(same(got, want), "{tag} {sharp:?}: t^D of {id:?}: {got} vs {want}");
                    }
                }
            }
        }
    }
}
