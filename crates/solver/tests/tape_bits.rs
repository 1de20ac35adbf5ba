//! Sweep-level bit pins: an FNV-1a hash over `to_bits` of everything one
//! forward/backward sweep pair produces — `Phi`, `A_p`, `C_p`, `∇Phi`,
//! `∇A_p`, `∇C_p`.
//!
//! The solve-level goldens (`golden.rs`, the ADMM golden, the root
//! `pipeline.rs`) pin whole trajectories, but only on power-of-two
//! machines and the two shipped annealing schedules. This net sits one
//! level below: five graphs × three machines (`cm5(16)`; `cm5(6)`, where
//! `1/p` is inexact; a mesh with `t_n > 0`, which gives the edge
//! expressions their `±0.5`-exponent monomials) × seven sharpness values
//! (`Exact`, the power-of-two tier, an odd integer, a non-integer) ×
//! twelve points (box corners, all-equal points, seeded interior points).
//!
//! Constants captured at commit 25fb91b (the parent of the level-program
//! rewrite; x86-64 Linux, glibc libm) and unchanged by it. A platform
//! whose `exp`/`powf` round differently may legitimately move them —
//! re-capture there (the failure message prints the table) rather than
//! loosening the comparison.

use paradigm_cost::Machine;
use paradigm_mdg::{
    complex_matmul_mdg, example_fig1_mdg, fork_join_mdg, strassen_mdg, strassen_mdg_multilevel,
    KernelCostTable, Mdg,
};
use paradigm_solver::expr::Sharpness;
use paradigm_solver::objective::ObjectiveParts;
use paradigm_solver::{EvalScratch, MdgObjective};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn f64s(&mut self, vals: &[f64]) {
        for v in vals {
            for byte in v.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    fn parts(&mut self, p: &ObjectiveParts) {
        self.f64s(&[p.phi, p.a_p, p.c_p]);
    }
}

/// splitmix64, so the points depend on nothing but this file.
fn next_unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Twelve points of `[0, ub]^n`: two box corners, two all-equal points
/// (`ub/3` is inexact), two alternating corners, six seeded interior.
fn points(n: usize, ub: f64) -> Vec<Vec<f64>> {
    let mut pts = vec![
        vec![0.0; n],
        vec![ub; n],
        vec![ub / 2.0; n],
        vec![ub / 3.0; n],
        (0..n).map(|j| if j % 2 == 0 { 0.0 } else { ub }).collect(),
        (0..n).map(|j| if j % 2 == 0 { ub } else { 0.0 }).collect(),
    ];
    let mut state = 0x1994_u64 ^ (n as u64) << 20;
    for _ in 0..6 {
        pts.push((0..n).map(|_| ub * next_unit(&mut state)).collect());
    }
    pts
}

const SHARPS: [Sharpness; 7] = [
    Sharpness::Exact,
    Sharpness::Smooth(4.0),
    Sharpness::Smooth(8.0),
    Sharpness::Smooth(64.0),
    Sharpness::Smooth(256.0),
    Sharpness::Smooth(3.0),
    Sharpness::Smooth(3.7),
];

/// Record, replay under the three seeds, and the value-only sweep, at
/// every point and sharpness.
fn sweep_hash(obj: &MdgObjective<'_>, pts: &[Vec<f64>]) -> u64 {
    let mut h = Fnv::new();
    let scratch = &mut EvalScratch::default();
    let mut grad = Vec::new();
    for sharp in SHARPS {
        for x in pts {
            let parts = obj.forward_record(x, sharp, scratch);
            h.parts(&parts);
            obj.backward_replay_phi(scratch, &mut grad);
            h.f64s(&grad);
            obj.backward_replay(0.0, 1.0, scratch, &mut grad);
            h.f64s(&grad);
            obj.backward_replay(1.0, 0.0, scratch, &mut grad);
            h.f64s(&grad);
            h.parts(&obj.eval_with(x, sharp, scratch));
        }
    }
    h.0
}

#[test]
fn sweep_outputs_are_pinned_to_the_bit() {
    let t = KernelCostTable::cm5();
    let graphs: [(&str, Mdg); 5] = [
        ("fig1", example_fig1_mdg()),
        ("cmm", complex_matmul_mdg(64, &t)),
        ("strassen", strassen_mdg(128, &t)),
        ("fork-join", fork_join_mdg(6, 12, 5)),
        ("strassen-ml", strassen_mdg_multilevel(128, 2, &t)),
    ];
    // `mesh(12)`: an explicit network term on a non-power-of-two machine.
    let machines = [
        ("cm5(16)", Machine::cm5(16)),
        ("cm5(6)", Machine::cm5(6)),
        ("mesh(12)", Machine::synthetic_mesh(12)),
    ];
    let mut got = Vec::new();
    for (gname, g) in &graphs {
        for (mname, m) in &machines {
            let obj = MdgObjective::new(g, *m);
            let pts = points(obj.num_vars(), obj.x_upper());
            got.push((*gname, *mname, sweep_hash(&obj, &pts)));
        }
    }
    let table: String =
        got.iter().map(|(g, m, s)| format!("    (\"{g}\", \"{m}\", 0x{s:016x}),\n")).collect();
    assert!(got == PINS, "sweep bits moved; this run computes\n{table}");
}

/// (graph, machine, sweep hash).
const PINS: [(&str, &str, u64); 15] = [
    ("fig1", "cm5(16)", 0x0512ed5f51aeeecb),
    ("fig1", "cm5(6)", 0xbcde599ec4db521e),
    ("fig1", "mesh(12)", 0x6069fc2a287a3adc),
    ("cmm", "cm5(16)", 0x15fd5239ee7a7926),
    ("cmm", "cm5(6)", 0xece3c70317935de8),
    ("cmm", "mesh(12)", 0x39f13d3d4ea26b4a),
    ("strassen", "cm5(16)", 0x66478d286a8f1408),
    ("strassen", "cm5(6)", 0x8dd5914e1b9cacfc),
    ("strassen", "mesh(12)", 0x18ea1559d96ad2f0),
    ("fork-join", "cm5(16)", 0x3cb1726d5dfc2901),
    ("fork-join", "cm5(6)", 0x791f78418bfeeee0),
    ("fork-join", "mesh(12)", 0xb5505c1327da477c),
    ("strassen-ml", "cm5(16)", 0xb3beff2ffa425160),
    ("strassen-ml", "cm5(6)", 0xb420ad1ec773d5b7),
    ("strassen-ml", "mesh(12)", 0xc89728497b4cc7de),
];
