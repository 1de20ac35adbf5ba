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
//! Each case hashes twice: the sweeps at `Exact`, and at the six smooth
//! values. One hash per case, captured at commit 25fb91b (x86-64 Linux,
//! glibc libm), held until the exact sweep took the smooth sweep's
//! monomial formula (`coeff · Π` cached factors, not `coeff · exp(Σ a·x)`);
//! split then, both columns captured at that change's parent, every
//! smooth hash held and every `Exact` one moved. In table order they read
//! 0x97ca496bd7968e42 0xe5e7e0b65dc0bd6f 0xf24394b68d02c5fc 0xfc8221e91d56a694
//! 0x30c8994d0e9d562c 0x753a59f3b7bab92a 0x653f1246a26eae51 0x1e42f5ed845733fc
//! 0x9fdada6b53d36e14 0x090fa6f9f415f3ec 0x2431480f0ccbe681 0x7153cde5149a3035
//! 0x3559fe0ffb18304b 0x23a1de0a5b0ca9f5 0x868f8334b2e49390 before.
//! Every case but fig1's (whose nodes carry no transfers) moved again when
//! each node's `T` collected like terms — the parallel work and every
//! per-byte transfer cost into one `p^{-1}` monomial, one startup term
//! per transfer kind per edge side, and on the mesh one `t^D` monomial per
//! transfer kind per edge: the same functions, summed in another order.
//! Before, as (exact, smooth) pairs from cmm on `cm5(16)` to strassen-ml
//! on the mesh in table order, they read
//! 0x8ecad73e4f9247d0/0x44605749dd61e5b7 0xbc65a084762d29c4/0x68df19c0d6eba015
//! 0x94c607da41a08a97/0xf2199634b6ee7c31 0xc94c5ea2c0ec67b3/0xa6283375ef2893d4
//! 0xf20fbb0df4618b2b/0x323ef951045dc339 0x6bada09005c7e767/0x6181632401e5c7fd
//! 0xcca9dd3d47b4c6be/0xabff8ec6ebac3894 0x740e0432f6268f25/0x291741c1cd3807cc
//! 0xd5c12c589d9a6748/0x50bd49ac33151a2c 0xb15c12fac6816a89/0x8bc1a2718ad9bea6
//! 0xce0d1b1025453233/0xf88b820ac971b7a7 0xfca5f67aad67a8ba/0x2575e55cd5949a03
//! A platform whose `exp`/`powf` round differently may legitimately move
//! them — re-capture there (the failure message prints the table) rather
//! than loosening the comparison.

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
/// every point and at the sharpness values `sharps`.
fn sweep_hash(obj: &MdgObjective<'_>, pts: &[Vec<f64>], sharps: &[Sharpness]) -> u64 {
    let mut h = Fnv::new();
    let scratch = &mut EvalScratch::default();
    let mut grad = Vec::new();
    for &sharp in sharps {
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
            let [e, s] = [&SHARPS[..1], &SHARPS[1..]].map(|sharps| sweep_hash(&obj, &pts, sharps));
            got.push((*gname, *mname, e, s));
        }
    }
    let table: String = got
        .iter()
        .map(|(g, m, e, s)| format!("    (\"{g}\", \"{m}\", 0x{e:016x}, 0x{s:016x}),\n"))
        .collect();
    assert!(got == PINS, "sweep bits moved; this run computes\n{table}");
}

/// (graph, machine, sweep hash at `Exact`, sweep hash at the six smooth
/// sharpness values).
const PINS: [(&str, &str, u64, u64); 15] = [
    ("fig1", "cm5(16)", 0xac6ec88c9169ca91, 0x046d37417df54364),
    ("fig1", "cm5(6)", 0x911422dcdf21957e, 0x9eac02a01f2e584c),
    ("fig1", "mesh(12)", 0x7e5c41c44553e170, 0xffa370d229e544c9),
    ("cmm", "cm5(16)", 0x5721ee87e5a98f25, 0xbff5039b9cd082da),
    ("cmm", "cm5(6)", 0x7134a9a1dd09fb73, 0x5b261aa4b3d269e3),
    ("cmm", "mesh(12)", 0x569d178c9ef69a89, 0x7c0ecf1c0890cf7d),
    ("strassen", "cm5(16)", 0xd72a40d7c9084abe, 0xd8d4cafd444f5a32),
    ("strassen", "cm5(6)", 0x81fd4a4691b4b4f5, 0x731612f8a8618dc6),
    ("strassen", "mesh(12)", 0x38e8e6aa55129e96, 0x88d0327a89f9a5aa),
    ("fork-join", "cm5(16)", 0x7b4e79187456fc1e, 0x6019b8b49653e503),
    ("fork-join", "cm5(6)", 0xfb0a35cd73eec668, 0x50913f99a683373b),
    ("fork-join", "mesh(12)", 0xc5830f8a5612c783, 0x00d0038bdcb62c0e),
    ("strassen-ml", "cm5(16)", 0xff2c878cb230954d, 0xdc04e3b35f0e9d9b),
    ("strassen-ml", "cm5(6)", 0xc0345d3acbe4d9aa, 0x7fb67ef10a12da21),
    ("strassen-ml", "mesh(12)", 0x6fc97277b01a8342, 0xe324f106099dfadd),
];
