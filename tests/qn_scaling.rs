//! The quasi-Newton direction starts its two-loop recursion from a
//! diagonal matrix, one damped curvature ratio per variable, instead of
//! the scalar `γ·I` of the newest pair: a node's processor count is scaled
//! by its own curvature, which spans orders of magnitude across a graph.
//!
//! The pins are the solve before that change (the scalar `γ·I`), captured
//! as Φ bits and iterations over `tests/warm_rungs.rs`'s corpus: every
//! gallery graph at p ∈ {6, 16, 64} (graphs over 150 nodes at p = 64
//! only), under both stock configs. The solve is held to them one way: no
//! case's Φ more than 1e-3 above its pin, and at most 80 % of their 4 715
//! iterations in total. Measured on x86-64 Linux, glibc libm: 3 401
//! iterations (−28 %), worst Φ +5.2e-4 (strassen at p = 64, `default()`),
//! best −8.9e-5.

use paradigm_core::{gallery_graph, GALLERY_NAMES};
use paradigm_cost::Machine;
use paradigm_solver::{try_allocate, SolverConfig};

/// (graph, procs, config, Φ bits, iterations) under the scalar `γ·I`.
const SCALAR_H0: [(&str, u32, &str, u64, usize); 46] = [
    ("fig1", 6, "default", 0x4024_b018_d8e9_a0ba, 47),
    ("fig1", 6, "fast", 0x4024_b042_b1af_7002, 27),
    ("fig1", 16, "default", 0x4015_f144_cca1_84eb, 36),
    ("fig1", 16, "fast", 0x4015_f22c_facc_1faa, 34),
    ("fig1", 64, "default", 0x400a_859a_1681_19eb, 42),
    ("fig1", 64, "fast", 0x400a_87ed_7da9_8a08, 34),
    ("cmm", 6, "default", 0x3fd1_d15a_66f6_c943, 50),
    ("cmm", 6, "fast", 0x3fd1_d1bf_4f7c_e141, 40),
    ("cmm", 16, "default", 0x3fc0_aaba_13c8_3e1c, 54),
    ("cmm", 16, "fast", 0x3fc0_aef7_8198_d974, 32),
    ("cmm", 64, "default", 0x3fb0_35b9_f1b6_73e3, 41),
    ("cmm", 64, "fast", 0x3fb0_35d7_1928_ac4b, 28),
    ("strassen", 6, "default", 0x3fe3_e5d1_29f3_3811, 41),
    ("strassen", 6, "fast", 0x3fe3_e5d1_29f3_3811, 169),
    ("strassen", 16, "default", 0x3fd0_9a42_4eb5_90b8, 311),
    ("strassen", 16, "fast", 0x3fd0_9f25_c5ab_2cd2, 145),
    ("strassen", 64, "default", 0x3fb9_ae0a_4bcb_6322, 367),
    ("strassen", 64, "fast", 0x3fb9_b7c8_0d0a_a263, 189),
    ("strassen-ml", 64, "default", 0x3fc2_fdbc_a465_d166, 505),
    ("strassen-ml", 64, "fast", 0x3fc3_15d8_d829_ea67, 197),
    ("fft2d", 6, "default", 0x3fb5_412e_e39e_79bb, 74),
    ("fft2d", 6, "fast", 0x3fb5_4432_3f5c_b199, 64),
    ("fft2d", 16, "default", 0x3fab_23e2_6c91_2110, 50),
    ("fft2d", 16, "fast", 0x3fab_29ba_6aab_0450, 28),
    ("fft2d", 64, "default", 0x3faa_98fa_e6cb_f012, 28),
    ("fft2d", 64, "fast", 0x3faa_9949_e6f6_a48b, 18),
    ("block-lu", 6, "default", 0x3fcc_bfff_f857_dbd0, 95),
    ("block-lu", 6, "fast", 0x3fcc_c4fd_1ff6_7d44, 78),
    ("block-lu", 16, "default", 0x3fbc_471e_4fbf_5cfb, 92),
    ("block-lu", 16, "fast", 0x3fbc_55e2_f86d_c7e1, 55),
    ("block-lu", 64, "default", 0x3fb0_008f_590e_c094, 121),
    ("block-lu", 64, "fast", 0x3fb0_0dd2_bacb_3ce0, 96),
    ("stencil", 6, "default", 0x3f9d_a55c_0447_5a36, 35),
    ("stencil", 6, "fast", 0x3f9d_a102_abfb_6644, 33),
    ("stencil", 16, "default", 0x3f90_8e13_090e_fbb1, 39),
    ("stencil", 16, "fast", 0x3f90_8d59_d0de_8285, 30),
    ("stencil", 64, "default", 0x3f85_5477_e080_bfea, 31),
    ("stencil", 64, "fast", 0x3f85_5be5_3b95_3c9c, 25),
    ("random-layered", 64, "default", 0x4017_330f_8301_81b5, 285),
    ("random-layered", 64, "fast", 0x4017_ebd3_339f_d04c, 176),
    ("fork-join", 6, "default", 0x4021_03e8_006c_c2d7, 89),
    ("fork-join", 6, "fast", 0x4021_0627_acb6_1102, 74),
    ("fork-join", 16, "default", 0x400b_88d9_9b11_7514, 170),
    ("fork-join", 16, "fast", 0x400b_b5cc_f6e1_ed3b, 173),
    ("fork-join", 64, "default", 0x3ff4_a1a7_fcd8_550d, 234),
    ("fork-join", 64, "fast", 0x3ff4_fbb8_02a1_b301, 133),
];

#[test]
fn the_diagonal_initial_matrix_keeps_phi_in_at_most_80_percent_of_the_iterations() {
    let mut pins = SCALAR_H0.iter();
    let (mut iters, mut pinned_iters) = (0, 0);
    for name in GALLERY_NAMES {
        let g = gallery_graph(name).expect("gallery graph");
        // The two ~200-node graphs at p = 64 only, as in `warm_rungs.rs`.
        let sizes: &[u32] = if g.compute_node_count() > 150 { &[64] } else { &[6, 16, 64] };
        for &p in sizes {
            for (cfg_name, cfg) in
                [("default", SolverConfig::default()), ("fast", SolverConfig::fast())]
            {
                let &(pin_name, pin_p, pin_cfg, phi_bits, n_pin) =
                    pins.next().expect("a pin per corpus case");
                assert_eq!((pin_name, pin_p, pin_cfg), (name, p, cfg_name), "pin order");
                let r = try_allocate(&g, Machine::cm5(p), &cfg).expect("solves");
                let phi_pin = f64::from_bits(phi_bits);
                assert!(
                    r.phi.phi <= phi_pin * (1.0 + 1e-3),
                    "{name}@p{p} {cfg_name}: Phi {:+.2e} above the scalar initial matrix",
                    r.phi.phi / phi_pin - 1.0
                );
                iters += r.iterations;
                pinned_iters += n_pin;
            }
        }
    }
    assert!(pins.next().is_none(), "every pin is a corpus case");
    assert_eq!(pinned_iters, 4715);
    assert!(
        iters as f64 <= 0.8 * pinned_iters as f64,
        "{iters} iterations against the scalar initial matrix's {pinned_iters}"
    );
}
