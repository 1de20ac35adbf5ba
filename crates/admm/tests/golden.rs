//! Golden trajectory pin for the consensus-ADMM tier: round, inner
//! iteration and polish counts plus the exact `Phi` bits of one fixed
//! multi-block solve. The companion of the dense solver's
//! `crates/solver/tests/golden.rs` (see there for why bits, and for the
//! platform caveat): the block x-update and the coordinator polish are
//! projected-gradient loops of their own, and a change to how they
//! probe, record or replay must leave every accepted step where it was.
//! Re-captured at PR 23, which takes the block model's gradient in one
//! backward replay seeded with both weights instead of combining two
//! (`w_a·∇A_p + w_c·∇C_p`, the same gradient rounded differently): 72
//! rounds / 13 572 inner / 150 polish iterations and
//! 0x3ff3_6dbd_d5fc_e1f6 before it, `Phi` +1.7e-6 relative. (PR 20's
//! finishing stage had added 84 polish iterations and lowered `Phi` by
//! 1.1 %, from 66 and 0x3ff3_a47e_f8cf_5b68.) Re-captured when the
//! quasi-Newton direction took a per-variable initial matrix: only the
//! finishing stage takes that direction, so only its count (230 → 221)
//! and the `Phi` bits (0x3ff3_6dbf_efb4_0c51, −3.1e-7 relative) moved;
//! rounds and inner iterations did not.

use paradigm_admm::{solve_admm, AdmmConfig, InProcessBackend};
use paradigm_cost::Machine;
use paradigm_mdg::fork_join_mdg;

#[test]
fn fork_join_in_four_blocks_is_pinned_to_the_bit() {
    let g = fork_join_mdg(6, 10, 5);
    let cfg = AdmmConfig::with_blocks(&g, 4);
    let mut backend = InProcessBackend { threads: 1 };
    let r = solve_admm(&g, Machine::cm5(64), &cfg, &mut backend).expect("admm solve");
    assert_eq!(r.blocks, 4);
    assert_eq!(
        (r.outer_iters, r.inner_iters, r.polish_iters, r.phi.phi.to_bits()),
        (67, 12587, 221, 0x3ff3_6dbf_8bc6_9200),
        "Phi = {} (0x{:016x})",
        r.phi.phi,
        r.phi.phi.to_bits()
    );
}
