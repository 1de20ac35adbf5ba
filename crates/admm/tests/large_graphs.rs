//! `sweep_counts.rs`' counts and the convergence flag on the consensus
//! tier's own sizes: a 209-node fork-join and seeded random layered
//! graphs sized for 2 048 and 8 192 nodes, partitioned and solved under the
//! default `AdmmConfig` on 256 processors. On each, no point is swept
//! forward twice, no gradient costs more than one backward replay, each
//! block's objective is compiled once per solve, and the solve reaches
//! its residual tolerance.
//!
//! About 35 s in release on two cores, so it is `#[ignore]`d; CI runs
//! it with `cargo test --release -p paradigm-admm --test large_graphs --
//! --ignored`.

use paradigm_admm::{solve_admm_in_process, AdmmConfig};
use paradigm_cost::Machine;
use paradigm_mdg::{fork_join_mdg, random_layered_mdg, RandomMdgConfig};

#[test]
#[ignore = "about 35 s in release; CI runs it with --ignored"]
fn large_consensus_solves_converge_and_sweep_replay_and_build_once() {
    let cases = [
        ("fork-join", fork_join_mdg(8, 24, 7)),
        ("random-2048", random_layered_mdg(&RandomMdgConfig::sized(2048), 1994)),
        ("random-8192", random_layered_mdg(&RandomMdgConfig::sized(8192), 1994)),
    ];
    for (name, g) in &cases {
        let r = solve_admm_in_process(g, Machine::cm5(256), &AdmmConfig::default(), 0)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let c = r.counts;
        assert!(
            r.converged,
            "{name}: stopped at primal residual {:.2e}, dual residual {:.2e}",
            r.primal_residual, r.dual_residual
        );
        assert_eq!(c.forward_sweeps, c.probes, "{name}: a point was swept twice: {c:?}");
        assert_eq!(c.backward_sweeps, c.gradients, "{name}: a point was replayed twice: {c:?}");
        assert_eq!(c.tape_builds, r.blocks as u64, "{name}: a block was compiled twice: {c:?}");
    }
}
