//! Model-check suite for the in-process consensus rounds.
//!
//! [`InProcessBackend`](crate::consensus::InProcessBackend) fans a
//! round's block solves out over scoped threads, each on a workspace of
//! its own. This suite explores every interleaving of two solver threads
//! and holds the solve to the one-thread run, bit for bit: where a block
//! runs never changes what it returns.

use crate::block::InnerConfig;
use crate::consensus::{solve_admm_in_process, AdmmConfig, AdmmResult};
use paradigm_cost::Machine;
use paradigm_mdg::fork_join_mdg;
use paradigm_race::{explore, Config, Report, Suite};

/// Every bit of a result the thread count could move.
fn bits(r: &AdmmResult) -> (Vec<u64>, u64, usize, usize) {
    let alloc = r.alloc.as_slice().iter().map(|p| p.to_bits()).collect();
    (alloc, r.phi.phi.to_bits(), r.outer_iters, r.inner_iters)
}

/// Two solver threads against the single-threaded reference, on every
/// interleaving.
fn run_consensus(cfg: &Config) -> Report {
    explore("consensus", cfg, || {
        let g = fork_join_mdg(2, 3, 2);
        let admm = AdmmConfig {
            max_outer: 4,
            eps: 1e-15, // unreachable: run all 4 rounds
            // The invariant under test is placement independence, not
            // solution quality — a minimal inner ladder keeps the
            // per-schedule compute cheap so exhaustive exploration of
            // thousands of interleavings stays inside the CI budget.
            inner: InnerConfig {
                stages: vec![32.0],
                iters_per_stage: 4,
                exact_iters: 2,
                rel_tol: 1e-6,
            },
            ..AdmmConfig::with_blocks(&g, 2)
        };
        let machine = Machine::cm5(8);
        let one = solve_admm_in_process(&g, machine, &admm, 1).expect("one thread");
        let two = solve_admm_in_process(&g, machine, &admm, 2).expect("two threads");
        assert_eq!(bits(&two), bits(&one), "thread placement changed the solve");
    })
}

/// The consensus layer's model-check suites.
pub fn suites() -> Vec<Suite> {
    vec![Suite {
        name: "consensus",
        about: "in-process rounds: two solver threads give the one-thread solve's bits",
        config: Config::with_bound(1),
        run: run_consensus,
    }]
}
