//! The consensus-ADMM tier at scale, through the full pipeline and the
//! independent schedule auditor. Every test here is `#[ignore]`d: the
//! 10^4-node run and the two route pins at 4096 are the CI `admm-smoke`
//! job, the 10^5-node run is the manual acceptance run (release profile
//! advised for all of them).

use paradigm_core::{try_solve_pipeline, FallbackTier, SolveSpec};
use paradigm_cost::Machine;
use paradigm_mdg::{random_layered_mdg, Mdg, RandomMdgConfig};
use paradigm_serve::audit::audit_solve_output;

const SEED: u64 = 1994;

/// An ADMM-tier pipeline solve that converges below the residual
/// tolerance and whose schedule the auditor passes.
fn admm_pipeline_converges_and_audits_clean(g: &Mdg, machine: Machine) {
    let spec = SolveSpec { admm: true, ..SolveSpec::new(machine) };
    let out = try_solve_pipeline(g, &spec).expect("admm pipeline");
    let stats = out.admm.as_ref().expect("pipeline must route through admm");
    assert!(
        stats.converged,
        "admm solve must converge (r={:.3e}, s={:.3e})",
        stats.primal_residual, stats.dual_residual
    );
    let rep = audit_solve_output(g, &spec, &out);
    assert!(rep.is_clean(), "audit failures:\n{}", rep.render());
}

/// The CI `admm-smoke` job: a 10^4-compute-node seeded graph solved on
/// the consensus tier, converging with zero audit failures.
#[test]
#[ignore = "heavy: CI admm-smoke job runs this with --ignored in release"]
fn admm_smoke_ten_thousand_nodes() {
    let g = random_layered_mdg(&RandomMdgConfig::sized(10_000), SEED);
    admm_pipeline_converges_and_audits_clean(&g, Machine::cm5(256));
}

/// The route at the size the pipeline used to switch tiers by itself
/// (4096 compute nodes, to a tier many times slower than the dense solve at
/// every size that partitions — DESIGN.md §13):
/// graph size selects nothing, the default spec solves densely.
#[test]
#[ignore = "heavy: CI admm-smoke job runs this with --ignored in release"]
fn admm_smoke_4096_nodes_solve_densely_by_default() {
    let g = random_layered_mdg(&RandomMdgConfig::sized(4096), SEED);
    assert!(g.compute_node_count() >= 4096);
    let out = try_solve_pipeline(&g, &SolveSpec::new(Machine::cm5(256))).expect("dense pipeline");
    assert_eq!(out.degraded, FallbackTier::Primary);
    assert!(out.admm.is_none(), "no consensus diagnostics on a dense solve");
}

/// … and `admm: true` is what selects the consensus tier, at any size.
#[test]
#[ignore = "heavy: CI admm-smoke job runs this with --ignored in release"]
fn admm_smoke_4096_nodes_take_the_consensus_tier_when_asked() {
    let g = random_layered_mdg(&RandomMdgConfig::sized(4096), SEED);
    let spec = SolveSpec { admm: true, ..SolveSpec::new(Machine::cm5(256)) };
    let out = try_solve_pipeline(&g, &spec).expect("admm pipeline");
    assert_eq!(out.degraded, FallbackTier::Admm);
    assert!(out.admm.is_some_and(|stats| stats.converged));
}

/// The acceptance run: a 10^5-node seeded random-layered MDG partitioned
/// and solved to primal/dual residual < 1e-4. Very heavy — run manually
/// with `--ignored` in release.
#[test]
#[ignore = "very heavy: acceptance run, execute manually with --ignored in release"]
fn acceptance_hundred_thousand_nodes() {
    let g = random_layered_mdg(&RandomMdgConfig::sized(100_000), SEED);
    admm_pipeline_converges_and_audits_clean(&g, Machine::cm5(1024));
}
