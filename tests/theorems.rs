//! Integration tests of the Section-5 optimality results across random
//! workloads: Theorem 1 (list scheduling with a processor bound),
//! Theorem 2 (rounding + bounding blow-up), Theorem 3 (their product),
//! and Corollary 1 (the PB choice).

use paradigm_core::prelude::*;
use paradigm_cost::MdgWeights;
use paradigm_mdg::{random_layered_mdg, RandomMdgConfig};
use paradigm_sched::{optimal_pb, theorem1_factor, theorem2_factor, theorem3_factor};

fn random_graphs(count: u64) -> Vec<Mdg> {
    let cfg =
        RandomMdgConfig { layers: 4, width_min: 2, width_max: 5, ..RandomMdgConfig::default() };
    (0..count).map(|s| random_layered_mdg(&cfg, s)).collect()
}

/// Theorem 3 end to end: the full pipeline's T_psa within the proven
/// factor of Phi, on every random instance and machine size.
#[test]
fn theorem3_bound_on_random_workloads() {
    for g in random_graphs(8) {
        for &p in &[8u32, 32, 64] {
            let m = Machine::cm5(p);
            let sol = allocate(&g, m, &SolverConfig::fast());
            let res = psa_schedule(&g, m, &sol.alloc, &PsaConfig::default());
            let bound = theorem3_factor(p, res.pb) * sol.phi.phi;
            assert!(res.t_psa <= bound, "{} p={p}: {} > {}", g.name(), res.t_psa, bound);
        }
    }
}

/// Theorem 1 in isolation: for a *fixed* bounded allocation, the PSA's
/// makespan is within (1 + p/(p-PB+1)) of the best possible schedule of
/// that allocation. We lower-bound the best schedule by
/// max(A_p, C_p) of the same allocation.
#[test]
fn theorem1_bound_against_area_cp_lower_bound() {
    for g in random_graphs(8) {
        let p = 16u32;
        let m = Machine::cm5(p);
        for pb in [2u32, 4, 8] {
            let alloc = Allocation::uniform(&g, pb as f64);
            let res = psa_schedule(
                &g,
                m,
                &alloc,
                &PsaConfig { pb: Some(pb), skip_rounding: true, ..PsaConfig::default() },
            );
            let w = MdgWeights::compute(&g, &m, &res.bounded);
            let lower = w.phi(&g).phi; // <= T_opt^PB
            let factor = theorem1_factor(p, pb);
            assert!(
                res.t_psa <= factor * lower * (1.0 + 1e-9),
                "{} pb={pb}: T_psa {} vs factor {} * lower {}",
                g.name(),
                res.t_psa,
                factor,
                lower
            );
        }
    }
}

/// Theorem 2 in isolation: rounding+bounding inflates max(A_p, C_p) by
/// at most (3/2)^2 (p/PB)^2 relative to the continuous optimum Phi.
#[test]
fn theorem2_bound_on_rounded_allocations() {
    for g in random_graphs(6) {
        for &p in &[16u32, 64] {
            let m = Machine::cm5(p);
            let sol = allocate(&g, m, &SolverConfig::fast());
            let res = psa_schedule(&g, m, &sol.alloc, &PsaConfig::default());
            let bounded_phi = MdgWeights::compute(&g, &m, &res.bounded).phi(&g).phi;
            let factor = theorem2_factor(p, res.pb);
            assert!(
                bounded_phi <= factor * sol.phi.phi * (1.0 + 1e-9),
                "{} p={p}: bounded Phi {} vs {} * {}",
                g.name(),
                bounded_phi,
                factor,
                sol.phi.phi
            );
        }
    }
}

/// The paper's premise behind Theorem 2: the rounded allocation never
/// moves any node by more than a factor of 4/3 up or 2/3 down.
#[test]
fn rounding_factors_stay_in_premise_band() {
    for g in random_graphs(6) {
        let m = Machine::cm5(64);
        let sol = allocate(&g, m, &SolverConfig::fast());
        let res = psa_schedule(&g, m, &sol.alloc, &PsaConfig::default());
        for (id, n) in g.nodes() {
            if n.is_structural() {
                continue;
            }
            let before = sol.alloc.get(id);
            let after = res.rounded.get(id);
            let f = after / before;
            assert!(
                (2.0 / 3.0 - 1e-9..=4.0 / 3.0 + 1e-9).contains(&f),
                "{} node {id}: rounding factor {f}",
                g.name()
            );
        }
    }
}

/// Corollary 1 consistency: the PB the pipeline picks minimizes the
/// Theorem-3 expression among powers of two.
#[test]
fn pipeline_uses_corollary1_pb() {
    for &p in &[4u32, 16, 32, 64, 128] {
        let pb = optimal_pb(p);
        let mut q = 1u32;
        while q <= p {
            assert!(theorem3_factor(p, pb) <= theorem3_factor(p, q) + 1e-12);
            if q > p / 2 {
                break;
            }
            q *= 2;
        }
    }
    // And the PSA actually uses it.
    let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
    let c = compile(&g, &SolveSpec::new(Machine::cm5(64))).unwrap();
    assert_eq!(c.psa.pb, optimal_pb(64));
}

/// Makespan lower bounds: the PSA can never beat the critical path or
/// the area bound of the allocation it actually scheduled.
#[test]
fn psa_respects_work_and_path_lower_bounds() {
    for g in random_graphs(8) {
        let m = Machine::cm5(32);
        let sol = allocate(&g, m, &SolverConfig::fast());
        let res = psa_schedule(&g, m, &sol.alloc, &PsaConfig::default());
        let (cp, _) = res.weights.critical_path_time(&g);
        let ap = res.weights.average_finish_time();
        assert!(res.t_psa >= cp - 1e-9, "{}: below critical path", g.name());
        assert!(res.t_psa >= ap - 1e-9, "{}: below area bound", g.name());
    }
}
