//! Property-based tests of the PSA and baselines: schedule validity,
//! Theorem-1/3 bounds, rounding behaviour, and baseline relationships,
//! over randomized MDGs, allocations, and machine sizes.

use paradigm_cost::{Allocation, Machine, MdgWeights};
use paradigm_mdg::{random_layered_mdg, RandomMdgConfig};
use paradigm_sched::{
    bound_allocation, optimal_pb, psa_schedule, refine_allocation, round_allocation, round_pow2,
    serial_schedule, spmd_schedule, task_parallel_schedule, theorem1_factor, PsaConfig,
};
use proptest::prelude::*;

fn arb_cfg() -> impl Strategy<Value = RandomMdgConfig> {
    (1usize..=5, 1usize..=4, 0.0f64..0.8).prop_map(|(layers, width, edge_prob)| RandomMdgConfig {
        layers,
        width_min: 1,
        width_max: width,
        edge_prob,
        ..RandomMdgConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn psa_always_produces_valid_schedules(
        cfg in arb_cfg(),
        seed in 0u64..5000,
        pk in 0u32..=7,
        q in 1.0f64..64.0,
    ) {
        let g = random_layered_mdg(&cfg, seed);
        let p = 1u32 << pk;
        let m = Machine::cm5(p);
        let alloc = Allocation::uniform(&g, q.min(p as f64));
        let res = psa_schedule(&g, m, &alloc, &PsaConfig::default());
        prop_assert!(res.schedule.validate(&g, &res.weights).is_ok());
        prop_assert!(res.t_psa.is_finite() && res.t_psa >= 0.0);
    }

    #[test]
    fn theorem1_holds_for_arbitrary_bounded_allocations(
        cfg in arb_cfg(),
        seed in 0u64..5000,
        pbk in 0u32..=3,
    ) {
        let g = random_layered_mdg(&cfg, seed);
        let p = 16u32;
        let pb = 1u32 << pbk; // 1..8
        let m = Machine::cm5(p);
        let alloc = Allocation::uniform(&g, pb as f64);
        let res = psa_schedule(&g, m, &alloc, &PsaConfig { pb: Some(pb), skip_rounding: true, ..PsaConfig::default() });
        // Lower bound on the optimal schedule of this allocation:
        let w = MdgWeights::compute(&g, &m, &res.bounded);
        let lower = w.phi(&g).phi;
        prop_assert!(
            res.t_psa <= theorem1_factor(p, pb) * lower * (1.0 + 1e-9),
            "T_psa {} vs bound {}",
            res.t_psa,
            theorem1_factor(p, pb) * lower
        );
    }

    #[test]
    fn round_pow2_is_idempotent_and_bounded(q in 1.0f64..1e6) {
        let r = round_pow2(q);
        prop_assert!((r as u64).is_power_of_two());
        prop_assert_eq!(round_pow2(r as f64), r);
        let f = r as f64 / q;
        prop_assert!((2.0 / 3.0 - 1e-9..=4.0 / 3.0 + 1e-9).contains(&f));
    }

    #[test]
    fn rounding_then_bounding_invariants(cfg in arb_cfg(), seed in 0u64..5000, q in 1.0f64..64.0, pbk in 0u32..=6) {
        let g = random_layered_mdg(&cfg, seed);
        let alloc = Allocation::uniform(&g, q);
        let pb = 1u32 << pbk;
        let bounded = bound_allocation(&round_allocation(&g, &alloc), pb);
        prop_assert!(bounded.is_power_of_two());
        prop_assert!(bounded.max() <= pb as f64);
    }

    #[test]
    fn optimal_pb_is_power_of_two_at_most_p(p in 1u32..=512) {
        let pb = optimal_pb(p);
        prop_assert!(pb.is_power_of_two());
        prop_assert!(pb <= p);
        prop_assert!(pb >= 1);
    }

    #[test]
    fn spmd_makespan_equals_sum_of_weights_on_cm5(cfg in arb_cfg(), seed in 0u64..5000, pk in 0u32..=6) {
        // On the CM-5 (t_n = 0) the SPMD serialization has no network
        // delays, so the makespan is exactly the sum of node weights.
        let g = random_layered_mdg(&cfg, seed);
        let p = 1u32 << pk;
        let m = Machine::cm5(p);
        let (s, w) = spmd_schedule(&g, m);
        let total: f64 = g.nodes().map(|(id, _)| w.node_weight(id)).sum();
        prop_assert!((s.makespan - total).abs() < 1e-9 * total.max(1.0));
        prop_assert!(s.validate(&g, &w).is_ok());
    }

    #[test]
    fn psa_never_worse_than_spmd_with_same_uniform_allocation(
        cfg in arb_cfg(),
        seed in 0u64..5000,
        pk in 1u32..=6,
    ) {
        // Feeding the SPMD allocation through the PSA can only help (it
        // may find concurrency the serialization wastes) — but the PSA
        // bounds allocations by PB, so compare against PSA with PB = p.
        let g = random_layered_mdg(&cfg, seed);
        let p = 1u32 << pk;
        let m = Machine::cm5(p);
        let alloc = Allocation::uniform(&g, p as f64);
        let res = psa_schedule(&g, m, &alloc, &PsaConfig { pb: Some(p), skip_rounding: true, ..PsaConfig::default() });
        let (spmd, _) = spmd_schedule(&g, m);
        prop_assert!(res.t_psa <= spmd.makespan * (1.0 + 1e-9));
    }

    #[test]
    fn task_parallel_bounded_by_serial_time_plus_transfers(cfg in arb_cfg(), seed in 0u64..5000) {
        let g = random_layered_mdg(&cfg, seed);
        let m = Machine::cm5(64);
        let res = task_parallel_schedule(&g, m);
        prop_assert!(res.schedule.validate(&g, &res.weights).is_ok());
        // With one processor per node, every node's compute time is the
        // full tau, so the makespan is at least the critical path of taus.
        let cp = g.critical_path_with(|v| g.node(v).cost.tau, |_| 0.0);
        prop_assert!(res.t_psa >= cp - 1e-9);
        // And the serial execution (one processor for everything) is an
        // upper bound in the transfer-free comparison only; with
        // transfers the task-parallel run may exceed it. Sanity: finite.
        let _ = serial_schedule(&g);
    }

    /// Every schedule the crate can produce — PSA (rounded and raw),
    /// refinement, SPMD, task-parallel, serial — passes the full static
    /// analyzer: no races, no precedence violations, durations and
    /// allocations consistent, and no task finishing before its `y_i`
    /// recurrence lower bound.
    #[test]
    fn every_schedule_kind_passes_the_static_analyzer(
        cfg in arb_cfg(),
        seed in 0u64..5000,
        pk in 1u32..=6,
        q in 1.0f64..32.0,
    ) {
        use paradigm_sched::analyze_schedule;
        let g = random_layered_mdg(&cfg, seed);
        let p = 1u32 << pk;
        let m = Machine::cm5(p);
        for skip_rounding in [false, true] {
            // `skip_rounding` requires an already power-of-two allocation.
            let per_node = if skip_rounding {
                round_pow2(q.min(p as f64)) as f64
            } else {
                q.min(p as f64)
            };
            let alloc = Allocation::uniform(&g, per_node);
            let res = psa_schedule(
                &g, m, &alloc,
                &PsaConfig { skip_rounding, ..PsaConfig::default() },
            );
            let rep = analyze_schedule(&g, &res.weights, &res.schedule);
            prop_assert!(rep.is_clean(), "PSA (skip_rounding={skip_rounding}): {}", rep.render());
            let refined = refine_allocation(&g, m, &res).best;
            let rep = analyze_schedule(&g, &refined.weights, &refined.schedule);
            prop_assert!(rep.is_clean(), "refined: {}", rep.render());
        }
        let (s, w) = spmd_schedule(&g, m);
        let rep = analyze_schedule(&g, &w, &s);
        prop_assert!(rep.is_clean(), "SPMD: {}", rep.render());
        let tp = task_parallel_schedule(&g, m);
        let rep = analyze_schedule(&g, &tp.weights, &tp.schedule);
        prop_assert!(rep.is_clean(), "task-parallel: {}", rep.render());
    }

    #[test]
    fn gantt_renders_for_any_schedule(cfg in arb_cfg(), seed in 0u64..5000) {
        let g = random_layered_mdg(&cfg, seed);
        let m = Machine::cm5(8);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 2.0), &PsaConfig::default());
        let txt = res.schedule.gantt(&g, 40);
        prop_assert!(txt.contains("P0"));
        prop_assert!(txt.lines().count() >= 8 + 2);
    }
}
