//! Sampled-audit integration tests: the auditor must catch a corrupted
//! schedule no matter which fallback tier produced the answer, and a
//! service running with `audit_rate = 1` under the chaos harness must
//! report zero `audit_fail` — every response it serves, including
//! degraded-tier ones, must survive independent re-verification.

use paradigm_core::{
    gallery_graph, solve_pipeline_degraded, try_solve_pipeline, FallbackTier, SolveSpec,
};
use paradigm_cost::Machine;
use paradigm_serve::audit::audit_solve_output;
use paradigm_serve::{FaultPlan, ServeConfig, Service};
use std::sync::Arc;

/// Swap the start times of the first two compute tasks so exactly one
/// precedence edge is violated, leaving durations intact.
fn corrupt_schedule(out: &mut paradigm_core::SolveOutput) {
    let tasks = &mut out.schedule.tasks;
    let picks: Vec<usize> = (0..tasks.len())
        .filter(|&i| tasks[i].finish > tasks[i].start) // skip zero-width START/STOP
        .take(2)
        .collect();
    let [a, b] = picks[..] else { panic!("need two real tasks") };
    let (sa, sb) = (tasks[a].start, tasks[b].start);
    let (da, db) = (tasks[a].finish - tasks[a].start, tasks[b].finish - tasks[b].start);
    tasks[a].start = sb;
    tasks[a].finish = sb + da;
    tasks[b].start = sa;
    tasks[b].finish = sa + db;
}

#[test]
fn corrupted_schedule_is_caught_under_every_tier() {
    let g = gallery_graph("fig1").unwrap();
    let spec = SolveSpec::new(Machine::cm5(4));

    // Primary and EqualSplit, both from the real pipeline paths.
    let primary = try_solve_pipeline(&g, &spec).unwrap();
    assert_eq!(primary.degraded, FallbackTier::Primary);
    let equal_split = solve_pipeline_degraded(&g, &spec);
    assert_eq!(equal_split.degraded, FallbackTier::EqualSplit);

    for out in [primary, equal_split] {
        let tier = out.degraded;
        let clean = audit_solve_output(&g, &spec, &out);
        assert!(clean.is_clean(), "uncorrupted {tier:?} must pass:\n{}", clean.render());

        let mut bad = out.clone();
        corrupt_schedule(&mut bad);
        let rep = audit_solve_output(&g, &spec, &bad);
        assert!(!rep.is_clean(), "corrupted {tier:?} schedule must be caught");
    }
}

#[test]
fn audit_rate_one_under_chaos_never_fails() {
    let svc = Service::start(ServeConfig {
        workers: 2,
        cache_capacity: 64,
        queue_capacity: 16,
        audit_rate: 1,
        chaos: Some(FaultPlan {
            seed: 0xA0D17,
            worker_panic: 0.5,
            slow_solve: 0.2,
            slow_ms: 2,
            ..FaultPlan::default()
        }),
        ..ServeConfig::default()
    });
    let spec = SolveSpec::new(Machine::cm5(8));
    // Every gallery graph, three rounds each: primary answers, cache
    // hits, and (whenever the chaos plan panics a worker) degraded
    // fallbacks all flow through the same sampled audit.
    for _ in 0..3 {
        for name in paradigm_core::GALLERY_NAMES {
            let g = Arc::new(gallery_graph(name).unwrap());
            let r = svc.submit(g, spec.clone()).expect("terminal answer under chaos");
            assert!(r.output.t_psa > 0.0);
        }
    }
    assert!(svc.first_audit_failure().is_none(), "{:?}", svc.first_audit_failure());
    let stats = svc.shutdown();
    assert_eq!(stats.audit_fail, 0, "no served answer may fail its audit");
    assert!(stats.audit_pass > 0, "audit_rate=1 must actually sample");
    assert_eq!(stats.audit_pass, stats.completed, "every response audited at rate 1");
}

#[test]
fn audit_rate_zero_disables_sampling() {
    let svc = Service::start(ServeConfig {
        workers: 1,
        cache_capacity: 8,
        queue_capacity: 4,
        ..ServeConfig::default()
    });
    let g = Arc::new(gallery_graph("fig1").unwrap());
    svc.submit(g, SolveSpec::new(Machine::cm5(4))).unwrap();
    let stats = svc.shutdown();
    assert_eq!(stats.audit_pass + stats.audit_fail, 0);
}
