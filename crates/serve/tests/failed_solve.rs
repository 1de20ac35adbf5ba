//! A failed primary solve is a failure all the way up: it is never
//! cached under the primary key, the circuit breaker counts it, and the
//! request is answered by the salted equal split — while a healthy key
//! solved earlier keeps being served undegraded from the cache.
//!
//! The failing graph passes every input check: a two-node chain whose
//! loop costs (`tau = 1e308`) overflow `Phi` to infinity, so the solve
//! ends on `SolverError::NonFinite`.

use paradigm_core::{
    gallery_graph, try_solve_pipeline, FallbackTier, PipelineError, SolveSpec, SolverError,
};
use paradigm_cost::Machine;
use paradigm_mdg::{AmdahlParams, ArrayTransfer, Mdg, MdgBuilder, TransferKind};
use paradigm_serve::{BreakerConfig, BreakerState, ServeConfig, Service};
use std::sync::Arc;
use std::time::Duration;

fn overflow_chain() -> Mdg {
    let mut b = MdgBuilder::new("overflow");
    let a = b.compute("a", AmdahlParams::new(0.5, 1e308));
    let c = b.compute("c", AmdahlParams::new(0.5, 1e308));
    b.edge(a, c, vec![ArrayTransfer::new(1024, TransferKind::OneD)]);
    b.finish().expect("a well-formed chain")
}

#[test]
fn a_failed_solve_reaches_the_breaker_and_is_never_cached_as_primary() {
    let spec = SolveSpec::new(Machine::cm5(4));
    let overflow = Arc::new(overflow_chain());
    assert!(spec.validate().is_ok(), "the spec is admitted");
    assert!(
        matches!(
            try_solve_pipeline(&overflow, &spec),
            Err(PipelineError::Solver(SolverError::NonFinite { .. }))
        ),
        "the primary solve fails with a typed error"
    );

    // The default tripping rule (half of at least 8 fresh solves); a
    // long cooldown so the breaker is still open at the end.
    let svc = Service::start(ServeConfig {
        workers: 1,
        cache_capacity: 64,
        queue_capacity: 8,
        breaker: BreakerConfig { cooldown: Duration::from_secs(600), ..BreakerConfig::default() },
        ..ServeConfig::default()
    });
    let fig1 = Arc::new(gallery_graph("fig1").expect("gallery"));
    let healthy = svc.submit(Arc::clone(&fig1), spec.clone()).expect("fig1 solves");
    assert_eq!(healthy.output.degraded, FallbackTier::Primary);

    for i in 0..10 {
        let r = svc.submit(Arc::clone(&overflow), spec.clone()).expect("a degraded answer");
        assert_eq!(r.output.degraded, FallbackTier::EqualSplit, "submit {i}");
    }
    let stats = svc.stats();
    // fig1, then one fresh primary attempt per overflow submit until the
    // window (1 success, 7 failures) trips the breaker: no primary-key hit.
    assert_eq!(stats.solves, 8, "{stats:?}");
    assert_eq!(stats.breaker_opens, 1, "{stats:?}");
    assert_eq!(stats.degraded, 10, "{stats:?}");
    assert_eq!(stats.errors, 0, "degraded answers are not errors");
    assert_eq!(svc.breaker_state(), BreakerState::Open);

    // The healthy key is still served full-fidelity from the cache.
    let again = svc.submit(fig1, spec).expect("fig1 from cache");
    assert!(again.cached);
    assert_eq!(again.output.degraded, FallbackTier::Primary);
    assert_eq!(again.output.phi, healthy.output.phi);
    let stats = svc.shutdown();
    assert_eq!(stats.solves, 8, "the hit ran no solve");
}
