//! A failed primary solve is a failure of its own request only: it is
//! never cached under the primary key, the request is answered by the
//! salted equal split, and every other request — a healthy key solved
//! earlier, or a graph never seen before — gets the primary solve.
//!
//! The failing graph passes every input check: a two-node chain whose
//! loop costs (`tau = 1e308`) overflow `Phi` to infinity, so the solve
//! ends on `SolverError::NonFinite`.

use paradigm_core::{
    gallery_graph, try_solve_pipeline, FallbackTier, PipelineError, SolveSpec, SolverError,
};
use paradigm_cost::Machine;
use paradigm_mdg::{AmdahlParams, ArrayTransfer, Mdg, MdgBuilder, TransferKind};
use paradigm_serve::{ServeConfig, Service};
use std::sync::Arc;

fn overflow_chain() -> Mdg {
    let mut b = MdgBuilder::new("overflow");
    let a = b.compute("a", AmdahlParams::new(0.5, 1e308));
    let c = b.compute("c", AmdahlParams::new(0.5, 1e308));
    b.edge(a, c, vec![ArrayTransfer::new(1024, TransferKind::OneD)]);
    b.finish().expect("a well-formed chain")
}

#[test]
fn a_failed_solve_is_never_cached_as_primary() {
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

    let svc = Service::start(ServeConfig {
        workers: 1,
        cache_capacity: 64,
        queue_capacity: 8,
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
    // fig1, then one fresh primary attempt per overflow submit: the
    // failure was never cached, so no submit is a primary-key hit.
    assert_eq!(stats.solves, 11, "{stats:?}");
    assert_eq!(stats.degraded, 10, "{stats:?}");
    assert_eq!(stats.errors, 0, "degraded answers are not errors");

    // The healthy key is still served full-fidelity from the cache.
    let again = svc.submit(fig1, spec).expect("fig1 from cache");
    assert!(again.cached);
    assert_eq!(again.output.degraded, FallbackTier::Primary);
    assert_eq!(again.output.phi, healthy.output.phi);
    let stats = svc.shutdown();
    assert_eq!(stats.solves, 11, "the hit ran no solve");
}

/// A solve that panics leaves its worker's workspace reusable: the
/// overflow chain's solve sweeps non-finite values through the one
/// workspace the worker owns before it fails, and the worker's next solve
/// still gives every bit of a solve on a fresh workspace.
#[test]
fn a_failed_solve_leaves_the_workers_workspace_reusable() {
    let spec = SolveSpec::new(Machine::cm5(16));
    let svc = Service::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let r = svc.submit(Arc::new(overflow_chain()), spec.clone()).expect("a degraded answer");
    assert_eq!(r.output.degraded, FallbackTier::EqualSplit);
    let cmm = Arc::new(gallery_graph("cmm").expect("gallery"));
    let after = svc.submit(Arc::clone(&cmm), spec.clone()).expect("cmm solves");
    let fresh = try_solve_pipeline(&cmm, &spec).expect("cmm solves");
    assert_eq!(after.output.degraded, FallbackTier::Primary);
    assert_eq!(after.output.phi.to_bits(), fresh.phi.to_bits());
    assert_eq!(after.output.alloc, fresh.alloc);
    let stats = svc.shutdown();
    assert_eq!((stats.ws_acquires, stats.ws_reuses), (2, 1), "the failed solve warmed it");
}

/// A failed solve is a fact about its own request: after eight failing
/// submits, graphs the service has never seen are still solved by the
/// primary solver, to the bit of a direct solve.
#[test]
fn healthy_requests_after_failing_ones_get_the_primary_solve() {
    let spec = SolveSpec::new(Machine::cm5(16));
    let svc = Service::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let overflow = Arc::new(overflow_chain());
    for i in 0..8 {
        let r = svc.submit(Arc::clone(&overflow), spec.clone()).expect("a degraded answer");
        assert_eq!(r.output.degraded, FallbackTier::EqualSplit, "submit {i}");
    }
    assert_eq!(svc.stats().errors, 0, "degraded answers are not errors");
    for name in ["cmm", "strassen", "fft2d", "stencil"] {
        let graph = Arc::new(gallery_graph(name).expect("gallery"));
        let served = svc.submit(Arc::clone(&graph), spec.clone()).expect("an answer");
        let direct = try_solve_pipeline(&graph, &spec).expect("the graph solves");
        assert_eq!(served.output.degraded, FallbackTier::Primary, "{name}");
        assert_eq!(served.output.phi.to_bits(), direct.phi.to_bits(), "{name}");
    }
    let stats = svc.shutdown();
    assert_eq!((stats.solves, stats.degraded, stats.errors), (12, 8, 0), "{stats:?}");
}
