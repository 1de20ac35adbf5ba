//! Deadline semantics, pinned down as executable documentation:
//!
//! * a deadline bounds **queue wait**, not solve time — a request
//!   admitted in time is answered even if its solve then runs long;
//! * a request that expires while queued gets `DeadlineExceeded`, is
//!   counted in `deadline_misses`, and never reaches the solver;
//! * a failing solver degrades only the requests that reach it —
//!   previously computed primary results keep being served undegraded
//!   from the cache.

use paradigm_core::{gallery_graph, SolveSpec};
use paradigm_cost::Machine;
use paradigm_mdg::Mdg;
use paradigm_serve::{FaultPlan, ServeConfig, ServeError, Service};
use std::sync::Arc;
use std::time::Duration;

fn fig1() -> Arc<Mdg> {
    Arc::new(gallery_graph("fig1").expect("gallery"))
}

fn spec(procs: u32) -> SolveSpec {
    SolveSpec::new(Machine::cm5(procs))
}

#[test]
fn zero_deadline_expires_in_queue_and_never_solves() {
    let svc = Service::start(ServeConfig {
        workers: 1,
        cache_capacity: 8,
        queue_capacity: 4,
        ..ServeConfig::default()
    });
    let err = svc
        .submit_with_deadline(fig1(), spec(4), Some(Duration::ZERO))
        .expect_err("a zero deadline cannot be met");
    assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err}");
    assert_eq!(err.kind(), "deadline");
    assert!(!err.retryable(), "deadline expiry is terminal, not retryable");
    let stats = svc.shutdown();
    assert_eq!(stats.deadline_misses, 1);
    assert_eq!(stats.solves, 0, "expired requests must never reach the solver");
}

#[test]
fn deadline_bounds_queue_wait_not_solve_time() {
    // Every solve is slowed well past the deadline; the request is
    // still answered because the deadline only governs time-in-queue.
    let svc = Service::start(ServeConfig {
        workers: 1,
        cache_capacity: 8,
        queue_capacity: 4,
        chaos: Some(FaultPlan { seed: 7, slow_solve: 1.0, slow_ms: 50, ..FaultPlan::default() }),
        ..ServeConfig::default()
    });
    let r = svc
        .submit_with_deadline(fig1(), spec(4), Some(Duration::from_millis(20)))
        .expect("admitted in time; mid-solve overrun must not cancel");
    assert!(r.output.t_psa > 0.0);
    assert!(!r.output.degraded.is_degraded(), "slow is not failed");
    let stats = svc.shutdown();
    assert_eq!(stats.deadline_misses, 0);
    assert_eq!(stats.completed, 1);
}

#[test]
fn a_cached_primary_stays_primary_while_a_fresh_key_degrades() {
    // First solve succeeds (panic_after skips one draw); every later
    // primary solve panics. A fresh key falls back to the equal split,
    // and the cached primary answer is still served as-is — no
    // degraded label.
    let svc = Service::start(ServeConfig {
        workers: 1,
        cache_capacity: 16,
        queue_capacity: 4,
        chaos: Some(FaultPlan {
            seed: 11,
            worker_panic: 1.0,
            panic_after: 1,
            ..FaultPlan::default()
        }),
        ..ServeConfig::default()
    });

    let first = svc.submit(fig1(), spec(4)).expect("first solve is clean");
    assert!(!first.output.degraded.is_degraded());

    // A distinct key: its primary solve panics, and the ladder still
    // produces a terminal degraded answer.
    let second = svc.submit(fig1(), spec(8)).expect("ladder answers despite panic");
    assert!(second.output.degraded.is_degraded());

    // The first key comes back from the cache at full fidelity.
    let again = svc.submit(fig1(), spec(4)).expect("cached primary");
    assert!(again.cached);
    assert!(!again.output.degraded.is_degraded(), "cached primary, not degraded");
    assert_eq!(again.output.phi.to_bits(), first.output.phi.to_bits());

    let stats = svc.shutdown();
    assert_eq!((stats.solves, stats.cache_hits, stats.degraded), (2, 1, 1), "{stats:?}");
    assert_eq!(stats.errors, 0, "every request got a terminal answer");
}
