//! The hit path, pinned down as executable documentation: a request
//! whose primary key has a ready cache entry is answered on the
//! submitter's thread, before admission, the queue and the workers —
//! so nothing that governs *waiting for* or *running* the solver can
//! touch it, while the same request on an uncached key still expires,
//! sheds or blocks exactly as `tests/deadline.rs` pins.
//!
//! (The open and half-open breaker cases live beside the breaker tests
//! in `src/service.rs`: `open_breaker_still_serves_cached_results` and
//! `cache_hits_do_not_consume_the_half_open_probe`.)

use paradigm_core::{gallery_graph, SolveSpec};
use paradigm_cost::Machine;
use paradigm_mdg::Mdg;
use paradigm_serve::{FaultPlan, MetricsSnapshot, ServeConfig, ServeError, Service};
use std::sync::Arc;
use std::time::Duration;

fn fig1() -> Arc<Mdg> {
    Arc::new(gallery_graph("fig1").expect("gallery"))
}

fn spec(procs: u32) -> SolveSpec {
    SolveSpec::new(Machine::cm5(procs))
}

/// Every request taken on is accounted for by exactly one outcome.
fn assert_balanced(s: &MetricsSnapshot) {
    assert_eq!(
        s.requests,
        s.cache_hits + s.cache_misses + s.dedup_waits + s.deadline_misses,
        "{s:?}"
    );
    assert_eq!(s.latency_buckets.iter().sum::<u64>(), s.completed, "{s:?}");
}

#[test]
fn zero_deadline_serves_a_cached_key_and_expires_an_uncached_one() {
    let svc = Service::start(ServeConfig {
        workers: 1,
        cache_capacity: 8,
        queue_capacity: 4,
        ..ServeConfig::default()
    });
    svc.submit(fig1(), spec(4)).expect("warm the key");
    let hit = svc
        .submit_with_deadline(fig1(), spec(4), Some(Duration::ZERO))
        .expect("a deadline bounds queue wait; a hit never queues");
    assert!(hit.cached && !hit.deduplicated);
    assert!(hit.service > Duration::ZERO, "latency runs from submit entry, not from 0");
    let err = svc.submit_with_deadline(fig1(), spec(8), Some(Duration::ZERO)).unwrap_err();
    assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err}");
    let stats = svc.shutdown();
    assert_eq!((stats.cache_hits, stats.inline_hits, stats.deadline_misses), (1, 1, 1));
    assert_eq!((stats.requests, stats.completed, stats.solves), (3, 2, 1));
    assert_balanced(&stats);
}

#[test]
fn full_queue_and_stalled_worker_do_not_hold_up_a_cached_key() {
    // One worker that sleeps before every pop, a one-slot queue and a
    // 5 ms wait bound: an uncached request behind a queued job sheds.
    let svc = Arc::new(Service::start(ServeConfig {
        workers: 1,
        cache_capacity: 8,
        queue_capacity: 1,
        max_queue_wait: Some(Duration::from_millis(5)),
        chaos: Some(FaultPlan { seed: 2, queue_stall: 1.0, stall_ms: 500, ..FaultPlan::default() }),
        ..ServeConfig::default()
    }));
    svc.submit(fig1(), spec(4)).expect("warm the key");
    // The worker is now asleep again; park one job in the only slot.
    let blocker = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.submit(fig1(), spec(8)))
    };
    while svc.stats().queue_depth == 0 {
        std::thread::yield_now();
    }
    let hit = svc.submit(fig1(), spec(4)).expect("a hit needs neither a slot nor a worker");
    assert!(hit.cached);
    let err = svc.submit(fig1(), spec(16)).unwrap_err();
    assert!(matches!(err, ServeError::Shed { .. }), "{err}");
    assert!(blocker.join().unwrap().is_ok(), "the queued job is still answered");
    let stats = svc.stats();
    assert_eq!((stats.inline_hits, stats.shed), (1, 1));
    assert_balanced(&stats);
}

#[test]
fn a_draining_service_refuses_cached_keys_too() {
    let svc = Service::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    svc.submit(fig1(), spec(4)).expect("warm the key");
    svc.drain();
    assert_eq!(svc.submit(fig1(), spec(4)).unwrap_err(), ServeError::ShuttingDown);
    let stats = svc.shutdown();
    assert_eq!((stats.requests, stats.inline_hits), (1, 0));
}

#[test]
fn a_degraded_entry_is_never_served_ahead_of_a_primary_attempt() {
    // Every primary solve panics, so the only entries ever cached sit
    // under the salted degraded key. The lookup in front of the queue
    // reads the primary key alone: each repeat must reach a worker and
    // try the solver again before falling back.
    let svc = Service::start(ServeConfig {
        workers: 1,
        chaos: Some(FaultPlan { seed: 11, worker_panic: 1.0, ..FaultPlan::default() }),
        ..ServeConfig::default()
    });
    for round in 0..3 {
        let r = svc.submit(fig1(), spec(4)).expect("the ladder answers");
        assert!(r.output.degraded.is_degraded());
        assert_eq!(r.cached, round > 0, "the degraded answer itself is memoised");
    }
    let stats = svc.shutdown();
    assert_eq!(stats.inline_hits, 0, "{stats:?}");
    assert_eq!(stats.solves, 3, "one primary attempt per request (breaker still closed)");
    assert_eq!((stats.cache_hits, stats.degraded, stats.errors), (2, 3, 0));
}

#[test]
fn counters_balance_after_a_run_of_hits() {
    let svc = Service::start(ServeConfig { workers: 2, ..ServeConfig::default() });
    const HITS: u64 = 50;
    for _ in 0..=HITS {
        svc.submit(fig1(), spec(4)).expect("solve or hit");
    }
    let stats = svc.shutdown();
    assert_eq!((stats.requests, stats.completed), (HITS + 1, HITS + 1));
    assert_eq!((stats.cache_misses, stats.solves), (1, 1));
    assert_eq!((stats.cache_hits, stats.inline_hits), (HITS, HITS));
    assert_eq!((stats.dedup_waits, stats.errors, stats.shed, stats.degraded), (0, 0, 0, 0));
    assert_balanced(&stats);
}
