//! Model-check suites for the serving layer's concurrent state machines.
//!
//! Each suite hands an invariant-asserting closure to
//! [`paradigm_race::explore()`]: under `--cfg paradigm_race` every
//! interleaving up to the suite's preemption bound is executed; in a
//! normal build the closure runs once as a native smoke test. The suites
//! pin exactly the properties the chaos drills could only sample:
//!
//! - **cache** — single-flight dedup never computes one key twice, and a
//!   panicking leader surfaces an error to all waiters while leaving the
//!   key retryable. Building with `--cfg paradigm_race_seeded_double_flight`
//!   seeds a real bug in the cache (two callers can lead one key) that
//!   this suite must catch with a replayable trace.
//! - **service** — a full submit/solve/shutdown round trip under a
//!   panicking solver always degrades (never errors), a submit of a
//!   cached key racing `drain` ends `Ok` or `ShuttingDown`, and the
//!   service always drains to termination.

use crate::cache::ShardedCache;
use crate::chaos::FaultPlan;
use crate::service::{ServeConfig, ServeError, Service};
use paradigm_core::{gallery_graph, SolveSpec};
use paradigm_cost::Machine;
use paradigm_race::sync::atomic::{AtomicUsize, Ordering};
use paradigm_race::{explore, Config, Report, Suite};
use std::sync::Arc;

/// Single-flight dedup: two racing callers of the same key compute once;
/// a panicking leader turns into an `Err` for its caller and leaves the
/// key uncached so a later call can recompute.
fn run_cache(cfg: &Config) -> Report {
    explore("cache", cfg, || {
        let cache: ShardedCache<u32> = ShardedCache::new(16);
        let computes = AtomicUsize::new(0);
        paradigm_race::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let (v, _) = cache.get_or_compute(7, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        42
                    });
                    assert_eq!(*v.expect("compute cannot fail"), 42);
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single-flight key solved twice");
        assert_eq!(cache.len(), 1);
        let (r, _) = cache.get_or_compute(9, || panic!("degenerate input"));
        assert!(r.is_err(), "leader panic must surface as an error");
        let (v, _) = cache.get_or_compute(9, || 5);
        assert_eq!(*v.expect("panicked key stays retryable"), 5);
    })
}

/// End-to-end, one worker: the first primary solve succeeds and every
/// later one panics (`panic_after: 1`). On every schedule the panicking
/// submit must come back as a degraded answer — never an error; a submit
/// of the cached key racing `drain` must end `Ok` (answered on its own
/// thread) or `ShuttingDown`, never hang or error otherwise; the request
/// and completion counters must balance; and shutdown must drain and
/// join cleanly. The lock-order graph of the run shows the submitter
/// never holds the queue lock and a cache shard lock together.
fn run_service(cfg: &Config) -> Report {
    explore("service", cfg, || {
        let svc = Service::start(ServeConfig {
            workers: 1,
            // Eight entries a shard: the degraded entry must not evict
            // the primary one the race below is about.
            cache_capacity: 64,
            queue_capacity: 2,
            chaos: Some(FaultPlan {
                seed: 1,
                worker_panic: 1.0,
                panic_after: 1,
                ..FaultPlan::default()
            }),
            ..ServeConfig::default()
        });
        let graph = Arc::new(gallery_graph("fig1").expect("gallery graph"));
        let cached_spec = SolveSpec::new(Machine::cm5(4));
        let first = svc.submit(Arc::clone(&graph), cached_spec.clone()).expect("clean solve");
        assert!(!first.cached && !first.output.degraded.is_degraded());
        let r = svc
            .submit(Arc::clone(&graph), SolveSpec::new(Machine::cm5(8)))
            .expect("a panicking primary degrades, it never errors");
        assert!(
            r.output.degraded.is_degraded(),
            "chaos panic must fall back to the degraded pipeline"
        );
        let raced = paradigm_race::thread::scope(|s| {
            let submitter = s.spawn(|| svc.submit(Arc::clone(&graph), cached_spec.clone()));
            svc.drain();
            submitter.join().expect("submitter panicked")
        });
        let answered = match raced {
            Ok(hit) => {
                assert!(hit.cached && !hit.output.degraded.is_degraded());
                1
            }
            Err(e) => {
                assert_eq!(e, ServeError::ShuttingDown, "a cached key can only be refused");
                0
            }
        };
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 2 + answered, "every admitted request completes");
        assert_eq!(stats.requests, stats.completed, "requests and completions balance");
        assert_eq!(stats.inline_hits, answered, "the hit never reached the worker");
        assert_eq!(stats.errors, 0, "degraded answers are not errors");
    })
}

/// The serving layer's model-check suites.
pub fn suites() -> Vec<Suite> {
    vec![
        Suite {
            name: "cache",
            about: "single-flight never solves a key twice; panics stay retryable",
            config: Config::with_bound(2),
            run: run_cache,
        },
        Suite {
            name: "service",
            about: "panicking solves degrade; a cached submit racing drain ends Ok or ShuttingDown",
            config: Config::with_bound(1),
            run: run_service,
        },
    ]
}
