//! Model-check suites for the serving layer's concurrent state machines.
//!
//! Each suite hands an invariant-asserting closure to
//! [`paradigm_race::explore()`]: under `--cfg paradigm_race` every
//! interleaving up to the suite's preemption bound is executed; in a
//! normal build the closure runs once as a native smoke test. The suites
//! pin exactly the properties the chaos drills could only sample:
//!
//! - **queue** — a worker crash mid-job never loses the job: the retry is
//!   re-enqueued and (possibly another) lane completes it, on *every*
//!   schedule.
//! - **breaker** — the single half-open probe is never double-spent by
//!   racing lanes, and a released probe is never lost (the breaker cannot
//!   wedge half-open with no prober).
//! - **cache** — single-flight dedup never computes one key twice, and a
//!   panicking leader surfaces an error to all waiters while leaving the
//!   key retryable.
//! - **service** — a full submit/solve/shutdown round trip under a
//!   panicking solver always degrades (never errors), a submit of a
//!   cached key racing `drain` ends `Ok` or `ShuttingDown`, and the
//!   service always drains to termination.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::cache::ShardedCache;
use crate::chaos::FaultPlan;
use crate::service::{ServeConfig, ServeError, Service};
use crate::worker::{run_lane, AttemptError, FleetConfig, WorkQueue};
use paradigm_core::{gallery_graph, SolveSpec};
use paradigm_cost::Machine;
use paradigm_race::sync::atomic::{AtomicUsize, Ordering};
use paradigm_race::{explore, plock, Config, Report, Suite};
use std::sync::Arc;
use std::time::Duration;

/// A breaker that cannot trip within a suite's handful of samples, so
/// lane quarantine stays out of the explored state space when a suite is
/// about queue behavior rather than breaker behavior.
fn quiet_breaker() -> BreakerConfig {
    BreakerConfig { window: 8, min_samples: 8, failure_threshold: 1.0, cooldown: Duration::ZERO }
}

/// Zero backoff keeps retried items immediately eligible, so the model's
/// logical clock never has to advance and schedules stay short.
fn fleet_cfg() -> FleetConfig {
    FleetConfig {
        block_deadline: Duration::from_secs(1),
        max_attempts: 3,
        retry_base: Duration::ZERO,
        retry_cap: Duration::ZERO,
        breaker: quiet_breaker(),
    }
}

/// No lost job on crash + steal: lane 0 fails job 0's first attempt on
/// purpose; whatever the interleaving, the round must end with every
/// slot filled, the failure retried at most once, and steals a subset of
/// retries.
fn run_queue(cfg: &Config) -> Report {
    explore("queue", cfg, || {
        let fleet = fleet_cfg();
        let queue: WorkQueue<u32> = WorkQueue::new(2);
        let crashy = CircuitBreaker::new(quiet_breaker());
        let healthy = CircuitBreaker::new(quiet_breaker());
        paradigm_race::thread::scope(|s| {
            let (queue, fleet) = (&queue, &fleet);
            let crashy = &crashy;
            s.spawn(move || {
                run_lane(0, crashy, queue, fleet, |job, attempt| {
                    if job == 0 && attempt == 0 {
                        Err(AttemptError::Worker("injected crash".into()))
                    } else {
                        Ok(job as u32 * 10)
                    }
                })
            });
            let healthy = &healthy;
            s.spawn(move || run_lane(1, healthy, queue, fleet, |job, _| Ok(job as u32 * 10)));
        });
        let st = plock(&queue.state);
        assert_eq!(st.unresolved, 0, "round ended with unresolved jobs");
        for (i, slot) in st.slots.iter().enumerate() {
            assert_eq!(*slot, Some(i as u32 * 10), "job {i} lost or corrupted");
        }
        assert!(st.retried <= 1, "only the one injected failure may retry");
        assert!(st.stolen <= st.retried, "steals must be a subset of retries");
    })
}

/// Half-open probe budget: after a trip with zero cooldown the breaker
/// is immediately half-open; two racing claimants must never both hold
/// the probe, and after the holder releases it the probe must still be
/// claimable (a leaked release wedges the breaker half-open forever —
/// this is the invariant the seeded regression build deliberately
/// breaks).
fn run_breaker(cfg: &Config) -> Report {
    explore("breaker", cfg, || {
        let b = CircuitBreaker::new(BreakerConfig {
            window: 2,
            min_samples: 1,
            failure_threshold: 0.5,
            cooldown: Duration::ZERO,
        });
        b.on_result(false); // trips; zero cooldown half-opens on next look
        assert_eq!(b.state(), BreakerState::HalfOpen);
        let holders = AtomicUsize::new(0);
        paradigm_race::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    if b.try_probe() {
                        let concurrent = holders.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(concurrent, 0, "half-open probe double-spent");
                        holders.fetch_sub(1, Ordering::SeqCst);
                        // The probe proved nothing (think: cache hit), so
                        // the claim must go back for a real attempt.
                        b.release_probe();
                    }
                });
            }
        });
        assert!(b.try_probe(), "released probe lost: breaker wedged half-open with no prober");
    })
}

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
        paradigm_solver::workspace::reset_pool();
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
            breaker: BreakerConfig {
                window: 4,
                min_samples: 1,
                failure_threshold: 0.5,
                cooldown: Duration::from_secs(60),
            },
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
            name: "queue",
            about: "work queue: worker crash + steal never loses a job",
            config: Config::with_bound(2),
            run: run_queue,
        },
        Suite {
            name: "breaker",
            about: "half-open probe budget is never double-spent or leaked",
            config: Config::with_bound(2),
            run: run_breaker,
        },
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
