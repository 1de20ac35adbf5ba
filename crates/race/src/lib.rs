//! `paradigm-race`: a loom-style deterministic concurrency model checker.
//!
//! The concurrent core of the scheduling service — the sharded single-flight
//! cache, the service's queue and drain, the threaded consensus rounds — is
//! a set of hand-rolled state machines whose correctness was previously
//! argued only by sampled chaos drills. Sampling finds crashes; it cannot
//! prove the absence of lost wakeups, races, or deadlocks. This crate adds systematic concurrency testing:
//!
//! 1. **Shim sync layer** ([`sync`], [`thread`], [`time`]): API-compatible
//!    `Mutex`, `Condvar`, `RwLock`, `Atomic*`, `thread::spawn/scope`, and a
//!    logical-clock `Instant`. Under `--cfg paradigm_race` every operation is
//!    a scheduling point routed through a cooperative scheduler; under normal
//!    builds they are zero-cost re-exports of `std` (no wrapper, no branch —
//!    the *same types*).
//! 2. **Explorer** ([`explore()`]): runs a closure-under-test across all
//!    interleavings up to a configurable preemption bound using DFS with
//!    sleep-set partial-order reduction. Failing schedules are replayed
//!    deterministically and printed as a numbered event trace
//!    (thread, op, source location).
//! 3. **Lock-order analysis** ([`lockorder`]): a dynamic lock-order graph is
//!    recorded during exploration and checked for cycles, so *potential*
//!    deadlocks are reported even on schedules that did not happen to
//!    deadlock.
//!
//! What "verified" means here — and does not — is written up in DESIGN.md
//! §12. In short: exhaustive up to the preemption/depth bound under a
//! sequentially consistent memory model with patient timers; not a proof for
//! unbounded threads or weak-memory reorderings.

// This crate IS the sanctioned wrapper around the raw primitives that
// clippy.toml disallows everywhere else: normal builds re-export the std
// types verbatim, model builds wrap real locks to carry task state.
#![allow(clippy::disallowed_types)]

pub mod explore;
pub mod lockorder;
pub mod report;
#[cfg(paradigm_race)]
pub(crate) mod sched;
pub mod sync;
pub mod thread;
pub mod time;

pub use explore::{explore, replay};
pub use report::{Config, Event, Report, Suite, Violation, ViolationKind};

/// Poison-recovering lock: acquires the mutex and, if a previous holder
/// panicked, recovers the inner data instead of propagating the poison.
///
/// Every shared structure in the checked crates guards data that remains
/// structurally valid after a panic mid-critical-section (counters, queues
/// whose items are re-enqueued by the caller's cleanup path, caches keyed by
/// content hash). Cascading `PoisonError` panics out of *observers* (metrics
/// snapshots, drain paths) turned one worker panic into a fleet outage; the
/// model checker's panic schedules exercise exactly this, so recovery is the
/// contract now.
pub fn plock<T: ?Sized>(m: &sync::Mutex<T>) -> sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Poison-recovering read lock; see [`plock`].
pub fn pread<T: ?Sized>(l: &sync::RwLock<T>) -> sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Poison-recovering write lock; see [`plock`].
pub fn pwrite<T: ?Sized>(l: &sync::RwLock<T>) -> sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Poison-recovering condvar wait; see [`plock`].
pub fn pwait<'a, T>(cv: &sync::Condvar, guard: sync::MutexGuard<'a, T>) -> sync::MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Poison-recovering timed condvar wait. Returns the reacquired guard and
/// whether the wait timed out; see [`plock`].
pub fn pwait_timeout<'a, T>(
    cv: &sync::Condvar,
    guard: sync::MutexGuard<'a, T>,
    dur: std::time::Duration,
) -> (sync::MutexGuard<'a, T>, bool) {
    let (g, res) = cv.wait_timeout(guard, dur).unwrap_or_else(std::sync::PoisonError::into_inner);
    (g, res.timed_out())
}

/// True when this build routes sync operations through the model scheduler.
pub const fn model_enabled() -> bool {
    cfg!(paradigm_race)
}
