//! Sharded, LRU-bounded, content-addressed result cache with
//! single-flight deduplication.
//!
//! Keys are the 128-bit canonical fingerprints produced by
//! [`paradigm_core::solve_fingerprint`]; values are `Arc`-shared solve
//! outputs. The map is split into [`SHARDS`] independently locked
//! shards (selected by the key's low bits) so concurrent requests for
//! different keys never contend on one mutex.
//!
//! **Single-flight:** the first requester of a missing key installs an
//! in-flight marker and computes *outside* the shard lock; every
//! concurrent requester of the same key blocks on that flight's condvar
//! instead of re-running the (milliseconds-expensive, deterministic)
//! solve. When the computation finishes, all waiters receive the same
//! `Arc`. If it fails (the pipeline panicked on a degenerate input),
//! the error is propagated to all waiters and the marker is removed so
//! a later request can retry — failures are never cached.
//!
//! **LRU bound:** each shard holds at most `capacity / SHARDS` ready
//! entries. Recency is a monotone tick stamped on every touch; eviction
//! scans the shard for the stalest *ready* entry (in-flight markers are
//! never evicted). The scan is `O(shard len)`, which at the bounded
//! shard sizes this service uses is cheaper and simpler than an
//! intrusive list.

use paradigm_race::sync::atomic::{AtomicU64, Ordering};
use paradigm_race::sync::{Condvar, Mutex};
use paradigm_race::{plock, pwait};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Number of independently locked shards (power of two).
pub const SHARDS: usize = 8;

/// How a lookup was satisfied, for metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Ready entry found.
    Hit,
    /// This caller ran the computation.
    Miss,
    /// Another caller was already computing this key; we waited.
    DedupWait,
}

/// One in-flight computation: waiters block on the condvar until the
/// leader publishes `Some(result)`.
struct Flight<V> {
    done: Mutex<Option<Result<Arc<V>, String>>>,
    cv: Condvar,
}

enum Entry<V> {
    Ready { value: Arc<V>, tick: u64 },
    InFlight(Arc<Flight<V>>),
}

struct Shard<V> {
    map: Mutex<HashMap<u128, Entry<V>>>,
}

/// The sharded single-flight cache. `V` is the cached value type.
pub struct ShardedCache<V> {
    shards: Vec<Shard<V>>,
    per_shard_capacity: usize,
    tick: AtomicU64,
    evictions: AtomicU64,
}

impl<V> ShardedCache<V> {
    /// A cache bounded to roughly `capacity` ready entries in total
    /// (each shard holds at most `ceil(capacity / SHARDS)`).
    pub fn new(capacity: usize) -> Self {
        let per_shard_capacity = capacity.div_ceil(SHARDS).max(1);
        ShardedCache {
            shards: (0..SHARDS).map(|_| Shard { map: Mutex::new(HashMap::new()) }).collect(),
            per_shard_capacity,
            tick: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u128) -> &Shard<V> {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Total ready entries currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| plock(&s.map).values().filter(|e| matches!(e, Entry::Ready { .. })).count())
            .sum()
    }

    /// True if no ready entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Peek at `key` without computing: returns the ready entry if one
    /// exists (refreshing its recency), `None` otherwise. In-flight
    /// computations are *not* waited on — the service answers a ready
    /// key with this on the submitter's thread, and leaves a key still
    /// being solved to a worker's [`ShardedCache::get_or_compute`].
    pub fn get(&self, key: u128) -> Option<Arc<V>> {
        let mut map = plock(&self.shard(key).map);
        match map.get_mut(&key) {
            Some(Entry::Ready { value, tick }) => {
                *tick = self.next_tick();
                Some(Arc::clone(value))
            }
            _ => None,
        }
    }

    /// Look up `key`, computing it with `compute` on a miss. Returns
    /// the shared value and how it was obtained. Concurrent calls with
    /// the same key during the computation block and share the result.
    ///
    /// `compute` runs without any shard lock held. A panic inside it is
    /// caught, reported as `Err` to this caller *and* all waiters, and
    /// leaves the key uncached.
    pub fn get_or_compute<F>(&self, key: u128, compute: F) -> (Result<Arc<V>, String>, Outcome)
    where
        F: FnOnce() -> V,
    {
        let shard = self.shard(key);
        let flight = {
            let mut map = plock(&shard.map);
            match map.get_mut(&key) {
                Some(Entry::Ready { value, tick }) => {
                    *tick = self.next_tick();
                    return (Ok(Arc::clone(value)), Outcome::Hit);
                }
                Some(Entry::InFlight(flight)) => {
                    let flight = Arc::clone(flight);
                    drop(map);
                    let mut done = plock(&flight.done);
                    while done.is_none() {
                        done = pwait(&flight.cv, done);
                    }
                    return (done.clone().expect("checked above"), Outcome::DedupWait);
                }
                None => {
                    if cfg!(paradigm_race_seeded_double_flight) {
                        // Seeded regression for the model checker's
                        // self-test: the shard lock is let go between
                        // the miss and the in-flight marker, so two
                        // callers can both lead this key.
                        drop(map);
                        map = plock(&shard.map);
                    }
                    let flight = Arc::new(Flight { done: Mutex::new(None), cv: Condvar::new() });
                    map.insert(key, Entry::InFlight(Arc::clone(&flight)));
                    flight
                }
            }
        };

        // We are the leader: compute outside the lock.
        let result: Result<Arc<V>, String> =
            catch_unwind(AssertUnwindSafe(compute)).map(Arc::new).map_err(|panic| {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("solve panicked");
                format!("solve failed: {msg}")
            });

        // Publish to the map first (so new arrivals see Ready/absent),
        // then wake the waiters parked on the flight.
        {
            let mut map = plock(&shard.map);
            match &result {
                Ok(value) => {
                    map.insert(
                        key,
                        Entry::Ready { value: Arc::clone(value), tick: self.next_tick() },
                    );
                    self.evict_if_over(&mut map);
                }
                Err(_) => {
                    map.remove(&key);
                }
            }
        }
        {
            let mut done = plock(&flight.done);
            *done = Some(result.clone());
            flight.cv.notify_all();
        }
        (result, Outcome::Miss)
    }

    /// Evict stalest ready entries until the shard is within capacity.
    fn evict_if_over(&self, map: &mut HashMap<u128, Entry<V>>) {
        loop {
            let ready = map
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Ready { tick, .. } => Some((*k, *tick)),
                    Entry::InFlight(_) => None,
                })
                .collect::<Vec<_>>();
            if ready.len() <= self.per_shard_capacity {
                return;
            }
            if let Some(&(stalest, _)) = ready.iter().min_by_key(|(_, tick)| *tick) {
                map.remove(&stalest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    #[test]
    fn hit_after_miss() {
        let cache: ShardedCache<u64> = ShardedCache::new(16);
        let (v, o) = cache.get_or_compute(7, || 42);
        assert_eq!((*v.unwrap(), o), (42, Outcome::Miss));
        let (v, o) = cache.get_or_compute(7, || unreachable!("must not recompute"));
        assert_eq!((*v.unwrap(), o), (42, Outcome::Hit));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn peek_returns_ready_entries_only() {
        let cache: ShardedCache<u64> = ShardedCache::new(16);
        assert_eq!(cache.get(3), None);
        assert_eq!(cache.get_or_compute(3, || 30).1, Outcome::Miss);
        assert_eq!(cache.get(3).as_deref(), Some(&30));
        // Peeking refreshes recency: with 2 slots per shard, touching 0
        // via get() must make 8 the eviction victim when 16 arrives.
        let cache: ShardedCache<u64> = ShardedCache::new(16);
        assert_eq!(cache.get_or_compute(0, || 10).1, Outcome::Miss);
        assert_eq!(cache.get_or_compute(8, || 20).1, Outcome::Miss);
        assert!(cache.get(0).is_some());
        assert_eq!(cache.get_or_compute(16, || 30).1, Outcome::Miss);
        assert!(cache.get(0).is_some());
        assert_eq!(cache.get(8), None);
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        let cache: Arc<ShardedCache<u64>> = Arc::new(ShardedCache::new(16));
        let computes = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            handles.push(thread::spawn(move || {
                let (v, o) = cache.get_or_compute(99, || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    // Widen the race window so waiters really pile up.
                    thread::sleep(std::time::Duration::from_millis(30));
                    1234u64
                });
                assert_eq!(*v.unwrap(), 1234);
                o
            }));
        }
        let outcomes: Vec<Outcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single flight");
        // Exactly one leader; the rest either waited on the flight or
        // arrived after publication and hit.
        assert_eq!(outcomes.iter().filter(|&&o| o == Outcome::Miss).count(), 1);
        let followers =
            outcomes.iter().filter(|&&o| matches!(o, Outcome::DedupWait | Outcome::Hit)).count();
        assert_eq!(followers, 7);
    }

    #[test]
    fn lru_evicts_stalest_within_shard() {
        // Capacity 8 over 8 shards = 1 ready entry per shard. Keys 0 and
        // 8 land in shard 0; inserting both must evict the staler one.
        let cache: ShardedCache<u64> = ShardedCache::new(8);
        assert_eq!(cache.get_or_compute(0, || 10).1, Outcome::Miss);
        assert_eq!(cache.get_or_compute(8, || 20).1, Outcome::Miss);
        assert_eq!(cache.evictions(), 1);
        // Key 0 was evicted; recomputing it is a miss.
        let (_, o) = cache.get_or_compute(0, || 11);
        assert_eq!(o, Outcome::Miss);
    }

    #[test]
    fn touch_refreshes_recency() {
        // Capacity 16 over 8 shards = 2 ready entries per shard; keys
        // 0, 8, 16 all land in shard 0.
        let cache: ShardedCache<u64> = ShardedCache::new(16);
        assert_eq!(cache.get_or_compute(0, || 10).1, Outcome::Miss);
        assert_eq!(cache.get_or_compute(8, || 20).1, Outcome::Miss);
        // Touch 0 so 8 becomes the stalest: 16's insert must evict 8.
        assert_eq!(cache.get_or_compute(0, || unreachable!()).1, Outcome::Hit);
        assert_eq!(cache.get_or_compute(16, || 30).1, Outcome::Miss);
        let (_, o) = cache.get_or_compute(0, || unreachable!());
        assert_eq!(o, Outcome::Hit);
        let (_, o8) = cache.get_or_compute(8, || 21);
        assert_eq!(o8, Outcome::Miss);
    }

    #[test]
    fn panicking_compute_propagates_and_is_not_cached() {
        let cache: ShardedCache<u64> = ShardedCache::new(16);
        let (r, o) = cache.get_or_compute(5, || panic!("bad graph"));
        assert_eq!(o, Outcome::Miss);
        let msg = r.unwrap_err();
        assert!(msg.contains("bad graph"), "{msg}");
        assert_eq!(cache.len(), 0);
        // Retry succeeds.
        let (v, o) = cache.get_or_compute(5, || 7);
        assert_eq!((*v.unwrap(), o), (7, Outcome::Miss));
    }

    #[test]
    fn panic_wakes_waiters_with_error() {
        let cache: Arc<ShardedCache<u64>> = Arc::new(ShardedCache::new(16));
        let mut handles = Vec::new();
        for i in 0..4 {
            let cache = Arc::clone(&cache);
            handles.push(thread::spawn(move || {
                cache.get_or_compute(77, || {
                    thread::sleep(std::time::Duration::from_millis(20 + i));
                    panic!("poisoned input")
                })
            }));
        }
        // Every compute panics, so whether a thread led its own flight
        // or waited on another's, it must observe an error.
        for h in handles {
            let (r, _) = h.join().unwrap();
            assert!(r.is_err());
        }
        assert_eq!(cache.len(), 0);
    }
}
