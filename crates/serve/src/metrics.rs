//! Live service metrics: lock-free counters, a queue-depth gauge, and a
//! log₂-bucketed latency histogram.
//!
//! Everything is `AtomicU64` with relaxed ordering — the metrics are
//! monotone tallies, not synchronization points, so torn cross-counter
//! reads (e.g. a hit counted before its request) are acceptable and the
//! hot path pays one uncontended atomic add per event.

use crate::json::Json;
use paradigm_race::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ latency buckets: bucket `i` counts requests with
/// latency in `[2^i, 2^(i+1))` microseconds (bucket 0 also absorbs
/// sub-microsecond requests), covering up to ~35 minutes.
pub const HIST_BUCKETS: usize = 32;

/// A log₂-bucketed latency histogram over microseconds.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl LatencyHistogram {
    /// Record one latency observation.
    pub fn record_us(&self, us: u64) {
        let idx = (63 - u64::leading_zeros(us.max(1)) as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Current bucket counts.
    pub fn snapshot(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// Upper-bound estimate of the `q`-quantile (0 < q < 1) from bucket
/// counts: the upper edge of the bucket holding the quantile rank.
fn quantile_us(buckets: &[u64; HIST_BUCKETS], q: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return Some(1u64 << (i + 1));
        }
    }
    Some(u64::MAX)
}

/// The service's counter set. One instance per [`crate::Service`],
/// shared by workers, submitters, and the stats endpoint.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Solve requests taken on: answered from the cache on the
    /// submitter's thread, or accepted into the queue.
    pub requests: AtomicU64,
    /// Requests answered from a ready cache entry.
    pub cache_hits: AtomicU64,
    /// The part of `cache_hits` answered on the submitter's thread,
    /// without a hand-off to a worker; the rest are keys that became
    /// ready while their request was queued.
    pub inline_hits: AtomicU64,
    /// Requests that started a fresh solve.
    pub cache_misses: AtomicU64,
    /// Requests that piggybacked on another request's in-flight solve.
    pub dedup_waits: AtomicU64,
    /// Pipeline solves actually executed (== distinct cold keys).
    pub solves: AtomicU64,
    /// Requests completed successfully.
    pub completed: AtomicU64,
    /// Requests failed (bad input, solve panic, shutdown).
    pub errors: AtomicU64,
    /// Requests dropped because their deadline passed while queued.
    pub deadline_misses: AtomicU64,
    /// Requests rejected by admission control before queueing (the
    /// estimated queue wait already exceeded their deadline, or the
    /// queue stayed full past the configured wait bound).
    pub shed: AtomicU64,
    /// Requests answered by the equal-split fallback rather than the
    /// primary convex solver.
    pub degraded: AtomicU64,
    /// EMA of fresh-solve duration in µs (admission control's estimate
    /// of per-job service time).
    pub avg_solve_us: AtomicU64,
    /// Sampled schedule audits that verified clean.
    pub audit_pass: AtomicU64,
    /// Sampled schedule audits that found an inconsistency.
    pub audit_fail: AtomicU64,
    /// Cache entries evicted by the LRU bound.
    pub evictions: AtomicU64,
    /// Jobs currently queued (gauge).
    pub queue_depth: AtomicU64,
    /// Solves a worker ran on the solver workspace it owns: one per
    /// solve (== `solves`).
    pub ws_acquires: AtomicU64,
    /// The part of `ws_acquires` whose workspace was already warm from
    /// an earlier solve of the same worker.
    pub ws_reuses: AtomicU64,
    /// End-to-end latency of completed requests: submit entry →
    /// response for an inline hit, enqueue → response for a queued job.
    pub latency: LatencyHistogram,
}

/// A point-in-time copy of [`Metrics`], safe to serialize or compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// See [`Metrics::requests`].
    pub requests: u64,
    /// See [`Metrics::cache_hits`].
    pub cache_hits: u64,
    /// See [`Metrics::inline_hits`].
    pub inline_hits: u64,
    /// See [`Metrics::cache_misses`].
    pub cache_misses: u64,
    /// See [`Metrics::dedup_waits`].
    pub dedup_waits: u64,
    /// See [`Metrics::solves`].
    pub solves: u64,
    /// See [`Metrics::completed`].
    pub completed: u64,
    /// See [`Metrics::errors`].
    pub errors: u64,
    /// See [`Metrics::deadline_misses`].
    pub deadline_misses: u64,
    /// See [`Metrics::shed`].
    pub shed: u64,
    /// See [`Metrics::degraded`].
    pub degraded: u64,
    /// See [`Metrics::avg_solve_us`].
    pub avg_solve_us: u64,
    /// See [`Metrics::audit_pass`].
    pub audit_pass: u64,
    /// See [`Metrics::audit_fail`].
    pub audit_fail: u64,
    /// See [`Metrics::evictions`].
    pub evictions: u64,
    /// See [`Metrics::queue_depth`].
    pub queue_depth: u64,
    /// See [`Metrics::ws_acquires`].
    pub ws_acquires: u64,
    /// See [`Metrics::ws_reuses`].
    pub ws_reuses: u64,
    /// See [`Metrics::latency`].
    pub latency_buckets: [u64; HIST_BUCKETS],
}

impl Metrics {
    /// Take a consistent-enough copy of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            inline_hits: self.inline_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            dedup_waits: self.dedup_waits.load(Ordering::Relaxed),
            solves: self.solves.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            avg_solve_us: self.avg_solve_us.load(Ordering::Relaxed),
            audit_pass: self.audit_pass.load(Ordering::Relaxed),
            audit_fail: self.audit_fail.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            ws_acquires: self.ws_acquires.load(Ordering::Relaxed),
            ws_reuses: self.ws_reuses.load(Ordering::Relaxed),
            latency_buckets: self.latency.snapshot(),
        }
    }
}

impl MetricsSnapshot {
    /// Upper-bound p50 latency in µs, if any request completed.
    fn p50_us(&self) -> Option<u64> {
        quantile_us(&self.latency_buckets, 0.50)
    }

    /// Upper-bound p99 latency in µs, if any request completed.
    fn p99_us(&self) -> Option<u64> {
        quantile_us(&self.latency_buckets, 0.99)
    }

    /// Render as a JSON object (the `stats` response payload).
    pub fn to_json(&self) -> Json {
        let hist: Vec<Json> = self.latency_buckets.iter().map(|&c| Json::num(c as f64)).collect();
        Json::Obj(vec![
            ("requests".into(), Json::num(self.requests as f64)),
            ("cache_hits".into(), Json::num(self.cache_hits as f64)),
            ("inline_hits".into(), Json::num(self.inline_hits as f64)),
            ("cache_misses".into(), Json::num(self.cache_misses as f64)),
            ("dedup_waits".into(), Json::num(self.dedup_waits as f64)),
            ("solves".into(), Json::num(self.solves as f64)),
            ("completed".into(), Json::num(self.completed as f64)),
            ("errors".into(), Json::num(self.errors as f64)),
            ("deadline_misses".into(), Json::num(self.deadline_misses as f64)),
            ("shed".into(), Json::num(self.shed as f64)),
            ("degraded".into(), Json::num(self.degraded as f64)),
            ("avg_solve_us".into(), Json::num(self.avg_solve_us as f64)),
            ("audit_pass".into(), Json::num(self.audit_pass as f64)),
            ("audit_fail".into(), Json::num(self.audit_fail as f64)),
            ("evictions".into(), Json::num(self.evictions as f64)),
            ("queue_depth".into(), Json::num(self.queue_depth as f64)),
            ("ws_acquires".into(), Json::num(self.ws_acquires as f64)),
            ("ws_reuses".into(), Json::num(self.ws_reuses as f64)),
            ("p50_us".into(), self.p50_us().map_or(Json::Null, |v| Json::num(v as f64))),
            ("p99_us".into(), self.p99_us().map_or(Json::Null, |v| Json::num(v as f64))),
            ("latency_log2_us".into(), Json::Arr(hist)),
        ])
    }

    /// Human-readable multi-line rendering (shutdown dump).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("serve stats:\n");
        out.push_str(&format!(
            "  requests {}  completed {}  errors {}  deadline-misses {}  shed {}\n",
            self.requests, self.completed, self.errors, self.deadline_misses, self.shed
        ));
        out.push_str(&format!(
            "  cache: hits {} (inline {})  misses {}  dedup-waits {}  solves {}  evictions {}\n",
            self.cache_hits,
            self.inline_hits,
            self.cache_misses,
            self.dedup_waits,
            self.solves,
            self.evictions
        ));
        out.push_str(&format!(
            "  resilience: degraded {}  avg-solve {} us\n",
            self.degraded, self.avg_solve_us
        ));
        out.push_str(&format!("  audits: pass {}  fail {}\n", self.audit_pass, self.audit_fail));
        out.push_str(&format!(
            "  worker workspaces: acquires {}  reuses {}\n",
            self.ws_acquires, self.ws_reuses
        ));
        out.push_str(&format!(
            "  latency: p50 <= {} us, p99 <= {} us  queue depth {}\n",
            self.p50_us().map_or_else(|| "n/a".into(), |v| v.to_string()),
            self.p99_us().map_or_else(|| "n/a".into(), |v| v.to_string()),
            self.queue_depth
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let h = LatencyHistogram::default();
        h.record_us(0); // clamped into bucket 0
        h.record_us(1);
        h.record_us(3);
        h.record_us(4);
        h.record_us(1_000_000);
        let snap = h.snapshot();
        assert_eq!(snap[0], 2);
        assert_eq!(snap[1], 1);
        assert_eq!(snap[2], 1);
        assert_eq!(snap[19], 1); // 2^19 = 524288 <= 1e6 < 2^20
        assert_eq!(snap.iter().sum::<u64>(), 5);
    }

    #[test]
    fn quantiles_estimate_upper_bounds() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record_us(10); // bucket 3 -> upper edge 16
        }
        h.record_us(100_000); // bucket 16 -> upper edge 131072
        let snap = h.snapshot();
        assert_eq!(quantile_us(&snap, 0.5), Some(16));
        assert_eq!(quantile_us(&snap, 0.99), Some(16));
        assert_eq!(quantile_us(&snap, 0.999), Some(1 << 17));
        let empty = [0u64; HIST_BUCKETS];
        assert_eq!(quantile_us(&empty, 0.5), None);
    }

    #[test]
    fn snapshot_and_json_agree() {
        let m = Metrics::default();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.cache_hits.fetch_add(2, Ordering::Relaxed);
        m.inline_hits.fetch_add(1, Ordering::Relaxed);
        m.latency.record_us(7);
        let s = m.snapshot();
        assert_eq!(s.requests, 3);
        assert_eq!(s.cache_hits, 2);
        let j = s.to_json();
        assert_eq!(j.get("requests").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("cache_hits").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("inline_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(
            j.get("latency_log2_us").and_then(Json::as_arr).map(<[Json]>::len),
            Some(HIST_BUCKETS)
        );
        assert!(s.render().contains("hits 2 (inline 1)"));
    }
}
