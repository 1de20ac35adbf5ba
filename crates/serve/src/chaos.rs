//! Deterministic fault injection for the serving layer.
//!
//! A [`FaultPlan`] describes *which* faults to inject and at what rates;
//! the runtime [`Chaos`] object turns the plan into reproducible
//! decisions. Every injection site keeps its own monotone draw counter,
//! and each decision hashes `(seed, site, counter)` through splitmix64
//! into a uniform draw in `[0, 1)` — so a given `(plan, request order)`
//! pair always injects exactly the same faults, which is what the chaos
//! integration test needs to assert precise outcomes.
//!
//! Injection sites and what they simulate:
//!
//! * **worker panic** — the pipeline solve aborts mid-flight (a bug, a
//!   degenerate input). Injected inside the primary compute closure, so
//!   it exercises the cache's catch_unwind and the degraded fallback
//!   path.
//! * **slow solve** — a solve that takes far longer than predicted
//!   (contended machine, pathological graph). Stretches queue waits so
//!   admission control has something to shed.
//! * **queue stall** — a worker naps before popping work (GC pause,
//!   scheduler hiccup).
//! * **connection drop** — the TCP handler severs the connection before
//!   writing the response, forcing clients onto their retry path.
//! * **truncated frame** — the handler writes only a prefix of the
//!   response line, exercising client-side parse-failure retries.

use paradigm_race::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which faults to inject, at what probability, under which seed.
/// Probabilities are in `[0, 1]`; a default plan injects nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the deterministic decision stream.
    pub seed: u64,
    /// Probability a solve panics mid-flight.
    pub worker_panic: f64,
    /// Number of panic-site draws that are skipped before panics can
    /// fire (lets tests warm the cache deterministically first).
    pub panic_after: u64,
    /// Probability a solve is artificially slowed.
    pub slow_solve: f64,
    /// How long a slowed solve sleeps.
    pub slow_ms: u64,
    /// Probability a worker stalls before popping the queue.
    pub queue_stall: f64,
    /// How long a stalled worker sleeps.
    pub stall_ms: u64,
    /// Probability the server drops a connection instead of responding.
    pub conn_drop: f64,
    /// Probability the server truncates the response frame.
    pub truncate: f64,
}

impl FaultPlan {
    /// Parse a compact plan spec of comma-separated `key=value` items:
    ///
    /// ```text
    /// seed=42,panic=0.5,panic-after=3,slow=0.3:50,stall=0.2:20,drop=0.1,truncate=0.1
    /// ```
    ///
    /// `slow` and `stall` take an optional `:<ms>` duration suffix
    /// (defaults: 50 ms slow, 20 ms stall). Unknown keys and out-of-range
    /// probabilities are errors.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan { slow_ms: 50, stall_ms: 20, ..FaultPlan::default() };
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) =
                item.split_once('=').ok_or_else(|| format!("expected key=value, got `{item}`"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v.parse().map_err(|_| format!("bad probability `{v}` for `{key}`"))?;
                if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                    return Err(format!("probability for `{key}` must be in [0, 1], got {v}"));
                }
                Ok(p)
            };
            let prob_ms = |v: &str| -> Result<(f64, Option<u64>), String> {
                match v.split_once(':') {
                    Some((p, ms)) => {
                        let ms =
                            ms.parse().map_err(|_| format!("bad duration `{ms}` for `{key}`"))?;
                        Ok((prob(p)?, Some(ms)))
                    }
                    None => Ok((prob(v)?, None)),
                }
            };
            match key {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
                }
                "panic" => plan.worker_panic = prob(value)?,
                "panic-after" => {
                    plan.panic_after =
                        value.parse().map_err(|_| format!("bad panic-after `{value}`"))?;
                }
                "slow" => {
                    let (p, ms) = prob_ms(value)?;
                    plan.slow_solve = p;
                    if let Some(ms) = ms {
                        plan.slow_ms = ms;
                    }
                }
                "stall" => {
                    let (p, ms) = prob_ms(value)?;
                    plan.queue_stall = p;
                    if let Some(ms) = ms {
                        plan.stall_ms = ms;
                    }
                }
                "drop" => plan.conn_drop = prob(value)?,
                "truncate" => plan.truncate = prob(value)?,
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// True if every fault probability is zero (nothing to inject).
    pub fn is_quiet(&self) -> bool {
        self.worker_panic == 0.0
            && self.slow_solve == 0.0
            && self.queue_stall == 0.0
            && self.conn_drop == 0.0
            && self.truncate == 0.0
    }
}

/// Per-site draw counters; one [`Chaos`] per service instance.
#[derive(Debug, Default)]
pub struct Chaos {
    plan: FaultPlan,
    panic_draws: AtomicU64,
    slow_draws: AtomicU64,
    stall_draws: AtomicU64,
    drop_draws: AtomicU64,
    truncate_draws: AtomicU64,
    /// Faults actually injected (all sites combined).
    injected: AtomicU64,
}

/// splitmix64: a tiny, high-quality bijective mixer — plenty for
/// turning (seed, site, counter) into an independent-looking stream.
/// The client's retry jitter draws from it too.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Chaos {
    /// Build the runtime decision stream for `plan`.
    pub fn new(plan: FaultPlan) -> Chaos {
        Chaos { plan, ..Chaos::default() }
    }

    /// The plan this stream was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total faults injected so far (all sites).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// One deterministic Bernoulli draw at `site` with probability `p`,
    /// numbered by the site's counter.
    fn draw(&self, site: u64, counter: &AtomicU64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let n = counter.fetch_add(1, Ordering::Relaxed);
        self.draw_at(site, n, p)
    }

    /// The deterministic decision for draw number `n` at `site`.
    fn draw_at(&self, site: u64, n: u64, p: f64) -> bool {
        let h = splitmix64(self.plan.seed ^ site.wrapping_mul(0xa076_1d64_78bd_642f) ^ n);
        // Map the top 53 bits to [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let fire = u < p;
        if fire {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Panic the calling worker if the plan says so. The first
    /// `panic_after` draws at this site never fire. One atomic
    /// increment both numbers the draw and decides the skip, so
    /// concurrent workers skip exactly `panic_after` draws.
    pub fn maybe_panic(&self) {
        if self.plan.worker_panic <= 0.0 {
            return;
        }
        let n = self.panic_draws.fetch_add(1, Ordering::Relaxed);
        if n < self.plan.panic_after {
            return;
        }
        if self.draw_at(1, n, self.plan.worker_panic) {
            panic!("chaos: injected worker panic");
        }
    }

    /// Sleep inside the solve if the plan says so.
    pub fn maybe_slow(&self) {
        if self.draw(2, &self.slow_draws, self.plan.slow_solve) {
            paradigm_race::thread::sleep(Duration::from_millis(self.plan.slow_ms));
        }
    }

    /// Stall the worker before it pops the queue if the plan says so.
    pub fn maybe_stall(&self) {
        if self.draw(3, &self.stall_draws, self.plan.queue_stall) {
            paradigm_race::thread::sleep(Duration::from_millis(self.plan.stall_ms));
        }
    }

    /// Should the server sever this connection instead of responding?
    pub fn drop_connection(&self) -> bool {
        self.draw(4, &self.drop_draws, self.plan.conn_drop)
    }

    /// Should the server write only a prefix of the response frame?
    pub fn truncate_frame(&self) -> bool {
        self.draw(5, &self.truncate_draws, self.plan.truncate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse(
            "seed=42,panic=0.5,panic-after=3,slow=0.3:75,stall=0.2:20,drop=0.1,truncate=0.05",
        )
        .unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.worker_panic, 0.5);
        assert_eq!(p.panic_after, 3);
        assert_eq!((p.slow_solve, p.slow_ms), (0.3, 75));
        assert_eq!((p.queue_stall, p.stall_ms), (0.2, 20));
        assert_eq!(p.conn_drop, 0.1);
        assert_eq!(p.truncate, 0.05);
        assert!(!p.is_quiet());
    }

    #[test]
    fn parse_defaults_and_errors() {
        let p = FaultPlan::parse("slow=0.5").unwrap();
        assert_eq!(p.slow_ms, 50, "default slow duration");
        assert!(FaultPlan::parse("").unwrap().is_quiet());
        assert!(FaultPlan::parse("panic=1.5").is_err(), "probability out of range");
        assert!(FaultPlan::parse("panic=nan").is_err());
        assert!(FaultPlan::parse("frobnicate=0.5").is_err(), "unknown key");
        assert!(FaultPlan::parse("panic").is_err(), "missing value");
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan { seed: 7, conn_drop: 0.5, ..FaultPlan::default() };
        let a = Chaos::new(plan.clone());
        let b = Chaos::new(plan);
        let seq_a: Vec<bool> = (0..64).map(|_| a.drop_connection()).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.drop_connection()).collect();
        assert_eq!(seq_a, seq_b);
        let fired = seq_a.iter().filter(|&&f| f).count();
        assert!(fired > 10 && fired < 54, "p=0.5 over 64 draws fired {fired}");
    }

    #[test]
    fn sites_are_independent_streams() {
        let plan = FaultPlan { seed: 7, conn_drop: 0.5, truncate: 0.5, ..FaultPlan::default() };
        let c = Chaos::new(plan);
        let drops: Vec<bool> = (0..64).map(|_| c.drop_connection()).collect();
        let truncs: Vec<bool> = (0..64).map(|_| c.truncate_frame()).collect();
        assert_ne!(drops, truncs, "sites must not mirror each other");
    }

    #[test]
    fn panic_after_skips_early_draws() {
        let plan = FaultPlan { seed: 1, worker_panic: 1.0, panic_after: 3, ..FaultPlan::default() };
        let c = Chaos::new(plan);
        for _ in 0..3 {
            c.maybe_panic(); // skipped
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.maybe_panic()));
        assert!(r.is_err(), "fourth draw must panic at p=1");
    }

    #[test]
    fn panic_after_skips_exactly_n_under_concurrency() {
        use std::sync::Arc;

        let plan = FaultPlan { seed: 1, worker_panic: 1.0, panic_after: 8, ..FaultPlan::default() };
        let c = Arc::new(Chaos::new(plan));
        let fired = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                let fired = Arc::clone(&fired);
                std::thread::spawn(move || {
                    for _ in 0..4 {
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            c.maybe_panic();
                        }));
                        if r.is_err() {
                            fired.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 16 draws at p=1: exactly the first 8 are skipped, the rest
        // fire — regardless of how the threads interleave.
        assert_eq!(fired.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn zero_probability_never_fires() {
        let c = Chaos::new(FaultPlan { seed: 9, ..FaultPlan::default() });
        for _ in 0..100 {
            c.maybe_panic();
            c.maybe_slow();
            c.maybe_stall();
            assert!(!c.drop_connection());
            assert!(!c.truncate_frame());
        }
        assert_eq!(c.injected(), 0);
    }
}
