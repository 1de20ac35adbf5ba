//! The in-process scheduling service: the single-flight result cache,
//! and behind it a worker thread pool draining a bounded job queue.
//!
//! [`Service::submit`] is the synchronous request path used by the TCP
//! connection handlers, the load generator, and tests:
//!
//! 1. **lookup** — on the caller's thread the spec is validated, the
//!    graph and spec are fingerprinted
//!    ([`paradigm_core::solve_fingerprint`]), a draining service
//!    refuses, and a ready cache entry under that key is answered on
//!    the spot (`inline_hits`): no queue slot, no worker wake-up;
//! 2. **admission** — a miss is shed if the estimated queue wait
//!    already exceeds its deadline, and otherwise blocks while the
//!    queue is full (backpressure, bounded by `max_queue_wait`);
//! 3. **queue** — the job waits for a worker; if its deadline passes
//!    there it is rejected without solving;
//! 4. **worker** — the worker goes through
//!    [`ShardedCache::get_or_compute`], so identical concurrent
//!    requests collapse into one pipeline solve (and a key that became
//!    ready while the job was queued is a hit after all); a failed
//!    solve stays uncached and the job is answered by the salted equal
//!    split. The worker publishes the response on the job's slot,
//!    waking the submitter.
//!
//! Deadlines, admission control and the `queue-stall` chaos site are
//! about waiting for and running the solver, so they apply to steps
//! 2–4 only; a hit does neither.
//!
//! [`Service::shutdown`] is a graceful drain: submissions are refused,
//! workers finish every job already queued (no lost responses), and
//! the final metrics snapshot is returned.

use crate::cache::{Outcome, ShardedCache};
use crate::chaos::{Chaos, FaultPlan};
use crate::metrics::{Metrics, MetricsSnapshot};
use paradigm_core::{
    solve_fingerprint, solve_pipeline_degraded, try_solve_pipeline_in, SolveOutput, SolveSpec,
    SolverWorkspace,
};
use paradigm_mdg::Mdg;
use paradigm_race::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use paradigm_race::sync::{Condvar, Mutex};
use paradigm_race::thread::JoinHandle;
use paradigm_race::time::Instant;
use paradigm_race::{plock, pwait, pwait_timeout};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Key salt separating degraded (equal-split) results from primary
/// results in the shared cache: a degraded answer must never shadow the
/// real one once the solver recovers.
const DEGRADED_SALT: u128 = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c834;

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Maximum ready entries in the result cache.
    pub cache_capacity: usize,
    /// Maximum queued (not yet running) jobs before submitters block.
    pub queue_capacity: usize,
    /// How long a submitter may block on a full queue before the
    /// request is shed (`None` = block indefinitely, the pre-admission
    /// behaviour).
    pub max_queue_wait: Option<Duration>,
    /// Fault-injection plan (tests and chaos drills; `None` in
    /// production).
    pub chaos: Option<FaultPlan>,
    /// Audit every `N`th completed response with an independent
    /// schedule re-verification (`0` disables sampling). Failures bump
    /// the `audit_fail` metric, print the full report to stderr, and
    /// are kept for [`Service::first_audit_failure`].
    pub audit_rate: u64,
    /// Append-only file persisting the sampled auditor's first-failure
    /// report across restarts: loaded on boot into
    /// [`Service::first_audit_failure`], appended to on the first
    /// failure each run.
    pub audit_log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
        ServeConfig {
            workers,
            cache_capacity: 1024,
            queue_capacity: 256,
            max_queue_wait: None,
            chaos: None,
            audit_rate: 0,
            audit_log: None,
        }
    }
}

/// Why a request was not answered with a solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The service is draining; no new work is accepted.
    ShuttingDown,
    /// The job spent longer queued than its deadline allowed.
    DeadlineExceeded {
        /// How long the job waited before a worker reached it.
        queued_for: Duration,
    },
    /// Admission control rejected the job before queueing: the queue
    /// was too deep for its deadline, or stayed full past the
    /// configured wait bound. Retryable — the client should back off
    /// and resubmit.
    Shed {
        /// Jobs queued ahead at rejection time.
        queue_depth: usize,
        /// Estimated wait the job would have faced.
        estimated_wait: Duration,
    },
    /// The request was rejected before solving (bad spec, bad graph).
    Invalid(String),
    /// The pipeline solve itself failed (panic caught by the cache).
    SolveFailed(String),
}

impl ServeError {
    /// Stable machine-readable discriminator (the protocol's `kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::ShuttingDown => "shutting-down",
            ServeError::DeadlineExceeded { .. } => "deadline",
            ServeError::Shed { .. } => "shed",
            ServeError::Invalid(_) => "invalid",
            ServeError::SolveFailed(_) => "solve-failed",
        }
    }

    /// True if a client resubmitting the identical request later can
    /// reasonably expect success (transient overload, not a bad input).
    pub fn retryable(&self) -> bool {
        matches!(self, ServeError::Shed { .. })
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::DeadlineExceeded { queued_for } => {
                write!(f, "deadline exceeded after {} ms in queue", queued_for.as_millis())
            }
            ServeError::Shed { queue_depth, estimated_wait } => write!(
                f,
                "request shed: {queue_depth} jobs queued, estimated wait {} ms",
                estimated_wait.as_millis()
            ),
            ServeError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            ServeError::SolveFailed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A solved response: the shared pipeline output plus per-request
/// service metadata.
#[derive(Debug, Clone)]
pub struct SolveResponse {
    /// The cached (or freshly computed) pipeline output.
    pub output: Arc<SolveOutput>,
    /// Graph name from *this* request (cache entries keep the name of
    /// whichever structurally-equal graph arrived first).
    pub graph: String,
    /// True if the response came from a ready cache entry.
    pub cached: bool,
    /// True if this request waited on another request's in-flight solve.
    pub deduplicated: bool,
    /// End-to-end service latency: submit entry → response ready for
    /// a hit answered on the caller's thread, enqueue → response ready
    /// for a queued job.
    pub service: Duration,
}

struct Job {
    graph: Arc<Mdg>,
    spec: SolveSpec,
    key: u128,
    enqueued: Instant,
    deadline: Option<Duration>,
    slot: Arc<ResponseSlot>,
}

/// One-shot response channel (std has no oneshot; a mutex+condvar pair
/// is enough at this request granularity).
struct ResponseSlot {
    result: Mutex<Option<Result<SolveResponse, ServeError>>>,
    cv: Condvar,
}

impl ResponseSlot {
    fn new() -> Arc<Self> {
        Arc::new(ResponseSlot { result: Mutex::new(None), cv: Condvar::new() })
    }

    fn fill(&self, r: Result<SolveResponse, ServeError>) {
        let mut slot = plock(&self.result);
        *slot = Some(r);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<SolveResponse, ServeError> {
        let mut slot = plock(&self.result);
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            slot = pwait(&self.cv, slot);
        }
    }
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// False once shutdown begins; guarded by the queue mutex so a
    /// submitter can't slip a job in after the drain decision.
    accepting: bool,
}

struct Inner {
    queue: Mutex<QueueState>,
    /// Signals workers: work available or shutdown.
    not_empty: Condvar,
    /// Signals submitters: queue has room again.
    not_full: Condvar,
    cache: ShardedCache<SolveOutput>,
    metrics: Metrics,
    chaos: Option<Arc<Chaos>>,
    cfg: ServeConfig,
    /// Completed-response counter driving audit sampling.
    audit_seq: AtomicU64,
    /// First audit failure, verbatim, for post-mortems. Seeded from
    /// [`ServeConfig::audit_log`] on boot, so it survives restarts.
    audit_failure: Mutex<Option<String>>,
    /// Whether this process has already appended its first failure to
    /// the audit log (each run contributes at most one record).
    audit_logged: AtomicBool,
}

/// The scheduling service. Cheap to share (`Arc` internally); dropped
/// or explicitly [`Service::shutdown`] — both drain cleanly.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Start the worker pool.
    pub fn start(cfg: ServeConfig) -> Service {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.queue_capacity >= 1, "need a non-empty queue");
        let inner = Arc::new(Inner {
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), accepting: true }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cache: ShardedCache::new(cfg.cache_capacity),
            metrics: Metrics::default(),
            chaos: cfg.chaos.clone().filter(|p| !p.is_quiet()).map(|p| Arc::new(Chaos::new(p))),
            cfg: cfg.clone(),
            audit_seq: AtomicU64::new(0),
            audit_failure: Mutex::new(cfg.audit_log.as_deref().and_then(load_first_audit_failure)),
            audit_logged: AtomicBool::new(false),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                paradigm_race::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Service { inner, workers }
    }

    /// Solve one request with no queueing deadline, blocking until the
    /// response is ready. See the module docs for the path taken.
    pub fn submit(&self, graph: Arc<Mdg>, spec: SolveSpec) -> Result<SolveResponse, ServeError> {
        self.submit_with_deadline(graph, spec, None)
    }

    /// [`Service::submit`] with an explicit queueing deadline (`None`
    /// never expires). The deadline bounds the wait for a worker, so it
    /// cannot expire a request answered from the cache in step 1.
    pub fn submit_with_deadline(
        &self,
        graph: Arc<Mdg>,
        spec: SolveSpec,
        deadline: Option<Duration>,
    ) -> Result<SolveResponse, ServeError> {
        let entered = Instant::now();
        if let Err(msg) = spec.validate() {
            self.inner.metrics.errors.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Invalid(msg));
        }
        let key = solve_fingerprint(&graph, &spec);
        if !plock(&self.inner.queue).accepting {
            return Err(ServeError::ShuttingDown);
        }
        // A ready primary entry is answered here, on the caller's
        // thread: it never waits and never runs the solver, so the
        // deadline and admission control have nothing to say about it.
        // The queue lock is released first — the two locks are never
        // held together.
        if let Some(output) = self.inner.cache.get(key) {
            self.inner.metrics.requests.fetch_add(1, Ordering::Relaxed);
            self.inner.metrics.inline_hits.fetch_add(1, Ordering::Relaxed);
            record_outcome(&self.inner, Outcome::Hit);
            return Ok(finish(&self.inner, &graph, &spec, entered, output, Outcome::Hit));
        }
        let slot = ResponseSlot::new();
        {
            let mut q = plock(&self.inner.queue);
            // Admission control: rather than letting a doomed job block
            // a queue slot and expire anyway, reject it now if the
            // estimated wait (queue depth x average solve time over the
            // worker pool) already exceeds its deadline.
            if let Some(deadline) = deadline {
                let est = estimate_wait(&self.inner, q.jobs.len());
                if est > deadline {
                    self.inner.metrics.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Shed {
                        queue_depth: q.jobs.len(),
                        estimated_wait: est,
                    });
                }
            }
            // Full queue: block for at most `max_queue_wait` (bounded
            // further by the job's own deadline), then shed.
            let wait_started = Instant::now();
            loop {
                if !q.accepting {
                    return Err(ServeError::ShuttingDown);
                }
                if q.jobs.len() < self.inner.cfg.queue_capacity {
                    break;
                }
                let bound = match (self.inner.cfg.max_queue_wait, deadline) {
                    (Some(w), Some(d)) => Some(w.min(d)),
                    (Some(w), None) => Some(w),
                    (None, _) => None,
                };
                match bound {
                    Some(bound) => {
                        let remaining = bound.saturating_sub(wait_started.elapsed());
                        if remaining.is_zero() {
                            self.inner.metrics.shed.fetch_add(1, Ordering::Relaxed);
                            // Same semantics as the admission shed above:
                            // an estimate of the wait *ahead*, so clients
                            // sizing backoff from this field see one
                            // consistent meaning.
                            return Err(ServeError::Shed {
                                queue_depth: q.jobs.len(),
                                estimated_wait: estimate_wait(&self.inner, q.jobs.len()),
                            });
                        }
                        let (guard, _timeout) = pwait_timeout(&self.inner.not_full, q, remaining);
                        q = guard;
                    }
                    None => q = pwait(&self.inner.not_full, q),
                }
            }
            q.jobs.push_back(Job {
                graph,
                spec,
                key,
                enqueued: Instant::now(),
                deadline,
                slot: Arc::clone(&slot),
            });
            self.inner.metrics.requests.fetch_add(1, Ordering::Relaxed);
            self.inner.metrics.queue_depth.store(q.jobs.len() as u64, Ordering::Relaxed);
        }
        self.inner.not_empty.notify_one();
        slot.wait()
    }

    /// Current metrics.
    pub fn stats(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// The first sampled-audit failure report, if any audit has failed
    /// (see [`ServeConfig::audit_rate`]).
    pub fn first_audit_failure(&self) -> Option<String> {
        plock(&self.inner.audit_failure).clone()
    }

    /// The fault-injection stream, if a chaos plan is active. The TCP
    /// server consults this for connection-level faults.
    pub fn chaos(&self) -> Option<&Arc<Chaos>> {
        self.inner.chaos.as_ref()
    }

    /// Begin draining without blocking: new submissions are refused
    /// with [`ServeError::ShuttingDown`], but already-queued jobs still
    /// complete. Call [`Service::shutdown`] (or drop) to join workers.
    pub fn drain(&self) {
        self.begin_drain();
    }

    /// Graceful drain: refuse new submissions, let workers finish every
    /// queued job, join them, and return the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.begin_drain();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.stats()
    }

    fn begin_drain(&self) {
        let mut q = plock(&self.inner.queue);
        q.accepting = false;
        drop(q);
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.begin_drain();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// One worker: drain the queue until the drain, every solve on the one
/// solver workspace the worker owns. A solve that panics leaves it
/// reusable — each sweep overwrites what it later reads.
fn worker_loop(inner: &Inner) {
    let mut ws = SolverWorkspace::new();
    loop {
        if let Some(chaos) = &inner.chaos {
            chaos.maybe_stall();
        }
        let job = {
            let mut q = plock(&inner.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    inner.metrics.queue_depth.store(q.jobs.len() as u64, Ordering::Relaxed);
                    break job;
                }
                if !q.accepting {
                    return; // drained and draining: exit
                }
                q = pwait(&inner.not_empty, q);
            }
        };
        inner.not_full.notify_one();

        let queued_for = job.enqueued.elapsed();
        if let Some(deadline) = job.deadline {
            if queued_for > deadline {
                inner.metrics.deadline_misses.fetch_add(1, Ordering::Relaxed);
                inner.metrics.errors.fetch_add(1, Ordering::Relaxed);
                job.slot.fill(Err(ServeError::DeadlineExceeded { queued_for }));
                continue;
            }
        }

        job.slot.fill(solve_job(inner, &job, &mut ws));
    }
}

/// Answer one admitted job on its own ladder: the single-flight primary
/// solve on the worker's workspace `ws`, and if that fails (a typed
/// error or a panic, left uncached), the salted equal split. Every
/// admitted job gets a terminal response, and what one job's input does
/// to the solver decides no other job's answer.
fn solve_job(
    inner: &Inner,
    job: &Job,
    ws: &mut SolverWorkspace,
) -> Result<SolveResponse, ServeError> {
    let done =
        |output, outcome| finish(inner, &job.graph, &job.spec, job.enqueued, output, outcome);
    let started = Instant::now();
    let (result, outcome) = inner.cache.get_or_compute(job.key, || {
        inner.metrics.solves.fetch_add(1, Ordering::Relaxed);
        inner.metrics.ws_acquires.fetch_add(1, Ordering::Relaxed);
        // A workspace that has swept a point has grown its buffers.
        if ws.scratch.counts.forward_sweeps > 0 {
            inner.metrics.ws_reuses.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(chaos) = &inner.chaos {
            chaos.maybe_slow();
            chaos.maybe_panic();
        }
        // A failed solve panics with the `PipelineError`'s text: the
        // cache's one failure channel, which keeps it uncached and
        // answers with the degraded fallback.
        try_solve_pipeline_in(ws, &job.graph, &job.spec).unwrap_or_else(|e| panic!("{e}"))
    });
    record_outcome(inner, outcome);
    let primary_failure = match result {
        Ok(output) => {
            // Only fresh solves inform the admission estimate — hits and
            // dedup-waits didn't run the solver.
            if outcome == Outcome::Miss {
                let sample = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                let old = inner.metrics.avg_solve_us.load(Ordering::Relaxed);
                let ema = if old == 0 { sample } else { (old * 7 + sample) / 8 };
                inner.metrics.avg_solve_us.store(ema, Ordering::Relaxed);
            }
            return Ok(done(output, outcome));
        }
        Err(msg) => msg,
    };

    // Degraded path: the analytic equal-split schedule, cached under a
    // salted key so it never masks a future primary result. This path
    // never runs the convex solver, so it stays up while the primary
    // path is crashing.
    let (result, outcome) = inner
        .cache
        .get_or_compute(job.key ^ DEGRADED_SALT, || solve_pipeline_degraded(&job.graph, &job.spec));
    record_outcome(inner, outcome);
    result.map(|output| done(output, outcome)).map_err(|degraded_msg| {
        inner.metrics.errors.fetch_add(1, Ordering::Relaxed);
        ServeError::SolveFailed(format!(
            "{primary_failure}; degraded fallback also failed: {degraded_msg}"
        ))
    })
}

/// Estimated wait a job joining behind `depth` queued jobs would face:
/// queue depth times the average solve time, spread over the workers.
fn estimate_wait(inner: &Inner, depth: usize) -> Duration {
    let avg = inner.metrics.avg_solve_us.load(Ordering::Relaxed);
    Duration::from_micros((depth as u64).saturating_mul(avg) / inner.cfg.workers.max(1) as u64)
}

fn record_outcome(inner: &Inner, outcome: Outcome) {
    match outcome {
        Outcome::Hit => inner.metrics.cache_hits.fetch_add(1, Ordering::Relaxed),
        Outcome::Miss => inner.metrics.cache_misses.fetch_add(1, Ordering::Relaxed),
        Outcome::DedupWait => inner.metrics.dedup_waits.fetch_add(1, Ordering::Relaxed),
    };
    // Fold cache-level evictions into the service counter.
    inner.metrics.evictions.store(inner.cache.evictions(), Ordering::Relaxed);
}

/// The bookkeeping every answered request goes through, wherever it
/// was answered; `since` is when its latency clock started.
fn finish(
    inner: &Inner,
    graph: &Mdg,
    spec: &SolveSpec,
    since: Instant,
    output: Arc<SolveOutput>,
    outcome: Outcome,
) -> SolveResponse {
    if output.degraded.is_degraded() {
        inner.metrics.degraded.fetch_add(1, Ordering::Relaxed);
    }
    maybe_audit(inner, graph, spec, &output);
    inner.metrics.completed.fetch_add(1, Ordering::Relaxed);
    let service = since.elapsed();
    inner.metrics.latency.record_us(service.as_micros().min(u128::from(u64::MAX)) as u64);
    SolveResponse {
        output,
        graph: graph.name().to_string(),
        cached: outcome == Outcome::Hit,
        deduplicated: outcome == Outcome::DedupWait,
        service,
    }
}

/// Sampled audit: every `audit_rate`-th completed response (cache hits
/// and degraded tiers included) is independently re-verified against
/// the graph and spec of *this* request. A failure is loud — stderr gets
/// the full report, `audit_fail` is bumped, and the first report is
/// kept for [`Service::first_audit_failure`] — but the response is
/// still returned: the auditor flags inconsistencies for operators, it
/// does not invent a better answer to serve.
fn maybe_audit(inner: &Inner, graph: &Mdg, spec: &SolveSpec, output: &SolveOutput) {
    let rate = inner.cfg.audit_rate;
    if rate == 0 {
        return;
    }
    let n = inner.audit_seq.fetch_add(1, Ordering::Relaxed);
    if !n.is_multiple_of(rate) {
        return;
    }
    let report = crate::audit::audit_solve_output(graph, spec, output);
    if report.is_clean() {
        inner.metrics.audit_pass.fetch_add(1, Ordering::Relaxed);
    } else {
        inner.metrics.audit_fail.fetch_add(1, Ordering::Relaxed);
        let rendered = format!("AUDIT FAILURE for graph '{}':\n{}", graph.name(), report.render());
        eprintln!("{rendered}");
        {
            let mut slot = plock(&inner.audit_failure);
            slot.get_or_insert(rendered.clone());
        }
        // Persist this run's first failure to the append-only log so a
        // restarted service still reports it (the slot above may hold a
        // record loaded from a previous run; the file keeps both).
        if let Some(path) = &inner.cfg.audit_log {
            if !inner.audit_logged.swap(true, Ordering::Relaxed) {
                if let Err(e) = append_audit_record(path, &rendered) {
                    eprintln!("serve: could not append audit log {}: {e}", path.display());
                }
            }
        }
    }
}

/// Separator line between records in the audit failure log.
const AUDIT_RECORD_SEP: &str = "=== audit record ===";

/// First record of the append-only audit failure log, if the file
/// exists and holds one.
fn load_first_audit_failure(path: &Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let first = text.split(AUDIT_RECORD_SEP).map(str::trim).find(|r| !r.is_empty())?;
    Some(first.to_string())
}

/// Append one failure record (report + separator) to the audit log,
/// creating the file and its parent directory as needed.
fn append_audit_record(path: &Path, rendered: &str) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{rendered}\n{AUDIT_RECORD_SEP}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_core::gallery_graph;
    use paradigm_cost::Machine;

    fn fig1() -> Arc<Mdg> {
        Arc::new(gallery_graph("fig1").expect("gallery"))
    }

    fn small_cfg() -> ServeConfig {
        ServeConfig { workers: 2, cache_capacity: 64, queue_capacity: 8, ..ServeConfig::default() }
    }

    #[test]
    fn solve_then_hit() {
        let svc = Service::start(small_cfg());
        let spec = SolveSpec::new(Machine::cm5(4));
        let first = svc.submit(fig1(), spec.clone()).unwrap();
        assert!(!first.cached);
        assert!(first.output.phi > 0.0);
        assert!((first.output.t_psa - 14.3).abs() < 1e-9);
        let second = svc.submit(fig1(), spec).unwrap();
        assert!(second.cached);
        assert_eq!(second.output.t_psa, first.output.t_psa);
        let stats = svc.shutdown();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.solves, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.inline_hits, 1, "the hit was answered without a hand-off");
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn a_worker_solves_on_its_own_workspace_and_the_stats_count_only_this_service() {
        // One worker: its first solve finds its workspace cold, its
        // second warm. Other services in the process count on their own.
        let svc = Service::start(ServeConfig { workers: 1, ..small_cfg() });
        for procs in [4, 8] {
            let r = svc.submit(fig1(), SolveSpec::new(Machine::cm5(procs))).unwrap();
            assert!(!r.cached, "distinct machine sizes are distinct cold solves");
        }
        let stats = svc.shutdown();
        assert_eq!((stats.ws_acquires, stats.ws_reuses), (2, 1), "{stats:?}");
    }

    #[test]
    fn structurally_equal_graphs_share_one_entry() {
        let svc = Service::start(small_cfg());
        let spec = SolveSpec::new(Machine::cm5(4));
        // Round-trip through the text format: different object, same
        // structure and name-set, so the fingerprint matches.
        let g1 = fig1();
        let g2 = Arc::new(paradigm_mdg::from_text(&paradigm_mdg::to_text(&g1)).unwrap());
        svc.submit(g1, spec.clone()).unwrap();
        let r = svc.submit(g2, spec).unwrap();
        assert!(r.cached, "structural equality must hit");
        let stats = svc.shutdown();
        assert_eq!(stats.solves, 1);
    }

    #[test]
    fn invalid_spec_rejected_without_solving() {
        let svc = Service::start(small_cfg());
        let mut spec = SolveSpec::new(Machine::cm5(4));
        spec.pb = Some(64); // exceeds machine size
        let err = svc.submit(fig1(), spec).unwrap_err();
        assert!(matches!(err, ServeError::Invalid(_)), "{err}");
        let stats = svc.shutdown();
        assert_eq!(stats.solves, 0);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn zero_deadline_expires_in_queue() {
        let svc = Service::start(ServeConfig { workers: 1, ..small_cfg() });
        let err = svc
            .submit_with_deadline(fig1(), SolveSpec::new(Machine::cm5(4)), Some(Duration::ZERO))
            .unwrap_err();
        assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err}");
        let stats = svc.shutdown();
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(stats.solves, 0);
    }

    #[test]
    fn submit_after_shutdown_refused() {
        let svc = Service::start(small_cfg());
        svc.begin_drain();
        let err = svc.submit(fig1(), SolveSpec::new(Machine::cm5(4))).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
    }

    #[test]
    fn drop_drains_cleanly() {
        let svc = Service::start(small_cfg());
        svc.submit(fig1(), SolveSpec::new(Machine::cm5(4))).unwrap();
        drop(svc); // must not hang or panic
    }

    #[test]
    fn injected_panics_fall_back_to_degraded_answers() {
        // Every primary solve panics; the service must still answer
        // every request, from the degraded path, without aborting.
        let cfg = ServeConfig {
            chaos: Some(FaultPlan { seed: 11, worker_panic: 1.0, ..FaultPlan::default() }),
            ..small_cfg()
        };
        let svc = Service::start(cfg);
        let r = svc.submit(fig1(), SolveSpec::new(Machine::cm5(4))).unwrap();
        assert!(r.output.degraded.is_degraded(), "got tier {:?}", r.output.degraded);
        assert!(r.output.t_psa.is_finite() && r.output.t_psa > 0.0);
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 1);
        assert!(stats.degraded >= 1);
        assert_eq!(stats.errors, 0, "degraded answers are not errors");
    }

    #[test]
    fn deep_queue_sheds_doomed_deadlines() {
        let svc = Service::start(ServeConfig { workers: 1, ..small_cfg() });
        // Seed the admission estimate with one real solve.
        svc.submit(fig1(), SolveSpec::new(Machine::cm5(4))).unwrap();
        // Pretend the queue is deep by making the estimate dominate: a
        // 1 ns deadline cannot beat any positive estimate once jobs are
        // queued. Submit from a second thread to hold a queue slot.
        let svc = Arc::new(svc);
        let bg = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                // Cold key: actually solves, holding the worker busy.
                svc.submit(fig1(), SolveSpec::new(Machine::cm5(32))).unwrap()
            })
        };
        // Wait for the background job to occupy the queue/worker.
        let deadline = Duration::from_nanos(1);
        let mut shed = false;
        for _ in 0..200 {
            match svc.submit_with_deadline(fig1(), SolveSpec::new(Machine::cm5(16)), Some(deadline))
            {
                Err(ServeError::Shed { .. }) => {
                    shed = true;
                    break;
                }
                // Raced ahead of the background job (empty queue → zero
                // estimate) and then expired in queue, or solved before
                // the worker picked up the blocker. Try again.
                Err(ServeError::DeadlineExceeded { .. }) | Ok(_) => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        bg.join().unwrap();
        if shed {
            assert!(svc.stats().shed >= 1);
        }
        // Whether or not the race landed, the service must stay sound.
        let r = svc.submit(fig1(), SolveSpec::new(Machine::cm5(4))).unwrap();
        assert!(r.cached);
    }

    #[test]
    fn audit_log_loads_the_first_record_across_restarts() {
        let path =
            std::env::temp_dir().join(format!("paradigm-audit-log-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert!(load_first_audit_failure(&path).is_none(), "missing file loads nothing");
        // Simulate a previous run's persisted failure.
        append_audit_record(&path, "AUDIT FAILURE for graph 'g':\nmakespan mismatch").unwrap();
        let svc = Service::start(ServeConfig { audit_log: Some(path.clone()), ..small_cfg() });
        let loaded = svc.first_audit_failure().expect("record loaded on boot");
        assert!(loaded.contains("graph 'g'"), "{loaded}");
        drop(svc);
        // The log is append-only: later records never shadow the first.
        append_audit_record(&path, "AUDIT FAILURE for graph 'h':\nlater run").unwrap();
        assert!(load_first_audit_failure(&path).unwrap().contains("graph 'g'"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn full_queue_with_wait_bound_sheds_instead_of_blocking() {
        // One worker, one-slot queue, and a chaos stall so jobs pile
        // up; with max_queue_wait set, the over-capacity submitter gets
        // a typed Shed instead of blocking forever.
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            max_queue_wait: Some(Duration::from_millis(5)),
            chaos: Some(FaultPlan {
                seed: 2,
                queue_stall: 1.0,
                stall_ms: 200,
                ..FaultPlan::default()
            }),
            ..small_cfg()
        };
        let svc = Arc::new(Service::start(cfg));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    svc.submit(fig1(), SolveSpec::new(Machine::cm5(1 << (i + 1))))
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let shed = results.iter().filter(|r| matches!(r, Err(ServeError::Shed { .. }))).count();
        let ok = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(shed + ok, 4, "every submission got a terminal answer: {results:?}");
        assert!(shed >= 1, "with a 1-slot queue and stalled worker, someone must shed");
        assert_eq!(svc.stats().shed, shed as u64);
    }
}
