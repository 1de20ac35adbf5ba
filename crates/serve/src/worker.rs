//! The distributed-ADMM worker role: wire codecs for block subproblems
//! and the coordinator-side TCP backend.
//!
//! A `paradigm serve --worker` node accepts `admm_block` frames — one
//! self-contained [`BlockJob`] each — solves them with
//! [`paradigm_admm::solve_block_job`], and returns the block iterate.
//! Because a block solve is a pure function of the job value, and the
//! frame codec round-trips every number exactly (`f64` is rendered in
//! shortest round-trip form on both sides), a TCP worker produces
//! *bitwise* the same [`BlockSolution`] as the in-process backend. The
//! consensus coordinator therefore converges identically whether its
//! x-updates run on local threads or on a rack of workers.
//!
//! Frame grammar (one JSON object per line, like the rest of the
//! protocol; unknown fields rejected):
//!
//! ```text
//! admm_block = { "op":"admm_block", "graph":mdg-text,
//!                "machine":{ "procs":int, "t_ss":num, "t_ps":num,
//!                            "t_sr":num, "t_pr":num, "t_n":num,
//!                            "mem_bytes":int },
//!                "area_off":num, "rho":num,
//!                "x0":[num...], "free":[int...],
//!                "cons":[{"sub":int,"target":num}...],
//!                "inner":{ "stages":[num...], "iters_per_stage":int,
//!                          "exact_iters":int, "rel_tol":num } }
//! response   = { "ok":true, "x":[num...], "iters":int, "phi_model":num }
//! ```

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::client::{Client, ClientError, RetryPolicy};
use crate::json::Json;
use paradigm_admm::{
    BackendFaultStats, BlockBackend, BlockJob, BlockSolution, ConsensusTerm, InnerConfig, TapeSlot,
};
use paradigm_cost::{Machine, TransferParams};
use paradigm_mdg::{from_text, to_text};
use paradigm_race::sync::{Condvar, Mutex};
use paradigm_race::time::Instant;
use paradigm_race::{plock, pwait_timeout};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::Duration;

/// Encode one block subproblem as an `admm_block` request frame.
pub fn block_job_request(job: &BlockJob) -> Json {
    let machine = Json::Obj(vec![
        ("procs".into(), Json::num(f64::from(job.machine.procs))),
        ("t_ss".into(), Json::num(job.machine.xfer.t_ss)),
        ("t_ps".into(), Json::num(job.machine.xfer.t_ps)),
        ("t_sr".into(), Json::num(job.machine.xfer.t_sr)),
        ("t_pr".into(), Json::num(job.machine.xfer.t_pr)),
        ("t_n".into(), Json::num(job.machine.xfer.t_n)),
        ("mem_bytes".into(), Json::num(job.machine.mem_bytes as f64)),
    ]);
    let cons: Vec<Json> = job
        .cons
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("sub".into(), Json::num(c.sub as f64)),
                ("target".into(), Json::num(c.target)),
            ])
        })
        .collect();
    let inner = Json::Obj(vec![
        ("stages".into(), Json::Arr(job.inner.stages.iter().map(|&s| Json::num(s)).collect())),
        ("iters_per_stage".into(), Json::num(job.inner.iters_per_stage as f64)),
        ("exact_iters".into(), Json::num(job.inner.exact_iters as f64)),
        ("rel_tol".into(), Json::num(job.inner.rel_tol)),
    ]);
    Json::Obj(vec![
        ("op".into(), Json::str("admm_block")),
        ("graph".into(), Json::str(to_text(&job.graph))),
        ("machine".into(), machine),
        ("area_off".into(), Json::num(job.area_off)),
        ("rho".into(), Json::num(job.rho)),
        ("x0".into(), Json::Arr(job.x0.iter().map(|&v| Json::num(v)).collect())),
        ("free".into(), Json::Arr(job.free.iter().map(|&i| Json::num(i as f64)).collect())),
        ("cons".into(), Json::Arr(cons)),
        ("inner".into(), inner),
    ])
}

const ADMM_BLOCK_FIELDS: [&str; 9] =
    ["op", "graph", "machine", "area_off", "rho", "x0", "free", "cons", "inner"];

fn finite(doc: &Json, key: &str) -> Result<f64, String> {
    let v = doc
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number field `{key}`"))?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(format!("`{key}` must be finite"))
    }
}

fn index(doc: &Json, key: &str) -> Result<usize, String> {
    let v = doc
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("`{key}` must be a non-negative integer"))?;
    usize::try_from(v).map_err(|_| format!("`{key}` out of range"))
}

fn num_array(doc: &Json, key: &str) -> Result<Vec<f64>, String> {
    let arr = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field `{key}`"))?;
    arr.iter()
        .map(|v| v.as_f64().filter(|n| n.is_finite()))
        .collect::<Option<Vec<f64>>>()
        .ok_or_else(|| format!("`{key}` must be an array of finite numbers"))
}

fn index_array(doc: &Json, key: &str, bound: usize) -> Result<Vec<usize>, String> {
    let arr = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field `{key}`"))?;
    let out = arr
        .iter()
        .map(|v| v.as_u64().and_then(|n| usize::try_from(n).ok()))
        .collect::<Option<Vec<usize>>>()
        .ok_or_else(|| format!("`{key}` must be an array of non-negative integers"))?;
    if let Some(&bad) = out.iter().find(|&&i| i >= bound) {
        return Err(format!("`{key}` index {bad} out of range (graph has {bound} nodes)"));
    }
    Ok(out)
}

/// Decode an `admm_block` request frame into a runnable [`BlockJob`].
pub fn parse_block_job(doc: &Json, members: &[(String, Json)]) -> Result<BlockJob, String> {
    for (key, _) in members {
        if !ADMM_BLOCK_FIELDS.contains(&key.as_str()) {
            return Err(format!("unknown field `{key}` in admm_block request"));
        }
    }
    let text = doc
        .get("graph")
        .and_then(Json::as_str)
        .ok_or("`graph` must be a string (MDG text format)")?;
    let graph = from_text(text).map_err(|e| format!("bad block graph: {e}"))?;
    let n = graph.node_count();

    let m = doc.get("machine").ok_or("missing object field `machine`")?;
    let Json::Obj(m_members) = m else { return Err("`machine` must be an object".into()) };
    for (key, _) in m_members {
        if !["procs", "t_ss", "t_ps", "t_sr", "t_pr", "t_n", "mem_bytes"].contains(&key.as_str()) {
            return Err(format!("unknown field `{key}` in machine"));
        }
    }
    let procs = m.get("procs").and_then(Json::as_u64).ok_or("`procs` must be an integer")?;
    let procs =
        u32::try_from(procs).ok().filter(|&p| p >= 1).ok_or("`procs` must be in 1..=2^32-1")?;
    let xfer = TransferParams {
        t_ss: finite(m, "t_ss")?,
        t_ps: finite(m, "t_ps")?,
        t_sr: finite(m, "t_sr")?,
        t_pr: finite(m, "t_pr")?,
        t_n: finite(m, "t_n")?,
    };
    if [xfer.t_ss, xfer.t_ps, xfer.t_sr, xfer.t_pr, xfer.t_n].iter().any(|&v| v < 0.0) {
        return Err("machine transfer parameters must be non-negative".into());
    }
    let mem_bytes = m
        .get("mem_bytes")
        .and_then(Json::as_u64)
        .filter(|&b| b > 0)
        .ok_or("`mem_bytes` must be a positive integer")?;
    let machine = Machine { procs, xfer, mem_bytes };

    let x0 = num_array(doc, "x0")?;
    if x0.len() != n {
        return Err(format!("`x0` has {} entries, graph has {n} nodes", x0.len()));
    }
    let free = index_array(doc, "free", n)?;

    let cons_arr = doc.get("cons").and_then(Json::as_arr).ok_or("missing array field `cons`")?;
    let mut cons = Vec::with_capacity(cons_arr.len());
    for c in cons_arr {
        let Json::Obj(c_members) = c else { return Err("`cons` entries must be objects".into()) };
        for (key, _) in c_members {
            if !["sub", "target"].contains(&key.as_str()) {
                return Err(format!("unknown field `{key}` in cons entry"));
            }
        }
        let sub = index(c, "sub")?;
        if sub >= n {
            return Err(format!("cons index {sub} out of range (graph has {n} nodes)"));
        }
        cons.push(ConsensusTerm { sub, target: finite(c, "target")? });
    }

    let i = doc.get("inner").ok_or("missing object field `inner`")?;
    let Json::Obj(i_members) = i else { return Err("`inner` must be an object".into()) };
    for (key, _) in i_members {
        if !["stages", "iters_per_stage", "exact_iters", "rel_tol"].contains(&key.as_str()) {
            return Err(format!("unknown field `{key}` in inner"));
        }
    }
    let inner = InnerConfig {
        stages: num_array(i, "stages")?,
        iters_per_stage: index(i, "iters_per_stage")?,
        exact_iters: index(i, "exact_iters")?,
        rel_tol: finite(i, "rel_tol")?,
    };

    let rho = finite(doc, "rho")?;
    if rho <= 0.0 {
        return Err("`rho` must be positive".into());
    }
    let area_off = finite(doc, "area_off")?;
    // A frame carries the job's value; the worker compiles it.
    Ok(BlockJob { graph, machine, area_off, rho, x0, free, cons, inner, tape: TapeSlot::default() })
}

/// Encode a finished block solve as the `admm_block` success response.
pub fn block_solution_response(sol: &BlockSolution) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("x".into(), Json::Arr(sol.x.iter().map(|&v| Json::num(v)).collect())),
        ("iters".into(), Json::num(sol.iters as f64)),
        ("phi_model".into(), Json::num(sol.phi_model)),
    ])
}

/// Decode a worker's `admm_block` response (the coordinator side).
pub fn parse_block_solution(doc: &Json) -> Result<BlockSolution, String> {
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = doc.get("error").and_then(Json::as_str).unwrap_or("unlabelled failure");
        return Err(format!("worker refused block: {msg}"));
    }
    Ok(BlockSolution {
        x: num_array(doc, "x")?,
        iters: index(doc, "iters")?,
        phi_model: finite(doc, "phi_model")?,
    })
}

/// Error constructing a [`TcpBlockBackend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The worker address list was empty.
    EmptyFleet,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::EmptyFleet => {
                write!(f, "distributed ADMM needs at least one worker address")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// Fault-tolerance tuning for the coordinator's worker fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-job deadline: a block solve that has not answered within this
    /// window counts as a failed attempt (the connection is dropped and
    /// the job re-enqueued for another worker).
    pub block_deadline: Duration,
    /// Total attempts per job across the whole fleet before the job is
    /// declared lost for this round.
    pub max_attempts: u32,
    /// First re-enqueue delay; doubles per attempt.
    pub retry_base: Duration,
    /// Re-enqueue delay ceiling.
    pub retry_cap: Duration,
    /// Per-worker quarantine breaker. The default window is much
    /// tighter than the serve-path default: a worker fleet has cheap
    /// retries elsewhere, so quarantining fast and re-probing after a
    /// short cooldown beats patiently re-feeding a crashing worker.
    pub breaker: BreakerConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            block_deadline: Duration::from_secs(30),
            max_attempts: 4,
            retry_base: Duration::from_millis(10),
            retry_cap: Duration::from_millis(500),
            breaker: BreakerConfig {
                window: 8,
                min_samples: 3,
                failure_threshold: 0.5,
                cooldown: Duration::from_millis(500),
            },
        }
    }
}

/// How one block-solve attempt failed.
pub(crate) enum AttemptError {
    /// The worker misbehaved — transport fault, timeout, crash, or it
    /// refused the worker role. Counts against that worker's breaker;
    /// the job is re-enqueued for (preferably) another worker.
    Worker(String),
    /// The job itself was rejected as invalid; no worker can help, so
    /// the job fails immediately without burning attempts.
    Job(String),
}

pub(crate) struct WorkItem {
    pub(crate) job_idx: usize,
    /// Zero-based attempt counter.
    pub(crate) attempt: u32,
    /// Lane that last failed this job (steal detection).
    pub(crate) last_failed_on: Option<usize>,
    /// Exponential-backoff gate: not eligible before this instant.
    pub(crate) not_before: Instant,
}

pub(crate) struct RoundState<S> {
    pub(crate) ready: VecDeque<WorkItem>,
    /// Jobs not yet resolved (queued, backing off, or in flight).
    pub(crate) unresolved: usize,
    pub(crate) slots: Vec<Option<S>>,
    /// Last failure message per job (diagnostics for lost blocks).
    pub(crate) errors: Vec<Option<String>>,
    pub(crate) retried: u64,
    pub(crate) stolen: u64,
}

/// Shared work queue for one consensus round: every lane pulls the next
/// eligible job, so a straggler delays only its own job while healthy
/// workers drain the rest. Generic over the solution type `S` so the
/// model-check suites can drive it with tiny scripted payloads instead
/// of full [`BlockSolution`]s.
pub(crate) struct WorkQueue<S> {
    pub(crate) state: Mutex<RoundState<S>>,
    pub(crate) changed: Condvar,
}

/// How often a quarantined lane re-checks its breaker, and the idle
/// re-poll bound inside [`WorkQueue::take`].
const LANE_POLL: Duration = Duration::from_millis(20);

impl<S> WorkQueue<S> {
    pub(crate) fn new(jobs: usize) -> WorkQueue<S> {
        let now = Instant::now();
        WorkQueue {
            state: Mutex::new(RoundState {
                ready: (0..jobs)
                    .map(|job_idx| WorkItem {
                        job_idx,
                        attempt: 0,
                        last_failed_on: None,
                        not_before: now,
                    })
                    .collect(),
                unresolved: jobs,
                slots: (0..jobs).map(|_| None).collect(),
                errors: vec![None; jobs],
                retried: 0,
                stolen: 0,
            }),
            changed: Condvar::new(),
        }
    }

    pub(crate) fn finished(&self) -> bool {
        plock(&self.state).unresolved == 0
    }

    /// Pop the next eligible item; blocks while every queued item is
    /// still backing off or in flight elsewhere; `None` once all jobs
    /// are resolved.
    pub(crate) fn take(&self) -> Option<WorkItem> {
        let mut st = plock(&self.state);
        loop {
            if st.unresolved == 0 {
                return None;
            }
            let now = Instant::now();
            if let Some(pos) = st.ready.iter().position(|it| it.not_before <= now) {
                return st.ready.remove(pos);
            }
            let wake = st
                .ready
                .iter()
                .map(|it| it.not_before.saturating_duration_since(now))
                .min()
                .unwrap_or(LANE_POLL)
                .min(LANE_POLL)
                .max(Duration::from_millis(1));
            let (guard, _) = pwait_timeout(&self.changed, st, wake);
            st = guard;
        }
    }

    pub(crate) fn succeed(&self, item: &WorkItem, lane: usize, sol: S) {
        let mut st = plock(&self.state);
        if item.last_failed_on.is_some_and(|failed| failed != lane) {
            st.stolen += 1;
        }
        st.slots[item.job_idx] = Some(sol);
        st.unresolved -= 1;
        self.changed.notify_all();
    }

    /// Record a failed attempt. `next_attempt` re-enqueues the job with
    /// that attempt counter — a half-open probe failure passes the
    /// counter through unchanged, so a dead worker's periodic re-probes
    /// can never exhaust a job's attempt budget. `None` resolves the
    /// job as lost.
    pub(crate) fn fail(
        &self,
        item: WorkItem,
        lane: usize,
        err: String,
        next_attempt: Option<u32>,
        backoff: Duration,
    ) {
        let mut st = plock(&self.state);
        st.errors[item.job_idx] = Some(err);
        match next_attempt {
            Some(attempt) => {
                st.retried += 1;
                st.ready.push_back(WorkItem {
                    attempt,
                    last_failed_on: Some(lane),
                    not_before: Instant::now() + backoff,
                    ..item
                });
            }
            None => st.unresolved -= 1,
        }
        self.changed.notify_all();
    }
}

struct Lane {
    client: Client,
    breaker: CircuitBreaker,
}

fn attempt_block(client: &mut Client, job: &BlockJob) -> Result<BlockSolution, AttemptError> {
    let line = block_job_request(job).render();
    match client.request(&line) {
        Ok(doc) => parse_block_solution(&doc).map_err(AttemptError::Worker),
        Err(ClientError::Rejected { kind, message }) if kind != "not-a-worker" => {
            Err(AttemptError::Job(format!("rejected ({kind}): {message}")))
        }
        Err(e) => Err(AttemptError::Worker(e.to_string())),
    }
}

/// One worker's pull loop: gate on the quarantine breaker, then pull
/// and solve queue items until every job is resolved.
///
/// `attempt(job_idx, attempt_no)` performs one solve attempt; the TCP
/// backend wires it to a real worker connection, the model-check suites
/// to a scripted outcome table. Everything fault-tolerance related —
/// breaker gating, probe budgets, retry/backoff accounting, steal
/// detection — lives here, under the model checker's eye.
pub(crate) fn run_lane<S>(
    lane_idx: usize,
    breaker: &CircuitBreaker,
    queue: &WorkQueue<S>,
    cfg: &FleetConfig,
    mut attempt: impl FnMut(usize, u32) -> Result<S, AttemptError>,
) {
    // Consecutive failed half-open probes this round. A quarantined
    // worker whose probes keep failing eventually stops haunting the
    // round entirely: once every lane has given up, the round resolves
    // (and reports collapse) instead of spinning probes that can never
    // succeed against jobs that still hold attempt budget.
    let mut failed_probes = 0;
    let probe_limit = cfg.max_attempts.max(1);
    loop {
        let mut probing = false;
        match breaker.state() {
            BreakerState::Closed => {}
            BreakerState::HalfOpen if breaker.try_probe() => probing = true,
            _ => {
                // Quarantined: sit out briefly; `state()` half-opens
                // after the cooldown.
                if queue.finished() || failed_probes >= probe_limit {
                    return;
                }
                paradigm_race::thread::sleep(LANE_POLL);
                continue;
            }
        }
        let Some(item) = queue.take() else {
            if probing {
                breaker.release_probe();
            }
            return;
        };
        match attempt(item.job_idx, item.attempt) {
            Ok(sol) => {
                breaker.on_result(true);
                failed_probes = 0;
                queue.succeed(&item, lane_idx, sol);
            }
            Err(AttemptError::Job(e)) => {
                // The worker answered fine; the job is hopeless.
                breaker.on_result(true);
                failed_probes = 0;
                queue.fail(item, lane_idx, e, None, Duration::ZERO);
            }
            Err(AttemptError::Worker(e)) => {
                breaker.on_result(false);
                let backoff =
                    cfg.retry_base.saturating_mul(1u32 << item.attempt.min(16)).min(cfg.retry_cap);
                let next_attempt = if probing {
                    failed_probes += 1;
                    // A failed probe must not burn the job's budget:
                    // the job was collateral in testing the worker.
                    Some(item.attempt)
                } else {
                    (item.attempt + 1 < cfg.max_attempts.max(1)).then(|| item.attempt + 1)
                };
                queue.fail(item, lane_idx, e, next_attempt, backoff);
            }
        }
    }
}

/// A [`BlockBackend`] that ships block subproblems to `serve --worker`
/// nodes over the NDJSON protocol, surviving worker crashes, hangs, and
/// stragglers.
///
/// Jobs flow through a shared work queue: each worker pulls the next
/// eligible job, so healthy workers steal the share a crashed or slow
/// worker would have gated under static chunking. A failed or
/// timed-out attempt is re-enqueued with exponential backoff
/// (preferably picked up by a different worker), and a worker that
/// fails repeatedly is quarantined by a per-worker sliding-window
/// circuit breaker with periodic half-open re-probes.
///
/// Placement is racy by design, but every block solve is a pure
/// function of its job and the frame codec round-trips all floats
/// exactly, so results are placement-independent: the distributed solve
/// stays bitwise identical to the in-process backend no matter which
/// worker solves which block, or how often a job was retried.
pub struct TcpBlockBackend {
    lanes: Vec<Lane>,
    cfg: FleetConfig,
    retried: u64,
    stolen: u64,
}

impl TcpBlockBackend {
    /// Connect lazily to one worker per address (each TCP connection is
    /// opened on first use) with default [`FleetConfig`] tuning.
    pub fn new(addrs: &[SocketAddr]) -> Result<TcpBlockBackend, FleetError> {
        TcpBlockBackend::with_config(addrs, FleetConfig::default())
    }

    /// [`TcpBlockBackend::new`] with explicit fault-tolerance tuning.
    pub fn with_config(
        addrs: &[SocketAddr],
        cfg: FleetConfig,
    ) -> Result<TcpBlockBackend, FleetError> {
        if addrs.is_empty() {
            return Err(FleetError::EmptyFleet);
        }
        let lanes = addrs
            .iter()
            .map(|&addr| Lane {
                // One attempt per request: cross-worker retry is the
                // queue's job, not the client's.
                client: Client::new(addr, RetryPolicy { max_retries: 0, ..RetryPolicy::default() })
                    .with_read_timeout(cfg.block_deadline),
                breaker: CircuitBreaker::new(cfg.breaker.clone()),
            })
            .collect();
        Ok(TcpBlockBackend { lanes, cfg, retried: 0, stolen: 0 })
    }

    /// Run one round through the fleet; per-job outcomes plus the last
    /// failure message for each unresolved job.
    fn run_round(
        &mut self,
        jobs: &[BlockJob],
    ) -> (Vec<Option<BlockSolution>>, Vec<Option<String>>) {
        let queue = WorkQueue::new(jobs.len());
        let cfg = &self.cfg;
        paradigm_race::thread::scope(|scope| {
            for (lane_idx, lane) in self.lanes.iter_mut().enumerate() {
                let queue = &queue;
                let Lane { client, breaker } = lane;
                scope.spawn(move || {
                    run_lane(lane_idx, breaker, queue, cfg, |job_idx, _| {
                        attempt_block(client, &jobs[job_idx])
                    })
                });
            }
        });
        let st = queue.state.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
        self.retried += st.retried;
        self.stolen += st.stolen;
        (st.slots, st.errors)
    }
}

impl BlockBackend for TcpBlockBackend {
    fn solve_blocks(&mut self, jobs: &[BlockJob]) -> Result<Vec<BlockSolution>, String> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        let (slots, errors) = self.run_round(jobs);
        let mut solutions = Vec::with_capacity(slots.len());
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(sol) => solutions.push(sol),
                None => {
                    let why =
                        errors[i].clone().unwrap_or_else(|| "no worker picked it up".to_string());
                    return Err(format!("block {i}: {why}"));
                }
            }
        }
        Ok(solutions)
    }

    fn solve_blocks_partial(
        &mut self,
        jobs: &[BlockJob],
    ) -> Result<Vec<Option<BlockSolution>>, String> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        let (slots, errors) = self.run_round(jobs);
        if slots.iter().all(Option::is_none) {
            // Total collapse: nothing for stale reuse to build on. Let a
            // wrapper (FailoverBackend) downgrade the whole backend.
            let why = errors
                .iter()
                .flatten()
                .next()
                .cloned()
                .unwrap_or_else(|| "no worker answered".to_string());
            return Err(format!("worker fleet collapsed: {why}"));
        }
        Ok(slots)
    }

    fn fault_stats(&self) -> BackendFaultStats {
        BackendFaultStats {
            blocks_retried: self.retried,
            blocks_stolen: self.stolen,
            workers_quarantined: self.lanes.iter().map(|l| l.breaker.opens()).sum(),
            backend_downgrades: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::protocol::handle_line;
    use crate::service::{ServeConfig, Service};
    use paradigm_admm::{build_block_problem, global_sweeps, partition_mdg, PartitionOptions};
    use paradigm_cost::Machine;
    use paradigm_mdg::{fork_join_mdg, Mdg};
    use paradigm_solver::objective::MdgObjective;

    fn sample_jobs(g: &Mdg, machine: &Machine, blocks: usize) -> Vec<BlockJob> {
        let obj = MdgObjective::try_new(g, *machine).expect("objective");
        let part = partition_mdg(g, &PartitionOptions::with_blocks(g, blocks));
        let x = vec![0.5_f64; g.node_count()];
        let sw = global_sweeps(&obj, &x);
        let inner = InnerConfig::default();
        (0..part.members.len())
            .map(|b| {
                let dual = std::collections::BTreeMap::new();
                build_block_problem(g, machine, &part, b, &sw, &x, &dual, 0.7, &inner).0
            })
            .collect()
    }

    #[test]
    fn block_job_frames_roundtrip_exactly() {
        let g = fork_join_mdg(4, 6, 3);
        let machine = Machine::cm5(32);
        for job in sample_jobs(&g, &machine, 3) {
            let frame = block_job_request(&job).render();
            let doc = parse(&frame).expect("frame parses");
            let Json::Obj(members) = &doc else { panic!("not an object") };
            let back = parse_block_job(&doc, members).expect("job decodes");
            // Bitwise equality on every number: this is what lets TCP
            // and in-process backends agree exactly.
            assert_eq!(back.machine, job.machine);
            assert_eq!(back.area_off.to_bits(), job.area_off.to_bits());
            assert_eq!(back.rho.to_bits(), job.rho.to_bits());
            assert_eq!(back.x0.len(), job.x0.len());
            for (a, b) in back.x0.iter().zip(&job.x0) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(back.free, job.free);
            assert_eq!(back.cons, job.cons);
            assert_eq!(back.inner, job.inner);
            assert_eq!(back.graph.node_count(), job.graph.node_count());
            assert_eq!(back.graph.edge_count(), job.graph.edge_count());
        }
    }

    #[test]
    fn worker_solves_what_in_process_solves() {
        let g = fork_join_mdg(4, 6, 3);
        let machine = Machine::cm5(32);
        let svc = Service::start(ServeConfig {
            workers: 1,
            cache_capacity: 4,
            queue_capacity: 4,
            worker: true,
            ..ServeConfig::default()
        });
        for job in sample_jobs(&g, &machine, 3) {
            let mut ws = paradigm_solver::workspace::acquire();
            let local = paradigm_admm::solve_block_job(&job, &mut ws).expect("local solve");
            let (resp, _) = handle_line(&svc, &block_job_request(&job).render());
            let sol = parse_block_solution(&parse(&resp).expect("json")).expect("remote solve");
            assert_eq!(sol.iters, local.iters);
            assert_eq!(sol.phi_model.to_bits(), local.phi_model.to_bits());
            for (a, b) in sol.x.iter().zip(&local.x) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        svc.shutdown();
    }

    #[test]
    fn non_worker_service_refuses_block_frames() {
        let g = fork_join_mdg(2, 3, 2);
        let machine = Machine::cm5(8);
        let job = sample_jobs(&g, &machine, 2).remove(0);
        let svc = Service::start(ServeConfig {
            workers: 1,
            cache_capacity: 4,
            queue_capacity: 4,
            ..ServeConfig::default()
        });
        let (resp, _) = handle_line(&svc, &block_job_request(&job).render());
        let doc = parse(&resp).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("not-a-worker"));
        svc.shutdown();
    }

    #[test]
    fn malformed_block_frames_rejected() {
        for bad in [
            r#"{"op":"admm_block"}"#,
            r#"{"op":"admm_block","graph":"mdg x","wat":1}"#,
            r#"{"op":"admm_block","graph":"not an mdg","machine":{"procs":4,"t_ss":1,"t_ps":1,"t_sr":1,"t_pr":1,"t_n":0,"mem_bytes":1024},"area_off":0,"rho":1,"x0":[],"free":[],"cons":[],"inner":{"stages":[8],"iters_per_stage":1,"exact_iters":1,"rel_tol":0.1}}"#,
        ] {
            assert!(crate::protocol::parse_request(bad).is_err(), "{bad}");
        }
        // Frames that decode but carry annealing parameters the solver
        // refuses (a sharpness below 1 is no max; a negative one is a
        // soft *min* and used to come back `"ok":true` with a wrong
        // iterate): a typed `invalid`, by the rule `try_allocate` applies.
        let g = fork_join_mdg(2, 3, 2);
        let job = sample_jobs(&g, &Machine::cm5(8), 2).remove(0);
        let svc =
            Service::start(ServeConfig { workers: 1, worker: true, ..ServeConfig::default() });
        let inner = |stages: &[f64], rel_tol: f64| InnerConfig {
            stages: stages.to_vec(),
            rel_tol,
            ..job.inner.clone()
        };
        for inner in [
            inner(&[8.0, 0.5], 1e-9),
            inner(&[0.0], 1e-9),
            inner(&[-4.0], 1e-9),
            inner(&[8.0], -1.0),
        ] {
            let bad = BlockJob { inner, ..job.clone() };
            let (resp, _) = handle_line(&svc, &block_job_request(&bad).render());
            let doc = parse(&resp).unwrap();
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{resp}");
            assert_eq!(doc.get("kind").and_then(Json::as_str), Some("invalid"), "{resp}");
        }
        assert_eq!(svc.stats().blocks_solved, 0);
        svc.shutdown();
    }
}
