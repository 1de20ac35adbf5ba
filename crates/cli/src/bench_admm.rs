//! `paradigm bench-admm` — the tracked consensus-ADMM benchmark.
//!
//! Partitions and solves seeded large MDGs with the distributed
//! consensus-ADMM tier and emits `BENCH_admm.json`, so the scaling
//! trajectory (wall clock, rounds to convergence, residuals, solution
//! quality) is recorded in CI rather than anecdotal. Per case it
//! records:
//!
//! * `wall_ms` — one end-to-end ADMM solve, including partitioning;
//! * `blocks` / `cut_edges` — what the multilevel partitioner produced;
//! * `outer_rounds`, `inner_iters`, `polish_iters` — coordinator effort;
//! * `forward_sweeps_per_iter` / `probes_per_iter` — forward sweeps of
//!   the objective and points the descent loops (block x-updates,
//!   coordinator polish) evaluated, per inner + polish iteration; equal
//!   when no point is swept twice, and the run fails (exit 1) if any case
//!   sweeps more than it probes (see `bench-solve`);
//! * `block_solves` / `block_solves_per_s` — fresh block x-updates
//!   executed (`blocks * outer_rounds` minus stale-served slots) and
//!   their end-to-end throughput, the number the batched inner-solver
//!   work is meant to move;
//! * `primal_residual` / `dual_residual` / `converged` — the consensus
//!   stopping state;
//! * `phi` and, on cases small enough to also solve densely,
//!   `phi_vs_dense` — the ADMM objective over the single-problem
//!   optimum (1.0 = parity; the convergence tests pin this at ≤ 1.01);
//! * fault-tolerance counters (`blocks_retried`, `blocks_stolen`,
//!   `blocks_stale`, `workers_quarantined`, `backend_downgrades`) —
//!   zero on a healthy in-process run, nonzero under fleet chaos.
//!
//! With `--fleet <n>` the benchmark spawns `n` in-process
//! `serve --worker` nodes on ephemeral localhost ports and routes every
//! block x-update through [`TcpBlockBackend`] (wrapped in a
//! [`FailoverBackend`], mirroring production `serve` wiring). The
//! cluster chaos drill: `--chaos <plan>` arms worker 0 with seeded
//! block-level faults, and `--kill-after-ms <ms>` shuts the last worker
//! down mid-gate-case — the run must still complete, converge, and
//! report nonzero retry/steal counts.
//!
//! `--baseline <path>` compares against a checked-in snapshot and fails
//! (exit 1) when the gate case loses convergence or its wall clock
//! regresses more than 5x — coarse enough to survive CI machine noise,
//! tight enough to catch algorithmic regressions.

use std::net::SocketAddr;
use std::sync::Arc;

// Shim import, not std: `Server::shutdown_flag` hands back the shim's
// `AtomicBool`, which is a distinct type under `--cfg paradigm_race`.
use paradigm_race::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use paradigm_admm::{
    solve_admm, solve_admm_in_process, AdmmConfig, AdmmResult, FailoverBackend, InProcessBackend,
};
use paradigm_cost::Machine;
use paradigm_mdg::{fork_join_mdg, random_layered_mdg, Mdg, RandomMdgConfig};
use paradigm_serve::{
    parse_json, FaultPlan, FleetConfig, Json, MetricsSnapshot, ServeConfig, Server, ServerConfig,
    TcpBlockBackend,
};
use paradigm_solver::workspace::pool_sweep_counts;
use paradigm_solver::{allocate, SolverConfig};

use crate::bench_solve::check_sweeps;
use crate::commands::{CliError, CmdOutput};

/// Random-MDG seed; fixed so the benchmark graphs are reproducible.
const SEED: u64 = 1994;

/// Factor by which the gate case's wall clock may exceed the baseline
/// before `--baseline` fails the run. Looser than bench-solve's gate:
/// an ADMM solve is seconds, not microseconds, and CI machines vary.
const REGRESSION_FACTOR: f64 = 5.0;

/// The case name the `--baseline` gate keys on (the largest graph the
/// quick configuration runs). `--kill-after-ms` arms its kill timer at
/// the start of this case so the chaos drill lands mid-solve.
const GATE_CASE: &str = "random-8192";

/// Dense reference solves are only affordable below this node count.
const DENSE_LIMIT: usize = 3000;

/// Everything `bench-admm` can be asked to do (mirrors the CLI flags).
pub struct BenchAdmmOpts {
    /// Drop the largest graphs (CI smoke).
    pub quick: bool,
    /// Write `BENCH_admm.json` here instead of stdout.
    pub out: Option<String>,
    /// Compare the gate case against this checked-in snapshot.
    pub baseline: Option<String>,
    /// Spawn this many local worker nodes and solve through them
    /// (0 = in-process backend, the tracked-number configuration).
    pub fleet: usize,
    /// Seeded fault plan armed on worker 0 (fleet mode only).
    pub chaos: Option<FaultPlan>,
    /// Shut the last worker down this long after the gate case starts.
    pub kill_after_ms: Option<u64>,
    /// Bounded-staleness budget per block (0 = strict barrier).
    pub admm_stale: usize,
    /// Per-block-job deadline override in milliseconds.
    pub block_deadline_ms: Option<u64>,
}

impl Default for BenchAdmmOpts {
    fn default() -> Self {
        BenchAdmmOpts {
            quick: true,
            out: None,
            baseline: None,
            fleet: 0,
            chaos: None,
            kill_after_ms: None,
            admm_stale: 0,
            block_deadline_ms: None,
        }
    }
}

struct CaseReport {
    name: String,
    compute_nodes: usize,
    edges: usize,
    blocks: usize,
    cut_edges: usize,
    outer_rounds: usize,
    inner_iters: usize,
    polish_iters: usize,
    /// Forward sweeps per inner + polish iteration.
    forward_sweeps_per_iter: f64,
    /// Evaluated points (probes + stage starts) per the same.
    probes_per_iter: f64,
    /// Fresh block x-updates executed: `blocks * outer_rounds` minus the
    /// round slots that were served a stale (reused) solution.
    block_solves: u64,
    /// `block_solves` over the case's wall clock, in solves per second.
    block_solves_per_s: f64,
    wall_ms: f64,
    phi: f64,
    primal_residual: f64,
    dual_residual: f64,
    converged: bool,
    /// `phi / dense_phi` when a dense reference ran, else None.
    phi_vs_dense: Option<f64>,
    blocks_retried: u64,
    blocks_stolen: u64,
    blocks_stale: u64,
    workers_quarantined: u64,
    backend_downgrades: u64,
}

/// How a case's block x-updates are executed.
enum Runner<'a> {
    /// The default tracked configuration: threaded solves in this
    /// process.
    InProcess,
    /// Fan out over a TCP worker fleet, wrapped in a failover to the
    /// in-process backend (mirrors `serve` wiring).
    Fleet { addrs: &'a [SocketAddr], deadline: Duration },
}

/// Run the benchmark per `opts`; see the module docs for the report.
pub fn run_bench_admm(opts: &BenchAdmmOpts) -> Result<CmdOutput, CliError> {
    let machine = Machine::cm5(256);
    let admm_cfg = AdmmConfig { max_stale: opts.admm_stale, ..AdmmConfig::default() };
    let deadline =
        opts.block_deadline_ms.map_or(FleetConfig::default().block_deadline, Duration::from_millis);

    let mut graphs: Vec<(String, Mdg)> = vec![
        ("fork-join".into(), fork_join_mdg(8, 24, 7)),
        ("random-2048".into(), random_layered_mdg(&RandomMdgConfig::sized(2048), SEED)),
        ("random-8192".into(), random_layered_mdg(&RandomMdgConfig::sized(8192), SEED)),
    ];
    if !opts.quick {
        graphs.push((
            "random-100k".into(),
            random_layered_mdg(&RandomMdgConfig::sized(100_000), SEED),
        ));
    }

    let fleet = if opts.fleet > 0 {
        Some(spawn_fleet(opts.fleet, opts.chaos.clone()).map_err(CliError::Io)?)
    } else {
        None
    };

    let mut text = String::new();
    if let Some(f) = &fleet {
        text.push_str(&format!(
            "fleet: {} worker(s) on localhost{}{}\n",
            f.addrs.len(),
            if opts.chaos.is_some() { ", chaos armed on worker 0" } else { "" },
            opts.kill_after_ms.map_or(String::new(), |ms| format!(
                ", killing worker {} after {ms} ms of {GATE_CASE}",
                f.addrs.len() - 1
            )),
        ));
    }

    let mut cases: Vec<CaseReport> = Vec::with_capacity(graphs.len());
    for (name, g) in &graphs {
        // Arm the kill timer as the gate case starts, so the worker
        // dies mid-solve of the case the acceptance gate watches.
        if name == GATE_CASE {
            if let (Some(ms), Some(f)) = (opts.kill_after_ms, fleet.as_ref()) {
                let flag = Arc::clone(f.flags.last().expect("fleet is non-empty"));
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(ms));
                    flag.store(true, Ordering::Relaxed);
                });
            }
        }
        let runner = match &fleet {
            Some(f) => Runner::Fleet { addrs: &f.addrs, deadline },
            None => Runner::InProcess,
        };
        cases.push(bench_case(name, g, machine, &admm_cfg, &runner)?);
    }

    text.push_str(&render_table(opts.quick, &cases));
    if let Some(f) = fleet {
        for (i, snap) in f.shutdown().into_iter().enumerate() {
            text.push_str(&format!(
                "worker {i}: blocks-solved {}  requests {}\n",
                snap.blocks_solved, snap.requests
            ));
        }
    }

    let json = render_json(opts.quick, opts.fleet, &cases);
    if let Some(path) = &opts.out {
        std::fs::write(path, &json).map_err(CliError::Io)?;
        text.push_str(&format!("\nwrote {path}\n"));
    } else {
        text.push('\n');
        text.push_str(&json);
    }

    let mut failed = false;
    let sweeps = cases.iter().map(|c| (&*c.name, c.forward_sweeps_per_iter, c.probes_per_iter));
    match check_sweeps(sweeps) {
        Ok(line) => text.push_str(&line),
        Err(line) => {
            text.push_str(&line);
            failed = true;
        }
    }
    if let Some(bpath) = &opts.baseline {
        match check_baseline(bpath, &cases) {
            Ok(line) => text.push_str(&line),
            Err(line) => {
                text.push_str(&line);
                failed = true;
            }
        }
    }
    Ok(CmdOutput { text, failed })
}

/// A locally-spawned worker fleet: ephemeral-port `serve --worker`
/// nodes, each with its own accept-loop thread.
struct FleetHandles {
    addrs: Vec<SocketAddr>,
    flags: Vec<Arc<AtomicBool>>,
    joins: Vec<std::thread::JoinHandle<MetricsSnapshot>>,
}

/// Spawn `n` worker nodes; `chaos`, when given, is armed on worker 0
/// only, so the rest of the fleet can absorb its injected failures.
fn spawn_fleet(n: usize, chaos: Option<FaultPlan>) -> std::io::Result<FleetHandles> {
    let mut fleet = FleetHandles {
        addrs: Vec::with_capacity(n),
        flags: Vec::with_capacity(n),
        joins: Vec::with_capacity(n),
    };
    for i in 0..n {
        let server = Server::bind(ServerConfig {
            service: ServeConfig {
                workers: 2,
                cache_capacity: 8,
                queue_capacity: 8,
                worker: true,
                chaos: if i == 0 { chaos.clone() } else { None },
                ..ServeConfig::default()
            },
            port: 0,
        })?;
        fleet.addrs.push(server.local_addr()?);
        fleet.flags.push(server.shutdown_flag());
        fleet.joins.push(std::thread::spawn(move || server.run()));
    }
    Ok(fleet)
}

impl FleetHandles {
    /// Raise every shutdown flag and join the accept loops, returning
    /// each worker's final metrics (killed workers report what they
    /// solved before dying).
    fn shutdown(self) -> Vec<MetricsSnapshot> {
        for flag in &self.flags {
            flag.store(true, Ordering::Relaxed);
        }
        self.joins.into_iter().map(|j| j.join().expect("worker accept loop panicked")).collect()
    }
}

fn bench_case(
    name: &str,
    g: &Mdg,
    machine: Machine,
    cfg: &AdmmConfig,
    runner: &Runner<'_>,
) -> Result<CaseReport, CliError> {
    // Block solves and the polish run out of pooled workspaces (local
    // fleet workers share this process's pool), all idle again once the
    // solve returns: the pool's counter delta is this solve's.
    let swept = pool_sweep_counts();
    let t0 = Instant::now();
    let res = run_case(g, machine, cfg, runner)
        .map_err(|e| CliError::Config(format!("admm solve of {name} failed: {e}")))?;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let swept = pool_sweep_counts().since(swept);
    let per_iter = |count: u64| count as f64 / (res.inner_iters + res.polish_iters).max(1) as f64;
    let phi_vs_dense = (g.compute_node_count() <= DENSE_LIMIT).then(|| {
        let dense = allocate(g, machine, &SolverConfig::fast());
        res.phi.phi / dense.phi.phi
    });
    let block_solves = ((res.blocks * res.outer_iters) as u64).saturating_sub(res.blocks_stale);
    let block_solves_per_s =
        if wall_ms > 0.0 { block_solves as f64 / (wall_ms / 1e3) } else { 0.0 };
    Ok(CaseReport {
        name: name.to_string(),
        compute_nodes: g.compute_node_count(),
        edges: g.edge_count(),
        blocks: res.blocks,
        cut_edges: res.cut_edges,
        outer_rounds: res.outer_iters,
        inner_iters: res.inner_iters,
        polish_iters: res.polish_iters,
        forward_sweeps_per_iter: per_iter(swept.forward_sweeps),
        probes_per_iter: per_iter(swept.probes),
        block_solves,
        block_solves_per_s,
        wall_ms,
        phi: res.phi.phi,
        primal_residual: res.primal_residual,
        dual_residual: res.dual_residual,
        converged: res.converged,
        phi_vs_dense,
        blocks_retried: res.blocks_retried,
        blocks_stolen: res.blocks_stolen,
        blocks_stale: res.blocks_stale,
        workers_quarantined: res.workers_quarantined,
        backend_downgrades: res.backend_downgrades,
    })
}

fn run_case(
    g: &Mdg,
    machine: Machine,
    cfg: &AdmmConfig,
    runner: &Runner<'_>,
) -> Result<AdmmResult, String> {
    match runner {
        Runner::InProcess => solve_admm_in_process(g, machine, cfg, 0).map_err(|e| e.to_string()),
        Runner::Fleet { addrs, deadline } => {
            let tcp = TcpBlockBackend::with_config(
                addrs,
                FleetConfig { block_deadline: *deadline, ..FleetConfig::default() },
            )
            .map_err(|e| e.to_string())?;
            let mut backend = FailoverBackend::new(tcp, InProcessBackend::default());
            solve_admm(g, machine, cfg, &mut backend).map_err(|e| e.to_string())
        }
    }
}

fn render_table(quick: bool, cases: &[CaseReport]) -> String {
    let mut out = format!("bench-admm ({})\n", if quick { "quick" } else { "full" });
    out.push_str(&format!(
        "{:<14} {:>7} {:>7} {:>6} {:>6} {:>6} {:>7} {:>8} {:>9} {:>8} {:>8} {:>10} {:>10} {:>10} {:>5} {:>9}\n",
        "case",
        "nodes",
        "edges",
        "blocks",
        "cut",
        "outer",
        "solves",
        "blk/s",
        "wall_ms",
        "swp/iter",
        "prb/iter",
        "phi",
        "r_primal",
        "r_dual",
        "conv",
        "vs_dense"
    ));
    for c in cases {
        out.push_str(&format!(
            "{:<14} {:>7} {:>7} {:>6} {:>6} {:>6} {:>7} {:>8.1} {:>9.0} {:>8.3} {:>8.3} {:>10.4} {:>10.2e} {:>10.2e} {:>5} {:>9}\n",
            c.name,
            c.compute_nodes,
            c.edges,
            c.blocks,
            c.cut_edges,
            c.outer_rounds,
            c.block_solves,
            c.block_solves_per_s,
            c.wall_ms,
            c.forward_sweeps_per_iter,
            c.probes_per_iter,
            c.phi,
            c.primal_residual,
            c.dual_residual,
            if c.converged { "yes" } else { "NO" },
            c.phi_vs_dense.map_or("-".into(), |r| format!("{r:.4}")),
        ));
        let faults = c.blocks_retried
            + c.blocks_stolen
            + c.blocks_stale
            + c.workers_quarantined
            + c.backend_downgrades;
        if faults > 0 {
            out.push_str(&format!(
                "  faults: retried {}  stolen {}  stale {}  quarantined {}  downgrades {}\n",
                c.blocks_retried,
                c.blocks_stolen,
                c.blocks_stale,
                c.workers_quarantined,
                c.backend_downgrades,
            ));
        }
    }
    out
}

/// The `BENCH_admm.json` document: version 4 (v3 plus the
/// `forward_sweeps_per_iter` / `probes_per_iter` pair), one case per
/// line so diffs against the checked-in baseline stay readable.
fn render_json(quick: bool, fleet: usize, cases: &[CaseReport]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"version\": 4,\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"fleet\": {fleet},\n"));
    out.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let mut fields = vec![
            ("name".into(), Json::str(&c.name)),
            ("compute_nodes".into(), Json::num(c.compute_nodes as f64)),
            ("edges".into(), Json::num(c.edges as f64)),
            ("blocks".into(), Json::num(c.blocks as f64)),
            ("cut_edges".into(), Json::num(c.cut_edges as f64)),
            ("outer_rounds".into(), Json::num(c.outer_rounds as f64)),
            ("inner_iters".into(), Json::num(c.inner_iters as f64)),
            ("polish_iters".into(), Json::num(c.polish_iters as f64)),
            ("forward_sweeps_per_iter".into(), Json::num(round3(c.forward_sweeps_per_iter))),
            ("probes_per_iter".into(), Json::num(round3(c.probes_per_iter))),
            ("block_solves".into(), Json::num(c.block_solves as f64)),
            ("block_solves_per_s".into(), Json::num(round3(c.block_solves_per_s))),
            ("wall_ms".into(), Json::num(round3(c.wall_ms))),
            ("phi".into(), Json::num(round6(c.phi))),
            ("primal_residual".into(), Json::num(c.primal_residual)),
            ("dual_residual".into(), Json::num(c.dual_residual)),
            ("converged".into(), Json::Bool(c.converged)),
            ("blocks_retried".into(), Json::num(c.blocks_retried as f64)),
            ("blocks_stolen".into(), Json::num(c.blocks_stolen as f64)),
            ("blocks_stale".into(), Json::num(c.blocks_stale as f64)),
            ("workers_quarantined".into(), Json::num(c.workers_quarantined as f64)),
            ("backend_downgrades".into(), Json::num(c.backend_downgrades as f64)),
        ];
        if let Some(r) = c.phi_vs_dense {
            fields.push(("phi_vs_dense".into(), Json::num(round6(r))));
        }
        out.push_str("    ");
        out.push_str(&Json::Obj(fields).render());
        out.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// Compare against a checked-in baseline. `Ok` carries the pass line,
/// `Err` the failure line (which flips the exit code to 1). Reads only
/// fields present since schema v1, so v1 baselines keep working.
fn check_baseline(path: &str, cases: &[CaseReport]) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("baseline: FAILED to read {path}: {e}\n"))?;
    let doc = parse_json(&text).map_err(|e| format!("baseline: FAILED to parse {path}: {e}\n"))?;
    let base = doc
        .get("cases")
        .and_then(Json::as_arr)
        .and_then(|cs| cs.iter().find(|c| c.get("name").and_then(Json::as_str) == Some(GATE_CASE)))
        .and_then(|c| c.get("wall_ms"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("baseline: FAILED — no `{GATE_CASE}` wall_ms in {path}\n"))?;
    let cur = cases
        .iter()
        .find(|c| c.name == GATE_CASE)
        .ok_or_else(|| format!("baseline: FAILED — current run has no `{GATE_CASE}` case\n"))?;
    if !cur.converged {
        return Err(format!("baseline: REGRESSION — {GATE_CASE} no longer converges\n"));
    }
    let limit = base * REGRESSION_FACTOR;
    if cur.wall_ms > limit {
        Err(format!(
            "baseline: REGRESSION — {GATE_CASE} wall {:.0} ms > {REGRESSION_FACTOR}x baseline {base:.0} ms\n",
            cur.wall_ms
        ))
    } else {
        Ok(format!(
            "baseline: ok — {GATE_CASE} converged, wall {:.0} ms within {REGRESSION_FACTOR}x of baseline {base:.0} ms\n",
            cur.wall_ms
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_case() -> CaseReport {
        CaseReport {
            name: GATE_CASE.into(),
            compute_nodes: 8192,
            edges: 20000,
            blocks: 16,
            cut_edges: 900,
            outer_rounds: 40,
            inner_iters: 120_000,
            polish_iters: 60,
            forward_sweeps_per_iter: 2.9,
            probes_per_iter: 2.9,
            block_solves: 639,
            block_solves_per_s: 319.5,
            wall_ms: 2000.0,
            phi: 12.5,
            primal_residual: 5e-5,
            dual_residual: 8e-5,
            converged: true,
            phi_vs_dense: None,
            blocks_retried: 3,
            blocks_stolen: 2,
            blocks_stale: 1,
            workers_quarantined: 1,
            backend_downgrades: 0,
        }
    }

    #[test]
    fn json_document_parses_and_round_trips_fields() {
        let json = render_json(true, 3, &[tiny_case()]);
        let doc = parse_json(&json).expect("valid JSON");
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("quick").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("fleet").and_then(Json::as_u64), Some(3));
        let cases = doc.get("cases").and_then(Json::as_arr).expect("cases array");
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].get("name").and_then(Json::as_str), Some(GATE_CASE));
        assert_eq!(cases[0].get("wall_ms").and_then(Json::as_f64), Some(2000.0));
        assert_eq!(cases[0].get("block_solves").and_then(Json::as_u64), Some(639));
        assert_eq!(cases[0].get("forward_sweeps_per_iter").and_then(Json::as_f64), Some(2.9));
        assert_eq!(cases[0].get("probes_per_iter").and_then(Json::as_f64), Some(2.9));
        assert_eq!(cases[0].get("block_solves_per_s").and_then(Json::as_f64), Some(319.5));
        assert_eq!(cases[0].get("converged").and_then(Json::as_bool), Some(true));
        assert_eq!(cases[0].get("blocks_retried").and_then(Json::as_u64), Some(3));
        assert_eq!(cases[0].get("blocks_stolen").and_then(Json::as_u64), Some(2));
        assert_eq!(cases[0].get("blocks_stale").and_then(Json::as_u64), Some(1));
        assert_eq!(cases[0].get("workers_quarantined").and_then(Json::as_u64), Some(1));
        assert_eq!(cases[0].get("backend_downgrades").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn baseline_gate_checks_wall_clock_and_convergence() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("paradigm-bench-admm-baseline-{}.json", std::process::id()));
        std::fs::write(&path, render_json(true, 0, &[tiny_case()])).unwrap();
        let p = path.to_string_lossy().into_owned();

        let ok = check_baseline(&p, &[tiny_case()]).expect("within limit");
        assert!(ok.contains("baseline: ok"), "{ok}");

        let mut slow = tiny_case();
        slow.wall_ms = 11_000.0;
        let err = check_baseline(&p, &[slow]).expect_err("beyond limit");
        assert!(err.contains("REGRESSION"), "{err}");

        let mut diverged = tiny_case();
        diverged.converged = false;
        let err = check_baseline(&p, &[diverged]).expect_err("lost convergence");
        assert!(err.contains("no longer converges"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bench_case_on_a_small_graph_produces_sane_numbers() {
        let g = fork_join_mdg(4, 8, 3);
        let c =
            bench_case("smoke", &g, Machine::cm5(32), &AdmmConfig::default(), &Runner::InProcess)
                .expect("tiny solve succeeds");
        assert!(c.wall_ms > 0.0);
        assert!(c.blocks >= 1);
        assert!(
            c.block_solves >= (c.blocks * c.outer_rounds) as u64 - c.blocks_stale,
            "block_solves accounts for every non-stale round slot"
        );
        assert!(c.block_solves_per_s > 0.0, "throughput is positive on a completed solve");
        assert!(c.converged, "tiny fork-join must converge");
        assert_eq!(c.blocks_retried + c.blocks_stolen + c.backend_downgrades, 0);
        let ratio = c.phi_vs_dense.expect("dense reference ran");
        assert!(ratio <= 1.02, "admm within 2% of dense on a tiny graph, got {ratio}");
    }

    #[test]
    fn bench_case_through_a_tiny_local_fleet_matches_in_process() {
        let g = fork_join_mdg(4, 8, 3);
        let cfg = AdmmConfig::default();
        let local = bench_case("smoke", &g, Machine::cm5(32), &cfg, &Runner::InProcess).unwrap();
        let fleet = spawn_fleet(2, None).expect("spawn two local workers");
        let dist = bench_case(
            "smoke",
            &g,
            Machine::cm5(32),
            &cfg,
            &Runner::Fleet { addrs: &fleet.addrs, deadline: Duration::from_secs(30) },
        )
        .expect("fleet solve succeeds");
        let snaps = fleet.shutdown();
        assert_eq!(dist.phi.to_bits(), local.phi.to_bits(), "strict mode is bitwise-identical");
        assert_eq!(dist.backend_downgrades, 0, "healthy fleet never downgrades");
        let solved: u64 = snaps.iter().map(|s| s.blocks_solved).sum();
        assert!(solved >= 1, "workers actually solved blocks, got {solved}");
    }

    /// Heavy end-to-end chaos drill (the acceptance-gate scenario):
    /// three workers, worker 0 armed with block faults, the last worker
    /// killed mid-gate-case — the run must complete and converge.
    /// `cargo test -p paradigm-cli --release -- --ignored` runs it.
    #[test]
    #[ignore = "multi-second end-to-end fleet benchmark"]
    fn fleet_chaos_run_completes_and_reports_recovery() {
        let out = run_bench_admm(&BenchAdmmOpts {
            fleet: 3,
            chaos: Some(FaultPlan::parse("block-crash=0.15,seed=7").expect("valid plan")),
            kill_after_ms: Some(200),
            ..BenchAdmmOpts::default()
        })
        .expect("chaos bench completes without intervention");
        assert!(!out.failed, "no baseline gate was requested");
        assert!(out.text.contains("faults: retried"), "fault counters surfaced:\n{}", out.text);
    }
}
