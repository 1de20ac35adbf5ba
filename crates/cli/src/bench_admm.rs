//! `paradigm bench-admm` — the consensus-ADMM benchmark.
//!
//! Partitions and solves seeded large MDGs with the distributed
//! consensus-ADMM tier, solves each of them densely as well, and emits
//! the `BENCH_admm.json` document: rounds to convergence, residuals,
//! solution quality and — the column the routing decision rests on
//! (DESIGN.md §13) — ADMM wall clock over dense wall clock on the same
//! graph in the same process. What each field is stands beside its entry
//! in [`TABLES`]; the document header carries `crossover_nodes`, the
//! smallest case from which on ADMM was no slower than the dense solve,
//! or `null` ([`crossover_nodes`]). Report, document and gates run on
//! [`crate::harness`].
//!
//! With `--fleet <n>` the benchmark spawns `n` in-process
//! `serve --worker` nodes on ephemeral localhost ports and routes every
//! block x-update through [`TcpBlockBackend`] (wrapped in a
//! [`FailoverBackend`], mirroring production `serve` wiring). The
//! cluster chaos drill: `--chaos <plan>` arms worker 0 with seeded
//! block-level faults, and `--kill-after-ms <ms>` shuts the last worker
//! down mid-way through the largest quick case — the run must still
//! complete, converge, and report nonzero retry/steal counts.
//!
//! The run fails (exit code 1) on four gates, all the same on every
//! machine: `sweeps` (see `bench-solve`) over the block x-updates and the
//! coordinator polish; `replays` — no case replays a tape more than once
//! per gradient taken; `builds` — an in-process run compiles each block's
//! objective once per solve, not once per round; and `converged` — every
//! case reaches the residual tolerance.

use std::net::SocketAddr;
use std::sync::Arc;

// Shim import, not std: `Server::shutdown_flag` hands back the shim's
// `AtomicBool`, which is a distinct type under `--cfg paradigm_race`.
use paradigm_race::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use paradigm_admm::{
    solve_admm, solve_admm_in_process, AdmmConfig, AdmmResult, FailoverBackend, InProcessBackend,
};
use paradigm_cost::Machine;
use paradigm_mdg::{fork_join_mdg, random_layered_mdg, Mdg, RandomMdgConfig};
use paradigm_serve::{
    FaultPlan, FleetConfig, Json, MetricsSnapshot, ServeConfig, Server, ServerConfig,
    TcpBlockBackend,
};
use paradigm_solver::workspace::pool_sweep_counts;
use paradigm_solver::{try_allocate, SolverConfig};

use crate::bench_solve::SWEEPS;
use crate::commands::{CliError, CmdOutput};
use crate::harness::{every_case, finish, json_only, timed, Cell, Gate, Report, Row, Table};

/// Random-MDG seed; fixed so the benchmark graphs are reproducible.
const SEED: u64 = 1994;

/// The largest graph the quick configuration runs: `--kill-after-ms`
/// arms its kill timer at the start of this case so the chaos drill
/// lands mid-solve.
const GATE_CASE: &str = "random-8192";

/// Every reported field, once.
const TABLES: &[Table] = &[(
    "",
    &[
        ("name", "case", 14, Cell::Text),
        ("compute_nodes", "nodes", 7, Cell::Int),
        ("edges", "edges", 7, Cell::Int),
        // What the multilevel partitioner produced.
        ("blocks", "blocks", 6, Cell::Int),
        ("cut_edges", "cut", 6, Cell::Int),
        // Coordinator effort.
        ("outer_rounds", "outer", 6, Cell::Int),
        json_only("inner_iters"),
        json_only("polish_iters"),
        // Forward sweeps of the objective and points the descent loops
        // (block x-updates, coordinator polish) evaluated, per inner +
        // polish iteration; equal when no point is swept twice.
        ("forward_sweeps_per_iter", "swp/iter", 8, Cell::Fixed(3)),
        ("probes_per_iter", "prb/iter", 8, Cell::Fixed(3)),
        // Backward tape replays per probe (a line search takes about two
        // probes per gradient), and per point whose gradient a descent
        // loop took: exactly 1 when every gradient is one replay.
        ("backward_sweeps_per_probe", "bwd/prb", 8, Cell::Fixed(3)),
        json_only("backward_sweeps_per_gradient"),
        // Block objectives compiled in this process: `blocks` when every
        // block's tape is carried from round to round; one per block
        // solve through a fleet, whose workers compile per frame.
        ("tape_builds", "builds", 7, Cell::Int),
        // Fresh block x-updates executed (`blocks * outer_rounds` minus
        // the round slots served a stale solution) and their end-to-end
        // throughput.
        ("block_solves", "solves", 7, Cell::Int),
        ("block_solves_per_s", "blk/s", 8, Cell::Fixed(1)),
        // One end-to-end ADMM solve, partitioning included.
        ("wall_ms", "wall_ms", 9, Cell::Fixed(0)),
        // One `try_allocate` of the same graph under `SolverConfig::fast`
        // on this thread, timed outside the ADMM solve's sweep-count
        // window, and `wall_ms` over it.
        ("dense_ms", "dense_ms", 9, Cell::Fixed(0)),
        ("admm_over_dense", "vs_dense", 8, Cell::Times(1)),
        ("phi", "phi", 10, Cell::Fixed(4)),
        // The ADMM objective over the dense one (1.0 = parity; the
        // convergence tests pin this at <= 1.01).
        ("phi_vs_dense", "phi/dense", 9, Cell::Fixed(4)),
        // The consensus stopping state.
        ("primal_residual", "r_primal", 10, Cell::Sci(2)),
        ("dual_residual", "r_dual", 10, Cell::Sci(2)),
        ("converged", "conv", 5, Cell::YesNo),
        // Fault-recovery counters: zero on a healthy in-process run,
        // nonzero under fleet chaos, when they also print as the case's
        // `faults:` line.
        json_only("blocks_retried"),
        json_only("blocks_stolen"),
        json_only("blocks_stale"),
        json_only("workers_quarantined"),
        json_only("backend_downgrades"),
    ],
)];

/// Everything `bench-admm` can be asked to do: what
/// [`crate::args::Command::BenchAdmm`] carries, one field per CLI flag.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchAdmmOpts {
    /// Drop the largest graphs (CI smoke).
    pub quick: bool,
    /// Write `BENCH_admm.json` here instead of stdout.
    pub out: Option<String>,
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
            fleet: 0,
            chaos: None,
            kill_after_ms: None,
            admm_stale: 0,
            block_deadline_ms: None,
        }
    }
}

/// Where a case's block x-updates run: `None` = threaded solves in this
/// process (the tracked configuration), else a TCP worker fleet at these
/// addresses under this per-block deadline, wrapped in a failover to the
/// in-process backend (mirrors `serve` wiring).
type Runner<'a> = Option<(&'a [SocketAddr], Duration)>;

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

    let mut title = String::new();
    if let Some(f) = &fleet {
        title.push_str(&format!(
            "fleet: {} worker(s) on localhost{}{}\n",
            f.addrs.len(),
            if opts.chaos.is_some() { ", chaos armed on worker 0" } else { "" },
            opts.kill_after_ms.map_or(String::new(), |ms| format!(
                ", killing worker {} after {ms} ms of {GATE_CASE}",
                f.addrs.len() - 1
            )),
        ));
    }
    title.push_str(&format!("bench-admm ({})", if opts.quick { "quick" } else { "full" }));

    let mut rows: Vec<Row> = Vec::with_capacity(graphs.len());
    for (name, g) in &graphs {
        // Arm the kill timer as the gate case starts, so the worker
        // dies mid-solve of the largest case every configuration runs.
        if name == GATE_CASE {
            if let (Some(ms), Some(f)) = (opts.kill_after_ms, fleet.as_ref()) {
                let flag = Arc::clone(f.flags.last().expect("fleet is non-empty"));
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(ms));
                    flag.store(true, Ordering::Relaxed);
                });
            }
        }
        let runner = fleet.as_ref().map(|f| (&f.addrs[..], deadline));
        rows.push(bench_case(name, g, machine, &admm_cfg, runner)?);
    }

    let mut footer = String::new();
    if let Some(f) = fleet {
        for (i, snap) in f.shutdown().into_iter().enumerate() {
            footer.push_str(&format!(
                "worker {i}: blocks-solved {}  requests {}\n",
                snap.blocks_solved, snap.requests
            ));
        }
    }
    let report = Report {
        title,
        header: vec![
            ("version", Json::num(6.0)),
            ("quick", Json::Bool(opts.quick)),
            ("fleet", Json::num(opts.fleet as f64)),
            ("crossover_nodes", crossover_nodes(&rows)),
        ],
        tables: TABLES,
        rows,
        footer,
    };
    finish(&report, &[SWEEPS, REPLAYS, BUILDS, CONVERGED], opts.out.as_deref())
}

/// The size a `>= n` routing threshold could use: the smallest case from
/// which on — at it and at every larger case — the ADMM solve was no
/// slower than the dense one, `null` when the largest case is slower.
/// (Not simply the smallest case that wins: a graph under the partition
/// floor is one block, so its "consensus" solve is a single warm descent
/// that beats the four-start dense solve and says nothing about sizes
/// that do partition.) Rows are in growing size.
fn crossover_nodes(rows: &[Row]) -> Json {
    let slower = |row: &Row| row.num("wall_ms") > row.num("dense_ms");
    let from = rows.iter().rposition(slower).map_or(0, |last_slower| last_slower + 1);
    rows.get(from).map_or(Json::Null, |row| Json::num(row.num("compute_nodes")))
}

/// The convergence gate: every case reaches the residual tolerance.
const CONVERGED: Gate = Gate {
    name: "converged",
    check: |report| {
        every_case(report, "every case reached the residual tolerance", |row| {
            let (r, s) = (row.num("primal_residual"), row.num("dual_residual"));
            (row.get("converged") != Some(&Json::Bool(true)))
                .then(|| format!("stopped at primal residual {r:.2e}, dual residual {s:.2e}"))
        })
    },
};

/// The replay gate: every gradient a descent loop took cost one backward
/// replay of the tape its probe recorded.
const REPLAYS: Gate = Gate {
    name: "replays",
    check: |report| {
        every_case(report, "no case replays more than once per gradient", |row| {
            let replays = row.num("backward_sweeps_per_gradient");
            (replays > 1.0).then(|| format!("runs {replays:.3} backward replays per gradient"))
        })
    },
};

/// The build gate of an in-process run: each block's objective is
/// compiled once and carried through the rounds. (Fleet workers share
/// this process's counters and compile per frame: not gated.)
const BUILDS: Gate = Gate {
    name: "builds",
    check: |report| {
        if report.header_num("fleet") > 0.0 {
            return Ok("not gated through a fleet, whose workers compile per frame".into());
        }
        every_case(report, "every block's objective was compiled once per solve", |row| {
            let (builds, blocks) = (row.num("tape_builds"), row.num("blocks"));
            (builds != blocks).then(|| format!("compiled {builds} objectives for {blocks} blocks"))
        })
    },
};

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
    runner: Runner<'_>,
) -> Result<Row, CliError> {
    // Block solves and the polish run out of pooled workspaces (local
    // fleet workers share this process's pool), all idle again once the
    // solve returns: the pool's counter delta is this solve's.
    let swept = pool_sweep_counts();
    let (res, wall) = timed(|| run_case(g, machine, cfg, runner));
    let res = res.map_err(|e| CliError::Config(format!("admm solve of {name} failed: {e}")))?;
    let swept = pool_sweep_counts().since(swept);
    let (dense, dense_wall) = timed(|| try_allocate(g, machine, &SolverConfig::fast()));
    let dense =
        dense.map_err(|e| CliError::Config(format!("dense solve of {name} failed: {e}")))?;
    let (wall_ms, dense_ms) = (wall.as_secs_f64() * 1e3, dense_wall.as_secs_f64() * 1e3);
    let per_iter = |count: u64| count as f64 / (res.inner_iters + res.polish_iters).max(1) as f64;
    let block_solves = ((res.blocks * res.outer_iters) as u64).saturating_sub(res.blocks_stale);

    let mut row = Row::new(name);
    row.set("compute_nodes", g.compute_node_count() as f64);
    row.set("edges", g.edge_count() as f64);
    row.set("blocks", res.blocks as f64);
    row.set("cut_edges", res.cut_edges as f64);
    row.set("outer_rounds", res.outer_iters as f64);
    row.set("inner_iters", res.inner_iters as f64);
    row.set("polish_iters", res.polish_iters as f64);
    row.set("forward_sweeps_per_iter", per_iter(swept.forward_sweeps));
    row.set("probes_per_iter", per_iter(swept.probes));
    let replays_per = |count: u64| swept.backward_sweeps as f64 / count.max(1) as f64;
    row.set("backward_sweeps_per_probe", replays_per(swept.probes));
    row.set("backward_sweeps_per_gradient", replays_per(swept.gradients));
    row.set("tape_builds", swept.tape_builds as f64);
    row.set("block_solves", block_solves as f64);
    row.set("block_solves_per_s", block_solves as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE));
    row.set("wall_ms", wall_ms);
    row.set("dense_ms", dense_ms);
    row.set("admm_over_dense", wall_ms / dense_ms.max(f64::MIN_POSITIVE));
    row.set("phi", res.phi.phi);
    row.set("phi_vs_dense", res.phi.phi / dense.phi.phi);
    row.set("primal_residual", res.primal_residual);
    row.set("dual_residual", res.dual_residual);
    row.set_json("converged", Json::Bool(res.converged));
    let faults = [
        ("blocks_retried", "retried", res.blocks_retried),
        ("blocks_stolen", "stolen", res.blocks_stolen),
        ("blocks_stale", "stale", res.blocks_stale),
        ("workers_quarantined", "quarantined", res.workers_quarantined),
        ("backend_downgrades", "downgrades", res.backend_downgrades),
    ];
    for (key, _, count) in faults {
        row.set(key, count as f64);
    }
    if faults.iter().any(|&(_, _, count)| count > 0) {
        let counts: Vec<String> =
            faults.iter().map(|(_, label, count)| format!("{label} {count}")).collect();
        row.note = Some(format!("  faults: {}", counts.join("  ")));
    }
    Ok(row)
}

fn run_case(
    g: &Mdg,
    machine: Machine,
    cfg: &AdmmConfig,
    runner: Runner<'_>,
) -> Result<AdmmResult, String> {
    let Some((addrs, block_deadline)) = runner else {
        return solve_admm_in_process(g, machine, cfg, 0).map_err(|e| e.to_string());
    };
    let fleet = FleetConfig { block_deadline, ..FleetConfig::default() };
    let tcp = TcpBlockBackend::with_config(addrs, fleet).map_err(|e| e.to_string())?;
    let mut backend = FailoverBackend::new(tcp, InProcessBackend::default());
    solve_admm(g, machine, cfg, &mut backend).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: Vec<Row>) -> Report {
        Report {
            title: "bench-admm (test)".into(),
            header: vec![
                ("version", Json::num(6.0)),
                ("fleet", Json::num(0.0)),
                ("crossover_nodes", Json::Null),
            ],
            tables: TABLES,
            rows,
            footer: String::new(),
        }
    }

    fn smoke(runner: Runner<'_>) -> Row {
        let g = fork_join_mdg(4, 8, 3);
        bench_case("smoke", &g, Machine::cm5(32), &AdmmConfig::default(), runner)
            .expect("tiny solve succeeds")
    }

    #[test]
    fn bench_case_on_a_small_graph_produces_sane_numbers() {
        let c = smoke(None);
        assert!(c.num("wall_ms") > 0.0);
        assert!(c.num("blocks") >= 1.0);
        assert!(
            c.num("block_solves")
                >= c.num("blocks") * c.num("outer_rounds") - c.num("blocks_stale"),
            "block_solves accounts for every non-stale round slot"
        );
        assert!(c.num("block_solves_per_s") > 0.0, "throughput is positive on a completed solve");
        assert_eq!(c.get("converged"), Some(&Json::Bool(true)), "tiny fork-join must converge");
        assert_eq!(
            c.num("blocks_retried") + c.num("blocks_stolen") + c.num("backend_downgrades"),
            0.0
        );
        assert!(c.note.is_none(), "no faults, no `faults:` line");
        // The dense reference runs on every case, the tiny one included.
        assert!(c.num("dense_ms") > 0.0 && c.num("admm_over_dense") > 0.0);
        let ratio = c.num("phi_vs_dense");
        assert!(ratio <= 1.02, "admm within 2% of dense on a tiny graph, got {ratio}");

        // The row sets exactly the listed keys, and a clean run passes
        // both gates.
        let rep = report(vec![c]);
        let json = rep.render_json().expect("every key is listed");
        let doc = paradigm_serve::parse_json(&json).expect("valid JSON");
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(6));
        assert_eq!(doc.get("crossover_nodes"), Some(&Json::Null), "key present even when null");
        let case = &doc.get("cases").and_then(Json::as_arr).expect("cases array")[0];
        assert_eq!(case.get("name").and_then(Json::as_str), Some("smoke"));
        assert!(case.get("dense_ms").is_some() && case.get("phi_vs_dense").is_some());
        assert!((SWEEPS.check)(&rep).is_ok() && (CONVERGED.check)(&rep).is_ok());
        // (`replays` and `builds` read pool-wide counts that sibling
        // tests' solves share: held on hand-made rows below, by
        // `crates/admm/tests/sweep_counts.rs` and by the real run.)
    }

    #[test]
    fn replay_and_build_gates_name_the_case_that_pays_twice() {
        let case = |name: &str, replays: f64, builds: f64| {
            let mut row = Row::new(name);
            row.set("backward_sweeps_per_gradient", replays);
            row.set("tape_builds", builds);
            row.set("blocks", 5.0);
            row
        };
        let rep = report(vec![case("fine", 1.0, 5.0), case("twice", 2.0, 740.0)]);
        let err = (REPLAYS.check)(&rep).expect_err("two replays per gradient");
        assert!(err.starts_with("twice runs 2.000 backward replays"), "{err}");
        let err = (BUILDS.check)(&rep).expect_err("a build per block solve");
        assert_eq!(err, "twice compiled 740 objectives for 5 blocks");
        // Fleet workers compile per frame in this process: not gated.
        let mut fleet = report(vec![case("twice", 1.0, 740.0)]);
        fleet.header[1] = ("fleet", Json::num(3.0));
        assert!((BUILDS.check)(&fleet).is_ok() && (REPLAYS.check)(&fleet).is_ok());
    }

    #[test]
    fn crossover_is_where_admm_starts_to_win_and_keeps_winning() {
        let case = |nodes: f64, wall_ms: f64, dense_ms: f64| {
            let mut row = Row::new("case");
            row.set("compute_nodes", nodes);
            row.set("wall_ms", wall_ms);
            row.set("dense_ms", dense_ms);
            row
        };
        // This box, PR 19, first run: the one-block case wins, every partitioned one
        // loses by a widening margin — nothing to route by.
        let measured = [
            case(209.0, 19.0, 215.0),
            case(2054.0, 16935.0, 3027.0),
            case(8208.0, 84898.0, 9905.0),
        ];
        assert_eq!(crossover_nodes(&measured), Json::Null);
        let crossing = [
            case(209.0, 19.0, 215.0),
            case(2054.0, 9.0, 3.0),
            case(8208.0, 8.0, 9.0),
            case(9e4, 50.0, 90.0),
        ];
        assert_eq!(crossover_nodes(&crossing), Json::num(8208.0));
        let always = [case(209.0, 1.0, 2.0), case(2054.0, 3.0, 3.0)];
        assert_eq!(crossover_nodes(&always), Json::num(209.0));
        assert_eq!(crossover_nodes(&[]), Json::Null);
    }

    #[test]
    fn converged_gate_fails_any_case_that_stops_short() {
        let mut stuck = Row::new("stuck");
        stuck.set_json("converged", Json::Bool(false));
        stuck.set("primal_residual", 3e-3);
        stuck.set("dual_residual", 1e-5);
        let mut fine = Row::new("fine");
        fine.set_json("converged", Json::Bool(true));
        let err =
            (CONVERGED.check)(&report(vec![fine, stuck])).expect_err("one case stopped short");
        assert!(err.starts_with("stuck stopped at primal residual 3.00e-3"), "{err}");
    }

    #[test]
    fn bench_case_through_a_tiny_local_fleet_matches_in_process() {
        let local = smoke(None);
        let fleet = spawn_fleet(2, None).expect("spawn two local workers");
        let dist = smoke(Some((&fleet.addrs, Duration::from_secs(30))));
        let snaps = fleet.shutdown();
        assert_eq!(
            dist.num("phi").to_bits(),
            local.num("phi").to_bits(),
            "strict mode is bitwise-identical"
        );
        assert_eq!(dist.num("backend_downgrades"), 0.0, "healthy fleet never downgrades");
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
