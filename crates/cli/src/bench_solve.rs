//! `paradigm bench-solve` — the solver micro-benchmark.
//!
//! Measures the hot paths of the allocation solver on the gallery
//! workloads plus random layered MDGs of growing size and emits the
//! `BENCH_solver.json` document. What each field is stands beside its
//! entry in [`TABLES`]; the report, the JSON document and the gates run
//! on [`crate::harness`].
//!
//! The run fails (exit code 1) on five gates — [`SWEEPS`], [`EXPS`],
//! [`ALLOCS`], [`SPREAD`], [`WARM`] — all counts or solution values: the
//! same on every machine, so none needs a baseline.

use paradigm_core::{gallery_graph, GALLERY_NAMES};
use paradigm_cost::Machine;
use paradigm_mdg::{random_layered_mdg, Mdg, RandomMdgConfig};
use paradigm_serve::Json;
use paradigm_solver::expr::Sharpness;
use paradigm_solver::workspace::pool_sweep_counts;
use paradigm_solver::{
    allocation_count, descend_stage, try_allocate_counted, try_allocate_from, MdgObjective,
    SolverConfig, SolverWorkspace,
};

use crate::commands::{CliError, CmdOutput};
use crate::harness::{
    every_case, finish, json_only, median_us, timed, Cell, Gate, Report, Row, Table,
};

/// Random-MDG seed; fixed so the benchmark graphs are reproducible.
const SEED: u64 = 1994;

/// Slack of the sweep gate: `forward_sweeps_per_iter` may exceed
/// `probes_per_iter` by this much before the run fails. The two are equal
/// by construction; a loop that re-sweeps its accepted point is off by
/// one whole sweep per iteration.
const SWEEP_SLACK: f64 = 0.05;

/// Ceiling of the `spread` gate: how far apart the three deterministic
/// starts may land under `SolverConfig::fast` before "one start is
/// enough" stops being true (measured worst: 2.8e-3, strassen at p = 64).
const SPREAD_LIMIT: f64 = 5e-3;

/// Ceiling of the `warm` gate: how far the solve, whose rungs below the
/// ladder's top stop at `WARM_TOL`, may land above the all-1e-6 ladder.
/// One-sided: landing below it is no loss (strassen at p = 64 reads
/// −2.8e-3, where the reference misses the exact polish's kink escape).
const LADDER_GAP_LIMIT: f64 = 1e-3;

/// The sharpness values of the per-sweep table.
const SWEEP_SHARPS: [(&str, Sharpness); 4] = [
    ("exact", Sharpness::Exact),
    ("8", Sharpness::Smooth(8.0)),
    ("64", Sharpness::Smooth(64.0)),
    ("256", Sharpness::Smooth(256.0)),
];

/// Calls per timing sample of the sub-millisecond sweeps.
const INNER: usize = 4;

/// Every reported field, once. Medians are in microseconds.
const TABLES: &[Table] = &[
    (
        "",
        &[
            ("name", "case", 18, Cell::Text),
            ("compute_nodes", "nodes", 6, Cell::Int),
            ("edges", "edges", 6, Cell::Int),
            // One smoothed objective evaluation through the reusable
            // workspace (`eval_with`).
            ("eval_us", "eval_us", 10, Cell::Fixed(2)),
            // One recording forward sweep (`forward_record`): what a
            // line-search probe costs, `eval_us` plus the tape writes.
            ("record_us", "record_us", 10, Cell::Fixed(2)),
            // One reverse-mode gradient (`eval_grad_with` = record +
            // backward replay), the cost of a stage start; minus
            // `record_us` it is what an accepted probe pays for its
            // gradient.
            ("eval_grad_us", "grad_us", 10, Cell::Fixed(2)),
            // One end-to-end `try_allocate` under `SolverConfig::fast`: wall
            // time, descent iterations, forward sweeps.
            ("allocate_us", "allocate_us", 12, Cell::Fixed(0)),
            ("allocate_iters", "iters", 7, Cell::Int),
            ("allocate_sweeps", "sweeps", 7, Cell::Int),
            // Of those, the exact polish's iterations and the points it
            // evaluated (its start plus every line-search probe).
            ("polish_iters", "pol_it", 6, Cell::Int),
            ("polish_probes", "pol_prb", 7, Cell::Int),
            // Its exact Phi, and that over the Phi of the same ladder with
            // every rung at `STATIONARITY_TOL` (rebuilt through
            // `descend_stage`), minus 1: negative where the solve lands
            // lower.
            ("allocate_phi", "phi", 11, Cell::Sci(4)),
            ("ladder_gap", "lad_gap", 9, Cell::Sci(1)),
            // Over that solve, per descent iteration: points swept forward
            // through the objective (recording or value-only) and points
            // its descent loops evaluated (line-search probes plus each
            // stage's start). Equal when no point is swept twice.
            ("forward_sweeps_per_iter", "swp/iter", 8, Cell::Fixed(3)),
            ("probes_per_iter", "prb/iter", 8, Cell::Fixed(3)),
            // The same solve from `x = 0`, `ub/2` and `ub`: largest
            // Phi / Phi_min − 1. What a second start could still buy.
            ("start_spread", "spread", 9, Cell::Sci(1)),
            // Heap allocations per descent iteration after warm-up, seen
            // through the counting global allocator the `paradigm` binary
            // installs (0 in-process unless installed).
            ("allocs_per_iter", "allocs/iter", 11, Cell::Fixed(2)),
        ],
    ),
    (
        "sweeps (us: record/replay)",
        &[
            json_only("variables"),
            // Shape of the objective's level program
            // (`MdgObjective::tape_stats`): value slots (one per monomial,
            // sum and max), levels above the monomials.
            ("tape_ops", "ops", 6, Cell::Int),
            ("tape_levels", "lv", 3, Cell::Int),
            // Shape of the `C_p` recurrence's schedule
            // (`MdgObjective::dag_shape`): DAG depths, each one batched
            // step of the sweep, and the most nodes at one depth.
            ("dag_levels", "dlv", 4, Cell::Int),
            ("dag_width", "dw", 4, Cell::Int),
            // `exp` calls of one exact recording sweep, read off the
            // scratch's `SweepCounts`.
            ("exact_exps_per_sweep", "exps", 6, Cell::Int),
            // `record_us` over `tape_ops`.
            ("record_ns_per_op", "ns/op", 7, Cell::Fixed(2)),
            // Per sharpness: `record_us` / `replay_us`.
            ("sweeps", "the same at s = exact, 8, 64, 256", 47, Cell::With(sweep_cells)),
        ],
    ),
];

/// Run the benchmark; `quick` trims samples and drops the largest graph.
pub fn run_bench_solve(quick: bool, out_path: Option<&str>) -> Result<CmdOutput, CliError> {
    let reps = if quick { 9 } else { 25 };
    let mut rows = Vec::new();
    for name in GALLERY_NAMES {
        let g = gallery_graph(name).unwrap_or_else(|| unreachable!("gallery name {name}"));
        rows.push(bench_case(name, &g, reps));
    }
    let mut sizes = vec![64usize, 128, 256];
    if !quick {
        sizes.push(512);
    }
    for n in sizes {
        let g = random_layered_mdg(
            &RandomMdgConfig {
                layers: n / 8,
                width_min: 8,
                width_max: 8,
                ..RandomMdgConfig::default()
            },
            SEED,
        );
        rows.push(bench_case(&format!("random-{n}"), &g, reps));
    }
    let report = Report {
        title: format!(
            "bench-solve ({}; medians over {reps} samples)",
            if quick { "quick" } else { "full" }
        ),
        header: vec![("version", Json::num(10.0)), ("quick", Json::Bool(quick))],
        tables: TABLES,
        rows,
    };
    finish(&report, &[SWEEPS, EXPS, ALLOCS, SPREAD, WARM], out_path)
}

/// Measure one graph.
fn bench_case(name: &str, g: &Mdg, reps: usize) -> Row {
    let mut row = Row::new(name);
    row.set("compute_nodes", g.compute_node_count() as f64);
    row.set("edges", g.edge_count() as f64);
    let obj = MdgObjective::new(g, Machine::cm5(64));
    let n = obj.num_vars();
    let ub = obj.x_upper();
    // Deterministic interior point, varied per-coordinate so no smax
    // degenerates to a tie.
    let x: Vec<f64> = (0..n).map(|i| ub * (0.3 + 0.4 * ((i * 7 % 11) as f64) / 11.0)).collect();
    let sharp = Sharpness::Smooth(64.0);

    // One workspace for every probe below: the sweeps run on its
    // `.scratch`, the descent on its `.descent`.
    let mut ws = SolverWorkspace::new();
    let scratch = &mut ws.scratch;
    let mut grad = Vec::new();
    // Warm the workspace buffers so the timed region measures steady state.
    let _ = obj.eval_grad_with(&x, sharp, scratch, &mut grad);

    let eval = median_us(reps, INNER, || {
        std::hint::black_box(obj.eval_with(&x, sharp, scratch).phi);
    });
    let record = median_us(reps, INNER, || {
        std::hint::black_box(obj.forward_record(&x, sharp, scratch).phi);
    });
    let eval_grad = median_us(reps, INNER, || {
        let parts = obj.eval_grad_with(&x, sharp, scratch, &mut grad);
        std::hint::black_box(parts.phi);
    });
    row.set("eval_us", eval);
    row.set("record_us", record);
    row.set("eval_grad_us", eval_grad);

    // The per-sweep table: both halves of the adjoint at the sharpness
    // values the solver anneals through and at Exact.
    let sweeps = SWEEP_SHARPS.iter().map(|&(label, sharp)| {
        let record = median_us(reps, INNER, || {
            std::hint::black_box(obj.forward_record(&x, sharp, scratch).phi);
        });
        let replay = median_us(reps, INNER, || {
            obj.backward_replay_phi(scratch, &mut grad);
            std::hint::black_box(grad[0]);
        });
        let cell = [("record_us", record), ("replay_us", replay)];
        let cell = cell.into_iter().map(|(key, us)| (key.to_string(), Json::num(us)));
        (label.to_string(), Json::Obj(cell.collect()))
    });
    row.set_json("sweeps", Json::Obj(sweeps.collect()));
    let before = scratch.counts;
    let _ = obj.forward_record(&x, Sharpness::Exact, scratch);
    row.set("exact_exps_per_sweep", scratch.counts.since(before).exp_calls as f64);
    let stats = obj.tape_stats();
    row.set("variables", n as f64);
    row.set("tape_ops", stats.slots as f64);
    row.set("tape_levels", stats.levels as f64);
    let (dag_levels, dag_width) = obj.dag_shape();
    row.set("dag_levels", dag_levels as f64);
    row.set("dag_width", dag_width as f64);
    row.set("record_ns_per_op", 1e3 * record / stats.slots.max(1) as f64);

    // Allocations per descent iteration, after a warm-up stage has sized
    // every buffer. Reads 0 unless the counting allocator is the global
    // allocator (it is in the `paradigm` binary).
    let mut xd = vec![ub / 2.0; n];
    let _ = descend_stage(&obj, &mut xd, sharp, 10, 0.0, &mut ws);
    let mut xd = vec![ub / 3.0; n];
    let before = allocation_count();
    let measured_iters = descend_stage(&obj, &mut xd, sharp, 50, 0.0, &mut ws);
    let allocs = allocation_count() - before;
    row.set("allocs_per_iter", allocs as f64 / measured_iters.max(1) as f64);

    // `try_allocate`, from the midpoint. The solve runs out of pooled
    // workspaces, all idle again once it returns: the pool's counter delta
    // is this solve's.
    let swept = pool_sweep_counts();
    let midpoint = vec![ub / 2.0; n];
    let (res, wall) =
        timed(|| try_allocate_counted(g, Machine::cm5(64), &SolverConfig::fast(), &midpoint));
    let (res, polish) = res.expect("bench solve");
    let swept = pool_sweep_counts().since(swept);
    let per_iter = |count: u64| count as f64 / res.iterations.max(1) as f64;
    row.set("allocate_us", wall.as_secs_f64() * 1e6);
    row.set("allocate_iters", res.iterations as f64);
    row.set("allocate_sweeps", swept.forward_sweeps as f64);
    row.set("polish_iters", polish.iters as f64);
    row.set("polish_probes", polish.probes as f64);
    row.set("forward_sweeps_per_iter", per_iter(swept.forward_sweeps));
    row.set("probes_per_iter", per_iter(swept.probes));
    row.set("allocate_phi", res.phi.phi);
    let tight = tight_ladder_phi(g, &obj, &SolverConfig::fast(), &mut ws);
    row.set("ladder_gap", res.phi.phi / tight - 1.0);

    let phis = [0.0, ub / 2.0, ub].map(|x0| {
        try_allocate_from(g, Machine::cm5(64), &SolverConfig::fast(), &vec![x0; n])
            .expect("bench solve")
            .phi
            .phi
    });
    let best = phis.iter().copied().fold(f64::INFINITY, f64::min);
    row.set("start_spread", phis.iter().map(|phi| phi / best - 1.0).fold(0.0, f64::max));
    row
}

/// Exact Phi of the midpoint solve with every rung of `cfg`'s ladder run
/// to `STATIONARITY_TOL`: one `descend_stage` per rung, then the polish.
fn tight_ladder_phi(
    g: &Mdg,
    obj: &MdgObjective,
    cfg: &SolverConfig,
    ws: &mut SolverWorkspace,
) -> f64 {
    let mut x = vec![obj.x_upper() / 2.0; obj.num_vars()];
    x[g.start().0] = 0.0;
    x[g.stop().0] = 0.0;
    let mut stages = cfg.sharpness_schedule.clone();
    stages.sort_by(f64::total_cmp);
    for sharp in stages.iter().map(|&s| Sharpness::Smooth(s)).chain([Sharpness::Exact]) {
        descend_stage(obj, &mut x, sharp, cfg.max_iters_per_stage, cfg.rel_tol, ws);
    }
    obj.exact_phi(&obj.allocation_from_x(&x)).phi
}

/// The four sub-cells of the `sweeps` column.
fn sweep_cells(sweeps: &Json) -> String {
    let Json::Obj(by_sharp) = sweeps else { return "?".into() };
    let cells = by_sharp.iter().map(|(_, cell)| {
        let us = |key: &str| cell.get(key).and_then(Json::as_f64);
        let pair = match (us("record_us"), us("replay_us")) {
            (Some(rec), Some(rep)) => format!("{rec:.1}/{rep:.1}"),
            _ => "-".to_string(),
        };
        format!("{pair:>11}")
    });
    cells.collect::<Vec<_>>().join(" ")
}

/// The sweep gate, shared with `bench-admm`: no case sweeps more points
/// forward than its descent loops probed.
pub(crate) const SWEEPS: Gate = Gate {
    name: "sweeps",
    check: |report| {
        let ok = format!("no case sweeps more than it probes (+{SWEEP_SLACK})");
        every_case(report, &ok, |row| {
            let (sweeps, probes) = (row.num("forward_sweeps_per_iter"), row.num("probes_per_iter"));
            (sweeps > probes + SWEEP_SLACK).then(|| {
                format!(
                    "runs {sweeps:.3} forward sweeps per iteration for {probes:.3} probes: some \
                     loop sweeps a point twice"
                )
            })
        })
    },
};

/// The `exp` gate: a sweep, exact or smooth, calls `exp` exactly once
/// per variable — the variable cache every monomial factor and the fused
/// `A_p` read — and never per monomial.
const EXPS: Gate = Gate {
    name: "exps",
    check: |report| {
        let ok = "every exact sweep calls exp exactly once per variable";
        every_case(report, ok, |row| {
            let (exps, variables) = (row.num("exact_exps_per_sweep"), row.num("variables"));
            (exps != variables).then(|| {
                format!("calls exp {exps} times per exact sweep for {variables} variables")
            })
        })
    },
};

/// The allocation gate: once a stage has sized its buffers, descending
/// allocates nothing.
const ALLOCS: Gate = Gate {
    name: "allocs",
    check: |report| {
        every_case(report, "no case allocates in a warmed-up descent iteration", |row| {
            let allocs = row.num("allocs_per_iter");
            (allocs != 0.0).then(|| format!("allocates {allocs:.2} times per descent iteration"))
        })
    },
};

/// The start gate: the solver runs one start because a start converges —
/// the three deterministic ones must land within [`SPREAD_LIMIT`] of the
/// best on every case. Same libm, same number on every machine.
const SPREAD: Gate = Gate {
    name: "spread",
    check: |report| {
        let ok = format!("every case's three starts land within {SPREAD_LIMIT:e} of the best");
        every_case(report, &ok, |row| {
            let spread = row.num("start_spread");
            (spread.is_nan() || spread > SPREAD_LIMIT)
                .then(|| format!("lands {spread:.1e} apart from its three starts"))
        })
    },
};

/// The warm-rung gate: stopping the rungs below the ladder's top at
/// `WARM_TOL` raises no case's Phi by more than [`LADDER_GAP_LIMIT`].
const WARM: Gate = Gate {
    name: "warm",
    check: |report| {
        let ok = format!("every case lands at most {LADDER_GAP_LIMIT:e} above the all-1e-6 ladder");
        every_case(report, &ok, |row| {
            let gap = row.num("ladder_gap");
            (gap.is_nan() || gap > LADDER_GAP_LIMIT)
                .then(|| format!("lands {gap:+.1e} above the all-1e-6 ladder"))
        })
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    /// A row with every number 1 except the ones the tests below read.
    fn tiny_case() -> Row {
        let read = [
            ("compute_nodes", 4.0),
            ("eval_grad_us", 2.0),
            ("start_spread", 1.5e-4),
            ("ladder_gap", -2.7e-6),
            ("forward_sweeps_per_iter", 2.3),
            ("probes_per_iter", 2.3),
            ("allocs_per_iter", 0.0),
            ("variables", 6.0),
            ("tape_ops", 40.0),
            ("dag_width", 3.0),
            ("exact_exps_per_sweep", 6.0),
        ];
        let mut row = Row::new("random-256");
        let numbers = TABLES.iter().flat_map(|(_, cols)| cols.iter()).map(|col| col.0);
        for key in numbers.filter(|key| !["name", "sweeps"].contains(key)) {
            row.set(key, read.iter().find(|(k, _)| *k == key).map_or(1.0, |&(_, v)| v));
        }
        let sweeps = paradigm_serve::parse_json(
            r#"{"exact":{"record_us":1.0,"replay_us":0.5},"8":{"record_us":1.2,"replay_us":0.4}}"#,
        );
        row.set_json("sweeps", sweeps.expect("valid JSON"));
        row
    }

    /// `tiny_case` under another name, with the number under `key` replaced.
    fn tiny_with(name: &str, key: &str, v: f64) -> Row {
        let mut row = tiny_case();
        for (k, value) in &mut row.fields {
            if *k == "name" {
                *value = Json::str(name);
            } else if *k == key {
                *value = Json::num(v);
            }
        }
        row
    }

    fn report(rows: Vec<Row>) -> Report {
        Report {
            title: "bench-solve (test)".into(),
            header: vec![("version", Json::num(10.0)), ("quick", Json::Bool(true))],
            tables: TABLES,
            rows,
        }
    }

    #[test]
    fn json_document_parses_and_round_trips_fields() {
        let rep = report(vec![tiny_case()]);
        let json = rep.render_json().expect("every key is listed");
        let doc = paradigm_serve::parse_json(&json).expect("valid JSON");
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(10));
        assert_eq!(doc.get("quick").and_then(Json::as_bool), Some(true));
        let cases = doc.get("cases").and_then(Json::as_arr).expect("cases array");
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].get("name").and_then(Json::as_str), Some("random-256"));
        assert_eq!(cases[0].get("eval_grad_us").and_then(Json::as_f64), Some(2.0));
        assert_eq!(cases[0].get("start_spread").and_then(Json::as_f64), Some(1.5e-4));
        assert_eq!(cases[0].get("ladder_gap").and_then(Json::as_f64), Some(-2.7e-6));
        assert_eq!(cases[0].get("forward_sweeps_per_iter").and_then(Json::as_f64), Some(2.3));
        assert_eq!(cases[0].get("probes_per_iter").and_then(Json::as_f64), Some(2.3));
        assert_eq!(cases[0].get("tape_ops").and_then(Json::as_u64), Some(40));
        assert_eq!(cases[0].get("dag_width").and_then(Json::as_u64), Some(3));
        assert_eq!(cases[0].get("exact_exps_per_sweep").and_then(Json::as_u64), Some(6));
        let sweeps = cases[0].get("sweeps").expect("sweep table");
        let at =
            |s: &str, field: &str| sweeps.get(s).and_then(|r| r.get(field)).and_then(Json::as_f64);
        assert_eq!(at("exact", "record_us"), Some(1.0));
        assert_eq!(at("8", "replay_us"), Some(0.4));
        // The second table shows the nested sweeps under the tape shape.
        let text = rep.render_tables().expect("every key is listed");
        assert!(text.contains("1.0/0.5") && text.contains("1.2/0.4"), "{text}");
    }

    #[test]
    fn exp_gate_fails_a_sweep_that_calls_exp_per_exponent_vector() {
        let ok = (EXPS.check)(&report(vec![tiny_case()])).expect("6 variables, 6 calls");
        assert!(ok.contains("exactly once per variable"), "{ok}");
        // An exact sweep that also calls `exp` once per each of 9
        // distinct exponent vectors.
        let per_vector = tiny_with("per-vector", "exact_exps_per_sweep", 15.0);
        let err = (EXPS.check)(&report(vec![tiny_case(), per_vector])).expect_err("per vector");
        assert!(err.starts_with("per-vector calls exp 15 times"), "{err}");
        let none = tiny_with("none", "exact_exps_per_sweep", 0.0);
        assert!((EXPS.check)(&report(vec![none])).is_err(), "a sweep that skips the cache");
    }

    #[test]
    fn sweep_gate_fails_a_case_that_sweeps_more_than_it_probes() {
        let near = tiny_with("b", "forward_sweeps_per_iter", 2.34);
        let ok = (SWEEPS.check)(&report(vec![tiny_case(), near])).expect("within slack");
        assert!(ok.contains("no case sweeps more"), "{ok}");
        // The shape of a loop that re-sweeps every accepted point: one
        // extra forward sweep per iteration.
        let twice = tiny_with("b", "forward_sweeps_per_iter", 3.3);
        let err = (SWEEPS.check)(&report(vec![tiny_case(), twice])).expect_err("re-sweeps");
        assert!(err.starts_with("b runs 3.300"), "{err}");
    }

    #[test]
    fn alloc_gate_fails_a_case_that_allocates_per_iteration() {
        assert!((ALLOCS.check)(&report(vec![tiny_case()])).is_ok());
        let leaky = tiny_with("leaky", "allocs_per_iter", 0.5);
        let err = (ALLOCS.check)(&report(vec![tiny_case(), leaky])).expect_err("allocates");
        assert!(err.starts_with("leaky allocates 0.50"), "{err}");
    }

    #[test]
    fn spread_gate_fails_a_case_whose_starts_disagree() {
        let ok = (SPREAD.check)(&report(vec![tiny_case()])).expect("1.5e-4 apart");
        assert!(ok.contains("within 5e-3"), "{ok}");
        // The parent's strassen-ml at p = 64: best of four capped starts.
        let capped = tiny_with("capped", "start_spread", 0.22);
        let err = (SPREAD.check)(&report(vec![tiny_case(), capped])).expect_err("22 % apart");
        assert!(err.starts_with("capped lands 2.2e-1 apart"), "{err}");
        let nan = tiny_with("nan", "start_spread", f64::NAN);
        assert!((SPREAD.check)(&report(vec![nan])).is_err());
    }

    #[test]
    fn warm_gate_fails_a_case_that_lands_above_the_tight_ladder() {
        let ok = (WARM.check)(&report(vec![tiny_case()])).expect("2.7e-6 below");
        assert!(ok.contains("at most 1e-3 above"), "{ok}");
        // strassen at p = 64 under `fast()` with every rung below the top
        // stopped at 1e-2.
        let loose = tiny_with("loose", "ladder_gap", 2.8e-3);
        let err = (WARM.check)(&report(vec![tiny_case(), loose])).expect_err("0.28 % above");
        assert!(err.starts_with("loose lands +2.8e-3 above"), "{err}");
        // The same case now: the solve keeps the polish's kink escape and
        // the reference does not.
        let below = tiny_with("below", "ladder_gap", -2.8e-3);
        assert!((WARM.check)(&report(vec![below])).is_ok(), "landing lower is no failure");
        let nan = tiny_with("nan", "ladder_gap", f64::NAN);
        assert!((WARM.check)(&report(vec![nan])).is_err());
    }

    #[test]
    fn bench_case_on_fig1_produces_sane_numbers() {
        let g = paradigm_mdg::example_fig1_mdg();
        let c = bench_case("fig1", &g, 3);
        assert_eq!(c.num("compute_nodes"), 3.0);
        assert!(c.num("eval_us") > 0.0 && c.num("record_us") > 0.0);
        assert!(c.num("eval_grad_us") > 0.0);
        assert!(c.num("allocate_iters") > 0.0);
        // The polish is one stage of the solve, and probes at least its
        // start and one point per iteration.
        assert!(c.num("polish_iters") > 0.0 && c.num("polish_iters") <= c.num("allocate_iters"));
        assert!(c.num("polish_probes") > c.num("polish_iters"));
        assert!((0.0..=SPREAD_LIMIT).contains(&c.num("start_spread")), "{}", c.num("start_spread"));
        assert!(c.num("allocate_phi") > 0.0);
        assert!(c.num("ladder_gap") <= LADDER_GAP_LIMIT, "{}", c.num("ladder_gap"));
        let Some(Json::Obj(sweeps)) = c.get("sweeps") else { panic!("no sweep table") };
        let rows: Vec<&str> = sweeps.iter().map(|(sharp, _)| sharp.as_str()).collect();
        assert_eq!(rows, ["exact", "8", "64", "256"]);
        let us = |cell: &Json, key: &str| cell.get(key).and_then(Json::as_f64);
        for (_, cell) in sweeps {
            assert!(us(cell, "record_us") > Some(0.0) && us(cell, "replay_us") > Some(0.0));
        }
        assert!(c.num("tape_ops") > 0.0 && c.num("tape_levels") > 0.0);
        // fig1: START, N1, then N2 and N3 side by side, STOP.
        assert_eq!((c.num("dag_levels"), c.num("dag_width")), (4.0, 2.0));
        assert!(c.num("record_ns_per_op") > 0.0);
        assert_eq!(c.num("exact_exps_per_sweep"), c.num("variables"));
        // (Sweep counts are read off the process-wide workspace pool,
        // which sibling tests share: exact only in the single-threaded
        // CLI run, pinned by the crates' `sweep_counts` tests.)
        // In-process the counting allocator is not installed, so the
        // counter never moves.
        assert_eq!(c.num("allocs_per_iter"), 0.0);
        // The row sets exactly the listed keys: it renders.
        let rep = report(vec![c]);
        assert!(rep.render_json().is_ok() && rep.render_tables().is_ok());
    }
}
