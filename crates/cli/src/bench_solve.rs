//! `paradigm bench-solve` — the tracked solver micro-benchmark.
//!
//! Measures the hot paths of the allocation solver on the gallery
//! workloads plus random layered MDGs of growing size, and emits
//! `BENCH_solver.json` so the performance trajectory is recorded in CI
//! rather than anecdotal:
//!
//! * `eval_us` — median wall time of one smoothed objective evaluation
//!   through the reusable workspace (`eval_with`);
//! * `record_us` — median wall time of one recording forward sweep
//!   (`forward_record`): what a line-search probe costs, `eval_us` plus
//!   the tape writes;
//! * `eval_grad_us` — median wall time of one reverse-mode (adjoint)
//!   gradient (`eval_grad_with` = record + backward replay), the cost of
//!   a stage start; `eval_grad_us - record_us` is what an accepted probe
//!   pays for its gradient;
//! * `grad_forward_us` — the retired forward-mode gradient on the same
//!   point, kept as the speedup reference;
//! * `eval_grad_batched_us` / `batch_grad_speedup` — per-gradient cost
//!   of one K-wide batched sweep (`eval_grad_batch_with` over K lanes,
//!   divided by K) and its speedup over the scalar adjoint;
//! * `multistart_us` / `multistart_batched_us` / `multistart_speedup` —
//!   a fixed-iteration K-point multistart stage run as K sequential
//!   scalar descents vs one shared-tape batched `descend_multi_stage`;
//! * `allocate_us` / `allocate_iters` — one end-to-end `try_allocate`
//!   with [`SolverConfig::fast`];
//! * `forward_sweeps_per_iter` / `probes_per_iter` — over that solve,
//!   points swept forward through the objective (recording or
//!   value-only; a K-wide lane sweep counts K) and points its descent
//!   loops evaluated (line-search probes plus each stage's start), both
//!   per descent iteration. Equal when no point is swept twice; the run fails (exit
//!   code 1) if any case sweeps more than it probes — a
//!   machine-independent count, so it needs no baseline;
//! * `allocs_per_iter` — heap allocations per descent iteration after
//!   warm-up, observed through the counting global allocator the
//!   `paradigm` binary installs (0 in-process unless installed);
//! * `tape_ops` / `tape_levels` / `tape_exp_vectors` — shape of the
//!   objective's level program (`MdgObjective::tape_stats`): value slots
//!   (one per monomial, sum and max), levels above the monomials, and
//!   distinct exponent vectors; `record_ns_per_op` is `record_us` over
//!   `tape_ops`;
//! * `exact_exps_per_sweep` — `exp` calls one exact recording sweep
//!   makes, read off the scratch's `SweepCounts`. The run fails (exit
//!   code 1) if it exceeds `tape_exp_vectors + variables`: one `exp` per
//!   distinct exponent vector plus the variable cache, a count that is
//!   the same on every machine;
//! * `sweeps` — `record_us` / `replay_us` of the scalar tape at `Exact`,
//!   8, 64 and 256, and per lane of one `--batch-k`-wide lane sweep
//!   (`record_batched_us` / `replay_batched_us`, smooth only).
//!
//! `--baseline <path>` compares against a checked-in snapshot and fails
//! (exit code 1) when the reverse gradient on the `random-256` case
//! regresses more than 3x — a coarse gate that survives machine noise
//! but catches algorithmic regressions.

use std::time::Instant;

use paradigm_core::{gallery_graph, GALLERY_NAMES};
use paradigm_cost::Machine;
use paradigm_mdg::{random_layered_mdg, Mdg, RandomMdgConfig};
use paradigm_serve::{parse_json, Json};
use paradigm_solver::expr::Sharpness;
use paradigm_solver::objective::ObjectiveParts;
use paradigm_solver::workspace::pool_sweep_counts;
use paradigm_solver::{
    allocation_count, descend_multi_stage, descend_stage, try_allocate, BatchWorkspace,
    MdgObjective, SolverConfig,
};

use crate::commands::{CliError, CmdOutput};

/// Random-MDG seed; fixed so the benchmark graphs are reproducible.
const SEED: u64 = 1994;

/// Factor by which `random-256`'s `eval_grad_us` may exceed the baseline
/// before `--baseline` fails the run.
const REGRESSION_FACTOR: f64 = 3.0;

/// The case name the `--baseline` gate keys on.
const GATE_CASE: &str = "random-256";

/// Slack of the sweep gate: `forward_sweeps_per_iter` may exceed
/// `probes_per_iter` by this much before the run fails. The two are equal
/// by construction; a loop that re-sweeps its accepted point is off by
/// one whole sweep per iteration.
const SWEEP_SLACK: f64 = 0.05;

/// The sharpness values of the per-sweep table.
const SWEEP_SHARPS: [(&str, Sharpness); 4] = [
    ("exact", Sharpness::Exact),
    ("8", Sharpness::Smooth(8.0)),
    ("64", Sharpness::Smooth(64.0)),
    ("256", Sharpness::Smooth(256.0)),
];

/// One row of the per-sweep table: medians in microseconds, the lane
/// tape's per lane (`None` at `Exact`, which it does not sweep).
struct SweepTimes {
    sharp: &'static str,
    record_us: f64,
    replay_us: f64,
    batched: Option<(f64, f64)>,
}

/// One benchmark case's measurements.
struct CaseReport {
    name: String,
    compute_nodes: usize,
    edges: usize,
    eval_us: f64,
    record_us: f64,
    eval_grad_us: f64,
    grad_forward_us: f64,
    grad_speedup: f64,
    eval_grad_batched_us: f64,
    batch_grad_speedup: f64,
    multistart_us: f64,
    multistart_batched_us: f64,
    multistart_speedup: f64,
    allocate_us: f64,
    allocate_iters: usize,
    forward_sweeps_per_iter: f64,
    probes_per_iter: f64,
    allocs_per_iter: f64,
    variables: usize,
    tape_ops: usize,
    tape_levels: usize,
    tape_exp_vectors: usize,
    exact_exps_per_sweep: u64,
    record_ns_per_op: f64,
    sweeps: Vec<SweepTimes>,
}

/// Run the benchmark; `quick` trims samples and drops the largest graph.
pub fn run_bench_solve(
    quick: bool,
    out_path: Option<&str>,
    baseline: Option<&str>,
    batch_k: usize,
) -> Result<CmdOutput, CliError> {
    let reps = if quick { 9 } else { 25 };
    let mut cases = Vec::new();
    for name in GALLERY_NAMES {
        let g = gallery_graph(name).unwrap_or_else(|| unreachable!("gallery name {name}"));
        cases.push(bench_case(name, &g, reps, batch_k));
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
        cases.push(bench_case(&format!("random-{n}"), &g, reps, batch_k));
    }

    let json = render_json(quick, batch_k, &cases);
    let mut text = render_table(quick, reps, &cases);
    text.push_str(&render_sweep_table(batch_k, &cases));
    if let Some(path) = out_path {
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
    match check_exps(&cases) {
        Ok(line) => text.push_str(&line),
        Err(line) => {
            text.push_str(&line);
            failed = true;
        }
    }
    if let Some(bpath) = baseline {
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

/// Measure one graph. All medians are in microseconds.
fn bench_case(name: &str, g: &Mdg, reps: usize, batch_k: usize) -> CaseReport {
    let obj = MdgObjective::new(g, Machine::cm5(64));
    let n = obj.num_vars();
    let ub = obj.x_upper();
    // Deterministic interior point, varied per-coordinate so no smax
    // degenerates to a tie.
    let x: Vec<f64> = (0..n).map(|i| ub * (0.3 + 0.4 * ((i * 7 % 11) as f64) / 11.0)).collect();
    let sharp = Sharpness::Smooth(64.0);

    // One workspace for every probe below: the scalar sweeps run on its
    // `.inner`, the lane sweeps on its `.scratch`, both descents on its
    // lane buffers.
    let mut bw = BatchWorkspace::new();
    let ws = &mut bw.inner;
    let mut grad = Vec::new();
    // Warm the workspace buffers so the timed region measures steady state.
    let _ = obj.eval_grad_with(&x, sharp, &mut ws.scratch, &mut grad);

    let eval_us = median_us(reps, || {
        std::hint::black_box(obj.eval_with(&x, sharp, &mut ws.scratch).phi);
    });
    let record_us = median_us(reps, || {
        std::hint::black_box(obj.forward_record(&x, sharp, &mut ws.scratch).phi);
    });
    let eval_grad_us = median_us(reps, || {
        let parts = obj.eval_grad_with(&x, sharp, &mut ws.scratch, &mut grad);
        std::hint::black_box(parts.phi);
    });
    let grad_forward_us = median_us(reps, || {
        let (parts, grad) = obj.eval_grad_forward(&x, sharp);
        std::hint::black_box((parts.phi, grad.len()));
    });

    // K-wide batched gradient: one shared-tape sweep over `batch_k`
    // lane points, reported per gradient (total / K).
    let k = batch_k.max(1);
    let mut xs = vec![0.0_f64; n * k];
    for l in 0..k {
        for j in 0..n {
            xs[j * k + l] = (x[j] + 0.015 * (l as f64)).min(ub);
        }
    }
    let mut bgrads = Vec::new();
    let mut parts = vec![ObjectiveParts { phi: 0.0, a_p: 0.0, c_p: 0.0 }; k];
    obj.eval_grad_batch_with(&xs, k, sharp, &mut bw.scratch, &mut bgrads, &mut parts);
    let eval_grad_batched_us = median_us(reps, || {
        obj.eval_grad_batch_with(&xs, k, sharp, &mut bw.scratch, &mut bgrads, &mut parts);
        std::hint::black_box(parts[0].phi);
    }) / k as f64;

    // The per-sweep table: both halves of the adjoint on both tapes, at
    // the sharpness values the solver anneals through and at Exact.
    let sweeps: Vec<SweepTimes> = SWEEP_SHARPS
        .iter()
        .map(|&(label, sharp)| {
            let scratch = &mut bw.inner.scratch;
            let record_us = median_us(reps, || {
                std::hint::black_box(obj.forward_record(&x, sharp, scratch).phi);
            });
            let replay_us = median_us(reps, || {
                obj.backward_replay_phi(scratch, &mut grad);
                std::hint::black_box(grad[0]);
            });
            let batched = matches!(sharp, Sharpness::Smooth(_)).then(|| {
                let record = median_us(reps, || {
                    obj.forward_record_batch(&xs, k, sharp, &mut bw.scratch, &mut parts);
                    std::hint::black_box(parts[0].phi);
                });
                let replay = median_us(reps, || {
                    obj.backward_replay_batch(k, &mut bw.scratch, &mut bgrads);
                    std::hint::black_box(bgrads[0]);
                });
                (record / k as f64, replay / k as f64)
            });
            SweepTimes { sharp: label, record_us, replay_us, batched }
        })
        .collect();
    let before = bw.inner.scratch.counts;
    let _ = obj.forward_record(&x, Sharpness::Exact, &mut bw.inner.scratch);
    let exact_exps_per_sweep = bw.inner.scratch.counts.since(before).exp_calls;
    let stats = obj.tape_stats();

    // Fixed-iteration multistart stage over the same K start points:
    // K sequential scalar descents vs one batched `descend_multi_stage`.
    // rel_tol 0 keeps every lane running the full iteration budget so
    // the two paths do the same number of gradient steps.
    const MS_ITERS: usize = 20;
    let starts: Vec<Vec<f64>> = (0..k).map(|l| (0..n).map(|j| xs[j * k + l]).collect()).collect();
    // Warm the scalar path, then both measured paths restart from the
    // same fresh start points each sample.
    let mut warm = starts[0].clone();
    let _ = descend_stage(&obj, &mut warm, sharp, MS_ITERS, 0.0, &mut bw);
    let ms_reps = reps.min(7);
    let multistart_us = median_us_once(ms_reps, || {
        let mut total = 0usize;
        for s in &starts {
            let mut p = s.clone();
            total += descend_stage(&obj, &mut p, sharp, MS_ITERS, 0.0, &mut bw);
            std::hint::black_box(p[0]);
        }
        std::hint::black_box(total);
    });
    let mut points = starts.clone();
    let _ = descend_multi_stage(&obj, &mut points, sharp, MS_ITERS, 0.0, &mut bw);
    let multistart_batched_us = median_us_once(ms_reps, || {
        let mut points = starts.clone();
        let iters = descend_multi_stage(&obj, &mut points, sharp, MS_ITERS, 0.0, &mut bw);
        std::hint::black_box((iters, points[0][0]));
    });

    // Allocations per descent iteration, after a warm-up stage has sized
    // every buffer. Reads 0 unless the counting allocator is the global
    // allocator (it is in the `paradigm` binary).
    let mut xd = vec![ub / 2.0; n];
    let _ = descend_stage(&obj, &mut xd, sharp, 10, 0.0, &mut bw);
    let mut xd = vec![ub / 3.0; n];
    let before = allocation_count();
    let measured_iters = descend_stage(&obj, &mut xd, sharp, 50, 0.0, &mut bw);
    let delta = allocation_count() - before;
    let allocs_per_iter =
        if measured_iters > 0 { delta as f64 / measured_iters as f64 } else { 0.0 };

    // The solve runs out of pooled workspaces, all idle again once it
    // returns: the pool's counter delta is this solve's.
    let swept = pool_sweep_counts();
    let t0 = Instant::now();
    let res = try_allocate(g, Machine::cm5(64), &SolverConfig::fast()).expect("bench solve");
    let allocate_us = t0.elapsed().as_secs_f64() * 1e6;
    let swept = pool_sweep_counts().since(swept);
    let per_iter = |count: u64| count as f64 / res.iterations.max(1) as f64;

    CaseReport {
        name: name.to_string(),
        compute_nodes: g.compute_node_count(),
        edges: g.edge_count(),
        eval_us,
        record_us,
        eval_grad_us,
        grad_forward_us,
        grad_speedup: if eval_grad_us > 0.0 { grad_forward_us / eval_grad_us } else { 0.0 },
        eval_grad_batched_us,
        batch_grad_speedup: if eval_grad_batched_us > 0.0 {
            eval_grad_us / eval_grad_batched_us
        } else {
            0.0
        },
        multistart_us,
        multistart_batched_us,
        multistart_speedup: if multistart_batched_us > 0.0 {
            multistart_us / multistart_batched_us
        } else {
            0.0
        },
        allocate_us,
        allocate_iters: res.iterations,
        forward_sweeps_per_iter: per_iter(swept.forward_sweeps),
        probes_per_iter: per_iter(swept.probes),
        allocs_per_iter,
        variables: n,
        tape_ops: stats.slots,
        tape_levels: stats.levels,
        tape_exp_vectors: stats.distinct_exponent_vectors,
        exact_exps_per_sweep,
        record_ns_per_op: 1e3 * record_us / stats.slots.max(1) as f64,
        sweeps,
    }
}

/// The `exp` gate: an exact sweep may call `exp` once per distinct
/// exponent vector of the program plus once per variable (the cache the
/// fused `A_p` reads), no more. `Ok` carries the pass line, `Err` the
/// failure line.
fn check_exps(cases: &[CaseReport]) -> Result<String, String> {
    for c in cases {
        let limit = (c.tape_exp_vectors + c.variables) as u64;
        if c.exact_exps_per_sweep > limit {
            return Err(format!(
                "exps: REGRESSION — an exact sweep of {} calls exp {} times for {} distinct \
                 exponent vectors + {} variables\n",
                c.name, c.exact_exps_per_sweep, c.tape_exp_vectors, c.variables
            ));
        }
    }
    Ok("exps: ok — no exact sweep calls exp more than once per distinct exponent vector and \
        variable\n"
        .to_string())
}

/// The sweep gate shared with `bench-admm`: every `(case,
/// forward_sweeps_per_iter, probes_per_iter)` must sweep no more than it
/// probes. `Ok` carries the pass line, `Err` the failure line.
pub(crate) fn check_sweeps<'a>(
    cases: impl IntoIterator<Item = (&'a str, f64, f64)>,
) -> Result<String, String> {
    for (name, sweeps, probes) in cases {
        if sweeps > probes + SWEEP_SLACK {
            return Err(format!(
                "sweeps: REGRESSION — {name} runs {sweeps:.3} forward sweeps per iteration for \
                 {probes:.3} probes: some loop sweeps a point twice\n"
            ));
        }
    }
    Ok(format!("sweeps: ok — no case sweeps more than it probes (+{SWEEP_SLACK})\n"))
}

/// Median wall time of `reps` runs of `f`, in microseconds. Each sample
/// loops `f` enough times that sub-microsecond work is still resolvable.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    const INNER: usize = 4;
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..INNER {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / INNER as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall time of `reps` single runs of `f`, in microseconds — for
/// workloads (whole multistart stages) long enough to time unlooped.
fn median_us_once(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Human-readable summary table.
fn render_table(quick: bool, reps: usize, cases: &[CaseReport]) -> String {
    let mut out = format!(
        "bench-solve ({}; medians over {reps} samples)\n",
        if quick { "quick" } else { "full" }
    );
    out.push_str(&format!(
        "{:<18} {:>6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>8} {:>10} {:>8} {:>12} {:>12} {:>8} {:>12} {:>7} {:>8} {:>8} {:>11}\n",
        "case",
        "nodes",
        "edges",
        "eval_us",
        "record_us",
        "grad_us",
        "fwd_us",
        "speedup",
        "bgrad_us",
        "bspeed",
        "multi_us",
        "bmulti_us",
        "mspeed",
        "allocate_us",
        "iters",
        "swp/iter",
        "prb/iter",
        "allocs/iter"
    ));
    for c in cases {
        out.push_str(&format!(
            "{:<18} {:>6} {:>6} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>7.1}x {:>10.2} {:>7.1}x {:>12.0} {:>12.0} {:>7.1}x {:>12.0} {:>7} {:>8.3} {:>8.3} {:>11.2}\n",
            c.name,
            c.compute_nodes,
            c.edges,
            c.eval_us,
            c.record_us,
            c.eval_grad_us,
            c.grad_forward_us,
            c.grad_speedup,
            c.eval_grad_batched_us,
            c.batch_grad_speedup,
            c.multistart_us,
            c.multistart_batched_us,
            c.multistart_speedup,
            c.allocate_us,
            c.allocate_iters,
            c.forward_sweeps_per_iter,
            c.probes_per_iter,
            c.allocs_per_iter
        ));
    }
    out
}

/// The per-sweep table: tape shape, then record / replay microseconds of
/// the scalar tape and (per lane) of the `batch_k`-wide lane tape.
fn render_sweep_table(batch_k: usize, cases: &[CaseReport]) -> String {
    let mut out = format!(
        "\nsweeps (us: scalar record/replay | per lane at K = {batch_k})\n{:<18} {:>6} {:>3} {:>6} {:>6} {:>7}",
        "case", "ops", "lv", "expvec", "exps", "ns/op"
    );
    for (label, _) in SWEEP_SHARPS {
        out.push_str(&format!(" {:>27}", format!("s={label}")));
    }
    out.push('\n');
    for c in cases {
        out.push_str(&format!(
            "{:<18} {:>6} {:>3} {:>6} {:>6} {:>7.2}",
            c.name,
            c.tape_ops,
            c.tape_levels,
            c.tape_exp_vectors,
            c.exact_exps_per_sweep,
            c.record_ns_per_op
        ));
        for s in &c.sweeps {
            let lanes = match s.batched {
                Some((rec, rep)) => format!("{rec:.1}/{rep:.1}"),
                None => "-".to_string(),
            };
            let cell = format!("{:.1}/{:.1} | {lanes}", s.record_us, s.replay_us);
            out.push_str(&format!(" {cell:>27}"));
        }
        out.push('\n');
    }
    out
}

/// The `BENCH_solver.json` document: version 4 (v3 plus the tape shape,
/// `exact_exps_per_sweep`, `record_ns_per_op` and the per-sweep table),
/// one object per case, one case per line so diffs against the checked-in
/// baseline stay readable. The `--baseline` gate reads only
/// `eval_grad_us`, so older baselines keep working.
fn render_json(quick: bool, batch_k: usize, cases: &[CaseReport]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"version\": 4,\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"batch_k\": {batch_k},\n"));
    out.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let case = Json::Obj(vec![
            ("name".into(), Json::str(&c.name)),
            ("compute_nodes".into(), Json::num(c.compute_nodes as f64)),
            ("edges".into(), Json::num(c.edges as f64)),
            ("eval_us".into(), Json::num(round3(c.eval_us))),
            ("record_us".into(), Json::num(round3(c.record_us))),
            ("eval_grad_us".into(), Json::num(round3(c.eval_grad_us))),
            ("grad_forward_us".into(), Json::num(round3(c.grad_forward_us))),
            ("grad_speedup".into(), Json::num(round3(c.grad_speedup))),
            ("eval_grad_batched_us".into(), Json::num(round3(c.eval_grad_batched_us))),
            ("batch_grad_speedup".into(), Json::num(round3(c.batch_grad_speedup))),
            ("multistart_us".into(), Json::num(round3(c.multistart_us))),
            ("multistart_batched_us".into(), Json::num(round3(c.multistart_batched_us))),
            ("multistart_speedup".into(), Json::num(round3(c.multistart_speedup))),
            ("allocate_us".into(), Json::num(round3(c.allocate_us))),
            ("allocate_iters".into(), Json::num(c.allocate_iters as f64)),
            ("forward_sweeps_per_iter".into(), Json::num(round3(c.forward_sweeps_per_iter))),
            ("probes_per_iter".into(), Json::num(round3(c.probes_per_iter))),
            ("allocs_per_iter".into(), Json::num(round3(c.allocs_per_iter))),
            ("variables".into(), Json::num(c.variables as f64)),
            ("tape_ops".into(), Json::num(c.tape_ops as f64)),
            ("tape_levels".into(), Json::num(c.tape_levels as f64)),
            ("tape_exp_vectors".into(), Json::num(c.tape_exp_vectors as f64)),
            ("exact_exps_per_sweep".into(), Json::num(c.exact_exps_per_sweep as f64)),
            ("record_ns_per_op".into(), Json::num(round3(c.record_ns_per_op))),
            (
                "sweeps".into(),
                Json::Obj(
                    c.sweeps
                        .iter()
                        .map(|s| {
                            let mut row = vec![
                                ("record_us".to_string(), Json::num(round3(s.record_us))),
                                ("replay_us".to_string(), Json::num(round3(s.replay_us))),
                            ];
                            if let Some((rec, rep)) = s.batched {
                                row.push(("record_batched_us".into(), Json::num(round3(rec))));
                                row.push(("replay_batched_us".into(), Json::num(round3(rep))));
                            }
                            (s.sharp.to_string(), Json::Obj(row))
                        })
                        .collect(),
                ),
            ),
        ]);
        out.push_str("    ");
        out.push_str(&case.render());
        out.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Round to 3 decimals so the JSON stays diff-stable in size.
fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

/// Compare against a checked-in baseline. `Ok` carries the pass line,
/// `Err` the failure line (which flips the exit code to 1).
fn check_baseline(path: &str, cases: &[CaseReport]) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("baseline: FAILED to read {path}: {e}\n"))?;
    let doc = parse_json(&text).map_err(|e| format!("baseline: FAILED to parse {path}: {e}\n"))?;
    let base = doc
        .get("cases")
        .and_then(Json::as_arr)
        .and_then(|cs| cs.iter().find(|c| c.get("name").and_then(Json::as_str) == Some(GATE_CASE)))
        .and_then(|c| c.get("eval_grad_us"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("baseline: FAILED — no `{GATE_CASE}` eval_grad_us in {path}\n"))?;
    let cur = cases
        .iter()
        .find(|c| c.name == GATE_CASE)
        .map(|c| c.eval_grad_us)
        .ok_or_else(|| format!("baseline: FAILED — current run has no `{GATE_CASE}` case\n"))?;
    let limit = base * REGRESSION_FACTOR;
    if cur > limit {
        Err(format!(
            "baseline: REGRESSION — {GATE_CASE} eval_grad {cur:.2} us > {REGRESSION_FACTOR}x baseline {base:.2} us\n"
        ))
    } else {
        Ok(format!(
            "baseline: ok — {GATE_CASE} eval_grad {cur:.2} us within {REGRESSION_FACTOR}x of baseline {base:.2} us\n"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_case() -> CaseReport {
        CaseReport {
            name: GATE_CASE.into(),
            compute_nodes: 4,
            edges: 5,
            eval_us: 1.0,
            record_us: 1.2,
            eval_grad_us: 2.0,
            grad_forward_us: 12.0,
            grad_speedup: 6.0,
            eval_grad_batched_us: 0.5,
            batch_grad_speedup: 4.0,
            multistart_us: 800.0,
            multistart_batched_us: 250.0,
            multistart_speedup: 3.2,
            allocate_us: 100.0,
            allocate_iters: 10,
            forward_sweeps_per_iter: 2.3,
            probes_per_iter: 2.3,
            allocs_per_iter: 0.0,
            variables: 6,
            tape_ops: 40,
            tape_levels: 3,
            tape_exp_vectors: 9,
            exact_exps_per_sweep: 15,
            record_ns_per_op: 30.0,
            sweeps: vec![
                SweepTimes { sharp: "exact", record_us: 1.0, replay_us: 0.5, batched: None },
                SweepTimes {
                    sharp: "8",
                    record_us: 1.2,
                    replay_us: 0.5,
                    batched: Some((0.6, 0.2)),
                },
            ],
        }
    }

    #[test]
    fn json_document_parses_and_round_trips_fields() {
        let json = render_json(true, 8, &[tiny_case()]);
        let doc = parse_json(&json).expect("valid JSON");
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("quick").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("batch_k").and_then(Json::as_u64), Some(8));
        let cases = doc.get("cases").and_then(Json::as_arr).expect("cases array");
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].get("name").and_then(Json::as_str), Some(GATE_CASE));
        assert_eq!(cases[0].get("eval_grad_us").and_then(Json::as_f64), Some(2.0));
        assert_eq!(cases[0].get("grad_speedup").and_then(Json::as_f64), Some(6.0));
        assert_eq!(cases[0].get("eval_grad_batched_us").and_then(Json::as_f64), Some(0.5));
        assert_eq!(cases[0].get("batch_grad_speedup").and_then(Json::as_f64), Some(4.0));
        assert_eq!(cases[0].get("multistart_speedup").and_then(Json::as_f64), Some(3.2));
        assert_eq!(cases[0].get("forward_sweeps_per_iter").and_then(Json::as_f64), Some(2.3));
        assert_eq!(cases[0].get("probes_per_iter").and_then(Json::as_f64), Some(2.3));
        assert_eq!(cases[0].get("tape_ops").and_then(Json::as_u64), Some(40));
        assert_eq!(cases[0].get("exact_exps_per_sweep").and_then(Json::as_u64), Some(15));
        let sweeps = cases[0].get("sweeps").expect("sweep table");
        let at =
            |s: &str, field: &str| sweeps.get(s).and_then(|r| r.get(field)).and_then(Json::as_f64);
        assert_eq!(at("exact", "record_us"), Some(1.0));
        assert_eq!(at("exact", "record_batched_us"), None, "the lane tape is smooth-only");
        assert_eq!(at("8", "replay_batched_us"), Some(0.2));
    }

    #[test]
    fn exp_gate_fails_a_sweep_that_calls_exp_per_monomial() {
        let ok = check_exps(&[tiny_case()]).expect("9 vectors + 6 variables = 15");
        assert!(ok.contains("exps: ok"), "{ok}");
        let mut undeduped = tiny_case();
        undeduped.exact_exps_per_sweep = 31;
        let err = check_exps(&[undeduped]).expect_err("one exp per monomial");
        assert!(err.contains("REGRESSION") && err.contains("31"), "{err}");
    }

    #[test]
    fn sweep_gate_fails_a_case_that_sweeps_more_than_it_probes() {
        let ok = check_sweeps([("a", 2.3, 2.3), ("b", 1.04, 1.0)]).expect("within slack");
        assert!(ok.contains("sweeps: ok"), "{ok}");
        // The shape of a loop that re-sweeps every accepted point: one
        // extra forward sweep per iteration.
        let err = check_sweeps([("a", 2.3, 2.3), ("b", 3.2, 2.2)]).expect_err("re-sweeps");
        assert!(err.contains("REGRESSION") && err.contains(" b "), "{err}");
    }

    #[test]
    fn baseline_gate_passes_within_3x_and_fails_beyond() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("paradigm-bench-baseline-{}.json", std::process::id()));
        std::fs::write(&path, render_json(true, 8, &[tiny_case()])).unwrap();
        let p = path.to_string_lossy().into_owned();

        // Current 2.0 vs baseline 2.0: within 3x.
        let ok = check_baseline(&p, &[tiny_case()]).expect("within limit");
        assert!(ok.contains("baseline: ok"), "{ok}");

        // Current 7.0 vs baseline 2.0: beyond 3x.
        let mut slow = tiny_case();
        slow.eval_grad_us = 7.0;
        let err = check_baseline(&p, &[slow]).expect_err("beyond limit");
        assert!(err.contains("REGRESSION"), "{err}");

        // Missing gate case in the current run.
        let mut other = tiny_case();
        other.name = "fig1-example".into();
        let err = check_baseline(&p, &[other]).expect_err("no gate case");
        assert!(err.contains("FAILED"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bench_case_on_fig1_produces_sane_numbers() {
        let g = paradigm_mdg::example_fig1_mdg();
        let c = bench_case("fig1", &g, 3, 4);
        assert_eq!(c.compute_nodes, 3);
        assert!(c.eval_us > 0.0 && c.record_us > 0.0);
        assert!(c.eval_grad_us > 0.0 && c.grad_forward_us > 0.0);
        assert!(c.grad_speedup > 0.0);
        assert!(c.eval_grad_batched_us > 0.0 && c.batch_grad_speedup > 0.0);
        assert!(c.multistart_us > 0.0 && c.multistart_batched_us > 0.0);
        assert!(c.multistart_speedup > 0.0);
        assert!(c.allocate_iters > 0);
        let rows: Vec<&str> = c.sweeps.iter().map(|s| s.sharp).collect();
        assert_eq!(rows, ["exact", "8", "64", "256"]);
        assert!(c.sweeps.iter().all(|s| s.record_us > 0.0 && s.replay_us > 0.0));
        assert!(c.sweeps[0].batched.is_none() && c.sweeps[1].batched.is_some());
        assert!(c.tape_ops > 0 && c.tape_levels > 0 && c.record_ns_per_op > 0.0);
        assert_eq!(c.exact_exps_per_sweep, (c.tape_exp_vectors + c.variables) as u64);
        // (Sweep counts are read off the process-wide workspace pool,
        // which sibling tests share: exact only in the single-threaded
        // CLI run, pinned by the crates' `sweep_counts` tests.)
        // In-process the counting allocator is not installed, so the
        // counter never moves.
        assert_eq!(c.allocs_per_iter, 0.0);
    }
}
