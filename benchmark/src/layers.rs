//! Per-layer metrics of a traced run, aggregated from its spans.
//!
//! After the measured passes, every distinct instance is put through a
//! set of *layer probes*: single calls into one layer's public functions
//! (`from_text`, `structural_hash`, `MdgObjective::try_new`, one
//! gradient, `audit_solve_output`, ...) recorded as spans outside any
//! op. Together with the spans of the traced ops they give one figure
//! per layer; prefix = crate name.

use crate::measure::{micros_by_instance, Run};
use crate::ops::admm_setup;
use crate::span::{self_times_ns, Span};
use crate::stats::{geomean, mean, median_or_zero};
use crate::workload::Entry;
use paradigm_admm::partition_mdg;
use paradigm_analyze::analyze_resources;
use paradigm_core::{solve_fingerprint, SolveOutput};
use paradigm_cost::{Allocation, MdgWeights};
use paradigm_front::tokenize;
use paradigm_mdg::{from_text, structural_hash, to_text};
use paradigm_serve::audit::audit_solve_output;
use paradigm_serve::ShardedCache;
use paradigm_solver::expr::Sharpness;
use paradigm_solver::objective::ObjectiveParts;
use paradigm_solver::solve::optimality_residual;
use paradigm_solver::{
    try_allocate, BatchWorkspace, FallbackTier, MdgObjective, SolverConfig, SolverWorkspace,
};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Every per-layer metric: name, unit, direction. A traced run prints
/// all of them for every workload; a layer the workload never enters
/// reads 0.
pub const PER_LAYER: [(&str, &str, &str); 69] = [
    ("mdg.from_text_us", "us", "lower"),
    ("mdg.to_text_us", "us", "lower"),
    ("mdg.structural_hash_us", "us", "lower"),
    ("mdg.text_bytes", "bytes", "lower"),
    ("mdg.nodes", "count", "lower"),
    ("mdg.edges", "count", "lower"),
    ("front.compile_source_us", "us", "lower"),
    ("front.tokens_per_s", "1/s", "higher"),
    ("cost.weights_us", "us", "lower"),
    ("cost.phi_us", "us", "lower"),
    ("solver.objective_build_us", "us", "lower"),
    ("solver.eval_us", "us", "lower"),
    ("solver.eval_grad_us", "us", "lower"),
    ("solver.eval_grad_batch8_us", "us", "lower"),
    ("solver.allocate_us", "us", "lower"),
    ("solver.iters", "count", "lower"),
    ("solver.starts", "count", "lower"),
    ("solver.us_per_iter", "us", "lower"),
    ("solver.grad_share", "ratio", "higher"),
    ("solver.optimality_residual", "ratio", "lower"),
    ("solver.tier_primary_share", "ratio", "higher"),
    ("solver.op_share", "ratio", "higher"),
    ("admm.partition_us", "us", "lower"),
    ("admm.blocks", "count", "lower"),
    ("admm.cut_edges", "count", "lower"),
    ("admm.outer_rounds", "count", "lower"),
    ("admm.inner_iters", "count", "lower"),
    ("admm.polish_iters", "count", "lower"),
    ("admm.block_solves", "count", "lower"),
    ("admm.xupdate_us", "us", "lower"),
    ("admm.coordinator_us", "us", "lower"),
    ("admm.xupdate_share", "ratio", "higher"),
    ("admm.us_per_inner_iter", "us", "lower"),
    ("admm.primal_residual", "ratio", "lower"),
    ("admm.dual_residual", "ratio", "lower"),
    ("admm.phi_vs_dense", "ratio", "lower"),
    ("admm.op_share", "ratio", "higher"),
    ("sched.psa_us", "us", "lower"),
    ("sched.pb", "count", "lower"),
    ("sched.utilization", "ratio", "higher"),
    ("sched.deviation_percent", "%", "lower"),
    ("sim.lower_us", "us", "lower"),
    ("sim.simulate_us", "us", "lower"),
    ("sim.makespan_over_t_psa", "ratio", "lower"),
    ("analyze.audit_us", "us", "lower"),
    ("analyze.resources_us", "us", "lower"),
    ("core.pipeline_us", "us", "lower"),
    ("core.fingerprint_us", "us", "lower"),
    ("core.stage_sum_us", "us", "lower"),
    ("core.unaccounted_share", "ratio", "lower"),
    ("serve.parse_request_us", "us", "lower"),
    ("serve.cache_get_us", "us", "lower"),
    ("serve.submit_hit_us", "us", "lower"),
    ("serve.queue_handoff_us", "us", "lower"),
    ("serve.encode_us", "us", "lower"),
    ("serve.handle_line_hit_us", "us", "lower"),
    ("serve.solves", "count", "lower"),
    ("serve.cache_hits", "count", "higher"),
    ("serve.dedup_waits", "count", "lower"),
    ("serve.hit_ratio", "ratio", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.errors", "count", "lower"),
    ("serve.cache_misses", "count", "lower"),
    ("serve.degraded", "count", "lower"),
    ("serve.evictions", "count", "lower"),
    ("serve.avg_solve_us", "us", "lower"),
    ("serve.ws_reuse_ratio", "ratio", "higher"),
    ("trace_overhead_share", "ratio", "lower"),
    ("host.slowdown", "ratio", "lower"),
];

/// ADMM may land this far above the dense solver's Φ on the same graph.
/// (Two blocks on graphs this small: 1 seeded graph in 60 lands 1.1 %
/// above, the gallery graphs of the workload at most 0.5 %.)
const PHI_VS_DENSE_LIMIT: f64 = 1.02;

/// The sharpness the solver's own benchmarks evaluate kernels at.
const PROBE_SHARPNESS: Sharpness = Sharpness::Smooth(64.0);

/// What the probes learn about one instance beyond their spans.
#[derive(Default, Clone)]
struct Probed {
    text_bytes: f64,
    eval_grad_us: f64,
    residual: f64,
    phi_vs_dense: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The log-space point of an output's continuous allocation, indexed by
/// node id (structural nodes sit at one processor).
fn log_point(g: &paradigm_mdg::Mdg, out: &SolveOutput) -> Vec<f64> {
    let mut entries = out.alloc.iter();
    g.nodes()
        .map(|(_, n)| {
            if n.is_structural() {
                0.0
            } else {
                entries.next().map_or(0.0, |e| e.continuous.max(1.0).ln())
            }
        })
        .collect()
}

/// The rounded allocation an output's schedule realises.
fn rounded_allocation(g: &paradigm_mdg::Mdg, out: &SolveOutput) -> Allocation {
    let mut alloc = Allocation::uniform(g, 1.0);
    for ((id, _), e) in g.nodes().filter(|(_, n)| !n.is_structural()).zip(&out.alloc) {
        alloc.set(id, f64::from(e.procs.max(1)));
    }
    alloc
}

/// Probe every layer once (kernels a few times) for instance `i`.
fn probe(run: &mut Run<'_>, i: usize, cache: &ShardedCache<SolveOutput>) -> Probed {
    let inst = run.inputs.instances[i].clone();
    let Some(out) = run.outputs[i].clone() else { return Probed::default() };
    let g = &*inst.graph;
    let machine = inst.spec.machine;
    let rec = &mut run.recorder;
    rec.set_op(None);
    let mut probed = Probed::default();

    let text = rec.span("mdg.to_text", |_| to_text(g));
    probed.text_bytes = text.len() as f64;
    black_box(rec.span("mdg.from_text", |_| from_text(&text)).expect("rendered text parses"));
    black_box(rec.span("mdg.structural_hash", |_| structural_hash(g)));
    let key = rec.span("core.fingerprint", |_| solve_fingerprint(g, &inst.spec));
    if let Some(src) = inst.source {
        black_box(rec.span("front.tokenize", |_| tokenize(src)).expect("source lexes").len());
    }

    let rounded = rounded_allocation(g, &out);
    let weights = rec.span("cost.weights", |_| MdgWeights::compute(g, &machine, &rounded));
    black_box(rec.span("cost.phi", |_| weights.phi(g)).phi);

    let obj = rec
        .span("solver.objective_build", |_| MdgObjective::try_new(g, machine))
        .expect("a solved graph has a valid objective");
    let x = log_point(g, &out);
    let mut ws = SolverWorkspace::new();
    let mut grad = Vec::new();
    // Grow the buffers first, so the spans see the steady state.
    obj.eval_grad_with(&x, PROBE_SHARPNESS, &mut ws.scratch, &mut grad);
    let mut grad_us = Vec::new();
    for _ in 0..16 {
        black_box(rec.span("solver.eval", |_| obj.eval_with(&x, PROBE_SHARPNESS, &mut ws.scratch)));
        let t0 = std::time::Instant::now();
        black_box(rec.span("solver.eval_grad", |_| {
            obj.eval_grad_with(&x, PROBE_SHARPNESS, &mut ws.scratch, &mut grad)
        }));
        grad_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    probed.eval_grad_us = median_or_zero(&grad_us);
    const K: usize = 8;
    let n = x.len();
    let ub = obj.x_upper();
    let xs: Vec<f64> = (0..n * K).map(|jl| (x[jl / K] + 0.015 * (jl % K) as f64).min(ub)).collect();
    let mut bw = BatchWorkspace::new();
    let mut grads = Vec::new();
    let mut parts = vec![ObjectiveParts { phi: 0.0, a_p: 0.0, c_p: 0.0 }; K];
    obj.eval_grad_batch_with(&xs, K, PROBE_SHARPNESS, &mut bw.scratch, &mut grads, &mut parts);
    for _ in 0..8 {
        rec.span("solver.eval_grad_batch8", |_| {
            obj.eval_grad_batch_with(
                &xs,
                K,
                PROBE_SHARPNESS,
                &mut bw.scratch,
                &mut grads,
                &mut parts,
            );
        });
        black_box(parts[0].phi);
    }
    probed.residual =
        rec.span("solver.optimality_residual", |_| optimality_residual(&obj, &x, PROBE_SHARPNESS));

    black_box(rec.span("analyze.audit", |_| audit_solve_output(g, &inst.spec, &out)).is_clean());
    black_box(rec.span("analyze.resources", |_| analyze_resources(g, &machine)).procs);

    if inst.spec.admm {
        let (cfg, _) = admm_setup(g, &inst);
        black_box(rec.span("admm.partition", |_| partition_mdg(g, &cfg.partition)).blocks);
        let dense = rec
            .span("check.dense_reference", |_| try_allocate(g, machine, &SolverConfig::fast()))
            .expect("the dense solver handles every ADMM instance");
        probed.phi_vs_dense = out.phi / dense.phi.phi;
    }
    if matches!(run.workload.entry, Entry::Serve { .. }) {
        let (stored, _) = cache.get_or_compute(key, || (*out).clone());
        stored.expect("inserting cannot fail");
        for _ in 0..4 {
            black_box(rec.span("serve.cache_get", |_| cache.get(key)).is_some());
        }
    }
    probed
}

/// Probe the layers, aggregate the spans, return every [`PER_LAYER`]
/// metric in order. Every `_us` here is wall clock; `host_slowdown` (see
/// [`crate::calibrate`]) is passed through as a metric so a reader can
/// put them next to the end-to-end timings.
pub fn per_layer(run: &mut Run<'_>, host_slowdown: f64) -> Vec<(&'static str, f64, &'static str)> {
    let n = run.inputs.instances.len();
    let cache = ShardedCache::new(1024);
    let probed: Vec<Probed> = (0..n).map(|i| probe(run, i, &cache)).collect();
    for (i, p) in probed.iter().enumerate() {
        if p.phi_vs_dense > PHI_VS_DENSE_LIMIT {
            run.fail(
                i,
                format!(
                    "ADMM phi is {:.4}x the dense solver's (limit {PHI_VS_DENSE_LIMIT})",
                    p.phi_vs_dense
                ),
            );
        }
    }
    let run = &*run;

    let spans = run.recorder.spans();
    let selfs = self_times_ns(spans);
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.micros());
    }
    let all = |name: &str| by_name.get(name).map_or(&[][..], Vec::as_slice);
    let med = |name: &str| median_or_zero(all(name));
    let total = |name: &str| all(name).iter().sum::<f64>();
    let instance_of = |s: &Span| {
        let ops = &run.inputs.ops;
        s.op.map(|op| ops[(op % ops.len() as u64) as usize])
    };

    // Per traced op: what the direct children of its root span add up to.
    let mut op_total_us = 0.0;
    let mut op_spans_by_instance = vec![Vec::new(); n];
    let mut stage_sums: BTreeMap<usize, f64> = BTreeMap::new();
    let mut xupdates: BTreeMap<usize, f64> = BTreeMap::new();
    let mut block_calls: BTreeMap<usize, usize> = BTreeMap::new();
    let mut coordinator_us = Vec::new();
    let mut solver_self_us = 0.0;
    let mut iter_weighted_grad_us = 0.0;
    let mut allocate_iters = 0.0;
    let mut admm_inner_iters = 0.0;
    for (idx, s) in spans.iter().enumerate() {
        match s.name {
            "op.compile" | "op.serve" => {
                op_total_us += s.micros();
                stage_sums.entry(idx).or_insert(0.0);
                if let Some(i) = instance_of(s) {
                    op_spans_by_instance[i].push(s.micros());
                }
            }
            "admm.solve_blocks" => {
                let solve = s.parent.expect("recorded inside admm.solve");
                *xupdates.entry(solve).or_insert(0.0) += s.micros();
                if let Some(i) = instance_of(s) {
                    *block_calls.entry(i).or_insert(0) += 1;
                }
            }
            _ => {}
        }
        if let Some(p) = s.parent {
            if matches!(spans[p].name, "op.compile" | "op.serve") {
                *stage_sums.entry(p).or_insert(0.0) += s.micros();
            }
        }
        let Some(i) = instance_of(s) else { continue };
        match s.name {
            "solver.allocate" => {
                solver_self_us += selfs[idx] as f64 / 1e3;
                let iters = run.solves[i].as_ref().map_or(0.0, |r| r.iterations as f64);
                allocate_iters += iters;
                iter_weighted_grad_us += iters * probed[i].eval_grad_us;
            }
            "admm.solve" => {
                coordinator_us.push(selfs[idx] as f64 / 1e3);
                let stats = run.outputs[i].as_ref().and_then(|o| o.admm.as_ref());
                admm_inner_iters += stats.map_or(0.0, |a| a.inner_iters as f64);
            }
            _ => {}
        }
    }
    // A shared box runs one pass several percent faster than the next, so
    // the shares below compare, instance by instance, the median
    // black-box op with the median traced op (at nominal host speed, the
    // only use of it here), and the median op span with the median sum of
    // its stages, and add those up.
    let typical_us = |per_instance: Vec<Vec<f64>>| -> f64 {
        per_instance.iter().map(|v| median_or_zero(v)).sum()
    };
    let mut stages_by_instance = vec![Vec::new(); n];
    for (&root, &sum) in &stage_sums {
        if let Some(i) = instance_of(&spans[root]) {
            stages_by_instance[i].push(sum);
        }
    }
    let plain_typical = typical_us(micros_by_instance(&run.plain, n, |s| s.nominal_nanos));
    let traced_typical = typical_us(micros_by_instance(&run.traced, n, |s| s.nominal_nanos));
    let pipeline_us = mean(
        &micros_by_instance(&run.plain, n, |s| s.wall_nanos)
            .iter()
            .map(|v| median_or_zero(v))
            .collect::<Vec<_>>(),
    );
    let stages_typical = typical_us(stages_by_instance);
    let op_spans_typical = typical_us(op_spans_by_instance);
    let xupdate_values: Vec<f64> = xupdates.values().copied().collect();
    let traced_passes = (run.traced.len() / run.inputs.ops.len()).max(1);

    let plain_us: Vec<f64> = run.plain.iter().map(|s| s.wall_nanos as f64 / 1e3).collect();
    let outputs: Vec<&SolveOutput> = run.outputs.iter().flatten().map(|o| &**o).collect();
    let over_outputs =
        |f: fn(&SolveOutput) -> f64| outputs.iter().map(|o| f(o)).collect::<Vec<_>>();
    let solves: Vec<&paradigm_solver::AllocationResult> = run.solves.iter().flatten().collect();
    let dense: Vec<_> = solves.iter().filter(|s| s.tier != FallbackTier::Admm).collect();
    let admm: Vec<_> = outputs.iter().filter_map(|o| o.admm.as_ref()).collect();
    let admm_sum =
        |f: fn(&paradigm_core::AdmmStats) -> usize| admm.iter().map(|a| f(a) as f64).sum::<f64>();
    let admm_max =
        |f: fn(&paradigm_core::AdmmStats) -> f64| admm.iter().map(|a| f(a)).fold(0.0, f64::max);
    let sims: Vec<f64> =
        outputs.iter().filter_map(|o| o.sim_makespan.map(|m| m / o.t_psa)).collect();
    let tokens = run
        .inputs
        .instances
        .iter()
        .filter_map(|i| i.source)
        .map(|src| tokenize(src).map_or(0, |t| t.len()) as f64)
        .sum::<f64>();

    let compile = !matches!(run.workload.entry, Entry::Serve { .. });
    let warm = run.workload.entry == Entry::Serve { warm: true };
    let c = &run.counters;
    let submit_hit_us = if warm { med("serve.submit") } else { 0.0 };

    let values: BTreeMap<&str, f64> = [
        ("mdg.from_text_us", med("mdg.from_text")),
        ("mdg.to_text_us", med("mdg.to_text")),
        ("mdg.structural_hash_us", med("mdg.structural_hash")),
        ("mdg.text_bytes", mean(&probed.iter().map(|p| p.text_bytes).collect::<Vec<_>>())),
        ("mdg.nodes", mean(&over_outputs(|o| o.compute_nodes as f64))),
        (
            "mdg.edges",
            mean(
                &run.inputs
                    .instances
                    .iter()
                    .map(|i| i.graph.edge_count() as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("front.compile_source_us", med("front.compile_source")),
        ("front.tokens_per_s", ratio(tokens, med("front.compile_source") / 1e6)),
        ("cost.weights_us", med("cost.weights")),
        ("cost.phi_us", med("cost.phi")),
        ("solver.objective_build_us", med("solver.objective_build")),
        ("solver.eval_us", med("solver.eval")),
        ("solver.eval_grad_us", med("solver.eval_grad")),
        ("solver.eval_grad_batch8_us", med("solver.eval_grad_batch8") / 8.0),
        ("solver.allocate_us", med("solver.allocate")),
        ("solver.iters", dense.iter().map(|s| s.iterations as f64).sum()),
        ("solver.starts", dense.iter().map(|s| s.starts as f64).sum()),
        ("solver.us_per_iter", ratio(total("solver.allocate"), allocate_iters)),
        ("solver.grad_share", ratio(iter_weighted_grad_us, total("solver.allocate"))),
        (
            "solver.optimality_residual",
            median_or_zero(&probed.iter().map(|p| p.residual).collect::<Vec<_>>()),
        ),
        (
            "solver.tier_primary_share",
            ratio(
                outputs.iter().filter(|o| o.degraded == FallbackTier::Primary).count() as f64,
                outputs.len() as f64,
            ),
        ),
        ("solver.op_share", ratio(solver_self_us, op_total_us)),
        ("admm.partition_us", med("admm.partition")),
        ("admm.blocks", admm_sum(|a| a.blocks)),
        ("admm.cut_edges", admm_sum(|a| a.cut_edges)),
        ("admm.outer_rounds", admm_sum(|a| a.outer_iters)),
        ("admm.inner_iters", admm_sum(|a| a.inner_iters)),
        ("admm.polish_iters", admm_sum(|a| a.polish_iters)),
        (
            "admm.block_solves",
            block_calls
                .iter()
                .map(|(&i, &calls)| {
                    let stats = run.outputs[i].as_ref().and_then(|o| o.admm.as_ref());
                    (calls / traced_passes * stats.map_or(0, |a| a.blocks)) as f64
                })
                .sum(),
        ),
        ("admm.xupdate_us", median_or_zero(&xupdate_values)),
        ("admm.coordinator_us", median_or_zero(&coordinator_us)),
        ("admm.xupdate_share", ratio(total("admm.solve_blocks"), total("admm.solve"))),
        ("admm.us_per_inner_iter", ratio(total("admm.solve"), admm_inner_iters)),
        ("admm.primal_residual", admm_max(|a| a.primal_residual)),
        ("admm.dual_residual", admm_max(|a| a.dual_residual)),
        ("admm.phi_vs_dense", probed.iter().map(|p| p.phi_vs_dense).fold(0.0, f64::max)),
        ("admm.op_share", ratio(total("admm.solve"), op_total_us)),
        ("sched.psa_us", med("sched.psa")),
        ("sched.pb", mean(&over_outputs(|o| f64::from(o.pb)))),
        ("sched.utilization", mean(&over_outputs(|o| o.utilization))),
        ("sched.deviation_percent", mean(&over_outputs(|o| o.deviation_percent))),
        ("sim.lower_us", med("sim.lower")),
        ("sim.simulate_us", med("sim.simulate")),
        ("sim.makespan_over_t_psa", if sims.is_empty() { 0.0 } else { geomean(&sims) }),
        ("analyze.audit_us", med("analyze.audit")),
        ("analyze.resources_us", med("analyze.resources")),
        ("core.pipeline_us", if compile { pipeline_us } else { 0.0 }),
        ("core.fingerprint_us", med("core.fingerprint")),
        ("core.stage_sum_us", if compile { stages_typical / n as f64 } else { 0.0 }),
        (
            "core.unaccounted_share",
            if compile { 1.0 - ratio(stages_typical, op_spans_typical) } else { 0.0 },
        ),
        ("serve.parse_request_us", med("serve.parse_request")),
        ("serve.cache_get_us", med("serve.cache_get")),
        ("serve.submit_hit_us", submit_hit_us),
        (
            "serve.queue_handoff_us",
            if warm {
                submit_hit_us - med("core.fingerprint") - med("serve.cache_get")
            } else {
                0.0
            },
        ),
        ("serve.encode_us", med("serve.encode")),
        ("serve.handle_line_hit_us", if warm { median_or_zero(&plain_us) } else { 0.0 }),
        ("serve.solves", c.solves as f64),
        ("serve.cache_hits", c.cache_hits as f64),
        ("serve.dedup_waits", c.dedup_waits as f64),
        ("serve.hit_ratio", ratio(c.cache_hits as f64, c.requests as f64)),
        ("serve.shed", c.shed as f64),
        ("serve.errors", c.errors as f64),
        ("serve.cache_misses", c.cache_misses as f64),
        ("serve.degraded", c.degraded as f64),
        ("serve.evictions", c.evictions as f64),
        ("serve.avg_solve_us", c.avg_solve_us as f64),
        ("serve.ws_reuse_ratio", ratio(c.ws_reuses as f64, c.ws_acquires as f64)),
        ("trace_overhead_share", ratio(traced_typical, plain_typical) - 1.0),
        ("host.slowdown", host_slowdown),
    ]
    .into_iter()
    .collect();

    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = *values.get(name).unwrap_or_else(|| panic!("`{name}` has no value"));
            // (An empty float sum is -0.0.)
            (name, value + 0.0, unit)
        })
        .collect()
}
