//! One measured run of one workload: set-ups spread over the run, passes
//! over the op list until the time budget is spent, output checks,
//! metrics.
//!
//! Untraced runs time every op as a black box and yield the end-to-end
//! metrics. Traced runs alternate black-box passes with passes whose ops
//! are taken apart into spans (see [`crate::ops`]); they yield the
//! per-layer metrics and never an end-to-end one.

use crate::calibrate::{slowdown, Calibrator};
use crate::check::{check_output, check_repeat, check_response};
use crate::layers;
use crate::ops::{compile_op, serve_op, traced_compile_op, traced_serve_op};
use crate::span::{Recorder, Span};
use crate::stats::{geomean, median, median_or_zero, percentile_nearest_rank};
use crate::workload::{build, Entry, Inputs, Workload};
use paradigm_core::{gallery_graph, try_solve_pipeline, SolveOutput, SolveSpec};
use paradigm_cost::Machine;
use paradigm_serve::{MetricsSnapshot, ServeConfig, Service};
use paradigm_solver::AllocationResult;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of a run that goes to set-ups: one is made before a round
/// whenever set-ups have had less than this share of the run so far, so
/// they are spread over the run (a slow phase of a shared box cannot
/// cover all of them) — one every round where they are cheap, five in
/// 20 s on `serve-hot`. `setup_s` is their median.
const SETUP_SHARE: f64 = 0.2;

/// Calibration units run right before and right after a set-up (a
/// warm-up pass adds the units it ran between its requests).
const SETUP_UNITS: u32 = 3;

/// The end-to-end metrics: name, unit, direction. The issue's eighth,
/// the share of failed ops, is 0 on a healthy run, and the benchmark
/// contract says of end-to-end metrics "Choose metrics that are never 0",
/// so failures travel in the result's `attempted` / `failed` fields.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("setup_s", "s", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("phi_geomean_s", "s", "lower"),
    ("t_psa_geomean_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// The first four of [`END_TO_END`] are timings: reported at nominal host
/// speed, with the wall-clock reading printed beside them.
pub const TIMINGS: usize = 4;

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into `Inputs::instances`.
    pub instance: usize,
    /// Latency of the op as the clock read it.
    pub wall_nanos: u64,
    /// The same at nominal host speed (set once the pass is over).
    pub nominal_nanos: u64,
}

/// Op latencies in µs, grouped by instance (`n` instances); `nanos`
/// picks the wall-clock or the nominal reading.
pub fn micros_by_instance(
    samples: &[Sample],
    n: usize,
    nanos: fn(&Sample) -> u64,
) -> Vec<Vec<f64>> {
    let mut per = vec![Vec::new(); n];
    for s in samples {
        per[s.instance].push(nanos(s) as f64 / 1e3);
    }
    per
}

/// The service every serve workload runs against.
fn serve_config() -> ServeConfig {
    ServeConfig { workers: 2, ..ServeConfig::default() }
}

/// A workload made ready to measure.
struct SetUp {
    inputs: Inputs,
    service: Option<Service>,
    /// Seconds the set-up took, wall clock.
    wall_secs: f64,
    /// The host's slowdown while it ran.
    slow: f64,
}

/// Generate the inputs, start the service, and let lazy initialisation
/// and caches settle: the warmed serve workload requests every key once
/// (that fills the cache it is about), the others run one small solve.
fn set_up(w: &Workload, seed: u64) -> SetUp {
    let mut cal = Calibrator::new();
    (0..SETUP_UNITS).for_each(|_| cal.unit());
    let started = Instant::now();
    // Units the warm-up pass ran between its requests, and their time.
    let mut inside = (0, 0);
    let inputs = build(w, seed);
    let service = matches!(w.entry, Entry::Serve { .. }).then(|| Service::start(serve_config()));
    match (&service, w.entry) {
        (Some(service), Entry::Serve { warm: true }) => {
            let once: Vec<usize> = (0..inputs.instances.len()).collect();
            let warm_up = serve_pass(service, &inputs, &once, w.clients, 0, None, false);
            assert!(warm_up.errors.is_empty(), "warm-up failed: {:?}", warm_up.errors);
            inside = warm_up.calibration;
        }
        _ => {
            let fig1 = gallery_graph("fig1").expect("fig1 is a gallery graph");
            try_solve_pipeline(&fig1, &SolveSpec::new(Machine::cm5(4))).expect("fig1 solves");
        }
    }
    // The clients calibrate side by side, as in `serve_pass`.
    let took = started.elapsed() - Duration::from_nanos(inside.1 / w.clients as u64);
    (0..SETUP_UNITS).for_each(|_| cal.unit());
    let (units, nanos) = cal.totals();
    let slow = slowdown(units + inside.0, nanos + inside.1);
    SetUp { inputs, service, wall_secs: took.as_secs_f64(), slow }
}

/// What one pass over the op list produced.
struct Pass {
    samples: Vec<Sample>,
    /// Wall time of the pass less the clients' calibration time.
    wall: Duration,
    /// Calibration units the clients ran between ops, and their time.
    calibration: (u64, u64),
    /// Ops that returned an error instead of a result.
    errors: Vec<String>,
    /// Compile entries: the output of each instance.
    outputs: Vec<Option<SolveOutput>>,
    /// Traced compile entries: the raw allocation result of each instance.
    solves: Vec<Option<AllocationResult>>,
    /// Serve entries: the first response line seen for each instance.
    responses: Vec<Option<String>>,
    /// Traced passes: what the ops recorded.
    recorder: Option<Recorder>,
}

fn compile_pass(inputs: &Inputs, first_op: u64, epoch: Option<Instant>) -> Pass {
    let n = inputs.instances.len();
    let mut pass = Pass {
        samples: Vec::with_capacity(inputs.ops.len()),
        wall: Duration::ZERO,
        calibration: (0, 0),
        errors: Vec::new(),
        outputs: vec![None; n],
        solves: (0..n).map(|_| None).collect(),
        responses: Vec::new(),
        recorder: epoch.map(Recorder::new),
    };
    let mut cal = Calibrator::new();
    let mut busy = 0;
    let started = Instant::now();
    cal.unit();
    for (pos, &i) in inputs.ops.iter().enumerate() {
        let inst = &inputs.instances[i];
        let t0 = Instant::now();
        let result = match &mut pass.recorder {
            None => compile_op(inst),
            Some(rec) => {
                rec.set_op(Some(first_op + pos as u64));
                traced_compile_op(rec, inst).map(|t| {
                    pass.solves[i] = Some(t.solve);
                    t.output
                })
            }
        };
        let nanos = t0.elapsed().as_nanos() as u64;
        pass.samples.push(Sample { instance: i, wall_nanos: nanos, nominal_nanos: nanos });
        match result {
            Ok(out) => pass.outputs[i] = Some(out),
            Err(e) => pass.errors.push(format!("{}: {e}", inst.label)),
        }
        busy += nanos;
        cal.catch_up(busy);
    }
    pass.calibration = cal.totals();
    pass.wall = started.elapsed() - Duration::from_nanos(pass.calibration.1);
    pass
}

/// Closed loop: each of `clients` threads sends its next request only
/// after the previous one completed. Client `c` issues `ops[c]`,
/// `ops[c + clients]`, ...
fn serve_pass(
    service: &Service,
    inputs: &Inputs,
    ops: &[usize],
    clients: usize,
    first_op: u64,
    epoch: Option<Instant>,
    keep_responses: bool,
) -> Pass {
    struct Client {
        samples: Vec<Sample>,
        errors: Vec<String>,
        responses: Vec<Option<String>>,
        recorder: Option<Recorder>,
        cal: Calibrator,
    }
    let n = inputs.instances.len();
    let started = Instant::now();
    let per_client: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut me = Client {
                        samples: Vec::with_capacity(ops.len() / clients + 1),
                        errors: Vec::new(),
                        responses: vec![None; if keep_responses { n } else { 0 }],
                        recorder: epoch.map(Recorder::new),
                        cal: Calibrator::new(),
                    };
                    let mut busy = 0;
                    me.cal.unit();
                    for pos in (c..ops.len()).step_by(clients) {
                        let i = ops[pos];
                        let line = &inputs.lines[i];
                        let t0 = Instant::now();
                        let response = match &mut me.recorder {
                            None => serve_op(service, line),
                            Some(rec) => {
                                rec.set_op(Some(first_op + pos as u64));
                                traced_serve_op(rec, service, line)
                            }
                        };
                        let nanos = t0.elapsed().as_nanos() as u64;
                        me.samples.push(Sample {
                            instance: i,
                            wall_nanos: nanos,
                            nominal_nanos: nanos,
                        });
                        // `solve_response` writes "ok" first; the full
                        // parse happens once per key after the pass.
                        if !response.starts_with("{\"ok\":true") {
                            let head = &response[..response.len().min(200)];
                            me.errors.push(format!("{}: {head}", inputs.instances[i].label));
                        } else if keep_responses && me.responses[i].is_none() {
                            me.responses[i] = Some(response);
                        }
                        busy += nanos;
                        me.cal.catch_up(busy);
                    }
                    me
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = started.elapsed();
    let mut pass = Pass {
        samples: Vec::with_capacity(ops.len()),
        wall,
        calibration: (0, 0),
        errors: Vec::new(),
        outputs: Vec::new(),
        solves: Vec::new(),
        responses: vec![None; if keep_responses { n } else { 0 }],
        recorder: epoch.map(Recorder::new),
    };
    for client in per_client {
        let (units, nanos) = client.cal.totals();
        pass.calibration.0 += units;
        pass.calibration.1 += nanos;
        pass.samples.extend(client.samples);
        pass.errors.extend(client.errors);
        for (slot, r) in pass.responses.iter_mut().zip(client.responses) {
            if slot.is_none() {
                *slot = r;
            }
        }
        if let (Some(all), Some(rec)) = (&mut pass.recorder, client.recorder) {
            all.absorb(rec);
        }
    }
    // The clients calibrate side by side: each took about an equal part
    // of the calibration time out of the pass.
    pass.wall -= Duration::from_nanos(pass.calibration.1 / clients as u64);
    pass
}

/// The process's peak resident set so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Service counters summed over the measured passes (set-up and the
/// untimed checks excluded), as differences of `Service::stats()`.
#[derive(Debug, Clone, Default)]
pub struct ServeCounters {
    pub requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub dedup_waits: u64,
    pub solves: u64,
    pub errors: u64,
    pub shed: u64,
    pub degraded: u64,
    pub evictions: u64,
    pub ws_acquires: u64,
    pub ws_reuses: u64,
    /// A gauge, not a counter: the latest service's value.
    pub avg_solve_us: u64,
}

impl ServeCounters {
    fn add_pass(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        macro_rules! add {
            ($($field:ident),*) => {$( self.$field += after.$field - before.$field; )*};
        }
        add!(
            requests,
            cache_hits,
            cache_misses,
            dedup_waits,
            solves,
            errors,
            shed,
            degraded,
            evictions,
            ws_acquires,
            ws_reuses
        );
        self.avg_solve_us = after.avg_solve_us;
    }
}

/// Everything a run hands to the reporting side.
pub struct Outcome {
    /// Ops timed (black-box and traced).
    pub attempted: usize,
    /// Ops that errored, were shed, or whose instance failed a check.
    pub failed: usize,
    /// What failed, for stderr.
    pub messages: Vec<String>,
    /// `(name, value, unit)` — end-to-end metrics of an untraced run
    /// (timings at nominal host speed), per-layer metrics of a traced one
    /// (timings in wall clock).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Untraced runs: the wall-clock readings of the [`TIMINGS`] metrics.
    pub wall: Vec<f64>,
    /// Median over the black-box passes of the host's slowdown against
    /// nominal speed.
    pub host_slowdown: f64,
    /// One row per distinct instance.
    pub rows: Vec<InstanceRow>,
    /// What a traced run recorded (empty otherwise).
    pub spans: Vec<Span>,
}

/// What a run saw of one instance.
pub struct InstanceRow {
    pub label: String,
    /// Compute nodes of the graph.
    pub nodes: usize,
    /// Black-box ops on this instance.
    pub ops: usize,
    /// Median latency of those ops, at nominal host speed.
    pub median_ms: f64,
    pub phi: f64,
    pub t_psa: f64,
    /// Whether every check on the instance passed.
    pub ok: bool,
}

/// State of a run in progress.
pub struct Run<'w> {
    pub workload: &'w Workload,
    pub inputs: Inputs,
    service: Option<Service>,
    epoch: Instant,
    passes: u64,
    /// Spans of the traced passes and, later, the layer probes.
    pub recorder: Recorder,
    /// Whether the service has served a pass since it was started.
    service_used: bool,
    /// Black-box op latencies: the end-to-end sample.
    pub plain: Vec<Sample>,
    /// Per black-box pass, wall clock: p50 and p90 op latency in ms, ops
    /// per second; and the host's slowdown during the pass.
    pass_stats: Vec<[f64; 4]>,
    /// Latencies of ops taken apart into spans.
    pub traced: Vec<Sample>,
    /// The checked output of each instance (first one seen).
    pub outputs: Vec<Option<Arc<SolveOutput>>>,
    /// Traced compile ops: each instance's raw allocation result.
    pub solves: Vec<Option<AllocationResult>>,
    /// Serve entries only.
    pub counters: ServeCounters,
    errored_ops: usize,
    bad: Vec<bool>,
    pub messages: Vec<String>,
}

impl Run<'_> {
    /// Count instance `i` (and every op on it) as failed.
    pub fn fail(&mut self, i: usize, why: String) {
        self.bad[i] = true;
        self.messages.push(format!("{}: {why}", self.inputs.instances[i].label));
    }

    /// Replace the service with the one a later set-up made ready.
    fn install(&mut self, ready: SetUp) {
        self.service = ready.service;
        self.service_used = false;
    }

    /// One pass over the op list, then (untimed) the checks on what it
    /// produced.
    fn pass(&mut self, traced: bool) {
        let w = self.workload;
        if self.service_used && w.entry == (Entry::Serve { warm: false }) {
            // Every request of this pass must miss again.
            self.service = Some(Service::start(serve_config()));
            self.service_used = false;
        }
        let epoch = traced.then_some(self.epoch);
        let first_op = self.passes * self.inputs.ops.len() as u64;
        let mut pass = match &self.service {
            None => compile_pass(&self.inputs, first_op, epoch),
            Some(svc) => {
                // A service is checked on the first pass it serves.
                let keep = !self.service_used;
                let before = svc.stats();
                let pass = serve_pass(
                    svc,
                    &self.inputs,
                    &self.inputs.ops,
                    w.clients,
                    first_op,
                    epoch,
                    keep,
                );
                self.counters.add_pass(&before, &svc.stats());
                self.service_used = true;
                pass
            }
        };
        self.passes += 1;
        self.errored_ops += pass.errors.len();
        self.messages.append(&mut pass.errors);
        let slow = slowdown(pass.calibration.0, pass.calibration.1);
        for s in &mut pass.samples {
            s.nominal_nanos = (s.wall_nanos as f64 / slow) as u64;
        }
        if traced {
            self.traced.append(&mut pass.samples);
        } else {
            let ms: Vec<f64> = pass.samples.iter().map(|s| s.wall_nanos as f64 / 1e6).collect();
            self.pass_stats.push([
                median(&ms),
                percentile_nearest_rank(&ms, 90.0),
                ms.len() as f64 / pass.wall.as_secs_f64(),
                slow,
            ]);
            self.plain.append(&mut pass.samples);
        }
        if let Some(rec) = pass.recorder.take() {
            self.recorder.absorb(rec);
        }

        for (i, inst) in self.inputs.instances.iter().enumerate() {
            // Serve entries: fetch the output the service holds for the
            // key (a cache hit) so it can be audited like any other.
            let output = match &self.service {
                None => pass.outputs[i].take().map(Arc::new),
                Some(svc) => {
                    let Some(line) = pass.responses.get(i).and_then(Option::as_ref) else {
                        continue;
                    };
                    match svc.submit(Arc::clone(&inst.graph), inst.spec.clone()) {
                        Ok(r) => {
                            let mut wrong = check_response(inst, line, &r.output);
                            self.bad[i] |= !wrong.is_empty();
                            self.messages.append(&mut wrong);
                            Some(r.output)
                        }
                        Err(e) => {
                            self.bad[i] = true;
                            self.messages.push(format!("{}: re-submit failed: {e}", inst.label));
                            None
                        }
                    }
                }
            };
            let Some(output) = output else { continue };
            let mut wrong = match &self.outputs[i] {
                None => {
                    let wrong = check_output(inst, &output);
                    self.outputs[i] = Some(output);
                    wrong
                }
                // Repeats must agree bit for bit — across passes, across
                // fresh services, and between the traced form of an op
                // and the black box.
                Some(first) => check_repeat(inst, first, &output),
            };
            self.bad[i] |= !wrong.is_empty();
            self.messages.append(&mut wrong);
            if let Some(s) = pass.solves.get_mut(i).and_then(Option::take) {
                self.solves[i] = Some(s);
            }
        }
    }
}

/// Measure `w` for about `seconds`: rounds of an optional set-up (see
/// [`SETUP_SHARE`]) and one whole pass, at least one round, and another
/// only while one more of the same length still fits. A traced run makes
/// a black-box and a traced pass per round. `quick` is the smoke form:
/// one set-up and one round over a third of the op list.
pub fn measure(w: &Workload, seed: u64, seconds: f64, trace: bool, quick: bool) -> Outcome {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();

    let SetUp { mut inputs, service, wall_secs, slow } = set_up(w, seed);
    if quick {
        inputs.ops.truncate(inputs.ops.len().div_ceil(3).max(2));
    }
    let n = inputs.instances.len();
    let epoch = Instant::now();
    let mut run = Run {
        workload: w,
        inputs,
        service,
        epoch,
        passes: 0,
        recorder: Recorder::new(epoch),
        service_used: false,
        plain: Vec::new(),
        pass_stats: Vec::new(),
        traced: Vec::new(),
        outputs: vec![None; n],
        solves: (0..n).map(|_| None).collect(),
        counters: ServeCounters::default(),
        errored_ops: 0,
        bad: vec![false; n],
        messages: Vec::new(),
    };
    let mut setups = vec![(wall_secs, slow)];
    let mut setting_up = started.elapsed();
    for round in 0u32.. {
        let round_started = Instant::now();
        if !quick && setting_up.as_secs_f64() < SETUP_SHARE * started.elapsed().as_secs_f64() {
            let ready = set_up(w, seed);
            setups.push((ready.wall_secs, ready.slow));
            run.install(ready);
            setting_up += round_started.elapsed();
        }
        // The second pass of a round runs a few percent faster than the
        // first, so a traced run lets the two kinds take turns going
        // first.
        let order: &[bool] = match (trace, round % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in order {
            run.pass(traced);
        }
        if quick || started.elapsed() + round_started.elapsed() > budget {
            break;
        }
    }

    for &i in &run.inputs.ops {
        if run.outputs[i].is_none() && !run.bad[i] {
            run.bad[i] = true;
            run.messages.push(format!("{}: no result to check", run.inputs.instances[i].label));
        }
    }
    let over = |values: Vec<f64>| median(&values);
    let host_slowdown = over(run.pass_stats.iter().map(|s| s[3]).collect());
    let mut wall = Vec::new();
    let metrics = if trace {
        layers::per_layer(&mut run, host_slowdown)
    } else {
        // Each timing goes to nominal host speed where it was taken (set-up
        // by set-up, pass by pass), before the median.
        wall = vec![
            over(setups.iter().map(|s| s.0).collect()),
            over(run.pass_stats.iter().map(|s| s[0]).collect()),
            over(run.pass_stats.iter().map(|s| s[1]).collect()),
            over(run.pass_stats.iter().map(|s| s[2]).collect()),
        ];
        let quality = |f: fn(&SolveOutput) -> f64| {
            let v: Vec<f64> = run.outputs.iter().flatten().map(|o| f(o)).collect();
            if v.is_empty() {
                f64::NAN
            } else {
                geomean(&v)
            }
        };
        let values = [
            over(setups.iter().map(|s| s.0 / s.1).collect()),
            over(run.pass_stats.iter().map(|s| s[0] / s[3]).collect()),
            over(run.pass_stats.iter().map(|s| s[1] / s[3]).collect()),
            over(run.pass_stats.iter().map(|s| s[2] * s[3]).collect()),
            quality(|o| o.phi),
            quality(|o| o.t_psa),
            peak_rss_mb(),
        ];
        END_TO_END.iter().zip(values).map(|(&(name, unit, _), v)| (name, v, unit)).collect()
    };
    let attempted = run.plain.len() + run.traced.len();
    let failed = (run.errored_ops
        + run.plain.iter().chain(&run.traced).filter(|s| run.bad[s.instance]).count())
    .min(attempted);
    let rows = run
        .inputs
        .instances
        .iter()
        .zip(micros_by_instance(&run.plain, n, |s| s.nominal_nanos))
        .enumerate()
        .map(|(i, (inst, us))| InstanceRow {
            label: inst.label.clone(),
            nodes: inst.graph.compute_node_count(),
            ops: us.len(),
            median_ms: median_or_zero(&us) / 1e3,
            phi: run.outputs[i].as_ref().map_or(f64::NAN, |o| o.phi),
            t_psa: run.outputs[i].as_ref().map_or(f64::NAN, |o| o.t_psa),
            ok: !run.bad[i],
        })
        .collect();
    let spans = run.recorder.spans().to_vec();
    Outcome { attempted, failed, messages: run.messages, metrics, wall, host_slowdown, rows, spans }
}
