//! The commands built on top of one measured run: `run` (all workloads
//! × rounds, each in a fresh child process), `trace`, `compare` and
//! `self-test`, plus the result files they read and write.

use crate::check::check_repeat;
use crate::layers::PER_LAYER;
use crate::measure::{Outcome, END_TO_END, TIMINGS};
use crate::ops::compile_op;
use crate::stats::{median, quartile_spread};
use crate::workload::{build, find, DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS};
use paradigm_mdg::{parse_json, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `benchmark/`, wherever the checkout is.
pub fn benchmark_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out/`, created on demand (git-ignored).
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = benchmark_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The result object one measured run prints as its last line.
pub fn result_json(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            let fields = vec![
                ("value".to_string(), Json::num(value)),
                ("unit".to_string(), Json::str(unit)),
            ];
            (name.to_string(), Json::Obj(fields))
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("attempted".into(), Json::num(outcome.attempted as f64)),
        ("failed".into(), Json::num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// The line before it: the wall-clock readings of the timing metrics an
/// untraced run reports at nominal host speed, and the host's slowdown.
pub fn wall_json(outcome: &Outcome) -> Json {
    let mut fields: Vec<(String, Json)> = END_TO_END
        .iter()
        .zip(&outcome.wall)
        .map(|(&(name, _, _), &v)| (name.to_string(), Json::num(v)))
        .collect();
    fields.push(("host_slowdown".into(), Json::num(outcome.host_slowdown)));
    Json::Obj(vec![("wall_clock".into(), Json::Obj(fields))])
}

/// Rounds of a full `run`, each a fresh child process per workload.
const ROUNDS: usize = 5;

/// `compare` always reads two runs of one seed, where Φ and `T_psa`
/// repeat bit for bit, so it holds them to the issue's bounds. The wider
/// ones in `BENCHMARK.json` are for the driver, which compares runs on
/// ten different seeds.
const SAME_SEED_BOUNDS: [(&str, f64); 2] = [("phi_geomean_s", 0.001), ("t_psa_geomean_s", 0.005)];

/// The parts of `BENCHMARK.json` the commands need.
pub struct Spec {
    pub run_seconds: f64,
    /// End-to-end metric → (direction, bound).
    pub bounds: BTreeMap<String, (String, f64)>,
    /// Workload names and whys, in order.
    pub workloads: Vec<(String, String)>,
    pub per_layer: Vec<String>,
}

/// Read `BENCHMARK.json` from the checkout root.
pub fn read_spec() -> Result<Spec, String> {
    let path = benchmark_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))
    };
    let name_of = |j: &Json| j.get("name").and_then(Json::as_str).unwrap_or_default().to_string();
    let mut bounds = BTreeMap::new();
    for m in list("end_to_end")? {
        let better = m.get("better").and_then(Json::as_str).unwrap_or_default().to_string();
        let bound =
            m.get("bound").and_then(Json::as_f64).ok_or("end_to_end metric without bound")?;
        bounds.insert(name_of(m), (better, bound));
    }
    Ok(Spec {
        run_seconds: doc.get("run_seconds").and_then(Json::as_f64).ok_or("no run_seconds")?,
        bounds,
        workloads: list("workloads")?
            .iter()
            .map(|w| {
                (name_of(w), w.get("why").and_then(Json::as_str).unwrap_or_default().to_string())
            })
            .collect(),
        per_layer: list("per_layer")?.iter().map(name_of).collect(),
    })
}

/// One measured run in a fresh child process of this binary; returns
/// the parsed result line and the wall-clock line before it.
fn measure_in_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["measure", "--workload", workload])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(quick.then_some("--quick"))
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let mut parsed = || {
        let line = lines.next().ok_or_else(|| format!("{workload}: child printed too little"))?;
        parse_json(line).map_err(|e| format!("{workload}: bad result line: {e}"))
    };
    let result = parsed()?;
    Ok((result, parsed()?))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn count(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::num(v)).collect())
}

/// `run`: every workload × [`ROUNDS`] (one round with `quick`), each
/// for `run_seconds`, round-robin over workloads so a noisy minute on a
/// shared box costs each workload one round rather than one workload all
/// of its rounds. Prints every end-to-end metric as the median over
/// rounds with min, max, the wall-clock median and the op count, writes
/// the result file, and fails if any op failed.
pub fn run_all(seed: u64, quick: bool, out: Option<PathBuf>) -> Result<(), String> {
    let seconds = read_spec()?.run_seconds;
    let rounds = if quick { 1 } else { ROUNDS };
    let mut results: Vec<Vec<(Json, Json)>> = vec![Vec::new(); WORKLOADS.len()];
    for round in 0..rounds {
        for (w, got) in WORKLOADS.iter().zip(&mut results) {
            eprintln!("round {}/{rounds}: {}", round + 1, w.name);
            got.push(measure_in_child(w.name, seed, seconds, false, quick)?);
        }
    }
    let mut failed_total = 0.0;
    let mut workloads = Vec::new();
    println!(
        "{:14} {:16} {:>14} {:>14} {:>14} {:>14}  unit   ops/round",
        "workload", "metric", "median", "min", "max", "wall median"
    );
    for (w, got) in WORKLOADS.iter().zip(&results) {
        let attempted: Vec<f64> = got.iter().map(|(r, _)| count(r, "attempted")).collect();
        let failed: Vec<f64> = got.iter().map(|(r, _)| count(r, "failed")).collect();
        failed_total += failed.iter().sum::<f64>();
        let wall_rounds = |name: &str| -> Result<Vec<f64>, String> {
            got.iter()
                .map(|(_, wall)| {
                    wall.get("wall_clock")
                        .and_then(|w| w.get(name))
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("{}: no wall-clock `{name}`", w.name))
                })
                .collect()
        };
        let mut metrics = Vec::new();
        for (k, (name, unit, _)) in END_TO_END.into_iter().enumerate() {
            let values: Vec<f64> = got
                .iter()
                .map(|(r, _)| {
                    metric_value(r, name).ok_or_else(|| format!("{}: no `{name}`", w.name))
                })
                .collect::<Result<_, _>>()?;
            let (lo, hi) =
                values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let mut fields = vec![
                ("unit".into(), Json::str(unit)),
                ("median".into(), Json::num(median(&values))),
                ("rounds".into(), nums(&values)),
            ];
            let mut wall_median = String::new();
            if k < TIMINGS {
                let wall = wall_rounds(name)?;
                wall_median = format!("{:.6}", median(&wall));
                fields.push(("wall_rounds".into(), nums(&wall)));
            }
            println!(
                "{:14} {:16} {:>14.6} {:>14.6} {:>14.6} {:>14}  {:6} {}",
                w.name,
                name,
                median(&values),
                lo,
                hi,
                wall_median,
                unit,
                median(&attempted)
            );
            metrics.push((name.to_string(), Json::Obj(fields)));
        }
        let share = failed.iter().sum::<f64>() / attempted.iter().sum::<f64>();
        println!("{:14} {:16} {share:>14.6} {:>44}  ratio", w.name, "failed_share", "");
        workloads.push((
            w.name.to_string(),
            Json::Obj(vec![
                ("attempted".into(), nums(&attempted)),
                ("failed".into(), nums(&failed)),
                ("host_slowdown".into(), nums(&wall_rounds("host_slowdown")?)),
                ("metrics".into(), Json::Obj(metrics)),
            ]),
        ));
    }
    let mut file: Vec<(String, Json)> = run_identity(seed, rounds, seconds).into_iter().collect();
    file.push(("workloads".into(), Json::Obj(workloads)));
    let path = match out {
        Some(path) => path,
        None => out_dir()?.join(format!("result-seed{seed}.json")),
    };
    std::fs::write(&path, Json::Obj(file).render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    if failed_total > 0.0 {
        return Err(format!("{failed_total} ops failed their output check"));
    }
    Ok(())
}

/// What two result files must share to be compared. (The seed is text: a
/// `u64` does not fit a JSON number. One round means `--quick`.)
fn run_identity(seed: u64, rounds: usize, seconds: f64) -> [(String, Json); 3] {
    [
        ("seed".into(), Json::str(seed.to_string())),
        ("rounds".into(), Json::num(rounds as f64)),
        ("seconds".into(), Json::num(seconds)),
    ]
}

/// `trace`: one traced run of every workload; prints every per-layer
/// metric, one column per workload.
pub fn trace_all(seed: u64) -> Result<(), String> {
    let seconds = read_spec()?.run_seconds;
    let mut results = Vec::new();
    for w in &WORKLOADS {
        eprintln!("tracing {}", w.name);
        results.push(measure_in_child(w.name, seed, seconds, true, false)?.0);
    }
    print!("{:28} {:6}", "metric", "unit");
    for w in &WORKLOADS {
        print!(" {:>14}", w.name);
    }
    println!();
    for (name, unit, _) in PER_LAYER {
        print!("{name:28} {unit:6}");
        for r in &results {
            match metric_value(r, name) {
                Some(v) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
    let failed: f64 = results.iter().map(|r| count(r, "failed")).sum();
    println!("spans: {}/trace-<workload>.ndjson", out_dir()?.display());
    if failed > 0.0 {
        return Err(format!("{failed} ops failed their output check"));
    }
    Ok(())
}

/// How one workload × metric moved between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The spread between rounds is wider than the bound and the two
    /// sets of rounds overlap.
    Unresolved,
}

/// Compare the rounds of one metric. `higher` = larger is better;
/// `bound` = share of `a`'s median by which `b` may be worse.
pub fn verdict(a: &[f64], b: &[f64], higher: bool, bound: f64) -> Verdict {
    // Work in "lower is better" terms.
    let flip = |v: &[f64]| -> Vec<f64> { v.iter().map(|&x| if higher { -x } else { x }).collect() };
    let (a, b) = (flip(a), flip(b));
    let (ma, mb) = (median(&a), median(&b));
    let change = (mb - ma) / ma.abs();
    let spread = |v: &[f64]| if v.len() >= 2 { quartile_spread(v).abs() } else { 0.0 };
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let moved = change.abs() > bound;
    if spread(&a) > bound || spread(&b) > bound {
        // Too noisy for the medians to speak, unless the runs separate.
        return match (max(&b) < min(&a), min(&b) > max(&a)) {
            (true, _) if moved => Verdict::Better,
            (_, true) if moved => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    match (moved, change > 0.0) {
        (false, _) => Verdict::Same,
        (true, true) => Verdict::Worse,
        (true, false) => Verdict::Better,
    }
}

fn read_result(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn rounds_of(file: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let rounds =
        file.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?.get("rounds")?;
    rounds.as_arr()?.iter().map(Json::as_f64).collect()
}

fn failed_share_of(file: &Json, workload: &str) -> Option<f64> {
    let w = file.get("workloads")?.get(workload)?;
    let sum = |key: &str| -> Option<f64> {
        Some(w.get(key)?.as_arr()?.iter().filter_map(Json::as_f64).sum())
    };
    Some(sum("failed")? / sum("attempted")?)
}

/// Only runs of one seed and one shape compare: a run on another seed
/// measures other inputs, and run length is set by the benchmark.
fn same_run(fa: &Json, fb: &Json) -> Result<(), String> {
    for key in ["seed", "rounds", "seconds"] {
        match (fa.get(key), fb.get(key)) {
            (Some(va), Some(vb)) if va == vb => {}
            (va, vb) => {
                let show = |v: Option<&Json>| v.map_or("nothing".into(), Json::render);
                return Err(format!(
                    "the result files differ in `{key}`: {} vs {}",
                    show(va),
                    show(vb)
                ));
            }
        }
    }
    Ok(())
}

/// `compare`: one row per workload × end-to-end metric; `Err` if the two
/// files are not runs of one seed and one shape, or any row is `worse`.
pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let spec = read_spec()?;
    let (fa, fb) = (read_result(a)?, read_result(b)?);
    same_run(&fa, &fb)?;
    let mut worse = 0;
    println!(
        "{:14} {:16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for (w, _) in &spec.workloads {
        for (name, _, _) in END_TO_END {
            let (better, bound) =
                spec.bounds.get(name).ok_or_else(|| format!("BENCHMARK.json: no `{name}`"))?;
            let bound = SAME_SEED_BOUNDS.iter().find(|b| b.0 == name).map_or(bound, |b| &b.1);
            let (Some(ra), Some(rb)) = (rounds_of(&fa, w, name), rounds_of(&fb, w, name)) else {
                return Err(format!("{w} / {name}: missing from a result file"));
            };
            let v = verdict(&ra, &rb, better == "higher", *bound);
            worse += usize::from(v == Verdict::Worse);
            let (ma, mb) = (median(&ra), median(&rb));
            println!(
                "{w:14} {name:16} {ma:>14.6} {mb:>14.6} {:>+8.2}% {:>6.1}%  {}",
                100.0 * (mb - ma) / ma,
                100.0 * bound,
                format!("{v:?}").to_lowercase()
            );
        }
        // Any increase in the share of failed ops is a regression.
        let (sa, sb) = (failed_share_of(&fa, w), failed_share_of(&fb, w));
        let (Some(sa), Some(sb)) = (sa, sb) else {
            return Err(format!("{w}: attempted/failed missing from a result file"));
        };
        let v = match sb.total_cmp(&sa) {
            std::cmp::Ordering::Greater => Verdict::Worse,
            std::cmp::Ordering::Less => Verdict::Better,
            std::cmp::Ordering::Equal => Verdict::Same,
        };
        worse += usize::from(v == Verdict::Worse);
        println!(
            "{w:14} {:16} {sa:>14.6} {sb:>14.6} {:>9} {:>6.1}%  {}",
            "failed_share",
            "",
            0.0,
            format!("{v:?}").to_lowercase()
        );
    }
    if worse > 0 {
        return Err(format!("{worse} row(s) worse"));
    }
    Ok(())
}

/// `self-test`: the inputs are a pure function of the seed, the
/// pipeline is deterministic, and `BENCHMARK.json` names what the code
/// measures.
pub fn self_test() -> Result<(), String> {
    for w in &WORKLOADS {
        let (a, b) = (build(w, 42), build(w, 42));
        if a.ops != b.ops || a.lines != b.lines {
            return Err(format!("{}: two builds with one seed differ", w.name));
        }
        let texts = |x: &crate::workload::Inputs| -> Vec<String> {
            x.instances.iter().map(|i| paradigm_mdg::to_text(&i.graph)).collect()
        };
        if texts(&a) != texts(&b) {
            return Err(format!("{}: two builds with one seed differ in a graph", w.name));
        }
    }
    println!("inputs: byte-identical for one seed");

    let paper = build(find("compile-paper").expect("workload exists"), 42);
    for inst in &paper.instances {
        let (first, again) = (compile_op(inst)?, compile_op(inst)?);
        if let Some(msg) = check_repeat(inst, &first, &again).pop() {
            return Err(msg);
        }
    }
    println!("compile-paper: one pass twice, phi and t_psa bit-identical");

    let spec = read_spec()?;
    let listed: Vec<(&str, &str)> =
        spec.workloads.iter().map(|(n, w)| (n.as_str(), w.as_str())).collect();
    let names: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    if listed != names {
        return Err(format!("BENCHMARK.json workloads {listed:?} != {names:?}"));
    }
    for (name, _, better) in END_TO_END {
        match spec.bounds.get(name) {
            Some((b, bound)) if b == better && (0.0..=0.25).contains(bound) => {}
            other => return Err(format!("BENCHMARK.json end_to_end `{name}`: {other:?}")),
        }
    }
    if spec.bounds.len() != END_TO_END.len() {
        return Err("BENCHMARK.json lists an end-to-end metric the code does not measure".into());
    }
    let layer_names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    if spec.per_layer != layer_names {
        return Err("BENCHMARK.json per_layer differs from the code's list".into());
    }
    println!("BENCHMARK.json: workloads and metrics match the code");
    println!("self-test ok (default seed {DEFAULT_SEED}, hold-out seed {HOLDOUT_SEED})");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_applies_the_bound_in_the_metric_s_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let up = [112.0, 113.0, 111.0, 112.5, 111.5];
        let small = [103.0, 104.0, 102.0, 103.5, 102.5];
        assert_eq!(verdict(&a, &up, false, 0.10), Verdict::Worse);
        assert_eq!(verdict(&a, &up, true, 0.10), Verdict::Better);
        assert_eq!(verdict(&up, &a, false, 0.10), Verdict::Better);
        assert_eq!(verdict(&a, &small, false, 0.10), Verdict::Same);
        // Values that repeat exactly (phi, t_psa on one seed) resolve at any bound.
        assert_eq!(verdict(&[5.0, 5.0], &[5.0, 5.0], false, 0.0), Verdict::Same);
        assert_eq!(verdict(&[5.0, 5.0], &[5.001, 5.001], false, 0.0), Verdict::Worse);
    }

    #[test]
    fn verdict_is_unresolved_when_rounds_spread_wider_than_the_bound() {
        let noisy = [100.0, 140.0, 90.0, 125.0, 80.0];
        let shifted = [105.0, 150.0, 95.0, 130.0, 85.0];
        assert_eq!(verdict(&noisy, &shifted, false, 0.10), Verdict::Unresolved);
        // ... unless every run of one side beats every run of the other.
        let far = [200.0, 280.0, 190.0, 250.0, 185.0];
        assert_eq!(verdict(&noisy, &far, false, 0.10), Verdict::Worse);
        assert_eq!(verdict(&far, &noisy, false, 0.10), Verdict::Better);
    }

    #[test]
    fn single_round_files_compare_by_their_one_value() {
        assert_eq!(verdict(&[10.0], &[12.0], false, 0.10), Verdict::Worse);
        assert_eq!(verdict(&[10.0], &[10.5], false, 0.10), Verdict::Same);
    }

    #[test]
    fn only_runs_of_one_seed_and_one_shape_compare() {
        let file = |seed, rounds| Json::Obj(run_identity(seed, rounds, 20.0).into());
        assert!(same_run(&file(7, 5), &file(7, 5)).is_ok());
        assert!(same_run(&file(7, 5), &file(8, 5)).unwrap_err().contains("`seed`"));
        assert!(same_run(&file(7, 5), &file(7, 1)).unwrap_err().contains("`rounds`"));
        // Seeds are kept exactly, beyond what a JSON number holds.
        assert!(same_run(&file(u64::MAX, 5), &file(u64::MAX - 1, 5)).is_err());
        assert!(same_run(&file(7, 5), &Json::Obj(Vec::new())).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_s_keys() {
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            messages: Vec::new(),
            metrics: vec![("op_ms_p50", 1.2034, "ms")],
            wall: Vec::new(),
            host_slowdown: 1.0,
            rows: Vec::new(),
            spans: Vec::new(),
        };
        assert_eq!(
            result_json(&outcome).render(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\
             \"metrics\":{\"op_ms_p50\":{\"value\":1.2034,\"unit\":\"ms\"}}}"
        );
    }
}
