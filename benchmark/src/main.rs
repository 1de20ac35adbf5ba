//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! paradigm-benchmark measure --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick]
//! paradigm-benchmark run     [--seed <u64>] [--quick] [--out <file>]
//! paradigm-benchmark trace   [--seed <u64>]
//! paradigm-benchmark compare <a.json> <b.json>
//! paradigm-benchmark self-test
//! ```
//!
//! `measure` is the form `BENCHMARK.json`'s `command` names: one
//! workload, one process, one JSON result object as the last line of
//! standard output. `run` and `trace` start it once per workload and
//! round in a child process, for `run_seconds` of `BENCHMARK.json`.

mod calibrate;
mod check;
mod layers;
mod measure;
mod ops;
mod report;
mod span;
mod stats;
mod workload;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  measure --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick]
  run     [--seed <u64>] [--quick] [--out <file>]
  trace   [--seed <u64>]
  compare <a.json> <b.json>
  self-test";

/// `--flag value` pairs and bare words, in order.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut args = Args { flags: Vec::new(), words: Vec::new() };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if switches.contains(&a.as_str()) {
                args.flags.push((a.clone(), String::new()));
            } else if a.starts_with("--") {
                let value = it.next().ok_or_else(|| format!("`{a}` needs a value"))?;
                args.flags.push((a.clone(), value.clone()));
            } else {
                args.words.push(a.clone());
            }
        }
        Ok(args)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(f, _)| f == flag) {
            None => Ok(None),
            Some((_, v)) => {
                v.parse().map(Some).map_err(|_| format!("bad value `{v}` for `{flag}`"))
            }
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(f, _)| !allowed.contains(&f.as_str())) {
            Some((f, _)) => Err(format!("unknown flag `{f}`")),
            None => Ok(()),
        }
    }
}

fn measure_command(args: &Args) -> Result<(), String> {
    args.only(&["--workload", "--seed", "--seconds", "--trace", "--quick"])?;
    let name: String = args.get("--workload")?.ok_or("`--workload` is required")?;
    let w = workload::find(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (try {})", names.join(", "))
    })?;
    let seed = args.get("--seed")?.unwrap_or(workload::DEFAULT_SEED);
    let seconds: f64 = args.get("--seconds")?.ok_or("`--seconds` is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("`--seconds {seconds}` must be positive"));
    }
    let trace = match args.get::<u8>("--trace")? {
        None | Some(0) => false,
        Some(1) => true,
        Some(other) => return Err(format!("`--trace {other}` must be 0 or 1")),
    };

    let outcome = measure::measure(w, seed, seconds, trace, args.has("--quick"));
    for msg in &outcome.messages {
        eprintln!("FAILED {msg}");
    }
    if trace {
        let path = report::out_dir()?.join(format!("trace-{}.ndjson", w.name));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        span::write_ndjson(&outcome.spans, &mut out)
            .and_then(|()| out.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{} seed {seed}: {} ops, {} failed", w.name, outcome.attempted, outcome.failed);
    println!(
        "  {:24} {:>5} {:>6} {:>12} {:>14} {:>14}",
        "instance", "nodes", "ops", "median_ms", "phi_s", "t_psa_s"
    );
    for r in &outcome.rows {
        let mark = if r.ok { "" } else { "  FAILED" };
        println!(
            "  {:24} {:>5} {:>6} {:>12.4} {:>14.6} {:>14.6}{mark}",
            r.label, r.nodes, r.ops, r.median_ms, r.phi, r.t_psa
        );
    }
    println!("  host ran {:.3}x nominal unit time", outcome.host_slowdown);
    if trace {
        println!("  {:28} {:>16} unit", "metric", "wall clock");
    } else {
        println!("  {:28} {:>16} {:>16} unit", "metric", "at nominal speed", "wall clock");
    }
    for (k, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        match outcome.wall.get(k) {
            Some(wall) => println!("  {name:28} {value:>16.6} {wall:>16.6} {unit}"),
            None if trace => println!("  {name:28} {value:>16.6} {unit}"),
            None => println!("  {name:28} {value:>16.6} {:>16} {unit}", ""),
        }
    }
    println!("{}", report::wall_json(&outcome).render());
    println!("{}", report::result_json(&outcome).render());
    Ok(())
}

fn dispatch(raw: &[String]) -> Result<(), String> {
    let (command, rest) = raw.split_first().ok_or(USAGE)?;
    let args = Args::parse(rest, &["--quick"])?;
    match command.as_str() {
        "measure" => measure_command(&args),
        "run" => {
            args.only(&["--seed", "--quick", "--out"])?;
            let seed = args.get("--seed")?.unwrap_or(workload::DEFAULT_SEED);
            report::run_all(seed, args.has("--quick"), args.get::<PathBuf>("--out")?)
        }
        "trace" => {
            args.only(&["--seed"])?;
            report::trace_all(args.get("--seed")?.unwrap_or(workload::DEFAULT_SEED))
        }
        "compare" => match &args.words[..] {
            [a, b] if args.flags.is_empty() => report::compare(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.into()),
        },
        "self-test" => report::self_test(),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
