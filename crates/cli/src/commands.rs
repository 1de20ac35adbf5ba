//! Command implementations. Each returns the text it would print, so
//! the test-suite can drive them without spawning processes; `main`
//! prints the result.

use crate::args::{Command, USAGE};
use paradigm_admm::{partition_mdg, PartitionOptions};
use paradigm_analyze::{
    analyze_resources, apply_fixes, check_certificate_text, has_errors, lint_mdg,
    memory_certificate, memory_lint_set, render_diagnostics, unified_diff,
};
use paradigm_core::calibrate::{calibrate, CalibrationConfig};
use paradigm_core::compile::Compiled;
use paradigm_core::report::render_calibration;
use paradigm_core::{
    compile, gallery_graph, machine_from_spec, try_solve_pipeline, SolveSpec, GALLERY_NAMES,
};
use paradigm_cost::{Machine, MdgWeights};
use paradigm_mdg::stats::MdgStats;
use paradigm_mdg::{from_text, to_text, KernelCostTable, Mdg};
use paradigm_sched::{
    analyze_schedule, gantt_svg, idle_profile, spmd_schedule, task_parallel_schedule, to_csv,
    SchedPolicy, Schedule,
};
use paradigm_serve::{ServeConfig, Server, ServerConfig};
use paradigm_sim::{
    compare_schedule_vs_sim, lower_mpmd, lower_spmd, render_trace, simulate, SimResult,
    TaskProgram, TrueMachine,
};

/// Any failure a command can produce.
#[derive(Debug)]
pub enum CliError {
    /// File system problem.
    Io(std::io::Error),
    /// MDG parse problem.
    Parse(paradigm_mdg::textfmt::ParseError),
    /// Mini-language front-end problem.
    Front(paradigm_front::FrontError),
    /// A transform produced a graph `MdgBuilder::finish` refuses.
    Graph(paradigm_mdg::MdgError),
    /// Bad runtime configuration or an internal failure that is not a
    /// findings verdict (exit code 2, like usage errors).
    Config(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Parse(e) => write!(f, "parse error: {e}"),
            CliError::Front(e) => write!(f, "front-end error: {e}"),
            CliError::Graph(e) => write!(f, "graph construction failed: {e}"),
            CliError::Config(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// A command's printable output plus its findings verdict, so `main`
/// can map results onto the documented exit codes (0 = clean, 1 =
/// findings, 2 = usage/internal error).
#[derive(Debug)]
pub struct CmdOutput {
    /// Text to print on stdout.
    pub text: String,
    /// True when the analysis found problems (lint errors, refuted
    /// certificates, schedule violations): exit code 1.
    pub failed: bool,
}

impl CmdOutput {
    fn clean(text: impl Into<String>) -> CmdOutput {
        CmdOutput { text: text.into(), failed: false }
    }
}

/// Load a graph: `.mini` sources are compiled by the front end, anything
/// else is parsed as the MDG text format.
fn load(file: &str) -> Result<Mdg, CliError> {
    let text = std::fs::read_to_string(file).map_err(CliError::Io)?;
    if file.ends_with(".mini") {
        paradigm_front::compile_source(&text, &KernelCostTable::cm5()).map_err(CliError::Front)
    } else {
        from_text(&text).map_err(CliError::Parse)
    }
}

/// Execute a parsed command, returning its output text and verdict.
pub fn run(command: &Command) -> Result<CmdOutput, CliError> {
    match command {
        Command::Help => Ok(CmdOutput::clean(USAGE)),
        Command::Demo { which } => {
            let g = gallery_graph(which)
                .unwrap_or_else(|| unreachable!("validated by the parser: {which}"));
            Ok(CmdOutput::clean(to_text(&g)))
        }
        Command::Transform { file, fuse, reduce } => {
            let mut g = load(file)?;
            let mut notes = Vec::new();
            if *fuse {
                let (f, merges) = paradigm_mdg::fuse_serial_chains(&g).map_err(CliError::Graph)?;
                notes.push(format!("# fuse_serial_chains: {merges} merges"));
                g = f;
            }
            if *reduce {
                let (r, removed) = paradigm_mdg::transitive_reduction(&g);
                notes.push(format!("# transitive_reduction: {removed} edges removed"));
                g = r;
            }
            let mut out = notes.join("\n");
            out.push('\n');
            out.push_str(&to_text(&g));
            Ok(CmdOutput::clean(out))
        }
        Command::Build { file } => {
            let text = std::fs::read_to_string(file).map_err(CliError::Io)?;
            let g = paradigm_front::compile_source(&text, &KernelCostTable::cm5())
                .map_err(CliError::Front)?;
            Ok(CmdOutput::clean(to_text(&g)))
        }
        Command::Info { file } => {
            let g = load(file)?;
            let mut out = MdgStats::of(&g).render(g.name());
            out.push('\n');
            out.push_str(&paradigm_mdg::dot::to_ascii(&g));
            Ok(CmdOutput::clean(out))
        }
        Command::Calibrate { procs } => {
            let truth = TrueMachine::cm5(*procs);
            let cal = calibrate(&truth, &CalibrationConfig::default());
            Ok(CmdOutput::clean(render_calibration(&cal)))
        }
        Command::Compile { file, procs, pb, hlf, gantt, csv, svg, admm } => {
            let g = load(file)?;
            let spec = SolveSpec {
                policy: if *hlf { SchedPolicy::HighestLevelFirst } else { SchedPolicy::LowestEst },
                pb: *pb,
                fast_solver: false,
                admm: *admm,
                ..SolveSpec::new(Machine::cm5(*procs))
            };
            let out = try_solve_pipeline(&g, &spec).map_err(|e| CliError::Config(e.to_string()))?;
            let mut text = format!(
                "compiled `{}` for {procs} processors{} (PB = {})\n",
                g.name(),
                if *admm { " via consensus ADMM" } else { "" },
                out.pb
            );
            text.push_str(&format!(
                "Phi = {:.6} s, T_psa = {:.6} s ({:+.2}% above Phi)\n",
                out.phi, out.t_psa, out.deviation_percent
            ));
            if let Some(stats) = &out.admm {
                text.push_str(&format!(
                    "admm: {} blocks ({} cut edges), {} outer rounds, {} inner + {} polish iters\n",
                    stats.blocks,
                    stats.cut_edges,
                    stats.outer_iters,
                    stats.inner_iters,
                    stats.polish_iters
                ));
                text.push_str(&format!(
                    "admm: primal residual {:.3e}, dual residual {:.3e}{}\n",
                    stats.primal_residual,
                    stats.dual_residual,
                    if stats.converged { "" } else { " (NOT converged; hit max rounds)" }
                ));
            }
            text.push_str("\nallocation:\n");
            for a in &out.alloc {
                text.push_str(&format!("  {:<24} {:>8.3} -> {}\n", a.node, a.continuous, a.procs));
            }
            let prof = idle_profile(&out.schedule, out.pb);
            text.push_str(&format!(
                "\nschedule utilization {:.1}% (idle {:.6} proc-s, idling-situation time {:.6} s)\n",
                100.0 * prof.utilization(),
                prof.idle_area,
                prof.idling_situation_time
            ));
            if *gantt {
                text.push('\n');
                text.push_str(&out.schedule.gantt(&g, 64));
            }
            if *csv {
                text.push('\n');
                text.push_str(&to_csv(&out.schedule, &g));
            }
            if *svg {
                text.push('\n');
                text.push_str(&gantt_svg(&out.schedule, &g));
            }
            // A consensus solve that stopped short is a finding, not a crash.
            Ok(CmdOutput { text, failed: out.admm.is_some_and(|s| !s.converged) })
        }
        Command::Simulate { file, procs, spmd, trace } => {
            let g = load(file)?;
            let machine = Machine::cm5(*procs);
            let truth = TrueMachine::cm5(*procs);
            let mut out = String::new();
            if *spmd {
                let prog = lower_spmd(&g, *procs);
                let sim = simulate(&prog, &truth);
                out.push_str(&format!(
                    "SPMD execution of `{}` on {} processors: {:.6} s (utilization {:.1}%)\n",
                    g.name(),
                    procs,
                    sim.makespan,
                    100.0 * sim.utilization()
                ));
                out.push_str(&program_line(&prog, &sim));
            } else {
                let c = compile_or_error(&g, machine)?;
                let prog = lower_mpmd(&g, &c.psa.schedule);
                let sim = simulate(&prog, &truth);
                out.push_str(&format!(
                    "MPMD execution of `{}` on {} processors: {:.6} s (predicted {:.6} s, {:+.2}%)\n",
                    g.name(),
                    procs,
                    sim.makespan,
                    c.t_psa,
                    100.0 * (c.t_psa - sim.makespan) / sim.makespan
                ));
                out.push_str(&program_line(&prog, &sim));
                if *trace {
                    let diffs = compare_schedule_vs_sim(&g, &c.psa.schedule, &prog, &sim);
                    out.push('\n');
                    out.push_str(&render_trace(&diffs));
                }
            }
            Ok(CmdOutput::clean(out))
        }
        Command::Analyze { file, procs, machine, gallery, fix, write, strict, mem_mb } => {
            let mut machine = machine_from_spec(machine, *procs)
                .unwrap_or_else(|| unreachable!("validated by the parser: {machine}"));
            if let Some(mb) = mem_mb {
                machine = machine.with_mem_bytes(mb * 1024 * 1024);
            }
            let opts = AnalyzeOpts { fix: *fix, strict: *strict };
            let mut graphs = Vec::new();
            if let Some(f) = file {
                graphs.push((load(f)?, Some(f.clone())));
            }
            if *gallery {
                graphs.extend(gallery_graphs().into_iter().map(|g| (g, None)));
            }
            let mut out = String::new();
            let mut failed = false;
            for (g, path) in &graphs {
                let write_to = write.then(|| path.as_deref()).flatten();
                failed |= analyze_graph(g, machine, &opts, write_to, &mut out)?;
            }
            Ok(CmdOutput { text: out, failed })
        }
        Command::AnalyzeResources { file, procs, machine, mem_mb, gallery, json, strict } => {
            let mut machine = machine_from_spec(machine, *procs)
                .unwrap_or_else(|| unreachable!("validated by the parser: {machine}"));
            if let Some(mb) = mem_mb {
                machine = machine.with_mem_bytes(mb * 1024 * 1024);
            }
            let mut graphs = Vec::new();
            if let Some(f) = file {
                graphs.push(load(f)?);
            }
            if *gallery {
                graphs.extend(gallery_graphs());
            }
            let mut out = String::new();
            let mut failed = false;
            for g in &graphs {
                let ra = analyze_resources(g, &machine);
                let diags = memory_lint_set(&machine).run(g);
                failed |= !ra.feasible || has_errors(&diags) || (*strict && !diags.is_empty());
                if *json {
                    out.push_str(&memory_certificate(g.name(), &ra).render());
                    out.push('\n');
                } else {
                    out.push_str(&ra.render());
                    if !diags.is_empty() {
                        out.push_str(&render_diagnostics(g, &diags));
                    }
                    out.push('\n');
                }
            }
            Ok(CmdOutput { text: out, failed })
        }
        Command::CheckCert { file } => {
            // `analyze resources --json` prints one certificate per line:
            // each non-empty line is checked as its own document, and the
            // first that fails ends the run.
            let text = std::fs::read_to_string(file).map_err(CliError::Io)?;
            let mut out = String::new();
            let docs = text.lines().enumerate().filter(|(_, line)| !line.trim().is_empty());
            for (i, line) in docs {
                match check_certificate_text(line) {
                    Ok(summary) => out.push_str(&format!("{summary}\n")),
                    Err(failure) => {
                        out.push_str(&format!("line {}: {failure}\n", i + 1));
                        return Ok(CmdOutput { text: out, failed: true });
                    }
                }
            }
            if out.is_empty() {
                let text = format!("certificate REJECTED: `{file}` holds no document\n");
                return Ok(CmdOutput { text, failed: true });
            }
            Ok(CmdOutput::clean(out))
        }
        Command::Serve {
            port,
            workers,
            cache,
            queue,
            max_queue_wait_ms,
            chaos,
            audit_rate,
            audit_log,
        } => {
            let mut service = ServeConfig::default();
            if *workers > 0 {
                service.workers = *workers;
            }
            service.cache_capacity = *cache;
            service.queue_capacity = *queue;
            service.max_queue_wait = max_queue_wait_ms.map(std::time::Duration::from_millis);
            service.chaos = chaos.clone();
            service.audit_rate = *audit_rate;
            service.audit_log = audit_log.as_ref().map(std::path::PathBuf::from);
            if let Some(plan) = &service.chaos {
                println!("paradigm-serve chaos plan active: {plan:?}");
            }
            let server =
                Server::bind(ServerConfig { service, port: *port }).map_err(CliError::Io)?;
            let addr = server.local_addr().map_err(CliError::Io)?;
            // Printed immediately: `run` blocks until shutdown, and
            // clients need the (possibly OS-assigned) port to connect.
            println!("paradigm-serve listening on {addr} (NDJSON; ^C or {{\"op\":\"shutdown\"}} to stop)");
            let stats = server.run();
            Ok(CmdOutput::clean(stats.render()))
        }
        Command::Partition { file, procs, blocks } => {
            let g = load(file)?;
            let opts = match blocks {
                Some(b) => PartitionOptions::with_blocks(&g, *b),
                None => PartitionOptions::default(),
            };
            let part = partition_mdg(&g, &opts);
            let mut out = format!(
                "partitioned `{}` ({} compute nodes) for a {}-processor machine\n",
                g.name(),
                g.compute_node_count(),
                procs
            );
            out.push_str(&part.render(&g));
            Ok(CmdOutput::clean(out))
        }
        Command::Race { bound, suite } => run_race(*bound, suite.as_deref()),
    }
}

/// `race`: run the concurrency model-check suites from every checked
/// crate, one summary line per suite, plus the full replayable numbered
/// trace and lock-order diagnostics for any failure.
fn run_race(bound: Option<usize>, which: Option<&str>) -> Result<CmdOutput, CliError> {
    use std::fmt::Write as _;
    let mut suites: Vec<paradigm_race::Suite> = Vec::new();
    suites.extend(paradigm_serve::race_suites::suites());
    suites.extend(paradigm_admm::race_suites::suites());
    if let Some(name) = which.filter(|n| *n != "all") {
        let known: Vec<&str> = suites.iter().map(|s| s.name).collect();
        suites.retain(|s| s.name == name);
        if suites.is_empty() {
            return Err(CliError::Config(format!(
                "unknown suite `{name}` (have: {}, all)",
                known.join(", ")
            )));
        }
    }
    let mut text = String::new();
    if paradigm_race::model_enabled() {
        let _ = writeln!(
            text,
            "model checking: exhaustive interleaving exploration (--cfg paradigm_race)"
        );
    } else {
        let _ = writeln!(
            text,
            "model checking: native smoke runs only — rebuild with \
             RUSTFLAGS=\"--cfg paradigm_race\" to explore interleavings"
        );
    }
    // Suites assert invariants with panics, and exploration visits the
    // failing schedule (and its replay) on purpose; silence the default
    // panic hook so explored failures do not spam stderr. The violation
    // report carries the message and the full trace.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut failed = false;
    for s in &suites {
        let mut cfg = s.config.clone();
        if let Some(b) = bound {
            cfg.preemptions = b;
        }
        let report = (s.run)(&cfg);
        let _ = writeln!(text, "{}   {}", report.summary(), s.about);
        let cycles = report.lock_order.cycles();
        if !cycles.is_empty() {
            for c in &cycles {
                let _ = writeln!(text, "  lock-order cycle: {}", c.join(" -> "));
            }
            let _ = write!(text, "{}", report.lock_order.render());
        }
        if let Some(v) = &report.violation {
            let _ = writeln!(text, "\nfailing schedule for suite `{}`:", report.name);
            for line in v.render_trace().lines() {
                let _ = writeln!(text, "  {line}");
            }
            match report.replay_consistent {
                Some(true) => {
                    let _ = writeln!(
                        text,
                        "  replay: recorded schedule reproduces this trace deterministically"
                    );
                }
                Some(false) => {
                    let _ = writeln!(
                        text,
                        "  replay: WARNING — re-running the schedule diverged \
                         (nondeterministic closure?)"
                    );
                }
                None => {}
            }
        }
        if !report.passed() {
            failed = true;
        }
    }
    std::panic::set_hook(prev_hook);
    if !failed {
        let _ = writeln!(text, "all {} suite(s) passed; lock-order graphs acyclic", suites.len());
    }
    Ok(CmdOutput { text, failed })
}

/// The built-in graphs swept by `analyze --gallery` (the same set the
/// serve protocol's `"gallery"` field draws from).
fn gallery_graphs() -> Vec<Mdg> {
    GALLERY_NAMES
        .iter()
        .map(|name| gallery_graph(name).unwrap_or_else(|| unreachable!("gallery name {name}")))
        .collect()
}

/// Flags steering [`analyze_graph`]'s optional passes.
struct AnalyzeOpts {
    fix: bool,
    strict: bool,
}

/// Append the analysis passes (lints, schedule checks) for one graph to
/// `out`. Returns true when findings should fail the run (lint errors —
/// or any diagnostic under `strict` — or schedule violations), and the
/// solver's error when the graph cannot be compiled.
fn analyze_graph(
    g: &Mdg,
    machine: Machine,
    opts: &AnalyzeOpts,
    write_to: Option<&str>,
    out: &mut String,
) -> Result<bool, CliError> {
    out.push_str(&format!("== `{}` on {} processors ==\n", g.name(), machine.procs));
    let diags = lint_mdg(g);
    if diags.is_empty() {
        out.push_str("lints: clean\n");
    } else {
        out.push_str(&render_diagnostics(g, &diags));
    }
    let mut failed = has_errors(&diags) || (opts.strict && !diags.is_empty());
    if opts.fix {
        let (fixed, applied) = apply_fixes(g, &diags);
        if applied.is_empty() {
            out.push_str("fix: nothing to fix\n");
        } else {
            out.push_str(&format!("fix: {} mechanical fix(es) available\n", applied.len()));
            let label = write_to.unwrap_or("graph.mdg");
            out.push_str(&unified_diff(
                label,
                &to_text(g),
                &format!("{label} (fixed)"),
                &to_text(&fixed),
            ));
            if let Some(path) = write_to {
                std::fs::write(path, to_text(&fixed)).map_err(CliError::Io)?;
                out.push_str(&format!("fix: wrote repaired graph to {path}\n"));
            }
        }
    }
    let c = compile_or_error(g, machine)?;
    failed |= report_schedule("psa", g, &c.psa.weights, &c.psa.schedule, out);
    let (s, w) = spmd_schedule(g, machine);
    failed |= report_schedule("spmd", g, &w, &s, out);
    let tp = task_parallel_schedule(g, machine);
    failed |= report_schedule("task-parallel", g, &tp.weights, &tp.schedule, out);
    out.push('\n');
    Ok(failed)
}

/// [`compile`] on the full solver ladder, a failure reported the way the
/// `compile` command reports one (`solver failed: ...`, exit 2).
/// The simulated program's size: tasks, the transfers the lowering
/// emitted, and the messages they expand to, split as the run executed
/// them.
fn program_line(prog: &TaskProgram, sim: &SimResult) -> String {
    format!(
        "{} tasks, {} transfers, {} messages ({} sent, {} local copies)\n",
        prog.tasks.len(),
        prog.transfers.len(),
        prog.message_count(),
        sim.messages_sent,
        sim.local_copies
    )
}

fn compile_or_error(g: &Mdg, machine: Machine) -> Result<Compiled, CliError> {
    let spec = SolveSpec { fast_solver: false, ..SolveSpec::new(machine) };
    compile(g, &spec).map_err(|e| CliError::Config(e.to_string()))
}

/// Append one schedule's analyzer verdict to `out`; true on violations.
fn report_schedule(label: &str, g: &Mdg, w: &MdgWeights, s: &Schedule, out: &mut String) -> bool {
    let rep = analyze_schedule(g, w, s);
    if rep.is_clean() {
        out.push_str(&format!(
            "schedule {label}: clean ({} tasks, makespan {:.6} s)\n",
            s.tasks.len(),
            s.makespan
        ));
        false
    } else {
        out.push_str(&format!("schedule {label}: VIOLATIONS\n{}", rep.render()));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;
    use paradigm_serve::Json;

    /// A fresh copy of fig1 on disk: tests run in parallel and each removes
    /// its file when done, so every call gets its own.
    fn tmp_mdg() -> String {
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let g = paradigm_mdg::example_fig1_mdg();
        let path =
            std::env::temp_dir().join(format!("paradigm-cli-test-{}-{n}.mdg", std::process::id()));
        std::fs::write(&path, to_text(&g)).expect("write temp mdg");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&Command::Help).unwrap().text;
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn demo_emits_parsable_graph() {
        for which in GALLERY_NAMES {
            let out = run(&Command::Demo { which: which.into() }).unwrap().text;
            let g = from_text(&out).expect("demo output must parse");
            assert_eq!(to_text(&g), out, "{which} round-trips through the text format");
            assert!(g.compute_node_count() >= 3);
        }
    }

    #[test]
    fn info_on_file() {
        let path = tmp_mdg();
        let out = run(&Command::Info { file: path.clone() }).unwrap().text;
        assert!(out.contains("3 compute"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn compile_roundtrip_via_parser() {
        let path = tmp_mdg();
        let parsed =
            parse_args(&["compile", &path, "-p", "4", "--gantt", "--csv", "--svg"]).unwrap();
        let out = run(&parsed.command).unwrap().text;
        assert!(out.contains("T_psa = 14.3"), "{out}");
        assert!(out.contains("Gantt"));
        assert!(out.contains("node,name,procs,start,finish"));
        assert!(out.contains("<svg "));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn compile_rejects_a_spec_the_pipeline_cannot_run_with_exit_code_2() {
        let path = tmp_mdg();
        for pb in [["-p", "4", "--pb", "3"], ["-p", "4", "--pb", "8"]] {
            for admm in [&[][..], &["--admm"][..]] {
                let argv: Vec<&str> =
                    ["compile", &path].into_iter().chain(pb).chain(admm.iter().copied()).collect();
                let err = run(&parse_args(&argv).unwrap().command).expect_err("invalid spec");
                assert!(matches!(err, CliError::Config(_)), "{argv:?}: {err:?}");
                assert!(
                    err.to_string().starts_with("invalid solve spec: processor bound"),
                    "{err}"
                );
            }
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn compile_on_the_consensus_tier_prints_the_dense_report_plus_its_own_lines() {
        let path = tmp_mdg();
        let out = run(&parse_args(&["compile", &path, "-p", "4", "--admm"]).unwrap().command);
        let out = out.expect("fig1 solves on the consensus tier");
        assert!(!out.failed, "a converged consensus solve is clean:\n{}", out.text);
        assert!(out.text.contains("via consensus ADMM (PB = "), "{}", out.text);
        assert!(out.text.contains("admm: 1 blocks (0 cut edges)"), "{}", out.text);
        assert!(out.text.contains("idling-situation time"), "the dense idle line: {}", out.text);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn simulate_mpmd_and_spmd() {
        let path = tmp_mdg();
        let mpmd =
            run(&Command::Simulate { file: path.clone(), procs: 4, spmd: false, trace: true })
                .unwrap()
                .text;
        assert!(mpmd.contains("MPMD execution"));
        assert!(mpmd.contains("worst finish-time error"));
        let spmd =
            run(&Command::Simulate { file: path.clone(), procs: 4, spmd: true, trace: false })
                .unwrap()
                .text;
        assert!(spmd.contains("SPMD execution"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn build_and_load_mini_source() {
        let src = "program demo\nmatrix A(64,64), B(64,64), C(64,64)\nA = init()\nB = init()\nC = A * B\n";
        let path =
            std::env::temp_dir().join(format!("paradigm-cli-test-{}.mini", std::process::id()));
        std::fs::write(&path, src).expect("write temp mini");
        let p = path.to_string_lossy().into_owned();
        // build: emits parsable .mdg text.
        let out = run(&Command::Build { file: p.clone() }).unwrap().text;
        assert!(from_text(&out).is_ok(), "{out}");
        // info: loads the .mini directly.
        let info = run(&Command::Info { file: p.clone() }).unwrap().text;
        assert!(info.contains("3 compute"), "{info}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn transform_emits_parsable_graph() {
        let path = tmp_mdg();
        let out =
            run(&Command::Transform { file: path.clone(), fuse: true, reduce: true }).unwrap().text;
        assert!(out.contains("fuse_serial_chains"));
        // Strip the note comments; the remainder must reparse.
        let body: String =
            out.lines().filter(|l| !l.starts_with('#')).collect::<Vec<_>>().join("\n");
        assert!(from_text(&body).is_ok(), "{body}");
        let _ = std::fs::remove_file(path);
    }

    /// Two valid nodes whose fused `tau` and whose `Phi` overflow to
    /// infinity: every command on it ends in a typed error (exit 2).
    #[test]
    fn an_overflowing_graph_is_a_typed_error_not_a_panic() {
        let big = "mdg big\nnode 0 \"a\" alpha=0.5 tau=1e308\nnode 1 \"b\" alpha=0.5 tau=1e308\nedge 0 1\n";
        let path =
            std::env::temp_dir().join(format!("paradigm-cli-big-{}.mdg", std::process::id()));
        std::fs::write(&path, big).unwrap();
        let p = path.to_string_lossy().into_owned();
        let run_argv = |argv: &[&str]| run(&parse_args(argv).unwrap().command);
        let err = run_argv(&["transform", &p, "--fuse"]).expect_err("fused tau is inf");
        let tau =
            paradigm_mdg::MdgError::InvalidCost { node: 0, param: paradigm_mdg::CostParam::Tau };
        assert!(matches!(&err, CliError::Graph(e) if *e == tau), "{err:?}");
        for argv in [&["analyze", &p, "-p", "4"][..], &["simulate", &p, "-p", "4"]] {
            let err = run_argv(argv).expect_err("Phi is inf");
            assert!(matches!(err, CliError::Config(_)), "{argv:?}: {err:?}");
            assert!(err.to_string().starts_with("solver failed: "), "{argv:?}: {err}");
        }
        // The SPMD lowering needs no allocation, so `--spmd` runs no solve.
        let spmd = run_argv(&["simulate", &p, "-p", "4", "--spmd"]).expect("no solve, no error");
        assert!(spmd.text.starts_with("SPMD execution of `big`"), "{}", spmd.text);
        let _ = std::fs::remove_file(path);
    }

    /// `simulate` reports the program it ran: strassen at p = 64 lowers to
    /// 50 transfers that expand to 672 messages, 620 of them sent and 52
    /// local copies under the CLI's full-solver schedule.
    #[test]
    fn simulate_prints_the_programs_tasks_transfers_and_messages() {
        let g = paradigm_mdg::strassen_mdg(128, &KernelCostTable::cm5());
        let path =
            std::env::temp_dir().join(format!("paradigm-cli-strassen-{}.mdg", std::process::id()));
        std::fs::write(&path, to_text(&g)).unwrap();
        let p = path.to_string_lossy().into_owned();
        let out = run(&parse_args(&["simulate", &p, "-p", "64"]).unwrap().command).unwrap().text;
        let _ = std::fs::remove_file(path);
        let line = "35 tasks, 50 transfers, 672 messages (620 sent, 52 local copies)";
        assert_eq!(out.lines().nth(1), Some(line), "{out}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = run(&Command::Info { file: "/nonexistent/x.mdg".into() }).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn analyze_file_reports_lints_and_every_schedule() {
        let path = tmp_mdg();
        let parsed = parse_args(&["analyze", &path, "-p", "4"]).unwrap();
        let out = run(&parsed.command).unwrap().text;
        assert!(out.contains("lints: clean"), "{out}");
        assert!(out.contains("schedule psa: clean"), "{out}");
        assert!(out.contains("schedule spmd: clean"), "{out}");
        assert!(out.contains("schedule task-parallel: clean"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_gallery_is_clean_under_deny_warnings() {
        let res = run(&Command::Analyze {
            file: None,
            procs: 16,
            machine: "cm5".into(),
            gallery: true,
            fix: false,
            write: false,
            strict: true,
            mem_mb: None,
        })
        .unwrap();
        assert!(!res.failed, "gallery must be clean even under -D");
        let out = res.text;
        // One header per gallery graph, each clean.
        assert_eq!(out.matches("== `").count(), 9, "{out}");
        assert_eq!(out.matches("lints: clean").count(), 9, "{out}");
        assert!(!out.contains("VIOLATIONS"), "{out}");
    }

    #[test]
    fn analyze_mesh_machine_schedules_clean() {
        // The synthetic mesh exercises t_n > 0: the transfer weights gain
        // the per-byte network term and every schedule still checks.
        let path = tmp_mdg();
        let parsed = parse_args(&["analyze", &path, "-p", "8", "--machine", "mesh"]).unwrap();
        let out = run(&parsed.command).unwrap().text;
        assert!(out.contains("on 8 processors"), "{out}");
        assert!(!out.contains("objective:"), "{out}");
        assert!(!out.contains("VIOLATIONS"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn resources_json_is_the_certificate_and_check_cert_round_trips() {
        let path = tmp_mdg();
        let parsed = parse_args(&["analyze", "resources", &path, "-p", "4", "--json"]).unwrap();
        let line = run(&parsed.command).unwrap().text;
        let doc = paradigm_serve::parse_json(line.trim_end()).expect("valid JSON");
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(3));

        // Round trip: the emitted certificate passes check-cert clean.
        let cert_path =
            std::env::temp_dir().join(format!("paradigm-cli-cert-{}.json", std::process::id()));
        let check = |text: &str| {
            std::fs::write(&cert_path, text).unwrap();
            run(&Command::CheckCert { file: cert_path.to_string_lossy().into_owned() }).unwrap()
        };
        let res = check(&line);
        assert!(!res.failed, "{}", res.text);
        assert!(res.text.contains("certificate OK"), "{}", res.text);

        // A tampered version or verdict is refuted with exit-code-1 semantics.
        for (from, to) in
            [("\"version\":3", "\"version\":99"), ("\"feasible\":true", "\"feasible\":false")]
        {
            assert!(line.contains(from), "{line}");
            let res = check(&line.replace(from, to));
            assert!(res.failed, "{to}: {}", res.text);
            assert!(res.text.contains("REJECTED"), "{}", res.text);
        }
        let _ = std::fs::remove_file(cert_path);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn check_cert_takes_the_gallery_output_one_document_per_line() {
        let parsed = parse_args(&["analyze", "resources", "--gallery", "-p", "64", "--json"]);
        let text = run(&parsed.unwrap().command).unwrap().text;
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), GALLERY_NAMES.len(), "{text}");
        let cert_path =
            std::env::temp_dir().join(format!("paradigm-cli-certs-{}.json", std::process::id()));
        let check = |text: &str| {
            std::fs::write(&cert_path, text).unwrap();
            run(&Command::CheckCert { file: cert_path.to_string_lossy().into_owned() }).unwrap()
        };
        // Every document passes, with one summary per graph; blank lines
        // between documents are skipped.
        let res = check(&format!("{}\n\n{}", lines[..4].join("\n"), lines[4..].join("\n")));
        assert!(!res.failed, "{}", res.text);
        let summaries: Vec<&str> = res.text.lines().collect();
        assert_eq!(summaries.len(), GALLERY_NAMES.len(), "{}", res.text);
        assert!(summaries.iter().all(|s| s.starts_with("certificate OK: `")), "{}", res.text);
        assert!(summaries[3].contains("`strassen-128x128-L2` on 64 processors"), "{}", res.text);

        // A tamper in the fourth document fails the run at its line, after
        // the three summaries before it.
        let mut tampered = lines.clone();
        let fourth = tampered[3].replace("\"feasible\":true", "\"feasible\":false");
        assert_ne!(fourth, tampered[3]);
        tampered[3] = &fourth;
        let res = check(&tampered.join("\n"));
        assert!(res.failed, "{}", res.text);
        let out: Vec<&str> = res.text.lines().collect();
        assert!(out[..3].iter().all(|s| s.starts_with("certificate OK: `")), "{}", res.text);
        assert!(out[3].starts_with("line 4: certificate REJECTED at document: "), "{}", res.text);

        let res = check("\n  \n");
        assert!(res.failed && res.text.contains("holds no document"), "{}", res.text);
        let _ = std::fs::remove_file(cert_path);
    }

    #[test]
    fn analyze_fix_write_repairs_a_dirty_graph() {
        // A graph with a fixable warning: a zero-byte transfer (the
        // text parser already rejects out-of-range alpha/tau, so unit
        // sanity is the fixable class that can reach the CLI from disk).
        let dirty = "mdg dirty\nnode 0 \"a\" alpha=0.3 tau=2\nnode 1 \"b\" alpha=0.5 tau=1\nedge 0 1 xfer 0 1d\n";
        let path =
            std::env::temp_dir().join(format!("paradigm-cli-fix-{}.mdg", std::process::id()));
        std::fs::write(&path, dirty).unwrap();
        let p = path.to_string_lossy().into_owned();
        let parsed = parse_args(&["analyze", &p, "-p", "4", "-D", "--fix", "--write"]).unwrap();
        let res = run(&parsed.command).unwrap();
        assert!(res.failed, "dirty graph must fail under -D: {}", res.text);
        assert!(res.text.contains("fix:"), "{}", res.text);
        assert!(res.text.contains("-edge 0 1 xfer 0 1d"), "diff shows removal: {}", res.text);
        // The written file is now clean, even under -D.
        let parsed = parse_args(&["analyze", &p, "-p", "4", "-D"]).unwrap();
        let res = run(&parsed.command).unwrap();
        assert!(!res.failed, "repaired graph must be clean: {}", res.text);
        // Idempotency: a second `--fix --write` finds nothing to fix and
        // leaves the file byte-identical (empty diff).
        let before = std::fs::read_to_string(&p).unwrap();
        let parsed = parse_args(&["analyze", &p, "-p", "4", "--fix", "--write"]).unwrap();
        let res = run(&parsed.command).unwrap();
        assert!(res.text.contains("fix: nothing to fix"), "{}", res.text);
        assert_eq!(
            before,
            std::fs::read_to_string(&p).unwrap(),
            "second --fix --write must be a no-op"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_resources_human_and_json_reports() {
        let path = tmp_mdg();
        let parsed = parse_args(&["analyze", "resources", &path, "-p", "4"]).unwrap();
        let res = run(&parsed.command).unwrap();
        assert!(!res.failed, "{}", res.text);
        assert!(res.text.contains("resource analysis:"), "{}", res.text);
        assert!(res.text.contains("verdict: feasible"), "{}", res.text);
        let parsed = parse_args(&["analyze", "resources", &path, "--json"]).unwrap();
        let res = run(&parsed.command).unwrap();
        let doc = paradigm_serve::parse_json(res.text.lines().next().unwrap()).unwrap();
        assert_eq!(doc.get("graph").and_then(Json::as_str), Some("fig1-example"));
        assert_eq!(doc.get("feasible").and_then(Json::as_bool), Some(true));
        assert!(doc.get("peak_interval").is_some());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_resources_gallery_is_feasible_even_strict() {
        let parsed = parse_args(&["analyze", "resources", "--gallery", "-p", "16", "-D"]).unwrap();
        let res = run(&parsed.command).unwrap();
        assert!(!res.failed, "{}", res.text);
        assert_eq!(res.text.matches("resource analysis:").count(), 9, "{}", res.text);
        assert!(!res.text.contains("INFEASIBLE"), "{}", res.text);
    }

    #[test]
    fn analyze_resources_rejects_an_oversized_graph() {
        use paradigm_mdg::{AmdahlParams, ArrayTransfer, LoopClass, LoopMeta, MdgBuilder};
        let mut b = MdgBuilder::new("huge");
        let a = b.compute_with_meta(
            "a",
            AmdahlParams::new(0.1, 1.0),
            LoopMeta::square(LoopClass::MatrixInit, 1024),
        );
        let c = b.compute_with_meta(
            "c",
            AmdahlParams::new(0.1, 1.0),
            LoopMeta::square(LoopClass::MatrixAdd, 1024),
        );
        b.edge(a, c, vec![ArrayTransfer::matrix_1d(1024, 1024)]);
        let g = b.finish().unwrap();
        let path =
            std::env::temp_dir().join(format!("paradigm-cli-huge-{}.mdg", std::process::id()));
        std::fs::write(&path, to_text(&g)).unwrap();
        let p = path.to_string_lossy().into_owned();
        // An 8 MiB working set per node cannot fit 4 processors with
        // 1 MiB each; the analyzer proves it and the lint names it.
        let parsed = parse_args(&["analyze", "resources", &p, "-p", "4", "--mem-mb", "1"]).unwrap();
        let res = run(&parsed.command).unwrap();
        assert!(res.failed, "{}", res.text);
        assert!(res.text.contains("INFEASIBLE"), "{}", res.text);
        assert!(res.text.contains("memory-infeasible"), "{}", res.text);
        // The same graph fits the default cm5 memory.
        let parsed = parse_args(&["analyze", "resources", &p, "-p", "4"]).unwrap();
        let res = run(&parsed.command).unwrap();
        assert!(!res.failed, "{}", res.text);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn calibrate_renders_tables() {
        let out = run(&Command::Calibrate { procs: 16 }).unwrap().text;
        assert!(out.contains("Table 1"));
        assert!(out.contains("t_ss"));
    }
}
