//! Hand-rolled argument parsing (std only, unit-testable): one table
//! of sub-commands, each declaring its flags once, and one loop that
//! parses them.

use std::net::SocketAddr;

use paradigm_core::MAX_PROCS;
use paradigm_serve::FaultPlan;

use crate::bench_admm::BenchAdmmOpts;

/// The selected subcommand with its options.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `info <file>`: print graph statistics.
    Info {
        /// MDG file path.
        file: String,
    },
    /// `compile <file> -p N [...]`: allocate and schedule.
    Compile {
        /// MDG file path.
        file: String,
        /// Machine size.
        procs: u32,
        /// Explicit PB (None = Corollary 1).
        pb: Option<u32>,
        /// Use the HLF ready-queue priority instead of lowest-EST.
        hlf: bool,
        /// Print the Gantt chart.
        gantt: bool,
        /// Print the schedule as CSV.
        csv: bool,
        /// Print the schedule as an SVG Gantt chart.
        svg: bool,
        /// Run the post-PSA reallocation refinement.
        refine: bool,
        /// Force the consensus-ADMM distributed solver tier.
        admm: bool,
    },
    /// `simulate <file> -p N [...]`: compile, lower, execute.
    Simulate {
        /// MDG file path.
        file: String,
        /// Machine size.
        procs: u32,
        /// Run the SPMD lowering instead of the compiled MPMD one.
        spmd: bool,
        /// Print the per-task predicted-vs-actual trace.
        trace: bool,
    },
    /// `calibrate [-p N]`: run the training campaign and print fits.
    Calibrate {
        /// Machine size.
        procs: u32,
    },
    /// `transform <file> [--fuse] [--reduce]`: apply graph transforms
    /// and print the result as MDG text.
    Transform {
        /// Graph file path.
        file: String,
        /// Fuse serial chains (bottom-up coalescing).
        fuse: bool,
        /// Remove transitively redundant precedence edges.
        reduce: bool,
    },
    /// `build <file.mini>`: compile a mini-language program to MDG text.
    Build {
        /// Mini-language source path.
        file: String,
    },
    /// `demo <name>`: print a built-in graph in the text format.
    Demo {
        /// One of `fig1`, `cmm`, `strassen`.
        which: String,
    },
    /// `analyze [<file>] [-p N] [--machine <spec>] [--gallery] [--cert]
    /// [--cert-json] [--dot] [--fix [--write]] [-D]`: lint the graph,
    /// certify the objective's convexity, and check the schedules the
    /// pipeline produces for it. Exits 0 when clean, 1 on findings, 2
    /// on usage/internal errors.
    Analyze {
        /// MDG file path; `None` requires `--gallery`.
        file: Option<String>,
        /// Machine size the objective/schedules are analyzed for.
        procs: u32,
        /// Machine spec (`cm5`, `mesh`, `paragon`, `sp1`); `mesh` has a
        /// non-zero per-byte network term.
        machine: String,
        /// Analyze every built-in gallery graph instead of a file.
        gallery: bool,
        /// Print the full derivation tree of the `A_p` certificate.
        cert: bool,
        /// Emit the certifier derivation trees as one JSON line per
        /// graph.
        cert_json: bool,
        /// Emit the certificate derivation tree as Graphviz DOT.
        dot: bool,
        /// Apply every mechanical lint fix and print the unified diff.
        fix: bool,
        /// With `--fix`: write the repaired graph back to the file.
        write: bool,
        /// Strict mode: warnings (not just errors) fail the run.
        strict: bool,
        /// Per-processor memory capacity override in MiB (None = the
        /// machine family's default).
        mem_mb: Option<u64>,
    },
    /// `analyze resources [<file>] [-p N] [--machine <spec>]
    /// [--mem-mb <n>] [--gallery] [--json] [-D]`: run the static
    /// resource analyzer — sound per-processor memory and communication
    /// bounds with no simulation and no solver. Exits 0 when every
    /// graph provably fits, 1 on findings.
    AnalyzeResources {
        /// MDG file path; `None` requires `--gallery`.
        file: Option<String>,
        /// Machine size the bounds are computed for.
        procs: u32,
        /// Machine spec (`cm5`, `mesh`, `paragon`, `sp1`).
        machine: String,
        /// Per-processor memory capacity override in MiB.
        mem_mb: Option<u64>,
        /// Analyze every built-in gallery graph instead of a file.
        gallery: bool,
        /// Emit one JSON line per graph instead of the human report.
        json: bool,
        /// Strict mode: warnings (not just errors) fail the run.
        strict: bool,
    },
    /// `analyze check-cert <cert.json>`: independently re-validate a
    /// `--cert-json` certificate with interval arithmetic — no solver
    /// in the loop. Exits 0 if the certificate holds, 1 if refuted.
    CheckCert {
        /// Certificate JSON file path (as emitted by `--cert-json`).
        file: String,
    },
    /// `serve [--port N] [--workers N] [--cache N] [--queue N]
    /// [--max-queue-wait ms] [--chaos plan]`: run the NDJSON-over-TCP
    /// scheduling service until SIGINT or a client's `{"op":"shutdown"}`.
    Serve {
        /// TCP port on 127.0.0.1 (0 = OS-assigned).
        port: u16,
        /// Worker threads (0 = available parallelism).
        workers: usize,
        /// Result-cache capacity in entries.
        cache: usize,
        /// Bounded job-queue capacity.
        queue: usize,
        /// Shed submissions after this many milliseconds on a full
        /// queue (`None` = block indefinitely).
        max_queue_wait_ms: Option<u64>,
        /// Fault-injection plan for chaos drills (see
        /// `FaultPlan::parse` for the spec syntax).
        chaos: Option<paradigm_serve::FaultPlan>,
        /// Audit every `N`th completed response with an independent
        /// schedule re-verification (0 = off).
        audit_rate: u64,
        /// Accept `admm_block` frames (the distributed-ADMM worker
        /// role).
        worker: bool,
        /// Route ADMM-tier solves through these TCP worker addresses
        /// (empty = in-process backend).
        admm_workers: Vec<std::net::SocketAddr>,
        /// Bounded-staleness budget per ADMM block (0 = strict
        /// synchronous barrier).
        admm_stale: usize,
        /// Per-block-job deadline in milliseconds (None = fleet
        /// default).
        block_deadline_ms: Option<u64>,
        /// Append-only file persisting the auditor's first-failure
        /// record across restarts.
        audit_log: Option<String>,
    },
    /// `bench-solve [--quick] [--out <path>]`: run the solver
    /// micro/end-to-end benchmark over the gallery and random MDGs
    /// and emit the `BENCH_solver.json` report.
    BenchSolve {
        /// Trim the case list (drop the largest random graph) and the
        /// repetition counts — the CI perf-smoke configuration.
        quick: bool,
        /// Write the JSON report here (in addition to stdout).
        out: Option<String>,
    },
    /// `partition <file> [--blocks N] [-p N]`: run the multilevel MDG
    /// partitioner and print the block map, cut summary, and balance.
    Partition {
        /// MDG file path.
        file: String,
        /// Machine size (node weights scale with the allocation box).
        procs: u32,
        /// Force a block count (default: the solver's size heuristic).
        blocks: Option<usize>,
    },
    /// `bench-admm [--quick] [--out <path>] [--fleet <n> ...]`: run the
    /// consensus-ADMM benchmark over seeded large MDGs, each beside its
    /// dense solve, and emit the `BENCH_admm.json` report.
    BenchAdmm(BenchAdmmOpts),
    /// `race [--bound <n>] [--suite <name|all>]`: run the concurrency
    /// model-check suites over the serving/consensus/solver core. In a
    /// normal build each suite is a single native smoke run; in a
    /// `--cfg paradigm_race` build every interleaving up to the
    /// preemption bound is explored and failing schedules are printed
    /// as replayable numbered traces. Exits 0 when every suite passes,
    /// 1 on any violation or lock-order cycle.
    Race {
        /// Preemption-bound override applied to every suite (`None` =
        /// each suite's own default).
        bound: Option<usize>,
        /// Run only the named suite (`None` or `all` = every suite).
        suite: Option<String>,
    },
    /// `help`.
    Help,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedArgs {
    /// The command to run.
    pub command: Command,
}

/// The usage text.
pub const USAGE: &str = "\
paradigm — convex-programming allocation & PSA scheduling for MDGs

USAGE:
  paradigm info <file.mdg>
  paradigm compile <file.mdg> -p <procs> [--pb <n>] [--hlf] [--refine] [--admm]
                              [--gantt] [--csv] [--svg]
  paradigm simulate <file.mdg> -p <procs> [--spmd] [--trace]
  paradigm calibrate [-p <procs>]
  paradigm build <file.mini>
  paradigm transform <file> [--fuse] [--reduce]
  paradigm demo <fig1|cmm|strassen>
  paradigm analyze <file.mdg> [-p <procs>] [--machine <cm5|mesh|paragon|sp1>] [--mem-mb <n>]
                              [--cert] [--cert-json] [--dot] [--fix [--write]] [-D]
  paradigm analyze --gallery [-p <procs>] [--machine <spec>]
  paradigm analyze resources <file.mdg|--gallery> [-p <procs>] [--machine <spec>] [--mem-mb <n>]
                             [--json] [-D]
  paradigm analyze check-cert <cert.json>
  paradigm partition <file.mdg> [--blocks <n>] [-p <procs>]
  paradigm serve [--port <n>] [--workers <n>] [--cache <n>] [--queue <n>]
                 [--max-queue-wait <ms>] [--chaos <plan>] [--audit-rate <n>]
                 [--audit-log <path>] [--worker]
                 [--admm-workers <addr,addr,...>] [--admm-stale <n>] [--block-deadline-ms <ms>]
  paradigm bench-solve [--quick] [--out <path>]
  paradigm bench-admm [--quick] [--out <path>] [--fleet <n>] [--chaos <plan>]
                      [--kill-after-ms <ms>] [--admm-stale <n>] [--block-deadline-ms <ms>]
  paradigm race [--bound <n>] [--suite <name|all>]
  paradigm help

Chaos plans are comma-separated key=value items, e.g.
  --chaos seed=42,panic=0.3,slow=0.2:50,stall=0.1:20,drop=0.1,truncate=0.05
Worker-level ADMM faults use the block-* sites, e.g.
  --chaos seed=7,block-crash=0.2,block-slow=0.3:40,block-drop=0.1,block-truncate=0.05

Distributed ADMM: start workers with `serve --worker`, then point a
coordinator at them with `--admm-workers`. `--admm-stale 0` keeps the
strict synchronous barrier (bitwise-identical to in-process);
`--admm-stale N` lets a round reuse a block's last solution for up to N
rounds when its fresh solve misses `--block-deadline-ms`.

Model checking: `race` runs the concurrency suites (queue, breaker,
cache, service, consensus, pool). A normal build gives one native smoke
run per suite; rebuild with RUSTFLAGS=\"--cfg paradigm_race\" to
exhaustively explore every interleaving up to the preemption bound and
get replayable numbered traces for failures (see DESIGN.md section 15).

Graph inputs may be .mdg files (graph text format) or .mini files
(matrix-program language, compiled on the fly).

Exit codes: 0 = clean, 1 = findings (lint/certificate/schedule/audit
failures), 2 = usage or internal error.
";

/// What a valued flag takes and how it is checked.
#[derive(Clone, Copy)]
enum Kind {
    /// An integer in `min..=max`.
    Int { min: u64, max: u64 },
    /// One of [`paradigm_core::MACHINE_SPECS`].
    Machine,
    /// A comma-separated `host:port` list with at least one entry.
    Addrs,
    /// A [`FaultPlan`] spec.
    Chaos,
    /// Any text: a path, a suite name.
    Text,
}

/// A positive count, and one where 0 means "auto" or "off".
const COUNT: Kind = Kind::Int { min: 1, max: usize::MAX as u64 };
const COUNT0: Kind = Kind::Int { min: 0, max: usize::MAX as u64 };
/// A machine size or processor bound, as `SolveSpec::validate` admits it.
const PROCS: Kind = Kind::Int { min: 1, max: MAX_PROCS as u64 };

fn parse_addrs(v: &str) -> Option<Vec<SocketAddr>> {
    let addrs: Option<Vec<SocketAddr>> =
        v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(|s| s.parse().ok()).collect();
    addrs.filter(|a| !a.is_empty())
}

impl Kind {
    /// Whether `v` is a value `flag` takes.
    fn check(self, flag: &str, v: &str) -> Result<(), UsageError> {
        let wants = match self {
            Kind::Text => return Ok(()),
            Kind::Chaos => {
                let plan = FaultPlan::parse(v);
                return plan.map(drop).map_err(|e| UsageError(format!("bad chaos plan: {e}")));
            }
            Kind::Int { min, max } if v.parse().is_ok_and(|n| (min..=max).contains(&n)) => {
                return Ok(())
            }
            Kind::Int { min, max: u64::MAX } => format!("an integer, at least {min}"),
            Kind::Int { min, max } => format!("an integer in {min}..={max}"),
            Kind::Machine if paradigm_core::MACHINE_SPECS.contains(&v) => return Ok(()),
            Kind::Machine => format!("one of {}", paradigm_core::MACHINE_SPECS.join(", ")),
            Kind::Addrs if parse_addrs(v).is_some() => return Ok(()),
            Kind::Addrs => "at least one host:port, comma-separated".to_string(),
        };
        Err(UsageError(format!("{flag} wants {wants}, got `{v}`")))
    }
}

/// A flag that takes a value: its spellings, `|`-separated ([`Parsed`] is
/// asked by the first), the kind of value, and the value when the flag is
/// not given, as it would be typed (`None` = 0 / absent).
type Flag = (&'static str, Kind, Option<&'static str>);

/// Flags several sub-commands share.
const PROCS_16: Flag = ("--procs|-p", PROCS, Some("16"));
const PROCS_REQUIRED: Flag = ("--procs|-p", PROCS, None);
const MACHINE: Flag = ("--machine", Kind::Machine, Some("cm5"));
const MEM_MB: Flag = ("--mem-mb", Kind::Int { min: 1, max: u64::MAX }, None);
const OUT: Flag = ("--out", Kind::Text, None);
const CHAOS: Flag = ("--chaos", Kind::Chaos, None);
const ADMM_STALE: Flag = ("--admm-stale", COUNT0, None);
const BLOCK_DEADLINE_MS: Flag = ("--block-deadline-ms", COUNT, None);

/// What a sub-command's one positional argument is called.
const FILE: Option<&str> = Some("a file");

/// One sub-command: its name as typed (sub-word included), its one
/// positional argument (`None` = it takes none), its switches (spellings
/// `|`-separated) and its valued flags.
type Spec = (&'static str, Option<&'static str>, &'static [&'static str], &'static [Flag]);

/// Every sub-command, each flag declared once. [`build`] turns the parsed
/// flags into a [`Command`].
static SPECS: &[Spec] = &[
    ("help", None, &[], &[]),
    ("info", FILE, &[], &[]),
    ("build", FILE, &[], &[]),
    ("demo", Some("a name"), &[], &[]),
    ("transform", FILE, &["--fuse", "--reduce"], &[]),
    (
        "compile",
        FILE,
        &["--hlf", "--gantt", "--csv", "--svg", "--refine", "--admm"],
        &[PROCS_REQUIRED, ("--pb", PROCS, None)],
    ),
    ("simulate", FILE, &["--spmd", "--trace"], &[PROCS_REQUIRED]),
    ("calibrate", None, &[], &[("--procs|-p", PROCS, Some("64"))]),
    (
        "analyze",
        FILE,
        &["--gallery", "--cert", "--cert-json", "--dot", "--fix", "--write", "--deny-warnings|-D"],
        &[PROCS_16, MACHINE, MEM_MB],
    ),
    (
        "analyze resources",
        FILE,
        &["--gallery", "--json", "--deny-warnings|-D"],
        &[PROCS_16, MACHINE, MEM_MB],
    ),
    ("analyze check-cert", Some("a certificate file"), &[], &[]),
    ("partition", FILE, &[], &[PROCS_16, ("--blocks", COUNT, None)]),
    (
        "serve",
        None,
        &["--worker"],
        &[
            ("--port", Kind::Int { min: 0, max: u16::MAX as u64 }, Some("7447")),
            ("--workers", COUNT0, None),
            ("--cache", COUNT, Some("1024")),
            ("--queue", COUNT, Some("256")),
            ("--max-queue-wait", COUNT0, None),
            CHAOS,
            ("--audit-rate", COUNT0, None),
            ("--audit-log", Kind::Text, None),
            ("--admm-workers", Kind::Addrs, None),
            ADMM_STALE,
            BLOCK_DEADLINE_MS,
        ],
    ),
    ("bench-solve", None, &["--quick"], &[OUT]),
    (
        "bench-admm",
        None,
        &["--quick"],
        &[
            OUT,
            ("--fleet", COUNT0, None),
            CHAOS,
            ("--kill-after-ms", COUNT0, None),
            ADMM_STALE,
            BLOCK_DEADLINE_MS,
        ],
    ),
    ("race", None, &[], &[("--bound", COUNT0, None), ("--suite", Kind::Text, None)]),
];

/// Whether `tok` is one of the `|`-separated spellings in `names`.
fn spells(names: &str, tok: &str) -> bool {
    names.split('|').any(|n| n == tok)
}

/// One command line, checked against its [`Spec`].
struct Parsed<'a> {
    spec: &'static Spec,
    /// The positional argument.
    arg: Option<&'a str>,
    /// `(spellings, checked value)` of every flag given, in command-line
    /// order.
    vals: Vec<(&'static str, &'a str)>,
}

impl<'a> Parsed<'a> {
    fn new(spec: &'static Spec, toks: &[&'a str]) -> Result<Self, UsageError> {
        let (command, takes, switches, flags) = *spec;
        let mut parsed = Parsed { spec, arg: None, vals: Vec::new() };
        let mut it = toks.iter().copied();
        while let Some(tok) = it.next() {
            if let Some(names) = switches.iter().find(|names| spells(names, tok)) {
                parsed.vals.push((names, ""));
            } else if let Some((names, kind, _)) = flags.iter().find(|f| spells(f.0, tok)) {
                let v = it.next().ok_or_else(|| UsageError(format!("flag {tok} needs a value")))?;
                kind.check(tok, v)?;
                parsed.vals.push((names, v));
            } else if tok.starts_with('-') || takes.is_none() {
                return Err(UsageError(format!("unknown flag `{tok}`")));
            } else if parsed.arg.replace(tok).is_some() {
                return Err(UsageError(format!("{command} takes at most one argument")));
            }
        }
        Ok(parsed)
    }

    /// The last value given for the flag (`""` for a switch), else its
    /// table default.
    fn raw(&self, name: &str) -> Option<&str> {
        let given = self.vals.iter().rev().find(|(names, _)| spells(names, name)).map(|&(_, v)| v);
        given.or_else(|| self.spec.3.iter().find(|f| spells(f.0, name))?.2)
    }

    fn on(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }

    fn opt<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.raw(name)?.parse().ok()
    }

    /// The value given, else the table default, else 0.
    fn num<T: std::str::FromStr + Default>(&self, name: &str) -> T {
        self.opt(name).unwrap_or_default()
    }

    fn chaos(&self) -> Option<FaultPlan> {
        FaultPlan::parse(self.raw("--chaos")?).ok()
    }

    /// The positional argument of a command that cannot run without it.
    fn arg(&self) -> Result<String, UsageError> {
        let (command, takes, ..) = self.spec;
        let what = takes.unwrap_or("an argument");
        self.arg.map(str::to_string).ok_or_else(|| UsageError(format!("{command} needs {what}")))
    }

    /// `--procs` of a command that has no default machine size.
    fn procs(&self) -> Result<u32, UsageError> {
        self.opt("--procs").ok_or_else(|| UsageError(format!("{} needs -p <procs>", self.spec.0)))
    }

    /// `analyze [resources]`: a file, `--gallery`, or both.
    fn file_or_gallery(&self) -> Result<Option<String>, UsageError> {
        if self.arg.is_none() && !self.on("--gallery") {
            return Err(UsageError(format!("{} needs a file or --gallery", self.spec.0)));
        }
        Ok(self.arg.map(str::to_string))
    }
}

/// The [`Command`] a checked command line asks for, cross-flag rules
/// included.
fn build(p: &Parsed) -> Result<Command, UsageError> {
    let needs = |flags: &str, what: &str| Err(UsageError(format!("{flags} need {what}")));
    Ok(match p.spec.0 {
        "info" => Command::Info { file: p.arg()? },
        "build" => Command::Build { file: p.arg()? },
        "analyze check-cert" => Command::CheckCert { file: p.arg()? },
        "calibrate" => Command::Calibrate { procs: p.num("--procs") },
        "race" => Command::Race { bound: p.opt("--bound"), suite: p.opt("--suite") },
        "demo" => {
            let which = p.arg()?;
            if !["fig1", "cmm", "strassen"].contains(&which.as_str()) {
                return Err(UsageError(format!("unknown demo `{which}`")));
            }
            Command::Demo { which }
        }
        "transform" => {
            let (file, fuse, reduce) = (p.arg()?, p.on("--fuse"), p.on("--reduce"));
            if !fuse && !reduce {
                return needs("transform", "--fuse and/or --reduce");
            }
            Command::Transform { file, fuse, reduce }
        }
        "compile" => Command::Compile {
            file: p.arg()?,
            procs: p.procs()?,
            pb: p.opt("--pb"),
            hlf: p.on("--hlf"),
            gantt: p.on("--gantt"),
            csv: p.on("--csv"),
            svg: p.on("--svg"),
            refine: p.on("--refine"),
            admm: p.on("--admm"),
        },
        "simulate" => Command::Simulate {
            file: p.arg()?,
            procs: p.procs()?,
            spmd: p.on("--spmd"),
            trace: p.on("--trace"),
        },
        "analyze" => {
            let (file, fix, write) = (p.file_or_gallery()?, p.on("--fix"), p.on("--write"));
            if write && !fix {
                return needs("--write", "--fix");
            }
            if write && file.is_none() {
                return needs("--write", "a file (not --gallery)");
            }
            Command::Analyze {
                file,
                procs: p.num("--procs"),
                machine: p.num("--machine"),
                gallery: p.on("--gallery"),
                cert: p.on("--cert"),
                cert_json: p.on("--cert-json"),
                dot: p.on("--dot"),
                fix,
                write,
                strict: p.on("--deny-warnings"),
                mem_mb: p.opt("--mem-mb"),
            }
        }
        "analyze resources" => Command::AnalyzeResources {
            file: p.file_or_gallery()?,
            procs: p.num("--procs"),
            machine: p.num("--machine"),
            mem_mb: p.opt("--mem-mb"),
            gallery: p.on("--gallery"),
            json: p.on("--json"),
            strict: p.on("--deny-warnings"),
        },
        "partition" => {
            let (file, procs) = (p.arg()?, p.num("--procs"));
            Command::Partition { file, procs, blocks: p.opt("--blocks") }
        }
        "serve" => {
            let admm_workers = p.raw("--admm-workers").and_then(parse_addrs).unwrap_or_default();
            let (admm_stale, block_deadline_ms) =
                (p.num("--admm-stale"), p.opt("--block-deadline-ms"));
            if admm_workers.is_empty() && (admm_stale != 0 || block_deadline_ms.is_some()) {
                return needs("--admm-stale/--block-deadline-ms", "--admm-workers");
            }
            Command::Serve {
                port: p.num("--port"),
                workers: p.num("--workers"),
                cache: p.num("--cache"),
                queue: p.num("--queue"),
                max_queue_wait_ms: p.opt("--max-queue-wait"),
                chaos: p.chaos(),
                audit_rate: p.num("--audit-rate"),
                worker: p.on("--worker"),
                admm_workers,
                admm_stale,
                block_deadline_ms,
                audit_log: p.opt("--audit-log"),
            }
        }
        "bench-solve" => Command::BenchSolve { quick: p.on("--quick"), out: p.opt("--out") },
        "bench-admm" => {
            let (fleet, chaos, admm_stale) = (p.num("--fleet"), p.chaos(), p.num("--admm-stale"));
            let (kill_after_ms, block_deadline_ms) =
                (p.opt("--kill-after-ms"), p.opt("--block-deadline-ms"));
            let fleet_only = chaos.is_some()
                || kill_after_ms.is_some()
                || admm_stale != 0
                || block_deadline_ms.is_some();
            if fleet == 0 && fleet_only {
                return needs(
                    "--chaos/--kill-after-ms/--admm-stale/--block-deadline-ms",
                    "--fleet",
                );
            }
            Command::BenchAdmm(BenchAdmmOpts {
                quick: p.on("--quick"),
                out: p.opt("--out"),
                fleet,
                chaos,
                kill_after_ms,
                admm_stale,
                block_deadline_ms,
            })
        }
        "help" => Command::Help,
        other => return Err(UsageError(format!("`{other}` is in the table but has no arm here"))),
    })
}

/// Parse `argv[1..]`.
pub fn parse_args<S: AsRef<str>>(argv: &[S]) -> Result<ParsedArgs, UsageError> {
    let toks: Vec<&str> = argv.iter().map(|s| s.as_ref()).collect();
    let (command, rest) = match toks.as_slice() {
        [] | ["--help" | "-h", ..] => ("help".to_string(), &toks[..0]),
        ["analyze", sub @ ("resources" | "check-cert"), rest @ ..] => {
            (format!("analyze {sub}"), rest)
        }
        [cmd, rest @ ..] => (cmd.to_string(), rest),
    };
    let unknown = || UsageError(format!("unknown command `{command}`"));
    let spec = SPECS.iter().find(|s| s.0 == command).ok_or_else(unknown)?;
    Ok(ParsedArgs { command: build(&Parsed::new(spec, rest)?)? })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_argv_is_help() {
        let p = parse_args::<&str>(&[]).unwrap();
        assert_eq!(p.command, Command::Help);
    }

    #[test]
    fn race_defaults() {
        let p = parse_args(&["race"]).unwrap();
        assert_eq!(p.command, Command::Race { bound: None, suite: None });
    }

    #[test]
    fn race_full_flags() {
        let p = parse_args(&["race", "--bound", "3", "--suite", "breaker"]).unwrap();
        assert_eq!(p.command, Command::Race { bound: Some(3), suite: Some("breaker".into()) });
    }

    #[test]
    fn race_rejects_bad_flags() {
        assert!(parse_args(&["race", "--bound"]).is_err());
        assert!(parse_args(&["race", "--bound", "x"]).is_err());
        assert!(parse_args(&["race", "--nope"]).is_err());
    }

    #[test]
    fn compile_full_flags() {
        let p = parse_args(&["compile", "g.mdg", "-p", "64", "--pb", "16", "--hlf", "--gantt"])
            .unwrap();
        assert_eq!(
            p.command,
            Command::Compile {
                file: "g.mdg".into(),
                procs: 64,
                pb: Some(16),
                hlf: true,
                gantt: true,
                csv: false,
                svg: false,
                refine: false,
                admm: false,
            }
        );
    }

    #[test]
    fn compile_requires_procs() {
        let e = parse_args(&["compile", "g.mdg"]).unwrap_err();
        assert!(e.0.contains("-p"));
    }

    #[test]
    fn simulate_flags() {
        let p = parse_args(&["simulate", "g.mdg", "--procs", "32", "--spmd"]).unwrap();
        assert_eq!(
            p.command,
            Command::Simulate { file: "g.mdg".into(), procs: 32, spmd: true, trace: false }
        );
    }

    #[test]
    fn bad_procs_rejected() {
        assert!(parse_args(&["compile", "g", "-p", "zero"]).is_err());
        assert!(parse_args(&["compile", "g", "-p", "0"]).is_err());
    }

    #[test]
    fn unknown_command_and_flag_rejected() {
        assert!(parse_args(&["frobnicate"]).is_err());
        assert!(parse_args(&["info"]).is_err());
        assert!(parse_args(&["compile", "g", "-p", "4", "--wat"]).is_err());
    }

    #[test]
    fn demo_names_validated() {
        assert!(parse_args(&["demo", "cmm"]).is_ok());
        assert!(parse_args(&["demo", "nope"]).is_err());
    }

    #[test]
    fn transform_command_parses() {
        let p = parse_args(&["transform", "g.mdg", "--fuse", "--reduce"]).unwrap();
        assert_eq!(
            p.command,
            Command::Transform { file: "g.mdg".into(), fuse: true, reduce: true }
        );
        assert!(parse_args(&["transform", "g.mdg"]).is_err(), "needs a flag");
    }

    #[test]
    fn build_command_parses() {
        let p = parse_args(&["build", "prog.mini"]).unwrap();
        assert_eq!(p.command, Command::Build { file: "prog.mini".into() });
        assert!(parse_args(&["build"]).is_err());
    }

    #[test]
    fn analyze_command_parses() {
        let p = parse_args(&["analyze", "g.mdg", "-p", "32", "--cert"]).unwrap();
        assert_eq!(
            p.command,
            Command::Analyze {
                file: Some("g.mdg".into()),
                procs: 32,
                machine: "cm5".into(),
                gallery: false,
                cert: true,
                cert_json: false,
                dot: false,
                fix: false,
                write: false,
                strict: false,
                mem_mb: None,
            }
        );
        let p = parse_args(&["analyze", "--gallery"]).unwrap();
        assert_eq!(
            p.command,
            Command::Analyze {
                file: None,
                procs: 16,
                machine: "cm5".into(),
                gallery: true,
                cert: false,
                cert_json: false,
                dot: false,
                fix: false,
                write: false,
                strict: false,
                mem_mb: None,
            }
        );
        assert!(parse_args(&["analyze"]).is_err(), "needs a file or --gallery");
        assert!(parse_args(&["analyze", "a.mdg", "b.mdg"]).is_err());
        assert!(parse_args(&["analyze", "g.mdg", "--wat"]).is_err());
    }

    #[test]
    fn analyze_machine_and_cert_json_flags() {
        let p = parse_args(&["analyze", "--gallery", "--machine", "mesh", "--cert-json"]).unwrap();
        assert_eq!(
            p.command,
            Command::Analyze {
                file: None,
                procs: 16,
                machine: "mesh".into(),
                gallery: true,
                cert: false,
                cert_json: true,
                dot: false,
                fix: false,
                write: false,
                strict: false,
                mem_mb: None,
            }
        );
        assert!(parse_args(&["analyze", "--gallery", "--machine", "vax"]).is_err());
        assert!(parse_args(&["analyze", "--gallery", "--machine"]).is_err());
    }

    #[test]
    fn serve_command_parses_with_defaults() {
        let p = parse_args(&["serve"]).unwrap();
        assert_eq!(
            p.command,
            Command::Serve {
                port: 7447,
                workers: 0,
                cache: 1024,
                queue: 256,
                max_queue_wait_ms: None,
                chaos: None,
                audit_rate: 0,
                worker: false,
                admm_workers: vec![],
                admm_stale: 0,
                block_deadline_ms: None,
                audit_log: None,
            }
        );
        let p = parse_args(&[
            "serve",
            "--port",
            "0",
            "--workers",
            "2",
            "--cache",
            "64",
            "--queue",
            "16",
            "--max-queue-wait",
            "250",
        ])
        .unwrap();
        assert_eq!(
            p.command,
            Command::Serve {
                port: 0,
                workers: 2,
                cache: 64,
                queue: 16,
                max_queue_wait_ms: Some(250),
                chaos: None,
                audit_rate: 0,
                worker: false,
                admm_workers: vec![],
                admm_stale: 0,
                block_deadline_ms: None,
                audit_log: None,
            }
        );
        assert!(parse_args(&["serve", "--port", "banana"]).is_err());
        assert!(parse_args(&["serve", "--cache", "0"]).is_err());
        assert!(parse_args(&["serve", "--wat"]).is_err());
    }

    #[test]
    fn serve_chaos_plan_parses_and_validates() {
        let p = parse_args(&["serve", "--chaos", "seed=42,panic=0.5,drop=0.1"]).unwrap();
        let Command::Serve { chaos: Some(plan), .. } = p.command else {
            panic!("chaos plan missing")
        };
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.worker_panic, 0.5);
        assert_eq!(plan.conn_drop, 0.1);
        assert!(parse_args(&["serve", "--chaos", "panic=2.0"]).is_err());
        assert!(parse_args(&["serve", "--chaos", "wat=1"]).is_err());
    }

    #[test]
    fn bench_solve_command_parses() {
        let p = parse_args(&["bench-solve"]).unwrap();
        assert_eq!(p.command, Command::BenchSolve { quick: false, out: None });
        let p = parse_args(&["bench-solve", "--quick", "--out", "BENCH_solver.json"]).unwrap();
        assert_eq!(
            p.command,
            Command::BenchSolve { quick: true, out: Some("BENCH_solver.json".into()) }
        );
        assert!(parse_args(&["bench-solve", "--out"]).is_err());
        assert!(parse_args(&["bench-solve", "--wat"]).is_err());
    }

    #[test]
    fn analyze_fix_dot_strict_flags() {
        let p = parse_args(&["analyze", "g.mdg", "--fix", "--write", "--dot", "-D"]).unwrap();
        let Command::Analyze { fix, write, dot, strict, .. } = p.command else {
            panic!("not analyze")
        };
        assert!(fix && write && dot && strict);
        assert!(parse_args(&["analyze", "g.mdg", "--write"]).is_err(), "--write needs --fix");
        assert!(
            parse_args(&["analyze", "--gallery", "--fix", "--write"]).is_err(),
            "--write needs a file"
        );
    }

    #[test]
    fn analyze_resources_subcommand_parses() {
        let p = parse_args(&["analyze", "resources", "g.mdg", "-p", "8", "--mem-mb", "4"]).unwrap();
        assert_eq!(
            p.command,
            Command::AnalyzeResources {
                file: Some("g.mdg".into()),
                procs: 8,
                machine: "cm5".into(),
                mem_mb: Some(4),
                gallery: false,
                json: false,
                strict: false,
            }
        );
        let p = parse_args(&["analyze", "resources", "--gallery", "--machine", "sp1", "--json"])
            .unwrap();
        assert_eq!(
            p.command,
            Command::AnalyzeResources {
                file: None,
                procs: 16,
                machine: "sp1".into(),
                mem_mb: None,
                gallery: true,
                json: true,
                strict: false,
            }
        );
        assert!(parse_args(&["analyze", "resources"]).is_err(), "needs a file or --gallery");
        assert!(parse_args(&["analyze", "resources", "a.mdg", "b.mdg"]).is_err());
        assert!(parse_args(&["analyze", "resources", "g.mdg", "--mem-mb", "0"]).is_err());
        assert!(parse_args(&["analyze", "resources", "g.mdg", "--wat"]).is_err());
    }

    #[test]
    fn analyze_mem_mb_override_parses() {
        let p = parse_args(&["analyze", "g.mdg", "--mem-mb", "64"]).unwrap();
        let Command::Analyze { mem_mb, .. } = p.command else { panic!("not analyze") };
        assert_eq!(mem_mb, Some(64));
        assert!(parse_args(&["analyze", "g.mdg", "--mem-mb", "none"]).is_err());
    }

    #[test]
    fn check_cert_subcommand_parses() {
        let p = parse_args(&["analyze", "check-cert", "cert.json"]).unwrap();
        assert_eq!(p.command, Command::CheckCert { file: "cert.json".into() });
        assert!(parse_args(&["analyze", "check-cert"]).is_err());
        assert!(parse_args(&["analyze", "check-cert", "a", "b"]).is_err());
    }

    #[test]
    fn serve_audit_rate_parses() {
        let p = parse_args(&["serve", "--audit-rate", "10"]).unwrap();
        let Command::Serve { audit_rate, .. } = p.command else { panic!("not serve") };
        assert_eq!(audit_rate, 10);
        assert!(parse_args(&["serve", "--audit-rate", "x"]).is_err());
    }

    #[test]
    fn compile_takes_the_admm_switch() {
        let p = parse_args(&["compile", "g.mdg", "-p", "64", "--admm"]).unwrap();
        let Command::Compile { admm, .. } = p.command else { panic!("not compile") };
        assert!(admm);
    }

    #[test]
    fn serve_worker_flag_parses() {
        let p = parse_args(&["serve", "--worker", "--port", "0"]).unwrap();
        let Command::Serve { worker, port, .. } = p.command else { panic!("not serve") };
        assert!(worker);
        assert_eq!(port, 0);
    }

    #[test]
    fn partition_command_parses() {
        let p = parse_args(&["partition", "g.mdg", "--blocks", "8", "-p", "64"]).unwrap();
        assert_eq!(
            p.command,
            Command::Partition { file: "g.mdg".into(), procs: 64, blocks: Some(8) }
        );
        let p = parse_args(&["partition", "g.mdg"]).unwrap();
        assert_eq!(p.command, Command::Partition { file: "g.mdg".into(), procs: 16, blocks: None });
        assert!(parse_args(&["partition"]).is_err());
        assert!(parse_args(&["partition", "g.mdg", "--blocks", "0"]).is_err());
        assert!(parse_args(&["partition", "g.mdg", "--wat"]).is_err());
    }

    #[test]
    fn bench_admm_command_parses() {
        let p = parse_args(&["bench-admm"]).unwrap();
        let in_process = BenchAdmmOpts::default();
        assert_eq!(
            p.command,
            Command::BenchAdmm(BenchAdmmOpts { quick: false, ..in_process.clone() })
        );
        let p = parse_args(&["bench-admm", "--quick", "--out", "BENCH_admm.json"]).unwrap();
        let out = Some("BENCH_admm.json".into());
        assert_eq!(p.command, Command::BenchAdmm(BenchAdmmOpts { out, ..in_process }));
        assert!(parse_args(&["bench-admm", "--wat"]).is_err());
    }

    #[test]
    fn bench_admm_fleet_flags_parse_and_require_fleet() {
        let p = parse_args(&[
            "bench-admm",
            "--quick",
            "--fleet",
            "3",
            "--chaos",
            "seed=7,block-crash=0.5",
            "--kill-after-ms",
            "50",
            "--admm-stale",
            "2",
            "--block-deadline-ms",
            "500",
        ])
        .unwrap();
        let Command::BenchAdmm(BenchAdmmOpts {
            fleet,
            chaos,
            kill_after_ms,
            admm_stale,
            block_deadline_ms,
            ..
        }) = p.command
        else {
            panic!("not bench-admm")
        };
        assert_eq!(fleet, 3);
        assert_eq!(chaos.unwrap().block_crash, 0.5);
        assert_eq!(kill_after_ms, Some(50));
        assert_eq!(admm_stale, 2);
        assert_eq!(block_deadline_ms, Some(500));
        assert!(parse_args(&["bench-admm", "--kill-after-ms", "50"]).is_err(), "needs --fleet");
        assert!(parse_args(&["bench-admm", "--admm-stale", "1"]).is_err(), "needs --fleet");
        assert!(
            parse_args(&["bench-admm", "--fleet", "2", "--block-deadline-ms", "0"]).is_err(),
            "deadline must be positive"
        );
    }

    #[test]
    fn serve_fleet_flags_parse() {
        let p = parse_args(&[
            "serve",
            "--admm-workers",
            "127.0.0.1:9001,127.0.0.1:9002",
            "--admm-stale",
            "3",
            "--block-deadline-ms",
            "750",
            "--audit-log",
            "audit.log",
        ])
        .unwrap();
        let Command::Serve { admm_workers, admm_stale, block_deadline_ms, audit_log, .. } =
            p.command
        else {
            panic!("not serve")
        };
        assert_eq!(admm_workers.len(), 2);
        assert_eq!(admm_workers[0], "127.0.0.1:9001".parse().unwrap());
        assert_eq!(admm_stale, 3);
        assert_eq!(block_deadline_ms, Some(750));
        assert_eq!(audit_log.as_deref(), Some("audit.log"));
        assert!(parse_args(&["serve", "--admm-workers", "not-an-addr"]).is_err());
        assert!(parse_args(&["serve", "--admm-workers", ","]).is_err(), "empty list");
        assert!(parse_args(&["serve", "--admm-stale", "2"]).is_err(), "needs --admm-workers");
    }

    #[test]
    fn every_flag_in_the_table_is_in_usage_under_its_command() {
        // A synopsis entry is a `  paradigm …` line plus its deeper-indented
        // continuation lines.
        let mut entries: Vec<String> = Vec::new();
        for line in USAGE.lines() {
            if line.starts_with("  paradigm ") {
                entries.push(line.trim().to_string());
            } else if let Some(last) = entries.last_mut().filter(|_| line.starts_with("      ")) {
                last.push_str(line);
            }
        }
        for &(command, _, switches, flags) in SPECS {
            // The entries of `analyze` are not those of `analyze resources`.
            let longer = |e: &str| {
                SPECS.iter().any(|s| {
                    s.0.len() > command.len() && e.starts_with(&format!("paradigm {} ", s.0))
                })
            };
            let own = |e: &&String| {
                (e.as_str() == format!("paradigm {command}")
                    || e.starts_with(&format!("paradigm {command} ")))
                    && !longer(e)
            };
            let text: Vec<&String> = entries.iter().filter(own).collect();
            assert!(!text.is_empty(), "`{command}` has no USAGE entry");
            let words: Vec<&str> = text
                .iter()
                .flat_map(|e| e.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
                .collect();
            for names in switches.iter().chain(flags.iter().map(|f| &f.0)) {
                assert!(
                    names.split('|').any(|n| words.contains(&n)),
                    "USAGE does not show `{names}` under `{command}`"
                );
            }
        }
    }

    #[test]
    fn every_command_in_the_table_builds_its_own_variant() {
        for &(command, takes, ..) in SPECS {
            let argv: Vec<&str> = command.split(' ').chain(takes.map(|_| "x")).collect();
            let complaint = parse_args(&argv).err().map_or(String::new(), |e| e.0);
            assert!(!complaint.contains("has no arm"), "{complaint}");
        }
    }

    #[test]
    fn procs_follow_the_pipeline_bound() {
        let max = MAX_PROCS.to_string();
        assert!(parse_args(&["compile", "g", "-p", &max]).is_ok());
        let e = parse_args(&["compile", "g", "-p", "4000000000"]).unwrap_err();
        assert!(e.0.contains(&format!("1..={max}")), "{e}");
        assert!(parse_args(&["compile", "g", "-p", "8", "--pb", "4000000000"]).is_err());
        assert!(parse_args(&["analyze", "resources", "g", "-p", "65537"]).is_err());
    }

    #[test]
    fn calibrate_defaults_to_64() {
        let p = parse_args(&["calibrate"]).unwrap();
        assert_eq!(p.command, Command::Calibrate { procs: 64 });
    }
}
