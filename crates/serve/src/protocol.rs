//! The line-delimited JSON request/response protocol.
//!
//! One request per line, one response line per request, in order.
//! Grammar (field order free; unknown fields rejected to catch typos):
//!
//! ```text
//! request   = solve | admm_block | stats | ping | shutdown
//! solve     = { "op":"solve", graph-src, "procs":int?, "machine":str?,
//!               "policy":("est"|"hlf")?, "pb":int?, "refine":bool?,
//!               "full_solver":bool?, "simulate":bool?, "admm":bool?,
//!               "deadline_ms":int? }
//! graph-src = "gallery": name            ; built-in workload, or
//!           | "graph": mdg-text          ; inline MDG text format
//! stats     = { "op":"stats" }
//! ping      = { "op":"ping" }
//! shutdown  = { "op":"shutdown" }
//! admm_block = see the [`crate::worker`] module — a consensus-ADMM
//!              block subproblem; only honoured by `serve --worker`
//!              nodes.
//!
//! response  = { "ok":true, ... } | { "ok":false, "error":str }
//! ```
//!
//! Defaults: `procs` 16, `machine` `"cm5"`, `policy` `"est"`, `pb`
//! automatic (Corollary 1), `refine`/`simulate`/`admm` false, fast
//! solver. A solve response carries `phi`, `t_psa`, `pb`,
//! `deviation_percent`, `utilization`, the allocation table,
//! `cached`/`deduplicated` flags, and the service latency in
//! microseconds; solves routed through the distributed tier add an
//! `admm` object with the coordinator's iteration counts and final
//! residuals.

use crate::json::{escape_into, num_into, parse, Json};
use crate::service::{ServeError, Service, SolveResponse};
use crate::worker::{block_solution_response, parse_block_job};
use paradigm_admm::{solve_block_job, BlockJob};
use paradigm_core::{
    gallery_graph, machine_from_spec, SolveSpec, GALLERY_NAMES, MACHINE_SPECS, MAX_PROCS,
};
use paradigm_mdg::{from_text, Mdg};
use paradigm_sched::SchedPolicy;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// A decoded request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Solve one graph under one spec.
    Solve {
        /// The graph to solve (already parsed/resolved).
        graph: Arc<Mdg>,
        /// Pipeline parameters.
        spec: SolveSpec,
        /// Max time the job may spend queued.
        deadline: Option<Duration>,
    },
    /// Solve one consensus-ADMM block subproblem (worker role only).
    AdmmBlock {
        /// The self-contained block x-update job.
        job: Box<BlockJob>,
    },
    /// Return the metrics snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to drain and exit.
    Shutdown,
}

/// Decode one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = parse(line).map_err(|e| e.to_string())?;
    let Json::Obj(members) = &doc else {
        return Err("request must be a JSON object".into());
    };
    let op = doc.get("op").and_then(Json::as_str).ok_or("missing string field `op`")?;
    match op {
        "stats" | "ping" | "shutdown" => {
            if members.len() != 1 {
                return Err(format!("`{op}` takes no other fields"));
            }
            Ok(match op {
                "stats" => Request::Stats,
                "ping" => Request::Ping,
                _ => Request::Shutdown,
            })
        }
        "solve" => parse_solve(&doc, members),
        "admm_block" => {
            parse_block_job(&doc, members).map(|job| Request::AdmmBlock { job: Box::new(job) })
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

const SOLVE_FIELDS: [&str; 11] = [
    "op",
    "gallery",
    "graph",
    "procs",
    "machine",
    "policy",
    "pb",
    "refine",
    "full_solver",
    "simulate",
    "admm",
];

fn parse_solve(doc: &Json, members: &[(String, Json)]) -> Result<Request, String> {
    for (key, _) in members {
        if key != "deadline_ms" && !SOLVE_FIELDS.contains(&key.as_str()) {
            return Err(format!("unknown field `{key}` in solve request"));
        }
    }
    let graph = match (doc.get("gallery"), doc.get("graph")) {
        (Some(_), Some(_)) => return Err("give `gallery` or `graph`, not both".into()),
        (Some(name), None) => {
            let name = name.as_str().ok_or("`gallery` must be a string")?;
            gallery_graph(name).ok_or_else(|| {
                format!("unknown gallery graph `{name}` (try {})", GALLERY_NAMES.join(", "))
            })?
        }
        (None, Some(text)) => {
            let text = text.as_str().ok_or("`graph` must be a string (MDG text format)")?;
            from_text(text).map_err(|e| format!("bad inline graph: {e}"))?
        }
        (None, None) => return Err("solve needs `gallery` or `graph`".into()),
    };
    let procs = match doc.get("procs") {
        None => 16,
        Some(v) => {
            let p = v.as_u64().ok_or("`procs` must be a non-negative integer")?;
            // What does not fit the type is a malformed request; what fits
            // but exceeds the bound is `SolveSpec::validate`'s to refuse.
            u32::try_from(p)
                .ok()
                .filter(|&p| p >= 1)
                .ok_or_else(|| format!("`procs` must be in 1..={MAX_PROCS}"))?
        }
    };
    let machine_name = match doc.get("machine") {
        None => "cm5",
        Some(v) => v.as_str().ok_or("`machine` must be a string")?,
    };
    let machine = machine_from_spec(machine_name, procs).ok_or_else(|| {
        format!("unknown machine `{machine_name}` (try {})", MACHINE_SPECS.join(", "))
    })?;
    let policy = match doc.get("policy").map(|v| v.as_str().ok_or("`policy` must be a string")) {
        None => SchedPolicy::LowestEst,
        Some(Ok("est")) => SchedPolicy::LowestEst,
        Some(Ok("hlf")) => SchedPolicy::HighestLevelFirst,
        Some(Ok(other)) => return Err(format!("unknown policy `{other}` (try est, hlf)")),
        Some(Err(e)) => return Err(e.into()),
    };
    let pb = match doc.get("pb") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            u32::try_from(v.as_u64().ok_or("`pb` must be a non-negative integer")?)
                .map_err(|_| "`pb` out of range")?,
        ),
    };
    let flag = |key: &str| -> Result<bool, String> {
        match doc.get(key) {
            None => Ok(false),
            Some(v) => v.as_bool().ok_or_else(|| format!("`{key}` must be a boolean")),
        }
    };
    let deadline = match doc.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(Duration::from_millis(
            v.as_u64().ok_or("`deadline_ms` must be a non-negative integer")?,
        )),
    };
    let spec = SolveSpec {
        machine,
        policy,
        pb,
        refine: flag("refine")?,
        fast_solver: !flag("full_solver")?,
        simulate: flag("simulate")?,
        admm: flag("admm")?,
    };
    Ok(Request::Solve { graph: Arc::new(graph), spec, deadline })
}

/// Encode an error response. Every error carries a stable `kind`
/// discriminator and a `retryable` hint so clients can decide between
/// backing off and giving up without parsing prose.
pub fn error_response_with(message: &str, kind: &str, retryable: bool) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::str(message)),
        ("kind".into(), Json::str(kind)),
        ("retryable".into(), Json::Bool(retryable)),
    ])
}

/// Encode a request-parse error (`kind` `"bad-request"`, not
/// retryable — resending the same malformed frame cannot help).
pub fn error_response(message: &str) -> Json {
    error_response_with(message, "bad-request", false)
}

/// Encode a [`ServeError`] with its own kind and retryability.
pub fn serve_error_response(e: &ServeError) -> Json {
    error_response_with(&e.to_string(), e.kind(), e.retryable())
}

/// Encode a successful solve response.
pub fn solve_response(r: &SolveResponse) -> Json {
    let alloc: Vec<Json> = r
        .output
        .alloc
        .iter()
        .map(|a| {
            Json::Obj(vec![
                ("node".into(), Json::str(&a.node)),
                ("continuous".into(), Json::num(a.continuous)),
                ("procs".into(), Json::num(f64::from(a.procs))),
            ])
        })
        .collect();
    let mut members = vec![
        ("ok".into(), Json::Bool(true)),
        ("graph".into(), Json::str(&r.graph)),
        ("compute_nodes".into(), Json::num(r.output.compute_nodes as f64)),
        ("phi".into(), Json::num(r.output.phi)),
        ("t_psa".into(), Json::num(r.output.t_psa)),
        ("pb".into(), Json::num(f64::from(r.output.pb))),
        ("deviation_percent".into(), Json::num(r.output.deviation_percent)),
        ("utilization".into(), Json::num(r.output.utilization)),
        ("alloc".into(), Json::Arr(alloc)),
        ("cached".into(), Json::Bool(r.cached)),
        ("deduplicated".into(), Json::Bool(r.deduplicated)),
        ("service_us".into(), Json::num(r.service.as_micros() as f64)),
    ];
    if let Some(sim) = r.output.sim_makespan {
        members.push(("sim_makespan".into(), Json::num(sim)));
    }
    if r.output.degraded.is_degraded() {
        members.push(("degraded".into(), Json::str(r.output.degraded.as_str())));
    }
    if let Some(stats) = &r.output.admm {
        members.push((
            "admm".into(),
            Json::Obj(vec![
                ("blocks".into(), Json::num(stats.blocks as f64)),
                ("cut_edges".into(), Json::num(stats.cut_edges as f64)),
                ("outer_iters".into(), Json::num(stats.outer_iters as f64)),
                ("inner_iters".into(), Json::num(stats.inner_iters as f64)),
                ("polish_iters".into(), Json::num(stats.polish_iters as f64)),
                ("primal_residual".into(), Json::num(stats.primal_residual)),
                ("dual_residual".into(), Json::num(stats.dual_residual)),
                ("converged".into(), Json::Bool(stats.converged)),
                ("blocks_retried".into(), Json::num(stats.blocks_retried as f64)),
                ("blocks_stolen".into(), Json::num(stats.blocks_stolen as f64)),
                ("blocks_stale".into(), Json::num(stats.blocks_stale as f64)),
                ("max_block_stale_rounds".into(), Json::num(stats.max_block_stale_rounds as f64)),
                ("workers_quarantined".into(), Json::num(stats.workers_quarantined as f64)),
                ("backend_downgrades".into(), Json::num(stats.backend_downgrades as f64)),
            ]),
        ));
    }
    Json::Obj(members)
}

/// [`solve_response`] rendered, written straight into one buffer: the
/// same bytes as `solve_response(r).render()` without the tree of
/// per-field `String`s behind them (the hit path's encode step).
fn render_solve_response(r: &SolveResponse) -> String {
    // Every number goes through `f64` as `Json::num` takes it, so the two
    // encoders cannot drift apart on a wide integer.
    fn num(out: &mut String, key: &str, v: f64) {
        out.push_str(key);
        num_into(v, out);
    }
    let o = &*r.output;
    let names: usize = o.alloc.iter().map(|a| a.node.len()).sum();
    let mut out = String::with_capacity(640 + r.graph.len() + names + 64 * o.alloc.len());
    out.push_str(r#"{"ok":true,"graph":"#);
    escape_into(&r.graph, &mut out);
    num(&mut out, r#","compute_nodes":"#, o.compute_nodes as f64);
    num(&mut out, r#","phi":"#, o.phi);
    num(&mut out, r#","t_psa":"#, o.t_psa);
    num(&mut out, r#","pb":"#, f64::from(o.pb));
    num(&mut out, r#","deviation_percent":"#, o.deviation_percent);
    num(&mut out, r#","utilization":"#, o.utilization);
    out.push_str(r#","alloc":["#);
    for (i, a) in o.alloc.iter().enumerate() {
        out.push_str(if i == 0 { r#"{"node":"# } else { r#",{"node":"# });
        escape_into(&a.node, &mut out);
        num(&mut out, r#","continuous":"#, a.continuous);
        num(&mut out, r#","procs":"#, f64::from(a.procs));
        out.push('}');
    }
    let _ = write!(out, r#"],"cached":{},"deduplicated":{}"#, r.cached, r.deduplicated);
    num(&mut out, r#","service_us":"#, r.service.as_micros() as f64);
    if let Some(sim) = o.sim_makespan {
        num(&mut out, r#","sim_makespan":"#, sim);
    }
    if o.degraded.is_degraded() {
        out.push_str(r#","degraded":"#);
        escape_into(o.degraded.as_str(), &mut out);
    }
    if let Some(s) = &o.admm {
        num(&mut out, r#","admm":{"blocks":"#, s.blocks as f64);
        num(&mut out, r#","cut_edges":"#, s.cut_edges as f64);
        num(&mut out, r#","outer_iters":"#, s.outer_iters as f64);
        num(&mut out, r#","inner_iters":"#, s.inner_iters as f64);
        num(&mut out, r#","polish_iters":"#, s.polish_iters as f64);
        num(&mut out, r#","primal_residual":"#, s.primal_residual);
        num(&mut out, r#","dual_residual":"#, s.dual_residual);
        let _ = write!(out, r#","converged":{}"#, s.converged);
        num(&mut out, r#","blocks_retried":"#, s.blocks_retried as f64);
        num(&mut out, r#","blocks_stolen":"#, s.blocks_stolen as f64);
        num(&mut out, r#","blocks_stale":"#, s.blocks_stale as f64);
        num(&mut out, r#","max_block_stale_rounds":"#, s.max_block_stale_rounds as f64);
        num(&mut out, r#","workers_quarantined":"#, s.workers_quarantined as f64);
        num(&mut out, r#","backend_downgrades":"#, s.backend_downgrades as f64);
        out.push('}');
    }
    out.push('}');
    out
}

/// Dispatch one already-parsed request against a service and render
/// the response line. `Shutdown` and `Ping` are acknowledged here; the
/// *server* decides what shutdown means for its accept loop.
pub fn dispatch(service: &Service, request: &Request) -> String {
    let doc = match request {
        Request::Ping => {
            Json::Obj(vec![("ok".into(), Json::Bool(true)), ("pong".into(), Json::Bool(true))])
        }
        Request::Stats => Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("stats".into(), service.stats().to_json()),
        ]),
        Request::Shutdown => Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("shutting_down".into(), Json::Bool(true)),
        ]),
        Request::Solve { graph, spec, deadline } => {
            match service.submit_with_deadline(Arc::clone(graph), spec.clone(), *deadline) {
                Ok(r) => return render_solve_response(&r),
                Err(e) => serve_error_response(&e),
            }
        }
        Request::AdmmBlock { job } => {
            if !service.worker_enabled() {
                return error_response_with(
                    "admm_block requires worker mode (start with `serve --worker`)",
                    "not-a-worker",
                    false,
                )
                .render();
            }
            // Block solves bypass the queue and cache: they are the
            // inner loop of a distributed solve, change every round,
            // and the coordinator already paces its own requests.
            if let Some(chaos) = service.chaos() {
                chaos.maybe_block_slow();
                chaos.maybe_block_crash();
            }
            let mut ws = paradigm_solver::workspace::acquire();
            match solve_block_job(job, &mut ws) {
                Ok(sol) => {
                    service.record_block_solved();
                    block_solution_response(&sol)
                }
                Err(e) => error_response_with(&e, "invalid", false),
            }
        }
    };
    doc.render()
}

/// Handle one raw request line end-to-end: parse, dispatch, encode.
/// The bool is true if the client asked for shutdown.
pub fn handle_line(service: &Service, line: &str) -> (String, bool) {
    match parse_request(line) {
        Err(msg) => (error_response(&msg).render(), false),
        Ok(req) => {
            let shutdown = matches!(req, Request::Shutdown);
            (dispatch(service, &req), shutdown)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use paradigm_mdg::to_text;

    fn svc() -> Service {
        Service::start(ServeConfig {
            workers: 2,
            cache_capacity: 64,
            queue_capacity: 8,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn solve_request_parses_with_defaults() {
        let req = parse_request(r#"{"op":"solve","gallery":"fig1"}"#).unwrap();
        let Request::Solve { graph, spec, deadline } = req else { panic!("not solve") };
        assert_eq!(graph.name(), "fig1-example");
        assert_eq!(spec.machine.procs, 16);
        assert_eq!(spec.policy, SchedPolicy::LowestEst);
        assert!(spec.fast_solver && !spec.refine && !spec.simulate);
        assert!(spec.pb.is_none() && deadline.is_none());
    }

    #[test]
    fn solve_request_full_options() {
        let req = parse_request(
            r#"{"op":"solve","gallery":"cmm","procs":32,"machine":"mesh","policy":"hlf",
                "pb":8,"refine":true,"full_solver":true,"simulate":true,"deadline_ms":250}"#,
        )
        .unwrap();
        let Request::Solve { spec, deadline, .. } = req else { panic!("not solve") };
        assert_eq!(spec.machine.procs, 32);
        assert!(spec.machine.xfer.t_n > 0.0, "mesh has a network term");
        assert_eq!(spec.policy, SchedPolicy::HighestLevelFirst);
        assert_eq!(spec.pb, Some(8));
        assert!(spec.refine && spec.simulate && !spec.fast_solver);
        assert_eq!(deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn inline_graph_accepted() {
        let text = to_text(&paradigm_core::gallery_graph("fig1").unwrap());
        let line = Json::Obj(vec![
            ("op".into(), Json::str("solve")),
            ("graph".into(), Json::str(text)),
            ("procs".into(), Json::num(4.0)),
        ])
        .render();
        let Request::Solve { graph, .. } = parse_request(&line).unwrap() else {
            panic!("not solve")
        };
        assert_eq!(graph.compute_node_count(), 3);
    }

    #[test]
    fn malformed_requests_rejected() {
        for bad in [
            "not json",
            "[1,2]",
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"solve"}"#,
            r#"{"op":"solve","gallery":"nope"}"#,
            r#"{"op":"solve","gallery":"fig1","graph":"mdg x"}"#,
            r#"{"op":"solve","gallery":"fig1","procs":0}"#,
            r#"{"op":"solve","gallery":"fig1","procs":1.5}"#,
            r#"{"op":"solve","gallery":"fig1","machine":"vax"}"#,
            r#"{"op":"solve","gallery":"fig1","policy":"random"}"#,
            r#"{"op":"solve","gallery":"fig1","wat":1}"#,
            r#"{"op":"solve","graph":"mdg broken\nnode x"}"#,
            r#"{"op":"stats","extra":1}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn end_to_end_solve_and_stats() {
        let svc = svc();
        let (resp, shutdown) = handle_line(&svc, r#"{"op":"solve","gallery":"fig1","procs":4}"#);
        assert!(!shutdown);
        let doc = parse(&resp).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert!((doc.get("t_psa").and_then(Json::as_f64).unwrap() - 14.3).abs() < 1e-9);
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("alloc").and_then(Json::as_arr).map(<[Json]>::len), Some(3));

        let (resp2, _) = handle_line(&svc, r#"{"op":"solve","gallery":"fig1","procs":4}"#);
        let doc2 = parse(&resp2).unwrap();
        assert_eq!(doc2.get("cached").and_then(Json::as_bool), Some(true));

        let (stats, _) = handle_line(&svc, r#"{"op":"stats"}"#);
        let sdoc = parse(&stats).unwrap();
        let inner = sdoc.get("stats").expect("stats payload");
        assert_eq!(inner.get("solves").and_then(Json::as_u64), Some(1));
        assert_eq!(inner.get("cache_hits").and_then(Json::as_u64), Some(1));

        let (pong, _) = handle_line(&svc, r#"{"op":"ping"}"#);
        assert!(pong.contains("pong"));

        let (bye, shutdown) = handle_line(&svc, r#"{"op":"shutdown"}"#);
        assert!(shutdown);
        assert!(bye.contains("shutting_down"));
        svc.shutdown();
    }

    #[test]
    fn solve_error_is_protocol_error_not_panic() {
        let svc = svc();
        // pb larger than the machine: rejected by spec validation.
        let (resp, _) = handle_line(&svc, r#"{"op":"solve","gallery":"fig1","procs":4,"pb":64}"#);
        let doc = parse(&resp).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert!(doc.get("error").and_then(Json::as_str).unwrap().contains("processor bound"));
        svc.shutdown();
    }

    #[test]
    fn errors_carry_kind_and_retryability() {
        let svc = svc();
        let (resp, _) = handle_line(&svc, "not json");
        let doc = parse(&resp).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("bad-request"));
        assert_eq!(doc.get("retryable").and_then(Json::as_bool), Some(false));

        let (resp, _) = handle_line(&svc, r#"{"op":"solve","gallery":"fig1","procs":4,"pb":64}"#);
        let doc = parse(&resp).unwrap();
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("invalid"));
        assert_eq!(doc.get("retryable").and_then(Json::as_bool), Some(false));
        svc.shutdown();
    }

    #[test]
    fn degraded_solves_are_labelled() {
        let svc = Service::start(ServeConfig {
            workers: 2,
            cache_capacity: 64,
            queue_capacity: 8,
            chaos: Some(crate::chaos::FaultPlan {
                seed: 1,
                worker_panic: 1.0,
                ..Default::default()
            }),
            ..ServeConfig::default()
        });
        let (resp, _) = handle_line(&svc, r#"{"op":"solve","gallery":"fig1","procs":4}"#);
        let doc = parse(&resp).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("degraded").and_then(Json::as_str), Some("equal-split"));
        svc.shutdown();
    }

    /// `response` with the one field that differs between two answers to
    /// the same request — the measured latency — blanked.
    fn mask_service_us(response: &str) -> String {
        let key = r#""service_us":"#;
        let at = response.find(key).expect("solve responses carry service_us") + key.len();
        let digits = response[at..].find([',', '}']).expect("a value ends");
        format!("{}_{}", &response[..at], &response[at + digits..])
    }

    #[test]
    fn direct_writer_matches_the_json_tree_byte_for_byte() {
        // The oracle pair: `solve_response` builds the `Json` tree the
        // protocol is defined by, `handle_line` writes the same bytes
        // straight into a buffer. Gallery x {plain, simulate, admm} on a
        // healthy service, gallery x degraded on one whose every primary
        // solve panics, plus an inline graph whose name needs escaping.
        let healthy = svc();
        let panicking = Service::start(ServeConfig {
            workers: 2,
            chaos: Some(crate::chaos::FaultPlan {
                seed: 1,
                worker_panic: 1.0,
                ..Default::default()
            }),
            ..ServeConfig::default()
        });
        let escaped = to_text(&gallery_graph("fig1").unwrap())
            .replace("mdg fig1-example", "mdg \"tab\t back\\slash \u{1} Φ\"");
        let inline = Json::Obj(vec![
            ("op".into(), Json::str("solve")),
            ("graph".into(), Json::str(escaped)),
            ("procs".into(), Json::num(4.0)),
        ])
        .render();
        let mut cases: Vec<(&Service, String)> = vec![(&healthy, inline)];
        for name in GALLERY_NAMES {
            let line =
                |extra: &str| format!(r#"{{"op":"solve","gallery":"{name}","procs":8{extra}}}"#);
            cases.push((&healthy, line("")));
            // `simulate` is a second dense solve under its own key, and
            // seconds each in a debug build on the two largest graphs.
            if !matches!(name, "strassen-ml" | "random-layered") {
                cases.push((&healthy, line(r#","simulate":true"#)));
            }
            cases.push((&healthy, line(r#","admm":true"#)));
            cases.push((&panicking, line("")));
        }
        for (service, line) in &cases {
            let Request::Solve { graph, spec, deadline } = parse_request(line).unwrap() else {
                panic!("not solve: {line}")
            };
            // Cold, on one and the same response: no field to mask.
            let cold =
                service.submit_with_deadline(Arc::clone(&graph), spec.clone(), deadline).unwrap();
            assert_eq!(render_solve_response(&cold), solve_response(&cold).render(), "{line}");
            // Warm, through the front door.
            let (bytes, _) = handle_line(service, line);
            let again = service.submit_with_deadline(graph, spec, deadline).unwrap();
            assert_eq!(
                mask_service_us(&bytes),
                mask_service_us(&solve_response(&again).render()),
                "{line}"
            );
            let doc = parse(&bytes).unwrap();
            assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(true), "{line}");
            assert_eq!(doc.get("degraded").is_some(), std::ptr::eq(*service, &panicking));
            assert_eq!(doc.get("admm").is_some(), line.contains("admm"), "{line}");
            assert_eq!(doc.get("sim_makespan").is_some(), line.contains("simulate"), "{line}");
        }
        assert!(handle_line(&healthy, &cases[0].1)
            .0
            .contains(r#""graph":"tab\t back\\slash \u0001 Φ""#));
        // Non-finite numbers are `null` in both encoders.
        let mut r = healthy
            .submit(
                Arc::new(gallery_graph("fig1").unwrap()),
                SolveSpec::new(machine_from_spec("cm5", 4).unwrap()),
            )
            .unwrap();
        let mut output = (*r.output).clone();
        output.deviation_percent = f64::NAN;
        output.utilization = f64::INFINITY;
        r.output = Arc::new(output);
        assert_eq!(render_solve_response(&r), solve_response(&r).render());
        assert!(
            render_solve_response(&r).contains(r#""deviation_percent":null,"utilization":null"#)
        );
    }

    #[test]
    fn simulate_adds_sim_makespan() {
        let svc = svc();
        let (resp, _) =
            handle_line(&svc, r#"{"op":"solve","gallery":"fig1","procs":4,"simulate":true}"#);
        let doc = parse(&resp).unwrap();
        assert!(doc.get("sim_makespan").and_then(Json::as_f64).unwrap() > 0.0);
        svc.shutdown();
    }
}
